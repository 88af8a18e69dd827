"""Simply laced (ADE) root systems with exact integer lattice data.

Roots are stored as integer coordinate vectors in the simple-root basis, so the
bilinear form is the Cartan matrix and every quantity below is computed in
integer arithmetic.  Node numbering follows Bourbaki: A_n is the path
1-2-...-n, D_n has nodes n-1 and n attached to the chain at n-2, and E_n hangs
node 2 off node 4 of the chain 1-3-4-5-...-n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import format_rational

__all__ = [
    "RootSystemType",
    "RootSystem",
    "DerivedConstants",
    "build",
    "coxeter_number",
    "integrability_constant",
    "hyperbolic_exponent",
    "toric_distances",
    "reflect",
    "coroot_coordinates",
    "highest_root",
    "derived_constants",
]

_RANK_CAP = 30


@dataclass(frozen=True)
class RootSystemType:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if fam == "A":
            if not 1 <= n <= _RANK_CAP:
                raise ValueError(f"A_n needs 1 <= n <= {_RANK_CAP}, got {n}")
        elif fam == "D":
            if not 4 <= n <= _RANK_CAP:
                raise ValueError(f"D_n needs 4 <= n <= {_RANK_CAP}, got {n}")
        elif fam == "E":
            if n not in (6, 7, 8):
                raise ValueError(f"E_n needs n in {{6, 7, 8}}, got {n}")
        else:
            raise ValueError(f"unknown family {fam!r}, expected A, D or E")

    def __str__(self):
        return f"{self.family}{self.rank}"


def _diagram_edges(rtype):
    """Bourbaki diagram edges as 0-based node pairs."""
    n = rtype.rank
    if rtype.family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if rtype.family == "D":
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
        return edges
    # E_n: chain 1-3-4-5-...-n plus the branch 2-4
    chain = [0, 2] + list(range(3, n))
    edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges.append((1, 3))
    return edges


def cartan_matrix(rtype):
    n = rtype.rank
    cart = 2 * np.eye(n, dtype=np.int64)
    for i, j in _diagram_edges(rtype):
        cart[i, j] = cart[j, i] = -1
    return cart


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; safe to share freely once built: the
    arrays are read-only."""

    rtype: RootSystemType
    cartan: np.ndarray          # n x n, also the Gram matrix of the simple roots
    positive_roots: np.ndarray  # (n_pos, n) integer coordinates, by height then lex

    @property
    def rank(self):
        return self.rtype.rank

    @property
    def simple_roots(self):
        return np.eye(self.rank, dtype=np.int64)

    @property
    def gram(self):
        return self.cartan

    def inner(self, x, y):
        """Bilinear form of two lattice vectors given in simple-root coordinates."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        return int(x @ self.cartan @ y)

    def is_root(self, v):
        v = np.asarray(v, dtype=np.int64)
        return self.inner(v, v) == 2 and (
            any(np.array_equal(v, r) for r in self.positive_roots)
            or any(np.array_equal(-v, r) for r in self.positive_roots)
        )

    def __str__(self):
        return str(self.rtype)


_SYSTEMS = {}


def build(rtype):
    """The root system of a type, built on the first call and shared after."""
    if not isinstance(rtype, RootSystemType):
        raise TypeError(f"expected RootSystemType, got {type(rtype).__name__}")
    system = _SYSTEMS.get(rtype)
    if system is None:
        system = _SYSTEMS[rtype] = _enumerate(rtype)
    return system


def _enumerate(rtype):
    """Enumerate the positive roots by height.

    Every positive root of height h+1 is (positive root of height h) + (simple
    root), and in the simply laced case the roots are exactly the lattice
    vectors of squared norm 2, so a breadth-first sweep with a norm test closes
    the set.
    """
    n = rtype.rank
    cart = cartan_matrix(rtype)
    level = [tuple(row) for row in np.eye(n, dtype=np.int64)]
    seen = set(level)
    positive = list(level)
    while level:
        nxt = []
        for root in level:
            base = np.array(root, dtype=np.int64)
            for i in range(n):
                cand = base.copy()
                cand[i] += 1
                key = tuple(cand)
                if key in seen:
                    continue
                if cand @ cart @ cand == 2:
                    seen.add(key)
                    nxt.append(key)
        positive.extend(nxt)
        level = nxt
    positive.sort(key=lambda c: (sum(c), c))
    pos = np.array(positive, dtype=np.int64)
    cart.setflags(write=False)
    pos.setflags(write=False)
    return RootSystem(rtype=rtype, cartan=cart, positive_roots=pos)


def coxeter_number(system):
    """h = |R| / rank, with |R| twice the number of positive roots."""
    count = 2 * len(system.positive_roots)
    h, rem = divmod(count, system.rank)
    if rem:
        raise ValueError(f"root count {count} not divisible by rank {system.rank}")
    return h


def integrability_constant(system):
    """The scalar coupling that makes the torus system flat: (n+1)/4, n-2, 6, 12, 30."""
    fam, n = system.rtype.family, system.rank
    if fam == "A":
        return Fraction(n + 1, 4)
    if fam == "D":
        return Fraction(n - 2)
    return {6: Fraction(6), 7: Fraction(12), 8: Fraction(30)}[n]


def hyperbolic_exponent(system):
    """Upper end of the coupling range with a Lorentzian invariant form."""
    fam, n = system.rtype.family, system.rank
    if fam == "A":
        return Fraction(2, n + 1)
    if fam == "D":
        return Fraction(1, n - 2)
    return Fraction(1, n - 3)


def toric_distances(system):
    """Diagram distances from the extremal nodes to the triple node.

    Defined for D and E only; duplicates are kept ({1, 1} for D4, {1, 2, 2} for
    E6).  The A family uses a separate closed form in the stratum conditions.
    """
    fam, n = system.rtype.family, system.rank
    if fam == "D":
        return (1, n - 3)
    if fam == "E":
        return (1, 2, n - 4)
    raise ValueError("toric distances are defined for families D and E only")


def reflect(lam, alpha, system):
    """Orthogonal reflection s_alpha(lam) = lam - (lam, alpha) alpha, in coordinates."""
    lam = np.asarray(lam, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=np.int64)
    if system.inner(alpha, alpha) != 2:
        raise ValueError(f"{alpha!r} is not a root (squared norm != 2)")
    return lam - system.inner(lam, alpha) * alpha


def coroot_coordinates(alpha, system):
    """Coordinates of the coroot in the basis dual to the simple roots.

    Entry i is (alpha_i, alpha); integral for every root of a simply laced
    system.
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    return system.cartan @ alpha


def highest_root(system):
    return system.positive_roots[-1].copy()


@dataclass(frozen=True)
class DerivedConstants:
    coxeter_h: int
    coupling_a: Fraction
    hyperbolic_m: Fraction
    toric_d: tuple


def derived_constants(system):
    fam = system.rtype.family
    return DerivedConstants(
        coxeter_h=coxeter_number(system),
        coupling_a=integrability_constant(system),
        hyperbolic_m=hyperbolic_exponent(system),
        toric_d=toric_distances(system) if fam in ("D", "E") else (),
    )


def dump(system):
    """JSON-ready description of the system (used by the CLI)."""
    consts = derived_constants(system)
    return {
        "family": system.rtype.family,
        "rank": system.rank,
        "simple_roots": system.simple_roots.tolist(),
        "positive_roots": system.positive_roots.tolist(),
        "gram": system.cartan.tolist(),
        "coxeter_number": consts.coxeter_h,
        "integrability_constant": format_rational(consts.coupling_a),
        "hyperbolic_exponent": format_rational(consts.hyperbolic_m),
        "toric_distances": list(consts.toric_d),
        "positive_root_count": len(system.positive_roots),
    }
