"""Simply laced (ADE) root systems with exact integer lattice data.

Roots are stored as integer coordinate vectors in the simple-root basis, so the
bilinear form is the Cartan matrix C: the pairing of x and y is x^T C y, the
coroot coordinates of a root alpha are C alpha, and every quantity below is
computed in integer arithmetic.  The Cartan matrix and the roots are tuples of
Python int tuples: immutable, and built without numpy, so the exact layer and
the CLI subcommands on it start on the standard library alone.  torus keeps
its own float copies.  Node numbering follows Bourbaki: A_n is the path
1-2-...-n, D_n has nodes n-1 and n attached to the chain at n-2, and E_n hangs
node 2 off node 4 of the chain 1-3-4-5-...-n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .exact import format_rational

__all__ = [
    "RootSystemType",
    "RootSystem",
    "build",
    "coxeter_number",
    "integrability_constant",
    "hyperbolic_exponent",
    "toric_distances",
    "highest_root",
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


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def cartan_matrix(rtype):
    n = rtype.rank
    cart = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in _diagram_edges(rtype):
        cart[i][j] = cart[j][i] = -1
    return tuple(map(tuple, cart))


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; safe to share freely once built: every
    field is a tuple of int tuples."""

    rtype: RootSystemType
    cartan: tuple          # n rows of n, also the Gram matrix of the simple roots
    positive_roots: tuple  # integer coordinate rows, by height then lex

    @property
    def rank(self):
        return self.rtype.rank

    @property
    def simple_roots(self):
        return _identity(self.rank)

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
    vectors of squared norm 2.  Since |r + alpha_i|^2 = 4 + 2 (C r)_i for a
    root r, r + alpha_i is a root iff (C r)_i = -1.  Each root of a level
    carries its coroot coordinates C r, and a child's are C r plus row i of
    the symmetric C, so a child costs O(n).  Each level is sorted, so the
    roots come out by height, then lexicographically.
    """
    cart = cartan_matrix(rtype)
    # (root, C root) pairs; the simple root alpha_i has row i of C
    level = sorted(zip(_identity(rtype.rank), cart))
    pos = []
    while level:
        pos += [root for root, _ in level]
        nxt = {}
        for root, coroot in level:
            for i, c in enumerate(coroot):
                if c == -1:
                    child = root[:i] + (root[i] + 1,) + root[i + 1:]
                    if child not in nxt:
                        nxt[child] = tuple(map(add, coroot, cart[i]))
        level = sorted(nxt.items())
    return RootSystem(rtype=rtype, cartan=cart, positive_roots=tuple(pos))


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


def highest_root(system):
    return system.positive_roots[-1]


def dump(system):
    """JSON-ready description of the system (used by the CLI)."""
    return {
        "family": system.rtype.family,
        "rank": system.rank,
        "simple_roots": [list(r) for r in system.simple_roots],
        "positive_roots": [list(r) for r in system.positive_roots],
        "gram": [list(r) for r in system.cartan],
        "coxeter_number": coxeter_number(system),
        "integrability_constant": format_rational(integrability_constant(system)),
        "hyperbolic_exponent": format_rational(hyperbolic_exponent(system)),
        "toric_distances": list(toric_distances(system)) if system.rtype.family != "A" else [],
        "positive_root_count": len(system.positive_roots),
    }
