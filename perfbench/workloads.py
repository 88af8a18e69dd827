"""Seeded op batches for the three benchmark workloads.

An op is a dict:

    kind    what is called: a CLI subcommand path ("torus form") or
            "gauss.vertex_angles" for the one in-process library call
    argv    the CLI argument list (CLI ops), or None
    call    the library call's arguments (vertex_angles ops), or None
    expect  the exit code a correct program gives
    defect  None, or the known defect that makes today's program exit 1
            where it should exit 0; such an op still counts in fail_ratio
    tols    residual key -> the tolerance the op is judged against
    ref     exact reference values the output must match
    key     (subcommand, type, parameters); ops sharing a key repeat work

Every batch has a fixed composition: the seed draws parameters inside each
slot and shuffles the order, but never changes how many ops of each slot a
batch holds.  That keeps wall time, failure counts and percentiles steady
across seeds.  Slot sizes are stated for DESIGN_SECONDS and scale linearly
with --seconds (never below one op).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

DESIGN_SECONDS = 25

# ---------------------------------------------------------------------------
# exact reference data, written out here rather than read from the program

TYPES = (
    [("A", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


def coupling(family, n):
    """The forced integrability constant (n+1)/4, n-2, 6, 12, 30."""
    if family == "A":
        return Fraction(n + 1, 4)
    if family == "D":
        return Fraction(n - 2)
    return Fraction({6: 6, 7: 12, 8: 30}[n])


def hyperbolic_m(family, n):
    """Upper end m of the coupling range (0, m): 2/(n+1), 1/(n-2), 1/(n-3)."""
    if family == "A":
        return Fraction(2, n + 1)
    if family == "D":
        return Fraction(1, n - 2)
    return Fraction(1, n - 3)


def positive_root_count(family, n):
    if family == "A":
        return n * (n + 1) // 2
    if family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def coxeter(family, n):
    if family == "A":
        return n + 1
    if family == "D":
        return 2 * n - 2
    return {6: 12, 7: 18, 8: 30}[n]


SPHERICAL_TILES = {(2, 3, 3): 24, (2, 3, 4): 48, (2, 3, 5): 120}
# the solution-table entries the literal conditions disagree with
ANOMALY_EXTRA = ((3, "A5"),)
ANOMALY_MISSING = ((6, "A5"),)

# CLI tolerances that are not flags
SPECTRUM_TOL = 1e-6
ANGLE_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-9
VERTEX_ANGLE_TOL = 1e-4     # acceptance criterion 5


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_flag(name, x):
    """`--name=p/q`: argparse reads `--name -7/5` as an unknown option."""
    return f"--{name}={fmt(x)}"


def _op(kind, argv=None, call=None, expect=0, defect=None, tols=None, ref=None, key=None):
    return {
        "kind": kind, "argv": argv, "call": call, "expect": expect, "defect": defect,
        "tols": tols or {}, "ref": ref or {}, "key": key,
    }


def _count(base, scale):
    return max(1, round(base * scale))


# ---------------------------------------------------------------------------
# gauss-loops

GAUSS_RELATION_TOL = 1e-7
# one of alpha, beta is n/3 for n in one of these windows, near 7 and 14
LARGE_WINDOWS = ((20, 22), (40, 44))
VERTEX_DEFECT_TRIPLE = (5, 5, 5)


def _irreducible(a, b, c):
    """Non-logarithmic with irreducible monodromy: none of gamma, gamma-alpha-beta,
    beta-alpha, alpha, beta, gamma-alpha, gamma-beta is an integer."""
    return all(x.denominator != 1 for x in (c, c - a - b, b - a, a, b, c - a, c - b))


def _small_rational(rng, cap):
    while True:
        x = Fraction(rng.randint(-10, 10), rng.randint(2, 12))
        if abs(x) <= cap:
            return x


def _gauss_triple(rng, cap=1, large=None):
    while True:
        a, b, c = (_small_rational(rng, cap) for _ in range(3))
        if large is not None:
            a = large
            if rng.random() < 0.5:
                a, b = b, a
        if _irreducible(a, b, c):
            return a, b, c


def _gauss_monodromy_op(a, b, c, defect=None):
    argv = ["gauss", "monodromy", rational_flag("alpha", a), rational_flag("beta", b),
            rational_flag("gamma", c), "--format", "json", f"--tol={GAUSS_RELATION_TOL!r}"]
    return _op("gauss monodromy", argv=argv, defect=defect,
               tols={"relation_residual": GAUSS_RELATION_TOL, "spectrum_residual": SPECTRUM_TOL},
               ref={"exponents": {"0": ["0", fmt(1 - c)], "1": ["0", fmt(c - a - b)],
                                  "inf": [fmt(a), fmt(b)]}},
               key=("gauss monodromy", None, tuple(sorted((a, b))) + (c,)))


def _vertex_op(k, l, m, defect=None):
    return _op("gauss.vertex_angles", call=[k, l, m], defect=defect,
               tols={"angle_residual": VERTEX_ANGLE_TOL},
               key=("gauss.vertex_angles", None, (k, l, m)))


def gauss_loops(rng, scale):
    """Gauss loop monodromy and conformal-map angles; nothing else."""
    ops = []
    # main slice: criterion 6's numerators -10..10 and denominators 2..12,
    # kept to |alpha|, |beta|, |gamma| <= 1 and irreducible monodromy, where
    # the absolute relation residual stays three decades under its tolerance
    for _ in range(_count(32, scale)):
        ops.append(_gauss_monodromy_op(*_gauss_triple(rng)))
    # large slice: one of alpha, beta near 7 or near 14, in narrow windows
    # that keep each op's cost steady; the absolute relation residual exceeds
    # --tol on all of them
    for _ in range(_count(1, scale)):
        for lo, hi in LARGE_WINDOWS:
            n = rng.choice([n for n in range(lo, hi + 1) if n % 3])
            ops.append(_gauss_monodromy_op(
                *_gauss_triple(rng, large=Fraction(n, 3)),
                defect="relation residual is absolute, so it exceeds --tol at large |alpha|, |beta|"))
    # conformal map: (1/k, 1/l, 1/m) with k in {2, 3}, plus one fixed triple
    # whose measured angles come back wrong today
    for _ in range(_count(3, scale)):
        k = rng.choice((2, 3))
        l = rng.randint(3, 7)
        ops.append(_vertex_op(k, l, rng.randint(l, 13)))
    for _ in range(_count(1, scale)):
        ops.append(_vertex_op(*VERTEX_DEFECT_TRIPLE,
                              defect="vertex_angles returns angles off by 3pi/10 at (1/5, 1/5, 1/5)"))
    return ops


# ---------------------------------------------------------------------------
# torus-ade

FLATNESS_TOL = 1e-8
HECKE_TOL = 1e-6
FORM_TOL = 1e-6
# the form is solved at every second rank; rank 4 draws its family
FORM_TYPES = ((("A", 2),), (("A", 4), ("D", 4)), (("E", 6),), (("E", 8),))
HIGHEST_TYPES = ((("A", 3), ("A", 4), ("D", 4)), (("A", 5), ("D", 5), ("A", 6)))
OFF_COUPLING = (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(3, 2))


def _of_rank(rank):
    return [t for t in TYPES if t[1] == rank]


def _k_in_range(rng, family, n, lo=3, hi=16):
    """k = m * j / 20 for a seeded j; (0, m) is the hyperbolic coupling range."""
    return hyperbolic_m(family, n) * Fraction(rng.randint(lo, hi), 20)


def _type_args(family, n):
    return ["--type", family, "--rank", str(n)]


def _flatness_op(rng, family, n, off):
    k = _k_in_range(rng, family, n)
    a = coupling(family, n)
    argv = ["torus", "flatness", *_type_args(family, n), rational_flag("k", k),
            "--samples", "5", "--seed", str(rng.randint(0, 999)), "--format", "json",
            f"--tol={FLATNESS_TOL!r}"]
    if off:
        a = a * rng.choice(OFF_COUPLING)
        argv.append(rational_flag("a-override", a))
    return _op("torus flatness", argv=argv, expect=1 if off else 0,
               tols={"flatness_residual": FLATNESS_TOL}, ref={"coupling": fmt(a)},
               key=("torus flatness", f"{family}{n}", k))


def _monodromy_op(rng, family, n, root):
    k = _k_in_range(rng, family, n)
    argv = ["torus", "monodromy", *_type_args(family, n), rational_flag("k", k),
            "--root", root, "--format", "json", f"--tol={HECKE_TOL!r}"]
    return _op("torus monodromy", argv=argv, tols={"hecke_residual": HECKE_TOL},
               ref={"k": fmt(k)}, key=("torus monodromy", f"{family}{n}", k))


def _form_op(rng, family, n):
    # a narrow band of k keeps the cost of each slot steady; on E8 every k
    # in it hits the collapsed invariant-form solve
    k = _k_in_range(rng, family, n, 8, 11)
    argv = ["torus", "form", *_type_args(family, n), rational_flag("k", k),
            "--samples", "10", "--seed", str(rng.randint(0, 999)), "--format", "json",
            f"--tol={FORM_TOL!r}"]
    defect = None
    if (family, n) == ("E", 8):
        defect = "E8 invariant-form null space has dimension 64, not 1"
    return _op("torus form", argv=argv, defect=defect, tols={"form_residual": FORM_TOL},
               ref={"rank": n}, key=("torus form", f"{family}{n}", k))


def torus_ade(rng, scale):
    """Torus mirror loops, flatness and invariant forms across A2..E8."""
    ops = []
    # Types are drawn within a rank, so each slot's cost stays steady across
    # seeds.  The cheap flatness ops are most of the batch, which puts the
    # median latency inside them; the eleventh-slowest op is a simple-root
    # loop.
    for _ in range(_count(6, scale)):
        # flatness on every type, then on one type of each rank off the
        # forced coupling, where the curvature must be detected (exit 1)
        ops.extend(_flatness_op(rng, f, n, off=False) for f, n in TYPES)
        for rank in range(2, 9):
            ops.append(_flatness_op(rng, *rng.choice(_of_rank(rank)), off=True))
    for _ in range(_count(3, scale)):
        for rank in range(2, 9):
            f, n = rng.choice(_of_rank(rank))
            ops.append(_monodromy_op(rng, f, n, str(rng.randint(1, n))))
    for _ in range(_count(1, scale)):
        for choices in HIGHEST_TYPES:
            ops.append(_monodromy_op(rng, *rng.choice(choices), "highest"))
        for choices in FORM_TYPES:
            ops.append(_form_op(rng, *rng.choice(choices)))
    return ops


# ---------------------------------------------------------------------------
# exact-geometry

EUCLIDEAN = ((3, 3, 3), (2, 4, 4), (2, 3, 6))
# hyperbolic triples with the deepest word length that still passes today
HYPERBOLIC_OK = {(2, 3, 7): 10, (2, 4, 5): 10, (2, 3, 8): 10, (2, 5, 5): 8, (3, 3, 4): 6}
HYPERBOLIC_DEEP = {(2, 3, 7): (11, 13), (3, 3, 4): (7, 9)}


def _tessellate_op(klm, depth, svg_index, ref=None, defect=None):
    k, l, m = klm
    argv = ["triangle", "tessellate", "--k", str(k), "--l", str(l), "--m", str(m)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    argv += ["--svg", f"{{tmp}}/tile{svg_index:05d}.svg", "--format", "json"]
    return _op("triangle tessellate", argv=argv, defect=defect,
               tols={"angle_residual": ANGLE_TOL, "orthogonality_residual": ORTHOGONALITY_TOL},
               ref=ref, key=("triangle tessellate", None, (k, l, m, depth)))


def exact_geometry(rng, scale):
    """Exact Fraction scans, root data and tessellations; no continuation."""
    ops = []
    # enumerate: p_max in (10, 100] and rank_max in 7..13, one op per stratum
    # of each (in seeded pairing), which keeps the slowest ops' cost steady
    n_enum = _count(75, scale)
    rank_maxes = [7 + (7 * i) // n_enum for i in range(n_enum)]
    rng.shuffle(rank_maxes)
    for i, rank_max in enumerate(rank_maxes):
        p_max = rng.randint(10 + (90 * i) // n_enum, 10 + (90 * (i + 1)) // n_enum)
        extra = [list(x) for x in ANOMALY_EXTRA if x[0] <= p_max]
        missing = [list(x) for x in ANOMALY_MISSING if x[0] <= p_max]
        ops.append(_op("schwarz enumerate", argv=[
            "schwarz", "enumerate", "--p-max", str(p_max), "--rank-max", str(rank_max),
            "--format", "json"], ref={"extra": extra, "missing": missing},
            key=("schwarz enumerate", None, (p_max, rank_max))))
    for _ in range(_count(375, scale)):
        (f, n), p = rng.choice(TYPES), rng.randint(3, 40)
        ops.append(_op("schwarz check", argv=[
            "schwarz", "check", *_type_args(f, n), "--p", str(p), "--format", "json"],
            ref={"p": p}, key=("schwarz check", f"{f}{n}", p)))
    for _ in range(_count(225, scale)):
        n, p = rng.randint(1, 12), rng.randint(3, 60)
        ops.append(_op("schwarz dm", argv=[
            "schwarz", "dm", "--n", str(n), "--p", str(p), "--format", "json"],
            ref={"k": fmt(Fraction(p - 2, 2 * p))}, key=("schwarz dm", n, p)))
    for _ in range(_count(60, scale)):
        n_max, p_max = rng.randint(4, 10), rng.randint(20, 60)
        ops.append(_op("schwarz dm-scan", argv=[
            "schwarz", "dm-scan", "--n-max", str(n_max), "--p-max", str(p_max),
            "--format", "json"], key=("schwarz dm-scan", None, (n_max, p_max))))
    for _ in range(_count(150, scale)):
        f, n = rng.choice(TYPES)
        ops.append(_op("roots dump", argv=["roots", "dump", *_type_args(f, n), "--format", "json"],
                       ref={"positive_roots": positive_root_count(f, n),
                            "coxeter": coxeter(f, n)},
                       key=("roots dump", f"{f}{n}", None)))
    for _ in range(_count(150, scale)):
        klm = tuple(rng.randint(2, 13) for _ in range(3))
        ops.append(_op("gauss schwarz-triangle", argv=[
            "gauss", "schwarz-triangle",
            *(rational_flag(name, Fraction(1, x)) for name, x in zip(("kappa", "lambda", "mu"), klm)),
            "--format", "json"], tols={"angle_residual": ANGLE_TOL},
            ref={"angles": [math.pi / x for x in klm]},
            key=("gauss schwarz-triangle", None, klm)))
    svg = 0
    for _ in range(_count(60, scale)):
        klm = rng.choice(sorted(SPHERICAL_TILES))
        ops.append(_tessellate_op(klm, None, svg, ref={"tiles": SPHERICAL_TILES[klm]}))
        svg += 1
        ops.append(_tessellate_op(rng.choice(EUCLIDEAN), rng.randint(4, 12), svg))
        svg += 1
    hyperbolic = sorted(HYPERBOLIC_OK)
    for _ in range(_count(75, scale)):
        klm = rng.choice(hyperbolic)
        ops.append(_tessellate_op(klm, rng.randint(4, HYPERBOLIC_OK[klm]), svg))
        svg += 1
    deep = sorted(HYPERBOLIC_DEEP)
    for _ in range(_count(40, scale)):
        klm = rng.choice(deep)
        ops.append(_tessellate_op(
            klm, rng.randint(*HYPERBOLIC_DEEP[klm]), svg,
            defect="plane tessellation loses orthogonality past the known breakdown depth"))
        svg += 1
    return ops


WORKLOADS = {
    "gauss-loops": gauss_loops,
    "torus-ade": torus_ade,
    "exact-geometry": exact_geometry,
}


def build(workload, seed, seconds):
    """The op batch for (workload, seed, seconds), in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, seconds / DESIGN_SECONDS)
    rng.shuffle(ops)
    return ops


def repeat_share(ops):
    """Share of ops whose key matches an earlier op's key."""
    seen, repeats = set(), 0
    for op in ops:
        key = repr(op["key"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)
