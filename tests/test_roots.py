"""Root-system construction against brute-force lattice enumeration."""

import hashlib
import io
import math
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from oracles import _inverse_cartan, inner, reflect
from schwarz_atlas import cli, roots

# classical highest-root coordinate vectors (Bourbaki node order); these bound
# the brute-force box scan below and pin the E8 monomial example
HIGHEST = {
    ("A", 2): (1, 1),
    ("A", 3): (1, 1, 1),
    ("A", 5): (1, 1, 1, 1, 1),
    ("D", 4): (1, 2, 1, 1),
    ("D", 5): (1, 2, 2, 1, 1),
    ("D", 6): (1, 2, 2, 2, 1, 1),
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
}


def _sys(fam, rank):
    return roots.build(roots.RootSystemType(fam, rank))


def brute_force_positive_roots(fam, rank):
    """Independent oracle: scan the integer box below the classical highest
    root for norm-2 vectors with nonnegative coordinates."""
    cart = np.array(roots.cartan_matrix(roots.RootSystemType(fam, rank)))
    bounds = HIGHEST[(fam, rank)]
    out = set()
    for c in product(*(range(b + 1) for b in bounds)):
        v = np.array(c, dtype=np.int64)
        if v.any() and v @ cart @ v == 2:
            out.add(c)
    return out


@pytest.mark.parametrize("fam,rank,count", [
    ("A", 2, 3), ("A", 3, 6), ("D", 4, 12), ("D", 5, 20), ("E", 6, 36),
    ("E", 7, 63), ("E", 8, 120),
])
def test_positive_root_sets_match_brute_force(fam, rank, count):
    system = _sys(fam, rank)
    got = {tuple(map(int, r)) for r in system.positive_roots}
    assert len(got) == count
    assert got == brute_force_positive_roots(fam, rank)


def test_every_root_has_norm_two():
    for fam, rank in [("A", 1), ("A", 7), ("D", 6), ("E", 7), ("E", 8)]:
        system = _sys(fam, rank)
        for r in system.positive_roots:
            assert inner(system, r, r) == 2


def test_root_count_equals_rank_times_coxeter():
    closed_forms = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
                    "E": lambda n: {6: 12, 7: 18, 8: 30}[n]}
    cases = [("A", n) for n in range(1, 11)]
    cases += [("D", n) for n in range(4, 11)]
    cases += [("E", n) for n in (6, 7, 8)]
    for fam, rank in cases:
        system = _sys(fam, rank)
        h = roots.coxeter_number(system)
        assert 2 * len(system.positive_roots) == rank * h
        assert h == closed_forms[fam](rank)


@pytest.mark.parametrize("fam,rank,value", [
    ("A", 1, F(1, 2)), ("A", 2, F(3, 4)), ("D", 5, F(3)),
    ("E", 6, F(6)), ("E", 7, F(12)), ("E", 8, F(30)),
])
def test_integrability_constant(fam, rank, value):
    assert roots.integrability_constant(_sys(fam, rank)) == value


@pytest.mark.parametrize("fam,rank,value", [
    ("A", 2, F(2, 3)), ("A", 7, F(1, 4)), ("D", 4, F(1, 2)),
    ("D", 6, F(1, 4)), ("E", 6, F(1, 3)), ("E", 8, F(1, 5)),
])
def test_hyperbolic_exponent(fam, rank, value):
    assert roots.hyperbolic_exponent(_sys(fam, rank)) == value


def test_toric_distances():
    assert roots.toric_distances(_sys("D", 4)) == (1, 1)
    assert roots.toric_distances(_sys("D", 7)) == (1, 4)
    assert roots.toric_distances(_sys("E", 6)) == (1, 2, 2)
    assert roots.toric_distances(_sys("E", 7)) == (1, 2, 3)
    assert roots.toric_distances(_sys("E", 8)) == (1, 2, 4)
    with pytest.raises(ValueError):
        roots.toric_distances(_sys("A", 4))


def test_reflect_basics():
    system = _sys("A", 2)
    a1, a2 = np.array(system.simple_roots)
    assert np.array_equal(reflect(a1, a1, system), -a1)
    assert np.array_equal(reflect(a1, a2, system), a1 + a2)
    # fixed when orthogonal: in A3, alpha_1 and alpha_3 are orthogonal
    system3 = _sys("A", 3)
    e = np.array(system3.simple_roots)
    assert np.array_equal(reflect(e[0], e[2], system3), e[0])


def test_reflect_involution_random():
    rng = np.random.default_rng(3)
    for fam, rank in [("A", 4), ("D", 5), ("E", 7)]:
        system = _sys(fam, rank)
        pos = system.positive_roots
        for _ in range(100):
            lam = rng.integers(-4, 5, size=rank)
            alpha = pos[rng.integers(len(pos))]
            once = reflect(lam, alpha, system)
            assert np.array_equal(reflect(once, alpha, system), lam)


def test_root_set_closed_under_reflection():
    for fam, rank in [("A", 3), ("D", 4), ("E", 6), ("E", 8)]:
        system = _sys(fam, rank)
        pos = [tuple(map(int, r)) for r in system.positive_roots]
        all_roots = set(pos) | {tuple(-x for x in r) for r in pos}
        for alpha in list(all_roots):
            for beta in all_roots:
                img = reflect(np.array(beta), np.array(alpha), system)
                assert tuple(map(int, img)) in all_roots


def test_coroot_coordinates():
    system = _sys("A", 2)
    a1, a2 = np.array(system.simple_roots)
    assert (np.array(system.cartan) @ a1).tolist() == [2, -1]
    assert (np.array(system.cartan) @ (a1 + a2)).tolist() == [1, 1]
    # integrality over a whole system
    e7 = _sys("E", 7)
    for r in e7.positive_roots:
        cc = np.array(e7.cartan) @ r
        assert cc.dtype.kind == "i"


def test_highest_roots_match_classical_data():
    for (fam, rank), coeffs in HIGHEST.items():
        assert tuple(map(int, roots.highest_root(_sys(fam, rank)))) == coeffs


def test_invalid_types_rejected():
    for fam, rank in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2), ("A", 31)]:
        with pytest.raises(ValueError):
            roots.RootSystemType(fam, rank)


def test_build_is_shared_and_read_only():
    # tuples of int tuples: immutable by type, so a shared system cannot change
    rtype = roots.RootSystemType("E", 7)
    system = roots.build(rtype)
    assert roots.build(roots.RootSystemType("E", 7)) is system
    for rows in (system.cartan, system.positive_roots, system.simple_roots):
        assert type(rows) is tuple
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in rows)
        with pytest.raises(TypeError):
            rows[0][0] = 5
    assert type(roots.highest_root(system)) is tuple


def _box_roots(system):
    """Every non-negative integer vector x with x^T C x = 2, by (height,
    coordinates).  Since C is positive definite, x_i^2 <= 2 (C^-1)_ii for
    such x, so the box of those bounds holds them all."""
    cinv = _inverse_cartan(system)
    bounds = [math.isqrt(math.floor(2 * cinv[i][i])) for i in range(system.rank)]
    cart = np.array(system.cartan)
    found = [c for c in product(*(range(b + 1) for b in bounds))
             if np.array(c) @ cart @ np.array(c) == 2]
    return sorted(found, key=lambda c: (sum(c), c))


@pytest.mark.parametrize("fam, rank", [
    *(("A", n) for n in range(1, 7)), *(("D", n) for n in range(4, 7)), ("E", 6)])
def test_positive_roots_are_the_norm_two_box_vectors_in_order(fam, rank):
    system = _sys(fam, rank)
    assert list(system.positive_roots) == _box_roots(system)


# sha256 of the `roots dump` JSON outputs of A1-A30, D4-D30 and E6-E8, one
# after the other in that order, as the numpy enumeration printed them
ROOTS_DUMP_SHA256 = "7aa6d10ffa7b13efb3a18df4bf76bf71cd9008dc7f19ecbd109a3ecb2ce895f6"


def test_roots_dump_bytes_are_pinned():
    types = [("A", n) for n in range(1, 31)] + [("D", n) for n in range(4, 31)]
    digest = hashlib.sha256()
    for fam, rank in types + [("E", 6), ("E", 7), ("E", 8)]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["roots", "dump", "--type", fam, "--rank", str(rank)]) == 0
        digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == ROOTS_DUMP_SHA256
