"""Root-system construction against brute-force lattice enumeration."""

from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from schwarz_atlas import roots

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
    cart = roots.cartan_matrix(roots.RootSystemType(fam, rank))
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
            assert system.inner(r, r) == 2


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
    a1, a2 = system.simple_roots
    assert np.array_equal(roots.reflect(a1, a1, system), -a1)
    assert np.array_equal(roots.reflect(a1, a2, system), a1 + a2)
    # fixed when orthogonal: in A3, alpha_1 and alpha_3 are orthogonal
    system3 = _sys("A", 3)
    e = system3.simple_roots
    assert np.array_equal(roots.reflect(e[0], e[2], system3), e[0])


def test_reflect_involution_random():
    rng = np.random.default_rng(3)
    for fam, rank in [("A", 4), ("D", 5), ("E", 7)]:
        system = _sys(fam, rank)
        pos = system.positive_roots
        for _ in range(100):
            lam = rng.integers(-4, 5, size=rank)
            alpha = pos[rng.integers(len(pos))]
            once = roots.reflect(lam, alpha, system)
            assert np.array_equal(roots.reflect(once, alpha, system), lam)


def test_root_set_closed_under_reflection():
    for fam, rank in [("A", 3), ("D", 4), ("E", 6), ("E", 8)]:
        system = _sys(fam, rank)
        pos = [tuple(map(int, r)) for r in system.positive_roots]
        all_roots = set(pos) | {tuple(-x for x in r) for r in pos}
        for alpha in list(all_roots):
            for beta in all_roots:
                img = roots.reflect(np.array(beta), np.array(alpha), system)
                assert tuple(map(int, img)) in all_roots


def test_coroot_coordinates():
    system = _sys("A", 2)
    a1 = system.simple_roots[0]
    assert roots.coroot_coordinates(a1, system).tolist() == [2, -1]
    assert roots.coroot_coordinates(a1 + system.simple_roots[1], system).tolist() == [1, 1]
    # integrality over a whole system
    e7 = _sys("E", 7)
    for r in e7.positive_roots:
        cc = roots.coroot_coordinates(r, e7)
        assert cc.dtype.kind == "i"


def test_highest_roots_match_classical_data():
    for (fam, rank), coeffs in HIGHEST.items():
        assert tuple(map(int, roots.highest_root(_sys(fam, rank)))) == coeffs


def test_invalid_types_rejected():
    for fam, rank in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2), ("A", 31)]:
        with pytest.raises(ValueError):
            roots.RootSystemType(fam, rank)


def test_build_is_shared_and_read_only():
    rtype = roots.RootSystemType("E", 7)
    system = roots.build(rtype)
    assert roots.build(roots.RootSystemType("E", 7)) is system
    for arr in (system.cartan, system.positive_roots):
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[0, 0] = 5
        with pytest.raises(ValueError):
            arr += 1
        assert np.array_equal(arr, before)
