"""Hypergeometric machinery: continuation, monodromy, the vertex angles of
the conformal triangle map, and the degree-2 pullback oracle of criterion 7.

Numeric expectations are checked against independent oracles: homotopy of
paths, the exact Riemann scheme data, closed forms in mpmath.hyp2f1 at 30
digits, and the exact angles pi x of the triangles.
"""

import cmath
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (PullbackParams, dictionary, dictionary_inverse, exponent_differences,
                     monodromy_relation_residual,
                     pullback_coefficients, pullback_map, pullback_ode_residual, riemann_scheme,
                     riemann_scheme4, spectrum_mismatch)
from schwarz_atlas import gauss as G
from schwarz_atlas.exact import reduce_parameters

P_STD = G.GaussParams(F(1, 84), F(13, 84), F(1, 2))  # differences (1/2, 1/3, 1/7)


def loop_spectra(sch):
    """exp(2 pi i e) for the exponent pairs of the scheme sch, keyed as
    monodromy_matrices keys its loops."""
    pairs = {0: sch.at_zero, 1: sch.at_one, "inf": sch.at_infinity}
    return {s: [cmath.exp(2j * cmath.pi * float(e)) for e in pair] for s, pair in pairs.items()}


def test_riemann_scheme_exact():
    sch = riemann_scheme(P_STD)
    assert sch.at_zero == (0, F(1, 2))
    assert sch.at_one == (0, F(1, 3))
    assert sch.at_infinity == (F(1, 84), F(13, 84))
    assert exponent_differences(sch).as_tuple() == (F(1, 2), F(1, 3), F(1, 7))
    assert sum(sch.at_zero) + sum(sch.at_one) + sum(sch.at_infinity) == 1
    assert {s: G.expected_monodromy_spectrum(P_STD, s) for s in (0, 1, "inf")} == (
        loop_spectra(sch))


def test_scheme_sum_is_one_for_random_params():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = G.GaussParams(
            F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
            F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
            F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
        )
        sch = riemann_scheme(p)
        assert sum(sch.at_zero) + sum(sch.at_one) + sum(sch.at_infinity) == 1
        assert {s: G.expected_monodromy_spectrum(p, s) for s in (0, 1, "inf")} == (
            loop_spectra(sch))


def test_chart_value_at_a_vanishing_denominator_is_infinity():
    # a zero of the second solution is a pole of the Schwarz map
    pole = G._chart_value(np.array([[2.0 + 1j, 1e-16], [0.0, 1.0]]))
    assert pole == complex(math.inf, math.inf)
    assert G._chart_value(np.array([[3.0 + 0j, 2.0], [0.0, 1.0]])) == 1.5


def test_log_case_flag():
    assert G.GaussParams(F(1, 2), F(1, 2), F(1)).log_case
    assert not P_STD.log_case


def test_params_from_differences_round_trip():
    p = G.params_from_differences(F(1, 2), F(1, 3), F(1, 7))
    assert (p.alpha, p.beta, p.gamma) == (F(1, 84), F(13, 84), F(1, 2))


def test_continuation_empty_and_reverse():
    p = P_STD
    fr = np.eye(2, dtype=complex)
    same = G._transport(p, [(0.5,)], fr)[0]
    assert np.allclose(same, np.eye(2), atol=1e-14)
    path = (0.5, 0.5 + 0.5j, -0.3 + 0.7j)
    out = G._transport(p, [path], fr)[0]
    back = G._transport(p, [tuple(reversed(path))], out)[0]
    assert np.max(np.abs(back - np.eye(2))) < 1e-9


def test_continuation_homotopy_invariance():
    p = P_STD
    fr = np.eye(2, dtype=complex)
    target = 0.5 + 0.5j
    direct = G._transport(p, [(0.5, target)], fr)[0]
    detour = G._transport(p, [(0.5, 0.2 + 0.2j, 0.1 + 0.6j, target)], fr)[0]
    assert np.max(np.abs(direct - detour)) < 1e-8


def test_continuation_linear_in_frame():
    p = P_STD
    rng = np.random.default_rng(5)
    path = (0.5, 0.5 + 0.5j, 1.2 + 0.5j)
    F1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    F2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c1, c2 = 0.7 - 0.2j, -1.1 + 0.4j
    out1 = G._transport(p, [path], F1)[0]
    out2 = G._transport(p, [path], F2)[0]
    combo = G._transport(p, [path], c1 * F1 + c2 * F2)[0]
    assert np.max(np.abs(combo - (c1 * out1 + c2 * out2))) < 1e-9


def test_monodromy_eigenvalues_and_relation():
    p = P_STD
    loops = G.monodromy_matrices(p)
    assert list(loops) == [0, 1, "inf"]
    assert spectrum_mismatch(loops[0], [1.0, -1.0]) < 1e-9  # gamma = 1/2
    for s, M in loops.items():
        expected = G.expected_monodromy_spectrum(p, s)
        assert spectrum_mismatch(M, expected) < 1e-9
    assert monodromy_relation_residual(loops[0], loops[1], loops["inf"]) < 1e-9


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _frobenius_jets(p, z):
    """Jets (rows: value, derivative) of the Frobenius basis at 0,
    z^(1-gamma) 2F1(alpha-gamma+1, beta-gamma+1; 2-gamma; z) and
    2F1(alpha, beta; gamma; z), on the principal branches, as an mpmath
    matrix at the working precision."""
    a, b, c = _mp(p.alpha), _mp(p.beta), _mp(p.gamma)
    z = mpmath.mpc(z)
    r = 1 - c
    zr = mpmath.exp(r * mpmath.log(z))
    g1 = mpmath.hyp2f1(a + r, b + r, 1 + r, z)
    d1 = (a + r) * (b + r) / (1 + r) * mpmath.hyp2f1(a + r + 1, b + r + 1, 2 + r, z)
    g2 = mpmath.hyp2f1(a, b, c, z)
    d2 = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)
    return mpmath.matrix([[zr * g1, g2], [r * zr / z * g1 + zr * d1, d2]])


def _complex(m):
    return np.array(m.tolist(), dtype=np.complex128)


def _frobenius_oracle(p, z):
    with mpmath.workdps(30):
        return _complex(_frobenius_jets(p, z))


def _basis_at_one_oracle(p):
    """Jets at 1/2 of the basis at 1: in w = 1 - z the equation has
    parameters (alpha, beta, alpha+beta-gamma+1), and d/dz = -d/dw.  Columns
    have exponents gamma-alpha-beta and 0 at 1."""
    q = G.GaussParams(p.alpha, p.beta, p.alpha + p.beta - p.gamma + 1)
    return _frobenius_oracle(q, 0.5) * np.array([[1.0], [-1.0]])


ORACLE_PARAMS = (
    P_STD,
    G.GaussParams(F(7, 3), F(-10, 9), F(-3, 7)),
    G.GaussParams(F(2, 5), F(-3, 7), F(5, 6)),
)


def _param_id(p):
    return f"{p.alpha},{p.beta},{p.gamma}"


@pytest.mark.parametrize("p", ORACLE_PARAMS, ids=_param_id)
def test_continuation_matches_hyp2f1(p):
    # straight segments from 1/2 stay in one half-plane, where continuation
    # gives the principal branches of z^(1-gamma) and 2F1
    base = _frobenius_oracle(p, 0.5)
    for z in (1.1 + 0.2j, -2 + 1.5j, 6 + 2j, -30 + 40j):
        for w in (z, z.conjugate()):
            got = G._transport(p, [(0.5, w)], base)[0]
            want = _frobenius_oracle(p, w)
            for j in range(2):
                err = np.max(np.abs(got[:, j] - want[:, j])) / np.max(np.abs(want[:, j]))
                assert err <= 1e-11, (w, j, err)


@pytest.mark.parametrize("p", ORACLE_PARAMS, ids=_param_id)
def test_monodromy_matches_local_bases(p):
    # around 0 and 1 the local bases only pick up exp(2 pi i e); the loop at
    # infinity then follows from M_inf M_1 M_0 = 1
    b0 = _frobenius_oracle(p, 0.5)
    b1 = _basis_at_one_oracle(p)
    d0 = np.diag([cmath.exp(2j * cmath.pi * float(1 - p.gamma)), 1.0])
    d1 = np.diag([cmath.exp(2j * cmath.pi * float(p.gamma - p.alpha - p.beta)), 1.0])
    m0 = b0 @ d0 @ np.linalg.inv(b0)
    m1 = b1 @ d1 @ np.linalg.inv(b1)
    loops = G.monodromy_matrices(p)
    for s, want in ((0, m0), (1, m1), ("inf", np.linalg.inv(m1 @ m0))):
        got = loops[s]
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), s


def test_monodromy_at_large_alpha_matches_local_bases():
    # alpha = 44/3: the loop matrices at 0 and infinity reach norm 1e3, so
    # the closed forms are built at 30 digits and compared relatively.  A
    # loop at infinity reaching out to |z| = 3.6 misses them by 4e-6.
    p = G.GaussParams(F(44, 3), F(-4, 5), F(5, 8))
    q = G.GaussParams(p.alpha, p.beta, p.alpha + p.beta - p.gamma + 1)
    with mpmath.workdps(30):
        b0 = _frobenius_jets(p, 0.5)
        b1 = mpmath.diag([1, -1]) * _frobenius_jets(q, 0.5)
        d0 = mpmath.diag([mpmath.expjpi(2 * _mp(1 - p.gamma)), 1])
        d1 = mpmath.diag([mpmath.expjpi(2 * _mp(p.gamma - p.alpha - p.beta)), 1])
        m0 = b0 * d0 * b0 ** -1
        m1 = b1 * d1 * b1 ** -1
        want = {0: _complex(m0), 1: _complex(m1), "inf": _complex((m1 * m0) ** -1)}
    loops = G.monodromy_matrices(p)
    for s, M in loops.items():
        assert np.linalg.norm(M - want[s]) <= 1e-9 * np.linalg.norm(want[s]), s
        expected = G.expected_monodromy_spectrum(p, s)
        assert G.scaled_spectrum_residual(M, expected) <= 1e-9, s
    assert G.scaled_relation_residual(loops[0], loops[1], loops["inf"]) <= 1e-11


def _irreducible(p):
    """Non-logarithmic with irreducible monodromy: none of gamma,
    gamma - alpha - beta, beta - alpha, alpha, beta, gamma - alpha and
    gamma - beta is an integer."""
    a, b, c = p.alpha, p.beta, p.gamma
    return all(x.denominator != 1 for x in (c, c - a - b, b - a, a, b, c - a, c - b))


SMALL_RATIONALS = st.builds(F, st.integers(-10, 10), st.integers(2, 12)).filter(
    lambda x: abs(x) <= 1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.builds(G.GaussParams, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS)
       .filter(_irreducible))
def test_monodromy_relation_and_spectra_hold_for_random_parameters(p):
    loops = G.monodromy_matrices(p)
    assert G.scaled_relation_residual(loops[0], loops[1], loops["inf"]) <= 1e-13
    for s, M in loops.items():
        assert G.scaled_spectrum_residual(M, G.expected_monodromy_spectrum(p, s)) <= 1e-13, s


def _sl2_invariants(p):
    """xyz and x^2 + y^2 + z^2 - xyz - 2 for x = tr N0, y = tr N1 and
    z = tr N1 N0, where N is a loop matrix scaled into SL2.  Neither depends
    on the sign of either square root, so both are invariants of the
    projective monodromy."""
    loops = G.monodromy_matrices(p)
    n0, n1 = (M / np.sqrt(np.linalg.det(M)) for M in (loops[0], loops[1]))
    x, y, z = np.trace(n0), np.trace(n1), np.trace(n1 @ n0)
    return x * y * z, x * x + y * y + z * z - x * y * z - 2


NON_INTEGER_DIFFERENCES = st.builds(F, st.integers(-40, 40), st.integers(2, 10)).filter(
    lambda d: d.denominator != 1 and abs(d) <= 4)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.tuples(NON_INTEGER_DIFFERENCES, NON_INTEGER_DIFFERENCES, NON_INTEGER_DIFFERENCES))
def test_reduced_differences_keep_the_projective_monodromy(raw):
    p = G.params_from_differences(*raw)
    reduced, _ = reduce_parameters(p.alpha, p.beta, p.gamma)
    for got, want in zip(_sl2_invariants(G.params_from_differences(*reduced.as_tuple())),
                         _sl2_invariants(p)):
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (raw, reduced)


def test_scaled_residuals_detect_wrong_data():
    M = np.diag([1.0, -1.0]).astype(np.complex128)
    assert G.scaled_spectrum_residual(M, [1.0, -1.0]) == 0.0
    assert G.scaled_spectrum_residual(M, [1.0, 1j]) > 0.5
    assert G.scaled_relation_residual(M, M, np.eye(2)) == 0.0
    assert G.scaled_relation_residual(M, np.eye(2), np.eye(2)) > 0.5


def test_monodromy_alpha_zero_fixes_constants():
    # alpha = 0: f = 1 solves the equation, so every loop fixes the first
    # basis vector of the identity jet frame at 1/2
    p = G.GaussParams(F(0), F(2, 7), F(3, 5))
    e0 = np.array([1.0, 0.0])
    for M in G.monodromy_matrices(p).values():
        assert np.max(np.abs(M @ e0 - e0)) < 1e-10


def test_wronskian_along_loop_scaled_by_det_monodromy():
    # |det M_0| = |exp(2 pi i (1 - gamma))| = 1 for real parameters
    p = P_STD
    m0 = G.monodromy_matrices(p)[0]
    assert abs(abs(np.linalg.det(m0)) - 1.0) < 1e-10


def test_vertex_angles_standard_triple():
    angles = G.vertex_angles(P_STD)
    for got, want in zip(angles, (math.pi / 2, math.pi / 3, math.pi / 7)):
        assert abs(got - want) < 1e-4


def test_vertex_angles_invariant_under_basis_change(monkeypatch):
    base = G.vertex_angles(P_STD)
    mob = np.array([[1.3, 0.2 - 0.1j], [-0.4j, 0.9]], dtype=complex)
    monkeypatch.setattr(G, "_MOBIUS_RETRIES", (mob,))
    moved = G.vertex_angles(P_STD)
    for a, b in zip(base, moved):
        assert abs(a - b) < 1e-6


# triples whose first chart reaches the chart infinity, so that the angles
# come from the second basis of _MOBIUS_RETRIES
SECOND_CHART = [(F(9, 8), F(5, 4), F(11, 8)), (F(7, 6), F(7, 6), F(4, 3)),
                (F(8, 7), F(9, 7), F(10, 7))]


@pytest.mark.parametrize("klm", [
    (F(1, 5), F(1, 5), F(1, 5)), (F(1, 4), F(1, 6), F(1, 8)),
    (F(1, 2), F(1, 3), F(1, 7)), (F(1, 2), F(1, 3), F(1, 5)), (F(1, 4), F(1, 4), F(1, 4)),
    (F(0), F(1, 3), F(1, 4)), (F(3, 8), F(3, 8), F(3, 8)), (F(5, 8), F(5, 8), F(5, 8)),
    (F(7, 8), F(1, 2), F(1, 2)), (F(3, 4), F(3, 4), F(3, 4)), *SECOND_CHART])
def test_vertex_angles_regressions(klm):
    # the first two triples once came back wrong without an error being
    # raised; the next reach a cusp and angles past pi/2, and the last three
    # a second chart.  Every chart starts from its basis at 1/2, with no
    # local series.  A measured angle is at most pi, so a difference x past
    # 1 reads pi (2 - x)
    p = G.params_from_differences(*klm)
    for got, x in zip(G.vertex_angles(p), klm):
        assert abs(got - math.pi * min(x, 2 - x)) <= 1e-12


@pytest.mark.parametrize("klm", SECOND_CHART)
def test_first_chart_alone_fails_on_the_second_chart_triples(klm, monkeypatch):
    monkeypatch.setattr(G, "_MOBIUS_RETRIES", G._MOBIUS_RETRIES[:1])
    with pytest.raises(G.NumericFailure, match="failed for every chart"):
        G.vertex_angles(G.params_from_differences(*klm))


def test_vertex_measurement_failing_in_every_chart_is_a_numeric_failure():
    # no chart of these differences gives boundary images that fit circles
    p = G.params_from_differences(F(39, 5), F(5, 13), F(27))
    with pytest.raises(G.NumericFailure, match="failed for every chart") as info:
        G.vertex_angles(p)
    assert not isinstance(info.value, ValueError)


def test_vertex_angle_cusp():
    # kappa = 0 (gamma = 1): logarithmic at 0, still a measurable cusp
    p = G.GaussParams(F(1, 6), F(5, 14), F(1))
    angles = G.vertex_angles(p)
    assert angles[0] < 1e-4
    d = p.differences()
    assert abs(angles[1] - abs(float(d.lam)) * math.pi) < 1e-4


def test_vertex_angle_of_circles_that_do_not_meet_is_zero(monkeypatch):
    # the corner at the image of 1 is measured as if its circles missed
    # each other; the other two corners keep their bits
    angles = G.vertex_angles(P_STD)
    meets = G.circle_intersections
    calls = []

    def second_misses(c1, c2):
        calls.append(1)
        return [] if len(calls) == 2 else meets(c1, c2)

    monkeypatch.setattr(G, "circle_intersections", second_misses)
    assert G.vertex_angles(P_STD) == (angles[0], 0.0, angles[2])
    assert len(calls) == 3
    monkeypatch.setattr(G, "circle_intersections", lambda c1, c2: [])
    assert G.vertex_angles(P_STD) == (0.0, 0.0, 0.0)


def test_pullback_map_values():
    assert pullback_map(F(1)) == 0
    assert pullback_map(F(-1)) == 1
    for z in (F(3, 7), F(-5, 2), F(12, 5)):
        assert pullback_map(z) == pullback_map(1 / z)
    with pytest.raises(ZeroDivisionError):
        pullback_map(F(0))


def test_dictionary_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pb = PullbackParams(
            F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
            F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
            F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
        )
        assert dictionary_inverse(dictionary(pb)) == pb
    p = dictionary(PullbackParams(F(1, 4), F(0), F(0)))
    assert (p.alpha, p.beta, p.gamma) == (F(1, 8), F(1, 8), F(3, 4))


def test_scheme4_exponents():
    pb = PullbackParams(F(1, 5), F(1, 7), F(1, 3))
    p = dictionary(pb)
    sch = riemann_scheme4(pb)
    assert sch.at_plus_one == (0, 2 - 2 * p.gamma)
    assert sch.at_plus_one[1] == 1 - 2 * pb.k1 - 2 * pb.k2
    assert sch.at_minus_one == (0, 2 * p.gamma - 2 * (p.alpha + p.beta))
    assert sch.at_zero == sch.at_infinity == (p.alpha, p.beta)


def test_pullback_residual_generic_point():
    pb = PullbackParams(F(1, 5), F(1, 7), F(1, 3))
    z = 1.7 * cmath.exp(1.1j)
    assert pullback_ode_residual(pb, z) < 1e-8


def test_pullback_residual_rejects_singular_neighborhood():
    pb = PullbackParams(F(1, 5), F(1, 7), F(1, 3))
    with pytest.raises(ValueError):
        pullback_ode_residual(pb, 1.05 + 0j)


def test_reduced_coefficients_match_rank_one_form():
    # k1 = k, k2 = 0, lam = 0 collapses the operator to
    # theta^2 + k (1+1/z)/(1-1/z) theta + k^2/4
    k = F(1, 4)
    pb = PullbackParams(k, F(0), F(0))
    for z in (1.7 + 0.4j, -2.2 + 1.1j):
        c1, c0 = pullback_coefficients(pb, z)
        u = (1 + 1 / z) / (1 - 1 / z)
        assert abs(c1 - float(k) * u) < 1e-14
        assert abs(c0 - float(k) ** 2 / 4) < 1e-16
