"""Torus-system assembly, curvature, continuation, mirror monodromy, the
invariant form and the negative-cone check."""

import cmath
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from schwarz_atlas import roots, torus


def _sys(fam, rank):
    return roots.build(roots.RootSystemType(fam, rank))


A1 = _sys("A", 1)
A2 = _sys("A", 2)
D4 = _sys("D", 4)
E8 = _sys("E", 8)


# --- characters ---------------------------------------------------------------

def test_char_value_definition_and_additivity():
    z = np.array([2.0 + 0j, 3.0 + 0j])
    assert torus.char_value(z, [1, 0]) == 2.0
    assert torus.char_value(z, [1, 1]) == 6.0  # highest root: z1 z2


def test_char_value_exact_homomorphism():
    zq = [F(2, 3), F(5, 7), F(9, 4), F(3), F(1, 2), F(7, 5), F(11, 3), F(4, 9)]
    e8 = _sys("E", 8)
    pos = e8.positive_roots
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = pos[rng.integers(len(pos))]
        b = pos[rng.integers(len(pos))]
        lhs = torus.char_value(zq, a + b)
        rhs = torus.char_value(zq, a) * torus.char_value(zq, b)
        assert lhs == rhs  # bit-for-bit on Fractions


def test_e8_highest_root_monomial():
    e8 = _sys("E", 8)
    assert roots.highest_root(e8).tolist() == [2, 3, 4, 6, 5, 4, 3, 2]
    z = [F(2), F(1), F(1), F(1), F(1), F(1), F(1), F(3)]
    assert torus.char_value(z, roots.highest_root(e8)) == F(2**2 * 3**2)


# --- assembly -----------------------------------------------------------------

def test_a1_reduces_to_rank_one_operator():
    z1 = 2.0 + 0.5j
    co = torus.assemble(A1, F(1, 4), np.array([z1]))
    u = (1 + z1) / (1 - z1)
    assert abs(co.cvec[0, 0, 0] - 0.25 * u) < 1e-15
    assert co.exact_scalar(A1, 0, 0) == F(1, 4) ** 2 / 4


@pytest.mark.parametrize("fam, rank", [
    *(("A", n) for n in range(2, 9)), *(("D", n) for n in range(4, 9)),
    *(("E", n) for n in range(6, 9))])
def test_exact_inverse_cartan_at_every_rank(fam, rank):
    system = _sys(fam, rank)
    cinv = torus._inverse_cartan(system)
    cart = [[F(int(v)) for v in row] for row in system.cartan]
    for i in range(rank):
        for j in range(rank):
            assert sum(cart[i][l] * cinv[l][j] for l in range(rank)) == int(i == j)
    # the float scalar block inverts the Cartan matrix in floats: equal to
    # the exact one to rounding (at most about 7 eps relative, at E8)
    co = torus.assemble(system, F(1, 7), np.exp(torus.default_base_point(system)))
    exact = [[float(co.exact_scalar(system, i, j)) for j in range(rank)] for i in range(rank)]
    np.testing.assert_allclose(co.scalar, exact, rtol=16 * np.finfo(float).eps, atol=0)


def test_assemble_two_summation_orders_agree():
    # independent re-summation: evaluate each positive root's contribution
    # with plain Python complex arithmetic, in reversed order
    k = F(1, 4)
    zvals = [2.0 + 0j, 3.0 + 0j]
    co = torus.assemble(A2, k, np.array(zvals))
    n = 2
    acc = np.zeros((n, n, n), dtype=complex)
    for alpha in reversed(A2.positive_roots):
        t = torus.char_value(zvals, alpha)
        u = (1 + t) / (1 - t)
        cc = roots.coroot_coordinates(alpha, A2)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    acc[i, j, l] += 0.5 * float(k) * alpha[i] * alpha[j] * u * cc[l]
    assert np.max(np.abs(acc - co.cvec)) < 1e-14


def test_assemble_symmetry_and_mirror_error():
    co = torus.assemble(A2, F(1, 6), np.array([2.0 + 1j, 0.5 - 0.3j]))
    assert np.max(np.abs(co.cvec - np.swapaxes(co.cvec, 0, 1))) == 0
    with pytest.raises(torus.MirrorSingularity):
        torus.assemble(A2, F(1, 6), np.array([1.0 + 0j, 2.0 + 0j]))


def test_connection_frame_layout():
    conn = torus.connection(A2, F(1, 4), np.array([2.0 + 1j, 3.0 - 1j]))
    for i, A in enumerate(conn):
        row0 = np.zeros(3)
        row0[i + 1] = 1.0
        assert np.array_equal(A[0].real, row0) and not A[0].imag.any()
    # mixed-equation consistency: row j+1 of A_i equals row i+1 of A_j
    A, B = conn
    assert np.max(np.abs(A[2, :] - B[1, :])) < 1e-12


# --- curvature ------------------------------------------------------------------

FAMILIES = [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]


def test_flatness_at_forced_coupling():
    rng = np.random.default_rng(42)
    for fam, rank in FAMILIES:
        system = _sys(fam, rank)
        m = float(roots.hyperbolic_exponent(system))
        base = torus.default_base_point(system)
        for trial in range(3):
            k = F(int(1 + rng.integers(8)), int(12 + rng.integers(24)))
            if not 0 < float(k) < m:
                k = F(1, 24)
            lz = base + 0.2 * (rng.standard_normal(rank) + 1j * rng.standard_normal(rank))
            for point in (np.exp(base), np.exp(lz)):
                assert torus.flatness_residual(system, k, point) < 1e-8


def test_flatness_sensitive_to_coupling():
    for fam, rank in [("D", 4), ("E", 6)]:
        system = _sys(fam, rank)
        z = np.exp(torus.default_base_point(system))
        a = roots.integrability_constant(system)
        assert torus.flatness_residual(system, F(3, 10), z, a_override=a + F(1, 10)) > 1e-3


def test_flatness_rank_one_trivial():
    assert torus.flatness_residual(A1, F(1, 4), np.array([2.0 + 1j])) == 0.0


def _fd_theta_A(system, k, z, h=1e-6):
    """Central differences of torus.connection in the log-coordinates:
    theta_m = -z_m d/dz_m, so theta_m A_i is -(A_i(z e^{h e_m}) -
    A_i(z e^{-h e_m}))/(2h), laid out as _theta_frame_matrices lays out the
    analytic derivatives."""
    return np.array([
        -(torus.connection(system, k, z * np.exp(h * e))
          - torus.connection(system, k, z * np.exp(-h * e))) / (2.0 * h)
        for e in np.eye(system.rank)])


def test_flatness_fd_cross_check():
    # the curvature with the derivatives taken by central differences
    for fam, rank in [("A", 2), ("D", 4), ("E", 6)]:
        system = _sys(fam, rank)
        k = F(1, 4)
        z = np.exp(torus.default_base_point(system))
        A = torus.connection(system, k, z)
        dA = _fd_theta_A(system, k, z)
        worst = max(float(np.max(np.abs(dA[i, j] - dA[j, i] + A[j] @ A[i] - A[i] @ A[j])))
                    for i in range(rank) for j in range(i + 1, rank))
        assert worst < 1e-9


def _literal_theta_A(system, k, z, m, i):
    """theta_m A_i summed root by root: A_i's coefficient block is
    -(k/2) sum_p c_pi u_p c_p (Cc_p)^T with u = (1+t)/(1-t), t = h^(-alpha_p),
    and theta_m t = -c_pm t, du/dt = 2/(1-t)^2."""
    n = system.rank
    D = np.zeros((n + 1, n + 1), dtype=complex)
    for alpha in system.positive_roots:
        c = alpha.astype(float)
        t = torus.char_value(z, alpha)
        theta_u = -c[m] * t * 2.0 / (1.0 - t) ** 2
        coroot = (system.cartan @ alpha).astype(float)
        D[1:, 1:] -= 0.5 * float(k) * c[i] * theta_u * np.outer(c, coroot)
    return D


def _literal_frame(system, k, z, a_override=None):
    """A_i: row 0 picks theta_i f, column 0 carries the scalar couplings and
    the lower block the coefficient vectors, all with a minus sign."""
    coeffs = torus._assemble(system, k, torus._char_values(system, z), a_override)
    n = system.rank
    mats = []
    for i in range(n):
        A = np.zeros((n + 1, n + 1), dtype=complex)
        A[0, i + 1] = 1.0
        for j in range(n):
            A[j + 1, 0] = -coeffs.scalar[i, j]
            for l in range(n):
                A[j + 1, l + 1] = -coeffs.cvec[i, j, l]
        mats.append(A)
    return mats


def _literal_curvature(system, k, z, a_override=None):
    """The per-pair loop: the residual and the largest entry of the A_j A_i."""
    A = _literal_frame(system, k, z, a_override)
    worst = scale = 0.0
    for i in range(system.rank):
        for j in range(i + 1, system.rank):
            R = (_literal_theta_A(system, k, z, i, j) - _literal_theta_A(system, k, z, j, i)
                 + A[j] @ A[i] - A[i] @ A[j])
            worst = max(worst, float(np.max(np.abs(R))))
            scale = max(scale, float(np.max(np.abs(A[j] @ A[i]))))
    return worst, scale


ADE_UP_TO_8 = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
               + [("E", 6), ("E", 7), ("E", 8)])


@pytest.mark.parametrize("fam, rank", ADE_UP_TO_8)
def test_flatness_matches_literal_pair_loop(fam, rank):
    # agreement is judged relative to the larger of the residual and the size
    # of the products it is a difference of, since at the forced coupling the
    # residual itself is rounding
    system = _sys(fam, rank)
    k = roots.hyperbolic_exponent(system) / 2
    a = roots.integrability_constant(system)
    for lz in torus.sample_points_near(system, 2, seed=rank):
        z = np.exp(lz)
        for factor in (None, F(1, 2), F(3, 2)):
            a_override = None if factor is None else a * factor
            want, scale = _literal_curvature(system, k, z, a_override)
            got = torus.flatness_residual(system, k, z, a_override)
            assert abs(got - want) <= 1e-12 * max(want, scale)
            if factor is None:
                assert got < 1e-8
            elif rank > 1:    # A1 has no pair of directions to curve
                assert got > 1e-3


@pytest.mark.parametrize("fam, rank", [("A", 3), ("D", 5), ("E", 6)])
def test_theta_derivatives_match_roots_sum_and_differences(fam, rank):
    # the derivative terms cancel in the curvature, so check the tensor itself
    system = _sys(fam, rank)
    k = F(1, 7)
    z = np.exp(torus.default_base_point(system) + 0.1j)
    dA = torus._theta_frame_matrices(system, k, torus._char_values(system, z))
    literal = np.array([[_literal_theta_A(system, k, z, m, i) for i in range(rank)]
                        for m in range(rank)])
    scale = np.max(np.abs(literal))
    assert np.max(np.abs(dA - literal)) <= 1e-13 * scale
    assert np.max(np.abs(dA - _fd_theta_A(system, k, z))) <= 1e-7 * scale


def test_w_invariance():
    z = np.array([2.0 + 0j, 3.0 + 0j])
    for i in range(2):
        assert torus.w_invariance_residual(A2, F(1, 4), z, i) < 1e-12
    zD = np.exp(torus.default_base_point(D4))
    for i in range(4):
        assert torus.w_invariance_residual(D4, F(1, 6), zD, i) < 1e-10


# --- continuation ----------------------------------------------------------------

def test_transport_constant_path_is_identity():
    base = torus.default_base_point(A2)
    Fend = torus.transport(A2, F(1, 4), np.array([base, base]))
    assert np.max(np.abs(Fend - np.eye(3))) < 1e-12


def test_transport_reverse_inverts():
    base = torus.default_base_point(A2)
    path = np.array([base, base + np.array([0.4 + 0.3j, -0.2 + 0.5j])])
    fwd = torus.transport(A2, F(1, 4), path)
    back = torus.transport(A2, F(1, 4), path[::-1]) @ fwd
    assert np.max(np.abs(back - np.eye(3))) < 1e-8


def test_transport_homotopy_invariance():
    base = torus.default_base_point(A2)
    target = base + np.array([0.5 + 0.2j, 0.3 - 0.1j])
    direct = torus.transport(A2, F(1, 4), np.array([base, target]))
    mid = base + np.array([0.1 + 0.4j, 0.4 + 0.2j])
    detour = torus.transport(A2, F(1, 4), np.array([base, mid, target]))
    assert np.max(np.abs(direct - detour)) < 1e-7


def test_transport_clearance_guard():
    lz = np.array([0.005 + 0.0j, 0.7 + 0.9j])
    with pytest.raises(torus.MirrorSingularity):
        torus.transport(A2, F(1, 4), np.array([lz, lz + 0.01]))


# --- mirror monodromy ---------------------------------------------------------

def test_hecke_relation_rank_one():
    M = torus.mirror_monodromy(A1, F(1, 4), np.array([1]))
    ev = sorted(np.linalg.eigvals(M), key=lambda v: v.real)
    assert abs(ev[0] + 1) < 1e-9 and abs(ev[1] - 1) < 1e-9
    assert torus.hecke_residual(M, F(1, 4)) < 1e-6


def test_hecke_relation_various():
    for system, k in [(A1, F(1, 6)), (A2, F(1, 6)), (A2, F(1, 4)), (D4, F(1, 4))]:
        M = torus.mirror_monodromy(system, k, np.eye(system.rank, dtype=np.int64)[0])
        assert torus.hecke_residual(M, k) < 1e-6
        # eigenvalue 1 with multiplicity n, q^2 once
        ev = np.linalg.eigvals(M)
        q2 = cmath.exp(-4j * math.pi * float(k))
        dist_q2 = np.abs(ev - q2)
        assert np.sort(dist_q2)[0] < 1e-6
        assert np.sum(np.abs(ev - 1) < 1e-6) == system.rank


def test_weak_coupling_limit():
    dev = {}
    for k in (F(1, 100), F(1, 1000)):
        M = torus.mirror_monodromy(A2, k, np.array([1, 0]))
        dev[k] = np.max(np.abs(M - np.eye(3)))
    assert dev[F(1, 1000)] < 2e-2
    # M - 1 scales linearly with the coupling
    ratio = dev[F(1, 100)] / dev[F(1, 1000)]
    assert 8.0 < ratio < 12.0


def _full_mirror_loop(system, alpha):
    """The mirror loop as one path: the stage out, the ring, the stage back."""
    base = torus.default_base_point(system)
    return np.array([base, *torus._mirror_ring(system, alpha), base])


def test_stage_once_matches_full_loop_transport():
    # mirror_monodromy transports the stage once; the full loop (stage, ring,
    # stage reversed) must give the same matrix
    k = F(1, 4)
    alpha = roots.highest_root(D4)
    full = torus.transport(D4, k, _full_mirror_loop(D4, alpha))
    staged = torus.mirror_monodromy(D4, k, alpha)
    assert np.max(np.abs(staged - full)) / np.max(np.abs(full)) < 1e-10


def _oracle_mirror_loop_points(system, alpha):
    """The mirror loop's log-coordinates as first written: base, stage, the
    ring, base."""
    base_logs = torus.default_base_point(system)
    alpha = np.asarray(alpha, dtype=np.int64)
    d = (system.cartan.astype(np.float64) @ alpha).astype(np.complex128) / 2.0
    L0 = complex(alpha.astype(np.float64) @ base_logs)
    ring = [cmath.log(1.0 + torus._RING_RADIUS
                      * cmath.exp(2j * math.pi * s / torus._RING_SEGMENTS))
            for s in range(torus._RING_SEGMENTS + 1)]
    return np.array([base_logs, *(base_logs + (s - L0) * d for s in ring), base_logs])


def _oracle_mirror_loop(system, k, alpha):
    pts = _oracle_mirror_loop_points(system, alpha)
    S = torus.transport(system, k, pts[:2])
    T = torus.transport(system, k, pts[1:-1])
    return np.linalg.solve(S, T @ S)


def _oracle_toric_loop_points(system, j):
    """The coordinate loop's log-coordinates as first written."""
    base_logs = torus.default_base_point(system)
    e = np.zeros(system.rank, dtype=np.complex128)
    e[j] = 1.0
    return np.array([base_logs + 2j * math.pi * (s / 3.0) * e for s in range(4)])


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 6)])
def test_loop_primitive_matches_hand_built_loops(fam, rank):
    # the mirror ring and the coordinate circle, each run through _loop, give
    # the bits of the loops built by hand: S^-1 T S from the base and stage
    # rows, and the coordinate path transported alone
    system = _sys(fam, rank)
    k = roots.hyperbolic_exponent(system) / 2
    simples = list(np.eye(rank, dtype=np.int64))
    high = roots.highest_root(system)
    mirrors = [_oracle_mirror_loop(system, k, alpha) for alpha in simples + [high]]
    torics = [torus.transport(system, k, _oracle_toric_loop_points(system, j))
              for j in range(rank)]
    assert np.array_equal(torus.mirror_monodromy(system, k, simples[0]), mirrors[0])
    assert np.array_equal(torus.mirror_monodromy(system, k, high), mirrors[-1])
    for j in range(rank):
        assert np.array_equal(torus.toric_monodromy(system, k, j), torics[j])
    gens = torus.standard_generators(system, k)
    assert len(gens) == len(mirrors) + len(torics)
    assert all(np.array_equal(G, M) for G, M in zip(gens, mirrors + torics))


def _clearance_by_point(system, path, samples_per_segment=9):
    # one sample point at a time, as the check was first written
    croots = system.positive_roots.astype(np.float64)
    worst = math.inf
    for a, b in zip(path, path[1:]):
        for s in range(samples_per_segment + 1):
            t = s / samples_per_segment
            tchar = np.exp(croots @ ((1 - t) * a + t * b))
            worst = min(worst, float(np.min(np.abs(tchar - 1.0))))
    return worst


def _check_after_complex_matmul(system, path):
    # the state the workload leaves: mirror_monodromy checks the ring right
    # after the stage transport's complex frame product
    frame = np.full((9, 9), 0.1 + 0.2j)
    frame @ frame
    return torus._check_clearance(system, path)


def test_clearance_matches_point_by_point_sampling(monkeypatch):
    rng = np.random.default_rng(5)
    for system in (A2, D4):
        base = torus.default_base_point(system)
        for alpha in (np.eye(system.rank, dtype=np.int64)[0], roots.highest_root(system)):
            path = _full_mirror_loop(system, alpha)
            got = _check_after_complex_matmul(system, path)
            assert abs(got - _clearance_by_point(system, path)) <= 1e-14 * got
        for _ in range(5):
            steps = 0.3 * (rng.standard_normal((3, system.rank))
                           + 1j * rng.standard_normal((3, system.rank)))
            path = base + np.cumsum(steps, axis=0)
            with monkeypatch.context() as patch:
                patch.setattr(torus, "MIRROR_DELTA", 0.0)
                got = _check_after_complex_matmul(system, path)
            assert abs(got - _clearance_by_point(system, path)) <= 1e-14 * got


def test_clearance_matches_point_by_point_sampling_at_e8():
    # the rings mirror_monodromy checks, and the coordinate loop of
    # toric_monodromy
    simple_ring = torus._mirror_ring(E8, np.eye(8, dtype=np.int64)[0])
    toric_loop = torus._coordinate_circle(E8, 0)
    for path in (simple_ring, toric_loop):
        got = _check_after_complex_matmul(E8, path)
        assert abs(got - _clearance_by_point(E8, path)) <= 1e-14 * got
    # The highest-root ring samples logs up to |L| = 59, where one rounding
    # of L moves |e^L - 1| by up to (1 + clearance) * ulp(L), 7.9e-14 of the
    # clearance.  Against a 30-digit value, the complex product, the real
    # matmul and the point oracle all err there by 1.3e-14 to 2.3e-14.
    high_ring = torus._mirror_ring(E8, roots.highest_root(E8))
    got = _check_after_complex_matmul(E8, high_ring)
    lmax = np.max(np.abs(high_ring @ E8.positive_roots.T.astype(np.float64)))
    assert abs(got - _clearance_by_point(E8, high_ring)) <= (1 + got) * np.spacing(lmax)


def _best_of_7(run, before):
    times = []
    for _ in range(7):
        before()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def test_clearance_check_does_not_stall_after_complex_matmul():
    # On OpenBLAS with AVX-512, a complex np.exp right after any complex
    # matmul ran 10-15x slower, until a real GEMM or an elementwise op ran.
    # Fed the complex product lz @ croots.T, the E8 ring check took 12x a
    # clean exp of its (10, 24, 120) logs; from a real matmul it takes about
    # 1.1-1.2x.  Without the stall both forms pass.
    ring = torus._mirror_ring(E8, roots.highest_root(E8))
    frame = np.full((9, 9), 0.1 + 0.2j)
    rng = np.random.default_rng(0)
    logs = rng.standard_normal((10, 24, 120)) + 10j * rng.standard_normal((10, 24, 120))
    check = _best_of_7(lambda: torus._check_clearance(E8, ring), lambda: frame @ frame)
    clean = _best_of_7(lambda: np.exp(logs), lambda: np.abs(logs))
    assert check <= 4 * clean


def test_mirror_loop_clearance_checked_once(monkeypatch):
    checked = []
    check = torus._check_clearance

    def counted(system, path, *args):
        checked.append(len(path) - 1)
        return check(system, path, *args)

    monkeypatch.setattr(torus, "_check_clearance", counted)
    torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]))
    # the stage and the 24 ring segments, each once; the way back is the
    # stage reversed
    assert sorted(checked) == [1, 24]


def test_generator_set_gates_flatness_once(monkeypatch):
    # every loop of a generator set starts at the base point, so the set
    # checks the curvature there once; each monodromy measurement checks it
    # once, and transport alone not at all
    calls = []
    curvature = torus._curvature

    def counted(*args, **kwargs):
        calls.append(args)
        return curvature(*args, **kwargs)

    monkeypatch.setattr(torus, "_curvature", counted)
    torus.standard_generators(A2, F(1, 4))
    assert len(calls) == 1
    torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]))
    torus.toric_monodromy(A2, F(1, 4), 0)
    torus.transport(A2, F(1, 4), _full_mirror_loop(A2, np.array([0, 1])))
    assert len(calls) == 3


def test_mirror_loop_within_delta_raises(monkeypatch):
    # a ring of radius 1e-3 keeps the alpha-character within 1e-3 of 1
    monkeypatch.setattr(torus, "_RING_RADIUS", 1e-3)
    with pytest.raises(torus.MirrorSingularity):
        torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]))
    with pytest.raises(torus.MirrorSingularity):
        torus._check_clearance(A2, _full_mirror_loop(A2, np.array([1, 0])))


def test_conjugate_mirror_loops_have_equal_spectra():
    k = F(1, 4)
    spectra = []
    for alpha in (np.array([1, 0]), np.array([0, 1]), np.array([1, 1])):
        M = torus.mirror_monodromy(A2, k, alpha)
        spectra.append(np.sort_complex(np.round(np.linalg.eigvals(M), 8)))
    for s in spectra[1:]:
        assert np.max(np.abs(s - spectra[0])) < 1e-6


# --- invariant form and ball -----------------------------------------------------

def test_invariant_form_a2():
    for k in (F(1, 6), F(1, 4), F(2, 5)):
        form = torus.invariant_form(torus.standard_generators(A2, k))
        assert form.signature == (2, 1)
        assert form.residual < 1e-6


def test_invariant_form_a1_half():
    form = torus.invariant_form(torus.standard_generators(A1, F(1, 2)))
    assert form.signature == (1, 1)
    assert form.residual < 1e-6


def test_invariant_form_identity_generators_rejected():
    with pytest.raises(torus.InvariantFormError) as info:
        torus.invariant_form([np.eye(3)])
    assert info.value.dimension == 9


def _full_svd_form(gens, rank_tol=1e-6, eig_tol=1e-8):
    """The invariant-form solve with a full SVD, one basis matrix at a time."""
    N = gens[0].shape[0]
    basis = []
    for i in range(N):
        B = np.zeros((N, N), dtype=complex)
        B[i, i] = 1.0
        basis.append(B)
    for i in range(N):
        for j in range(i + 1, N):
            B = np.zeros((N, N), dtype=complex)
            B[i, j] = B[j, i] = 1.0
            basis.append(B)
            B = np.zeros((N, N), dtype=complex)
            B[i, j], B[j, i] = 1j, -1j
            basis.append(B)
    rows = []
    for M in gens:
        block = np.stack([(M.conj().T @ B @ M - B).reshape(-1) for B in basis], axis=1)
        rows += [block.real, block.imag]
    L = np.concatenate(rows, axis=0)
    _, svals, vt = np.linalg.svd(L, full_matrices=True)
    dim = int(np.sum(svals <= rank_tol * svals[0]))
    H = sum(c * B for c, B in zip(vt[-1], basis))
    H = (H + H.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(H / np.linalg.norm(H))
    pos, neg = int(np.sum(eigs > eig_tol)), int(np.sum(eigs < -eig_tol))
    return svals, dim, (max(pos, neg), min(pos, neg))


@pytest.mark.parametrize("fam, rank, k", [("A", 2, F(1, 4)), ("D", 4, F(1, 4)),
                                          ("E", 6, F(1, 6))])
def test_invariant_form_matches_full_svd_solve(fam, rank, k):
    gens = torus.standard_generators(_sys(fam, rank), k)
    form = torus.invariant_form(gens)
    svals, dim, signature = _full_svd_form(gens)
    assert dim == 1
    assert form.signature == signature == (rank, 1)
    np.testing.assert_allclose(form.singular_values, svals, rtol=1e-12, atol=0)


def test_form_residual_tracks_continuation_tolerance(monkeypatch):
    monkeypatch.setattr(torus, "DEFAULT_RTOL", 1e-5)
    loose = torus.invariant_form(torus.standard_generators(A2, F(1, 4)))
    monkeypatch.setattr(torus, "DEFAULT_RTOL", 1e-11)
    tight = torus.invariant_form(torus.standard_generators(A2, F(1, 4)))
    assert tight.residual < loose.residual
    assert loose.residual < 1e-3


def test_ball_check_a2():
    samples = torus.sample_points_near(A2, 10, seed=0)
    for k in (F(1, 6), F(1, 4), F(2, 5)):
        form = torus.invariant_form(torus.standard_generators(A2, k))
        values = torus.ball_check(A2, k, form, samples)
        assert len(values) == 10 and all(v < 0 for v in values)
        assert form.signature == (2, 1)


def test_ball_check_a1_arc():
    arc = [np.array([complex(0.0, phi)]) for phi in (0.6, 1.4, 2.4, 3.6, 4.8, 5.7)]
    form = torus.invariant_form(torus.standard_generators(A1, F(1, 2)))
    assert all(v < 0 for v in torus.ball_check(A1, F(1, 2), form, arc))


# --- sample points -------------------------------------------------------------

def _oracle_sample_points(system, base_logs, count, seed):
    """The sampler as first written: a draw is kept when its endpoint passes
    the point check and its straight path from the base passes the sampled
    path check (10 points per segment), both against delta = 0.02."""
    croots = system.positive_roots.astype(np.float64)
    rng = np.random.default_rng(seed)
    n = system.rank
    out, point_rejects = [], 0
    while len(out) < count:
        d = 0.35 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lz = base_logs + d
        if not np.min(np.abs(np.exp(croots @ lz) - 1.0)) > 0.02:
            point_rejects += 1
            continue
        pts = np.asarray((base_logs, lz), dtype=np.complex128)
        t = np.arange(10)[:, None, None] / 9
        path = (1 - t) * pts[:-1] + t * pts[1:]
        if float(np.min(np.abs(np.exp(path @ croots.T) - 1.0))) < 0.02:
            continue
        out.append(lz)
    return out, point_rejects


# seeds below 1000 at which the oracle's point check rejects a draw (count 10);
# seeds 0-49 have none
POINT_REJECT_SEEDS = {
    ("A", 2): (80, 292, 562, 704, 768, 930, 955),
    ("D", 4): (75, 139, 180, 183, 267, 277, 501, 603, 644, 826),
    ("E", 6): (145, 211, 434, 501, 529, 622, 733, 808, 822, 907),
    ("E", 8): (86, 126, 203, 232, 423, 481, 495, 608, 613, 667),
}


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 6), ("E", 8)])
def test_sample_points_match_point_then_path_oracle(fam, rank):
    # every torus flatness and torus form report depends on which draws the
    # sampler keeps; it has no separate endpoint check, since the path check
    # samples the endpoint itself
    system = _sys(fam, rank)
    base = torus.default_base_point(system)
    special = POINT_REJECT_SEEDS[(fam, rank)]
    point_rejects = 0
    for seed in (*range(50 - len(special)), *special):
        want, rejects = _oracle_sample_points(system, base, 10, seed)
        point_rejects += rejects
        assert np.array_equal(np.array(torus.sample_points_near(system, 10, seed=seed)),
                              np.array(want))
    assert point_rejects >= len(special)
