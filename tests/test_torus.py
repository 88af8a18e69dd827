"""Torus-system assembly, curvature, continuation, mirror monodromy, the
invariant form and the negative-cone check."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from schwarz_atlas import roots, torus


def _sys(fam, rank):
    return roots.build(roots.RootSystemType(fam, rank))


A1 = _sys("A", 1)
A2 = _sys("A", 2)
D4 = _sys("D", 4)


# --- characters ---------------------------------------------------------------

def test_char_value_definition_and_additivity():
    z = torus.torus_point(A2, [2.0 + 0j, 3.0 + 0j])
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
    for i, A in enumerate(conn.matrices):
        row0 = np.zeros(3)
        row0[i + 1] = 1.0
        assert np.array_equal(A[0].real, row0) and not A[0].imag.any()
    # mixed-equation consistency: row j+1 of A_i equals row i+1 of A_j
    A, B = conn.matrices
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


def test_flatness_fd_cross_check():
    for fam, rank in [("A", 2), ("D", 4), ("E", 6)]:
        system = _sys(fam, rank)
        z = np.exp(torus.default_base_point(system))
        assert torus.flatness_residual(system, F(1, 4), z, method="fd") < 1e-9


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
    coeffs = torus.assemble(system, k, z, a_override)
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
    base = torus.default_base_point(system)
    for lz in torus.sample_points_near(system, base, 2, seed=rank):
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
    dA = torus._theta_frame_matrices(system, k, z)
    literal = np.array([[_literal_theta_A(system, k, z, m, i) for i in range(rank)]
                        for m in range(rank)])
    scale = np.max(np.abs(literal))
    assert np.max(np.abs(dA - literal)) <= 1e-13 * scale
    fd = torus._fd_theta_frame_matrices(system, k, z, None, 1e-6)
    assert np.max(np.abs(dA - fd)) <= 1e-7 * scale


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
    Fend, _ = torus.transport(A2, F(1, 4), torus.TorusPath((base, base)))
    assert np.max(np.abs(Fend - np.eye(3))) < 1e-12


def test_transport_reverse_inverts():
    base = torus.default_base_point(A2)
    path = torus.TorusPath((base, base + np.array([0.4 + 0.3j, -0.2 + 0.5j])))
    fwd, _ = torus.transport(A2, F(1, 4), path)
    back, _ = torus.transport(
        A2, F(1, 4), torus.TorusPath(tuple(reversed(path.log_waypoints))), frame=fwd)
    assert np.max(np.abs(back - np.eye(3))) < 1e-8


def test_transport_homotopy_invariance():
    base = torus.default_base_point(A2)
    target = base + np.array([0.5 + 0.2j, 0.3 - 0.1j])
    direct, _ = torus.transport(A2, F(1, 4), torus.TorusPath((base, target)))
    mid = base + np.array([0.1 + 0.4j, 0.4 + 0.2j])
    detour, _ = torus.transport(A2, F(1, 4), torus.TorusPath((base, mid, target)))
    assert np.max(np.abs(direct - detour)) < 1e-7


def test_transport_clearance_guard():
    lz = np.array([0.005 + 0.0j, 0.7 + 0.9j])
    with pytest.raises(torus.MirrorSingularity):
        torus.transport(A2, F(1, 4), torus.TorusPath((lz, lz + 0.01)))


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


def test_stage_once_matches_full_loop_transport():
    # mirror_monodromy transports the stage once; the full loop (stage, ring,
    # stage reversed) must give the same matrix
    k = F(1, 4)
    alpha = roots.highest_root(D4)
    full, _ = torus.transport(D4, k, torus.mirror_loop_path(D4, alpha))
    staged = torus.mirror_monodromy(D4, k, alpha)
    assert np.max(np.abs(staged - full)) / np.max(np.abs(full)) < 1e-10


def _clearance_by_point(system, path, samples_per_segment=9):
    # one sample point at a time, as the check was first written
    croots = system.positive_roots.astype(np.float64)
    worst = math.inf
    pts = path.log_waypoints
    for a, b in zip(pts, pts[1:]):
        for s in range(samples_per_segment + 1):
            t = s / samples_per_segment
            tchar = np.exp(croots @ ((1 - t) * a + t * b))
            worst = min(worst, float(np.min(np.abs(tchar - 1.0))))
    return worst


def test_clearance_matches_point_by_point_sampling():
    rng = np.random.default_rng(5)
    for system in (A2, D4):
        base = torus.default_base_point(system)
        for alpha in (np.eye(system.rank, dtype=np.int64)[0], roots.highest_root(system)):
            path = torus.mirror_loop_path(system, alpha)
            got = torus._check_clearance(system, path)
            assert abs(got - _clearance_by_point(system, path)) <= 1e-14 * got
        for _ in range(5):
            steps = 0.3 * (rng.standard_normal((3, system.rank))
                           + 1j * rng.standard_normal((3, system.rank)))
            path = torus.TorusPath(tuple(base + np.cumsum(steps, axis=0)), delta=0.0)
            got = torus._check_clearance(system, path)
            assert abs(got - _clearance_by_point(system, path)) <= 1e-14 * got


def test_mirror_loop_clearance_checked_once(monkeypatch):
    checked = []
    check = torus._check_clearance

    def counted(system, path, *args):
        checked.append(len(path.log_waypoints) - 1)
        return check(system, path, *args)

    monkeypatch.setattr(torus, "_check_clearance", counted)
    torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]), segments=24)
    # the stage and the 24 ring segments, each once; the way back is the
    # stage reversed
    assert sorted(checked) == [1, 24]


def test_mirror_loop_within_delta_raises():
    # a ring of radius 1e-3 keeps the alpha-character within 1e-3 of 1
    with pytest.raises(torus.MirrorSingularity):
        torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]), radius=1e-3)
    with pytest.raises(torus.MirrorSingularity):
        torus.mirror_loop_path(A2, np.array([1, 0]), radius=1e-3)


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
        assert form.dimension == 1
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
    assert form.dimension == dim == 1
    assert form.signature == signature == (rank, 1)
    np.testing.assert_allclose(form.singular_values, svals, rtol=1e-12, atol=0)


def test_form_residual_tracks_continuation_tolerance():
    loose = torus.invariant_form(torus.standard_generators(A2, F(1, 4), rtol=1e-5))
    tight = torus.invariant_form(torus.standard_generators(A2, F(1, 4), rtol=1e-11))
    assert tight.residual < loose.residual
    assert loose.residual < 1e-3


def test_ball_check_a2():
    for k in (F(1, 6), F(1, 4), F(2, 5)):
        rep = torus.ball_check(A2, k)
        assert rep.all_negative
        assert rep.signature == (2, 1)


def test_ball_check_a1_arc():
    arc = [np.array([complex(0.0, phi)]) for phi in (0.6, 1.4, 2.4, 3.6, 4.8, 5.7)]
    rep = torus.ball_check(A1, F(1, 2), sample_logs=arc)
    assert rep.all_negative
