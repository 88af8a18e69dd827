"""Torus-system assembly, curvature, continuation, mirror monodromy, the
invariant form and the negative-cone check."""

import cmath
import functools
import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (_inverse_cartan, connection, exact_scalar, hecke_model, reflect,
                     w_invariance_residual)
from schwarz_atlas import _kernels, roots, torus


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
    pos = np.array(e8.positive_roots)
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = pos[rng.integers(len(pos))]
        b = pos[rng.integers(len(pos))]
        lhs = torus.char_value(zq, a + b)
        rhs = torus.char_value(zq, a) * torus.char_value(zq, b)
        assert lhs == rhs  # bit-for-bit on Fractions


def test_e8_highest_root_monomial():
    e8 = _sys("E", 8)
    assert np.array(roots.highest_root(e8)).tolist() == [2, 3, 4, 6, 5, 4, 3, 2]
    z = [F(2), F(1), F(1), F(1), F(1), F(1), F(1), F(3)]
    assert torus.char_value(z, roots.highest_root(e8)) == F(2**2 * 3**2)


# --- assembly -----------------------------------------------------------------

def test_a1_reduces_to_rank_one_operator():
    l1 = cmath.log(2.0 + 0.5j)
    conn = connection(A1, F(1, 4), np.array([l1]))
    t = cmath.exp(l1)    # the character of the one positive root
    u = (1 + t) / (1 - t)
    assert abs(-conn[0, 1, 1] - 0.25 * u) < 1e-15
    assert exact_scalar(A1, F(1, 4)) == [[F(1, 4) ** 2 / 4]]


@pytest.mark.parametrize("fam, rank", [
    *(("A", n) for n in range(2, 9)), *(("D", n) for n in range(4, 9)),
    *(("E", n) for n in range(6, 9))])
def test_exact_inverse_cartan_at_every_rank(fam, rank):
    system = _sys(fam, rank)
    cinv = _inverse_cartan(system)
    cart = [[F(int(v)) for v in row] for row in system.cartan]
    for i in range(rank):
        for j in range(rank):
            assert sum(cart[i][l] * cinv[l][j] for l in range(rank)) == int(i == j)
    # the float scalar block inverts the Cartan matrix in floats: equal to
    # the exact one to rounding (at most about 7 eps relative, at E8)
    conn = connection(system, F(1, 7), torus.default_base_point(system))
    exact = [[float(v) for v in row] for row in exact_scalar(system, F(1, 7))]
    np.testing.assert_allclose(-conn[:, 1:, 0], exact, rtol=16 * np.finfo(float).eps, atol=0)


def test_assemble_two_summation_orders_agree():
    # independent re-summation: evaluate each positive root's contribution
    # with plain Python complex arithmetic, in reversed order
    k = F(1, 4)
    zvals = [2.0 + 0j, 3.0 + 0j]
    conn = connection(A2, k, np.log(zvals))
    n = 2
    acc = np.zeros((n, n, n), dtype=complex)
    for alpha in reversed(np.array(A2.positive_roots)):
        t = torus.char_value(zvals, alpha)
        u = (1 + t) / (1 - t)
        cc = np.array(A2.cartan) @ alpha
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    acc[i, j, l] += 0.5 * float(k) * alpha[i] * alpha[j] * u * cc[l]
    assert np.max(np.abs(acc + conn[:, 1:, 1:])) < 1e-14


def test_assemble_symmetry_and_mirror_error():
    block = connection(A2, F(1, 6), np.log([2.0 + 1j, 0.5 - 0.3j]))[:, 1:, 1:]
    assert np.max(np.abs(block - np.swapaxes(block, 0, 1))) == 0
    with pytest.raises(torus.MirrorSingularity):    # z_1 = e^0 = 1 is on the mirror of alpha_1
        connection(A2, F(1, 6), np.log([1.0 + 0j, 2.0 + 0j]))


def test_connection_frame_layout():
    conn = connection(A2, F(1, 4), np.log([2.0 + 1j, 3.0 - 1j]))
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
            for logs in (base, lz):
                assert torus.flatness_residual(system, k, logs) < 1e-8


def test_flatness_sensitive_to_coupling():
    for fam, rank in [("D", 4), ("E", 6)]:
        system = _sys(fam, rank)
        logs = torus.default_base_point(system)
        a = roots.integrability_constant(system)
        assert torus.flatness_residual(system, F(3, 10), logs, a_override=a + F(1, 10)) > 1e-3


# the types over which the flatness gate's bound was measured
@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 6), ("E", 7), ("E", 8),
                                       ("A", 12), ("D", 12), ("A", 30), ("D", 30)])
def test_flatness_gate_passes_the_forced_coupling(fam, rank):
    # the gate is scaled by max(1, max|A|^2): an absolute 1e-6 failed the flat
    # connection of every type here but A2 at k = 1000, and E8 and D30 at 100
    system = _sys(fam, rank)
    m = roots.hyperbolic_exponent(system)
    for k in (3 * m / 20, 16 * m / 20, F(1, 2), F(10), F(100), F(1000)):
        torus._flatness_gate(system, k)


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 8), ("D", 30)])
def test_flatness_gate_catches_a_coupling_off_by_a_tenth(fam, rank, monkeypatch):
    system = _sys(fam, rank)
    m = roots.hyperbolic_exponent(system)
    forced = roots.integrability_constant(system)
    monkeypatch.setattr(torus, "integrability_constant", lambda system: forced + F(1, 10))
    for k in (3 * m / 20, F(1000)):
        with pytest.raises(_kernels.NumericFailure, match="not flat at the start"):
            torus._flatness_gate(system, k)


def test_flatness_rank_one_trivial():
    assert torus.flatness_residual(A1, F(1, 4), np.log([2.0 + 1j])) == 0.0


def _fd_theta_A(system, k, logs, h=1e-6):
    """Central differences of torus.connection in the log-coordinates:
    theta_m = -z_m d/dz_m = -d/dl_m, so theta_m A_i is -(A_i(l + h e_m) -
    A_i(l - h e_m))/(2h), as an (n, n, n+1, n+1) array dA[m, i]."""
    return np.array([
        -(connection(system, k, logs + h * e)
          - connection(system, k, logs - h * e)) / (2.0 * h)
        for e in np.eye(system.rank)])


def test_flatness_fd_cross_check():
    # the curvature with the derivatives taken by central differences
    for fam, rank in [("A", 2), ("D", 4), ("E", 6)]:
        system = _sys(fam, rank)
        k = F(1, 4)
        logs = torus.default_base_point(system)
        A = connection(system, k, logs)
        dA = _fd_theta_A(system, k, logs)
        worst = max(float(np.max(np.abs(dA[i, j] - dA[j, i] + A[j] @ A[i] - A[i] @ A[j])))
                    for i in range(rank) for j in range(i + 1, rank))
        assert worst < 1e-9


def _literal_theta_A(system, k, z, m, i):
    """theta_m A_i summed root by root: A_i's coefficient block is
    -(k/2) sum_p c_pi u_p c_p (Cc_p)^T with u = (1+t)/(1-t), t = h^(-alpha_p),
    and theta_m t = -c_pm t, du/dt = 2/(1-t)^2."""
    n = system.rank
    D = np.zeros((n + 1, n + 1), dtype=complex)
    for alpha in np.array(system.positive_roots):
        c = alpha.astype(float)
        t = torus.char_value(z, alpha)
        theta_u = -c[m] * t * 2.0 / (1.0 - t) ** 2
        coroot = (np.array(system.cartan) @ alpha).astype(float)
        D[1:, 1:] -= 0.5 * float(k) * c[i] * theta_u * np.outer(c, coroot)
    return D


def _literal_frame(system, k, z, a_override=None):
    """A_i built root by root: row 0 picks theta_i f, column 0 carries the
    exact scalar couplings a k^2 C^-1 (scaled to a_override) and the lower
    block the coefficient vectors (k/2) sum_p c_pi u_p c_p (Cc_p)^T with
    u = (1+t)/(1-t), t = h^(-alpha_p), all with a minus sign."""
    n = system.rank
    scalar = exact_scalar(system, k)
    if a_override is not None:
        ratio = F(a_override) / roots.integrability_constant(system)
        scalar = [[v * ratio for v in row] for row in scalar]
    mats = []
    for i in range(n):
        A = np.zeros((n + 1, n + 1), dtype=complex)
        A[0, i + 1] = 1.0
        A[1:, 0] = [-float(v) for v in scalar[i]]
        mats.append(A)
    for alpha in np.array(system.positive_roots):
        t = torus.char_value(z, alpha)
        u = (1 + t) / (1 - t)
        cc = np.array(system.cartan) @ alpha
        for i in range(n):
            mats[i][1:, 1:] -= 0.5 * float(k) * int(alpha[i]) * u * np.outer(alpha, cc)
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
    for lz in torus.sample_points_near(system, torus.default_base_point(system), 2, seed=rank):
        z = np.exp(lz)
        for factor in (None, F(1, 2), F(3, 2)):
            a_override = None if factor is None else a * factor
            want, scale = _literal_curvature(system, k, z, a_override)
            got = torus.flatness_residual(system, k, lz, a_override)
            assert abs(got - want) <= 1e-12 * max(want, scale)
            if factor is None:
                assert got < 1e-8
            elif rank > 1:    # A1 has no pair of directions to curve
                assert got > 1e-3


@pytest.mark.parametrize("fam, rank", [t for t in ADE_UP_TO_8 if t[1] > 1] + [("D", 16)])
def test_stacked_flatness_matches_one_point_residuals(fam, rank):
    # a stack's residual is the largest of its points' residuals, bit for
    # bit; past rank 5 a second stack crosses a chunk seam, and at D16 a
    # chunk holds one point
    system = _sys(fam, rank)
    chunk = torus._rows_per_chunk(16 * rank * rank * (rank + 1) ** 2)
    a = roots.integrability_constant(system)
    for count in (5, chunk + 1) if chunk < 100 else (5,):
        stack = torus.sample_points_near(system, torus.default_base_point(system), count,
                                        seed=rank)
        for k in (F(1, 10), F(3, 7), F(-5, 3)):
            for a_override in (None, a * F(3, 2)):
                got = torus.flatness_residual(system, k, stack, a_override)
                want = max(torus.flatness_residual(system, k, stack[s:s + 1], a_override)
                           for s in range(count))
                assert got == want
    assert chunk == 1 if rank == 16 else chunk > 1


@pytest.mark.parametrize("fam, rank", ADE_UP_TO_8)
def test_connection_matches_literal_frame_entry_by_entry(fam, rank):
    # the curvature's largest entry hardly moves with the point, so the
    # connection itself is compared with the frame built root by root from z;
    # against the frame at another point it must differ, so the test sees
    # the point
    system = _sys(fam, rank)
    k = roots.hyperbolic_exponent(system) / 2
    for lz in torus.sample_points_near(system, torus.default_base_point(system), 2, seed=rank):
        got = connection(system, k, lz)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got - _literal_frame(system, k, np.exp(lz)))) <= 1e-13 * scale
        assert np.max(np.abs(got - _literal_frame(system, k, np.exp(lz + 0.3)))) > 1e-3 * scale


def _einsum_block(system, k, tchar):
    """The connection's lower blocks at each row of tchar, one 4-operand
    einsum per point: -(k/2) sum_p c_pi c_pj u_p (Cc)_pl, u = (1+t)/(1-t)."""
    croots = np.array(system.positive_roots, dtype=float)
    coroots = croots @ np.array(system.cartan, dtype=float)
    u = (1.0 + tchar) / (1.0 - tchar)
    return np.array([-(0.5 * float(k) * np.einsum("pi,pj,p,pl->ijl", croots, croots, up, coroots))
                     for up in u])


@pytest.mark.parametrize("fam, rank", ADE_UP_TO_8 + [("A", 12), ("D", 12)])
def test_connection_block_matches_the_einsum_oracle(fam, rank):
    # the GEMM sums the roots in its own order, so the blocks agree to
    # rounding of the largest entry, at each of a stack's points
    system = _sys(fam, rank)
    stack = torus.sample_points_near(system, torus.default_base_point(system), 5, seed=rank)
    tchar = torus._char_values(system, stack)
    for k in (roots.hyperbolic_exponent(system) / 2, F(-5, 3)):
        got = torus._connection(system, k, tchar, roots.integrability_constant(system))
        want = _einsum_block(system, k, tchar)
        assert np.max(np.abs(got[..., 1:, 1:] - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("fam, rank", [("A", 3), ("D", 5), ("E", 6), ("A", 13)])
def test_theta_derivatives_are_symmetric_in_the_pair(fam, rank):
    # _curvature keeps the commutators alone because theta_m A_i = theta_i A_m:
    # the literal derivatives, summed root by root, are symmetric to rounding
    # of their largest entry, and they are the central differences of the
    # connection
    system = _sys(fam, rank)
    k = F(1, 7)
    lz = torus.default_base_point(system) + 0.1j
    z = np.exp(lz)
    literal = np.array([[_literal_theta_A(system, k, z, m, i) for i in range(rank)]
                        for m in range(rank)])
    scale = np.max(np.abs(literal))
    assert np.max(np.abs(literal - literal.transpose(1, 0, 2, 3))) <= 1e-15 * scale
    assert np.max(np.abs(literal - _fd_theta_A(system, k, lz))) <= 1e-7 * scale


def test_w_invariance():
    logs = np.log([2.0 + 0j, 3.0 + 0j])
    for i in range(2):
        assert w_invariance_residual(A2, F(1, 4), logs, i) < 1e-12
    logs = torus.default_base_point(D4)
    for i in range(4):
        assert w_invariance_residual(D4, F(1, 6), logs, i) < 1e-10


@pytest.mark.parametrize("fam, rank", [("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)])
def test_w_invariance_at_sampled_points(fam, rank):
    # the coefficient block is symmetric in (i, j) only if the connection's
    # layout is, and s_i mixes both indices: every simple reflection, two points
    system = _sys(fam, rank)
    k = roots.hyperbolic_exponent(system) / 2
    for lz in torus.sample_points_near(system, torus.default_base_point(system), 2, seed=rank):
        scale = np.max(np.abs(connection(system, k, lz)))
        for i in range(rank):
            assert w_invariance_residual(system, k, lz, i) <= 1e-13 * scale


@pytest.mark.parametrize("fam, rank", [*(("A", n) for n in range(1, 31)),
                                       *(("D", n) for n in range(4, 31)),
                                       ("E", 6), ("E", 7), ("E", 8)])
def test_reflection_matrix_reflects_the_roots(fam, rank):
    # alpha . (S l) = (alpha S) . l: the characters at the reflected point
    # are those of the reflected roots, so the log-coordinate action of
    # _reflection_matrix must be s_i on the root coefficients, exactly.  The
    # oracle is s_i(alpha) = alpha - <alpha, alpha_i^v> alpha_i for every
    # positive root and every i at once, with <alpha, alpha_i^v> = (alpha C)_i
    # from the integer Cartan matrix (the Gram matrix of the simple roots)
    system = _sys(fam, rank)
    pos = np.array(system.positive_roots, dtype=np.int64)
    pairing = pos @ np.array(system.cartan, dtype=np.int64)
    want = pos - pairing.T[:, :, None] * np.eye(rank, dtype=np.int64)[:, None, :]
    got = [pos @ torus._reflection_matrix(system, i) for i in range(rank)]
    assert np.array_equal(got, want)


# --- continuation ----------------------------------------------------------------

def test_transport_constant_path_is_identity():
    base = torus.default_base_point(A2)
    Fend = torus.transport(A2, F(1, 4), [np.array([base, base])])[0]
    assert np.max(np.abs(Fend - np.eye(3))) < 1e-12


def test_transport_reverse_inverts():
    base = torus.default_base_point(A2)
    path = np.array([base, base + np.array([0.4 + 0.3j, -0.2 + 0.5j])])
    fwd, rev = torus.transport(A2, F(1, 4), [path, path[::-1]])
    back = rev @ fwd
    assert np.max(np.abs(back - np.eye(3))) < 1e-8


def test_transport_homotopy_invariance():
    base = torus.default_base_point(A2)
    target = base + np.array([0.5 + 0.2j, 0.3 - 0.1j])
    mid = base + np.array([0.1 + 0.4j, 0.4 + 0.2j])
    direct, detour = torus.transport(A2, F(1, 4), [np.array([base, target]),
                                                   np.array([base, mid, target])])
    assert np.max(np.abs(direct - detour)) < 1e-7


def test_transport_passes_close_to_a_mirror():
    # the straight path passes 0.005 from the alpha_1 mirror, inside the
    # sampler's MIRROR_DELTA: the kernel's grid is the one guard, so it is
    # transported and matches a detour on the same side of the mirror
    lz = np.array([0.005 + 0.0j, 0.7 + 0.9j])
    detour = np.array([lz, lz + np.array([0.01 + 0.004j, 0.004j]), lz + 0.01])
    for k in (F(1, 4), F(-1, 3), F(3, 4)):
        straight, around = torus.transport(A2, k, [np.array([lz, lz + 0.01]), detour])
        assert np.linalg.norm(straight - around) <= 1e-11 * np.linalg.norm(around)


# --- mirror monodromy ---------------------------------------------------------

def _mirror_ring(system, alpha, base, radius=0.1):
    """Log-coordinates of the ring around the mirror of alpha, as the staged
    loops drew it: the alpha-character runs through 1 + radius e^{i phi}
    around the full circle in 24 segments, on the one-parameter line through
    the log-coordinates base in the direction dual to alpha."""
    alpha = np.asarray(alpha, dtype=np.int64)
    d = (np.array(system.cartan, dtype=np.float64) @ alpha).astype(np.complex128) / 2.0
    L0 = complex(alpha.astype(np.float64) @ base)
    ring = [cmath.log(1.0 + radius * cmath.exp(2j * math.pi * s / 24)) for s in range(25)]
    return np.array([base + (s - L0) * d for s in ring])


def _staged_loop(system, k, curve, base):
    """S^-1 T S: the loop that goes straight from the log-coordinates base to
    curve[0], runs along the curve and comes back, with S the stage's
    transport and T the curve's."""
    S, T = torus.transport(system, k, [(base, curve[0]), curve])
    return np.linalg.solve(S, T @ S)


def _staged_mirror_loop(system, k, alpha, radius=0.1):
    """The mirror loop of alpha staged from default_base_point, as
    mirror_monodromy measured it before every loop started at b."""
    base = torus.default_base_point(system)
    return _staged_loop(system, k, _mirror_ring(system, alpha, base, radius), base)


def _full_mirror_loop(system, alpha):
    """The staged mirror loop as one path: the stage out, the ring, the stage
    back."""
    base = torus.default_base_point(system)
    return np.array([base, *_mirror_ring(system, alpha, base), base])


def _staged_generators(system, k):
    """The generator set the form was first solved from, kept as an oracle:
    one mirror loop per simple root, one around the highest-root mirror
    (unless it is simple), and every coordinate loop, each staged from
    default_base_point."""
    base = torus.default_base_point(system)
    simples = list(np.eye(system.rank, dtype=np.int64))
    high = roots.highest_root(system)
    alphas = simples + ([high] if system.rank > 1 else [])
    curves = [_mirror_ring(system, alpha, base) for alpha in alphas]
    curves += [torus._coordinate_circle(system, j, base) for j in range(system.rank)]
    return [_staged_loop(system, k, curve, base) for curve in curves]


def _move(system, k):
    """P, the transport along the straight path from default_base_point to
    the base point b of every loop."""
    return torus.transport(system, k, [(torus.default_base_point(system),
                                        torus.hecke_base_point(system))])[0]


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


@st.composite
def _mirror_draws(draw):
    """A type from A2 to E8, a simple root or (index rank) the highest root,
    and k = p/q with q <= 60 and |k| <= 1."""
    fam, rank = draw(st.sampled_from(ADE_UP_TO_8[1:]))
    index = draw(st.integers(0, rank))
    k = draw(st.fractions(-1, 1, max_denominator=60))
    return fam, rank, index, k


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_mirror_draws())
def test_hecke_relation_holds_for_couplings_up_to_one(draw):
    """The Hecke relation of the mirror monodromy for |k| <= 1.  Beyond that
    range the relation loses digits on the largest types: E8 at k = 10 reads
    1.4e-4 on root 6, so this draw stops at |k| = 1."""
    fam, rank, index, k = draw
    system = _sys(fam, rank)
    alpha = roots.highest_root(system) if index == rank else np.eye(rank, dtype=np.int64)[index]
    assert torus.hecke_residual(torus.mirror_monodromy(system, k, alpha), k) <= 1e-10


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
    # the staged oracle transports the stage once; the full loop (stage,
    # ring, stage reversed) must give the same matrix
    k = F(1, 4)
    alpha = roots.highest_root(D4)
    full = torus.transport(D4, k, [_full_mirror_loop(D4, alpha)])[0]
    staged = _staged_mirror_loop(D4, k, alpha)
    assert np.max(np.abs(staged - full)) / np.max(np.abs(full)) < 1e-10


@pytest.mark.parametrize("fam, rank", ADE_UP_TO_8)
def test_descent_reaches_every_positive_root(fam, rank):
    # (w, j) with w(alpha_j) = alpha, one simple reflection per unit of height
    system = _sys(fam, rank)
    simples = np.eye(rank, dtype=np.int64)
    for alpha in np.array(system.positive_roots):
        word, j = torus._descent(system, alpha)
        beta = simples[j]
        for i in reversed(word):
            beta = reflect(beta, simples[i], system)
        assert np.array_equal(beta, alpha)
        assert len(word) == int(alpha.sum()) - 1


def _half_turn_by_hand(system, i, b):
    """The 13 points of the half-turn from b to s_i b: the alpha_i-log runs
    half around 0 in 12 steps of pi/12, and the path moves along C e_i / 2."""
    d = np.array(system.cartan, dtype=float)[:, i] / 2.0
    return np.array([b + (b[i] * cmath.exp(1j * math.pi * s / 12) - b[i]) * d
                     for s in range(13)])


def _pullback(system, i):
    """g_i = diag(1, A_i^T), which pulls a frame at s_i b back to b."""
    g = np.eye(system.rank + 1)
    g[1:, 1:] = torus._reflection_matrix(system, i).T
    return g


def _loops_by_hand(system, k, halves, circles):
    """The half-turns T_i for i in halves, each solved as
    conj(Phi_i)^-1 g_i Phi_i from the frame Phi_i along the first 7 points of
    its half-turn at b, then the coordinate circles at b for j in circles,
    transported in one call as one measurement is."""
    rank = system.rank
    b = 0.35 + 0.05 * np.arange(rank)
    paths = [_half_turn_by_hand(system, i, b)[:7] for i in halves]
    paths += [np.array([b + 2j * math.pi * (s / 3.0) * np.eye(rank)[j] for s in range(4)])
              for j in circles]
    frames = torus.transport(system, k, paths)
    loops = [np.linalg.solve(frame.conj(), _pullback(system, i) @ frame)
             for i, frame in zip(halves, frames)]
    return loops + list(frames[len(loops):])


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 6)])
def test_loop_primitive_matches_hand_built_loops(fam, rank):
    # every loop starts at b: the Hecke set is the half-turns and the
    # coordinate circles at b built by hand, a simple-root loop is the
    # square of its half-turn and the highest-root loop the square of
    # T_w T_j T_w^-1, bit for bit, each measurement's loops transported in
    # one call
    system = _sys(fam, rank)
    k = roots.hyperbolic_exponent(system) / 2
    gens = torus.hecke_generators(system, k)
    assert len(gens) == 2 * rank
    hand = _loops_by_hand(system, k, range(rank), range(rank))
    assert all(np.array_equal(G, M) for G, M in zip(gens, hand))
    simples = np.eye(rank, dtype=np.int64)
    T0 = _loops_by_hand(system, k, [0], [])[0]
    assert np.array_equal(torus.mirror_monodromy(system, k, simples[0]), T0 @ T0)
    word, j = torus._descent(system, roots.highest_root(system))
    used = sorted({*word, j})
    halves = dict(zip(used, _loops_by_hand(system, k, used, [])))
    Tw = halves[word[0]]
    for i in word[1:]:
        Tw = Tw @ halves[i]
    Ta = Tw @ halves[j] @ np.linalg.inv(Tw)
    want = Ta @ Ta
    assert np.array_equal(torus.mirror_monodromy(system, k, roots.highest_root(system)), want)


@pytest.mark.parametrize("fam, rank, alphas", [
    ("A", 2, "simple"), ("D", 4, "simple"), ("E", 6, "simple"), ("E", 8, "simple"),
    ("A", 3, "highest"), ("D", 4, "highest"), ("D", 5, "highest"), ("E", 6, "highest"),
    ("E", 7, "highest")])
def test_mirror_loops_at_b_match_the_staged_loops(fam, rank, alphas):
    # moved by P to default_base_point, the loop at b is the loop staged
    # from there: simple roots 1 and n, or the highest root
    system = _sys(fam, rank)
    k = roots.hyperbolic_exponent(system) * F(7, 20)
    simples = np.eye(rank, dtype=np.int64)
    P = _move(system, k)
    for alpha in [simples[0], simples[-1]] if alphas == "simple" else [roots.highest_root(system)]:
        moved = np.linalg.solve(P, torus.mirror_monodromy(system, k, alpha) @ P)
        staged = _staged_mirror_loop(system, k, alpha)
        assert np.linalg.norm(moved - staged) <= 1e-10 * np.linalg.norm(staged)


def test_e8_highest_root_loop_at_b_is_conjugate_to_the_staged_loop():
    # at E8 the two loops around the highest-root mirror differ (0.71
    # relative) but are conjugate: the same spectrum, and M - 1 of rank one
    k = F(7, 100)
    alpha = roots.highest_root(E8)
    P = _move(E8, k)
    moved = np.linalg.solve(P, torus.mirror_monodromy(E8, k, alpha) @ P)
    staged = _staged_mirror_loop(E8, k, alpha)
    assert np.linalg.norm(moved - staged) > 1e-3 * np.linalg.norm(staged)
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(moved))
                         - np.sort_complex(np.linalg.eigvals(staged)))) <= 1e-10
    svals = np.linalg.svd(moved - np.eye(9), compute_uv=False)
    assert svals[1] <= 1e-10 * svals[0]


def _clearance_by_point(system, path, samples_per_segment=9):
    # one sample point at a time, as the check was first written
    croots = np.array(system.positive_roots, dtype=np.float64)
    worst = math.inf
    for a, b in zip(path, path[1:]):
        for s in range(samples_per_segment + 1):
            t = s / samples_per_segment
            tchar = np.exp(croots @ ((1 - t) * a + t * b))
            worst = min(worst, float(np.min(np.abs(tchar - 1.0))))
    return worst


def _check_after_complex_matmul(system, path):
    # the state the workload leaves: the sampler measures each draw's path
    # after the form's complex frame products
    frame = np.full((9, 9), 0.1 + 0.2j)
    frame @ frame
    return torus._clearance(system, path)


def test_clearance_matches_point_by_point_sampling():
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
            got = _check_after_complex_matmul(system, path)
            assert abs(got - _clearance_by_point(system, path)) <= 1e-14 * got


def test_clearance_matches_point_by_point_sampling_at_e8():
    # the rings of mirror_monodromy and a coordinate loop of hecke_generators
    base = torus.default_base_point(E8)
    simple_ring = _mirror_ring(E8, np.eye(8, dtype=np.int64)[0], base)
    toric_loop = torus._coordinate_circle(E8, 0, base)
    for path in (simple_ring, toric_loop):
        got = _check_after_complex_matmul(E8, path)
        assert abs(got - _clearance_by_point(E8, path)) <= 1e-14 * got
    # The highest-root ring samples logs up to |L| = 59, where one rounding
    # of L moves |e^L - 1| by up to (1 + clearance) * ulp(L), 7.9e-14 of the
    # clearance.  Against a 30-digit value, the complex product, the real
    # matmul and the point oracle all err there by 1.3e-14 to 2.3e-14.
    high_ring = _mirror_ring(E8, roots.highest_root(E8), base)
    got = _check_after_complex_matmul(E8, high_ring)
    lmax = np.max(np.abs(high_ring @ np.array(E8.positive_roots, dtype=np.float64).T))
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
    ring = _mirror_ring(E8, roots.highest_root(E8), torus.default_base_point(E8))
    frame = np.full((9, 9), 0.1 + 0.2j)
    rng = np.random.default_rng(0)
    logs = rng.standard_normal((10, 24, 120)) + 10j * rng.standard_normal((10, 24, 120))
    check = _best_of_7(lambda: torus._clearance(E8, ring), lambda: frame @ frame)
    clean = _best_of_7(lambda: np.exp(logs), lambda: np.abs(logs))
    assert check <= 4 * clean


def test_clearance_is_measured_only_by_the_sampler(monkeypatch):
    # the kernel's grid guards every transport; the sampled clearance decides
    # only which draws the sampler keeps, once per draw
    k = F(1, 4)
    form = torus.invariant_form(torus.hecke_generators(A2, k))
    samples = torus.sample_points_near(A2, torus.hecke_base_point(A2), 2, seed=0)
    measured = []
    clearance = torus._clearance

    def counted(system, paths):
        got = clearance(system, paths)
        measured.extend(zip(paths[:, 1], got))
        return got

    monkeypatch.setattr(torus, "_clearance", counted)
    torus.mirror_monodromy(A2, k, np.array([1, 0]))
    torus.hecke_generators(A2, k)
    torus.ball_check(A2, k, form, samples)
    assert measured == []
    # seed 80 has a rejected draw: each draw is measured once, and the kept
    # ones are the draws that clear MIRROR_DELTA, in order
    seed = POINT_REJECT_SEEDS[("A", 2)][0]
    kept = torus.sample_points_near(A2, torus.default_base_point(A2), 10, seed=seed)
    assert len(measured) > 10
    assert len({lz.tobytes() for lz, _ in measured}) == len(measured)
    assert np.array_equal(np.array(kept),
                          np.array([lz for lz, c in measured if c >= torus.MIRROR_DELTA]))


def test_generator_set_gates_flatness_once(monkeypatch):
    # the generator set checks the curvature once at b, where every loop
    # starts; each monodromy measurement checks it once, and transport alone
    # not at all
    calls = []
    curvature = torus._curvature

    def counted(*args, **kwargs):
        calls.append(args)
        return curvature(*args, **kwargs)

    monkeypatch.setattr(torus, "_curvature", counted)
    torus.hecke_generators(A2, F(1, 4))
    assert len(calls) == 1
    torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]))
    torus.transport(A2, F(1, 4), [_full_mirror_loop(A2, np.array([0, 1]))])
    assert len(calls) == 2
    # the gate measures the one base point as a one-row stack
    assert all(tchar.shape == (1, len(A2.positive_roots)) for _, _, tchar, _ in calls)


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 6)])
def test_simple_root_loop_on_a_small_ring_matches_the_usual_ring(fam, rank):
    # staged rings of radius 1e-3 and 1e-5 lie well inside MIRROR_DELTA; the
    # kernel's steps shrink down to them, and the loop agrees to 1e-11
    # relative with the ring of radius 0.1
    system = _sys(fam, rank)
    alpha = np.eye(rank, dtype=np.int64)[0]
    for k in (F(1, 4), F(-1, 3)):
        usual = _staged_mirror_loop(system, k, alpha)
        for radius in (1e-3, 1e-5):
            small = _staged_mirror_loop(system, k, alpha, radius)
            assert np.linalg.norm(small - usual) <= 1e-11 * np.linalg.norm(usual)


@pytest.mark.parametrize("fam, rank", [("D", 4), ("E", 6)])
def test_highest_root_loop_on_a_small_ring_is_conjugate_to_the_usual_ring(fam, rank):
    # the straight stage to a smaller highest-root ring is not homotopic to
    # the stage to the 0.1-ring: a mirror lies between them, and the two loops
    # differ entry by entry by 0.8 (D4) and 1.4 (E6) relative.  They are
    # conjugate: the same spectrum, and M - 1 of rank one
    system = _sys(fam, rank)
    alpha = roots.highest_root(system)
    k = F(1, 6)
    usual = _staged_mirror_loop(system, k, alpha)
    small = _staged_mirror_loop(system, k, alpha, 1e-3)
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(small))
                         - np.sort_complex(np.linalg.eigvals(usual)))) <= 1e-10
    svals = np.linalg.svd(small - np.eye(rank + 1), compute_uv=False)
    assert svals[1] <= 1e-10 * svals[0]


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
        form = torus.invariant_form(torus.hecke_generators(A2, k))
        assert form.signature == (2, 1)
        assert form.residual < 1e-6


def test_invariant_form_a1_half():
    form = torus.invariant_form(torus.hecke_generators(A1, F(1, 2)))
    assert form.signature == (1, 1)
    assert form.residual < 1e-6


def test_invariant_form_identity_generators_rejected():
    with pytest.raises(torus.InvariantFormError) as info:
        torus.invariant_form([np.eye(3)])
    assert info.value.dimension == 9


def test_invariant_form_without_a_solution_is_a_numeric_failure():
    # 2 I maps every H to 4 H, so no Hermitian form is invariant
    with pytest.raises(torus.InvariantFormError) as info:
        torus.invariant_form([2 * np.eye(3)])
    assert info.value.dimension == 0
    assert isinstance(info.value, _kernels.NumericFailure)
    assert not isinstance(info.value, ValueError)


def _full_svd_form(gens, rank_tol=1e-6, eig_tol=1e-8):
    """The invariant-form solve in a real basis of the Hermitian matrices,
    with a full SVD, one basis matrix at a time, each generator's block
    divided by ||M||_F^2: the dimension, the sign-free signature and the
    unit-norm H."""
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
        block = block / np.linalg.norm(M) ** 2
        rows += [block.real, block.imag]
    L = np.concatenate(rows, axis=0)
    _, svals, vt = np.linalg.svd(L, full_matrices=True)
    dim = int(np.sum(svals <= rank_tol * svals[0]))
    H = sum(c * B for c, B in zip(vt[-1], basis))
    H = (H + H.conj().T) / 2.0
    H = H / np.linalg.norm(H)
    eigs = np.linalg.eigvalsh(H)
    pos, neg = int(np.sum(eigs > eig_tol)), int(np.sum(eigs < -eig_tol))
    return dim, (max(pos, neg), min(pos, neg)), H


def _full_svd_kronecker_values(gens):
    """The singular values of the complex system on column-major vec(H),
    with a full SVD, built one matrix unit E_cd at a time: column c N + d of
    M^T kron M* is vec(M* E_cd M) = outer(M^T[:, c], M*[:, d]).ravel()."""
    N = gens[0].shape[0]
    blocks = []
    for M in gens:
        MT, MH = M.T, M.conj().T
        K = np.stack([np.outer(MT[:, c], MH[:, d]).ravel()
                      for c in range(N) for d in range(N)], axis=1)
        blocks.append((K - np.eye(N * N)) / np.linalg.norm(M) ** 2)
    return np.linalg.svd(np.concatenate(blocks), full_matrices=True, compute_uv=False)


@pytest.mark.parametrize("fam, rank, k", [("A", 2, F(1, 4)), ("D", 4, F(1, 4)),
                                          ("E", 6, F(1, 6))])
def test_invariant_form_matches_full_svd_solve(fam, rank, k):
    # at the real base point H is real to rounding, so the set is also moved
    # by a seeded complex P, whose form P* H P is not
    gens = torus.hecke_generators(_sys(fam, rank), k)
    rng = np.random.default_rng(rank)
    P = np.eye(rank + 1) + 0.3 * (rng.standard_normal((rank + 1, rank + 1))
                                  + 1j * rng.standard_normal((rank + 1, rank + 1)))
    P_inv = np.linalg.inv(P)
    for gset in (gens, [P_inv @ M @ P for M in gens]):
        form = torus.invariant_form(gset)
        dim, signature, H = _full_svd_form(gset)
        assert dim == 1
        assert form.signature == signature == (rank, 1)
        assert min(np.max(np.abs(form.matrix - H)), np.max(np.abs(form.matrix + H))) <= 1e-12
        np.testing.assert_allclose(form.singular_values, _full_svd_kronecker_values(gset),
                                   rtol=1e-12, atol=0)


# what the numeric form reads past the hyperbolic range where the closed-form
# G(k) of ROADMAP item 20 is singular or disagrees: pinned, not explained
DELICATE_FORMS = [("D", 6, F(3, 4), (1, 0)), ("E", 7, F(3, 4), (1, 0)),
                  ("D", 7, F(3, 5), (1, 0)),
                  ("D", 6, F(9, 10), 3), ("E", 7, F(9, 10), 3), ("E", 8, F(9, 10), 3),
                  ("E", 8, F(3, 8), 2), ("E", 8, F(11, 25), 2), ("E", 8, F(3, 4), 2),
                  ("E", 8, F(3, 5), 2), ("A", 7, F(3, 4), 2), ("A", 5, F(1, 3), 2)]


def test_delicate_null_counts_are_pinned():
    read = {}
    for fam, rank, k, _ in DELICATE_FORMS:
        try:
            form = torus.invariant_form(torus.hecke_generators(_sys(fam, rank), k))
            read[(fam, rank, k)] = form.signature
        except torus.InvariantFormError as exc:
            read[(fam, rank, k)] = exc.dimension
    assert read == {(fam, rank, k): want for fam, rank, k, want in DELICATE_FORMS}


# a table k of each type (k_from_p(4) or k_from_p(3), where the type has no
# table row), and one seeded k off the table: m j / 23 for a drawn j
HECKE_TYPES = {("A", 1): F(1, 4), ("A", 2): F(1, 4), ("A", 3): F(1, 3), ("D", 4): F(1, 6),
               ("E", 6): F(1, 4), ("E", 7): F(1, 6), ("E", 8): F(1, 6)}


def _off_table_k(system, seed):
    j = int(np.random.default_rng(seed).integers(1, 23))
    return roots.hyperbolic_exponent(system) * F(j, 23)


@pytest.mark.parametrize("fam, rank", list(HECKE_TYPES))
@pytest.mark.parametrize("table", [True, False])
def test_half_turns_satisfy_the_hecke_relations(fam, rank, table):
    # the quadratic relation with q = exp(-2 pi i k), the braid relation for
    # adjacent nodes and commutation otherwise, and T_i^2 the mirror loop of
    # radius 0.1 at the same base point
    system = _sys(fam, rank)
    k = HECKE_TYPES[(fam, rank)] if table else _off_table_k(system, 1000 + rank)
    gens = torus.hecke_generators(system, k)
    T = gens[:rank]
    one = np.eye(rank + 1)
    q = cmath.exp(-2j * math.pi * float(k))
    b = torus.hecke_base_point(system)
    for i, Ti in enumerate(T):
        quad = np.linalg.norm((Ti - one) @ (Ti + q * one)) / np.linalg.norm(Ti) ** 2
        assert quad <= 1e-11, (i, quad)
        ring = _mirror_ring(system, np.eye(rank, dtype=np.int64)[i], b)
        loop = _staged_loop(system, k, ring, b)
        assert np.linalg.norm(Ti @ Ti - loop) <= 1e-10 * np.linalg.norm(loop)
        for j in range(i + 1, rank):
            Tj = T[j]
            if system.cartan[i][j]:
                left, right = Ti @ Tj @ Ti, Tj @ Ti @ Tj
            else:
                left, right = Ti @ Tj, Tj @ Ti
            assert np.linalg.norm(left - right) <= 1e-11 * np.linalg.norm(left), (i, j)


@pytest.mark.parametrize("fam, rank, k", [("A", 1, F(1, 2)), ("A", 2, F(1, 4)),
                                          ("D", 4, F(1, 6)), ("E", 6, F(1, 4)),
                                          ("E", 7, F(1, 6))])
def test_moved_form_matches_the_staged_oracle(fam, rank, k):
    # the form H_b from the Hecke set, moved by P to default_base_point as
    # P* H_b P and brought to unit norm, against the form of the mirror loops
    # staged from there, of unit norm.  An invariant form pairs the
    # evaluation vectors alike whichever path carries them, so the ball
    # values of H_b along paths from b, times the norm ||P* H_b P|| the move
    # divided by, match the oracle's along paths from default_base_point
    system = _sys(fam, rank)
    form = torus.invariant_form(torus.hecke_generators(system, k))
    oracle = torus.invariant_form(_staged_generators(system, k))
    assert form.signature == oracle.signature == (rank, 1)
    P = _move(system, k)
    moved = P.conj().T @ form.matrix @ P
    scale = np.linalg.norm(moved)
    moved = (moved + moved.conj().T) / (2.0 * scale)
    assert np.linalg.norm(moved - oracle.matrix) <= 1e-10
    base = torus.default_base_point(system)
    samples = torus.sample_points_near(system, base, 5, seed=3)
    got = scale * np.array(torus.ball_check(system, k, form, samples))
    Hinv = np.linalg.inv(oracle.matrix)
    want = np.array([float((v @ Hinv @ v.conj()).real)
                     for v in torus.transport(system, k, [(base, lz) for lz in samples])[:, 0]])
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_form_residual_tracks_continuation_tolerance(monkeypatch):
    monkeypatch.setattr(_kernels, "_TORUS_RTOL", 1e-5)
    loose = torus.invariant_form(torus.hecke_generators(A2, F(1, 4)))
    monkeypatch.setattr(_kernels, "_TORUS_RTOL", 1e-11)
    tight = torus.invariant_form(torus.hecke_generators(A2, F(1, 4)))
    assert tight.residual < loose.residual
    assert loose.residual < 1e-3


def test_ball_check_a2():
    samples = torus.sample_points_near(A2, torus.hecke_base_point(A2), 10, seed=0)
    for k in (F(1, 6), F(1, 4), F(2, 5)):
        form = torus.invariant_form(torus.hecke_generators(A2, k))
        values = torus.ball_check(A2, k, form, samples)
        assert len(values) == 10 and all(v < 0 for v in values)
        assert form.signature == (2, 1)


def test_ball_check_a1_arc():
    arc = [np.array([complex(0.0, phi)]) for phi in (0.6, 1.4, 2.4, 3.6, 4.8, 5.7)]
    form = torus.invariant_form(torus.hecke_generators(A1, F(1, 2)))
    assert all(v < 0 for v in torus.ball_check(A1, F(1, 2), form, arc))


# --- the form from the reflections ------------------------------------------------

TORUS_ADE = ([("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
             + [("E", n) for n in range(6, 9)])
# the k of each type's row of `schwarz enumerate --rank-max 8` with the largest
# p, or k_from_p(3) = 1/6 where the type has no row
TABLE_K = {("A", 2): F(2, 5), ("A", 3): F(1, 3), ("A", 4): F(1, 3), ("A", 5): F(1, 4),
           ("A", 6): F(1, 6), ("A", 7): F(1, 6), ("A", 8): F(1, 6), ("D", 4): F(1, 3),
           ("D", 5): F(1, 4), ("D", 6): F(1, 6), ("D", 7): F(1, 6), ("D", 8): F(1, 6),
           ("E", 6): F(1, 4), ("E", 7): F(1, 6), ("E", 8): F(1, 6)}


def _seeded_k(rank):
    """A seeded k with 0 < |k| <= 1: j/20 for a drawn j of either sign."""
    rng = np.random.default_rng(4000 + rank)
    return F(int(rng.integers(1, 21)) * int(rng.choice([-1, 1])), 20)


@pytest.mark.parametrize("fam, rank", TORUS_ADE)
@pytest.mark.parametrize("table", [True, False])
def test_half_turns_match_the_whole_half_turn_transported_by_hand(fam, rank, table):
    # each T_i of _loops, solved from its quarter-turn by the real structure
    # and the s_i-covariance of the connection, against the frame along all
    # 13 points of the half-turn pulled back by g_i, which uses neither
    system = _sys(fam, rank)
    k = TABLE_K[(fam, rank)] if table else _seeded_k(rank)
    b = torus.hecke_base_point(system).real
    whole = torus.transport(system, k, [_half_turn_by_hand(system, i, b) for i in range(rank)])
    for i, (T, frame) in enumerate(zip(torus._loops(system, k, range(rank), ()), whole)):
        want = _pullback(system, i) @ frame
        assert np.linalg.norm(T - want) <= 1e-11 * np.linalg.norm(want), i


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 5), ("E", 6), ("E", 8)])
@pytest.mark.parametrize("table", [True, False])
def test_second_half_of_a_half_turn_is_the_first_conjugated_and_reflected(fam, rank, table):
    # the half-turn P satisfies P(1 - t) = conj(S_i P(t)), so the frame along
    # its points 6..12 is g_i conj(Phi_i)^-1 g_i, Phi_i the frame along
    # points 0..6: the real structure and the s_i-covariance of the connection
    system = _sys(fam, rank)
    k = TABLE_K[(fam, rank)] if table else _seeded_k(rank)
    b = torus.hecke_base_point(system).real
    for i in range(rank):
        path = _half_turn_by_hand(system, i, b)
        mirrored = (path @ torus._reflection_matrix(system, i).T).conj()[::-1]
        assert np.max(np.abs(path - mirrored)) <= 1e-15 * np.max(np.abs(path))
        first, second = torus.transport(system, k, [path[:7], path[6:]])
        g = _pullback(system, i)
        want = g @ np.linalg.inv(first.conj()) @ g
        assert np.linalg.norm(second - want) <= 1e-11 * np.linalg.norm(want), i


@pytest.mark.parametrize("fam, rank", TORUS_ADE)
@pytest.mark.parametrize("table", [True, False, None])
def test_half_turn_word_traces_match_the_hecke_model(fam, rank, table):
    # the half-turns at b are the Hecke reflection representation plus the
    # line they all fix, so the trace of a word in them is the model's plus 1:
    # at the table k (True), at a seeded k (False), and at k = 1/h (None),
    # where G_0 is singular
    system = _sys(fam, rank)
    k = {True: TABLE_K[(fam, rank)], False: _off_table_k(system, 2000 + rank),
         None: F(1, roots.coxeter_number(system))}[table]
    halves = torus._loops(system, k, range(rank), ())
    model = hecke_model(system, k)
    rng = np.random.default_rng(rank)
    for length in (2, 3, 4, 6, rank):
        for word in rng.integers(0, rank, (3, length)):
            product = functools.reduce(np.matmul, halves[word])
            want = np.trace(functools.reduce(np.matmul, model[word])) + 1.0
            # relative to the word's size: a trace can vanish
            assert abs(np.trace(product) - want) <= 1e-11 * np.linalg.norm(product), word


@pytest.mark.parametrize("fam, rank", [("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 8)])
@pytest.mark.parametrize("at_one_over_h", [True, False])
def test_coxeter_element_power_h_has_the_identity_row_phase(fam, rank, at_one_over_h):
    # c = T_1...T_n from the half-turns: c^h has the eigenvalue
    # lambda = exp(-2 pi i (hk - 1)) n times and 1 once (the fixed line),
    # the identity row (hk - 1)/2 of the Hecke model in closed form
    system = _sys(fam, rank)
    h = roots.coxeter_number(system)
    k = F(1, h) + (0 if at_one_over_h else F(1, 50))
    c = functools.reduce(np.matmul, torus.hecke_generators(system, k)[:rank])
    ch = np.linalg.matrix_power(c, h)
    lam = np.exp(-2j * np.pi * float(h * k - 1))
    assert abs(np.trace(ch) - (rank * lam + 1)) <= 1e-10 * np.linalg.norm(ch)
    if at_one_over_h:
        # lambda = 1, and c^h = 1 + N with N of rank one and N^2 = 0: the fixed
        # line lies in the reflection part (G_0 is singular), a Jordan block
        # whose computed eigenvalues would hold only half the digits
        N = ch - np.eye(rank + 1)
        assert np.linalg.norm(N) > 1.0
        assert np.linalg.norm(N @ N) <= 1e-10 * np.linalg.norm(N) ** 2
    else:
        eigenvalues = list(np.linalg.eigvals(ch))
        for want in [lam] * rank + [1.0]:
            gaps = np.abs(np.array(eigenvalues) - want)
            assert gaps.min() <= 1e-10, (want, eigenvalues)
            eigenvalues.pop(int(np.argmin(gaps)))


@pytest.mark.parametrize("fam, rank", [("A", 3), ("D", 4), ("A", 5), ("D", 5), ("E", 6)])
def test_mirror_loops_match_the_hecke_model_beside_each_half_turn(fam, rank):
    # mirror_monodromy(alpha) is the model's T_alpha^2, T_alpha = T_w T_j T_w^-1
    # with (w, j) from _descent, plus the fixed line: tr(M T_beta) and
    # tr(M T_beta T_gamma) are the model's tr(T_alpha^2 T_beta) + 1 and
    # tr(T_alpha^2 T_beta T_gamma) + 1 for simple beta < gamma.  The loop of
    # another mirror has the same spectrum but fails this, for every pair of
    # roots of A3, A5 and E6.  On D4 the three roots a_1 + a_2 + a_3,
    # a_1 + a_2 + a_4 and a_2 + a_3 + a_4, and on D5 the pairs
    # a_2 + a_3 + a_4 and a_2 + a_3 + a_5, a_1 + a_2 + a_3 + a_4 and
    # a_1 + a_2 + a_3 + a_5, which a diagram symmetry swaps, still share every
    # one of these traces (words of three half-turns tell them apart)
    system = _sys(fam, rank)
    k = TABLE_K[(fam, rank)]
    halves = torus._loops(system, k, range(rank), ())
    model = hecke_model(system, k)
    words = [(beta,) for beta in range(rank)] + list(itertools.combinations(range(rank), 2))
    for alpha in system.positive_roots:
        M = torus.mirror_monodromy(system, k, alpha)
        word, j = torus._descent(system, alpha)
        Tw = functools.reduce(np.matmul, model[word], np.eye(rank))
        Ta = Tw @ model[j] @ np.linalg.inv(Tw)
        for w in words:
            product = functools.reduce(np.matmul, halves[list(w)], M)
            want = np.trace(functools.reduce(np.matmul, model[list(w)], Ta @ Ta)) + 1.0
            assert abs(np.trace(product) - want) <= 1e-11 * np.linalg.norm(product), (alpha, w)


# every torus-ade type at a seeded k of the reflection range, and A2, D5 and
# E8 at three k each
REFLECTION_CASES = ([(fam, rank, None) for fam, rank in TORUS_ADE]
                    + [("A", 2, k) for k in (F(1, 10), F(1, 4), F(3, 5))]
                    + [("D", 5, k) for k in (F(1, 20), F(1, 5), F(3, 10))]
                    + [("E", 8, k) for k in (F(1, 100), F(1, 10), F(19, 100))])


@pytest.mark.parametrize("fam, rank, k", REFLECTION_CASES)
def test_form_from_the_reflections_matches_the_full_svd_solve(fam, rank, k):
    # H from the n half-turns and one coordinate loop against the oracle's
    # solve on all 2n loops: the same line, signature (n, 1), and invariant
    # under every loop
    system = _sys(fam, rank)
    k = _off_table_k(system, 3000 + rank) if k is None else k
    assert torus._reflection_range(system, k)
    form = torus.monodromy_form(system, k)
    gens = torus.hecke_generators(system, k)
    dim, signature, H = _full_svd_form(gens)
    assert dim == 1
    assert form.signature == signature == (rank, 1)
    assert min(np.max(np.abs(form.matrix - H)), np.max(np.abs(form.matrix + H))) <= 1e-12
    assert form.residual <= 1e-10
    assert max(np.linalg.norm(M.conj().T @ form.matrix @ M - form.matrix) for M in gens) <= 1e-10


def test_one_over_h_and_one_half_take_the_kronecker_route(monkeypatch):
    # off the reflection range (k <= 0, k >= m, k = 1/h, and A2 at 1/2) the
    # form comes from the Kronecker solve on all 2n loops; inside it, from
    # the n half-turns and the first coordinate loop
    routes = []
    monkeypatch.setattr(torus, "_flatness_gate", lambda system, k: None)
    monkeypatch.setattr(torus, "hecke_generators", lambda system, k: "all 2n loops")
    monkeypatch.setattr(torus, "invariant_form", routes.append)
    monkeypatch.setattr(torus, "_loops", lambda system, k, halves, circles: (list(halves),
                                                                           list(circles)))
    monkeypatch.setattr(torus, "_reflection_form", lambda system, loops: routes.append(loops))
    for fam, rank in TORUS_ADE:
        system = _sys(fam, rank)
        m = roots.hyperbolic_exponent(system)
        h = roots.coxeter_number(system)
        off = [F(1, h), F(0), -m / 2, m, 2 * m] + ([F(1, 2)] if F(1, 2) < m else [])
        routes.clear()
        for k in off:
            torus.monodromy_form(system, k)
        assert routes == ["all 2n loops"] * len(off)
        routes.clear()
        torus.monodromy_form(system, m * F(7, 23))
        assert routes == [(list(range(rank)), [0])]
    assert F(1, 2) < roots.hyperbolic_exponent(_sys("A", 2))


def test_g0_is_singular_in_the_hyperbolic_range_exactly_off_the_reflection_range():
    # G_0 = I + A/(2 cos pi k) has the eigenvalues 1 + a_j/(2 cos pi k) over
    # the eigenvalues a_j of the Dynkin adjacency A: over every k in (0, m)
    # with denominator below 200, it is singular or undefined exactly where
    # the reflection range leaves the form to the Kronecker solve
    for fam, rank in TORUS_ADE:
        system = _sys(fam, rank)
        adjacency = 2 * np.eye(rank) - np.array(system.cartan, dtype=np.float64)
        a = np.linalg.eigvalsh(adjacency)
        m = roots.hyperbolic_exponent(system)
        ks = [F(p, q) for q in range(1, 200) for p in range(1, math.ceil(m * q))
              if math.gcd(p, q) == 1]
        two_cos = 2.0 * np.cos(np.pi * np.array([float(k) for k in ks]))
        degenerate = ((np.abs(two_cos) < 1e-9)
                      | (np.min(np.abs(two_cos[:, None] + a), axis=1) < 1e-9))
        assert ([k for k, d in zip(ks, degenerate) if d]
                == [k for k in ks if not torus._reflection_range(system, k)])


# --- sample points -------------------------------------------------------------

def _oracle_sample_points(system, base_logs, count, seed):
    """The sampler as first written: a draw is kept when its endpoint passes
    the point check and its straight path from the base passes the sampled
    path check (10 points per segment), both against delta = 0.02."""
    croots = np.array(system.positive_roots, dtype=np.float64)
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
    # samples the endpoint itself.  Flatness samples around default_base_point,
    # the form around b, where every type has a rejected draw among seeds
    # 0-49 (A2 at seed 20, E6 at 43)
    system = _sys(fam, rank)
    special = POINT_REJECT_SEEDS[(fam, rank)]
    for base, seeds, least in (
            (torus.default_base_point(system), (*range(50 - len(special)), *special), len(special)),
            (torus.hecke_base_point(system), range(50), 1)):
        point_rejects = 0
        for seed in seeds:
            want, rejects = _oracle_sample_points(system, base, 10, seed)
            point_rejects += rejects
            assert np.array_equal(torus.sample_points_near(system, base, 10, seed=seed),
                                  np.array(want))
        assert point_rejects >= least


def test_sample_points_match_the_oracle_across_draw_blocks(monkeypatch):
    # at E8 one block holds 94 draws, so 200 samples take at least three
    # _clearance calls, none of more than a block
    sizes = []
    clearance = torus._clearance

    def counted(system, paths):
        sizes.append(len(paths))
        return clearance(system, paths)

    monkeypatch.setattr(torus, "_clearance", counted)
    most = torus._rows_per_chunk(16 * (torus._CLEARANCE_SAMPLES + 1) * len(E8.positive_roots))
    for seed in POINT_REJECT_SEEDS[("E", 8)][:2]:
        want, _ = _oracle_sample_points(E8, torus.default_base_point(E8), 200, seed)
        sizes.clear()
        got = torus.sample_points_near(E8, torus.default_base_point(E8), 200, seed=seed)
        assert np.array_equal(got, np.array(want))
        assert len(sizes) >= 3 and max(sizes) == most


def test_sample_points_give_up_when_every_draw_is_near_a_mirror(monkeypatch):
    # every sample path has a character within 50 of 1, so every draw is
    # rejected until the budget of 100 draws per sample runs out
    monkeypatch.setattr(torus, "MIRROR_DELTA", 50.0)
    with pytest.raises(torus.MirrorSingularity,
                       match="^could not find enough off-mirror samples$") as info:
        torus.sample_points_near(A2, torus.hecke_base_point(A2), 2, seed=0)
    assert isinstance(info.value, _kernels.NumericFailure)
    assert not isinstance(info.value, ValueError)
