"""Continuation kernels: the torus series kernel against an independent
high-precision ODE solve and against the step-by-step series it batches, the
Gauss kernel's propagators against its scalar series and its batches against
each path alone, the memory of both, and the ways continuation can fail in
both kernels, as raised and as the benchmark's tracer counts them."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from schwarz_atlas import _kernels, roots, torus
from schwarz_atlas import gauss as G
from test_gauss import ORACLE_PARAMS, _param_id
from test_torus import _mirror_ring

A2 = roots.build(roots.RootSystemType("A", 2))
E8 = roots.build(roots.RootSystemType("E", 8))


def _segment_args(system, k, a, b):
    """torus_segment arguments for the one path of the log-linear segment
    a -> b, as torus.transport builds them."""
    m = np.asarray(b, dtype=np.complex128) - np.asarray(a, dtype=np.complex128)
    croots = np.array(system.positive_roots, dtype=np.float64)
    cart = np.array(system.cartan, dtype=np.float64)
    afac = float(roots.integrability_constant(system)) * float(k) ** 2
    svec = afac * np.linalg.solve(cart, m)
    return (np.asarray(a, dtype=np.complex128)[None], m[None], [1], croots, croots @ cart,
            float(k), svec[None])


def _segment_oracle(system, k, a, b, dps):
    """Frame at the end of the segment a -> b from mpmath.odefun, with the
    connection written out from its definition: root characters as monomials
    in z = exp(log-coordinates) and u = (1 + chi)/(1 - chi)."""
    n = system.rank
    N = n + 1
    cr = np.array(system.positive_roots).tolist()
    co = (np.array(system.positive_roots) @ np.array(system.cartan)).tolist()
    with mpmath.workdps(dps):
        kk = mpmath.mpf(k.numerator) / k.denominator
        ac = roots.integrability_constant(system)
        afac = mpmath.mpf(ac.numerator) / ac.denominator * kk ** 2
        cinv = mpmath.inverse(mpmath.matrix(np.array(system.cartan).tolist()))
        l0 = [mpmath.mpc(v.real, v.imag) for v in a]
        mm = [mpmath.mpc(v.real, v.imag) for v in np.asarray(b) - np.asarray(a)]
        svec = [afac * mpmath.fsum(cinv[i, j] * mm[j] for j in range(n)) for i in range(n)]
        per_root = [(c, kk / 2 * mpmath.fsum(ci * mi for ci, mi in zip(c, mm)),
                     [[c[i] * cc[j] for j in range(n)] for i in range(n)])
                    for c, cc in zip(cr, co)]
        z0 = [mpmath.exp(lv) for lv in l0]

        def rhs(t, y):
            z = [mpmath.exp(lv + t * mv) if mv else zv for lv, mv, zv in zip(l0, mm, z0)]
            B = [[mpmath.mpc(0)] * N for _ in range(N)]
            for j in range(n):
                B[0][j + 1] = -mm[j]
                B[j + 1][0] = svec[j]
            for c, wb, outer in per_root:
                chi = mpmath.fprod(zv ** cv for zv, cv in zip(z, c))
                w = wb * (1 + chi) / (1 - chi)
                for i in range(n):
                    for j in range(n):
                        if outer[i][j]:
                            B[i + 1][j + 1] += outer[i][j] * w
            return [mpmath.fsum(B[r][q] * y[q * N + s] for q in range(N))
                    for r in range(N) for s in range(N)]

        y0 = [mpmath.mpc(int(r == s)) for r in range(N) for s in range(N)]
        y1 = mpmath.odefun(rhs, 0, y0)(1)
        return np.array([complex(v) for v in y1]).reshape(N, N)


@pytest.mark.parametrize("segment", ["ring", "toric"])
def test_torus_segment_matches_high_precision_ode_solve(segment):
    k = F(1, 4)
    base = torus.default_base_point(A2)
    if segment == "ring":
        # one segment of the ring around the mirror of the first simple root
        ring = _mirror_ring(A2, np.array([1, 0]), base)
        a, b = ring[1], ring[2]
    else:
        # the first third of the coordinate loop z_1 -> e^{2 pi i t} z_1
        a, b = base, base + np.array([2j * np.pi / 3, 0])
    frame, ok = _kernels.torus_segment(*_segment_args(A2, k, a, b))
    assert ok is True
    want = _segment_oracle(A2, k, a, b, dps=20)
    assert np.max(np.abs(frame - want)) / np.max(np.abs(want)) < 1e-11


def _sequential_segment(lz0, m, croots, coroots, k, svec, F0, rtol):
    """One log-linear segment a step at a time, each step's series started
    from the frame itself: the continuation as first written, before steps
    were batched, kept literally as the oracle."""
    n1 = F0.shape[0]
    nr = croots.shape[0]
    J = _kernels._TORUS_MAX_TERMS
    a = croots @ lz0
    b = croots @ m
    moving = b != 0
    K = np.einsum("p,pi,pj->pij", (0.5 * k) * b, croots, coroots).reshape(nr, -1)
    tol = max(rtol, _kernels._EPS)
    U = np.empty((J + 1, nr), dtype=np.complex128)
    Bh = np.zeros((n1, (J + 1) * n1), dtype=np.complex128)
    Bv = Bh.reshape(n1, J + 1, n1)
    Bv[0, 0, 1:] = -m
    Bv[1:, 0, 0] = svec
    Fr = np.empty(((J + 1) * n1, n1), dtype=np.complex128)
    Fv = Fr.reshape(J + 1, n1, n1)
    F = np.array(F0, dtype=np.complex128)
    t = 0.0
    while t < 1.0:
        L = a + b * t
        gap = np.abs(L - 2j * np.pi * np.round(L.imag / (2.0 * np.pi)))
        assert gap.min() > _kernels._MIN_CLEARANCE
        radius = np.min(gap[moving] / np.abs(b[moving]), initial=np.inf)
        h = min(0.5 * radius, 1.0 - t)
        c = 0.5 * h * b
        tchar = np.exp(L)
        U[0] = (1.0 + tchar) / (1.0 - tchar)
        Fv[J] = F
        big = np.abs(F).max()
        small = 0
        for j in range(J):
            Bv[1:, j, 1:] = (U[j] @ K).reshape(n1 - 1, n1 - 1)
            uu = np.einsum("ip,ip->p", U[:j + 1], U[j::-1])
            if j == 0:
                uu -= 1.0
            np.multiply(uu, c, out=U[j + 1])
            U[j + 1] /= j + 1
            term = Bh[:, :(j + 1) * n1] @ Fr[(J - j) * n1:]
            term *= h / (j + 1)
            Fv[J - j - 1] = term
            size = np.abs(term).max()
            big = max(big, size)
            if size <= tol * big:
                small += 1
                if small == 2:
                    break
            else:
                small = 0
        else:
            raise AssertionError("oracle series did not converge")
        F = Fv[J - j - 1:].sum(axis=0)
        t = 1.0 if h == 1.0 - t else t + h
    return F


def _sequential_transport(system, k, path, rtol=_kernels._TORUS_RTOL):
    F = np.eye(system.rank + 1, dtype=np.complex128)
    for a, b in zip(path, path[1:]):
        lz0, m, _, croots, coroots, kf, svec = _segment_args(system, k, a, b)
        F = _sequential_segment(lz0[0], m[0], croots, coroots, kf, svec[0], F, rtol)
    return F


def _loop_parts(system):
    """The stage and the ring of the highest-root mirror loop staged from
    default_base_point, and the first coordinate loop there, as
    log-coordinate paths."""
    base = torus.default_base_point(system)
    ring = _mirror_ring(system, roots.highest_root(system), base)
    stage = np.array([base, ring[0]])
    return {"stage": stage, "ring": ring, "coordinate": torus._coordinate_circle(system, 0, base)}


def _steps(system, path):
    pts = np.asarray(path, dtype=np.complex128)
    croots = np.array(system.positive_roots, dtype=np.float64)
    return len(_kernels._torus_grid(pts[:-1], np.diff(pts, axis=0), croots)[0])


@pytest.mark.parametrize("part", ["stage", "ring", "coordinate"])
@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 6), ("E", 8)])
def test_transport_matches_sequential_series(fam, rank, part):
    system = roots.build(roots.RootSystemType(fam, rank))
    k = roots.hyperbolic_exponent(system) / 2
    path = _loop_parts(system)[part]
    if (fam, rank, part) == ("E", 8, "stage"):
        # the longest segment the mirror loops have
        assert _steps(system, path) == 306
    got = torus.transport(system, k, [path])[0]
    want = _sequential_transport(system, k, path)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _batch_sizes(monkeypatch):
    sizes = []
    propagators = _kernels._torus_propagators

    def recorded(L, *args):
        sizes.append(len(L))
        return propagators(L, *args)

    monkeypatch.setattr(_kernels, "_torus_propagators", recorded)
    return sizes


@pytest.mark.parametrize("system", [A2, E8], ids=["A2", "E8"])
def test_batch_boundaries_match_sequential_series(system, monkeypatch):
    # short segments in a generic direction are one step each, so a path of
    # N of them is N steps; find the batch width, then run 1, width and
    # width + 1 steps
    k = roots.hyperbolic_exponent(system) / 2
    base = torus.default_base_point(system)
    move = 1e-3 * (1.0 + 0.5j) * np.linspace(1.0, 2.0, system.rank)

    def path(steps):
        return tuple(base + s * move for s in range(steps + 1))

    sizes = _batch_sizes(monkeypatch)
    torus.transport(system, k, [path(300)])
    width = sizes[0]
    assert 1 < width < 300
    for steps, batches in ((1, [1]), (width, [width]), (width + 1, [width, 1])):
        assert _steps(system, path(steps)) == steps
        sizes.clear()
        got = torus.transport(system, k, [path(steps)])[0]
        assert sizes == batches
        want = _sequential_transport(system, k, path(steps))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_series_longer_than_the_stacks_restart_with_more_room(monkeypatch):
    # at eps a series needs more terms than the stacks first make room for:
    # the batch starts again with twice the room and fewer steps
    system = roots.build(roots.RootSystemType("D", 4))
    k = roots.hyperbolic_exponent(system) / 2
    path = _loop_parts(system)["stage"]
    steps = _steps(system, path)
    sizes = _batch_sizes(monkeypatch)
    monkeypatch.setattr(_kernels, "_TORUS_RTOL", 1e-17)
    got = torus.transport(system, k, [path])[0]
    assert sizes[1] < sizes[0] and sum(sizes[1:]) == steps
    want = _sequential_transport(system, k, path, rtol=1e-17)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_e8_highest_root_loop_stays_within_the_batch_memory_budget():
    # a batch's coefficient stacks fit _TORUS_BATCH_BYTES, the stacks of one
    # E8 step with room for _TORUS_MAX_TERMS terms
    k = F(3, 50)
    alpha = roots.highest_root(E8)
    torus.mirror_monodromy(E8, k, alpha)
    tracemalloc.start()
    try:
        torus.mirror_monodromy(E8, k, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0e6


def test_torus_segment_ending_on_a_mirror_raises():
    base = torus.default_base_point(A2)
    # move the first simple-root log-coordinate onto its mirror L = 2 pi i
    end = base.copy()
    end[0] = 2j * np.pi
    with pytest.raises(_kernels.NumericFailure,
                       match=r"^torus segment from \[\(0\.18\+0\.3j\), .*\]: reaches a mirror "
                             r"at t = 0\.99999999999"):
        _kernels.torus_segment(*_segment_args(A2, F(1, 4), base, end))


def test_torus_segment_raises_when_series_budget_is_exhausted(monkeypatch):
    monkeypatch.setattr(_kernels, "_TORUS_MAX_TERMS", 3)
    base = torus.default_base_point(A2)
    with pytest.raises(_kernels.NumericFailure, match="did not converge") as info:
        _kernels.torus_segment(*_segment_args(A2, F(1, 4), base, base + 0.3))
    assert not isinstance(info.value, ValueError)


def test_torus_segment_raises_on_overflow():
    # the frame at k = 1e300 overflows on the path's one segment, and the
    # failure names the path's end, where frames are checked
    base = torus.default_base_point(A2)
    args = _segment_args(A2, F(1, 4), base, base + 0.3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(_kernels.NumericFailure) as info:
        _kernels.torus_segment(*args[:5], 1e300, args[6])
    assert str(info.value) == (
        "torus segment from [(0.18+0.3j), (0.33999999999999997+1.4000000000000001j)] along "
        "[(0.3+0j), (0.29999999999999993+0j)]: frame is not finite at t = 1.0")


def test_torus_transport_onto_a_mirror_raises_numeric_failure():
    # the kernel's grid is the one mirror guard of a transport
    base = torus.default_base_point(A2)
    end = base.copy()
    end[0] = 2j * np.pi
    with pytest.raises(_kernels.NumericFailure, match="reaches a mirror") as info:
        torus.transport(A2, F(1, 4), [np.array([base, end])])
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("fam, rank", [("A", 2), ("D", 4), ("E", 8)])
def test_shared_transport_matches_each_path_alone(fam, rank):
    # the quarter-turns, the coordinate loops and three sample paths at b in
    # one call: the batches mix the paths' steps, and each frame stays within
    # rounding of its frame alone
    system = roots.build(roots.RootSystemType(fam, rank))
    k = roots.hyperbolic_exponent(system) / 3
    b = torus.hecke_base_point(system)
    paths = ([torus._quarter_turn(system, i, b) for i in range(rank)]
             + [torus._coordinate_circle(system, j, b) for j in range(rank)]
             + [(b, lz) for lz in torus.sample_points_near(system, b, 3, seed=1)])
    shared = torus.transport(system, k, paths)
    assert shared.shape == (len(paths), rank + 1, rank + 1)
    for path, frame in zip(paths, shared):
        alone = torus.transport(system, k, [path])[0]
        assert np.linalg.norm(frame - alone) <= 1e-13 * np.linalg.norm(alone)


def test_a_later_path_onto_a_mirror_raises_naming_its_segment():
    # the grid of every path is laid out before any step: the third path
    # ends on the alpha_1 mirror, and the failure names its segment
    base = torus.default_base_point(A2)
    end = base.copy()
    end[0] = 2j * np.pi
    paths = [np.array([base + 0.3, base + 0.5]), np.array([base + 0.5, base + 0.3]),
             np.array([base, end])]
    with pytest.raises(_kernels.NumericFailure,
                       match=r"^torus segment from \[\(0\.18\+0\.3j\), .*\] along "
                             r"\[\(-0\.18\+5\.98.*\]: reaches a mirror") as info:
        torus.transport(A2, F(1, 4), paths)
    assert not isinstance(info.value, ValueError)


def test_a_later_gauss_path_onto_a_singular_point_raises_naming_its_segment():
    # the Gauss twin of the test above: the third path ends on the singular
    # point 1, and the failure names its segment
    paths = [(0.5, 0.25), (0.25, 0.5), (0.5, 1.0)]
    with pytest.raises(_kernels.NumericFailure,
                       match=r"^segment \(0\.5\+0j\) -> \(1\+0j\): reaches the singular "
                             r"point 1 at z = ") as info:
        _kernels.gauss_segment(0.25 + 0j, 0.5 + 0j, 0.75 + 0j, paths, np.eye(2))
    assert not isinstance(info.value, ValueError)


def _batches(monkeypatch, propagators):
    """Each batch of the kernel's propagators (_gauss_propagators or
    _torus_propagators): its size and how many of its series stopped."""
    batches = []
    summed = getattr(_kernels, propagators)

    def recorded(*args):
        P, done = summed(*args)
        batches.append((len(done), int(done.sum())))
        return P, done

    monkeypatch.setattr(_kernels, propagators, recorded)
    return batches


def _gauss_short_then_long():
    # 200 steps of 1e-3 fill the first batch, each series stopping within a
    # few terms; the long step to 0.5 + 0.4i, in the second batch, needs more
    paths = [[0.5 + 1e-3 * s for s in range(200)], [0.5, 0.5 + 0.4j]]
    return _kernels.gauss_segment(0.25 + 0j, 0.5 + 0j, 0.75 + 0j, paths, np.eye(2))


def _torus_short_then_long():
    # 1000 steps of about 1e-3 fill the first batch, each series stopping
    # within a few terms; the segment of length 0.3 needs more
    base = torus.default_base_point(A2)
    move = 1e-3 * (1.0 + 0.5j) * np.linspace(1.0, 2.0, 2)
    paths = [np.array([base + s * move for s in range(1000)]), np.array([base, base + 0.3])]
    return torus.transport(A2, F(1, 4), paths)


@pytest.mark.parametrize("budget, call, propagators, segment", [
    ("_MAX_TERMS", _gauss_short_then_long, "_gauss_propagators",
     r"^segment \(0\.5\+0j\) -> \(0\.5\+0\.4j\): series at z = \(0\.5\+0j\) "),
    ("_TORUS_MAX_TERMS", _torus_short_then_long, "_torus_propagators",
     r"^torus segment from \[\(0\.18\+0\.3j\), .*\] along \[\(0\.3\+0j\), .*\]: "
     r"series at t = 0\.0 ")], ids=["gauss", "torus"])
def test_a_series_out_of_terms_in_a_later_batch_raises(budget, call, propagators, segment,
                                                         monkeypatch):
    # the driver raises for the first step whose series did not stop, in the
    # batch it comes in: no frame is returned for any path of the call
    monkeypatch.setattr(_kernels, budget, 8)
    sizes = _batches(monkeypatch, propagators)
    with pytest.raises(_kernels.NumericFailure,
                       match=segment + "did not converge within 8 terms$") as info:
        call()
    assert not isinstance(info.value, ValueError)
    # every series of the first batch stopped, and a later one did not
    first, done = sizes[0]
    assert len(sizes) >= 2 and first == done
    assert sizes[-1][0] > sizes[-1][1]


def test_a_path_without_segments_gives_the_identity_between_others():
    base = torus.default_base_point(A2)
    move = np.array([base, base + 0.3])
    frames = torus.transport(A2, F(1, 4), [move, np.array([base, base]), move])
    assert np.array_equal(frames[1], np.eye(3))
    assert np.linalg.norm(frames[0] - frames[2]) <= 1e-13 * np.linalg.norm(frames[0])


def test_one_torus_kernel_call_per_measurement(monkeypatch):
    # every loop of a monodromy or form measurement, and every sample path of
    # a ball check, in one kernel call
    calls = []
    segment = _kernels.torus_segment

    def recorded(lz0, m, ends, *args):
        calls.append(len(ends))
        return segment(lz0, m, ends, *args)

    monkeypatch.setattr(_kernels, "torus_segment", recorded)
    k = F(1, 4)
    torus.hecke_generators(A2, k)
    torus.mirror_monodromy(A2, k, np.array([1, 1]))
    form = torus.monodromy_form(A2, k)
    torus.ball_check(A2, k, form, torus.sample_points_near(A2, torus.hecke_base_point(A2), 5))
    assert calls == [4, 2, 3, 5]


def test_mirror_monodromy_singular_half_turn_word_raises_numeric_failure(monkeypatch):
    # the highest root of A2 is s_1(alpha_2): its loop inverts T_w = T_1
    def singular(system, k, halves, circles):
        return np.zeros((len(halves) + len(circles), 3, 3), dtype=np.complex128)

    monkeypatch.setattr(torus, "_loops", singular)
    with pytest.raises(_kernels.NumericFailure, match="T_w is singular"):
        torus.mirror_monodromy(A2, F(1, 4), np.array([1, 1]))


@pytest.mark.parametrize("measure", [
    lambda: torus.mirror_monodromy(A2, F(1, 4), np.array([0, 1])),
    lambda: torus.hecke_generators(A2, F(1, 4)),
    lambda: torus.monodromy_form(A2, F(1, 4))])
def test_singular_quarter_turn_frame_raises_naming_its_half_turn(measure, monkeypatch):
    # each half-turn is solved from its quarter-turn frame: a singular frame
    # is a numeric failure that names the half-turn, not a LinAlgError
    def singular(system, k, paths):
        # the quarter-turn of T_2 comes second, or alone for the alpha_2 loop
        frames = np.tile(np.eye(3, dtype=np.complex128), (len(paths), 1, 1))
        frames[min(1, len(paths) - 1)] = 0.0
        return frames

    monkeypatch.setattr(torus, "transport", singular)
    with pytest.raises(_kernels.NumericFailure,
                       match=r"^half-turn T_2: the quarter-turn frame is singular$") as info:
        measure()
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_kernel_raises_at_the_singular_point():
    # a segment ending exactly on the singular point 1 cannot finish
    F0 = np.eye(2, dtype=np.complex128)
    with pytest.raises(_kernels.NumericFailure,
                       match=r"^segment \(0\.5\+0j\) -> \(1\+0j\): reaches the singular "
                             r"point 1 at z = "):
        _kernels.gauss_segment(0.25 + 0j, 0.5 + 0j, 0.75 + 0j, [(complex(0.5), complex(1.0))], F0)


def test_kernel_raises_numeric_failure_when_series_cannot_converge():
    F0 = np.eye(2, dtype=np.complex128)
    with pytest.raises(_kernels.NumericFailure, match="did not converge") as info:
        _kernels.gauss_segment(
            2000 / 3 + 0j, 1 / 7 + 0j, 0.5 + 0j, [(complex(0.5), complex(0.5 + 0.4j))], F0)
    assert not isinstance(info.value, ValueError)


def test_transport_names_the_singular_point_reached():
    p = G.GaussParams(F(1, 84), F(13, 84), F(1, 2))
    with pytest.raises(G.NumericFailure, match="singular point 1"):
        G._transport(p, [(0.5, 1.0)], np.eye(2, dtype=np.complex128))


def test_transport_raises_numeric_failure_on_overflow():
    # the frame overflows on the first loop's second segment; the failure
    # names the loop's end, where frames are checked, as the torus kernel's
    p = G.GaussParams(F(400), F(1, 7), F(1, 2))
    with pytest.raises(G.NumericFailure) as info:
        G.monodromy_matrices(p)
    assert str(info.value) == (
        "segment (0.5-0.4j) -> (0.5+0j): frame is not finite at z = (0.5+0j)")


def _sequential_step(alpha, beta, gamma, z, h, F):
    """One Gauss step from z to z + h, its series started from the frame F
    and summed term by term in scalar arithmetic: the kernel as first
    written, before steps were batched, kept literally as the oracle."""
    (f0, f1), (g0, g1) = np.asarray(F, dtype=np.complex128).tolist()
    s = alpha + beta + 1.0
    c = -alpha * beta
    a0 = z * (1.0 - z)
    a1 = 1.0 - 2.0 * z
    b0 = gamma - s * z
    u = h / a0
    v = h * u
    x0, x1 = f0, h * g0
    y0, y1 = f1, h * g1
    val_x, der_x = x0 + x1, x1
    val_y, der_y = y0 + y1, y1
    big = max(abs(x0), abs(x1), abs(y0), abs(y1))
    small = 0
    for n in range(_kernels._MAX_TERMS):
        m = n + 2
        p = (a1 * n + b0) * u / m
        q = (c - n * (n - 1) - s * n) * v / (m * (n + 1))
        x0, x1 = x1, -(p * x1 + q * x0)
        y0, y1 = y1, -(p * y1 + q * y0)
        val_x += x1
        der_x += m * x1
        val_y += y1
        der_y += m * y1
        t = max(abs(x1), abs(y1))
        big = max(big, t)
        if m * t <= _kernels._EPS * big:
            small += 1
            if small == 2:
                break
        else:
            small = 0
    else:
        raise AssertionError("oracle series did not converge")
    return np.array([[val_x, val_y], [der_x / h, der_y / h]])


GAUSS_LOOPS = list(G._LOOPS.values())
# the boundary samples of one vertex_angles chart, z = 1/2 among them
VERTEX_PATHS = [G._plan_path(G.BASE_POINT, t)
                for side in (G._SIDE_01, G._SIDE_1INF, G._SIDE_INF0) for t in side]
# a start frame with no zero entry, so that every product in the kernel counts
FIXED_FRAME = np.array([[0.8 + 0.1j, 0.35], [-0.45j, 1.2 - 0.2j]], dtype=np.complex128)


@pytest.mark.parametrize("p", ORACLE_PARAMS, ids=_param_id)
def test_gauss_propagators_match_sequential_series(p):
    al, be, ga = p.floats()
    z, h, _, _ = _kernels._gauss_grid(GAUSS_LOOPS + VERTEX_PATHS)
    P, done = _kernels._gauss_propagators(al, be, ga, z, h)
    assert done.all()
    for i, D in enumerate(P.reshape(-1, 2, 2)):
        want = _sequential_step(al, be, ga, z[i], h[i], np.eye(2))
        assert np.max(np.abs(D - want)) <= 1e-13 * np.max(np.abs(want)), i


# ORACLE_PARAMS, the Schwarz triangles (1/k, 1/l, 1/m) with k in {2, 3},
# l in 3..7 and m in {l, 13}, the (1/5, 1/5, 1/5) triangle, and large alpha
BATCH_PARAMS = ORACLE_PARAMS + tuple(
    G.params_from_differences(F(1, k), F(1, l), F(1, m))
    for k in (2, 3) for l in range(3, 8) for m in (l, 13)
) + (G.params_from_differences(F(1, 5), F(1, 5), F(1, 5)),
     G.GaussParams(F(44, 3), F(-4, 5), F(5, 8)), G.GaussParams(F(1, 2), F(-41, 3), F(3, 10)))


@pytest.mark.parametrize("p", BATCH_PARAMS, ids=_param_id)
def test_gauss_batch_equals_each_path_alone(p):
    # a step's propagator does not depend on the other steps in the call,
    # and the product runs path by path, so batching changes no bit
    al, be, ga = p.floats()
    for paths, F0 in ((GAUSS_LOOPS, np.eye(2, dtype=np.complex128)),
                      (VERTEX_PATHS, FIXED_FRAME)):
        frames, ok = _kernels.gauss_segment(al, be, ga, paths, F0)
        assert ok is True and frames.shape == (len(paths), 2, 2)
        for path, got in zip(paths, frames):
            alone, ok = _kernels.gauss_segment(al, be, ga, [path], F0)
            assert ok and np.array_equal(alone[0], got), path


def test_gauss_zero_length_path_returns_the_frame():
    path = G._plan_path(G.BASE_POINT, G.BASE_POINT)
    assert path[0] == path[-1]
    frames, ok = _kernels.gauss_segment(0.25 + 0j, 0.5 + 0j, 0.75 + 0j, [path], FIXED_FRAME)
    # vertex_angles plans this path to z = 1/2
    assert ok is True
    assert np.array_equal(frames[0], FIXED_FRAME)


def test_one_kernel_call_per_measurement(monkeypatch):
    calls = []
    segment = _kernels.gauss_segment

    def recorded(alpha, beta, gamma, paths, F0):
        calls.append(len(paths))
        return segment(alpha, beta, gamma, paths, F0)

    monkeypatch.setattr(_kernels, "gauss_segment", recorded)
    G.monodromy_matrices(G.GaussParams(F(2, 5), F(-3, 7), F(5, 6)))
    assert calls == [3]
    calls.clear()
    G.vertex_angles(G.params_from_differences(F(1, 2), F(1, 3), F(1, 7)))
    assert calls == [len(VERTEX_PATHS)]


def test_vertex_angles_stays_within_a_megabyte():
    p = G.params_from_differences(F(1, 2), F(1, 3), F(1, 7))
    G.vertex_angles(p)
    tracemalloc.start()
    try:
        G.vertex_angles(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


# one passing and one failing call through each kernel, with the benchmark's
# tracer installed; it prints each kernel's calls and failed calls
_TRACED_CALLS = """
import json, sys
import numpy as np
from fractions import Fraction as F
from schwarz_atlas import cli, gauss, roots, torus
import tracer

t = tracer.Tracer()
t.install()
p = gauss.GaussParams(F(1, 84), F(13, 84), F(1, 2))
I2 = np.eye(2, dtype=np.complex128)
gauss._transport(p, [(0.5, 0.25)], I2)
try:
    gauss._transport(p, [(0.5, 1.0)], I2)
except gauss.NumericFailure:
    pass
A2 = roots.build(roots.RootSystemType("A", 2))
base = torus.default_base_point(A2)
torus.transport(A2, F(1, 4), [np.array([base, base + 0.3])])
end = base.copy()
end[0] = 2j * np.pi
try:
    torus.transport(A2, F(1, 4), [np.array([base, end])])
except gauss.NumericFailure:
    pass
spans = t.aggregate()[0]
print(json.dumps({name: [spans[name]["calls"], spans[name]["failed"]]
                  for name in ("_kernels.gauss_segment", "_kernels.torus_segment")}))
"""


def test_tracer_counts_each_kernel_failure_once():
    # perfbench/tracer.py counts a kernel call as failed when it raises or
    # when its last value is false (kernels.*.failed); install() rebinds every
    # public function of the package, so it runs in a fresh process
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    proc = subprocess.run([sys.executable, "-c", _TRACED_CALLS], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join((src, bench))})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"_kernels.gauss_segment": [2, 1],
                                       "_kernels.torus_segment": [2, 1]}
