"""Continuation kernels: the torus series kernel against an independent
high-precision ODE solve, and the ways continuation can fail in both kernels."""

from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from schwarz_atlas import _kernels, roots, torus
from schwarz_atlas import gauss as G

A2 = roots.build(roots.RootSystemType("A", 2))


def _segment_args(system, k, a, b):
    """torus_segment arguments for the log-linear segment a -> b, as
    torus.transport builds them."""
    m = np.asarray(b, dtype=np.complex128) - np.asarray(a, dtype=np.complex128)
    croots = system.positive_roots.astype(np.complex128)
    afac = float(roots.integrability_constant(system)) * float(k) ** 2
    svec = afac * np.linalg.solve(system.cartan.astype(np.float64), m)
    return (np.asarray(a, dtype=np.complex128), m, croots,
            croots @ system.cartan.astype(np.complex128), float(k),
            svec.astype(np.complex128))


def _segment_oracle(system, k, a, b, dps):
    """Frame at the end of the segment a -> b from mpmath.odefun, with the
    connection written out from its definition: root characters as monomials
    in z = exp(log-coordinates) and u = (1 + chi)/(1 - chi)."""
    n = system.rank
    N = n + 1
    cr = system.positive_roots.tolist()
    co = (system.positive_roots @ system.cartan).tolist()
    with mpmath.workdps(dps):
        kk = mpmath.mpf(k.numerator) / k.denominator
        ac = roots.integrability_constant(system)
        afac = mpmath.mpf(ac.numerator) / ac.denominator * kk ** 2
        cinv = mpmath.inverse(mpmath.matrix(system.cartan.tolist()))
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
        pts = torus.mirror_loop_path(A2, np.array([1, 0])).log_waypoints
        a, b = pts[2], pts[3]
    else:
        # the first third of the coordinate loop z_1 -> e^{2 pi i t} z_1
        a, b = base, base + np.array([2j * np.pi / 3, 0])
    frame, _, ok = _kernels.torus_segment(
        *_segment_args(A2, k, a, b), np.eye(3, dtype=np.complex128), torus.DEFAULT_RTOL)
    assert ok
    want = _segment_oracle(A2, k, a, b, dps=20)
    assert np.max(np.abs(frame - want)) / np.max(np.abs(want)) < 1e-11


def test_torus_segment_ending_on_a_mirror_reports_not_ok():
    base = torus.default_base_point(A2)
    # move the first simple-root log-coordinate onto its mirror L = 2 pi i
    end = base.copy()
    end[0] = 2j * np.pi
    frame, _, ok = _kernels.torus_segment(
        *_segment_args(A2, F(1, 4), base, end), np.eye(3, dtype=np.complex128), 1e-12)
    assert not ok
    assert np.all(np.isfinite(frame))


def test_torus_segment_raises_when_series_budget_is_exhausted(monkeypatch):
    monkeypatch.setattr(_kernels, "_TORUS_MAX_TERMS", 3)
    base = torus.default_base_point(A2)
    with pytest.raises(_kernels.NumericFailure, match="did not converge") as info:
        _kernels.torus_segment(*_segment_args(A2, F(1, 4), base, base + 0.3),
                               np.eye(3, dtype=np.complex128), 1e-12)
    assert not isinstance(info.value, ValueError)


def test_torus_segment_raises_on_overflow():
    base = torus.default_base_point(A2)
    args = _segment_args(A2, F(1, 4), base, base + 0.3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(_kernels.NumericFailure, match="not finite"):
        _kernels.torus_segment(*args[:4], 1e300, args[5], np.eye(3, dtype=np.complex128),
                               1e-12)


def test_torus_transport_onto_a_mirror_raises_numeric_failure():
    base = torus.default_base_point(A2)
    end = base.copy()
    end[0] = 2j * np.pi
    # delta = 0 switches off the sampled clearance guard, so the kernel meets
    # the mirror itself
    path = torus.TorusPath((base, end), delta=0.0)
    with pytest.raises(_kernels.NumericFailure, match="reaches a mirror") as info:
        torus.transport(A2, F(1, 4), path)
    assert not isinstance(info.value, ValueError)


def test_mirror_monodromy_singular_stage_raises_numeric_failure(monkeypatch):
    def singular(system, k, path, frame=None, rtol=None, check_flatness=True):
        return np.zeros((3, 3), dtype=np.complex128), 0.0

    monkeypatch.setattr(torus, "transport", singular)
    with pytest.raises(_kernels.NumericFailure, match="singular"):
        torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]))


def test_kernel_reports_underflow_near_singularity():
    # a segment ending exactly on the singular point 1 cannot finish
    F0 = np.eye(2, dtype=np.complex128)
    _, _, _, ok = _kernels.gauss_segment(
        0.25 + 0j, 0.5 + 0j, 0.75 + 0j, complex(0.5), complex(1.0), F0, 1e-12)
    assert not ok


def test_kernel_raises_numeric_failure_when_series_cannot_converge():
    F0 = np.eye(2, dtype=np.complex128)
    with pytest.raises(_kernels.NumericFailure, match="did not converge") as info:
        _kernels.gauss_segment(
            2000 / 3 + 0j, 1 / 7 + 0j, 0.5 + 0j, complex(0.5), complex(0.5 + 0.4j), F0)
    assert not isinstance(info.value, ValueError)


def test_transport_names_the_singular_point_reached():
    p = G.GaussParams(F(1, 84), F(13, 84), F(1, 2))
    with pytest.raises(G.NumericFailure, match="singular point 1"):
        G._transport(p, (0.5, 1.0), np.eye(2, dtype=np.complex128))


def test_transport_raises_numeric_failure_on_overflow():
    p = G.GaussParams(F(400), F(1, 7), F(1, 2))
    with pytest.raises(G.NumericFailure, match="not finite"):
        G.monodromy_at(p, 0)
