"""Hot continuation kernels: transport of solution frames along segments.

`gauss_segment` continues the 2x2 (value, derivative) frame of the
hypergeometric equation by Taylor re-expansion at ordinary points.  At each
point z0 the coefficients of a solution in x = z - z0 follow a three-term
recurrence read off the polynomial coefficients of the equation; the step
radius is half the distance to {0, 1}, so every series converges
asymptotically like 2^-n, and each one is summed until its terms fall below
`rtol` times its largest term.  `rtol` defaults to machine epsilon and no
caller changes it, so there is no tolerance to tune.  This is the
holonomic-function evaluation of Chudnovsky & Chudnovsky and van der Hoeven
(1999), in plain floating point.

`torus_segment` integrates the rank-n torus frame dF/dt = B(t) F over t in
[0, 1] with Dormand-Prince 5(4) steps and per-step relative tolerance `rtol`.
Its right-hand side is written in numpy and compiled with numba when numba is
importable; set SCHWARZ_ATLAS_NO_NUMBA=1 before import to run the same source
uncompiled.
"""

import cmath
import os

import numpy as np

NUMBA_ENV_FLAG = "SCHWARZ_ATLAS_NO_NUMBA"


def _numba_requested():
    return os.environ.get(NUMBA_ENV_FLAG, "").strip().lower() not in {"1", "true", "yes"}


USING_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:  # numba is an optional extra
        USING_NUMBA = False


class NumericFailure(Exception):
    """Continuation broke down numerically: a series that does not converge,
    a frame that is no longer finite, or a path that reaches a singular point.
    Deliberately not a ValueError: the input was valid, the numerics failed."""


_EPS = 2.0 ** -52
# terms allowed in one step's series: a loop step takes at most about 50 at
# |alpha|, |beta| <= 1 and about 2|alpha| + 70 when |alpha| is large
_MAX_TERMS = 1000
# a step point this close to 0 or 1 counts as reaching the singular point
_MIN_CLEARANCE = 1e-12


def gauss_segment(alpha, beta, gamma, za, zb, F0, rtol=_EPS):
    """Transport a 2x2 frame (row 0 values, row 1 derivatives) from za to zb
    along the straight segment.

    Returns (frame, min |det| over the step points, accumulated truncation
    estimate, ok flag).  ok=False means the segment reaches within
    _MIN_CLEARANCE of 0 or 1, where the equation is singular; the frame is
    then the one at the last point reached.  Raises NumericFailure when a
    step's series has not fallen below `rtol` times its largest term after
    _MAX_TERMS terms, or the frame stops being finite.
    """
    za, zb = complex(za), complex(zb)
    f0, f1 = complex(F0[0, 0]), complex(F0[0, 1])
    g0, g1 = complex(F0[1, 0]), complex(F0[1, 1])
    mindet = abs(f0 * g1 - f1 * g0)
    errsum = 0.0
    s = alpha + beta + 1.0
    c = -alpha * beta
    z = za
    while z != zb:
        dist = min(abs(z), abs(z - 1.0))
        if dist <= _MIN_CLEARANCE:
            return _frame(f0, f1, g0, g1), mindet, errsum, False
        rest = zb - z
        if abs(rest) <= 0.5 * dist:
            h, znext = rest, zb
        else:
            h = rest * (0.5 * dist / abs(rest))
            znext = z + h
        # z(1-z) f'' + (gamma - s z) f' + c f = 0 expanded at z: the
        # coefficients are a0 + a1 x + a2 x^2 with a2 = -1, and b0 + b1 x with
        # b1 = -s.  Scaled terms d_n = c_n h^n obey
        # d_{n+2} = -(p_n d_{n+1} + q_n d_n) with p_n, q_n below.
        a0 = z * (1.0 - z)
        a1 = 1.0 - 2.0 * z
        b0 = gamma - s * z
        u = h / a0
        v = h * u
        # both columns at once: (x0, x1) and (y0, y1) are consecutive terms
        x0, x1 = f0, h * g0
        y0, y1 = f1, h * g1
        val_x, der_x = x0 + x1, x1
        val_y, der_y = y0 + y1, y1
        big = max(abs(x0), abs(x1), abs(y0), abs(y1))
        small = 0
        for n in range(_MAX_TERMS):
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
            if t > big:
                big = t
            # the derivative series carries the factor m, so test m * t
            if m * t <= rtol * big:
                small += 1
                if small == 2:
                    break
            else:
                small = 0
        else:
            # an overflowed series never converges: report it as overflow below
            if all(map(cmath.isfinite, (val_x, der_x, val_y, der_y))):
                raise NumericFailure(
                    f"segment {za} -> {zb}: series at z = {z} did not converge "
                    f"within {_MAX_TERMS} terms")
        f0, f1, g0, g1 = val_x, val_y, der_x / h, der_y / h
        if not all(map(cmath.isfinite, (f0, f1, g0, g1))):
            raise NumericFailure(
                f"segment {za} -> {zb}: frame is not finite at z = {znext}")
        errsum += rtol * big
        det = abs(f0 * g1 - f1 * g0)
        if det < mindet:
            mindet = det
        z = znext
    return _frame(f0, f1, g0, g1), mindet, errsum, True


def _frame(f0, f1, g0, g1):
    return np.array([[f0, f1], [g0, g1]], dtype=np.complex128)


# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# 4th-order weights (with the FSAL 7th stage)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    5179.0 / 57600.0, 7571.0 / 16695.0, 393.0 / 640.0, -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0,
)

_MIN_STEP = 1e-13
_MAX_STEPS = 200000


def _torus_rhs_py(lz0, m, croots, coroots, k, svec, t, F):
    """d/dt of the torus jet frame along a log-linear coordinate segment.

    lz0 + t*m are the log-coordinates, croots/coroots the positive-root and
    coroot coordinate rows (complex copies), svec the constant scalar block.
    """
    n = m.shape[0]
    lz = lz0 + t * m
    tchar = np.exp(croots @ lz)
    u = (1.0 + tchar) / (1.0 - tchar)
    w = (0.5 * k) * (croots @ m) * u
    B = np.zeros((n + 1, n + 1), dtype=np.complex128)
    B[0, 1:] = -m
    B[1:, 0] = svec
    B[1:, 1:] = croots.T @ (w.reshape(-1, 1) * coroots)
    return B @ F


if USING_NUMBA:
    _torus_rhs = njit(cache=True)(_torus_rhs_py)
else:
    _torus_rhs = _torus_rhs_py


def _torus_segment_py(lz0, m, croots, coroots, k, svec, F0, rtol):
    """Transport an (n+1)x(n+1) frame along one log-linear torus segment.

    Returns (frame, accumulated error estimate, ok flag).
    """
    F = F0.copy()
    t = 0.0
    h = 0.05
    errsum = 0.0
    k1 = _torus_rhs(lz0, m, croots, coroots, k, svec, t, F)
    steps = 0
    while t < 1.0:
        if h > 1.0 - t:
            h = 1.0 - t
        k2 = _torus_rhs(lz0, m, croots, coroots, k, svec, t + _C2 * h, F + h * (_A21 * k1))
        k3 = _torus_rhs(lz0, m, croots, coroots, k, svec, t + _C3 * h,
                        F + h * (_A31 * k1 + _A32 * k2))
        k4 = _torus_rhs(lz0, m, croots, coroots, k, svec, t + _C4 * h,
                        F + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = _torus_rhs(lz0, m, croots, coroots, k, svec, t + _C5 * h,
                        F + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = _torus_rhs(lz0, m, croots, coroots, k, svec, t + h,
                        F + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        F5 = F + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = _torus_rhs(lz0, m, croots, coroots, k, svec, t + h, F5)
        F4 = F + h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        scale = 1.0
        err = 0.0
        nn = F.shape[0]
        for i in range(nn):
            for j in range(nn):
                mag = abs(F[i, j])
                if mag > scale:
                    scale = mag
                d = abs(F5[i, j] - F4[i, j])
                if d > err:
                    err = d
        tol = rtol * scale
        if err <= tol:
            t += h
            F = F5
            k1 = k7
            errsum += err
        if err > 0.0:
            fac = 0.9 * (tol / err) ** 0.2
            if fac < 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
            h *= fac
        else:
            h *= 5.0
        if h < _MIN_STEP:
            return F, errsum, False
        steps += 1
        if steps > _MAX_STEPS:
            return F, errsum, False
    return F, errsum, True


if USING_NUMBA:
    torus_segment = njit(cache=True)(_torus_segment_py)
else:
    torus_segment = _torus_segment_py
