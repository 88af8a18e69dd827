"""Hot continuation kernels: transport of solution frames along segments.

Both kernels continue a frame by Taylor re-expansion at ordinary points: at
each step point the frame is expanded in a power series whose coefficients
follow a recurrence read off the equation, the step is half the distance to
the nearest singularity, so every series converges asymptotically like 2^-n,
and each one is summed until its terms fall below `rtol` times its largest
term.  This is the holonomic-function evaluation of Chudnovsky & Chudnovsky
and van der Hoeven (1999), in plain floating point.

`gauss_segment` continues the 2x2 (value, derivative) frame of the
hypergeometric equation; the coefficients of a solution in x = z - z0 follow
a three-term recurrence, the step radius is half the distance to {0, 1}, and
`rtol` defaults to machine epsilon.

`torus_segment` continues the rank-n torus jet frame dF/dt = B(t) F along a
log-linear segment.  Each root coefficient -coth(L/2) has its Taylor
coefficients from the Riccati recurrence of coth, vectorised over the
positive roots; the frame coefficients follow from them by one convolution
per term.  The step is half the distance in t to the nearest mirror crossing.
"""

import cmath

import numpy as np

# read by perfbench/run.py to label the backend; no kernel is compiled
USING_NUMBA = False


class NumericFailure(Exception):
    """Continuation broke down numerically: a series that does not converge,
    a frame that is no longer finite, or a path that reaches a singular point.
    Deliberately not a ValueError: the input was valid, the numerics failed."""


_EPS = 2.0 ** -52
# terms allowed in one step's series: a loop step takes at most about 50 at
# |alpha|, |beta| <= 1 and about 2|alpha| + 70 when |alpha| is large
_MAX_TERMS = 1000
# a step point this close to 0 or 1, or a root character's log this close to
# a mirror crossing 2 pi i l, counts as reaching the singular point
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


# terms allowed in one torus step's series: a step at half the distance to the
# nearest mirror crossing converges like 2^-n, and takes at most about 40 terms
# at the default tolerance from A2 to E8
_TORUS_MAX_TERMS = 400


def torus_segment(lz0, m, croots, coroots, k, svec, F0, rtol):
    """Transport an (n+1)x(n+1) jet frame along one log-linear torus segment.

    The log-coordinates are lz0 + t m for t in [0, 1]; croots and coroots are
    the positive-root and coroot coordinate rows, svec the constant scalar
    column.  Returns (frame, accumulated truncation estimate, ok flag).  ok=False
    means the segment reaches within _MIN_CLEARANCE of a mirror, where the
    system is singular; the frame is then the one at the last point reached.
    Raises NumericFailure when a step's series has not fallen below
    max(rtol, eps) times its largest term after _TORUS_MAX_TERMS terms, or the
    frame stops being finite.
    """
    n1 = F0.shape[0]
    nr = croots.shape[0]
    J = _TORUS_MAX_TERMS
    # L_p(t) = a_p + b_p t is the log of the root character along the segment
    a = croots @ lz0
    b = croots @ m
    moving = b != 0
    # dF/dt = B(t) F: row 0 of B is [0, -m], column 0 is [0; svec], and the
    # lower block is sum_p u_p(t) K_p with the root coefficient
    # u = (1 + e^L)/(1 - e^L) = -coth(L/2) and K_p = (k/2) b_p croots_p^T coroots_p
    K = np.einsum("p,pi,pj->pij", (0.5 * k) * b, croots, coroots).reshape(nr, -1)
    tol = max(rtol, _EPS)
    # coefficient stacks, allocated once: u_j per root, the Taylor
    # coefficients B_j of B side by side, and the frame coefficients F_j
    # stacked in reverse order (F_j in block J - j), so that the convolution
    # sum_i B_i F_{j-i} is one matrix product
    U = np.empty((J + 1, nr), dtype=np.complex128)
    Bh = np.zeros((n1, (J + 1) * n1), dtype=np.complex128)
    Bv = Bh.reshape(n1, J + 1, n1)
    Bv[0, 0, 1:] = -m
    Bv[1:, 0, 0] = svec
    Fr = np.empty(((J + 1) * n1, n1), dtype=np.complex128)
    Fv = Fr.reshape(J + 1, n1, n1)
    F = np.array(F0, dtype=np.complex128)
    errsum = 0.0
    t = 0.0
    while t < 1.0:
        L = a + b * t
        # distance from each L_p to the nearest mirror crossing 2 pi i l
        gap = np.abs(L - 2j * np.pi * np.round(L.imag / (2.0 * np.pi)))
        if gap.min() <= _MIN_CLEARANCE:
            return F, errsum, False
        radius = np.min(gap[moving] / np.abs(b[moving]), initial=np.inf)
        h = min(0.5 * radius, 1.0 - t)
        # Riccati recurrence in s = (t' - t)/h: du/ds = (b h/2)(u^2 - 1)
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
            if size > big:
                big = size
            if size <= tol * big:
                small += 1
                if small == 2:
                    break
            else:
                small = 0
        else:
            if np.isfinite(Fr).all():
                raise NumericFailure(
                    f"torus segment from {lz0} along {m}: series at t = {t} did not "
                    f"converge within {J} terms")
        F = Fv[J - j - 1:].sum(axis=0)
        if not np.isfinite(F).all():
            raise NumericFailure(
                f"torus segment from {lz0} along {m}: frame is not finite at t = {t + h}")
        errsum += tol * big
        t = 1.0 if h == 1.0 - t else t + h
    return F, errsum, True
