"""The classical second-order hypergeometric equation on P - {0, 1, inf}:
exact Riemann schemes, numeric local solutions and continuation, loop
monodromy, conformal triangle (Schwarz) maps with measured vertex angles, and
the degree-2 pullback to the four-point equation on {1, -1, 0, inf}.

Parameters are exact rationals.  Continuation runs through
_kernels.gauss_segment, which re-expands the solutions in Taylor series at
ordinary points and sums each series to machine precision; a numeric
breakdown raises NumericFailure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from ._kernels import NumericFailure
from .exact import ExponentTriple, exponent_differences
from .triangle import GeneralizedCircle, circle_intersections

__all__ = [
    "GaussParams",
    "RiemannScheme3",
    "PullbackParams",
    "RiemannScheme4",
    "SolutionFrame",
    "PathInC",
    "LogarithmicCaseError",
    "NumericFailure",
    "riemann_scheme",
    "local_basis_at_zero",
    "continue_along",
    "monodromy_at",
    "monodromy_relation_residual",
    "scaled_relation_residual",
    "scaled_spectrum_residual",
    "schwarz_map",
    "vertex_angles",
    "wronskian_check",
    "pullback_map",
    "pullback_ode_residual",
    "dictionary",
    "dictionary_inverse",
    "riemann_scheme4",
    "params_from_differences",
]

BASE_POINT = 0.5
_SERIES_TOL = 1e-17       # a Frobenius term this small relative to the sum is negligible
_SERIES_MAX_TERMS = 600   # Frobenius terms before the series counts as divergent
_RING_RADIUS = 0.15       # radius of the circle around z in pullback_ode_residual
_RING_SAMPLES = 32        # sample points on that circle


class LogarithmicCaseError(ValueError):
    """Integer exponent difference: the local solutions involve logarithms,
    which this toolkit deliberately rejects rather than mishandles."""


@dataclass(frozen=True)
class GaussParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    @property
    def log_case(self):
        return any(d.denominator == 1 for d in self.differences().as_tuple())

    def differences(self):
        return exponent_differences(self.alpha, self.beta, self.gamma)

    def floats(self):
        return (
            complex(float(self.alpha)),
            complex(float(self.beta)),
            complex(float(self.gamma)),
        )


def params_from_differences(kappa, lam, mu):
    """Invert (kappa, lam, mu) = (1-gamma, gamma-(alpha+beta), beta-alpha)."""
    kappa, lam, mu = Fraction(kappa), Fraction(lam), Fraction(mu)
    gamma = 1 - kappa
    total = gamma - lam        # alpha + beta
    beta = (total + mu) / 2
    alpha = total - beta
    return GaussParams(alpha, beta, gamma)


@dataclass(frozen=True)
class RiemannScheme3:
    """Singular points {0, 1, inf} with their exponent pairs."""

    at_zero: tuple
    at_one: tuple
    at_infinity: tuple

    @property
    def exponent_differences(self):
        return ExponentTriple(
            self.at_zero[1] - self.at_zero[0],
            self.at_one[1] - self.at_one[0],
            self.at_infinity[1] - self.at_infinity[0],
        )

    def exponent_sum(self):
        return sum(self.at_zero) + sum(self.at_one) + sum(self.at_infinity)


def riemann_scheme(p):
    return RiemannScheme3(
        at_zero=(Fraction(0), 1 - p.gamma),
        at_one=(Fraction(0), p.gamma - (p.alpha + p.beta)),
        at_infinity=(p.alpha, p.beta),
    )


# ---------------------------------------------------------------------------
# local solutions and continuation

def _frobenius_value(p, rho, z):
    """Evaluate z^rho * sum c_m z^m and its derivative, with the coefficient
    recursion read off the operator itself: c_{m+1} P(rho+m+1) = c_m Q(rho+m)
    for P(t) = t(t+gamma-1), Q(t) = (t+alpha)(t+beta)."""
    al, be, ga = (float(p.alpha), float(p.beta), float(p.gamma))
    rho = float(rho)
    c = 1.0 + 0.0j
    s = c
    sd = rho * c
    zk = 1.0 + 0.0j
    small = 0
    for m in range(_SERIES_MAX_TERMS):
        denom = (rho + m + 1) * (rho + m + ga)
        if denom == 0:
            raise LogarithmicCaseError(
                "Frobenius recursion hit a resonance (integer exponent difference)"
            )
        c = c * (rho + m + al) * (rho + m + be) / denom
        zk *= z
        term = c * zk
        s += term
        sd += (rho + m + 1) * term
        if abs(term) <= _SERIES_TOL * max(abs(s), 1.0):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise ValueError(f"series for |z| = {abs(z):.3f} did not converge")
    zr = cmath.exp(rho * cmath.log(z)) if rho != 0 else 1.0 + 0.0j
    return zr * s, zr / z * sd


@dataclass(frozen=True)
class SolutionFrame:
    """2x2 fundamental matrix: column j holds (f_j, f_j') at the base point."""

    base: complex
    matrix: np.ndarray

    @property
    def wronskian(self):
        m = self.matrix
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def identity_frame(z):
    return SolutionFrame(base=complex(z), matrix=np.eye(2, dtype=np.complex128))


def local_basis_at_zero(p, z):
    """The Frobenius basis at 0 evaluated at z: exponents 1-gamma and 0.

    Requires |z| < 1 (series circle), z off the cut (-1, 0], and a non-integer
    exponent difference at 0.
    """
    if p.log_case:
        raise LogarithmicCaseError(f"logarithmic parameter set {p}")
    z = complex(z)
    if abs(z) >= 0.95:
        raise ValueError(f"|z| = {abs(z):.3f} too close to the series radius")
    if z.imag == 0 and -1 < z.real <= 0:
        raise ValueError("z on the branch cut (-1, 0]")
    f1, d1 = _frobenius_value(p, 1 - p.gamma, z)
    f2, d2 = _frobenius_value(p, Fraction(0), z)
    return SolutionFrame(base=z, matrix=np.array([[f1, f2], [d1, d2]]))


@dataclass(frozen=True)
class PathInC:
    """Piecewise-linear path; every segment must clear the finite singular
    points 0 and 1 by at least `delta`."""

    points: tuple
    delta: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(q) for q in self.points))
        for s in (0.0, 1.0):
            d = self.min_distance_to(s)
            if d < self.delta:
                raise ValueError(
                    f"path passes within {d:.2e} of the singular point {s}"
                )

    def min_distance_to(self, s):
        best = math.inf
        for a, b in zip(self.points, self.points[1:]):
            best = min(best, _segment_distance(a, b, complex(s)))
        if not self.points[1:]:
            best = abs(self.points[0] - complex(s))
        return best


def _segment_distance(a, b, q):
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(q - a)
    t = ((q - a).conjugate() * d).real / L2
    t = min(1.0, max(0.0, t))
    return abs(q - (a + t * d))


def _transport(p, points, matrix):
    """Run the segment kernel along consecutive waypoints.

    Returns (matrix, min |det| along the way, accumulated error estimate).
    Raises NumericFailure, naming the segment, when the kernel cannot finish.
    """
    al, be, ga = p.floats()
    F = np.asarray(matrix, dtype=np.complex128).copy()
    mindet = abs(F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0])
    errsum = 0.0
    for a, b in zip(points, points[1:]):
        F, md, es, ok = _kernels.gauss_segment(al, be, ga, complex(a), complex(b), F)
        mindet = min(mindet, md)
        errsum += es
        if not ok:
            s = min((0.0, 1.0), key=lambda q: _segment_distance(a, b, q))
            raise NumericFailure(
                f"segment {a} -> {b}: reaches the singular point {s:g}")
    return F, mindet, errsum


def continue_along(p, path, frame):
    """Analytic continuation of a frame along the path (linear in the frame)."""
    if abs(complex(path.points[0]) - frame.base) > 1e-12:
        raise ValueError("frame is not based at the start of the path")
    F, _, _ = _transport(p, path.points, frame.matrix)
    return SolutionFrame(base=complex(path.points[-1]), matrix=F)


def wronskian_check(p, path, frame=None):
    """True iff |det| of the transported frame never drops below 1e-12 times
    its initial value along the path."""
    if frame is None:
        frame = identity_frame(path.points[0])
    det0 = abs(frame.wronskian)
    if det0 == 0.0:
        return False
    _, mindet, _ = _transport(p, path.points, frame.matrix)
    return mindet > 1e-12 * det0


# fixed loops based at 1/2 (rectangles; counterclockwise around 0 and around 1,
# and clockwise around both for the loop at infinity).  The loop at infinity
# is the outline of the other two: it keeps the same clearance from {0, 1}
# and stays near them, because with a large exponent difference at infinity
# the two solutions there part like |z|^(alpha - beta), and a wide loop loses
# that ratio in digits (at alpha = 44/3, beta = -4/5 a loop out to |z| = 3.6
# came back with relative error 4e-6, this one with 5e-12).
LOOP_ZERO = (0.5, 0.5 + 0.4j, -0.5 + 0.4j, -0.5 - 0.4j, 0.5 - 0.4j, 0.5)
LOOP_ONE = (0.5, 0.5 - 0.4j, 1.5 - 0.4j, 1.5 + 0.4j, 0.5 + 0.4j, 0.5)
LOOP_INFINITY = (
    0.5, 0.5 + 0.4j, 1.5 + 0.4j, 1.5 - 0.4j, -0.5 - 0.4j, -0.5 + 0.4j, 0.5 + 0.4j, 0.5,
)
_LOOPS = {0: LOOP_ZERO, 1: LOOP_ONE, "inf": LOOP_INFINITY}


def _singular_point(s):
    """The _LOOPS key of s; "inf", "infinity" and math.inf name infinity."""
    key = "inf" if s in ("inf", "infinity", math.inf) else s
    if key not in _LOOPS:
        raise ValueError(f"singular point must be 0, 1 or 'inf', got {s!r}")
    return key


def monodromy_at(p, s):
    """Monodromy matrix of the loop around s in {0, 1, "inf"}, in the frame of
    initial jets at the base point 1/2.  Eigenvalues are exp(2 pi i e) for the
    two local exponents e at s."""
    F, _, _ = _transport(p, _LOOPS[_singular_point(s)], np.eye(2, dtype=np.complex128))
    return F


def monodromy_relation_residual(m0, m1, minf):
    """Max-norm distance of M_inf M_1 M_0 from the identity, for the loop
    matrices returned by monodromy_at at 0, 1 and "inf"."""
    return float(np.max(np.abs(minf @ m1 @ m0 - np.eye(2))))


def scaled_relation_residual(m0, m1, minf):
    """||M_inf M_1 M_0 - 1|| / (||M_inf|| ||M_1|| ||M_0||) in the Frobenius
    norm.  Rounding the loop matrices alone leaves an absolute residual of
    about machine epsilon times that product, which reaches 1e-2 at
    |alpha| near 15; scaled, the residual reads the same at any magnitude.
    Every loop matrix has |det| = 1, so the scale is at least 1.  The
    matrices are normalised before they are multiplied, so the product
    cannot overflow."""
    n = np.linalg.norm
    scale = n(minf) * n(m1) * n(m0)
    return float(n((minf / n(minf)) @ (m1 / n(m1)) @ (m0 / n(m0)) - np.eye(2) / scale))


def expected_monodromy_spectrum(p, s):
    sch = riemann_scheme(p)
    pair = {0: sch.at_zero, 1: sch.at_one, "inf": sch.at_infinity}[_singular_point(s)]
    return [cmath.exp(2j * cmath.pi * float(e)) for e in pair]


def spectrum_mismatch(matrix, expected):
    """Best matching of eigenvalues against the expected pair (max distance)."""
    ev = np.linalg.eigvals(matrix)
    e0, e1 = expected
    direct = max(abs(ev[0] - e0), abs(ev[1] - e1))
    crossed = max(abs(ev[0] - e1), abs(ev[1] - e0))
    return float(min(direct, crossed))


def scaled_spectrum_residual(matrix, expected):
    """||(M - e0)(M - e1)|| / ||M||^2 in the Frobenius norm, scaled as
    torus.hecke_residual is.  It vanishes when M, not a scalar matrix, has
    the characteristic polynomial (x - e0)(x - e1).  Unlike the eigenvalue
    distance of spectrum_mismatch it does not grow with the condition of the
    eigenvectors, which at large |alpha| puts the eigenvalues of the exactly
    rounded loop matrices 1e-3 away from exp(2 pi i e)."""
    M = np.asarray(matrix)
    scale = np.linalg.norm(M)
    A = M / scale
    e0, e1 = expected
    I = np.eye(2) / scale
    return float(np.linalg.norm((A - e0 * I) @ (A - e1 * I)))


# ---------------------------------------------------------------------------
# Schwarz map and vertex angles

def _plan_path(z0, z1):
    """Waypoints from z0 to z1 avoiding {0, 1}: direct when the straight
    segment has clearance, otherwise over a horizontal detour at height
    0.6 on the side of the target."""
    z0, z1 = complex(z0), complex(z1)
    if min(_segment_distance(z0, z1, 0.0), _segment_distance(z0, z1, 1.0)) > 0.12:
        return (z0, z1)
    side = 1.0 if (z1.imag > 0 or (z1.imag == 0 and z0.imag >= 0)) else -1.0
    h = side * 0.6j
    return (z0, z0 + h, z1 + h, z1)


def schwarz_map(p, z, frame=None):
    """Ratio of the two Frobenius solutions at 0, continued to z.

    A zero of the denominator solution is a pole of the map and comes back as
    complex infinity.
    """
    if frame is None:
        frame = local_basis_at_zero(p, BASE_POINT)
    pts = _plan_path(frame.base, z)
    F, _, _ = _transport(p, pts, frame.matrix)
    num, den = F[0, 0], F[0, 1]
    if abs(den) <= 1e-14 * max(1.0, abs(num)):
        return complex(math.inf, math.inf)
    return num / den


# sample parameters along the three boundary intervals; the unbounded sides
# need a wide logarithmic spread, otherwise the circle fit extrapolates from a
# short arc and the angle at the image of infinity degrades to ~1e-6
_SIDE_01 = (0.1, 0.22, 0.38, 0.5, 0.62, 0.78, 0.9)
_SIDE_1INF = (1.15, 1.5, 2.2, 4.0, 9.0, 25.0, 120.0, 1200.0)
_SIDE_INF0 = (-0.12, -0.4, -1.0, -2.5, -7.0, -20.0, -100.0, -1000.0)

_MOBIUS_RETRIES = (
    np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.5], [1.0, 1.0]], dtype=np.complex128),
    np.array([[1.0, -0.7j], [1.0, 1.0]], dtype=np.complex128),
)


def _fit_circle(points):
    """Least-squares generalized circle through the sampled points (SVD on the
    homogeneous coefficients), plus the worst scaled residual."""
    rows = np.array([[abs(z) ** 2, 2 * z.real, 2 * z.imag, 1.0] for z in points])
    _, svals, vt = np.linalg.svd(rows, full_matrices=True)
    coeffs = vt[-1]
    circ = GeneralizedCircle(coeffs[0], complex(coeffs[1], coeffs[2]), coeffs[3])
    scale = max(float(np.max(np.abs(rows))), 1.0)
    return circ, float(svals[-1]) / scale


def vertex_angles(p, basis=None):
    """Interior angles of the conformal image triangle at the images of 0, 1
    and infinity, measured from the fitted boundary-arc circles.

    Works for any invertible solution basis (angles are invariant under a
    change of basis); parameter sets with integer differences are handled with
    the identity frame, since the measurement never needs local series.
    """
    if p.log_case:
        frame = identity_frame(BASE_POINT)
    else:
        frame = local_basis_at_zero(p, BASE_POINT)
    sides_params = (_SIDE_01, _SIDE_1INF, _SIDE_INF0)
    last_error = None
    for mob in _MOBIUS_RETRIES:
        matrix = frame.matrix @ (mob if basis is None else np.asarray(basis, dtype=complex))
        fr = SolutionFrame(base=frame.base, matrix=matrix)
        try:
            samples = []
            for params in sides_params:
                pts = []
                for t in params:
                    w = schwarz_map(p, t, frame=fr)
                    if not (math.isfinite(w.real) and math.isfinite(w.imag)) or abs(w) > 1e4:
                        raise ValueError("boundary sample at or near the chart infinity")
                    pts.append(w)
                samples.append(pts)
            circles = []
            for pts in samples:
                circ, res = _fit_circle(pts)
                if res > 1e-7:
                    raise ValueError(f"boundary image is not a circle (residual {res:.2e})")
                circles.append(circ)
            angles = []
            # vertex images: 0 joins sides (01, inf0); 1 joins (01, 1inf);
            # infinity joins (1inf, inf0)
            for (ia, ib), (near_a, near_b) in (
                ((0, 2), (samples[0][0], samples[2][0])),
                ((0, 1), (samples[0][-1], samples[1][0])),
                ((1, 2), (samples[1][-1], samples[2][-1])),
            ):
                angles.append(
                    _vertex_angle(circles[ia], circles[ib], near_a, near_b)
                )
            return tuple(angles)
        except ValueError as exc:
            if basis is not None:
                raise
            last_error = exc
    raise ValueError(f"vertex measurement failed for every chart ({last_error})")


def _vertex_angle(ca, cb, near_a, near_b):
    pts = circle_intersections(ca, cb)
    if not pts:
        # tangent circles: cusp
        return 0.0
    vertex = min(pts, key=lambda q: abs(q - near_a) + abs(q - near_b))
    return abs(cmath.phase(_tangent(ca, vertex, near_a).conjugate() * _tangent(cb, vertex, near_b)))


def _tangent(circ, p, towards):
    """Unit tangent of the circle at p, oriented so it points toward `towards`.

    Scalar, unlike the tile angles of `triangle`: the fitted circles and the
    sample points are numpy scalars, and their complex arithmetic rounds as
    numpy's does, which the measured angles keep."""
    if circ.is_line:
        tau = 1j * circ.line_normal
    else:
        nu = p - circ.center
        tau = 1j * nu / abs(nu)
    if (tau.conjugate() * (towards - p)).real < 0:
        tau = -tau
    return tau


# ---------------------------------------------------------------------------
# degree-2 pullback

@dataclass(frozen=True)
class PullbackParams:
    k1: Fraction
    k2: Fraction
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k1", Fraction(self.k1))
        object.__setattr__(self, "k2", Fraction(self.k2))
        object.__setattr__(self, "lam", Fraction(self.lam))


@dataclass(frozen=True)
class RiemannScheme4:
    at_plus_one: tuple
    at_minus_one: tuple
    at_zero: tuple
    at_infinity: tuple


def dictionary(pb):
    """(k1, k2, lam) -> (alpha, beta, gamma); an exact linear bijection."""
    alpha = pb.lam + pb.k1 / 2 + pb.k2
    beta = -pb.lam + pb.k1 / 2 + pb.k2
    gamma = Fraction(1, 2) + pb.k1 + pb.k2
    return GaussParams(alpha, beta, gamma)


def dictionary_inverse(p):
    lam = (p.alpha - p.beta) / 2
    k2 = p.alpha + p.beta - p.gamma + Fraction(1, 2)
    k1 = p.alpha + p.beta - 2 * k2
    return PullbackParams(k1, k2, lam)


def riemann_scheme4(pb):
    p = dictionary(pb)
    return RiemannScheme4(
        at_plus_one=(Fraction(0), 2 - 2 * p.gamma),
        at_minus_one=(Fraction(0), 2 * p.gamma - 2 * (p.alpha + p.beta)),
        at_zero=(p.alpha, p.beta),
        at_infinity=(p.alpha, p.beta),
    )


def pullback_map(z):
    """w = 1/2 - (z + 1/z)/4; exact on Fractions, symmetric under z -> 1/z."""
    if z == 0:
        raise ZeroDivisionError("the pullback map is undefined at z = 0")
    if isinstance(z, Fraction):
        return Fraction(1, 2) - (z + 1 / z) / 4
    z = complex(z)
    return 0.5 - (z + 1.0 / z) / 4.0


def pullback_coefficients(pb, z):
    """First-order coefficient and constant term of the pulled-back operator
    at z (floats)."""
    z = complex(z)
    k1, k2, lam = float(pb.k1), float(pb.k2), float(pb.lam)
    u1 = (1 + 1 / z) / (1 - 1 / z)
    u2 = (1 + 1 / z**2) / (1 - 1 / z**2)
    return k1 * u1 + 2 * k2 * u2, (k1 / 2 + k2) ** 2 - lam**2


def pullback_ode_residual(pb, z):
    """Residual of f(w(z)) in the pulled-back operator, for both basis
    solutions f of the corresponding two-point-parameter equation.

    The logarithmic derivatives of the composition are taken spectrally from
    samples on a small circle around z, so the check is independent of the
    differential equation satisfied by f.
    """
    z = complex(z)
    clearance = min(abs(z), abs(z - 1), abs(z + 1))
    if clearance < 2.5 * _RING_RADIUS:
        raise ValueError(
            f"z = {z} too close to a singular point (clearance {clearance:.3f})"
        )
    p = dictionary(pb)
    if p.log_case:
        frame0 = identity_frame(BASE_POINT)
    else:
        frame0 = local_basis_at_zero(p, BASE_POINT)
    w_center = pullback_map(z)
    ring = [z + _RING_RADIUS * cmath.exp(2j * cmath.pi * j / _RING_SAMPLES)
            for j in range(_RING_SAMPLES)]
    ws = [pullback_map(q) for q in ring]
    spread = max(abs(w - w_center) for w in ws)
    for s in (0.0, 1.0):
        if abs(w_center - s) < 2.0 * spread:
            raise ValueError("pullback image circle too close to a singular point")
    anchor_pts = _plan_path(frame0.base, w_center)
    F_anchor, _, _ = _transport(p, anchor_pts, frame0.matrix)
    values = np.empty((_RING_SAMPLES, 2), dtype=np.complex128)
    for j, w in enumerate(ws):
        F, _, _ = _transport(p, (w_center, w), F_anchor)
        values[j] = F[0, :]
    coeffs = np.fft.fft(values, axis=0) / _RING_SAMPLES
    g = coeffs[0]
    gp = coeffs[1] / _RING_RADIUS
    gpp = 2.0 * coeffs[2] / _RING_RADIUS**2
    theta_g = z * gp
    theta2_g = z * (gp + z * gpp)
    c1, c0 = pullback_coefficients(pb, z)
    residual = theta2_g + c1 * theta_g + c0 * g
    return float(np.max(np.abs(residual)))
