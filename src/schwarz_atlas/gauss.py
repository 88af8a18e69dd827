"""The classical second-order hypergeometric equation on P - {0, 1, inf}:
exact Riemann schemes, loop monodromy, and the vertex angles of the
conformal triangle (Schwarz) map, measured from its boundary images.

Parameters are exact rationals.  Every numeric result starts from a frame
of initial jets at the base point 1/2, and continuation runs through
_kernels.gauss_segment, which lays out the steps of many paths, sums each
step's Taylor propagator to machine precision and multiplies the
propagators in path order; the kernel raises NumericFailure, naming the
segment, where continuation breaks down, a step that reaches 0 or 1
included.  So does a vertex measurement that fails in every chart.  Each
measurement is one kernel call: the three loops of monodromy_matrices and
the boundary samples of each vertex_angles chart.  vertex_angles fits each
boundary image with a circle row (a, Re b, Im b, c), the one circle format
of `triangle`, and measures its three corners with the tiles' corner-angle
code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from ._kernels import NumericFailure
from .exact import exponent_differences
from .triangle import _corner_angles, circle_intersections

__all__ = [
    "GaussParams",
    "RiemannScheme3",
    "NumericFailure",
    "riemann_scheme",
    "monodromy_matrices",
    "scaled_relation_residual",
    "scaled_spectrum_residual",
    "vertex_angles",
    "params_from_differences",
]

BASE_POINT = 0.5


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


def riemann_scheme(p):
    return RiemannScheme3(
        at_zero=(Fraction(0), 1 - p.gamma),
        at_one=(Fraction(0), p.gamma - (p.alpha + p.beta)),
        at_infinity=(p.alpha, p.beta),
    )


# ---------------------------------------------------------------------------
# continuation and monodromy

def _transport(p, paths, F):
    """Continue the frame F, given at the first waypoint of each path, along
    every path in one kernel call, and return the continued frames.  The
    kernel raises NumericFailure, naming the segment, when it cannot finish.
    """
    return _kernels.gauss_segment(*p.floats(), paths, np.asarray(F, dtype=np.complex128))[0]


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


def monodromy_matrices(p):
    """The loop matrices around 0, 1 and "inf", keyed so, from one kernel
    call, in the frame of initial jets at the base point 1/2.  The
    eigenvalues at s are exp(2 pi i e) for the two local exponents e at s."""
    return dict(zip(_LOOPS, _transport(p, list(_LOOPS.values()), np.eye(2, dtype=np.complex128))))


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
    pair = {0: sch.at_zero, 1: sch.at_one, "inf": sch.at_infinity}[s]
    return [cmath.exp(2j * cmath.pi * float(e)) for e in pair]


def scaled_spectrum_residual(matrix, expected):
    """||(M - e0)(M - e1)|| / ||M||^2 in the Frobenius norm, for a square M
    of any size; torus.hecke_residual is this residual of (1, q^2).  M is
    divided by its norm before the product, so the residual is finite
    wherever ||M|| is.  On 2x2 M it vanishes when M, not a scalar matrix,
    has the characteristic polynomial (x - e0)(x - e1).  Unlike the
    distance of the eigenvalues from (e0, e1) it does not grow with the
    condition of the eigenvectors, which at large |alpha| puts the
    eigenvalues of the exactly rounded loop matrices 1e-3 away from
    exp(2 pi i e)."""
    M = np.asarray(matrix)
    scale = np.linalg.norm(M)
    A = M / scale
    e0, e1 = expected
    I = np.eye(len(M)) / scale
    return float(np.linalg.norm((A - e0 * I) @ (A - e1 * I)))


# ---------------------------------------------------------------------------
# vertex angles of the Schwarz map

def _segment_distance(a, b, q):
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(q - a)
    t = ((q - a).conjugate() * d).real / L2
    t = min(1.0, max(0.0, t))
    return abs(q - (a + t * d))


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


def _chart_value(F):
    """Ratio of the two solutions of the frame F; a zero of the denominator
    is a pole and comes back as complex infinity."""
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

# the charts' bases, as frames of initial jets at 1/2; the identity frame is
# not one of them, because its second solution vanishes at the boundary
# sample 1/2, where its chart reaches infinity
_MOBIUS_RETRIES = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.5], [1.0, 1.0]], dtype=np.complex128),
    np.array([[1.0, -0.7j], [1.0, 1.0]], dtype=np.complex128),
)


# the corners of the image triangle at the images of 0, 1 and infinity: for
# each of the two sides that meet there (01, 1inf and inf0 as 0, 1 and 2),
# the side and the index of its sample nearest the corner
_CORNERS = (((0, 0), (2, 0)), ((0, -1), (1, 0)), ((1, -1), (2, -1)))


def _fit_circle(points):
    """Least-squares generalized circle through the sampled points, as the row
    (a, Re b, Im b, c): the SVD null vector of the homogeneous coefficients.
    Also the worst scaled residual."""
    rows = np.array([[abs(z) ** 2, 2 * z.real, 2 * z.imag, 1.0] for z in points])
    _, svals, vt = np.linalg.svd(rows, full_matrices=True)
    scale = max(float(np.max(np.abs(rows))), 1.0)
    return vt[-1], float(svals[-1]) / scale


def vertex_angles(p):
    """Interior angles of the conformal image triangle at the images of 0, 1
    and infinity, measured from the fitted boundary-arc circles.

    Each chart is the ratio of the two solutions of one basis of
    _MOBIUS_RETRIES, given as a frame of initial jets at 1/2.  The angles do
    not depend on the solution basis, so a chart whose boundary samples reach
    the chart infinity is retried in the next basis, and no local series is
    needed, logarithmic cases included.  Raises NumericFailure when no chart
    gives the three circles.
    """
    sides = (_SIDE_01, _SIDE_1INF, _SIDE_INF0)
    paths = [_plan_path(BASE_POINT, t) for side in sides for t in side]
    last_error = None
    for mob in _MOBIUS_RETRIES:
        try:
            values = [_chart_value(F) for F in _transport(p, paths, mob)]
            if not all(math.isfinite(w.real) and math.isfinite(w.imag) and abs(w) <= 1e4
                       for w in values):
                raise ValueError("boundary sample at or near the chart infinity")
            it = iter(values)
            samples = [[next(it) for _ in side] for side in sides]
            circles = []
            for pts in samples:
                circ, res = _fit_circle(pts)
                if res > 1e-7:
                    raise ValueError(f"boundary image is not a circle (residual {res:.2e})")
                circles.append(circ)
            # each corner is the intersection nearest the sides' samples there;
            # circles that do not meet make a cusp, of angle 0
            angles, corners = np.zeros(3), []
            for i, ((ia, ja), (ib, jb)) in enumerate(_CORNERS):
                near = samples[ia][ja], samples[ib][jb]
                pts = circle_intersections(circles[ia], circles[ib])
                if pts:
                    vertex = min(pts, key=lambda q: abs(q - near[0]) + abs(q - near[1]))
                    corners.append((i, ia, ib, vertex, *near))
            if corners:
                i, ia, ib, *z = map(list, zip(*corners))
                z = np.array(z)
                at, toward_a, toward_b = np.stack([z.real, z.imag], axis=1)
                rows = np.array(circles).T
                angles[i] = _corner_angles(rows[:, ia], rows[:, ib], at, toward_a, toward_b)
            return tuple(angles.tolist())
        except ValueError as exc:
            last_error = exc
    raise NumericFailure(f"vertex measurement failed for every chart ({last_error})")
