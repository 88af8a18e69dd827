"""Independent checks that only the tests call: the degree-2 pullback of
criterion 7, the loop-relation and eigenvalue distances of criterion 6, the
Riemann scheme and its exponent differences, the torus connection at one point
with its exact scalar block and its W-covariance, the exact unit-fraction
predicates, the reduced-triple test, the one-call stratum verdict, the root
reflection and the point inversion in a generalized circle.

The package runs none of these.  Each is the body it had in the package,
with its helpers imported from there.
"""

import cmath
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from schwarz_atlas.exact import ExponentTriple
from schwarz_atlas.gauss import BASE_POINT, GaussParams, _plan_path, _transport
from schwarz_atlas.roots import build, integrability_constant
from schwarz_atlas.schwarzcond import _table
from schwarz_atlas.torus import _char_values, _connection, _reflection_matrix
from schwarz_atlas.triangle import _circle

# ---------------------------------------------------------------------------
# gauss: the loop relation and eigenvalue distances of criterion 6

def monodromy_relation_residual(m0, m1, minf):
    """Max-norm distance of M_inf M_1 M_0 from the identity, for the loop
    matrices of monodromy_matrices."""
    return float(np.max(np.abs(minf @ m1 @ m0 - np.eye(2))))


def spectrum_mismatch(matrix, expected):
    """Best matching of eigenvalues against the expected pair (max distance)."""
    ev = np.linalg.eigvals(matrix)
    e0, e1 = expected
    direct = max(abs(ev[0] - e0), abs(ev[1] - e1))
    crossed = max(abs(ev[0] - e1), abs(ev[1] - e0))
    return float(min(direct, crossed))


# ---------------------------------------------------------------------------
# gauss: the Riemann scheme and its exponent differences

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


def exponent_differences(scheme):
    """The exponent differences of a RiemannScheme3, at 0, 1 and infinity."""
    return ExponentTriple(
        scheme.at_zero[1] - scheme.at_zero[0],
        scheme.at_one[1] - scheme.at_one[0],
        scheme.at_infinity[1] - scheme.at_infinity[0],
    )


# ---------------------------------------------------------------------------
# gauss: the degree-2 pullback to the four-point equation on {1, -1, 0, inf}
# of criterion 7

_RING_RADIUS = 0.15       # radius of the circle around z in pullback_ode_residual
_RING_SAMPLES = 32        # sample points on that circle


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
    solutions f of the corresponding two-point-parameter equation, the
    solutions of the identity jet frame at 1/2.

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
    F0 = np.eye(2, dtype=np.complex128)
    w_center = pullback_map(z)
    ring = [z + _RING_RADIUS * cmath.exp(2j * cmath.pi * j / _RING_SAMPLES)
            for j in range(_RING_SAMPLES)]
    ws = [pullback_map(q) for q in ring]
    spread = max(abs(w - w_center) for w in ws)
    for s in (0.0, 1.0):
        if abs(w_center - s) < 2.0 * spread:
            raise ValueError("pullback image circle too close to a singular point")
    F_anchor = _transport(p, [_plan_path(BASE_POINT, w_center)], F0)[0]
    values = _transport(p, [(w_center, w) for w in ws], F_anchor)[:, 0, :]
    coeffs = np.fft.fft(values, axis=0) / _RING_SAMPLES
    g = coeffs[0]
    gp = coeffs[1] / _RING_RADIUS
    gpp = 2.0 * coeffs[2] / _RING_RADIUS**2
    theta_g = z * gp
    theta2_g = z * (gp + z * gpp)
    c1, c0 = pullback_coefficients(pb, z)
    residual = theta2_g + c1 * theta_g + c0 * g
    return float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# torus: the connection at one point, its exact scalar block and W-covariance

def _inverse_cartan(system):
    n = system.rank
    cart = [[Fraction(int(system.cartan[i][j])) for j in range(n)] for i in range(n)]
    # Gauss-Jordan over the rationals
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(cart)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [v / pval for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def exact_scalar(system, k):
    """The scalar block of the connection in exact arithmetic: the rows of
    a k^2 C^-1 as Fractions, at the forced coupling a.  Row i, negated, is
    column 0 of connection's A_i below row 0."""
    c = integrability_constant(system) * Fraction(k) ** 2
    return [[c * v for v in row] for row in _inverse_cartan(system)]


def connection(system, k, logs):
    """First-order form theta_i F = A_i F on the jet frame (f, theta_1 f, ...)
    at the off-mirror point with log-coordinates logs and the forced coupling:
    the n matrices A_i stacked as one (n, n+1, n+1) array."""
    tchar = _char_values(system, np.asarray(logs)[None])
    return _connection(system, k, tchar, integrability_constant(system))[0]


def w_invariance_residual(system, k, logs, i):
    """Covariance of the coefficients under the simple reflection s_i.

    Compares the coefficient vector of the pair (s_i xi_a, s_i xi_b) at the
    reflected point with the s_i-transport of the pair (xi_a, xi_b) vector at
    the original point; the scalar parts agree exactly by construction.
    """
    S = _reflection_matrix(system, i)
    tchar = _char_values(system, np.array([logs, S @ logs]))
    G_here, G_there = -_connection(system, k, tchar, integrability_constant(system))[:, :, 1:, 1:]
    lhs = np.einsum("pa,qb,pql->abl", S, S, G_there)
    rhs = np.einsum("lm,abm->abl", S, G_here)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# exact: the unit-fraction predicates and the reduced-triple test

def is_unit_fraction(x):
    """True iff x = 1/n for an integer n >= 1.

    Note 1 itself qualifies (n = 1) and 0 does not: the index set here is
    {1, 2, 3, ...}.
    """
    x = Fraction(x)
    return x > 0 and x.numerator == 1


def conditional_unit_fraction(x):
    """The guarded membership test: vacuously true for x <= 0, else is_unit_fraction.

    The boundary x = 0 counts as vacuous (literal reading of the guard "if > 0");
    the enumeration layer surfaces the resulting borderline cases instead of
    patching them here.
    """
    x = Fraction(x)
    return x <= 0 or is_unit_fraction(x)


def is_in_two_over_n(x):
    """True iff x = 2/n for an integer n >= 1 (so 1/5 = 2/10 qualifies)."""
    x = Fraction(x)
    return x > 0 and x.numerator in (1, 2)


def is_reduced(triple):
    """Whether the ExponentTriple has no negative entry and no two entries
    adding up to more than 1."""
    k, l, m = triple.kappa, triple.lam, triple.mu
    if k < 0 or l < 0 or m < 0:
        return False
    return k + l <= 1 and k + m <= 1 and l + m <= 1


# ---------------------------------------------------------------------------
# schwarzcond: the verdict alone

def passes(rtype, k):
    """check(rtype, k)["passed"], decided by integer tests on k = a/b alone."""
    k = Fraction(k)
    return _table(rtype).passes(k.numerator, k.denominator)


# ---------------------------------------------------------------------------
# roots: the root reflection

@functools.cache
def _cartan_array(rtype):
    """The integer Cartan matrix of a type as an int64 array, built once."""
    return np.array(build(rtype).cartan, dtype=np.int64)


def inner(system, x, y):
    """Bilinear form of two lattice vectors given in simple-root coordinates."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return int(x @ _cartan_array(system.rtype) @ y)


def reflect(lam, alpha, system):
    """Orthogonal reflection s_alpha(lam) = lam - (lam, alpha) alpha, in coordinates."""
    lam = np.asarray(lam, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=np.int64)
    if inner(system, alpha, alpha) != 2:
        raise ValueError(f"{alpha!r} is not a root (squared norm != 2)")
    return lam - inner(system, lam, alpha) * alpha


# ---------------------------------------------------------------------------
# triangle: the point inversion

def reflect_point(p, row):
    """Inversion in a circle / mirror reflection in a line, given as a row
    (a, Re b, Im b, c); an involution."""
    is_line, x, y = _circle(row)
    if is_line:
        u, d = x, y
        return p - 2 * ((u.conjugate() * p).real - d) * u
    c, r = x, y
    w = p - c
    if w == 0:
        raise ValueError("cannot invert the center of the circle")
    return c + r**2 / w.conjugate()


# ---------------------------------------------------------------------------
# torus: the Hecke reflection representation

def hecke_model(system, k):
    """The reflection representation of the Iwahori-Hecke algebra of W at
    q = exp(-2 pi i k), built from the integer Cartan rows: the n matrices
    T_i = 1 - (1 + q) e_i g_i^T as one (n, n, n) array, g_i row i of
    G_0 = I + A/(2 cos pi k) with A = 2I - C the Dynkin adjacency.  Each T_i
    fixes the hyperplane g_i^T x = 0 and has the eigenvalue -q on e_i."""
    n = system.rank
    A = np.array([[2 * (i == j) - system.cartan[i][j] for j in range(n)] for i in range(n)],
                 dtype=np.float64)
    G0 = np.eye(n) + A / (2.0 * np.cos(np.pi * float(k)))
    q = cmath.exp(-2j * np.pi * float(k))
    return np.eye(n) - (1.0 + q) * np.eye(n)[:, :, None] * G0[:, None, :]
