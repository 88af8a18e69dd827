"""The rank-n hypergeometric system on the toric mirror-arrangement complement:
the first-order frame connection at a stack of points, one
(points, n, n+1, n+1) array built by _connection, and its curvature,
multidimensional continuation along log-linear paths, mirror monodromy, the
Hecke generators of the orbifold group with the coordinate loops, the
invariant Hermitian form (Couwenberg-Heckman-Looijenga, Publ. IHES 101,
2005), and the negative-cone (ball) check, whose values are the unsigned
pairings under the inverse form.

Coordinates are z_i = h^{-alpha_i}; the vector fields theta_i dual to the
simple roots act as -z_i d/dz_i, so characters restrict to monomials and all
structure constants are rational.  Every float entry point takes a point as a
plain array of log-coordinates l_i = log z_i, and a path as an array of them;
the Weyl group acts on them linearly, the simple reflection s_i by
_reflection_matrix.  Only char_value, the exact monomial, takes coordinates z.
Every loop and every form starts at one base point, the real point b of
hecke_base_point in the dominant chamber.  The half-turn T_i continues the
frame from b to s_i b and pulls it back by s_i.  At real k the connection is
real and s_i-covariant, and the half-turn's second half is its first,
conjugated and reflected: so only the first half, the quarter-turn of
_quarter_turn, is transported, and T_i = conj(Phi_i)^-1 g_i Phi_i is one
solve (_loops).  hecke_generators gives the n half-turns and the n
coordinate loops at b, which are transported whole.  monodromy_form gives
the form H_b: for 0 < k < m with k != 1/h and 2k != 1 it reads the n
half-turns and one coordinate loop and solves H from the structure of the
Hecke reflection representation (_reflection_form, O(n^3)); elsewhere
invariant_form solves it from all 2n loops.  The mirror loop of a positive root alpha is
T_alpha^2 with T_alpha = T_w T_j T_w^-1, where w(alpha_j) = alpha comes from
descending alpha to a simple root: matrix algebra on the half-turns that w
and j use, with no transport of its own.  invariant_form, the Kronecker
solve, solves M* H M = H on column-major vec(H) as the null line of one
stacked complex system with blocks M^T kron M* - 1, by
vec(A X B) = (B^T kron A) vec(X), and takes the Hermitian one of H + H* and
i(H - H*); the SVD of that system is the one step whose bits follow the BLAS
thread count.  ball_check's paths and torus form's samples start at b; only
the torus flatness report samples around default_base_point.  Scalar
couplings are exact; continuation runs through _kernels.torus_segment, once
per measurement for all of its paths (the loops of hecke_generators,
mirror_monodromy or monodromy_form, the sample paths of ball_check): it lays
out the step grid of every segment of every path (steps of half the
distance to the nearest mirror crossing), sums each step's propagator, the
Taylor series of the frame that starts as the identity, in batches of steps
whose coefficient stacks fit a fixed byte budget, and multiplies the
propagators in path order.
That grid is the one mirror guard of a path: it raises when a step point comes
within _kernels._MIN_CLEARANCE of a mirror.  The sampled clearance,
_clearance, is read only by sample_points_near, which keeps a draw whose path
from the base keeps MIRROR_DELTA from every mirror; it draws and measures its
candidates in blocks.
The characters, the connection and the curvature all take a stack of
points, one row each: flatness_residual measures all its points in one
_curvature pass per chunk (chunks bounded by the kernel's byte budget), and
every point's residual keeps the bits it has alone.  So the characters are
one matrix-vector product per row, and the connection's coefficient block is
one real GEMM whose left factor broadcasts over the points.  The curvature
is the commutators [A_j, A_i] alone: every coefficient of the connection
form is a closed 1-form u(t) dlog t, so theta_i A_j = theta_j A_i and the
derivative terms cancel identically.
Every numeric breakdown, MirrorSingularity and InvariantFormError included,
raises a _kernels.NumericFailure where it is found.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import _kernels
from .gauss import scaled_spectrum_residual
from .roots import coxeter_number, hyperbolic_exponent, integrability_constant

__all__ = [
    "MirrorSingularity",
    "InvariantFormError",
    "default_base_point",
    "hecke_base_point",
    "char_value",
    "flatness_residual",
    "transport",
    "mirror_monodromy",
    "hecke_residual",
    "hecke_generators",
    "monodromy_form",
    "invariant_form",
    "ball_check",
    "sample_points_near",
]

MIRROR_DELTA = 0.02
_CLEARANCE_SAMPLES = 9    # intervals per path segment sampled by _clearance
_SAMPLE_SPREAD = 0.35     # scale of the Gaussian log-offsets of sample_points_near
_RANK_TOL = 1e-6          # invariant_form's null-space threshold, relative to svals[0]
_EIG_TOL = 1e-8           # the smallest |eigenvalue| of the form that counts in its signature
_FLAT_TOL = 1e-13         # the flatness gate's curvature bound, relative to max(1, max|A|^2)


class MirrorSingularity(_kernels.NumericFailure):
    """A character hit 1: the requested point lies on a mirror."""


class InvariantFormError(_kernels.NumericFailure):
    """The space of invariant Hermitian forms is not one-dimensional."""

    def __init__(self, message, dimension):
        super().__init__(message)
        self.dimension = dimension


def char_value(z, alpha):
    """h^(-alpha) as a monomial in the coordinates: prod z_l^{c_l}.

    Works for any numeric coordinate type (floats, complex, Fractions), so
    exact inputs give exact values.
    """
    out = None
    for zl, cl in zip(z, alpha):
        cl = int(cl)
        if cl == 0:
            continue
        factor = zl**cl
        out = factor if out is None else out * factor
    if out is None:
        return type(z[0])(1) if len(z) else 1
    return out


_FLOAT_ROWS = {}


def _float_rows(system):
    """Float positive-root rows, coroot rows, inverse Cartan matrix and Cartan
    matrix of a root system, computed once per type from its integer tuples."""
    rows = _FLOAT_ROWS.get(system.rtype)
    if rows is None:
        croots = np.array(system.positive_roots, dtype=np.float64)
        cart = np.array(system.cartan, dtype=np.float64)
        rows = (croots, croots @ cart, np.linalg.inv(cart), cart)
        for arr in rows:
            arr.setflags(write=False)
        _FLOAT_ROWS[system.rtype] = rows
    return rows


def _char_values(system, logs):
    """The positive-root characters h^(-alpha) at each row of the (points, n)
    log-coordinates logs, as a (points, |Phi+|) array.  Each row is its own
    matrix-vector product: one GEMM over all rows rounds differently."""
    return np.exp(np.matmul(_float_rows(system)[0], logs[..., None])[..., 0])


def _rows_per_chunk(row_bytes):
    """Rows of row_bytes each that fit the byte budget of one stacked pass,
    at least one: the budget of the kernel's coefficient stacks."""
    return max(1, _kernels._TORUS_BATCH_BYTES // row_bytes)


def default_base_point(system):
    """Deterministic generic point, the centre of the torus flatness report's
    samples.

    The log-coordinates all have positive real part, so |h^{-alpha}| > 1 for
    every positive root: the point is structurally off-mirror, and it is not
    real, so its samples are generic complex points.
    """
    n = system.rank
    logs = np.array(
        [complex(0.18 + 0.16 * j, 0.3 + 1.1 * j) for j in range(n)]
    )
    return logs


def hecke_base_point(system):
    """The base point b of every loop and form, l_j = 0.35 + 0.05 j: every
    positive-root log is real and positive there, so the point lies in the
    dominant chamber, off every mirror."""
    return 0.35 + 0.05 * np.arange(system.rank, dtype=np.complex128)


# ---------------------------------------------------------------------------
# the connection

def _k_squared(k):
    """float(k) ** 2, which the connection's scalar column carries; raises
    _kernels.NumericFailure, naming k, when it is past the float range."""
    try:
        return float(k) ** 2
    except OverflowError:
        raise _kernels.NumericFailure(f"k^2 is past the float range at k = {k}") from None


def _finite(value, what, k):
    """value, or _kernels.NumericFailure, naming what and k, when it is not
    finite (an overflowed curvature reads inf or NaN)."""
    if not math.isfinite(value):
        raise _kernels.NumericFailure(f"{what} is not finite at k = {k}")
    return value


def _connection(system, k, tchar, a):
    """The n matrices A_i of theta_i F = A_i F at each point of a stack, given
    by its rows of root character values tchar, at scalar coupling a, as one
    (points, n, n+1, n+1) array: row 0 of A_i is e_{i+1}, column 0 below it is
    -a k^2 C^-1 and the lower block is minus the coefficient vectors
    (k/2) sum_p c_pi c_pj u_p (Cc)_pl with u = (1+t)/(1-t).

    The sum is one real GEMM over the positive roots per point,
    (n^2, |Phi+|) @ (|Phi+|, 2n), with the root products c_pi c_pj as the
    left factor and the real and imaginary parts of u_p (Cc)_pl side by side
    in the right factor.  The left factor broadcasts over the points, so each
    point's block has the bits it has alone.
    """
    if np.min(np.abs(tchar - 1.0)) < 1e-12:
        raise MirrorSingularity("a positive-root character equals 1 at this point")
    croots, coroots, cinv, _ = _float_rows(system)
    npos, n = croots.shape
    u = (1.0 + tchar) / (1.0 - tchar)
    left = (croots[:, :, None] * croots[:, None, :]).reshape(npos, n * n).T
    G = left @ np.concatenate([u.real[:, :, None] * coroots,
                               u.imag[:, :, None] * coroots], axis=2)
    A = np.zeros((len(u), n, n + 1, n + 1), dtype=np.complex128)
    A[:, np.arange(n), 0, np.arange(1, n + 1)] = 1.0
    A[:, :, 1:, 0] = -(float(a) * _k_squared(k) * cinv)
    A[:, :, 1:, 1:] = -(0.5 * float(k) * (G[..., :n] + 1j * G[..., n:])).reshape(-1, n, n, n)
    return A


def flatness_residual(system, k, logs, a_override=None):
    """Curvature of the frame connection, largest over the rows of the
    (points, n) log-coordinates logs (one point is a one-row array): max over
    points and pairs i < j of || A_j A_i - A_i A_j ||_inf, which is
    theta_i A_j - theta_j A_i + A_j A_i - A_i A_j since the derivative terms
    cancel identically (_curvature).

    Vanishes exactly when the scalar coupling takes its forced value, which
    a_override replaces.  The points go to _curvature in chunks of
    _rows_per_chunk(16 n^2 (n+1)^2) rows, so each of its
    (points, n(n-1)/2, n+1, n+1) complex stacks fits the budget (one point a
    chunk from D16 on); each point's residual has the bits it has alone.
    Raises _kernels.NumericFailure, naming k, when the products overflow
    and the residual is not finite.
    """
    a = integrability_constant(system) if a_override is None else a_override
    logs = np.atleast_2d(logs)
    n = system.rank
    step = _rows_per_chunk(16 * n * n * (n + 1) ** 2)
    worst = np.max([np.max(_curvature(system, k, _char_values(system, logs[s:s + step]), a)[0])
                    for s in range(0, len(logs), step)])
    return _finite(float(worst), "the curvature", k)


def _curvature(system, k, tchar, a):
    """The curvature at each point of a stack, given by its rows of root
    character values tchar, at scalar coupling a, and the largest |entry| of
    the connection matrices it is made of, as two (points,) arrays.

    A_i's coefficient block is -(k/2) sum_p c_pi u_p c_p (Cc_p)^T, and
    theta_m u_p = c_pm w_p with w = -2t/(1-t)^2, so theta_m A_i is symmetric
    in (m, i): each term u_p dlog t_p of the connection form is closed.  So
    the curvature theta_i A_j - theta_j A_i + A_j A_i - A_i A_j is the
    commutator alone, one batched matmul for each order of the pairs i < j.
    Products past the float range read inf or NaN, without a warning."""
    A = _connection(system, k, tchar, a)
    i, j = np.triu_indices(system.rank, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        R = A[:, j] @ A[:, i] - A[:, i] @ A[:, j]
        return (np.max(np.abs(R), axis=(1, 2, 3), initial=0.0),
                np.max(np.abs(A), axis=(1, 2, 3)))


def _reflection_matrix(system, i):
    """The simple reflection s_i: e_a -> e_a (a != i), e_i -> e_i - (Cartan
    column i).  It acts on the coefficient basis and, as logs -> S @ logs, on
    log-coordinates: l_j -> l_j - C_ij l_i, which is z_j -> z_j z_i^(-C_ij)."""
    n = system.rank
    S = np.eye(n)
    S[:, i] = S[:, i] - _float_rows(system)[3][:, i]
    return S


# ---------------------------------------------------------------------------
# continuation
#
# A path is a (points, n) complex array of log-coordinates: piecewise
# log-linear through its rows.  Log-coordinates fix the winding unambiguously;
# the torus points are their exponentials.

def _clearance(system, paths):
    """Smallest |h^{-alpha} - 1| over _CLEARANCE_SAMPLES + 1 sample points of
    every segment of each path of a (..., points, n) stack: an array of the
    stack's leading shape, a float for one path."""
    croots = _float_rows(system)[0]
    pts = np.asarray(paths, dtype=np.complex128)[..., None, :, :]
    t = np.arange(_CLEARANCE_SAMPLES + 1)[:, None, None] / _CLEARANCE_SAMPLES
    lz = (1 - t) * pts[..., :-1, :] + t * pts[..., 1:, :]    # (..., sample, segment, rank)
    # A real matmul on the (re, im) pairs, not the complex lz @ croots.T: after a complex
    # matmul, np.exp ran 10-15x slower on OpenBLAS/AVX-512 (E8 ring check: 14 -> 1.3 ms).
    pairs = lz.view(np.float64).reshape(*lz.shape, 2)   # (..., sample, segment, rank, 2)
    logs = (croots @ pairs).view(np.complex128)[..., 0]   # (..., sample, segment, root)
    return np.min(np.abs(np.exp(logs) - 1.0), axis=(-3, -2, -1))


def _flatness_gate(system, k):
    """Sanity gate of a monodromy measurement: raises _kernels.NumericFailure
    unless the connection is flat at the base point b of hecke_base_point,
    where every loop starts; flatness makes the loops' monodromy homotopy
    invariant.  The bound scales with the products A_j A_i the curvature is
    a difference of; a residual or bound that overflowed is a failure too,
    since no residual exceeds an infinite bound."""
    tchar = _char_values(system, hecke_base_point(system)[None])
    res, amax = (float(v[0]) for v in _curvature(system, k, tchar, integrability_constant(system)))
    _finite(res, "the curvature at the start", k)
    if res > _finite(_FLAT_TOL * max(1.0, amax * amax), "the flatness bound", k):
        raise _kernels.NumericFailure(f"connection is not flat at the start (residual {res:.2e})")


def transport(system, k, paths):
    """The jet frames that start as the identity, each continued along one of
    the paths by integrating dF = (sum A_i dlog z_i) F, as a
    (len(paths), n+1, n+1) stack; each path is a (points, n) array of
    log-coordinates.

    Every segment of every path goes to one _kernels.torus_segment call,
    which lays out every segment's step grid, each step half the distance to
    the nearest mirror crossing, computes the steps' propagators in batches
    shared by all the paths and multiplies them in path order, each series
    summed to _kernels._TORUS_RTOL.  A path's frame from a shared call
    differs from its frame alone only at rounding level.  Nothing is sampled
    first: the kernel's grid is the one mirror guard, and it raises
    _kernels.NumericFailure, naming the segment, when a step point comes
    within _kernels._MIN_CLEARANCE of a mirror or a series or a frame breaks
    down.  That guard is not an accuracy bound: past k = 1/2 a path that
    runs close to a mirror loses digits the kernel does not report (the A2
    simple-root ring of radius 1e-3 against radius 0.1: 8.7e-12 relative at
    k = 3/4, 5.9e-7 at k = 2), and the Hecke residual does not see the loss.
    The curvature is not checked here: each monodromy measurement checks it
    once at hecke_base_point.
    """
    starts, moves = [], []
    for path in paths:
        pts = np.asarray(path, dtype=np.complex128)
        step = np.diff(pts, axis=0)
        kept = np.max(np.abs(step), axis=1) >= 1e-15
        starts.append(pts[:-1][kept])
        moves.append(step[kept])
    ends = np.cumsum([len(move) for move in moves])
    croots, coroots, _, cart = _float_rows(system)
    m = np.concatenate(moves)
    afac = float(integrability_constant(system)) * _k_squared(k)
    svec = afac * np.linalg.solve(cart, m.T).T
    return _kernels.torus_segment(np.concatenate(starts), m, ends, croots, coroots,
                                  float(k), svec)[0]


def _coordinate_circle(system, j, base):
    """Log-coordinates of the counterclockwise coordinate loop
    z_j -> e^{2 pi i t} z_j from the log-coordinates base, in three segments."""
    e = np.zeros(system.rank, dtype=np.complex128)
    e[j] = 1.0
    return np.array([base + 2j * math.pi * (s / 3.0) * e for s in range(4)])


def _quarter_turn(system, i, base):
    """Log-coordinates of the first half of the half-turn from the real point
    base to s_i base: base + (L0 e^{i pi t} - L0) C e_i / 2 for t in [0, 1/2],
    with L0 = base_i, in 6 segments (the half-turn's 12 at t = s/12).  The
    alpha_i-log runs a quarter around 0, from L0 to i L0, and every other root
    log moves by a half-integer multiple of the same increment."""
    d = _float_rows(system)[3][:, i].astype(np.complex128) / 2.0
    L0 = base[i]
    return np.array([base + (L0 * cmath.exp(1j * math.pi * s / 12) - L0) * d
                     for s in range(7)])


def _loops(system, k, halves, circles):
    """The half-turns T_i at the base point b of hecke_base_point for i in
    halves, then the coordinate loops around z_j at b for j in circles, as
    one (loops, n+1, n+1) stack from one transport call.

    T_i is the frame continued along the half-turn P from b to s_i b and
    pulled back by g_i = diag(1, S_i^T), S_i = _reflection_matrix(system, i),
    g_i^2 = 1.  At real k the connection is real, A(conj l) = conj A(l), and
    s_i-covariant through g_i, and P(1 - t) = conj(S_i P(t)): so the second
    half of P transports by g_i conj(Phi_i)^-1 g_i, where Phi_i is the frame
    along the first half, the quarter-turn of _quarter_turn, and
    T_i = conj(Phi_i)^-1 g_i Phi_i, one solve.  Only the quarter-turns are
    transported.  The coordinate circles are transported whole: the frame of
    a half circle can be ill-conditioned (cond up to 1.9e17 at D5,
    k = -21/4), and the same construction would then lose every digit of the
    circle.  Raises _kernels.NumericFailure, naming the half-turn, when
    conj(Phi_i) is singular or the norm of T_i is not finite."""
    b = hecke_base_point(system)
    frames = transport(system, k, [_quarter_turn(system, i, b) for i in halves]
                       + [_coordinate_circle(system, j, b) for j in circles])
    g = np.eye(system.rank + 1)
    for row, i in enumerate(halves):
        g[1:, 1:] = _reflection_matrix(system, i).T
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                frames[row] = np.linalg.solve(frames[row].conj(), g @ frames[row])
            except np.linalg.LinAlgError as exc:
                raise _kernels.NumericFailure(
                    f"half-turn T_{i + 1}: the quarter-turn frame is singular") from exc
            _require_finite(frames[row], f"half-turn T_{i + 1}: ")
    return frames


def _descent(system, alpha):
    """(w, j) with w(alpha_j) = alpha for the positive root alpha: alpha
    descends to the simple root alpha_j by s_i for the lowest i with
    (C beta)_i > 0, and each such i is appended to the word w.  The pairing
    C beta is taken on the integer Cartan rows."""
    beta = [int(c) for c in alpha]
    word = []
    while sum(beta) > 1:
        pairing = [sum(map(mul, row, beta)) for row in system.cartan]
        i = next(i for i, p in enumerate(pairing) if p > 0)
        beta[i] -= pairing[i]
        word.append(i)
    return word, next(i for i, c in enumerate(beta) if c)


def _require_finite(M, name=""):
    """Raise _kernels.NumericFailure, its message after name, unless the
    Frobenius norm of the loop M is finite, which hecke_residual and
    invariant_form divide by: finite frames whose products or solves overflow
    are caught here."""
    if not np.isfinite(np.linalg.norm(M)):
        raise _kernels.NumericFailure(
            f"{name}loop monodromy is not finite: the transports overflow")


def mirror_monodromy(system, k, alpha):
    """Monodromy of a small positively oriented loop around the mirror of the
    positive root alpha, in the jet frame at the base point b of
    hecke_base_point: T_alpha^2 with T_alpha = T_w T_j T_w^-1, (w, j) from
    _descent and T_w the product of the half-turns of w in word order.  Only
    the quarter-turns of the half-turns that w and j use are transported, in
    one transport call, and _loops solves each half-turn from its own.  The
    flatness gate runs at b first; T_w, T_alpha and the square must have
    finite norms."""
    _flatness_gate(system, k)
    word, j = _descent(system, alpha)
    used = sorted({*word, j})
    T = dict(zip(used, _loops(system, k, used, ())))
    Ta = T[j]
    with np.errstate(over="ignore", invalid="ignore"):
        if word:
            Tw = functools.reduce(np.matmul, [T[i] for i in word])
            _require_finite(Tw)
            try:
                Tw_inv = np.linalg.inv(Tw)
            except np.linalg.LinAlgError as exc:
                raise _kernels.NumericFailure(f"half-turn word T_w is singular: {exc}") from exc
            Ta = Tw @ Ta @ Tw_inv
            _require_finite(Ta)
        M = Ta @ Ta
        _require_finite(M)
    return M


def hecke_residual(M, k):
    """|| (M - 1)(M - q^2) || / ||M||^2 with q = exp(-2 pi i k), the
    gauss.scaled_spectrum_residual of the pair (1, q^2); the plain loop in
    the complement is the square of the orbifold generator, hence q^2."""
    return scaled_spectrum_residual(M, (1, cmath.exp(-4j * math.pi * float(k))))


def hecke_generators(system, k):
    """The 2n generators the Kronecker solve of invariant_form reads, at the
    base point b of hecke_base_point, as one (2n, n+1, n+1) stack from one
    transport call: first the n half-turns T_i of _loops, which generate the
    orbifold group and satisfy (T_i - 1)(T_i + q) = 0 with
    q = exp(-2 pi i k), then the n coordinate loops z_j -> e^{2 pi i t} z_j
    at b.  The flatness gate runs at b once.
    """
    _flatness_gate(system, k)
    return _loops(system, k, range(system.rank), range(system.rank))


# ---------------------------------------------------------------------------
# invariant Hermitian form and the negative cone

@dataclass(frozen=True)
class InvariantForm:
    matrix: np.ndarray
    residual: float
    signature: tuple
    singular_values: np.ndarray


def monodromy_form(system, k):
    """The invariant Hermitian form H_b of the monodromy at coupling k, at the
    base point b of hecke_base_point.  The flatness gate runs at b once.

    Where _reflection_range holds (0 < k < m, k != 1/h, 2k != 1), the n
    half-turns and the first coordinate loop are transported in one call and
    _reflection_form solves H from them.  Everywhere else the Kronecker
    solve, invariant_form(hecke_generators(system, k)), reads all 2n loops.
    """
    if not _reflection_range(system, k):
        return invariant_form(hecke_generators(system, k))
    _flatness_gate(system, k)
    return _reflection_form(system, _loops(system, k, range(system.rank), (0,)))


def _reflection_range(system, k):
    """Whether 0 < k < m, k != 1/h and 2k != 1, in exact Fractions: inside
    (0, m) these are the only k where G_0 = I + A/(2 cos pi k), with A the
    Dynkin adjacency, is singular or undefined.  A has the eigenvalues
    2 cos(pi m_j/h) over the exponents m_j, so G_0 is singular exactly at
    k = +-m_j/h (mod 2), and the only exponent with m_j/h < m is m_j = 1;
    2 cos pi k vanishes at k = 1/2, which lies in (0, m) only for A2."""
    k = Fraction(k)
    return (0 < k < hyperbolic_exponent(system) and k != Fraction(1, coxeter_number(system))
            and 2 * k != 1)


def _reflection_form(system, loops):
    """The invariant form from the n half-turns loops[:n] and one coordinate
    loop loops[n], solved through the structure of the Hecke reflection
    representation (Geck & Pfeiffer, Characters of Finite Coxeter Groups and
    Iwahori-Hecke Algebras, 2000).

    Each T_i - 1 = u_i w_i* has rank one: u_i is its column of largest norm,
    and w_i* its least-squares row against u_i.  An invariant H maps u_i to
    c_i w_i.  Hermitian symmetry, c_i (w_i* u_j)^- = c_j^- (w_j* u_i), fixes
    each c_j from c_i along the Dynkin edge i-j, and so every c_j from c_0
    up to one real scale; c_0 makes the Gram entry u_0* H u_0 one.  H is
    block-diagonal in the basis (u_1, ..., u_n, f), where f spans the common
    kernel of the w_i*: with V and e the rows of the inverse basis matrix,
    H = r V* G V + s e* e, G the Gram matrix of the u_i.  The two real
    scales (r, s) are the null vector of the loop's equation M* H M = H,
    divided by ||M||_F^2, in its real and imaginary parts: a least-squares
    system in two unknowns, whose null count reads _RANK_TOL as
    invariant_form does.  The residual is the largest ||M* H M - H|| over
    the n + 1 loops.
    """
    n = system.rank
    T, M = loops[:n], loops[n]
    R = T - np.eye(n + 1)
    U = R[np.arange(n), :, np.argmax(np.linalg.norm(R, axis=1), axis=1)]
    W = np.einsum("ia,iab->ib", U.conj(), R) / np.sum(np.abs(U) ** 2, axis=1)[:, None]
    X = W @ U.T    # X[i, j] = w_i* u_j
    c = np.zeros(n, dtype=np.complex128)
    c[0] = 1.0 / np.conj(X[0, 0])
    # breadth first over the Dynkin tree: the list grows as it is read
    reached = [0]
    for i in reached:
        for j in range(n):
            if system.cartan[i][j] and j not in reached:
                c[j] = np.conj(c[i]) * X[i, j] / np.conj(X[j, i])
                reached.append(j)
    G = X.conj().T * c    # G[j, i] = u_j* H u_i = c_i (w_i* u_j)^-
    f = np.linalg.svd(W)[2][-1].conj()
    inv = np.linalg.inv(np.concatenate([U, f[None]]).T)
    V, e = inv[:n], inv[n]
    parts = [V.conj().T @ ((G + G.conj().T) / 2) @ V, np.outer(e.conj(), e)]
    parts = [P / np.linalg.norm(P) for P in parts]
    L = np.stack([(M.conj().T @ P @ M - P).ravel() / np.linalg.norm(M) ** 2 for P in parts],
                 axis=1)
    _, svals, vt = np.linalg.svd(np.concatenate([L.real, L.imag]), full_matrices=False)
    _count_null_line(svals)
    H = vt[-1, 0] * parts[0] + vt[-1, 1] * parts[1]
    return _signed_form(H + H.conj().T, loops, svals)


def invariant_form(generators):
    """Least-squares solve of M* H M = H over Hermitian H for all generators,
    loops at one base point: the Kronecker solve.

    By vec(A X B) = (B^T kron A) vec(X) on column-major vec, each generator
    is one block (M^T kron M* - 1) of a complex system on vec(H), divided by
    ||M||_F^2 so that no generator outweighs the others.  One thin SVD of
    the stacked system, without the unused left factor, gives both the count
    of null vectors (singular values at most _RANK_TOL of the largest) and
    the null vector.  The system maps Hermitian matrices to Hermitian ones
    and commutes with i, so its singular values are those of the solve in
    orthonormal Hermitian coordinates, and its null line is closed under
    H -> H*: of H + H* and i(H - H*), the one of larger norm is Hermitian
    and spans it.  Raises InvariantFormError when the solution space is
    numerically zero- or multi-dimensional (the latter signals reducibility
    or a coupling outside the hyperbolic range).  H is normalised to unit
    Frobenius norm and signed so that the positive eigenvalues are the
    majority; the residual is the largest ||M* H M - H|| over the
    generators.  The SVD of the stacked system, (1296, 81) at E8, is the
    one step whose bits depend on the BLAS thread count.
    """
    gens = [np.asarray(M, dtype=np.complex128) for M in generators]
    if not gens:
        raise ValueError("need at least one generator")
    N = gens[0].shape[0]
    one = np.eye(N * N)
    L = np.concatenate([(np.kron(M.T, M.conj().T) - one) / np.linalg.norm(M) ** 2
                        for M in gens])
    _, svals, vt = np.linalg.svd(L, full_matrices=False)
    _count_null_line(svals)
    H = vt[-1].conj().reshape(N, N, order="F")
    return _signed_form(max(H + H.conj().T, 1j * (H - H.conj().T), key=np.linalg.norm),
                        gens, svals)


def _count_null_line(svals):
    """Raise InvariantFormError unless exactly one of the singular values
    svals of a form solve is at most _RANK_TOL of the largest."""
    smax = svals[0] if svals[0] > 0 else 1.0
    null_dim = int(np.sum(svals <= _RANK_TOL * smax))
    if null_dim == 0:
        raise InvariantFormError(
            f"no invariant Hermitian form (smallest singular value "
            f"{svals[-1]:.2e} vs scale {smax:.2e})", 0)
    if null_dim > 1:
        raise InvariantFormError(
            f"invariant-form space has dimension {null_dim}; "
            "the representation looks reducible", null_dim)


def _signed_form(H, generators, svals):
    """The InvariantForm of the Hermitian H solved from the generators: H at
    unit Frobenius norm, signed so that the positive eigenvalues are the
    majority, with the largest ||M* H M - H|| over the generators.  On a tie,
    as at rank one, where either sign is Lorentzian, the base evaluation
    vector (1, 0, ..., 0) pairs negatively under the inverse form, so that
    the sign does not follow the rounding of the solve."""
    H = H / np.linalg.norm(H)
    residual = max(
        float(np.linalg.norm(M.conj().T @ H @ M - H)) for M in generators
    )
    eigs = np.linalg.eigvalsh(H)
    pos = int(np.sum(eigs > _EIG_TOL))
    neg = int(np.sum(eigs < -_EIG_TOL))
    if neg > pos or (neg == pos and np.linalg.inv(H)[0, 0].real > 0):
        H = -H
        pos, neg = neg, pos
    return InvariantForm(
        matrix=H, residual=residual, signature=(pos, neg), singular_values=svals,
    )


def sample_points_near(system, base, count, seed=0):
    """count seeded log-coordinate vectors near the log-coordinates base, as
    a (count, n) array, whose straight path from the base, endpoint included,
    keeps MIRROR_DELTA from every mirror at the sample points of _clearance.
    The torus flatness report samples around default_base_point, torus form
    around hecke_base_point.

    Draws come in blocks of at most the samples still missing, no larger
    than _rows_per_chunk's budget allows, each draw one (re, im) pair of
    normal rows in stream order; one _clearance call measures a block's
    paths, and the draws that clear are kept in order.  After 100 draws per
    sample it gives up."""
    rng = np.random.default_rng(seed)
    n = system.rank
    most = _rows_per_chunk(16 * (_CLEARANCE_SAMPLES + 1) * len(system.positive_roots))
    out = []
    attempts = 0
    while len(out) < count:
        m = min(count - len(out), most, 100 * count - attempts)
        if m == 0:
            raise MirrorSingularity("could not find enough off-mirror samples")
        attempts += m
        draws = rng.standard_normal((m, 2, n))
        lz = base + _SAMPLE_SPREAD * (draws[:, 0] + 1j * draws[:, 1])
        paths = np.stack(np.broadcast_arrays(base, lz), axis=1)
        out.extend(lz[_clearance(system, paths) >= MIRROR_DELTA])
    return np.array(out)


def ball_check(system, k, form, sample_logs):
    """The ball values of the invariant form at the sample log-coordinates:
    each is negative when the sample's evaluation vector lies in the negative
    cone.

    The solver's form H lives on solution coordinates; evaluation vectors
    (value rows of the transported jet frame) transform contragrediently, so
    they pair through the inverse form.  invariant_form already fixes the sign
    of H by its signature (n, 1), so the pairings are returned as computed,
    unsigned; a base evaluation vector outside the negative cone gives
    positive values.  Paths start at hecke_base_point, where the form is
    solved, and all of them go to one transport call.
    """
    b = hecke_base_point(system)
    Hinv = np.linalg.inv(form.matrix)

    # the base evaluation vector is (1, 0, ..., 0): it pairs to Hinv[0, 0]
    if abs(Hinv[0, 0].real) < 1e-8:
        raise _kernels.NumericFailure("base evaluation vector is numerically isotropic")
    values = transport(system, k, [(b, lz) for lz in sample_logs])[:, 0, :]
    return tuple(float((v @ Hinv @ v.conj()).real) for v in values)
