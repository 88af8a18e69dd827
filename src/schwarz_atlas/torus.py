"""The rank-n hypergeometric system on the toric mirror-arrangement complement:
coefficient assembly, the first-order frame connection and its curvature,
multidimensional continuation along log-linear paths, mirror and coordinate
monodromy, the invariant Hermitian form, and the negative-cone (ball) check,
whose values are the unsigned pairings under the inverse form.

Coordinates are z_i = h^{-alpha_i}; the vector fields theta_i dual to the
simple roots act as -z_i d/dz_i, so characters restrict to monomials and all
structure constants are rational.  Points are plain arrays of nonzero
coordinates z or, for paths, of their logarithms; every sample path starts at
default_base_point, and every loop is a curve that _loop reaches from it by a
straight stage.  Scalar couplings are exact; continuation runs through
_kernels.torus_segment, once per path: it lays out the step grid of every
segment of the path (steps of half the distance to the nearest mirror
crossing), sums each step's propagator, the Taylor series of the frame that
starts as the identity, in batches of steps whose coefficient stacks fit a
fixed byte budget, and multiplies the propagators in path order.  Continuation
that breaks down raises _kernels.NumericFailure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .roots import integrability_constant

__all__ = [
    "SystemCoeffs",
    "MirrorSingularity",
    "InvariantFormError",
    "default_base_point",
    "char_value",
    "assemble",
    "connection",
    "flatness_residual",
    "w_invariance_residual",
    "transport",
    "mirror_monodromy",
    "toric_monodromy",
    "hecke_residual",
    "standard_generators",
    "invariant_form",
    "ball_check",
    "sample_points_near",
]

# series truncation threshold of the continuation kernel, relative to each
# step's largest term
DEFAULT_RTOL = 1e-12
MIRROR_DELTA = 0.02
_CLEARANCE_SAMPLES = 9    # sample points per path segment in _check_clearance
_RING_SEGMENTS = 24       # segments of the ring of every mirror loop
_RING_RADIUS = 0.1        # |h^{-alpha} - 1| on the ring of every mirror loop
_SAMPLE_SPREAD = 0.35     # scale of the Gaussian log-offsets of sample_points_near
_RANK_TOL = 1e-6          # invariant_form's null-space threshold, relative to svals[0]
_EIG_TOL = 1e-8           # the smallest |eigenvalue| of the form that counts in its signature


class MirrorSingularity(ValueError):
    """A character hit 1: the requested point lies on a mirror."""


class InvariantFormError(ValueError):
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
    """Float positive-root rows, coroot rows and inverse Cartan matrix of a
    root system, computed once per type."""
    rows = _FLOAT_ROWS.get(system.rtype)
    if rows is None:
        croots = system.positive_roots.astype(np.float64)
        cart = system.cartan.astype(np.float64)
        rows = (croots, croots @ cart, np.linalg.inv(cart))
        for arr in rows:
            arr.setflags(write=False)
        _FLOAT_ROWS[system.rtype] = rows
    return rows


def _char_values(system, zvals):
    zvals = np.asarray(zvals, dtype=np.complex128)
    if np.any(zvals == 0):
        raise ValueError("torus coordinates must be nonzero")
    return np.exp(_float_rows(system)[0] @ np.log(zvals))


def default_base_point(system):
    """Deterministic generic base point.

    The log-coordinates all have positive real part, so |h^{-alpha}| > 1 for
    every positive root: the point is structurally off-mirror and coordinate
    loops around it never meet a mirror.  The spacings keep every simple-root
    and highest-root mirror loop clear of all other mirrors at desk ranks.
    """
    n = system.rank
    logs = np.array(
        [complex(0.18 + 0.16 * j, 0.3 + 1.1 * j) for j in range(n)]
    )
    return logs


# ---------------------------------------------------------------------------
# coefficient assembly

@dataclass(frozen=True)
class SystemCoeffs:
    """First-order data of the n(n+1)/2 equations in the coweight basis:
    cvec[i, j] is the theta-coefficient vector of equation (i, j) and
    scalar[i, j] the constant term a k^2 (xi_i, xi_j)."""

    cvec: np.ndarray    # (n, n, n) complex, symmetric in the first two slots
    scalar: np.ndarray  # (n, n) float
    k: Fraction
    a: Fraction

    def exact_scalar(self, system, i, j):
        cinv = _inverse_cartan(system)
        return self.a * self.k**2 * cinv[i][j]


def _inverse_cartan(system):
    n = system.rank
    cart = [[Fraction(int(system.cartan[i, j])) for j in range(n)] for i in range(n)]
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


def assemble(system, k, point):
    """Coefficients of the full system at an off-mirror point."""
    return _assemble(system, k, _char_values(system, point), None)


def _assemble(system, k, tchar, a_override):
    """assemble from the point's root character values."""
    k = Fraction(k)
    a = integrability_constant(system) if a_override is None else Fraction(a_override)
    if np.min(np.abs(tchar - 1.0)) < 1e-12:
        raise MirrorSingularity("a positive-root character equals 1 at this point")
    croots, coroots, cinv = _float_rows(system)
    u = (1.0 + tchar) / (1.0 - tchar)
    cvec = 0.5 * float(k) * np.einsum("pi,pj,p,pl->ijl", croots, croots, u, coroots)
    scalar = float(a) * float(k) ** 2 * cinv
    return SystemCoeffs(cvec=cvec, scalar=scalar, k=k, a=a)


def _frame_stack(coeffs):
    """The n connection matrices A_i stacked as one (n, n+1, n+1) array."""
    n = coeffs.scalar.shape[0]
    A = np.zeros((n, n + 1, n + 1), dtype=np.complex128)
    A[np.arange(n), 0, np.arange(1, n + 1)] = 1.0
    A[:, 1:, 0] = -coeffs.scalar
    A[:, 1:, 1:] = -coeffs.cvec
    return A


def connection(system, k, point):
    """First-order form theta_i F = A_i F on the jet frame (f, theta_1 f, ...):
    the n matrices A_i stacked as one (n, n+1, n+1) array."""
    return _frame_stack(assemble(system, k, point))


def _theta_frame_matrices(system, k, tchar):
    """Analytic theta-derivatives dA[m, i] = theta_m A_i of the connection
    matrices at the point with root character values tchar, as one
    (n, n, n+1, n+1) array.

    theta_m acts on each character factor by t -> -c_m t and on u(t) by the
    closed form u'(t) = 2/(1-t)^2.  With w = -t u'(t), the derivative of the
    coefficient block is
    dG[m, i, j, l] = (k/2) sum_p c_pm c_pi w_p c_pj (Cc)_pl,
    one GEMM over the positive roots.  It is a real one, of shape
    (n^2, |Phi+|) @ (|Phi+|, 2 n^2): the real and imaginary parts of
    w_p c_pj (Cc)_pl sit side by side in the right factor.
    """
    croots, coroots, _ = _float_rows(system)
    npos, n = croots.shape
    weight = 0.5 * float(k) * (-tchar * 2.0 / (1.0 - tchar) ** 2)
    left = (croots[:, :, None] * croots[:, None, :]).reshape(npos, n * n).T
    right = (croots[:, :, None] * coroots[:, None, :]).reshape(npos, n * n)
    dG = left @ np.concatenate([weight.real[:, None] * right,
                                weight.imag[:, None] * right], axis=1)
    dA = np.zeros((n, n, n + 1, n + 1), dtype=np.complex128)
    dA[:, :, 1:, 1:] = -(dG[:, :n * n] + 1j * dG[:, n * n:]).reshape(n, n, n, n)
    return dA


def flatness_residual(system, k, point, a_override=None):
    """Curvature of the frame connection: max over pairs (i, j) of
    || theta_i A_j - theta_j A_i + A_j A_i - A_i A_j ||_inf.

    Vanishes exactly when the scalar coupling takes its forced value, which
    a_override replaces.  The derivatives are analytic, and the root
    character values are computed once for them and the matrices.
    """
    return _curvature(system, k, _char_values(system, point), a_override)


def _curvature(system, k, tchar, a_override):
    """flatness_residual at the point with root character values tchar.  All
    n^2 products A_j A_i come from one batched matmul, and the pairs i < j
    are reduced at once."""
    A = _frame_stack(_assemble(system, k, tchar, a_override))
    dA = _theta_frame_matrices(system, k, tchar)
    AA = np.matmul(A[None, :], A[:, None])    # AA[i, j] = A_j A_i
    R = (dA - dA.swapaxes(0, 1) + AA) - AA.swapaxes(0, 1)
    upper = np.triu_indices(system.rank, 1)
    return float(np.max(np.abs(R[upper]), initial=0.0))


def _reflection_matrix(system, i):
    """Simple reflection on the coweight basis: e_a -> e_a (a != i),
    e_i -> e_i - (Cartan column i)."""
    n = system.rank
    S = np.eye(n)
    S[:, i] = S[:, i] - system.cartan[:, i].astype(np.float64)
    return S


def reflected_point(system, point, i):
    """Monomial action of the simple reflection on torus coordinates:
    z'_j = z_j * z_i^(-C_ij)."""
    zvals = np.asarray(point, dtype=complex)
    out = zvals.copy()
    for j in range(system.rank):
        out[j] = zvals[j] * zvals[i] ** (-int(system.cartan[i, j]))
    return out


def w_invariance_residual(system, k, point, i):
    """Covariance of the coefficients under the simple reflection s_i.

    Compares the coefficient vector of the pair (s_i xi_a, s_i xi_b) at the
    reflected point with the s_i-transport of the pair (xi_a, xi_b) vector at
    the original point; the scalar parts agree exactly by construction.
    """
    zref = reflected_point(system, point, i)
    G_here = assemble(system, k, point).cvec
    G_there = assemble(system, k, zref).cvec
    S = _reflection_matrix(system, i)
    lhs = np.einsum("pa,qb,pql->abl", S, S, G_there)
    rhs = np.einsum("lm,abm->abl", S, G_here)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# continuation
#
# A path is a (points, n) complex array of log-coordinates: piecewise
# log-linear through its rows.  Log-coordinates fix the winding unambiguously;
# the torus points are their exponentials.

def _check_clearance(system, path):
    """Smallest |h^{-alpha} - 1| over sample points of every segment of the
    path; raises MirrorSingularity below MIRROR_DELTA."""
    croots = _float_rows(system)[0]
    pts = np.asarray(path, dtype=np.complex128)
    t = np.arange(_CLEARANCE_SAMPLES + 1)[:, None, None] / _CLEARANCE_SAMPLES
    lz = (1 - t) * pts[:-1] + t * pts[1:]          # (sample, segment, rank)
    # A real matmul on the (re, im) pairs, not the complex lz @ croots.T: after a complex
    # matmul, np.exp ran 10-15x slower on OpenBLAS/AVX-512 (E8 ring check: 14 -> 1.3 ms).
    pairs = lz.view(np.float64).reshape(*lz.shape, 2)   # (sample, segment, rank, 2)
    logs = (croots @ pairs).view(np.complex128)[..., 0]   # (sample, segment, root)
    worst = float(np.min(np.abs(np.exp(logs) - 1.0))) if len(pts) > 1 else math.inf
    if worst < MIRROR_DELTA:
        raise MirrorSingularity(
            f"path approaches a mirror to within {worst:.3e} (< delta = {MIRROR_DELTA})"
        )
    return worst


def _flatness_gate(system, k):
    """Sanity gate of a monodromy measurement: raises _kernels.NumericFailure
    unless the connection is flat at default_base_point, where every loop
    starts; flatness makes the loops' monodromy homotopy invariant."""
    tchar = np.exp(_float_rows(system)[0] @ default_base_point(system))
    res = _curvature(system, k, tchar, None)
    if res > 1e-6:
        raise _kernels.NumericFailure(f"connection is not flat at the start (residual {res:.2e})")


def transport(system, k, path):
    """The jet frame that starts as the identity, continued along the path by
    integrating dF = (sum A_i dlog z_i) F; path is a (points, n) array of
    log-coordinates.

    The path's clearance from the mirrors is checked by sampling first.  All
    segments go to one _kernels.torus_segment call, which lays out every
    segment's step grid, computes the steps' propagators in batches and
    multiplies them in path order, each series summed to DEFAULT_RTOL.
    Raises MirrorSingularity for a path within MIRROR_DELTA of a mirror, and
    _kernels.NumericFailure when a segment reaches a mirror or its series
    breaks down.  The curvature is not checked here: mirror_monodromy,
    toric_monodromy and standard_generators check it once at the base point.
    """
    pts = np.asarray(path, dtype=np.complex128)
    _check_clearance(system, pts)
    moves = np.diff(pts, axis=0)
    kept = np.max(np.abs(moves), axis=1) >= 1e-15
    if not kept.any():
        return np.eye(system.rank + 1, dtype=np.complex128)
    croots, coroots, _ = _float_rows(system)
    afac = float(integrability_constant(system)) * float(k) ** 2
    svec = afac * np.linalg.solve(system.cartan.astype(np.float64), moves[kept].T).T
    F, ok = _kernels.torus_segment(pts[:-1][kept], moves[kept], croots, coroots,
                                   float(k), svec, DEFAULT_RTOL)
    if not ok:
        raise _kernels.NumericFailure(
            f"torus continuation from {pts[0]} to {pts[-1]} reaches a mirror")
    return F


def _loop(system, k, curve):
    """Monodromy, without the flatness gate, of the loop that goes straight
    from default_base_point to curve[0], runs along curve (log-coordinates of a
    curve closed on the torus) and comes back the way it went.

    The stage out is transported once: with S its transport and T the curve's,
    the loop is S^-1 T S, or T alone when the curve starts at the base.  Each
    transport checks the clearance of its part, and the way back is the stage
    reversed, so every sample point of the loop is checked once.
    """
    base_logs = default_base_point(system)
    curve = np.asarray(curve, dtype=np.complex128)
    if np.array_equal(curve[0], base_logs):
        return transport(system, k, curve)
    S = transport(system, k, (base_logs, curve[0]))
    T = transport(system, k, curve)
    try:
        return np.linalg.solve(S, T @ S)
    except np.linalg.LinAlgError as exc:
        raise _kernels.NumericFailure(f"loop stage transport is singular: {exc}") from exc


def _mirror_ring(system, alpha):
    """Log-coordinates of the ring around the mirror of alpha: the alpha-character
    runs through 1 + _RING_RADIUS e^{i phi} around the full circle.

    The ring lies on the one-parameter line through the base point in the
    direction dual to alpha, so every other character moves by half-integer
    multiples of the same log increment.
    """
    base_logs = default_base_point(system)
    alpha = np.asarray(alpha, dtype=np.int64)
    d = (system.cartan.astype(np.float64) @ alpha).astype(np.complex128) / 2.0
    L0 = complex(alpha.astype(np.float64) @ base_logs)
    ring = [cmath.log(1.0 + _RING_RADIUS * cmath.exp(2j * math.pi * s / _RING_SEGMENTS))
            for s in range(_RING_SEGMENTS + 1)]
    return np.array([base_logs + (s - L0) * d for s in ring])


def _coordinate_circle(system, j):
    """Log-coordinates of the counterclockwise coordinate loop
    z_j -> e^{2 pi i t} z_j from default_base_point, in three segments."""
    e = np.zeros(system.rank, dtype=np.complex128)
    e[j] = 1.0
    return np.array([default_base_point(system) + 2j * math.pi * (s / 3.0) * e
                     for s in range(4)])


def mirror_monodromy(system, k, alpha):
    """Monodromy of a small positively oriented loop around the mirror of alpha,
    in the jet frame at default_base_point: the loop's alpha-character runs
    counterclockwise around 1 on a ring of radius _RING_RADIUS.  The flatness
    gate runs at the base point first."""
    _flatness_gate(system, k)
    return _loop(system, k, _mirror_ring(system, alpha))


def toric_monodromy(system, k, j):
    """Monodromy of the counterclockwise coordinate loop z_j -> e^{2 pi i t} z_j
    at default_base_point.  The flatness gate runs at the base point first."""
    _flatness_gate(system, k)
    return _loop(system, k, _coordinate_circle(system, j))


def hecke_residual(M, k):
    """|| (M - 1)(M - q^2) || / ||M||^2 with q = exp(-2 pi i k); the plain loop
    in the complement is the square of the orbifold generator, hence q^2."""
    N = M.shape[0]
    q2 = cmath.exp(-4j * math.pi * float(k))
    I = np.eye(N)
    num = np.linalg.norm((M - I) @ (M - q2 * I))
    return float(num / np.linalg.norm(M) ** 2)


def standard_generators(system, k):
    """Monodromy generators used for the invariant form: one mirror loop per
    simple root, one around the highest-root mirror, and all coordinate loops.
    Every loop starts at default_base_point, so the flatness gate runs there
    once."""
    _flatness_gate(system, k)
    n = system.rank
    simples = list(np.eye(n, dtype=np.int64))
    high = system.positive_roots[-1]
    roots = simples + ([high] if not any(np.array_equal(high, s) for s in simples) else [])
    curves = [_mirror_ring(system, alpha) for alpha in roots]
    curves += [_coordinate_circle(system, j) for j in range(n)]
    return [_loop(system, k, curve) for curve in curves]


# ---------------------------------------------------------------------------
# invariant Hermitian form and the negative cone

@dataclass(frozen=True)
class InvariantForm:
    matrix: np.ndarray
    residual: float
    signature: tuple
    singular_values: np.ndarray


def _hermitian_basis(N):
    """Real basis of the N x N Hermitian matrices as one (N^2, N, N) stack:
    the diagonal units, then per pair i < j the symmetric real unit and the
    antisymmetric imaginary one."""
    basis = np.zeros((N * N, N, N), dtype=np.complex128)
    idx = np.arange(N)
    basis[idx, idx, idx] = 1.0
    b = N
    for i in range(N):
        for j in range(i + 1, N):
            basis[b, i, j] = basis[b, j, i] = 1.0
            basis[b + 1, i, j] = 1j
            basis[b + 1, j, i] = -1j
            b += 2
    return basis


def invariant_form(generators):
    """Least-squares solve of M* H M = H over Hermitian H for all generators.

    Returns the best solution with its residual and signature; raises
    InvariantFormError when the solution space is numerically zero- or
    multi-dimensional (the latter signals reducibility or a coupling outside
    the hyperbolic range).  Each generator maps the whole basis in one batched
    matmul, and the thin SVD of the stacked system gives the singular values
    and the null vector without the unused left factor.
    """
    gens = [np.asarray(M, dtype=np.complex128) for M in generators]
    if not gens:
        raise ValueError("need at least one generator")
    N = gens[0].shape[0]
    basis = _hermitian_basis(N)
    rows = []
    for M in gens:
        block = (np.matmul(np.matmul(M.conj().T, basis), M) - basis).reshape(N * N, -1).T
        rows.append(block.real)
        rows.append(block.imag)
    L = np.concatenate(rows, axis=0)
    _, svals, vt = np.linalg.svd(L, full_matrices=False)
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
    coeff = vt[-1]
    H = sum(c * B for c, B in zip(coeff, basis))
    H = (H + H.conj().T) / 2.0
    H /= np.linalg.norm(H)
    eigs = np.linalg.eigvalsh(H)
    pos = int(np.sum(eigs > _EIG_TOL))
    neg = int(np.sum(eigs < -_EIG_TOL))
    if neg > pos:
        H = -H
        pos, neg = neg, pos
        eigs = -eigs
    residual = max(
        float(np.linalg.norm(M.conj().T @ H @ M - H)) for M in gens
    )
    return InvariantForm(
        matrix=H, residual=residual, signature=(pos, neg), singular_values=svals,
    )


def sample_points_near(system, count, seed=0):
    """Seeded log-coordinate vectors near default_base_point whose straight
    path from the base, endpoint included, keeps MIRROR_DELTA from every
    mirror."""
    base_logs = default_base_point(system)
    rng = np.random.default_rng(seed)
    n = system.rank
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count:
            raise MirrorSingularity("could not find enough off-mirror samples")
        d = _SAMPLE_SPREAD * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lz = base_logs + d
        try:
            _check_clearance(system, (base_logs, lz))
        except MirrorSingularity:
            continue
        out.append(lz)
    return out


def ball_check(system, k, form, sample_logs):
    """The ball values of the invariant form at the sample log-coordinates:
    each is negative when the sample's evaluation vector lies in the negative
    cone.

    The solver's form H lives on solution coordinates; evaluation vectors
    (value rows of the transported jet frame) transform contragrediently, so
    they pair through the inverse form.  invariant_form already fixes the sign
    of H by its signature (n, 1), so the pairings are returned as computed,
    unsigned; a base evaluation vector outside the negative cone gives
    positive values.  Paths start at default_base_point.
    """
    base_logs = default_base_point(system)
    Hinv = np.linalg.inv(form.matrix)

    # the base evaluation vector is (1, 0, ..., 0): it pairs to Hinv[0, 0]
    if abs(Hinv[0, 0].real) < 1e-8:
        raise _kernels.NumericFailure("base evaluation vector is numerically isotropic")
    values = (transport(system, k, (base_logs, lz))[0, :] for lz in sample_logs)
    return tuple(float((v @ Hinv @ v.conj()).real) for v in values)
