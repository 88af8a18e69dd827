"""The rank-n hypergeometric system on the toric mirror-arrangement complement:
coefficient assembly, the first-order frame connection and its curvature,
multidimensional continuation along log-linear paths, mirror and coordinate
monodromy, the invariant Hermitian form, and the negative-cone (ball) check.

Coordinates are z_i = h^{-alpha_i}; the vector fields theta_i dual to the
simple roots act as -z_i d/dz_i, so characters restrict to monomials and all
structure constants are rational.  Scalar couplings are exact; continuation
runs through _kernels.torus_segment, which re-expands the jet frame in Taylor
series with steps of half the distance to the nearest mirror crossing.
Continuation that breaks down raises _kernels.NumericFailure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .roots import coxeter_number, hyperbolic_exponent, integrability_constant

__all__ = [
    "TorusPoint",
    "TorusPath",
    "SystemCoeffs",
    "Connection",
    "MirrorSingularity",
    "InvariantFormError",
    "torus_point",
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


class MirrorSingularity(ValueError):
    """A character hit 1: the requested point lies on a mirror."""


class InvariantFormError(ValueError):
    """The space of invariant Hermitian forms is not one-dimensional."""

    def __init__(self, message, dimension):
        super().__init__(message)
        self.dimension = dimension


@dataclass(frozen=True)
class TorusPoint:
    z: np.ndarray
    off_mirror: bool
    min_mirror_distance: float

    @property
    def rank(self):
        return len(self.z)


def char_value(z, alpha):
    """h^(-alpha) as a monomial in the coordinates: prod z_l^{c_l}.

    Works for any numeric coordinate type (floats, complex, Fractions), so
    exact inputs give exact values.
    """
    zs = z.z if isinstance(z, TorusPoint) else z
    out = None
    for zl, cl in zip(zs, alpha):
        cl = int(cl)
        if cl == 0:
            continue
        factor = zl**cl
        out = factor if out is None else out * factor
    if out is None:
        return type(zs[0])(1) if len(zs) else 1
    return out


def _char_values(system, zvals):
    logs = np.log(np.asarray(zvals, dtype=np.complex128))
    return np.exp(system.positive_roots.astype(np.float64) @ logs)


def torus_point(system, zvals, delta=MIRROR_DELTA):
    """Wrap coordinates with the off-mirror flag for the given root system."""
    zvals = np.asarray(zvals, dtype=np.complex128)
    if np.any(zvals == 0):
        raise ValueError("torus coordinates must be nonzero")
    dist = float(np.min(np.abs(_char_values(system, zvals) - 1.0)))
    return TorusPoint(z=zvals, off_mirror=dist > delta, min_mirror_distance=dist)


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


def assemble(system, k, point, a_override=None):
    """Coefficients of the full system at an off-mirror point."""
    k = Fraction(k)
    a = integrability_constant(system) if a_override is None else Fraction(a_override)
    zvals = point.z if isinstance(point, TorusPoint) else np.asarray(point, dtype=complex)
    tchar = _char_values(system, zvals)
    if np.min(np.abs(tchar - 1.0)) < 1e-12:
        raise MirrorSingularity("a positive-root character equals 1 at this point")
    croots = system.positive_roots.astype(np.float64)
    coroots = croots @ system.cartan.astype(np.float64)
    u = (1.0 + tchar) / (1.0 - tchar)
    cvec = 0.5 * float(k) * np.einsum("pi,pj,p,pl->ijl", croots, croots, u, coroots)
    n = system.rank
    cinv = np.linalg.inv(system.cartan.astype(np.float64))
    scalar = float(a) * float(k) ** 2 * cinv
    return SystemCoeffs(cvec=cvec, scalar=scalar, k=k, a=a)


@dataclass(frozen=True)
class Connection:
    base: TorusPoint
    matrices: tuple  # n matrices, each (n+1) x (n+1)


def _frame_stack(coeffs):
    """The n connection matrices A_i stacked as one (n, n+1, n+1) array."""
    n = coeffs.scalar.shape[0]
    A = np.zeros((n, n + 1, n + 1), dtype=np.complex128)
    A[np.arange(n), 0, np.arange(1, n + 1)] = 1.0
    A[:, 1:, 0] = -coeffs.scalar
    A[:, 1:, 1:] = -coeffs.cvec
    return A


def connection(system, k, point, a_override=None):
    """First-order form theta_i F = A_i F on the jet frame (f, theta_1 f, ...)."""
    if not isinstance(point, TorusPoint):
        point = torus_point(system, point)
    coeffs = assemble(system, k, point, a_override)
    return Connection(base=point, matrices=tuple(_frame_stack(coeffs)))


def _theta_frame_matrices(system, k, zvals):
    """Analytic theta-derivatives dA[m, i] = theta_m A_i of the connection
    matrices, as one (n, n, n+1, n+1) array.

    theta_m acts on each character factor by t -> -c_m t and on u(t) by the
    closed form u'(t) = 2/(1-t)^2.  With w = -t u'(t), the derivative of the
    coefficient block is
    dG[m, i, j, l] = (k/2) sum_p c_pm c_pi w_p c_pj (Cc)_pl,
    one GEMM over the positive roots.  It is a real one, of shape
    (n^2, |Phi+|) @ (|Phi+|, 2 n^2): the real and imaginary parts of
    w_p c_pj (Cc)_pl sit side by side in the right factor.
    """
    tchar = _char_values(system, zvals)
    croots = system.positive_roots.astype(np.float64)
    coroots = croots @ system.cartan.astype(np.float64)
    npos, n = croots.shape
    weight = 0.5 * float(k) * (-tchar * 2.0 / (1.0 - tchar) ** 2)
    left = (croots[:, :, None] * croots[:, None, :]).reshape(npos, n * n).T
    right = (croots[:, :, None] * coroots[:, None, :]).reshape(npos, n * n)
    dG = left @ np.concatenate([weight.real[:, None] * right,
                                weight.imag[:, None] * right], axis=1)
    dA = np.zeros((n, n, n + 1, n + 1), dtype=np.complex128)
    dA[:, :, 1:, 1:] = -(dG[:, :n * n] + 1j * dG[:, n * n:]).reshape(n, n, n, n)
    return dA


def _fd_theta_frame_matrices(system, k, zvals, a_override, h):
    """Central differences of the connection matrices in the log-coordinates,
    laid out as _theta_frame_matrices lays out the analytic ones."""
    logs = np.log(zvals)
    n = system.rank
    dA = np.empty((n, n, n + 1, n + 1), dtype=np.complex128)
    for m in range(n):
        lp, lm = logs.copy(), logs.copy()
        lp[m] += h
        lm[m] -= h
        Ap = _frame_stack(assemble(system, k, np.exp(lp), a_override))
        Am = _frame_stack(assemble(system, k, np.exp(lm), a_override))
        dA[m] = -(Ap - Am) / (2.0 * h)
    return dA


def flatness_residual(system, k, point, a_override=None, method="analytic", fd_step=1e-6):
    """Curvature of the frame connection: max over pairs (i, j) of
    || theta_i A_j - theta_j A_i + A_j A_i - A_i A_j ||_inf.

    Vanishes exactly when the scalar coupling takes its forced value; the
    default derivatives are analytic, method="fd" cross-checks them with
    central differences in log-coordinates.  All n^2 products A_j A_i come
    from one batched matmul, and the pairs i < j are reduced at once.
    """
    if not isinstance(point, TorusPoint):
        point = torus_point(system, point)
    A = _frame_stack(assemble(system, k, point, a_override))
    if method == "analytic":
        dA = _theta_frame_matrices(system, k, point.z)
    elif method == "fd":
        dA = _fd_theta_frame_matrices(system, k, point.z, a_override, fd_step)
    else:
        raise ValueError(f"unknown method {method!r}")
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
    zvals = point.z if isinstance(point, TorusPoint) else np.asarray(point, dtype=complex)
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
    if not isinstance(point, TorusPoint):
        point = torus_point(system, point)
    zref = reflected_point(system, point, i)
    G_here = assemble(system, k, point).cvec
    G_there = assemble(system, k, zref).cvec
    S = _reflection_matrix(system, i)
    lhs = np.einsum("pa,qb,pql->abl", S, S, G_there)
    rhs = np.einsum("lm,abm->abl", S, G_here)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# continuation

@dataclass(frozen=True)
class TorusPath:
    """Piecewise log-linear path given by log-coordinate waypoints.

    Log-coordinates fix the winding unambiguously; waypoints() recovers the
    torus points.  Every sampled point along every segment must stay at least
    `delta` away from every mirror (measured by |h^{-alpha} - 1|).
    """

    log_waypoints: tuple
    delta: float = MIRROR_DELTA

    def waypoints(self, system):
        return tuple(torus_point(system, np.exp(lz), self.delta) for lz in self.log_waypoints)


def _check_clearance(system, path, samples_per_segment=9):
    croots = system.positive_roots.astype(np.float64)
    pts = np.asarray(path.log_waypoints, dtype=np.complex128)
    t = np.arange(samples_per_segment + 1)[:, None, None] / samples_per_segment
    lz = (1 - t) * pts[:-1] + t * pts[1:]          # (sample, segment, rank)
    worst = float(np.min(np.abs(np.exp(lz @ croots.T) - 1.0))) if len(pts) > 1 else math.inf
    if worst < path.delta:
        raise MirrorSingularity(
            f"path approaches a mirror to within {worst:.3e} (< delta = {path.delta})"
        )
    return worst


def transport(system, k, path, frame=None, rtol=DEFAULT_RTOL, check_flatness=True):
    """Continue a jet frame along the path by integrating dF = (sum A_i dlog z_i) F.

    The path's clearance from the mirrors is checked by sampling first, and
    the curvature is checked once at the start of the path as a sanity gate;
    flat connections make the result homotopy invariant.  Raises
    MirrorSingularity for a path within `delta` of a mirror, and
    _kernels.NumericFailure when a segment reaches a mirror or its series
    breaks down.
    """
    n = system.rank
    if frame is None:
        frame = np.eye(n + 1, dtype=np.complex128)
    F = np.asarray(frame, dtype=np.complex128).copy()
    if F.shape != (n + 1, n + 1):
        raise ValueError(f"frame must be {(n + 1, n + 1)}, got {F.shape}")
    _check_clearance(system, path)
    if check_flatness:
        res = flatness_residual(system, k, np.exp(path.log_waypoints[0]))
        if res > 1e-6:
            raise ValueError(f"connection is not flat at the start (residual {res:.2e})")
    croots = system.positive_roots.astype(np.complex128)
    coroots = croots @ system.cartan.astype(np.complex128)
    cart = system.cartan.astype(np.float64)
    afac = float(integrability_constant(system)) * float(k) ** 2
    errsum = 0.0
    for a, b in zip(path.log_waypoints, path.log_waypoints[1:]):
        m = np.asarray(b, dtype=np.complex128) - np.asarray(a, dtype=np.complex128)
        if np.max(np.abs(m)) < 1e-15:
            continue
        svec = afac * np.linalg.solve(cart, m)
        F, es, ok = _kernels.torus_segment(
            np.asarray(a, dtype=np.complex128), m, croots, coroots, float(k),
            svec.astype(np.complex128), F, rtol,
        )
        errsum += es
        if not ok:
            raise _kernels.NumericFailure(
                f"torus continuation from {a} to {b} reaches a mirror")
    return F, errsum


def _circle_log_waypoints(radius, segments):
    """Log values of 1 + radius * e^{i phi} around the full circle."""
    return [cmath.log(1.0 + radius * cmath.exp(2j * math.pi * s / segments))
            for s in range(segments + 1)]


def _mirror_loop_points(system, alpha, base_logs, radius, segments):
    """Log waypoints of the mirror loop: base, stage, the ring, base."""
    if base_logs is None:
        base_logs = default_base_point(system)
    alpha = np.asarray(alpha, dtype=np.int64)
    d = (system.cartan.astype(np.float64) @ alpha).astype(np.complex128) / 2.0
    L0 = complex(alpha.astype(np.float64) @ base_logs)
    ring = _circle_log_waypoints(radius, segments)
    return (base_logs, *(base_logs + (s - L0) * d for s in ring), base_logs)


def mirror_loop_path(system, alpha, base_logs=None, radius=0.1, segments=24,
                     delta=MIRROR_DELTA):
    """Loop in the torus whose alpha-character runs counterclockwise around 1.

    The path moves only along the one-parameter direction dual to alpha, so
    every other character moves by half-integer multiples of the same log
    increment; clearance from all other mirrors is verified by sampling.
    """
    path = TorusPath(log_waypoints=_mirror_loop_points(system, alpha, base_logs, radius,
                                                       segments), delta=delta)
    _check_clearance(system, path)
    return path


def mirror_monodromy(system, k, alpha, base_logs=None, radius=0.1, segments=24,
                     rtol=DEFAULT_RTOL):
    """Monodromy of a small positively oriented loop around the mirror of alpha,
    in the jet frame at the base point.

    The loop is a stage out to the ring, the ring, and the stage back, so the
    stage is transported once: with S its transport and T the ring's, the
    loop is S^-1 T S.  Each transport checks the clearance of its part, and
    the way back is the stage reversed, so every sample point of the loop is
    checked once.
    """
    pts = _mirror_loop_points(system, alpha, base_logs, radius, segments)
    S, _ = transport(system, k, TorusPath(pts[:2]), rtol=rtol)
    T, _ = transport(system, k, TorusPath(pts[1:-1]), rtol=rtol, check_flatness=False)
    try:
        return np.linalg.solve(S, T @ S)
    except np.linalg.LinAlgError as exc:
        raise _kernels.NumericFailure(f"mirror-loop stage transport is singular: {exc}") from exc


def toric_monodromy(system, k, j, base_logs=None, rtol=DEFAULT_RTOL):
    """Monodromy of the counterclockwise coordinate loop z_j -> e^{2 pi i t} z_j."""
    if base_logs is None:
        base_logs = default_base_point(system)
    n = system.rank
    e = np.zeros(n, dtype=np.complex128)
    e[j] = 1.0
    pts = [base_logs + 2j * math.pi * (s / 3.0) * e for s in range(4)]
    path = TorusPath(log_waypoints=tuple(pts))
    F, _ = transport(system, k, path, rtol=rtol)
    return F


def hecke_residual(M, k):
    """|| (M - 1)(M - q^2) || / ||M||^2 with q = exp(-2 pi i k); the plain loop
    in the complement is the square of the orbifold generator, hence q^2."""
    N = M.shape[0]
    q2 = cmath.exp(-4j * math.pi * float(k))
    I = np.eye(N)
    num = np.linalg.norm((M - I) @ (M - q2 * I))
    return float(num / np.linalg.norm(M) ** 2)


def standard_generators(system, k, base_logs=None, rtol=DEFAULT_RTOL):
    """Monodromy generators used for the invariant form: one mirror loop per
    simple root, one around the highest-root mirror, and all coordinate loops."""
    if base_logs is None:
        base_logs = default_base_point(system)
    gens = []
    n = system.rank
    simples = list(np.eye(n, dtype=np.int64))
    high = system.positive_roots[-1]
    roots = simples + ([high] if not any(np.array_equal(high, s) for s in simples) else [])
    for alpha in roots:
        gens.append(mirror_monodromy(system, k, alpha, base_logs, rtol=rtol))
    for j in range(n):
        gens.append(toric_monodromy(system, k, j, base_logs, rtol=rtol))
    return gens


# ---------------------------------------------------------------------------
# invariant Hermitian form and the negative cone

@dataclass(frozen=True)
class InvariantForm:
    matrix: np.ndarray
    residual: float
    signature: tuple
    dimension: int
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


def invariant_form(generators, rank_tol=1e-6, eig_tol=1e-8):
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
    null_dim = int(np.sum(svals <= rank_tol * smax))
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
    pos = int(np.sum(eigs > eig_tol))
    neg = int(np.sum(eigs < -eig_tol))
    if neg > pos:
        H = -H
        pos, neg = neg, pos
        eigs = -eigs
    residual = max(
        float(np.linalg.norm(M.conj().T @ H @ M - H)) for M in gens
    )
    return InvariantForm(
        matrix=H, residual=residual, signature=(pos, neg),
        dimension=null_dim, singular_values=svals,
    )


def sample_points_near(system, base_logs, count, seed=0, spread=0.35):
    """Seeded off-mirror sample points as log-coordinate vectors near the base."""
    rng = np.random.default_rng(seed)
    n = system.rank
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count:
            raise MirrorSingularity("could not find enough off-mirror samples")
        d = spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lz = base_logs + d
        tchar = np.exp(system.positive_roots.astype(np.float64) @ lz)
        if np.min(np.abs(tchar - 1.0)) > MIRROR_DELTA:
            try:
                _check_clearance(system, TorusPath((base_logs, lz)))
            except MirrorSingularity:
                continue
            out.append(lz)
    return out


@dataclass(frozen=True)
class BallCheckReport:
    values: tuple
    all_negative: bool
    signature: tuple
    form_residual: float


def ball_check(system, k, sample_logs=None, count=10, seed=0, base_logs=None,
               rtol=DEFAULT_RTOL, form=None):
    """Evaluation vectors at the samples must be negative for the invariant form.

    The solver's form H lives on solution coordinates; evaluation vectors
    (value rows of the transported jet frame) transform contragrediently, so
    they pair through the inverse form.  That pairing is normalized to make
    the base evaluation vector negative.  Pass `form` when the invariant form
    of the standard generators at this base point is already known.
    """
    if base_logs is None:
        base_logs = default_base_point(system)
    if form is None:
        form = invariant_form(standard_generators(system, k, base_logs, rtol=rtol))
    Hinv = np.linalg.inv(form.matrix)

    def pairing(v):
        return float((v @ Hinv @ v.conj()).real)

    n = system.rank
    base_vec = np.zeros(n + 1, dtype=np.complex128)
    base_vec[0] = 1.0
    ref = pairing(base_vec)
    if abs(ref) < 1e-8:
        raise ValueError("base evaluation vector is numerically isotropic")
    sign = -1.0 if ref > 0 else 1.0
    if sample_logs is None:
        sample_logs = sample_points_near(system, base_logs, count, seed)
    values = []
    for lz in sample_logs:
        path = TorusPath((base_logs, lz))
        F, _ = transport(system, k, path, rtol=rtol, check_flatness=False)
        values.append(sign * pairing(F[0, :]))
    return BallCheckReport(
        values=tuple(values),
        all_negative=all(v < 0 for v in values),
        signature=form.signature,
        form_residual=form.residual,
    )
