"""Hot continuation kernels: transport of solution frames along paths.

Both kernels continue a frame by Taylor re-expansion at ordinary points: at
each step point the frame is expanded in a power series whose coefficients
follow a recurrence read off the equation, the step is half the distance to
the nearest singularity, so every series converges asymptotically like 2^-n,
and each one is summed until its terms fall below a tolerance times its
largest term.  This is the holonomic-function evaluation of Chudnovsky &
Chudnovsky and van der Hoeven (1999), in plain floating point.  The steps
depend only on the path and the equations are linear, so both kernels lay
out the step grid of the whole call first, then sum every step's propagator
(its series from the identity frame) in batches of steps, one numpy call per
term for the whole batch, and then apply the propagators in path order.

`gauss_segment` continues the 2x2 (value, derivative) frame of the
hypergeometric equation along many paths in one call: the three loops of a
monodromy measurement, or every boundary sample of a conformal chart.  The
coefficients of a solution in x = z - z0 follow a three-term recurrence, the
step radius is half the distance to {0, 1}, and the tolerance is machine
epsilon.  Batches hold up to _GAUSS_BATCH_STEPS steps and _GAUSS_BLOCK
terms of each.

`torus_segment` continues the rank-n torus jet frame dF/dt = B(t) F along
the log-linear segments of many paths in one call: every loop of a
monodromy or form measurement, or every sample path of a ball check.  At low
rank a batch of steps costs about as much as a part-filled one, so one call
for all the paths takes fewer batches than one call per path.  A step is
half the distance in t to the nearest mirror crossing.  Steps go in batches
whose coefficient stacks fit a fixed byte budget (_TORUS_BATCH_BYTES: about
7 steps at E8, wider at lower rank), with room for _TORUS_START_TERMS terms
at first and more, within the budget, when a series needs them.  Each term
is one numpy call for the whole batch: the Riccati recurrence of coth for
the Taylor coefficients of every root coefficient -coth(L/2), one real GEMM
for the Taylor coefficients of B, and one batched matmul for the
convolution that gives the frame's coefficients.  Each step's series stops
at its own last term, so a path's frame does not depend on the paths that
share its call beyond rounding.

Every breakdown raises NumericFailure where it is found, naming the segment.
Both kernels return (result, True): perfbench/tracer.py reads r[-1].
"""

import cmath

import numpy as np

from . import NumericFailure

# read by perfbench/run.py to label the backend; no kernel is compiled
USING_NUMBA = False


_EPS = 2.0 ** -52
# terms allowed in one step's series: a loop step takes at most about 50 at
# |alpha|, |beta| <= 1 and about 2|alpha| + 70 when |alpha| is large
_MAX_TERMS = 1000
# a step point this close to 0 or 1, or a root character's log this close to
# a mirror crossing 2 pi i l, counts as reaching the singular point
_MIN_CLEARANCE = 1e-12
# terms of each Gauss step's series held at once, a power of two
_GAUSS_BLOCK = 16
# Gauss steps summed together: the three loops take 63, and vertex_angles'
# 251 then go in two batches of about 0.4 MB
_GAUSS_BATCH_STEPS = 128


def gauss_segment(alpha, beta, gamma, paths, F0):
    """Transport the 2x2 frame F0 (row 0 values, row 1 derivatives), given at
    the first waypoint of each path, along each piecewise-linear path.

    Returns (frames, True): frames[i] is F0 continued along paths[i].
    Raises NumericFailure, naming the segment, when a step point comes within
    _MIN_CLEARANCE of 0 or 1, where the equation is singular (nothing is
    transported then), when a step's series has not fallen below _EPS times
    its largest term after _MAX_TERMS terms, or when a frame stops being
    finite.
    """
    z, h, segment, ends = _gauss_grid(paths)
    S = _GAUSS_BATCH_STEPS
    with np.errstate(over="ignore", invalid="ignore"):
        P, done = (np.concatenate(part) for part in zip(*(
            _gauss_propagators(alpha, beta, gamma, z[i:i + S], h[i:i + S])
            for i in range(0, max(len(z), 1), S))))
    # an overflowed series never converges: report it as overflow below
    unconverged = set(np.flatnonzero(~done & np.isfinite(P).all(axis=1)).tolist())
    rows = P.tolist()
    (a0, a1), (b0, b1) = np.asarray(F0, dtype=np.complex128).tolist()
    frames = np.empty((len(ends), 2, 2), dtype=np.complex128)
    first = 0
    for k, last in enumerate(ends):
        f0, f1, g0, g1 = a0, a1, b0, b1
        for i in range(first, last):
            za, zb = segment[i]
            if i in unconverged:
                raise NumericFailure(f"segment {za} -> {zb}: series at z = {z[i]} did not "
                                     f"converge within {_MAX_TERMS} terms")
            p00, p01, p10, p11 = rows[i]
            f0, f1, g0, g1 = (p00 * f0 + p01 * g0, p00 * f1 + p01 * g1,
                              p10 * f0 + p11 * g0, p10 * f1 + p11 * g1)
            if not all(map(cmath.isfinite, (f0, f1, g0, g1))):
                raise NumericFailure(
                    f"segment {za} -> {zb}: frame is not finite at z = {z[i] + h[i]}")
        frames[k] = ((f0, f1), (g0, g1))
        first = last
    return frames, True


def _gauss_grid(paths):
    """Steps along every segment of every path, each half the distance to
    {0, 1} or the rest of the segment: each step's point, length and segment
    (za, zb), and where each path's steps end.  Raises NumericFailure when a
    step point comes within _MIN_CLEARANCE of 0 or 1."""
    zs, hs, segment, ends = [], [], [], []
    for path in paths:
        for za, zb in zip(path, path[1:]):
            seg = za, zb = complex(za), complex(zb)
            z = za
            while z != zb:
                dist = min(abs(z), abs(z - 1.0))
                if dist <= _MIN_CLEARANCE:
                    raise NumericFailure(f"segment {za} -> {zb}: reaches the singular point "
                                         f"{round(z.real):d} at z = {z}")
                rest = zb - z
                if abs(rest) <= 0.5 * dist:
                    h, znext = rest, zb
                else:
                    h = rest * (0.5 * dist / abs(rest))
                    znext = z + h
                zs.append(z)
                hs.append(h)
                segment.append(seg)
                z = znext
        ends.append(len(zs))
    return np.array(zs, dtype=np.complex128), np.array(hs, dtype=np.complex128), segment, ends


def _gauss_propagators(alpha, beta, gamma, z, h):
    """Propagators of the steps at the points z with lengths h: each step's
    series of the frame that starts as the identity, for all steps at once.

    z(1-z) f'' + (gamma - s z) f' + c f = 0 expanded at a step point has the
    coefficients a0 + a1 x - x^2 and b0 - s x, so the scaled terms
    d_n = c_n h^n obey d_{n+2} = -(p_n d_{n+1} + q_n d_n); the two columns
    start from (d_0, d_1) = (1, 0) and (0, 1).  Each term is one numpy
    expression over both columns of every step.  Terms are held
    _GAUSS_BLOCK at a time and each block is added into the sums of d_n and
    n d_n up to the step's own last term: the second in a row with
    n |d_n| <= _EPS times its largest term so far.  Later terms are zero and
    a block is summed in one order for every step, so a step's propagator
    does not depend on the other steps.

    Returns the propagators as rows (p00, p01, p10, p11) and whether each
    step's series stopped.
    """
    w = len(z)
    B = _GAUSS_BLOCK
    s = alpha + beta + 1.0
    c = -alpha * beta
    # with m = n + 2, -p_n = pa + pd/m and -q_n = qc_n v.  A float n keeps
    # the kernel to float and complex loops: each numpy loop a process first
    # uses maps more of numpy's code into its resident memory
    n = np.arange(_MAX_TERMS + B, dtype=np.float64)
    m = n + 2.0
    inv_m = (1.0 / m)[:, None]
    qc = (-(c - n * (n - 1.0) - s * n) / (m * (n + 1.0)))[:, None]
    m = m[:, None]
    # the two columns side by side: entries i and w + i belong to step i
    zz, hh = np.tile(z, 2), np.tile(h, 2)
    u = hh / (zz * (1.0 - zz))
    pa = (2.0 * zz - 1.0) * u
    pd = (s * zz - gamma) * u - 2.0 * pa
    v = hh * u
    # T[0] and T[1] carry the last two terms of the block before
    T = np.zeros((B + 2, 2 * w), dtype=np.complex128)
    T[0, :w] = T[1, w:] = 1.0
    rows = list(T)
    terms = T[2:]
    P = np.empty((B, 2 * w), dtype=np.complex128)
    Q = np.empty_like(P)
    p, q = list(P), list(Q)
    tmp = np.empty(2 * w, dtype=np.complex128)
    val = T[0] + T[1]
    der = T[1].copy()
    big = np.ones(w)
    # small[0] carries whether each step's last term so far was small
    small = np.zeros((B + 1, w), dtype=bool)
    drop = np.empty((B, w), dtype=bool)
    done = np.zeros(w, dtype=bool)
    first = 0
    while first < _MAX_TERMS and (~done).any():
        nb = min(B, _MAX_TERMS - first)
        block = slice(first, first + B)
        np.multiply(inv_m[block], pd, out=P)
        P += pa
        np.multiply(qc[block], v, out=Q)
        for j in range(nb):
            np.multiply(p[j], rows[j + 1], out=rows[j + 2])
            np.multiply(q[j], rows[j], out=tmp)
            np.add(rows[j + 2], tmp, out=rows[j + 2])
        size = np.abs(terms[:nb])
        size = np.maximum(size[:, :w], size[:, w:])
        run = np.maximum.accumulate(size, axis=0)
        np.maximum(run, big, out=run)
        # _EPS is a power of two: this is m |d| <= _EPS times the largest
        small[1:nb + 1] = m[first:first + nb] / _EPS * size <= run
        stop = np.logical_or.accumulate(small[1:nb + 1] & small[:nb], axis=0)
        # summed: a step's terms up to its last, none once it is done, none
        # past nb
        drop[:] = True
        drop[0] = done
        np.logical_or(stop[:-1], done, out=drop[1:nb])
        np.copyto(terms, 0.0, where=np.concatenate((drop, drop), axis=1))
        val += _pairwise_rows(terms)
        der += _pairwise_rows(np.multiply(m[block], terms, out=P))
        # run grows down the rows, so this is its value at each step's last term
        np.maximum(big, np.where(drop[:nb], 0.0, run).max(axis=0), out=big)
        done |= stop[-1]
        small[0] = small[nb]
        T[:2] = T[nb:nb + 2]
        first += nb
    vx, vy, dx, dy = val[:w], val[w:], der[:w], der[w:]
    return np.stack((vx, h * vy, dx / h, dy), axis=1), done


def _pairwise_rows(a):
    """Sum of the rows of a, a power of two of them, as a tree of row
    additions: the same order for every column, whatever their number."""
    while len(a) > 1:
        a = a[:len(a) // 2] + a[len(a) // 2:]
    return a[0]


# a torus step's series is summed until its terms fall below this times its
# largest term (or _EPS, if that is larger)
_TORUS_RTOL = 1e-12
# terms allowed in one torus step's series: a step at half the distance to the
# nearest mirror crossing converges like 2^-n, and takes at most about 40 terms
# at _TORUS_RTOL from A2 to E8
_TORUS_MAX_TERMS = 400
# terms a batch's coefficient stacks make room for at first; a batch that needs
# more starts again with twice the room and correspondingly fewer steps
_TORUS_START_TERMS = 48
# bytes of one batch's coefficient stacks and of the root matrices K0 they are
# multiplied by: the stacks of a single E8 step with room for _TORUS_MAX_TERMS
# terms (401 blocks of 120 root coefficients and two 9x9 matrices), so about 7
# steps per batch at E8 and more at lower rank.  K0 grows with the roots that
# move on some path of a call, so it is counted against the budget
_TORUS_BATCH_BYTES = 401 * (120 + 2 * 81) * 16


def torus_segment(lz0, m, ends, croots, coroots, k, svec):
    """Transport the (n+1)x(n+1) jet frame that starts as the identity along
    each of a stack of paths, every path a run of consecutive log-linear
    torus segments.

    Segment s runs through the log-coordinates lz0[s] + t m[s], t in [0, 1];
    lz0, m and the constant scalar columns svec are (segments, n) stacks, the
    segments of every path in path order, and path p is the segments before
    ends[p] that its predecessor has not taken, as in gauss_segment.  All the
    paths' steps share one grid and go through the same batches.  croots and
    coroots are the real positive-root and coroot coordinate rows.  Returns
    (frames, True): frames[p] is the frame continued along path p, the
    identity for a path without segments.  Raises NumericFailure, naming the
    segment, when a step point comes within _MIN_CLEARANCE of a mirror, where
    the system is singular (nothing is transported then), when a step's
    series has not fallen below max(_TORUS_RTOL, _EPS) times its largest term
    after _TORUS_MAX_TERMS terms, or when a frame stops being finite.
    """
    seg, ts, hs, moving = _torus_grid(lz0, m, croots)
    # dF/dt = B(t) F: row 0 of B is [0, -m], column 0 is [0; svec], and the
    # lower block is sum_p b_p u_p(t) K0_p with L_p(t) = a_p + b_p t the log of
    # the root character, the root coefficient u = (1 + e^L)/(1 - e^L) =
    # -coth(L/2) and K0_p = (k/2) croots_p^T coroots_p.  A root whose character
    # stays put on every segment (b_p = 0) adds nothing, so the series leave
    # it out.
    croots, coroots = croots[moving], coroots[moving]
    n1 = croots.shape[1] + 1
    nr = croots.shape[0]
    J = _TORUS_MAX_TERMS
    tol = max(_TORUS_RTOL, _EPS)
    K0 = (0.5 * k) * (croots[:, :, None] * coroots[:, None, :]).reshape(nr, (n1 - 1) ** 2)
    one = np.eye(n1, dtype=np.complex128)
    frames = np.empty((len(ends), n1, n1), dtype=np.complex128)
    # the steps of path p are those before stops[p]
    stops = np.searchsorted(seg, ends).tolist()
    p = 0
    F = one

    def require_finite(i):
        if not np.isfinite(F).all():
            raise NumericFailure(
                f"torus segment from {lz0[seg[i]].tolist()} along {m[seg[i]].tolist()}: "
                f"frame is not finite at t = {ts[i] + hs[i]}")

    cap = min(_TORUS_START_TERMS, J) + 1
    first = 0
    # an overflowing series or frame is caught by the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        while first < len(ts):
            width = max(1, (_TORUS_BATCH_BYTES - K0.nbytes) // (16 * cap * (nr + 2 * n1 * n1)))
            s = seg[first:first + width]
            t, h = ts[first:first + width], hs[first:first + width]
            b = m[s] @ croots.T
            P, done = _torus_propagators(lz0[s] @ croots.T + b * t[:, None], b, m[s], svec[s],
                                         h, K0, cap, tol)
            if not done.all():
                if cap <= J:
                    cap = min(2 * (cap - 1), J) + 1
                    continue
                # an overflowed series never converges: report it as overflow below
                if np.isfinite(P).all():
                    i = first + int(np.argmin(done))
                    raise NumericFailure(
                        f"torus segment from {lz0[seg[i]].tolist()} along {m[seg[i]].tolist()}: "
                        f"series at t = {ts[i]} did not converge within {J} terms")
            for i, D in enumerate(P, first):
                while stops[p] == i:
                    require_finite(i - 1)
                    frames[p] = F
                    F = one
                    p += 1
                F = F + D @ F
            first += len(t)
            require_finite(first - 1)
    frames[p:] = one
    if p < len(frames):
        frames[p] = F
    return frames, True


def _torus_propagators(L, b, m, svec, h, K0, cap, tol):
    """Propagators of a batch of steps: each step's series of the frame that
    starts as the identity, with the root characters' logs L and their rates
    b at the step points, the segments' m and svec, and the step lengths h.

    Every term is computed for the whole batch at once, from stacks with room
    for cap - 1 terms.  Returns each step's propagator minus the identity and
    whether each step's series has fallen below tol times its largest term
    for two terms in a row.  A step's sum stops at its own last term, so its
    propagator does not depend on the other steps of the batch.  The identity
    is left out so that the frame F is carried as F + D F: F itself then
    takes no rounding from the product, as it takes none when a step's series
    starts from the frame.
    """
    w, nr = L.shape
    n = m.shape[1]
    n1 = n + 1
    # with v = b u and s = (t' - t)/h the Riccati equation of the root
    # coefficients reads dv/ds = (h/2)(v^2 - b^2).  The stacks hold v_j per
    # root, the Taylor coefficients B_j of B side by side, and the frame
    # coefficients F_j in reverse order (F_j in block cap - 1 - j), so that
    # sum_i B_i F_{j-i} is one batched matmul
    tchar = np.exp(L)
    V = np.empty((cap, w, nr), dtype=np.complex128)
    V[0] = b * (1.0 + tchar) / (1.0 - tchar)
    # h/(j + 1) for every term j, shaped for v and for the frame terms
    step = h / np.arange(1, cap)[:, None]
    Bh = np.zeros((w, n1, cap * n1), dtype=np.complex128)
    Bv = Bh.reshape(w, n1, cap, n1)
    Bv[:, 0, 0, 1:] = -m
    Bv[:, 1:, 0, 0] = svec
    Fr = np.empty((w, cap * n1, n1), dtype=np.complex128)
    Fv = Fr.reshape(w, cap, n1, n1)
    Fv[:, cap - 1] = np.eye(n1)
    big = np.ones(w)
    small = done = np.zeros(w, dtype=bool)
    # row j: whether each step's series is done by term j
    history = np.empty((cap - 1, w), dtype=bool)
    for j in range(cap - 1):
        # the lower block of B_j as one real GEMM for the whole batch
        g = np.concatenate((V[j].real, V[j].imag)) @ K0
        Bv.real[:, 1:, j, 1:] = g[:w].reshape(w, n, n)
        Bv.imag[:, 1:, j, 1:] = g[w:].reshape(w, n, n)
        # v_{j+1} = h/(j + 1) (sum_{i < j - i} v_i v_{j-i} + v_{j/2}^2/2 - b^2/2 at j = 0)
        half = (j + 1) // 2
        vv = np.einsum("iwp,iwp->wp", V[:half], V[j:j - half:-1])
        if j % 2 == 0:
            vv += 0.5 * (V[j // 2] ** 2 - b * b if j == 0 else V[j // 2] ** 2)
        np.multiply(vv, step[j, :, None], out=V[j + 1])
        term = np.matmul(Bh[:, :, :(j + 1) * n1], Fr[:, (cap - 1 - j) * n1:])
        term *= step[j, :, None, None]
        Fv[:, cap - 2 - j] = term
        size = np.abs(term).max(axis=(1, 2))
        np.maximum(big, size, out=big)
        now = size <= tol * big
        done = np.logical_or(done, now & small, out=history[j])
        small = now
        if done.all():
            break
    # position p of terms holds term j - p
    terms = Fv[:, cap - 2 - j:cap - 1]
    if j and history[j - 1].any():
        # a step's series ends at its own last term, the first by which it is
        # done (all of them for a step that is not): the terms the batch
        # computed past it are zeroed, so a step's propagator does not depend
        # on the other steps of its batch
        last = np.where(done, history[:j + 1].argmax(axis=0), j)
        head = terms[:, :j - last.min()]
        head[np.arange(j, last.min(), -1) > last[:, None]] = 0.0
    return terms.sum(axis=1), done


def _torus_grid(lz0, m, croots):
    """Steps of every segment, each half the distance in t to the nearest
    mirror crossing L_p = 2 pi i l, or the rest of the segment.  Returns each
    step's segment, start and length, and which roots move on some segment.
    Raises NumericFailure when a step point comes within _MIN_CLEARANCE of a
    crossing."""
    seg, ts, hs = [], [], []
    any_moving = np.zeros(len(croots), dtype=bool)
    for s in range(len(m)):
        # L_p(t) = a_p + b_p t is the log of the root character along the segment
        a_s = croots @ lz0[s]
        b_s = croots @ m[s]
        moving = b_s != 0
        any_moving |= moving
        rate = np.abs(b_s[moving])
        t = 0.0
        while t < 1.0:
            L = a_s + b_s * t
            gap = np.abs(L - 2j * np.pi * np.round(L.imag / (2.0 * np.pi)))
            if gap.min() <= _MIN_CLEARANCE:
                raise NumericFailure(f"torus segment from {lz0[s].tolist()} along "
                                     f"{m[s].tolist()}: reaches a mirror at t = {t}")
            h = min(0.5 * np.min(gap[moving] / rate, initial=np.inf), 1.0 - t)
            seg.append(s)
            ts.append(t)
            hs.append(h)
            t = 1.0 if h == 1.0 - t else t + h
    return np.array(seg, dtype=np.intp), np.array(ts), np.array(hs), any_moving
