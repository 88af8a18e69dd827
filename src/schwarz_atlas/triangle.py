"""Reflection triangles and their tessellations: circular-arc triangles in the
plane models of spherical / Euclidean / hyperbolic geometry, breadth-first
closure under side reflections, orthogonality checks against the unit circle,
and deterministic SVG export.

A generalized circle is the row (a, Re b, Im b, c) of the real coefficients of
a|z|^2 + 2 Re(conj(b) z) + c = 0  (a, c real, b complex); a ~ 0 is a line.

Tessellations run in one linear model for all three geometries: R^3 with the
form J = diag(1, 1, s), s = +1 (unit sphere), 0 (plane in homogeneous
coordinates) or -1 (hyperboloid).  A chart point z lifts to
X = (2x, 2y, 1 - s|z|^2) / (1 + s|z|^2) and projects back as
z = (X1 + i X2) / (1 + X3), stereographically from the south pole on the
sphere.  The side through the model points p, q is the plane l.X = 0 with
l = p x q, and its reflection is I - 2 (J l) l^T / (l^T J l): orthogonal,
affine or Lorentzian (Vinberg 1971).  A tile is the group element G that maps
the base triangle onto it, and the tile across its side i is G R_i.  The
closure runs one level of word length at a time, and the tiles' chart points
and side circles are arrays over the levels swept; spherical tiles reaching
too close to the projection pole are reported in a secondary chart.  A
tile's chart points are its three vertices and its three side midpoints; the
base centre serves only the closure.  The residuals and the SVG read the
same arrays.  A single triangle is a one-tile Tessellation whose side rows
come from a scalar construction of the same rows and whose side midpoints
follow the closure's rule, in plain floats; tessellate takes only its
vertices.

The SVG draws every tile as three arcs (or segments) and fills it.  A great
circle's stereographic image is a circle or a line, so a spherical tile is
an arc triangle in any chart: the SVG lifts the residual charts' points and
side normals back to the sphere, turns them by one fixed generic rotation
and draws all tiles in the chart of the rotated sphere.  The one tile that
holds that chart's pole is the outside of its three arcs, filled with
fill-rule="evenodd" against the view box.

The levels come in shortlex word order, and a level's children are formed
and merged from that level alone, so the tiles of word length <= d are the
first tiles of any deeper closure, bit for bit.  tessellate therefore keeps
one resumable closure (_Closure) per group and tile budget for the life of
the process, bounded by _MEMO_TILES tiles in all, least recently used first
out, and serves every depth as a prefix of it: read-only views of its
arrays, and the residual rows and SVG path elements it computed once per
tile.  A Tessellation is immutable.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "Geometry",
    "Tessellation",
    "classify",
    "classify_angles",
    "triangle_from_angles",
    "tessellate",
    "export_svg",
]

_LINE_EPS = 1e-12


class Geometry(Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


def classify(k, l, m):
    """Classify the (k, l, m) triangle by its exact angle sum 1/k + 1/l + 1/m."""
    for v in (k, l, m):
        if not isinstance(v, int) or v < 2:
            raise ValueError(f"triangle orders must be integers >= 2, got {(k, l, m)}")
    return classify_angles(Fraction(1, k), Fraction(1, l), Fraction(1, m))


def classify_angles(kappa, lam, mu):
    """Same classification for angles (kappa, lam, mu) given as fractions of pi."""
    total = Fraction(kappa) + Fraction(lam) + Fraction(mu)
    if total > 1:
        return Geometry.SPHERICAL
    if total == 1:
        return Geometry.EUCLIDEAN
    return Geometry.HYPERBOLIC


# ---------------------------------------------------------------------------
# generalized circles, one row (a, Re b, Im b, c) at a time

def _circle(row):
    """One row read as (True, u, d) for the line Re(conj(u) z) = d, with the
    unit normal u = b / |b| and the offset d = -c / (2 |b|), or as
    (False, centre, radius) for a circle, with the centre -b / a and the
    radius from |b|^2 - a c; a degenerate circle raises."""
    a, br, bi, c = row
    b = complex(br, bi)
    if abs(a) <= _LINE_EPS * max(abs(b), abs(c), 1.0):
        return True, b / abs(b), -c / (2 * abs(b))
    r2 = (abs(b) ** 2 - a * c) / a**2
    if r2 <= 0:
        raise ValueError("degenerate circle (non-positive squared radius)")
    return False, -b / a, math.sqrt(r2)


def circle_intersections(c1, c2):
    """Intersection points of two generalized circles, given as rows (list of
    0, 1 or 2 points)."""
    c1, c2 = _circle(c1), _circle(c2)
    if c1[0] and c2[0]:
        _, u1, d1 = c1
        _, u2, d2 = c2
        det = u1.real * u2.imag - u1.imag * u2.real
        if abs(det) < 1e-14:
            return []
        x = (d1 * u2.imag - d2 * u1.imag) / det
        y = (u1.real * d2 - u2.real * d1) / det
        return [complex(x, y)]
    if c1[0]:
        c1, c2 = c2, c1
    if c2[0]:
        _, u, d = c2
        _, c, r = c1
        s = (u.conjugate() * c).real - d
        h2 = r * r - s * s
        if h2 < 0:
            return []
        foot = c - s * u
        t = math.sqrt(h2) * 1j * u
        return [foot + t, foot - t] if h2 > 0 else [foot]
    _, ca, ra = c1
    _, cb, rb = c2
    d = abs(cb - ca)
    if d < 1e-15:
        return []
    along = (d * d + ra * ra - rb * rb) / (2 * d)
    h2 = ra * ra - along * along
    u = (cb - ca) / d
    if h2 < 0:
        return []
    foot = ca + along * u
    if h2 == 0:
        return [foot]
    t = math.sqrt(h2) * 1j * u
    return [foot + t, foot - t]


# ---------------------------------------------------------------------------
# triangles

def _geodesic_side(va, vb, geometry):
    """Row of the side through two vertices: orthogonal to the unit circle in
    the hyperbolic model, antipodally symmetric in the spherical chart,
    straight in the Euclidean plane; diameters degenerate to lines through
    the origin.  A line is the unit normal and -2 times the offset, a circle
    a = 1, b = -centre and c = |centre|^2 - radius^2."""
    if geometry is Geometry.EUCLIDEAN or abs(va * vb.conjugate() - vb * va.conjugate()) < 1e-14:
        chord = vb - va
        u = 1j * chord / abs(chord)
        normal = u / abs(u)
        return 0.0, normal.real, normal.imag, -2.0 * (u.conjugate() * va).real
    sign = 1.0 if geometry is Geometry.HYPERBOLIC else -1.0
    # solve 2 Re(conj(c) v) = |v|^2 + sign for c
    a11, a12, r1 = 2 * va.real, 2 * va.imag, abs(va) ** 2 + sign
    a21, a22, r2 = 2 * vb.real, 2 * vb.imag, abs(vb) ** 2 + sign
    det = a11 * a22 - a12 * a21
    cx = (r1 * a22 - r2 * a12) / det
    cy = (a11 * r2 - a21 * r1) / det
    c = complex(cx, cy)
    r = math.sqrt(abs(c) ** 2 - sign)
    return 1.0, -c.real, -c.imag, abs(c) ** 2 - r**2


def _side_midpoint(va, vb, s):
    """The midpoint of the side from va to vb as tessellate takes it: the
    sum of the two vertices' lifts, put on the model of the form sign s and
    projected back.  The lifts are homogeneous, (2x, 2y, 1 - s|z|^2), so
    that an ideal vertex lifts to a null vector; the sum is then a point of
    the side between va and vb in all three models.  Plain floats."""
    x, y = 2.0 * (va.real + vb.real), 2.0 * (va.imag + vb.imag)
    h = 2.0 - s * (abs(va) ** 2 + abs(vb) ** 2)
    if s == 0:
        return complex(x, y) / (2.0 * h)
    return complex(x, y) / (math.sqrt(abs(x * x + y * y + s * h * h)) + h)


def triangle_from_angles(a0, a1, a2, geometry):
    """The one-tile Tessellation of a circular-arc triangle with the given
    interior angles, in the model of geometry (the exact classification of
    the angles).

    The first vertex sits at 0 with its first side along the positive real
    axis.  Angles are positive radians, except that in the hyperbolic case a
    zero angle produces an ideal vertex on the unit circle; with all three
    zero the vertices are the cube roots of unity.  The sides are
    _geodesic_side's scalar rows, and the side midpoints are the closure's,
    by _side_midpoint.
    """
    if a0 == a1 == a2 == 0.0:
        w = cmath.exp(2j * math.pi / 3)
        verts = (complex(1.0), w, w.conjugate())
        sides = tuple(_geodesic_side(verts[(i + 1) % 3], verts[(i + 2) % 3], geometry)
                      for i in range(3))
    else:
        # keep a nonzero angle at the origin vertex
        order = (0, 1, 2)
        if a0 == 0:
            order = (1, 2, 0) if a1 > 0 else (2, 0, 1)
        verts3 = _vertices([(a0, a1, a2)[i] for i in order], geometry)
        vb, vc = verts3[1:]
        sides3 = [
            _geodesic_side(vb, vc, geometry),
            _geodesic_side(complex(0.0), vc, geometry),
            _geodesic_side(complex(0.0), vb, geometry),
        ]
        # undo the ordering permutation
        inv = [order.index(i) for i in range(3)]
        verts = tuple(verts3[inv[i]] for i in range(3))
        sides = tuple(sides3[inv[i]] for i in range(3))
    s = _FORM_SIGN[geometry]
    z = np.array([*verts, *(_side_midpoint(verts[(i + 1) % 3], verts[(i + 2) % 3], s)
                            for i in range(3))])
    return Tessellation(geometry=geometry, words=("",), depth=0, closure_reached=True,
                        angles=(a0, a1, a2), points=np.stack([z.real, z.imag])[:, None],
                        sides=np.array(sides, float).T[:, None], secondary=np.zeros(1, bool))


def _vertices(aa, geometry):
    """The vertices 0, v1 and v2 of the triangle with the interior angles aa
    (radians, aa[0] > 0): v1 on the positive real axis, v2 at the argument
    aa[0]."""
    if geometry is Geometry.EUCLIDEAN:
        vb = complex(1.0, 0.0)
        vc = cmath.rect(math.sin(aa[1]) / math.sin(aa[2]), aa[0])
    elif geometry is Geometry.SPHERICAL:
        cos_c = (math.cos(aa[2]) + math.cos(aa[0]) * math.cos(aa[1])) / (
            math.sin(aa[0]) * math.sin(aa[1]))
        cos_b = (math.cos(aa[1]) + math.cos(aa[0]) * math.cos(aa[2])) / (
            math.sin(aa[0]) * math.sin(aa[2]))
        side_c, side_b = math.acos(cos_c), math.acos(cos_b)
        vb = complex(math.tan(side_c / 2), 0.0)
        vc = cmath.rect(math.tan(side_b / 2), aa[0])
    else:
        def _radial(cosh_val):
            if math.isinf(cosh_val):
                return 1.0
            d = math.acosh(cosh_val)
            return math.tanh(d / 2)

        def _cosh_side(x, y, z):
            sx, sy = math.sin(x), math.sin(y)
            if sx == 0.0 or sy == 0.0:
                return math.inf
            return (math.cos(x) * math.cos(y) + math.cos(z)) / (sx * sy)

        vb = complex(_radial(_cosh_side(aa[0], aa[1], aa[2])), 0.0)
        vc = cmath.rect(_radial(_cosh_side(aa[0], aa[2], aa[1])), aa[0])
    return [complex(0.0), vb, vc]


# ---------------------------------------------------------------------------
# tessellation

@dataclass(frozen=True, eq=False)
class Tessellation:
    """The tiles as arrays, one row per tile in word order.

    points[0] and points[1] hold the chart x and y of each tile's vertices
    (columns 0-2) and side midpoints (3-5).  sides holds (a, Re b, Im b, c)
    of side i, the side opposite vertex i, in column i.  secondary flags
    the spherical tiles whose points and sides are in the chart z' = 1/z.

    A Tessellation is immutable (its arrays are read-only), since tessellate
    hands one object to every caller that asks for it.  Its per-tile
    residuals and SVG path elements are computed from the arrays on first
    use; tessellate hands a prefix of a memoized closure the rows that the
    closure computed once per tile."""
    geometry: Geometry
    words: tuple
    depth: int
    closure_reached: bool
    angles: tuple              # target interior angles at v0, v1, v2 (radians)
    points: np.ndarray         # (2, tiles, 6)
    sides: np.ndarray          # (4, tiles, 3)
    secondary: np.ndarray      # (tiles,) bool

    def __post_init__(self):
        for a in (self.points, self.sides, self.secondary):
            a.flags.writeable = False

    @property
    def tile_count(self):
        return len(self.words)

    def max_angle_residual(self):
        return self._angle_rows.max().item()

    def max_orthogonality_residual(self):
        if self.geometry is not Geometry.HYPERBOLIC:
            raise ValueError("orthogonality residual is a hyperbolic-model quantity")
        return self._orthogonality_rows.max().item()

    def report(self):
        """The report's fields, a fresh dict of values computed once."""
        return dict(self._report)

    @functools.cached_property
    def _report(self):
        rep = {
            "geometry": self.geometry.value,
            "tile_count": self.tile_count,
            "depth": self.depth,
            "closure_reached": self.closure_reached,
            "max_angle_residual": self.max_angle_residual(),
        }
        if self.geometry is Geometry.HYPERBOLIC:
            rep["max_orthogonality_residual"] = self.max_orthogonality_residual()
        return rep

    @functools.cached_property
    def _angle_rows(self):
        return _angle_residuals(self.points, self.sides, self.angles)

    @functools.cached_property
    def _orthogonality_rows(self):
        return _orthogonality_residuals(self.sides).max(axis=1)

    @functools.cached_property
    def _path_heads(self):
        return _path_heads(self.geometry, self.words, self.points, self.sides, self.secondary)


_FORM_SIGN = {Geometry.SPHERICAL: 1.0, Geometry.EUCLIDEAN: 0.0, Geometry.HYPERBOLIC: -1.0}


def _lift(z, s=1.0):
    """Finite chart point to model point (the unit sphere by default)."""
    q = abs(z) ** 2
    return np.array([2 * z.real, 2 * z.imag, 1.0 - s * q]) / (1.0 + s * q)


def _on_model(X, s):
    """Rescale the columns of X (coordinates on axis -2) onto the model:
    X3 = 1 in the plane, else |<X, X>| = 1 (the unit sphere, the hyperboloid)."""
    x1, x2, x3 = X[..., 0, :], X[..., 1, :], X[..., 2, :]
    if s == 0:
        return X / x3[..., None, :]
    return X / np.sqrt(np.abs(x1**2 + x2**2 + s * x3**2))[..., None, :]


def _first_distinct(points):
    """Index of the first point of each cluster of coincident rows, in order.

    The grid is 2^-30 of the largest coordinate.  Each kept point claims the
    eight cells its half-cell neighbourhood touches, so two copies closer than
    half a cell always meet and points 1.5 cells apart never do, wherever the
    grid lines fall."""
    scaled = points / (np.abs(points).max() * 2.0**-30)
    cells = np.floor(scaled).tolist()
    lows, highs = np.floor(scaled - 0.5).tolist(), np.floor(scaled + 0.5).tolist()
    claimed, keep = set(), []
    for i, cell in enumerate(cells):
        if tuple(cell) not in claimed:
            keep.append(i)
            claimed.update(itertools.product(*zip(lows[i], highs[i])))
    return keep


def _closure(R, c0, G, Y, words, par, letter, room):
    """One level of the breadth-first closure of the group generated by the
    reflections R[i]: from the tiles G of one word length, with Y = G^-1 c0,
    their words and their longer children (par, letter), the tiles one letter
    longer, at most room of them.  Longer children are new elements, and only
    siblings can coincide.  Returns their G, Y and words (length first, then
    a < b < c) and whether room cut the level."""
    children = G[par] @ R[letter]
    keep = _first_distinct(children @ c0)
    cut, keep = len(keep) > room, keep[:room]
    par, letter = par[keep], letter[keep]
    Y = (R[letter] @ Y[par][:, :, None])[:, :, 0]
    return (children[keep], Y,
            [words[p] + "abc"[i] for p, i in zip(par.tolist(), letter.tolist())], cut)


class _Closure:
    """The breadth-first closure of the (k, l, m) group under the budget of
    max_tiles tiles, swept one level at a time as requests need it.

    It holds the tiles swept so far as one set of arrays in word order, with
    each tile's residual rows and SVG path element, each computed once;
    ends[j] counts the tiles of word length <= j.  The sweep resumes from the
    last level's G, Y, words and longer children (frontier); frontier is None
    once no tile of the last level has a longer child (closed) or the budget
    cut the sweep.  The levels one request sweeps are charted in one batch.
    The tiles of word length <= d are the same bits whichever depth the sweep
    reached: a level's children are formed and merged from that level alone,
    and every later array is computed per tile."""

    def __init__(self, geometry, k, l, m, max_tiles):
        s = _FORM_SIGN[geometry]
        self.geometry, self.max_tiles = geometry, max_tiles
        self.angles = (math.pi / k, math.pi / l, math.pi / m)
        P = np.array([_lift(v, s) for v in _vertices(self.angles, geometry)]).T   # columns p0, p1, p2
        self.ells = np.cross(P[:, [1, 2, 0]].T, P[:, [2, 0, 1]].T)    # side i: p_{i+1} x p_{i+2}
        jells = self.ells * np.array([1.0, 1.0, s])
        self.R = np.eye(3) - 2 * jells[:, :, None] * self.ells[:, None, :] \
            / (self.ells * jells).sum(axis=1)[:, None, None]
        mids = _on_model(P[:, [1, 2, 0]] + P[:, [2, 0, 1]], s)   # side i's midpoint
        self.base = np.column_stack([P, mids])                  # per tile: vertices, midpoints
        self.c0 = _on_model(P.sum(axis=1, keepdims=True), s)[:, 0]
        self.words, self.ends, self.uncharted, self.served = [], [], [], {}
        self.points, self.sides = np.empty((2, 0, 6)), np.empty((4, 0, 3))
        self.secondary, self.angle_rows = np.empty(0, bool), np.empty(0)
        self.orthogonality_rows, self.heads = np.empty(0), []
        self._take(np.eye(3)[None], self.c0[None], [""], False)

    @property
    def tile_count(self):
        return len(self.words)

    def _take(self, G, Y, words, cut):
        """Take in one swept level, the tiles G with Y = G^-1 c0 and their
        words, and set the frontier it leaves."""
        if words:
            self.words += words
            self.ends.append(len(self.words))
            self.uncharted.append(G)
        # a reflection changes the word length by one: the child G R_i is one
        # longer iff the base centre c0 lies on the tile's side of the tile's
        # mirror i, i.e. iff Y = G^-1 c0 lies on the base side of mirror i
        par, letter = np.nonzero((Y @ self.ells.T > 0) == (self.ells @ self.c0 > 0))
        self.closed = not cut and not len(par)
        self.frontier = None if cut or self.closed else (G, Y, words, par, letter)

    def _chart(self):
        """The chart arrays and per-tile rows of the tiles swept since the
        last call, in one batch, appended to the closure's."""
        start = self.points.shape[1]
        batch = Tessellation(self.geometry, tuple(self.words[start:]), 0, False, self.angles,
                             *_charts(self.geometry, np.concatenate(self.uncharted),
                                      self.base, self.ells))
        self.uncharted = []
        if self.geometry is Geometry.HYPERBOLIC:
            self.orthogonality_rows = np.concatenate(
                [self.orthogonality_rows, batch._orthogonality_rows])
        self.angle_rows = np.concatenate([self.angle_rows, batch._angle_rows])
        self.heads += batch._path_heads
        self.points = np.concatenate([self.points, batch.points], axis=1)
        self.sides = np.concatenate([self.sides, batch.sides], axis=1)
        self.secondary = np.concatenate([self.secondary, batch.secondary])
        # the prefixes served so far view the arrays just replaced
        self.served.clear()

    def serve(self, depth):
        """The Tessellation of the tiles of word length <= depth (every tile
        for None), sweeping on until the closure has that depth, closes or
        meets the budget.  Its arrays and rows are read-only views of the
        closure's, and it reads as a fresh sweep to that depth reads."""
        while self.frontier is not None and (depth is None or len(self.ends) <= depth):
            G, Y, words, par, letter = self.frontier
            room = max(self.max_tiles - self.tile_count, 0)
            self._take(*_closure(self.R, self.c0, G, Y, words, par, letter, room))
        if self.uncharted:
            self._chart()
        if depth not in self.served:
            last = len(self.ends) - 1
            reached = last if depth is None else min(last, depth)
            n = self.ends[reached]
            tess = Tessellation(
                geometry=self.geometry, words=tuple(self.words[:n]), depth=reached,
                closure_reached=self.closed and reached == last, angles=self.angles,
                points=self.points[:, :n], sides=self.sides[:, :n], secondary=self.secondary[:n])
            # the rows Tessellation would compute from these arrays, computed
            # once per tile: cached_property reads them from the instance dict
            vars(tess).update(_angle_rows=self.angle_rows[:n], _path_heads=self.heads[:n],
                              _orthogonality_rows=self.orthogonality_rows[:n])
            self.served[depth] = tess
        return self.served[depth]


def _charts(geometry, mats, base, ells):
    """Chart points (2, tiles, 6), side rows (4, tiles, 3) and secondary
    flags of the tiles with the model matrices mats, from the base
    triangle's model points base (vertices, then side midpoints) and side
    planes ells."""
    s = _FORM_SIGN[geometry]
    pts = mats @ base
    if geometry is Geometry.SPHERICAL:
        points, secondary = _sphere_chart(_on_model(pts, s))
        # the sides' normals are G l_i for orthogonal G
        return points, _great_circles(_on_model(mats @ ells.T, s), secondary), secondary
    z = (pts[:, 0] + 1j * pts[:, 1]) / (1.0 + pts[:, 2])
    points = np.stack([z.real, z.imag])
    ends = points[..., _PLUS1], points[..., _PLUS2]
    # a hyperbolic side is the circle through its two vertices and its
    # midpoint, never one orthogonal to the unit circle by construction, so
    # drift of G off O(2,1) shows in the residuals
    if geometry is Geometry.EUCLIDEAN:
        sides = _line_through(*ends)
    else:
        sides = _through(ends[0], points[..., 3:6], ends[1])
    return points, sides, np.zeros(len(mats), bool)


# tessellate keeps one _Closure per group and budget for the life of the
# process, up to _MEMO_TILES tiles in all (the default max_tiles); past that
# it drops the least recently used, and it never keeps one that grew larger
_MEMO_TILES = 20000
_memo = OrderedDict()


def tessellate(k, l, m, max_tiles=20000, max_word_length=None):
    """Breadth-first closure of the (k, l, m) triangle under side reflections.

    Reflections are enumerated in word order (length first, then a < b < c for
    the three sides), and the sweep stops at closure or at the first exhausted
    budget.  Each tile is a 3x3 matrix in the linear model of its geometry;
    the chart points and side circles of the levels a call sweeps are
    computed as arrays over those levels.  Spherical input closes up with one
    tile per element of the full reflection group.

    The closure is memoized per process, keyed by (k, l, m, max_tiles): the
    tiles of word length <= max_word_length are the first tiles of any
    deeper sweep, so every depth is served as a prefix of one resumable
    closure (_Closure), which sweeps further only when a request needs it.
    A repeated call returns the same immutable Tessellation until the
    closure sweeps further.
    """
    # classify before the lookup: it rejects an order 7.0, which hashes as 7
    geometry = classify(k, l, m)
    key = (k, l, m, max_tiles)
    closure = _memo.pop(key, None) or _Closure(geometry, k, l, m, max_tiles)
    tess = closure.serve(max_word_length)
    if closure.tile_count <= _MEMO_TILES:
        _memo[key] = closure
        held = sum(c.tile_count for c in _memo.values())
        while held > _MEMO_TILES:
            held -= _memo.popitem(last=False)[1].tile_count
    return tess


def _sphere_chart(pts):
    """Stereographic chart points (2, tiles, 6) of the model points pts
    (tiles, 3, 6), and which tiles go to the secondary chart z' = 1/z: those
    reaching too close to the primary pole.  No point meets the pole of its
    tile's chart, since a tile spans at most a quarter circle."""
    X, Y, H = pts[:, 0], pts[:, 1], pts[:, 2]
    secondary = ~np.all(1.0 + H > 0.06, axis=1)
    flip = secondary[:, None]
    Y, H = np.where(flip, -Y, Y), np.where(flip, -H, H)
    return _div_real(np.stack([X, Y]), 1.0 + H), secondary


def _great_circles(normals, secondary):
    """Chart circles (a, Re b, Im b, c) of the great circles with unit normals
    normals (tiles, 3 coordinates, 3 sides), each in its tile's chart."""
    flip = secondary[:, None]
    n1, n2, n3 = normals[:, 0], normals[:, 1], normals[:, 2]
    n2, n3 = np.where(flip, -n2, n2), np.where(flip, -n3, n3)
    scale = np.maximum(np.maximum(np.abs(n1), np.abs(n2)), np.abs(n3))
    return np.stack([-n3 / scale, *_div_real(np.stack([n1, n2]), scale), n3 / scale])


# ---------------------------------------------------------------------------
# sides, angles and residuals of many tiles at once
#
# A complex value is stacked as (re, im) on axis 0.  Every value is bitwise
# the one Python's scalar complex arithmetic gives, so that reports and SVGs
# keep their bytes: products are spelled out in real + - * / on float
# arrays, abs is np.hypot, x ** 2 is libm pow (_square), a phase is
# math.atan2 (_atan2) and a complex divided by a float is Python's Smith
# division (_div_real).  numpy's complex arithmetic, its arctan2 and x * x
# each round differently from these in some cases.  Chart points are finite,
# so Python's min and max agree with numpy's.  A lane that another branch
# answers gets the divisor 1.0, so that no division meets a zero that
# Python's branch would not.

_PLUS1, _PLUS2 = [1, 2, 0], [2, 0, 1]    # i + 1 and i + 2 (mod 3): side i runs from
                                         # vertex i + 1 to vertex i + 2


def _square(x):
    """x ** 2 as Python computes it, libm pow(x, 2.0), which differs from
    x * x in about one case in a thousand."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.pow, x.ravel().tolist(), itertools.repeat(2.0)),
                       float, x.size).reshape(x.shape)


def _atan2(y, x):
    """math.atan2, which is cmath.phase(complex(x, y)), element by element
    over arrays of one shape."""
    return np.fromiter(map(math.atan2, y.ravel().tolist(), x.ravel().tolist()),
                       float, y.size).reshape(y.shape)


def _div_real(z, f):
    """z / f as Python divides a complex by a float: Smith's algorithm with
    the divisor (f, 0), signs of zero included.  Its denominator
    f + 0 * ratio is f itself."""
    cross = z[::-1] * (0.0 / f)         # (im ratio, re ratio)
    cross[1] = -cross[1]
    return (z + cross) / f


def _times_i(z):
    """1j * z, as Python multiplies: (0 re - 1 im, 0 im + 1 re)."""
    return np.stack([0.0 * z[0] - 1.0 * z[1], 0.0 * z[1] + 1.0 * z[0]])


def _line(n, offset):
    """The rows of the lines Re(conj(u) z) = offset for the normals n scaled
    to unit length u, as _geodesic_side builds a line's row."""
    u = _div_real(n, np.hypot(n[0], n[1]))
    return np.stack(np.broadcast_arrays(0.0, *u, -2.0 * offset))


def _line_through(p1, p2):
    """The lines through two points each, as _geodesic_side builds a
    Euclidean side: normal u = i (p2 - p1) / |p2 - p1|, offset Re(conj(u) p1)."""
    chord = p2 - p1
    u = _div_real(_times_i(chord), np.hypot(chord[0], chord[1]))
    return _line(u, u[0] * p1[0] - (-u[1]) * p1[1])


def _through(p1, p2, p3):
    """(a, Re b, Im b, c) of the circle or line through three points each.

    The centre is solved relative to p1, so a small circle far from the
    origin keeps its digits, and the constant term is
    |p1|^2 + 2 Re(conj(p1) w) for the relative centre w, which stays
    accurate as the circle grows into a line."""
    w2, w3 = p2 - p1, p3 - p1
    det = 2.0 * (w2[0] * w3[1] - w2[1] * w3[0])
    n2, n3 = _square(np.hypot(w2[0], w2[1])), _square(np.hypot(w3[0], w3[1]))
    # toward = -1j * (|w2|^2 w3 - |w3|^2 w2) is det times the centre; the
    # real factors multiply as (n, 0), and -1j is (-0.0, -1.0)
    dr = (n2 * w3[0] - 0.0 * w3[1]) - (n3 * w2[0] - 0.0 * w2[1])
    di = (n2 * w3[1] + 0.0 * w3[0]) - (n3 * w2[1] + 0.0 * w2[0])
    toward = np.stack([(-0.0) * dr - (-1.0) * di, (-0.0) * di + (-1.0) * dr])
    if np.any((toward[0] == 0) & (toward[1] == 0)):
        raise ValueError("a circle needs three distinct points")
    offset = (toward[0] * p1[0] - (-toward[1]) * p1[1]) / np.hypot(toward[0], toward[1])
    straight = _line(toward, offset)
    w = _div_real(toward, np.where(det == 0, 1.0, det))
    b = -(p1 + w)
    c = _square(np.hypot(p1[0], p1[1])) + 2.0 * (p1[0] * w[0] - (-p1[1]) * w[1])
    scale = np.maximum(np.maximum(1.0, np.hypot(b[0], b[1])), np.abs(c))
    return np.where(det == 0, straight, np.stack([1.0 / scale, *_div_real(b, scale), c / scale]))


def _circle_parts(sides):
    """is_line, |b| and the centre -b / a of each side (a, Re b, Im b, c); a
    line's centre is a placeholder."""
    a, b, c = sides[0], sides[1:3], sides[3]
    babs = np.hypot(b[0], b[1])
    is_line = np.abs(a) <= _LINE_EPS * np.maximum(np.maximum(babs, np.abs(c)), 1.0)
    return is_line, babs, _div_real(-b, np.where(is_line, 1.0, a))


def _radii(sides, babs, used):
    """Radius of each side where used; a used side with a non-positive
    squared radius raises."""
    a, c = sides[0], sides[3]
    r2 = (_square(babs) - a * c) / _square(np.where(used, a, 1.0))
    if np.any(used & (r2 <= 0)):
        raise ValueError("degenerate circle (non-positive squared radius)")
    return np.sqrt(np.where(used, r2, 1.0))


def _tangents(sides, p, toward):
    """Unit tangent i n / |n| of each side (4, ...) at p (2, ...), turned to
    point toward toward, for n = b on a line and n = p - centre on a circle.
    i n is (-Im n, Re n), and plain division stands in for Python's here:
    each differs from Python's at most in the sign of a zero component, which
    no measured angle sees."""
    is_line, _, centre = _circle_parts(sides)
    n = np.where(is_line, sides[1:3], p - centre)
    u = np.stack([-n[1], n[0]]) / np.hypot(n[0], n[1])
    along = u * (toward - p)
    return np.where(along[0] + along[1] < 0, -u, u)


def _corner_angles(sides1, sides2, at, toward1, toward2):
    """The angle |phase(conj(t1) t2)| at each point of at between the tangent
    t1 of sides1 there, turned toward toward1, and t2 of sides2, turned
    toward toward2.  The tiles and gauss.vertex_angles measure with it."""
    t1, t2 = _tangents(sides1, at, toward1), _tangents(sides2, at, toward2)
    dot = t1 * t2
    return np.abs(_atan2(t1[0] * t2[1] - t1[1] * t2[0], dot[0] + dot[1]))


def _measured_angles(points, sides):
    """Interior angle at each vertex i of each tile, (tiles, 3): the corner
    angle between side i + 1 and side i + 2, each tangent turned toward its
    side's midpoint."""
    return _corner_angles(sides[..., _PLUS1], sides[..., _PLUS2], points[..., :3],
                          points[..., [3 + i for i in _PLUS1]],
                          points[..., [3 + i for i in _PLUS2]])


def _angle_residuals(points, sides, angles):
    """Per tile, the largest distance of a measured angle from the nearest
    target angle."""
    off = np.abs(_measured_angles(points, sides)[..., None] - np.asarray(angles))
    return off.min(axis=2).max(axis=1)


def _orthogonality_residuals(sides):
    """| |c|^2 - r^2 - 1 | / (|c|^2 + r^2 + 1) of each circle, so a correct
    circle rounded to doubles reads about eps at any radius; the distance
    from the origin of each line."""
    is_line, babs, centre = _circle_parts(sides)
    r2 = _square(_radii(sides, babs, ~is_line))
    c2 = _square(np.hypot(centre[0], centre[1]))
    offset = -sides[3] / (2.0 * np.where(is_line, babs, 1.0))
    return np.where(is_line, np.abs(offset), np.abs(c2 - r2 - 1.0) / (c2 + r2 + 1.0))


# ---------------------------------------------------------------------------
# SVG export

_FILL = ("#dce6f2", "#f2e3dc")
_STROKE = "#20242c"
_STROKE_WIDTH = 0.004     # relative to the larger side of the view box
_ARC_FLAGS = np.array(["0 0 ", "0 1 ", "1 0 ", "1 1 "], object)   # large-arc, sweep
_fmt = "{:.9f}".format


def _tilt(angle, azimuth):
    """The rotation of R^3 by angle about the horizontal axis at azimuth."""
    u = np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * K @ K


# the sphere is drawn in the stereographic chart of this rotation of it.  Its
# pole (the point that the drawing chart sends to infinity) must lie on no
# side: it stays at least 0.0078 (the sine of the angular distance) from every
# side of (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 2, n) for n <= 60 and the
# single triangles with angles in {1/2, 1/3, 1/4, 1/5, 1/7, 2/3, 3/4, 5/6}
_DRAW_ROTATION = _tilt(0.25, 0.15)


def _tile_paths(points, sides):
    """Path data of each tile (points (2, tiles, 6), sides (4, tiles, 3)):
    from vertex 0 along side 2 to vertex 1, side 0 to vertex 2 and side 1
    back.  A circle side is an elliptical arc, a line a straight segment.
    Every number goes through _fmt once."""
    is_line, babs, centre = _circle_parts(sides)
    arc = ~is_line
    r = _radii(sides, babs, arc)[arc]
    start, end, mid = ((points[..., cols][:, arc] - centre[:, arc])[::-1]
                       for cols in (_PLUS1, _PLUS2, slice(3, 6)))
    start = _atan2(*start)
    to_end = np.remainder(_atan2(*end) - start, 2 * math.pi)
    ccw = np.remainder(_atan2(*mid) - start, 2 * math.pi) <= to_end
    large = np.where(ccw, to_end, 2 * math.pi - to_end) > math.pi
    heads = np.full(arc.shape, "L ", object)
    heads[arc] = [f"A {radius} {radius} 0 {flags}" for radius, flags in
                  zip(map(_fmt, r.tolist()), _ARC_FLAGS[2 * large + ccw].tolist())]
    heads = heads.ravel().tolist()
    xs = list(map(_fmt, points[0, :, :3].ravel().tolist()))
    ys = list(map(_fmt, points[1, :, :3].ravel().tolist()))
    return [
        f"M {xs[k]} {ys[k]} {heads[k + 2]}{xs[k + 1]} {ys[k + 1]} "
        f"{heads[k]}{xs[k + 2]} {ys[k + 2]} {heads[k + 1]}{xs[k]} {ys[k]} Z"
        for k in range(0, arc.size, 3)
    ]


def _drawing_chart(points, sides, secondary):
    """Chart points (2, tiles, 6) and side rows (4, tiles, 3) of spherical
    tiles in the drawing chart, and which tile holds its pole.

    Each chart point is lifted back to the sphere, and each side's row
    (-n3, n1, n2, n3) gives the normal n of its great circle; the secondary
    chart's points and normals are (x, -y, -h).  Both are turned by
    _DRAW_ROTATION and projected, a normal to its row as _great_circles
    writes it.  The pole (0, 0, -1) lies in a tile when it lies on the same
    side of each side's plane as the opposite vertex."""
    x, y = points
    q = x * x + y * y
    flip = np.where(secondary, -1.0, 1.0)[:, None]
    model = np.stack([2.0 * x, 2.0 * y * flip, (1.0 - q) * flip]) / (1.0 + q)
    b1, b2, c = sides[1:]
    normals = np.stack([b1, b2 * flip, c * flip])
    model = np.tensordot(_DRAW_ROTATION, model, 1)
    normals = np.tensordot(_DRAW_ROTATION, normals, 1)
    pole = np.all(-normals[2] * (normals * model[:, :, :3]).sum(axis=0) > 0, axis=1)
    rows = _great_circles(np.moveaxis(normals, 0, 1), np.zeros(len(secondary), bool))
    return model[:2] / (1.0 + model[2]), rows, pole


# the view box (x, y, width, height) of the geometries that fix one; a
# Euclidean box is fitted to the tiles drawn
_BOX = {Geometry.HYPERBOLIC: (-1.05, -1.05, 2.1, 2.1), Geometry.SPHERICAL: (-4.2, -4.2, 8.4, 8.4)}


def _path_heads(geometry, words, points, sides, secondary):
    """Each tile's SVG path element up to its stroke: its path data, filled
    by the parity of its word length.  A spherical tessellation is drawn in
    the drawing chart (_drawing_chart), and the tile that holds its pole is
    the outside of its three arcs, drawn against the view box with
    fill-rule="evenodd"."""
    pole = np.zeros(len(words), bool)
    frame = ""
    if geometry is Geometry.SPHERICAL:
        points, sides, pole = _drawing_chart(points, sides, secondary)
        # the view box, in the coordinates of the flipped group
        x, y, w, h = _BOX[geometry]
        left, right, low, high = map(_fmt, (x, x + w, -y - h, -y))
        frame = f"M {left} {low} L {right} {low} L {right} {high} L {left} {high} Z "
    return [
        f'<path d="{frame}{d}" fill="{_FILL[len(word) % 2]}" fill-rule="evenodd" ' if inside
        else f'<path d="{d}" fill="{_FILL[len(word) % 2]}" '
        for d, word, inside in zip(_tile_paths(points, sides), words, pole.tolist())
    ]


def export_svg(tess, path):
    """Write a deterministic SVG rendering: one filled path element per tile,
    arcs via the elliptical-arc command, the unit circle for hyperbolic
    geometry.  A spherical tessellation is drawn in one chart of the rotated
    sphere (_path_heads).  The path elements are made once per tile, so the
    text of a memoized tessellation is only joined again; returns the text."""
    data = _svg_text(tess)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return data


def _svg_text(tess):
    """The SVG text that export_svg writes."""
    if not tess.tile_count:
        raise ValueError("refusing to render an empty tessellation")
    box = _BOX.get(tess.geometry)
    if box is None:
        points = tess.points
        xs, ys = points[0, :, :3].ravel().tolist(), points[1, :, :3].ravel().tolist()
        pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        # the tiles are drawn under scale(1,-1): chart y runs down the box
        box = (min(xs) - pad, -max(ys) - pad,
               (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad)
    tail = f'stroke="{_STROKE}" stroke-width="{_fmt(_STROKE_WIDTH * max(box[2], box[3]))}"/>'
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{_fmt(box[0])} {_fmt(box[1])} {_fmt(box[2])} {_fmt(box[3])}">',
        '<g transform="scale(1,-1)">',
    ]
    lines += [head + tail for head in tess._path_heads]
    if tess.geometry is Geometry.HYPERBOLIC:
        lines.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="{_STROKE}" '
            f'stroke-width="{_fmt(1.5 * _STROKE_WIDTH * box[2])}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
