"""Reflection triangles and their tessellations: circular-arc triangles in the
plane models of spherical / Euclidean / hyperbolic geometry, breadth-first
closure under side reflections, orthogonality checks against the unit circle,
and deterministic SVG export.

A generalized circle is stored by the real coefficients of
A|z|^2 + 2 Re(conj(B) z) + C = 0  (A, C real, B complex); A ~ 0 is a line.

Tessellations run in one linear model for all three geometries: R^3 with the
form J = diag(1, 1, s), s = +1 (unit sphere), 0 (plane in homogeneous
coordinates) or -1 (hyperboloid).  A chart point z lifts to
X = (2x, 2y, 1 - s|z|^2) / (1 + s|z|^2) and projects back as
z = (X1 + i X2) / (1 + X3), stereographically from the south pole on the
sphere.  The side through the model points p, q is the plane l.X = 0 with
l = p x q, and its reflection is I - 2 (J l) l^T / (l^T J l): orthogonal,
affine or Lorentzian (Vinberg 1971).  A tile is the group element G that maps
the base triangle onto it, and the tile across its side i is G R_i.  The
tiles' chart points and side circles are computed at the end, as arrays over
all tiles; spherical tiles reaching too close to the projection pole are
reported in a secondary chart.  The residuals and the SVG read the same
arrays, and ArcTriangle objects are built only on request.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "Geometry",
    "GeneralizedCircle",
    "ArcTriangle",
    "Tessellation",
    "classify",
    "classify_angles",
    "build_triangle",
    "triangle_from_angles",
    "reflect_point",
    "reflect_circle",
    "tessellate",
    "orthogonal_circle",
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
# generalized circles

@dataclass(frozen=True)
class GeneralizedCircle:
    a: float
    b: complex
    c: float

    @classmethod
    def from_center_radius(cls, center, radius):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        center = complex(center)
        return cls(1.0, -center, abs(center) ** 2 - radius**2)

    @classmethod
    def from_line(cls, normal, offset):
        """Line {z : Re(conj(u) z) = offset} with u the unit normal."""
        normal = complex(normal)
        mod = abs(normal)
        if mod == 0:
            raise ValueError("line normal must be nonzero")
        return cls(0.0, normal / mod, -2.0 * float(offset))

    @classmethod
    def through(cls, z1, z2, z3):
        """Circle or line through three points.

        The centre is solved relative to z1, so a small circle far from the
        origin keeps its digits, and the constant term is
        |z1|^2 + 2 Re(conj(z1) w) for the relative centre w, which stays
        accurate as the circle grows into a line."""
        z = np.array([z1, z2, z3], complex)
        a, br, bi, c = _through(*np.stack([z.real, z.imag], axis=1)).tolist()
        return cls(a, complex(br, bi), c)

    @cached_property
    def is_line(self):
        return abs(self.a) <= _LINE_EPS * max(abs(self.b), abs(self.c), 1.0)

    @cached_property
    def center(self):
        if self.is_line:
            raise ValueError("a line has no center")
        return -self.b / self.a

    @cached_property
    def radius(self):
        if self.is_line:
            raise ValueError("a line has no radius")
        r2 = (abs(self.b) ** 2 - self.a * self.c) / self.a**2
        if r2 <= 0:
            raise ValueError("degenerate circle (non-positive squared radius)")
        return math.sqrt(r2)

    @property
    def line_normal(self):
        return self.b / abs(self.b)

    @property
    def line_offset(self):
        return -self.c / (2 * abs(self.b))

    def eval(self, z):
        """Sign of this is the side of the circle z lies on; zero on the circle."""
        return self.a * abs(z) ** 2 + 2 * (self.b.conjugate() * z).real + self.c

    def unit_circle_orthogonality_residual(self):
        """| |c|^2 - r^2 - 1 | / (|c|^2 + r^2 + 1) for circles, so a correct
        circle rounded to doubles reads about eps at any radius; distance from
        the origin for lines."""
        sides = np.array([self.a, self.b.real, self.b.imag, self.c], float)
        return _orthogonality_residuals(sides).item()


def reflect_point(p, circ):
    """Inversion in a circle / mirror reflection in a line; an involution."""
    if circ.is_line:
        u, d = circ.line_normal, circ.line_offset
        return p - 2 * ((u.conjugate() * p).real - d) * u
    c = circ.center
    w = p - c
    if w == 0:
        raise ValueError("cannot invert the center of the circle")
    return c + circ.radius**2 / w.conjugate()


def _spread_points(circ):
    if circ.is_line:
        u, d = circ.line_normal, circ.line_offset
        base = d * u
        t = 1j * u
        return (base - t, base, base + t)
    c, r = circ.center, circ.radius
    return tuple(c + r * cmath.exp(1j * th) for th in (0.5, 2.6, 4.7))


def reflect_circle(circ, mirror):
    """Image of a generalized circle under reflection in another one.

    Uses three sample points and an exact three-point reconstruction, which
    covers every circle/line case uniformly; sample points are displaced when
    one coincides with the inversion center.
    """
    pts = list(_spread_points(circ))
    if not mirror.is_line:
        c0 = mirror.center
        for i, p in enumerate(pts):
            if abs(p - c0) < 1e-13:
                if circ.is_line:
                    pts[i] = p + 0.37j * circ.line_normal * 0.5
                else:
                    pts[i] = circ.center + circ.radius * cmath.exp(1j * (0.5 + 0.9 * (i + 1)))
    images = [reflect_point(p, mirror) for p in pts]
    return GeneralizedCircle.through(*images)


def circle_intersections(c1, c2):
    """Intersection points of two generalized circles (list of 0, 1 or 2 points)."""
    if c1.is_line and c2.is_line:
        u1, d1 = c1.line_normal, c1.line_offset
        u2, d2 = c2.line_normal, c2.line_offset
        det = u1.real * u2.imag - u1.imag * u2.real
        if abs(det) < 1e-14:
            return []
        x = (d1 * u2.imag - d2 * u1.imag) / det
        y = (u1.real * d2 - u2.real * d1) / det
        return [complex(x, y)]
    if c1.is_line:
        c1, c2 = c2, c1
    if c2.is_line:
        u, d = c2.line_normal, c2.line_offset
        c, r = c1.center, c1.radius
        s = (u.conjugate() * c).real - d
        h2 = r * r - s * s
        if h2 < 0:
            return []
        foot = c - s * u
        t = math.sqrt(h2) * 1j * u
        return [foot + t, foot - t] if h2 > 0 else [foot]
    ca, ra = c1.center, c1.radius
    cb, rb = c2.center, c2.radius
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

@dataclass(frozen=True)
class ArcTriangle:
    vertices: tuple            # (v0, v1, v2) complex
    sides: tuple               # (s0, s1, s2); side i joins the two vertices != i
    angles: tuple              # target interior angles at v0, v1, v2 (radians)
    side_midpoints: tuple      # a point on each arc, used for orientation and SVG
    interior_point: complex
    chart: str = "primary"     # spherical tiles far from the origin use "secondary"

    def measured_angles(self):
        return tuple(_measured_angles(*_tile_arrays(self))[0].tolist())

    def max_angle_residual(self):
        return _angle_residuals(*_tile_arrays(self), self.angles)[0].item()

    def incidence_residual(self):
        worst = 0.0
        for i in range(3):
            for j in range(3):
                if j == i:
                    continue
                worst = max(worst, abs(self.sides[j].eval(self.vertices[i])))
        return worst

    def contains(self, p, margin=0.0):
        for s in self.sides:
            ref = s.eval(self.interior_point)
            val = s.eval(p)
            if val * (1 if ref > 0 else -1) < margin:
                return False
        return True


def _geodesic_side(va, vb, geometry):
    """Side circle through two vertices: orthogonal to the unit circle in the
    hyperbolic model, antipodally symmetric in the spherical chart, straight in
    the Euclidean plane; diameters degenerate to lines through the origin."""
    if geometry is Geometry.EUCLIDEAN or abs(va * vb.conjugate() - vb * va.conjugate()) < 1e-14:
        chord = vb - va
        u = 1j * chord / abs(chord)
        return GeneralizedCircle.from_line(u, (u.conjugate() * va).real)
    sign = 1.0 if geometry is Geometry.HYPERBOLIC else -1.0
    # solve 2 Re(conj(c) v) = |v|^2 + sign for c
    a11, a12, r1 = 2 * va.real, 2 * va.imag, abs(va) ** 2 + sign
    a21, a22, r2 = 2 * vb.real, 2 * vb.imag, abs(vb) ** 2 + sign
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-14:
        raise ValueError("degenerate side: vertices are radially aligned")
    cx = (r1 * a22 - r2 * a12) / det
    cy = (a11 * r2 - a21 * r1) / det
    c = complex(cx, cy)
    r2val = abs(c) ** 2 - sign
    return GeneralizedCircle.from_center_radius(c, math.sqrt(r2val))


def _arc_midpoint(side, va, vb):
    """Point of the arc between va and vb (the shorter arc), or the chord
    midpoint for a straight side."""
    if side.is_line:
        return (va + vb) / 2
    c, r = side.center, side.radius
    th1, th2 = cmath.phase(va - c), cmath.phase(vb - c)
    delta = (th2 - th1) % (2 * math.pi)
    if delta > math.pi:
        th1, delta = th2, 2 * math.pi - delta
    return c + r * cmath.exp(1j * (th1 + delta / 2))


def triangle_from_angles(a0, a1, a2, geometry=None):
    """Construct a circular-arc triangle with the given interior angles.

    The first vertex sits at 0 with its first side along the positive real
    axis.  Angles are radians; in the hyperbolic case a zero angle produces an
    ideal vertex on the unit circle.
    """
    if geometry is None:
        total = a0 + a1 + a2
        geometry = (
            Geometry.SPHERICAL if total > math.pi + 1e-12
            else Geometry.EUCLIDEAN if abs(total - math.pi) <= 1e-12
            else Geometry.HYPERBOLIC
        )
    if geometry is not Geometry.HYPERBOLIC and min(a0, a1, a2) <= 0:
        raise ValueError("zero angles are only meaningful in the hyperbolic case")

    if a0 == a1 == a2 == 0.0:
        return _ideal_triangle()

    # keep a nonzero angle at the origin vertex
    order = (0, 1, 2)
    if a0 == 0:
        order = (1, 2, 0) if a1 > 0 else (2, 0, 1)
    aa = [(a0, a1, a2)[i] for i in order]

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

    verts3 = [complex(0.0), vb, vc]
    sides3 = [
        _geodesic_side(vb, vc, geometry),
        _geodesic_side(complex(0.0), vc, geometry),
        _geodesic_side(complex(0.0), vb, geometry),
    ]
    mids3 = [_arc_midpoint(sides3[i], verts3[(i + 1) % 3], verts3[(i + 2) % 3]) for i in range(3)]

    # undo the ordering permutation
    inv = [order.index(i) for i in range(3)]
    verts = tuple(verts3[inv[i]] for i in range(3))
    sides = tuple(sides3[inv[i]] for i in range(3))
    mids = tuple(mids3[inv[i]] for i in range(3))
    angles = (a0, a1, a2)

    interior = _find_interior_point(verts, sides)
    return ArcTriangle(
        vertices=verts, sides=sides, angles=angles,
        side_midpoints=mids, interior_point=interior,
    )


def _ideal_triangle():
    """All three vertices on the unit circle (the cusp-cusp-cusp case)."""
    w = cmath.exp(2j * math.pi / 3)
    verts = (complex(1.0), w, w.conjugate())
    sides = tuple(
        _geodesic_side(verts[(i + 1) % 3], verts[(i + 2) % 3], Geometry.HYPERBOLIC)
        for i in range(3)
    )
    mids = tuple(_arc_midpoint(sides[i], verts[(i + 1) % 3], verts[(i + 2) % 3])
                 for i in range(3))
    return ArcTriangle(
        vertices=verts, sides=sides, angles=(0.0, 0.0, 0.0),
        side_midpoints=mids, interior_point=complex(0.0),
    )


def _find_interior_point(verts, sides):
    # interior side of side i is the side its opposite vertex lies on
    refs = [sides[i].eval(verts[i]) for i in range(3)]
    candidates = [
        (verts[0] + verts[1] + verts[2]) / 3,
        verts[0] + ((verts[1] - verts[0]) + (verts[2] - verts[0])) / 4,
        verts[1] + ((verts[0] - verts[1]) + (verts[2] - verts[1])) / 4,
        verts[2] + ((verts[0] - verts[2]) + (verts[1] - verts[2])) / 4,
        (verts[0] + verts[1] + verts[2]) / 3 * 0.5,
    ]
    for p in candidates:
        vals = [sides[i].eval(p) for i in range(3)]
        if all(v * r > 0 for v, r in zip(vals, refs)):
            return p
    raise ValueError("could not locate an interior point of the triangle")


def build_triangle(k, l, m):
    """Fundamental (k, l, m) triangle with interior angles pi/k, pi/l, pi/m."""
    geometry = classify(k, l, m)
    return triangle_from_angles(math.pi / k, math.pi / l, math.pi / m, geometry)


# ---------------------------------------------------------------------------
# tessellation

@dataclass(eq=False)
class Tessellation:
    """The tiles as arrays, one row per tile in word order.

    points[0] and points[1] hold the chart x and y of each tile's vertices
    (columns 0-2), side midpoints (3-5) and interior point (6).  sides holds
    (a, Re b, Im b, c) of side i, the side opposite vertex i, in column i.
    secondary flags the spherical tiles drawn in the chart z' = 1/z."""
    geometry: Geometry
    words: list
    depth: int
    closure_reached: bool
    angles: tuple              # target interior angles at v0, v1, v2 (radians)
    points: np.ndarray         # (2, tiles, 7)
    sides: np.ndarray          # (4, tiles, 3)
    secondary: np.ndarray      # (tiles,) bool

    @classmethod
    def from_triangle(cls, tri, geometry):
        """The tessellation made of the one triangle tri."""
        points, sides = _tile_arrays(tri)
        return cls(geometry=geometry, words=[""], depth=0, closure_reached=True,
                   angles=tri.angles, points=points, sides=sides,
                   secondary=np.array([tri.chart == "secondary"]))

    @property
    def tile_count(self):
        return len(self.words)

    @cached_property
    def tiles(self):
        """The tiles as ArcTriangle objects, built on first use."""
        return self._triangles(slice(None))

    @property
    def base(self):
        return self._triangles(slice(0, 1))[0]

    def _triangles(self, rows):
        x, y = self.points[:, rows]
        z = np.empty(x.shape, complex)
        z.real, z.imag = x, y
        sides = self.sides[:, rows].transpose(1, 2, 0).tolist()
        return [
            ArcTriangle(
                vertices=tuple(v[:3]), angles=self.angles, side_midpoints=tuple(v[3:6]),
                interior_point=v[6], chart="secondary" if secondary else "primary",
                sides=tuple(GeneralizedCircle(a, complex(br, bi), c) for a, br, bi, c in coeffs))
            for v, coeffs, secondary in zip(z.tolist(), sides, self.secondary[rows].tolist())
        ]

    def max_angle_residual(self):
        return _angle_residuals(self.points, self.sides, self.angles).max().item()

    def max_orthogonality_residual(self):
        if self.geometry is not Geometry.HYPERBOLIC:
            raise ValueError("orthogonality residual is a hyperbolic-model quantity")
        return _orthogonality_residuals(self.sides).max().item()

    def report(self):
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


def _tile_arrays(tri):
    """points and sides of one ArcTriangle, as a stack of one tile."""
    z = (*tri.vertices, *tri.side_midpoints, tri.interior_point)
    s = tri.sides
    flat = np.array([*(p.real for p in z), *(p.imag for p in z), *(t.a for t in s),
                     *(t.b.real for t in s), *(t.b.imag for t in s), *(t.c for t in s)], float)
    return flat[:14].reshape(2, 1, 7), flat[14:].reshape(4, 1, 3)


_FORM_SIGN = {Geometry.SPHERICAL: 1.0, Geometry.EUCLIDEAN: 0.0, Geometry.HYPERBOLIC: -1.0}


def _lift(z, s=1.0):
    """Finite chart point to model point (the unit sphere by default)."""
    q = abs(z) ** 2
    return np.array([2 * z.real, 2 * z.imag, 1.0 - s * q]) / (1.0 + s * q)


def _project(v):
    """Model point to primary chart point; _sphere_chart does whole tiles."""
    x, y, h = v
    if 1.0 + h < 1e-12:
        return complex(math.inf, math.inf)
    return complex(x, y) / (1.0 + h)


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


def _closure(R, ells, c0, max_tiles, max_word_length):
    """Breadth-first closure of the group generated by the reflections R[i] in
    the planes ells[i].X = 0.  Returns the tile matrices, their words (length
    first, then a < b < c) and whether no budget stopped the sweep."""
    mats, words, budget_hit = [np.eye(3)], [""], False
    G, Y, level = np.eye(3)[None], c0[None], [""]
    base_side = ells @ c0 > 0
    while level:
        # a reflection changes the word length by one: the child G R_i is one
        # longer iff the base centre c0 lies on the tile's side of the tile's
        # mirror i, i.e. iff Y = G^-1 c0 lies on the base side of mirror i
        par, letter = np.nonzero((Y @ ells.T > 0) == base_side)
        if not len(par):
            break
        if max_word_length is not None and len(level[0]) >= max_word_length:
            budget_hit = True
            break
        children = G[par] @ R[letter]
        # longer children are new elements; only siblings can coincide
        keep = _first_distinct(children @ c0)
        room = max(max_tiles - len(words), 0)
        if len(keep) > room:
            budget_hit, keep = True, keep[:room]
        par, letter = par[keep], letter[keep]
        G = children[keep]
        Y = (R[letter] @ Y[par][:, :, None])[:, :, 0]
        level = [level[p] + "abc"[i] for p, i in zip(par.tolist(), letter.tolist())]
        mats.extend(G)
        words.extend(level)
    return np.array(mats), words, not budget_hit


def tessellate(k, l, m, max_tiles=20000, max_word_length=None):
    """Breadth-first closure of the (k, l, m) triangle under side reflections.

    Reflections are enumerated in word order (length first, then a < b < c for
    the three sides), and the sweep stops at closure or at the first exhausted
    budget.  Each tile is a 3x3 matrix in the linear model of its geometry;
    the chart points and side circles of the tiles kept are computed at the
    end, for all tiles at once.  Spherical input closes up with one tile per
    element of the full reflection group.
    """
    geometry = classify(k, l, m)
    s = _FORM_SIGN[geometry]
    base = build_triangle(k, l, m)
    P = np.array([_lift(v, s) for v in base.vertices]).T     # columns p0, p1, p2
    ells = np.cross(P[:, [1, 2, 0]].T, P[:, [2, 0, 1]].T)    # side i: p_{i+1} x p_{i+2}
    jells = ells * np.array([1.0, 1.0, s])
    R = np.eye(3) - 2 * jells[:, :, None] * ells[:, None, :] \
        / (ells * jells).sum(axis=1)[:, None, None]
    mids = _on_model(P[:, [1, 2, 0]] + P[:, [2, 0, 1]], s)   # side i's midpoint
    c0 = _on_model(P.sum(axis=1, keepdims=True), s)[:, 0]
    mats, words, closed = _closure(R, ells, c0, max_tiles, max_word_length)

    pts = mats @ np.column_stack([P, mids, c0])   # per tile: vertices, midpoints, centre
    if geometry is Geometry.SPHERICAL:
        points, secondary = _sphere_chart(_on_model(pts, s))
        # the sides' normals are G l_i for orthogonal G
        sides = _great_circles(_on_model(mats @ ells.T, s), secondary)
    else:
        z = (pts[:, 0] + 1j * pts[:, 1]) / (1.0 + pts[:, 2])
        points, secondary = np.stack([z.real, z.imag]), np.zeros(len(words), bool)
        ends = points[..., _PLUS1], points[..., _PLUS2]
        # a hyperbolic side is the circle through its two vertices and its
        # midpoint, never one orthogonal to the unit circle by construction,
        # so drift of G off O(2,1) shows in the residuals
        if geometry is Geometry.EUCLIDEAN:
            sides = _line_through(*ends)
        else:
            sides = _through(ends[0], points[..., 3:6], ends[1])
    return Tessellation(
        geometry=geometry, words=words, depth=len(words[-1]), closure_reached=closed,
        angles=base.angles, points=points, sides=sides, secondary=secondary,
    )


def _sphere_chart(pts):
    """Stereographic chart points (2, tiles, 7) of the model points pts
    (tiles, 3, 7), and which tiles go to the secondary chart z' = 1/z: those
    reaching too close to the primary pole.  No point meets the pole of its
    tile's chart, since a tile spans at most a quarter circle."""
    X, Y, H = pts[:, 0], pts[:, 1], pts[:, 2]
    secondary = ~np.all(1.0 + H[:, :6] > 0.06, axis=1)
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


def orthogonal_circle(tess):
    """The unit circle of the disc model, with the worst orthogonality residual
    of any tile side against it."""
    if tess.geometry is not Geometry.HYPERBOLIC:
        raise ValueError("the orthogonal circle exists for hyperbolic tessellations only")
    residual = tess.max_orthogonality_residual()
    return GeneralizedCircle.from_center_radius(0.0, 1.0), residual


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
_TIMES_I = np.array([-1.0, 1.0])[:, None, None]   # i z = z[::-1] * _TIMES_I, up to
                                                  # signs of zero, on (2, tiles, k)


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
    """GeneralizedCircle.from_line: the lines Re(conj(u) z) = offset for the
    normals n scaled to unit length u."""
    u = _div_real(n, np.hypot(n[0], n[1]))
    return np.stack(np.broadcast_arrays(0.0, *u, -2.0 * offset))


def _line_through(p1, p2):
    """The lines through two points each, as _geodesic_side builds a
    Euclidean side: normal u = i (p2 - p1) / |p2 - p1|, offset Re(conj(u) p1)."""
    chord = p2 - p1
    u = _div_real(_times_i(chord), np.hypot(chord[0], chord[1]))
    return _line(u, u[0] * p1[0] - (-u[1]) * p1[1])


def _through(p1, p2, p3):
    """GeneralizedCircle.through: (a, Re b, Im b, c) of the circle or line
    through three points each."""
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
    """Unit tangent i n / |n| of each side at p, turned to point toward
    toward, for n = b on a line and n = p - centre on a circle.  Plain
    division stands in for Python's here: the two differ at most in the sign
    of a zero component, which no measured angle sees."""
    is_line, _, centre = _circle_parts(sides)
    n = np.where(is_line, sides[1:3], p - centre)
    u = n[::-1] * _TIMES_I / np.hypot(n[0], n[1])
    along = u * (toward - p)
    return np.where(along[0] + along[1] < 0, -u, u)


def _measured_angles(points, sides):
    """Interior angle at each vertex i of each tile, (tiles, 3): the angle
    |phase(conj(t1) t2)| between the tangents t1 of side i + 1 and t2 of side
    i + 2 there, each turned toward its side's midpoint."""
    at = _PLUS1 + _PLUS2                        # the side of each tangent
    p = points[..., [0, 1, 2, 0, 1, 2] + [3 + i for i in at]]
    u = _tangents(sides[..., at], p[..., :6], p[..., 6:])
    t1, t2 = u[..., :3], u[..., 3:]
    dot = t1 * t2
    return np.abs(_atan2(t1[0] * t2[1] - t1[1] * t2[0], dot[0] + dot[1]))


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
_SPHERE_SAMPLES = 48      # sample points per side of a sampled sphere tile
_SPHERE_CLIP = 8.0        # chart radius past which sampled points are dropped
_ARC_FLAGS = np.array(["0 0 ", "0 1 ", "1 0 ", "1 1 "], object)   # large-arc, sweep


def _fmt(x):
    return f"{x:.9f}"


def _tile_paths(points, sides):
    """Path data of each tile (points (2, tiles, 7), sides (4, tiles, 3)):
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


def _unproject(z, chart):
    """Chart coordinate back to the sphere; the secondary chart is z' = 1/z."""
    if chart == "secondary":
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return np.array([0.0, 0.0, 1.0])
        if z == 0:
            return np.array([0.0, 0.0, -1.0])
        z = 1.0 / z
    return _lift(z)


def _slerp_rows(p0, p1, f):
    """Unit vectors at the fractions f along the great arc from p0 to p1, one row
    each.  Every row is bitwise the per-point slerp v / np.linalg.norm(v): the
    batched matmul takes each squared norm from the same dot product."""
    omega = math.acos(max(-1.0, min(1.0, float(p0 @ p1))))
    if omega < 1e-12:
        V = np.tile(p0, (len(f), 1))
    else:
        V = (np.sin((1 - f) * omega)[:, None] * p0
             + np.sin(f * omega)[:, None] * p1) / math.sin(omega)
    return V / np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0])


def _sampled_sphere_path(vertices, midpoints, chart):
    # tiles flagged "secondary" or touching the projection pole are drawn by
    # sampling the sphere arcs in the primary chart and clipping; each side is
    # slerped a -> mid -> b through its midpoint, one array per half-arc
    s = np.arange(_SPHERE_SAMPLES + 1) / _SPHERE_SAMPLES
    first = s <= 0.5
    f0, f1 = 2 * s[first], 2 * s[~first] - 1
    pieces = []
    pen_down = False
    for i in range(3):
        j = (i + 1) % 3
        opp = (i + 2) % 3
        a = _unproject(vertices[i], chart)
        b = _unproject(vertices[j], chart)
        mid = _unproject(midpoints[opp], chart)
        V = np.concatenate([_slerp_rows(a, mid, f0), _slerp_rows(mid, b, f1)])
        for v in V.tolist():
            z = _project(v)
            if math.isfinite(z.real) and abs(z) <= _SPHERE_CLIP:
                cmd = "L" if pen_down else "M"
                pieces.append(f"{cmd} {_fmt(z.real)} {_fmt(z.imag)}")
                pen_down = True
            else:
                pen_down = False
    return " ".join(pieces) if pieces else "M 0 0"


def export_svg(tess, path):
    """Write a deterministic SVG rendering: one path element per tile, arcs via
    the elliptical-arc command, the unit circle for hyperbolic geometry."""
    if not tess.tile_count:
        raise ValueError("refusing to render an empty tessellation")
    x, y = tess.points
    if tess.geometry is Geometry.HYPERBOLIC:
        box = (-1.05, -1.05, 2.1, 2.1)
    elif tess.geometry is Geometry.SPHERICAL:
        box = (-4.2, -4.2, 8.4, 8.4)
    else:
        xs, ys = x[:, :3].ravel().tolist(), y[:, :3].ravel().tolist()
        pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        box = (min(xs) - pad, min(ys) - pad,
               (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad)
    # spherical tiles in the secondary chart or reaching far out are sampled
    sampled = np.zeros(tess.tile_count, bool)
    if tess.geometry is Geometry.SPHERICAL:
        sampled = tess.secondary | np.any(np.hypot(x[:, :3], y[:, :3]) > 4.0, axis=1)
    drawn = iter(_tile_paths(tess.points[:, ~sampled], tess.sides[:, ~sampled]))
    stroke = f'stroke="{_STROKE}" stroke-width="{_fmt(_STROKE_WIDTH * max(box[2], box[3]))}"'
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{_fmt(box[0])} {_fmt(box[1])} {_fmt(box[2])} {_fmt(box[3])}">',
        '<g transform="scale(1,-1)">',
    ]
    for t, (word, sample) in enumerate(zip(tess.words, sampled.tolist())):
        if sample:
            z = [complex(a, b) for a, b in zip(x[t, :6].tolist(), y[t, :6].tolist())]
            chart = "secondary" if tess.secondary[t] else "primary"
            d, fill = _sampled_sphere_path(z[:3], z[3:], chart), "none"
        else:
            d, fill = next(drawn), _FILL[len(word) % 2]
        lines.append(f'<path d="{d}" fill="{fill}" {stroke}/>')
    if tess.geometry is Geometry.HYPERBOLIC:
        lines.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="{_STROKE}" '
            f'stroke-width="{_fmt(1.5 * _STROKE_WIDTH * box[2])}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return data
