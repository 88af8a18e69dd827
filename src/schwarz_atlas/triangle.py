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
the base triangle onto it, and the tile across its side i is G R_i.  Chart
triangles are built at the end; spherical tiles reaching too close to the
projection pole are reported in a secondary chart.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
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
        w2, w3 = z2 - z1, z3 - z1
        det = 2 * (w2.real * w3.imag - w2.imag * w3.real)
        toward = -1j * (abs(w2) ** 2 * w3 - abs(w3) ** 2 * w2)   # det times the centre
        if toward == 0:
            raise ValueError("a circle needs three distinct points")
        if det == 0:
            return cls.from_line(toward, (toward.conjugate() * z1).real / abs(toward))
        w = toward / det
        b, c = -(z1 + w), abs(z1) ** 2 + 2 * (z1.conjugate() * w).real
        scale = max(1.0, abs(b), abs(c))
        return cls(1.0 / scale, b / scale, c / scale)

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
        if self.is_line:
            return abs(self.line_offset)
        c2, r2 = abs(self.center) ** 2, self.radius**2
        return abs(c2 - r2 - 1.0) / (c2 + r2 + 1.0)


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


def tangent_direction(circ, p, towards):
    """Unit tangent of the circle at p, oriented so it points toward `towards`."""
    if circ.is_line:
        tau = 1j * circ.line_normal
    else:
        nu = p - circ.center
        tau = 1j * nu / abs(nu)
    if (tau.conjugate() * (towards - p)).real < 0:
        tau = -tau
    return tau


def angle_between_sides(s1, m1, s2, m2, vertex):
    """Interior angle between two sides meeting at `vertex`.

    m1, m2 are points on the respective arcs used to orient the tangents away
    from the vertex; tangent circles (cusps) give angle 0.
    """
    t1 = tangent_direction(s1, vertex, m1)
    t2 = tangent_direction(s2, vertex, m2)
    return abs(cmath.phase(t1.conjugate() * t2))


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
        out = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            out.append(
                angle_between_sides(
                    self.sides[j], self.side_midpoints[j],
                    self.sides[k], self.side_midpoints[k],
                    self.vertices[i],
                )
            )
        return tuple(out)

    def max_angle_residual(self):
        return max(
            min(abs(a - b) for b in self.angles) for a in self.measured_angles()
        )

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

@dataclass
class Tessellation:
    tiles: list
    words: list
    geometry: Geometry
    depth: int
    closure_reached: bool
    base: ArcTriangle = field(repr=False)

    @property
    def tile_count(self):
        return len(self.tiles)

    def max_angle_residual(self):
        return max(t.max_angle_residual() for t in self.tiles)

    def max_orthogonality_residual(self):
        if self.geometry is not Geometry.HYPERBOLIC:
            raise ValueError("orthogonality residual is a hyperbolic-model quantity")
        return max(s.unit_circle_orthogonality_residual() for t in self.tiles for s in t.sides)

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


_FORM_SIGN = {Geometry.SPHERICAL: 1.0, Geometry.EUCLIDEAN: 0.0, Geometry.HYPERBOLIC: -1.0}


def _lift(z, s=1.0):
    """Finite chart point to model point (the unit sphere by default)."""
    q = abs(z) ** 2
    return np.array([2 * z.real, 2 * z.imag, 1.0 - s * q]) / (1.0 + s * q)


def _project(v, secondary=False):
    """Model point to chart point; the secondary chart of the sphere is z' = 1/z."""
    x, y, h = (v[0], -v[1], -v[2]) if secondary else v
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
    chart triangles are built only for the tiles kept.  Spherical input closes
    up with one tile per element of the full reflection group.
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
        # the sides' normals are G l_i for orthogonal G
        tiles = _sphere_tiles(_on_model(pts, s), _on_model(mats @ ells.T, s), base.angles)
    else:
        tiles = _plane_tiles((pts[:, 0] + 1j * pts[:, 1]) / (1.0 + pts[:, 2]), base.angles, geometry)
    return Tessellation(
        tiles=tiles, words=words, geometry=geometry, depth=len(words[-1]),
        closure_reached=closed, base=tiles[0],
    )


def _plane_tiles(z, angles, geometry):
    """Chart triangles from projected points.  A hyperbolic side is the circle
    through its two vertices and its midpoint, never one orthogonal to the unit
    circle by construction, so drift of G off O(2,1) shows in the residuals; a
    Euclidean side is the line through its two vertices."""
    tiles = []
    for v0, v1, v2, m0, m1, m2, centre in z.tolist():
        verts, mids = (v0, v1, v2), (m0, m1, m2)
        sides = tuple(
            _geodesic_side(a, b, geometry) if geometry is Geometry.EUCLIDEAN
            else GeneralizedCircle.through(a, mid, b)
            for a, mid, b in zip((v1, v2, v0), mids, (v2, v0, v1)))
        tiles.append(ArcTriangle(vertices=verts, sides=sides, angles=angles,
                                 side_midpoints=mids, interior_point=centre))
    return tiles


def _great_circle(normal, secondary=False):
    n1, n2, n3 = normal
    if secondary:
        n2, n3 = -n2, -n3
    scale = max(abs(n1), abs(n2), abs(n3))
    return GeneralizedCircle(-n3 / scale, complex(n1, n2) / scale, n3 / scale)


def _sphere_tiles(pts, normals, angles):
    """Stereographic chart triangles; a tile reaching too close to the primary
    pole goes to the secondary chart."""
    tiles = []
    for tile, tnorms in zip(pts.transpose(0, 2, 1), normals.transpose(0, 2, 1)):
        secondary = not all(1.0 + v[2] > 0.06 for v in tile[:6])
        pv = tuple(_project(v, secondary) for v in tile)
        tiles.append(ArcTriangle(
            vertices=pv[:3], sides=tuple(_great_circle(n, secondary) for n in tnorms),
            angles=angles, side_midpoints=pv[3:6], interior_point=pv[6],
            chart="secondary" if secondary else "primary",
        ))
    return tiles


def orthogonal_circle(tess):
    """The unit circle of the disc model, with the worst orthogonality residual
    of any tile side against it."""
    if tess.geometry is not Geometry.HYPERBOLIC:
        raise ValueError("the orthogonal circle exists for hyperbolic tessellations only")
    residual = tess.max_orthogonality_residual()
    return GeneralizedCircle.from_center_radius(0.0, 1.0), residual


# ---------------------------------------------------------------------------
# SVG export

_FILL = ("#dce6f2", "#f2e3dc")
_STROKE = "#20242c"
_STROKE_WIDTH = 0.004     # relative to the larger side of the view box
_SPHERE_SAMPLES = 48      # sample points per side of a sampled sphere tile
_SPHERE_CLIP = 8.0        # chart radius past which sampled points are dropped


def _fmt(x):
    return f"{x:.9f}"


def _arc_command(side, v_from, v_to, mid):
    if side.is_line or not all(map(math.isfinite, (v_to.real, v_to.imag))):
        return f"L {_fmt(v_to.real)} {_fmt(v_to.imag)}"
    c, r = side.center, side.radius
    th1 = cmath.phase(v_from - c)
    th2 = cmath.phase(v_to - c)
    thm = cmath.phase(mid - c)
    ccw_to_mid = (thm - th1) % (2 * math.pi)
    ccw_to_end = (th2 - th1) % (2 * math.pi)
    sweep_ccw = ccw_to_mid <= ccw_to_end
    delta = ccw_to_end if sweep_ccw else (2 * math.pi - ccw_to_end)
    large = 1 if delta > math.pi else 0
    sweep = 1 if sweep_ccw else 0
    return (
        f"A {_fmt(r)} {_fmt(r)} 0 {large} {sweep} "
        f"{_fmt(v_to.real)} {_fmt(v_to.imag)}"
    )


def _tile_path(tri):
    v = tri.vertices
    mids = tri.side_midpoints
    pieces = [f"M {_fmt(v[0].real)} {_fmt(v[0].imag)}"]
    # the side joining v[i] and v[i+1] is the one opposite the third vertex
    for i in range(3):
        j = (i + 1) % 3
        opp = (i + 2) % 3
        pieces.append(_arc_command(tri.sides[opp], v[i], v[j], mids[opp]))
    pieces.append("Z")
    return " ".join(pieces)


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


def _sampled_sphere_path(tri):
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
        a = _unproject(tri.vertices[i], tri.chart)
        b = _unproject(tri.vertices[j], tri.chart)
        mid = _unproject(tri.side_midpoints[opp], tri.chart)
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
    if not tess.tiles:
        raise ValueError("refusing to render an empty tessellation")
    if tess.geometry is Geometry.HYPERBOLIC:
        box = (-1.05, -1.05, 2.1, 2.1)
    elif tess.geometry is Geometry.SPHERICAL:
        box = (-4.2, -4.2, 8.4, 8.4)
    else:
        xs = [v.real for t in tess.tiles for v in t.vertices]
        ys = [v.imag for t in tess.tiles for v in t.vertices]
        pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        box = (min(xs) - pad, min(ys) - pad,
               (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{_fmt(box[0])} {_fmt(box[1])} {_fmt(box[2])} {_fmt(box[3])}">',
        '<g transform="scale(1,-1)">',
    ]
    for tri, word in zip(tess.tiles, tess.words):
        spherical_fallback = (
            tess.geometry is Geometry.SPHERICAL
            and (tri.chart == "secondary"
                 or any(not math.isfinite(v.real) or abs(v) > 4.0 for v in tri.vertices))
        )
        if spherical_fallback:
            d = _sampled_sphere_path(tri)
            fill = "none"
        else:
            d = _tile_path(tri)
            fill = _FILL[len(word) % 2]
        lines.append(
            f'<path d="{d}" fill="{fill}" stroke="{_STROKE}" '
            f'stroke-width="{_fmt(_STROKE_WIDTH * max(box[2], box[3]))}"/>'
        )
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
