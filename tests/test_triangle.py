"""Arc triangles, reflections and tessellation closure."""

import cmath
import contextlib
import hashlib
import io
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reflect_point
from schwarz_atlas import cli
from schwarz_atlas import triangle as tri
from schwarz_atlas.triangle import Geometry


def chart_points(tess):
    """The chart points of every tile as complex numbers, (tiles, 6):
    vertices and side midpoints."""
    z = np.empty(tess.points.shape[1:], complex)
    z.real, z.imag = tess.points
    return z


def tile_circles(tess, tile):
    """The three sides of one tile as rows (a, Re b, Im b, c)."""
    return tess.sides[:, tile].T.tolist()


def circle_row(center, radius):
    """The row of the circle |z - center| = radius."""
    center = complex(center)
    return 1.0, -center.real, -center.imag, abs(center) ** 2 - radius**2


def line_row(normal, offset):
    """The row of the line Re(conj(u) z) = offset, u the normal scaled to
    unit length."""
    u = complex(normal) / abs(normal)
    return 0.0, u.real, u.imag, -2.0 * offset


def base_triangle(k, l, m):
    """The (k, l, m) triangle with the angles pi/k, pi/l and pi/m, as the
    one-tile Tessellation that triangle_from_angles builds."""
    return tri.triangle_from_angles(math.pi / k, math.pi / l, math.pi / m, tri.classify(k, l, m))


def side_values(sides, z):
    """a |z|^2 + 2 Re(conj(b) z) + c of each side (4, tiles, 3) at the chart
    points z (k,): (tiles, 3, k), whose sign is the side of the circle."""
    a, br, bi, c = sides[..., None]
    return a * np.abs(z) ** 2 + 2 * (br * z.real + bi * z.imag) + c


def test_classify_exact():
    assert tri.classify(2, 3, 5) is Geometry.SPHERICAL
    assert tri.classify(2, 3, 6) is Geometry.EUCLIDEAN
    assert tri.classify(2, 3, 7) is Geometry.HYPERBOLIC
    # exact rational comparison on a case floats would get wrong:
    # 1/3 + 1/3 + 1/3 = 1 exactly
    assert tri.classify(3, 3, 3) is Geometry.EUCLIDEAN
    with pytest.raises(ValueError):
        tri.classify(1, 3, 7)
    with pytest.raises(ValueError):
        tri.classify(2, 3, 0)


def test_build_hyperbolic_triangle():
    t = base_triangle(2, 3, 7)
    assert (t.words, t.depth, t.closure_reached) == (("",), 0, True)
    measured = tri._measured_angles(t.points, t.sides)[0]
    for got, want in zip(measured, (math.pi / 2, math.pi / 3, math.pi / 7)):
        assert abs(got - want) < 1e-10
    # side j passes through the two vertices other than vertex j
    at_vertices = side_values(t.sides[:, 0], chart_points(t)[0, :3])
    assert np.abs(at_vertices[~np.eye(3, dtype=bool)]).max() < 1e-10
    # geodesic sides: |center|^2 = 1 + r^2 or diameters through the origin
    assert tri._orthogonality_residuals(t.sides).max() < 1e-10


def test_build_euclidean_triangle():
    t = base_triangle(2, 4, 4)
    assert t.max_angle_residual() < 1e-10
    assert tri._circle_parts(t.sides)[0].all()


def test_build_spherical_octant():
    t = base_triangle(2, 2, 2)
    vertices = chart_points(t)[0, :3]
    assert vertices[0] == 0
    assert abs(vertices[1] - 1) < 1e-14
    assert abs(vertices[2] - 1j) < 1e-14
    assert t.max_angle_residual() < 1e-12


def test_circle_rows_read_as_lines_and_circles():
    is_line, u, d = tri._circle(line_row(3j, 0.25))
    assert is_line and u == 1j and d == 0.25
    is_line, centre, radius = tri._circle(circle_row(1 - 2j, 0.5))
    assert not is_line and centre == 1 - 2j and abs(radius - 0.5) < 1e-15
    # a coefficient a below 1e-12 of the others reads as a line
    assert tri._circle((1e-13, 0.6, 0.8, 0.5))[0]
    with pytest.raises(ValueError, match="degenerate circle"):
        tri._circle((1.0, 0.0, 0.0, 1.0))       # |z|^2 + 1 = 0


def test_reflect_point_cases():
    unit = circle_row(0.0, 1.0)
    assert abs(reflect_point(2.0 + 0j, unit) - 0.5) < 1e-15
    rng = np.random.default_rng(0)
    line = line_row(1j * np.exp(0.3j), 0.25)
    for _ in range(50):
        p = complex(rng.normal(), rng.normal())
        for circ in (unit, line):
            assert abs(reflect_point(reflect_point(p, circ), circ) - p) < 1e-13
    # points on the circle are fixed
    on = np.exp(0.77j)
    assert abs(reflect_point(on, unit) - on) < 1e-15


def test_circle_intersections_without_two_points():
    circle, line = circle_row, line_row
    # parallel lines, a line that misses a circle, concentric and disjoint circles
    assert tri.circle_intersections(line(1.0, 0.0), line(1.0, 2.0)) == []
    assert tri.circle_intersections(circle(0.0, 1.0), line(1.0, 2.0)) == []
    assert tri.circle_intersections(circle(0.5j, 1.0), circle(0.5j, 2.0)) == []
    assert tri.circle_intersections(circle(0.0, 1.0), circle(3.0, 1.0)) == []
    # circles that touch meet in exactly one point
    assert tri.circle_intersections(circle(0.0, 1.0), circle(2.0, 1.0)) == [1.0]


@pytest.mark.parametrize("klm,count", [
    ((2, 3, 3), 24), ((2, 3, 4), 48), ((2, 3, 5), 120),
    ((2, 2, 2), 8), ((2, 2, 6), 24),
])
def test_spherical_closure_counts(klm, count):
    tess = tri.tessellate(*klm)
    assert tess.closure_reached
    assert tess.tile_count == count
    assert tess.max_angle_residual() < 1e-8


def test_hyperbolic_tiles_stay_in_disc():
    tess = tri.tessellate(2, 3, 7, max_word_length=6)
    assert not tess.closure_reached
    assert np.all(np.abs(chart_points(tess)[:, :3]) < 1.0)
    assert tess.max_angle_residual() < 1e-8


def test_orthogonal_circle_residuals():
    for klm in [(2, 3, 7), (3, 3, 4)]:
        tess = tri.tessellate(*klm, max_word_length=5)
        assert tess.max_orthogonality_residual() < 1e-9
    with pytest.raises(ValueError):
        tri.tessellate(2, 3, 3).max_orthogonality_residual()


def test_tile_interiors_disjoint():
    tess = tri.tessellate(2, 3, 7, max_word_length=6)
    z = chart_points(tess)
    # a centre per tile, walked from the base: the mean of the base vertices,
    # then the centre of tile w inverted in tile w's side s for the tile w + s
    index = {word: t for t, word in enumerate(tess.words)}
    centers = [z[0, :3].mean()]
    for word in tess.words[1:]:
        parent, side = index[word[:-1]], "abc".index(word[-1])
        centers.append(reflect_point(centers[parent], tess.sides[:, parent, side].tolist()))
    # side i's inward sign is its sign at vertex i, which is off side i; a
    # tile contains a centre iff its three signed side values there read at
    # least the margin
    a, br, bi, c = tess.sides
    v = z[:, :3]
    inward = np.where(a * np.abs(v) ** 2 + 2 * (br * v.real + bi * v.imag) + c > 0, 1.0, -1.0)
    contains = np.all(side_values(tess.sides, np.array(centers)) * inward[:, :, None] >= 1e-9,
                      axis=1)
    assert np.diagonal(contains).all(), np.flatnonzero(~np.diagonal(contains))
    np.fill_diagonal(contains, False)
    assert not contains.any(), np.argwhere(contains)


def test_word_ordering():
    tess = tri.tessellate(2, 3, 7, max_word_length=3)
    words = tess.words
    assert words[0] == ""
    assert words == tuple(sorted(words, key=lambda w: (len(w), w)))


def test_angles_preserved_along_words():
    tess = tri.tessellate(2, 3, 7, max_word_length=5)
    want = np.array([math.pi / 2, math.pi / 3, math.pi / 7])
    measured = tri._measured_angles(tess.points, tess.sides)
    assert np.abs(measured[..., None] - want).min(axis=-1).max() < 1e-8


def test_svg_deterministic_and_structured(tmp_path):
    tess = tri.tessellate(2, 3, 7, max_word_length=6)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    data1 = tri.export_svg(tess, p1)
    data2 = tri.export_svg(tess, p2)
    assert data1 == data2
    assert p1.read_bytes() == p2.read_bytes()
    assert data1.count("<path") == tess.tile_count
    assert "<circle" in data1  # the bounding circle of the disc model


def _flipped_vertices_outside_view_box(data, points):
    """Chart vertices of the tiles, drawn under scale(1,-1), that lie outside
    the SVG's view box."""
    x0, y0, width, height = map(float, data.split('viewBox="')[1].split('"')[0].split())
    x, y = points[0, :, :3].ravel(), -points[1, :, :3].ravel()
    eps = 1e-9
    outside = (x < x0 - eps) | (x > x0 + width + eps) | (y < y0 - eps) | (y > y0 + height + eps)
    return np.count_nonzero(outside)


@pytest.mark.parametrize("klm", [(3, 3, 3), (2, 4, 4), (2, 3, 6)])
def test_euclidean_view_box_holds_the_flipped_tiles(klm, tmp_path):
    # the tiles are drawn under scale(1,-1), so the box starts at
    # y = -max(y) - pad: a box from min(y) held the drawing's mirror image
    for depth in range(4, 9):
        tess = tri.tessellate(*klm, max_word_length=depth)
        data = tri.export_svg(tess, tmp_path / "e.svg")
        assert _flipped_vertices_outside_view_box(data, tess.points) == 0, depth


def test_euclidean_schwarz_triangle_svg_holds_its_triangle(tmp_path):
    svg = tmp_path / "t.svg"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gauss", "schwarz-triangle", "--kappa", "1/3", "--lambda", "1/3",
                         "--mu", "1/3", "--svg", str(svg)]) == 0
    tess = tri.triangle_from_angles(math.pi / 3, math.pi / 3, math.pi / 3, Geometry.EUCLIDEAN)
    assert _flipped_vertices_outside_view_box(svg.read_text(), tess.points) == 0


def test_svg_rejects_empty(tmp_path):
    tess = tri.Tessellation(geometry=Geometry.HYPERBOLIC, words=[], depth=0,
                            closure_reached=False, angles=(), points=np.empty((2, 0, 6)),
                            sides=np.empty((4, 0, 3)), secondary=np.empty(0, bool))
    with pytest.raises(ValueError):
        tri.export_svg(tess, tmp_path / "x.svg")


def test_spherical_svg_renders_all_tiles(tmp_path):
    tess = tri.tessellate(2, 3, 3)
    data = tri.export_svg(tess, tmp_path / "s.svg")
    assert data.count("<path") == tess.tile_count


def on_sphere(z, secondary):
    """The unit-sphere point of the chart point z: stereographic from the
    south pole, and (x, -y, -h) in the secondary chart."""
    q = abs(z) ** 2
    x, y, h = 2 * z.real / (1 + q), 2 * z.imag / (1 + q), (1 - q) / (1 + q)
    return np.array([x, -y, -h] if secondary else [x, y, h])


def svg_arcs(d):
    """The path data of one tile read back, every number by float.fromhex:
    its start point and its three (radius, large-arc, sweep, end point)."""
    words = d.split()
    assert (words[0], words[3], words[11], words[19], words[27:]) == ("M", "A", "A", "A", ["Z"])
    num = float.fromhex
    start = complex(num(words[1]), num(words[2]))
    arcs = [(num(words[i + 1]), words[i + 4] == "1", words[i + 5] == "1",
             complex(num(words[i + 6]), num(words[i + 7]))) for i in (3, 11, 19)]
    return start, arcs


def svg_arc_centre(p, q, r, large, sweep):
    """The centre of the SVG arc of radius r from p to q (SVG 1.1, F.6.5)."""
    half = (p - q) / 2
    coef = math.sqrt(max(r * r - abs(half) ** 2, 0.0) / abs(half) ** 2)
    return (coef if large != sweep else -coef) * complex(half.imag, -half.real) + (p + q) / 2


@pytest.mark.parametrize("case", ["2 3 3", "2 3 4", "2 3 5", "2 2 7", "1/2 1/3 1/4"])
def test_spherical_svg_draws_every_tile_as_arcs(case, monkeypatch, tmp_path):
    # every tile filled and drawn as three arcs in the chart of the rotated
    # sphere; read back through the inverse rotation, each arc is the great
    # circle through its side's two vertices and midpoint, and runs through
    # the midpoint.  The tile holding the chart's pole, found from its
    # vertices alone, is the one evenodd path, drawn against the view box
    monkeypatch.setattr(tri, "_fmt", float.hex)
    svg = tmp_path / "s.svg"
    if "/" in case:
        flags = [x for pair in zip(["--kappa", "--lambda", "--mu"], case.split()) for x in pair]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gauss", "schwarz-triangle", *flags, "--svg", str(svg)]) == 0
        tess = tri.triangle_from_angles(*(float(Fraction(a)) * math.pi for a in case.split()),
                                        Geometry.SPHERICAL)
    else:
        tess = tri.tessellate(*map(int, case.split()))
        assert tess.closure_reached
        tri.export_svg(tess, svg)
    paths = [line for line in svg.read_text().splitlines() if line.startswith("<path")]
    assert len(paths) == tess.tile_count
    assert all(f'fill="{tri._FILL[len(word) % 2]}"' in line
               for line, word in zip(paths, tess.words))
    assert not any('fill="none"' in line for line in paths)

    Q = tri._DRAW_ROTATION
    model = [[on_sphere(z, secondary) for z in row]
             for row, secondary in zip(chart_points(tess).tolist(), tess.secondary.tolist())]
    pole = Q.T @ [0.0, 0.0, -1.0]
    holds = [all(np.linalg.det([X[(i + 1) % 3], X[(i + 2) % 3], pole])
                 * np.linalg.det([X[(i + 1) % 3], X[(i + 2) % 3], X[i]]) > 0 for i in range(3))
             for X in model]
    evenodd = [t for t, line in enumerate(paths) if 'fill-rule="evenodd"' in line]
    assert evenodd == [t for t, inside in enumerate(holds) if inside]
    assert len(evenodd) == (0 if "/" in case else 1)

    def unproject(z):
        return Q.T @ on_sphere(z, False)

    def drawn(X):
        Y = Q @ X
        return complex(Y[0], Y[1]) / (1.0 + Y[2])

    lo, hi = float.hex(-4.2), float.hex(4.2)
    frame = f"M {lo} {lo} L {hi} {lo} L {hi} {hi} L {lo} {hi} Z "
    worst = 0.0
    for t, (line, X) in enumerate(zip(paths, model)):
        d = line.split('"')[1]
        if t in evenodd:
            assert d.startswith(frame)
            d = d[len(frame):]
        pen, arcs = svg_arcs(d)
        # side 2 runs from vertex 0 to vertex 1, side 0 on to 2, side 1 back
        for (r, large, sweep, end), (a, b, side) in zip(arcs, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]):
            worst = max(worst, np.abs(unproject(pen) - X[a]).max(),
                        np.abs(unproject(end) - X[b]).max())
            c = svg_arc_centre(pen, end, r, large, sweep)
            # the chart circle |z - c| = r is the plane N.Y = -(1 + |c|^2 - r^2)
            # of the rotated sphere, and Q^T N the normal in the model
            offset = -(1.0 + abs(c) ** 2 - r * r)
            N = np.array([-2 * c.real, -2 * c.imag, abs(c) ** 2 - r * r - 1.0])
            scale = np.linalg.norm(N)
            worst = max(worst, abs(offset) / scale,
                        *(abs((Q.T @ N) @ X[v]) / scale for v in (a, b, 3 + side)))
            # the arc turns from the start through the midpoint to the end
            turn = 1.0 if sweep else -1.0
            angle = [(turn * cmath.phase((z - c) / (pen - c))) % (2 * math.pi)
                     for z in (drawn(X[3 + side]), end)]
            assert angle[0] < angle[1] and (angle[1] > math.pi) == large
            pen = end
    assert worst < 1e-9


def test_drawing_pole_stays_off_every_side():
    # the bound that the comment on triangle._DRAW_ROTATION states: the sine
    # of the angular distance from the drawing chart's pole to each side
    pole = tri._DRAW_ROTATION.T @ [0.0, 0.0, -1.0]
    drawn = [tri.tessellate(*klm)
             for klm in [(2, 3, 3), (2, 3, 4), (2, 3, 5), *((2, 2, n) for n in range(2, 61))]]
    for angles in itertools.product(map(Fraction, ["1/2", "1/3", "1/4", "1/5", "1/7", "2/3",
                                                   "3/4", "5/6"]), repeat=3):
        # the spherical triples that gauss schwarz-triangle accepts
        if sum(angles) > 1 and 1 + 2 * min(angles) > sum(angles):
            drawn.append(tri.triangle_from_angles(*(float(a) * math.pi for a in angles),
                                                  Geometry.SPHERICAL))
    assert len(drawn) == 63 + 228
    for tess in drawn:
        flip = np.where(tess.secondary, -1.0, 1.0)[:, None]
        b1, b2, c = tess.sides[1:]
        normals = np.stack([b1, b2 * flip, c * flip])
        sine = np.abs(np.tensordot(pole, normals, 1)) / np.linalg.norm(normals, axis=0)
        assert sine.min() > 0.0078


def test_ideal_triangle():
    t = tri.triangle_from_angles(0.0, 0.0, 0.0, Geometry.HYPERBOLIC)
    assert np.abs(np.abs(chart_points(t)[0, :3]) - 1.0).max() < 1e-14
    assert tri._orthogonality_residuals(t.sides).max() < 1e-12


def test_orthogonality_residual_is_relative():
    # a correct orthogonal circle of radius R, rounded to doubles, carries an
    # absolute error of about eps R^2 in |c|^2 - r^2 - 1
    R = 1e6
    center = math.sqrt(1.0 + R * R) * np.exp(0.3j)
    rows = [circle_row(center, R), circle_row(center, R * (1 + 1e-6))]
    residuals = tri._orthogonality_residuals(np.array(rows).T)
    assert residuals[0] <= 1e-12
    assert residuals[1] > 1e-9


def circle_through(*points):
    """(a, Re b, Im b, c) of the circle through three points, by _through."""
    z = np.array(points, complex)
    return tri._through(*np.stack([z.real, z.imag], axis=1))


def test_circle_through_three_points_keeps_small_circles():
    # a circle of radius 1e-4 next to the unit circle, the size of a deep tile side
    center, r = 0.9997 + 0.0002j, 1e-4
    circ = circle_through(*(center + r * np.exp(1j * t) for t in (0.4, 1.9, 3.7)))
    is_line, babs, centre = tri._circle_parts(circ)
    # the tangent directions, and so the measured angles, depend on the centre
    assert not is_line and abs(complex(*centre) - center) < 1e-14
    # the radius comes from |b|^2 - a c of the stored coefficients
    assert abs(tri._radii(circ, babs, ~is_line) - r) < 1e-11
    line = circle_through(0.2 + 0.1j, 0.6 + 0.3j, 1.0 + 0.5j)
    assert tri._circle_parts(line)[0]
    assert abs(side_values(line, np.array(-0.4 - 0.2j))) < 1e-15


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def growth_series(k, l, m, n):
    """Number of elements of each word length 0..n in the (k, l, m) triangle
    group, for an infinite group.  Steinberg's formula gives
    1/W(1/t) = 1 - 3/(1+t) + sum over the vertex orders q of 1/([2]_t [q]_t),
    since every proper parabolic subgroup is finite; in u = 1/t that is
    W(u) = D/N with D = (1+u)[k][l][m] and
    N = D - 3u[k][l][m] + u^k [l][m] + u^l [k][m] + u^m [k][l]."""
    def qint(q):
        return [1] * q

    def shift(p, s):
        return [0] * s + p

    def add(*ps):
        out = [0] * max(map(len, ps))
        for p in ps:
            for i, a in enumerate(p):
                out[i] += a
        return out

    kk, ll, mm = qint(k), qint(l), qint(m)
    klm = _times(_times(kk, ll), mm)
    D = _times([1, 1], klm)
    N = add(D, [-3 * a for a in shift(klm, 1)], shift(_times(ll, mm), k),
            shift(_times(kk, mm), l), shift(_times(kk, ll), m))
    assert N[0] == 1
    W = []
    for i in range(n + 1):
        di = D[i] if i < len(D) else 0
        W.append(di - sum(N[j] * W[i - j] for j in range(1, min(i, len(N) - 1) + 1)))
    return W


def test_growth_series_small_cases():
    # (2, 3, 7), length 2: the six words xy with x != y, less one for bc = cb
    assert growth_series(2, 3, 7, 4) == [1, 3, 5, 7, 9]
    # the Euclidean (3, 3, 3) group grows linearly: 3n tiles of length n >= 1
    assert growth_series(3, 3, 3, 8) == [1, 3, 6, 9, 12, 15, 18, 21, 24]


@pytest.mark.parametrize("klm,depth,total", [
    ((2, 3, 7), 20, 1108), ((2, 3, 7), 13, 303), ((3, 3, 4), 9, 281),
    ((2, 5, 5), 12, None), ((4, 4, 4), 13, 6718), ((2, 4, 4), 30, None),
])
def test_deep_tessellation_matches_growth_series(klm, depth, total):
    tess = tri.tessellate(*klm, max_word_length=depth)
    lengths = Counter(len(w) for w in tess.words)
    want = growth_series(*klm, depth)
    assert [lengths[n] for n in range(depth + 1)] == want
    assert tess.tile_count == sum(want) == (total or sum(want))
    assert tess.depth == depth and not tess.closure_reached
    assert tess.max_angle_residual() < 1e-8
    if tess.geometry is Geometry.HYPERBOLIC:
        assert tess.max_orthogonality_residual() < 1e-9
        assert np.all(np.abs(chart_points(tess)[:, :3]) < 1.0)
    argv = ["triangle", "tessellate", "--k", str(klm[0]), "--l", str(klm[1]),
            "--m", str(klm[2]), "--depth", str(depth), "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize("klm,depth", [((2, 3, 7), 12), ((2, 4, 4), 20)])
def test_tiles_match_reflections_in_the_base_sides(klm, depth):
    # the tile of the word w1...wn is the base triangle reflected in its sides
    # wn first, then ..., w1 last; reflect_point never sees the matrices
    tess = tri.tessellate(*klm, max_word_length=depth)
    base = base_triangle(*klm)
    mirrors = tile_circles(base, 0)
    tiles = chart_points(tess)[:, :3].tolist()
    for i in random.Random(11).sample(range(tess.tile_count), 60):
        verts = chart_points(base)[0, :3].tolist()
        for letter in reversed(tess.words[i]):
            mirror = mirrors["abc".index(letter)]
            verts = [reflect_point(v, mirror) for v in verts]
        assert max(abs(a - b) for a, b in zip(verts, tiles[i])) < 1e-9


@pytest.mark.parametrize("klm,depth,count,digest", [
    ((2, 3, 7), 10, 158, "a3bd7a673133be95c38b11c0af438213769d89d4c09dfbc22b05f11da77c13bf"),
    ((2, 4, 4), 12, 209, "31425a160da9d5a756c0a718be2452158938c82ad6e40b06405e134283ca6e05"),
    ((2, 3, 5), None, 120, "fd394fd0bb1ee498603411053de37b46f40a4abc8177b5cafe0c4d53ec86aec9"),
])
def test_word_lists_are_pinned(klm, depth, count, digest):
    # sha256 of the space-joined words the earlier three-point plane and
    # unit-vector sphere closures gave
    tess = tri.tessellate(*klm, max_word_length=depth)
    assert tess.tile_count == count
    assert hashlib.sha256(" ".join(tess.words).encode()).hexdigest() == digest


def test_budgets():
    full = tri.tessellate(2, 3, 7, max_word_length=8)
    capped = tri.tessellate(2, 3, 7, max_tiles=50)
    assert capped.tile_count == 50 and not capped.closure_reached
    assert capped.words == full.words[:50]
    assert tri.tessellate(2, 3, 5, max_tiles=120).closure_reached
    assert not tri.tessellate(2, 3, 5, max_tiles=119).closure_reached
    assert tri.tessellate(2, 3, 5, max_word_length=15).closure_reached
    assert not tri.tessellate(2, 3, 5, max_word_length=14).closure_reached
    assert tri.tessellate(2, 3, 7, max_word_length=0).words == ("",)


def test_residuals_see_tile_matrices_off_the_group(monkeypatch):
    # side circles are rebuilt from projected points, so tile matrices that
    # have drifted off O(2,1) show in the orthogonality residual
    closure = tri._closure

    def drifted(*args):
        mats, Y, words, cut = closure(*args)
        return np.diag([1 + 1e-6, 1.0, 1.0]) @ mats, Y, words, cut

    monkeypatch.setattr(tri, "_closure", drifted)
    assert tri.tessellate(2, 3, 7, max_word_length=6).max_orthogonality_residual() > 1e-9


# ---------------------------------------------------------------------------
# the per-tile path, written out as the oracle of the tile arrays: side
# circles, angles, residuals and SVG arcs one tile at a time in Python's
# scalar complex arithmetic


def oracle_through(z1, z2, z3):
    """(a, b, c) of the circle or line through three points."""
    w2, w3 = z2 - z1, z3 - z1
    det = 2 * (w2.real * w3.imag - w2.imag * w3.real)
    toward = -1j * (abs(w2) ** 2 * w3 - abs(w3) ** 2 * w2)
    if det == 0:
        return oracle_from_line(toward, (toward.conjugate() * z1).real / abs(toward))
    w = toward / det
    b, c = -(z1 + w), abs(z1) ** 2 + 2 * (z1.conjugate() * w).real
    scale = max(1.0, abs(b), abs(c))
    return 1.0 / scale, b / scale, c / scale


def oracle_from_line(normal, offset):
    return 0.0, normal / abs(normal), -2.0 * float(offset)


def oracle_line(va, vb):
    """The Euclidean side through two vertices."""
    chord = vb - va
    u = 1j * chord / abs(chord)
    return oracle_from_line(u, (u.conjugate() * va).real)


def oracle_is_line(side):
    a, b, c = side
    return abs(a) <= 1e-12 * max(abs(b), abs(c), 1.0)


def oracle_radius(side):
    a, b, c = side
    return math.sqrt((abs(b) ** 2 - a * c) / a**2)


def oracle_tangent(side, p, towards):
    a, b, c = side
    if oracle_is_line(side):
        tau = 1j * (b / abs(b))
    else:
        nu = p - (-b / a)
        tau = 1j * nu / abs(nu)
    if (tau.conjugate() * (towards - p)).real < 0:
        tau = -tau
    return tau


def oracle_angle_residual(vertices, midpoints, angles, sides):
    measured = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        t1 = oracle_tangent(sides[j], vertices[i], midpoints[j])
        t2 = oracle_tangent(sides[k], vertices[i], midpoints[k])
        measured.append(abs(cmath.phase(t1.conjugate() * t2)))
    return max(min(abs(a - b) for b in angles) for a in measured)


def oracle_orthogonality(side):
    a, b, c = side
    if oracle_is_line(side):
        return abs(-c / (2 * abs(b)))
    c2, r2 = abs(-b / a) ** 2, oracle_radius(side) ** 2
    return abs(c2 - r2 - 1.0) / (c2 + r2 + 1.0)


def oracle_arc(side, v_from, v_to, mid):
    fmt = tri._fmt
    if oracle_is_line(side):
        return f"L {fmt(v_to.real)} {fmt(v_to.imag)}"
    c, r = -side[1] / side[0], oracle_radius(side)
    th1, th2, thm = (cmath.phase(v - c) for v in (v_from, v_to, mid))
    ccw_to_mid = (thm - th1) % (2 * math.pi)
    ccw_to_end = (th2 - th1) % (2 * math.pi)
    sweep_ccw = ccw_to_mid <= ccw_to_end
    delta = ccw_to_end if sweep_ccw else (2 * math.pi - ccw_to_end)
    large = 1 if delta > math.pi else 0
    sweep = 1 if sweep_ccw else 0
    return f"A {fmt(r)} {fmt(r)} 0 {large} {sweep} {fmt(v_to.real)} {fmt(v_to.imag)}"


def oracle_tile_path(v, mids, sides):
    pieces = [f"M {tri._fmt(v[0].real)} {tri._fmt(v[0].imag)}"]
    for i in range(3):
        j, opp = (i + 1) % 3, (i + 2) % 3
        pieces.append(oracle_arc(sides[opp], v[i], v[j], mids[opp]))
    pieces.append("Z")
    return " ".join(pieces)


def oracle_sphere_paths(tess):
    """The path data of each tile of a spherical tessellation, one tile at a
    time from the arrays of the drawing chart, which
    test_spherical_svg_draws_every_tile_as_arcs checks on the sphere."""
    points, rows, pole = tri._drawing_chart(tess.points, tess.sides, tess.secondary)
    z = np.empty(points.shape[1:], complex)
    z.real, z.imag = points
    lo, hi = tri._fmt(-4.2), tri._fmt(4.2)
    frame = f"M {lo} {lo} L {hi} {lo} L {hi} {hi} L {lo} {hi} Z "
    return [frame * inside + oracle_tile_path(
                zt[:3], zt[3:], [(a, complex(br, bi), c) for a, br, bi, c in coeffs])
            for zt, coeffs, inside in zip(z.tolist(), rows.transpose(1, 2, 0).tolist(),
                                          pole.tolist())]


def check_against_oracle(tess, tmp_path):
    """Every side, residual and SVG path of tess against the per-tile
    oracle, each number compared by its float.hex."""
    def hexes(side):
        a, b, c = side
        return float(a).hex(), b.real.hex(), b.imag.hex(), float(c).hex()

    residuals, orthogonality, paths = [], [], []
    for z, coeffs in zip(chart_points(tess).tolist(), tess.sides.transpose(1, 2, 0).tolist()):
        vertices, mids = z[:3], z[3:6]
        built = [(a, complex(br, bi), c) for a, br, bi, c in coeffs]
        if tess.geometry is Geometry.SPHERICAL:
            sides = built                                  # great circles: pinned below
        else:
            ends = [(vertices[(i + 1) % 3], vertices[(i + 2) % 3]) for i in range(3)]
            if tess.geometry is Geometry.EUCLIDEAN:
                sides = [oracle_line(a, b) for a, b in ends]
            else:
                sides = [oracle_through(a, m, b) for (a, b), m in zip(ends, mids)]
            assert [hexes(s) for s in sides] == [hexes(s) for s in built]
        residuals.append(oracle_angle_residual(vertices, mids, tess.angles, sides))
        if tess.geometry is Geometry.HYPERBOLIC:
            orthogonality.extend(oracle_orthogonality(s) for s in sides)
        paths.append(oracle_tile_path(vertices, mids, sides))
    per_tile = tri._angle_residuals(tess.points, tess.sides, tess.angles).tolist()
    assert list(map(float.hex, per_tile)) == list(map(float.hex, residuals))
    assert tess.max_angle_residual().hex() == max(residuals).hex()
    # one tile alone, as a stack of one, reads the same bits as in the stack
    for i in random.Random(5).sample(range(tess.tile_count), min(tess.tile_count, 20)):
        alone = tri._angle_residuals(tess.points[:, [i]], tess.sides[:, [i]], tess.angles)
        assert alone.item().hex() == residuals[i].hex()
    if orthogonality:
        assert tess.max_orthogonality_residual().hex() == max(orthogonality).hex()
    if tess.geometry is Geometry.SPHERICAL:
        paths = oracle_sphere_paths(tess)
    svg = tri.export_svg(tess, tmp_path / "t.svg")
    assert [line.split('"')[1] for line in svg.splitlines() if line.startswith("<path")] == paths


@pytest.mark.parametrize("klm,depth", [
    ((2, 3, 3), None), ((2, 3, 4), None), ((2, 3, 5), None),
    ((3, 3, 3), 4), ((2, 4, 4), 4), ((2, 3, 6), 4),
    ((3, 3, 3), 12), ((2, 4, 4), 12), ((2, 3, 6), 12),
    # the benchmark's hyperbolic triples at their deepest passing depth
    ((2, 3, 7), 10), ((2, 4, 5), 10), ((2, 3, 8), 10), ((2, 5, 5), 8), ((3, 3, 4), 6),
    ((2, 3, 7), 30), ((4, 4, 4), 13),
])
def test_tile_arrays_match_per_tile_oracle(klm, depth, monkeypatch, tmp_path):
    monkeypatch.setattr(tri, "_fmt", float.hex)
    check_against_oracle(tri.tessellate(*klm, max_word_length=depth), tmp_path)


@settings(max_examples=60, deadline=None)
@given(klm=st.tuples(*[st.integers(2, 13)] * 3), depth=st.integers(0, 6))
def test_tile_arrays_match_per_tile_oracle_at_any_orders(klm, depth, tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tri, "_fmt", float.hex)
        check_against_oracle(tri.tessellate(*klm, max_word_length=depth),
                             tmp_path_factory.mktemp("svg"))


def tile_digest(tess):
    """Per tile: each chart point's (x, y), then each side's (a, Re b, Im b,
    c), in float.hex, then the chart."""
    h = hashlib.sha256()
    points = tess.points.transpose(1, 2, 0).reshape(tess.tile_count, 12).tolist()
    sides = tess.sides.transpose(1, 2, 0).reshape(tess.tile_count, 12).tolist()
    for p, s, secondary in zip(points, sides, tess.secondary.tolist()):
        chart = "secondary" if secondary else "primary"
        h.update((" ".join(map(float.hex, p + s)) + f" {chart}\n").encode())
    return h.hexdigest()


# the digests are not in the test ids, so a re-pin renames no test
TILE_DIGESTS = {
    ((2, 3, 3), None, 24): "5000e572730dd8720efb7f2bc231114bd8c6beea91e0334b2a7ae337c689d9bd",
    ((2, 3, 4), None, 48): "02f1fd00d020dc82e0f3a73e4aba322c852ee0f796cae99a1e1cb86c8a43c758",
    ((2, 3, 5), None, 120): "bf1624fc02992e676b1df97af6cebe00d827fda1c06b0b9a55b058f26bf895f6",
    ((2, 2, 6), None, 24): "65f327c2940c7514f6181501c07ef7f0aaa0a8ea2ad85d522eb102432971fdf3",
    ((3, 3, 3), 12, 235): "71344dacab37dfcc731b035010557e48e85c4713f3280071f0db4ac16e648437",
    ((2, 4, 4), 12, 209): "1646fd534ffb742e53edff8823498fd66a61b27b04dada83ca8f04bf3811b93d",
    ((2, 3, 6), 12, 189): "d6b3c433ddbe05f1c2cb21f00514dd1f65d1a817761d634fad209dc76d6fb02a",
    ((3, 3, 4), 9, 281): "6dd88c79404cf9fe9fba7c9cc6e5f6f77815dbfba88184f1dcd64f8f98200299",
    ((2, 3, 7), 30, 5951): "faf62bc81667ee61d0009cb0e95ea0d343bf1ff9f82f5c04615134cf895a50d0",
    ((4, 4, 4), 13, 6718): "1c9ab849fe488042c2f07a01901dc7eb05e5ab16cc4ffbd5e3ca8e0deb2b5b5a",
}


@pytest.mark.parametrize("klm,depth,count", TILE_DIGESTS)
def test_tiles_are_pinned(klm, depth, count):
    # sha256 of every vertex, midpoint, side (a, b, c) and chart, in
    # float.hex, as the per-tile construction built them
    tess = tri.tessellate(*klm, max_word_length=depth)
    assert tess.tile_count == count
    assert tile_digest(tess) == TILE_DIGESTS[klm, depth, count]


@pytest.mark.parametrize("angles", ["1/2 1/3 1/7", "0 1/3 1/2", "1/2 1/4 1/4",
                                    "1/2 1/3 1/5", "1/3 1/2 1/7", "0 0 0"])
def test_one_triangle_tessellation(angles, monkeypatch, tmp_path):
    # the gauss schwarz-triangle path: a single triangle as a one-tile tessellation
    angles = [Fraction(a) for a in angles.split()]
    geometry = tri.classify_angles(*angles)
    tess = tri.triangle_from_angles(*(float(a) * math.pi for a in angles), geometry)
    assert (tess.geometry, tess.words, tess.depth, tess.closure_reached) == (
        geometry, ("",), 0, True)
    assert not tess.secondary.any()
    assert tess.points.shape == (2, 1, 6)
    z = chart_points(tess)[0].tolist()
    sides = [(a, complex(br, bi), c) for a, br, bi, c in tile_circles(tess, 0)]
    residual = oracle_angle_residual(z[:3], z[3:6], tess.angles, sides)
    assert tess.max_angle_residual().hex() == residual.hex()
    monkeypatch.setattr(tri, "_fmt", float.hex)
    svg = tri.export_svg(tess, tmp_path / "t.svg")
    want = (oracle_sphere_paths(tess)[0] if geometry is Geometry.SPHERICAL
            else oracle_tile_path(z[:3], z[3:6], sides))
    assert svg.splitlines()[3].split('"')[1] == want


@pytest.mark.parametrize("argv", [
    ["--k", "2", "--l", "3", "--m", "5"],
    ["--k", "2", "--l", "4", "--m", "4", "--depth", "8"],
    ["--k", "2", "--l", "3", "--m", "7", "--depth", "8"],
])
def test_cli_builds_no_per_tile_objects(argv, monkeypatch, tmp_path):
    # the tiles are arrays alone, and tessellate reads only the base
    # triangle's vertices: no scalar side, arc midpoint or row reading
    called, inside = Counter(), []

    def counted(name):
        fn = getattr(tri, name)

        def spy(*args):
            called[name] += 1
            called[name, *inside] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(tri, name, spy)

    for name in ("_geodesic_side", "_arc_midpoint", "_circle"):
        counted(name)
    base_triangle(*(int(v) for v in argv[1:6:2]))
    assert called["_geodesic_side"] == called["_arc_midpoint"] == 3
    # the one triangle reads each side's row once, for its arc midpoint
    assert called["_circle"] == called["_circle", "_arc_midpoint"] == 3
    called.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["triangle", "tessellate", *argv, "--svg", str(tmp_path / "t.svg"),
                         "--json", str(tmp_path / "t.json")]) == 0
    assert not called


# ---------------------------------------------------------------------------
# the per-process memo of tessellate (tests/conftest.py empties it before
# each test)


def test_repeated_tessellate_returns_one_immutable_object():
    tess = tri.tessellate(2, 3, 7, max_word_length=6)
    assert tri.tessellate(2, 3, 7, max_word_length=6) is tess
    assert tri.tessellate(2, 3, 7, max_word_length=5) is not tess
    assert isinstance(tess.words, tuple)
    for array in (tess.points, tess.sides, tess.secondary):
        with pytest.raises(ValueError):
            array[..., 0] = 0
    with pytest.raises(AttributeError):
        tess.words = ()
    rep = tess.report()
    rep["tile_count"] = -1
    assert tess.report()["tile_count"] == tess.tile_count


@pytest.mark.parametrize("klm,depth", [((2, 3, 5), None), ((2, 4, 4), 8), ((2, 3, 7), 8)])
def test_memo_hit_matches_a_fresh_computation(klm, depth, tmp_path):
    def outputs(name):
        tess = tri.tessellate(*klm, max_word_length=depth)
        svg = tri.export_svg(tess, tmp_path / name)
        return tess, tile_digest(tess), tess.report(), svg, (tmp_path / name).read_bytes()

    first = outputs("first.svg")
    hit = outputs("hit.svg")
    tri._memo.clear()
    fresh = outputs("fresh.svg")
    assert hit[0] is first[0] and fresh[0] is not first[0]
    assert hit[1:] == first[1:] == fresh[1:]


def test_memo_keeps_its_tile_budget(monkeypatch):
    # one closure per group and budget, grown in place; the memo holds at
    # most _MEMO_TILES tiles, drops the least recently used closure past
    # that and never keeps one that grew larger
    monkeypatch.setattr(tri, "_MEMO_TILES", 130)

    def held():
        return [(key[:3], closure.tile_count) for key, closure in tri._memo.items()]

    tri.tessellate(2, 3, 3)                                     # 24 tiles
    shallow = tri.tessellate(2, 3, 7, max_word_length=4)        # 25
    tri.tessellate(2, 3, 4)                                     # 48
    assert held() == [((2, 3, 3), 24), ((2, 3, 7), 25), ((2, 3, 4), 48)]
    deeper = tri.tessellate(2, 3, 7, max_word_length=7)         # grows to 73: (2, 3, 3) goes
    assert deeper.words[:25] == shallow.words
    assert held() == [((2, 3, 4), 48), ((2, 3, 7), 73)]
    big = tri.tessellate(2, 3, 7, max_word_length=10)           # grows to 158: not kept
    assert big.tile_count > 130 and held() == [((2, 3, 4), 48)]
    assert tri.tessellate(2, 3, 7, max_word_length=10) is not big
    assert tri.tessellate(2, 3, 7, max_word_length=4) is not shallow

    tri._memo.clear()
    a = tri.tessellate(2, 3, 3)                             # 24 tiles
    b = tri.tessellate(2, 3, 4)                             # 48
    c = tri.tessellate(2, 2, 7)                             # 28
    assert tri.tessellate(2, 3, 3) is a                     # now b is the least recent
    d = tri.tessellate(2, 2, 9)                             # 36: 136 tiles, b goes
    assert [t.tile_count for t in (a, b, c, d)] == [24, 48, 28, 36]
    assert held() == [((2, 2, 7), 28), ((2, 3, 3), 24), ((2, 2, 9), 36)]
    assert tri.tessellate(2, 3, 4) is not b


def served(requests, tmp_path):
    """Per request (klm, max_tiles, depth), in order: the words, depth,
    closure flag, tile_digest, report and SVG bytes of the tessellation."""
    out = []
    for klm, max_tiles, depth in requests:
        tess = tri.tessellate(*klm, max_tiles=max_tiles, max_word_length=depth)
        tri.export_svg(tess, tmp_path / "t.svg")
        out.append((tess.words, tess.depth, tess.closure_reached, tile_digest(tess),
                    tess.report(), (tmp_path / "t.svg").read_bytes()))
    return out


_FRESH = {}


def fresh_sweeps(requests, tmp_path):
    """served, with the memo emptied before each call: a fresh sweep to
    each depth, computed once per request in this test run."""
    for request in requests:
        if request not in _FRESH:
            tri._memo.clear()
            [_FRESH[request]] = served([request], tmp_path)
    return [_FRESH[request] for request in requests]


# the benchmark's triples, each with the depths its tessellate ops take
WORKLOAD_DEPTHS = {
    (2, 3, 3): [None], (2, 3, 4): [None], (2, 3, 5): [None],
    **{klm: range(4, 13) for klm in ((3, 3, 3), (2, 4, 4), (2, 3, 6))},
    (2, 3, 7): range(4, 14), (2, 4, 5): range(4, 11), (2, 3, 8): range(4, 11),
    (2, 5, 5): range(4, 9), (3, 3, 4): range(4, 10),
}


@pytest.mark.parametrize("order", ["deep_first", "shallow_first", "interleaved", "repeated"])
def test_every_depth_is_a_prefix_of_one_closure(order, tmp_path):
    # each depth read from the one closure of its group, in any request
    # order, gives the bytes of a fresh sweep to that depth
    requests = [(klm, 20000, d) for klm, depths in WORKLOAD_DEPTHS.items() for d in depths]
    if order == "deep_first":
        requests.sort(key=lambda r: -1 if r[2] is None else -r[2])
    elif order == "interleaved":
        random.Random(7).shuffle(requests)
    elif order == "repeated":
        requests = [r for r in requests for _ in range(2)]
        random.Random(8).shuffle(requests)
    assert served(requests, tmp_path) == fresh_sweeps(requests, tmp_path)


# (2, 3, 7) has 25, 37 and 53 tiles to word lengths 4, 5 and 6, and (2, 3, 5)
# closes at word length 15 with 120 tiles; want is (tiles, depth, closure
# reached) per requested depth
@pytest.mark.parametrize("klm, max_tiles, depths, want", [
    # a cut inside level 6: above, at and below the requested level
    ((2, 3, 7), 50, [4, 6, 8, None], [(25, 4, False), (50, 6, False), (50, 6, False),
                                      (50, 6, False)]),
    # a cut at the end of level 5: the next level has no room at all
    ((2, 3, 7), 37, [4, 5, 6, None], [(25, 4, False), (37, 5, False), (37, 5, False),
                                      (37, 5, False)]),
    # the spherical closure: open below level 15, closed at and past it
    ((2, 3, 5), 20000, [14, 15, 16, None], [(119, 14, False), (120, 15, True),
                                            (120, 15, True), (120, 15, True)]),
    ((2, 3, 5), 120, [14, 15, None], [(119, 14, False), (120, 15, True), (120, 15, True)]),
    ((2, 3, 5), 119, [14, 15, None], [(119, 14, False), (119, 14, False), (119, 14, False)]),
])
def test_prefix_budget_and_closure_read_as_a_fresh_sweep(klm, max_tiles, depths, want, tmp_path):
    fresh = fresh_sweeps([(klm, max_tiles, d) for d in depths], tmp_path)
    assert [(len(words), depth, closed) for words, depth, closed, *_ in fresh] == want
    for order in (depths, depths[::-1], depths[1::2] + depths[::2]):
        tri._memo.clear()
        requests = [(klm, max_tiles, d) for d in order]
        assert served(requests, tmp_path) == fresh_sweeps(requests, tmp_path)


def test_cli_repeated_in_one_process_writes_the_same_bytes(tmp_path):
    outs = []
    for run in ("1", "2"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7",
                             "--depth", "8", "--svg", str(tmp_path / f"t{run}.svg"),
                             "--json", str(tmp_path / f"t{run}.json")]) == 0
        # the report names its SVG file
        outs.append(out.getvalue().replace(str(tmp_path / f"t{run}.svg"), "t.svg"))
    assert tri._memo
    assert outs[0] == outs[1]
    for ext in ("svg", "json"):
        assert (tmp_path / f"t1.{ext}").read_bytes() == (tmp_path / f"t2.{ext}").read_bytes()
