"""Arc triangles, reflections and tessellation closure."""

import cmath
import contextlib
import hashlib
import io
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_atlas import cli
from schwarz_atlas import triangle as tri
from schwarz_atlas.triangle import Geometry, GeneralizedCircle, reflect_point


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
    t = tri.build_triangle(2, 3, 7)
    measured = t.measured_angles()
    for got, want in zip(measured, (math.pi / 2, math.pi / 3, math.pi / 7)):
        assert abs(got - want) < 1e-10
    assert t.incidence_residual() < 1e-10
    # geodesic sides: |center|^2 = 1 + r^2 or diameters through the origin
    for s in t.sides:
        assert s.unit_circle_orthogonality_residual() < 1e-10


def test_build_euclidean_triangle():
    t = tri.build_triangle(2, 4, 4)
    assert t.max_angle_residual() < 1e-10
    assert all(s.is_line for s in t.sides)


def test_build_spherical_octant():
    t = tri.build_triangle(2, 2, 2)
    assert t.vertices[0] == 0
    assert abs(t.vertices[1] - 1) < 1e-14
    assert abs(t.vertices[2] - 1j) < 1e-14
    assert t.max_angle_residual() < 1e-12


def test_reflect_point_cases():
    unit = GeneralizedCircle.from_center_radius(0.0, 1.0)
    assert abs(reflect_point(2.0 + 0j, unit) - 0.5) < 1e-15
    rng = np.random.default_rng(0)
    line = GeneralizedCircle.from_line(1j * np.exp(0.3j), 0.25)
    for _ in range(50):
        p = complex(rng.normal(), rng.normal())
        for circ in (unit, line):
            assert abs(reflect_point(reflect_point(p, circ), circ) - p) < 1e-13
    # points on the circle are fixed
    on = np.exp(0.77j)
    assert abs(reflect_point(on, unit) - on) < 1e-15


def test_reflect_circle_involution():
    mirror = GeneralizedCircle.from_center_radius(0.3 + 0.2j, 0.8)
    target = GeneralizedCircle.from_center_radius(-0.4 + 0.9j, 0.5)
    once = tri.reflect_circle(target, mirror)
    twice = tri.reflect_circle(once, mirror)
    assert abs(twice.center - target.center) < 1e-10
    assert abs(twice.radius - target.radius) < 1e-10


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
    for t in tess.tiles:
        for v in t.vertices:
            assert abs(v) < 1.0
    assert tess.max_angle_residual() < 1e-8


def test_orthogonal_circle_residuals():
    for klm in [(2, 3, 7), (3, 3, 4)]:
        tess = tri.tessellate(*klm, max_word_length=5)
        circle, residual = tri.orthogonal_circle(tess)
        assert abs(circle.radius - 1.0) < 1e-15
        assert residual < 1e-9
    with pytest.raises(ValueError):
        tri.orthogonal_circle(tri.tessellate(2, 3, 3))


def test_tile_interiors_disjoint():
    tess = tri.tessellate(2, 3, 7, max_word_length=6)
    centers = [t.interior_point for t in tess.tiles]
    for i, t in enumerate(tess.tiles):
        for j, c in enumerate(centers):
            if i == j:
                continue
            assert not t.contains(c, margin=1e-9), (i, j)


def test_word_ordering():
    tess = tri.tessellate(2, 3, 7, max_word_length=3)
    words = tess.words
    assert words[0] == ""
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_angles_preserved_along_words():
    tess = tri.tessellate(2, 3, 7, max_word_length=5)
    want = {math.pi / 2, math.pi / 3, math.pi / 7}
    for t in tess.tiles:
        for a in t.measured_angles():
            assert min(abs(a - w) for w in want) < 1e-8


def test_svg_deterministic_and_structured(tmp_path):
    tess = tri.tessellate(2, 3, 7, max_word_length=6)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    data1 = tri.export_svg(tess, p1)
    data2 = tri.export_svg(tess, p2)
    assert data1 == data2
    assert p1.read_bytes() == p2.read_bytes()
    assert data1.count("<path") == tess.tile_count
    assert "<circle" in data1  # the bounding circle of the disc model


def test_svg_rejects_empty(tmp_path):
    tess = tri.Tessellation(geometry=Geometry.HYPERBOLIC, words=[], depth=0,
                            closure_reached=False, angles=(), points=np.empty((2, 0, 7)),
                            sides=np.empty((4, 0, 3)), secondary=np.empty(0, bool))
    with pytest.raises(ValueError):
        tri.export_svg(tess, tmp_path / "x.svg")


def test_spherical_svg_renders_all_tiles(tmp_path):
    tess = tri.tessellate(2, 3, 3)
    data = tri.export_svg(tess, tmp_path / "s.svg")
    assert data.count("<path") == tess.tile_count


def oracle_sphere_path(t, clip=8.0, samples=48):
    """The sampled spherical path drawn point by point: one slerp, one
    np.linalg.norm and one projection per sample."""
    pieces = []
    pen_down = False
    for i in range(3):
        j = (i + 1) % 3
        opp = (i + 2) % 3
        a = tri._unproject(t.vertices[i], t.chart)
        b = tri._unproject(t.vertices[j], t.chart)
        mid = tri._unproject(t.side_midpoints[opp], t.chart)
        for step in range(samples + 1):
            s = step / samples
            if s <= 0.5:
                p0, p1, f = a, mid, 2 * s
            else:
                p0, p1, f = mid, b, 2 * s - 1
            omega = math.acos(max(-1.0, min(1.0, float(p0 @ p1))))
            if omega < 1e-12:
                v = p0
            else:
                v = (math.sin((1 - f) * omega) * p0 + math.sin(f * omega) * p1) / math.sin(omega)
            z = tri._project(v / np.linalg.norm(v))
            if math.isfinite(z.real) and abs(z) <= clip:
                pieces.append(f"{'L' if pen_down else 'M'} {tri._fmt(z.real)} {tri._fmt(z.imag)}")
                pen_down = True
            else:
                pen_down = False
    return " ".join(pieces) if pieces else "M 0 0"


@pytest.mark.parametrize("exact", [False, True], ids=["svg", "bitwise"])
@pytest.mark.parametrize("klm", [(2, 3, 3), (2, 3, 4), (2, 3, 5)])
def test_sampled_sphere_path_matches_pointwise_oracle(klm, exact, monkeypatch):
    if exact:
        # every coordinate written in full, so that no bit of a point can move
        monkeypatch.setattr(tri, "_fmt", float.hex)
    tiles = tri.tessellate(*klm).tiles
    secondary = [t for t in tiles if t.chart == "secondary"]
    assert secondary
    for t in tiles:
        drawn = tri._sampled_sphere_path(t.vertices, t.side_midpoints, t.chart)
        assert drawn == oracle_sphere_path(t)


def test_ideal_triangle():
    t = tri.triangle_from_angles(0.0, 0.0, 0.0)
    for v in t.vertices:
        assert abs(abs(v) - 1.0) < 1e-14
    for s in t.sides:
        assert s.unit_circle_orthogonality_residual() < 1e-12


def test_orthogonality_residual_is_relative():
    # a correct orthogonal circle of radius R, rounded to doubles, carries an
    # absolute error of about eps R^2 in |c|^2 - r^2 - 1
    R = 1e6
    center = math.sqrt(1.0 + R * R) * np.exp(0.3j)
    exact = GeneralizedCircle.from_center_radius(center, R)
    assert exact.unit_circle_orthogonality_residual() <= 1e-12
    off = GeneralizedCircle.from_center_radius(center, R * (1 + 1e-6))
    assert off.unit_circle_orthogonality_residual() > 1e-9


def test_circle_through_three_points_keeps_small_circles():
    # a circle of radius 1e-4 next to the unit circle, the size of a deep tile side
    center, r = 0.9997 + 0.0002j, 1e-4
    pts = [center + r * np.exp(1j * t) for t in (0.4, 1.9, 3.7)]
    circ = GeneralizedCircle.through(*pts)
    # the tangent directions, and so the measured angles, depend on the centre
    assert abs(circ.center - center) < 1e-14
    # the radius comes from |b|^2 - a c of the stored coefficients
    assert abs(circ.radius - r) < 1e-11
    line = GeneralizedCircle.through(0.2 + 0.1j, 0.6 + 0.3j, 1.0 + 0.5j)
    assert line.is_line
    assert abs(line.eval(-0.4 - 0.2j)) < 1e-15


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
        assert all(abs(v) < 1.0 for t in tess.tiles for v in t.vertices)
    argv = ["triangle", "tessellate", "--k", str(klm[0]), "--l", str(klm[1]),
            "--m", str(klm[2]), "--depth", str(depth), "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize("klm,depth", [((2, 3, 7), 12), ((2, 4, 4), 20)])
def test_tiles_match_reflections_in_the_base_sides(klm, depth):
    # the tile of the word w1...wn is the base triangle reflected in its sides
    # wn first, then ..., w1 last; reflect_point never sees the matrices
    tess = tri.tessellate(*klm, max_word_length=depth)
    base = tri.build_triangle(*klm)
    for i in random.Random(11).sample(range(tess.tile_count), 60):
        verts = base.vertices
        for letter in reversed(tess.words[i]):
            mirror = base.sides["abc".index(letter)]
            verts = tuple(reflect_point(v, mirror) for v in verts)
        assert max(abs(a - b) for a, b in zip(verts, tess.tiles[i].vertices)) < 1e-9


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
    assert tri.tessellate(2, 3, 7, max_word_length=0).words == [""]


def test_residuals_see_tile_matrices_off_the_group(monkeypatch):
    # side circles are rebuilt from projected points, so tile matrices that
    # have drifted off O(2,1) show in the orthogonality residual
    closure = tri._closure

    def drifted(*args):
        mats, words, closed = closure(*args)
        return np.diag([1 + 1e-6, 1.0, 1.0]) @ mats, words, closed

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


def oracle_angle_residual(t, sides):
    measured = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        t1 = oracle_tangent(sides[j], t.vertices[i], t.side_midpoints[j])
        t2 = oracle_tangent(sides[k], t.vertices[i], t.side_midpoints[k])
        measured.append(abs(cmath.phase(t1.conjugate() * t2)))
    return max(min(abs(a - b) for b in t.angles) for a in measured)


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


def oracle_tile_path(t, sides):
    v, mids = t.vertices, t.side_midpoints
    pieces = [f"M {tri._fmt(v[0].real)} {tri._fmt(v[0].imag)}"]
    for i in range(3):
        j, opp = (i + 1) % 3, (i + 2) % 3
        pieces.append(oracle_arc(sides[opp], v[i], v[j], mids[opp]))
    pieces.append("Z")
    return " ".join(pieces)


def check_against_oracle(tess, tmp_path):
    """Every side, residual and SVG path of tess against the per-tile
    oracle, each number compared by its float.hex."""
    def hexes(side):
        a, b, c = side
        return float(a).hex(), b.real.hex(), b.imag.hex(), float(c).hex()

    residuals, orthogonality, paths = [], [], []
    for t in tess.tiles:
        if tess.geometry is Geometry.SPHERICAL:
            sides = [(s.a, s.b, s.c) for s in t.sides]     # great circles: pinned below
        else:
            ends = [(t.vertices[(i + 1) % 3], t.vertices[(i + 2) % 3]) for i in range(3)]
            if tess.geometry is Geometry.EUCLIDEAN:
                sides = [oracle_line(a, b) for a, b in ends]
            else:
                sides = [oracle_through(a, m, b) for (a, b), m in zip(ends, t.side_midpoints)]
            assert [hexes(s) for s in sides] == [hexes((s.a, s.b, s.c)) for s in t.sides]
        residuals.append(oracle_angle_residual(t, sides))
        if tess.geometry is Geometry.HYPERBOLIC:
            orthogonality.extend(oracle_orthogonality(s) for s in sides)
        sampled = tess.geometry is Geometry.SPHERICAL and (
            t.chart == "secondary" or any(abs(v) > 4.0 for v in t.vertices))
        paths.append(oracle_sphere_path(t) if sampled else oracle_tile_path(t, sides))
    per_tile = tri._angle_residuals(tess.points, tess.sides, tess.angles).tolist()
    assert list(map(float.hex, per_tile)) == list(map(float.hex, residuals))
    assert tess.max_angle_residual().hex() == max(residuals).hex()
    for i in random.Random(5).sample(range(tess.tile_count), min(tess.tile_count, 20)):
        assert tess.tiles[i].max_angle_residual().hex() == residuals[i].hex()
    if orthogonality:
        assert tess.max_orthogonality_residual().hex() == max(orthogonality).hex()
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


def tile_digest(tiles):
    h = hashlib.sha256()
    for t in tiles:
        points = [*t.vertices, *t.side_midpoints, t.interior_point]
        values = [x for z in points for x in (z.real, z.imag)]
        values += [x for s in t.sides for x in (s.a, s.b.real, s.b.imag, s.c)]
        h.update((" ".join(float.hex(float(v)) for v in values) + f" {t.chart}\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("klm,depth,count,digest", [
    ((2, 3, 3), None, 24, "d87da98219c2d10dbf73c89bf6ffd65f2c3ef4bdddc650a0c8c031f6b3a12410"),
    ((2, 3, 4), None, 48, "1d0bd94f85a4940bf0b6cce801a2e6cc6dd64c6a9d40c299a4a7d2bdd037550f"),
    ((2, 3, 5), None, 120, "81bac6be89d4c93cff56a0749fbf1b1c1d986b98ab2eaa455520cccf2b70caf0"),
    ((2, 2, 6), None, 24, "e447a5aff74a5fa626bf3a5bc228437703e9e95d0039ab3a4f0cf660af2a69dd"),
    ((3, 3, 3), 12, 235, "3f9a64feb2d1d7d5ce853f3d43312f308bde9a8e575f66a373bac0fb2499a9e8"),
    ((2, 4, 4), 12, 209, "db10da6739e1c23e3977da8b88810abf3e787f53b7d314eaa6f28f5aea2881b8"),
    ((2, 3, 6), 12, 189, "5c6c7d262fc678e1533510a6500a677666b45bcea512741a782239a73b810235"),
    ((3, 3, 4), 9, 281, "f96735ac716fc70a45633fb50e3b2192f188f275fe76ee0a991a824e49dd1abc"),
    ((2, 3, 7), 30, 5951, "e6076b643e669d82d29ed976451ba182a9b30f24c6ae809f06a1a9bd8207fe6d"),
    ((4, 4, 4), 13, 6718, "7419eaad2abe5e29297f4945517a08f6113111b93b2fd65c946f736c754c64b8"),
])
def test_tiles_are_pinned(klm, depth, count, digest):
    # sha256 of every vertex, midpoint, interior point, side (a, b, c) and
    # chart, in float.hex, as the per-tile construction built them
    tess = tri.tessellate(*klm, max_word_length=depth)
    assert tess.tile_count == count
    assert tile_digest(tess.tiles) == digest
    assert tess.base == tess.tiles[0]


@pytest.mark.parametrize("angles", ["1/2 1/3 1/7", "0 1/3 1/2", "1/2 1/4 1/4",
                                    "1/2 1/3 1/5", "1/3 1/2 1/7"])
def test_one_triangle_tessellation(angles, monkeypatch, tmp_path):
    # the gauss schwarz-triangle path: a single triangle as a one-tile tessellation
    angles = [Fraction(a) for a in angles.split()]
    geometry = tri.classify_angles(*angles)
    t = tri.triangle_from_angles(*(float(a) * math.pi for a in angles), geometry)
    tess = tri.Tessellation.from_triangle(t, geometry)
    assert tess.base == t and tess.tiles == [t]
    sides = [(s.a, s.b, s.c) for s in t.sides]
    assert t.max_angle_residual().hex() == oracle_angle_residual(t, sides).hex()
    assert tess.max_angle_residual() == t.max_angle_residual()
    monkeypatch.setattr(tri, "_fmt", float.hex)
    svg = tri.export_svg(tess, tmp_path / "t.svg")
    assert svg.splitlines()[3].split('"')[1] == oracle_tile_path(t, sides)


@pytest.mark.parametrize("argv", [
    ["--k", "2", "--l", "3", "--m", "5"],
    ["--k", "2", "--l", "4", "--m", "4", "--depth", "8"],
    ["--k", "2", "--l", "3", "--m", "7", "--depth", "8"],
])
def test_cli_builds_no_per_tile_objects(argv, monkeypatch, tmp_path):
    built = Counter()

    def counted(cls):
        init = cls.__init__

        def spy(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)

    counted(tri.ArcTriangle)
    counted(tri.GeneralizedCircle)
    tri.build_triangle(*(int(v) for v in argv[1:6:2]))
    base = Counter(built)
    assert base == {"ArcTriangle": 1, "GeneralizedCircle": 3}
    built.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["triangle", "tessellate", *argv, "--svg", str(tmp_path / "t.svg"),
                         "--json", str(tmp_path / "t.json")]) == 0
    assert built == base
