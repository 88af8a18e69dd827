"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import cmath
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from schwarz_atlas import gauss, roots, schwarzcond, torus, triangle


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_solution_table():
    t0 = time.monotonic()
    results = schwarzcond.enumerate_solutions(p_min=3, p_max=100, rank_max=13,
                                              include_k_half=False)
    diff = results["table_diff"]
    elapsed = time.monotonic() - t0
    ok = (
        diff["extra"] == [[3, "A5"]]
        and diff["missing"] == [[6, "A5"]]
        and {int(p) for p in results["rows"]} == {3, 4, 6, 10}
        and elapsed < 1.0
    )
    _verdict(1, ok, f"table diff {diff}, {elapsed:.2f}s")


def test_criterion_2_integrability_constants():
    t0 = time.monotonic()
    worst_flat = 0.0
    worst_perturbed = math.inf
    for fam, rank in [("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6)]:
        system = roots.build(roots.RootSystemType(fam, rank))
        for k in (F(1, 6), F(1, 4)):
            samples = torus.sample_points_near(system, torus.default_base_point(system), 5,
                                               seed=42)
            a_bad = roots.integrability_constant(system) + F(1, 10)
            for lz in samples:
                worst_flat = max(worst_flat, torus.flatness_residual(system, k, lz))
                worst_perturbed = min(
                    worst_perturbed,
                    torus.flatness_residual(system, k, lz, a_override=a_bad))
    elapsed = time.monotonic() - t0
    ok = worst_flat < 1e-8 and worst_perturbed > 1e-3 and elapsed < 30.0
    _verdict(2, ok, f"flat {worst_flat:.2e}, perturbed {worst_perturbed:.2e}, {elapsed:.1f}s")


def test_criterion_3_hecke_relation():
    t0 = time.monotonic()
    k = F(1, 4)
    worst = 0.0
    for fam, rank in [("A", 1), ("A", 2), ("D", 4)]:
        system = roots.build(roots.RootSystemType(fam, rank))
        alpha = np.eye(rank, dtype=np.int64)[0]
        M = torus.mirror_monodromy(system, k, alpha)
        worst = max(worst, torus.hecke_residual(M, k))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _verdict(3, ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_lorentz_form_and_ball():
    a2 = roots.build(roots.RootSystemType("A", 2))
    ok = True
    detail = []
    for k in (F(1, 6), F(1, 4), F(2, 5)):
        form = torus.invariant_form(torus.hecke_generators(a2, k))
        samples = torus.sample_points_near(a2, torus.hecke_base_point(a2), 10, seed=0)
        ball = torus.ball_check(a2, k, form, samples)
        negative = all(v < 0 for v in ball)
        good = form.signature == (2, 1) and form.residual < 1e-6 and negative
        ok = ok and good
        detail.append(f"k={k}: sig{form.signature} res {form.residual:.1e} "
                      f"ball {negative}")
    _verdict(4, ok, "; ".join(detail))


def test_ball_quotient_at_every_enumerated_row():
    # every row of `schwarz enumerate --rank-max 8` (21 rows at p = 3, 4, 6
    # and 10) gives a one-dimensional form space, signature (n, 1), a
    # negative base pairing and negative ball values.  The two documented
    # anomalies sit beside their exact verdicts: A5 at p = 3, enumerated but
    # not in the reference table, reads a ball quotient too; A5 at p = 6, in
    # the table but at k = m, has a form space of dimension 2.
    t0 = time.monotonic()
    results = schwarzcond.enumerate_solutions(p_min=3, p_max=100, rank_max=8,
                                              include_k_half=False)
    assert results["table_diff"] == {"extra": [[3, "A5"]], "missing": [[6, "A5"]]}
    failed, pairings, gaps, count = [], [], [], 0
    for p, row in results["rows"].items():
        k = schwarzcond.k_from_p(int(p))
        for name in row:
            count += 1
            system = roots.build(roots.RootSystemType(name[0], int(name[1:])))
            form = torus.invariant_form(torus.hecke_generators(system, k))
            pairing = float(np.linalg.inv(form.matrix)[0, 0].real)
            samples = torus.sample_points_near(system, torus.hecke_base_point(system), 10, seed=0)
            ball = torus.ball_check(system, k, form, samples)
            pairings.append(pairing)
            gaps.append(form.singular_values[-2] / form.singular_values[0])
            if not (form.signature == (system.rank, 1) and pairing < 0
                    and all(v < 0 for v in ball)):
                failed.append((p, name, form.signature, pairing, max(ball)))
    a5 = roots.build(roots.RootSystemType("A", 5))
    assert "A5" in results["rows"]["3"]
    assert schwarzcond.check(a5.rtype, schwarzcond.k_from_p(3))["passed"] is True
    exact = schwarzcond.check(a5.rtype, schwarzcond.k_from_p(6))
    assert exact["passed"] is False
    assert exact["conditions"][0]["detail"].endswith("(boundary k = m)")
    with pytest.raises(torus.InvariantFormError) as info:
        torus.invariant_form(torus.hecke_generators(a5, schwarzcond.k_from_p(6)))
    assert info.value.dimension == 2
    elapsed = time.monotonic() - t0
    ok = count == 21 and not failed
    print(f"ball quotients: {count - len(failed)}/{count} rows, base pairings "
          f"{max(pairings):.3g} to {min(pairings):.3g}, next singular value "
          f"at least {min(gaps):.1e}, {elapsed:.1f}s")
    assert ok, failed


def test_criterion_5_triangle_angles():
    t0 = time.monotonic()
    p = gauss.params_from_differences(F(1, 2), F(1, 3), F(1, 7))
    angles = gauss.vertex_angles(p)
    expected = (math.pi / 2, math.pi / 3, math.pi / 7)
    worst = max(abs(a - b) for a, b in zip(angles, expected))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _verdict(5, ok, f"worst angle error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_monodromy_relation_and_spectra():
    rng = np.random.default_rng(2026)
    worst_rel = 0.0
    worst_spec = 0.0
    count = 0
    while count < 20:
        p = gauss.GaussParams(
            F(int(rng.integers(-10, 11)), int(rng.integers(2, 13))),
            F(int(rng.integers(-10, 11)), int(rng.integers(2, 13))),
            F(int(rng.integers(-10, 11)), int(rng.integers(2, 13))),
        )
        if p.log_case:
            continue
        count += 1
        loops = gauss.monodromy_matrices(p)
        worst_rel = max(worst_rel, oracles.monodromy_relation_residual(
            loops[0], loops[1], loops["inf"]))
        for s, M in loops.items():
            worst_spec = max(worst_spec, oracles.spectrum_mismatch(
                M, gauss.expected_monodromy_spectrum(p, s)))
    ok = worst_rel < 1e-7 and worst_spec < 1e-6
    _verdict(6, ok, f"relation {worst_rel:.2e}, spectra {worst_spec:.2e}")


def test_criterion_7_pullback():
    pb = oracles.PullbackParams(F(1, 5), F(1, 7), F(1, 3))
    worst = 0.0
    for r in (1.6, 1.8, 2.0, 2.2, 2.4):
        for th in (0.6, 1.1, 1.6, 2.1, 2.6):
            worst = max(worst, oracles.pullback_ode_residual(pb, r * cmath.exp(1j * th)))
    # exact dictionary round trip
    rng = np.random.default_rng(7)
    round_trips = all(
        oracles.dictionary_inverse(oracles.dictionary(q)) == q
        for q in (
            oracles.PullbackParams(
                F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
                F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))),
                F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))))
            for _ in range(50)
        )
    )
    # rank-one specialization reproduces the reduced operator coefficients
    k = F(1, 4)
    a1 = roots.build(roots.RootSystemType("A", 1))
    spec_ok = True
    for z in (1.7 + 0.4j, -2.2 + 1.1j, 0.3 + 1.9j):
        c1, c0 = oracles.pullback_coefficients(oracles.PullbackParams(k, F(0), F(0)), z)
        conn = oracles.connection(a1, k, np.log([1.0 / z]))
        spec_ok = spec_ok and abs(c1 + conn[0, 1, 1]) < 1e-12
        spec_ok = spec_ok and oracles.exact_scalar(a1, k) == [[k**2 / 4]]
    ok = worst < 1e-8 and round_trips and spec_ok
    _verdict(7, ok, f"grid residual {worst:.2e}, round trips {round_trips}, "
                    f"rank-one match {spec_ok}")


def test_criterion_8_tessellation_closure():
    counts = {}
    for klm, want in [((2, 3, 3), 24), ((2, 3, 4), 48), ((2, 3, 5), 120)]:
        tess = triangle.tessellate(*klm)
        counts[klm] = (tess.tile_count, want, tess.closure_reached)
    hyp = triangle.tessellate(2, 3, 7, max_word_length=6)
    inside = bool(np.all(np.hypot(*hyp.points[..., :3]) < 1.0))
    ortho = hyp.max_orthogonality_residual()
    ok = (all(got == want and closed for got, want, closed in counts.values())
          and inside and ortho < 1e-9)
    _verdict(8, ok, f"counts {[(k, v[0]) for k, v in counts.items()]}, "
                    f"disc containment {inside}, orthogonality {ortho:.2e}")


def test_criterion_9_weight_equivalence():
    t0 = time.monotonic()
    results = schwarzcond.dm_equivalence_scan(n_max=10, p_max=60)
    identities = results["identities_hold"]
    agreement = results["verdicts_agree"]
    cases = {tuple(case) for case in results["hidden_symmetry_cases"]}
    hidden = cases == {(4, 5), (6, 3), (10, 2)}
    elapsed = time.monotonic() - t0
    ok = identities and agreement and hidden and elapsed < 5.0
    _verdict(9, ok, f"identities {identities}, agreement {agreement}, "
                    f"hidden {sorted(cases)}, {elapsed:.2f}s")
