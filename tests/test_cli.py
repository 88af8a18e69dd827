"""Command-line surface: exit codes, determinism, report schema."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from schwarz_atlas import cli, roots, torus


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_enumerate_text_rows():
    code, out = run_cli(["schwarz", "enumerate", "--p-max", "10"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 4
    assert lines[0].startswith("p =   3 :")
    assert lines[-1] == "p =  10 : A2"


def test_enumerate_csv():
    code, out = run_cli(["schwarz", "enumerate", "--p-max", "10", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "p,type"
    assert "3,A2" in rows and "10,A2" in rows


def test_enumerate_json_and_schema():
    code, out = run_cli(["schwarz", "enumerate", "--p-max", "12", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.report_schema())
    assert payload["results"]["documented_anomalies_only"] is True


def test_byte_identical_reruns():
    argv = ["schwarz", "enumerate", "--p-max", "30", "--format", "json"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_roots_dump_json():
    code, out = run_cli(["roots", "dump", "--type", "E", "--rank", "7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.report_schema())
    res = payload["results"]
    assert res["positive_root_count"] == 63
    assert res["coxeter_number"] == 18
    assert res["toric_distances"] == [1, 2, 3]


def test_gauss_monodromy_exit_codes():
    code, out = run_cli(["gauss", "monodromy", "--alpha", "1/84", "--beta", "13/84",
                         "--gamma", "1/2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.report_schema())
    assert payload["residuals"]["relation_residual"] < 1e-7
    # impossible tolerance forces the numeric-failure exit code
    code, _ = run_cli(["gauss", "monodromy", "--alpha", "1/84", "--beta", "13/84",
                       "--gamma", "1/2", "--tol", "1e-18"])
    assert code == 1


def test_gauss_monodromy_large_alpha_passes_on_scaled_residuals():
    # the loop matrices reach norm 5e7 here: the absolute relation residual
    # of even the exactly rounded matrices is about 1e-2, the scaled one
    # stays near machine precision
    code, out = run_cli(["gauss", "monodromy", "--alpha=44/3", "--beta=1/2",
                         "--gamma=-1/7", "--format", "json"])
    assert code == 0
    residuals = json.loads(out)["residuals"]
    assert residuals["relation_residual"] < 1e-10
    assert residuals["spectrum_residual"] < 1e-8


def test_gauss_monodromy_numeric_failure_exits_1(capsys):
    # |alpha| this large needs more series terms than a step allows: the run
    # must stop quickly with the numeric-failure code and say where and why
    t0 = time.monotonic()
    code, out = run_cli(["gauss", "monodromy", "--alpha=2000/3", "--beta=1/7",
                         "--gamma=1/2"])
    elapsed = time.monotonic() - t0
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "segment" in err and "did not converge" in err
    assert elapsed < 10.0


def test_malformed_rational_rejected():
    with pytest.raises(SystemExit) as info:
        cli.main(["gauss", "monodromy", "--alpha", "1/0", "--beta", "1/3",
                  "--gamma", "1/2"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["gauss", "monodromy", "--alpha", "x", "--beta", "1/3",
                  "--gamma", "1/2"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["gauss", "monodromy", "--alpha", "0.25", "--beta", "1/3",
                  "--gamma", "1/2"])
    assert info.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_torus_flatness_override_fails_numerically():
    code, out = run_cli(["torus", "flatness", "--type", "A", "--rank", "2",
                         "--k", "1/6", "--samples", "2", "--format", "json"])
    assert code == 0
    code, _ = run_cli(["torus", "flatness", "--type", "A", "--rank", "2",
                       "--k", "1/6", "--samples", "2", "--a-override", "7",
                       "--format", "json"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--samples", "0"],
    ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--samples", "-3"],
    ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--samples=-3"],
    ["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4", "--samples", "0"],
    ["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4", "--samples", "-1"],
])
def test_torus_rejects_samples_below_one(argv, capsys):
    # no samples would report a residual of 0 or an empty ball check as a pass
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert "--samples must be at least 1" in capsys.readouterr().err


NO_SPHERICAL = "each angle plus 1 must exceed the sum of the other two"


@pytest.mark.parametrize("argv, message", [
    (["gauss", "monodromy", "--alpha", "1/2", "--beta", "1/3", "--gamma", "1"],
     "integer exponent difference (logarithmic case)"),
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root", "3"],
     "--root must be 1..2 or 'highest', got '3'"),
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root", "0"],
     "--root must be 1..2 or 'highest', got '0'"),
    (["schwarz", "check", "--type", "A", "--rank", "2"], "provide --p or --k"),
    (["schwarz", "check", "--type", "A", "--rank", "3", "--p", "3", "--k", "1/4"],
     "provide --p or --k, not both"),
    # the scan covers no type of rank below 2, so it would check nothing
    (["schwarz", "enumerate", "--rank-max", "1"], "--rank-max must be at least 2, got 1"),
    (["schwarz", "enumerate", "--rank-max", "0"], "--rank-max must be at least 2, got 0"),
    # the largest root systems roots builds are A30 and D30
    (["schwarz", "enumerate", "--rank-max", "31"], "--rank-max must be at most 30, got 31"),
    (["schwarz", "enumerate", "--rank-max", "40"], "--rank-max must be at most 30, got 40"),
    # an empty range of reflection orders would scan nothing
    (["schwarz", "enumerate", "--p-min", "2"], "--p-min must be at least 3, got 2"),
    (["schwarz", "enumerate", "--p-min", "-1"], "--p-min must be at least 3, got -1"),
    (["schwarz", "enumerate", "--p-max", "2"], "--p-max must be at least 3, got 2"),
    (["schwarz", "enumerate", "--p-min", "5", "--p-max", "4"],
     "--p-max must be at least 5, got 4"),
    # each order costs about 50 us, so a mistyped bound would run for minutes
    (["schwarz", "enumerate", "--p-max", "1001"], "--p-max must be at most 1000, got 1001"),
    (["schwarz", "enumerate", "--p-max", "10000000"],
     "--p-max must be at most 1000, got 10000000"),
    # a spherical triangle needs 1 + x > y + z for each angle x; the arc
    # construction cannot draw these, so they are usage errors, not numeric ones
    (["gauss", "schwarz-triangle", "--kappa", "3", "--lambda", "1/3", "--mu", "1/7"],
     "the angles 3, 1/3, 1/7 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    (["gauss", "schwarz-triangle", "--kappa", "1", "--lambda", "1/3", "--mu", "1/7"],
     "the angles 1, 1/3, 1/7 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    (["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/20", "--mu", "9/10"],
     "the angles 1/2, 1/20, 9/10 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    (["gauss", "schwarz-triangle", "--kappa", "1", "--lambda", "1", "--mu", "1"],
     "the angles 1, 1, 1 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    (["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/3", "--mu", "5/4"],
     "the angles 1/2, 1/3, 5/4 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    (["gauss", "schwarz-triangle", "--kappa", "1/8", "--lambda", "1/2", "--mu", "3/2"],
     "the angles 1/8, 1/2, 3/2 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    # a --root that is not an integer is named, not parsed by int()
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root", "x"],
     "--root must be 1..2 or 'highest', got 'x'"),
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root", "1.0"],
     "--root must be 1..2 or 'highest', got '1.0'"),
    # numpy's generator takes no negative seed
    (["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--seed", "-1"],
     "--seed must be at least 0, got -1"),
    (["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4", "--seed", "-1"],
     "--seed must be at least 0, got -1"),
])
def test_usage_errors_exit_2_with_one_line(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


TOL_COMMANDS = {
    "gauss monodromy": ["gauss", "monodromy", "--alpha", "1/84", "--beta", "13/84",
                        "--gamma", "1/2"],
    "torus flatness": ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6"],
    "torus monodromy": ["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4"],
    "torus form": ["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4"],
}


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
@pytest.mark.parametrize("tol", ["nan", "NaN", "inf", "-inf", "1e999", "0", "-0", "-1",
                                 "-1e-3", "abc"])
def test_tol_must_be_positive_finite(command, tol, capsys):
    # NaN fails every residual and an infinite bound passes every one, so
    # neither may reach a check
    code, out = _run_exit([*TOL_COMMANDS[command], f"--tol={tol}"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --tol: must be a positive finite number, got {tol!r}\n")
    # as a separate argument "-inf" and "-1e-3" are rejoined to the flag, as
    # "-1" is, so each names its value the same way
    assert _run_exit([*TOL_COMMANDS[command], "--tol", tol]) == (2, "")
    assert capsys.readouterr().err == err


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


# a form whose inverse pairs the base evaluation vector (1, 0, 0) to zero
_ISOTROPIC_FORM = torus.InvariantForm(
    matrix=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), residual=0.0,
    signature=(2, 1), singular_values=np.ones(9))


@pytest.mark.parametrize("target, replacement, subcommand, message", [
    *(pytest.param(target, _raising(exc), subcommand, str(exc), id=f"exc{i}-{target}")
      for target, subcommand in (("invariant_form", "form"), ("sample_points_near", "flatness"))
      for i, exc in enumerate([torus.MirrorSingularity("a sample lies on a mirror"),
                               np.linalg.LinAlgError("singular matrix")])),
    pytest.param("_curvature", lambda *args, **kwargs: 1.0, "monodromy",
                 "connection is not flat at the start (residual 1.00e+00)",
                 id="not_flat-transport"),
    pytest.param("invariant_form", lambda *args, **kwargs: _ISOTROPIC_FORM, "form",
                 "base evaluation vector is numerically isotropic", id="isotropic-ball_check"),
])
def test_torus_numeric_failures_exit_1(target, replacement, subcommand, message, monkeypatch,
                                       capsys):
    monkeypatch.setattr(torus, target, replacement)
    argv = ["torus", subcommand, "--type", "A", "--rank", "2", "--k", "1/4"]
    if subcommand != "monodromy":
        argv += ["--samples", "2"]
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: numeric failure: {message}\n"


def test_torus_monodromy_json():
    for root in ("1", "highest"):
        code, out = run_cli(["torus", "monodromy", "--type", "A", "--rank", "2",
                             "--k", "1/4", "--root", root, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, cli.report_schema())
        assert payload["residuals"]["hecke_residual"] < 1e-6


def test_torus_form_without_one_invariant_form_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(torus, "invariant_form",
                        _raising(torus.InvariantFormError("no invariant Hermitian form", 0)))
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4",
                         "--samples", "2"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: no invariant Hermitian form\n"


def test_torus_form_json():
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2",
                         "--k", "1/4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["signature"] == [2, 1]
    assert payload["results"]["ball_all_negative"] is True


@pytest.mark.parametrize("fam, rank, k", [
    ("A", 3, "3/5"), ("A", 3, "11/20"), ("A", 3, "7/10"), ("D", 4, "11/20")])
def test_torus_form_outside_the_ball_exits_1(fam, rank, k):
    # past the hyperbolic exponent m = 1/2 the form keeps signature (n, 1), but
    # the evaluation vectors near the base pair positively: the ball check fails
    code, out = run_cli(["torus", "form", "--type", fam, "--rank", str(rank), "--k", k,
                         "--format", "json"])
    results = json.loads(out)["results"]
    assert code == 1
    assert results["signature"] == [rank, 1]
    assert results["ball_all_negative"] is False
    assert all(v > 0 for v in results["ball_values"])


def test_torus_form_builds_generators_once(monkeypatch):
    calls = []
    build = torus.standard_generators

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(torus, "standard_generators", counted)
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4",
                         "--samples", "4", "--seed", "3", "--format", "json"])
    assert code == 0
    assert len(calls) == 1
    a2 = roots.build(roots.RootSystemType("A", 2))
    form = torus.invariant_form(torus.standard_generators(a2, Fraction(1, 4)))
    fresh = torus.ball_check(a2, Fraction(1, 4), form, torus.sample_points_near(a2, 4, seed=3))
    assert json.loads(out)["results"]["ball_values"] == list(fresh)


@pytest.mark.parametrize("argv, gates", [
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4"], 1),
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root", "highest"], 1),
    (["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4", "--samples", "2"], 1),
    (["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/4", "--samples", "2"], 0),
])
def test_each_torus_measurement_gates_flatness_once(argv, gates, monkeypatch):
    # every loop starts at the base point: one gate per measurement, none
    # for the ball check's sample paths or the flatness report itself
    calls = []
    gate = torus._flatness_gate

    def counted(*args):
        calls.append(args)
        return gate(*args)

    monkeypatch.setattr(torus, "_flatness_gate", counted)
    code, _ = run_cli(argv)
    assert code == 0
    assert len(calls) == gates


@pytest.mark.parametrize("rank_max, anomalies", [
    (4, ([], [])),
    (5, ([[3, "A5"]], [[6, "A5"]])),
    (6, ([[3, "A5"]], [[6, "A5"]])),
    (2, ([], [])),
])
def test_enumerate_below_rank_seven(rank_max, anomalies):
    # table rows of rank above rank_max (A7, E7 at p = 3) are out of range
    code, out = run_cli(["schwarz", "enumerate", "--p-max", "20",
                         "--rank-max", str(rank_max), "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["table_diff"]["extra"], results["table_diff"]["missing"]) == anomalies
    assert results["documented_anomalies_only"] is True


def test_triangle_tessellate_files(tmp_path):
    svg = tmp_path / "out.svg"
    rep = tmp_path / "report.json"
    code, out = run_cli(["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7",
                         "--depth", "6", "--svg", str(svg), "--json", str(rep),
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.report_schema())
    assert svg.exists()
    side = json.loads(rep.read_text())
    assert side["geometry"] == "hyperbolic"
    assert side["tile_count"] == payload["results"]["tile_count"]
    assert side["max_orthogonality_residual"] < 1e-9


def test_gauss_schwarz_triangle_svg(tmp_path):
    svg = tmp_path / "tri.svg"
    code, out = run_cli(["gauss", "schwarz-triangle", "--kappa", "1/2",
                         "--lambda", "1/3", "--mu", "1/7", "--svg", str(svg),
                         "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["geometry"] == "hyperbolic"
    assert svg.read_text().count("<path") == 1


@pytest.mark.parametrize("flags, message", [
    (["--depth", "-1"], "--depth must be at least 0, got -1"),
    (["--max-tiles", "0"], "--max-tiles must be at least 1, got 0"),
    (["--max-tiles", "-5"], "--max-tiles must be at least 1, got -5"),
])
def test_tessellate_rejects_negative_depth_and_empty_budget(flags, message, capsys):
    # either would report the base tile alone as a tessellation
    code, out = run_cli(["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7", *flags])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tessellate_smallest_budgets_run():
    for flags in (["--depth", "0"], ["--max-tiles", "1"]):
        code, out = run_cli(["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7", *flags])
        assert code == 0
        assert json.loads(out)["results"]["tile_count"] == 1


@pytest.mark.parametrize("argv, flag", [
    (["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7", "--depth", "3"], "--svg"),
    (["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7", "--depth", "3"], "--json"),
    (["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/3", "--mu", "1/7"], "--svg"),
])
def test_unwritable_output_exits_2_with_one_line(argv, flag, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    code, out = run_cli([*argv, flag, str(path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("angles, flag, zero", [
    (["--kappa", "1/2", "--lambda", "1/3", "--mu=-1/7"], "--mu", False),
    (["--kappa", "1/2", "--lambda", "1/3", "--mu", "-1/7"], "--mu", False),
    (["--kappa", "-1/3", "--lambda", "1/3", "--mu", "1/7"], "--kappa", False),
    (["--kappa", "0", "--lambda", "1/2", "--mu", "1/2"], "--kappa", True),
    (["--kappa", "1/2", "--lambda", "0", "--mu", "2/3"], "--lambda", True),
])
def test_gauss_schwarz_triangle_rejects_nonpositive_angles(angles, flag, zero, capsys):
    code, out = run_cli(["gauss", "schwarz-triangle", *angles])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"{flag} must be positive" in err
    assert ("hyperbolic" in err) == zero


def test_gauss_schwarz_triangle_zero_angle_is_an_ideal_vertex():
    code, out = run_cli(["gauss", "schwarz-triangle", "--kappa", "0", "--lambda", "1/3",
                         "--mu", "1/2"])
    assert code == 0
    assert json.loads(out)["results"]["geometry"] == "hyperbolic"


def test_schwarz_triangle_reports_are_pinned(tmp_path, capsys):
    # every angle triple from {0, 1/2, 1/3, 1/5, 1/7}: all three geometries,
    # one to three zero angles and the zero-angle usage errors.  sha256 of
    # (argv, exit code, stdout, stderr) and the SVG bytes, as first pinned
    svg = tmp_path / "t.svg"
    digest = hashlib.sha256()
    for angles in itertools.product(["0", "1/2", "1/3", "1/5", "1/7"], repeat=3):
        flags = [x for pair in zip(["--kappa", "--lambda", "--mu"], angles) for x in pair]
        argv = ["gauss", "schwarz-triangle", *flags, "--svg", str(svg), "--format", "json"]
        svg.unlink(missing_ok=True)
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        record = ([a.replace(str(svg), "{svg}") for a in argv], code,
                  out.replace(str(svg), "{svg}"), err)
        digest.update(repr(record).encode())
        digest.update(svg.read_bytes() if svg.exists() else b"no svg")
    assert digest.hexdigest() == (
        "483624f8c37ec9a856da2cd718bf5d6ea49a7725fa4caf59d64b7f0706d4d041")


def test_schwarz_check_and_dm():
    code, out = run_cli(["schwarz", "check", "--type", "A", "--rank", "7",
                         "--p", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["passed"] is True
    code, out = run_cli(["schwarz", "dm", "--n", "5", "--p", "4", "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["hidden_symmetry"] is True and res["verdict"] is True
    code, out = run_cli(["schwarz", "dm", "--n", "5", "--p", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] is None  # degenerate weights


def test_dm_scan_cli():
    code, out = run_cli(["schwarz", "dm-scan", "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["identities_hold"] and res["verdicts_agree"]
    assert res["hidden_symmetry_cases"] == [[10, 2], [6, 3], [4, 5]]


@pytest.mark.parametrize("flags, message", [
    (["--n-max", "1"], "--n-max must be at least 2, got 1"),
    (["--p-max", "2"], "--p-max must be at least 3, got 2"),
    (["--n-max", "0", "--p-max", "-5"], "--n-max must be at least 2, got 0"),
    (["--n-max", "4", "--p-max", "-5"], "--p-max must be at least 3, got -5"),
    # past the ranks and orders the scan covers
    (["--n-max", "11"], "--n-max must be at most 10, got 11"),
    (["--p-max", "61"], "--p-max must be at most 60, got 61"),
    (["--n-max", "11", "--p-max", "61"], "--n-max must be at most 10, got 11"),
])
def test_dm_scan_rejects_empty_ranges(flags, message, capsys):
    # an empty scan would report every identity and verdict as holding
    code, out = run_cli(["schwarz", "dm-scan", *flags])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n", ["0", "-1", "-3"])
def test_dm_rejects_n_below_one(n, capsys):
    code, out = run_cli(["schwarz", "dm", "--n", n, "--p", "4"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"


def test_dm_smallest_ranges_run():
    code, out = run_cli(["schwarz", "dm", "--n", "1", "--p", "4"])
    assert code == 0
    assert len(json.loads(out)["results"]["mu"]["mu"]) == 4
    code, out = run_cli(["schwarz", "dm-scan", "--n-max", "2", "--p-max", "3"])
    assert code == 0
    assert json.loads(out)["results"]["row_count"] == 1


def test_schema_self_describes():
    code, out = run_cli(["schema"])
    assert code == 0
    schema = json.loads(out)
    jsonschema.Draft7Validator.check_schema(schema)


def _run_subprocess(argv):
    """`python -m schwarz_atlas.cli` in a fresh process that imports the same
    package as these tests, whether or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "schwarz_atlas.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_subprocess():
    proc = _run_subprocess(["schwarz", "enumerate", "--p-max", "10"])
    assert proc.returncode == 0
    assert "p =  10 : A2" in proc.stdout


def test_torus_overflow_prints_one_error_line_subprocess():
    # at k = 1000 the frame overflows: numpy's warnings stay off stderr, which
    # holds the one error line of every numeric failure
    proc = _run_subprocess(["torus", "monodromy", "--type", "A", "--rank", "2",
                            "--k", "1000"])
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numeric failure: ")
    assert lines[0].endswith("frame is not finite at t = 1.0")


def _run_exit(argv):
    """stdout and exit code of one in-process run, argparse exits included."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


@pytest.mark.parametrize("argv, flag", [
    (["schwarz", "check", "--type", "A", "--rank", "2"], ["--k", "-1/3"]),
    (["gauss", "monodromy", "--beta", "1/3", "--gamma", "1/2"], ["--alpha", "-7/5"]),
    (["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--samples", "1"],
     ["--a-override", "-3"]),
])
def test_negative_rational_as_separate_argument(argv, flag):
    # "--k -1/3" parses as "--k=-1/3"
    code, out = _run_exit(argv + flag)
    assert (code, out) == _run_exit(argv + ["=".join(flag)])
    assert out and code in (0, 1)


# `schwarz check` at k = 0 and k = -1/3, as first released but for p: the
# toric values d*k coincide at k = 0 and are recorded once (d = 1, 2 on D5
# and E6), every guarded value below zero is vacuous, and neither k has a
# reflection order p >= 3
CHECK_REFERENCE = {
    ("D", "5", "--k=0"): ("0", None, False, [
        ("hyperbolic_range", "0", False, False, "0 < k < 1/3"),
        ("toric_de", "0", False, False, "d*k with d=1"),
        ("mirror", "1/2", True, False, "(1-2k)/2"),
        ("identity", "-1/2", True, True, "(hk-1)/2 with h=8"),
    ]),
    ("E", "6", "--k=0"): ("0", None, False, [
        ("hyperbolic_range", "0", False, False, "0 < k < 1/3"),
        ("toric_de", "0", False, False, "d*k with d=1"),
        ("mirror", "1/2", True, False, "(1-2k)/2"),
        ("identity", "-1/2", True, True, "(hk-1)/2 with h=12"),
    ]),
    ("E", "8", "--k=-1/3"): ("-1/3", None, False, [
        ("hyperbolic_range", "-1/3", False, False, "0 < k < 1/5"),
        ("toric_de", "-1/3", False, False, "d*k with d=1"),
        ("toric_de", "-2/3", False, False, "d*k with d=2"),
        ("toric_de", "-4/3", False, False, "d*k with d=4"),
        ("mirror", "5/6", False, False, "(1-2k)/2"),
        ("identity", "-11/2", True, True, "(hk-1)/2 with h=30"),
        ("special_a8_in_e8", "-4", True, True, "(9k-1)"),
        ("special_d8_in_e8", "-17/6", True, True, "(14k-1)/2"),
    ]),
}


@pytest.mark.parametrize("case", sorted(CHECK_REFERENCE))
def test_schwarz_check_reference_strings(case):
    fam, rank, kflag = case
    k, p, passed, conds = CHECK_REFERENCE[case]
    code, out = run_cli(["schwarz", "check", "--type", fam, "--rank", rank, kflag])
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"] == {"k": k, "p": p, "type": f"{fam}{rank}"}
    res = payload["results"]
    assert (res["k"], res["p"], res["passed"], res["type"]) == (k, p, passed, f"{fam}{rank}")
    assert [(c["kind"], c["value"], c["satisfied"], c["vacuous"], c["detail"])
            for c in res["conditions"]] == conds


def test_one_parser_serves_many_runs(monkeypatch):
    # several subcommands in one process, an argparse error (exit 2) among
    # them, give the stdout and exit codes of fresh processes
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    runs = [
        ["schwarz", "check", "--type", "E", "--rank", "6", "--p", "4"],
        ["roots", "dump", "--type", "A", "--rank", "3", "--format", "text"],
        ["schwarz", "check", "--type", "X", "--rank", "2", "--p", "4"],
        ["schwarz", "enumerate", "--p-max", "12", "--format", "csv"],
        ["schwarz", "dm", "--n", "3", "--p", "5", "--format", "text"],
        ["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/3", "--mu", "1/7"],
    ]
    in_process = [_run_exit(argv) for argv in runs]
    assert len(builds) == 1
    fresh = []
    for argv in runs:
        proc = _run_subprocess(argv)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 0, 0]


# `roots dump`, `gauss monodromy`, `torus monodromy`, `schwarz enumerate` and
# a hyperbolic `triangle tessellate` are validated in their own tests above
@pytest.mark.parametrize("argv", [
    ["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/3", "--mu", "1/7"],
    ["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "5"],
    ["torus", "flatness", "--type", "A", "--rank", "3", "--k", "1/6", "--samples", "2"],
    ["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4", "--samples", "3"],
    ["schwarz", "check", "--type", "E", "--rank", "7", "--p", "3"],
    ["schwarz", "dm", "--n", "5", "--p", "4"],
    ["schwarz", "dm", "--n", "5", "--p", "6"],
    ["schwarz", "dm-scan", "--n-max", "4", "--p-max", "23"],
])
def test_every_json_report_matches_the_schema(argv):
    code, out = run_cli(argv + ["--format", "json"])
    assert code == 0
    jsonschema.validate(json.loads(out), cli.report_schema())


def _hyperbolic_m(family, rank):
    return {"A": f"2/{rank + 1}", "D": f"1/{rank - 2}", "E": f"1/{rank - 3}"}[family]


EXACT_LAYER_GRID = [
    *(["roots", "dump", "--type", f, "--rank", str(n), "--format", fmt]
      for f, n in [("A", 1), ("A", 4), ("D", 4), ("D", 7), ("E", 6), ("E", 7), ("E", 8)]
      for fmt in ("json", "text")),
    # by --p, and by --k at 0, below 0, at 1/2, at 1 and at the boundary k = m
    *(["schwarz", "check", "--type", f, "--rank", str(n), *kflag]
      for f, n in [("A", 2), ("A", 5), ("A", 7), ("D", 4), ("D", 5), ("D", 6),
                   ("E", 6), ("E", 7), ("E", 8)]
      for kflag in (["--p", "3"], ["--p", "4"], ["--p", "6"], ["--p", "10"], ["--k=0"],
                    ["--k", "-1/3"], ["--k=1/2"], ["--k=1"], [f"--k={_hyperbolic_m(f, n)}"])),
    ["schwarz", "check", "--type", "E", "--rank", "8", "--p", "3", "--format", "text"],
    # degenerate weights from n = 3 at p = 10 and from n = 5 at p = 6 on
    *(["schwarz", "dm", "--n", str(n), "--p", str(p)]
      for n in (1, 2, 3, 5, 9, 12) for p in (3, 4, 6, 10)),
    ["schwarz", "dm", "--n", "5", "--p", "4", "--format", "text"],
    *(["schwarz", "enumerate", "--p-max", p_max, "--rank-max", rank_max, "--format", fmt, *half]
      for p_max, rank_max in (("12", "6"), ("30", "13"))
      for fmt in ("csv", "text", "json") for half in ([], ["--include-k-half"])),
    ["schwarz", "dm-scan", "--n-max", "4", "--p-max", "23"],
]


def test_exact_layer_reports_are_pinned(capsys):
    # `roots dump` and every `schwarz` subcommand over the grid above: sha256
    # of (argv, exit code, stdout, stderr), as first pinned
    digest = hashlib.sha256()
    for argv in EXACT_LAYER_GRID:
        code, out = _run_exit(argv)
        digest.update(repr((argv, code, out, capsys.readouterr().err)).encode())
    assert digest.hexdigest() == (
        "f28708825fd8ede45f176942bc564aae93f13c1095f187cfbae1087f0794158d")
