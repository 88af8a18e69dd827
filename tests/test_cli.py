"""Command-line surface: exit codes, determinism, report schema."""

import argparse
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwarz_atlas
from schwarz_atlas import _kernels, cli, gauss, roots, schwarzcond, torus


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
    # k = 1/2 is p = infinity under k_from_p: its types follow the finite rows
    code, out = run_cli(["schwarz", "enumerate", "--p-max", "10", "--format", "csv",
                         "--include-k-half"])
    assert code == 0 and out.strip().splitlines()[-2:] == ["10,A2", "inf,A2"]


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


A2_DUMP_TEXT = """\
schema_version: 1.0
module: roots
inputs:
  type: A2
results:
  family: A
  rank: 2
  simple_roots:
    - [1, 0]
    - [0, 1]
  positive_roots:
    - [0, 1]
    - [1, 0]
    - [1, 1]
  gram:
    - [2, -1]
    - [-1, 2]
  coxeter_number: 3
  integrability_constant: 3/4
  hyperbolic_exponent: 2/3
  toric_distances: []
  positive_root_count: 3
residuals: {}
checks: [every root has squared norm 2 in the Cartan pairing, positive root count equals \
rank * coxeter_number / 2]
"""


def test_roots_dump_text_keeps_each_root_on_one_line():
    code, out = run_cli(["roots", "dump", "--type", "A", "--rank", "2", "--format", "text"])
    assert code == 0 and out == A2_DUMP_TEXT


def test_matrix_report_text_keeps_rows_and_entries():
    # a 2x2 complex matrix: a "-" line per row, one [re, im] line per entry
    payload = cli._report(
        module="torus", inputs={}, residuals={"hecke_residual": 0.5}, checks=[],
        results={"matrix": cli._matrix_out(np.array([[1, 2j], [-0.5, 0]])),
                 "eigenvalues": [cli._complex_out(1), cli._complex_out(0.5j)]})
    buf = io.StringIO()
    cli._emit(payload, "text", buf)
    assert buf.getvalue() == (
        "schema_version: 1.0\n"
        "module: torus\n"
        "inputs: {}\n"
        "results:\n"
        "  matrix:\n"
        "    -\n"
        "      - [1.0, 0.0]\n"
        "      - [0.0, 2.0]\n"
        "    -\n"
        "      - [-0.5, 0.0]\n"
        "      - [0.0, 0.0]\n"
        "  eigenvalues:\n"
        "    - [1.0, 0.0]\n"
        "    - [0.0, 0.5]\n"
        "residuals:\n"
        "  hecke_residual: 0.5\n"
        "checks: []\n")


def test_list_of_dicts_text_marks_each_dict():
    # each dict of a list is a "-" line with its keys one level deeper
    buf = io.StringIO()
    cli._emit_text({"conditions": [{"kind": "mirror", "satisfied": True},
                                   {"kind": "toric", "satisfied": False}]}, buf)
    assert buf.getvalue() == (
        "conditions:\n"
        "  -\n"
        "    kind: mirror\n"
        "    satisfied: True\n"
        "  -\n"
        "    kind: toric\n"
        "    satisfied: False\n")


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


def test_schwarz_check_k_stays_exact_past_the_float_range():
    code, out = run_cli(["schwarz", "check", "--type", "A", "--rank", "2", "--k", PAST_FLOAT,
                         "--format", "json"])
    assert code == 0
    assert json.loads(out)["inputs"]["k"] == PAST_FLOAT


def test_torus_k_whose_square_overflows_is_a_numeric_failure(capsys):
    # 10^160 is a float, but float(k) ** 2 is not: the connection (the
    # flatness gate, the flatness check) and the transport name k
    k = "1" + "0" * 160
    for leaf in ("monodromy", "form", "flatness"):
        code, out = run_cli(["torus", leaf, "--type", "A", "--rank", "2", "--k", k])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: numeric failure: k^2 is past the float range at k = {k}\n")


@pytest.mark.parametrize("leaf, what", [
    ("monodromy", "the curvature at the start"),
    ("form", "the curvature at the start"),
    ("flatness", "the curvature"),
])
def test_torus_curvature_overflow_prints_one_error_line_subprocess(leaf, what):
    # at 2 * 10^153 k^2 is a float, but the curvature's commutators overflow:
    # the flatness gate and the flatness check fail on the residual that is
    # not finite, with no numpy warning and no report
    k = "2" + "0" * 153
    proc = _run_subprocess(["torus", leaf, "--type", "A", "--rank", "2", "--k", k])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: numeric failure: {what} is not finite at k = {k}\n"


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


@pytest.mark.parametrize("subcommand", ["flatness", "form"])
@pytest.mark.parametrize("samples", [1001, 10000000])
def test_torus_rejects_samples_above_one_thousand(subcommand, samples, capsys):
    # each sample is a curvature or a transport, so --samples 10000000 at E8
    # would run for hours
    code, out = run_cli(["torus", subcommand, "--type", "E", "--rank", "8", "--k", "1/10",
                         "--samples", str(samples)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --samples must be at most 1000, got {samples}\n"


def test_torus_flatness_runs_one_thousand_samples():
    code, out = run_cli(["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6",
                         "--samples", "1000", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["samples"] == 1000
    assert payload["residuals"]["flatness_residual"] < 1e-8


NO_SPHERICAL = "each angle plus 1 must exceed the sum of the other two"


# 10^309, past the largest float
PAST_FLOAT = "1" + "0" * 309

USAGE_ERRORS = [
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
    # thin spherical triples, rejected before any construction is tried
    (["gauss", "schwarz-triangle", "--kappa", "1/12", "--lambda", "1/12", "--mu", "1"],
     "the angles 1/12, 1/12, 1 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    (["gauss", "schwarz-triangle", "--kappa", "1/12", "--lambda", "1/4", "--mu", "7/6"],
     "the angles 1/12, 1/4, 7/6 (times pi) make no spherical triangle: " + NO_SPHERICAL),
    # a run past two bounds names the first its subcommand declares
    (["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--samples", "1001",
      "--seed", "-1"], "--samples must be at most 1000, got 1001"),
    # argparse takes "--flag=--" as the flag with no value and stores [],
    # which no handler could read (a traceback, or no file written)
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root=--"],
     "--root needs a value, got '--'"),
    (["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "5", "--svg=--"],
     "--svg needs a value, got '--'"),
    (["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "5", "--json=--"],
     "--json needs a value, got '--'"),
    # a rational that the numeric layer reads as a float must have one
    (["gauss", "monodromy", "--alpha", PAST_FLOAT, "--beta", "1/3", "--gamma", "1/2"],
     f"--alpha must be within the float range, got {PAST_FLOAT}"),
    (["gauss", "monodromy", "--alpha", "1/3", "--beta", f"-{PAST_FLOAT}", "--gamma", "1/2"],
     f"--beta must be within the float range, got -{PAST_FLOAT}"),
    (["gauss", "monodromy", "--alpha", "1/3", "--beta", "1/2", "--gamma", f"{PAST_FLOAT}/3"],
     f"--gamma must be within the float range, got {PAST_FLOAT}/3"),
    (["torus", "flatness", "--type", "A", "--rank", "2", "--k", PAST_FLOAT],
     f"--k must be within the float range, got {PAST_FLOAT}"),
    (["torus", "monodromy", "--type", "A", "--rank", "2", "--k", f"-{PAST_FLOAT}"],
     f"--k must be within the float range, got -{PAST_FLOAT}"),
    (["torus", "form", "--type", "A", "--rank", "2", "--k", PAST_FLOAT],
     f"--k must be within the float range, got {PAST_FLOAT}"),
    (["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--a-override",
      PAST_FLOAT], f"--a-override must be within the float range, got {PAST_FLOAT}"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
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
      for target, subcommand in (("monodromy_form", "form"), ("sample_points_near", "flatness"))
      for i, exc in enumerate([torus.MirrorSingularity("a sample lies on a mirror"),
                               np.linalg.LinAlgError("singular matrix")])),
    pytest.param("_curvature", lambda *args, **kwargs: (np.ones(1), np.ones(1)), "monodromy",
                 "connection is not flat at the start (residual 1.00e+00)",
                 id="not_flat-transport"),
    pytest.param("monodromy_form", lambda *args, **kwargs: _ISOTROPIC_FORM, "form",
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


@pytest.mark.parametrize("k, root", [*(("-21/4", str(i)) for i in range(1, 6)),
                                     ("-21/4", "highest"), ("7/3", "highest")])
def test_torus_monodromy_d5_past_k_one_passes(k, root):
    # every loop starts at b: D5 at k = -21/4 reads at most 4.1e-11 and at
    # k = 7/3 the highest root 1.6e-14.  Staged from default_base_point,
    # whose stages reached cond(S) = 4.0e17 here, roots 3-5 at -21/4 read
    # 1.7e-4 to 3.5e-3 and the highest root at 7/3 2.6e-6, and all exited 1
    code, out = run_cli(["torus", "monodromy", "--type", "D", "--rank", "5", f"--k={k}",
                         "--root", root, "--format", "json"])
    assert code == 0
    assert json.loads(out)["residuals"]["hecke_residual"] <= 1e-9


def test_torus_form_without_one_invariant_form_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(torus, "monodromy_form",
                        _raising(torus.InvariantFormError("no invariant Hermitian form", 0)))
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4",
                         "--samples", "2"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: numeric failure: no invariant Hermitian form\n"


def test_torus_form_without_enough_samples_exits_1(monkeypatch, capsys):
    # only the sampler reads MIRROR_DELTA; it asks for more than any draw has
    monkeypatch.setattr(torus, "MIRROR_DELTA", 50.0)
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4",
                         "--samples", "2"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: numeric failure: could not find enough off-mirror samples\n")


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


@pytest.mark.parametrize("k", ["1/100", "1/10", "19/100"])
def test_torus_form_e8_passes(k):
    # the hyperbolic range of E8 is (0, 1/5); the equilibrated solve counts
    # one null vector across it
    code, out = run_cli(["torus", "form", "--type", "E", "--rank", "8", "--k", k,
                         "--format", "json"])
    results = json.loads(out)["results"]
    assert code == 0
    assert results["signature"] == [8, 1]
    assert results["ball_all_negative"] is True


@pytest.mark.parametrize("fam, rank, k, signature", [
    ("A", 2, "3/4", [3, 0]), ("A", 4, "11/25", [3, 2])])
def test_torus_form_without_lorentz_signature_exits_1(fam, rank, k, signature):
    code, out = run_cli(["torus", "form", "--type", fam, "--rank", str(rank), "--k", k,
                         "--format", "json"])
    assert code == 1
    assert json.loads(out)["results"]["signature"] == signature


def test_torus_form_with_two_invariant_forms_exits_1(capsys):
    # A5 at k = m = 1/3, the boundary of the hyperbolic range
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "5", "--k", "1/3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: numeric failure: invariant-form space has dimension 2; "
        "the representation looks reducible\n")


@pytest.mark.parametrize("rank, k", [(6, "1/6"), (8, "1/10")])
def test_torus_form_prints_the_same_bytes_at_one_and_two_blas_threads(rank, k, monkeypatch):
    # the form from the half-turns and one loop takes no large SVD: the SVD
    # of the Kronecker system, (588, 49) at E6 and (1296, 81) at E8, was the
    # one step whose bits followed the BLAS thread count
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = _run_subprocess(["torus", "form", "--type", "E", "--rank", str(rank), "--k", k,
                                "--samples", "10"])
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_torus_form_builds_generators_once(monkeypatch):
    # one transport call for the form's loops, the two half-turns and one
    # coordinate loop of A2, and one for the ball check's four sample paths
    calls = []
    transport = torus.transport

    def counted(system, k, paths):
        calls.append(len(paths))
        return transport(system, k, paths)

    monkeypatch.setattr(torus, "transport", counted)
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4",
                         "--samples", "4", "--seed", "3", "--format", "json"])
    assert code == 0
    assert calls == [3, 4]
    a2 = roots.build(roots.RootSystemType("A", 2))
    form = torus.monodromy_form(a2, Fraction(1, 4))
    samples = torus.sample_points_near(a2, torus.hecke_base_point(a2), 4, seed=3)
    fresh = torus.ball_check(a2, Fraction(1, 4), form, samples)
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
    assert rep.read_text() == json.dumps(side, sort_keys=True, indent=2) + "\n"
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


def test_tessellate_rejects_a_tile_budget_past_200000(capsys):
    # about 1.7 KB a tile, so a mistyped budget could exhaust memory
    code, out = run_cli(["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7",
                         "--max-tiles", "200001"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: --max-tiles must be at most 200000, got 200001\n"


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
    # (argv, exit code, stdout, stderr) and the SVG bytes, as first pinned;
    # re-pinned when spherical triangles were drawn in the rotated drawing
    # chart (the 19 spherical SVGs moved, and nothing else), and when the
    # Euclidean view box was mirrored to hold the flipped drawing (the SVG of
    # (1/3, 1/3, 1/3) moved, and nothing else)
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
        "1f127954c30fefb004bc5254b76e18df233a26482181650a562b1ddb76b677d8")


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


def _end_end_row_off_by_one(monkeypatch):
    rows = schwarzcond._dm_pair_rows
    monkeypatch.setattr(schwarzcond, "_dm_pair_rows", lambda n: rows(n)[:2] + (
        dataclasses.replace(rows(n)[2], c0=rows(n)[2].c0 + 1),))


def _coxeter_number_off_by_one(monkeypatch):
    a4 = roots.RootSystemType("A", 4)
    table = schwarzcond._table(a4)
    identity = table.rows[2]
    monkeypatch.setitem(schwarzcond._TABLE_CACHE, a4, dataclasses.replace(
        table, rows=table.rows[:2] + (dataclasses.replace(identity, c1=identity.c1 + 1),)))


def _hyperbolic_range_too_short(monkeypatch):
    a2 = roots.RootSystemType("A", 2)
    monkeypatch.setitem(schwarzcond._TABLE_CACHE, a2,
                        dataclasses.replace(schwarzcond._table(a2), m=Fraction(1, 10)))


@pytest.mark.parametrize("corrupt, failed, held", [
    (_end_end_row_off_by_one, "identities_hold", None),
    (_coxeter_number_off_by_one, "identities_hold", None),
    (_hyperbolic_range_too_short, "verdicts_agree", "identities_hold"),
])
def test_dm_scan_exits_1_when_a_check_fails(corrupt, failed, held, monkeypatch):
    # the weight-derived pair rows and the A_n table come from independent
    # sources, so a change to either side breaks the identities; a range the
    # identities do not compare breaks only the agreement of the verdicts
    corrupt(monkeypatch)
    code, out = run_cli(["schwarz", "dm-scan", "--format", "json"])
    results = json.loads(out)["results"]
    assert code == 1 and results[failed] is False
    assert held is None or results[held] is True


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_enumerate_exits_1_on_a_table_diff_beyond_the_anomalies(fmt, monkeypatch):
    # the reference table without A3 at p = 4, which the conditions pass
    monkeypatch.setitem(schwarzcond.KNOWN_TABLE, 4, ("A2", "A5", "D4", "D5", "E6"))
    code, out = run_cli(["schwarz", "enumerate", "--format", fmt])
    assert code == 1
    if fmt == "json":
        results = json.loads(out)["results"]
        assert results["documented_anomalies_only"] is False
        assert results["table_diff"]["extra"] == [[3, "A5"], [4, "A3"]]
    elif fmt == "text":
        assert out.splitlines()[-6:] == [
            "table diff beyond the documented anomalies:",
            "extra:", "  p =   3 : A5", "  p =   4 : A3", "missing:", "  p =   6 : A5"]
    else:
        assert "4,A3" in out.splitlines()


@pytest.mark.parametrize("flags, message", [
    (["--n-max", "1"], "--n-max must be at least 2, got 1"),
    (["--p-max", "2"], "--p-max must be at least 3, got 2"),
    (["--n-max", "0", "--p-max", "-5"], "--n-max must be at least 2, got 0"),
    (["--n-max", "4", "--p-max", "-5"], "--p-max must be at least 3, got -5"),
    # past the ranks and orders the scan covers
    (["--n-max", "11"], "--n-max must be at most 10, got 11"),
    (["--p-max", "61"], "--p-max must be at most 60, got 61"),
    (["--n-max", "11", "--p-max", "61"], "--n-max must be at most 10, got 11"),
    # both lower bounds come before either upper bound
    (["--n-max", "11", "--p-max", "2"], "--p-max must be at least 3, got 2"),
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


def test_dm_rejects_n_above_thirty(capsys):
    # A30 is the largest A_n that roots builds, and past n = 10 every vector
    # is degenerate for every p >= 3
    code, out = run_cli(["schwarz", "dm", "--n", "31", "--p", "4"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: --n must be at most 30, got 31\n"
    code, out = run_cli(["schwarz", "dm", "--n", "30", "--p", "4"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] is None


def test_dm_smallest_ranges_run():
    code, out = run_cli(["schwarz", "dm", "--n", "1", "--p", "4"])
    assert code == 0
    assert len(json.loads(out)["results"]["mu"]["mu"]) == 4
    code, out = run_cli(["schwarz", "dm-scan", "--n-max", "2", "--p-max", "3"])
    assert code == 0
    assert json.loads(out)["results"]["row_count"] == 1


def _parsers(parser=None, path=()):
    """(path, parser) of the top-level parser, each group and each leaf."""
    parser = parser or cli.build_parser()
    found = [(path, parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found += _parsers(child, (*path, name))
    return found


LEAVES = {path: parser for path, parser in _parsers() if parser.get_default("func")}

# the required flags of each leaf that declares bounds, so that a run varies
# only the bounded flag
MINIMAL_ARGV = {
    ("triangle", "tessellate"): ["--k", "2", "--l", "3", "--m", "7"],
    ("torus", "flatness"): ["--type", "A", "--rank", "2", "--k", "1/6"],
    ("torus", "form"): ["--type", "A", "--rank", "2", "--k", "1/4"],
    ("schwarz", "enumerate"): [],
    ("schwarz", "dm"): ["--n", "1", "--p", "4"],
    ("schwarz", "dm-scan"): [],
}


# (leaf, flag, "least" or "most", bound) for every bound a leaf declares; a
# least written as a flag name is that flag's default
DECLARED_BOUNDS = [
    (path, flag, side,
     leaf.get_default(bound[2:].replace("-", "_")) if isinstance(bound, str) else bound)
    for path, leaf in LEAVES.items()
    for flag, least, most in leaf.get_default("bounds")
    for side, bound in (("least", least), ("most", most)) if bound is not None]


def test_declared_bounds_cover_the_bounded_leaves():
    assert len(LEAVES) == 12
    # main's leaf reader finds each leaf under the path the full tree reaches it by
    leaves = cli.build_parser().leaves
    assert {path: leaf.prog for path, leaf in leaves.items()} == {
        path: leaf.prog for path, leaf in _parsers() if leaf.get_default("func")}
    assert {path for path, *_ in DECLARED_BOUNDS} == set(MINIMAL_ARGV)
    assert len(DECLARED_BOUNDS) == 20


@pytest.mark.parametrize("path, flag, side, bound", DECLARED_BOUNDS,
                         ids=[f"{' '.join(p)} {f} {s}" for p, f, s, _ in DECLARED_BOUNDS])
def test_every_declared_bound_holds_at_its_edge(path, flag, side, bound, capsys):
    argv = [*path, *MINIMAL_ARGV[path]]
    past = bound - 1 if side == "least" else bound + 1
    code, out = run_cli([*argv, f"{flag}={past}"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {flag} must be at {side} {bound}, got {past}\n"
    cli._check_bounds(cli.build_parser().parse_args([*argv, f"{flag}={bound}"]))


def test_bounds_run_before_the_handler(monkeypatch, capsys):
    # main checks the declared bounds once, before it calls the handler (here
    # None, which a call would fail on)
    monkeypatch.setitem(dict(_parsers())[("torus", "form")]._defaults, "func", None)
    code, out = run_cli(["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4",
                         "--samples", "0"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: --samples must be at least 1, got 0\n"


# sha256 of each parser's --help at COLUMNS=80, taken under Python 3.11
HELP_DIGESTS = {
    "": "cf2eefef88fc229b86c1870f37ec1e632805737ccf64a69630395bbca1ccda65",
    "roots": "12c33ce25e5dd1ed63ddc33b5691961f9b233d54fc345973911a2a3787cbaa3b",
    "roots dump": "a489ac83f8e218ca860dfae6eba69d1fa2d0a3ab66f9ae431c711cfbe9a96a59",
    "gauss": "3b312a0f8d14f6ccd7f984c54c9b3521813d287d6f9a6e6988c46ee74cdee47a",
    "gauss monodromy": "9b7925f7d54cc09a9085f4a0eb34bf161dc291d11742ece247f5fe2888fd2d24",
    "gauss schwarz-triangle":
        "980c1dd1e9b2d784484864df9901e94498ef5b462f5df65c5c15146d8df70ad3",
    "triangle": "cda045392a71e362697af968278057fce55fdcfa7ca9f5940953b41452126f45",
    "triangle tessellate": "ae879ca3928e8510aec609325a35121160872217ddb438bd0abe666ae826de3c",
    "torus": "f0d61a4ff451b3cc63b59bb0631db0c34237fce364b41d3d4911e1c29f1c2f0a",
    "torus flatness": "cd593f0035f2aaa5e036f7b5bdb37f9426b4559f8cf12abb45a64ae80dfb83d2",
    "torus monodromy": "c4ee2d3a7f8485476873f68db805cdd1735743b20ca3674f33682924f70ef794",
    "torus form": "5fd3ac39d8e589d44b2882291ec44271656b9ce9fff868f585a7ea19347ab36c",
    "schwarz": "a7a2d8c181d129d3eda3127f497b4edc14831c0e0bee2215f18ca8b39f8a91a2",
    "schwarz enumerate": "4c0c85099a06284cef4cd8ea9a7a5ebc6c9f962a87e8eda2c4aa6bf73944c695",
    "schwarz check": "cef57ec0bdfc651f07223f44bbdaf960caa25e92fd3065f5755f2a3d62a03b97",
    "schwarz dm": "34c04687fd7defb3d48b12de0dba73ed046ed8c8ef384f9efb604e54e1526738",
    "schwarz dm-scan": "b130839271f602c26daefb767a132d8b414f7f43c02fb7739bd70968f7b73606",
    "schema": "ec2605368527614e461ac5e3c43148ddfec3ef1a73c3dee39c8a42ccd117ce70",
}


def test_help_digests_name_every_parser():
    assert sorted(" ".join(path) for path, _ in _parsers()) == sorted(HELP_DIGESTS)


@pytest.mark.parametrize("path", HELP_DIGESTS)
def test_help_is_pinned(path, monkeypatch, capsys):
    # the layout of each parser: flags, their order, choices and help lines
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([*path.split(), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[path], out


def test_schema_self_describes():
    code, out = run_cli(["schema"])
    assert code == 0
    schema = json.loads(out)
    jsonschema.Draft7Validator.check_schema(schema)


def _run_python(args):
    """`python *args` in a fresh process that imports the same package as
    these tests, whether or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def _run_subprocess(argv):
    """`python -m schwarz_atlas.cli` in a fresh process."""
    return _run_python(["-m", "schwarz_atlas.cli", *argv])


def test_console_entry_point_subprocess():
    proc = _run_subprocess(["schwarz", "enumerate", "--p-max", "10"])
    assert proc.returncode == 0
    assert "p =  10 : A2" in proc.stdout


# the modules that an exact subcommand must not load: each loads numpy
NUMERIC_MODULES = ("numpy", "schwarz_atlas.gauss", "schwarz_atlas.triangle",
                   "schwarz_atlas.torus", "schwarz_atlas._kernels")


@pytest.mark.parametrize("argv", [
    ["schwarz", "enumerate", "--p-max", "10"],
    ["schwarz", "check", "--type", "E", "--rank", "8", "--p", "7"],
    ["schwarz", "dm", "--n", "5", "--p", "4"],
    ["schwarz", "dm-scan", "--n-max", "3", "--p-max", "5"],
    ["roots", "dump", "--type", "D", "--rank", "30"],
    ["schema"],
], ids=lambda argv: "-".join(argv[:2]))
def test_exact_subcommands_load_no_numpy_subprocess(argv):
    # the CLI imports the numeric modules inside the handlers that run them,
    # so the exact subcommands start on the standard library alone
    proc = _run_python(["-c", (
        "import sys\n"
        "from schwarz_atlas import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(code, [m for m in {NUMERIC_MODULES!r} if m in sys.modules], file=sys.stderr)\n")])
    assert proc.returncode == 0
    assert proc.stderr == "0 []\n"


def test_worker_imports_load_every_traced_layer_subprocess():
    # perfbench/tracer.py reads every layer from sys.modules right after the
    # benchmark worker's `from schwarz_atlas import cli, gauss`
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    proc = _run_python(["-c", (
        "import sys\n"
        "from schwarz_atlas import cli, gauss\n"
        "loaded = set(sys.modules)\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracer import LAYERS, PACKAGE\n"
        "print([layer for layer in LAYERS if f'{PACKAGE}.{layer}' not in loaded])\n")])
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_numeric_failure_is_one_class():
    assert _kernels.NumericFailure is gauss.NumericFailure is schwarz_atlas.NumericFailure
    assert issubclass(torus.MirrorSingularity, gauss.NumericFailure)
    assert issubclass(torus.InvariantFormError, gauss.NumericFailure)
    assert not issubclass(gauss.NumericFailure, ValueError)


def test_torus_monodromy_with_a_large_frame_reports_a_finite_residual(capsys):
    # at k = 70 the A2 loop has entries near 2e103: ||M|| is finite, and the
    # Hecke residual divides M by it before the product, so the report holds
    # a finite residual (about 0.2) and exits 1, with nothing on stderr
    code, out = run_cli(["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "70",
                         "--format", "json"])
    residual = json.loads(out)["residuals"]["hecke_residual"]
    assert code == 1 and math.isfinite(residual) and residual > 1e-6
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fam, rank, k, root, code", [
    # wrong loops: their squares of half-turns lost every digit, and the
    # Hecke residual, which divides by ||M||^2, reads below 1e-6 on each
    ("E", 8, "40", "1", 1), ("E", 8, "20", "6", 1), ("D", 8, "20", "1", 1),
    ("E", 8, "10", "6", 1), ("E", 8, "150", "1", 1), ("E", 8, "200", "1", 1),
    # loops within 3.3e-8 of those from the whole half-turns' transport: the
    # last two read |det M - q^2| = 2.3e2 and 1.6 at cond(M) = 8.8e13 and 1.8e13
    ("D", 5, "-21/4", "highest", 0), ("E", 8, "-21/4", "7", 0),
    ("E", 6, "-21/4", "highest", 0)])
def test_torus_monodromy_determinant_fails_wrong_large_loops(fam, rank, k, root, code, capsys):
    # det M = q^2 within _DET_TOL cond(M), reported under results
    got, out = run_cli(["torus", "monodromy", "--type", fam, "--rank", str(rank), f"--k={k}",
                        "--root", root, "--format", "json"])
    assert got == code and capsys.readouterr().err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, cli.report_schema())
    assert "determinant" not in payload["residuals"]
    M = np.array([[complex(*v) for v in row] for row in payload["results"]["matrix"]])
    det = complex(*payload["results"]["determinant"])
    q_squared = complex(*payload["results"]["q_squared"])
    assert (abs(det - q_squared) > cli._DET_TOL * np.linalg.cond(M)) == bool(code)


@pytest.mark.parametrize("k, ending", [
    pytest.param("240", "loop monodromy is not finite: the transports overflow", id="240"),
    pytest.param("300", "frame is not finite at t = 1.0", id="300"),
    pytest.param("1000", "did not converge within 400 terms", id="1000"),
])
def test_torus_overflow_prints_one_error_line_subprocess(k, ending):
    # as k grows the A2 quarter-turn's frame grows until the solve for the
    # half-turn overflows (k = 240), the frame overflows in the kernel (300)
    # or a step needs more series terms than it may take (1000): numpy's
    # warnings stay off stderr, which holds the one error line of every
    # numeric failure.  The quarter-turn frame grows as the square root of
    # the half-turn's, so k = 100 now prints a report (exit 1)
    proc = _run_subprocess(["torus", "monodromy", "--type", "A", "--rank", "2", "--k", k])
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numeric failure: ")
    assert lines[0].endswith(ending)


@pytest.mark.parametrize("argv", [["monodromy", "--k", "300"], ["form", "--k", "1000"]])
def test_e8_overflow_prints_one_error_line_subprocess(argv):
    # the flatness gate passes the flat E8 connection at these k; the loop
    # transports then overflow, and that is the one error line (monodromy's
    # quarter-turns stay finite at k = 200, where it prints a report)
    proc = _run_subprocess(["torus", argv[0], "--type", "E", "--rank", "8", *argv[1:]])
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numeric failure: ")
    assert "flat" not in lines[0]


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
    # them, give the stdout and exit codes of fresh processes.  One parser is
    # built, by the first build_parser() call, and main parses every run
    # with it: each run names its leaf, so each is one pass of the leaf
    # reader, and only the run the reader does not take, the invalid choice
    # --type X, goes on to the full tree, which prints its usage error
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    read, full = [], []
    monkeypatch.setattr(cli, "_read_leaf",
                        lambda *a, read_leaf=cli._read_leaf: read.append(a) or read_leaf(*a))
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv, parse=parser.parse_args: full.append(argv) or parse(argv))
    runs = [
        ["schwarz", "check", "--type", "E", "--rank", "6", "--p", "4"],
        ["roots", "dump", "--type", "A", "--rank", "3", "--format", "text"],
        ["schwarz", "check", "--type", "X", "--rank", "2", "--p", "4"],
        ["schwarz", "enumerate", "--p-max", "12", "--format", "csv"],
        ["schwarz", "dm", "--n", "3", "--p", "5", "--format", "text"],
        ["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/3", "--mu", "1/7"],
    ]
    in_process = [_run_exit(argv) for argv in runs]
    assert cli.build_parser.cache_info().misses == 1
    assert len(read) == len(runs) and full == [runs[2]]
    fresh = []
    for argv in runs:
        proc = _run_subprocess(argv)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 0, 0]


def _without_command(args):
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "subcommand")}


@pytest.mark.parametrize("argv", [
    *([*path, *MINIMAL_ARGV[path], f"{flag}={edge}"]
      for path, flag, side, bound in DECLARED_BOUNDS
      for edge in (bound, bound - 1 if side == "least" else bound + 1)),
    *(argv for argv, _ in USAGE_ERRORS), ["schema", "--format", "text"]])
def test_leaf_parse_gives_the_full_tree_namespace(argv):
    # main reads a run that names a leaf with the leaf reader alone; the full
    # tree hands the same words to that leaf's parser, so the Namespaces
    # differ only in the command and subcommand that the full tree records
    parser = cli.build_parser()
    argv = cli._attach_negative_values(argv)
    got = cli._parse(parser, argv)
    want = parser.parse_args(argv)
    assert "command" not in vars(got) and "command" in vars(want)
    assert _without_command(got) == _without_command(want)


@pytest.mark.parametrize("argv", [
    [], ["--version"], ["--help"], ["torus"], ["torus", "--help"], ["torus", "flatnes"],
    ["--format", "json", "schema"], ["schema", "extra"],
    ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--bogus"],
    ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "7"],
    ["torus", "flatness", "--type", "A", "--rank", "2", "--k", "1/6", "--vers"],
    ["torus", "flatness", "--type", "A", "--rank", "2"],
    ["schwarz", "check", "--type", "A", "--rank", "x", "--p", "3"],
    ["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7", "--help"],
])
def test_argv_outside_one_leaf_reads_as_the_full_tree(argv, capsys):
    # what the leaf reader does not take (no leaf named, words it does not
    # read exactly, argparse errors, help) prints the full tree's output and
    # exit
    with pytest.raises(SystemExit) as want:
        cli.build_parser().parse_args(argv)
    want_out = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        cli.main(argv)
    assert (got.value.code, capsys.readouterr()) == (want.value.code, want_out)


# the words drawn as the value of a leaf flag, by the flag's type: words that
# the type takes, and words that it rejects
GOOD_WORDS = {
    int: ["3", "7", "1", "0", "-1"],
    cli.parse_rational: ["1/4", "1/6", "-1/3", "2", "0"],
    cli._tolerance: ["1e-6", "0.5"],
    None: ["1", "highest", "", "x"],
}
BAD_WORDS = {
    int: ["x", "2.5", "", "inf", "-inf", "nan"],
    cli.parse_rational: ["1/0", "0.5", "", "inf", "-inf", "nan"],
    cli._tolerance: ["nan", "inf", "-inf", "0", "-1", "1e999"],
    None: [],
}


def _flag_words(path, action, bad):
    """The words drawn as the value of one flag of the leaf at path.  Good:
    its choices, or the words its type takes with the flag's declared
    bounds and the integers one past them.  Bad: a word outside its choices
    or one its type rejects, a word that starts with "-", and "--"."""
    if bad:
        return [*(["X"] if action.choices else BAD_WORDS[action.type]), "-x", "--"]
    if action.choices is not None:
        return list(action.choices)
    return [*GOOD_WORDS[action.type],
            *(str(bound + step) for p, flag, side, bound in DECLARED_BOUNDS
              if p == path and flag in action.option_strings
              for step in (0, -1 if side == "least" else 1))]


def _spelled(flag, words):
    """The groups "--flag word" and "--flag=word" of each word."""
    return [group for word in words for group in ([flag, word], [f"{flag}={word}"])]


@functools.cache
def _group_strategies(path):
    """Strategies of the word groups of the leaf at path: the good groups of
    each required flag, a good group of any flag, and by fault the group that
    makes a run wrong: a bad value or "=" on a store_true flag, an
    abbreviated flag (a prefix of one), an unknown flag, a positional word,
    help, a flag followed by a word that starts with "-", or a flag without
    its value, which goes at the end."""
    flags = [a for a in LEAVES[path]._actions if a.dest != "help"]
    valued = [a for a in flags if a.nargs is None]

    def groups(action, bad):
        flag = action.option_strings[0]
        if action.nargs == 0:    # store_true
            return [[f"{flag}=1"] if bad else [flag]]
        return _spelled(flag, _flag_words(path, action, bad))

    faults = {
        "value": [group for a in flags for group in groups(a, True)],
        "abbreviation": [[a.option_strings[0][:end], word] for a in valued
                         for end in range(3, len(a.option_strings[0]))
                         for word in _flag_words(path, a, False)],
        "unknown": [["--bogus"]],
        "positional": [["7"]],
        "help": [["-h"]],
        "dash": [[a.option_strings[0], "-x"] for a in valued],
        "no value": [[a.option_strings[0]] for a in valued],
    }
    return ({a.option_strings[0]: st.sampled_from(groups(a, False))
             for a in flags if a.required},
            st.sampled_from([group for a in flags for group in groups(a, False)]),
            {fault: st.sampled_from(found) for fault, found in faults.items()})


@st.composite
def _leaf_runs(draw, path):
    """The words after path of one good run and of one run per fault.  The
    good run holds the leaf's required flags and up to three more, repeats
    included, in a drawn order, each spelled "--flag value" or
    "--flag=value".  Each faulty run is the good run with one required flag
    left out, or with one group of a _group_strategies fault put in."""
    required, good, faults = _group_strategies(path)
    run = draw(st.permutations([draw(group) for group in required.values()]
                               + draw(st.lists(good, max_size=3))))
    runs = [run]
    if required:
        flag = draw(st.sampled_from(sorted(required)))
        runs.append([group for group in run if group[0].partition("=")[0] != flag])
    for fault, strategy in faults.items():
        at = len(run) if fault == "no value" else draw(st.integers(0, len(run)))
        runs.append([*run[:at], draw(strategy), *run[at:]])
    return [[word for group in groups for word in group] for groups in runs]


def _outcome(call, argv):
    """(what call(argv) returns, or None on SystemExit, and (exit code or
    None, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result, code = call(argv), None
        except SystemExit as exc:
            result, code = None, exc.code
    return result, (code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("path", list(LEAVES), ids=" ".join)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.data())
def test_leaf_reader_gives_what_the_full_tree_gives(path, data):
    # argv drawn from the leaf's declared flags: where the full tree accepts,
    # _parse gives its Namespace less the command and subcommand; where it
    # rejects, main prints its help or usage error and exits as it does
    parser = cli.build_parser()
    for words in data.draw(_leaf_runs(path)):
        argv = [*path, *words]
        want, want_out = _outcome(parser.parse_args, cli._attach_negative_values(argv))
        if want is None:
            assert _outcome(cli.main, argv)[1] == want_out, argv
        else:
            got = cli._parse(parser, cli._attach_negative_values(argv))
            assert _without_command(got) == _without_command(want), argv


REPORT_ARGV = [
    ["gauss", "schwarz-triangle", "--kappa", "1/2", "--lambda", "1/3", "--mu", "1/7"],
    ["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "5"],
    ["torus", "flatness", "--type", "A", "--rank", "3", "--k", "1/6", "--samples", "2"],
    ["torus", "form", "--type", "A", "--rank", "2", "--k", "1/4", "--samples", "3"],
    ["schwarz", "check", "--type", "E", "--rank", "7", "--p", "3"],
    ["schwarz", "dm", "--n", "5", "--p", "4"],
    ["schwarz", "dm", "--n", "5", "--p", "6"],
    ["schwarz", "dm-scan", "--n-max", "4", "--p-max", "23"],
    ["roots", "dump", "--type", "E", "--rank", "7"],
    ["gauss", "monodromy", "--alpha", "1/84", "--beta", "13/84", "--gamma", "1/2"],
    ["torus", "monodromy", "--type", "A", "--rank", "2", "--k", "1/4", "--root", "highest"],
    ["schwarz", "enumerate", "--p-max", "12"],
    ["triangle", "tessellate", "--k", "2", "--l", "3", "--m", "7", "--depth", "6"],
]


def test_report_argv_name_every_report():
    # every leaf but `schema`, which prints the schema itself
    assert {tuple(argv[:2]) for argv in REPORT_ARGV} == set(LEAVES) - {("schema",)}


@pytest.mark.parametrize("argv", REPORT_ARGV)
def test_every_json_report_matches_the_schema(argv):
    code, out = run_cli(argv + ["--format", "json"])
    assert code == 0
    jsonschema.validate(json.loads(out), cli.report_schema())


@pytest.mark.parametrize("argv", [*REPORT_ARGV, ["schema"]])
def test_every_json_report_is_written_as_json_dumps_writes_it(argv):
    code, out = run_cli(argv + ["--format", "json"])
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


# the JSON text of values that the reports hold and of the edge cases of
# json's number and string writers
JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(["", "\"quoted\"", "back\\slash", "\x00\x1f\t\n\x7f", "é ß ∞ 😀"]),
    st.integers(),
    st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63) + 2),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                     1e16, 1e-7, 0.1, 1 / 3]),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    out = io.StringIO()
    cli._emit(value, "json", out)
    assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 0}]}, {"a": {2.5: 1}}])
def test_json_writer_rejects_keys_that_are_not_str(value):
    # json.dumps would write such a key as a string; no report has one
    with pytest.raises(TypeError):
        cli._emit(value, "json", io.StringIO())


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
    # no row at all, and a range whose only table diff is the (6, A5) anomaly
    *(["schwarz", "enumerate", *bounds, "--format", fmt]
      for bounds in (["--p-min", "7", "--p-max", "9"],
                     ["--p-min", "4", "--p-max", "12", "--rank-max", "5"])
      for fmt in ("csv", "text", "json")),
    ["schwarz", "dm-scan", "--n-max", "4", "--p-max", "23"],
    ["schwarz", "dm-scan", "--n-max", "2", "--p-max", "3"],
    ["schwarz", "dm-scan", "--format", "text"],
]


def test_exact_layer_reports_are_pinned(capsys):
    # `roots dump` and every `schwarz` subcommand over the grid above: sha256
    # of (argv, exit code, stdout, stderr); re-pinned when the CSV of
    # `schwarz enumerate --include-k-half` gained its `inf` rows, when the
    # grid gained the empty and one-anomaly enumerations and two dm-scans,
    # when `--format text` kept nested lists (the `roots dump` text entries
    # and the default `dm-scan` text), and when it marked each dict of a list
    # with a "-" line (the `schwarz check` and `schwarz dm` text entries)
    digest = hashlib.sha256()
    for argv in EXACT_LAYER_GRID:
        code, out = _run_exit(argv)
        digest.update(repr((argv, code, out, capsys.readouterr().err)).encode())
    assert digest.hexdigest() == (
        "d73e01e8705f5aa3459c398c6150926439ae8fc10bba80858cb1bb1c3e81bf45")


def _readme_commands():
    """The lines of the sh block under README's `## Command line`, each as
    (argv after `schwarz-atlas`, the exit code the line states)."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        assert words[0] == "schwarz-atlas", line
        commands.append((words[1:], 1 if "# exits 1" in line else 0))
    return commands


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # each example of the README runs as written, with the exit code it states
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 13
    for argv, want in commands:
        code, _ = _run_exit(argv)
        assert code == want, (argv, capsys.readouterr().err)


def test_readme_names_every_declared_bound():
    # the README paragraph on usage bounds names each bounded flag and each
    # numeric bound, so that it cannot fall behind the declarations
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    paragraph = next(para for para in readme.read_text(encoding="utf-8").split("\n\n")
                     if para.startswith("Usage bounds are checked after parsing"))
    words = set(re.findall(r"--[\w-]+|\d+", paragraph))
    for _, flag, _, bound in DECLARED_BOUNDS:
        assert flag in words and str(bound) in words, (flag, bound)
