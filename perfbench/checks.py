"""Output checks for one op, run after the timed batch.

An op fails when it raised (SystemExit included), when its exit code is not
the expected one, or when its output fails a check below.  A failed op that
carries a known defect and failed the way that defect fails (exit 1, no
exception, a valid report if it printed one) is a known-defect failure: it
counts in fail_ratio but does not make the run incorrect.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

MAX_DIGITS = 16.0


def digits(tol, residual):
    """log10(tol / residual), 16 for an exact zero and capped at 16."""
    if residual <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, math.log10(tol / residual))


def _close_sets(got, want, tol=1e-9):
    got = [complex(*z) for z in got]
    return len(got) == len(want) and all(min(abs(g - w) for g in got) <= tol for w in want) \
        and all(min(abs(g - w) for w in want) <= tol for g in got)


def _reference(op, results, problems):
    """Exact references for the op kind; appends a message per mismatch."""
    kind, ref = op["kind"], op["ref"]
    if kind == "schwarz enumerate":
        diff = results["table_diff"]
        if diff["extra"] != ref["extra"] or diff["missing"] != ref["missing"]:
            problems.append(f"table diff {diff} is not the in-range documented anomalies")
    elif kind == "triangle tessellate" and "tiles" in ref:
        if results["tile_count"] != ref["tiles"] or not results["closure_reached"]:
            problems.append(f"closure gave {results['tile_count']} tiles, want {ref['tiles']}")
    elif kind == "roots dump":
        if (results["positive_root_count"], results["coxeter_number"]) != (
                ref["positive_roots"], ref["coxeter"]):
            problems.append("positive root count or Coxeter number differs from the reference")
    elif kind == "gauss schwarz-triangle":
        if any(abs(a - b) > 1e-8 for a, b in zip(results["angles"], ref["angles"])):
            problems.append("triangle angles differ from pi/k, pi/l, pi/m")
    elif kind == "gauss monodromy":
        for s, exps in ref["exponents"].items():
            want = [cmath.exp(2j * math.pi * float(Fraction(e))) for e in exps]
            if not _close_sets(results["monodromy"][s]["expected_eigenvalues"], want):
                problems.append(f"expected eigenvalues at {s} differ from the Riemann scheme")
    elif kind == "torus flatness":
        if results["coupling_constant"] != ref["coupling"]:
            problems.append(f"coupling {results['coupling_constant']} is not {ref['coupling']}")
    elif kind == "torus monodromy":
        q2 = cmath.exp(-4j * math.pi * float(Fraction(ref["k"])))
        if abs(complex(*results["q_squared"]) - q2) > 1e-12:
            problems.append("q^2 differs from exp(-4 pi i k)")
    elif kind == "torus form":
        if (results["signature"] != [ref["rank"], 1] or results["solution_space_dimension"] != 1
                or not results["ball_all_negative"]):
            problems.append("form is not Lorentzian of dimension 1 with the ball negative")
    elif kind == "schwarz check":
        if results.get("p") not in (None, ref["p"]):
            problems.append("reflection order differs")
    elif kind == "schwarz dm":
        if results["k"] != ref["k"]:
            problems.append(f"k = {results['k']}, want {ref['k']}")
    elif kind == "schwarz dm-scan":
        if not (results["identities_hold"] and results["verdicts_agree"]):
            problems.append("weight identities or verdicts do not hold")


def check(op, result, validator):
    """Judge one op.  Returns (outcome, problems, digits or None).

    outcome is "ok", "known_defect" or "failed"."""
    problems = []
    if result["raised"]:
        problems.append(f"raised {result['raised']}")
    if result["code"] != op["expect"]:
        problems.append(f"exit code {result['code']}, expected {op['expect']}")
    residuals = {}
    report_ok = True
    if op["argv"] is not None and result["stdout"]:
        try:
            report = json.loads(result["stdout"])
        except ValueError:
            report, report_ok = None, False
            problems.append("stdout is not JSON")
        if report is not None:
            errors = sorted(validator.iter_errors(report), key=str)
            if errors:
                report_ok = False
                problems.append(f"report fails the schema: {errors[0].message}")
            else:
                residuals = report["residuals"]
                if result["code"] == 0:
                    _reference(op, report["results"], problems)
    elif op["argv"] is None and not result["raised"]:
        residuals = {"angle_residual": result["residual"]}
    elif result["code"] == 0:
        problems.append("exit 0 without a report")

    op_digits = None
    for key, value in residuals.items():
        if key not in op["tols"]:
            problems.append(f"residual {key} has no tolerance")
            continue
        tol = op["tols"][key]
        d = digits(tol, value)
        op_digits = d if op_digits is None else min(op_digits, d)
        if op["expect"] == 0 and result["code"] == 0 and value > tol:
            problems.append(f"{key} {value:.3e} exceeds {tol:.1e}")
    if op["expect"] == 1 and op["kind"] == "torus flatness" and result["code"] == 1:
        if residuals.get("flatness_residual", 0.0) <= op["tols"]["flatness_residual"]:
            problems.append("curvature off the forced coupling went undetected")

    if not problems:
        return "ok", problems, op_digits
    if op["defect"] and not result["raised"] and result["code"] == 1 and report_ok:
        return "known_defect", problems, op_digits
    return "failed", problems, op_digits
