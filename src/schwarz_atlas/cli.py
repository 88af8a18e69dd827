"""Single command-line entry point.

Subcommands map onto the library modules (roots, gauss, triangle, torus,
schwarz); every run with the same flags produces byte-identical output, exact
rationals are only ever accepted as "p/q" strings, and the exit code contract
is: 0 success, 1 a numeric check failed its tolerance or the numerics broke
down, 2 invalid usage.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, roots, schwarzcond, torus, triangle
from . import gauss as gaussmod
from .exact import format_rational, parse_rational

SCHEMA_VERSION = "1.0"

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


def _complex_out(z):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_out(M):
    return [[_complex_out(v) for v in row] for row in np.asarray(M)]


def _report(module, inputs, results, residuals, checks):
    for key in residuals:
        if not key.endswith("_residual"):
            raise ValueError(f"residual key {key!r} must end in '_residual'")
    return {
        "schema_version": SCHEMA_VERSION,
        "module": module,
        "inputs": inputs,
        "results": results,
        "residuals": residuals,
        "checks": list(checks),
    }


def report_schema():
    """Versioned schema for every JSON report the tool emits."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "schwarz-atlas report",
        "version": SCHEMA_VERSION,
        "type": "object",
        "required": ["schema_version", "module", "inputs", "results", "residuals", "checks"],
        "properties": {
            "schema_version": {"type": "string", "const": SCHEMA_VERSION},
            "module": {"type": "string",
                       "enum": ["roots", "gauss", "triangle", "torus", "schwarz"]},
            "inputs": {"type": "object"},
            "results": {"type": "object"},
            "residuals": {
                "type": "object",
                "propertyNames": {"pattern": "^[a-z0-9_]*_residual$"},
                "additionalProperties": {"type": "number"},
            },
            "checks": {"type": "array", "items": {"type": "string"}},
        },
        "additionalProperties": False,
    }


def _emit(payload, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _emit_text(payload, stream)


def _emit_text(payload, stream, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in payload:
            val = payload[key]
            if isinstance(val, (dict, list)) and val and not _is_scalar_list(val):
                stream.write(f"{pad}{key}:\n")
                _emit_text(val, stream, indent + 1)
            else:
                stream.write(f"{pad}{key}: {_scalar_str(val)}\n")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                _emit_text(item, stream, indent)
                stream.write("\n" if indent == 0 else "")
            else:
                stream.write(f"{pad}- {_scalar_str(item)}\n")
    else:
        stream.write(f"{pad}{_scalar_str(payload)}\n")


def _is_scalar_list(val):
    return isinstance(val, list) and all(not isinstance(x, (dict, list)) for x in val)


def _scalar_str(val):
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, list):
        return "[" + ", ".join(_scalar_str(v) for v in val) + "]"
    return str(val)


def _tolerance(text):
    """argparse type of the --tol flags: a positive finite float, since NaN
    fails every residual and an infinite bound passes every one."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _rtype_from(args):
    return roots.RootSystemType(args.family, args.rank)


def _add_type_args(sub):
    sub.add_argument("--type", dest="family", required=True, choices=["A", "D", "E"])
    sub.add_argument("--rank", type=int, required=True)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (exit_code, payload))

def _cmd_roots_dump(args):
    system = roots.build(_rtype_from(args))
    payload = _report(
        module="roots",
        inputs={"type": str(system.rtype)},
        results=roots.dump(system),
        residuals={},
        checks=[
            "every root has squared norm 2 in the Cartan pairing",
            "positive root count equals rank * coxeter_number / 2",
        ],
    )
    return EXIT_OK, payload


def _cmd_gauss_monodromy(args):
    p = gaussmod.GaussParams(args.alpha, args.beta, args.gamma)
    if p.log_case:
        raise ValueError("integer exponent difference (logarithmic case)")
    mats = gaussmod.monodromy_matrices(p)
    relation = gaussmod.scaled_relation_residual(mats[0], mats[1], mats["inf"])
    spectra = {}
    mismatch = 0.0
    for s, M in mats.items():
        expected = gaussmod.expected_monodromy_spectrum(p, s)
        mismatch = max(mismatch, gaussmod.scaled_spectrum_residual(M, expected))
        spectra[str(s)] = {
            "matrix": _matrix_out(M),
            "eigenvalues": [_complex_out(v) for v in np.linalg.eigvals(M)],
            "expected_eigenvalues": [_complex_out(v) for v in expected],
        }
    payload = _report(
        module="gauss",
        inputs={"alpha": format_rational(p.alpha), "beta": format_rational(p.beta),
                "gamma": format_rational(p.gamma)},
        results={"monodromy": spectra},
        residuals={"relation_residual": relation, "spectrum_residual": mismatch},
        checks=[
            "product of the loops at infinity, 1 and 0 is the identity",
            "loop eigenvalues are exp(2 pi i e) for the local exponents e",
        ],
    )
    ok = relation <= args.tol and mismatch <= 1e-6
    return (EXIT_OK if ok else EXIT_NUMERIC), payload


def _cmd_gauss_triangle(args):
    kappa, lam, mu = (Fraction(args.kappa), Fraction(args.lam), Fraction(args.mu))
    geometry = triangle.classify_angles(kappa, lam, mu)
    for flag, angle in (("--kappa", kappa), ("--lambda", lam), ("--mu", mu)):
        if angle < 0 or (angle == 0 and geometry is not triangle.Geometry.HYPERBOLIC):
            raise ValueError(
                f"{flag} must be positive, got {format_rational(angle)}"
                + ("" if angle else " (a zero angle needs a hyperbolic triangle)"))
    # a spherical triangle needs 1 + x > y + z for each angle x (in units of
    # pi), which also keeps every angle below 1; the arc construction and its
    # angle residual assume both
    if geometry is triangle.Geometry.SPHERICAL and 1 + 2 * min(kappa, lam, mu) <= kappa + lam + mu:
        raise ValueError(
            f"the angles {format_rational(kappa)}, {format_rational(lam)}, {format_rational(mu)}"
            " (times pi) make no spherical triangle: each angle plus 1 must exceed the sum"
            " of the other two")
    tess = triangle.triangle_from_angles(
        float(kappa) * math.pi, float(lam) * math.pi, float(mu) * math.pi, geometry)
    if args.svg:
        triangle.export_svg(tess, args.svg)
    residual = tess.max_angle_residual()
    payload = _report(
        module="gauss",
        inputs={"kappa": format_rational(kappa), "lambda": format_rational(lam),
                "mu": format_rational(mu)},
        results={
            "geometry": geometry.value,
            "vertices": [list(v) for v in zip(*tess.points[:, 0, :3].tolist())],
            "angles": [float(a) for a in tess.angles],
            "svg": args.svg or "",
        },
        residuals={"angle_residual": residual},
        checks=["constructed arc triangle carries the requested vertex angles"],
    )
    return (EXIT_OK if residual <= 1e-8 else EXIT_NUMERIC), payload


def _cmd_triangle_tessellate(args):
    if args.depth is not None:
        _require_at_least("--depth", args.depth, 0)
    _require_at_least("--max-tiles", args.max_tiles, 1)
    tess = triangle.tessellate(args.k, args.l, args.m, max_word_length=args.depth,
                               max_tiles=args.max_tiles)
    rep = tess.report()
    if args.svg:
        triangle.export_svg(tess, args.svg)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            _emit(rep, "json", fh)
    payload = _report(
        module="triangle",
        inputs={"k": args.k, "l": args.l, "m": args.m, "depth": args.depth},
        results={**rep, "svg": args.svg or ""},
        residuals={
            "angle_residual": rep["max_angle_residual"],
            **({"orthogonality_residual": rep["max_orthogonality_residual"]}
               if "max_orthogonality_residual" in rep else {}),
        },
        checks=[
            "tile angles are preserved by every side reflection",
            "hyperbolic side circles are orthogonal to the unit circle",
        ],
    )
    ok = rep["max_angle_residual"] <= 1e-8 and rep.get("max_orthogonality_residual", 0.0) <= 1e-9
    return (EXIT_OK if ok else EXIT_NUMERIC), payload


def _require_at_least(flag, value, least):
    # an empty sample, scan or tile budget would pass every check vacuously,
    # below n = 1 there is no weight vector and below depth 0 no word
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def _require_at_most(flag, value, most):
    # the largest A_n and D_n that roots builds, the ranks and orders that
    # dm_equivalence_scan covers, and a bound on the orders enumerate scans
    # (about 50 us each at rank 13, so a mistyped bound would run for minutes)
    if value > most:
        raise ValueError(f"{flag} must be at most {most}, got {value}")


def _cmd_torus_flatness(args):
    _require_at_least("--samples", args.samples, 1)
    _require_at_least("--seed", args.seed, 0)
    system = roots.build(_rtype_from(args))
    k = Fraction(args.k)
    a_override = Fraction(args.a_override) if args.a_override is not None else None
    sample_logs = torus.sample_points_near(system, args.samples, seed=args.seed)
    worst = 0.0
    for lz in sample_logs:
        worst = max(worst, torus.flatness_residual(system, k, np.exp(lz), a_override))
    payload = _report(
        module="torus",
        inputs={"type": str(system.rtype), "k": format_rational(k),
                "samples": args.samples, "seed": args.seed,
                "a_override": format_rational(a_override) if a_override is not None else None},
        results={"coupling_constant": format_rational(
            a_override if a_override is not None else roots.integrability_constant(system))},
        residuals={"flatness_residual": worst},
        checks=["curvature of the frame connection vanishes at off-mirror points"],
    )
    return (EXIT_OK if worst <= args.tol else EXIT_NUMERIC), payload


def _cmd_torus_monodromy(args):
    system = roots.build(_rtype_from(args))
    k = Fraction(args.k)
    n = system.rank
    if args.root == "highest":
        alpha = roots.highest_root(system)
    else:
        try:
            idx = int(args.root)
        except ValueError:
            idx = 0    # out of range, so named below like any other
        if not 1 <= idx <= n:
            raise ValueError(f"--root must be 1..{n} or 'highest', got {args.root!r}")
        alpha = np.eye(n, dtype=np.int64)[idx - 1]
    M = torus.mirror_monodromy(system, k, alpha)
    residual = torus.hecke_residual(M, k)
    payload = _report(
        module="torus",
        inputs={"type": str(system.rtype), "k": format_rational(k),
                "root": str(args.root)},
        results={
            "matrix": _matrix_out(M),
            "eigenvalues": [_complex_out(v) for v in np.linalg.eigvals(M)],
            "q_squared": _complex_out(np.exp(-4j * np.pi * float(k))),
        },
        residuals={"hecke_residual": residual},
        checks=[
            "mirror loop satisfies (M - 1)(M - q^2) = 0 with q = exp(-2 pi i k)",
            "plain loops square the orbifold generators, hence the q^2 branch",
        ],
    )
    return (EXIT_OK if residual <= args.tol else EXIT_NUMERIC), payload


def _cmd_torus_form(args):
    _require_at_least("--samples", args.samples, 1)
    _require_at_least("--seed", args.seed, 0)
    system = roots.build(_rtype_from(args))
    k = Fraction(args.k)
    try:
        form = torus.invariant_form(torus.standard_generators(system, k))
    except torus.InvariantFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC, None
    ball = torus.ball_check(system, k, form,
                            torus.sample_points_near(system, args.samples, seed=args.seed))
    negative = all(v < 0 for v in ball)
    payload = _report(
        module="torus",
        inputs={"type": str(system.rtype), "k": format_rational(k),
                "samples": args.samples, "seed": args.seed},
        results={
            "hermitian_form": _matrix_out(form.matrix),
            "signature": list(form.signature),
            # invariant_form raises unless its solution space is a line
            "solution_space_dimension": 1,
            "ball_values": list(ball),
            "ball_all_negative": negative,
        },
        residuals={"form_residual": form.residual},
        checks=[
            "monodromy preserves a Hermitian form of Lorentz signature",
            "evaluation vectors near the base lie in the negative cone",
        ],
    )
    ok = (form.residual <= args.tol and form.signature == (system.rank, 1)
          and negative)
    return (EXIT_OK if ok else EXIT_NUMERIC), payload


def _cmd_schwarz_enumerate(args):
    _require_at_least("--p-min", args.p_min, 3)
    _require_at_least("--p-max", args.p_max, args.p_min)
    _require_at_most("--p-max", args.p_max, 1000)
    _require_at_least("--rank-max", args.rank_max, 2)
    _require_at_most("--rank-max", args.rank_max, 30)
    result = schwarzcond.enumerate_solutions(
        p_min=args.p_min, p_max=args.p_max, rank_max=args.rank_max,
        include_k_half=args.include_k_half)
    diff = schwarzcond.table_diff(result)
    clean = diff == schwarzcond.anomalies_in_range(args.p_min, args.p_max, args.rank_max)
    if args.fmt == "csv":
        lines = ["p,type"]
        for p, row in sorted(result.rows.items()):
            for t in row:
                lines.append(f"{p},{t}")
        print("\n".join(lines))
        return EXIT_OK if clean else EXIT_NUMERIC, None
    if args.fmt == "text":
        for p, row in sorted(result.rows.items()):
            print(f"p = {p:>3} : " + " ".join(row))
        if result.k_half:
            print("k = 1/2 : " + " ".join(result.k_half))
        if not clean:
            print(f"table diff beyond the documented anomalies: {diff}")
        return EXIT_OK if clean else EXIT_NUMERIC, None
    payload = _report(
        module="schwarz",
        inputs={"p_min": args.p_min, "p_max": args.p_max, "rank_max": args.rank_max},
        results={
            **result.as_dict(),
            "table_diff": {"extra": [list(x) for x in diff["extra"]],
                           "missing": [list(x) for x in diff["missing"]]},
            "documented_anomalies_only": clean,
        },
        residuals={},
        checks=[
            "exact stratum conditions reproduce the reference solution table",
            "the two boundary anomalies are reported, not patched",
        ],
    )
    return (EXIT_OK if clean else EXIT_NUMERIC), payload


def _cmd_schwarz_check(args):
    if args.k is None and args.p is None:
        raise ValueError("provide --p or --k")
    if args.k is not None and args.p is not None:
        raise ValueError("provide --p or --k, not both")
    k = schwarzcond.k_from_p(args.p) if args.k is None else Fraction(args.k)
    results = schwarzcond.check(roots.RootSystemType(args.family, args.rank), k)
    payload = _report(
        module="schwarz",
        inputs={"type": f"{args.family}{args.rank}", "k": format_rational(k),
                "p": results["p"]},
        results=results,
        residuals={},
        checks=["every stratum condition evaluated in exact arithmetic"],
    )
    return EXIT_OK, payload


def _cmd_schwarz_dm(args):
    _require_at_least("--n", args.n, 1)
    k = schwarzcond.k_from_p(args.p)
    vec = schwarzcond.dm_mu_vector(args.n, k)
    results = {"mu": vec.as_dict(), "k": format_rational(k)}
    if vec.degenerate:
        results["verdict"] = None
        results["note"] = "degenerate weight vector (entry at 0 or 1)"
    else:
        ok, pair_reports = schwarzcond.dm_conditions(vec)
        results["verdict"] = ok
        results["pairs"] = [
            {"pair": list(pair), "value": str(val), "satisfied": good}
            for pair, val, good in pair_reports
        ]
    wr_ok, wr = schwarzcond.dm_w_restricted(args.n, k)
    results["w_restricted"] = {
        "verdict": wr_ok,
        "conditions": [{key: c[key] for key in ("kind", "value", "satisfied")} for c in wr],
    }
    results["hidden_symmetry"] = schwarzcond.hidden_symmetry(args.n, k)
    payload = _report(
        module="schwarz",
        inputs={"n": args.n, "p": args.p},
        results=results,
        residuals={},
        checks=["pair conditions on the weight vector evaluated exactly"],
    )
    return EXIT_OK, payload


def _cmd_schwarz_dm_scan(args):
    # the scan starts at n = 2 and p = 3
    _require_at_least("--n-max", args.n_max, 2)
    _require_at_least("--p-max", args.p_max, 3)
    _require_at_most("--n-max", args.n_max, 10)
    _require_at_most("--p-max", args.p_max, 60)
    scan = schwarzcond.dm_equivalence_scan(n_max=args.n_max, p_max=args.p_max)
    rows = scan["rows"]
    identities_ok = all(r["identities_ok"] for r in rows)
    agree_ok = all(r["agree"] is not False for r in rows)
    degenerate = [[r["p"], r["n"]] for r in rows if r["degenerate"]]
    payload = _report(
        module="schwarz",
        inputs={"n_max": args.n_max, "p_max": args.p_max},
        results={
            "identities_hold": identities_ok,
            "verdicts_agree": agree_ok,
            "hidden_symmetry_cases": [list(x) for x in scan["hidden_symmetry_cases"]],
            "degenerate_cases": degenerate,
            "row_count": len(rows),
        },
        residuals={},
        checks=[
            "the three displayed weight identities hold exactly for every (n, p)",
            "subgroup-restricted weight verdicts match the A-type stratum check",
        ],
    )
    return (EXIT_OK if identities_ok and agree_ok else EXIT_NUMERIC), payload


def _cmd_schema(args):
    return EXIT_OK, report_schema()


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="schwarz-atlas",
        description="hypergeometric monodromy, root-system connections, "
                    "triangle tessellations and exact stratum conditions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="root-system data")
    roots_sub = p_roots.add_subparsers(dest="subcommand", required=True)
    d = roots_sub.add_parser("dump", help="emit lattice data and derived constants")
    _add_type_args(d)
    d.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    d.set_defaults(func=_cmd_roots_dump)

    p_gauss = sub.add_parser("gauss", help="second-order hypergeometric equation")
    gauss_sub = p_gauss.add_subparsers(dest="subcommand", required=True)
    g = gauss_sub.add_parser("monodromy", help="loop matrices, eigenvalues, relation")
    g.add_argument("--alpha", type=parse_rational, required=True)
    g.add_argument("--beta", type=parse_rational, required=True)
    g.add_argument("--gamma", type=parse_rational, required=True)
    g.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    g.add_argument("--tol", type=_tolerance, default=1e-7,
                   help="bound on ||M_inf M_1 M_0 - 1|| / (||M_inf|| ||M_1|| ||M_0||)")
    g.set_defaults(func=_cmd_gauss_monodromy)
    t = gauss_sub.add_parser("schwarz-triangle", help="render the image triangle")
    t.add_argument("--kappa", type=parse_rational, required=True)
    t.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    t.add_argument("--mu", type=parse_rational, required=True)
    t.add_argument("--svg", default="")
    t.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    t.set_defaults(func=_cmd_gauss_triangle)

    p_tri = sub.add_parser("triangle", help="reflection triangles and tessellations")
    tri_sub = p_tri.add_subparsers(dest="subcommand", required=True)
    tt = tri_sub.add_parser("tessellate", help="breadth-first reflection closure")
    tt.add_argument("--k", type=int, required=True)
    tt.add_argument("--l", type=int, required=True)
    tt.add_argument("--m", type=int, required=True)
    tt.add_argument("--depth", type=int, default=None,
                    help="maximum reflection word length")
    tt.add_argument("--max-tiles", type=int, default=20000)
    tt.add_argument("--svg", default="")
    tt.add_argument("--json", dest="json_path", default="")
    tt.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    tt.set_defaults(func=_cmd_triangle_tessellate)

    p_torus = sub.add_parser("torus", help="root-system hypergeometric system")
    torus_sub = p_torus.add_subparsers(dest="subcommand", required=True)
    f = torus_sub.add_parser("flatness", help="curvature residual at sample points")
    _add_type_args(f)
    f.add_argument("--k", type=parse_rational, required=True)
    f.add_argument("--samples", type=int, default=5)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--a-override", dest="a_override", type=parse_rational, default=None)
    f.add_argument("--tol", type=_tolerance, default=1e-8)
    f.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    f.add_argument("--json", dest="fmt", action="store_const", const="json")
    f.set_defaults(func=_cmd_torus_flatness)
    m = torus_sub.add_parser("monodromy", help="mirror-loop monodromy and its relation")
    _add_type_args(m)
    m.add_argument("--k", type=parse_rational, required=True)
    m.add_argument("--root", default="1",
                   help="simple-root index (1-based) or 'highest'")
    m.add_argument("--tol", type=_tolerance, default=1e-6)
    m.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    m.add_argument("--json", dest="fmt", action="store_const", const="json")
    m.set_defaults(func=_cmd_torus_monodromy)
    fo = torus_sub.add_parser("form", help="invariant Hermitian form and negative cone")
    _add_type_args(fo)
    fo.add_argument("--k", type=parse_rational, required=True)
    fo.add_argument("--samples", type=int, default=10)
    fo.add_argument("--seed", type=int, default=0)
    fo.add_argument("--tol", type=_tolerance, default=1e-6)
    fo.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    fo.add_argument("--json", dest="fmt", action="store_const", const="json")
    fo.set_defaults(func=_cmd_torus_form)

    p_schwarz = sub.add_parser("schwarz", help="exact stratum conditions")
    schwarz_sub = p_schwarz.add_subparsers(dest="subcommand", required=True)
    e = schwarz_sub.add_parser("enumerate", help="scan reflection orders and types")
    e.add_argument("--p-min", type=int, default=3)
    e.add_argument("--p-max", type=int, default=100)
    e.add_argument("--rank-max", type=int, default=13)
    e.add_argument("--include-k-half", action="store_true")
    e.add_argument("--format", dest="fmt", choices=["text", "json", "csv"],
                   default="text")
    e.set_defaults(func=_cmd_schwarz_enumerate)
    c = schwarz_sub.add_parser("check", help="conditions for one type and order")
    _add_type_args(c)
    c.add_argument("--p", type=int, default=None)
    c.add_argument("--k", type=parse_rational, default=None)
    c.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    c.set_defaults(func=_cmd_schwarz_check)
    dm = schwarz_sub.add_parser("dm", help="weight vector on n+3 points")
    dm.add_argument("--n", type=int, required=True)
    dm.add_argument("--p", type=int, required=True)
    dm.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    dm.set_defaults(func=_cmd_schwarz_dm)
    ds = schwarz_sub.add_parser("dm-scan", help="identity and equivalence sweep")
    ds.add_argument("--n-max", type=int, default=10)
    ds.add_argument("--p-max", type=int, default=60)
    ds.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    ds.set_defaults(func=_cmd_schwarz_dm_scan)

    sc = sub.add_parser("schema", help="JSON schema of the report envelope")
    sc.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")
    sc.set_defaults(func=_cmd_schema)
    return parser


_PARSER = None
# "-1/3", "-1e-3" and "-inf" start like an option, so argparse would not take
# them as the value of the flag before it; "--k -1/3" is rewritten as
# "--k=-1/3", and the flag's own type then accepts or names the value
_NEGATIVE_NUMBER = re.compile(
    r"-(\d+/\d+|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)", re.IGNORECASE)
_LONG_FLAG = re.compile(r"--\w[\w-]*")


def _attach_negative_values(argv):
    out = []
    for arg in argv:
        if out and _NEGATIVE_NUMBER.fullmatch(arg) and _LONG_FLAG.fullmatch(out[-1]):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(_attach_negative_values(argv))
    try:
        code, payload = args.func(args)
    except (gaussmod.NumericFailure, torus.MirrorSingularity, np.linalg.LinAlgError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:   # the --svg or --json file
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    if payload is not None:
        _emit(payload, getattr(args, "fmt", "json"), sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
