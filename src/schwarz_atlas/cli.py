"""Single command-line entry point.

Subcommands map onto the library modules (roots, gauss, triangle, torus,
schwarz); every run with the same flags produces byte-identical output, exact
rationals are only ever accepted as "p/q" strings, and the exit code contract
is: 0 success, 1 a numeric check failed its tolerance or the numerics broke
down, 2 invalid usage.

build_parser declares each leaf subcommand in one place: its flags, its
--format, its handler, its usage bounds as (flag, least, most) entries and
the rational flags that the numeric layer reads as floats, which main checks
(_check_bounds) after parsing and before the handler runs;
a flag given as "--flag=--", which argparse stores as [], is a usage error
(_check_values).
build_parser runs once per process, and main parses every run with the
parser it built.  An argv that names a leaf is read in one pass over that
leaf's declared actions (_read_leaf, about a quarter of the leaf parser's
cost and an eighth of the full tree's); whatever the reader does not take
exactly goes through the full tree, so help, --version and every usage error
read as the full tree prints them.

Every JSON report, on stdout or in a `triangle tessellate --json` file, is
written by _write_json: the bytes of json.dumps(report, sort_keys=True,
indent=2), appended to one list and joined once.

This module and the parser import the exact layer alone (exact, roots,
schwarzcond), so `schwarz *`, `roots dump` and `schema` run on the standard
library.  Each `gauss`, `triangle` and `torus` handler imports the numeric
module it runs, and numpy with it, when it is called.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import NumericFailure, __version__, roots, schwarzcond
from .exact import format_rational, parse_rational

SCHEMA_VERSION = "1.0"

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


def _complex_out(z):
    return [float(z.real), float(z.imag)]


def _matrix_out(M):
    return [[_complex_out(v) for v in row] for row in M]


def _report(module, inputs, results, residuals, checks):
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
        out = []
        _write_json(payload, out, "\n")
        out.append("\n")
        stream.write("".join(out))
    else:
        _emit_text(payload, stream)


def _write_json(value, out, pad):
    """Append to out the text that json.dumps(value, sort_keys=True, indent=2)
    writes, byte for byte; pad is the newline and indent of value's own line.
    json.dumps with an indent runs the pure-Python encoder, which costs more
    than the rest of a cheap report.  A key that is not a str raises
    TypeError in _json_str, where json.dumps would write it as a string."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _json_str(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_float(x):
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


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
        # a list of scalars is one "- [a, b]" line; a dict or a list of lists
        # is a bare "-" line with its entries one level deeper
        for item in payload:
            if isinstance(item, dict) or (isinstance(item, list) and not _is_scalar_list(item)):
                stream.write(f"{pad}-\n")
                _emit_text(item, stream, indent + 1)
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


def _rational(text):
    """argparse type of the rational flags: parse_rational, with its message
    raised as an ArgumentTypeError, the one exception whose text argparse
    prints."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    import numpy as np

    from .gauss import (GaussParams, expected_monodromy_spectrum, monodromy_matrices,
                        scaled_relation_residual, scaled_spectrum_residual)

    p = GaussParams(args.alpha, args.beta, args.gamma)
    if p.log_case:
        raise ValueError("integer exponent difference (logarithmic case)")
    mats = monodromy_matrices(p)
    relation = scaled_relation_residual(mats[0], mats[1], mats["inf"])
    spectra = {}
    mismatch = 0.0
    for s, M in mats.items():
        expected = expected_monodromy_spectrum(p, s)
        mismatch = max(mismatch, scaled_spectrum_residual(M, expected))
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
    from .triangle import Geometry, classify_angles, export_svg, triangle_from_angles

    kappa, lam, mu = args.kappa, args.lam, args.mu
    geometry = classify_angles(kappa, lam, mu)
    for flag, angle in (("--kappa", kappa), ("--lambda", lam), ("--mu", mu)):
        if angle < 0 or (angle == 0 and geometry is not Geometry.HYPERBOLIC):
            raise ValueError(
                f"{flag} must be positive, got {format_rational(angle)}"
                + ("" if angle else " (a zero angle needs a hyperbolic triangle)"))
    # a spherical triangle needs 1 + x > y + z for each angle x (in units of
    # pi), which also keeps every angle below 1; the arc construction and its
    # angle residual assume both
    if geometry is Geometry.SPHERICAL and 1 + 2 * min(kappa, lam, mu) <= kappa + lam + mu:
        raise ValueError(
            f"the angles {format_rational(kappa)}, {format_rational(lam)}, {format_rational(mu)}"
            " (times pi) make no spherical triangle: each angle plus 1 must exceed the sum"
            " of the other two")
    tess = triangle_from_angles(
        float(kappa) * math.pi, float(lam) * math.pi, float(mu) * math.pi, geometry)
    if args.svg:
        export_svg(tess, args.svg)
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
    from .triangle import export_svg, tessellate

    tess = tessellate(args.k, args.l, args.m, max_word_length=args.depth,
                      max_tiles=args.max_tiles)
    rep = tess.report()
    if args.svg:
        export_svg(tess, args.svg)
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


def _cmd_torus_flatness(args):
    import numpy as np

    from .torus import default_base_point, flatness_residual, sample_points_near

    system = roots.build(_rtype_from(args))
    k, a_override = args.k, args.a_override
    stack = sample_points_near(system, default_base_point(system), args.samples,
                               seed=args.seed)
    # the exp/log round trip keeps the residuals this report has always printed
    worst = flatness_residual(system, k, np.log(np.exp(stack)), a_override)
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


# A loop M with relative error d reads |det M - q^2| <= d cond(M) to first
# order, so torus monodromy fails a loop whose determinant shows d > _DET_TOL.
# An absolute bound would fail accurate loops of large cond(M): E8 at
# k = -21/4, root 7, agrees with the whole half-turns' transport to 1.1e-8 and
# reads |det M - q^2| = 2.3e2 at cond(M) = 8.8e13
_DET_TOL = 1e-6


def _cmd_torus_monodromy(args):
    import numpy as np

    from .torus import hecke_residual, mirror_monodromy

    system = roots.build(_rtype_from(args))
    k = args.k
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
        alpha = system.simple_roots[idx - 1]
    M = mirror_monodromy(system, k, alpha)
    residual = hecke_residual(M, k)
    q_squared = np.exp(-4j * np.pi * float(k))
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(M))
        det_bound = _DET_TOL * np.linalg.cond(M)
    payload = _report(
        module="torus",
        inputs={"type": str(system.rtype), "k": format_rational(k),
                "root": str(args.root)},
        results={
            "matrix": _matrix_out(M),
            "eigenvalues": [_complex_out(v) for v in np.linalg.eigvals(M)],
            "q_squared": _complex_out(q_squared),
            "determinant": _complex_out(det),
        },
        residuals={"hecke_residual": residual},
        checks=[
            "mirror loop satisfies (M - 1)(M - q^2) = 0 with q = exp(-2 pi i k)",
            "plain loops square the orbifold generators, hence the q^2 branch",
            "det M = q^2, the one eigenvalue of M other than 1, within 1e-6 cond(M)",
        ],
    )
    # the Hecke residual divides by ||M||^2, so it cannot tell a wrong loop
    # whose frame is large; its determinant can (NaN fails both)
    ok = residual <= args.tol and abs(det - q_squared) <= det_bound
    return (EXIT_OK if ok else EXIT_NUMERIC), payload


def _cmd_torus_form(args):
    from .torus import ball_check, hecke_base_point, monodromy_form, sample_points_near

    system = roots.build(_rtype_from(args))
    k = args.k
    form = monodromy_form(system, k)
    samples = sample_points_near(system, hecke_base_point(system), args.samples, seed=args.seed)
    ball = ball_check(system, k, form, samples)
    negative = all(v < 0 for v in ball)
    payload = _report(
        module="torus",
        inputs={"type": str(system.rtype), "k": format_rational(k),
                "samples": args.samples, "seed": args.seed},
        results={
            "hermitian_form": _matrix_out(form.matrix),
            "signature": list(form.signature),
            # monodromy_form raises unless its solution space is a line
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
    results = schwarzcond.enumerate_solutions(
        args.p_min, args.p_max, args.rank_max, args.include_k_half)
    code = EXIT_OK if results["documented_anomalies_only"] else EXIT_NUMERIC
    k_half = results.get("k_half", [])
    if args.fmt == "csv":
        lines = ["p,type"]
        for p, row in results["rows"].items():
            lines += [f"{p},{t}" for t in row]
        # k = 1/2 is p = infinity under k_from_p
        lines += [f"inf,{t}" for t in k_half]
        print("\n".join(lines))
        return code, None
    if args.fmt == "text":
        for p, row in results["rows"].items():
            print(f"p = {p:>3} : " + " ".join(row))
        if k_half:
            print("k = 1/2 : " + " ".join(k_half))
        if code != EXIT_OK:
            print("table diff beyond the documented anomalies:")
            for kind, cases in results["table_diff"].items():
                by_p = {}
                for p, t in cases:
                    by_p.setdefault(p, []).append(t)
                print(f"{kind}:" + ("" if by_p else " none"))
                for p, row in by_p.items():
                    print(f"  p = {p:>3} : " + " ".join(row))
        return code, None
    payload = _report(
        module="schwarz",
        inputs={"p_min": args.p_min, "p_max": args.p_max, "rank_max": args.rank_max},
        results=results,
        residuals={},
        checks=[
            "exact stratum conditions reproduce the reference solution table",
            "the two boundary anomalies are reported, not patched",
        ],
    )
    return code, payload


def _cmd_schwarz_check(args):
    if args.k is None and args.p is None:
        raise ValueError("provide --p or --k")
    if args.k is not None and args.p is not None:
        raise ValueError("provide --p or --k, not both")
    k = schwarzcond.k_from_p(args.p) if args.k is None else args.k
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
    payload = _report(
        module="schwarz",
        inputs={"n": args.n, "p": args.p},
        results=schwarzcond.dm(args.n, schwarzcond.k_from_p(args.p)),
        residuals={},
        checks=["pair conditions on the weight vector evaluated exactly"],
    )
    return EXIT_OK, payload


def _cmd_schwarz_dm_scan(args):
    results = schwarzcond.dm_equivalence_scan(args.n_max, args.p_max)
    payload = _report(
        module="schwarz",
        inputs={"n_max": args.n_max, "p_max": args.p_max},
        results=results,
        residuals={},
        checks=[
            "the three displayed weight identities hold exactly for every (n, p)",
            "subgroup-restricted weight verdicts match the A-type stratum check",
        ],
    )
    ok = results["identities_hold"] and results["verdicts_agree"]
    return (EXIT_OK if ok else EXIT_NUMERIC), payload


def _cmd_schema(args):
    return EXIT_OK, report_schema()


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The parser of every subcommand; a leaf that declares no --format of
    its own (all but `schwarz enumerate`) gets `--format {text,json}`.  It is
    built once per process: main parses every run with it.  Its `leaves`
    maps each leaf's argv path, such as ("torus", "flatness") or
    ("schema",), to the leaf's parser, whose declared actions _read_leaf
    reads; a leaf flag is a plain store (with its type, choices, required
    and default) or a store_true, the only kinds the reader takes."""
    parser = argparse.ArgumentParser(
        prog="schwarz-atlas",
        description="hypergeometric monodromy, root-system connections, "
                    "triangle tessellations and exact stratum conditions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.leaves = {}
    sub = parser.add_subparsers(dest="command", required=True)
    roots_sub, gauss_sub, tri_sub, torus_sub, schwarz_sub = (
        sub.add_parser(name, help=text).add_subparsers(dest="subcommand", required=True)
        for name, text in (("roots", "root-system data"),
                           ("gauss", "second-order hypergeometric equation"),
                           ("triangle", "reflection triangles and tessellations"),
                           ("torus", "root-system hypergeometric system"),
                           ("schwarz", "exact stratum conditions")))

    @contextlib.contextmanager
    def leaf(group, name, help, func, bounds, floats=()):
        p = group.add_parser(name, help=help)
        p.set_defaults(func=func, bounds=bounds, floats=floats)
        parser.leaves[tuple(p.prog.split()[1:])] = p    # prog is "schwarz-atlas torus flatness"
        yield p
        if p.get_default("fmt") is None:
            p.add_argument("--format", dest="fmt", choices=["text", "json"], default="json")

    with leaf(roots_sub, "dump", "emit lattice data and derived constants",
              _cmd_roots_dump, ()) as d:
        _add_type_args(d)

    with leaf(gauss_sub, "monodromy", "loop matrices, eigenvalues, relation",
              _cmd_gauss_monodromy, (), ("--alpha", "--beta", "--gamma")) as g:
        g.add_argument("--alpha", type=_rational, required=True)
        g.add_argument("--beta", type=_rational, required=True)
        g.add_argument("--gamma", type=_rational, required=True)
    # outside the block, so that --help lists it after --format
    g.add_argument("--tol", type=_tolerance, default=1e-7,
                   help="bound on ||M_inf M_1 M_0 - 1|| / (||M_inf|| ||M_1|| ||M_0||)")
    with leaf(gauss_sub, "schwarz-triangle", "render the image triangle",
              _cmd_gauss_triangle, ()) as t:
        t.add_argument("--kappa", type=_rational, required=True)
        t.add_argument("--lambda", dest="lam", type=_rational, required=True)
        t.add_argument("--mu", type=_rational, required=True)
        t.add_argument("--svg", default="")

    with leaf(tri_sub, "tessellate", "breadth-first reflection closure",
              _cmd_triangle_tessellate,
              (("--depth", 0, None), ("--max-tiles", 1, 200000))) as tt:
        tt.add_argument("--k", type=int, required=True)
        tt.add_argument("--l", type=int, required=True)
        tt.add_argument("--m", type=int, required=True)
        tt.add_argument("--depth", type=int, default=None,
                        help="maximum reflection word length")
        tt.add_argument("--max-tiles", type=int, default=20000)
        tt.add_argument("--svg", default="")
        tt.add_argument("--json", dest="json_path", default="")

    samples = (("--samples", 1, 1000), ("--seed", 0, None))
    with leaf(torus_sub, "flatness", "curvature residual at sample points",
              _cmd_torus_flatness, samples, ("--k", "--a-override")) as f:
        _add_type_args(f)
        f.add_argument("--k", type=_rational, required=True)
        f.add_argument("--samples", type=int, default=5)
        f.add_argument("--seed", type=int, default=0)
        f.add_argument("--a-override", dest="a_override", type=_rational, default=None)
        f.add_argument("--tol", type=_tolerance, default=1e-8)
    with leaf(torus_sub, "monodromy", "mirror-loop monodromy and its relation",
              _cmd_torus_monodromy, (), ("--k",)) as m:
        _add_type_args(m)
        m.add_argument("--k", type=_rational, required=True)
        m.add_argument("--root", default="1",
                       help="simple-root index (1-based) or 'highest'")
        m.add_argument("--tol", type=_tolerance, default=1e-6)
    with leaf(torus_sub, "form", "invariant Hermitian form and negative cone",
              _cmd_torus_form, samples, ("--k",)) as fo:
        _add_type_args(fo)
        fo.add_argument("--k", type=_rational, required=True)
        fo.add_argument("--samples", type=int, default=10)
        fo.add_argument("--seed", type=int, default=0)
        fo.add_argument("--tol", type=_tolerance, default=1e-6)

    with leaf(schwarz_sub, "enumerate", "scan reflection orders and types",
              _cmd_schwarz_enumerate,
              (("--p-min", 3, None), ("--p-max", "--p-min", 1000),
               ("--rank-max", 2, roots._RANK_CAP))) as e:
        e.add_argument("--p-min", type=int, default=3)
        e.add_argument("--p-max", type=int, default=100)
        e.add_argument("--rank-max", type=int, default=13)
        e.add_argument("--include-k-half", action="store_true")
        e.add_argument("--format", dest="fmt", choices=["text", "json", "csv"],
                       default="text")
    with leaf(schwarz_sub, "check", "conditions for one type and order",
              _cmd_schwarz_check, ()) as c:
        _add_type_args(c)
        c.add_argument("--p", type=int, default=None)
        c.add_argument("--k", type=_rational, default=None)
    with leaf(schwarz_sub, "dm", "weight vector on n+3 points",
              _cmd_schwarz_dm, (("--n", 1, roots._RANK_CAP),)) as dm:
        dm.add_argument("--n", type=int, required=True)
        dm.add_argument("--p", type=int, required=True)
    # both lower bounds first, so "--n-max 11 --p-max 2" names --p-max
    with leaf(schwarz_sub, "dm-scan", "identity and equivalence sweep", _cmd_schwarz_dm_scan,
              (("--n-max", 2, None), ("--p-max", 3, None),
               ("--n-max", None, 10), ("--p-max", None, 60))) as ds:
        ds.add_argument("--n-max", type=int, default=10)
        ds.add_argument("--p-max", type=int, default=60)

    with leaf(sub, "schema", "JSON schema of the report envelope", _cmd_schema, ()):
        pass
    return parser


def _check_values(parser, args):
    """Raise ValueError naming the first flag given as "--flag=--": argparse
    takes the "--" away, stores [] and applies no type, so no handler could
    read it."""
    if [] in vars(args).values():
        leaf = next(p for p in parser.leaves.values() if p._defaults["func"] is args.func)
        action = next(a for a in leaf._actions if getattr(args, a.dest, None) == [])
        raise ValueError(f"{action.option_strings[0]} needs a value, got '--'")


def _check_bounds(args):
    """Raise ValueError naming the first of the leaf's rationals that the
    numeric layer reads as floats (its floats) that has no float, or else the
    first of its (flag, least, most) bounds that its value breaks.  A least
    written as a flag name is that flag's value, and a flag left unset (None)
    is not checked."""
    for flag in args.floats:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"{flag} must be within the float range, got {value}")
    # an empty sample, scan or tile budget would pass every check vacuously
    # (the dm scan starts at n = 2 and p = 3), below n = 1 there is no weight
    # vector, below depth 0 no word, and numpy's generator takes no negative
    # seed.  Above: the largest A_n and D_n that roots builds (past n = 10
    # every weight vector is degenerate for every p >= 3, since
    # k = (p-2)/(2p) >= 1/6, so a larger --n only writes a longer weight
    # list), the ranks and orders that dm_equivalence_scan covers, the orders
    # enumerate scans (about 50 us each at rank 13, so a mistyped bound would
    # run for minutes), the torus samples (each one a transport or a
    # curvature, so --samples 10000000 at E8 would run for hours) and the tile
    # budget (about 1.7 KB a tile: 200000 tiles of (2, 3, 7) take 384 MB and
    # 3.5 s)
    for flag, least, most in args.bounds:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if isinstance(least, str):
            least = getattr(args, least[2:].replace("-", "_"))
        if least is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"{flag} must be at most {most}, got {value}")


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


def _numeric_failures():
    """The exceptions that exit 1: NumericFailure, a Python float power past
    the float range (OverflowError; torus turns its k^2 into a NumericFailure
    that names k), and numpy's LinAlgError (a ValueError) when numpy is
    loaded; a run that never loaded numpy cannot raise it.  An except clause
    evaluates this only once the handler has raised, so after the handler's
    own imports."""
    numpy = sys.modules.get("numpy")
    failures = NumericFailure, OverflowError
    return failures if numpy is None else (*failures, numpy.linalg.LinAlgError)


def _parse(parser, argv):
    """The Namespace of argv.  When its first one or two words name a leaf,
    _read_leaf reads the rest in one pass over that leaf's declared actions:
    the full tree hands a leaf's words to that same leaf parser, so only the
    command and subcommand entries are missing.  An argv that names no leaf,
    or that the reader does not take exactly, goes through the full tree,
    which prints the help, --version or usage error for it, such as an
    unknown command or "unrecognized arguments"."""
    depth = 1 if tuple(argv[:1]) in parser.leaves else 2
    leaf = parser.leaves.get(tuple(argv[:depth]))
    if leaf is not None:
        args = _read_leaf(leaf, argv[depth:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def _read_leaf(leaf, words):
    """The Namespace that leaf.parse_args(words) returns, or None for the
    words it does not take exactly: help, an abbreviated, unknown or
    positional word, a flag without its value or followed by a word that
    starts with "-", a type or choice error, a missing required flag, or "="
    on a store_true flag.  Each flag is its exact option string, as
    "--flag value" or "--flag=value", and "--flag=--" stores [], as argparse
    does; a repeated flag keeps its last value and an unset one its default,
    over the leaf's set_defaults.  A str default is kept as written, as
    argparse keeps it for a flag with no type, and every leaf flag with a str
    default has none."""
    given = {}
    words = iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        action = leaf._option_string_actions.get(flag)
        if type(action) is argparse._StoreTrueAction and not eq:
            given[action] = action.const
            continue
        if type(action) is not argparse._StoreAction:
            return None
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":    # argparse drops it and stores [], which _check_values names
            given[action] = []
            continue
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if any(action.required and action not in given for action in leaf._actions):
        return None
    return argparse.Namespace(**{
        **leaf._defaults,
        **{action.dest: action.default for action in leaf._actions
           if action.default is not argparse.SUPPRESS},
        **{action.dest: value for action, value in given.items()}})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = _parse(parser, _attach_negative_values(argv))
    try:
        _check_values(parser, args)
        _check_bounds(args)
        code, payload = args.func(args)
    except _numeric_failures() as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:   # the --svg or --json file
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    if payload is not None:
        _emit(payload, args.fmt, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
