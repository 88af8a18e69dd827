"""One workload process: one client issuing ops in a closed loop.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_JSON

The process imports schwarz_atlas.cli, builds the parser and prints "ready";
the parent times launch-to-"ready" as set-up.  --probe stops there.
Otherwise the worker builds the seeded batch, runs each op to completion
before the next (CLI ops as in-process cli.main calls with stdout and stderr
captured), then checks every output, reruns the first op of each kind for a
byte-identical comparison and writes a JSON summary to OUT_JSON.  With TRACE
set to 1 the layer wrappers are installed before the first op and the spans
are written to spans_WORKLOAD.npz next to OUT_JSON (the latest traced run of
each workload is kept).

The SELFTEST workload is a few cheap ops, one of them with a deliberately
wrong expected exit code; run.py --self-test uses it.
"""

import sys

if __name__ == "__main__":
    # set-up ends here: only what a command-line user imports comes before
    from schwarz_atlas import cli

    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.argv[1:] == ["--probe"]:
        sys.exit(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

from schwarz_atlas import cli, gauss  # noqa: E402

import speed  # noqa: E402


def run_op(op, tmp):
    """Issue one op; returns its raw result (not yet judged)."""
    out, err = io.StringIO(), io.StringIO()
    raised, residual = None, None
    code = 0
    if op["argv"] is not None:
        argv = [a.replace("{tmp}", tmp) for a in op["argv"]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                raised = f"SystemExit({exc.code!r})"
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an op that crashes is recorded, not fatal
                raised = repr(exc)
                code = None
    else:
        k, l, m = op["call"]
        try:
            p = gauss.params_from_differences(Fraction(1, k), Fraction(1, l), Fraction(1, m))
            angles = gauss.vertex_angles(p)
        except Exception as exc:
            raised = repr(exc)
            code = None
        else:
            residual = max(abs(a - math.pi / x) for a, x in zip(angles, (k, l, m)))
            out.write(repr(angles))
            code = 0 if residual <= op["tols"]["angle_residual"] else 1
    return {"code": code, "raised": raised, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "residual": residual}


def selftest_ops():
    from workloads import exact_geometry
    import random

    ops = exact_geometry(random.Random(0), 0.0)[:6]
    return ops + [dict(ops[1], expect=1)]


def measure(ops, tmp, tracer):
    """Issue every op in order, the speed sampler running.  Returns the raw
    results, the latencies net of sampling, the speed scale per op and the
    batch wall time."""
    results, latencies, windows = [], [], []
    clock = time.perf_counter
    with speed.Sampler() as sampler:
        t_batch = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            busy = sampler.busy
            t0 = clock()
            results.append(run_op(op, tmp))
            t1 = clock()
            latencies.append(t1 - t0 - (sampler.busy - busy))
            windows.append((t0, t1))
        wall = clock() - t_batch - sampler.busy
    return results, latencies, speed.scale_factors(windows, sampler.at, sampler.cost), wall


def judge(ops, results, tmp):
    """Check every output and rerun the first op of each kind.  Returns the
    per-op records and the per-op accuracy digits."""
    import jsonschema

    from checks import check

    validator = jsonschema.Draft7Validator(cli.report_schema())
    records, digit_values, first_of_kind = [], [], {}
    for i, (op, res) in enumerate(zip(ops, results)):
        try:
            outcome, problems, d = check(op, res, validator)
        except (KeyError, TypeError, ValueError) as exc:  # output not shaped as expected
            outcome, problems, d = "failed", [f"check raised {exc!r}"], None
        first_of_kind.setdefault(op["kind"], i)
        if d is not None:
            digit_values.append(d)
        records.append({"kind": op["kind"], "argv": op["argv"], "call": op["call"],
                        "expect": op["expect"], "code": res["code"], "outcome": outcome,
                        "problems": problems, "defect": op["defect"], "digits": d})
    for i in first_of_kind.values():
        if run_op(ops[i], tmp)["stdout"] != results[i]["stdout"]:
            records[i]["outcome"] = "failed"
            records[i]["problems"].append("second run printed different stdout")
    return records, digit_values


def main(argv):
    import workloads

    workload, seed, seconds, trace, out_path = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    ops = selftest_ops() if workload == "SELFTEST" else workloads.build(workload, seed, seconds)
    out_dir = os.path.dirname(out_path)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        results, latencies, scale, wall = measure(ops, tmp, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "wall_s": wall, "latencies_s": latencies, "speed_scale": scale,
            "peak_rss_mb": peak_rss_mb, "repeat_share": workloads.repeat_share(ops),
        }
        if tracer is not None:
            # summarise and write before the reruns in judge() add spans
            spans_path = os.path.join(out_dir, f"spans_{workload}.npz")
            by_name, by_layer = tracer.aggregate()
            summary.update(spans_by_name=by_name, spans_by_layer=by_layer,
                           counters=tracer.counters, span_count=len(tracer.start),
                           spans_path=spans_path)
            tracer.write(spans_path)
            tracer.op_id = -1
        records, digit_values = judge(ops, results, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for rec, lat in zip(records, latencies):
        rec["latency_s"] = lat
    summary["ops"] = records
    summary["accuracy_digits"] = statistics.median(digit_values) if digit_values else None
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
