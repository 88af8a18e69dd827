"""Seeded end-to-end and per-layer benchmark of schwarz-atlas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root; the program is imported from ./src.  Each
workload is a fixed-composition batch of ops drawn from the seed and sized to
about S seconds (perfbench/workloads.py), issued by one client in one process
in a closed loop: every op is one in-process cli.main(argv) call (or one
gauss.vertex_angles call) started only after the previous one returned.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  setup_s is the
median, over SETUP_PROBES fresh processes, of the time from launch until the
process has imported schwarz_atlas.cli and built the parser.  wall_s,
op_p50_ms and op_tail_ms come from op latencies taken to a machine of
reference speed: a timer samples the machine's speed on the benchmark's own
thread while the ops run (perfbench/speed.py), because on a shared host the
same op can take tens of percent longer from one minute to the next.  The
unscaled figures are printed above the result line and kept in the record.

--trace 1 runs the batch untraced and then, in a second process, with every
layer's public functions wrapped (perfbench/tracer.py), and prints the
per-layer metrics and the tracing overhead.

Every op's output is checked (perfbench/checks.py).  fail_ratio counts every
failed op, including those that fail through a known defect of today's
program (each listed above the result line).  `failed` in the result line
counts only the other failures, and `correct` is false when there is one or a
rerun printed different stdout.  A JSON record with the run metadata, every op
and its outcome goes to perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMBA_NUM_THREADS", "SCHWARZ_ATLAS_THREADS",
               "SCHWARZ_ATLAS_NO_NUMBA")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# metrics

def tail(latencies):
    """The highest percentile with at least ten ops beyond it: (value, percentile)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def scaled_latencies(summary):
    """Op latencies taken to a machine of reference speed (perfbench/speed.py)."""
    return [lat * f for lat, f in zip(summary["latencies_s"], summary["speed_scale"])]


def end_to_end(summary, setup_samples):
    lat = scaled_latencies(summary)
    ops = summary["ops"]
    tail_s, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (math.fsum(lat), "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "fail_ratio": (sum(op["outcome"] != "ok" for op in ops) / len(ops), "ratio"),
        "accuracy_digits": (summary["accuracy_digits"], "digits"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def _span(field, name):
    return lambda t: t["spans_by_name"].get(name, {}).get(field, 0)


def _layer(field, layer):
    return lambda t: t["spans_by_layer"].get(layer, {}).get(field, 0)


def _counter(key):
    return lambda t: t["counters"][key]


PER_LAYER = {
    "kernels.gauss_segment.calls": ("count", _span("calls", "_kernels.gauss_segment")),
    "kernels.gauss_segment.ms": ("ms", _span("ms", "_kernels.gauss_segment")),
    "kernels.gauss_segment.failed": ("count", _span("failed", "_kernels.gauss_segment")),
    "kernels.torus_segment.calls": ("count", _span("calls", "_kernels.torus_segment")),
    "kernels.torus_segment.ms": ("ms", _span("ms", "_kernels.torus_segment")),
    "kernels.torus_segment.failed": ("count", _span("failed", "_kernels.torus_segment")),
    "gauss.monodromy_at.calls": ("count", _span("calls", "gauss.monodromy_at")),
    "gauss.schwarz_map.calls": ("count", _span("calls", "gauss.schwarz_map")),
    "gauss.vertex_angles.ms": ("ms", _span("ms", "gauss.vertex_angles")),
    "gauss.self_ms": ("ms", _layer("self_ms", "gauss")),
    "torus.standard_generators.calls": ("count", _span("calls", "torus.standard_generators")),
    "torus.invariant_form.ms": ("ms", _span("ms", "torus.invariant_form")),
    "torus.transport.calls": ("count", _span("calls", "torus.transport")),
    "torus.transport.self_ms": ("ms", _span("self_ms", "torus.transport")),
    "torus.ball_check.self_ms": ("ms", _span("self_ms", "torus.ball_check")),
    "torus.flatness_residual.ms": ("ms", _span("ms", "torus.flatness_residual")),
    "roots.build.calls": ("count", _span("calls", "roots.build")),
    "roots.build.ms": ("ms", _span("ms", "roots.build")),
    "roots.build.cache_hits": ("count", _counter("roots.build.cache_hits")),
    "schwarzcond.check.calls": ("count", _span("calls", "schwarzcond.check")),
    "schwarzcond.check.ms": ("ms", _span("ms", "schwarzcond.check")),
    "schwarzcond.enumerate_solutions.ms": ("ms", _span("ms", "schwarzcond.enumerate_solutions")),
    "schwarzcond.dm_equivalence_scan.ms": ("ms", _span("ms", "schwarzcond.dm_equivalence_scan")),
    "exact.calls": ("count", _layer("calls", "exact")),
    "exact.ms": ("ms", _layer("ms", "exact")),
    "triangle.tessellate.ms": ("ms", _span("ms", "triangle.tessellate")),
    "triangle.tiles": ("count", _counter("triangle.tiles")),
    "triangle.report.ms": ("ms", _span("ms", "triangle.report")),
    "triangle.export_svg.ms": ("ms", _span("ms", "triangle.export_svg")),
    "triangle.svg_bytes": ("bytes", _counter("triangle.svg_bytes")),
    "cli.ops": ("count", _span("calls", "cli.main")),
    "cli.self_ms": ("ms", _layer("self_ms", "cli")),
}


def per_layer(traced, untraced):
    metrics = {name: (get(traced), unit) for name, (unit, get) in PER_LAYER.items()}
    metrics["trace.overhead_ratio"] = (
        math.fsum(scaled_latencies(traced)) / math.fsum(scaled_latencies(untraced)), "ratio")
    metrics["ops.repeat_share"] = (traced["repeat_share"], "ratio")
    return metrics


# ---------------------------------------------------------------------------
# processes

def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, env, timeout):
    """Start a worker, time launch-to-"ready", wait for it to end.

    Returns the set-up time in seconds."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {args} exceeded {timeout} s")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker {args} failed (exit {proc.returncode})")
    return setup


def run_worker(root, env, workload, seed, seconds, trace, out_dir):
    out = os.path.join(out_dir, f"BENCH_{workload}_seed{seed}_trace{trace}.worker{trace}.json")
    launch([workload, str(seed), str(seconds), str(trace), out], env, WORKER_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    os.remove(out)
    return summary


def setup_times(env):
    """Set-up of SETUP_PROBES fresh processes, in seconds."""
    return [launch(["--probe"], env, 60) for _ in range(SETUP_PROBES)]


# ---------------------------------------------------------------------------
# metadata

def _git(root, *args):
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(root):
    import numpy as np

    from schwarz_atlas import _kernels

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit, "dirty": bool(status) if commit else None,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "backend": "numba" if _kernels.USING_NUMBA else "numpy",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------

def run(root, workload, seed, seconds, trace, out_dir):
    """One benchmark run.  Returns (result line dict, human lines, record)."""
    env = _env(root)
    record = {"metadata": metadata(root), "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace}
    setup_samples = [] if trace else setup_times(env)
    untraced = run_worker(root, env, workload, seed, seconds, 0, out_dir)
    runs = [untraced]
    if trace:
        traced = run_worker(root, env, workload, seed, seconds, 1, out_dir)
        runs.append(traced)
        metrics = per_layer(traced, untraced)
        record["traced"] = traced
    else:
        metrics = end_to_end(untraced, setup_samples)
    record["untraced"] = untraced
    record["setup_samples_s"] = setup_samples

    main = runs[-1]
    unexpected = sum(op["outcome"] == "failed" for op in main["ops"])
    correct = all(op["outcome"] != "failed" for r in runs for op in r["ops"])
    lines = [f"{workload} seed={seed} ops={len(main['ops'])} backend={record['metadata']['backend']}"
             f" commit={record['metadata']['commit']} dirty={record['metadata']['dirty']}"]
    if not trace:
        _, pct = tail(untraced["latencies_s"])
        lines.append(f"op_tail_ms is the p{pct:.1f} latency of {len(untraced['latencies_s'])} ops")
        lines.append(f"unscaled: wall_s = {math.fsum(untraced['latencies_s'])!r} s, op_p50_ms = "
                     f"{1e3 * statistics.median(untraced['latencies_s'])!r} ms")
    defects = {}
    for op in main["ops"]:
        if op["outcome"] == "known_defect":
            defects[op["defect"]] = defects.get(op["defect"], 0) + 1
        elif op["outcome"] == "failed":
            lines.append(f"FAILED {op['kind']} {op['argv'] or op['call']}: {'; '.join(op['problems'])}")
    for defect, count in sorted(defects.items()):
        lines.append(f"known defect ({count} ops): {defect}")
    lines.append(f"ops repeating an earlier (subcommand, type, k): {main['repeat_share']:.3f}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    result = {
        "correct": correct, "attempted": len(main["ops"]), "failed": unexpected,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    return result, lines, record


def self_test(root, out_dir):
    """Check metric names and units, fail counting, span accounting and the
    op generator.  Returns a list of problems."""
    import workloads
    from schwarz_atlas import cli
    from tracer import verify_spans

    problems = []
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = cli.build_parser()
    for w in spec["workloads"]:
        for seed in (1, 2):
            ops = workloads.build(w["name"], seed, spec["run_seconds"])
            if repr(ops) != repr(workloads.build(w["name"], seed, spec["run_seconds"])):
                problems.append(f"{w['name']} seed {seed}: batch is not reproducible")
            for op in ops:
                if op["argv"] is None:
                    continue
                if any(a[:1] == "-" and a[1:2].isdigit() for a in op["argv"]):
                    problems.append(f"negative value passed as a separate argument: {op['argv']}")
                try:
                    parser.parse_args([a.replace("{tmp}", "x") for a in op["argv"]])
                except SystemExit:
                    problems.append(f"argv does not parse: {op['argv']}")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, lines, record = run(root, "SELFTEST", 0, 1, trace, out_dir)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
        for name, unit in want.items():
            if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
                problems.append(f"trace {trace}: {name} is not printed with unit {unit}")
        if any(not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])
               for m in result["metrics"].values()):
            problems.append(f"trace {trace}: a metric value is not a finite number")
        if result["failed"] != 1 or result["correct"]:
            problems.append(f"trace {trace}: the wrong-exit-code op was not counted as failed")
        if not trace and result["metrics"]["fail_ratio"]["value"] != 1 / result["attempted"]:
            problems.append("fail_ratio does not count the wrong-exit-code op")
        if trace:
            problems += verify_spans(record["traced"]["spans_path"])[:5]
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "schwarz_atlas", "cli.py")):
        print("error: run from the repository root; src/schwarz_atlas is missing", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    sys.path[:0] = [HERE, os.path.join(root, "src")]
    import workloads

    if args.self_test:
        problems = self_test(root, out_dir)
        for p in problems:
            print(f"self-test: {p}")
        print("self-test: " + ("FAIL" if problems else "PASS"))
        return 1 if problems else 0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, lines, record = run(root, args.workload, args.seed, args.seconds, args.trace,
                                    out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(out_dir, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
