"""One sha256 over every output of a benchmark batch.

    python3 tools/op_digest.py WORKLOAD SEED [SEED ...]

For each SEED in turn, builds the seeded batch of WORKLOAD (gauss-loops,
torus-ade or exact-geometry) with perfbench/workloads.build at the design
length, runs each op through perfbench/worker.run_op, and prints the op
count and one sha256 of (argv, call, exit code, stdout, stderr) and the name
and bytes of each file the op wrote.  Under that line it prints the same
count and sha256 for the ops of each kind, so a change that moves some
outputs can name the kinds it moved.  The seed line also names the thread
setting it was taken under, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS ("unset"
when absent) and os.cpu_count(), so that a digest that moves with the thread
count shows where it was taken; every output is meant to be the same at any
setting.  The temporary directory the ops write into is written as {tmp}, so
two checkouts that give the same answers print the same lines.  It uses the package and the benchmark of the checkout it
sits in.  An unknown workload or a seed that is not an integer exits with
the usage line.
"""

import hashlib
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402


def op_digest(workload, seed):
    """(op count, hex digest) of one batch, and the same per op kind."""
    ops = workloads.build(workload, seed, workloads.DESIGN_SECONDS)
    digest = hashlib.sha256()
    kinds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for op in ops:
            kind = kinds.setdefault(op["kind"], [0, hashlib.sha256()])
            kind[0] += 1
            res = worker.run_op(op, tmp)
            record = (op["argv"], op["call"], res["code"],
                      res["stdout"].replace(tmp, "{tmp}"), res["stderr"].replace(tmp, "{tmp}"))
            chunks = [repr(record).encode()]
            for name in sorted(os.listdir(tmp)):
                path = os.path.join(tmp, name)
                with open(path, "rb") as fh:
                    chunks += [name.encode(), fh.read()]
                os.remove(path)
            for chunk in chunks:
                digest.update(chunk)
                kind[1].update(chunk)
    return len(ops), digest.hexdigest(), {k: (n, h.hexdigest()) for k, (n, h) in kinds.items()}


def thread_setting():
    """The BLAS and OpenMP thread variables and the CPU count, as one string."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return ", ".join([f"{name}={os.environ.get(name, 'unset')}" for name in names]
                     + [f"cpu_count={os.cpu_count()}"])


USAGE = "usage: python3 tools/op_digest.py WORKLOAD SEED [SEED ...]"


def main(argv):
    """Print the digest lines of each seed's batch, in the order given."""
    if len(argv) < 2 or argv[0] not in workloads.WORKLOADS:
        sys.exit(USAGE)
    try:
        seeds = [int(seed) for seed in argv[1:]]
    except ValueError:
        sys.exit(USAGE)
    for arg, seed in zip(argv[1:], seeds):
        count, hexdigest, kinds = op_digest(argv[0], seed)
        print(f"{argv[0]} seed {arg}: {count} ops, sha256 {hexdigest} ({thread_setting()})")
        for kind, (n, kind_digest) in sorted(kinds.items()):
            print(f"  {kind}: {n} ops, sha256 {kind_digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
