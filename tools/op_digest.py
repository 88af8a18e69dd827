"""One sha256 over every output of a benchmark batch.

    python3 tools/op_digest.py WORKLOAD SEED

Builds the seeded batch of WORKLOAD (gauss-loops, torus-ade or
exact-geometry) with perfbench/workloads.build at the design length, runs
each op through perfbench/worker.run_op, and prints the op count and one
sha256 of (argv, call, exit code, stdout, stderr) and the name and bytes of
each file the op wrote.  The temporary directory the ops write into is
written as {tmp}, so two checkouts that give the same answers print the same
line.  It uses the package and the benchmark of the checkout it sits in.
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
    """(op count, hex digest) of one batch."""
    ops = workloads.build(workload, seed, workloads.DESIGN_SECONDS)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for op in ops:
            res = worker.run_op(op, tmp)
            record = (op["argv"], op["call"], res["code"],
                      res["stdout"].replace(tmp, "{tmp}"), res["stderr"].replace(tmp, "{tmp}"))
            digest.update(repr(record).encode())
            for name in sorted(os.listdir(tmp)):
                path = os.path.join(tmp, name)
                digest.update(name.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                os.remove(path)
    return len(ops), digest.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/op_digest.py WORKLOAD SEED")
    count, hexdigest = op_digest(sys.argv[1], int(sys.argv[2]))
    print(f"{sys.argv[1]} seed {sys.argv[2]}: {count} ops, sha256 {hexdigest}")
