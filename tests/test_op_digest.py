"""tools/op_digest.py, on a hand-made batch of three ops: every "same answers"
comparison between two checkouts is made with it."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "op_digest.py"


def _load_tool(monkeypatch):
    # the tool puts src and perfbench first on sys.path; the patch undoes it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("op_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _ops(tool, dump_rank):
    op = tool.workloads._op
    return [
        op("triangle tessellate", argv=["triangle", "tessellate", "--k", "2", "--l", "3",
                                        "--m", "7", "--depth", "2",
                                        "--svg", "{tmp}/tile.svg", "--format", "json"]),
        op("roots dump", argv=["roots", "dump", "--type", "A", "--rank", "2",
                               "--format", "json"]),
        op("roots dump", argv=["roots", "dump", "--type", "D", "--rank", str(dump_rank),
                               "--format", "json"]),
    ]


def test_op_digest_is_repeatable_and_names_the_kind_that_moved(monkeypatch):
    tool = _load_tool(monkeypatch)
    batch = {"rank": 4}
    monkeypatch.setattr(tool.workloads, "build",
                        lambda workload, seed, seconds: _ops(tool, batch["rank"]))
    # each run writes into its own temporary directory, which the tessellate
    # op's report names; the digests agree only if it is written as {tmp}
    first = tool.op_digest("smoke", 0)
    second = tool.op_digest("smoke", 0)
    assert first == second
    count, total, kinds = first
    assert count == 3
    assert kinds["triangle tessellate"][0] == 1 and kinds["roots dump"][0] == 2

    batch["rank"] = 5
    _, moved_total, moved_kinds = tool.op_digest("smoke", 0)
    assert moved_total != total
    assert moved_kinds["roots dump"] != kinds["roots dump"]
    assert moved_kinds["triangle tessellate"] == kinds["triangle tessellate"]


def test_op_digest_prints_one_block_per_seed_in_order(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    monkeypatch.setattr(tool.workloads, "build",
                        lambda workload, seed, seconds: _ops(tool, 4 + seed))
    blocks = []
    for seed in ("1", "0"):
        tool.main(["torus-ade", seed])
        blocks.append(capsys.readouterr().out)
    assert blocks[0] != blocks[1].replace("seed 0", "seed 1")
    tool.main(["torus-ade", "1", "0"])
    assert capsys.readouterr().out == blocks[0] + blocks[1]


def test_op_digest_seed_line_names_the_thread_setting(monkeypatch, capsys):
    # each digest carries the thread setting it was taken under, so that an
    # output that moves with the BLAS thread count shows where it was taken
    tool = _load_tool(monkeypatch)
    monkeypatch.setattr(tool.workloads, "build", lambda workload, seed, seconds: _ops(tool, 4))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    tool.main(["torus-ade", "1"])
    seed_line, *kind_lines = capsys.readouterr().out.splitlines()
    assert seed_line.startswith("torus-ade seed 1: 3 ops, sha256 ")
    assert seed_line.endswith(
        f" (OPENBLAS_NUM_THREADS=3, OMP_NUM_THREADS=unset, cpu_count={os.cpu_count()})")
    assert all("THREADS" not in line for line in kind_lines)


@pytest.mark.parametrize("argv", [["torus-ade"], ["torus-ade", "101", "x"],
                                  ["no-such-workload", "101"]])
def test_op_digest_rejects_bad_arguments_with_the_usage_line(monkeypatch, argv):
    tool = _load_tool(monkeypatch)
    with pytest.raises(SystemExit) as info:
        tool.main(argv)
    assert info.value.code == tool.USAGE


def test_op_digest_bad_seed_exits_without_a_traceback(monkeypatch):
    tool = _load_tool(monkeypatch)
    proc = subprocess.run([sys.executable, str(TOOL), "torus-ade", "1.5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stderr == tool.USAGE + "\n"
