"""tools/op_digest.py, on a hand-made batch of three ops: every "same answers"
comparison between two checkouts is made with it."""

import importlib.util
import pathlib
import sys

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
