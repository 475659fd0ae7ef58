"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

import run  # first: it puts the package sources on sys.path
import gates
import workloads
from workloads import Op

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_workload_is_correct_and_reports_every_metric(workload, trace):
    provenance, result = run.run_workload(workload, seed=3, seconds=0.05, trace=trace, small=True)
    assert result["correct"], provenance["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 4 * len(provenance["instances"])
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(w is not None for w in provenance["work"])


def test_free_tree_counts_and_kept_ratio():
    provenance, result = run.run_workload("free_tree", seed=0, seconds=0.05, trace=True, small=True)
    assert provenance["work"] == [{"solutions": 67, "nodes": 156}]
    assert result["metrics"]["tree.kept_ratio"]["value"] == 1.0
    assert result["metrics"]["tree.max_level_nodes"]["value"] == 67


def test_refusal_probe_is_recorded_not_failed():
    provenance, result = run.run_workload("closure_wide", seed=0, seconds=0.05, trace=True, small=True)
    (probe,) = provenance["known_defects"]
    assert probe["outcome"].startswith("raised ResourceLimitError")
    assert result["metrics"]["closure.refused"]["value"] == 1
    assert result["correct"] and result["failed"] == 0


def test_every_seed_draws_pinned_instances():
    for seed in range(200):
        for op in workloads.build("affine_tree", seed) + workloads.build("free_tree", seed):
            assert op.pin is not None, op.label
    assert workloads.build("free_tree", 0)[0].pin == (37396, 93142)
    assert len(workloads.AFFINE_PINS) == sum(
        len(bs) * len(xs) * len(workloads.AFFINE_FLOORS) for _, bs, _, xs in workloads.AFFINE_FAMILIES)


def test_gate_rejects_a_missing_solution():
    runner = run.Runner("free_tree", 0, small=True)
    op = runner.ops[0]
    solutions, nodes = runner.engine.execute(op)
    assert gates.check_solve(op, solutions, nodes) == []
    assert gates.check_solve(op, solutions[:3] + solutions[4:], nodes)


def test_gate_rejects_an_invalid_solution():
    op = Op("solve", a=(1,), b=(5,), g=4)
    assert gates.check_solve(op, [(1, 2, 3, 4)], 5) == []
    assert gates.check_solve(op, [(1, 2, 3, 8)], 5)  # 8 = 4 + 4 with 4 outside


def test_gate_rejects_a_wrong_frobenius_number():
    runner = run.Runner("closure_wide", 0, small=True)
    op = runner.ops[0]
    d, gens, frobenius, genus = runner.engine.execute(op)
    assert gates.check_closure(op, d, gens, frobenius, genus) == []
    assert gates.check_closure(op, d, gens, frobenius + 1, genus)


def test_gate_rejects_a_closure_that_is_not_minimal_or_not_closed():
    op = Op("closure", a=(2, 3), b=(4, 2), x=(6, 8))
    assert gates.check_closure(op, 2, (3, 4), 5, 3) == []
    assert gates.check_closure(op, 2, (2, 3), 1, 1)  # 2 is no seed value or image
    assert gates.check_closure(op, 2, (3, 5), 7, 4)  # misses the seed value 8 / 2


def test_gate_checks_feasible_and_one_against_the_closure():
    op = Op("feasible", a=(1, 2), b=(4, 1), x=(5,), g=6, r=3)
    runner = run.Runner("closure_wide", 0, small=True)
    cert = runner.engine.execute(Op("closure", a=op.a, b=op.b, x=op.x))
    assert gates.check_feasible(op, False, 5, cert) == []
    assert gates.check_feasible(op, True, 5, cert)
    one = Op("one", a=(2, 3), b=(4, 2), x=(6, 8), g=9, r=3)
    cert = runner.engine.execute(Op("closure", a=one.a, b=one.b, x=one.x))
    assert gates.check_one(one, (4, 5, 7, 9, 10, 11, 13, 15, 17), cert) == []
    assert gates.check_one(one, (4, 5, 7, 9, 10, 11, 13, 15, 19), cert)


def test_gate_rejects_a_wrong_cli_exit_code():
    feasible = next(op for op in workloads.build("cli_oneshot", 0) if op.argv[0] == "feasible")
    assert gates.check_cli(feasible, 1, b"no 5\n", b"") == []
    assert gates.check_cli(feasible, 0, b"no 5\n", b"")
    assert gates.check_cli(feasible, 1, b"no 6\n", b"")


def test_gate_checks_the_free_listing():
    op = Op("cli", argv=("solve", "--g", "3"))
    lines = b"1,2,3\n1,2,4\n1,2,5\n1,3,5\n"
    assert gates.check_cli(op, 0, lines, b"# solutions=4 nodes=8\n") == []
    assert gates.check_cli(op, 0, lines, b"# solutions=4 nodes=9\n")
    assert gates.check_cli(op, 0, lines.replace(b"1,3,5", b"1,3,4"), b"# solutions=4 nodes=8\n")


def test_wrong_answer_counts_as_failed_and_incorrect(monkeypatch):
    real = run.Engine.execute

    def drop_one(self, op):
        answer = real(self, op)
        return (answer[0][1:], answer[1]) if op.kind == "solve" else answer

    monkeypatch.setattr(run.Engine, "execute", drop_one)
    _, result = run.run_workload("free_tree", seed=0, seconds=0.05, trace=False, small=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_raising_operation_counts_as_failed_without_ending_the_run(monkeypatch):
    def boom(self, op):
        raise MemoryError("simulated")

    monkeypatch.setattr(run.Engine, "execute", boom)
    provenance, result = run.run_workload("free_tree", seed=0, seconds=0.05, trace=False, small=True)
    assert result["failed"] == result["attempted"] >= 4
    assert "raised MemoryError" in provenance["errors"][0]


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-src")
    assert run.main(["--workload", "free_tree", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
