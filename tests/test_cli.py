import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from abmonoids import ProblemInstance, solve
from abmonoids.cli import _solution_lines, parse_args, run

WORKED = ["--a", "1,2", "--b", "4,1", "--X", "5", "--g", "6"]


def invoke(argv, capsys):
    code = run(parse_args(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_defaults(self):
        config = parse_args(["solve", *WORKED])
        assert config.instance.r == 0
        assert config.out is None

    def test_floor_flag(self):
        config = parse_args(["solve", *WORKED, "--r", "3"])
        assert config.instance.r == 3

    def test_length_mismatch_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["solve", "--a", "1,2", "--b", "4", "--X", "5", "--g", "6"])
        assert exc.value.code == 2

    def test_missing_g_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["solve", "--a", "1,2", "--b", "4,1", "--X", "5"])
        assert exc.value.code == 2

    def test_zero_in_x_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["solve", "--a", "1", "--b", "1", "--X", "0,5", "--g", "2"])
        assert exc.value.code == 2

    def test_non_integer_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["solve", "--a", "1,zap", "--b", "4,1", "--X", "5", "--g", "6"])
        assert exc.value.code == 2

    def test_empty_x_and_tuples_allowed(self):
        config = parse_args(["solve", "--X", "", "--g", "2"])
        assert config.instance.x == frozenset()
        assert config.instance.a == config.instance.b == ()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", *WORKED, "--engine", "oracle"],
            ["oracle-solve", *WORKED, "--max-nodes", "3"],
            # each command's flags come from its row of the command table
            ["closure", "--g", "1"],
            ["closure", "--X", "6,8", "--max-nodes", "3"],
            ["feasible", "--g", "2", "--depth", "1"],
            ["one", "--g", "2", "--max-nodes", "3"],
            ["tree", "--g", "2", "--depth", "1"],
            ["solve", "--g", "2", "--depth", "1"],
            ["oracle-solve", "--g", "2", "--depth", "1"],
        ],
    )
    def test_solve_and_oracle_solve_take_only_their_own_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--g", "-1"], "abmonoids solve: error: g must be non-negative\n"),
            (["solve", "--g", "2", "--max-nodes", "0"],
             "abmonoids solve: error: --max-nodes must be positive\n"),
            (["tree", "--depth", "-1"], "abmonoids tree: error: --depth must be non-negative\n"),
            (["solve", "--g", "1", "--r", "-1"], "abmonoids solve: error: r must be non-negative\n"),
        ],
    )
    def test_checks_after_argparse_report_the_subcommand_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: abmonoids {argv[0]} [-h] ")
        assert err.endswith(message)


class TestClosureCommand:
    def test_plain(self, capsys):
        code, out, _ = invoke(["closure", "--a", "1,2", "--b", "4,1", "--X", "5"], capsys)
        assert code == 0
        assert out == "d=1 M=<5,9,11,13,17>\n"

    def test_scaled(self, capsys):
        code, out, _ = invoke(["closure", "--a", "2,3", "--b", "4,2", "--X", "6,8"], capsys)
        assert code == 0
        assert out == "d=2 M=<3,4> expanded=<6,8>\n"

    def test_empty_seed(self, capsys):
        code, out, _ = invoke(["closure", "--a", "1", "--b", "4"], capsys)
        assert code == 0
        assert out == "d=1 M=<>\n"

    def test_huge_seed_value(self, capsys):
        code, out, _ = invoke(["closure", "--X", "5,6,4000000"], capsys)
        assert code == 0
        assert out == "d=1 M=<5,6>\n"

    def test_redundant_seed_is_not_mapped(self, capsys):
        # 2**62 is already generated by 5 and 6, so its image 2**63 + 1 is
        # never formed and cannot trip the 64-bit check
        code, out, err = invoke(["closure", "--a", "2", "--b", "1", "--X", f"5,6,{2**62}"], capsys)
        assert (code, out, err) == (0, "d=1 M=<5,6,13>\n", "")

    def test_overflow_is_exit_3(self, capsys):
        code, out, err = invoke(
            ["closure", "--a", str(2**40), "--b", "3", "--X", str(2**40)], capsys
        )
        assert code == 3
        assert out == ""
        assert "error" in err


class TestFeasibleCommand:
    def test_yes(self, capsys):
        code, out, _ = invoke(["feasible", *WORKED], capsys)
        assert (code, out) == (0, "yes 8\n")

    def test_no(self, capsys):
        code, out, _ = invoke(["feasible", *WORKED, "--r", "3"], capsys)
        assert (code, out) == (1, "no 5\n")

    def test_no_at_floor_four(self, capsys):
        code, out, _ = invoke(["feasible", *WORKED, "--r", "4"], capsys)
        assert (code, out) == (1, "no 4\n")

    def test_infinite(self, capsys):
        code, out, _ = invoke(
            ["feasible", "--a", "2,3", "--b", "4,2", "--X", "6,8", "--g", "9"], capsys
        )
        assert (code, out) == (0, "yes inf\n")

    def test_large_genus(self, capsys):
        code, out, _ = invoke(["feasible", "--X", "10007,10009", "--g", "1"], capsys)
        assert (code, out) == (0, "yes 50070024\n")


class TestOneCommand:
    def test_solution_line(self, capsys):
        code, out, _ = invoke(["one", *WORKED], capsys)
        assert (code, out) == (0, "1,2,3,4,6,7\n")

    def test_floored(self, capsys):
        code, out, _ = invoke(
            ["one", "--a", "2,3", "--b", "4,2", "--X", "6,8", "--g", "9", "--r", "3"], capsys
        )
        assert (code, out) == (0, "4,5,7,9,10,11,13,15,17\n")

    def test_infeasible(self, capsys):
        code, out, err = invoke(["one", *WORKED, "--r", "3"], capsys)
        assert code == 1
        assert out == ""
        assert "infeasible" in err

    @pytest.mark.parametrize("seed", [[], ["--a", "2,3", "--b", "4,2", "--X", "6,8"]])
    def test_size_above_the_budget_is_exit_3(self, seed, capsys):
        code, out, err = invoke(["one", *seed, "--g", str(10**12)], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: one solution of 1000000000000 values exceeds the 1000000-value budget\n"


def test_solution_lines_build_no_table_for_a_single_solution(capsys):
    # `one` can start at any floor, so a digit table from 0 could be huge;
    # this one would hold a million strings, tens of megabytes
    tracemalloc.start()
    try:
        assert _solution_lines(((10**6, 10**6 + 2),)) == "1000000,1000002\n"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    assert _solution_lines(((2, 3), (2, 5))) == "2,3\n2,5\n"
    assert _solution_lines(((),)) == "\n"
    assert _solution_lines(()) == ""
    # several solutions share one table of digit strings, made from the
    # smallest value listed: from 0 it would hold 100,003 strings, 6 MB
    tracemalloc.start()
    try:
        assert _solution_lines(((100001,), (100002,))) == "100001\n100002\n"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
    argv = ["solve", "--g", "1", "--r", "100000", "--a", "1", "--b", "2"]
    assert invoke(argv, capsys)[:2] == (0, "100001\n100002\n")


class TestSolveCommand:
    def test_worked(self, capsys):
        code, out, err = invoke(["solve", *WORKED], capsys)
        assert code == 0
        assert out == "1,2,3,4,6,7\n1,2,3,4,6,8\n1,2,3,4,7,8\n"
        assert err == "# solutions=3 nodes=16\n"

    @pytest.mark.parametrize(
        "inst, digest",
        [
            (ProblemInstance(g=20), "6590d9dddcd73664e3199a7a4678960d84896e48f999eae236518709328ad0ae"),
            (
                ProblemInstance(a=(1, 3), b=(7, 2), x={48}, g=30),
                "b6036971a316933cea59e4aff2cb514f56dc749fbfb316015a9bc3ee436c420f",
            ),
        ],
        ids=["free-g20", "affine-family-3"],
    )
    def test_solution_bytes_are_pinned(self, inst, digest):
        # SHA-256 of the printed solution lines (37,396 and 9,586 of them)
        # and the node count: a kernel that reorders, drops or adds a line
        # fails here
        result = solve(inst)
        text = _solution_lines(result.solutions) + f"nodes={result.node_count}\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_engines_agree_byte_for_byte(self, capsys):
        _, tree_out, _ = invoke(["solve", *WORKED], capsys)
        _, oracle_out, _ = invoke(["oracle-solve", *WORKED], capsys)
        assert tree_out == oracle_out

    def test_oracle_solve_alias(self, capsys):
        _, out, err = invoke(["oracle-solve", *WORKED], capsys)
        assert out == "1,2,3,4,6,7\n1,2,3,4,6,8\n1,2,3,4,7,8\n"
        assert err == "# solutions=3\n"

    def test_no_solutions(self, capsys):
        code, out, err = invoke(["solve", *WORKED, "--r", "3"], capsys)
        assert (code, out) == (0, "")
        assert err == "# solutions=0 nodes=13\n"

    def test_zero_size_prints_empty_line(self, capsys):
        code, out, _ = invoke(["solve", "--a", "1", "--b", "2", "--X", "3", "--g", "0"], capsys)
        assert (code, out) == (0, "\n")

    def test_node_budget_is_exit_3(self, capsys):
        code, out, err = invoke(["solve", *WORKED, "--max-nodes", "3"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: tree enumeration exceeded 3 nodes at depth 3\n"

    @pytest.mark.parametrize("budget, depth", [(6, 6), (15, 2)], ids=["6", "15"])
    def test_node_budget_past_the_leaves(self, budget, depth, capsys):
        # in preorder, vertex 7 of WORKED's tree is a depth-6 leaf, counted
        # but not built, and vertex 16 the last vertex, after every leaf
        code, out, err = invoke(["solve", *WORKED, "--max-nodes", str(budget)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: tree enumeration exceeded {budget} nodes at depth {depth}\n"

    def test_oracle_scale_limit_is_exit_3(self, capsys):
        code, out, err = invoke(["oracle-solve", "--X", "8", "--g", "7", "--r", "3"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: r + g = 10 exceeds the brute-force bound 9\n"


class TestTreeCommand:
    def test_depth_one(self, capsys):
        code, out, _ = invoke(["tree", *WORKED[:6], "--depth", "1"], capsys)
        assert code == 0
        assert out == 'digraph variety {\n  "<1>";\n  "<2,3>";\n  "<1>" -> "<2,3>";\n}\n'

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "tree.dot"
        code, out, _ = invoke(
            ["tree", *WORKED[:6], "--depth", "1", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph variety {")

    def test_budget_is_exit_3(self, capsys):
        code, _, err = invoke(["tree", *WORKED[:6], "--depth", "9", "--max-nodes", "4"], capsys)
        assert code == 3
        assert err == "error: tree enumeration exceeded 4 nodes at depth 4\n"


class TestOutPath:
    def test_solve_writes_the_payload(self, tmp_path, capsys):
        target = tmp_path / "x"
        code, out, err = invoke(["solve", *WORKED, "--out", str(target)], capsys)
        assert (code, out, err) == (0, "", "# solutions=3 nodes=16\n")
        assert target.read_text() == "1,2,3,4,6,7\n1,2,3,4,6,8\n1,2,3,4,7,8\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", *WORKED],
            ["closure", *WORKED[:6]],
            ["feasible", *WORKED],
            ["feasible", *WORKED, "--r", "3"],  # a "no" that cannot be written is a usage error
            ["one", *WORKED],
            ["tree", *WORKED[:6], "--depth", "1"],
        ],
    )
    def test_unwritable_path_is_exit_2(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        code, out, err = invoke([*argv, "--out", str(target)], capsys)
        message = f"error: cannot write {target}: No such file or directory\n"
        assert (code, out, err) == (2, "", message)


def src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "abmonoids", "solve", *WORKED],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,2,3,4,6,7\n1,2,3,4,6,8\n1,2,3,4,7,8\n"
    assert proc.stderr == "# solutions=3 nodes=16\n"


def test_one_is_the_same_without_assertions():
    # `one` verifies its answer only when assertions are on; -O must not
    # change a byte of what it prints or its exit code
    argv = ["-m", "abmonoids", "one", "--a", "2,3", "--b", "4,2", "--X", "6,8", "--g", "9", "--r", "3"]
    runs = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, env=src_env())
        for flags in ([], ["-O"])
    ]
    plain, optimised = ((p.returncode, p.stdout, p.stderr) for p in runs)
    assert plain == optimised == (0, b"4,5,7,9,10,11,13,15,17\n", b"")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each costs a one-shot run start-up time, and inspect pulls in ast,
    # dis and tokenize; a fresh interpreter shows what the import loads
    probe = "import sys, abmonoids.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
