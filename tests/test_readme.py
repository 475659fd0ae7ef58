"""README's Python API example runs, each ``# value`` comment is its line's
value, each ``$ abmonoids`` example of its "Command line" block prints what
the block shows, so does each command whose answer Limits quotes, and
README names every top-level name of the package."""

import re
import shlex
from pathlib import Path

import pytest

import abmonoids
from abmonoids import Feasibility, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """(argv, stdout lines, stderr lines, exit code) of each example in the
    "Command line" block: a ``<-`` note ends its line, a line that starts
    with ``#`` is on stderr, and a note's "exit code N" is the exit code."""
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    examples = []
    for chunk in block.strip("\n").split("\n\n"):
        command, *lines = chunk.splitlines()
        assert command.startswith("$ abmonoids "), command
        out, err, code = [], [], 0
        for line in lines:
            line, _, note = line.partition("<-")
            if found := re.search(r"exit code (\d)", note):
                code = int(found.group(1))
            (err if line.startswith("#") else out).append(line.rstrip())
        examples.append((shlex.split(command)[2:], out, err, code))
    return examples


CLI_EXAMPLES = cli_examples()


def test_cli_block_shows_a_summary_and_an_exit_code():
    shown = [(argv[0], err, code) for argv, _, err, code in CLI_EXAMPLES]
    assert shown == [
        ("solve", ["# solutions=3 nodes=16"], 0),
        ("closure", [], 0),
        ("feasible", [], 1),
        ("one", [], 0),
        ("tree", [], 0),
    ]


@pytest.mark.parametrize("argv, out, err, code", CLI_EXAMPLES, ids=[e[0][0] for e in CLI_EXAMPLES])
def test_cli_block_values(argv, out, err, code, capsys):
    assert cli.run(cli.parse_args(argv)) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == out
    assert captured.err.splitlines() == err


LIMITS_ANSWERS = [
    ("closure --X 5,6,4000000", "d=1 M=<5,6>"),
    ("closure --a 2 --b 1 --X 5,6,4611686018427387904", "d=1 M=<5,6,13>"),
    ("feasible --X 10007,10009 --g 1", "yes 50070024"),
]


@pytest.mark.parametrize("command, answer", LIMITS_ANSWERS)
def test_limits_answers(command, answer, capsys):
    # whitespace normalised, since a quoted command may wrap a line
    limits = " ".join(README.read_text().partition("## Limits\n")[2].split())
    assert f"`{command}` answers `{answer}`" in limits
    assert cli.run(cli.parse_args(command.split())) == 0
    assert capsys.readouterr().out == answer + "\n"


def test_python_block_values(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment.strip():
            assert eval(code, namespace) == eval(comment, {"Feasibility": Feasibility}), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 3
    assert capsys.readouterr().out.startswith('digraph variety {\n  "<1>";\n')


def test_every_top_level_name_is_in_the_readme():
    # in an inline code span of its own or one that opens with a call
    text = README.read_text()
    missing = [name for name in abmonoids.__all__ if not re.search(rf"`{name}\b", text)]
    assert not missing, missing
