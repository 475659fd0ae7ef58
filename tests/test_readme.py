"""README's Python API example runs, each ``# value`` comment is its line's
value, and README names every top-level name of the package."""

import re
from pathlib import Path

import abmonoids
from abmonoids import Feasibility

README = Path(__file__).resolve().parent.parent / "README.md"


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
