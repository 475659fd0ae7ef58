"""README's Python API example runs, and each ``# value`` comment is its line's value."""

import re
from pathlib import Path

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
