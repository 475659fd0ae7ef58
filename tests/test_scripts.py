import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_worked_examples_script():
    proc = run_script("worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    for sol in ("(1, 2, 3, 4, 6, 7)", "(1, 2, 3, 4, 6, 8)", "(1, 2, 3, 4, 7, 8)"):
        assert f"  {sol}\n" in proc.stdout
    assert "digraph variety {\n" in proc.stdout


def test_cross_check_script():
    proc = run_script("cross_check.py", "--count", "50", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("OK:")


def test_src_lines_script_counts_every_line_once():
    proc = run_script("src_lines.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = proc.stdout.splitlines()
    assert header.split() == ["file", "code", "docstring", "comment", "blank", "lines"]
    sums = [0] * 5
    for row in rows:
        name, *counts = row.split()
        counts = list(map(int, counts))
        text = (ROOT / "src" / name).read_text(encoding="utf-8")
        assert sum(counts[:4]) == counts[4] == len(text.splitlines()), row
        sums = [s + c for s, c in zip(sums, counts)]
    assert sorted(name.split()[0] for name in rows) == sorted(
        p.relative_to(ROOT / "src").as_posix() for p in (ROOT / "src").rglob("*.py")
    )
    assert total.split() == ["total", *map(str, sums)]
