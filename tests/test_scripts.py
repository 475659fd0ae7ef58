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
