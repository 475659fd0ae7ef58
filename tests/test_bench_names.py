"""The engine names the benchmark's tracer wraps must keep resolving.

``bench/tracing.py`` monkeypatches functions on the modules whose code
calls them; a rename or a dropped import in ``src/`` would otherwise only
show up in the benchmark's own tests.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_wrapped_name_resolves():
    tracing = runpy.run_path(str(TRACING))
    wraps = tracing["LAYER_WRAPS"] + tracing["CLI_WRAPS"]
    assert wraps
    for module_name, attr, _, _ in wraps:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
