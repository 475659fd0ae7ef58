"""The abmonoids command line with layer spans, for traced cli_oneshot runs.

Usage: python bench/cli_child.py COMMAND [FLAGS...]  (as python -m abmonoids)

Stdout and the exit code are the command's own.  The spans follow on
stderr, as one last line that starts with SPANS_PREFIX.
"""

import json
import sys

import abmonoids.cli
from tracing import CLI_WRAPS, LAYER_WRAPS, SPANS_PREFIX, Tracer, install

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer, LAYER_WRAPS + CLI_WRAPS)
    try:
        abmonoids.cli.main(sys.argv[1:])
        code = 0
    except SystemExit as done:
        code = done.code if isinstance(done.code, int) else (0 if done.code is None else 1)
    sys.stdout.flush()
    sys.stderr.write(SPANS_PREFIX + json.dumps(tracer.export()) + "\n")
    sys.exit(code)
