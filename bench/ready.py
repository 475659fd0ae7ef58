"""Start-up probe for setup_s: prepares a workload as run.py does, then
prints one line and exits.

Usage: python bench/ready.py WORKLOAD SEED [--small]
"""

import sys

import run

if __name__ == "__main__":
    run.Runner(sys.argv[1], int(sys.argv[2]), small="--small" in sys.argv[3:])
    print("ready", flush=True)
