"""End-to-end and per-layer benchmark of abmonoids.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload free_tree --seed 1 --seconds 10 --trace 0

One process drives the load, closed loop, one operation at a time.  The
workload's operations (see workloads.py) run once untimed so their answers
can be gated, then again and again until ``--seconds`` have passed; every
repeated answer must equal the gated one.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance and the work each operation did.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median time of one pass over the workload's operations
  peak_rss_mb  peak resident memory of this process, or of the largest CLI
               child on cli_oneshot
  setup_s      median over fresh processes of the time from process start
               to the moment the first timed operation could begin
The provenance line adds each operation's median time, with its sample
count and, from 100 samples on, its 90th percentile; on cli_oneshot that is
the latency of one CLI process.

``--trace 1`` measures half the time untraced and half with spans around
each layer boundary (tracing.py) and reports the per-layer metrics; counts
are per traced pass unless named otherwise, and times come from the spans.

The exit code is 0 when every answer is right and 1 otherwise; 2 means the
benchmark could not run, e.g. because ``src/abmonoids`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYER_WRAPS, SPANS_PREFIX, Tracer, install
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The package is measured from source, never from an installed copy.
sys.path.insert(0, str(SRC))

SETUP_SAMPLES = 9
FLOOR_SAMPLES = 5
MIN_PASSES = 3
CLI_TIMEOUT_S = 60  # a hung CLI run fails its operation instead of the whole run


class Refused(Exception):
    """The engine gave up on an operation instead of answering it."""


class Engine:
    """Runs operations against the package under ``src``."""

    def __init__(self, needs_package: bool):
        # Child processes import from src and may cache bytecode there, as an
        # installed copy would, whatever the caller's environment says.
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.cli_entry = ["-m", "abmonoids"]
        self.tracer = None
        if needs_package:
            self.tree = importlib.import_module("abmonoids.tree")
            self.closure = importlib.import_module("abmonoids.closure")

    def instance(self, op: Op):
        return self.closure.ProblemInstance(a=op.a, b=op.b, x=frozenset(op.x), g=op.g, r=op.r)

    def execute(self, op: Op):
        """The operation's answer in plain values; raises if the engine did."""
        if op.kind == "solve":
            res = self.tree.solve(self.instance(op))
            if res.truncated:
                raise Refused(f"node budget hit after {res.node_count} nodes")
            return res.solutions, res.node_count
        if op.kind == "closure":
            rep = self.closure.closure(op.a, op.b, op.x)
            return rep.d, rep.base.min_generators, rep.base.frobenius, rep.base.genus
        if op.kind == "feasible":
            res = self.closure.feasible(self.instance(op))
            return res.feasible, res.gap_count
        if op.kind == "one":
            return self.closure.one_solution(self.instance(op))
        if op.kind == "cli":
            proc = subprocess.run([sys.executable, *self.cli_entry, *op.argv], cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
                                  timeout=CLI_TIMEOUT_S)
            stderr = proc.stderr
            if self.tracer is not None:
                head, _, spans = stderr.rpartition(SPANS_PREFIX.encode())
                if spans:
                    self.tracer.merge(json.loads(spans))
                    stderr = head
            return proc.returncode, proc.stdout, stderr
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def gate(self, op: Op, answer) -> list[str]:
        import gates  # imported on first use, so it is no part of set-up time

        if op.kind == "solve":
            return gates.check_solve(op, *answer)
        if op.kind == "closure":
            return gates.check_closure(op, *answer)
        if op.kind in ("feasible", "one"):
            cert = self.execute(Op("closure", a=op.a, b=op.b, x=op.x)) if op.x else None
            if op.kind == "feasible":
                return gates.check_feasible(op, *answer, cert)
            return gates.check_one(op, answer, cert)
        return gates.check_cli(op, *answer)


def digest(op: Op, answer):
    """A compact stand-in for an answer, to compare repeats with the gated one."""
    if op.kind == "solve":
        return hash(answer[0]), len(answer[0]), answer[1]
    if op.kind == "cli":
        return answer[0], answer[1]
    return answer


def work_record(op: Op, answer) -> dict:
    """How much work an answer represents, for the provenance line."""
    if op.kind == "solve":
        return {"solutions": len(answer[0]), "nodes": answer[1]}
    if op.kind == "closure":
        return {"d": answer[0], "generators": len(answer[1]), "frobenius": answer[2], "genus": answer[3]}
    if op.kind == "feasible":
        return {"feasible": answer[0], "gap_count": str(answer[1])}
    if op.kind == "one":
        return {"size": len(answer), "largest": answer[-1] if answer else None}
    return {"exit": answer[0], "stdout_lines": answer[1].count(b"\n")}


class Runner:
    """Runs passes over one workload and keeps the failure accounting."""

    def __init__(self, workload: str, seed: int, small: bool = False):
        self.ops = workloads.build(workload, seed, small)
        self.engine = Engine(needs_package=any(op.kind != "cli" for op in self.ops))
        self.reference: list = [None] * len(self.ops)
        self.work: list = [None] * len(self.ops)
        self.attempted = 0
        self.raised: list[str] = []
        self.wrong: list[str] = []

    def run_op(self, i: int):
        """Time one operation, then check its answer; returns seconds."""
        op = self.ops[i]
        tracer = self.engine.tracer
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = self.engine.execute(op)
            else:
                with tracer.span("op." + op.kind):
                    answer = self.engine.execute(op)
        except Exception as err:  # noqa: BLE001  a failing operation must not end the run
            elapsed = time.perf_counter() - start
            self.raised.append(f"{op.label}: raised {type(err).__name__}: {err}")
            return elapsed
        elapsed = time.perf_counter() - start
        if self.reference[i] is None:
            wrong = self.engine.gate(op, answer)
            if not wrong:
                self.reference[i] = digest(op, answer)
                self.work[i] = work_record(op, answer)
        else:
            wrong = [] if digest(op, answer) == self.reference[i] else ["answer differs from the gated one"]
        if wrong:
            self.wrong.append(f"{op.label}: " + "; ".join(wrong))
        return elapsed

    def measure(self, seconds: float, between=None):
        """Passes until ``seconds`` have passed; returns the pass times and,
        per operation, its times.

        ``between(fraction_of_time_used)`` runs untimed after each pass."""
        pass_times, op_times = [], [[] for _ in self.ops]
        start = time.perf_counter()
        while len(pass_times) < MIN_PASSES or time.perf_counter() - start < seconds:
            times = [self.run_op(i) for i in range(len(self.ops))]
            pass_times.append(sum(times))
            for samples, t in zip(op_times, times):
                samples.append(t)
            if between is not None:
                between((time.perf_counter() - start) / seconds)
        return pass_times, op_times


def run_probes(workload: str, engine: Engine) -> list[dict]:
    """Run the known-defect probes once; a refusal is recorded, a wrong
    answer is an error."""
    out = []
    for op in workloads.probes(workload):
        try:
            answer = engine.execute(op)
        except Exception as err:  # noqa: BLE001  the probes exist to record such refusals
            out.append({"op": op.label, "outcome": f"raised {type(err).__name__}: {err}", "errors": []})
            continue
        if op.kind == "cli" and answer[0] == 3:
            out.append({"op": op.label, "outcome": "refused: exit 3", "errors": []})
            continue
        errors = engine.gate(op, answer)
        out.append({"op": op.label, "outcome": "wrong" if errors else "answered", "errors": errors})
    return out


def spawn_seconds(argv: list[str], env=None) -> float:
    """Seconds from starting a process until it prints its first line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"{argv} exited with {proc.returncode}")
    return elapsed


class SetupSampler:
    """Samples of setup time, spread over the run so that one slow moment
    of the machine does not decide the median."""

    def __init__(self, workload: str, seed: int, small: bool, env):
        self.argv = [sys.executable, str(BENCH / "ready.py"), workload, str(seed)] + (["--small"] if small else [])
        self.env = env
        spawn_seconds(self.argv, env)  # fills the bytecode cache; not a sample
        self.samples: list[float] = []

    def __call__(self, fraction_done: float) -> None:
        if len(self.samples) < min(SETUP_SAMPLES, SETUP_SAMPLES * fraction_done):
            self.samples.append(spawn_seconds(self.argv, self.env))

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(spawn_seconds(self.argv, self.env))
        return statistics.median(self.samples)


def floor_ms(env) -> tuple[float, float]:
    """Median ms to start a bare interpreter, and to import the CLI module."""
    bare = statistics.median(spawn_seconds([sys.executable, "-c", "print()"], env) for _ in range(FLOOR_SAMPLES))
    code = "import time; t = time.perf_counter(); import abmonoids.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(FLOOR_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True)
        imports.append(float(proc.stdout))
    return 1e3 * bare, 1e3 * statistics.median(imports)


def latency_ms(label: str, times: list[float]) -> dict:
    """Median time, and the 90th percentile once ten samples lie beyond it."""
    out = {"op": label, "n": len(times), "p50": 1e3 * statistics.median(times)}
    if len(times) >= 100:
        out["p90"] = 1e3 * statistics.quantiles(times, n=10)[-1]
    return out


def layer_metrics(tracer, passes: int, nodes: int, overhead_s: float, floors) -> dict:
    """Per-layer metrics from the spans and counters of the traced passes.

    ``nodes`` is the node count the engine reported for one pass.  Counts
    are per pass; ``*_per_call`` and ``cli.*`` times are per call; self
    times exclude direct child spans; ``closure.rebuilds`` counts
    from_generators calls inside a closure span; ``tree.kept_ratio`` is
    children returned over generators above the Frobenius number.  The run
    adds ``closure.refused``, counted over the whole run, probes included."""
    summ = tracer.summary()
    cnt = tracer.counters
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "in_closure": 0}

    def rec(name):
        return summ.get(name, zero)

    def ratio(num, den):
        return num / den if den else 0.0

    rg, fg = rec("semigroup.remove_generator"), rec("semigroup.from_generators")
    cl, ch, solve = rec("closure.closure"), rec("tree.children"), rec("op.solve")
    parse, run = rec("cli.parse_args"), rec("cli.run")
    return {
        "semigroup.remove_generator.calls": (rg["calls"] / passes, "count"),
        "semigroup.remove_generator.ns_per_call": (ratio(rg["total_ns"], rg["calls"]), "ns"),
        "semigroup.from_generators.calls": (fg["calls"] / passes, "count"),
        "semigroup.from_generators.ns_per_call": (ratio(fg["total_ns"], fg["calls"]), "ns"),
        "semigroup.from_generators.table_entries":
            (cnt["semigroup.from_generators.table_entries"] / passes, "count"),
        "closure.closure.calls": (cl["calls"] / passes, "count"),
        "closure.closure.self_ms": (cl["self_ns"] / passes / 1e6, "ms"),
        "closure.rebuilds": (fg["in_closure"] / passes, "count"),
        "closure.rebuilds_per_generator": (ratio(fg["in_closure"], cnt["closure.generators"]), "ratio"),
        "tree.nodes": (nodes, "count"),
        "tree.ns_per_node": (ratio(solve["total_ns"], nodes * passes), "ns"),
        "tree.children.calls": (ch["calls"] / passes, "count"),
        "tree.children.self_ns_per_call": (ratio(ch["self_ns"], ch["calls"]), "ns"),
        "tree.kept_ratio": (ratio(cnt["tree.kept"], cnt["tree.candidates"]), "ratio"),
        "tree.max_level_nodes": (max(tracer.levels.values(), default=0), "count"),
        "cli.parse_args.us_per_call": (ratio(parse["total_ns"], parse["calls"]) / 1e3, "us"),
        "cli.run.self_ms": (ratio(run["self_ns"], run["calls"]) / 1e6, "ms"),
        "cli.interpreter_ms": (floors[0], "ms"),
        "cli.import_ms": (floors[1], "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Measure one workload; returns (provenance, result) as printed."""
    runner = Runner(workload, seed, small)
    engine = runner.engine
    for i in range(len(runner.ops)):  # untimed pass whose answers are gated
        runner.run_op(i)
    if not trace:
        setup = SetupSampler(workload, seed, small, engine.env)
        pass_times, op_times = runner.measure(seconds, between=setup)
        # The setup processes are children too, but far smaller than a CLI run.
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF)
        metrics = {
            "wall_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (rss.ru_maxrss / 1024, "MB"),
        }
        known = run_probes(workload, engine)
        metrics["setup_s"] = (setup.median(), "s")
    else:
        plain_times, _ = runner.measure(seconds / 2)
        tracer = engine.tracer = Tracer()
        if workload == "cli_oneshot":
            engine.cli_entry = [str(BENCH / "cli_child.py")]
        else:
            install(tracer, LAYER_WRAPS)
        pass_times, op_times = runner.measure(seconds / 2)
        nodes = sum(w["nodes"] for w in runner.work if w and "nodes" in w)
        overhead = statistics.median(pass_times) - statistics.median(plain_times)
        metrics = layer_metrics(tracer, len(pass_times), nodes, overhead, floor_ms(engine.env))
        known = run_probes(workload, engine)
        tracer.unwrap_all()
        metrics["closure.refused"] = (tracer.counters["closure.closure.raised.ResourceLimitError"], "count")
    wrong = runner.wrong + [f"{k['op']}: {e}" for k in known for e in k["errors"]]
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "src_sha256": src_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "pass_times_s": [round(t, 6) for t in pass_times],
        "latency_ms": [latency_ms(op.label, times) for op, times in zip(runner.ops, op_times)]
        + [latency_ms("any operation", [t for times in op_times for t in times])],
        "instances": [op.label for op in runner.ops], "work": runner.work,
        "known_defects": known, "excluded": list(workloads.EXCLUDED),
        "errors": (wrong + runner.raised)[:20],
    }
    result = {
        "correct": not wrong,
        "attempted": runner.attempted,
        "failed": len(runner.raised) + len(runner.wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return provenance, result


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "abmonoids").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "abmonoids" / "__init__.py").is_file():
        print(f"error: no abmonoids sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    provenance, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in provenance["errors"]:
        print("error:", line, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
