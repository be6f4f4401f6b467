"""Benchmark of the critgroups CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` runs the workload as a closed loop: one client, one
``python -m critgroups --format json ...`` child at a time, pass after
pass over the workload's instances until ``--seconds`` are used up (at
least one pass).  ``pass_s`` is the sum over the instances of each one's
median time over the passes.  Each instance has a fixed deadline; a
child that hits it is killed, counted as failed, charged the deadline
and not run again in this run, since a hang takes the deadline every
time.  ``completed_frac`` is the share of instances that never failed.
Every output is checked against the expected groups (see workloads.py).
``setup_s`` is the median of repeated set-ups.

The benchmark and its children run on one CPU, and every timed span is
scaled to a reference speed: it is multiplied by ``CAL_REF_S`` over the
mean of two ``calibrate()`` timings taken on that CPU right before and
right after it; a deadline hit is charged the deadline unscaled.  On a
shared host a CPU's speed can change by a factor of two from one minute
to the next; the scaling takes most of that out.  The raw times go to
stderr.

``--trace 1`` runs the same instances in process through
``critgroups.cli.main``, once with the tracer installed and once without,
and reports per-layer metrics and the tracing overhead.  Spans of every
wrapped function, per instance, are written to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any output is wrong (a deadline hit is a failure, not a wrong
output) and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import Deadline, Tracer, deadline

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 21
CAL_REF_S = 0.0085  # calibrate() at the reference speed: an unloaded 2.1 GHz Xeon core
START_REPEATS = 7
TINY_GRAPH = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
TINY_GOLDEN = {"invariant_factors": [3], "order": 3}

END_TO_END_UNITS = {"pass_s": "s", "top_rung_s": "s", "completed_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"}

_CHECKS = ("pair_exact_sequence", "kernel_structure", "quotient_structure", "divisor_class_quotient", "order_identity", "tree_case")
LAYER_METRICS = (  # <module>.<function>.<stat>, summed over the instances
    *(f"intmatrix.hermite_normal_form.{s}" for s in ("calls", "self_s", "distinct_frac", "max_bits")),
    "intmatrix.solve_in_column_span.calls",
    *(f"intmatrix.smith_normal_form.{s}" for s in ("calls", "self_s", "distinct_frac", "max_bits")),
    "intmatrix.det_bareiss.self_s",
    "multigraph.spanning_tree_count.total_s",
    *(f"abelian.canonical_chain.{s}" for s in ("calls", "self_s", "max_bits", "deadline_hits")),
    *(f"abelian.Cokernel.{s}" for s in ("calls", "self_s", "distinct_frac")),
    "abelian.Cokernel.project.calls",
    "abelian.kernel_of_hom.total_s",
    "abelian.lattice_quotient.total_s",
    *(f"divisors.{f}.{s}" for f in ("subgroup_generated", "quotient_by_subgroup") for s in ("calls", "total_s", "distinct_frac")),
    "divisors.is_principal.calls",
    "divisors.is_principal.total_s",
    "quotients.is_pullback.total_s",
    "quotients.quotient_graph.total_s",
    "actions.classify_dihedral_orbits.total_s",
    "actions.generate_group.self_s",
    "decomposition.DecompositionContext.total_s",
    *(f"decomposition.check_{c}.total_s" for c in _CHECKS),
    "decomposition.laplacian_mod_symmetric_firings.total_s",
    "decomposition.membership_sweep.total_s",
    "decomposition.pair_sum_conditions.total_s",
    "decomposition.triple_sum_conditions.total_s",
    "jsonio.load_graph.total_s",
)
PER_LAYER = (*LAYER_METRICS, "cli.start_s", "trace.pass_s", "trace.untraced_pass_s", "trace.overhead_frac")
_STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "distinct_frac": "frac", "max_bits": "bits", "deadline_hits": "count"}


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return _STAT_UNITS.get(stat, "s" if stat.endswith("_s") else "frac")


def calibrate() -> float:
    """Seconds for a fixed loop of 200-bit integer arithmetic, the kind
    of work the program does; it does not touch the program."""
    start = perf_counter()
    x = 1
    for i in range(30000):
        x = (x * 3 + i) % (1 << 200) + i * i // 7
    return perf_counter() - start


def scaled(measure):
    """Call measure() between two calibrations.  Return its seconds (its
    first result) scaled to the reference speed, the same seconds
    unscaled, and its other results."""
    before = calibrate()
    seconds, *rest = measure()
    return (seconds * 2 * CAL_REF_S / (before + calibrate()), seconds, *rest)


def cli_words(workload, seed: int, path: Path) -> list[str]:
    return ["--format", "json", workload.command[0], str(path), *(w.format(seed=seed) for w in workload.command[1:])]


class Child:
    """Runs ``python -m critgroups`` children, one at a time, under a deadline."""

    def __init__(self, workdir: Path):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.out = workdir / "child.out"

    def run(self, words: list[str], deadline_s: float):
        """(seconds, exit code or None on deadline, stdout, peak RSS in MB)."""
        # stdout goes to a file, not a pipe: nothing has to drain it while we wait.
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ]
        argv = [sys.executable, "-m", "critgroups", *words]
        status = None
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        try:
            with deadline(deadline_s):
                _, status, usage = os.wait4(pid, 0)
        except Deadline:
            pass
        finally:
            elapsed = perf_counter() - start
            if status is None:  # deadline hit, or this process is being interrupted
                os.kill(pid, signal.SIGKILL)
                _, _, usage = os.wait4(pid, 0)
        if status is None:
            return min(elapsed, deadline_s), None, "", usage.ru_maxrss / 1024
        return elapsed, os.waitstatus_to_exitcode(status), self.out.read_text(), usage.ru_maxrss / 1024


def in_process(words: list[str], deadline_s: float):
    """(seconds, exit code or None on deadline, stdout) of cli.main in this process."""
    from critgroups import cli

    out = io.StringIO()
    rc = None
    start = perf_counter()
    try:
        with deadline(deadline_s), redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(words)
    except Deadline:
        pass
    elapsed = perf_counter() - start
    return (min(elapsed, deadline_s) if rc is None else elapsed), rc, out.getvalue()


class Tally:
    """Attempted and failed instances, and wrong outputs, with the reasons.

    An instance counts once however many passes ran it, and fails if any
    of its runs failed, so that ``attempted`` and ``failed`` do not depend
    on how many passes fit in the time."""

    def __init__(self, check_output):
        self.check_output = check_output
        self.attempted: set[str] = set()
        self.failed: set[str] = set()
        self.wrong = 0
        self.notes: list[str] = []

    def record(self, command: tuple[str, ...], golden: dict, name: str, rc, stdout: str) -> bool:
        """Record one run of an instance; True when it completed correctly."""
        self.attempted.add(name)
        reason = "deadline" if rc is None else self.check_output(command, golden, rc, stdout)
        if reason is None:
            return True
        self.failed.add(name)
        if reason != "deadline":
            self.wrong += 1
        self.notes.append(f"{name}: {reason}")
        return False

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": len(self.attempted),
            "failed": len(self.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def timed_run(workload, seed, seconds, files, goldens, workdir, tally) -> dict:
    child = Child(workdir)
    child.run(["compute", str(files["tiny"])], 60.0)  # warm-up: byte-compiles the sources on a fresh checkout
    times: dict[str, list[float]] = {name: [] for name in workload.instances}
    rss: dict[str, list[float]] = {name: [] for name in workload.instances}
    failed: set[str] = set()
    hung: set[str] = set()  # hit the deadline: a hang is not run again in this run
    passes = 0
    began = perf_counter()
    while True:
        pass_began, raw_s = perf_counter(), 0.0
        for name in workload.instances:
            if name in hung:
                continue
            words = cli_words(workload, seed, files[name])
            elapsed, raw, rc, out, mb = scaled(lambda: child.run(words, workload.deadline_s))
            if not tally.record(workload.command, goldens[name], name, rc, out):
                failed.add(name)
            if rc is None:  # a deadline hit is charged the deadline, which is wall time: not scaled
                elapsed = raw
                hung.add(name)
            times[name].append(elapsed)
            rss[name].append(mb)
            raw_s += raw
        passes += 1
        print(f"pass {passes}: {raw_s:.3f} s raw", file=sys.stderr)
        now = perf_counter()
        if now - began + (now - pass_began) > seconds:
            break
    return {
        "pass_s": sum(statistics.median(t) for t in times.values()),
        "top_rung_s": statistics.median(times[workload.top_rung]),
        "completed_frac": 1 - len(failed) / len(workload.instances),
        "peak_rss_mb": max(statistics.median(r) for r in rss.values()),
    }


def traced_run(workload_name, workload, seed, files, goldens, workdir, tally) -> dict:
    tracer = Tracer()
    per_instance = {}
    traced_s = untraced_s = 0.0
    for name in workload.instances:
        words = cli_words(workload, seed, files[name])
        with tracer.installed():
            elapsed, rc, out = in_process(words, workload.deadline_s)
            stats = tracer.reset()
        ok = tally.record(workload.command, goldens[name], name, rc, out)
        entry = per_instance[name] = {
            "traced_s": elapsed,
            "completed": ok,
            "layers": {k: {**vars(s), "keys": len(s.keys)} for k, s in stats.items() if s.calls},
        }
        if ok:  # overhead is measured on the instances that complete
            entry["untraced_s"] = in_process(words, workload.deadline_s)[0]
            traced_s += elapsed
            untraced_s += entry["untraced_s"]

    child = Child(workdir)
    start_words = ["--format", "json", "compute", str(files["tiny"])]
    starts = []
    for _ in range(START_REPEATS):
        elapsed, rc, out, _ = child.run(start_words, 60.0)
        tally.record(("compute",), TINY_GOLDEN, "tiny", rc, out)
        starts.append(elapsed)

    metrics = {}
    for metric in LAYER_METRICS:
        fn, stat = metric.rsplit(".", 1)
        layers = [e["layers"][fn] for e in per_instance.values() if fn in e["layers"]]
        calls = sum(s["calls"] for s in layers)
        if stat == "distinct_frac":
            metrics[metric] = sum(s["keys"] for s in layers) / calls if calls else 1.0
        elif stat == "max_bits":
            metrics[metric] = max((s["max_bits"] for s in layers), default=0)
        else:
            metrics[metric] = sum(s[stat] for s in layers)
    metrics["cli.start_s"] = statistics.median(starts)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1 if untraced_s else 0.0

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload_name}-{seed}.json").write_text(
        json.dumps({"seed": seed, "metrics": metrics, "instances": per_instance}, indent=1)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its children, the one calibrate() measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # On SIGTERM unwind normally, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "critgroups" / "__init__.py").is_file():
        print(f"error: {SRC}/critgroups not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        def set_up():
            gc.collect()
            start = perf_counter()
            goldens = workloads.set_up(workload, args.seed, workdir)
            return perf_counter() - start, goldens

        setups = [scaled(set_up) for _ in range(SETUP_REPEATS)]
        goldens = setups[-1][2]
        print(f"set-up: {statistics.median(s[1] for s in setups):.4f} s raw median", file=sys.stderr)
        if workloads.RANDOM_NAME in workload.instances:
            goldens[workloads.RANDOM_NAME] = workloads.expected_group(workloads.random_multigraph(args.seed))
        files = {name: workdir / workloads.instance_file(name) for name in workload.instances}
        files["tiny"] = workdir / "tiny.json"
        files["tiny"].write_text(json.dumps(TINY_GRAPH))
        tally = Tally(workloads.check_output)
        if args.trace:
            metrics = traced_run(args.workload, workload, args.seed, files, goldens, workdir, tally)
            units = {m: layer_unit(m) for m in PER_LAYER}
        else:
            metrics = timed_run(workload, args.seed, args.seconds, files, goldens, workdir, tally)
            metrics["setup_s"] = statistics.median(s[0] for s in setups)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes:
        print(note, file=sys.stderr)
    result = tally.result({m: (metrics[m], units[m]) for m in units})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
