"""The rigidkit benchmark: four CLI workloads, end-to-end metrics and a traced run.

Run from the repository root:

  python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30
  python3 perfbench/run.py --record      # re-record the expected answers
  python3 perfbench/run.py --self-test   # one wrong expected answer raises error_rate by its op's share

An op is one ``rigidkit.cli.main(argv)`` call on inputs the benchmark
generated from ``--seed`` (see workloads.py).  Ops run one at a time, each in
a fresh worker process, so every op starts cold as a CLI run does and no
cache (``corpus.nonisomorphic_graphs`` included) carries over: a closed loop
with one client.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
  setup_s      median time, over several repetitions, to generate and write
               the inputs and start a process that imports the program and
               parses them all
  ops_per_s    ops completed per second of the timed phase
  op_p50_s     median op time (the ``main`` call inside the worker)
  op_tail_s    op time at the highest percentile with at least ten ops beyond
               it; the report line states the percentile and the op count
  peak_rss_mb  peak resident memory of the processes that ran the ops
error_rate (failed / attempted ops) is printed on the report line; it is
not an end-to-end metric of BENCHMARK.json because it reads 0, and the
result line carries it as ``attempted`` and ``failed``.

``--trace 1`` runs one repetition of the workload's pattern of op kinds,
alternately untraced and traced (tracer.py), for ``--seconds`` and at least
twice traced, and prints the per-layer metrics: figures per pass over those
ops.  Two traced passes over the same inputs must give identical counts; a
mismatch fails the run.

Not measured on purpose: the wall time of the tier-1 test suite (the test set
changes from change to change, so its times do not compare) and ``analyze``
on G(30, 150) at d=3 (one op takes minutes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import CALL_COUNTERS, LAYERS, OWN_COUNTERS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # a run must end within 180 s; ops are cut off before that
ENV = dict(os.environ, PYTHONHASHSEED="0")


class Runner:
    """Spawns workers for one checkout and one work directory."""

    def __init__(self, root: Path, work: Path, started: float):
        self.src = str(root / "src")
        self.root = root
        self.work = work
        self.deadline = started + RUN_LIMIT_S

    def spawn(self, spec: dict) -> dict:
        spec = dict(spec, src=self.src)
        timeout = None if self.deadline is None else max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                                  capture_output=True, text=True, timeout=timeout,
                                  env=ENV, cwd=self.root)
        except subprocess.TimeoutExpired:
            return {"error": f"worker killed after {timeout:.0f} s"}
        try:
            return json.loads(proc.stdout)
        except ValueError:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {"error": f"worker exited with {proc.returncode}: {tail}"}

    def op(self, op: workloads.Op, trace: bool = False, spans: Path | None = None) -> dict:
        return self.spawn({"argv": list(op.argv), "trace": trace,
                           "spans": str(spans) if spans else None})

    def setup(self, workload: str, seed: int, repeats: int):
        """Generate the inputs and ready the program; returns (ops, times)."""
        times = []
        for i in range(repeats):
            dest = self.work / f"inputs{i}"
            start = time.perf_counter()
            ops = workloads.build(workload, seed, dest)
            inputs = sorted({(op.argv[2], op.n, len(op.edges)) for op in ops if op.edges})
            probe = self.spawn({"probe": [path for path, _, _ in inputs]})
            times.append(time.perf_counter() - start)
            if probe.get("sizes") != [[n, m] for _, n, m in inputs]:
                raise SystemExit(f"set-up failed: the program could not read the inputs: {probe}")
            if i + 1 < repeats:
                shutil.rmtree(dest)
        return ops, times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has at least ten
    ops beyond it; with ten ops or fewer, the slowest op at 100."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def checked(op, result, expected) -> tuple:
    return op, result, workloads.check(op, result, expected)


def summarize_checks(rows, expected) -> dict:
    failures = [f"{op.kind.label}: {problem}" for op, _, problem in rows if problem]
    exact = sum(1 for op, _, _ in rows if expected.get(op.key, (0, None))[1])
    return {
        "attempted": len(rows),
        "failed": len(failures),
        "error_rate": len(failures) / len(rows),
        "exact_checked_ops": exact,
        "invariant_only_ops": len(rows) - exact,
        "checks": "ops whose inputs have a recorded answer are compared with it; "
                  "the others (other seeds, and every sparsify op) are checked "
                  "for invariants only",
        "failures": failures[:5],
    }


def run_timed(runner: Runner, ops, seconds: int, expected) -> tuple[list, float]:
    rows = []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        op = ops[len(rows) % len(ops)]
        rows.append(checked(op, runner.op(op), expected))
    return rows, time.perf_counter() - start


def end_to_end(workload: str, seed: int, seconds: int, runner: Runner, expected) -> dict:
    ops, setup_times = runner.setup(workload, seed, SETUP_REPEATS)
    rows, elapsed = run_timed(runner, ops, seconds, expected)
    report = summarize_checks(rows, expected)
    times = [r["wall_s"] for _, r, problem in rows if not problem]
    ok = len(times)
    times = times or [r.get("wall_s", 0.0) for _, r, _ in rows]
    tail_value, tail_pct = tail(times)
    rss = max(r.get("rss_kb", 0) for _, r, _ in rows) / 1024
    report.update(tail_percentile=round(tail_pct, 2), timed_ops=len(times),
                  timed_phase_s=elapsed, setup_repeats=setup_times)
    report["metrics"] = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(ok / elapsed, "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return report


def _pass_figures(rows) -> dict:
    """Per-layer figures summed over one pass (one repetition of the pattern)."""
    figures = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    counts = {f"{layer}.calls": 0 for layer in LAYERS}
    counts.update({name: 0 for name in list(CALL_COUNTERS) + list(OWN_COUNTERS)})
    retries = kept = before = steps = 0
    absent = set()
    for op, result, _ in rows:
        trace = result.get("trace")
        if trace is None:
            continue
        absent.update(trace["absent"])
        for layer in LAYERS:
            figures[f"{layer}.self_s"] += trace["self_s"][layer]
            counts[f"{layer}.calls"] += trace["calls"][layer]
        for name, value in trace["counters"].items():
            counts[name] += value
        try:
            out = json.loads(result["stdout"])["result"]
        except (ValueError, KeyError):
            continue
        if op.workload == "sparsify":
            retries += out["log"]["retries"]
            kept += out["log"]["generators_after"]
            before += out["log"]["generators_before"]
        elif op.workload == "extract":
            steps += len(out["steps"])
    counts["global_rigidity.sparsify_retries"] = retries
    counts["extract.trace_steps"] = steps
    figures["global_rigidity.reducer_keep_ratio"] = kept / before if before else 0.0
    return {"figures": figures, "counts": counts, "absent": sorted(absent),
            "wall_s": sum(r.get("wall_s", 0.0) for _, r, _ in rows)}


UNITS = {"self_s": "s", "calls": "count", "elim_cells": "computed_cells",
         "elim_ops": "computed_ops", "reducer_keep_ratio": "ratio"}


def per_layer(workload: str, seed: int, seconds: int, runner: Runner, expected) -> dict:
    ops, _ = runner.setup(workload, seed, 1)
    base = ops[:len(workloads.PATTERNS[workload])]
    spans = runner.root / ".perfbench_work" / "spans" / workload
    shutil.rmtree(spans, ignore_errors=True)
    spans.mkdir(parents=True)
    rows, plain, traced = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced_rows = [checked(op, runner.op(op), expected) for op in base]
        traced_rows = [checked(op, runner.op(op, True, spans / f"{i}-{op.kind.label}.tsv"),
                               expected) for i, op in enumerate(base)]
        rows += untraced_rows + traced_rows
        plain.append(_pass_figures(untraced_rows))
        traced.append(_pass_figures(traced_rows))
    report = summarize_checks(rows, expected)
    mismatched = sorted(name for name, value in traced[0]["counts"].items()
                        if any(p["counts"][name] != value for p in traced[1:]))
    report.update(traced_passes=len(traced), ops_per_pass=len(base),
                  absent_functions=traced[0]["absent"], spans_dir=str(spans),
                  nondeterministic_counts=mismatched,
                  note="rigid_basis eliminates inline: its elimination is rigidity self "
                       "time, not field.*; field.elim_cells and field.elim_ops are "
                       "computed from matrix shapes")
    values = {name: statistics.median(p["figures"][name] for p in traced)
              for name in traced[0]["figures"]}
    values.update(traced[0]["counts"])
    values["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in plain) - 1)
    unit = {name: UNITS.get(name.split(".", 1)[1], "count") for name in values}
    unit["trace.overhead_frac"] = "ratio"
    report["metrics"] = {name: metric(values[name], unit[name]) for name in sorted(values)}
    return report


def metadata(root: Path, seed: int, seconds: int, trace: int) -> dict:
    commit = "unavailable: the checkout is not a git repository"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=root)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rigidkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed loop, one client, one fresh process per op",
    }


def print_report(workload: str, report: dict) -> None:
    info = {k: v for k, v in report.items() if k != "metrics"}
    print(json.dumps({"workload": workload, "report": info}))
    for name, m in report["metrics"].items():
        print(f"  {workload:<9} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {workload:<9} {'error_rate':<40} {report['error_rate']:>16.6g} failed/attempted")


def record(runner: Runner) -> int:
    """Run every distinct op of the default and the held-out seed once and
    store its exit code and answer digest."""
    answers = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, seed, runner.work / f"{workload}-{seed}")
            for op in ops:
                if op.key in answers:
                    continue
                result = runner.op(op)
                problem = workloads.check(op, result, {})
                if problem:
                    print(f"{op.kind.label}: {problem}", file=sys.stderr)
                    return 1
                block = workloads.checked_block(op, json.loads(result["stdout"]))
                answers[op.key] = [result["rc"], block and workloads.answer_digest(block)]
            print(f"recorded {workload} seed {seed}: {len(answers)} answers", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(answers[key])}" for key in sorted(answers)]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def self_test(runner: Runner, expected: dict) -> int:
    """Feed one wrong expected answer; error_rate must rise by exactly the
    share of the ops that read that op's inputs."""
    ops = workloads.build("analyze", workloads.DEFAULT_SEED, runner.work / "self-test")
    ops = ops[:2 * len(workloads.PATTERNS["analyze"])]
    results = [runner.op(op) for op in ops]
    victim = ops[0].key
    if victim not in expected:
        print("self-test: no recorded answer for the default seed", file=sys.stderr)
        return 1
    wrong = dict(expected)
    wrong[victim] = [expected[victim][0], "0" * 16]

    def error_rate(table):
        rows = [checked(op, r, table) for op, r in zip(ops, results)]
        return Fraction(summarize_checks(rows, table)["failed"], len(rows))

    share = Fraction(sum(op.key == victim for op in ops), len(ops))
    before, after = error_rate(expected), error_rate(wrong)
    ok = before == 0 and after - before == share
    print(f"self-test {'PASS' if ok else 'FAIL'}: error_rate {before} -> {after}, "
          f"expected a rise of {share}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "rigidkit" / "cli.py").is_file():
        print(f"no rigidkit sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, started)
    try:
        if args.record:
            runner.deadline = None
            return record(runner)
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        if args.self_test:
            return self_test(runner, expected)
        print(json.dumps({"meta": metadata(root, args.seed, args.seconds, args.trace)}))
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if len(names) > 1:
            runner.deadline = None
        modes = (0, 1) if args.workload == "all" else (args.trace,)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in modes:
                measure = per_layer if trace else end_to_end
                report = measure(name, args.seed, args.seconds, runner, expected)
                print_report(name, report)
                result["correct"] &= report["failed"] == 0 and not report.get(
                    "nondeterministic_counts")
                result["attempted"] += report["attempted"]
                result["failed"] += report["failed"]
                prefix = f"{name}." if len(names) > 1 else ""
                result["metrics"].update({prefix + k: v for k, v in report["metrics"].items()})
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
