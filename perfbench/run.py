"""Layered benchmark of qlcontrol: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/qlcontrol`` and ``configs/``.  Every
pass of a workload runs in a fresh process (``perfbench/worker.py``) with
BLAS pinned to one thread; passes run one after another.

``--trace 0`` splits ``--seconds`` over three measuring passes and adds
set-up-only passes, then prints the end-to-end metrics.  On the 2-core
host the benchmark was tuned on, the median round time of one process
shifted by up to a fifth between consecutive processes, so pooling three
fresh processes steadies the medians.

``--trace 1`` runs a fixed task plan three times: untraced, then traced
twice.  It prints the per-layer metrics of the first traced pass and
``trace.overhead_ratio``.

Every pass of a run uses the same seed, so task i of every pass must
produce the same output.  A run fails when one differs (tracing changed a
result, or the program is not deterministic) or when a deterministic count
differs between the two traced passes.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("gap-certify", "variational-control", "state-sweep", "cli-configs")
MEASURE_PASSES = 3
SETUP_PROBES = 4  # set-up only passes, on top of the measuring passes
TRACE_ROUNDS = {"gap-certify": 1, "variational-control": 2, "state-sweep": 30,
                "cli-configs": 1}
TAIL_MIN_TASKS = 20
TAIL_BEYOND = 10
DEADLINE_S = 170.0
# report.json carries wall times, so the bytes written vary from run to run
NONDETERMINISTIC_COUNTS = ("cli.bytes_written",)


class BenchError(RuntimeError):
    pass


def tail_latency(latencies):
    """Latency at the highest percentile that leaves at least TAIL_BEYOND
    tasks above it, as (value, percentile, task count); None below
    TAIL_MIN_TASKS tasks."""
    n = len(latencies)
    if n < TAIL_MIN_TASKS:
        return None
    k = n - TAIL_BEYOND
    return sorted(latencies)[k - 1], 100.0 * k / n, n


def pool(passes):
    """Tasks, rounds and failures of several passes taken together.

    Task i of every pass has the same inputs, so its output summary must be
    the same in every pass that reached it.
    """
    problems = [p for res in passes for p in res["problems"]]
    for i, ref in enumerate(passes[0]["summaries"]):
        if any(len(res["summaries"]) > i and res["summaries"][i] != ref
               for res in passes[1:]):
            problems.append(f"task {i}: output differs between passes of one seed")
    attempted = sum(res["attempted"] for res in passes)
    failed = sum(res["failed"] for res in passes)
    return {
        "attempted": attempted,
        "failed": max(failed, 1) if problems else 0,
        "problems": problems,
        "latencies": [x for res in passes for x in res["latencies"]],
        "round_busy": [x for res in passes for x in res["round_busy"]],
        "peak_rss_mb": max(res["peak_rss_mb"] for res in passes),
    }


def end_to_end(setups, main):
    """End-to-end metrics of pooled time-based passes and all set-ups."""
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(main["round_busy"]),
        "success_ratio": 1.0 - main["failed"] / main["attempted"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def worker(self, *extra):
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a pass")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {extra} did not finish in time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass {extra} exited with code {proc.returncode}")
        return json.loads(lines[-1])


def run_untraced(runner, seconds, units):
    setups = [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = [runner.worker("--seconds", str(seconds / MEASURE_PASSES))
              for _ in range(MEASURE_PASSES)]
    setups += [res["setup_s"] for res in passes]
    main = pool(passes)
    metrics = end_to_end(setups, main)
    lines = [f"{name:<16}{value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.insert(1, f"{'':<16}(median of {len(setups)} set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setups) + ")")
    lines.append(f"{'task_p50_s':<16}{statistics.median(main['latencies']):.6g} s")
    lines.append(f"{'fail_ratio':<16}{main['failed'] / main['attempted']:.6g} 1 "
                 f"({main['failed']} of {main['attempted']} tasks)")
    tail = tail_latency(main["latencies"])
    if tail is None:
        lines.append(f"{'task_tail_s':<16}not reported "
                     f"({len(main['latencies'])} tasks < {TAIL_MIN_TASKS})")
    else:
        lines.append(f"{'task_tail_s':<16}{tail[0]:.6g} s (p{tail[1]:.2f} of {tail[2]} tasks)")
    lines.append(f"rounds          {len(main['round_busy'])} in {MEASURE_PASSES} processes")
    return main["attempted"], main["failed"], main["problems"], metrics, lines


def run_traced(runner, units):
    rounds = str(TRACE_ROUNDS[runner.args.workload])
    spans = ROOT / ".perfbench" / f"spans-{runner.args.workload}.jsonl"
    plain = runner.worker("--rounds", rounds)
    first = runner.worker("--rounds", rounds, "--trace", "--spans", str(spans))
    second = runner.worker("--rounds", rounds, "--trace")
    pooled = pool([plain, first, second])
    problems = pooled["problems"]
    counts = [{k: v for k, v in res["layers"].items()
               if not k.endswith("self_s") and k not in NONDETERMINISTIC_COUNTS}
              for res in (first, second)]
    differing = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    if differing:
        problems.append("counts differ between traced passes: " + ", ".join(differing))
    metrics = dict(first["layers"])
    metrics["trace.overhead_ratio"] = (
        sum(first["round_busy"]) / sum(plain["round_busy"]) - 1.0)
    lines = [f"{name:<48}{value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"spans written to {spans.relative_to(ROOT)}")
    failed = pooled["failed"] or (1 if problems else 0)
    return pooled["attempted"], failed, problems, metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qlcontrol" / "__init__.py").is_file():
        print(f"error: no qlcontrol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runner = Runner(args)
    try:
        if args.trace:
            attempted, failed, problems, metrics, lines = run_traced(runner, units)
        else:
            attempted, failed, problems, metrics, lines = run_untraced(
                runner, args.seconds, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} tasks, {failed} failed")
    for line in lines:
        print("  " + line)
    for problem in problems:
        print("  FAILED " + problem)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
