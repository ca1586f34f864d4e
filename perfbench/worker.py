"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --rounds R | --setup-only) [--trace] [--spans PATH]

Set-up time runs from the first line of this file: it covers importing
qlcontrol, building the workload's instances and drawing its inputs.  The
timed phase then runs rounds of tasks, for at least ``--seconds`` (time-based
passes) or exactly ``--rounds`` (fixed plans).  With ``--trace`` the public
qlcontrol functions are wrapped before set-up and the pass reports the
per-layer metrics.  The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def run_rounds(workload, seconds=None, rounds=None, tracer=None):
    """Run rounds of tasks; time each call, check each result untimed.

    A task fails if it raises or if its check reports a problem.  Time-based
    passes stop at the first round end after ``seconds``.
    """
    latencies, round_busy, problems, summaries = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        busy = 0.0
        for label, fn, check in workload.round(r):
            if tracer is not None:
                tracer.task = attempted
                tracer.enabled = True
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = fn()
                error = None
            except Exception as exc:  # a failed task is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            latencies.append(dt)
            busy += dt
            if error is None:
                try:
                    found, summary = check(result)
                except Exception as exc:
                    found, summary = [f"check raised {type(exc).__name__}: {exc}"], None
            else:
                found, summary = [error], None
            summaries.append(summary)
            if found:
                failed += 1
                problems.append(f"{label}: {'; '.join(found)}")
        round_busy.append(busy)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.enabled = True
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "latencies": latencies,
        "round_busy": round_busy,
        "summaries": summaries,
    }


def _factorizations(grid):
    return len(grid._FACTOR_CACHE) + len(grid._KKT_CACHE)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans here (JSON lines)")
    args = ap.parse_args(argv)

    import qlcontrol
    from qlcontrol import grid

    src = (ROOT / "src").resolve()
    if src not in Path(qlcontrol.__file__).resolve().parents:
        raise SystemExit(f"qlcontrol imported from {qlcontrol.__file__}, not {src}")

    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    factor_base = _factorizations(grid)
    record = json.loads((HERE / "record.json").read_text(encoding="utf-8"))
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        workload = workloads.build(args.workload, args.seed, ROOT, record, work)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = run_rounds(workload, seconds=args.seconds, rounds=args.rounds,
                         tracer=tracer)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(
            tracer.spans,
            factorizations=_factorizations(grid) - factor_base,
            bytes_written=getattr(workload, "bytes_written", 0),
        )
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
