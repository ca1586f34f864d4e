"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

RECORD = json.loads((HERE / "record.json").read_text(encoding="utf-8"))


def span(name, start, end, parent=-1, info=None):
    return [name, start, end, parent, 0, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("outer", 0.0, 10.0),
        span("mid", 1.0, 6.0, parent=0),
        span("leaf", 2.0, 3.0, parent=1),
        span("leaf", 3.5, 5.0, parent=1),
        span("mid", 7.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    calls, self_s, _, under = tracing.summarize(spans)
    assert calls["leaf"] == 2 and calls["mid"] == 2
    assert self_s["mid"] == pytest.approx(4.5)
    # a leaf counts once under each distinct ancestor name
    assert under[("outer", "leaf")] == 2 and under[("mid", "leaf")] == 2


def test_tail_needs_twenty_tasks_and_leaves_ten_beyond():
    assert run.tail_latency(list(range(19))) is None
    value, pct, n = run.tail_latency([float(x) for x in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)
    lat = [float(x) for x in range(1000)]
    value, pct, n = run.tail_latency(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(99.0)


class _StubWorkload:
    """Three tasks per round: a right answer, a wrong one, and a raise."""

    def round(self, r):
        def check(value):
            return ([] if value == 4 else [f"got {value}, want 4"]), value

        def boom():
            raise ArithmeticError("solver blew up")

        return [("right", lambda: 2 + 2, check), ("wrong", lambda: 2 + 3, check),
                ("raises", boom, check)]


def test_wrong_result_and_raise_count_in_fail_ratio():
    out = worker.run_rounds(_StubWorkload(), rounds=2)
    assert out["attempted"] == 6 and out["failed"] == 4
    assert any("got 5" in p for p in out["problems"])
    assert any("ArithmeticError" in p for p in out["problems"])
    pooled = run.pool([{**out, "peak_rss_mb": 1.0}])
    assert run.end_to_end([0.5], pooled)["success_ratio"] == pytest.approx(2 / 6)


def test_pool_flags_an_output_that_differs_between_passes():
    same = {"attempted": 2, "failed": 0, "problems": [], "latencies": [1.0, 2.0],
            "round_busy": [3.0], "peak_rss_mb": 1.0, "summaries": [[1.0], [2.0]]}
    short = {**same, "attempted": 1, "summaries": [[1.0]]}
    assert run.pool([same, same, short])["failed"] == 0
    moved = {**same, "summaries": [[1.0], [2.0000001]]}
    pooled = run.pool([same, moved])
    assert pooled["failed"] == 1 and "task 1" in pooled["problems"][0]


def test_gap_check_rejects_a_wrong_relaxed_value():
    expected = RECORD["expected"]["gap-certify"]
    good = SimpleNamespace(failed=False, relaxed=expected["relaxed"],
                           best_classical=expected["best_classical"],
                           certificates=[{"name": "sub-relaxation", "passed": True}])
    delta = 0.004376585467885934
    assert workloads.check_gap(good, delta, expected)[0] == []
    wrong = SimpleNamespace(**{**vars(good), "relaxed": expected["relaxed"] + 1e-4})
    assert any("relaxed" in p for p in workloads.check_gap(wrong, delta, expected)[0])


def test_cli_report_check_uses_tolerance_not_bytes():
    expected = RECORD["expected"]["cli-configs"]["gap-demo"]
    report = {"exit_code": 0, "results": {
        "relaxation": {k.split(".")[-1]: v for k, v in expected.items()
                       if k.startswith("results.relaxation.")},
        "demo_trace": {"costs": [expected["results.demo_trace.costs.0"] + 1e-12] * 4
                       + [expected["results.demo_trace.costs.4"]]}}}
    assert workloads.check_cli_report(report, expected) == []
    report["results"]["relaxation"]["relaxed"] += 1e-3
    assert workloads.check_cli_report(report, expected) != []


def test_tracer_patches_every_binding_and_restores_it():
    import qlcontrol
    from qlcontrol import control_opt, grid, instances, state_quasilinear

    original = state_quasilinear.solve_quasilinear
    t = tracing.Tracer()
    t.install()
    try:
        assert control_opt.solve_quasilinear is state_quasilinear.solve_quasilinear
        assert qlcontrol.solve_quasilinear is not original
        cp = instances.build_control_problem("linear-quasilinear-1d")
        u = grid.ScalarField(cp.mesh, [0.5] * cp.mesh.n_nodes)
        control_opt.evaluate_cost(cp, u)
    finally:
        t.uninstall()
    assert control_opt.solve_quasilinear is original
    calls, _, info, under = tracing.summarize(t.spans)
    assert calls["control_opt.evaluate_cost"] == 1
    assert calls["state_quasilinear.solve_quasilinear"] == 1
    solves = info["state_quasilinear.solve_quasilinear"]["iterations"]
    assert under[("state_quasilinear.solve_quasilinear", "grid.helmholtz_solve")] == solves


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return env


def test_traced_counts_repeat_and_match_untraced_results():
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "state-sweep",
           "--seed", "3", "--rounds", "2"]
    runs = [subprocess.run(cmd + extra, env=_env(), capture_output=True, text=True,
                           timeout=120, check=True)
            for extra in ([], ["--trace"], ["--trace"])]
    plain, first, second = (json.loads(r.stdout.splitlines()[-1]) for r in runs)
    assert plain["failed"] == first["failed"] == 0
    assert plain["summaries"] == first["summaries"] == second["summaries"]
    counts = [{k: v for k, v in res["layers"].items() if not k.endswith("self_s")}
              for res in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["state_quasilinear.solve_quasilinear.calls"] == 2 * 22
    assert counts[0]["grid.factorizations"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "state-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=""), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
