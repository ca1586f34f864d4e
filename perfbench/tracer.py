"""Span tracer that measures qlcontrol's layers from outside the package.

The tracer replaces public qlcontrol functions with wrappers that record one
span per call: name, start, end, parent span, task id and, for solvers, the
iteration count read from the returned report.  Spans stay in memory and are
written out once, when the traced pass ends.  Nothing inside ``src/`` is
changed; the package binds names with ``from ... import``, so every
namespace that holds a wrapped function object is patched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span record layout: [name, start, end, parent index, task id, info]
NAME, START, END, PARENT, TASK, INFO = range(6)


def _iterations(result):
    """Iteration count of the SolveReport a solver returns last."""
    return {"iterations": int(result[-1].iterations)}


def _optimizer_steps(result):
    report = result[-1]
    return {
        "iterations": int(report.iterations),
        "accepted": len(report.cost_trace or ()) - 1,
    }


# (module, attribute, span name, reader of the returned value)
TARGETS = (
    ("grid", "helmholtz_solve_values", "grid.helmholtz_solve", None),
    ("grid", "gradient_potential", "grid.gradient_potential", None),
    ("coefficients", "check_monotonicity", "coefficients.checks", None),
    ("coefficients", "check_growth", "coefficients.checks", None),
    ("coefficients", "check_w_growth", "coefficients.checks", None),
    ("coefficients", "check_w_convexity", "coefficients.checks", None),
    ("instances", "build_state_problem", "instances.build", None),
    ("instances", "build_control_problem", "instances.build", None),
    ("instances", "build_relaxed_problem", "instances.build", None),
    ("instances", "gap_designed_init", "instances.build", None),
    ("state_variational", "solve_state", "state_variational.solve_state", _iterations),
    ("state_monotone", "solve_monotone", "state_monotone.solve_monotone", _iterations),
    (
        "state_quasilinear",
        "solve_quasilinear",
        "state_quasilinear.solve_quasilinear",
        _iterations,
    ),
    ("young_measure", "realize_sequence", "young_measure.realize_sequence", None),
    ("control_opt", "optimize_control", "control_opt.optimize_control", _optimizer_steps),
    ("control_opt", "evaluate_cost", "control_opt.evaluate_cost", None),
    ("control_opt", "minimizing_sequence_demo", "control_opt.minimizing_sequence_demo", None),
    ("relaxed_opt", "optimize_relaxed", "relaxed_opt.optimize_relaxed", _iterations),
    ("relaxed_opt", "solve_mv_state", "relaxed_opt.solve_mv_state", None),
    ("relaxed_opt", "certify_gap", "relaxed_opt.certify_gap", None),
    ("cli", "run", "cli.run", None),
)

STATE_SOLVES = (
    "state_variational.solve_state",
    "state_monotone.solve_monotone",
    "state_quasilinear.solve_quasilinear",
)


class Tracer:
    """Records nested spans of wrapped calls; single-threaded use only.

    While ``enabled`` is false the wrappers call straight through, so the
    benchmark's own output checks leave no spans.
    """

    def __init__(self):
        self.spans: list = []
        self.task = None
        self.enabled = True
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, reader=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                    self.task, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if reader is not None:
                span[INFO] = reader(result)
            return result

        return traced

    def _replace_everywhere(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qlcontrol" or modname.startswith("qlcontrol.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every target in every qlcontrol namespace that binds it."""
        import qlcontrol  # noqa: F401  (loads every submodule)
        from qlcontrol import young_measure

        for modname, attr, name, reader in TARGETS:
            original = getattr(sys.modules[f"qlcontrol.{modname}"], attr)
            self._replace_everywhere(original, self.wrap(name, original, reader))
        cls = young_measure.YoungMeasureField
        original = cls.__post_init__
        self._patches.append((cls, "__post_init__", original))
        cls.__post_init__ = self.wrap("young_measure.field", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "task": s[TASK], "info": s[INFO]}) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another on a single thread, so their
    intervals are disjoint and their durations add up.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans):
    """Per-name calls, self time and iterations, plus counts of spans of each
    name found under an ancestor of each other name."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    info = defaultdict(lambda: defaultdict(int))
    under = defaultdict(int)
    for s, st in zip(spans, self_times(spans)):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
        for key, value in (s[INFO] or {}).items():
            info[s[NAME]][key] += value
        seen = set()
        p = s[PARENT]
        while p >= 0:
            anc = spans[p][NAME]
            if anc not in seen:
                seen.add(anc)
                under[(anc, s[NAME])] += 1
            p = spans[p][PARENT]
    return calls, self_s, info, under


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, factorizations: int, bytes_written: int) -> dict:
    """Per-layer metrics of BENCHMARK.json from one traced pass."""
    calls, self_s, info, under = summarize(spans)
    m = {}
    for name in ("grid.helmholtz_solve", "grid.gradient_potential",
                 "coefficients.checks", "young_measure.field", "cli.run"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["grid.factorizations"] = factorizations
    m["instances.build.self_s"] = self_s["instances.build"]
    for name in STATE_SOLVES + ("control_opt.optimize_control",):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.iterations"] = info[name]["iterations"]
        m[f"{name}.self_s"] = self_s[name]
    m["state_variational.helmholtz_per_iteration"] = _ratio(
        under[("state_variational.solve_state", "grid.helmholtz_solve")],
        info["state_variational.solve_state"]["iterations"],
    )
    m["young_measure.realize_sequence.self_s"] = self_s["young_measure.realize_sequence"]
    opt = "control_opt.optimize_control"
    m["control_opt.evaluate_cost.calls"] = calls["control_opt.evaluate_cost"]
    m["control_opt.state_solves_per_iteration"] = _ratio(
        sum(under[(opt, s)] for s in STATE_SOLVES), info[opt]["iterations"]
    )
    m["control_opt.accepted_steps_ratio"] = _ratio(
        info[opt]["accepted"], info[opt]["iterations"]
    )
    m["control_opt.minimizing_sequence_demo.self_s"] = self_s[
        "control_opt.minimizing_sequence_demo"
    ]
    rel = "relaxed_opt.optimize_relaxed"
    m[f"{rel}.calls"] = calls[rel]
    m[f"{rel}.outer_iterations"] = info[rel]["iterations"]
    m[f"{rel}.self_s"] = self_s[rel]
    m[f"{rel}.helmholtz_solves"] = under[(rel, "grid.helmholtz_solve")]
    m["relaxed_opt.solve_mv_state.calls"] = calls["relaxed_opt.solve_mv_state"]
    m["relaxed_opt.certify_gap.self_s"] = self_s["relaxed_opt.certify_gap"]
    m["cli.bytes_written"] = bytes_written
    return m
