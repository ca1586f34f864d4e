"""Batch experiment runner.

Experiments are configured by flat INI-style files (sections of key = value
pairs), run deterministically under a fixed seed, and emit a structured
``report.json``, CSV field/measure dumps and a human-readable
``summary.txt``.  Exit codes: 0 success, 1 usage/config error, 2 a FAILED
certificate.  Both report files are strict JSON (RFC 8259): a number that
is not finite, such as the stationarity of an optimizer that took no step,
is written as null.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import coefficients as co
from . import grid
from . import instances
from .control_opt import (
    REGIMES,
    OptimizeOptions,
    _source_kw,
    minimizing_sequence_demo,
    optimize_control,
    state_solvers,
)
from .grid import ScalarField, field_to_csv
from .relaxed_opt import CLASSICAL_MAX_ITERATIONS, certify_gap
from .reports import NonConvergenceError
from .young_measure import young_measure_to_csv


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Parsed experiment description.

    Every config key, its attribute, parser and accepted values are listed
    once, in ``_KEYS``; ``[coefficients]`` keys keep their config names in
    ``coefficients``.
    """

    kind: str
    seed: int = 0
    instance: Optional[str] = None
    b_override: Optional[float] = None
    dimension: Optional[int] = None
    cells_per_axis: Optional[int] = None
    control: str = "one"
    js: tuple = (2, 4, 8, 16, 32)
    state_tol: Optional[float] = None
    max_iterations: Optional[int] = None
    gradient_tol: Optional[float] = None
    samples: int = 4
    coefficients: dict = field(default_factory=dict)
    output_dir: Optional[str] = None

    @classmethod
    def parse(cls, text: str, overrides=()) -> "ExperimentConfig":
        """Parse config text after applying ``section.key=value`` overrides."""
        cp = configparser.ConfigParser(interpolation=None)  # a % is literal
        cp.optionxform = str  # keep key case
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        for ov in overrides:
            key, eq, value = ov.partition("=")
            section, dot, name = key.partition(".")
            if not (eq and dot):
                raise ConfigError(f"override must be section.key=value, got {ov!r}")
            section = section.strip()
            if not cp.has_section(section):
                cp.add_section(section)
            cp[section][name.strip()] = value.strip()
        values: dict = {"coefficients": {}}
        for section in cp.sections():
            if not any(s == section for s, _ in _KEYS):
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in cp[section].items():
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                attr, read, accepted = _KEYS[section, key]
                try:
                    value = read(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"[{section}] {key} must be {_READS[read]}, got {raw!r}") from exc
                if value is not None and accepted is not None and not accepted[0](value):
                    raise ConfigError(f"[{section}] {key} must be {accepted[1]}, got {raw!r}")
                if attr == "coefficients":
                    values[attr][key] = value
                else:
                    values[attr] = value
        if "kind" not in values:
            raise ConfigError("config needs [experiment] kind = ...")
        return cls(**values)

    def mesh(self):
        if self.instance:
            default = instances.default_mesh(self.instance)
        else:
            default = grid.build_mesh(1, 32)
        return grid.build_mesh(
            self.dimension or default.dimension, self.cells_per_axis or default.cells_per_axis
        )


# control presets: nodal values from the node coordinates
_CONTROLS = {
    "zero": lambda x: np.zeros(len(x)),
    "one": lambda x: np.ones(len(x)),
    "sin": lambda x: np.prod(np.sin(np.pi * x), axis=1),
}


def _control_field(mesh, preset: str) -> ScalarField:
    return ScalarField(mesh, _CONTROLS[preset](mesh.node_coords()))


# [coefficients] names: the flux builds the coefficient set and the a term
# merges into it, each from the numeric keys
_FLUXES = {
    "identity": lambda c: co.make_perturbed_linear(1.0),
    "perturbed-linear": lambda c: co.make_perturbed_linear(
        c["a0"], co.sin_perturbation(c["lipschitz_g"]), c["lipschitz_g"]
    ),
}
_A_TERMS = {
    "sin": lambda c: co.a_sin_gradient(c["kappa"]),
    "clamped-linear": lambda c: co.a_clamped_linear(c["kappa"]),
    "cosine-wells": lambda c: co.a_cosine_wells(c["kappa"], c["omega"]),
    "zero": lambda c: co.a_zero(),
}
# the numeric [coefficients] keys and their defaults
_COEFFICIENT_NUMBERS = {"a0": 1.0, "lipschitz_g": 0.5, "kappa": 1.0, "omega": 5.0}


def _coefficients_from_config(conf: dict) -> co.CoefficientSet:
    c = {**_COEFFICIENT_NUMBERS, **conf}
    cs = _FLUXES[c.get("flux", "identity")](c)
    if "a" in c:
        cs = cs.merged(**_A_TERMS[c["a"]](c))
    return cs


# -- experiment kinds: build and check the problem before anything is
# written, then run it into the output directory


def _instance(cfg: ExperimentConfig, build):
    """build(name, mesh, b=...) on the configured instance."""
    if not cfg.instance:
        raise ConfigError(f"experiment kind {cfg.kind!r} needs [instance] name")
    return build(cfg.instance, cfg.mesh(), b=cfg.b_override)


def _build_state(cfg: ExperimentConfig):
    state = _instance(cfg, instances.build_state_problem)
    return state, _control_field(state.mesh, cfg.control)


def _run_state(cfg: ExperimentConfig, out_dir: Path, results, timings, state, u):
    # the single solve keeps its own defaults (tolerance, iteration cap)
    solve = state_solvers(REGIMES[type(state)])[0]
    kw = {} if cfg.state_tol is None else {"tol": cfg.state_tol}
    t0 = time.perf_counter()
    y, rep = solve(state, u, **kw, **_source_kw(state, u.values))
    timings["state_solve"] = time.perf_counter() - t0
    results["state"] = rep.to_dict()
    field_to_csv(y, out_dir / "state.csv")
    field_to_csv(u, out_dir / "control.csv")
    return 0


def _build_control(cfg: ExperimentConfig):
    cp = _instance(cfg, instances.build_control_problem)
    return cp, _control_field(cp.mesh, cfg.control)


def _optimize_options(cfg: ExperimentConfig, max_iterations: int) -> OptimizeOptions:
    """OptimizeOptions from the [solver] keys the config sets, over the
    kind's own cap max_iterations and OptimizeOptions' other defaults."""
    keys = {"max_iterations": cfg.max_iterations, "gradient_tol": cfg.gradient_tol,
            "state_tol": cfg.state_tol}
    return OptimizeOptions(**{"max_iterations": max_iterations,
                              **{k: v for k, v in keys.items() if v is not None}})


def _run_control(cfg: ExperimentConfig, out_dir: Path, results, timings, cp, u0):
    t0 = time.perf_counter()
    u_opt, rep = optimize_control(cp, u0, _optimize_options(cfg, 60))
    timings["optimize_control"] = time.perf_counter() - t0
    results["control"] = rep.to_dict()
    field_to_csv(u_opt, out_dir / "control.csv")
    return 0


def _build_relax(cfg: ExperimentConfig):
    rp, designed = _instance(cfg, instances.build_relaxed_problem)
    if cfg.kind == "gap-demo" and rp.control.demo_measure is None:
        raise ConfigError(
            f"instance {cfg.instance!r} prescribes no oscillation measure for gap-demo"
        )
    return rp, designed


def _run_relax(cfg: ExperimentConfig, out_dir: Path, results, timings, rp, designed):
    t0 = time.perf_counter()
    report = certify_gap(
        rp,
        samples=cfg.samples,
        seed=cfg.seed,
        designed_init=designed,
        classical_opts=_optimize_options(cfg, CLASSICAL_MAX_ITERATIONS),
    )
    timings["certify_gap"] = time.perf_counter() - t0
    relaxation = results["relaxation"] = report.to_dict()
    if designed is not None:
        delta = instances.designed_margin(rp, designed)
        relaxation["delta_star"] = delta
        relaxation["gap_exceeds_margin"] = bool(
            report.relaxed <= report.best_classical - delta + 1e-3
        )
    if cfg.kind == "gap-demo":
        t0 = time.perf_counter()
        costs = minimizing_sequence_demo(rp.control, cfg.js)
        timings["minimizing_sequence_demo"] = time.perf_counter() - t0
        results["demo_trace"] = {
            "j": list(cfg.js),
            "costs": [float(c) for c in costs],
        }
    mu, nu, y = report.minimizer
    young_measure_to_csv(nu, out_dir / "state_measure.csv")
    young_measure_to_csv(mu, out_dir / "control_measure.csv")
    field_to_csv(y, out_dir / "relaxed_state.csv")
    return 2 if report.failed else 0


def _build_verify(cfg: ExperimentConfig):
    if cfg.coefficients:
        cs = _coefficients_from_config(cfg.coefficients)
    else:
        cs = _instance(cfg, instances.build_state_problem).cs
    checks = []
    if cs.A is not None and cs.c is not None:
        checks.append(co.check_monotonicity)
    if (cs.A is not None or cs.a is not None) and cs.c is not None and cs.C is not None:
        checks.append(co.check_growth)
    if cs.W is not None and cs.c is not None and cs.C is not None:
        checks.append(co.check_w_growth)
    if not checks:
        raise ConfigError("nothing to verify for this coefficient set")
    return cs, checks


def _run_verify(cfg: ExperimentConfig, out_dir: Path, results, timings, cs, checks):
    t0 = time.perf_counter()
    reports = [check(cs, seed=cfg.seed) for check in checks]
    timings["hypothesis_checks"] = time.perf_counter() - t0
    results["hypotheses"] = [
        {
            "hypothesis": c.hypothesis,
            "samples": c.samples,
            "worst_margin": c.worst_margin,
            "passed": c.passed,
        }
        for c in reports
    ]
    return 0 if all(c.passed for c in reports) else 2


# experiment kind -> (build, run): build returns the problem that run takes
# after the output directory exists
_KINDS = {
    "state": (_build_state, _run_state),
    "control": (_build_control, _run_control),
    "relax": (_build_relax, _run_relax),
    "gap-demo": (_build_relax, _run_relax),
    "verify-hypotheses": (_build_verify, _run_verify),
}


def _name(text: str) -> Optional[str]:
    return text or None


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.replace(",", " ").split())


# accepted values of a key: (check, description) or None for anything
def _one_of(names) -> tuple:
    return (lambda v: v in names, "one of " + ", ".join(map(str, names)))


def _at_least(low) -> tuple:
    return (lambda v: v >= low, f">= {low}")


# what each parser that can fail reads, for its error message
_READS = {int: "an integer", float: "a number", _ints: "a list of integers"}
# (section, key) -> (ExperimentConfig attribute, parser, accepted values)
_KEYS = {
    ("experiment", "kind"): ("kind", str, _one_of(_KINDS)),
    ("experiment", "seed"): ("seed", int, _at_least(0)),
    ("experiment", "control"): ("control", str, _one_of(_CONTROLS)),
    ("experiment", "js"): ("js", _ints, (lambda v: len(v) > 0 and min(v) >= 1,
                                         "a non-empty list of integers >= 1")),
    ("instance", "name"): ("instance", _name, _one_of(instances.instance_names())),
    ("instance", "b"): ("b_override", float, None),
    ("mesh", "dimension"): ("dimension", int, _one_of((1, 2))),
    ("mesh", "cells_per_axis"): ("cells_per_axis", int, _at_least(2)),
    # a tolerance of inf would stop a run at once and report it converged
    ("solver", "state_tol"): ("state_tol", float,
                              (lambda v: 0 < v < np.inf, "finite and > 0")),
    ("solver", "max_iterations"): ("max_iterations", int, _at_least(0)),
    ("solver", "gradient_tol"): ("gradient_tol", float,
                                 (lambda v: 0 <= v < np.inf, "finite and >= 0")),
    ("solver", "samples"): ("samples", int, _at_least(0)),
    ("coefficients", "flux"): ("coefficients", str, _one_of(_FLUXES)),
    ("coefficients", "a"): ("coefficients", str, _one_of(_A_TERMS)),
    **{("coefficients", k): ("coefficients", float, (np.isfinite, "finite"))
       for k in _COEFFICIENT_NUMBERS},
    ("output", "directory"): ("output_dir", _name, None),
}


def run(
    config_path,
    seed: Optional[int] = None,
    out: Optional[str] = None,
    overrides=(),
) -> int:
    """Execute one experiment config; returns the process exit code."""
    path = Path(config_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
        return 1
    if seed is not None:  # checked as [experiment] seed
        overrides = [*overrides, f"experiment.seed={seed}"]
    try:
        cfg = ExperimentConfig.parse(text, overrides)
        build, execute = _KINDS[cfg.kind]
        problem = build(cfg)
        out_dir = Path(out or cfg.output_dir or "qlcontrol-out")
        out_dir.mkdir(parents=True, exist_ok=True)
        results: dict = {}
        timings: dict = {}
        code = execute(cfg, out_dir, results, timings, *problem)
        _write_report(out_dir, cfg, results, code, timings)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 1
    return code


def _write_report(out_dir: Path, cfg: ExperimentConfig, results, code: int, timings) -> None:
    report = {
        "schema": "qlcontrol-report-v1",
        "experiment": {
            "kind": cfg.kind,
            "seed": cfg.seed,
            "instance": cfg.instance,
            "control": cfg.control,
            "mesh": {
                "dimension": cfg.mesh().dimension,
                "cells_per_axis": cfg.mesh().cells_per_axis,
            },
        },
        "results": results,
        "exit_code": code,
        "timings": timings,
    }
    (out_dir / "report.json").write_text(
        _strict_json(report, indent=2) + "\n", encoding="utf-8"
    )
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"kind: {cfg.kind}\nseed: {cfg.seed}\n")
        fh.write(f"instance: {cfg.instance}\nexit: {code}\n")
        for key, val in sorted(results.items()):
            fh.write(f"{key}: {_strict_json(val)}\n")


def _strict_json(value, **kw) -> str:
    """RFC 8259 JSON of value: a number that is not finite, which JSON
    cannot hold, is written as null.  A finite float survives the round
    trip exactly."""
    value = json.loads(json.dumps(value), parse_constant=lambda _: None)
    return json.dumps(value, sort_keys=True, allow_nan=False, **kw)


def list_builtin(pattern: str = "") -> str:
    """Text table of the built-in instances and their constants."""
    rows = instances.catalog()
    lines = []
    header = f"{'name':<24} {'kind':<8} {'regime':<12} constants"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        if pattern and pattern not in row["name"]:
            continue
        consts = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row["constants"].items()
        )
        lines.append(f"{row['name']:<24} {row['kind']:<8} {row['regime']:<12} {consts}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlcontrol",
        description="Steady quasilinear PDE optimal control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the INI experiment config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    p_list = sub.add_parser("list", help="list built-in instances")
    p_list.add_argument("pattern", nargs="?", default="")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_builtin(args.pattern))
        return 0
    return run(args.config, seed=args.seed, out=args.out, overrides=args.override)


if __name__ == "__main__":
    sys.exit(main())
