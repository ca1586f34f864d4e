"""Batch experiment runner.

Experiments are configured by flat INI-style files (sections of key = value
pairs), run deterministically under a fixed seed, and emit a structured
``report.json``, CSV field/measure dumps and a human-readable
``summary.txt``.  Exit codes: 0 success, 1 usage/config error, 2 a FAILED
certificate.
"""

from __future__ import annotations

import argparse
import configparser
import io
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
    OptimizeOptions,
    minimizing_sequence_demo,
    optimize_control,
)
from .grid import ScalarField, field_to_csv
from .relaxed_opt import certify_gap
from .reports import NonConvergenceError
from .state_monotone import solve_monotone
from .state_quasilinear import solve_quasilinear
from .state_variational import solve_state
from .young_measure import young_measure_to_csv

SCHEMA = {
    "experiment": {"kind", "seed", "control", "js"},
    "instance": {"name", "b"},
    "mesh": {"dimension", "cells_per_axis"},
    "solver": {"state_tol", "max_iterations", "gradient_tol", "samples"},
    "coefficients": {"flux", "a0", "lipschitz_g", "a", "kappa", "omega", "f"},
    "output": {"directory"},
}
KINDS = ("state", "control", "relax", "gap-demo", "verify-hypotheses")
_CONTROL_PRESETS = ("zero", "one", "sin")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Parsed experiment description; serializes back to canonical text."""

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
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keep key case
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        for section in cp.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key in cp[section]:
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        if "experiment" not in cp or "kind" not in cp["experiment"]:
            raise ConfigError("config needs [experiment] kind = ...")
        kind = cp["experiment"]["kind"].strip()
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; choose {KINDS}")
        cfg = cls(kind=kind)
        exp = cp["experiment"]
        cfg.seed = exp.getint("seed", 0)
        cfg.control = exp.get("control", "one").strip()
        if cfg.control not in _CONTROL_PRESETS:
            raise ConfigError(f"unknown control preset {cfg.control!r}")
        if "js" in exp:
            cfg.js = tuple(int(t) for t in exp["js"].replace(",", " ").split())
            if any(j < 1 for j in cfg.js):
                raise ConfigError(f"js must list positive integers, got {exp['js']!r}")
        if "instance" in cp:
            cfg.instance = cp["instance"].get("name", "").strip() or None
            if "b" in cp["instance"]:
                cfg.b_override = cp["instance"].getfloat("b")
        if "mesh" in cp:
            if "dimension" in cp["mesh"]:
                cfg.dimension = cp["mesh"].getint("dimension")
            if "cells_per_axis" in cp["mesh"]:
                cfg.cells_per_axis = cp["mesh"].getint("cells_per_axis")
        if "solver" in cp:
            sv = cp["solver"]
            if "state_tol" in sv:
                cfg.state_tol = sv.getfloat("state_tol")
                if not cfg.state_tol > 0.0:
                    raise ConfigError(f"state_tol must be positive, got {sv['state_tol']!r}")
            if "max_iterations" in sv:
                cfg.max_iterations = sv.getint("max_iterations")
            if "gradient_tol" in sv:
                cfg.gradient_tol = sv.getfloat("gradient_tol")
            if "samples" in sv:
                cfg.samples = sv.getint("samples")
                if cfg.samples < 0:
                    raise ConfigError(f"samples must be non-negative, got {sv['samples']!r}")
        if "coefficients" in cp:
            cfg.coefficients = dict(cp["coefficients"])
        if "output" in cp:
            cfg.output_dir = cp["output"].get("directory", "").strip() or None
        return cfg

    def to_text(self) -> str:
        out = io.StringIO()
        out.write("[experiment]\n")
        out.write(f"kind = {self.kind}\n")
        out.write(f"seed = {self.seed}\n")
        out.write(f"control = {self.control}\n")
        out.write(f"js = {', '.join(str(j) for j in self.js)}\n")
        if self.instance or self.b_override is not None:
            out.write("\n[instance]\n")
            if self.instance:
                out.write(f"name = {self.instance}\n")
            if self.b_override is not None:
                out.write(f"b = {self.b_override!r}\n")
        if self.dimension is not None or self.cells_per_axis is not None:
            out.write("\n[mesh]\n")
            if self.dimension is not None:
                out.write(f"dimension = {self.dimension}\n")
            if self.cells_per_axis is not None:
                out.write(f"cells_per_axis = {self.cells_per_axis}\n")
        solver_bits = {
            "state_tol": self.state_tol,
            "max_iterations": self.max_iterations,
            "gradient_tol": self.gradient_tol,
        }
        if any(v is not None for v in solver_bits.values()) or self.samples != 4:
            out.write("\n[solver]\n")
            for k, v in solver_bits.items():
                if v is not None:
                    out.write(f"{k} = {v!r}\n")
            if self.samples != 4:
                out.write(f"samples = {self.samples}\n")
        if self.coefficients:
            out.write("\n[coefficients]\n")
            for k in sorted(self.coefficients):
                out.write(f"{k} = {self.coefficients[k]}\n")
        if self.output_dir:
            out.write("\n[output]\n")
            out.write(f"directory = {self.output_dir}\n")
        return out.getvalue()

    def mesh(self):
        if self.instance and self.dimension is None and self.cells_per_axis is None:
            return instances.default_mesh(self.instance)
        if self.instance:
            default = instances.default_mesh(self.instance)
            dim = self.dimension or default.dimension
            cells = self.cells_per_axis or default.cells_per_axis
            return grid.build_mesh(dim, cells)
        return grid.build_mesh(self.dimension or 1, self.cells_per_axis or 32)


def _apply_overrides(cfg_text: str, overrides) -> str:
    """Apply --override section.key=value pairs to the raw config text."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(cfg_text)
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value, got {ov!r}")
        key, value = ov.split("=", 1)
        section, name = key.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section.strip()][name.strip()] = value.strip()
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def _control_field(mesh, preset: str) -> ScalarField:
    x = mesh.node_coords()
    if preset == "zero":
        vals = np.zeros(mesh.n_nodes)
    elif preset == "one":
        vals = np.ones(mesh.n_nodes)
    else:
        vals = np.sin(np.pi * x[:, 0])
        if mesh.dimension == 2:
            vals = vals * np.sin(np.pi * x[:, 1])
    return ScalarField(mesh, vals)


def _require_instance(cfg: ExperimentConfig) -> str:
    if not cfg.instance:
        raise ConfigError(f"experiment kind {cfg.kind!r} needs [instance] name")
    if cfg.instance not in instances.instance_names():
        raise ConfigError(f"unknown instance {cfg.instance!r}; try `qlcontrol list`")
    return cfg.instance


def _build_state(cfg: ExperimentConfig):
    name = _require_instance(cfg)
    mesh = cfg.mesh()
    state = instances.build_state_problem(name, mesh, b=cfg.b_override)
    return state, mesh


def _run_state(cfg: ExperimentConfig, out_dir: Path, results, timings):
    state, mesh = _build_state(cfg)
    u = _control_field(mesh, cfg.control)
    kw = {} if cfg.state_tol is None else {"tol": cfg.state_tol}
    t0 = time.perf_counter()
    if hasattr(state, "b"):
        y, rep = solve_quasilinear(state, u, **kw)
    elif hasattr(state, "source"):
        y, rep = solve_state(state, u, **kw)
    else:
        y, rep = solve_monotone(state, u, **kw)
    timings["state_solve"] = time.perf_counter() - t0
    rep_d = rep.to_dict()
    rep_d.pop("wall_time", None)
    results["state"] = rep_d
    field_to_csv(y, out_dir / "state.csv")
    field_to_csv(u, out_dir / "control.csv")
    return 0


def _run_control(cfg: ExperimentConfig, out_dir: Path, results, timings):
    name = _require_instance(cfg)
    cp = instances.build_control_problem(name, cfg.mesh(), b=cfg.b_override)
    u0 = _control_field(cp.mesh, cfg.control)
    opts = OptimizeOptions(
        max_iterations=60 if cfg.max_iterations is None else cfg.max_iterations,
        gradient_tol=1e-6 if cfg.gradient_tol is None else cfg.gradient_tol,
        state_tol=cfg.state_tol,
    )
    t0 = time.perf_counter()
    u_opt, rep = optimize_control(cp, u0, opts)
    timings["optimize_control"] = time.perf_counter() - t0
    rep_d = rep.to_dict()
    rep_d.pop("wall_time", None)
    results["control"] = rep_d
    field_to_csv(u_opt, out_dir / "control.csv")
    return 0


def _run_relax(cfg: ExperimentConfig, out_dir: Path, results, timings, want_demo):
    name = _require_instance(cfg)
    rp, designed = instances.build_relaxed_problem(name, cfg.mesh(), b=cfg.b_override)
    t0 = time.perf_counter()
    report = certify_gap(
        rp,
        samples=cfg.samples,
        seed=cfg.seed,
        designed_init=designed,
        classical_opts=OptimizeOptions(
            max_iterations=12 if cfg.max_iterations is None else cfg.max_iterations
        ),
    )
    timings["certify_gap"] = time.perf_counter() - t0
    rep_d = report.to_dict()
    results["relaxation"] = rep_d
    if name == "gap-family-1d":
        delta = instances.gap_margin(rp.mesh)
        results["relaxation"]["delta_star"] = delta
        results["relaxation"]["gap_exceeds_margin"] = bool(
            report.relaxed <= report.best_classical - delta + 1e-3
        )
    if want_demo:
        t0 = time.perf_counter()
        costs = minimizing_sequence_demo(rp.control, cfg.js)
        timings["minimizing_sequence_demo"] = time.perf_counter() - t0
        results["demo_trace"] = {
            "j": [int(j) for j in cfg.js],
            "costs": [float(c) for c in costs],
        }
    mu, nu, y = report.minimizer
    young_measure_to_csv(nu, out_dir / "state_measure.csv")
    young_measure_to_csv(mu, out_dir / "control_measure.csv")
    field_to_csv(y, out_dir / "relaxed_state.csv")
    return 2 if report.failed else 0


def _run_verify(cfg: ExperimentConfig, out_dir: Path, results, timings):
    if cfg.coefficients:
        cs = _coefficients_from_config(cfg.coefficients)
    else:
        name = _require_instance(cfg)
        cs = instances.build_state_problem(name, cfg.mesh()).cs
    checks = []
    t0 = time.perf_counter()
    if cs.A is not None and cs.c is not None:
        checks.append(co.check_monotonicity(cs, seed=cfg.seed))
    if (cs.A is not None or cs.a is not None) and cs.c is not None and cs.C is not None:
        checks.append(co.check_growth(cs, seed=cfg.seed))
    if cs.W is not None and cs.c is not None and cs.C is not None:
        checks.append(co.check_w_growth(cs, seed=cfg.seed))
    timings["hypothesis_checks"] = time.perf_counter() - t0
    if not checks:
        raise ConfigError("nothing to verify for this coefficient set")
    results["hypotheses"] = [
        {
            "hypothesis": c.hypothesis,
            "samples": c.samples,
            "worst_margin": c.worst_margin,
            "passed": c.passed,
        }
        for c in checks
    ]
    return 0 if all(c.passed for c in checks) else 2


def _coefficients_from_config(conf: dict) -> co.CoefficientSet:
    flux = conf.get("flux", "identity")
    if flux == "identity":
        cs = co.identity_flux()
    elif flux == "perturbed-linear":
        a0 = float(conf.get("a0", 1.0))
        lg = float(conf.get("lipschitz_g", 0.5))
        cs = co.make_perturbed_linear(a0, co.sin_perturbation(lg), lg)
    else:
        raise ConfigError(f"unknown flux {flux!r}")
    a_name = conf.get("a")
    if a_name:
        kappa = float(conf.get("kappa", 1.0))
        omega = float(conf.get("omega", 5.0))
        if a_name == "sin":
            cs = cs.merged(**co.a_sin_gradient(kappa))
        elif a_name == "clamped-linear":
            cs = cs.merged(**co.a_clamped_linear(kappa))
        elif a_name == "cosine-wells":
            cs = cs.merged(**co.a_cosine_wells(kappa, omega))
        elif a_name == "zero":
            cs = cs.merged(**co.a_zero())
        else:
            raise ConfigError(f"unknown a term {a_name!r}")
    f_name = conf.get("f")
    if f_name:
        table = {"linear": co.f_linear, "tanh": co.f_tanh, "clamp": co.f_clamp,
                 "zero": co.f_zero}
        if f_name not in table:
            raise ConfigError(f"unknown f map {f_name!r}")
        cs = cs.merged(**table[f_name]())
    return cs


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
    try:
        if overrides:
            text = _apply_overrides(text, overrides)
        cfg = ExperimentConfig.parse(text)
        if seed is not None:
            cfg.seed = seed
        out_dir = Path(out or cfg.output_dir or "qlcontrol-out")
        out_dir.mkdir(parents=True, exist_ok=True)

        results: dict = {}
        timings: dict = {}
        if cfg.kind == "state":
            code = _run_state(cfg, out_dir, results, timings)
        elif cfg.kind == "control":
            code = _run_control(cfg, out_dir, results, timings)
        elif cfg.kind == "relax":
            code = _run_relax(cfg, out_dir, results, timings, want_demo=False)
        elif cfg.kind == "gap-demo":
            code = _run_relax(cfg, out_dir, results, timings, want_demo=True)
        else:
            code = _run_verify(cfg, out_dir, results, timings)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 1

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
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"kind: {cfg.kind}\nseed: {cfg.seed}\n")
        fh.write(f"instance: {cfg.instance}\nexit: {code}\n")
        for key, val in sorted(results.items()):
            fh.write(f"{key}: {json.dumps(val, sort_keys=True)}\n")
    return code


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
