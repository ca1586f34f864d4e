"""Experiment runner: config parsing, runs, exit codes, determinism."""

import configparser
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import qlcontrol
from qlcontrol import cli, control_opt, grid, instances, relaxed_opt, young_measure
from qlcontrol.cli import ConfigError, ExperimentConfig, list_builtin, main, run
from qlcontrol.control_opt import _state_costs, minimizing_sequence_demo


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


VERIFY_INI = """\
[experiment]
kind = verify-hypotheses
seed = 0

[coefficients]
flux = identity
"""

GAP_INI = """\
[experiment]
kind = gap-demo
seed = 0
js = 2, 4, 8

[instance]
name = gap-family-1d

[mesh]
dimension = 1
cells_per_axis = 32
"""


RELAX_INI = """\
[experiment]
kind = relax
seed = 0

[instance]
name = linear-quasilinear-1d

[mesh]
dimension = 1
cells_per_axis = 16

[solver]
samples = 2
"""

# sets every key of the config schema to a value other than its default
EVERY_KEY_INI = """\
[experiment]
kind = verify-hypotheses
seed = 3
control = sin
js = 1, 3

[instance]
name = sin-gradient-1d
b = 2.5

[mesh]
dimension = 1
cells_per_axis = 16

[solver]
state_tol = 1e-10
max_iterations = 7
gradient_tol = 0.0
samples = 2

[coefficients]
flux = perturbed-linear
a0 = 1.5
lipschitz_g = 0.25
a = cosine-wells
kappa = 0.3
omega = 4.0

[output]
directory = somewhere
"""


def config_keys(text):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(text)
    return {(section, key) for section in cp.sections() for key in cp[section]}


def strict_loads(text):
    """json.loads that rejects Infinity and NaN, as RFC 8259 parsers do."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def readme_ini():
    """The INI block of README.md's CLI example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


class TestConfigParsing:
    def test_every_key_parses_to_its_field(self):
        assert ExperimentConfig.parse(EVERY_KEY_INI) == ExperimentConfig(
            kind="verify-hypotheses",
            seed=3,
            instance="sin-gradient-1d",
            b_override=2.5,
            dimension=1,
            cells_per_axis=16,
            control="sin",
            js=(1, 3),
            state_tol=1e-10,
            max_iterations=7,
            gradient_tol=0.0,
            samples=2,
            coefficients={"flux": "perturbed-linear", "a0": 1.5, "lipschitz_g": 0.25,
                          "a": "cosine-wells", "kappa": 0.3, "omega": 4.0},
            output_dir="somewhere",
        )

    def test_every_key_config_covers_the_schema(self):
        # every key of EVERY_KEY_INI differs from its default, so the parse
        # test above checks each key's parser and attribute
        assert config_keys(EVERY_KEY_INI) == set(cli._KEYS)

    def test_override_adds_a_section(self):
        assert "[solver]" not in GAP_INI
        cfg = ExperimentConfig.parse(GAP_INI, ["solver.samples=2", " instance.b = 3 "])
        assert cfg.samples == 2
        assert cfg.b_override == 3.0
        assert cfg.js == (2, 4, 8)

    @pytest.mark.parametrize("override", ["instance.b3", "b=3"])
    def test_malformed_override_rejected(self, tmp_path, capsys, override):
        code = run(write(tmp_path, GAP_INI), out=str(tmp_path / "out"), overrides=[override])
        assert code == 1
        assert "section.key=value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_example_parses_and_runs(self, tmp_path):
        cfg = ExperimentConfig.parse(readme_ini())
        assert (cfg.kind, cfg.instance, cfg.js) == ("gap-demo", "gap-family-1d", (2, 4, 8, 16, 32))
        assert run(write(tmp_path, readme_ini()), out=str(tmp_path / "out")) == 0

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[experiment]\nkind = state\n\n[bogus]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[experiment]\nkind = state\nbogus = 1\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[experiment]\nkind = fly\n")

    @pytest.mark.parametrize("js", ["2, 0", "-4", "4, 16, -1", ""])
    def test_non_positive_js_rejected(self, tmp_path, js):
        text = GAP_INI.replace("js = 2, 4, 8", f"js = {js}")
        with pytest.raises(ConfigError, match=r"^\[experiment\] js "):
            ExperimentConfig.parse(text)
        # rejected before any solve and before the output directory exists
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, name",
        [("state_tol = 0", "state_tol"), ("state_tol = -1", "state_tol"),
         ("samples = -3", "samples"), ("max_iterations = -1", "max_iterations"),
         ("gradient_tol = -1", "gradient_tol"), ("state_tol = inf", "state_tol"),
         ("gradient_tol = inf", "gradient_tol")],
        ids=["state_tol=0", "state_tol=-1", "samples=-3", "max_iterations=-1",
             "gradient_tol=-1", "state_tol=inf", "gradient_tol=inf"],
    )
    def test_bad_solver_setting_rejected(self, tmp_path, setting, name):
        text = GAP_INI + f"\n[solver]\n{setting}\n"
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.parse(text)
        # rejected before any solve and before the output directory exists
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["a0", "lipschitz_g", "kappa", "omega"])
    def test_non_finite_coefficient_rejected(self, tmp_path, capsys, key, value):
        # these numbers were parsed with no check: kappa = nan ran and passed
        # the growth check, kappa = inf wrote "worst_margin": -Infinity
        text = VERIFY_INI + f"a = sin\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"^\[coefficients\] {key} must be finite, "):
            ExperimentConfig.parse(text)
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert f"[coefficients] {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new", [("dimension = 1", "dimension = 3"),
                     ("cells_per_axis = 32", "cells_per_axis = 0")],
        ids=["dimension=3", "cells_per_axis=0"],
    )
    def test_mesh_out_of_range_rejected(self, tmp_path, old, new):
        # a 0 cells_per_axis used to fall back to the instance's mesh
        text = GAP_INI.replace(old, new)
        with pytest.raises(ConfigError, match=new.split()[0] + " must be"):
            ExperimentConfig.parse(text)
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [("seed = 0", "seed = abc", "[experiment] seed must be an integer, got 'abc'"),
         ("name = gap-family-1d", "name = gap-family-1d\nb = two",
          "[instance] b must be a number, got 'two'"),
         ("js = 2, 4, 8", "js = 2, x", "[experiment] js must be a list of integers, got '2, x'"),
         ("[mesh]", "[solver]\nstate_tol = 1e-9x\n\n[mesh]",
          "[solver] state_tol must be a number, got '1e-9x'"),
         ("cells_per_axis = 32", "cells_per_axis = 3.5",
          "[mesh] cells_per_axis must be an integer, got '3.5'")],
        ids=["seed", "b", "js", "state_tol", "cells_per_axis"],
    )
    def test_unreadable_value_names_its_section_and_key(self, tmp_path, capsys, old, new,
                                                        message):
        # the bare parser message ("invalid literal for int() with base 10:
        # 'abc'") named neither
        text = GAP_INI.replace(old, new)
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            ExperimentConfig.parse(text)
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            # the Dirac embedding of a 2D control is infeasible: no relaxation
            ("[experiment]\nkind = relax\n\n[instance]\nname = sin-gradient-2d\n\n"
             "[mesh]\ndimension = 2\ncells_per_axis = 6\n", "sin-gradient-2d"),
            # relaxable in 1D only: a 2D Dirac embedding drops u's checkerboard
            ("[experiment]\nkind = relax\n\n[instance]\nname = sin-gradient-1d\n\n"
             "[mesh]\ndimension = 2\ncells_per_axis = 6\n", "sin-gradient-1d"),
            ("[experiment]\nkind = relax\n\n[instance]\nname = linear-quasilinear-1d\n\n"
             "[mesh]\ndimension = 2\ncells_per_axis = 4\n", "linear-quasilinear-1d"),
            # relaxable, but prescribes no oscillation measure to realize
            ("[experiment]\nkind = gap-demo\n\n[instance]\nname = sin-gradient-1d\n",
             "sin-gradient-1d"),
            (VERIFY_INI.replace("flux = identity", "flux = bogus"), "flux"),
            ("[experiment]\nkind = state\n\n[instance]\nname = bogus-1d\n", "bogus-1d"),
            # only quasilinear instances have a b
            ("[experiment]\nkind = state\n\n[instance]\nname = variational-quartic-1d\n"
             "b = 3\n", "variational-quartic-1d"),
            ("[experiment]\nkind = control\n\n[instance]\nname = monotone-perturbed-1d\n"
             "b = 3\n", "monotone-perturbed-1d"),
        ],
        ids=["relax-2d", "sin-gradient-1d-on-2d-mesh", "linear-quasilinear-1d-on-2d-mesh",
             "gap-demo-without-measure", "unknown-flux", "unknown-instance",
             "b-on-variational", "b-on-monotone"],
    )
    def test_unrunnable_experiment_rejected(self, tmp_path, capsys, monkeypatch, text,
                                            named):
        calls = []
        monkeypatch.setattr(cli, "certify_gap", lambda *a, **k: calls.append(1))
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert named in capsys.readouterr().err
        # rejected before anything runs and before the output directory exists
        assert calls == []
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, where):
        # numpy rejects a negative seed only once the run has started
        text = VERIFY_INI.replace("seed = 0", "seed = -1") if where == "config" else VERIFY_INI
        argv = ["run", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]
        if where == "flag":
            argv += ["--seed", "-5"]
        assert main(argv) == 1
        assert "[experiment] seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRuns:
    def test_verify_hypotheses_identity(self, tmp_path):
        cfg = write(tmp_path, VERIFY_INI)
        assert run(cfg, out=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(h["passed"] for h in report["results"]["hypotheses"])

    def test_gap_demo_contains_margin_entry(self, tmp_path):
        cfg = write(tmp_path, GAP_INI)
        assert run(cfg, out=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        relax = report["results"]["relaxation"]
        assert relax["gap_exceeds_margin"] is True
        assert relax["relaxed"] <= relax["best_classical"] - relax["delta_star"] + 1e-3
        trace = report["results"]["demo_trace"]["costs"]
        assert trace == sorted(trace, reverse=True)
        for name in ("report.json", "summary.txt", "state_measure.csv",
                     "control_measure.csv", "relaxed_state.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_relaxation_block_reports_the_classical_stop(self, tmp_path):
        # gap-family-1d at n = 32: both runs start at u = 1 on f's kink, where
        # no direction descends; each stops B-stationary at its first
        # iteration and the report says so, with the 31 interior nodes on
        # the kink (the classical run stopped on "linesearch" after two
        # iterations at stationarity 0.0294 before)
        assert run(write(tmp_path, GAP_INI), out=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        relaxation = report["results"]["relaxation"]
        for run_name in ("classical", "relaxed_run"):
            assert relaxation[run_name] == {"stopped": "gradient", "iterations": 1,
                                            "stationarity": 0.0, "kink_nodes": 31}
        summary = (tmp_path / "out" / "summary.txt").read_text()
        stop = '{"iterations": 1, "kink_nodes": 31, "stationarity": 0.0, "stopped": "gradient"}'
        assert f'"classical": {stop}' in summary
        assert f'"relaxed_run": {stop}' in summary

    def test_below_threshold_exit_1_names_threshold(self, tmp_path, capsys):
        cfg = write(tmp_path, GAP_INI)
        code = run(cfg, out=str(tmp_path / "out"), overrides=["instance.b=0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "L^2/4" in err and "1.0" in err

    @pytest.mark.parametrize(
        "instance",
        ["sin-gradient-1d", "monotone-perturbed-1d", "variational-quartic-1d"],
    )
    def test_state_experiment(self, tmp_path, instance):
        text = f"""\
[experiment]
kind = state
control = one

[instance]
name = {instance}
"""
        cfg = write(tmp_path, text)
        assert run(cfg, out=str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "state.csv").exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["state"]["converged"] is True

    @pytest.mark.parametrize("instance", ["variational-quartic-1d", "quadratic-variational-1d"])
    def test_variational_state_solves_with_the_control_source(self, tmp_path, instance):
        # f(u) replaces the state problem's zero source, as in the control
        # layer; with that source ignored the state was 0 for every control
        text = f"[experiment]\nkind = state\ncontrol = one\n\n[instance]\nname = {instance}\n"
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 0
        written = np.loadtxt(tmp_path / "out" / "state.csv", delimiter=",", skiprows=1)
        cp = instances.build_control_problem(instance)
        u = grid.ScalarField(cp.mesh, np.ones(cp.mesh.n_nodes))
        _, y = control_opt.evaluate_cost(cp, u, return_state=True)
        assert np.array_equal(written[:, -1], y.values)
        assert np.min(y.values) < -0.1

    @pytest.mark.parametrize("ini", ["relax", "gap-demo"])
    def test_relax_passes_solver_settings_to_the_classical_run(self, tmp_path, monkeypatch,
                                                               ini):
        seen = []
        optimize = relaxed_opt.optimize_control

        def record(cp, u0, opts=None, **kwargs):
            seen.append((cp, u0, opts, kwargs))
            return optimize(cp, u0, opts, **kwargs)

        monkeypatch.setattr(relaxed_opt, "optimize_control", record)
        text = GAP_INI if ini == "gap-demo" else RELAX_INI
        settings = ["solver.gradient_tol=1e3", "solver.state_tol=1e-10"]
        assert run(write(tmp_path, text), out=str(tmp_path / "out"), overrides=settings) == 0
        assert [(o.max_iterations, o.gradient_tol, o.state_tol) for _, _, o, _ in seen] == [
            (12, 1e3, 1e-10)
        ]
        # the run starts from the best candidate's state at that tolerance
        ((cp, u0, opts, kwargs),) = seen
        cost, y = kwargs["base"]
        want_cost, want_y = control_opt.evaluate_cost(cp, u0, state_tol=1e-10, return_state=True)
        assert cost == want_cost
        assert np.array_equal(y.values, want_y.values)

    @pytest.mark.parametrize("ini", ["relax", "gap-demo"])
    def test_relax_solves_the_candidates_at_the_configured_state_tol(self, tmp_path,
                                                                      monkeypatch, ini):
        # the candidates were costed at the default tolerance while the
        # classical run used the configured one
        tols = []
        solve = control_opt.solve_quasilinear_columns

        def record(p, U, *args, **kwargs):
            tols.append((len(U), kwargs["tol"]))
            return solve(p, U, *args, **kwargs)

        monkeypatch.setattr(control_opt, "solve_quasilinear_columns", record)
        text = GAP_INI if ini == "gap-demo" else RELAX_INI
        settings = ["solver.state_tol=1e-10"]
        assert run(write(tmp_path, text), out=str(tmp_path / "out"), overrides=settings) == 0
        # the first stack is the candidates': references, zero and samples
        assert tols[0][0] >= 3
        assert {tol for _, tol in tols} == {1e-10}

    def test_relax_experiment(self, tmp_path):
        cfg = write(tmp_path, RELAX_INI)
        assert run(cfg, out=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        relax = report["results"]["relaxation"]
        assert relax["failed"] is False
        assert relax["relaxed"] <= relax["best_classical"] + 1e-8
        assert "demo_trace" not in report["results"]

    def test_gap_demo_optimizes_relaxed_once(self, tmp_path, monkeypatch):
        calls = []
        optimize = relaxed_opt.optimize_relaxed

        def count(*args, **kwargs):
            calls.append(1)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(relaxed_opt, "optimize_relaxed", count)
        cfg = write(tmp_path, GAP_INI)
        assert run(cfg, out=str(tmp_path / "out")) == 0
        assert len(calls) == 1
        # recorded from the run that optimized the relaxed problem twice; the
        # measure CSVs since gained their potential_offset column, and the
        # state CSVs moved by at most 7e-16 when the 1D backbone became a
        # closed-form Green's function; state_measure.csv again when nu
        # became the level measure of the slack (atoms at the wells next to
        # each cell's gradient, not at +-2 pi/5; 5fae3288... before); both
        # state_measure.csv and relaxed_state.csv again when the level search
        # stopped at |a - s| <= 1e-12 instead of after 80 golden-section steps
        # (atoms moved by at most 1.5e-8 at the wells, the state by 4e-17;
        # 895024a4... and 182c7b5c... before); both again when the atoms came
        # from the level map of a: cells 15 and 16 each moved one atom from
        # the well at -+2 pi/5 to the nearer one at 0 (weights by 0.495), the
        # state by 4e-17 back to 182c7b5c... (2cb9b9d8... and e6cb1b0e...
        # before)
        digests = {
            "state_measure.csv":
                "573252ff59e75a70c365e47a7b79553b080a1dcde350f03e72109a891db8d68a",
            "control_measure.csv":
                "0f5ebf2e517ec3bb557c473745513b52d4a2863a0e99cb8faef1ed684296ca24",
            "relaxed_state.csv":
                "182c7b5c36339d73d27765d5140e8267a5cadfeb6280be1d9841d515e4c4fe72",
        }
        for name, digest in digests.items():
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "optimize_relaxed" not in report["timings"]

    def test_gap_demo_reuses_the_certified_realizations(self, tmp_path, monkeypatch):
        calls = []
        realize = control_opt.realize_sequence

        def count(ym, j, *args, **kwargs):
            calls.append(j)
            return realize(ym, j, *args, **kwargs)

        monkeypatch.setattr(control_opt, "realize_sequence", count)
        js = (2, 4, 8, 16, 32)
        text = GAP_INI.replace("js = 2, 4, 8", "js = " + ", ".join(map(str, js)))
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 0
        # certify_gap realizes nothing; the demo realizes each j once
        assert len(calls) == 5
        assert sorted(calls) == list(js)
        trace = json.loads((tmp_path / "out" / "report.json").read_text())[
            "results"]["demo_trace"]
        rp, _ = instances.build_relaxed_problem("gap-family-1d", grid.build_mesh(1, 32))
        assert trace["j"] == list(js)
        assert trace["costs"] == [float(c) for c in minimizing_sequence_demo(rp.control, js)]

    def test_gap_demo_builds_the_demo_measure_once(self, tmp_path, monkeypatch):
        # for the certified problem, whose delta* is computed from it; the
        # realization meshes build none
        calls = []
        build = instances.uniform_two_atom

        def count(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(instances, "uniform_two_atom", count)
        text = GAP_INI.replace("js = 2, 4, 8", "js = 2, 4, 8, 16, 32")
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 0
        assert len(calls) == 1

    def test_delta_star_of_the_configured_b(self, tmp_path):
        # delta* belongs to the certified problem, not to the default b = 2
        out = tmp_path / "out"
        assert run(write(tmp_path, GAP_INI), out=str(out), overrides=["instance.b=3"]) == 0
        relax = json.loads((out / "report.json").read_text())["results"]["relaxation"]
        assert abs(relax["delta_star"] - 0.003559) <= 1e-6
        assert abs(instances.gap_margin(grid.build_mesh(1, 32)) - 0.004371) <= 1e-6
        rp, designed = instances.build_relaxed_problem(
            "gap-family-1d", grid.build_mesh(1, 32), b=3.0)
        assert relax["delta_star"] == instances.designed_margin(rp, designed)
        assert relax["gap_exceeds_margin"] is True

    @pytest.mark.parametrize(
        "config, b", [("relax-linear.ini", None), ("gap-demo.ini", None),
                      ("gap-demo.ini", 3.0)], ids=["relax-linear", "gap-demo", "gap-demo-b3"])
    def test_measure_csvs_reproduce_the_relaxed_cost(self, tmp_path, config, b):
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "out"
        overrides = ["mesh.cells_per_axis=32"] + ([f"instance.b={b}"] if b else [])
        assert run(root / "configs" / config, out=str(out), overrides=overrides) == 0
        report = json.loads((out / "report.json").read_text())
        rp, _ = instances.build_relaxed_problem(
            report["experiment"]["instance"], grid.build_mesh(1, 32), b=b)

        def measure(name, klass):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
            K = int(rows[:, 1].max()) + 1
            atoms = rows[:, 2].reshape(rp.mesh.n_cells, K, 1)
            weights = rows[:, 3].reshape(rp.mesh.n_cells, K)
            assert np.all(rows[:, 4] == rows[0, 4])
            return young_measure.YoungMeasureField(rp.mesh, atoms, weights, klass, rows[0, 4])

        mu = measure("control_measure.csv", "PH1")
        nu = measure("state_measure.csv", "PH10")
        assert nu.potential_offset == 0.0
        y, _ = relaxed_opt.solve_mv_state(rp, young_measure.potential(mu), nu)
        written = np.loadtxt(out / "relaxed_state.csv", delimiter=",", skiprows=1)[:, -1]
        assert np.max(np.abs(y.values - written)) <= 1e-14
        relaxed = report["results"]["relaxation"]["relaxed"]
        assert abs(relaxed_opt.evaluate_relaxed_cost(rp, mu, nu) - relaxed) <= 1e-12

    def test_relax_on_sin_gradient(self, tmp_path):
        # no shipped config relaxes this instance: its nu has two atoms in
        # the cells where the slack leaves a(grad y)
        out = tmp_path / "out"
        text = RELAX_INI.replace("linear-quasilinear-1d", "sin-gradient-1d").replace(
            "cells_per_axis = 16", "cells_per_axis = 32")
        assert run(write(tmp_path, text), out=str(out)) == 0
        relaxed = json.loads((out / "report.json").read_text())["results"][
            "relaxation"]["relaxed"]
        rp, _ = instances.build_relaxed_problem("sin-gradient-1d", grid.build_mesh(1, 32))
        rows = {name: np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
                for name in ("control_measure.csv", "state_measure.csv")}
        measures = []
        for name, klass in (("control_measure.csv", "PH1"), ("state_measure.csv", "PH10")):
            r = rows[name]
            K = int(r[:, 1].max()) + 1
            assert K <= 2
            measures.append(young_measure.YoungMeasureField(
                rp.mesh, r[:, 2].reshape(-1, K, 1), r[:, 3].reshape(-1, K), klass, r[0, 4]))
        assert rows["state_measure.csv"][:, 1].max() == 1
        assert abs(relaxed_opt.evaluate_relaxed_cost(rp, *measures) - relaxed) <= 1e-12

    def test_relax_writes_the_certified_point(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "out"
        assert run(root / "configs" / "relax-linear.ini", out=str(out)) == 0
        relaxed = json.loads((out / "report.json").read_text())["results"][
            "relaxation"]["relaxed"]
        rp, _ = instances.build_relaxed_problem(
            "linear-quasilinear-1d", grid.build_mesh(1, 32))
        mesh = rp.mesh

        def columns(name):
            return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)

        y = columns("relaxed_state.csv")[:, -1]
        mu = columns("control_measure.csv")
        nu = columns("state_measure.csv")
        # one atom per cell (the embedding of a classical pair)
        assert np.array_equal(mu[:, 0], np.arange(mesh.n_cells))
        second_moment = mesh.cell_volume * np.sum(mu[:, 3] * mu[:, 2] ** 2)
        cost = _state_costs(rp.control, y) + 0.5 * rp.control.M * second_moment
        assert abs(cost - relaxed) <= 1e-12
        # the state measure is coupled to the written state
        mismatch = grid.gradient_values(mesh, y)[:, 0] - nu[:, 2]
        assert np.sqrt(mesh.cell_volume * np.sum(mismatch**2)) <= 1e-6

    def test_zero_iterations_kept(self, tmp_path):
        # 0 is a setting, not a request for the default cap
        text = """\
[experiment]
kind = control
control = zero

[instance]
name = linear-quasilinear-1d

[mesh]
dimension = 1
cells_per_axis = 8

[solver]
max_iterations = 0
"""
        cfg = write(tmp_path, text)
        assert run(cfg, out=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        control = report["results"]["control"]
        assert control["iterations"] == 0
        assert control["extras"]["stopped"] == "cap"

    @pytest.mark.parametrize("kind", ["control", "relax"])
    def test_report_is_strict_json_when_no_step_is_taken(self, tmp_path, kind):
        # the stationarity of an optimizer that takes no step is not finite;
        # it was written as Infinity, which RFC 8259 parsers reject
        overrides = ["solver.max_iterations=0"]
        if kind == "control":
            overrides.append("experiment.kind=control")
        out = tmp_path / "out"
        assert run(SHIPPED / "relax-linear.ini", out=str(out), overrides=overrides) == 0
        report = strict_loads((out / "report.json").read_text())
        for line in (out / "summary.txt").read_text().splitlines()[4:]:
            strict_loads(line.split(": ", 1)[1])
        if kind == "control":
            control = report["results"]["control"]
            assert control["residual"] is None and control["stationarity"] is None
        else:
            assert report["results"]["relaxation"]["classical"]["stationarity"] is None

    def test_missing_config_exit_1(self, tmp_path):
        assert run(tmp_path / "missing.ini") == 1

    @pytest.mark.parametrize("where", ["config", "override"])
    def test_percent_sign_is_literal(self, tmp_path, monkeypatch, where):
        # values are not interpolated: a % names itself
        monkeypatch.chdir(tmp_path)
        if where == "config":
            text, argv = VERIFY_INI + "\n[output]\ndirectory = out%1\n", []
        else:
            text, argv = VERIFY_INI, ["--override", "output.directory=out%1"]
        assert main(["run", str(write(tmp_path, text)), *argv]) == 0
        assert (tmp_path / "out%1" / "report.json").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out" if below else blocker
        assert main(["run", str(write(tmp_path, VERIFY_INI)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output")

    @pytest.mark.parametrize(
        "text, message",
        [("[experiment\nkind = state\n", "cannot parse config"),
         ("[experiment]\nseed = 1\n", "config needs [experiment] kind"),
         ("[experiment]\nkind = state\n", "experiment kind 'state' needs [instance] name"),
         ("[experiment]\nkind = verify-hypotheses\n\n[instance]\nname = linear-quasilinear-1d\n",
          "nothing to verify")],
        ids=["unparsable", "no-kind", "state-without-instance", "nothing-to-verify"],
    )
    def test_usage_error_exit_1(self, tmp_path, capsys, text, message):
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_state_solve_that_does_not_converge_exit_1(self, tmp_path, capsys):
        # Picard stalls at its rounding floor, far above 1e-300
        out = tmp_path / "out"
        code = run(SHIPPED / "state-sin-gradient.ini", out=str(out),
                   overrides=["solver.state_tol=1e-300"])
        assert code == 1
        assert "error: solver did not converge: Picard" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @staticmethod
    def _instance_hypotheses(tmp_path, instance):
        text = f"[experiment]\nkind = verify-hypotheses\n\n[instance]\nname = {instance}\n"
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 0
        return json.loads((tmp_path / "out" / "report.json").read_text())["results"]["hypotheses"]

    def test_verify_hypotheses_of_a_variational_instance(self, tmp_path):
        got = self._instance_hypotheses(tmp_path, "variational-quartic-1d")
        assert [(h["hypothesis"], h["passed"]) for h in got] == [("w-growth", True)]

    def test_verify_hypotheses_of_the_shipped_flux_instance(self, tmp_path):
        # the shipped config spells out monotone-perturbed-1d's flux
        got = self._instance_hypotheses(tmp_path, "monotone-perturbed-1d")
        assert run(SHIPPED / "verify-hypotheses.ini", out=str(tmp_path / "shipped")) == 0
        shipped = json.loads((tmp_path / "shipped" / "report.json").read_text())
        assert got == shipped["results"]["hypotheses"]
        assert [h["worst_margin"] for h in got] == [0.0017286479264707203, 0.5022862071180714]

    def test_failed_hypothesis_exit_2(self, tmp_path):
        text = """\
[experiment]
kind = verify-hypotheses

[coefficients]
flux = identity
a = cosine-wells
kappa = 5.0
omega = 5.0
"""
        # |a| <= C|y| fails with the identity flux constants (C near 1)
        cfg = write(tmp_path, text)
        assert run(cfg, out=str(tmp_path / "out")) == 2


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, tmp_path):
        cfg = write(tmp_path, GAP_INI)
        for tag in ("a", "b"):
            assert run(cfg, out=str(tmp_path / tag)) == 0
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ra.pop("timings")
        rb.pop("timings")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
        for name in ("summary.txt", "state_measure.csv", "control_measure.csv",
                     "relaxed_state.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestListCommand:
    def test_catalog_includes_gap_margin(self):
        table = list_builtin()
        assert "gap-family-1d" in table
        assert "delta_star" in table

    def test_table_digest(self):
        # every instance's constants and the gap family's delta*, byte for byte
        digest = hashlib.sha256(list_builtin().encode()).hexdigest()
        assert digest == "71cd064dab9fa7db14525dbd24fc62dd4af1b90ccebeff926ad5a869c497ddb5"

    def test_filter_and_empty(self):
        assert "gap-family-1d" in list_builtin("gap")
        filtered = list_builtin("no-such-instance")
        assert "gap-family-1d" not in filtered

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "gap-family-1d" in capsys.readouterr().out

    @staticmethod
    def _fresh_python(*args):
        src = str(Path(qlcontrol.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, *args],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_python_dash_m_list(self):
        assert self._fresh_python("-m", "qlcontrol", "list") == list_builtin() + "\n"

    def test_import_loads_no_sparse_module(self):
        # every linear solve is a closed-form Green's function or a cached
        # tensor eigenbasis, in numpy alone: no scipy module at all, sparse
        # or dense
        out = self._fresh_python("-c", "import sys, qlcontrol; print(sorted(m for m in sys.modules"
                                 " if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"


class TestShippedConfigs:
    # sha256 of report.json outside "timings" (json.dumps, sorted keys) and
    # of each CSV's name and bytes in name order: the byte contract of a
    # shipped config's output, as perfbench's cli-configs digest
    DIGESTS = {
        "verify-hypotheses.ini": "3807f700981603b160f1f736e3c2f9457e8dbc4fa097d7f0339c0f2912351fc1",
        "state-sin-gradient.ini": "8672e86e6dfd7db65e182b9757cd011472b8dad10c603d80c4f734a22f830b67",
        "relax-linear.ini": "0d7096c0b4a8a3393f609eea0bd6a1e15f453ec4b3b00ed8811a799804165fb5",
        "gap-demo.ini": "4a665e2bf5e5ece03bdf05831fefb9af174f866ec6668904dff65fc78c7a9769",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_configs_run_clean(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["run", str(SHIPPED / name), "--out", str(out)]) == 0
        report = strict_loads((out / "report.json").read_text())
        report.pop("timings")
        got = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
        for p in sorted(out.glob("*.csv")):
            got.update(p.name.encode() + p.read_bytes())
        assert got.hexdigest() == self.DIGESTS[name]
