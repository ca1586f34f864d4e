"""Experiment runner: config parsing, runs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import qlcontrol
from qlcontrol import control_opt, grid, instances, relaxed_opt
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


class TestConfigParsing:
    def test_round_trip(self):
        cfg = ExperimentConfig.parse(GAP_INI)
        again = ExperimentConfig.parse(cfg.to_text())
        assert again == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[experiment]\nkind = state\n\n[bogus]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[experiment]\nkind = state\nbogus = 1\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[experiment]\nkind = fly\n")

    @pytest.mark.parametrize("js", ["2, 0", "-4", "4, 16, -1"])
    def test_non_positive_js_rejected(self, tmp_path, js):
        text = GAP_INI.replace("js = 2, 4, 8", f"js = {js}")
        with pytest.raises(ConfigError, match="js"):
            ExperimentConfig.parse(text)
        # rejected before any solve and before the output directory exists
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, name",
        [("state_tol = 0", "state_tol"), ("state_tol = -1", "state_tol"),
         ("samples = -3", "samples")],
        ids=["state_tol=0", "state_tol=-1", "samples=-3"],
    )
    def test_bad_solver_setting_rejected(self, tmp_path, setting, name):
        text = GAP_INI + f"\n[solver]\n{setting}\n"
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.parse(text)
        # rejected before any solve and before the output directory exists
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 1
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

    def test_relax_experiment(self, tmp_path):
        text = """\
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
        cfg = write(tmp_path, text)
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
        # recorded from the run that optimized the relaxed problem twice
        digests = {
            "state_measure.csv":
                "b2f3919458bda7756bde3d55c577be08f6eecd0557d9585e9dde9b7a00d98bae",
            "control_measure.csv":
                "680fcbe9f559c02074907c155913cef7d77f211e9e3e9c64e72bb7bba1d13d77",
            "relaxed_state.csv":
                "d74d477e0f558bcfc3eb81ac987e1070f24360fb4a655b93d77cf05d0f920948",
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

    def test_gap_demo_builds_the_demo_measure_twice(self, tmp_path, monkeypatch):
        # once for the certified problem and once in gap_margin; the
        # realization meshes build none
        calls = []
        build = instances.uniform_two_atom

        def count(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(instances, "uniform_two_atom", count)
        text = GAP_INI.replace("js = 2, 4, 8", "js = 2, 4, 8, 16, 32")
        assert run(write(tmp_path, text), out=str(tmp_path / "out")) == 0
        assert len(calls) == 2

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

    def test_missing_config_exit_1(self, tmp_path):
        assert run(tmp_path / "missing.ini") == 1

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

    def test_filter_and_empty(self):
        assert "gap-family-1d" in list_builtin("gap")
        filtered = list_builtin("no-such-instance")
        assert "gap-family-1d" not in filtered

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "gap-family-1d" in capsys.readouterr().out

    def test_python_dash_m_list(self):
        src = str(Path(qlcontrol.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qlcontrol", "list"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "gap-family-1d" in proc.stdout


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name", ["verify-hypotheses.ini", "state-sin-gradient.ini", "relax-linear.ini"]
    )
    def test_configs_run_clean(self, tmp_path, name):
        from pathlib import Path

        config = Path(__file__).resolve().parent.parent / "configs" / name
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
