"""The four benchmark workloads: set-up, per-round tasks and output checks.

A workload is built from a seed; each round returns a list of tasks
``(label, fn, check)``.  ``fn`` makes one call into qlcontrol and is the only
timed part; ``check(result)`` returns a list of problems (empty when the
output is right) and a JSON-able summary that identifies the result.  The
package is reached through module attributes at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from qlcontrol import cli, control_opt, grid, instances, relaxed_opt
from qlcontrol import state_monotone, state_quasilinear, state_variational
from qlcontrol.grid import ScalarField

# Recorded costs are compared with an absolute tolerance, never by bytes, so a
# change that only reorders floating point passes and a wrong answer fails.
COST_TOL = 1e-6
# Relative tolerance on the variational reference cost: 12 capped FD steps
# amplify state-solver changes at its 1e-8 tolerance well above round-off.
VARIATIONAL_REL_TOL = 1e-3
WARM_COLD_TOL = 1e-6
CONTRACTION_SLACK = 1e-3


def _smooth_control(rng, mesh, scale=1.0):
    """Seeded smooth nodal control: a constant plus a three-term sine series."""
    x = mesh.node_coords()
    vals = np.full(mesh.n_nodes, rng.normal(0.0, scale))
    for k in range(1, 4):
        vals += rng.normal(0.0, scale / k) * np.sin(np.pi * k * x[:, 0])
        if mesh.dimension == 2:
            vals += rng.normal(0.0, scale / k) * np.sin(np.pi * k * x[:, 1])
    return ScalarField(mesh, vals)


def check_gap(report, delta, expected):
    """Problems with one gap certificate against delta* and recorded values."""
    problems = []
    if report.failed:
        problems.append("report FAILED")
    problems += [f"certificate {c['name']} failed" for c in report.certificates
                 if not c["passed"]]
    if not report.relaxed <= report.best_classical - delta + 1e-3:
        problems.append(
            f"relaxed {report.relaxed} misses classical {report.best_classical} "
            f"- delta* {delta} + 1e-3"
        )
    for key in ("relaxed", "best_classical"):
        got = getattr(report, key)
        if not abs(got - expected[key]) <= COST_TOL:
            problems.append(f"{key} {got!r} != recorded {expected[key]!r} +- {COST_TOL}")
    return problems, [report.relaxed, report.best_classical]


class GapCertify:
    """certify_gap on gap-family-1d at h = 1/128 from the designed init."""

    def __init__(self, seed, expected):
        self.rp, self.designed = instances.build_relaxed_problem("gap-family-1d")
        self.delta = instances.gap_margin(self.rp.mesh)
        self.expected = expected
        self.rng = np.random.default_rng(seed)

    def round(self, r):
        s = int(self.rng.integers(2**31))

        def fn():
            return relaxed_opt.certify_gap(
                self.rp, samples=3, seed=s, designed_init=self.designed
            )

        return [(f"certify_gap seed={s}", fn,
                 lambda rep: check_gap(rep, self.delta, self.expected))]


class VariationalControl:
    """optimize_control on variational-quartic-1d at h = 1/16, 12 iterations.

    Round 0 starts from the recorded reference start, whose final cost is
    checked against the recorded one; later rounds draw u0 = 0.3 N(0, 1).
    """

    def __init__(self, seed, expected):
        self.mesh = grid.build_mesh(1, 16)
        self.cp = instances.build_control_problem("variational-quartic-1d", self.mesh)
        self.opts = control_opt.OptimizeOptions(max_iterations=12)
        self.expected = expected
        ref = np.random.default_rng(expected["reference_start_seed"])
        self.reference_u0 = 0.3 * ref.standard_normal(self.mesh.n_nodes)
        self.rng = np.random.default_rng(seed)

    def round(self, r):
        u0 = self.reference_u0 if r == 0 else 0.3 * self.rng.standard_normal(
            self.mesh.n_nodes)

        def fn():
            return control_opt.optimize_control(
                self.cp, ScalarField(self.mesh, u0), self.opts
            )

        return [("optimize_control" + (" reference" if r == 0 else ""), fn,
                 lambda res: self.check(res, reference=r == 0))]

    def check(self, result, reference):
        u_opt, rep = result
        problems = []
        trace = rep.cost_trace
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append("cost trace increases")
        if rep.cost != trace[-1]:
            problems.append("reported cost is not the last accepted cost")
        sp = self.cp.state.with_source(
            ScalarField(self.mesh, np.asarray(self.cp.cs.f(u_opt.values), dtype=float))
        )
        y, _ = state_variational.solve_state(sp, u_opt)
        if not state_variational.verify_minimality(sp, y, u_opt, trials=100).passed:
            problems.append("final state fails verify_minimality(trials=100)")
        want = self.expected["reference_cost"]
        if reference and not abs(rep.cost - want) <= VARIATIONAL_REL_TOL * abs(want):
            problems.append(f"reference cost {rep.cost!r} != recorded {want!r}")
        return problems, [rep.cost, rep.iterations]


class StateSweep:
    """Cold and warm Picard solves over a sweep of b, plus Zarantonello.

    Picard runs on sin-gradient-2d at 32^2 and on gap-family-1d at 1/128 for
    six b drawn in [1.25, 4]; each new b factors a new Helmholtz operator in
    the first round.  A warm solve at b_i starts from the cold state at
    b_(i-1) for the same control.
    """

    n_b = 6

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bs = np.sort(self.rng.uniform(1.25, 4.0, self.n_b))
        self.families = []
        for name, mesh in (("sin-gradient-2d", grid.build_mesh(2, 32)),
                           ("gap-family-1d", grid.build_mesh(1, 128))):
            problems = [instances.build_state_problem(name, mesh, b=float(b))
                        for b in self.bs]
            self.families.append((name, mesh, problems))
        self.mono = instances.build_state_problem(
            "monotone-perturbed-1d", grid.build_mesh(1, 64))
        cs = self.mono.cs
        self.ratio_bound = state_monotone.theoretical_contraction(
            cs.c, cs.C, self.mono.default_step()) + CONTRACTION_SLACK

    def round(self, r):
        tasks = []
        for name, mesh, problems in self.families:
            u = _smooth_control(self.rng, mesh)
            cold = {}
            for i, p in enumerate(problems):
                tasks.append(self._cold(f"{name} cold b={p.b:.4f}", p, u, cold, i))
                if i:
                    tasks.append(self._warm(f"{name} warm b={p.b:.4f}", p, u, cold, i))
        um = _smooth_control(self.rng, self.mono.mesh)
        tasks.append(("monotone-perturbed-1d zarantonello",
                      lambda: state_monotone.solve_monotone(self.mono, um),
                      self._check_monotone))
        return tasks

    @staticmethod
    def _summary(result):
        y, rep = result
        return [rep.iterations, float(np.sum(y.values))]

    def _cold(self, label, p, u, cold, i):
        def fn():
            cold[i] = state_quasilinear.solve_quasilinear(p, u)
            return cold[i]

        def check(result):
            return ([] if result[1].converged else ["not converged"]), self._summary(result)

        return label, fn, check

    def _warm(self, label, p, u, cold, i):
        def fn():
            return state_quasilinear.solve_quasilinear(p, u, y0=cold[i - 1][0])

        def check(result):
            problems = [] if result[1].converged else ["not converged"]
            gap = float(np.max(np.abs(result[0].values - cold[i][0].values)))
            if not gap <= WARM_COLD_TOL:
                problems.append(f"warm and cold states differ by {gap:.3e}")
            return problems, self._summary(result)

        return label, fn, check

    def _check_monotone(self, result):
        rep = result[1]
        problems = [] if rep.converged else ["not converged"]
        if not rep.contraction_ratio <= self.ratio_bound:
            problems.append(
                f"contraction ratio {rep.contraction_ratio} > {self.ratio_bound}")
        return problems, self._summary(result)


def _lookup(doc, path):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def check_cli_report(report, expected):
    """Problems with one report.json against its recorded values: numbers to
    COST_TOL, every other value exactly."""
    problems = []
    if report.get("exit_code") != 0:
        problems.append(f"report exit_code {report.get('exit_code')}")
    for path, want in expected.items():
        try:
            got = _lookup(report, path)
        except (KeyError, IndexError, TypeError):
            problems.append(f"{path} missing")
            continue
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and abs(got - want) <= COST_TOL
        else:
            ok = got == want
        if not ok:
            problems.append(f"{path} = {got!r}, recorded {want!r}")
    return problems


class CliConfigs:
    """``qlcontrol run`` on every shipped config, in this process.

    The configs run as shipped, with their own seeds: the run seed does not
    change this workload's inputs.  relax-linear's work depends on its seed
    (about one seed in five takes a third longer), which would split runs at
    different seeds into two modes.  The check's summary is a digest of
    report.json outside ``timings`` and of the CSV output, so repetitions
    of one experiment can be compared byte for byte.
    """

    def __init__(self, config_dir, expected, work):
        self.expected = expected
        self.configs = [config_dir / f"{name}.ini" for name in sorted(expected)]
        self.work = Path(work)
        self.bytes_written = 0

    def round(self, r):
        tasks = []
        for cfg in self.configs:
            out = self.work / f"{r}-{cfg.stem}"
            argv = ["run", str(cfg), "--out", str(out)]
            tasks.append((f"qlcontrol run {cfg.name}",
                          lambda argv=argv: cli.main(argv),
                          lambda code, cfg=cfg, out=out: self.check(cfg.stem, out, code)))
        return tasks

    def check(self, name, out, code):
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            files = sorted(p for p in out.iterdir() if p.is_file())
            self.bytes_written += sum(p.stat().st_size for p in files)
            digest = hashlib.sha256()
            report.pop("timings", None)
            digest.update(json.dumps(report, sort_keys=True).encode())
            for p in files:
                if p.suffix == ".csv":
                    digest.update(p.name.encode() + p.read_bytes())
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable output: {exc}"], None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems += check_cli_report(report, self.expected[name])
        return problems, digest.hexdigest()


def build(name, seed, root, record, work):
    """Set up the named workload from its seed."""
    expected = record["expected"].get(name)
    if name == "gap-certify":
        return GapCertify(seed, expected)
    if name == "variational-control":
        return VariationalControl(seed, expected)
    if name == "state-sweep":
        return StateSweep(seed)
    if name == "cli-configs":
        return CliConfigs(root / "configs", expected, work)
    raise KeyError(name)
