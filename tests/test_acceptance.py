"""Acceptance suite: one test per criterion, stated tolerances, one
pass/fail line each (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they print)."""

import json
import time

import numpy as np

from qlcontrol import coefficients as co
from qlcontrol import grid
from qlcontrol import instances
from qlcontrol import young_measure as ym
from qlcontrol.cli import run as cli_run
from qlcontrol.control_opt import (
    OptimizeOptions,
    minimizing_sequence_demo,
    optimize_control,
)
from qlcontrol.grid import ScalarField, VectorField
from qlcontrol.relaxed_opt import (
    RelaxedInit,
    certify_gap,
    embed_classical,
    optimize_relaxed,
)
from qlcontrol.state_monotone import (
    MonotoneStateProblem,
    solve_monotone,
    theoretical_contraction,
)
from qlcontrol.state_quasilinear import (
    QuasilinearStateProblem,
    apriori_gradient_bound,
    solve_quasilinear,
    uniqueness_threshold,
    verify_uniqueness,
)
from qlcontrol.state_variational import solve_state, verify_minimality

from oracles import enumerate_controls_oracle, newton_state_oracle


def _report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestCriterion1UniquenessThresholdActivity:
    def test_picard_contraction_and_uniqueness(self):
        t0 = time.perf_counter()
        mesh = grid.build_mesh(1, 64)
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        thr = uniqueness_threshold(cs.L)
        assert thr == 0.25
        u = ScalarField(mesh, np.ones(mesh.n_nodes))
        ratios = []
        for b in (0.5, 1.0, 2.0):
            p = QuasilinearStateProblem(mesh, cs, b=b)
            _, rep = solve_quasilinear(p, u)
            assert rep.converged
            ratios.append(rep.contraction_ratio)
        monotone_in_b = ratios[0] >= ratios[1] >= ratios[2]
        all_contracting = all(r < 1.0 for r in ratios)
        uniq = verify_uniqueness(QuasilinearStateProblem(mesh, cs, b=1.0), u, trials=5)
        elapsed = time.perf_counter() - t0
        _report(
            1,
            monotone_in_b and all_contracting and uniq.passed and elapsed < 5.0,
            f"ratios {['%.3f' % r for r in ratios]} decreasing, 5-start "
            f"uniqueness margin {uniq.worst_margin:.2e}, {elapsed:.2f}s < 5s",
        )


class TestCriterion2MonotoneSolverCertificate:
    def test_zarantonello_certificate(self):
        t0 = time.perf_counter()
        mesh = grid.build_mesh(1, 32)
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5).merged(
            **co.f_linear()
        )
        p = MonotoneStateProblem(mesh, cs)
        tau = p.default_step()
        assert abs(tau - cs.c / cs.C**2) <= 1e-15
        u = ScalarField(mesh, np.ones(mesh.n_nodes))
        y, rep = solve_monotone(p, u)
        bound = theoretical_contraction(cs.c, cs.C, tau)
        oracle = newton_state_oracle(p, u, warm_start=y)
        agreement = float(np.max(np.abs(y.values - oracle)))
        elapsed = time.perf_counter() - t0
        _report(
            2,
            rep.converged
            and rep.contraction_ratio <= bound + 1e-3
            and agreement <= 1e-6
            and elapsed < 5.0,
            f"measured ratio {rep.contraction_ratio:.4f} <= {bound:.4f}+1e-3, "
            f"Newton agreement {agreement:.2e} <= 1e-6, {elapsed:.2f}s < 5s",
        )


class TestCriterion3VariationalExistenceSymptom:
    def test_five_random_starts_and_minimality(self):
        t0 = time.perf_counter()
        mesh = grid.build_mesh(1, 16)
        cp = instances.build_control_problem("variational-quartic-1d", mesh)
        rng = np.random.default_rng(0)
        opts = OptimizeOptions(max_iterations=60)
        costs = []
        minimality_ok = True
        for _ in range(5):
            u0 = ScalarField(mesh, 0.3 * rng.standard_normal(mesh.n_nodes))
            u_opt, rep = optimize_control(cp, u0, opts)
            costs.append(rep.cost)
            state_problem = cp.state.with_source(
                ScalarField(mesh, np.asarray(cp.cs.f(u_opt.values), dtype=float))
            )
            y_opt, _ = solve_state(state_problem, u_opt)
            check = verify_minimality(state_problem, y_opt, u_opt, trials=100)
            minimality_ok = minimality_ok and check.passed
        spread = max(costs) - min(costs)
        elapsed = time.perf_counter() - t0
        _report(
            3,
            spread <= 1e-3 and minimality_ok and elapsed < 60.0,
            f"cost spread over 5 starts {spread:.2e} <= 1e-3, minimality "
            f"100 trials each, {elapsed:.1f}s < 60s",
        )


class TestCriterion4AprioriBound:
    def test_bound_holds_across_suite(self):
        checked = []
        # 1D sin-gradient at the three acceptance b values
        mesh = grid.build_mesh(1, 64)
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        u = ScalarField(mesh, np.ones(mesh.n_nodes))
        for b in (0.5, 1.0, 2.0):
            p = QuasilinearStateProblem(mesh, cs, b=b)
            bound, holds = apriori_gradient_bound(p, u)
            y, _ = solve_quasilinear(p, u)
            checked.append((holds, grid.h1_seminorm(y) / bound))
        # 2D instance with the square's Poincare constant
        p2 = instances.build_state_problem("sin-gradient-2d")
        u2 = ScalarField(p2.mesh, np.ones(p2.mesh.n_nodes))
        bound2, holds2 = apriori_gradient_bound(p2, u2)
        y2, _ = solve_quasilinear(p2, u2)
        checked.append((holds2, grid.h1_seminorm(y2) / bound2))
        # gap family reference state
        pg = instances.build_state_problem("gap-family-1d")
        ug = ScalarField(pg.mesh, np.ones(pg.mesh.n_nodes))
        boundg, holdsg = apriori_gradient_bound(pg, ug)
        yg, _ = solve_quasilinear(pg, ug)
        checked.append((holdsg, grid.h1_seminorm(yg) / boundg))
        ok = all(h and r < 1.0 for h, r in checked)
        _report(
            4,
            ok,
            "a-priori gradient bound ratios "
            + ", ".join(f"{r:.3f}" for _, r in checked)
            + " all < 1 (Poincare 1/pi and 1/(sqrt2 pi))",
        )


class TestCriterion5YoungMeasureLaws:
    def test_measure_laws(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        mesh = grid.build_mesh(1, 8)

        atoms = rng.standard_normal((mesh.n_cells, 4, 1))
        w = rng.random((mesh.n_cells, 4))
        w /= w.sum(axis=1, keepdims=True)
        f = ym.YoungMeasureField(mesh, atoms, w)
        norm_ok = np.max(np.abs(np.sum(f.weights, axis=1) - 1.0)) <= 1e-12

        jensen_gap = ym.moment(f, lambda l: np.sum(l * l, axis=1)) - np.sum(
            ym.barycenter(f).values ** 2, axis=1
        )
        jensen_ok = np.min(jensen_gap) >= -1e-12
        dirac = ym.dirac_field(VectorField(mesh, rng.standard_normal((mesh.n_cells, 1))))
        djensen = ym.moment(dirac, lambda l: np.sum(l * l, axis=1)) - np.sum(
            ym.barycenter(dirac).values ** 2, axis=1
        )
        jensen_eq_ok = np.max(np.abs(djensen)) <= 1e-12

        dirac_exact = all(
            np.array_equal(ym.moment(dirac, psi), psi(ym.barycenter(dirac).values))
            for psi in (
                lambda l: l[:, 0],
                lambda l: np.sum(l * l, axis=1),
                lambda l: np.sin(l[:, 0]),
            )
        )

        theta = 0.3
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, theta)
        u64 = ym.realize_sequence(two, 64)
        slopes = grid.gradient(u64).values[:, 0]
        r = u64.mesh.n_cells // mesh.n_cells
        hist_ok = True
        for i in range(mesh.n_cells):
            cell = slopes[i * r : (i + 1) * r]
            upper = np.mean(np.abs(cell - 1.0) < np.abs(cell + 1.0))
            hist_ok = hist_ok and abs(upper - theta) <= 1.0 / 64

        d = ym.dirac_field(VectorField(mesh, np.full((mesh.n_cells, 1), 0.7)))
        p1 = ym.project_class(d, "PH10")
        p2 = ym.project_class(p1, "PH10")
        idem_ok = np.max(np.abs(p2.atoms - p1.atoms)) <= 1e-12
        norm_after_ok = (
            np.max(np.abs(np.sum(p2.weights, axis=1) - 1.0)) <= 1e-12
            and np.min(p2.weights) >= 0.0
        )
        elapsed = time.perf_counter() - t0
        _report(
            5,
            norm_ok and jensen_ok and jensen_eq_ok and dirac_exact and hist_ok
            and idem_ok and norm_after_ok and elapsed < 10.0,
            f"normalization/Jensen to 1e-12, Dirac identity exact, histogram "
            f"within 1/64 at j=64, projection idempotent, {elapsed:.2f}s < 10s",
        )


class TestCriterion6SubRelaxation:
    def test_every_instance_three_seeds(self):
        rows = []
        ok = True
        for name in instances.relaxable_names():
            mesh = None if name == "gap-family-1d" else grid.build_mesh(1, 32)
            rp, designed = instances.build_relaxed_problem(name, mesh)
            for seed in (0, 1, 2):
                rep = certify_gap(rp, samples=3, seed=seed, designed_init=designed)
                ok = ok and not rep.failed
                ok = ok and rep.relaxed <= rep.best_classical + 1e-8
                ok = ok and rep.dirac_residual <= 1e-10
                rows.append(f"{name}/s{seed}: gap={rep.gap:.2e}")
        _report(6, ok, "; ".join(rows))


class TestCriterion7RelaxationGapDemonstration:
    def test_gap_family_at_h_1_128(self):
        t0 = time.perf_counter()
        rp, designed = instances.build_relaxed_problem("gap-family-1d")
        assert rp.mesh.cells_per_axis == 128
        delta = instances.gap_margin(rp.mesh)

        js = (2, 4, 8, 16, 32)
        trace = minimizing_sequence_demo(rp.control, js)
        strictly_decreasing = bool(np.all(np.diff(trace) < 1e-3)) and trace[-1] < trace[0]

        report = certify_gap(rp, samples=3, seed=0, designed_init=designed)
        mu, nu, y, opt_rep = optimize_relaxed(rp, designed)
        relaxed = min(report.relaxed, opt_rep.cost)
        attains_margin = relaxed <= report.best_classical - delta + 1e-3
        trace_consistent = abs(trace[-1] - relaxed) <= 5e-2
        elapsed = time.perf_counter() - t0
        _report(
            7,
            strictly_decreasing and attains_margin and trace_consistent
            and not report.failed and elapsed < 120.0,
            f"trace decreasing {[f'{c:.6f}' for c in trace]}, relaxed "
            f"{relaxed:.6f} (convexified state inclusion, a lower bound that "
            f"classical controls do not reach) <= classical {report.best_classical:.6f} - "
            f"delta* {delta:.4f} + 1e-3, |trace-relaxed|="
            f"{abs(trace[-1]-relaxed):.3f} <= 5e-2, {elapsed:.1f}s < 120s",
        )


class TestCriterion8TinyScaleGlobalCheck:
    def test_lattice_oracle_bounds_both_optimizers(self):
        t0 = time.perf_counter()
        mesh = grid.build_mesh(1, 6)
        rp, _ = instances.build_relaxed_problem("gap-family-1d", mesh)
        cp = rp.control
        u_best, lattice_best = enumerate_controls_oracle(cp, (-1.0, 0.0, 1.0))

        u_opt, rep = optimize_control(cp, u_best, OptimizeOptions(max_iterations=40))
        classical_ok = rep.cost <= lattice_best + 1e-6

        mu, nu, _ = embed_classical(rp, u_opt)
        _, _, _, relax_rep = optimize_relaxed(rp, RelaxedInit(mu, nu))
        relaxed_ok = relax_rep.cost <= lattice_best + 1e-6
        elapsed = time.perf_counter() - t0
        _report(
            8,
            classical_ok and relaxed_ok and elapsed < 60.0,
            f"lattice best {lattice_best:.6f}, classical {rep.cost:.6f}, "
            f"relaxed {relax_rep.cost:.6f}, {elapsed:.1f}s < 60s",
        )


class TestCriterion9DiscretizationSanity:
    def test_analytic_solutions_and_sbp(self):
        # analytic case 1 (b=0) is reproduced exactly by the second-order
        # scheme (quadratic solution), so its errors sit at rounding level;
        # the cosh case carries the measurable order-two ratio
        case_results = []
        for b, exact in (
            (0.0, lambda x: x * (1 - x) / 2),
            (1.0, lambda x: 1 - np.cosh(x - 0.5) / np.cosh(0.5)),
        ):
            errs = []
            for n in (64, 128):
                mesh = grid.build_mesh(1, n)
                x = mesh.node_coords()[:, 0]
                y = grid.helmholtz_solve(b, ScalarField(mesh, np.ones(mesh.n_nodes)))
                errs.append(float(np.max(np.abs(y.values - exact(x)))))
            if max(errs) <= 1e-12:
                case_results.append(("exact", True))
            else:
                ratio = errs[0] / errs[1]
                case_results.append((f"ratio {ratio:.3f}", 3.5 <= ratio <= 4.5))

        rng = np.random.default_rng(2)
        sbp_ok = True
        for dim in (1, 2):
            mesh = grid.build_mesh(dim, 12)
            q = VectorField(mesh, rng.standard_normal((mesh.n_cells, dim)))
            zv = rng.standard_normal(mesh.n_nodes)
            zv[mesh.boundary_mask] = 0.0
            z = ScalarField(mesh, zv)
            gap = abs(
                grid.inner(grid.divergence_weak(q), z)
                + grid.inner(q, grid.gradient(z))
            )
            sbp_ok = sbp_ok and gap <= 1e-12 * grid.l2_norm(q) * grid.l2_norm(z)
        ok = all(flag for _, flag in case_results) and sbp_ok
        _report(
            9,
            ok,
            f"analytic cases {[tag for tag, _ in case_results]}, "
            f"summation-by-parts to 1e-12 in 1D and 2D",
        )


class TestCriterion10Determinism:
    def test_byte_identical_reports(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[experiment]\nkind = gap-demo\nseed = 0\njs = 2, 4\n\n"
            "[instance]\nname = gap-family-1d\n\n"
            "[mesh]\ndimension = 1\ncells_per_axis = 32\n",
            encoding="utf-8",
        )
        outputs = []
        for tag in ("a", "b"):
            assert cli_run(config, out=str(tmp_path / tag)) == 0
            report = json.loads((tmp_path / tag / "report.json").read_text())
            report.pop("timings")
            outputs.append(json.dumps(report, sort_keys=True))
        reports_equal = outputs[0] == outputs[1]
        files_equal = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in (
                "summary.txt",
                "state_measure.csv",
                "control_measure.csv",
                "relaxed_state.csv",
            )
        )
        _report(
            10,
            reports_equal and files_equal,
            "reports and dumps byte-identical at fixed seed (wall times excluded)",
        )
