"""Picard iteration for the quasilinear state equation and its certificates."""

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid
from qlcontrol.grid import ScalarField
from qlcontrol.state_monotone import MonotoneStateProblem, solve_monotone
from qlcontrol.state_quasilinear import (
    QuasilinearStateProblem,
    apriori_gradient_bound,
    solve_quasilinear,
    strong_residual,
    uniqueness_threshold,
    verify_uniqueness,
)

from oracles import newton_state_oracle


def sin_problem(n=64, b=1.0, dim=1):
    cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
    return QuasilinearStateProblem(grid.build_mesh(dim, n), cs, b=b)


class TestThreshold:
    def test_values(self):
        assert uniqueness_threshold(2.0) == 1.0
        assert uniqueness_threshold(0.0) == 0.0
        assert uniqueness_threshold(1.0) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniqueness_threshold(-1.0)

    def test_below_threshold_refused(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        with pytest.raises(ValueError):
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=uniqueness_threshold(1.0) / 2)

    def test_margin_warning_close_to_threshold(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        with pytest.warns(UserWarning):
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=0.26)


class TestSolveQuasilinear:
    def test_linear_case_exact(self):
        cs = co.CoefficientSet(**{**co.a_zero(), **co.f_clamp()})
        p = QuasilinearStateProblem(grid.build_mesh(1, 32), cs, b=1.0)
        u = ScalarField(p.mesh, 2.0 * np.ones(p.mesh.n_nodes))  # f(u) = 1
        y, rep = solve_quasilinear(p, u)
        ref = grid.helmholtz_solve(1.0, ScalarField(p.mesh, np.ones(p.mesh.n_nodes)))
        assert np.max(np.abs(y.values - ref.values)) == 0.0
        assert rep.converged

    def test_zero_source_exact_zero(self):
        p = sin_problem(n=16)
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        pz = QuasilinearStateProblem(p.mesh, p.cs.merged(**co.f_zero()), b=1.0)
        y, _ = solve_quasilinear(pz, u)
        assert np.all(y.values == 0.0)

    def test_sin_gradient_vs_newton_oracle(self):
        p = sin_problem(n=64, b=1.0)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y, rep = solve_quasilinear(p, u)
        assert rep.converged
        oracle = newton_state_oracle(p, u, warm_start=y)
        assert np.max(np.abs(y.values - oracle)) <= 1e-7

    def test_strong_residual_small(self):
        p = sin_problem(n=64)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        _, rep = solve_quasilinear(p, u)
        fnorm = grid.l2_norm(
            ScalarField(p.mesh, np.asarray(p.cs.f(u.values), dtype=float))
        )
        assert rep.residual <= 1e-6 * (1.0 + fnorm)

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 8)])
    def test_strong_residual_takes_one_gradient(self, monkeypatch, dim, n):
        # a(grad y) and lap_h y share one gradient; the residual is the one
        # of lap_h = divergence_weak o gradient, bit for bit
        p = sin_problem(n=n, dim=dim)
        rng = np.random.default_rng(dim)
        y = rng.standard_normal((3, p.mesh.n_nodes))
        fvals = rng.standard_normal((3, p.mesh.n_nodes))
        a_nodes = grid.cell_to_node_values(
            p.mesh, co.apply_cellwise(p.cs.a, grid.gradient_values(p.mesh, y)))
        want = -grid.laplacian_values(p.mesh, y) + a_nodes + p.b * y - fvals
        want[..., p.mesh.boundary_mask] = 0.0
        calls = []
        gradient = grid.gradient_values

        def count(*args):
            calls.append(1)
            return gradient(*args)

        monkeypatch.setattr(grid, "gradient_values", count)
        got = strong_residual(p, y, fvals)
        assert len(calls) == 1
        assert np.array_equal(got, grid.l2_norm_values(p.mesh, want))

    def test_contraction_ratio_decreases_in_b(self):
        thr = uniqueness_threshold(1.0)
        ratios = []
        for b in (2 * thr, 4 * thr, 8 * thr):
            p = sin_problem(n=64, b=b)
            u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
            _, rep = solve_quasilinear(p, u)
            assert rep.contraction_ratio < 1.0
            ratios.append(rep.contraction_ratio)
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_consistency_with_monotone_solver(self):
        # a = 0 and b = 0 reduce to -lap y = f: both solvers must agree
        mesh = grid.build_mesh(1, 32)
        csq = co.CoefficientSet(**{**co.a_zero(), **co.f_tanh()})
        pq = QuasilinearStateProblem(mesh, csq, b=0.0)
        csm = co.identity_flux().merged(**co.f_tanh())
        pm = MonotoneStateProblem(mesh, csm)
        u = ScalarField(mesh, np.ones(mesh.n_nodes))
        yq, _ = solve_quasilinear(pq, u)
        ym, _ = solve_monotone(pm, u)
        assert np.max(np.abs(yq.values - ym.values)) <= 1e-7

    def test_2d_solve_and_oracle(self):
        p = sin_problem(n=8, b=1.0, dim=2)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y, rep = solve_quasilinear(p, u)
        assert rep.converged
        oracle = newton_state_oracle(p, u, warm_start=y)
        assert np.max(np.abs(y.values - oracle)) <= 1e-7


class TestUniqueness:
    def test_linear_passes(self):
        cs = co.CoefficientSet(**{**co.a_zero(), **co.f_tanh()})
        p = QuasilinearStateProblem(grid.build_mesh(1, 16), cs, b=1.0)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        assert verify_uniqueness(p, u, trials=3).passed

    def test_sin_gradient_five_starts(self):
        p = sin_problem(n=64)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        rep = verify_uniqueness(p, u, trials=5)
        assert rep.passed

    def test_below_threshold_refusal_is_construction_time(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        with pytest.raises(ValueError):
            QuasilinearStateProblem(
                grid.build_mesh(1, 8), cs, b=uniqueness_threshold(1.0) / 2
            )


class TestAprioriBound:
    def test_zero_source(self):
        p = sin_problem(n=16)
        pz = QuasilinearStateProblem(p.mesh, p.cs.merged(**co.f_zero()), b=1.0)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        bound, holds = apriori_gradient_bound(pz, u)
        assert bound == 0.0
        assert holds

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
    def test_sin_gradient_ratio_below_one(self, dim, n):
        p = sin_problem(n=n, dim=dim)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        bound, holds = apriori_gradient_bound(p, u)
        assert holds
        y, _ = solve_quasilinear(p, u)
        assert grid.h1_seminorm(y) / bound < 1.0

    def test_hypothesis_boundary_rejected(self):
        # declared growth constant C = 2 with b = 1 puts 1 - C^2/(4b) at zero
        cs = co.CoefficientSet(
            c=1.0, C=2.0, **{**co.a_sin_gradient(1.0), **co.f_tanh()}
        )
        p = QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=1.0)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        with pytest.raises(ValueError):
            apriori_gradient_bound(p, u)
