"""Zarantonello iteration for strictly monotone fluxes."""

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid
from qlcontrol.grid import ScalarField
from qlcontrol.state_monotone import (
    MonotoneStateProblem,
    interior_jacobian,
    solve_monotone,
    theoretical_contraction,
    verify_limit_identity,
)
from qlcontrol.state_quasilinear import poincare_constant

from oracles import laplacian, newton_state_oracle


def identity_problem(n=32, dim=1):
    cs = co.make_perturbed_linear(1.0).merged(
        f=lambda u: np.ones_like(np.asarray(u, dtype=float))
    )
    return MonotoneStateProblem(grid.build_mesh(dim, n), cs)


def perturbed_problem(n=32, dim=1):
    cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5).merged(
        **co.f_linear()
    )
    return MonotoneStateProblem(grid.build_mesh(dim, n), cs)


class TestSolveMonotone:
    def test_identity_single_step(self):
        p = identity_problem()
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        y, rep = solve_monotone(p, u)
        ref = grid.helmholtz_solve(0.0, ScalarField(p.mesh, np.ones(p.mesh.n_nodes)))
        assert rep.iterations == 1
        assert rep.residual <= 1e-8
        assert np.max(np.abs(y.values - ref.values)) <= 1e-10

    def test_zero_source_zero_solution(self):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5).merged(
            **co.f_zero()
        )
        p = MonotoneStateProblem(grid.build_mesh(1, 16), cs)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y, _ = solve_monotone(p, u)
        assert np.max(np.abs(y.values)) <= 1e-12

    def test_perturbed_linear_vs_newton_oracle(self):
        p = perturbed_problem()
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y, rep = solve_monotone(p, u)
        assert rep.converged
        oracle = newton_state_oracle(p, u, warm_start=y)
        assert np.max(np.abs(y.values - oracle)) <= 1e-6

    def test_contraction_bound(self):
        p = perturbed_problem()
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        _, rep = solve_monotone(p, u)
        tau = p.default_step()
        bound = theoretical_contraction(p.cs.c, p.cs.C, tau)
        assert rep.contraction_ratio <= bound + 1e-3

    def test_initialization_independence(self):
        p = perturbed_problem(n=16)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        rng = np.random.default_rng(8)
        sols = []
        for _ in range(2):
            y0 = rng.standard_normal(p.mesh.n_nodes)
            y0[p.mesh.boundary_mask] = 0.0
            y, _ = solve_monotone(p, u, y0=ScalarField(p.mesh, y0))
            sols.append(y.values)
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-6

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_apriori_h1_bound(self, dim, n):
        p = perturbed_problem(n=n, dim=dim)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y, _ = solve_monotone(p, u)
        fvals = np.asarray(p.cs.f(u.values), dtype=float)
        fnorm = grid.l2_norm(ScalarField(p.mesh, fvals))
        bound = poincare_constant(p.mesh) * fnorm / p.cs.c + 1.0
        assert grid.h1_seminorm(y) <= bound


class TestLimitIdentity:
    def test_converged_linear_passes(self):
        p = identity_problem()
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        y, _ = solve_monotone(p, u)
        assert verify_limit_identity(p, y, u).passed

    def test_perturbed_node_fails(self):
        p = identity_problem()
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        y, _ = solve_monotone(p, u)
        bad = np.array(y.values)
        bad[p.mesh.n_nodes // 2] += 0.05
        assert not verify_limit_identity(p, ScalarField(p.mesh, bad), u).passed

    def test_perturbed_linear_passes(self):
        p = perturbed_problem()
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y, _ = solve_monotone(p, u, tol=1e-10)
        assert verify_limit_identity(p, y, u).passed


class TestInteriorJacobian:
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 5)])
    def test_matches_central_differences_of_the_residual(self, dim, n):
        p = perturbed_problem(n=n, dim=dim)
        mesh = p.mesh
        u = ScalarField(mesh, np.random.default_rng(0).standard_normal(mesh.n_nodes))
        y, _ = solve_monotone(p, u, tol=1e-11)
        K = interior_jacobian(p, y.values)

        def residual(z):
            return -grid.divergence_weak_values(mesh, p.cs.A(grid.gradient_values(mesh, z)))

        interior = mesh.interior_indices
        want = np.empty_like(K)
        for k, i in enumerate(interior):
            e = np.zeros(mesh.n_nodes)
            e[i] = 1e-6
            want[:, k] = (residual(y.values + e) - residual(y.values - e))[interior] / 2e-6
        assert np.max(np.abs(K - want)) <= 1e-7 * np.max(np.abs(want))
        # strong monotonicity: sym(K) >= c (-lap_h)
        lap = grid.interior_matrix(mesh, lambda E: -laplacian(dim, n, E))
        gap = 0.5 * (K + K.T) - p.cs.c * lap
        assert np.min(np.linalg.eigvalsh(gap)) >= -1e-9 * np.max(np.abs(lap))


class TestValidation:
    def test_bad_constants_rejected_at_construction(self):
        cs = co.make_perturbed_linear(1.0).merged(c=2.0, C=2.5, **co.f_linear())
        with pytest.raises(ValueError):
            MonotoneStateProblem(grid.build_mesh(1, 8), cs)

    def test_step_that_overflows_rejected_at_construction(self):
        # C = 1e200 is finite, but C**2 overflows the float range, so the
        # step c/C^2 has no value and the build must fail, not the first solve
        cs = co.make_perturbed_linear(1.0).merged(C=1e200, **co.f_linear())
        with pytest.raises(ValueError, match="^the step c/C\\^2 must be positive and "
                           "finite, got c=1.0, C=1e\\+200$"):
            MonotoneStateProblem(grid.build_mesh(1, 8), cs)

    def test_missing_source_rejected(self):
        with pytest.raises(ValueError):
            MonotoneStateProblem(grid.build_mesh(1, 8), co.make_perturbed_linear(1.0))
