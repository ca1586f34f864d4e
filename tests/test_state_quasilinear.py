"""Picard iteration for the quasilinear state equation and its certificates."""

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid, instances
from qlcontrol.grid import ScalarField
from qlcontrol.reports import NonConvergenceError
from qlcontrol.state_monotone import MonotoneStateProblem, solve_monotone
from qlcontrol.state_quasilinear import (
    QuasilinearStateProblem,
    apriori_gradient_bound,
    interior_jacobian,
    solve_quasilinear,
    strong_residual,
    uniqueness_threshold,
    verify_uniqueness,
)

from oracles import laplacian, newton_state_oracle


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

    # a NaN reached the run: both checks were written as comparisons that a
    # NaN never meets (`L > 0.0 and not b > L^2/4`, `worst > 1e-10`)
    def test_nan_lipschitz_constant_rejected(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        object.__setattr__(cs, "L", np.nan)  # past CoefficientSet's own check
        with pytest.raises(ValueError, match="^L must be nonnegative, got nan$"):
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=1.0)

    def test_missing_a_rejected_naming_a_zero(self):
        cs = co.CoefficientSet(**co.f_tanh())
        with pytest.raises(ValueError, match=r"needs the gradient nonlinearity a .*a_zero\(\)"):
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=1.0)

    def test_nan_sample_of_a_fails_the_growth_check(self):
        a = lambda Y: np.where(Y[:, 0] > 5.0, np.nan, 0.0)  # noqa: E731
        cs = co.CoefficientSet(a=a, L=1.0, **co.f_tanh())
        with pytest.raises(ValueError, match=r"^\|a\(y\)\| <= C\|y\| fails on samples by nan"):
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=1.0)

    def test_margin_warning_close_to_threshold(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        with pytest.warns(UserWarning):
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=0.26)

    def test_margin_warning_names_the_caller(self):
        # it named the __init__ that dataclass generates, "<string>"
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        with pytest.warns(UserWarning) as record:
            QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=0.26)
        assert record[0].filename == __file__


# (message, source map f, b) of each documented input check of
# QuasilinearStateProblem, on a of Lipschitz constant 1
_INPUT_CHECKS = {
    "no-f": ("^quasilinear problem needs the source map f$", {}, 1.0),
    "b-negative": ("^b must be a finite nonnegative real, got -1.0$", co.f_tanh(), -1.0),
    "b-infinite": ("^b must be a finite nonnegative real, got inf$", co.f_tanh(), np.inf),
    # infinite past u = 500 without an overflow warning
    "f-not-finite": ("^f is not finite on the sampled control range$",
                     {"f": lambda u: np.where(u > 500.0, np.inf, u)}, 1.0),
}


@pytest.mark.parametrize("case", list(_INPUT_CHECKS))
def test_input_checks(case):
    message, f, b = _INPUT_CHECKS[case]
    cs = co.CoefficientSet(**co.a_sin_gradient(1.0), **f)
    with pytest.raises(ValueError, match=message):
        QuasilinearStateProblem(grid.build_mesh(1, 8), cs, b=b)


class TestSolveQuasilinear:
    def test_stall_at_the_floor_does_not_blame_b(self):
        # b = 1 is four times the threshold 1/4: the increments stall at
        # their rounding floor, far above 1e-300, and only a column that
        # runs to the cap can blame b
        mesh = grid.build_mesh(1, 32)
        p = instances.build_state_problem("sin-gradient-1d", mesh)
        with pytest.raises(NonConvergenceError) as exc:
            solve_quasilinear(p, ScalarField(mesh, np.ones(mesh.n_nodes)), tol=1e-300)
        rep, message = exc.value.report, str(exc.value)
        assert rep.iterations < 10_000
        assert "floor" in message and "b may barely exceed" not in message
        assert message.endswith(f"floor after {rep.iterations} steps "
                                f"(last increment {rep.extras['final_increment']:.3e})")

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
        want = -laplacian(dim, n, y) + a_nodes + p.b * y - fvals
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
        csm = co.make_perturbed_linear(1.0).merged(**co.f_tanh())
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


def fd_jacobian(residual, y, mesh, step=1e-6):
    """Central differences of a nodal residual in each interior value of y,
    restricted to the interior rows."""
    interior = mesh.interior_indices
    cols = []
    for i in interior:
        e = np.zeros(mesh.n_nodes)
        e[i] = step
        cols.append((residual(y + e) - residual(y - e))[interior] / (2 * step))
    return np.column_stack(cols)


class TestInteriorJacobian:
    """The dense Jacobian behind the adjoint cost gradient."""

    @staticmethod
    def residual(p):
        # -lap_h y + C2N a(grad y) + b y, from the grid operators
        mesh = p.mesh

        def r(y):
            g = grid.gradient_values(mesh, y)
            a = p.cs.a(g) if p.cs.a is not None else np.zeros(mesh.n_cells)
            return (-grid.divergence_weak_values(mesh, g) + p.b * y
                    + grid.cell_to_node_values(mesh, a))

        return r

    @pytest.mark.parametrize("dim,n,kappa", [(1, 16, 1.0), (2, 6, 1.0), (1, 12, 0.0)])
    def test_matches_central_differences_of_the_residual(self, dim, n, kappa):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(kappa), **co.f_tanh()})
        p = QuasilinearStateProblem(grid.build_mesh(dim, n), cs, b=1.0)
        u = ScalarField(p.mesh, np.random.default_rng(0).standard_normal(p.mesh.n_nodes))
        y, _ = solve_quasilinear(p, u, tol=1e-12)
        K = interior_jacobian(p, y.values)
        want = fd_jacobian(self.residual(p), y.values, p.mesh)
        assert np.max(np.abs(K - want)) <= 1e-7 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,n,b", [(1, 32, 2.0), (1, 32, 1.2), (2, 6, 0.3)])
    def test_coercive_above_the_uniqueness_threshold(self, dim, n, b):
        # the completed-squares estimate on the discrete operators: for |a'|
        # <= L, sym(K) >= (1 - L/(2 sqrt b)) (-lap_h + b), at any state
        L = 2.0 if dim == 1 else 1.0
        parts = co.a_cosine_wells(0.4, 5.0) if dim == 1 else co.a_sin_gradient(L)
        cs = co.CoefficientSet(**{**parts, **co.f_tanh()})
        p = QuasilinearStateProblem(grid.build_mesh(dim, n), cs, b=b)
        assert b > uniqueness_threshold(L)
        mesh = p.mesh
        base = grid.interior_matrix(mesh, lambda E: p.b * E - laplacian(dim, n, E))
        rng = np.random.default_rng(1)
        for _ in range(3):
            y = 2.0 * rng.standard_normal(mesh.n_nodes)
            y[mesh.boundary_mask] = 0.0
            K = interior_jacobian(p, y)
            gap = 0.5 * (K + K.T) - (1.0 - L / (2.0 * np.sqrt(b))) * base
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-9 * np.max(np.abs(base))


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
