"""Mesh, discrete operators, Helmholtz backbone and quadrature."""

import dataclasses
import inspect
import os
import re
import sys

import numpy as np
import pytest

from qlcontrol import (coefficients, control_opt, grid, instances, relaxed_opt, reports,
                       state_monotone, state_quasilinear, state_variational, young_measure)
from qlcontrol.control_opt import (OptimizeOptions, _source_kw, minimizing_sequence_demo,
                                   state_solvers)
from qlcontrol.grid import ScalarField, VectorField
from qlcontrol.relaxed_opt import certify_gap
from qlcontrol.state_variational import verify_minimality

from oracles import helmholtz_1d, helmholtz_matrix_2d, laplacian


class TestBuildMesh:
    def test_interval(self):
        mesh = grid.build_mesh(1, 4)
        assert mesh.h == 0.25
        assert mesh.n_nodes == 5
        assert mesh.n_cells == 4
        assert list(np.flatnonzero(mesh.boundary_mask)) == [0, 4]
        # derived from the mesh, not a constructor argument
        with pytest.raises(TypeError):
            grid.Mesh(1, 4, np.zeros(5, dtype=bool))

    def test_square_counts(self):
        mesh = grid.build_mesh(2, 3)
        assert mesh.n_nodes == 16
        assert mesh.n_cells == 9
        assert int(np.sum(mesh.boundary_mask)) == 12

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            grid.build_mesh(1, 1)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            grid.build_mesh(3, 4)


def _problem(name):
    cp = instances.build_control_problem(name, grid.build_mesh(1, 8))
    return cp, ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))


def _solve_capped(name, cap):
    # a solver's cap is its module's constant, checked by the driver
    cp, u = _problem(name)
    solve = state_solvers(cp.regime)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f"{solve.__module__}._MAX_ITERATIONS", cap)
        solve(cp.state, u, **_source_kw(cp.state, u.values))


def _uniqueness(trials):
    cp, u = _problem("sin-gradient-1d")
    state_quasilinear.verify_uniqueness(cp.state, u, trials=trials)


def _minimality(trials):
    cp, u = _problem("variational-quartic-1d")
    verify_minimality(cp.state, u, u, trials=trials)


def _two_atom():
    return young_measure.uniform_two_atom(grid.build_mesh(1, 4), -1.0, 1.0, 0.5)


def _gap_problem():
    return instances.build_relaxed_problem("gap-family-1d", grid.build_mesh(1, 8))[0]


def _sampled_check(check, **count):
    # the W checks need an inner energy, the others a flux
    cs = (coefficients.CoefficientSet(**coefficients.w_quadratic()) if "_w_" in check
          else coefficients.make_perturbed_linear(1.0))
    return getattr(coefficients, check)(cs, **count)


# (name, low, call) of every count argument that grid.check_count guards
_COUNTS = {
    "realize_sequence-j": ("j", 1, lambda v: young_measure.realize_sequence(_two_atom(), v)),
    "minimizing_sequence_demo-js": ("j", 1, lambda v: minimizing_sequence_demo(
        _problem("gap-family-1d")[0], [v])),
    "certify_gap-samples": ("samples", 0, lambda v: certify_gap(_gap_problem(), samples=v)),
    "certify_gap-seed": ("seed", 0, lambda v: certify_gap(_gap_problem(), seed=v)),
    "OptimizeOptions-max_iterations": ("max_iterations", 0,
                                       lambda v: OptimizeOptions(max_iterations=v)),
    "verify_uniqueness-trials": ("trials", 0, _uniqueness),
    "verify_minimality-trials": ("trials", 0, _minimality),
    **{f"{solver}-max_iterations": ("max_iterations", 0,
                                    lambda v, name=name: _solve_capped(name, v))
       for solver, name in (("solve_state", "variational-quartic-1d"),
                            ("solve_monotone", "monotone-perturbed-1d"),
                            ("solve_quasilinear", "sin-gradient-1d"))},
    "build_mesh-dimension": ("dimension", 1, lambda v: grid.build_mesh(v, 4)),
    "build_mesh-cells_per_axis": ("cells_per_axis", 1, lambda v: grid.build_mesh(1, v)),
    **{f"{check}-{arg}": (arg, low, lambda v, check=check, arg=arg: _sampled_check(
        check, **{arg: v}))
       for check in ("check_monotonicity", "check_growth", "check_w_growth",
                     "check_w_convexity")
       for arg, low in (("samples", 1), ("seed", 0))},
}


@pytest.mark.parametrize("case", list(_COUNTS))
@pytest.mark.parametrize("value", [True, 2.5, "below"])
def test_count_arguments_take_one_rule(case, value):
    # a bool or 2.5 was truncated, run as its integer, or failed inside numpy
    name, low, call = _COUNTS[case]
    if value == "below":
        value = low - 1
    kind = "positive" if low else "non-negative"
    message = f"^{name} must be a {kind} integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


# the parameters of every function with a fixed setting (a cap, step, seed,
# radius or measure that no caller changes, kept as a constant), so that a
# setting that becomes a parameter again shows up here
_PARAMETERS = {
    state_variational.solve_state: "p u tol y0 source",
    state_variational.solve_state_columns: "p u y0 source tol",
    state_variational.verify_minimality: "p y_u u trials",
    state_monotone.solve_monotone: "p u tol y0",
    state_monotone.solve_monotone_columns: "p u tol y0",
    state_quasilinear.solve_quasilinear: "p u tol y0",
    state_quasilinear.solve_quasilinear_columns: "p u tol y0",
    state_quasilinear.verify_uniqueness: "p u trials",
    young_measure.realize_sequence: "ym j",
    coefficients.check_monotonicity: "cs samples seed dim",
    coefficients.check_growth: "cs samples seed dim",
    coefficients.check_w_growth: "cs samples seed dim",
    coefficients.check_w_convexity: "cs samples seed dim",
    coefficients.check_band: "cs",
    coefficients.a_sin_gradient: "kappa",
    coefficients.a_clamped_linear: "kappa",
    coefficients.a_cosine_wells: "kappa omega",
    coefficients.cost_tracking: "target",
    coefficients.cost_shortfall: "",
    grid.ScalarField.is_dirichlet_zero: "self",
    coefficients.w_quartic_clamped: "",
    control_opt.minimizing_sequence_demo: "cp j_list",
    relaxed_opt._smooth_random_controls: "mesh samples seed",
    reports.NonConvergenceError.__init__: "self message report",
    control_opt._descend: "x base gradient score norm2 opts method clip label",
    state_variational._energy_gradient: "p Gy ucell source",
    state_variational._polish: "p y data tol",
    grid.l2_norm_values: "mesh v",
    grid.sq_norm_values: "mesh v",
    grid.cell_sq_norm_values: "mesh g",
}


def test_fixed_settings_are_not_parameters():
    assert {f.__qualname__: " ".join(inspect.signature(f).parameters) for f in _PARAMETERS} == {
        f.__qualname__: names for f, names in _PARAMETERS.items()}


def test_data_that_every_caller_passes_has_no_default():
    # b of a quasilinear problem, one source per stacked control, and the
    # report of a failed solve
    for f, name in [(state_quasilinear.QuasilinearStateProblem, "b"),
                    (state_variational.solve_state_columns, "source"),
                    (reports.NonConvergenceError.__init__, "report")]:
        default = inspect.signature(f).parameters[name].default
        assert default is inspect.Parameter.empty, (f.__qualname__, name)
    # failed is read off the certificates and note is a constant
    assert [f.name for f in dataclasses.fields(reports.RelaxationReport)] == [
        "best_classical", "relaxed", "dirac_residual", "certificates", "classical",
        "relaxed_run", "minimizer"]


def test_fields_hold_only_what_is_read():
    # a ScalarField is nodal, and no reader wants a run's wall time
    assert [f.name for f in dataclasses.fields(ScalarField)] == ["mesh", "values"]
    assert "wall_time" not in [f.name for f in dataclasses.fields(reports.SolveReport)]
    # each state problem names its regime, a class constant and no field
    for cls, regime in [(state_variational.VariationalStateProblem, "variational"),
                        (state_monotone.MonotoneStateProblem, "monotone"),
                        (state_quasilinear.QuasilinearStateProblem, "quasilinear")]:
        assert cls.regime == regime
        assert "regime" not in [f.name for f in dataclasses.fields(cls)]


def test_names_no_caller_needs_are_gone():
    gone = {grid: ("node_to_cell", "cell_to_node", "integrate_nodal"),
            grid.Mesh: ("cell_centers",),
            control_opt: ("evaluate_costs", "_score_trials", "REGIMES"),
            instances: ("GAP_CAP",),
            state_variational: ("residual_norm",)}
    assert [(m.__name__, n) for m, names in gone.items() for n in names if hasattr(m, n)] == []


class TestGradient:
    def test_affine_exact(self):
        mesh = grid.build_mesh(1, 7)
        x = mesh.node_coords()[:, 0]
        g = grid.gradient(ScalarField(mesh, 3.0 * x - 1.0))
        assert np.allclose(g.values[:, 0], 3.0, atol=1e-14)

    def test_zero(self):
        mesh = grid.build_mesh(2, 4)
        g = grid.gradient(ScalarField(mesh, np.zeros(mesh.n_nodes)))
        assert np.all(g.values == 0.0)

    def test_quadratic_hand_values(self):
        mesh = grid.build_mesh(1, 4)
        x = mesh.node_coords()[:, 0]
        g = grid.gradient(ScalarField(mesh, x * x))
        assert np.allclose(g.values[:, 0], [0.25, 0.75, 1.25, 1.75], atol=1e-14)

    def test_affine_exact_2d(self):
        mesh = grid.build_mesh(2, 5)
        xy = mesh.node_coords()
        g = grid.gradient(ScalarField(mesh, 2.0 * xy[:, 0] - 0.5 * xy[:, 1]))
        assert np.allclose(g.values[:, 0], 2.0, atol=1e-13)
        assert np.allclose(g.values[:, 1], -0.5, atol=1e-13)


class TestDivergenceWeak:
    def test_constant_field_divergence_free(self):
        for dim in (1, 2):
            mesh = grid.build_mesh(dim, 5)
            q = VectorField(mesh, np.ones((mesh.n_cells, dim)))
            d = grid.divergence_weak(q)
            interior = ~mesh.boundary_mask
            assert np.max(np.abs(d.values[interior])) == 0.0

    @pytest.mark.parametrize("dim,n,seed", [(1, 9, 0), (1, 17, 1), (2, 4, 2), (2, 8, 3)])
    def test_adjoint_identity_random(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        mesh = grid.build_mesh(dim, n)
        q = VectorField(mesh, rng.standard_normal((mesh.n_cells, dim)))
        zv = rng.standard_normal(mesh.n_nodes)
        zv[mesh.boundary_mask] = 0.0
        z = ScalarField(mesh, zv)
        lhs = grid.inner(grid.divergence_weak(q), z)
        rhs = -grid.inner(q, grid.gradient(z))
        assert abs(lhs - rhs) <= 1e-12 * grid.l2_norm(q) * grid.l2_norm(z) + 1e-15

    def test_sin_instance(self):
        mesh = grid.build_mesh(1, 64)
        x = mesh.node_coords()[:, 0]
        y = ScalarField(mesh, np.sin(np.pi * x))
        q = grid.gradient(y)
        val = grid.inner(grid.divergence_weak(q), y)
        assert abs(val + grid.l2_norm(q) ** 2) <= 1e-12


class TestGradientTranspose:
    @pytest.mark.parametrize("dim,n,seed", [(1, 9, 0), (1, 17, 1), (2, 4, 2), (2, 8, 3)])
    def test_plain_transpose_on_every_node(self, dim, n, seed):
        # <G^T q, z> = <q, G z> in plain dot products, boundary nodes included
        rng = np.random.default_rng(seed)
        mesh = grid.build_mesh(dim, n)
        q = rng.standard_normal((mesh.n_cells, dim))
        z = rng.standard_normal(mesh.n_nodes)
        gt = grid.gradient_transpose_values(mesh, q)
        lhs, rhs = gt @ z, np.sum(q * grid.gradient_values(mesh, z))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
        # the dense matrix, column by column
        G = grid.gradient_values(mesh, np.eye(mesh.n_nodes)).reshape(mesh.n_nodes, -1)
        assert np.allclose(gt, G @ q.ravel(), rtol=0, atol=1e-12 / mesh.h)
        # minus divergence_weak on the interior
        interior = mesh.interior_indices
        dw = grid.divergence_weak_values(mesh, q)
        assert np.allclose(gt[interior], -dw[interior], rtol=0, atol=1e-12 / mesh.h)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_rows_equal_single_calls(self, dim):
        mesh = grid.build_mesh(dim, 6)
        Q = np.random.default_rng(4).standard_normal((2, 3, mesh.n_cells, dim))
        out = grid.gradient_transpose_values(mesh, Q)
        assert out.shape == (2, 3, mesh.n_nodes)
        assert np.array_equal(out[1, 2], grid.gradient_transpose_values(mesh, Q[1, 2]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_interior_matrix_of_the_laplacian(self, dim):
        mesh = grid.build_mesh(dim, 6)
        K = grid.interior_matrix(mesh, lambda E: -laplacian(dim, 6, E))
        interior = mesh.interior_indices
        z = np.zeros(mesh.n_nodes)
        z[interior] = np.random.default_rng(5).standard_normal(interior.size)
        assert np.allclose(K @ z[interior], -laplacian(dim, 6, z)[interior])
        assert np.allclose(K, K.T)


def identity_column_matrix(mesh, apply):
    """The interior matrix of a linear map from its image of every interior
    identity column."""
    interior = mesh.interior_indices
    E = np.zeros((interior.size, mesh.n_nodes))
    E[np.arange(interior.size), interior] = 1.0
    return apply(E)[:, interior].T


class TestInteriorMatrix:
    @pytest.mark.parametrize("name, dim, n", [
        ("sin-gradient-1d", 1, 16),
        ("gap-family-1d", 1, 128),
        ("sin-gradient-2d", 2, 16),
        ("sin-gradient-2d", 2, 32),
        ("monotone-perturbed-1d", 1, 32),
    ])
    def test_colored_jacobian_equals_identity_columns(self, monkeypatch, name, dim, n):
        # the linearized residuals couple nodes within one step per axis, so
        # one apply on the 3^d comb vectors holds every column's stencil
        p = instances.build_state_problem(name, grid.build_mesh(dim, n))
        module = state_monotone if name == "monotone-perturbed-1d" else state_quasilinear
        mesh = p.mesh
        y = np.random.default_rng(n).standard_normal(mesh.n_nodes)
        y[mesh.boundary_mask] = 0.0
        colored = grid.interior_matrix
        shapes, applies = [], []

        def spy(mesh_, apply):
            applies.append(apply)

            def counted(E):
                shapes.append(E.shape)
                return apply(E)

            return colored(mesh_, counted)

        monkeypatch.setattr(grid, "interior_matrix", spy)
        K = module.interior_jacobian(p, y)
        assert shapes == [(3**dim, mesh.n_nodes)]
        assert np.array_equal(K, identity_column_matrix(mesh, applies[0]))

    @pytest.mark.parametrize("dim, n", [(1, 2), (1, 4), (2, 2), (2, 4)])
    def test_meshes_of_few_nodes_probe_identity_columns(self, dim, n):
        mesh = grid.build_mesh(dim, n)
        shapes = []

        def apply(E):
            shapes.append(E.shape)
            return -laplacian(dim, n, E)

        K = grid.interior_matrix(mesh, apply)
        # at most 3^d interior nodes: one identity column each
        assert shapes == [(mesh.interior_indices.size, mesh.n_nodes)]
        assert np.array_equal(K, identity_column_matrix(mesh, lambda E: -laplacian(dim, n, E)))


class TestHelmholtz:
    def test_zero_rhs(self):
        mesh = grid.build_mesh(2, 6)
        y = grid.helmholtz_solve(2.0, ScalarField(mesh, np.zeros(mesh.n_nodes)))
        assert np.all(y.values == 0.0)

    def test_poisson_analytic(self):
        mesh = grid.build_mesh(1, 64)
        x = mesh.node_coords()[:, 0]
        y = grid.helmholtz_solve(0.0, ScalarField(mesh, np.ones(mesh.n_nodes)))
        assert np.max(np.abs(y.values - x * (1 - x) / 2)) <= 1e-3

    def test_helmholtz_analytic(self):
        mesh = grid.build_mesh(1, 64)
        x = mesh.node_coords()[:, 0]
        y = grid.helmholtz_solve(1.0, ScalarField(mesh, np.ones(mesh.n_nodes)))
        exact = 1 - np.cosh(x - 0.5) / np.cosh(0.5)
        assert np.max(np.abs(y.values - exact)) <= 1e-3

    def test_second_order_convergence(self):
        errs = []
        for n in (32, 64, 128):
            mesh = grid.build_mesh(1, n)
            x = mesh.node_coords()[:, 0]
            y = grid.helmholtz_solve(1.0, ScalarField(mesh, np.ones(mesh.n_nodes)))
            errs.append(np.max(np.abs(y.values - (1 - np.cosh(x - 0.5) / np.cosh(0.5)))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_linearity(self):
        rng = np.random.default_rng(7)
        mesh = grid.build_mesh(2, 7)
        f = rng.standard_normal(mesh.n_nodes)
        g = rng.standard_normal(mesh.n_nodes)
        a, b = 1.7, -0.4
        lhs = grid.helmholtz_solve(3.0, ScalarField(mesh, a * f + b * g)).values
        rhs = (
            a * grid.helmholtz_solve(3.0, ScalarField(mesh, f)).values
            + b * grid.helmholtz_solve(3.0, ScalarField(mesh, g)).values
        )
        scale = np.max(np.abs(rhs)) + 1e-300
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2])
    def test_maximum_principle(self, dim):
        rng = np.random.default_rng(11)
        mesh = grid.build_mesh(dim, 8)
        rhs = rng.random(mesh.n_nodes)  # nonnegative
        y = grid.helmholtz_solve(0.5, ScalarField(mesh, rhs))
        assert np.min(y.values) >= -1e-12

    def test_nonfinite_rhs_rejected(self):
        mesh = grid.build_mesh(1, 4)
        bad = np.ones(mesh.n_nodes)
        bad[2] = np.nan
        with pytest.raises(ValueError):
            grid.helmholtz_solve(1.0, ScalarField(mesh, bad))

    def test_negative_b_rejected(self):
        mesh = grid.build_mesh(1, 4)
        with pytest.raises(ValueError):
            grid.helmholtz_solve(-1.0, ScalarField(mesh, np.ones(mesh.n_nodes)))

    @pytest.mark.parametrize("dim,n,length", [(1, 16, 22), (1, 16, 10), (2, 4, 26), (2, 4, 24)])
    def test_wrong_length_rhs_rejected(self, dim, n, length):
        mesh = grid.build_mesh(dim, n)
        with pytest.raises(ValueError, match="right-hand side has shape"):
            grid.helmholtz_solve_values(mesh, 1.0, np.ones(length))
        with pytest.raises(ValueError, match="right-hand side has shape"):
            grid.helmholtz_solve_values(mesh, 1.0, np.ones((3, length)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_rhs_match_single_solves(self, dim):
        rng = np.random.default_rng(23)
        # 1D: a dense Green's function at n = 8, its sweeps at 200 and 1024
        for n in (8, 200, 1024) if dim == 1 else (8,):
            mesh = grid.build_mesh(dim, n)
            rhs = rng.standard_normal((2, 3, mesh.n_nodes))
            stacked = grid.helmholtz_solve_values(mesh, 1.5, rhs)
            assert stacked.shape == rhs.shape
            for idx in np.ndindex(2, 3):
                single = grid.helmholtz_solve_values(mesh, 1.5, rhs[idx])
                # one matrix-vector product or two per-row sweeps (1D), or
                # one matrix product chain (2D), per column either way
                assert np.array_equal(stacked[idx], single)

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    @pytest.mark.parametrize("b", [0.0, 1.5, 4.0])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3), (0,)])
    def test_2d_matches_dense_stencil_oracle(self, n, b, lead):
        # n = 2 leaves a single interior node
        mesh = grid.build_mesh(2, n)
        interior = mesh.interior_indices
        rhs = np.random.default_rng(n).standard_normal(lead + (mesh.n_nodes,))
        cols = rhs[..., interior].reshape(-1, interior.size).T
        want = np.zeros(rhs.shape)
        want[..., interior] = np.linalg.solve(helmholtz_matrix_2d(n, b), cols).T.reshape(
            lead + (interior.size,)
        )
        got = grid.helmholtz_solve_values(mesh, b, rhs)
        assert got.shape == rhs.shape
        err = np.max(np.abs(got - want), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("n", [6, 16, 32])
    @pytest.mark.parametrize("lead", [(), (0,), (1,), (5,), (2, 3)])
    def test_2d_block_matches_index_array_formula(self, n, lead):
        # 2D gathers and scatters the interior as the block [1:-1, 1:-1] of
        # the node grid; the same bits as through the interior index array,
        # for a contiguous and a strided right-hand side
        mesh = grid.build_mesh(2, n)
        interior = mesh.interior_indices
        S, lam0 = grid._sine_basis_2d(mesh)
        rng = np.random.default_rng(n + len(lead))
        strided = rng.standard_normal((mesh.n_nodes,) + lead[::-1]).T
        for rhs in (np.ascontiguousarray(strided), strided):
            F = rhs[..., interior].reshape(lead + lam0.shape)
            want = np.zeros(rhs.shape)
            want[..., interior] = (S @ ((S @ F @ S) / (lam0 + 1.5)) @ S).reshape(
                lead + (interior.size,))
            assert np.array_equal(grid.helmholtz_solve_values(mesh, 1.5, rhs), want)

    def test_2d_b_sweep_builds_one_cache_entry(self, monkeypatch):
        # the 2D cache entry depends on the mesh alone; b enters per solve
        monkeypatch.setattr(grid, "_FACTOR_CACHE", {})
        mesh = grid.build_mesh(2, 8)
        rhs = np.ones(mesh.n_nodes)
        for b in np.linspace(0.0, 4.0, 100):
            grid.helmholtz_solve_values(mesh, b, rhs)
        assert len(grid._FACTOR_CACHE) == 1

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3), (0,)])
    def test_1d_slice_matches_fancy_index_reference(self, lead):
        # 1D gathers and scatters the interior by the slice 1:-1; a strided
        # right-hand side gives the same bits as its contiguous copy, on
        # either side of the dense Green's function's size limit
        rng = np.random.default_rng(len(lead))
        for n in (16, 200):
            mesh = grid.build_mesh(1, n)
            strided = rng.standard_normal((mesh.n_nodes,) + lead[::-1]).T
            contiguous = np.ascontiguousarray(strided)
            got = grid.helmholtz_solve_values(mesh, 1.5, strided)
            assert got.shape == strided.shape
            assert np.array_equal(got, grid.helmholtz_solve_values(mesh, 1.5, contiguous))
            assert np.all(got[..., mesh.boundary_mask] == 0.0)
            want = helmholtz_1d(n, 1.5, strided)
            err = np.max(np.abs(got - want), initial=0.0)
            assert err <= 1e-13 * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("n", [2, 3, 16, 127, 128, 129, 1024, 4096])
    @pytest.mark.parametrize("b", [0.0, 1.5, 30.0, 1e6])
    def test_1d_matches_extended_precision_oracle(self, n, b):
        mesh = grid.build_mesh(1, n)
        x = mesh.node_coords()[:, 0]
        point = np.zeros(mesh.n_nodes)
        point[n // 3 + 1] = 1.0
        rhs = np.stack([
            np.random.default_rng(n).standard_normal(mesh.n_nodes),
            np.sin(np.pi * x) + x**2,
            (-1.0) ** np.arange(mesh.n_nodes),
            point,
        ])
        got = grid.helmholtz_solve_values(mesh, b, rhs)
        want = helmholtz_1d(n, b, rhs)
        err = np.max(np.abs(got - want), axis=-1) / np.max(np.abs(want), axis=-1)
        # the oscillating right-hand side costs most: about 1e-11 at n = 4096
        assert np.max(err) <= (1e-12 if n <= 256 else 1e-9)

    @pytest.mark.parametrize("n", [16, 128, 32768])
    @pytest.mark.parametrize("b", [0.0, 5e-324, 1.0, 1e6, 1e12])
    def test_1d_extreme_b_solves_to_rounding(self, n, b):
        # the Green's function neither overflows (large n theta) nor loses
        # itself to 0/0 (theta near underflow)
        mesh = grid.build_mesh(1, n)
        rhs = np.random.default_rng(5).standard_normal(mesh.n_nodes)
        y = grid.helmholtz_solve_values(mesh, b, rhs)
        assert np.all(np.isfinite(y))
        h2 = mesh.h**2
        yi = y[1:-1]
        resid = (2.0 * yi - y[:-2] - y[2:]) / h2 + b * yi - rhs[1:-1]
        # normwise backward error: the residual against |rhs| + |A| |y|
        scale = np.max(np.abs(rhs)) + (4.0 / h2 + b) * np.max(np.abs(y))
        assert np.max(np.abs(resid)) <= 1e-13 * scale
        # stacks of two rows and of none take the same path
        stack = grid.helmholtz_solve_values(mesh, b, np.stack([rhs, -rhs]))
        assert np.array_equal(stack, np.stack([y, -y]))
        empty = np.empty((0, mesh.n_nodes))
        assert grid.helmholtz_solve_values(mesh, b, empty).shape == empty.shape

    def test_1d_b_sweep_keeps_the_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(grid, "_FACTOR_CACHE", {})
        mesh = grid.build_mesh(1, 128)
        rhs = np.random.default_rng(9).standard_normal(mesh.n_nodes)
        bs = np.linspace(0.0, 50.0, 100)
        first = [grid.helmholtz_solve_values(mesh, b, rhs) for b in bs]
        assert len(grid._FACTOR_CACHE) == grid._CACHE_ENTRIES
        # rebuilt entries give the same bits as the dropped ones
        for b, y in zip(bs, first):
            assert np.array_equal(grid.helmholtz_solve_values(mesh, b, rhs), y)
        assert len(grid._FACTOR_CACHE) == grid._CACHE_ENTRIES

    def test_1d_sweep_carry_takes_no_step_per_chunk(self):
        # theta > 300: one node per chunk, 32,767 chunks at n = 32,768
        def sweep_lines(n, b):
            mesh = grid.build_mesh(1, n)
            rhs = np.random.default_rng(3).standard_normal(mesh.n_nodes)
            grid.helmholtz_solve_values(mesh, b, rhs)  # build the weights
            lines = [0]

            def trace(frame, event, arg):
                if frame.f_code is not grid._sweep.__code__:
                    return None

                def count(frame, event, arg):
                    lines[0] += event == "line"
                    return count

                return count

            old = sys.gettrace()
            sys.settrace(trace)
            try:
                y = grid.helmholtz_solve_values(mesh, b, rhs)
            finally:
                sys.settrace(old)
            yi = y[1:-1]
            resid = (2.0 * yi - y[:-2] - y[2:]) * n * n + b * yi - rhs[1:-1]
            scale = np.max(np.abs(rhs)) + (4.0 * n * n + b) * np.max(np.abs(y))
            assert np.max(np.abs(resid)) <= 1e-13 * scale
            return lines[0]

        b = 1.7e308
        short, long = sweep_lines(1024, b), sweep_lines(32768, b)
        # two sweeps with a constant number of lines each, whatever the
        # number of chunks; a loop over chunks takes over 65,000 steps here
        assert short == long
        assert long <= 40

    def test_1d_error_messages(self):
        mesh = grid.build_mesh(1, 8)
        bad = np.ones((2, 9))
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="^non-finite right-hand side$"):
            grid.helmholtz_solve_values(mesh, 1.0, bad)
        with pytest.raises(ValueError, match=r"^right-hand side has shape \(2, 8\), "
                           r"mesh expects \(\.\.\., 9\) nodal values$"):
            grid.helmholtz_solve_values(mesh, 1.0, np.ones((2, 8)))
        with pytest.raises(ValueError, match="^b must be a finite nonnegative real, got -1.0$"):
            grid.helmholtz_solve_values(mesh, -1.0, np.ones(9))

    @pytest.mark.parametrize("dim,b", [(1, 0.0), (1, 2.0), (2, 0.0), (2, 3.0)])
    def test_residual_bound(self, dim, b):
        rng = np.random.default_rng(21)
        mesh = grid.build_mesh(dim, 16)
        rhs = rng.standard_normal(mesh.n_nodes)
        y = grid.helmholtz_solve(b, ScalarField(mesh, rhs))
        op = -laplacian(dim, 16, y.values) + b * y.values
        resid = np.abs(op - rhs)[~mesh.boundary_mask]
        assert np.max(resid) <= 1e-10 * np.max(np.abs(rhs))

    def test_2d_discrete_eigenfunction(self):
        mesh = grid.build_mesh(2, 12)
        xy = mesh.node_coords()
        s = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
        lam = 2.0 * np.sin(np.pi * mesh.h) ** 2 / mesh.h**2
        y = grid.helmholtz_solve(3.0, ScalarField(mesh, (lam + 3.0) * s))
        assert np.max(np.abs(y.values - s)) <= 1e-12


class TestNorms:
    def test_unit_constant(self):
        for dim in (1, 2):
            mesh = grid.build_mesh(dim, 9)
            f = ScalarField(mesh, np.ones(mesh.n_nodes))
            assert abs(grid.l2_norm(f) - 1.0) <= 1e-13

    def test_zero(self):
        mesh = grid.build_mesh(1, 5)
        assert grid.l2_norm(ScalarField(mesh, np.zeros(mesh.n_nodes))) == 0.0

    def test_h1_seminorm_linear(self):
        mesh = grid.build_mesh(1, 16)
        x = mesh.node_coords()[:, 0]
        assert abs(grid.h1_seminorm(ScalarField(mesh, x)) - 1.0) <= 1e-13

    def test_norm_squared_is_inner(self):
        rng = np.random.default_rng(3)
        mesh = grid.build_mesh(2, 5)
        f = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
        assert abs(grid.l2_norm(f) ** 2 - grid.inner(f, f)) <= 1e-13

    def test_mesh_mismatch_rejected(self):
        f = ScalarField(grid.build_mesh(1, 4), np.zeros(5))
        g = ScalarField(grid.build_mesh(1, 8), np.zeros(9))
        with pytest.raises(ValueError):
            grid.inner(f, g)


class TestTransfers:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cell_node_adjointness(self, dim):
        rng = np.random.default_rng(5)
        mesh = grid.build_mesh(dim, 6)
        c = rng.standard_normal(mesh.n_cells)
        z = rng.standard_normal(mesh.n_nodes)
        lhs = grid.inner(
            ScalarField(mesh, grid.cell_to_node_values(mesh, c)), ScalarField(mesh, z)
        )
        rhs = grid.integrate_cells(mesh, c * grid.node_to_cell_values(mesh, z))
        assert abs(lhs - rhs) <= 1e-13


class TestBatchAxes:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_operators_match_single_calls(self, dim):
        rng = np.random.default_rng(29)
        mesh = grid.build_mesh(dim, 6)
        y = rng.standard_normal((4, mesh.n_nodes))
        c = rng.standard_normal((4, mesh.n_cells))
        q = rng.standard_normal((4, mesh.n_cells, dim))
        pairs = [
            (grid.gradient_values, y),
            (grid.node_to_cell_values, y),
            (grid.cell_to_node_values, c),
            (grid.divergence_weak_values, q),
            (lambda m, v: grid.gradient_potential_values(m, v, "h10"), q),
        ]
        if dim == 1:
            pairs.append((lambda m, v: grid.gradient_potential_values(m, v, "h1"), q))
        for op, stack in pairs:
            out = op(mesh, stack)
            for i in range(4):
                single = op(mesh, stack[i])
                assert np.array_equal(out[i], single)


    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_norms_match_l2_norm(self, dim):
        rng = np.random.default_rng(31)
        mesh = grid.build_mesh(dim, 5)
        y = rng.standard_normal((3, mesh.n_nodes))
        nodal = grid.l2_norm_values(mesh, y)
        lift, cells = grid.lift_values(mesh, y)
        for i in range(3):
            assert nodal[i] == grid.l2_norm(ScalarField(mesh, y[i]))
            gradient = grid.VectorField(mesh, grid.gradient_values(mesh, lift[i]))
            assert cells[i] == grid.l2_norm(gradient)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_squared_norms_are_the_inner_products(self, dim):
        # the two discrete L2 rules, nodal and cell, stacked
        rng = np.random.default_rng(41)
        mesh = grid.build_mesh(dim, 6)
        y = rng.standard_normal((3, mesh.n_nodes))
        g = grid.gradient_values(mesh, y)
        nodal, cells = grid.sq_norm_values(mesh, y), grid.cell_sq_norm_values(mesh, g)
        for i in range(3):
            f, v = ScalarField(mesh, y[i]), grid.VectorField(mesh, g[i])
            assert nodal[i] == grid.inner(f, f) and cells[i] == grid.inner(v, v)

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 128), (2, 8)],
                             ids=["dense-1d", "sweep-1d", "2d"])
    def test_lift_values_is_the_poisson_lift_and_its_norm(self, dim, n):
        rng = np.random.default_rng(37)
        mesh = grid.build_mesh(dim, n)
        r = rng.standard_normal((3, mesh.n_nodes))
        lift, norm = grid.lift_values(mesh, r)
        want = grid.helmholtz_solve_values(mesh, 0.0, r)
        assert np.array_equal(lift, want)
        for i in range(3):
            gradient = grid.VectorField(mesh, grid.gradient_values(mesh, lift[i]))
            assert norm[i] == grid.l2_norm(gradient)
            single, single_norm = grid.lift_values(mesh, r[i])
            assert np.array_equal(single, lift[i]) and single_norm == norm[i]

    def test_start_columns_and_select_rows(self):
        mesh = grid.build_mesh(1, 4)
        y = grid.start_columns(mesh, (2, mesh.n_nodes), np.arange(5.0))
        assert np.array_equal(y, [[0.0, 1.0, 2.0, 3.0, 0.0]] * 2)
        assert np.array_equal(grid.start_columns(mesh, (1, 5)), np.zeros((1, 5)))
        assert grid.select_rows(np.array([False, False])) is None
        assert grid.select_rows(np.array([True, True])) == slice(None)
        assert np.array_equal(grid.select_rows(np.array([False, True])), [1])


class TestGradientPotential:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_h10_recovery(self, dim):
        rng = np.random.default_rng(9)
        mesh = grid.build_mesh(dim, 5)
        yv = rng.standard_normal(mesh.n_nodes)
        yv[mesh.boundary_mask] = 0.0
        v = grid.gradient(ScalarField(mesh, yv))
        pot, res = grid.gradient_potential(v, "h10")
        assert res <= 1e-12
        assert np.max(np.abs(pot.values - yv)) <= 1e-11

    @pytest.mark.parametrize("dim", [1])
    def test_h1_gradient_reproduced(self, dim):
        rng = np.random.default_rng(13)
        mesh = grid.build_mesh(dim, 5)
        yv = rng.standard_normal(mesh.n_nodes)
        v = grid.gradient(ScalarField(mesh, yv))
        pot, res = grid.gradient_potential(v, "h1")
        assert res <= 1e-11
        g2 = grid.gradient(pot)
        assert np.max(np.abs(g2.values - v.values)) <= 1e-10

    def test_non_gradient_has_residual(self):
        rng = np.random.default_rng(17)
        mesh = grid.build_mesh(2, 5)
        v = VectorField(mesh, rng.standard_normal((mesh.n_cells, 2)))
        _, res = grid.gradient_potential(v, "h10")
        assert res > 1e-3

    def test_h1_rejected_on_2d(self):
        mesh = grid.build_mesh(2, 4)
        with pytest.raises(ValueError, match="1D meshes only"):
            grid.gradient_potential_values(mesh, np.ones((mesh.n_cells, 2)), "h1")


class TestCsvDump:
    def test_header_and_order_1d(self, tmp_path):
        mesh = grid.build_mesh(1, 4)
        f = ScalarField(mesh, np.arange(5.0))
        path = tmp_path / "f.csv"
        grid.field_to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,x,value"
        assert lines[1].startswith("0,0.0,")
        assert len(lines) == 6

    def test_header_2d(self, tmp_path):
        mesh = grid.build_mesh(2, 2)
        f = ScalarField(mesh, np.zeros(mesh.n_nodes))
        path = tmp_path / "c.csv"
        grid.field_to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,x,y,value"
        assert len(lines) == 10


_MESH4 = grid.build_mesh(1, 4)
_CELLS4 = VectorField(_MESH4, np.zeros((4, 1)))
# (error, message, call) of each documented input check of grid
_INPUT_CHECKS = {
    "vector-field-shape": (ValueError, r"^vector field has shape \(4,\), mesh expects \(4, 1\)$",
                           lambda: VectorField(_MESH4, np.zeros(4))),
    "vector-field-finite": (ValueError, "^vector field entries must be finite$",
                            lambda: VectorField(_MESH4, np.full((4, 1), np.nan))),
    "inner-two-meshes": (ValueError, "^mesh mismatch$", lambda: grid.inner(
        _CELLS4, VectorField(grid.build_mesh(1, 8), np.zeros((8, 1))))),
    "inner-two-kinds": (TypeError, "^inner expects two fields of the same kind$",
                        lambda: grid.inner(ScalarField(_MESH4, np.zeros(5)), _CELLS4)),
    "potential-space": (ValueError, "^unknown potential space 'h2'$",
                        lambda: grid.gradient_potential_values(_MESH4, _CELLS4.values, "h2")),
    "csv-of-vector-field": (TypeError, "^field_to_csv writes scalar fields; dump components$",
                            lambda: grid.field_to_csv(_CELLS4, os.devnull)),
}


@pytest.mark.parametrize("case", list(_INPUT_CHECKS))
def test_input_checks(case):
    error, message, call = _INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call()
