"""Mesh, discrete operators, Helmholtz backbone and quadrature."""

import numpy as np
import pytest

from qlcontrol import grid
from qlcontrol.grid import ScalarField, VectorField


class TestBuildMesh:
    def test_interval(self):
        mesh = grid.build_mesh(1, 4)
        assert mesh.h == 0.25
        assert mesh.n_nodes == 5
        assert mesh.n_cells == 4
        assert list(np.flatnonzero(mesh.boundary_mask)) == [0, 4]

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
        mesh = grid.build_mesh(dim, 8)
        rhs = rng.standard_normal((2, 3, mesh.n_nodes))
        stacked = grid.helmholtz_solve_values(mesh, 1.5, rhs)
        assert stacked.shape == rhs.shape
        for idx in np.ndindex(2, 3):
            single = grid.helmholtz_solve_values(mesh, 1.5, rhs[idx])
            if dim == 1:  # one banded LAPACK solve per column either way
                assert np.array_equal(stacked[idx], single)
            else:
                assert np.max(np.abs(stacked[idx] - single)) <= 1e-14 * np.max(np.abs(single))

    @pytest.mark.parametrize("dim,b", [(1, 0.0), (1, 2.0), (2, 0.0), (2, 3.0)])
    def test_residual_bound(self, dim, b):
        rng = np.random.default_rng(21)
        mesh = grid.build_mesh(dim, 16)
        rhs = rng.standard_normal(mesh.n_nodes)
        y = grid.helmholtz_solve(b, ScalarField(mesh, rhs))
        op = -grid.laplacian_values(mesh, y.values) + b * y.values
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
            grid.cell_to_node(ScalarField(mesh, c, "cells")), ScalarField(mesh, z)
        )
        rhs = grid.inner(
            ScalarField(mesh, c, "cells"),
            grid.node_to_cell(ScalarField(mesh, z)),
        )
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
            (lambda m, v: grid.gradient_potential_values(m, v, "h1"), q),
        ]
        for op, stack in pairs:
            out = op(mesh, stack)
            for i in range(4):
                single = op(mesh, stack[i])
                assert out[i].shape == single.shape
                assert np.max(np.abs(out[i] - single)) <= 1e-12 * (1.0 + np.max(np.abs(single)))


    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_norms_match_l2_norm(self, dim):
        rng = np.random.default_rng(31)
        mesh = grid.build_mesh(dim, 5)
        y = rng.standard_normal((3, mesh.n_nodes))
        q = rng.standard_normal((3, mesh.n_cells, dim))
        nodal = grid.l2_norm_values(mesh, y)
        cells = grid.l2_norm_values(mesh, q, "cells")
        for i in range(3):
            assert nodal[i] == grid.l2_norm(ScalarField(mesh, y[i]))
            assert cells[i] == grid.l2_norm(grid.VectorField(mesh, q[i]))

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

    @pytest.mark.parametrize("dim", [1, 2])
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
        _, res = grid.gradient_potential(v, "h1")
        assert res > 1e-3

    @pytest.mark.parametrize("n", [5, 6])
    def test_gradient_matrix_matches_gradient_values(self, n):
        rng = np.random.default_rng(19)
        mesh = grid.build_mesh(2, n)
        y = rng.standard_normal(mesh.n_nodes)
        # rows: the x-components of every cell, then the y-components
        expected = grid.gradient_values(mesh, y).T.ravel()
        out = grid._gradient_matrix(mesh) @ y
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))


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
        f = ScalarField(mesh, np.zeros(mesh.n_cells), "cells")
        path = tmp_path / "c.csv"
        grid.field_to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,x,y,value"
        assert len(lines) == 5
