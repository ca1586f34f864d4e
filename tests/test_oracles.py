"""Self-checks of the independent verifiers."""

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid
from qlcontrol import instances
from qlcontrol.control_opt import ControlProblem, evaluate_cost
from qlcontrol.grid import ScalarField
from qlcontrol.state_quasilinear import QuasilinearStateProblem

from oracles import (
    enumerate_controls_oracle,
    newton_state_oracle,
    quadratic_program_oracle,
)


class TestStructuralBoundary:
    def test_oracles_import_no_solver_modules(self):
        # the verifiers must rebuild their operators: no module-level import
        # of any qlcontrol solver module (the lattice enumerator is allowed
        # the public cost evaluation, scoped inside its function)
        import ast
        from pathlib import Path

        import oracles as oracle_module

        tree = ast.parse(Path(oracle_module.__file__).read_text())
        module_level = [
            n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))
        ]
        for node in module_level:
            name = getattr(node, "module", None) or ""
            names = [a.name for a in node.names]
            assert not name.startswith("qlcontrol"), (name, names)
            assert all(not n.startswith("qlcontrol") for n in names)


class TestNewtonOracle:
    def test_linear_instance_matches_helmholtz(self):
        cs = co.CoefficientSet(**{**co.a_zero(), **co.f_clamp()})
        p = QuasilinearStateProblem(grid.build_mesh(1, 16), cs, b=1.0)
        u = ScalarField(p.mesh, 2.0 * np.ones(p.mesh.n_nodes))
        y = newton_state_oracle(p, u)
        ref = grid.helmholtz_solve(1.0, ScalarField(p.mesh, np.ones(p.mesh.n_nodes)))
        assert np.max(np.abs(y - ref.values)) <= 1e-12

    def test_warm_start_converges_quickly(self):
        from qlcontrol.state_quasilinear import solve_quasilinear

        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_tanh()})
        p = QuasilinearStateProblem(grid.build_mesh(1, 32), cs, b=1.0)
        u = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        y_p, _ = solve_quasilinear(p, u)
        y = newton_state_oracle(p, u, warm_start=y_p)
        assert np.max(np.abs(y - y_p.values)) <= 1e-7


class TestQuadraticProgramOracle:
    def test_dominant_regularizer_flattens_control(self):
        mesh = grid.build_mesh(1, 8)
        x = mesh.node_coords()[:, 0]
        from qlcontrol.state_variational import VariationalStateProblem

        cs = co.CoefficientSet(
            M=1e6,
            **{
                **co.w_quadratic(),
                **co.f_linear(),
                **co.cost_tracking(0.01 * np.sin(np.pi * x)),
            },
        )
        state = VariationalStateProblem(
            mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes))
        )
        u, _ = quadratic_program_oracle(ControlProblem(state), 0.01 * np.sin(np.pi * x))
        assert np.max(u) - np.min(u) <= 1e-6

    def test_zero_source_map_minimizes_pure_regularizer(self):
        mesh = grid.build_mesh(1, 8)
        from qlcontrol.state_variational import VariationalStateProblem

        cs = co.CoefficientSet(
            M=1e-3,
            **{
                **co.w_quadratic(),
                **co.f_linear(),
                **co.cost_tracking(np.zeros(mesh.n_nodes)),
            },
        )
        state = VariationalStateProblem(
            mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes))
        )
        u, cost = quadratic_program_oracle(ControlProblem(state), np.zeros(mesh.n_nodes))
        assert np.max(np.abs(u)) <= 1e-10
        assert abs(cost) <= 1e-14

    def test_oracle_cost_is_evaluable(self):
        cp = instances.build_control_problem("quadratic-variational-1d")
        target = 0.01 * np.sin(np.pi * cp.mesh.node_coords()[:, 0])
        u, cost = quadratic_program_oracle(cp, target)
        direct = evaluate_cost(cp, ScalarField(cp.mesh, u))
        assert abs(direct - cost) <= 1e-8


class TestEnumerateOracle:
    def test_pure_regularizer_lattice(self):
        mesh = grid.build_mesh(1, 4)
        cs = co.CoefficientSet(
            M=1.0, **{**co.a_zero(), **co.f_zero(), **co.cost_zero()}
        )
        state = QuasilinearStateProblem(mesh, cs, b=1.0)
        cp = ControlProblem(state)
        u, best = enumerate_controls_oracle(cp, (-1.0, 0.0, 1.0))
        assert best == 0.0  # constants have zero gradient
        assert np.max(u.values) == np.min(u.values)

    def test_cap_enforced(self):
        mesh = grid.build_mesh(1, 8)
        cs = co.CoefficientSet(
            M=1.0, **{**co.a_zero(), **co.f_zero(), **co.cost_zero()}
        )
        state = QuasilinearStateProblem(mesh, cs, b=1.0)
        cp = ControlProblem(state)
        with pytest.raises(ValueError):
            enumerate_controls_oracle(cp, (-1.0, 0.0, 1.0))
