"""Stacked state solves: each column of a stack equals its one-column solve.

The state solvers step a stack of controls together and freeze each column
once it converges; the finite-difference gradients cost every perturbed
control as one stack.  These tests pin the contract that stacking changes
no arithmetic: stacked states and reports equal one-column solves bit for
bit, and the stacked gradients equal a per-coordinate loop over
``evaluate_cost``.
"""

import logging

import numpy as np
import pytest

from qlcontrol import control_opt, grid, instances
from qlcontrol.control_opt import (
    OptimizeOptions,
    central_fd_gradient,
    evaluate_cost,
    forward_fd_gradient,
)
from qlcontrol.grid import ScalarField
from qlcontrol.reports import NonConvergenceError
from qlcontrol.state_monotone import solve_monotone, solve_monotone_columns
from qlcontrol.state_quasilinear import solve_quasilinear, solve_quasilinear_columns
from qlcontrol.state_variational import solve_state, solve_state_columns

CASES = [
    ("variational-quartic-1d", 1, 12),
    ("monotone-perturbed-1d", 1, 16),
    ("sin-gradient-1d", 1, 16),
    ("sin-gradient-2d", 2, 6),
]


def _single_solver(p, name):
    """One-column solve of the regime, with the variational source f(u)."""
    if name.startswith("variational"):
        return lambda u, **kw: solve_state(p.with_source(u), u, **kw)
    if name.startswith("monotone"):
        return lambda u, **kw: solve_monotone(p, u, **kw)
    return lambda u, **kw: solve_quasilinear(p, u, **kw)


def _column_solver(p, name):
    if name.startswith("variational"):
        return lambda U, **kw: solve_state_columns(p, U, source=U, **kw)
    if name.startswith("monotone"):
        return lambda U, **kw: solve_monotone_columns(p, U, **kw)
    return lambda U, **kw: solve_quasilinear_columns(p, U, **kw)


def _stack(name, dim, n):
    """Four controls with warm starts: column 0 starts at its own converged
    state, column 1 starts cold from a control three times larger than the
    rest, columns 2 and 3 start from a shared nearby state."""
    mesh = grid.build_mesh(dim, n)
    p = instances.build_state_problem(name, mesh)
    rng = np.random.default_rng(11)
    U = 0.3 * rng.standard_normal((4, mesh.n_nodes))
    U[1] *= 3.0
    single = _single_solver(p, name)
    Y0 = np.zeros_like(U)
    Y0[0] = single(ScalarField(mesh, U[0]))[0].values
    Y0[2:] = single(ScalarField(mesh, U[2] + 0.05))[0].values
    return mesh, p, U, Y0


@pytest.mark.parametrize("name, dim, n", CASES)
def test_stacked_columns_equal_single_solves(name, dim, n):
    mesh, p, U, Y0 = _stack(name, dim, n)
    Y, reports = _column_solver(p, name)(U, y0=Y0)
    single = _single_solver(p, name)
    iterations = []
    for i in range(len(U)):
        y, rep = single(ScalarField(mesh, U[i]), y0=ScalarField(mesh, Y0[i]))
        assert np.array_equal(Y[i], y.values)
        assert reports[i].to_dict() == rep.to_dict()
        iterations.append(rep.iterations)
    # the warm column is done first, so columns freeze at different
    # iterations while the others go on
    assert iterations[0] == min(iterations)
    assert len(set(iterations)) >= 3


@pytest.mark.parametrize("name, dim, n", CASES)
def test_one_failing_column_raises(monkeypatch, name, dim, n):
    mesh, p, U, Y0 = _stack(name, dim, n)
    # zero control from a zero start: an exact solution, residual 0 from the
    # first step, so only this column meets an unreachable tolerance
    U[0] = 0.0
    Y0[0] = 0.0
    solve = _column_solver(p, name)
    _cap(monkeypatch, name, 5)
    assert solve(U[:1], y0=Y0[:1], tol=1e-30)[1][0].converged
    with pytest.raises(NonConvergenceError) as err:
        solve(U, y0=Y0, tol=1e-30)
    assert not err.value.report.converged


def _regime(name):
    return {"variational": "variational", "monotone": "monotone"}.get(
        name.split("-")[0], "quasilinear")


def _cap(monkeypatch, name, cap):
    """Set the iteration cap of the instance's state solver."""
    monkeypatch.setattr(f"qlcontrol.state_{_regime(name)}._MAX_ITERATIONS", cap)


@pytest.mark.parametrize("name, dim, n", CASES)
def test_debug_log_records_each_column(monkeypatch, name, dim, n, caplog):
    mesh, p, U, Y0 = _stack(name, dim, n)
    solve = _column_solver(p, name)
    Y, reports = solve(U, y0=Y0)
    with caplog.at_level(logging.DEBUG, logger="qlcontrol"):
        logged_Y, logged = solve(U, y0=Y0)
    assert [r.getMessage() for r in caplog.records] == [
        f"{_regime(name)} column {i}: converged after {rep.iterations} iterations, "
        f"residual {rep.residual:.3e}"
        for i, rep in enumerate(reports)
    ]
    assert np.array_equal(logged_Y, Y)
    assert [r.to_dict() for r in logged] == [r.to_dict() for r in reports]
    # the failure path logs every column before it raises
    U[0] = Y0[0] = 0.0
    _cap(monkeypatch, name, 5)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qlcontrol"):
        with pytest.raises(NonConvergenceError):
            solve(U, y0=Y0, tol=1e-30)
    stops = [r.getMessage().split(": ")[1].split(" after")[0] for r in caplog.records]
    assert stops == ["converged", "cap", "cap", "cap"]


def _loop_gradient(cp, u, opts, central):
    """Per-coordinate reference: one evaluate_cost per perturbed control."""
    mesh = cp.mesh
    delta = control_opt._FD_STEP * (1.0 + float(np.max(np.abs(u.values))))
    base, state = evaluate_cost(cp, u, state_tol=opts.state_tol, return_state=True)

    def cost(k, shift):
        v = u.values.copy()
        v[k] += shift
        v = ScalarField(mesh, v)
        return evaluate_cost(cp, v, warm=state, state_tol=opts.state_tol)

    g = np.empty(mesh.n_nodes)
    for k in range(mesh.n_nodes):
        if central:
            g[k] = (cost(k, delta) - cost(k, -delta)) / (2.0 * delta)
        else:
            g[k] = (cost(k, delta) - base) / delta
    return g / (mesh.cell_volume * mesh.node_weights())


@pytest.mark.parametrize("name, dim, n", CASES)
@pytest.mark.parametrize("central", [False, True])
def test_fd_gradients_equal_per_coordinate_loop(monkeypatch, name, dim, n, central):
    # small blocks, so every stack spans several stacked solves
    monkeypatch.setattr(control_opt, "_FD_BLOCK", 5)
    mesh = grid.build_mesh(dim, n)
    cp = instances.build_control_problem(name, mesh)
    u = ScalarField(mesh, 0.3 * np.random.default_rng(3).standard_normal(mesh.n_nodes))
    opts = OptimizeOptions()
    fd = central_fd_gradient if central else forward_fd_gradient
    g = fd(cp, u, opts)
    ref = _loop_gradient(cp, u, opts, central)
    assert np.array_equal(g, ref)
