"""Built-in instance catalog with analytically known constants.

Every named instance fixes a mesh, a coefficient set and the outer-problem
data; the gap family additionally prescribes the oscillation measure of the
minimizing-sequence demonstration and a designed two-atom relaxed candidate
whose value is computable by one linear solve (the nonlinearity vanishes at
the wells), giving a certified margin between the classical and relaxed
optima.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from . import coefficients as co
from . import grid
from .control_opt import REGIMES, ControlProblem
from .grid import Mesh, ScalarField
from .relaxed_opt import (
    RelaxedInit,
    RelaxedProblem,
    _check_mesh,
    evaluate_relaxed_cost,
)
from .control_opt import evaluate_cost
from .state_monotone import MonotoneStateProblem
from .state_quasilinear import QuasilinearStateProblem, uniqueness_threshold
from .state_variational import VariationalStateProblem
from .young_measure import YoungMeasureField, potential, uniform_two_atom

__all__ = [
    "GAP_KAPPA",
    "GAP_OMEGA",
    "GAP_B",
    "GAP_M",
    "GAP_CAP",
    "build_control_problem",
    "build_relaxed_problem",
    "build_state_problem",
    "designed_margin",
    "gap_designed_init",
    "gap_margin",
    "catalog",
    "instance_names",
    "relaxable_names",
    "default_mesh",
]

# gap-family constants: a(t) = kappa (1 - cos(omega t)), wells at 2 pi k/omega
GAP_KAPPA = 0.4
GAP_OMEGA = 5.0
GAP_B = 2.0
GAP_M = 1e-4
GAP_CAP = 1.0
GAP_MARGIN_SAFETY = 0.5

_DEFAULT_CELLS = {
    "gap-family-1d": (1, 128),
    "sin-gradient-1d": (1, 32),
    "sin-gradient-2d": (2, 16),
    "linear-quasilinear-1d": (1, 32),
    "variational-quartic-1d": (1, 16),
    "quadratic-variational-1d": (1, 16),
    "monotone-perturbed-1d": (1, 32),
}


def default_mesh(name: str) -> Mesh:
    dim, cells = _DEFAULT_CELLS[name]
    return grid.build_mesh(dim, cells)


# -- coefficient sets ------------------------------------------------------------


def _gap_cs() -> co.CoefficientSet:
    parts = {}
    parts.update(co.a_cosine_wells(GAP_KAPPA, GAP_OMEGA))
    parts.update(co.f_clamp())
    parts.update(co.cost_shortfall(GAP_CAP))
    L = parts["L"]
    return co.CoefficientSet(M=GAP_M, C=L, c=L / 2.0, **parts)


def _sin_gradient_cs() -> co.CoefficientSet:
    parts = {}
    parts.update(co.a_sin_gradient(1.0))
    parts.update(co.f_tanh())
    parts.update(co.cost_tracking(0.05))
    return co.CoefficientSet(M=1e-3, c=0.5, C=1.0, **parts)


def _linear_quasilinear_cs() -> co.CoefficientSet:
    parts = {}
    parts.update(co.a_zero())
    parts.update(co.f_tanh())
    parts.update(co.cost_tracking(0.05))
    return co.CoefficientSet(M=1e-3, **parts)


def _variational_quartic_cs() -> co.CoefficientSet:
    parts = {}
    parts.update(co.w_quartic_clamped())
    parts.update(co.f_linear())
    parts.update(co.cost_tracking(0.04))
    return co.CoefficientSet(M=1e-3, **parts)


def _quadratic_variational_cs(target_values: np.ndarray) -> co.CoefficientSet:
    parts = {}
    parts.update(co.w_quadratic())
    parts.update(co.f_linear())
    parts.update(co.cost_tracking_field(target_values))
    return co.CoefficientSet(M=1e-3, **parts)


def _monotone_cs() -> co.CoefficientSet:
    base = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
    return base.merged(M=1e-3, **co.f_linear()).merged(**co.cost_tracking(0.05))


# -- builders ---------------------------------------------------------------------


def build_state_problem(name: str, mesh: Optional[Mesh] = None, b: Optional[float] = None):
    """State-level problem for the named instance; b overrides the b of a
    quasilinear instance and is an error on any other."""
    if mesh is None:
        mesh = default_mesh(name)
    if name == "gap-family-1d":
        return QuasilinearStateProblem(mesh, _gap_cs(), b=GAP_B if b is None else b)
    if name in ("sin-gradient-1d", "sin-gradient-2d"):
        return QuasilinearStateProblem(
            mesh, _sin_gradient_cs(), b=1.0 if b is None else b
        )
    if name == "linear-quasilinear-1d":
        return QuasilinearStateProblem(
            mesh, _linear_quasilinear_cs(), b=1.0 if b is None else b
        )
    if b is not None and name in _DEFAULT_CELLS:
        raise ValueError(f"instance {name!r} has no b; only quasilinear instances do")
    if name == "variational-quartic-1d":
        cs = _variational_quartic_cs()
        return VariationalStateProblem(
            mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes))
        )
    if name == "quadratic-variational-1d":
        x = mesh.node_coords()[:, 0]
        cs = _quadratic_variational_cs(0.01 * np.sin(np.pi * x))
        return VariationalStateProblem(
            mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes))
        )
    if name == "monotone-perturbed-1d":
        return MonotoneStateProblem(mesh, _monotone_cs())
    raise KeyError(f"unknown instance {name!r}")


def build_control_problem(
    name: str, mesh: Optional[Mesh] = None, b: Optional[float] = None
) -> ControlProblem:
    """Outer control problem for the named instance."""
    rebuild = partial(build_state_problem, name, b=b)
    state = rebuild(mesh)
    mesh = state.mesh
    extras: dict = {}
    if name == "gap-family-1d":
        extras["demo_measure"] = uniform_two_atom(mesh, -1.0, 1.0, 0.5, potential_offset=1.0)
        extras["reference_controls"] = (np.ones(mesh.n_nodes),)
    elif name in ("sin-gradient-1d", "sin-gradient-2d", "linear-quasilinear-1d"):
        extras["reference_controls"] = (np.zeros(mesh.n_nodes),)
    return ControlProblem(state, rebuild=rebuild, **extras)


def build_relaxed_problem(
    name: str, mesh: Optional[Mesh] = None, b: Optional[float] = None
):
    """Relaxed problem plus the designed init (None when no design exists)."""
    if name not in relaxable_names():
        raise ValueError(f"instance {name!r} has no relaxation; try `qlcontrol list`")
    if mesh is not None:  # before the control problem, which may need 1D itself
        _check_mesh(mesh, f"instance {name!r}")
    rp = RelaxedProblem(build_control_problem(name, mesh, b=b))
    init = gap_designed_init(rp) if name == "gap-family-1d" else None
    return rp, init


# -- the designed two-atom candidate of the gap family ----------------------------


def gap_designed_init(rp: RelaxedProblem) -> RelaxedInit:
    """Two-atom candidate: u = 1, state solved with the nonlinearity averaged
    out (atoms sit at the wells of a, where it vanishes), weights matched to
    the linear state's gradient."""
    mesh = rp.mesh
    lo, hi = -2.0 * np.pi / GAP_OMEGA, 2.0 * np.pi / GAP_OMEGA
    ones = ScalarField(mesh, np.ones(mesh.n_nodes))
    fvals = np.asarray(rp.control.cs.f(ones.values), dtype=float)
    y_lin = grid.helmholtz_solve_values(mesh, rp.b, fvals)
    g = grid.gradient_values(mesh, y_lin)[:, 0]
    theta = (g - lo) / (hi - lo)
    if np.min(theta) < 0.0 or np.max(theta) > 1.0:
        raise RuntimeError("linear state gradient escapes the well interval")
    atoms = np.empty((mesh.n_cells, 2, 1))
    atoms[:, 0, 0] = lo
    atoms[:, 1, 0] = hi
    weights = np.column_stack([1.0 - theta, theta])
    nu = YoungMeasureField(mesh, atoms, weights, "PH10")
    mu = YoungMeasureField(
        mesh,
        np.zeros((mesh.n_cells, 1, 1)),
        np.ones((mesh.n_cells, 1)),
        "PH1",
        potential_offset=1.0,
    )
    return RelaxedInit(mu, nu)


def designed_margin(rp: RelaxedProblem, init: RelaxedInit) -> float:
    """Designed margin delta* between the classical and relaxed optima of rp.

    Classical cost at the designed init's control minus the designed
    candidate's relaxed value, scaled by a safety factor covering whatever
    ground the classical optimizer can still gain over that control.
    """
    classical_ref = evaluate_cost(rp.control, potential(init.mu), state_tol=1e-12)
    raw = classical_ref - evaluate_relaxed_cost(rp, init.mu, init.nu)
    if raw <= 0.0:
        raise RuntimeError("the designed init lost its margin")
    return GAP_MARGIN_SAFETY * raw


def gap_margin(mesh: Optional[Mesh] = None) -> float:
    """delta* of gap-family-1d at its default b."""
    return designed_margin(*build_relaxed_problem("gap-family-1d", mesh))


# -- catalog ----------------------------------------------------------------------


def instance_names() -> list:
    return list(_DEFAULT_CELLS)


def relaxable_names() -> list:
    return ["gap-family-1d", "sin-gradient-1d", "linear-quasilinear-1d"]


def catalog() -> list:
    """Instance table: name, kind, constants (thresholds included)."""
    rows = []
    for name in instance_names():
        dim, cells = _DEFAULT_CELLS[name]
        state = build_state_problem(name)
        cs = state.cs
        constants = {"dimension": dim, "cells_per_axis": cells}
        if cs.L:
            constants["L"] = cs.L
            constants["uniqueness_threshold"] = uniqueness_threshold(cs.L)
        if cs.c is not None:
            constants["c"] = cs.c
        if cs.C is not None:
            constants["C"] = cs.C
        if cs.M is not None:
            constants["M"] = cs.M
        if getattr(state, "b", None) is not None:
            constants["b"] = state.b
        kind = "relax" if name in relaxable_names() else "control"
        if name == "gap-family-1d":
            constants["delta_star"] = gap_margin()
        rows.append(
            {
                "name": name,
                "kind": kind,
                "regime": REGIMES[type(state)],
                "constants": constants,
            }
        )
    return rows
