"""Built-in instance catalog with analytically known constants.

Every named instance fixes a mesh, a coefficient set and the outer-problem
data; the gap family additionally prescribes the oscillation measure of the
minimizing-sequence demonstration and a designed two-atom relaxed candidate
whose value is computable by one linear solve (the nonlinearity vanishes at
the wells), giving a certified margin between the classical and relaxed
optima.

The private table ``_INSTANCES`` holds each instance's mesh, the default b
of a quasilinear one and its constant reference control, and
``_coefficients`` merges each instance's factory dicts into its coefficient
set; the builders, the name lists and the catalog read those two alone.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from . import coefficients as co
from . import grid
from .control_opt import REGIMES, ControlProblem, evaluate_cost
from .grid import Mesh, ScalarField
from .relaxed_opt import (
    _TIGHT_STATE_TOL,
    RelaxedInit,
    RelaxedProblem,
    _check_mesh,
    _dirac_control,
    evaluate_relaxed_cost,
)
from .state_monotone import MonotoneStateProblem
from .state_quasilinear import QuasilinearStateProblem, uniqueness_threshold
from .state_variational import VariationalStateProblem
from .young_measure import YoungMeasureField, potential, uniform_two_atom

__all__ = [
    "GAP_KAPPA",
    "GAP_OMEGA",
    "GAP_B",
    "GAP_M",
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
GAP_MARGIN_SAFETY = 0.5

# name: (dimension, cells per axis, default b of a quasilinear instance or
# None, value of the constant reference control or None)
_INSTANCES = {
    "gap-family-1d": (1, 128, GAP_B, 1.0),
    "sin-gradient-1d": (1, 32, 1.0, 0.0),
    "sin-gradient-2d": (2, 16, 1.0, 0.0),
    "linear-quasilinear-1d": (1, 32, 1.0, 0.0),
    "variational-quartic-1d": (1, 16, None, None),
    "quadratic-variational-1d": (1, 16, None, None),
    "monotone-perturbed-1d": (1, 32, None, None),
}


def _row(name: str) -> tuple:
    if name not in _INSTANCES:
        raise KeyError(f"unknown instance {name!r}")
    return _INSTANCES[name]


def default_mesh(name: str) -> Mesh:
    return grid.build_mesh(*_row(name)[:2])


def _coefficients(name: str, mesh: Mesh) -> co.CoefficientSet:
    """Coefficient set of the named instance: its factory dicts merged."""
    if name == "gap-family-1d":
        a = co.a_cosine_wells(GAP_KAPPA, GAP_OMEGA)
        return co.CoefficientSet(M=GAP_M, C=a["L"], c=a["L"] / 2.0, **a,
                                 **co.f_clamp(), **co.cost_shortfall())
    target = 0.05
    if name in ("sin-gradient-1d", "sin-gradient-2d"):
        parts = {**co.a_sin_gradient(1.0), **co.f_tanh(), "c": 0.5, "C": 1.0}
    elif name == "linear-quasilinear-1d":
        parts = {**co.a_zero(), **co.f_tanh()}
    elif name == "variational-quartic-1d":
        parts, target = {**co.w_quartic_clamped(), **co.f_linear()}, 0.04
    elif name == "quadratic-variational-1d":
        parts = {**co.w_quadratic(), **co.f_linear()}
        target = 0.01 * np.sin(np.pi * mesh.node_coords()[:, 0])
    else:  # monotone-perturbed-1d
        flux = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
        parts = {"A": flux.A, "c": flux.c, "C": flux.C, **co.f_linear()}
    return co.CoefficientSet(M=1e-3, **parts, **co.cost_tracking(target))


# -- builders ---------------------------------------------------------------------


def build_state_problem(name: str, mesh: Optional[Mesh] = None, b: Optional[float] = None):
    """State-level problem for the named instance; b overrides the b of a
    quasilinear instance and is an error on any other."""
    dim, cells, default_b, _ = _row(name)
    if b is not None and default_b is None:
        raise ValueError(f"instance {name!r} has no b; only quasilinear instances do")
    if mesh is None:
        mesh = grid.build_mesh(dim, cells)
    cs = _coefficients(name, mesh)
    if default_b is not None:
        return QuasilinearStateProblem(mesh, cs, b=default_b if b is None else b)
    if cs.A is not None:
        return MonotoneStateProblem(mesh, cs)
    return VariationalStateProblem(mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes)))


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
    reference = _INSTANCES[name][3]
    if reference is not None:
        extras["reference_controls"] = (np.full(mesh.n_nodes, reference),)
    return ControlProblem(state, rebuild=rebuild, **extras)


def build_relaxed_problem(
    name: str, mesh: Optional[Mesh] = None, b: Optional[float] = None
):
    """Relaxed problem plus the designed init (None when no design exists)."""
    _row(name)  # an unknown name is a KeyError, as in every builder
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
    ones = np.ones(mesh.n_nodes)
    fvals = np.asarray(rp.control.cs.f(ones), dtype=float)
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
    return RelaxedInit(_dirac_control(mesh, ones), nu)


def designed_margin(rp: RelaxedProblem, init: RelaxedInit) -> float:
    """Designed margin delta* between the classical and relaxed optima of rp.

    Classical cost at the designed init's control minus the designed
    candidate's relaxed value, scaled by a safety factor covering whatever
    ground the classical optimizer can still gain over that control.
    """
    classical_ref = evaluate_cost(rp.control, potential(init.mu), state_tol=_TIGHT_STATE_TOL)
    raw = classical_ref - evaluate_relaxed_cost(rp, init.mu, init.nu)
    if raw <= 0.0:
        raise RuntimeError("the designed init lost its margin")
    return GAP_MARGIN_SAFETY * raw


def gap_margin(mesh: Optional[Mesh] = None) -> float:
    """delta* of gap-family-1d at its default b."""
    return designed_margin(*build_relaxed_problem("gap-family-1d", mesh))


# -- catalog ----------------------------------------------------------------------


def instance_names() -> list:
    return list(_INSTANCES)


def relaxable_names() -> list:
    """The 1D quasilinear instances."""
    return [name for name, (dim, _, b, _) in _INSTANCES.items() if dim == 1 and b is not None]


def catalog() -> list:
    """Instance table: name, kind, constants (thresholds included)."""
    rows = []
    for name, (dim, cells, _, _) in _INSTANCES.items():
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
