"""Measure-valued relaxation of the quasilinear control problem on 1D meshes.

The relaxed state couples a control u with a PH1_0 state-gradient measure
nu through

    (-lap + b) y = f(u) - C2N(avg(a))      avg(a) = moment(nu, a),
    grad y = barycenter(nu)                (coupling residual = consistency),

and the relaxed cost is F(y) plus (M/2) times the second moment of a PH1
control measure mu whose barycenter potential, plus a stored constant, is u.
Two reductions make this a classical problem in (u, s) (Roubicek,
Relaxation in Optimization Theory and Variational Calculus, 1997):

- Jensen: the second moment of mu is at least that of the Dirac at its
  barycenter, on which alone u depends, so mu is the Dirac at grad u;
- the gradients are scalar, so the pairs (barycenter(nu), avg(a)) fill the
  convex hull of the graph of a, and two atoms on a level set of a realize
  each pair (Fenchel-Eggleston; Eggleston, Convexity, 1958).  nu's atoms
  are unbounded and uncharged, so avg(a) is one slack s per cell, free in
  the band [inf a, sup a] that the a-factory declares, and the a-factory's
  level map gives the two atoms in closed form.

optimize_relaxed runs optimize_control's projected-gradient loop on (u, s);
certify_gap compares its value against the best sampled classical cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid
from .coefficients import apply_cellwise, check_band, check_levels, pointwise_derivative
from .control_opt import (ControlProblem, OptimizeOptions, _costs, _descend, _kink_nodes,
                          _regularizer_gradient, _source_gradient, _state_columns,
                          _state_costs, _state_one, optimize_control)
from .grid import Mesh, ScalarField, VectorField
from .reports import RelaxationReport
from .young_measure import YoungMeasureField, barycenter, dirac_field, potential, second_moment

__all__ = [
    "RelaxedProblem", "RelaxedInit", "InfeasibleMeasureError", "solve_mv_state",
    "evaluate_relaxed_cost", "optimize_relaxed", "certify_gap", "embed_classical",
]

FEASIBILITY_TOL = 1e-6  # coupling residual of a feasible nu
SUBRELAXATION_SLACK = 1e-8
DIRAC_RESIDUAL_TOL = 1e-10
_TIGHT_STATE_TOL = 1e-12
CLASSICAL_MAX_ITERATIONS = 12  # certify_gap's default cap on the classical run


class InfeasibleMeasureError(ValueError):
    """Raised when a state-gradient measure violates the coupling residual."""


def _check_mesh(mesh: Mesh, subject: str = "the control problem") -> None:
    """Relaxation runs on 1D meshes only, like the PH1 class of its control
    measure: in 2D the gradient's kernel also holds the checkerboard, which
    a PH1 potential would drop."""
    if mesh.dimension != 1:
        raise ValueError(f"{subject} relaxes on 1D meshes only: the 2D gradient's "
                         "kernel holds the checkerboard, which a PH1 potential drops")


@dataclass(frozen=True)
class RelaxedProblem:
    """Relaxation data on top of a quasilinear control problem on a 1D mesh;
    the band [inf a, sup a] and the level map that the coefficient set
    declares are checked by sampling (coefficients.check_band and
    check_levels), as the state problem checks L."""

    control: ControlProblem

    def __post_init__(self):
        if self.control.regime != "quasilinear":
            raise ValueError("relaxation applies to the quasilinear regime")
        _check_mesh(self.mesh)
        # the state problem construction enforces b > L^2/4 already
        cs = self.control.cs
        # each check raises on a missing declaration
        check_band(cs).require(f"the declared band {cs.band} of a")
        check_levels(cs).require("the declared level map of a")

    @property
    def mesh(self) -> Mesh:
        return self.control.mesh

    @property
    def b(self) -> float:
        return self.control.state.b

    @property
    def band(self) -> tuple:
        """(inf a, sup a): the range of the relaxed moment of a."""
        return self.control.cs.band


@dataclass(frozen=True)
class RelaxedInit:
    """Start of optimize_relaxed: the control is mu's barycenter potential
    and each cell's slack is nu's moment of a."""

    mu: YoungMeasureField
    nu: YoungMeasureField


def _check_init(rp: RelaxedProblem, init: RelaxedInit) -> None:
    """Both measures of a start must live on the problem's mesh."""
    for name, field in (("mu", init.mu), ("nu", init.nu)):
        if field.mesh != rp.mesh:
            raise ValueError(f"RelaxedInit.{name} lives on {field.mesh}, "
                             f"but the relaxed problem on {rp.mesh}")


# -- measure-valued state -------------------------------------------------------

# Leading axes of atoms (..., n_cells, K, N), weights (..., n_cells, K) and
# nodal or cell values are batch axes in the helpers below.


def _abar_cells(a, atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-cell moment of the coefficient a against the atoms."""
    return np.sum(weights * apply_cellwise(a, atoms), axis=-1)


def _relaxed_states(rp: RelaxedProblem, fvals, abar):
    """Relaxed states y of (-lap + b) y = f(u) - C2N(avg(a))."""
    rhs = fvals - grid.cell_to_node_values(rp.mesh, abar)
    return grid.helmholtz_solve_values(rp.mesh, rp.b, rhs)


def solve_mv_state(rp: RelaxedProblem, u: ScalarField, nu: YoungMeasureField):
    """Relaxed state for a control and a PH1_0 state-gradient measure.

    Returns the state and the coupling residual
    ``l2_norm(gradient(y) - barycenter(nu))``; a feasible measure keeps the
    residual below the feasibility tolerance.
    """
    if nu.klass != "PH10":
        raise ValueError("state-gradient measure must be of class PH10")
    fvals = np.asarray(rp.control.cs.f(u.values), dtype=float)
    y = _relaxed_states(rp, fvals, _abar_cells(rp.control.cs.a, nu.atoms, nu.weights))
    mismatch = grid.gradient_values(rp.mesh, y) - barycenter(nu).values
    return ScalarField(rp.mesh, y), grid.l2_norm(VectorField(rp.mesh, mismatch))


def _relaxed_point(rp: RelaxedProblem, mu, nu):
    """Relaxed cost F(y) + (M/2) * second_moment(mu) and relaxed state y of
    (mu, nu); raises on infeasible nu."""
    if mu.klass != "PH1":
        raise ValueError("control measure must be of class PH1")
    y, cons = solve_mv_state(rp, potential(mu), nu)
    if cons > FEASIBILITY_TOL:
        raise InfeasibleMeasureError(
            f"coupling residual {cons:.3e} exceeds {FEASIBILITY_TOL:.1e}"
        )
    cost = _state_costs(rp.control, y.values) + 0.5 * rp.control.M * second_moment(mu)
    return float(cost), y


def evaluate_relaxed_cost(rp: RelaxedProblem, mu: YoungMeasureField, nu: YoungMeasureField):
    """Relaxed cost F(y) + (M/2) * second_moment(mu); the control is the
    barycenter potential of mu plus its stored constant.  Raises on
    infeasible nu."""
    return _relaxed_point(rp, mu, nu)[0]


def _dirac_control(mesh: Mesh, u: np.ndarray) -> YoungMeasureField:
    """The Dirac control measure at grad u.  Its stored constant is the plain
    nodal mean of u, matching the zero-mean normalization of PH1 potentials;
    on a 1D mesh the gradient's kernel holds the constants alone, so the
    potential recovers u."""
    return YoungMeasureField(
        mesh, grid.gradient_values(mesh, u)[:, None, :], np.ones((mesh.n_cells, 1)),
        "PH1", float(np.mean(u)),
    )


def embed_classical(rp: RelaxedProblem, u: ScalarField, warm: Optional[ScalarField] = None):
    """Dirac embedding (delta_{grad u}, delta_{grad y_u}) of a classical pair.

    The state is solved to the tight tolerance 1e-12, from ``warm`` (zero
    when None), as in evaluate_cost.
    """
    y = _state_one(rp.control, u, warm, _TIGHT_STATE_TOL)
    return _dirac_control(rp.mesh, u.values), dirac_field(grid.gradient(y)), y


# -- the relaxed descent --------------------------------------------------------


def _level_measure(rp: RelaxedProblem, s: np.ndarray, t0: np.ndarray) -> YoungMeasureField:
    """PH1_0 measure with barycenter t0 and moment s of a per cell: the
    Dirac at t0_c where a(t0_c) = s_c, else the points of the level set
    {a = s_c} nearest to t0_c below and above it, from the level map the
    a-factory declares in closed form, weighted to the barycenter.  Raises
    ValueError where a side has no point, as for a monotone a.
    """
    mesh, cs = rp.mesh, rp.control.cs
    dirac = apply_cellwise(cs.a, t0[:, None]) == s
    if dirac.all():
        return YoungMeasureField(mesh, t0[:, None, None], np.ones((mesh.n_cells, 1)), "PH10")
    t_lo, t_hi = cs.levels(s, t0)
    missed = ~dirac & np.isnan(t_lo + t_hi)
    if missed.any():
        c = int(np.argmax(missed))
        raise ValueError(f"a takes the value {s[c]!r} on no side of {t0[c]!r} (cell {c}): "
                         "its level map has a side without a point")
    t_lo, t_hi = np.where(dirac, t0, t_lo), np.where(dirac, t0, t_hi)
    theta = np.divide(t0 - t_lo, t_hi - t_lo, out=np.zeros_like(t0), where=t_hi > t_lo)
    atoms = np.stack([t_lo, t_hi], axis=1)[..., None]
    return YoungMeasureField(mesh, atoms, np.column_stack([1.0 - theta, theta]), "PH10")


def _score_points(rp: RelaxedProblem, X: np.ndarray) -> list:
    """(state values, cost) of each row (u, s) of the stack X: the state of
    (-lap + b) y = f(u) - C2N s, one stacked Helmholtz solve."""
    n = rp.mesh.n_nodes
    U = X[:, :n]
    Y = _relaxed_states(rp, np.asarray(rp.control.cs.f(U), dtype=float), X[:, n:])
    return list(zip(Y, _costs(rp.control, U, Y).tolist()))


def _relaxed_gradient(rp: RelaxedProblem, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L2 gradient of the relaxed cost at x = (u, s) with state values y.
    One adjoint Helmholtz solve lam = (-lap + b)^-1 dJ/dy gives both parts,
    dJ/du = dJ_reg/du + f'(u) lam (control_opt._source_gradient, as the
    classical adjoint: the steepest-descent slope at the kinks of f; lam is
    0 on the Dirichlet nodes, where both one-sided values are dJ_reg/du)
    and dJ/ds = -C2N^T lam, scaled by the node and cell weights."""
    mesh, cp = rp.mesh, rp.control
    n = mesh.n_nodes
    weights = mesh.cell_volume * mesh.node_weights()
    lam = grid.helmholtz_solve_values(mesh, rp.b, weights * pointwise_derivative(cp.cs.F, y))
    gu = _source_gradient(cp.cs, _regularizer_gradient(cp, x[:n]), x[:n], lam)
    gs = -grid.node_to_cell_values(mesh, lam)
    return np.concatenate([gu / weights, gs / mesh.cell_volume])


def optimize_relaxed(
    rp: RelaxedProblem, init: RelaxedInit, opts: Optional[OptimizeOptions] = None
):
    """Projected-gradient descent on the relaxed problem in (u, s).

    u starts as the barycenter potential of ``init.mu`` and s as
    ``init.nu``'s moment of a, clipped to the band.  The state of (u, s) is
    one Helmholtz solve, (-lap + b) y = f(u) - C2N s, and one adjoint solve
    gives both gradients; s's is zero where s sits at a band end and it
    points out.  The loop is optimize_control's (control_opt._descend):
    gradient stop test, Armijo ladder and step doubling under ``opts``
    (``state_tol`` is unused: the state is exact), with each trial's s
    clipped to the band.  ``extras["stopped"]`` is "gradient" (the only
    converged exit), "linesearch" or "cap", and ``extras["kink_nodes"]``
    counts u's interior nodes on a kink of f; ``cost`` is the last value.

    Returns (mu, nu, y, report): mu is the Dirac at grad u, nu the
    _level_measure of s (the nearest points of each level set {a = s_c} on
    either side of grad y_c, from the declared level map of a), and y their
    relaxed state.  Raises ValueError when
    ``init.mu`` or ``init.nu`` lives on another mesh than the problem.
    """
    _check_init(rp, init)
    if opts is None:
        opts = OptimizeOptions()
    t0 = time.perf_counter()
    mesh = rp.mesh
    lo, hi = rp.band
    n = mesh.n_nodes

    def gradient(x, cost, y):
        g = _relaxed_gradient(rp, x, y)
        s, gs = x[n:], g[n:]
        gs[((s <= lo) & (gs > 0.0)) | ((s >= hi) & (gs < 0.0))] = 0.0
        return g

    def norm2(g):
        return float(mesh.cell_volume * (np.sum(mesh.node_weights() * g[:n] ** 2)
                                         + np.sum(g[n:] ** 2)))

    def clip(X):
        X[:, n:] = np.clip(X[:, n:], lo, hi)
        return X

    s = np.clip(_abar_cells(rp.control.cs.a, init.nu.atoms, init.nu.weights), lo, hi)
    x = np.concatenate([potential(init.mu).values, s])
    y, cost = _score_points(rp, x[None])[0]
    x, y, report = _descend(
        x, (cost, y), gradient, lambda X, _: _score_points(rp, X), norm2, opts,
        "adjoint-projected-gradient", t0, clip=clip, label="optimize_relaxed",
    )
    report.extras["kink_nodes"] = _kink_nodes(rp.control, x[:n])
    mu = _dirac_control(mesh, x[:n])
    nu = _level_measure(rp, x[n:], grid.gradient_values(mesh, y)[:, 0])
    y, _ = solve_mv_state(rp, potential(mu), nu)
    return mu, nu, y, report


# -- certification ----------------------------------------------------------------


def _smooth_random_controls(mesh: Mesh, samples: int, seed: int):
    """Seeded smooth random nodal controls (low-frequency sine series whose
    k-th mode has standard deviation 1/k)."""
    rng = np.random.default_rng(seed)
    x = mesh.node_coords()
    out = []
    for _ in range(samples):
        vals = np.full(mesh.n_nodes, rng.normal(0.0, 1.0))
        for k in range(1, 4):
            vals += rng.normal(0.0, 1.0 / k) * np.sin(np.pi * k * x[:, 0])
        out.append(ScalarField(mesh, vals))
    return out


def certify_gap(rp: RelaxedProblem, samples: int = 6, seed: int = 0,
                classical_opts: Optional[OptimizeOptions] = None,
                designed_init: Optional[RelaxedInit] = None) -> RelaxationReport:
    """Sub-relaxation certificate m_relaxed <= m_classical + 1e-8.

    The classical side samples reference controls, seeded smooth random
    controls and a budgeted optimizer run, all on the problem's mesh.  The
    relaxed side runs optimize_relaxed under the same ``classical_opts``
    from the designed init, else from the classical run's own start (the
    best candidate u, with s = a(grad y_u)), and takes the better of its
    value and the Dirac embedding of the best classical control; a tie goes
    to the optimizer.  ``minimizer`` holds the relaxed point (mu, nu, y)
    behind ``relaxed``, and ``classical`` and ``relaxed_run`` how the two
    runs stopped (_run_summary).  A
    violated inequality marks the report FAILED: a bug trap, not a
    tolerated outcome.

    No classical state is solved twice: the candidates are solved as one
    stack at ``classical_opts.state_tol`` (the classical run's own
    tolerance), the best candidate's cost and state are the classical run's
    ``base``, and the tight embedding solve starts from that state.  A
    ``designed_init`` on another mesh is rejected before any of this.
    """
    grid.check_count("samples", samples, 0)
    grid.check_count("seed", seed, 0)
    if designed_init is not None:
        _check_init(rp, designed_init)
    cp = rp.control
    mesh = rp.mesh
    candidates: list = []
    for vals in cp.reference_controls:
        candidates.append(ScalarField(mesh, np.asarray(vals, dtype=float)))
    candidates.append(ScalarField(mesh, np.zeros(mesh.n_nodes)))
    candidates.extend(_smooth_random_controls(mesh, samples, seed))

    if classical_opts is None:
        classical_opts = OptimizeOptions(max_iterations=CLASSICAL_MAX_ITERATIONS)
    # the candidates' states, at the classical run's tolerance, in one stack
    U = np.array([u.values for u in candidates])
    Y = _state_columns(cp, U, None, classical_opts.state_tol)
    costs = _costs(cp, U, Y)
    best = int(np.argmin(costs))  # the first of equal minima
    best_cost, best_u = float(costs[best]), candidates[best]
    best_y = ScalarField(mesh, Y[best])
    init = designed_init or RelaxedInit(_dirac_control(mesh, best_u.values),
                                        dirac_field(grid.gradient(best_y)))

    u_opt, opt_report = optimize_control(cp, best_u, classical_opts, base=(best_cost, best_y))
    if opt_report.cost < best_cost:
        best_cost, best_u = opt_report.cost, u_opt

    # classical best re-evaluated tightly, on the embedding's own state
    mu_e, nu_e, y_e = embed_classical(rp, best_u, warm=best_y)
    best_cost_tight = float(_costs(cp, best_u.values[None], y_e.values[None])[0])
    best_cost = min(best_cost, best_cost_tight)

    embedded_cost, y_mv = _relaxed_point(rp, mu_e, nu_e)
    dirac_residual = abs(embedded_cost - best_cost_tight)

    mu, nu, y, relax_report = optimize_relaxed(rp, init, classical_opts)
    relaxed_value = relax_report.cost
    if embedded_cost < relaxed_value:
        relaxed_value, mu, nu, y = embedded_cost, mu_e, nu_e, y_mv

    certificates = [
        {"name": "sub-relaxation", "value": float(best_cost - relaxed_value),
         "threshold": -SUBRELAXATION_SLACK,
         "passed": bool(relaxed_value <= best_cost + SUBRELAXATION_SLACK)},
        {"name": "dirac-embedding", "value": float(dirac_residual),
         "threshold": DIRAC_RESIDUAL_TOL, "passed": bool(dirac_residual <= DIRAC_RESIDUAL_TOL)},
    ]
    return RelaxationReport(
        best_classical=float(best_cost),
        relaxed=float(relaxed_value),
        dirac_residual=float(dirac_residual),
        certificates=certificates,
        classical=_run_summary(opt_report),
        relaxed_run=_run_summary(relax_report),
        minimizer=(mu, nu, y),
    )


def _run_summary(report) -> dict:
    """How an optimizer run stopped: its stop reason, iterations,
    stationarity and kink nodes."""
    return {"stopped": report.extras["stopped"], "iterations": report.iterations,
            "stationarity": report.stationarity, "kink_nodes": report.extras["kink_nodes"]}
