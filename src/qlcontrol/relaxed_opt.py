"""Measure-valued relaxation of the quasilinear control problem.

The relaxed state couples a control u (recovered from the barycenter
potential of a PH1 measure mu, plus a stored additive constant) with a PH1_0
state-gradient measure nu through

    (-lap + b) y = f(u) - avg(a)      avg(a) = moment(nu, a),
    grad y = barycenter(nu)           (coupling residual = consistency),

and the relaxed cost is the state cost plus (M/2) times the second moment of
mu.  Optimization alternates penalized projected-gradient steps on nu and mu
with a feasibility-restoration shift that re-couples the barycenter to the
current state; the sub-relaxation certificate compares against the best
sampled classical cost.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid
from .control_opt import (
    _FD_BLOCK,
    ControlProblem,
    OptimizeOptions,
    _costs,
    _state_columns,
    _state_costs,
    _state_one,
    optimize_control,
)
from .grid import Mesh, ScalarField, VectorField
from .reports import RelaxationReport, SolveReport
from .young_measure import (
    YoungMeasureField,
    _barycenters,
    barycenter,
    dirac_field,
    potential,
    second_moment,
)

__all__ = [
    "RelaxedProblem",
    "RelaxedInit",
    "InfeasibleMeasureError",
    "solve_mv_state",
    "evaluate_relaxed_cost",
    "optimize_relaxed",
    "certify_gap",
    "embed_classical",
]

FEASIBILITY_TOL = 1e-6  # coupling residual of a feasible nu
SUBRELAXATION_SLACK = 1e-8
DIRAC_RESIDUAL_TOL = 1e-10
_TIGHT_STATE_TOL = 1e-12
_FD_STEP = 1e-6  # forward-difference step of the phase objectives
_STEP0 = 1e-2  # first trial step of each phase
_HALVINGS = 25  # line-search trials step0 * 2**-k, k < _HALVINGS
# the alternating scheme: outer iterations, descent steps per phase and
# iteration, the penalty's first value and cap, and the stationarity stop
_MAX_OUTER = 40
_INNER_STEPS = 4
_RHO0 = 1e3
_RHO_MAX = 1e8
_STATIONARITY_TOL = 1e-5

_log = logging.getLogger(__name__)


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
    """Relaxation data on top of a quasilinear control problem on a 1D mesh."""

    control: ControlProblem

    def __post_init__(self):
        if self.control.regime != "quasilinear":
            raise ValueError("relaxation applies to the quasilinear regime")
        _check_mesh(self.mesh)
        # the state problem construction enforces b > L^2/4 already

    @property
    def mesh(self) -> Mesh:
        return self.control.mesh

    @property
    def b(self) -> float:
        return self.control.state.b


@dataclass(frozen=True)
class RelaxedInit:
    """Initial measures for the alternating scheme."""

    mu: YoungMeasureField
    nu: YoungMeasureField


# -- measure-valued state -------------------------------------------------------


# Leading axes of atoms (..., n_cells, K, N), weights (..., n_cells, K) and
# nodal or cell values are batch axes in the helpers below.


def _a_values(a, atoms: np.ndarray) -> np.ndarray:
    """The coefficient a at every atom, shape atoms.shape[:-1] (zeros when
    a is None)."""
    if a is None:
        return np.zeros(atoms.shape[:-1])
    return np.asarray(a(atoms.reshape(-1, atoms.shape[-1])), dtype=float).reshape(
        atoms.shape[:-1]
    )


def _abar_cells(a, atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-cell moment of the coefficient a against the atoms."""
    return np.sum(weights * _a_values(a, atoms), axis=-1)


def _relaxed_states(rp: RelaxedProblem, fvals, abar, bary):
    """Relaxed states y of (-lap + b) y = f(u) - avg(a) for a stack of
    points, and their coupling mismatch grad y - barycenter."""
    y = grid.helmholtz_solve_values(
        rp.mesh, rp.b, fvals - grid.cell_to_node_values(rp.mesh, abar)
    )
    return y, grid.gradient_values(rp.mesh, y) - bary


def _response(rp: RelaxedProblem):
    """Cached (Z, grad Z), Z[c] = (-lap + b)^-1 C2N e_c: the relaxed
    state's response to a unit moment in cell c, every cell in one stacked
    solve.  The state is affine in the moment, so a point whose moment
    moves by d in cell c alone has the state y - d Z[c]."""
    mesh = rp.mesh

    def build():
        Z = grid.helmholtz_solve_values(
            mesh, rp.b, grid.cell_to_node_values(mesh, np.eye(mesh.n_cells))
        )
        return Z, grid.gradient_values(mesh, Z)

    return grid._cached(grid._FACTOR_CACHE, ("response", mesh.cells_per_axis, rp.b), build)


def solve_mv_state(rp: RelaxedProblem, u: ScalarField, nu: YoungMeasureField):
    """Relaxed state for a control and a PH1_0 state-gradient measure.

    Returns the state and the coupling residual
    ``l2_norm(gradient(y) - barycenter(nu))``; a feasible measure keeps the
    residual below the feasibility tolerance.
    """
    if nu.klass != "PH10":
        raise ValueError("state-gradient measure must be of class PH10")
    fvals = np.asarray(rp.control.cs.f(u.values), dtype=float)
    y, mismatch = _relaxed_states(
        rp, fvals, _abar_cells(rp.control.cs.a, nu.atoms, nu.weights), barycenter(nu).values
    )
    return ScalarField(rp.mesh, y), grid.l2_norm(VectorField(rp.mesh, mismatch))


def _relaxed_cost(rp: RelaxedProblem, mu: YoungMeasureField, y: np.ndarray) -> float:
    """F(y) + (M/2) * second_moment(mu) for relaxed state values y."""
    return float(_state_costs(rp.control, y) + 0.5 * rp.control.M * second_moment(mu))


def _relaxed_point(rp: RelaxedProblem, mu, nu):
    """Relaxed cost and relaxed state of (mu, nu); raises on infeasible nu."""
    if mu.klass != "PH1":
        raise ValueError("control measure must be of class PH1")
    y, cons = solve_mv_state(rp, potential(mu), nu)
    if cons > FEASIBILITY_TOL:
        raise InfeasibleMeasureError(
            f"coupling residual {cons:.3e} exceeds {FEASIBILITY_TOL:.1e}"
        )
    return _relaxed_cost(rp, mu, y.values), y


def evaluate_relaxed_cost(
    rp: RelaxedProblem, mu: YoungMeasureField, nu: YoungMeasureField
) -> float:
    """Relaxed cost F(y) + (M/2) * second_moment(mu); the control is the
    barycenter potential of mu plus its stored constant.  Raises on
    infeasible nu."""
    return _relaxed_point(rp, mu, nu)[0]


def embed_classical(
    rp: RelaxedProblem, u: ScalarField, warm: Optional[ScalarField] = None
):
    """Dirac embedding (delta_{grad u}, delta_{grad y_u}) of a classical pair.

    The stored constant is the plain nodal mean of u, matching the zero-mean
    normalization of PH1 potentials; on a 1D mesh the gradient's kernel holds
    the constants alone, so the embedding is exact.  The state is solved to
    the tight tolerance 1e-12, from ``warm`` (zero when None), as in
    evaluate_cost.
    """
    mesh = rp.mesh
    y = _state_one(rp.control, u, warm, _TIGHT_STATE_TOL)
    gu = grid.gradient_values(mesh, u.values)
    mu = YoungMeasureField(
        mesh, gu[:, None, :], np.ones((mesh.n_cells, 1)), "PH1", float(np.mean(u.values))
    )
    nu = dirac_field(grid.gradient(y))
    return mu, nu, y


# -- alternating optimizer -------------------------------------------------------


def _project_simplex_rows(W: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    K = W.shape[1]
    if K == 1:
        return np.ones_like(W)
    s = np.sort(W, axis=1)[:, ::-1]
    css = np.cumsum(s, axis=1) - 1.0
    ks = np.arange(1, K + 1)
    cond = s - css / ks > 0
    rho = K - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(W.shape[0]), rho] / (rho + 1.0)
    out = np.maximum(W - tau[:, None], 0.0)
    return out / np.sum(out, axis=1, keepdims=True)


def _nu_objective(rp: RelaxedProblem, fvals: np.ndarray, rho: float):
    """Penalized objective in the state-gradient measure at fixed control,
    on a stack of (atoms, weights) points.  Its ``fd_rows`` scores the rows
    of :func:`_fd_gradient` by rank-one updates of the point's state."""
    a = rp.control.cs.a

    def score(y, mismatch):
        cons2 = rp.mesh.cell_volume * np.sum(mismatch**2, axis=(-2, -1))
        return _state_costs(rp.control, y) + rho * cons2

    def values(atoms, weights):
        return score(*_relaxed_states(
            rp, fvals, _abar_cells(a, atoms, weights), _barycenters(atoms, weights)
        ))

    def fd_rows(atoms, weights, fd):
        """The value at (atoms, weights), solved as a stack of one, then at
        each forward perturbation in _fd_gradient's order: every atom, then
        every weight when a cell has more than one atom.  A perturbation
        moves the moment and the barycenter of its own cell only, so its
        state is the point's minus the moment's change times the cell's
        response.  Like the stacked moment, this needs a pointwise per row."""
        point = (atoms[None], weights[None])
        abar, bary = _abar_cells(a, *point), _barycenters(*point)
        y0, m0 = _relaxed_states(rp, fvals, abar, bary)
        # per perturbation: its cell, and the cell's weights and atoms
        # after the move (relaxation is 1D: one gradient component)
        K = atoms.shape[1]
        i = np.arange(atoms.size)
        cell = i // K
        move = fd * np.eye(K)[i % K]
        w, x = weights[cell], atoms[cell, :, 0]
        moved = [(w, x + move)] + ([(w + move, x)] if K > 1 else [])
        w, x = (np.concatenate(m) for m in zip(*moved))
        cell = np.tile(cell, len(moved))
        d_abar = np.sum(w * _a_values(a, x[..., None]), axis=-1) - abar[0, cell]
        d_bary = np.einsum("rk,rk->r", w, x) - bary[0, cell, 0]
        Z, dZ = _response(rp)
        out = np.empty(1 + cell.size)
        out[0] = score(y0, m0)[0]
        for lo in range(0, cell.size, _FD_BLOCK):
            r = slice(lo, lo + _FD_BLOCK)
            c, d = cell[r], d_abar[r, None]
            mismatch = m0 - d[..., None] * dZ[c]
            mismatch[np.arange(c.size), c, 0] -= d_bary[r]
            out[1:][r] = score(y0 - d * Z[c], mismatch)
        return out

    values.fd_rows = fd_rows
    return values


def _mu_objective(rp: RelaxedProblem, nu_atoms, nu_weights, rho: float):
    """Penalized objective in the control measure at fixed nu, on a stack of
    (atoms, weights, offset) points."""
    abar = _abar_cells(rp.control.cs.a, nu_atoms, nu_weights)
    nu_bary = _barycenters(nu_atoms, nu_weights)

    def values(atoms, weights, offset):
        pot = grid.gradient_potential_values(rp.mesh, _barycenters(atoms, weights), "h1")
        fvals = np.asarray(rp.control.cs.f(pot + offset[..., None]), dtype=float)
        y, mismatch = _relaxed_states(rp, fvals, abar, nu_bary)
        cons2 = rp.mesh.cell_volume * np.sum(mismatch**2, axis=(-2, -1))
        sm = rp.mesh.cell_volume * np.sum(
            weights * np.sum(atoms * atoms, axis=-1), axis=(-2, -1)
        )
        return _state_costs(rp.control, y) + 0.5 * rp.control.M * sm + rho * cons2

    return values


def _fd_gradient(values, params, fd: float):
    """Forward-difference gradient of a phase objective at (atoms, weights[,
    offset]); returns (value, gradients).

    The base point and every coordinate perturbation are scored by the
    objective's ``fd_rows`` when it has one, else in stacks of at most
    _FD_BLOCK points.  The weight gradient is taken tangent to the simplex;
    with one atom per cell that tangent space is {0}, so the weights are not
    perturbed at all.
    """
    params = [np.asarray(p, dtype=float) for p in params]
    sizes = [0 if i == 1 and p.shape[-1] == 1 else p.size for i, p in enumerate(params)]
    firsts = np.cumsum([1] + sizes[:-1])  # stack row of each block's first perturbation
    n = 1 + sum(sizes)
    fd_rows = getattr(values, "fd_rows", None)
    if fd_rows is not None:
        vals = fd_rows(*params, fd)
    else:
        vals = np.empty(n)
        for lo in range(0, n, _FD_BLOCK):
            rows = np.arange(lo, min(lo + _FD_BLOCK, n))
            stack = []
            for p, first, size in zip(params, firsts, sizes):
                q = np.repeat(p.reshape(1, -1), rows.size, axis=0)
                hit = (rows >= first) & (rows < first + size)
                q[hit, rows[hit] - first] += fd
                stack.append(q.reshape((rows.size,) + p.shape))
            vals[rows] = values(*stack)
    grads = [
        ((vals[first : first + size] - vals[0]) / fd).reshape(p.shape)
        if size else np.zeros_like(p)
        for p, first, size in zip(params, firsts, sizes)
    ]
    if sizes[1]:
        grads[1] -= np.mean(grads[1], axis=1, keepdims=True)
    return vals[0], grads


def _descend(values, params, grads, step0: float, base: float):
    """One backtracking projected-gradient step.

    Scores the trials at step0 * 2**-k (k < _HALVINGS) in one stack and
    takes the first below ``base``: the same step sequential halving would
    accept.  Returns (params, step); step is 0.0 when no trial descends.
    """
    steps = step0 * 0.5 ** np.arange(_HALVINGS)
    trials = []
    for p, g in zip(params, grads):
        p = np.asarray(p, dtype=float)
        trials.append(p[None] - steps.reshape((-1,) + (1,) * p.ndim) * g[None])
    K = trials[1].shape[-1]
    if K > 1:  # weights block: project back to the simplex
        trials[1] = _project_simplex_rows(trials[1].reshape(-1, K)).reshape(trials[1].shape)
    below = np.flatnonzero(values(*trials) < base)
    if below.size == 0:
        return list(params), 0.0
    k = below[0]
    return [t[k] for t in trials], float(steps[k])


def _phase_descent(values, params, gnorms: list):
    """Up to _INNER_STEPS projected-gradient steps on the stacked phase
    objective ``values``; appends each gradient's sup norm to gnorms and
    returns the final parameters and the number of steps accepted (0: the
    parameters are returned as given)."""
    step = _STEP0
    accepted = 0
    for _ in range(_INNER_STEPS):
        base, grads = _fd_gradient(values, params, _FD_STEP)
        gnorms.append(float(np.max([np.max(np.abs(g)) for g in grads])))
        params, used = _descend(values, params, grads, step, base)
        if used == 0.0:
            break
        accepted += 1
        step = min(used * 2.0, 1e2)
    return params, accepted


def _restore_feasibility(rp: RelaxedProblem, fvals, atoms, weights):
    """Shift atoms per cell so the barycenter matches the current state
    gradient exactly (one linear solve)."""
    _, mismatch = _relaxed_states(
        rp, fvals, _abar_cells(rp.control.cs.a, atoms, weights), _barycenters(atoms, weights)
    )
    return atoms + mismatch[:, None, :]


def optimize_relaxed(rp: RelaxedProblem, init: RelaxedInit):
    """Alternating penalized descent over (nu, mu).

    Phases: (i) projected gradient on nu's atoms and weights against cost
    plus rho * consistency^2; (ii) feasibility restoration re-coupling the
    barycenter to the state; (iii) descent on mu's atoms, weights and the
    additive constant of the control.  Each phase takes up to _INNER_STEPS
    steps per outer iteration, and rho starts at _RHO0.  Returns the best
    feasible point seen (the init included, so the value never exceeds a
    feasible init's cost); feasible means a coupling residual of at most
    FEASIBILITY_TOL.

    ``extras["stopped"]`` names the exit: "stationary" (every gradient of
    the iteration is below _STATIONARITY_TOL; the only converged exit),
    "infeasible" (the penalty reached _RHO_MAX with the iterate still
    infeasible), "stalled" (an iteration that started from a restored nu
    accepted no step in either phase and ended feasible, so the next
    iteration would repeat it at the same rho) or "cap" (_MAX_OUTER
    iterations).  A feasible init starts the loop from the restored nu of
    its snapshot, so the stall can come at the first iteration; an
    infeasible init starts from its own nu and stalls from the second on.
    """
    t0 = time.perf_counter()
    mesh = rp.mesh

    mu_atoms = np.array(init.mu.atoms)
    mu_weights = np.array(init.mu.weights)
    mu_offset = float(init.mu.potential_offset)
    nu_atoms = np.array(init.nu.atoms)
    nu_weights = np.array(init.nu.weights)

    def current_mu():
        """The control measure, its control u and the source values f(u)."""
        mu_f = YoungMeasureField(mesh, mu_atoms, mu_weights, "PH1", mu_offset)
        u = potential(mu_f)
        return mu_f, u, np.asarray(rp.control.cs.f(u.values), dtype=float)

    def current_nu(atoms):
        return YoungMeasureField(mesh, atoms, nu_weights, "PH10")

    def feasible_snapshot(atoms):
        """Project nu exactly; the point's true relaxed cost, measures,
        state and coupling residual, or None if it stays infeasible."""
        nu_f = current_nu(_restore_feasibility(rp, fvals, atoms, nu_weights))
        y, cons = solve_mv_state(rp, u, nu_f)
        if cons > FEASIBILITY_TOL:
            return None
        return _relaxed_cost(rp, mu_f, y.values), mu_f, nu_f, y, cons

    # mu_f, u and fvals follow every update of mu
    mu_f, u, fvals = current_mu()
    best = feasible_snapshot(nu_atoms)
    # a feasible init starts the loop from its restored nu, the point the
    # second iteration would start from if the first accepted no step
    restored = best is not None
    if restored:
        nu_atoms = np.array(best[2].atoms)
    rho = _RHO0
    stopped = "cap"

    for outer in range(1, _MAX_OUTER + 1):
        # (i) descend in nu under the penalty
        gnorms: list = []
        (nu_atoms, nu_weights), nu_steps = _phase_descent(
            _nu_objective(rp, fvals, rho), [nu_atoms, nu_weights], gnorms
        )

        # (ii) feasibility restoration
        nu_atoms = _restore_feasibility(rp, fvals, nu_atoms, nu_weights)

        # (iii) descend in mu (atoms, weights, additive constant)
        (mu_atoms, mu_weights, mu_offset), mu_steps = _phase_descent(
            _mu_objective(rp, nu_atoms, nu_weights, rho),
            [mu_atoms, mu_weights, mu_offset],
            gnorms,
        )
        if mu_steps:
            mu_offset = float(mu_offset)
            mu_f, u, fvals = current_mu()

        snap = feasible_snapshot(nu_atoms)
        if snap is not None and (best is None or snap[0] < best[0]):
            best = snap

        stationarity = max(gnorms)
        _log.debug(
            "optimize_relaxed outer %d: cost %.12g stationarity %.3e rho %.1e "
            "steps accepted nu %d mu %d",
            outer, snap[0] if snap is not None else np.nan, stationarity, rho,
            nu_steps, mu_steps,
        )
        if stationarity <= _STATIONARITY_TOL:
            stopped = "stationary"
            break

        # tighten the penalty while the raw iterate stays infeasible
        _, cons = solve_mv_state(rp, u, current_nu(nu_atoms))
        if cons > FEASIBILITY_TOL:
            if rho >= _RHO_MAX:
                stopped = "infeasible"
                break
            rho = min(rho * 10.0, _RHO_MAX)
        elif (outer > 1 or restored) and nu_steps == mu_steps == 0:
            # mu is unchanged and the iteration started from a restored nu,
            # which it moved only by the restoration: the next iteration
            # would redo it at the same rho
            stopped = "stalled"
            break
    _log.debug("optimize_relaxed stopped: %s after %d outer iterations", stopped, outer)

    if best is None:
        raise InfeasibleMeasureError(
            "no feasible iterate found (penalty capped at rho_max)"
        )
    value, mu_best, nu_best, y_best, cons_best = best
    report = SolveReport(
        method="alternating-penalty",
        iterations=outer,
        residual=cons_best,
        converged=stopped == "stationary",
        cost=value,
        stationarity=stationarity,
        wall_time=time.perf_counter() - t0,
        extras={"rho": rho, "stopped": stopped},
    )
    return mu_best, nu_best, y_best, report


# -- certification ----------------------------------------------------------------


def _smooth_random_controls(mesh: Mesh, samples: int, seed: int, scale: float = 1.0):
    """Seeded smooth random nodal controls (low-frequency sine series)."""
    rng = np.random.default_rng(seed)
    x = mesh.node_coords()
    out = []
    for _ in range(samples):
        vals = np.full(mesh.n_nodes, rng.normal(0.0, scale))
        for k in range(1, 4):
            vals += rng.normal(0.0, scale / k) * np.sin(np.pi * k * x[:, 0])
        out.append(ScalarField(mesh, vals))
    return out


def certify_gap(
    rp: RelaxedProblem,
    samples: int = 6,
    seed: int = 0,
    classical_opts: Optional[OptimizeOptions] = None,
    designed_init: Optional[RelaxedInit] = None,
) -> RelaxationReport:
    """Sub-relaxation certificate m_relaxed <= m_classical + 1e-8.

    The classical side samples reference controls, seeded smooth random
    controls and a budgeted optimizer run, all on the problem's mesh; the
    relaxed side takes the best of the alternating optimizer (from the
    designed init when given) and the Dirac embedding of the best classical
    control.  A violated inequality marks the report FAILED; it is a bug
    trap, not a tolerated outcome.  The report's ``minimizer`` holds the
    relaxed point (mu, nu, y) whose cost is ``relaxed``; on a tie it is the
    optimizer's.  Its ``classical`` block reports how the classical
    optimizer run stopped.

    No classical state is solved twice: the candidates are solved as one
    stack at ``classical_opts.state_tol`` (the classical run's own
    tolerance), the best candidate's cost and state are the classical run's
    ``base``, and the tight embedding solve starts from that state.
    """
    cp = rp.control
    mesh = rp.mesh
    candidates: list = []
    for vals in cp.reference_controls:
        candidates.append(ScalarField(mesh, np.asarray(vals, dtype=float)))
    candidates.append(ScalarField(mesh, np.zeros(mesh.n_nodes)))
    candidates.extend(_smooth_random_controls(mesh, samples, seed))

    if classical_opts is None:
        classical_opts = OptimizeOptions(max_iterations=12)
    # the candidates' states, at the classical run's tolerance, in one stack
    U = np.array([u.values for u in candidates])
    Y = _state_columns(cp, U, None, classical_opts.state_tol)
    costs = _costs(cp, U, Y)
    best = int(np.argmin(costs))  # the first of equal minima
    best_cost, best_u = float(costs[best]), candidates[best]
    best_y = ScalarField(mesh, Y[best])

    u_opt, opt_report = optimize_control(
        cp, best_u, classical_opts, base=(best_cost, best_y)
    )
    if opt_report.cost < best_cost:
        best_cost, best_u = opt_report.cost, u_opt

    # classical best re-evaluated tightly, on the embedding's own state
    mu_e, nu_e, y_e = embed_classical(rp, best_u, warm=best_y)
    best_cost_tight = float(_costs(cp, best_u.values[None], y_e.values[None])[0])
    best_cost = min(best_cost, best_cost_tight)

    embedded_cost, y_mv = _relaxed_point(rp, mu_e, nu_e)
    dirac_residual = abs(embedded_cost - best_cost_tight)

    init = designed_init or RelaxedInit(mu_e, nu_e)
    mu, nu, y, relax_report = optimize_relaxed(rp, init)
    relaxed_value = relax_report.cost
    if embedded_cost < relaxed_value:
        relaxed_value, mu, nu, y = embedded_cost, mu_e, nu_e, y_mv

    certificates = [
        {
            "name": "sub-relaxation",
            "value": float(best_cost - relaxed_value),
            "threshold": -SUBRELAXATION_SLACK,
            "passed": bool(relaxed_value <= best_cost + SUBRELAXATION_SLACK),
        },
        {
            "name": "dirac-embedding",
            "value": float(dirac_residual),
            "threshold": DIRAC_RESIDUAL_TOL,
            "passed": bool(dirac_residual <= DIRAC_RESIDUAL_TOL),
        },
    ]
    report = RelaxationReport(
        best_classical=float(best_cost),
        relaxed=float(relaxed_value),
        dirac_residual=float(dirac_residual),
        certificates=certificates,
        failed=not all(c["passed"] for c in certificates),
        classical={
            "stopped": opt_report.extras["stopped"],
            "iterations": opt_report.iterations,
            "stationarity": opt_report.stationarity,
        },
        minimizer=(mu, nu, y),
    )
    return report
