"""Outer control problem: minimize F(y_u) plus (M/2)|grad u|^2.

Descent is plain projected gradient with Armijo backtracking.  In the
quasilinear and monotone regimes the cost gradient is the discrete adjoint:
one dense solve with the transposed Jacobian of the state residual at the
solved state (the regime's ``interior_jacobian``).  At a node where u sits
on a declared kink of f, the adjoint gradient's entry is the steepest-descent
slope of the one-sided directional derivatives instead, so its norm, the
stationarity the descent stops on, is a B-stationarity measure: zero exactly
where no direction descends to first order.  The variational regime
still estimates it by forward finite differences over nodal control
perturbations, whose perturbed states are solved as one stack of columns,
each warm-started from the unperturbed state: its recorded reference cost
(perfbench) is set by that estimate's noise, and an exact gradient moves it
by about 2%.  The backtracking trials are solved as stacks too, a few chunks
of them at a time.  The loop itself, _descend, also runs relaxed_opt's
projected descent on the control and its slack.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import grid
from . import state_monotone, state_quasilinear
from .coefficients import CoefficientSet, one_sided_derivatives, pointwise_derivative
from .grid import Mesh, ScalarField
from .reports import NonConvergenceError, SolveReport
from .state_monotone import solve_monotone, solve_monotone_columns
from .state_quasilinear import solve_quasilinear, solve_quasilinear_columns
from .state_variational import VariationalStateProblem, solve_state, solve_state_columns
from .young_measure import YoungMeasureField, realize_sequence

__all__ = [
    "ControlProblem",
    "OptimizeOptions",
    "evaluate_cost",
    "optimize_control",
    "minimizing_sequence_demo",
]

_STATE_TOL_DEFAULTS = {"variational": 1e-8, "monotone": 1e-9, "quasilinear": 1e-11}
_FD_STEP = 1e-5  # relative forward-difference step of the cost gradient
# points solved per stacked call; bounds the memory of a finite-difference
# stack at _FD_BLOCK columns, whatever the mesh size
_FD_BLOCK = 512
# line-search trials solved per stacked call: chunks of 2, 4, 8, then 16
_LADDER_CHUNK = 16
_LINESEARCH_MAX = 30  # Armijo trials per line search
_INITIAL_STEP = 1.0  # first trial step of the first line search

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControlProblem:
    """Outer problem data: state problem and per-instance extras.

    The state problem fixes the mesh, the regime (its class names it) and
    the coefficient set, which carries the cost integrand F, the
    control-to-source map f and the weight M of the Tychonov term (M/2) int
    |grad u|^2, the only regularizer.  In the variational regime f(u) replaces the state
    problem's fixed source (the control then also enters the inner energy
    through W's second slot).  ``rebuild`` maps a mesh to the instance's
    state problem on that mesh.
    """

    state: object
    rebuild: Optional[Callable[[Mesh], object]] = field(default=None, compare=False)
    demo_measure: Optional[YoungMeasureField] = field(default=None, compare=False)
    reference_controls: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if getattr(self.state, "regime", None) not in _STATE_TOL_DEFAULTS:
            raise ValueError(f"unknown state problem type {type(self.state).__name__}")
        if self.cs.M is None:
            raise ValueError("control problem needs the Tychonov weight M")
        if self.cs.F is None:
            raise ValueError("control problem needs the cost integrand F")
        if self.regime == "variational" and self.cs.f is None:
            raise ValueError("variational control problem needs the map f")

    @property
    def mesh(self) -> Mesh:
        return self.state.mesh

    @property
    def cs(self) -> CoefficientSet:
        return self.state.cs

    @property
    def M(self) -> float:
        return self.cs.M

    @property
    def regime(self) -> str:
        return self.state.regime

    def with_mesh(self, mesh: Mesh) -> "ControlProblem":
        """The same problem on another mesh, without the per-instance extras."""
        if self.rebuild is None:
            raise ValueError("this problem carries no mesh rebuilder")
        return ControlProblem(self.rebuild(mesh), rebuild=self.rebuild)


def state_solvers(regime: str) -> tuple:
    """(single solve, stacked solve) of a regime: the one place a regime
    picks its state solver.  The table is built per call, so it reads this
    module's current bindings (wrappers installed on them, as perfbench's
    tracer does, see every solve)."""
    return {
        "variational": (solve_state, solve_state_columns),
        "monotone": (solve_monotone, solve_monotone_columns),
        "quasilinear": (solve_quasilinear, solve_quasilinear_columns),
    }[regime]


def _state_one(
    cp: ControlProblem,
    u: ScalarField,
    warm: Optional[ScalarField],
    state_tol: Optional[float],
) -> ScalarField:
    """State of one control through the regime's single solve; in 1D it
    equals row 0 of _state_columns on ``u.values[None]`` bit for bit."""
    tol = state_tol if state_tol is not None else _STATE_TOL_DEFAULTS[cp.regime]
    solve = state_solvers(cp.regime)[0]
    y, _ = solve(cp.state, u, tol=tol, y0=warm, **_source_kw(cp.state, u.values))
    return y


def _source_kw(state, U: np.ndarray) -> dict:
    """Keywords of the state solve of one control or a stack of them: the
    one place of the rule that in the variational regime f(u) replaces the
    problem's fixed source."""
    if not isinstance(state, VariationalStateProblem):
        return {}
    return {"source": np.asarray(state.cs.f(U), dtype=float)}


def _state_columns(
    cp: ControlProblem,
    U: np.ndarray,
    warm: Optional[ScalarField],
    state_tol: Optional[float],
) -> np.ndarray:
    """States of a stack of controls (k, n_nodes) in one stacked solve of
    the problem's regime; in 1D row i equals _state_one on control i bit for
    bit."""
    tol = state_tol if state_tol is not None else _STATE_TOL_DEFAULTS[cp.regime]
    y0 = None if warm is None else warm.values
    Y, _ = state_solvers(cp.regime)[1](cp.state, U, tol=tol, y0=y0, **_source_kw(cp.state, U))
    return Y


def _state_costs(cp: ControlProblem, Y: np.ndarray) -> np.ndarray:
    """Trapezoid integral of F(y) per column of stacked states."""
    Fy = np.asarray(cp.cs.F(Y), dtype=float)
    return cp.mesh.cell_volume * np.sum(cp.mesh.node_weights() * Fy, axis=-1)


def _costs(cp: ControlProblem, U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """F(y) quadrature plus the Tychonov term, per column of stacked
    controls U and states Y."""
    reg = grid.cell_sq_norm_values(cp.mesh, grid.gradient_values(cp.mesh, U))
    return _state_costs(cp, Y) + 0.5 * cp.M * reg


def evaluate_cost(
    cp: ControlProblem,
    u: ScalarField,
    warm: Optional[ScalarField] = None,
    state_tol: Optional[float] = None,
    return_state: bool = False,
):
    """Quadrature of F(y_u) plus the Tychonov term; propagates state-solver
    non-convergence."""
    y = _state_one(cp, u, warm, state_tol)
    cost = float(_costs(cp, u.values[None], y.values[None])[0])
    if return_state:
        return cost, y
    return cost


@dataclass(frozen=True)
class OptimizeOptions:
    """Knobs of the outer descent (optimize_control, and optimize_relaxed,
    which solves no state iteratively and so ignores ``state_tol``);
    defaults follow the desk-scale caps."""

    max_iterations: int = 500
    gradient_tol: float = 1e-6
    state_tol: Optional[float] = None

    def __post_init__(self):
        grid.check_count("max_iterations", self.max_iterations, 0)
        # an infinite tolerance would stop every run as converged at once
        if not 0.0 <= self.gradient_tol < np.inf:
            raise ValueError(
                f"gradient_tol must be finite and non-negative, got {self.gradient_tol}"
            )
        if self.state_tol is not None and not 0.0 < self.state_tol < np.inf:
            raise ValueError(f"state_tol must be finite and positive, got {self.state_tol}")


# The one place each regime's gradient is chosen: the dense interior Jacobian
# of the regimes with an adjoint gradient.  The variational regime keeps the
# forward-difference stack until its perfbench reference cost, an artifact of
# that stack's noise at state_tol 1e-8, is re-recorded (ROADMAP.md, item 1).
_ADJOINT_JACOBIANS = {
    "monotone": state_monotone.interior_jacobian,
    "quasilinear": state_quasilinear.interior_jacobian,
}


def gradient_method(cp: ControlProblem) -> str:
    """The ``SolveReport.method`` of optimize_control on cp."""
    if cp.regime in _ADJOINT_JACOBIANS:
        return "adjoint-projected-gradient"
    return "fd-projected-gradient"


def _cost_gradient(cp, u, cost, state, opts) -> np.ndarray:
    """optimize_control's L2 cost gradient at u, whose cost and state are
    solved: see gradient_method."""
    if cp.regime in _ADJOINT_JACOBIANS:
        return _adjoint_cost_gradient(cp, u, state)
    return _fd_cost_gradient(cp, u, cost, state, opts)


def _regularizer_gradient(cp: ControlProblem, u: np.ndarray) -> np.ndarray:
    """Gradient of the Tychonov term of _costs with respect to nodal u."""
    mesh = cp.mesh
    gtg = grid.gradient_transpose_values(mesh, grid.gradient_values(mesh, u))
    return cp.M * mesh.cell_volume * gtg


def _source_gradient(cs: CoefficientSet, r: np.ndarray, u: np.ndarray,
                     lam: np.ndarray) -> np.ndarray:
    """r + f'(u) lam, the gradient of a cost whose state sees the source
    f(u) through the adjoint lam, with r the gradient of the rest; f' is the
    central difference, and off the declared kinks of f the arithmetic is
    that of the plain sum.

    At a node on a kink, with the one-sided values a- = r + lam f'(u; -) and
    a+ = r + lam f'(u; +), the entry g_i is that of the steepest-descent
    vector -g of the separable directional derivative d -> sum_i a+_i
    max(d_i, 0) + a-_i min(d_i, 0): a+ where raising u_i descends fastest
    (a+ < 0), a- where lowering it does (a- > 0), else 0; at a concave kink
    both may, and the faster side wins, lowering on a tie.  -g/|g|
    minimizes the directional derivative over the unit ball, where it is
    -|g|, so g = 0 exactly at a B-stationary point (Clarke, Optimization
    and Nonsmooth Analysis, 1983; Christof, Clason, Meyer & Walther, Math.
    Control Relat. Fields 8, 2018).
    """
    g = r + pointwise_derivative(cs.f, u) * lam
    on = np.isin(u, cs.f_kinks)
    if on.any():
        left, right = one_sided_derivatives(cs.f, u[on])
        a_right = r[on] + lam[on] * right
        down = np.maximum(r[on] + lam[on] * left, 0.0)
        g[on] = np.where(a_right < -down, a_right, down)
    return g


def _kink_nodes(cp: ControlProblem, u: np.ndarray) -> int:
    """Number of interior nodes (where f(u) enters the state) at which u
    sits on a declared kink of f."""
    return int(np.count_nonzero(np.isin(u[cp.mesh.interior_indices], cp.cs.f_kinks)))


def _adjoint_cost_gradient(
    cp: ControlProblem, u: np.ndarray, state: ScalarField
) -> np.ndarray:
    """Discrete adjoint L2 cost gradient at u with its solved state.

    With R(y, u) the state residual on the interior nodes and K = dR/dy at
    the state, solves K^T lam = dJ/dy (one dense solve) and forms dJ_reg/du
    + f'(u) lam (_source_gradient, which takes the steepest-descent slope
    at the kinks of f), scaled to L2 as _fd_cost_gradient.  F' and f' are
    pointwise central differences.  Hinze, Pinnau, Ulbrich & Ulbrich,
    Optimization with PDE Constraints (2009); Giles & Pierce, Flow Turb.
    Combust. 65 (2000).
    """
    mesh = cp.mesh
    interior = mesh.interior_indices
    weights = mesh.cell_volume * mesh.node_weights()
    dJdy = weights * pointwise_derivative(cp.cs.F, state.values)
    K = _ADJOINT_JACOBIANS[cp.regime](cp.state, state.values)
    lam = np.linalg.solve(K.T, dJdy[interior])
    g = _regularizer_gradient(cp, u)
    g[interior] = _source_gradient(cp.cs, g[interior], u[interior], lam)
    return g / weights


def _fd_cost_gradient(
    cp: ControlProblem,
    u: np.ndarray,
    base_cost: float,
    base_state: ScalarField,
    opts: OptimizeOptions,
    central: bool = False,
) -> np.ndarray:
    """Forward-difference (or central-difference) L2 cost gradient over nodal
    perturbations; the n (or 2n) perturbed controls are costed in stacked
    solves of _FD_BLOCK columns, warm-started from base_state."""
    mesh = cp.mesh
    delta = _FD_STEP * (1.0 + float(np.max(np.abs(u))))
    n = mesh.n_nodes
    diag = np.arange(n)
    U = np.tile(u, (2 * n if central else n, 1))
    U[diag, diag] += delta
    if central:
        U[n + diag, diag] -= delta
    blocks = np.split(U, range(_FD_BLOCK, len(U), _FD_BLOCK))
    costs = np.concatenate(
        [_costs(cp, B, _state_columns(cp, B, base_state, opts.state_tol)) for B in blocks])
    if central:
        g = (costs[:n] - costs[n:]) / (2.0 * delta)
    else:
        g = (costs - base_cost) / delta
    return g / (mesh.cell_volume * mesh.node_weights())


def _trial_ladder(score, x, g, step, clip):
    """Armijo trials at the steps step * 2^-j, j < _LINESEARCH_MAX, in
    ladder order.

    Yields ``(alpha, trial, state, cost)`` per trial.  ``clip`` maps a
    stack of points x - alpha g into the feasible set (None: every point is
    feasible).  The ladder is scored in chunks of 2, 4, 8 and then 16
    trials, each chunk one call of ``score`` (one stacked state solve), so
    every yielded trial is the one a one-by-one search would score (bit for
    bit in 1D).  A chunk that raises is scored again one trial at a time:
    a trial whose state solve does not converge yields state and cost None,
    and any other error surfaces at the trial that raises it, only if no
    earlier trial is accepted.
    """
    alphas = [step]
    for _ in range(_LINESEARCH_MAX - 1):
        alphas.append(alphas[-1] * 0.5)
    lo, size = 0, 2
    while lo < len(alphas):
        chunk = alphas[lo : lo + size]
        lo, size = lo + size, min(2 * size, _LADDER_CHUNK)
        X = x - np.array(chunk)[:, None] * g
        if clip is not None:
            X = clip(X)
        try:
            scored = score(X)
        except Exception:
            # whatever the stack raised, scoring its trials one by one
            # raises it again at the trial that causes it
            for alpha, v in zip(chunk, X):
                try:
                    trial = score(v[None])[0]
                except NonConvergenceError:
                    trial = (None, None)
                yield (alpha, v) + trial
            continue
        for alpha, v, trial in zip(chunk, X, scored):
            yield (alpha, v) + trial


def _descend(x, base, gradient, score, norm2, opts, method, *, clip=None,
             label="optimize_control"):
    """The projected-gradient loop of optimize_control and
    relaxed_opt.optimize_relaxed: gradient stop test, Armijo ladder and step
    doubling.

    ``x`` is the flat iterate and ``base`` its ``(cost, state)``;
    ``gradient(x, cost, state)`` is the (projected) L2 gradient,
    ``norm2(g)`` its squared L2 norm and ``score(X, state)`` the
    ``(state, cost)`` of each row of a stack of trials, warm-started from
    ``state``; ``clip`` goes to _trial_ladder.  Accepted iterates have
    non-increasing cost.  Returns the last iterate, its state and the
    SolveReport, whose ``extras["stopped"]`` is "gradient" (the only
    converged exit), "linesearch" or "cap"; callers time the run themselves
    (the CLI's ``timings``).
    """
    cost, state = base
    trace = [cost]
    step = _INITIAL_STEP
    stationarity = np.inf
    stopped = "cap"
    iterations = 0
    retries = 0

    for it in range(1, opts.max_iterations + 1):
        iterations = it
        g = gradient(x, cost, state)
        gnorm2 = norm2(g)
        stationarity = float(np.sqrt(gnorm2))
        _log.debug(
            "%s iteration %d: cost %.12g stationarity %.3e step %.3e (%s)",
            label, it, cost, stationarity, step, method,
        )
        if stationarity <= opts.gradient_tol:
            stopped = "gradient"
            break

        # Armijo backtracking; a trial whose state solve fails is retried
        # at the next, halved step
        trials = _trial_ladder(lambda X: score(X, state), x, g, step, clip)
        for alpha, xtrial, strial, ctrial in trials:
            if strial is None:
                retries += 1
            elif ctrial <= cost - 1e-4 * alpha * gnorm2:
                x, cost, state = xtrial, ctrial, strial
                trace.append(cost)
                break
        else:
            stopped = "linesearch"
            break
        step = min(alpha * 2.0, 1e3)
    _log.debug("%s stopped: %s after %d iterations", label, stopped, iterations)

    report = SolveReport(
        method=method,
        iterations=iterations,
        residual=stationarity,
        converged=stopped == "gradient",
        cost=cost,
        stationarity=stationarity,
        cost_trace=trace,
        extras={"stopped": stopped, "linesearch_retries": retries},
    )
    return x, state, report


def optimize_control(
    cp: ControlProblem,
    u0: ScalarField,
    opts: Optional[OptimizeOptions] = None,
    *,
    base: Optional[tuple] = None,
):
    """Projected-gradient descent on the control cost, with the gradient of
    gradient_method(cp), which ``SolveReport.method`` names.

    Deterministic given u0 and options.  Accepted iterates have
    non-increasing cost; stops at the gradient tolerance, on line-search
    exhaustion, or at the iteration cap (returning the best iterate with the
    converged flag cleared).  ``extras["kink_nodes"]`` counts the interior
    nodes of the last iterate on a declared kink of f.

    ``base`` is u0's ``(cost, state)`` when the caller has solved it already,
    at ``opts.state_tol``; the run then skips its first state solve.  A 1D
    column of a stacked solve equals the single solve bit for bit, so a base
    taken from one leaves the run unchanged.
    """
    if opts is None:
        opts = OptimizeOptions()
    mesh = cp.mesh
    u = np.array(u0.values, dtype=float)
    if base is None:
        base = evaluate_cost(
            cp, ScalarField(mesh, u), state_tol=opts.state_tol, return_state=True
        )

    def gradient(u, cost, y):
        return _cost_gradient(cp, u, cost, ScalarField(mesh, y), opts)

    def norm2(g):
        return float(grid.sq_norm_values(mesh, g))

    def score(U, y):
        Y = _state_columns(cp, U, ScalarField(mesh, y), opts.state_tol)
        return list(zip(Y, _costs(cp, U, Y).tolist()))

    u, _, report = _descend(
        u, (base[0], base[1].values), gradient, score, norm2, opts, gradient_method(cp)
    )
    report.extras["kink_nodes"] = _kink_nodes(cp, u)
    return ScalarField(mesh, u), report


def central_fd_gradient(
    cp: ControlProblem, u: ScalarField, opts: Optional[OptimizeOptions] = None
) -> np.ndarray:
    """Central-difference L2 cost gradient (self-consistency reference)."""
    return _fd_gradient_at(cp, u, opts, central=True)


def forward_fd_gradient(
    cp: ControlProblem, u: ScalarField, opts: Optional[OptimizeOptions] = None
) -> np.ndarray:
    """Forward-difference L2 cost gradient at u: the optimizer's estimate in
    the variational regime, an independent check in the others."""
    return _fd_gradient_at(cp, u, opts, central=False)


def _fd_gradient_at(
    cp: ControlProblem, u: ScalarField, opts: Optional[OptimizeOptions], central: bool
) -> np.ndarray:
    """FD cost gradient at u, from a fresh base state solve."""
    if opts is None:
        opts = OptimizeOptions()
    cost, state = evaluate_cost(cp, u, state_tol=opts.state_tol, return_state=True)
    return _fd_cost_gradient(cp, u.values, cost, state, opts, central)


def minimizing_sequence_demo(cp: ControlProblem, j_list) -> np.ndarray:
    """Costs of the realized oscillating controls u_j for each j.

    Realizes the problem's two-atom control-gradient measure
    ``cp.demo_measure`` at each oscillation count and evaluates the
    classical cost on the realization mesh (rebuilding the problem there);
    the trace is non-increasing in j up to O(1/j) wiggle.  Each state solve
    after the first starts from the previous realization's state,
    interpolated to the new mesh.

    The trace tends to J(u_bar) + (M/2) int Var(mu_x) dx, with u_bar the
    measure's barycenter potential: u_j -> u_bar uniformly while (M/2) int
    |u_j'|^2 tends to the second moment.  With J taken on each realization
    mesh the excess halves as j doubles.  On gap-family-1d u_bar = 1 and the
    offset is M/2; the limit is not the relaxed value.
    """
    if cp.demo_measure is None:
        raise ValueError("no oscillation measure prescribed for this problem")
    costs, y = [], None
    for j in j_list:
        u_j = realize_sequence(cp.demo_measure, j)
        cp_j = cp if u_j.mesh == cp.mesh else cp.with_mesh(u_j.mesh)
        if y is not None:
            x = u_j.mesh.node_coords()[:, 0]
            y = ScalarField(u_j.mesh, np.interp(x, y.mesh.node_coords()[:, 0], y.values))
        cost, y = evaluate_cost(cp_j, u_j, warm=y, return_state=True)
        costs.append(cost)
    return np.asarray(costs)
