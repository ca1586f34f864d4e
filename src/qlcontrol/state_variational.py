"""Variational state problem: y_u minimizes the inner energy over H1_0.

The inner energy is ``I(y,u) = int W(grad y, u) + source*y``.  The minimizer
is computed by Barzilai-Borwein gradient descent with a bisected monotone
line-search fallback, whatever the energy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid
from .coefficients import (
    CONSTRUCTION_SAMPLES,
    CoefficientSet,
    HypothesisReport,
    apply_cellwise,
    check_w_convexity,
    check_w_growth,
)
from .grid import Mesh, ScalarField
from .reports import SolveReport, _columns_result

__all__ = [
    "VariationalStateProblem",
    "inner_energy",
    "solve_state",
    "solve_state_columns",
    "verify_minimality",
]

_MAX_ITERATIONS = 10_000  # BB steps per column before the polish
_HALVINGS = 59  # a rejected step is halved at most this often
_LADDER = 8  # halvings scored per stacked energy evaluation


@dataclass(frozen=True)
class VariationalStateProblem:
    """State defined through minimization of the strictly convex inner
    energy W(grad y, u) + source*y.

    The coefficient set must supply W and its gradient dW, which the solver
    uses.  Strict convexity of W in its gradient slot and the two-sided
    quadratic growth are spot-checked at construction.
    """

    mesh: Mesh
    cs: CoefficientSet
    source: ScalarField
    regime = "variational"

    def __post_init__(self):
        if self.cs.W is None or self.cs.dW is None:
            raise ValueError("variational problem needs the inner energy W and its dW")
        _check_source(self.mesh, self.source)
        check_w_growth(self.cs, CONSTRUCTION_SAMPLES, dim=self.mesh.dimension).require(
            "the declared growth (c, C) of W")
        check_w_convexity(self.cs, CONSTRUCTION_SAMPLES, dim=self.mesh.dimension).require(
            "the midpoint convexity of W")

    def with_source(self, source: ScalarField) -> "VariationalStateProblem":
        """Copy with the source replaced; only the new source is validated,
        since mesh and coefficients are unchanged."""
        _check_source(self.mesh, source)
        out = copy.copy(self)
        object.__setattr__(out, "source", source)
        return out


def _check_source(mesh: Mesh, source: ScalarField) -> None:
    if source.mesh != mesh:
        raise ValueError("source must be a nodal field on the problem mesh")


# The helpers below act on stacks of columns: y, u and source have shape
# (k, n_nodes), the cell averages ucell of u and the cell gradients Gy of y
# have k leading rows, and every column is independent of the others.


def _column_data(mesh: Mesh, u: np.ndarray, source: np.ndarray) -> tuple:
    """Per-column data of the energy helpers: the cell averages of the
    controls, and the sources."""
    return grid.node_to_cell_values(mesh, u), source


def _energies(
    p: VariationalStateProblem,
    y: np.ndarray,
    ucell: np.ndarray,
    source: np.ndarray,
):
    """Inner energy of every column and the cell gradients of y it used."""
    mesh = p.mesh
    Gy = grid.gradient_values(mesh, y)
    Wc = apply_cellwise(p.cs.W, Gy, ucell)
    cv = mesh.cell_volume
    val = cv * Wc.sum(axis=-1) + cv * (mesh.node_weights() * (source * y)).sum(axis=-1)
    return val, Gy


def _energy_values(p: VariationalStateProblem, y: np.ndarray, *data):
    """_energies, raising if any energy is not finite."""
    val, Gy = _energies(p, y, *data)
    if not np.isfinite(val).all():
        raise ValueError("inner energy is not finite")
    return val, Gy


def _energy_gradient(
    p: VariationalStateProblem,
    Gy: np.ndarray,
    ucell: np.ndarray,
    source: np.ndarray,
) -> np.ndarray:
    """L2-gradient field of the discrete energy at the states whose cell
    gradients are Gy (zero on Dirichlet nodes)."""
    mesh = p.mesh
    flux = apply_cellwise(p.cs.dW, Gy, ucell)
    g = -grid.divergence_weak_values(mesh, flux) + source
    np.copyto(g, 0.0, where=mesh.boundary_mask)
    return g


def inner_energy(p: VariationalStateProblem, y: ScalarField, u: ScalarField) -> float:
    """Quadrature value of the inner energy I(y, u); rejects non-H1_0 states."""
    if not y.is_dirichlet_zero():
        raise ValueError("inner_energy needs y = 0 on every Dirichlet node")
    data = _column_data(p.mesh, u.values[None], p.source.values[None])
    return float(_energy_values(p, y.values[None], *data)[0][0])


def residual_norm(p: VariationalStateProblem, y: np.ndarray, *data) -> np.ndarray:
    """Lifted Euler-Lagrange residual of every column; ``data`` as
    _column_data returns it."""
    Gy = grid.gradient_values(p.mesh, y)
    return grid.lift_values(p.mesh, _energy_gradient(p, Gy, *data))[1]


def solve_state(
    p: VariationalStateProblem,
    u: ScalarField,
    tol: float = 1e-8,
    y0: Optional[ScalarField] = None,
    source: Optional[np.ndarray] = None,
):
    """Minimize I(., u) over discrete H1_0.

    Damped Barzilai-Borwein descent with a bisected line search that
    enforces monotone energy decrease.  Convergence is declared when
    the lifted Euler-Lagrange residual drops below ``tol``.  This is the
    one-column case of :func:`solve_state_columns`; ``source`` (nodal
    values) replaces the problem's source, as there.
    """
    src = p.source.values if source is None else source
    return grid._one_column(solve_state_columns, p, u, y0, source=src[None], tol=tol)


def solve_state_columns(
    p: VariationalStateProblem,
    u: np.ndarray,
    y0: Optional[np.ndarray] = None,
    *,
    source: np.ndarray,
    tol: float = 1e-8,
):
    """Minimize I(., u_i) for every column of a stack of controls.

    ``u`` has shape (k, n_nodes) and ``y0`` broadcasts to it; ``source``,
    one source per control and so of u's shape, replaces the problem's
    source.  A Barzilai-Borwein step with its bisected line search is a
    step on grid._fixed_point_columns, measured by the lifted residual, so
    column i takes the steps :func:`solve_state` takes on it alone.  A
    column is at its floating-point floor once its line search runs out (it
    stays unmoved) or an accepted step leaves it unchanged; floor, stalled
    and capped columns go on to the polish.  Returns the states (k,
    n_nodes) and one report per column; raises NonConvergenceError with the
    first failed column's report if any column fails.
    """
    mesh = p.mesh
    u = np.asarray(u, dtype=float)
    k = u.shape[0]
    stack = _column_data(mesh, u, source)
    y = grid.start_columns(mesh, u.shape, y0)
    energy, Gy = _energy_values(p, y, *stack)
    g = _energy_gradient(p, Gy, *stack)
    traces = [[e] for e in energy.tolist()]

    def step(y, g, gnorm2, energy, alpha, cols, *data):
        # monotone step per column: bisect until the energy decreases
        size = alpha.copy()
        ytrial = y - size[:, None] * g
        etrial, Gtrial = _energy_values(p, ytrial, *data)
        ok = etrial <= energy - 1e-12 * size * gnorm2
        r = grid.select_rows(~ok)
        halvings = 0
        while r is not None and halvings < _HALVINGS:
            # the next rungs size * 2**-j of every rejected column in one stack
            n = min(_LADDER, _HALVINGS - halvings)
            halvings += n
            rungs = size[r] * 0.5 ** np.arange(1, n + 1)[:, None]
            ys = y[r] - rungs[..., None] * g[r]
            es, Gs = _energies(
                p, ys.reshape(-1, ys.shape[-1]), *(np.tile(d[r], (n, 1)) for d in data)
            )
            es = es.reshape(rungs.shape)
            passed = es <= energy[r] - 1e-12 * rungs * gnorm2[r]
            j = np.arange(rungs.shape[1])
            # each column's first passing rung, else its last
            pick = np.where(passed.any(axis=0), np.argmax(passed, axis=0), n - 1)
            # a column stops halving at its first passing rung, so only the
            # rungs up to it are evaluated one halving at a time
            if not np.isfinite(es[np.arange(n)[:, None] <= pick]).all():
                raise ValueError("inner energy is not finite")
            size[r], ytrial[r], etrial[r] = rungs[pick, j], ys[pick, j], es[pick, j]
            Gtrial[r] = Gs.reshape(rungs.shape + Gs.shape[1:])[pick, j]
            ok[r] = passed[pick, j]
            r = grid.select_rows(~ok)
        every = r is None  # every line search passed
        r = slice(None) if every else grid.select_rows(ok)
        if r is None:  # every line search ran out
            return y, np.full(ok.size, np.nan), ~ok, (y, g, gnorm2, energy, alpha, cols) + data
        yr, er = ytrial[r], etrial[r]
        for c, e in zip(cols[r].tolist(), er.tolist()):
            traces[c].append(e)
        gr = _energy_gradient(p, Gtrial[r], *(data if every else (d[r] for d in data)))
        # Barzilai-Borwein step for the next iteration
        s = yr - y[r]
        sdg = np.vecdot(s, gr - g[r])
        alpha_r = np.divide(np.vecdot(s, s), sdg, out=size[r] * 2.0, where=sdg > 0.0)
        # an accepted step that leaves y unchanged would repeat to the cap
        stuck = er == energy[r]
        if np.count_nonzero(stuck):
            stuck &= np.all(yr == y[r], axis=-1)
        measure = grid.lift_values(mesh, gr)[1]
        carry = (yr, gr, np.vecdot(gr, gr), er, alpha_r)
        if not every:
            # a column whose line search ran out stops at its floor, unmoved;
            # it has no residual, and a NaN measure never meets tol
            full = [a.copy() for a in (y, g, gnorm2, energy, alpha)]
            full += [np.full(ok.size, np.nan), ~ok]
            for a, part in zip(full, carry + (measure, stuck)):
                a[r] = part
            *carry, measure, stuck = full
        return carry[0], measure, stuck, (*carry, cols) + data

    alpha = np.full(k, mesh.h**2 / 8.0)  # safe first step against the Laplacian scale
    carry = (y, g, np.vecdot(g, g), energy, alpha, np.arange(k)) + stack
    states, outcome = grid._fixed_point_columns(step, carry, tol, _MAX_ITERATIONS, 1)
    res = np.array([d for _, d, _, _ in outcome])
    costs = np.array([t[-1] for t in traces])  # the energy of each state stepped to
    r = np.flatnonzero([not ok for _, _, _, ok in outcome])
    if r.size:  # floor and cap columns
        states[r], res[r], costs[r] = _polish(p, states[r], tuple(d[r] for d in stack), tol)
    reports = [
        SolveReport(method="barzilai-borwein", iterations=i, residual=d,
                    converged=d <= tol, cost=e, cost_trace=t)
        for (i, _, _, _), d, e, t in zip(outcome, res.tolist(), costs.tolist(), traces)
    ]
    return _columns_result("variational", states, reports, _MAX_ITERATIONS, lambda rep: (
        f"energy descent stalled at residual {rep.residual:.3e} (target {tol})"
    ))


def _polish(p, y, data, tol):
    """Preconditioned polish of plateaued columns: once the energy plateaus
    in floating point, the lifted Euler-Lagrange residual can still be
    contracted directly, with a step tau that grows on every step that
    lowers it and halves on every other, down to the floor tau < 1e-6.
    Returns the states, residuals and energies."""

    def step(y, res, tau, *rows):
        g = _energy_gradient(p, grid.gradient_values(p.mesh, y), *rows)
        ytrial = y - tau[:, None] * grid.helmholtz_solve_values(p.mesh, 0.0, g)
        rtrial = residual_norm(p, ytrial, *rows)
        better = rtrial < res
        y = np.where(better[:, None], ytrial, y)
        res = np.where(better, rtrial, res)
        tau = np.where(better, np.minimum(tau * 1.25, 1.0), tau * 0.5)
        return y, res, ~better & (tau < 1e-6), (y, res, tau) + rows

    res = residual_norm(p, y, *data)
    r = grid.select_rows(res > tol)
    if r is not None:
        carry = (y[r], res[r], np.ones(len(y[r]))) + tuple(d[r] for d in data)
        y[r], outcome = grid._fixed_point_columns(step, carry, tol, 200, 1)
        res[r] = [d for _, d, _, _ in outcome]
    return y, res, _energy_values(p, y, *data)[0]


def verify_minimality(
    p: VariationalStateProblem,
    y_u: ScalarField,
    u: ScalarField,
    trials: int = 100,
) -> HypothesisReport:
    """Compare I(y_u, u) against random H1_0 competitors y_u + rho * noise.

    Perturbation scales cycle through {1e-2, 1e-1, 1}; the check passes when
    no competitor undercuts the solved energy by more than 1e-10.
    """
    grid.check_count("trials", trials, 0)
    rng = np.random.default_rng(0)
    base = inner_energy(p, y_u, u)
    rho = np.resize((1e-2, 1e-1, 1.0), trials)
    eta = rng.standard_normal((trials, p.mesh.n_nodes))
    eta[:, p.mesh.boundary_mask] = 0.0
    z = y_u.values + rho[:, None] * eta
    data = _column_data(
        p.mesh,
        np.broadcast_to(u.values, z.shape),
        np.broadcast_to(p.source.values, z.shape),
    )
    energies, _ = _energy_values(p, z, *data)
    worst = np.min(energies - base, initial=np.inf)
    return HypothesisReport(
        hypothesis="minimality",
        samples=trials,
        worst_margin=float(worst),
        tolerance=1e-10,
    )
