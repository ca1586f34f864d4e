"""Quasilinear state equation -lap y + a(grad y) + b y = f(u) by Picard
iteration.

Each Picard step freezes the gradient nonlinearity and solves one Helmholtz
problem; the completed-squares estimate behind the uniqueness statement
(threshold b > L^2/4 for Lipschitz constant L of a) also certifies the
contraction of this map on the discrete problem, with margin growing in b.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid
from .coefficients import (CONSTRUCTION_SAMPLES, CoefficientSet, HypothesisReport,
                           apply_cellwise, cellwise_jacobian)
from .grid import Mesh, ScalarField
from .reports import SolveReport, _columns_result

__all__ = [
    "QuasilinearStateProblem",
    "uniqueness_threshold",
    "solve_quasilinear",
    "solve_quasilinear_columns",
    "interior_jacobian",
    "verify_uniqueness",
    "apriori_gradient_bound",
]

_MAX_ITERATIONS = 10_000  # Picard steps per column
_UNIQUENESS_TOL = 1e-6  # largest spread of verify_uniqueness's solutions


def uniqueness_threshold(L: float) -> float:
    """Zero-order coefficient above which the Lipschitz nonlinearity cannot
    produce two solutions: L^2 / 4."""
    if not L >= 0.0:  # a NaN fails too
        raise ValueError(f"L must be nonnegative, got {L}")
    return L * L / 4.0


def poincare_constant(mesh: Mesh) -> float:
    """Sharp Poincare constant of the unit interval (1/pi) or square
    (1/(sqrt(2) pi))."""
    return 1.0 / np.pi if mesh.dimension == 1 else 1.0 / (np.sqrt(2.0) * np.pi)


@dataclass(frozen=True)
class QuasilinearStateProblem:
    """Quasilinear problem -lap y + a(grad y) + b y = f(u), zero Dirichlet.

    The coefficient set supplies a (``a_zero()`` for none) and f; b is
    required, as every instance fixes its own.  Construction guarantees a
    unique state: b must exceed L^2/4 strictly, for the declared Lipschitz
    constant L of a (linear problems, L = 0, accept every b >= 0).
    """

    mesh: Mesh
    cs: CoefficientSet
    b: float
    regime = "quasilinear"

    def __post_init__(self):
        if not callable(self.cs.a):
            raise ValueError("quasilinear problem needs the gradient nonlinearity a "
                             "(merge a_zero() for none)")
        if self.cs.f is None:
            raise ValueError("quasilinear problem needs the source map f")
        if self.b < 0.0 or not np.isfinite(self.b):
            raise ValueError(f"b must be a finite nonnegative real, got {self.b}")
        L = self.cs.L
        thr = uniqueness_threshold(L)
        if L > 0.0 and not self.b > thr:
            raise ValueError(
                f"b={self.b} does not exceed the uniqueness threshold "
                f"L^2/4 = {thr} (L = {L})"
            )
        if L > 0.0 and self.b <= 1.1 * thr:
            warnings.warn(
                f"b={self.b} is within 10% of the uniqueness threshold {thr}; "
                "Picard contraction may be slow",
                stacklevel=3,  # the caller of the dataclass's __init__
            )

        # |a(y)| <= C|y| on samples; a NaN sample fails too
        growth_c = self.growth_constant
        rng = np.random.default_rng(2024)
        Y = rng.uniform(-10.0, 10.0, size=(CONSTRUCTION_SAMPLES, self.mesh.dimension))
        aY = np.asarray(self.cs.a(Y), dtype=float)
        slack = growth_c * np.linalg.norm(Y, axis=1) - np.abs(aY)
        HypothesisReport("a-growth", CONSTRUCTION_SAMPLES, float(np.min(slack)), 1e-10).require(
            f"|a(y)| <= C|y| with C = {growth_c}")
        rng = np.random.default_rng(2025)
        us = rng.uniform(-1e3, 1e3, size=CONSTRUCTION_SAMPLES)
        fs = np.asarray(self.cs.f(us), dtype=float)
        if not np.all(np.isfinite(fs)):
            raise ValueError("f is not finite on the sampled control range")

    @property
    def growth_constant(self) -> float:
        """Constant C with |a(y)| <= C|y| (defaults to the Lipschitz L)."""
        return self.cs.C if self.cs.C is not None else self.cs.L


def _a_node_values(p: QuasilinearStateProblem, g: np.ndarray) -> np.ndarray:
    """Nodal average of a(g) for cell gradients g of shape (..., n_cells,
    dim); leading axes are batch axes."""
    return grid.cell_to_node_values(p.mesh, apply_cellwise(p.cs.a, g))


def strong_residual(
    p: QuasilinearStateProblem, y: np.ndarray, fvals: np.ndarray
) -> np.ndarray:
    """L2 norm of -lap_h y + a(grad y) + b y - f on the interior nodes, per
    column of stacked y and fvals."""
    mesh = p.mesh
    g = grid.gradient_values(mesh, y)
    # lap_h y is divergence_weak of this same gradient
    res = -grid.divergence_weak_values(mesh, g) + _a_node_values(p, g) + p.b * y - fvals
    res[..., mesh.boundary_mask] = 0.0
    return grid.l2_norm_values(mesh, res)


def interior_jacobian(p: QuasilinearStateProblem, y: np.ndarray) -> np.ndarray:
    """Dense Jacobian K = (-lap_h + b) + C2N diag(a'(grad y)) G of the
    residual of strong_residual with respect to the interior values of y, at
    the nodal state y; a' is cellwise_jacobian of a."""
    mesh = p.mesh
    da = cellwise_jacobian(p.cs.a, grid.gradient_values(mesh, y))

    def apply(E):
        GE = grid.gradient_values(mesh, E)
        return (p.b * E - grid.divergence_weak_values(mesh, GE)
                + grid.cell_to_node_values(mesh, np.sum(da * GE, axis=-1)))

    return grid.interior_matrix(mesh, apply)


def solve_quasilinear(
    p: QuasilinearStateProblem,
    u: ScalarField,
    tol: float = 1e-9,
    y0: Optional[ScalarField] = None,
):
    """Picard iteration y_{k+1} = (-lap + b)^{-1}(f(u) - a(grad y_k)).

    Starts from zero unless ``y0`` is given, stops when the H1 norm of the
    increment drops below ``tol`` and reports the final strong residual and
    the measured contraction ratio.  This is the one-column case of
    :func:`solve_quasilinear_columns`.
    """
    return grid._one_column(solve_quasilinear_columns, p, u, y0, tol=tol)


def solve_quasilinear_columns(
    p: QuasilinearStateProblem,
    u: np.ndarray,
    tol: float = 1e-9,
    y0: Optional[np.ndarray] = None,
):
    """Picard iteration on every column of a stack of controls.

    ``u`` has shape (k, n_nodes); ``y0`` broadcasts to it.  All unconverged
    columns step together through one multi-right-hand-side Helmholtz
    solve; a column freezes once converged, so column i takes the steps
    :func:`solve_quasilinear` takes on it alone.  Returns the states and
    one report per column; raises NonConvergenceError with the first failed
    column's report if any column fails.
    """
    mesh = p.mesh
    fvals = np.asarray(p.cs.f(u), dtype=float)

    # the carry holds each iterate's gradient: one gradient per step serves
    # both a(grad y) and the increment's H1 norm
    def step(y, g, f):
        ynew = grid.helmholtz_solve_values(mesh, p.b, f - _a_node_values(p, g))
        gnew = grid.gradient_values(mesh, ynew)
        # the increment's discrete H1 norm: both squared norms, one square root
        dh1 = np.sqrt(grid.sq_norm_values(mesh, ynew - y) + grid.cell_sq_norm_values(mesh, gnew - g))
        return ynew, dh1, None, (ynew, gnew, f)

    y = grid.start_columns(mesh, u.shape, y0)
    # the increment is measured after the step, so counting starts at 1
    states, outcome = grid._fixed_point_columns(
        step, (y, grid.gradient_values(mesh, y), fvals), tol, _MAX_ITERATIONS, 1
    )

    residual = strong_residual(p, states, fvals).tolist()
    reports = [
        SolveReport(
            method="picard",
            iterations=i,
            residual=r,
            converged=c,
            contraction_ratio=w if i > 2 or not c else None,
            extras={"final_increment": d},
        )
        for (i, d, w, c), r in zip(outcome, residual)
    ]
    # a column still contracting sets new lows and runs to the cap, so only
    # there can b be to blame; a stall is the floating-point floor
    return _columns_result("quasilinear", states, reports, _MAX_ITERATIONS, lambda rep: (
        f"Picard iteration did not contract to {tol} "
        + (f"within {_MAX_ITERATIONS} steps (measured ratio {rep.contraction_ratio:.4f}); "
           "b may barely exceed the uniqueness threshold"
           if rep.iterations == _MAX_ITERATIONS else
           f"and stalled at its floating-point floor after {rep.iterations} steps "
           f"(last increment {rep.extras['final_increment']:.3e})")
    ))


def verify_uniqueness(
    p: QuasilinearStateProblem,
    u: ScalarField,
    trials: int = 5,
) -> HypothesisReport:
    """Solve from seeded random initial iterates and compare all results
    pairwise; the check passes when no two differ by more than
    _UNIQUENESS_TOL at any node."""
    grid.check_count("trials", trials, 0)
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal((trials, p.mesh.n_nodes))
    worst = 0.0
    if trials:
        solutions, _ = solve_quasilinear_columns(
            p, np.broadcast_to(u.values, y0.shape), y0=y0
        )
        worst = float(np.max(np.abs(solutions[:, None] - solutions[None])))
    return HypothesisReport(
        hypothesis="uniqueness",
        samples=trials,
        worst_margin=_UNIQUENESS_TOL - worst,
        tolerance=0.0,
    )


def apriori_gradient_bound(p: QuasilinearStateProblem, u: ScalarField):
    """Explicit bound on ||grad y|| from the completed-squares estimate.

    ``(1 - C^2/(4b)) ||grad y||^2 <= ||f(u)|| ||y||`` combined with the
    Poincare inequality gives ``||grad y|| <= C_P ||f(u)|| / (1 - C^2/(4b))``.
    Returns the bound and whether the solved state satisfies it.
    """
    C = p.growth_constant
    if p.b <= 0.0 and C > 0.0:
        raise ValueError("bound needs b > 0 when a is present")
    factor = 1.0 - C * C / (4.0 * p.b) if p.b > 0.0 else 1.0
    if factor <= 0.0:
        raise ValueError(
            f"hypothesis 1 - C^2/(4b) > 0 fails: C={C}, b={p.b}"
        )
    fvals = np.asarray(p.cs.f(u.values), dtype=float)
    fnorm = grid.l2_norm(ScalarField(p.mesh, fvals))
    bound = poincare_constant(p.mesh) * fnorm / factor
    y, _ = solve_quasilinear(p, u)
    holds = grid.h1_seminorm(y) <= bound + 1e-12
    return bound, holds
