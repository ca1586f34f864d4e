"""Monotone state equation -div[A(grad y)] = f(u) solved by Zarantonello
iteration preconditioned with the inverse Laplacian.

For a flux that is strongly monotone with constant c and Lipschitz with
constant C, the map ``y -> y - tau * (-lap)^{-1}(-div A(grad y) - f)``
contracts in the H1_0 seminorm with factor ``sqrt(1 - 2 tau c + tau^2 C^2)``
for any ``tau in (0, 2c/C^2)``; the solver's step ``tau = c/C^2`` makes the
declared constants the convergence certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid
from .coefficients import (
    CONSTRUCTION_SAMPLES,
    CoefficientSet,
    HypothesisReport,
    apply_cellwise,
    cellwise_jacobian,
    check_growth,
    check_monotonicity,
)
from .grid import Mesh, ScalarField
from .reports import SolveReport, _columns_result

__all__ = [
    "MonotoneStateProblem",
    "solve_monotone",
    "solve_monotone_columns",
    "interior_jacobian",
    "verify_limit_identity",
    "theoretical_contraction",
]

_MAX_ITERATIONS = 100_000  # Zarantonello steps per column


@dataclass(frozen=True)
class MonotoneStateProblem:
    """Strictly monotone flux problem on a mesh; hypothesis checks run at
    construction with a fixed seed and fail loudly."""

    mesh: Mesh
    cs: CoefficientSet
    regime = "monotone"

    def __post_init__(self):
        if self.cs.A is None or self.cs.c is None or self.cs.C is None:
            raise ValueError("monotone problem needs A with constants c, C")
        if self.cs.f is None:
            raise ValueError("monotone problem needs the source map f")
        try:  # a float C**2 beyond the float range raises instead of giving inf
            step = self.default_step()
        except (OverflowError, ZeroDivisionError):
            step = 0.0
        if not 0.0 < step < np.inf:
            raise ValueError("the step c/C^2 must be positive and finite, got "
                             f"c={self.cs.c}, C={self.cs.C}")
        check_monotonicity(self.cs, CONSTRUCTION_SAMPLES, dim=self.mesh.dimension).require(
            "the declared monotonicity constant c")
        check_growth(self.cs, CONSTRUCTION_SAMPLES, dim=self.mesh.dimension).require(
            "the declared growth (c, C)")

    def default_step(self) -> float:
        return self.cs.c / self.cs.C**2


def theoretical_contraction(c: float, C: float, tau: float) -> float:
    """Per-step contraction bound sqrt(1 - 2 tau c + tau^2 C^2)."""
    return float(np.sqrt(max(1.0 - 2.0 * tau * c + tau * tau * C * C, 0.0)))


def solve_monotone(
    p: MonotoneStateProblem,
    u: ScalarField,
    tol: float = 1e-8,
    y0: Optional[ScalarField] = None,
):
    """Zarantonello iteration with the step ``p.default_step()``; each step
    is one Poisson solve.

    Terminates when the preconditioned residual ``(-lap)^{-1}(-div A(grad y)
    - f(u))`` has H1_0 seminorm at most ``tol``.  Returns the state and a
    report carrying the iteration count, the final residual and the largest
    measured update-contraction ratio.  This is the one-column case of
    :func:`solve_monotone_columns`.
    """
    return grid._one_column(solve_monotone_columns, p, u, y0, tol=tol)


def solve_monotone_columns(
    p: MonotoneStateProblem,
    u: np.ndarray,
    tol: float = 1e-8,
    y0: Optional[np.ndarray] = None,
):
    """Zarantonello iteration on every column of a stack of controls.

    ``u`` has shape (k, n_nodes); ``y0`` broadcasts to it.  All unconverged
    columns step together through one multi-right-hand-side Poisson solve;
    a column freezes once converged, so column i takes the steps
    :func:`solve_monotone` takes on it alone.  Returns the states and one
    report per column; raises NonConvergenceError with the first failed
    column's report if any column fails.
    """
    mesh = p.mesh
    tau = p.default_step()
    fvals = np.asarray(p.cs.f(u), dtype=float)
    f_int = np.where(mesh.boundary_mask, 0.0, fvals)

    def step(y, f):
        flux = apply_cellwise(p.cs.A, grid.gradient_values(mesh, y))
        lift, rnorm = grid.lift_values(mesh, -grid.divergence_weak_values(mesh, flux) - f)
        return y, rnorm, None, (y - tau * lift, f)

    # the residual of y is measured before y steps, so counting starts at 0
    states, outcome = grid._fixed_point_columns(
        step, (grid.start_columns(mesh, u.shape, y0), f_int), tol, _MAX_ITERATIONS, 0
    )

    reports = [
        SolveReport(
            method="zarantonello",
            iterations=i,
            residual=d,
            converged=c,
            contraction_ratio=w if i > 1 or not c else None,
            extras={"tau": tau},
        )
        for i, d, w, c in outcome
    ]
    return _columns_result("monotone", states, reports, _MAX_ITERATIONS, lambda rep: (
        f"Zarantonello iteration did not reach {tol} "
        + (f"in {_MAX_ITERATIONS} steps" if rep.iterations == _MAX_ITERATIONS
           else f"and stalled after {rep.iterations} steps")
        + f" (last residual {rep.residual:.3e})"
    ))


def interior_jacobian(p: MonotoneStateProblem, y: np.ndarray) -> np.ndarray:
    """Dense Jacobian K = -div_w DA(grad y) G of the residual -div_w
    A(grad y) - f with respect to the interior values of y, at the nodal
    state y; DA is cellwise_jacobian of A."""
    mesh = p.mesh
    DA = cellwise_jacobian(p.cs.A, grid.gradient_values(mesh, y))

    def apply(E):
        flux = (DA @ grid.gradient_values(mesh, E)[..., None])[..., 0]
        return -grid.divergence_weak_values(mesh, flux)

    return grid.interior_matrix(mesh, apply)


def verify_limit_identity(
    p: MonotoneStateProblem, y: ScalarField, u: ScalarField
) -> HypothesisReport:
    """Weak-form identity against every interior nodal hat function.

    Checks ``<A(grad y), grad e_k> == <f(u), e_k>`` with discrepancy bounded
    by ``1e-7 * (1 + ||f(u)||)``.
    """
    mesh = p.mesh
    fvals = np.asarray(p.cs.f(u.values), dtype=float)
    flux = p.cs.A(grid.gradient_values(mesh, y.values))
    resid = -grid.divergence_weak_values(mesh, flux)
    interior = mesh.interior_indices
    disc = mesh.cell_volume * np.abs(resid[interior] - fvals[interior])
    fnorm = grid.l2_norm(ScalarField(mesh, fvals))
    threshold = 1e-7 * (1.0 + fnorm)
    worst = float(np.max(disc)) if disc.size else 0.0
    return HypothesisReport(
        hypothesis="weak-limit-identity",
        samples=int(disc.size),
        worst_margin=threshold - worst,
        tolerance=0.0,
    )
