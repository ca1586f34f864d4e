"""Solve and relaxation reports shared across the solver modules."""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = ["SolveReport", "RelaxationReport", "NonConvergenceError"]

_log = logging.getLogger(__name__)


@dataclass
class SolveReport:
    """Iteration record of a solver run; cost traces are non-increasing for
    the monotone-descent methods."""

    method: str
    iterations: int
    residual: float
    converged: bool
    cost: Optional[float] = None
    stationarity: Optional[float] = None
    cost_trace: Optional[list] = None
    contraction_ratio: Optional[float] = None
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field that is set, lists and dicts copied; the wall time is
        left out, as it differs from run to run."""
        d = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)
             if f.name != "wall_time"}
        return {k: v for k, v in d.items() if v is not None and v != {}}


@dataclass
class RelaxationReport:
    """Gap certificate: best sampled classical cost versus the relaxed value.

    ``failed`` flags a violated sub-relaxation inequality, which is a bug
    trap rather than a tolerated outcome.  A nonzero gap at fixed mesh width
    mixes a genuine relaxation gap with discretization effects; the split is
    not resolved here (see ``note``).  ``classical`` holds the classical
    optimizer run's ``stopped``, ``iterations`` and ``stationarity``.
    ``minimizer`` holds the relaxed point (mu, nu, y) behind ``relaxed``; it
    is not serialized.
    """

    best_classical: float
    relaxed: float
    dirac_residual: float
    certificates: list = field(default_factory=list)
    failed: bool = False
    classical: dict = field(default_factory=dict)
    note: str = (
        "gap measured at fixed mesh width; continuum vs discretization "
        "contributions are not separated"
    )
    minimizer: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def gap(self) -> float:
        return self.best_classical - self.relaxed

    def to_dict(self) -> dict:
        return {
            "best_classical": self.best_classical,
            "relaxed": self.relaxed,
            "gap": self.gap,
            "dirac_residual": self.dirac_residual,
            "certificates": list(self.certificates),
            "failed": self.failed,
            "classical": dict(self.classical),
            "note": self.note,
        }


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solve exhausts its cap; carries the report.

    A stacked solve also attaches every column's state (``states``, shape
    (k, n_nodes)) and report (``reports``), so a caller can use the columns
    that did converge; ``report`` is then the first failed column's.
    """

    def __init__(
        self,
        message: str,
        report: Optional[SolveReport] = None,
        states=None,
        reports: Optional[list] = None,
    ):
        super().__init__(message)
        self.report = report
        self.states = states
        self.reports = reports


def _columns_result(regime: str, states, reports: list, max_iterations: int, message):
    """(states, reports) of a stacked solve if every column converged, else
    NonConvergenceError with message(report) of the first failed column.

    At debug level, logs one record per column: the regime, the stop reason
    ("converged", "cap" at max_iterations, else "floor") and the iteration
    count."""
    if _log.isEnabledFor(logging.DEBUG):
        for i, rep in enumerate(reports):
            stop = ("converged" if rep.converged
                    else "cap" if rep.iterations == max_iterations else "floor")
            _log.debug("%s column %d: %s after %d iterations, residual %.3e",
                       regime, i, stop, rep.iterations, rep.residual)
    failed = [rep for rep in reports if not rep.converged]
    if failed:
        raise NonConvergenceError(message(failed[0]), failed[0], states, reports)
    return states, reports
