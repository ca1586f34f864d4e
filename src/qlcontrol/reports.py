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
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field that is set, lists and dicts copied; no field differs
        from run to run, so equal runs give equal dicts."""
        d = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}
        return {k: v for k, v in d.items() if v is not None and v != {}}


@dataclass
class RelaxationReport:
    """Gap certificate: best sampled classical cost versus the relaxed value.

    ``relaxed`` is the value of the convexified state inclusion, in which
    the state-gradient measure nu need not be generated by any sequence of
    states: a lower bound on the classical cost that classical controls do
    not reach, so a strict gap is expected (see ``note``).  ``failed``, read
    off ``certificates``, flags a failed one, a bug trap rather than a
    tolerated outcome.  ``classical`` and ``relaxed_run`` hold the classical
    and the relaxed optimizer run's ``stopped``, ``iterations``,
    ``stationarity`` and ``kink_nodes`` (interior nodes of the last control
    on a kink of f).  ``minimizer`` holds the relaxed point (mu, nu, y)
    behind ``relaxed``; it is not serialized.
    """

    best_classical: float
    relaxed: float
    dirac_residual: float
    certificates: list = field(default_factory=list)
    classical: dict = field(default_factory=dict)
    relaxed_run: dict = field(default_factory=dict)
    minimizer: Optional[tuple] = field(default=None, repr=False, compare=False)
    note = (
        "relaxed is the value of the convexified state inclusion: a lower "
        "bound that classical controls do not reach; measured at fixed mesh width"
    )

    @property
    def failed(self) -> bool:
        return not all(c["passed"] for c in self.certificates)

    @property
    def gap(self) -> float:
        return self.best_classical - self.relaxed

    def to_dict(self) -> dict:
        """Every field but the minimizer (copied), plus failed, note and gap."""
        d = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)
             if f.name != "minimizer"}
        return {**d, "failed": self.failed, "note": self.note, "gap": self.gap}


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solve exhausts its cap or stalls; carries
    the report (of the first failed column, for a stacked solve)."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


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
        raise NonConvergenceError(message(failed[0]), failed[0])
    return states, reports
