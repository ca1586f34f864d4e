"""Discrete Young-measure fields: finitely many atoms per cell.

A field stores, per mesh cell, atom positions in R^N and a probability
weight vector.  Moments against integrands reproduce weak limits of
compositions; the PH1_0 / PH1 classes require the barycenter field to be a
discrete gradient (of an H1_0, respectively H1, potential), which is decided
exactly through the range-of-gradient test of the discrete operator.  The
PH1 class exists on 1D meshes only.
Oscillating control sequences are realized as 1D laminates on a refined mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import grid
from .grid import Mesh, ScalarField, VectorField

__all__ = [
    "YoungMeasureField",
    "dirac_field",
    "moment",
    "barycenter",
    "second_moment",
    "project_class",
    "realize_sequence",
    "potential",
    "uniform_two_atom",
    "young_measure_to_csv",
]

WEIGHT_TOL = 1e-12
CLASS_TOL = 1e-9
SUBCELLS_PER_PERIOD = 8


@dataclass(frozen=True)
class YoungMeasureField:
    """Per-cell discrete probability measure on gradient space.

    ``atoms`` has shape (n_cells, K, N) and ``weights`` (n_cells, K); each
    weight row is a probability vector to 1e-12.  ``klass`` tags membership:
    PH10 and PH1 fields have barycenters in the range of the discrete
    gradient (H1_0 / H1 potentials), and PH1 fields live on 1D meshes
    only; ``potential_offset`` stores the additive constant of the PH1
    barycenter potential, which the gradient alone cannot determine.
    """

    mesh: Mesh
    atoms: np.ndarray
    weights: np.ndarray
    klass: str = "unconstrained"
    potential_offset: float = 0.0

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 2:
            atoms = atoms[:, :, None]
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape[:2] != weights.shape or atoms.shape[0] != self.mesh.n_cells:
            raise ValueError(
                f"atoms {atoms.shape} and weights {weights.shape} must agree "
                f"on ({self.mesh.n_cells}, K)"
            )
        if atoms.shape[2] != self.mesh.dimension:
            raise ValueError("atom dimension must match the mesh dimension")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.min(weights) < -WEIGHT_TOL:
            raise ValueError(f"negative weight {np.min(weights)}")
        sums = np.sum(weights, axis=1)
        if np.max(np.abs(sums - 1.0)) > WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 per cell, worst drift "
                f"{np.max(np.abs(sums - 1.0))}"
            )
        if self.klass not in ("PH10", "PH1", "unconstrained"):
            raise ValueError(f"unknown class {self.klass!r}")
        if self.klass == "PH1" and self.mesh.dimension != 1:
            raise ValueError("class PH1 exists on 1D meshes only")
        atoms = atoms.copy()
        weights = np.maximum(weights, 0.0)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if self.klass in ("PH10", "PH1"):
            # the class check solves for the potential; keep it
            bary = self._barycenter
            pot, res = grid.gradient_potential(bary, "h10" if self.klass == "PH10" else "h1")
            if not res <= CLASS_TOL * (1.0 + grid.l2_norm(bary)):
                raise ValueError(
                    f"barycenter is not a discrete gradient of class {self.klass}"
                )
            if self.klass == "PH1":
                pot = ScalarField(self.mesh, pot.values + self.potential_offset)
            object.__setattr__(self, "_potential", pot)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @cached_property
    def _barycenter(self) -> VectorField:
        return VectorField(self.mesh, _barycenters(self.atoms, self.weights))


def _barycenters(atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-cell barycenters of atoms (..., n_cells, K, N) under weights
    (..., n_cells, K); leading axes are batch axes."""
    return np.einsum("...ck,...ckn->...cn", weights, atoms)


def dirac_field(v: VectorField) -> YoungMeasureField:
    """One unit-weight atom per cell at the field value; the class tag is
    the first of PH10 and PH1 whose check v passes, else unconstrained (so
    PH10 or unconstrained on a 2D mesh, where PH1 does not exist)."""
    args = (v.mesh, v.values[:, None, :], np.ones((v.mesh.n_cells, 1)))
    for klass in ("PH10", "PH1"):
        try:
            return YoungMeasureField(*args, klass)
        except ValueError:  # v is not a discrete gradient of this class
            pass
    return YoungMeasureField(*args)


def moment(ym: YoungMeasureField, psi: Callable) -> np.ndarray:
    """Per-cell integral of psi against the measure: sum_k p_k psi(lambda_k),
    as a plain array of n_cells values (a ScalarField is nodal).

    ``psi`` maps an (m, N) array of atom positions to m values; non-finite
    outputs are rejected.
    """
    flat = ym.atoms.reshape(-1, ym.mesh.dimension)
    vals = np.asarray(psi(flat), dtype=float).reshape(ym.atoms.shape[:2])
    if not np.all(np.isfinite(vals)):
        raise ValueError("psi produced non-finite values at the atoms")
    return np.sum(ym.weights * vals, axis=1)


def barycenter(ym: YoungMeasureField) -> VectorField:
    """First moment per cell (psi = identity per component)."""
    return ym._barycenter


def second_moment(ym: YoungMeasureField) -> float:
    """Integral over the domain of the per-cell second moment."""
    return grid.integrate_cells(ym.mesh, moment(ym, lambda lam: np.sum(lam * lam, axis=1)))


def potential(ym: YoungMeasureField) -> ScalarField:
    """Nodal potential whose gradient is the barycenter.

    PH10 potentials vanish on the boundary; PH1 potentials are normalized to
    zero plain nodal mean plus the stored additive constant.
    """
    if ym.klass == "unconstrained":
        raise ValueError("unconstrained measures have no canonical potential")
    return ym._potential


def project_class(ym: YoungMeasureField, target: str) -> YoungMeasureField:
    """Shift atoms by a per-cell constant so the barycenter becomes the
    gradient of the least-squares potential in the target class.

    One linear solve; weights are unchanged and the result passes the class
    invariant exactly.  Fields already in the class come back unchanged to
    rounding (idempotency).
    """
    if target not in ("PH10", "PH1"):
        raise ValueError(f"projection target must be PH10 or PH1, got {target!r}")
    space = "h10" if target == "PH10" else "h1"
    bary = barycenter(ym)
    pot, _ = grid.gradient_potential(bary, space)
    gb = grid.gradient_values(ym.mesh, pot.values)
    shift = gb - bary.values
    atoms = ym.atoms + shift[:, None, :]
    return YoungMeasureField(
        ym.mesh, atoms, ym.weights, target, ym.potential_offset
    )


def uniform_two_atom(
    mesh: Mesh,
    lo: float,
    hi: float,
    theta: float,
    potential_offset: float = 0.0,
) -> YoungMeasureField:
    """1D PH1 field with the same two atoms {lo, hi} and weights (1-theta,
    theta) in every cell: its barycenter is constant."""
    if mesh.dimension != 1:
        raise ValueError("uniform_two_atom builds 1D fields")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    atoms = np.tile(np.array([[lo], [hi]], dtype=float), (mesh.n_cells, 1, 1))
    weights = np.tile(np.array([1.0 - theta, theta]), (mesh.n_cells, 1))
    return YoungMeasureField(mesh, atoms, weights, "PH1", potential_offset)


def _two_atom_form(ym: YoungMeasureField):
    """Per-cell (lo, hi, theta) for fields with at most two effective atoms."""
    if ym.mesh.dimension != 1:
        raise ValueError("laminate realization is implemented in 1D only")
    if ym.n_atoms > 2:
        raise ValueError("laminate realization needs at most two atoms per cell")
    a = ym.atoms[:, :, 0]
    w = ym.weights
    if ym.n_atoms == 1:
        lo = hi = a[:, 0]
        theta = np.zeros(ym.mesh.n_cells)
        return lo, hi, theta
    order = np.argsort(a, axis=1)
    rows = np.arange(a.shape[0])[:, None]
    a_sorted = a[rows, order]
    w_sorted = w[rows, order]
    return a_sorted[:, 0], a_sorted[:, 1], w_sorted[:, 1]


def realize_sequence(ym: YoungMeasureField, j: int) -> ScalarField:
    """j-th laminate of a 1D two-atom field.

    Within each cell the derivative oscillates over j periods, taking the
    lower atom first on the (1-theta) share of each period and the upper atom
    on the rest; integration gives a continuous control matching the
    barycenter potential at every cell endpoint.  The result lives on a mesh
    refined by ``j * SUBCELLS_PER_PERIOD``; measures that are Dirac in every
    cell return the potential on the base mesh unchanged.

    Per-period atom counts follow cumulative rounding, and both atom levels
    are shifted by the common per-cell constant that restores the exact
    endpoint match, so cellwise means of psi(u') reproduce moments with error
    O(1/j) (exactly, whenever theta * SUBCELLS_PER_PERIOD * j is integral).
    """
    grid.check_count("j", j, 1)
    lo, hi, theta = _two_atom_form(ym)
    pot = potential(ym)
    if np.all(np.abs(hi - lo) * np.minimum(theta, 1.0 - theta) < 1e-15):
        return pot  # no oscillation: the barycenter potential itself

    mesh = ym.mesh
    n = mesh.cells_per_axis
    q = SUBCELLS_PER_PERIOD
    r = j * q
    fine = grid.build_mesh(1, n * r)
    hf = fine.h

    bar = (1.0 - theta) * lo + theta * hi
    m_hi = np.rint(theta * r).astype(int)  # upper-atom subcells per cell
    # common level shift restoring the exact endpoint increment
    realized_mean = ((r - m_hi) * lo + m_hi * hi) / r
    delta = bar - realized_mean
    lo_s = lo + delta
    hi_s = hi + delta

    # cumulative rounding: per-period upper counts telescope to m_hi per cell
    cuts = np.rint(theta[:, None] * q * np.arange(j + 1)).astype(int)
    c_hi = np.diff(cuts, axis=1)
    # each period takes the lower atom on its first q - c_hi subcells
    upper = np.arange(q) >= q - c_hi[:, :, None]  # (n, j, q)
    slopes = np.where(upper, hi_s[:, None, None], lo_s[:, None, None]).ravel()

    u = np.empty(fine.n_nodes)
    u[0] = pot.values[0]
    np.cumsum(slopes * hf, out=u[1:])
    u[1:] += u[0]
    # snap the base-node values to the potential: the increments match by
    # construction, this removes accumulated rounding
    u[:: r] = pot.values
    return ScalarField(fine, u)


def young_measure_to_csv(ym: YoungMeasureField, path) -> None:
    """Dump as CSV ``cell,atom_index,lambda...,weight,potential_offset``
    ordered by cell; every row repeats the field's potential offset."""
    dim = ym.mesh.dimension
    header = "cell,atom_index," + ",".join(
        f"lambda_{ax}" for ax in ("x", "y")[:dim]
    ) + ",weight,potential_offset\n"
    offset = repr(float(ym.potential_offset))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for c in range(ym.mesh.n_cells):
            for k in range(ym.n_atoms):
                lam = ",".join(repr(float(v)) for v in ym.atoms[c, k])
                fh.write(f"{c},{k},{lam},{float(ym.weights[c, k])!r},{offset}\n")
