"""Structured meshes on the unit interval/square, discrete operators and norms.

The discretization is fixed throughout the package: states and controls are
nodal values on a uniform grid over (0,1) or (0,1)^2 with zero-Dirichlet
bookkeeping, gradients are cell-centered difference quotients, and
``divergence_weak`` is the exact negative adjoint of ``gradient`` with respect
to the trapezoid (nodes) and midpoint (cells) inner products.  The linear
backbone used by every state solver is ``helmholtz_solve``, a direct
factorization of ``-lap + b`` on the interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "Mesh",
    "ScalarField",
    "VectorField",
    "build_mesh",
    "gradient",
    "divergence_weak",
    "helmholtz_solve",
    "l2_norm",
    "h1_seminorm",
    "inner",
    "node_to_cell",
    "cell_to_node",
    "gradient_potential",
    "field_to_csv",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform grid on (0,1) (``dimension=1``) or (0,1)^2 (``dimension=2``).

    Nodes live on a ``(n+1)^d`` lattice (flattened in C order), cells on the
    ``n^d`` lattice of their lower-left corners.  Every node on the boundary of
    the domain is flagged Dirichlet.
    """

    dimension: int
    cells_per_axis: int
    boundary_mask: np.ndarray = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.cells_per_axis < 2:
            raise ValueError(
                "cells_per_axis must be >= 2, got "
                f"{self.cells_per_axis} (discrete operators undefined)"
            )
        m = self.cells_per_axis + 1
        if self.dimension == 1:
            mask = np.zeros(m, dtype=bool)
            mask[0] = mask[-1] = True
        else:
            mask2 = np.zeros((m, m), dtype=bool)
            mask2[0, :] = mask2[-1, :] = True
            mask2[:, 0] = mask2[:, -1] = True
            mask = mask2.ravel()
        mask.setflags(write=False)
        object.__setattr__(self, "boundary_mask", mask)
        interior = np.flatnonzero(~mask)
        w = np.ones(m)
        w[0] = w[-1] = 0.5
        weights = w if self.dimension == 1 else np.outer(w, w).ravel()
        for name, arr in (("_interior", interior), ("_node_weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> float:
        """Cell width (domain length is 1 on every axis)."""
        return 1.0 / self.cells_per_axis

    @property
    def nodes_per_axis(self) -> int:
        return self.cells_per_axis + 1

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis**self.dimension

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis**self.dimension

    @property
    def cell_volume(self) -> float:
        return self.h**self.dimension

    @property
    def interior_indices(self) -> np.ndarray:
        return self._interior

    def node_coords(self) -> np.ndarray:
        """Coordinates of every node, shape ``(n_nodes, dimension)``."""
        ax = np.linspace(0.0, 1.0, self.nodes_per_axis)
        if self.dimension == 1:
            return ax[:, None]
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def cell_centers(self) -> np.ndarray:
        """Coordinates of every cell midpoint, shape ``(n_cells, dimension)``."""
        ax = (np.arange(self.cells_per_axis) + 0.5) * self.h
        if self.dimension == 1:
            return ax[:, None]
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def node_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights per node (without the h^d factor)."""
        return self._node_weights


@dataclass(frozen=True)
class ScalarField:
    """Real values attached to the nodes (states, controls) or cells
    (averaged coefficients) of a mesh."""

    mesh: Mesh
    values: np.ndarray
    location: str = "nodes"  # "nodes" | "cells"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        expected = self.mesh.n_nodes if self.location == "nodes" else self.mesh.n_cells
        if self.location not in ("nodes", "cells"):
            raise ValueError(f"unknown location {self.location!r}")
        if vals.shape != (expected,):
            raise ValueError(
                f"field has {vals.shape} values, mesh expects ({expected},) "
                f"on {self.location}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def is_dirichlet_zero(self, tol: float = 0.0) -> bool:
        """True for nodal fields vanishing on every Dirichlet node."""
        if self.location != "nodes":
            return False
        bvals = self.values[self.mesh.boundary_mask]
        return bool(np.all(np.abs(bvals) <= tol))


@dataclass(frozen=True)
class VectorField:
    """One R^N value per cell (N = mesh dimension); houses gradients,
    Young-measure barycenters and averaged fluxes."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.mesh.n_cells, self.mesh.dimension):
            raise ValueError(
                f"vector field has shape {vals.shape}, mesh expects "
                f"({self.mesh.n_cells}, {self.mesh.dimension})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("vector field entries must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def build_mesh(dimension: int, cells_per_axis: int) -> Mesh:
    """Uniform mesh of the unit interval (d=1) or unit square (d=2)."""
    return Mesh(dimension, cells_per_axis)


# -- discrete differential operators -----------------------------------------


def gradient_values(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    """Cell-centered gradient of flat nodal values, shape (..., n_cells, dim);
    leading axes of y are batch axes.

    1D: forward difference quotient per cell.  2D: per axis, average of the
    two opposing face difference quotients.  Exact for affine y.
    """
    h = mesh.h
    if mesh.dimension == 1:
        return ((y[..., 1:] - y[..., :-1]) / h)[..., None]
    m = mesh.nodes_per_axis
    lead = y.shape[:-1]
    y2 = y.reshape(lead + (m, m))
    gx = (y2[..., 1:, :-1] - y2[..., :-1, :-1] + y2[..., 1:, 1:] - y2[..., :-1, 1:]) / (2.0 * h)
    gy = (y2[..., :-1, 1:] - y2[..., :-1, :-1] + y2[..., 1:, 1:] - y2[..., 1:, :-1]) / (2.0 * h)
    return np.stack([gx.reshape(lead + (-1,)), gy.reshape(lead + (-1,))], axis=-1)


def gradient(y: ScalarField) -> VectorField:
    """Discrete gradient of a nodal scalar field, one R^N value per cell."""
    if y.location != "nodes":
        raise ValueError("gradient expects a nodal field")
    return VectorField(y.mesh, gradient_values(y.mesh, y.values))


def divergence_weak_values(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Flat nodal values of the negative adjoint of the gradient.

    Defined so that inner(divergence_weak(q), z) == -inner(q, gradient(z))
    for every nodal z vanishing on the Dirichlet nodes; zero on the boundary.
    Leading axes of q (shape (..., n_cells, dim)) are batch axes.
    """
    h = mesh.h
    lead = q.shape[:-2]
    if mesh.dimension == 1:
        out = np.zeros(lead + (mesh.n_nodes,))
        out[..., 1:-1] = (q[..., 1:, 0] - q[..., :-1, 0]) / h
        return out
    n = mesh.cells_per_axis
    qx = q[..., 0].reshape(lead + (n, n))
    qy = q[..., 1].reshape(lead + (n, n))
    out2 = np.zeros(lead + (n + 1, n + 1))
    # interior nodes (k,l), k,l in 1..n-1; cell slices shifted accordingly
    out2[..., 1:-1, 1:-1] = (
        qx[..., 1:, :-1] + qx[..., 1:, 1:] - qx[..., :-1, :-1] - qx[..., :-1, 1:]
        + qy[..., :-1, 1:] + qy[..., 1:, 1:] - qy[..., :-1, :-1] - qy[..., 1:, :-1]
    ) / (2.0 * h)
    return out2.reshape(lead + (-1,))


def divergence_weak(q: VectorField) -> ScalarField:
    return ScalarField(q.mesh, divergence_weak_values(q.mesh, q.values))


# -- stacked columns -----------------------------------------------------------


def start_columns(mesh: Mesh, shape: tuple, y0=None) -> np.ndarray:
    """Initial iterates of a stack of nodal columns: y0 broadcast to
    ``shape`` (zeros when None), set to zero on every Dirichlet node."""
    y = np.zeros(shape)
    if y0 is not None:
        y[...] = y0
    np.copyto(y, 0.0, where=mesh.boundary_mask)
    return y


def select_rows(mask: np.ndarray):
    """Index of the rows of a stack that ``mask`` selects: None when it
    selects none, and a plain slice when it selects all, so that a stack
    whose rows move together (a single row, say) makes no copies."""
    n = np.count_nonzero(mask)
    if n == 0:
        return None
    return slice(None) if n == mask.size else np.flatnonzero(mask)


def _fixed_point_columns(step, y, data, tol, max_iterations, first):
    """Contraction iteration on a stack of columns, shared by the
    Zarantonello and Picard solvers.

    ``step(y, *data)`` returns ``(candidate, measure, next)`` for the live
    columns: the iterate a column stops with, its per-column convergence
    measure and the next iterate.  ``data`` holds per-column arrays that
    follow the live columns.  A column freezes at the first iteration whose
    measure is at most ``tol``; iterations are counted from ``first`` (0
    when the measure is taken before the step, 1 when after it).  Returns
    the states, holding each unfrozen column's last iterate, and one
    ``(iterations, measure, worst ratio, converged)`` per column; at the cap
    ``iterations`` is ``max_iterations``.
    """
    states = np.empty(y.shape)
    outcome = [None] * y.shape[0]
    ids = np.arange(y.shape[0])
    # no ratio on the first step; after it prev > 0 on every live column,
    # since a zero measure meets any tolerance
    prev = np.full(ids.size, np.inf)
    worst = np.zeros(ids.size)
    for it in range(first, max_iterations + first):
        candidate, measure, y = step(y, *data)
        worst = np.maximum(worst, measure / prev)
        prev = measure
        done = measure <= tol
        r = select_rows(done)
        if r is not None:
            j = ids[r]
            states[j] = candidate[r]
            for c, d, w in zip(j.tolist(), measure[r].tolist(), worst[r].tolist()):
                outcome[c] = (it, d, w, True)
            if isinstance(r, slice):
                break
            keep = ~done
            ids, y, prev, worst = ids[keep], y[keep], prev[keep], worst[keep]
            data = tuple(a[keep] for a in data)
    else:
        states[ids] = y
        for c, d, w in zip(ids.tolist(), prev.tolist(), worst.tolist()):
            outcome[c] = (max_iterations, d, w, False)
    return states, outcome


# -- inner products and norms -------------------------------------------------


def inner(f, g) -> float:
    """Discrete L2 inner product: trapezoid on nodes, midpoint on cells."""
    if isinstance(f, VectorField) and isinstance(g, VectorField):
        if f.mesh is not g.mesh and f.mesh != g.mesh:
            raise ValueError("mesh mismatch")
        return float(f.mesh.cell_volume * np.sum(f.values * g.values))
    if not (isinstance(f, ScalarField) and isinstance(g, ScalarField)):
        raise TypeError("inner expects two fields of the same kind")
    if f.mesh is not g.mesh and f.mesh != g.mesh:
        raise ValueError("mesh mismatch")
    if f.location != g.location:
        raise ValueError("fields live on different locations")
    if f.location == "nodes":
        w = f.mesh.node_weights()
        return float(f.mesh.cell_volume * np.sum(w * f.values * g.values))
    return float(f.mesh.cell_volume * np.sum(f.values * g.values))


def l2_norm(f) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def h1_seminorm(y: ScalarField) -> float:
    return l2_norm(gradient(y))


def l2_norm_values(mesh: Mesh, v: np.ndarray, location: str = "nodes") -> np.ndarray:
    """l2_norm of each stacked field: nodal values of shape (..., n_nodes) or
    cell vector values of shape (..., n_cells, dim).  Leading axes are batch
    axes; each entry equals l2_norm of that field alone."""
    if location == "nodes":
        sq = mesh.node_weights() * v * v
    else:
        sq = (v * v).reshape(v.shape[:-2] + (-1,))
    return np.sqrt(np.maximum(mesh.cell_volume * sq.sum(axis=-1), 0.0))


def integrate_nodal(mesh: Mesh, values: np.ndarray) -> float:
    """Trapezoid quadrature of flat nodal values."""
    return float(mesh.cell_volume * np.sum(mesh.node_weights() * values))


def integrate_cells(mesh: Mesh, values: np.ndarray) -> float:
    """Midpoint quadrature of flat per-cell values."""
    return float(mesh.cell_volume * np.sum(values))


# -- transfer between cells and nodes -----------------------------------------


def node_to_cell_values(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    """Average nodal values to cells (mean of the 2^d corner values).  Leading
    axes of y are batch axes."""
    if mesh.dimension == 1:
        return 0.5 * (y[..., :-1] + y[..., 1:])
    m = mesh.nodes_per_axis
    lead = y.shape[:-1]
    y2 = y.reshape(lead + (m, m))
    corners = y2[..., :-1, :-1] + y2[..., 1:, :-1] + y2[..., :-1, 1:] + y2[..., 1:, 1:]
    return (0.25 * corners).reshape(lead + (-1,))


def node_to_cell(y: ScalarField) -> ScalarField:
    return ScalarField(y.mesh, node_to_cell_values(y.mesh, y.values), "cells")


def cell_to_node_values(mesh: Mesh, c: np.ndarray) -> np.ndarray:
    """Average per-cell values to nodes (adjoint of node_to_cell with respect
    to the discrete inner products at interior nodes; one-sided means on the
    boundary, where the value never enters a Dirichlet solve).  Leading axes
    of c are batch axes."""
    lead = c.shape[:-1]
    if mesh.dimension == 1:
        out = np.empty(lead + (mesh.n_nodes,))
        out[..., 1:-1] = 0.5 * (c[..., :-1] + c[..., 1:])
        out[..., 0] = c[..., 0]
        out[..., -1] = c[..., -1]
        return out
    n = mesh.cells_per_axis
    c2 = c.reshape(lead + (n, n))
    acc = np.zeros(lead + (n + 1, n + 1))
    cnt = np.zeros((n + 1, n + 1))
    for di in (0, 1):
        for dj in (0, 1):
            acc[..., di : n + di, dj : n + dj] += c2
            cnt[di : n + di, dj : n + dj] += 1.0
    return (acc / cnt).reshape(lead + (-1,))


def cell_to_node(c: ScalarField) -> ScalarField:
    if c.location != "cells":
        raise ValueError("cell_to_node expects a cell field")
    return ScalarField(c.mesh, cell_to_node_values(c.mesh, c.values), "nodes")


# -- the Helmholtz backbone ----------------------------------------------------

_FACTOR_CACHE: dict = {}


def _interior_operator_1d(mesh: Mesh, b: float):
    key = (1, mesh.cells_per_axis, float(b))
    fac = _FACTOR_CACHE.get(key)
    if fac is None:
        n = mesh.cells_per_axis
        h2 = mesh.h**2
        m = n - 1
        ab = np.zeros((2, m))
        ab[0, 1:] = -1.0 / h2
        ab[1, :] = 2.0 / h2 + b
        fac = scipy.linalg.cholesky_banded(ab, lower=False)
        _FACTOR_CACHE[key] = fac
    return fac


def _interior_operator_2d(mesh: Mesh, b: float):
    key = (2, mesh.cells_per_axis, float(b))
    fac = _FACTOR_CACHE.get(key)
    if fac is None:
        n = mesh.cells_per_axis
        h2 = mesh.h**2
        m = n - 1  # interior nodes per axis
        idx = np.arange(m * m).reshape(m, m)
        diag = np.full(m * m, 2.0 / h2 + b)
        rows, cols, vals = [np.arange(m * m)], [np.arange(m * m)], [diag]
        # diagonal-neighbor couplings of the cell-averaged Laplacian
        for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            src = idx[max(0, -di) : m - max(0, di), max(0, -dj) : m - max(0, dj)]
            dst = idx[max(0, di) : m - max(0, -di), max(0, dj) : m - max(0, -dj)]
            rows.append(src.ravel())
            cols.append(dst.ravel())
            vals.append(np.full(src.size, -1.0 / (2.0 * h2)))
        A = scipy.sparse.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(m * m, m * m),
        )
        fac = scipy.sparse.linalg.splu(A)
        _FACTOR_CACHE[key] = fac
    return fac


def helmholtz_solve_values(mesh: Mesh, b: float, rhs: np.ndarray) -> np.ndarray:
    """Flat nodal solution of (-lap_h + b) y = rhs, y = 0 on Dirichlet nodes.

    Leading axes of rhs stack independent right-hand sides; all of them go
    through the cached factorization in one multi-right-hand-side solve.
    """
    if not np.isfinite(b) or b < 0:
        raise ValueError(f"b must be a finite nonnegative real, got {b}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1:] != (mesh.n_nodes,):
        raise ValueError(
            f"right-hand side has shape {rhs.shape}, mesh expects "
            f"(..., {mesh.n_nodes}) nodal values"
        )
    if not np.all(np.isfinite(rhs)):
        raise ValueError("non-finite right-hand side")
    interior = mesh.interior_indices
    cols = rhs[..., interior].reshape(-1, interior.size).T
    if mesh.dimension == 1:
        # LAPACK directly: the banded-solve wrapper costs more than the solve
        sol, info = scipy.linalg.lapack.dpbtrs(_interior_operator_1d(mesh, b), cols)
        if info != 0:
            raise ValueError(f"banded Cholesky solve failed (info={info})")
    else:
        sol = _interior_operator_2d(mesh, b).solve(cols)
    out = np.zeros(rhs.shape)
    out[..., interior] = sol.T.reshape(rhs.shape[:-1] + (interior.size,))
    return out


def helmholtz_solve(b: float, rhs: ScalarField) -> ScalarField:
    """Direct factorization solve of the zero-Dirichlet Helmholtz problem.

    Parameters
    ----------
    b : nonnegative real
        Zero-order coefficient; b = 0 is the Poisson problem, still
        invertible under the Dirichlet conditions.
    rhs : ScalarField on nodes
        Right-hand side; boundary values are ignored.

    Returns
    -------
    ScalarField vanishing on every Dirichlet node, with residual
    ``max |(-lap_h + b) y - rhs|`` at rounding level on desk-scale grids.
    """
    if rhs.location != "nodes":
        raise ValueError("helmholtz_solve expects a nodal right-hand side")
    return ScalarField(rhs.mesh, helmholtz_solve_values(rhs.mesh, b, rhs.values))


def laplacian_values(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    """lap_h y = divergence_weak(gradient(y)) on interior nodes (flat)."""
    return divergence_weak_values(mesh, gradient_values(mesh, y))


# -- gradient potentials (range-of-gradient tests and projections) ------------

_KKT_CACHE: dict = {}


def _gradient_matrix(mesh: Mesh) -> scipy.sparse.csr_matrix:
    """Sparse matrix of 2D gradient_values acting on flat nodal vectors: the
    x-components of every cell, then the y-components.  Per axis it takes
    the difference of the node pairs along that axis and sums them across
    the other one."""
    n = mesh.cells_per_axis
    D = scipy.sparse.diags([-1.0, 1.0], [0, 1], (n, n + 1))
    S = scipy.sparse.diags([1.0, 1.0], [0, 1], (n, n + 1))
    G = scipy.sparse.vstack(
        [scipy.sparse.kron(D, S), scipy.sparse.kron(S, D)], format="csr"
    )
    return G / (2.0 * mesh.h)


def _h1_projection_factor(mesh: Mesh):
    """Cached factorization of the H1 least-squares KKT system in 2D.

    The full-space kernel of the discrete gradient is span{1, checkerboard};
    both directions are pinned with explicit constraint rows.
    """
    key = (mesh.dimension, mesh.cells_per_axis)
    entry = _KKT_CACHE.get(key)
    if entry is None:
        G = _gradient_matrix(mesh)
        A = (G.T @ G).tocsc() * mesh.cell_volume
        n_nodes = mesh.n_nodes
        ones = np.ones(n_nodes)
        m = mesh.nodes_per_axis
        ij = np.indices((m, m)).sum(axis=0).ravel()
        checker = np.where(ij % 2 == 0, 1.0, -1.0)
        C = scipy.sparse.csr_matrix(np.vstack([ones, checker]))
        K = scipy.sparse.bmat(
            [[A, C.T], [C, None]], format="csc"
        )
        entry = (scipy.sparse.linalg.splu(K), G)
        _KKT_CACHE[key] = entry
    return entry


def gradient_potential_values(mesh: Mesh, v: np.ndarray, space: str = "h10") -> np.ndarray:
    """Flat nodal least-squares potential of cell vector values v, shape
    (..., n_nodes); leading axes of v (shape (..., n_cells, dim)) are batch
    axes, solved together.  See gradient_potential."""
    if space == "h10":
        return helmholtz_solve_values(mesh, 0.0, -divergence_weak_values(mesh, v))
    if space != "h1":
        raise ValueError(f"unknown potential space {space!r}")
    # representative convention: zero plain nodal mean (the 2D KKT rows
    # pin the full gradient kernel {1, checkerboard} the same way)
    lead = v.shape[:-2]
    if mesh.dimension == 1:
        pot = np.concatenate(
            [np.zeros(lead + (1,)), mesh.h * np.cumsum(v[..., 0], axis=-1)], axis=-1
        )
        return pot - np.mean(pot, axis=-1, keepdims=True)
    fac, G = _h1_projection_factor(mesh)
    comps = np.swapaxes(v, -1, -2).reshape(-1, v.shape[-2] * v.shape[-1])
    rhs = np.zeros((mesh.n_nodes + 2, comps.shape[0]))
    rhs[: mesh.n_nodes] = mesh.cell_volume * (G.T @ comps.T)
    return fac.solve(rhs)[: mesh.n_nodes].T.reshape(lead + (mesh.n_nodes,))


def gradient_potential(v: VectorField, space: str = "h10"):
    """Least-squares potential of a cell vector field.

    Finds the nodal y in H1_0 (``space='h10'``) or H1 (``space='h1'``,
    zero-mean normalization) minimizing ``l2_norm(gradient(y) - v)``; one
    direct linear solve per call.

    Returns
    -------
    (potential, residual) : (ScalarField, float)
        ``residual == 0`` within rounding exactly when v is a discrete
        gradient of the requested class.
    """
    mesh = v.mesh
    pot = gradient_potential_values(mesh, v.values, space)
    res = l2_norm(VectorField(mesh, gradient_values(mesh, pot) - v.values))
    return ScalarField(mesh, pot), res


def is_discrete_gradient(v: VectorField, space: str, tol: float = 1e-9) -> bool:
    """Range-of-gradient test for the given class, relative tolerance."""
    _, res = gradient_potential(v, space)
    return res <= tol * (1.0 + l2_norm(v))


# -- serialization -------------------------------------------------------------


def field_to_csv(f, path) -> None:
    """Dump a field as CSV with header ``index,x[,y],value``, ordered by index."""
    if isinstance(f, VectorField):
        raise TypeError("field_to_csv writes scalar fields; dump components")
    coords = f.mesh.node_coords() if f.location == "nodes" else f.mesh.cell_centers()
    with open(path, "w", encoding="utf-8") as fh:
        if f.mesh.dimension == 1:
            fh.write("index,x,value\n")
            for i, (x, val) in enumerate(zip(coords[:, 0], f.values)):
                fh.write(f"{i},{float(x)!r},{float(val)!r}\n")
        else:
            fh.write("index,x,y,value\n")
            for i, (xy, val) in enumerate(zip(coords, f.values)):
                fh.write(f"{i},{float(xy[0])!r},{float(xy[1])!r},{float(val)!r}\n")
