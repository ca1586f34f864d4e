"""Structured meshes on the unit interval/square, discrete operators and norms.

The discretization is fixed throughout the package: states and controls are
nodal values on a uniform grid over (0,1) or (0,1)^2 with zero-Dirichlet
bookkeeping, gradients are cell-centered difference quotients, and
``divergence_weak`` is the exact negative adjoint of ``gradient`` with respect
to the trapezoid (nodes) and midpoint (cells) inner products.  The linear
backbone of every state solver, ``helmholtz_solve`` of ``-lap + b``, applies
the closed-form Green's function in 1D and solves in the sine basis (fast
diagonalization) in 2D; the H1 gradient potential is a cumulative sum and
exists in 1D only.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

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
    "gradient_potential",
    "field_to_csv",
]

# a fixed-point column with no new lowest measure in a window of this many
# iterations has stalled
_STALL_ITERATIONS = 100


@dataclass(frozen=True)
class Mesh:
    """Uniform grid on (0,1) (``dimension=1``) or (0,1)^2 (``dimension=2``).

    Nodes live on a ``(n+1)^d`` lattice (flattened in C order), cells on the
    ``n^d`` lattice of their lower-left corners.  Every node on the boundary of
    the domain is flagged Dirichlet in the derived, read-only
    ``boundary_mask``.
    """

    dimension: int
    cells_per_axis: int

    def __post_init__(self):
        check_count("dimension", self.dimension, 1)
        check_count("cells_per_axis", self.cells_per_axis, 1)
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.cells_per_axis < 2:
            raise ValueError(
                "cells_per_axis must be >= 2, got "
                f"{self.cells_per_axis} (discrete operators undefined)"
            )
        m = self.cells_per_axis + 1
        mask = np.ones((m,) * self.dimension, dtype=bool)
        mask[(slice(1, -1),) * self.dimension] = False
        mask = mask.ravel()
        interior = np.flatnonzero(~mask)
        w = np.ones(m)
        w[0] = w[-1] = 0.5
        weights = w if self.dimension == 1 else np.outer(w, w).ravel()
        for name, arr in (("boundary_mask", mask), ("_interior", interior),
                          ("_node_weights", weights)):
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
        """Coordinates of every node, shape ``(n_nodes, dimension)``, in C order."""
        ax, d = np.linspace(0.0, 1.0, self.nodes_per_axis), self.dimension
        return np.stack(np.meshgrid(*(ax,) * d, indexing="ij"), axis=-1).reshape(-1, d)

    def node_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights per node (without the h^d factor)."""
        return self._node_weights


@dataclass(frozen=True)
class ScalarField:
    """Real values attached to the nodes of a mesh: states, controls and
    sources, the nodal H1 functions of the discretization.  Per-cell values
    stay plain arrays (see young_measure.moment)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        expected = self.mesh.n_nodes
        if vals.shape != (expected,):
            raise ValueError(
                f"field has {vals.shape} values, mesh expects ({expected},) on nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def is_dirichlet_zero(self) -> bool:
        """True for fields vanishing on every Dirichlet node."""
        return bool(np.all(self.values[self.mesh.boundary_mask] == 0.0))


@dataclass(frozen=True)
class VectorField:
    """One R^N value per cell (N = mesh dimension); houses gradients,
    Young-measure barycenters and averaged fluxes."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
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


def check_count(name: str, value, low: int) -> None:
    """Raise ValueError unless the count ``value`` is an integer, not a bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        kind = "positive" if low else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


# -- discrete differential operators -----------------------------------------


def gradient_values(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    """Cell-centered gradient of flat nodal values, shape (..., n_cells, dim);
    leading axes of y are batch axes.

    1D: forward difference quotient per cell.  2D: per axis, average of the
    two opposing face difference quotients, g_x = (d[:, :-1] + d[:, 1:])/(2h)
    with d = y[1:, :] - y[:-1, :] (g_y alike).  Exact for affine y; a stacked
    row equals its single call bit for bit.
    """
    h = mesh.h
    if mesh.dimension == 1:
        return ((y[..., 1:] - y[..., :-1]) / h)[..., None]
    n = mesh.cells_per_axis
    lead = y.shape[:-1]
    y2 = y.reshape(lead + (n + 1, n + 1))
    g = np.empty(lead + (n, n, 2))
    d = y2[..., 1:, :] - y2[..., :-1, :]
    np.add(d[..., :-1], d[..., 1:], out=g[..., 0])
    d = y2[..., 1:] - y2[..., :-1]
    np.add(d[..., :-1, :], d[..., 1:, :], out=g[..., 1])
    g /= 2.0 * h
    return g.reshape(lead + (n * n, 2))


def gradient(y: ScalarField) -> VectorField:
    """Discrete gradient of a nodal scalar field, one R^N value per cell."""
    return VectorField(y.mesh, gradient_values(y.mesh, y.values))


def divergence_weak_values(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Flat nodal values of the negative adjoint of the gradient.

    Defined so that inner(divergence_weak(q), z) == -inner(q, gradient(z))
    for every nodal z vanishing on the Dirichlet nodes; zero on the boundary.
    Leading axes of q (shape (..., n_cells, dim)) are batch axes; a stacked
    row equals its single call bit for bit.  2D: (dx + dy)/(2h), dx the
    axis-0 difference of q_x pair-summed along axis 1, dy alike transposed.
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
    sx = qx[..., :-1] + qx[..., 1:]
    sy = qy[..., :-1, :] + qy[..., 1:, :]
    d = sx[..., 1:, :] - sx[..., :-1, :]
    d += sy[..., 1:] - sy[..., :-1]
    d /= 2.0 * h
    out2[..., 1:-1, 1:-1] = d
    return out2.reshape(lead + (-1,))


def divergence_weak(q: VectorField) -> ScalarField:
    return ScalarField(q.mesh, divergence_weak_values(q.mesh, q.values))


def gradient_transpose_values(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Flat nodal values of G^T q on every node, G the matrix of
    gradient_values: -divergence_weak_values on the interior, and the
    boundary terms it drops (2D: its passes on zero-padded cells, negated).
    Leading axes of q are batch axes, each row bit for bit its single call."""
    h = mesh.h
    lead = q.shape[:-2]
    n = mesh.cells_per_axis
    # one ring of zero cells around the mesh gives every node its full stencil
    if mesh.dimension == 1:
        p = np.zeros(lead + (n + 2,))
        p[..., 1:-1] = q[..., 0]
        return (p[..., :-1] - p[..., 1:]) / h
    p = np.zeros(lead + (2, n + 2, n + 2))
    p[..., 1:-1, 1:-1] = np.moveaxis(q, -1, -2).reshape(lead + (2, n, n))
    sx = p[..., 0, :, :-1] + p[..., 0, :, 1:]
    sy = p[..., 1, :-1, :] + p[..., 1, 1:, :]
    out = sx[..., :-1, :] - sx[..., 1:, :]
    out += sy[..., :-1] - sy[..., 1:]
    out /= 2.0 * h
    return out.reshape(lead + (-1,))


# interior_matrix's probe patterns, per (dimension, cells_per_axis); not
# factorizations, so apart from _FACTOR_CACHE
_PROBE_CACHE: dict = {}


def _probe_pattern(mesh: Mesh):
    """(probes, dest, src) of interior_matrix on mesh: the 3^d comb vectors
    (probe c is 1 on the interior nodes of color c = (i mod 3, j mod 3)),
    and for every pair of interior nodes within one step per axis, the
    flat index of the pair's matrix entry and of the image value that holds
    it (the row node's value under the column node's probe)."""

    def build():
        d, m = mesh.dimension, mesh.nodes_per_axis
        interior = mesh.interior_indices
        lattice = np.array(np.unravel_index(interior, (m,) * d))
        # a mesh with at most 3^d interior nodes probes with identity columns
        color = (np.arange(interior.size) if interior.size <= 3**d
                 else np.ravel_multi_index(lattice % 3, (3,) * d))
        probes = np.zeros((color.max() + 1, mesh.n_nodes))
        probes[color, interior] = 1.0
        probes.setflags(write=False)
        position = np.full(mesh.n_nodes, -1)
        position[interior] = np.arange(interior.size)
        dest, src = [], []
        for offset in itertools.product((-1, 0, 1), repeat=d):
            node = np.ravel_multi_index(lattice + np.array(offset)[:, None], (m,) * d)
            col = np.flatnonzero(position[node] >= 0)
            dest.append(position[node[col]] * interior.size + col)
            src.append(color[col] * mesh.n_nodes + node[col])
        return probes, np.concatenate(dest), np.concatenate(src)

    return _cached(_PROBE_CACHE, (mesh.dimension, mesh.cells_per_axis), build)


def interior_matrix(mesh: Mesh, apply) -> np.ndarray:
    """Dense matrix of a linear map of nodal values on the interior nodes
    (row i: the image's interior node i; column k: interior node k of the
    argument).  The map must couple only nodes within one step per axis,
    as every linearized residual of the package does: ``apply`` then runs
    once, on the stack of _probe_pattern's 3^d comb vectors (shape (3^d,
    n_nodes); the identity columns on a mesh of fewer interior nodes), and
    each column's stencil is read off the image of its node's probe
    (Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).  The entries
    equal those from the identity columns bit for bit: within one step per
    axis of any node a probe is 1 at one node at most, so its image there
    is that node's identity column's image."""
    probes, dest, src = _probe_pattern(mesh)
    size = mesh.interior_indices.size
    K = np.zeros(size * size)
    K[dest] = apply(probes).reshape(-1)[src]
    return K.reshape(size, size)


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


def _fixed_point_columns(step, carry, tol, max_iterations, first):
    """Iteration on a stack of columns, shared by the Barzilai-Borwein
    descent, the Zarantonello and Picard solvers and the variational polish.

    ``carry`` holds per-column arrays, the iterate first, that follow the
    live columns; ``step(*carry)`` returns ``(candidate, measure, floor,
    carry)``: the iterate a column stops with, its convergence measure, None
    or a mask of the columns that stop unconverged at their floating-point
    floor, and the next carry.  A column freezes at the first iteration
    whose measure is at most ``tol``, converged even at its floor;
    iterations are counted from ``first`` (0 when the measure is taken
    before the step, 1 when after it).  A column with no new lowest measure
    in a whole window of _STALL_ITERATIONS has stalled at its floor too and
    stops at the window's end; NaN measures never set a low.  Returns the
    states, holding the candidate of each column that stopped and the last
    iterate of each column at the cap, and one ``(iterations, measure,
    worst ratio, converged)`` per column; ``iterations`` is
    ``max_iterations`` at the cap, fewer at a floor.
    """
    # each check is written so that a NaN fails it
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    check_count("max_iterations", max_iterations, 0)
    states = np.empty(carry[0].shape)
    outcome = [None] * len(states)
    ids = np.arange(len(states))
    # no ratio on the first step; after it prev > 0 on every live column,
    # since a zero measure meets any tolerance
    prev = np.full(ids.size, np.inf)
    worst = np.zeros(ids.size)
    low = wlow = np.full(ids.size, np.inf)  # lowest measures before and in this window
    for it in range(first, max_iterations + first):
        candidate, measure, floor, carry = step(*carry)
        worst = np.maximum(worst, measure / prev)
        prev = measure
        wlow = np.fmin(wlow, measure)
        done = measure <= tol
        leave = done if floor is None else done | floor
        if (it - first + 1) % _STALL_ITERATIONS == 0:
            leave = leave | (wlow >= low)
            low = np.minimum(low, wlow)
            wlow = np.full(ids.size, np.inf)
        r = select_rows(leave)
        if r is not None:
            j = ids[r]
            states[j] = candidate[r]
            for c, d, w, ok in zip(
                j.tolist(), measure[r].tolist(), worst[r].tolist(), done[r].tolist()
            ):
                outcome[c] = (it, d, w, ok)
            if isinstance(r, slice):
                break
            keep = ~leave
            ids, prev, worst, low, wlow = (a[keep] for a in (ids, prev, worst, low, wlow))
            carry = tuple(a[keep] for a in carry)
    else:
        states[ids] = carry[0]
        for c, d, w in zip(ids.tolist(), prev.tolist(), worst.tolist()):
            outcome[c] = (max_iterations, d, w, False)
    return states, outcome


def _one_column(solve_columns, p, u: ScalarField, y0, **kw):
    """Row 0 of ``solve_columns`` on the single control u: the one-column
    case behind each regime's single solve."""
    if u.mesh != p.mesh:
        raise ValueError("control must be a nodal field on the problem mesh")
    y, reports = solve_columns(p, u.values[None], y0=None if y0 is None else y0.values, **kw)
    return ScalarField(p.mesh, y[0]), reports[0]


# -- inner products and norms -------------------------------------------------


def inner(f, g) -> float:
    """Discrete L2 inner product: trapezoid rule for two scalar (nodal)
    fields, midpoint rule for two vector (cell) fields."""
    if isinstance(f, VectorField) and isinstance(g, VectorField):
        if f.mesh is not g.mesh and f.mesh != g.mesh:
            raise ValueError("mesh mismatch")
        return float(f.mesh.cell_volume * np.sum(f.values * g.values))
    if not (isinstance(f, ScalarField) and isinstance(g, ScalarField)):
        raise TypeError("inner expects two fields of the same kind")
    if f.mesh is not g.mesh and f.mesh != g.mesh:
        raise ValueError("mesh mismatch")
    w = f.mesh.node_weights()
    return float(f.mesh.cell_volume * np.sum(w * f.values * g.values))


def l2_norm(f) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def h1_seminorm(y: ScalarField) -> float:
    return l2_norm(gradient(y))


def sq_norm_values(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """Squared l2_norm_values: the trapezoid rule over the last axis."""
    return mesh.cell_volume * (mesh.node_weights() * v * v).sum(axis=-1)


def cell_sq_norm_values(mesh: Mesh, g: np.ndarray) -> np.ndarray:
    """Squared l2 norm of stacked cell vector fields (..., n_cells, dim)."""
    return mesh.cell_volume * (g * g).reshape(g.shape[:-2] + (-1,)).sum(axis=-1)


def l2_norm_values(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """l2_norm of each stacked nodal field of shape (..., n_nodes).  Leading
    axes are batch axes; each entry equals l2_norm of that field alone."""
    return np.sqrt(sq_norm_values(mesh, v))


def integrate_cells(mesh: Mesh, values: np.ndarray) -> float:
    """Midpoint quadrature of flat per-cell values."""
    return float(mesh.cell_volume * np.sum(values))


# -- transfer between cells and nodes -----------------------------------------


def node_to_cell_values(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    """Average nodal values to cells (mean of the 2^d corner values; 2D
    pair-sums along axis 0, then along axis 1).  Leading axes of y are batch
    axes, each row bit for bit its single call."""
    if mesh.dimension == 1:
        return 0.5 * (y[..., :-1] + y[..., 1:])
    m = mesh.nodes_per_axis
    lead = y.shape[:-1]
    y2 = y.reshape(lead + (m, m))
    s = y2[..., :-1, :] + y2[..., 1:, :]
    return (0.25 * (s[..., :-1] + s[..., 1:])).reshape(lead + (-1,))


def cell_to_node_values(mesh: Mesh, c: np.ndarray) -> np.ndarray:
    """Average per-cell values to nodes (adjoint of node_to_cell_values with
    respect to the discrete inner products at interior nodes; one-sided
    means on the boundary, where the value never enters a Dirichlet solve;
    2D pair-sums the zero-padded cells along axis 0, then along axis 1).
    Leading axes of c are batch axes, each row bit for bit its single call."""
    lead = c.shape[:-1]
    if mesh.dimension == 1:
        out = np.empty(lead + (mesh.n_nodes,))
        out[..., 1:-1] = 0.5 * (c[..., :-1] + c[..., 1:])
        out[..., 0] = c[..., 0]
        out[..., -1] = c[..., -1]
        return out
    n = mesh.cells_per_axis
    p = np.zeros(lead + (n + 2, n + 2))
    p[..., 1:-1, 1:-1] = c.reshape(lead + (n, n))
    s = p[..., :-1, :] + p[..., 1:, :]
    acc = (s[..., :-1] + s[..., 1:]).reshape(lead + (-1,))
    # each node's cell count (1, 2 or 4) is 4 times its trapezoid weight
    acc /= 4.0 * mesh.node_weights()
    return acc


# -- the Helmholtz backbone ----------------------------------------------------

# cached 1D Green's functions and 2D sine bases; beyond _CACHE_ENTRIES the
# oldest entry goes first.  perfbench counts its entries as factorizations.
_FACTOR_CACHE: dict = {}
_CACHE_ENTRIES = 32
# 1D meshes with at most this many interior nodes apply a dense Green's
# function; its products lose to rounding on oscillating right-hand sides as
# n^2 (2e-13 relative at 63, 2e-12 at 126), so finer meshes sweep instead
_DENSE_INTERIOR = 63
# largest decay exponent across one chunk of a sweep: weights stay in
# [e^-300, 1], far from underflow and overflow
_CHUNK_EXPONENT = 300.0


def _cached(cache: dict, key, build):
    """cache[key], built on a miss; the cache keeps at most _CACHE_ENTRIES
    entries, dropping the oldest.  The build runs before the eviction, so
    a build that fills the cache itself cannot push it past the bound."""
    entry = cache.get(key)
    if entry is None:
        entry = build()
        while len(cache) >= _CACHE_ENTRIES:
            del cache[next(iter(cache))]
        cache[key] = entry
    return entry


def _green_1d(n: int, b: float):
    """(r, p, theta) of the 1D interior operator tridiag(-1, 2 + b h^2, -1)/h^2,
    whose inverse is G[i, j] = r[min(i, j)] p[n - max(i, j)] e^{-|i - j| theta}.

    With cosh(theta) = 1 + b h^2/2 the inverse is h^2 sinh(i theta)
    sinh((n - j) theta) / (sinh(theta) sinh(n theta)) for i <= j (Meurant,
    SIAM J. Matrix Anal. Appl. 13, 1992).  Splitting sinh(k theta) =
    e^{k theta} s_k / 2 with s_k = 1 - e^{-2 k theta} gives r_k = s_k h^2 /
    (2 sinh theta) and p_k = s_k / s_n, which neither overflow for large b
    nor underflow for tiny b; b = 0 is the limit r_k = k h^2, p_k = k/n.
    """
    h = 1.0 / n
    k = np.arange(n + 1)
    a = 0.5 * h * np.sqrt(b)  # sinh(theta/2)
    theta = 2.0 * float(np.arcsinh(a))
    if theta == 0.0:
        return k * (h * h), k / n, 0.0
    s = -np.expm1(-2.0 * theta * k)
    # 2 sinh(theta) = 4 sinh(theta/2) cosh(theta/2)
    return s * (h * h / (4.0 * a * np.hypot(1.0, a))), s / s[n], theta


def _dense_green_1d(n: int, b: float) -> np.ndarray:
    r, p, theta = _green_1d(n, b)
    i = np.arange(1, n)
    lo, hi = np.minimum.outer(i, i), np.maximum.outer(i, i)
    return r[lo] * p[n - hi] * np.exp(-theta * (hi - lo))


def _sweep_weights_1d(n: int, b: float):
    """(L, decay, u1, w1, v1, u2, w2, v2) of the two sweeps of _solve_1d.

    Each sweep runs in chunks of L entries, with L theta at most
    _CHUNK_EXPONENT (one chunk unless b h^2 n^2 is large): within a chunk
    the terms are weighted by up = e^{-(L-1-t) theta} <= 1 at position t
    and the cumulative sums rescaled by down = 1/up, and each chunk takes
    the carry of the chunks before it, decayed by enter = e^{-(t+1)
    theta}.  The weights fold in the Green's function factors.
    """
    r, p, theta = _green_1d(n, b)
    m = n - 1
    L = m if theta * (m - 1) <= _CHUNK_EXPONENT else max(1, int(_CHUNK_EXPONENT / theta))
    t = np.arange(m) % L
    up, down = (np.exp(c * theta) for c in (-(L - 1 - t), L - 1 - t))
    # the lower sweep feeds node i from j <= i; the upper one runs over the
    # reversed row, position t feeding node m - 1 - t from j > m - 1 - t
    lower, upper = p[m:0:-1], np.exp(-theta) * r[m - 1::-1]
    v1 = v2 = None
    if L < m:  # a sweep of one chunk carries nothing
        v1, v2 = np.exp(-(t + 1.0) * theta) * np.stack([lower, upper])
    return (L, np.exp(-theta * L), r[1:n] * up, lower * down, v1,
            p[1:n] * up, upper * down, v2)


def _sweep(g: np.ndarray, L: int, decay: float, w: np.ndarray, v: np.ndarray):
    """Overwrite each row of g with w times its cumulative sums within chunks
    of L entries, plus v times the carry into each chunk: the last sum of the
    chunk before plus its own carry, decayed."""
    k, m = g.shape
    if L >= m:
        np.add.accumulate(g, axis=-1, out=g)
        g *= w
        return g
    chunks = -(-m // L)
    padded = np.zeros((k, chunks * L))
    padded[:, :m] = g
    local = np.add.accumulate(padded.reshape(k, chunks, L), axis=-1)
    # the carry into chunk c is the sum over j < c of decay^(c-1-j) times
    # chunk j's last sum.  With two chunks or more L theta >= 150 (L is the
    # largest with L theta <= 300, and 1 for theta >= 150), so every term two
    # chunks back or more is decayed by e^-300 or less and is dropped: no
    # step loops over the chunks
    carry = np.zeros((k, chunks))
    carry[:, 1:] = local[:, :-1, -1]
    carry[:, 2:] += decay * local[:, :-2, -1]
    g[:] = local.reshape(k, chunks * L)[:, :m] * w + np.repeat(carry, L, axis=-1)[:, :m] * v
    return g


def _solve_1d(n: int, b: float, F: np.ndarray, y: np.ndarray) -> None:
    """Write into y the interior solutions for the rows of the (k, n - 1)
    stack F.

    Every row is computed on its own, so a stacked row equals its single
    solve bit for bit: a dense Green's function applies one matrix-vector
    product per row (a stacked matrix product would not keep that), and on
    finer meshes two sweeps of per-row cumulative sums apply

        y_i = p_{n-i} sum_{j <= i} e^{-(i-j) theta} r_j f_j
              + r_i sum_{j > i} e^{-(j-i) theta} p_{n-j} f_j.
    """
    if n - 1 <= _DENSE_INTERIOR:
        G = _cached(_FACTOR_CACHE, (1, n, b), lambda: _dense_green_1d(n, b))
        # one contiguous layout, so a row's products never depend on its stride
        y[:] = (G @ np.ascontiguousarray(F)[..., None])[..., 0]
        return
    L, decay, u1, w1, v1, u2, w2, v2 = _cached(
        _FACTOR_CACHE, (1, n, b), lambda: _sweep_weights_1d(n, b)
    )
    _sweep(np.multiply(F, u1, out=y), L, decay, w1, v1)
    y[:, :-1] += _sweep(F[:, ::-1] * u2, L, decay, w2, v2)[:, -2::-1]


def _sine_basis_2d(mesh: Mesh):
    """Cached (S, lam0): the 2D interior operator is (2/h^2) I - (1/2h^2) T(x)T
    + b I with T the 1D neighbour matrix, and the symmetric orthogonal sine
    matrix S diagonalizes it with eigenvalues lam0 + b for every b."""
    n = mesh.cells_per_axis

    def build():
        k = np.arange(1, n)
        S = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
        c = np.cos(np.pi * k / n)
        return S, 2.0 / mesh.h**2 * (1.0 - np.outer(c, c))

    return _cached(_FACTOR_CACHE, (2, n), build)


def helmholtz_solve_values(mesh: Mesh, b: float, rhs: np.ndarray) -> np.ndarray:
    """Flat nodal solution of (-lap_h + b) y = rhs, y = 0 on Dirichlet nodes.

    Leading axes of rhs stack independent right-hand sides, solved together;
    a stacked column equals its single solve bit for bit.
    """
    if not np.isfinite(b) or b < 0:
        raise ValueError(f"b must be a finite nonnegative real, got {b}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1:] != (mesh.n_nodes,):
        raise ValueError(
            f"right-hand side has shape {rhs.shape}, mesh expects "
            f"(..., {mesh.n_nodes}) nodal values"
        )
    if not np.isfinite(rhs).all():
        raise ValueError("non-finite right-hand side")
    out = np.zeros(rhs.shape)
    n = mesh.cells_per_axis
    if mesh.dimension == 1:
        # the interior is the slice 1:-1, solved straight into the output
        F = rhs[..., 1:-1].reshape(-1, n - 1)
        _solve_1d(n, float(b), F, out.reshape(-1, n + 1)[:, 1:-1])
        return out
    # the interior is the block [1:-1, 1:-1] of the (n+1)^2 node grid
    square = rhs.shape[:-1] + (n + 1, n + 1)
    S, lam0 = _sine_basis_2d(mesh)
    Z = S @ rhs.reshape(square)[..., 1:-1, 1:-1] @ S
    Z /= lam0 + b
    np.matmul(S @ Z, S, out=out.reshape(square)[..., 1:-1, 1:-1])
    return out


def lift_values(mesh: Mesh, r: np.ndarray):
    """(lift, norm): the zero-Dirichlet Poisson lift of stacked nodal residuals
    r, and the l2 norm of its cell gradient, the discrete H^-1 norm of r."""
    lift = helmholtz_solve_values(mesh, 0.0, r)
    return lift, np.sqrt(cell_sq_norm_values(mesh, gradient_values(mesh, lift)))


def helmholtz_solve(b: float, rhs: ScalarField) -> ScalarField:
    """Zero-Dirichlet Helmholtz solve: closed-form Green's function (1D), sine
    basis (2D).

    Parameters
    ----------
    b : nonnegative real
        Zero-order coefficient; b = 0 is the Poisson problem, still
        invertible under the Dirichlet conditions.
    rhs : ScalarField
        Right-hand side; boundary values are ignored.

    Returns
    -------
    ScalarField vanishing on every Dirichlet node, with residual
    ``max |(-lap_h + b) y - rhs|`` at rounding level on desk-scale grids.
    """
    return ScalarField(rhs.mesh, helmholtz_solve_values(rhs.mesh, b, rhs.values))


# -- gradient potentials (range-of-gradient tests and projections) ------------

# always empty: no potential is cached.  perfbench counts the entries of this
# cache and of _FACTOR_CACHE as factorizations, so the name stays
_KKT_CACHE: dict = {}


def gradient_potential_values(mesh: Mesh, v: np.ndarray, space: str = "h10") -> np.ndarray:
    """Flat nodal least-squares potential of cell vector values v, shape
    (..., n_nodes); leading axes of v (shape (..., n_cells, dim)) are batch
    axes, solved together.  See gradient_potential."""
    if space == "h10":
        return helmholtz_solve_values(mesh, 0.0, -divergence_weak_values(mesh, v))
    if space != "h1":
        raise ValueError(f"unknown potential space {space!r}")
    if mesh.dimension != 1:
        raise ValueError("the H1 potential exists on 1D meshes only")
    # representative convention: zero plain nodal mean
    pot = np.concatenate(
        [np.zeros(v.shape[:-2] + (1,)), mesh.h * np.cumsum(v[..., 0], axis=-1)], axis=-1
    )
    return pot - np.mean(pot, axis=-1, keepdims=True)


def gradient_potential(v: VectorField, space: str = "h10"):
    """Least-squares potential of a cell vector field.

    Finds the nodal y in H1_0 (``space='h10'``) or, on 1D meshes only, H1
    (``space='h1'``, zero-mean normalization) minimizing
    ``l2_norm(gradient(y) - v)``; one direct linear solve per call.

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


# -- serialization -------------------------------------------------------------


def field_to_csv(f, path) -> None:
    """Dump a field as CSV with header ``index,x[,y],value``, ordered by index."""
    if isinstance(f, VectorField):
        raise TypeError("field_to_csv writes scalar fields; dump components")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,x,value\n" if f.mesh.dimension == 1 else "index,x,y,value\n")
        for i, (xy, val) in enumerate(zip(f.mesh.node_coords().tolist(), f.values.tolist())):
            fh.write(",".join([str(i), *map(repr, xy), repr(val)]) + "\n")
