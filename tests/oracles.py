"""Independent verifiers for the solver modules.

These implementations live outside the installed package and assemble their
own discrete operators from the definitions (nodal states, cell-centered
average gradients, trapezoid/midpoint quadrature); they never call the
package's solver routines, so agreement is evidence rather than tautology.
The only package symbols used are the plain data types and, for
``enumerate_controls_oracle``, the public cost evaluation it is meant to
check optimizers against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OracleResult:
    instance: str
    value: float
    tolerance: float
    passed: bool


class OracleInconclusive(RuntimeError):
    """Newton did not converge; the caller should skip, not fail."""


# -- independent discrete operators (1D and 2D, rebuilt from scratch) ----------


def _own_gradient(dim: int, n: int, y: np.ndarray) -> np.ndarray:
    h = 1.0 / n
    if dim == 1:
        return ((y[1:] - y[:-1]) / h)[:, None]
    m = n + 1
    y2 = y.reshape(m, m)
    gx = (y2[1:, :-1] - y2[:-1, :-1] + y2[1:, 1:] - y2[:-1, 1:]) / (2 * h)
    gy = (y2[:-1, 1:] - y2[:-1, :-1] + y2[1:, 1:] - y2[1:, :-1]) / (2 * h)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _own_div_weak(dim: int, n: int, q: np.ndarray) -> np.ndarray:
    h = 1.0 / n
    if dim == 1:
        out = np.zeros(n + 1)
        out[1:-1] = (q[1:, 0] - q[:-1, 0]) / h
        return out
    qx = q[:, 0].reshape(n, n)
    qy = q[:, 1].reshape(n, n)
    out = np.zeros((n + 1, n + 1))
    out[1:-1, 1:-1] = (
        qx[1:, :-1] + qx[1:, 1:] - qx[:-1, :-1] - qx[:-1, 1:]
        + qy[:-1, 1:] + qy[1:, 1:] - qy[:-1, :-1] - qy[1:, :-1]
    ) / (2 * h)
    return out.ravel()


def _own_cell_to_node(dim: int, n: int, c: np.ndarray) -> np.ndarray:
    if dim == 1:
        out = np.empty(n + 1)
        out[1:-1] = 0.5 * (c[:-1] + c[1:])
        out[0], out[-1] = c[0], c[-1]
        return out
    c2 = c.reshape(n, n)
    acc = np.zeros((n + 1, n + 1))
    cnt = np.zeros((n + 1, n + 1))
    for di in (0, 1):
        for dj in (0, 1):
            acc[di : n + di, dj : n + dj] += c2
            cnt[di : n + di, dj : n + dj] += 1.0
    return (acc / cnt).ravel()


def _boundary_mask(dim: int, n: int) -> np.ndarray:
    m = n + 1
    if dim == 1:
        mask = np.zeros(m, dtype=bool)
        mask[0] = mask[-1] = True
        return mask
    mask = np.zeros((m, m), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    return mask.ravel()


def helmholtz_matrix_2d(n: int, b: float) -> np.ndarray:
    """Dense -lap_h + b on the (n-1)^2 interior nodes of the unit square,
    flattened in C order, assembled from the stencil alone: centre
    2/h^2 + b, each of the four diagonal neighbours -1/(2 h^2)."""
    h2 = (1.0 / n) ** 2
    m = n - 1
    A = np.zeros((m, m, m, m))
    for i, j in itertools.product(range(m), repeat=2):
        A[i, j, i, j] = 2.0 / h2 + b
        for di, dj in itertools.product((-1, 1), repeat=2):
            if 0 <= i + di < m and 0 <= j + dj < m:
                A[i, j, i + di, j + dj] = -1.0 / (2.0 * h2)
    return A.reshape(m * m, m * m)


def helmholtz_1d(n: int, b: float, rhs: np.ndarray) -> np.ndarray:
    """Nodal solution of (-lap_h + b) y = rhs on the unit interval with n
    cells, zero at both ends, in np.longdouble: the stencil's tridiagonal
    system (diagonal 2/h^2 + b, neighbours -1/h^2) on the interior nodes,
    solved by the Thomas algorithm.  Leading axes of rhs are batch axes."""
    rhs = np.asarray(rhs, dtype=np.longdouble)
    h2 = np.longdouble(1) / (np.longdouble(n) * n)
    diag = 2 + np.longdouble(b) * h2
    m = n - 1
    # forward elimination of the scaled system tridiag(-1, diag, -1) y = h^2 rhs
    c = np.empty(m, dtype=np.longdouble)
    d = np.empty(rhs.shape[:-1] + (m,), dtype=np.longdouble)
    c[0] = -1 / diag
    d[..., 0] = h2 * rhs[..., 1] / diag
    for i in range(1, m):
        denom = diag + c[i - 1]
        c[i] = -1 / denom
        d[..., i] = (h2 * rhs[..., i + 1] + d[..., i - 1]) / denom
    y = np.zeros(rhs.shape, dtype=np.longdouble)
    y[..., m] = d[..., m - 1]
    for i in range(m - 2, -1, -1):
        y[..., i + 1] = d[..., i] - c[i] * y[..., i + 2]
    return y


def _newton(residual, y0: np.ndarray, tol: float = 1e-10, max_steps: int = 50):
    """Dense Newton with finite-difference Jacobian on the interior dofs."""
    y = y0.copy()
    for _ in range(max_steps):
        r = residual(y)
        if np.max(np.abs(r)) <= tol:
            return y
        m = y.size
        J = np.empty((m, m))
        for j in range(m):
            step = 1e-7 * (1.0 + abs(y[j]))
            yp = y.copy()
            yp[j] += step
            J[:, j] = (residual(yp) - r) / step
        try:
            delta = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise OracleInconclusive(f"singular Jacobian: {exc}") from exc
        y = y - delta
        if not np.all(np.isfinite(y)):
            raise OracleInconclusive("Newton iterate diverged")
    r = residual(y)
    if np.max(np.abs(r)) <= tol:
        return y
    raise OracleInconclusive(f"Newton stalled at residual {np.max(np.abs(r)):.3e}")


def newton_state_oracle(problem, u, warm_start=None) -> np.ndarray:
    """Solve the discrete state system by Newton on a directly assembled
    residual; dispatches on the problem type by attribute shape.

    Quasilinear problems solve ``-lap_h y + avg(a(grad y)) + b y = f(u)``;
    monotone problems solve ``-div_w(A(grad y)) = f(u)``.
    """
    mesh = problem.mesh
    dim, n = mesh.dimension, mesh.cells_per_axis
    mask = _boundary_mask(dim, n)
    interior = np.flatnonzero(~mask)
    fvals = np.asarray(problem.cs.f(u.values), dtype=float)

    if hasattr(problem, "b"):  # quasilinear
        b = problem.b
        a_fn = problem.cs.a

        def residual(yint):
            y = np.zeros((n + 1) ** dim)
            y[interior] = yint
            lap = _own_div_weak(dim, n, _own_gradient(dim, n, y))
            if a_fn is not None:
                an = _own_cell_to_node(
                    dim, n, np.asarray(a_fn(_own_gradient(dim, n, y)), dtype=float)
                )
            else:
                an = np.zeros_like(y)
            full = -lap + an + b * y - fvals
            return full[interior]

    else:  # monotone flux problem
        A_fn = problem.cs.A

        def residual(yint):
            y = np.zeros((n + 1) ** dim)
            y[interior] = yint
            div = _own_div_weak(dim, n, A_fn(_own_gradient(dim, n, y)))
            full = -div - fvals
            return full[interior]

    y0 = np.zeros(interior.size)
    if warm_start is not None:
        y0 = np.asarray(warm_start.values)[interior].copy()
    yint = _newton(residual, y0)
    out = np.zeros((n + 1) ** dim)
    out[interior] = yint
    return out


def coordinate_descent_energy_oracle(
    mesh, W, source_values, u_values, tol: float = 1e-10, sweeps: int = 20_000
) -> np.ndarray:
    """1D cyclic coordinate descent on the discrete inner energy.

    Assembles the energy from scratch: midpoint quadrature of W over cells
    (with node-averaged control) plus trapezoid quadrature of source*y.
    Moving one interior node only touches its two adjacent cells, so each
    scalar minimization works with that local energy.
    """
    assert mesh.dimension == 1
    n = mesh.cells_per_axis
    h = 1.0 / n
    ucell = 0.5 * (u_values[:-1] + u_values[1:])
    y = np.zeros(n + 1)

    def local_energy(ks, vals):
        gl = (vals - y[ks - 1]) / h
        gr = (y[ks + 1] - vals) / h
        wl = np.asarray(W(gl[:, None], ucell[ks - 1]), dtype=float)
        wr = np.asarray(W(gr[:, None], ucell[ks]), dtype=float)
        return h * (wl + wr) + h * source_values[ks] * vals

    # odd and even interior nodes decouple given the other color, so each
    # color is minimized as a batch of independent scalar problems
    colors = [np.arange(1, n, 2), np.arange(2, n, 2)]
    for _ in range(sweeps):
        moved = 0.0
        for ks in colors:
            if ks.size == 0:
                continue
            vals = y[ks].copy()
            for _ in range(3):
                step = 1e-7 * (1.0 + np.abs(vals))
                ep = local_energy(ks, vals + step)
                e0 = local_energy(ks, vals)
                em = local_energy(ks, vals - step)
                d1 = (ep - em) / (2.0 * step)
                d2 = (ep - 2.0 * e0 + em) / (step * step)
                delta = np.where(
                    d2 > 0.0, -d1 / np.where(d2 > 0.0, d2, 1.0), -np.sign(d1) * step
                )
                for _ in range(50):
                    bad = local_energy(ks, vals + delta) > e0
                    if not np.any(bad):
                        break
                    delta = np.where(bad, 0.5 * delta, delta)
                vals = vals + delta
                moved = max(moved, float(np.max(np.abs(delta))))
            y[ks] = vals
        if moved <= tol:
            break
    return y


def quadratic_program_oracle(cp, target):
    """Exact solve of the all-quadratic control instance.

    Valid only for the variational regime with identity-gradient W, linear
    control-to-source map and (possibly capped but inactive) quadratic
    tracking cost against the nodal ``target``; assembles the reduced normal
    equations with its own operators and solves by least squares.

    Returns (u_values, cost).
    """
    mesh = cp.mesh
    dim, n = mesh.dimension, mesh.cells_per_axis
    if not cp.regime == "variational":
        raise ValueError("oracle covers the variational quadratic instance")
    mask = _boundary_mask(dim, n)
    interior = np.flatnonzero(~mask)
    n_nodes = (n + 1) ** dim
    h = 1.0 / n

    # interior Laplacian assembled column by column through own operators
    m = interior.size
    L = np.empty((m, m))
    for j, nj in enumerate(interior):
        e = np.zeros(n_nodes)
        e[nj] = 1.0
        L[:, j] = -_own_div_weak(dim, n, _own_gradient(dim, n, e))[interior]
    Linv = np.linalg.inv(L)

    # state map: -lap y = -f(u) = -u  =>  y_int = -Linv u_int
    # cost: sum_k h w_k (y_k - t_k)^2 + M/2 sum_c h |grad u|^2
    wts = np.ones(n + 1)
    wts[0] = wts[-1] = 0.5
    if dim == 2:
        wts = np.outer(wts, wts).ravel()
    target = np.asarray(target, dtype=float)
    Mw = cp.M

    # quadratic form in all nodal u values
    S = np.zeros((n_nodes, n_nodes))
    S[np.ix_(interior, interior)] = -Linv
    # E(u) = (S u - t)^T D (S u - t) + (M/2) u^T R u  with D = h^dim diag(w)
    D = (h**dim) * np.diag(wts)
    # gradient-regularizer matrix R: u^T R u = h^dim sum_cells |grad u|^2
    n_cells = n**dim
    Gmat = np.zeros((n_cells * dim, n_nodes))
    for j in range(n_nodes):
        e = np.zeros(n_nodes)
        e[j] = 1.0
        Gmat[:, j] = _own_gradient(dim, n, e).T.ravel()
    R = (h**dim) * (Gmat.T @ Gmat)

    H = 2.0 * S.T @ D @ S + Mw * R
    rhs = 2.0 * S.T @ D @ target
    uopt, *_ = np.linalg.lstsq(H, rhs, rcond=None)
    yv = S @ uopt
    cost = float((yv - target) @ D @ (yv - target) + 0.5 * Mw * uopt @ R @ uopt)
    return uopt, cost


def enumerate_controls_oracle(cp, value_set, max_combos: int = 3**7):
    """Exhaustive minimum of the public cost over lattice-valued controls."""
    from qlcontrol.control_opt import evaluate_cost
    from qlcontrol.grid import ScalarField

    n_nodes = cp.mesh.n_nodes
    total = len(value_set) ** n_nodes
    if total > max_combos:
        raise ValueError(f"lattice too large: {total} > {max_combos}")
    best = np.inf
    best_u = None
    for combo in itertools.product(value_set, repeat=n_nodes):
        u = ScalarField(cp.mesh, np.array(combo, dtype=float))
        cost = evaluate_cost(cp, u)
        if cost < best:
            best = cost
            best_u = u
    return best_u, float(best)


# -- laminate realization (one cell, period and subcell at a time) -------------


def laminate_oracle(atoms, weights, pot, j: int, q: int) -> np.ndarray:
    """Nodal values of the j-th laminate of a 1D field with one or two atoms
    per cell, on the mesh refined j * q times.

    ``atoms`` and ``weights`` have shape (n, K), K <= 2, and ``pot`` holds
    the n + 1 base-node values of the barycenter potential.  In every period
    of q subcells the lower atom comes first; the upper atom's subcell count
    in period p is round(theta q (p + 1)) - round(theta q p), and both levels
    are shifted by the one constant that makes the cell's increment equal
    its barycenter.  The base nodes keep ``pot``; when no cell oscillates
    the result is ``pot`` on the base mesh.
    """
    n = len(pot) - 1
    r = j * q
    hf = 1.0 / (n * r)
    cells = []
    for i in range(n):
        if len(atoms[i]) == 1:
            lo = hi = float(atoms[i][0])
            theta = 0.0
        elif atoms[i][1] < atoms[i][0]:
            lo, hi, theta = float(atoms[i][1]), float(atoms[i][0]), float(weights[i][0])
        else:
            lo, hi, theta = float(atoms[i][0]), float(atoms[i][1]), float(weights[i][1])
        cells.append((lo, hi, theta))
    if all(abs(hi - lo) * min(theta, 1.0 - theta) < 1e-15 for lo, hi, theta in cells):
        return np.array(pot, dtype=float)
    slopes = []
    for lo, hi, theta in cells:
        m_hi = round(theta * r)
        delta = ((1.0 - theta) * lo + theta * hi) - ((r - m_hi) * lo + m_hi * hi) / r
        for p in range(j):
            c_hi = round(theta * q * (p + 1)) - round(theta * q * p)
            for s in range(q):
                slopes.append(hi + delta if s >= q - c_hi else lo + delta)
    u = [float(pot[0])]
    acc = 0.0
    for slope in slopes:
        acc += slope * hf
        u.append(acc + float(pot[0]))
    u = np.array(u)
    u[::r] = pot
    return u
