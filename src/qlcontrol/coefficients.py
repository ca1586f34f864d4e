"""Problem coefficients with declared constants and sampled hypothesis checks.

A :class:`CoefficientSet` bundles the functions a problem uses (flux A,
gradient nonlinearity a, control-to-source map f, inner energy W and its
gradient dW, cost integrand F) together with the structural constants the
theory needs (Lipschitz constant L of a, monotonicity/growth constants c < C,
Tychonov weight M).

The structural hypotheses are analytic statements; here they are checked by
seeded random sampling, which falsifies a wrong declaration but proves
nothing.  All function evaluations are vectorized over numpy arrays:
``A: (m,N)->(m,N)``, ``a: (m,N)->(m,)``, ``f,F: elementwise``,
``W: (m,N),(m,)->(m,)``, ``dW: (m,N),(m,)->(m,N)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CoefficientSet",
    "HypothesisReport",
    "make_perturbed_linear",
    "identity_flux",
    "check_monotonicity",
    "check_growth",
    "check_w_growth",
    "check_w_convexity",
    "a_zero",
    "a_sin_gradient",
    "a_clamped_linear",
    "a_cosine_wells",
    "f_linear",
    "f_tanh",
    "f_clamp",
    "w_quadratic",
    "w_quartic_clamped",
    "w_u_scaled_quadratic",
    "cost_tracking",
    "cost_shortfall",
]

DEFAULT_SAMPLES = 10_000
DEFAULT_RADIUS = 10.0
CHECK_TOLERANCE = 1e-10
_EPS_STRICT = 1e-12  # clamp so that 0 < c < C stays strict for linear fluxes


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of one sampled hypothesis check.

    ``worst_margin`` is the most negative slack seen across samples (slack
    >= 0 means the hypothesis held at that sample); the check passes when the
    worst violation stays within tolerance.
    """

    hypothesis: str
    samples: int
    worst_margin: float
    tolerance: float = CHECK_TOLERANCE

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance


@dataclass(frozen=True)
class CoefficientSet:
    """The problem's functions plus their declared constants.

    Every function is optional; a problem declares which it uses.  Constants:
    L (Lipschitz constant of a), 0 < c < C (monotonicity / growth), M > 0
    (Tychonov weight).
    """

    A: Optional[Callable] = None
    a: Optional[Callable] = None
    f: Optional[Callable] = None
    W: Optional[Callable] = None
    dW: Optional[Callable] = None
    F: Optional[Callable] = None
    L: float = 0.0
    c: Optional[float] = None
    C: Optional[float] = None
    M: Optional[float] = None
    w_grad_identity: bool = False  # True iff dW(y,u) == y exactly

    def __post_init__(self):
        if self.c is not None and self.C is not None:
            if not (0.0 < self.c < self.C):
                raise ValueError(
                    f"constants must satisfy 0 < c < C, got c={self.c}, C={self.C}"
                )
        if self.M is not None and not self.M > 0.0:
            raise ValueError(f"M must be positive, got {self.M}")
        if self.L < 0.0:
            raise ValueError(f"L must be nonnegative, got {self.L}")
        if self.a is not None:
            z = np.zeros((1, 2))
            a0val = float(np.asarray(self.a(z))[0])
            if abs(a0val) > 1e-14:
                raise ValueError(f"a(0) must vanish, got {a0val}")

    def merged(self, **updates) -> "CoefficientSet":
        """Copy with fields replaced."""
        return replace(self, **updates)


def apply_cellwise(fn: Callable, Y: np.ndarray, *cell_args: np.ndarray) -> np.ndarray:
    """Evaluate a per-cell coefficient (A, a, W or dW) on stacked cell values.

    ``Y`` has shape (..., n_cells, N) and each extra argument (..., n_cells);
    the leading axes are flattened into the sample axis the coefficient
    expects and restored on the result.
    """
    out = np.asarray(
        fn(Y.reshape(-1, Y.shape[-1]), *[c.reshape(-1) for c in cell_args]),
        dtype=float,
    )
    return out.reshape(Y.shape[:-1] + out.shape[1:])


# central-difference step relative to 1 + |x|: the cube root of machine
# epsilon balances the truncation and the rounding error
_DERIVATIVE_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def pointwise_derivative(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference derivative of an elementwise map (f or F) at every
    entry of x.  At a kink of a piecewise-linear map the chord's slope is a
    convex combination of the one-sided slopes: an element of Clarke's
    generalized derivative."""
    step = _DERIVATIVE_STEP * (1.0 + np.abs(x))
    return (np.asarray(fn(x + step), dtype=float)
            - np.asarray(fn(x - step), dtype=float)) / (2.0 * step)


def cellwise_jacobian(fn: Callable, Y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a per-cell coefficient at cell values Y
    of shape (n_cells, N): shape (n_cells, N) for a scalar a, (n_cells, N, N)
    with entry [c, i, j] = dA_i/dy_j for a flux A.  Kinks as in
    pointwise_derivative: an element of Clarke's generalized Jacobian."""
    N = Y.shape[-1]
    step = _DERIVATIVE_STEP * (1.0 + np.abs(Y))
    # all 2N shifted copies of Y in one evaluation; axis -2 is the direction
    shifts = step[:, :, None] * np.eye(N)
    V = apply_cellwise(fn, np.stack([Y[:, None] + shifts, Y[:, None] - shifts]))
    if V.ndim == 3:
        return (V[0] - V[1]) / (2.0 * step)
    return np.swapaxes((V[0] - V[1]) / (2.0 * step[:, :, None]), -1, -2)


# -- constructors for the built-in families -----------------------------------


def identity_flux() -> CoefficientSet:
    """A = identity; c = 1 and C clamped to c*(1+eps) to keep 0 < c < C."""
    return CoefficientSet(
        A=lambda Y: Y,
        c=1.0,
        C=1.0 * (1.0 + _EPS_STRICT),
    )


def make_perturbed_linear(
    a_coeff: float,
    g: Optional[Callable] = None,
    lipschitz_g: float = 0.0,
) -> CoefficientSet:
    """Flux A(y) = a0*y + g(y) for globally Lipschitz g with g(0) = 0.

    Strict monotonicity constant c = a0 - L_g and growth constant C = a0 + L_g
    are recorded; the construction is rejected when a0 - L_g <= 0 because the
    strict monotonicity is lost.
    """
    if not a_coeff > 0.0:
        raise ValueError(f"a0 must be positive, got {a_coeff}")
    if lipschitz_g < 0.0:
        raise ValueError(f"L_g must be nonnegative, got {lipschitz_g}")
    if not a_coeff - lipschitz_g > 0.0:
        raise ValueError(
            "strict monotonicity lost: need a0 - L_g > 0, got "
            f"a0={a_coeff}, L_g={lipschitz_g}"
        )
    if g is not None:
        z = np.zeros((1, 2))
        gz = np.asarray(g(z))
        if np.max(np.abs(gz)) > 1e-14:
            raise ValueError("g(0) must vanish")
    c = a_coeff - lipschitz_g
    C = a_coeff + lipschitz_g
    if not c < C:
        C = c * (1.0 + _EPS_STRICT)

    if g is None:
        A = lambda Y: a_coeff * Y
    else:
        A = lambda Y: a_coeff * Y + g(Y)
    return CoefficientSet(A=A, c=c, C=C)


def sin_perturbation(amplitude: float) -> Callable:
    """g(y) = amplitude * sin applied per component; Lipschitz with L_g = amplitude."""
    return lambda Y: amplitude * np.sin(Y)


def a_zero() -> dict:
    return {"a": lambda Y: np.zeros(Y.shape[0]), "L": 0.0}


def a_sin_gradient(kappa: float = 1.0, axis: int = 0) -> dict:
    """a(y) = kappa * sin(e . y) for the unit vector e of the given axis."""
    return {
        "a": lambda Y: kappa * np.sin(Y[:, axis]),
        "L": abs(kappa),
    }


def a_clamped_linear(kappa: float = 1.0, axis: int = 0) -> dict:
    """a(y) = kappa * clamp(e . y, -1, 1)."""
    return {
        "a": lambda Y: kappa * np.clip(Y[:, axis], -1.0, 1.0),
        "L": abs(kappa),
    }


def a_cosine_wells(kappa: float, omega: float, axis: int = 0) -> dict:
    """a(y) = kappa * (1 - cos(omega * e . y)): nonnegative with equally deep
    wells at multiples of 2*pi/omega; globally Lipschitz with L = kappa*omega,
    and |a(y)| <= L |y| since 1 - cos(s) <= |s|."""
    return {
        "a": lambda Y: kappa * (1.0 - np.cos(omega * Y[:, axis])),
        "L": abs(kappa * omega),
    }


def f_linear() -> dict:
    return {"f": lambda u: np.asarray(u, dtype=float)}


def f_zero() -> dict:
    return {"f": lambda u: np.zeros_like(np.asarray(u, dtype=float))}


def f_tanh() -> dict:
    return {"f": np.tanh}


def f_clamp() -> dict:
    return {"f": lambda u: np.clip(u, -1.0, 1.0)}


def w_quadratic() -> dict:
    """W(y, u) = |y|^2 / 2 with constants c = 0.4, C = 0.6."""
    return {
        "W": lambda Y, u: 0.5 * np.sum(Y * Y, axis=1),
        "dW": lambda Y, u: Y,
        "w_grad_identity": True,
        "c": 0.4,
        "C": 0.6,
    }


def w_u_scaled_quadratic(eps: float = 0.25) -> dict:
    """W(y, u) = (1 + eps*tanh u) |y|^2 / 2: genuine (y,u) coupling so the
    state responds to the control through the inner energy."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")

    def W(Y, u):
        return 0.5 * (1.0 + eps * np.tanh(u)) * np.sum(Y * Y, axis=1)

    def dW(Y, u):
        return (1.0 + eps * np.tanh(u))[:, None] * Y

    return {
        "W": W,
        "dW": dW,
        "c": 0.5 * (1.0 - eps) * 0.9,
        "C": 0.5 * (1.0 + eps) + 0.1,
    }


def w_quartic_clamped(radius: float = 10.0) -> dict:
    """W(y) = |y|^2/2 + q(|y|) with q quartic inside the radius and extended
    by its tangent line outside, keeping the quadratic growth bound while
    staying strictly convex and C^1."""
    R = float(radius)

    def _q(t):
        return np.where(t <= R, 0.25 * t**4, 0.25 * R**4 + R**3 * (t - R))

    def W(Y, u):
        t = np.sqrt(np.sum(Y * Y, axis=1))
        return 0.5 * t * t + _q(t)

    def dW(Y, u):
        t = np.sqrt(np.sum(Y * Y, axis=1))
        # q'(t)/t : t^2 inside the radius, R^3/t outside (0 at the origin)
        scale = np.where(t <= R, t * t, R**3 / np.maximum(t, R))
        return Y * (1.0 + scale)[:, None]

    # global constants: C from the discriminant condition of the tangent
    # extension (R=10 gives C=34); c=0.4 is safe since W >= |y|^2/2
    C = 0.5 + 0.25 * R * R
    disc_C = C
    while R**6 > 4.0 * (disc_C - 0.5) * (disc_C + 0.75 * R**4):
        disc_C *= 1.1
    return {
        "W": W,
        "dW": dW,
        "c": 0.4,
        "C": float(disc_C),
    }


def cost_tracking(target: float, cap: float = 1e6) -> dict:
    """F(y) = min((y - target)^2, cap): continuous, bounded, bounded below."""

    def F(y):
        return np.minimum((np.asarray(y, dtype=float) - target) ** 2, cap)

    return {"F": F}


def cost_tracking_field(target_values: np.ndarray, cap: float = 1e6) -> dict:
    """Tracking cost against a fixed nodal target field."""
    tv = np.asarray(target_values, dtype=float)

    def F(y):
        return np.minimum((np.asarray(y, dtype=float) - tv) ** 2, cap)

    return {"F": F}


def cost_zero() -> dict:
    """F = 0: the outer problem reduces to the Tychonov regularizer."""
    return {"F": lambda y: np.zeros_like(np.asarray(y, dtype=float))}


def cost_shortfall(cap: float = 1.0) -> dict:
    """F(y) = -min(y, cap): rewards large states up to the cap; bounded below
    by -cap."""

    def F(y):
        return -np.minimum(np.asarray(y, dtype=float), cap)

    return {"F": F}


# -- sampled hypothesis checks --------------------------------------------------


def _ball_samples(rng, n: int, dim: int, radius: float) -> np.ndarray:
    """Uniform samples in the dim-ball of the given radius."""
    d = rng.standard_normal((n, dim))
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    r = radius * rng.random(n) ** (1.0 / dim)
    return d * r[:, None]


def check_monotonicity(
    cs: CoefficientSet,
    samples: int = DEFAULT_SAMPLES,
    radius: float = DEFAULT_RADIUS,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Sampled check of (A(y1)-A(y2)).(y1-y2) >= c |y1-y2|^2."""
    if cs.A is None or cs.c is None:
        raise ValueError("check_monotonicity needs A and c")
    rng = np.random.default_rng(seed)
    Y1 = _ball_samples(rng, samples, dim, radius)
    Y2 = _ball_samples(rng, samples, dim, radius)
    d = Y1 - Y2
    slack = np.sum((cs.A(Y1) - cs.A(Y2)) * d, axis=1) - cs.c * np.sum(d * d, axis=1)
    return HypothesisReport("monotonicity", samples, float(np.min(slack)))


def check_growth(
    cs: CoefficientSet,
    samples: int = DEFAULT_SAMPLES,
    radius: float = DEFAULT_RADIUS,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Sampled check of |A(y)| <= C(|y|+1), A(y).y >= c(|y|^2-1) and, when a
    is present, |a(y)| <= C |y|."""
    if cs.C is None or cs.c is None:
        raise ValueError("check_growth needs c and C")
    rng = np.random.default_rng(seed)
    Y = _ball_samples(rng, samples, dim, radius)
    norms = np.linalg.norm(Y, axis=1)
    slacks = []
    if cs.A is not None:
        AY = cs.A(Y)
        slacks.append(cs.C * (norms + 1.0) - np.linalg.norm(AY, axis=1))
        slacks.append(np.sum(AY * Y, axis=1) - cs.c * (norms**2 - 1.0))
    if cs.a is not None:
        slacks.append(cs.C * norms - np.abs(cs.a(Y)))
    if not slacks:
        raise ValueError("check_growth needs A or a")
    return HypothesisReport("growth", samples, float(min(np.min(s) for s in slacks)))


def check_w_growth(
    cs: CoefficientSet,
    samples: int = DEFAULT_SAMPLES,
    radius: float = DEFAULT_RADIUS,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Sampled check of c(|y|^2 - 1) <= W(y, u) <= C(|y|^2 + 1)."""
    if cs.W is None or cs.c is None or cs.C is None:
        raise ValueError("check_w_growth needs W, c and C")
    rng = np.random.default_rng(seed)
    Y = _ball_samples(rng, samples, dim, radius)
    u = radius * (2.0 * rng.random(samples) - 1.0)
    Wv = cs.W(Y, u)
    n2 = np.sum(Y * Y, axis=1)
    lower = Wv - cs.c * (n2 - 1.0)
    upper = cs.C * (n2 + 1.0) - Wv
    return HypothesisReport(
        "w-growth", samples, float(min(np.min(lower), np.min(upper)))
    )


def check_w_convexity(
    cs: CoefficientSet,
    samples: int = 2000,
    radius: float = DEFAULT_RADIUS,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Midpoint-convexity spot check of W in its gradient argument."""
    if cs.W is None:
        raise ValueError("check_w_convexity needs W")
    rng = np.random.default_rng(seed)
    Y1 = _ball_samples(rng, samples, dim, radius)
    Y2 = _ball_samples(rng, samples, dim, radius)
    u = radius * (2.0 * rng.random(samples) - 1.0)
    mid = 0.5 * (Y1 + Y2)
    slack = 0.5 * (cs.W(Y1, u) + cs.W(Y2, u)) - cs.W(mid, u)
    return HypothesisReport("w-midpoint-convexity", samples, float(np.min(slack)))
