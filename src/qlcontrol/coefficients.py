"""Problem coefficients with declared constants and sampled hypothesis checks.

A :class:`CoefficientSet` bundles the functions a problem uses (flux A,
gradient nonlinearity a, control-to-source map f, inner energy W and its
gradient dW, cost integrand F) together with the structural constants the
theory needs (Lipschitz constant L of a, its band [inf a, sup a] and its
level map, the kinks of f, monotonicity/growth constants c < C, Tychonov
weight M).

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

from . import grid

__all__ = [
    "CoefficientSet",
    "HypothesisReport",
    "make_perturbed_linear",
    "check_monotonicity",
    "check_growth",
    "check_w_growth",
    "check_w_convexity",
    "check_band",
    "check_levels",
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
CONSTRUCTION_SAMPLES = 2000  # samples of each check a problem runs when built
DEFAULT_RADIUS = 10.0  # radius of the region every sampled check draws from
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

    def require(self, subject: str) -> None:
        """Raise ValueError "<subject> fails sampling by <worst_margin>"
        unless the check passed."""
        if not self.passed:
            raise ValueError(f"{subject} fails sampling by {self.worst_margin}")


@dataclass(frozen=True)
class CoefficientSet:
    """The problem's functions plus their declared constants.

    A problem requires the functions it uses; the rest stay None.  A
    quasilinear problem requires a, a_zero() when it has none.  Constants:
    L (Lipschitz constant of a), band (inf a, sup a, the range of the
    relaxed moment of a), levels (the level map of a, levels(s, t0) ->
    (t_lo, t_hi): per entry the nearest t at or below t0 and at or above it
    with a(t e) = s, NaN on a side without one), f_kinks (the points where f
    is not differentiable), 0 < c < C (monotonicity / growth), M > 0
    (Tychonov weight); c, C, L and M are finite.  Each a-factory declares
    L, band and levels, and each f-factory f_kinks, so merging a factory
    replaces them all.
    """

    A: Optional[Callable] = None
    a: Optional[Callable] = None
    f: Optional[Callable] = None
    W: Optional[Callable] = None
    dW: Optional[Callable] = None
    F: Optional[Callable] = None
    L: float = 0.0
    band: Optional[tuple] = None
    levels: Optional[Callable] = None
    f_kinks: tuple = ()
    c: Optional[float] = None
    C: Optional[float] = None
    M: Optional[float] = None

    def __post_init__(self):
        # each check is written so that a NaN fails it
        if self.c is not None and self.C is not None:
            if not (0.0 < self.c < self.C):
                raise ValueError(
                    f"constants must satisfy 0 < c < C, got c={self.c}, C={self.C}"
                )
        if self.M is not None and not self.M > 0.0:
            raise ValueError(f"M must be positive, got {self.M}")
        if not self.L >= 0.0:
            raise ValueError(f"L must be nonnegative, got {self.L}")
        for name in ("c", "C", "L", "M"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.band is not None:
            lo, hi = self.band
            # a(0) = 0 lies in the band
            if not (-np.inf < lo <= 0.0 <= hi < np.inf):
                raise ValueError(f"band must be finite with lo <= 0 <= hi, got {self.band}")
        if self.a is not None:
            z = np.zeros((1, 2))
            a0val = float(np.asarray(self.a(z))[0])
            if not abs(a0val) <= 1e-14:
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
    generalized derivative, which need not give a descent direction.  The
    adjoint gradients therefore take one_sided_derivatives at the declared
    kinks of f (control_opt._source_gradient)."""
    step = _DERIVATIVE_STEP * (1.0 + np.abs(x))
    return (np.asarray(fn(x + step), dtype=float)
            - np.asarray(fn(x - step), dtype=float)) / (2.0 * step)


def one_sided_derivatives(fn: Callable, x: np.ndarray) -> tuple:
    """(left, right) slopes of an elementwise map at every entry of x: the
    backward and forward differences at pointwise_derivative's step.  At a
    kink of a piecewise-linear map they are its one-sided slopes (up to
    rounding)."""
    step = _DERIVATIVE_STEP * (1.0 + np.abs(x))
    fx = np.asarray(fn(x), dtype=float)
    return ((fx - np.asarray(fn(x - step), dtype=float)) / step,
            (np.asarray(fn(x + step), dtype=float) - fx) / step)


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


def make_perturbed_linear(
    a_coeff: float,
    g: Optional[Callable] = None,
    lipschitz_g: float = 0.0,
) -> CoefficientSet:
    """Flux A(y) = a0*y + g(y) for globally Lipschitz g with g(0) = 0.

    Strict monotonicity constant c = a0 - L_g and growth constant C = a0 + L_g
    are recorded; the construction is rejected when a0 - L_g <= 0 because the
    strict monotonicity is lost.  At L_g = 0, C is clamped to c*(1+eps) to
    keep 0 < c < C: ``make_perturbed_linear(1.0)`` is the identity flux.
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
        if not np.max(np.abs(gz)) <= 1e-14:
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


def _nearest_levels(t0: np.ndarray, branches, period: Optional[float] = None) -> tuple:
    """(t_lo, t_hi) per entry of t0: the nearest point at or below t0 and at
    or above it among the points b + k * period (any integer k; b alone when
    period is None) of the branches b, NaN on a side without one (a branch
    is NaN where it has no point).  Clamped so that t_lo <= t0 <= t_hi holds
    exactly despite rounding."""
    t_lo, t_hi = np.full(t0.shape, -np.inf), np.full(t0.shape, np.inf)
    for b in branches:
        if period is None:
            below, above = np.where(b <= t0, b, -np.inf), np.where(b >= t0, b, np.inf)
        else:
            below = b + np.floor((t0 - b) / period) * period
            above = b + np.ceil((t0 - b) / period) * period
        # fmax and fmin skip a branch's NaN
        t_lo, t_hi = np.fmax(t_lo, below), np.fmin(t_hi, above)
    return (np.where(t_lo == -np.inf, np.nan, np.minimum(t_lo, t0)),
            np.where(t_hi == np.inf, np.nan, np.maximum(t_hi, t0)))


def _inverse(fn: Callable, q: np.ndarray) -> np.ndarray:
    """fn (np.arcsin or np.arccos) of q, NaN where |q| > 1."""
    return np.where(np.abs(q) <= 1.0, fn(np.clip(q, -1.0, 1.0)), np.nan)


def _zero_levels(s, t0):
    """Level map of a = 0: every t is a level point of s = 0, none of s != 0."""
    t = np.where(s == 0.0, t0, np.nan)
    return t, t


def a_zero() -> dict:
    return {"a": lambda Y: np.zeros(Y.shape[0]), "L": 0.0, "band": (0.0, 0.0),
            "levels": _zero_levels}


def a_sin_gradient(kappa: float = 1.0) -> dict:
    """a(y) = kappa * sin(y_1), y_1 the first gradient component.  Level
    map: the branches arcsin(s/kappa) and pi - arcsin(s/kappa), period
    2 pi."""

    def levels(s, t0):
        phase = _inverse(np.arcsin, s / kappa)
        return _nearest_levels(t0, (phase, np.pi - phase), 2.0 * np.pi)

    return {
        "a": lambda Y: kappa * np.sin(Y[:, 0]),
        "L": abs(kappa),
        "band": (-abs(kappa), abs(kappa)),
        "levels": levels if kappa else _zero_levels,
    }


def a_clamped_linear(kappa: float = 1.0) -> dict:
    """a(y) = kappa * clamp(y_1, -1, 1).  Level map: the single point
    s/kappa inside the band, and at a band end the half-line beyond +-1,
    whose nearest point to t0 is t0 clamped onto it."""

    def levels(s, t0):
        q = s / kappa
        ends = np.clip(t0, np.where(q > -1.0, q, -np.inf), np.where(q < 1.0, q, np.inf))
        return _nearest_levels(t0, (np.where(np.abs(q) <= 1.0, ends, np.nan),))

    return {
        "a": lambda Y: kappa * np.clip(Y[:, 0], -1.0, 1.0),
        "L": abs(kappa),
        "band": (-abs(kappa), abs(kappa)),
        "levels": levels if kappa else _zero_levels,
    }


def a_cosine_wells(kappa: float, omega: float) -> dict:
    """a(y) = kappa * (1 - cos(omega * y_1)): nonnegative with equally deep
    wells at multiples of 2*pi/omega; globally Lipschitz with L = kappa*omega,
    and |a(y)| <= L |y| since 1 - cos(s) <= |s|.  Level map: the branches
    +-arccos(1 - s/kappa)/omega, period 2 pi/omega."""
    w = abs(omega)

    def levels(s, t0):
        phase = _inverse(np.arccos, 1.0 - s / kappa) / w
        return _nearest_levels(t0, (-phase, phase), 2.0 * np.pi / w)

    return {
        "a": lambda Y: kappa * (1.0 - np.cos(omega * Y[:, 0])),
        "L": abs(kappa * omega),
        "band": (min(0.0, 2.0 * kappa), max(0.0, 2.0 * kappa)),
        "levels": levels if kappa * omega else _zero_levels,
    }


# Each f-factory declares the kinks of its f, as each a-factory declares
# its band, so merging one f over another replaces both.
def f_linear() -> dict:
    return {"f": lambda u: np.asarray(u, dtype=float), "f_kinks": ()}


def f_zero() -> dict:
    return {"f": lambda u: np.zeros_like(np.asarray(u, dtype=float)), "f_kinks": ()}


def f_tanh() -> dict:
    return {"f": np.tanh, "f_kinks": ()}


def f_clamp() -> dict:
    """f(u) = clamp(u, -1, 1), with kinks at -1 and 1.  At a control value on
    a kink the adjoint gradients use its one-sided slopes (1 and 0 at u = 1),
    so a point such as u = 1 with a negative adjoint, where neither side
    descends, is B-stationary and stops the descent on "gradient"."""
    return {"f": lambda u: np.clip(u, -1.0, 1.0), "f_kinks": (-1.0, 1.0)}


def w_quadratic() -> dict:
    """W(y, u) = |y|^2 / 2 with constants c = 0.4, C = 0.6."""
    return {
        "W": lambda Y, u: 0.5 * np.sum(Y * Y, axis=1),
        "dW": lambda Y, u: Y,
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


def w_quartic_clamped() -> dict:
    """W(y) = |y|^2/2 + q(|y|) with q quartic inside the radius R = 10 and
    extended by its tangent line outside, keeping the quadratic growth bound
    while staying strictly convex and C^1."""
    R = 10.0

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


def cost_tracking(target) -> dict:
    """F(y) = min((y - target)^2, 1e6): continuous, bounded, bounded below.
    The target is a scalar or a fixed nodal field."""
    target = np.asarray(target, dtype=float)

    def F(y):
        return np.minimum((np.asarray(y, dtype=float) - target) ** 2, 1e6)

    return {"F": F}


def cost_zero() -> dict:
    """F = 0: the outer problem reduces to the Tychonov regularizer."""
    return {"F": lambda y: np.zeros_like(np.asarray(y, dtype=float))}


def cost_shortfall() -> dict:
    """F(y) = -min(y, 1): rewards large states up to the cap 1; bounded below
    by -1."""

    def F(y):
        return -np.minimum(np.asarray(y, dtype=float), 1.0)

    return {"F": F}


# -- sampled hypothesis checks --------------------------------------------------


def _sampling_rng(samples, seed) -> np.random.Generator:
    """Generator of a sampled check, once its sample count and seed pass
    grid.check_count."""
    grid.check_count("samples", samples, 1)
    grid.check_count("seed", seed, 0)
    return np.random.default_rng(seed)


def _ball_samples(rng, n: int, dim: int) -> np.ndarray:
    """Uniform samples in the dim-ball of radius DEFAULT_RADIUS."""
    d = rng.standard_normal((n, dim))
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    r = DEFAULT_RADIUS * rng.random(n) ** (1.0 / dim)
    return d * r[:, None]


def check_monotonicity(
    cs: CoefficientSet,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Sampled check of (A(y1)-A(y2)).(y1-y2) >= c |y1-y2|^2."""
    if cs.A is None or cs.c is None:
        raise ValueError("check_monotonicity needs A and c")
    rng = _sampling_rng(samples, seed)
    Y1 = _ball_samples(rng, samples, dim)
    Y2 = _ball_samples(rng, samples, dim)
    d = Y1 - Y2
    slack = np.sum((cs.A(Y1) - cs.A(Y2)) * d, axis=1) - cs.c * np.sum(d * d, axis=1)
    return HypothesisReport("monotonicity", samples, float(np.min(slack)))


def check_growth(
    cs: CoefficientSet,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Sampled check of |A(y)| <= C(|y|+1), A(y).y >= c(|y|^2-1) and, when a
    is present, |a(y)| <= C |y|."""
    if cs.C is None or cs.c is None:
        raise ValueError("check_growth needs c and C")
    rng = _sampling_rng(samples, seed)
    Y = _ball_samples(rng, samples, dim)
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
    # np.min, unlike the builtin min, keeps a NaN of any part
    return HypothesisReport("growth", samples, float(np.min(slacks)))


def check_w_growth(
    cs: CoefficientSet,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Sampled check of c(|y|^2 - 1) <= W(y, u) <= C(|y|^2 + 1)."""
    if cs.W is None or cs.c is None or cs.C is None:
        raise ValueError("check_w_growth needs W, c and C")
    rng = _sampling_rng(samples, seed)
    Y = _ball_samples(rng, samples, dim)
    u = DEFAULT_RADIUS * (2.0 * rng.random(samples) - 1.0)
    Wv = cs.W(Y, u)
    n2 = np.sum(Y * Y, axis=1)
    lower = Wv - cs.c * (n2 - 1.0)
    upper = cs.C * (n2 + 1.0) - Wv
    return HypothesisReport(
        "w-growth", samples, float(min(np.min(lower), np.min(upper)))
    )


def check_w_convexity(
    cs: CoefficientSet,
    samples: int = CONSTRUCTION_SAMPLES,
    seed: int = 0,
    dim: int = 2,
) -> HypothesisReport:
    """Midpoint-convexity spot check of W in its gradient argument."""
    if cs.W is None:
        raise ValueError("check_w_convexity needs W")
    rng = _sampling_rng(samples, seed)
    Y1 = _ball_samples(rng, samples, dim)
    Y2 = _ball_samples(rng, samples, dim)
    u = DEFAULT_RADIUS * (2.0 * rng.random(samples) - 1.0)
    mid = 0.5 * (Y1 + Y2)
    slack = 0.5 * (cs.W(Y1, u) + cs.W(Y2, u)) - cs.W(mid, u)
    return HypothesisReport("w-midpoint-convexity", samples, float(np.min(slack)))


def check_band(cs: CoefficientSet) -> HypothesisReport:
    """Sampled check of the declared band (lo, hi) = (inf a, sup a) of a
    scalar-gradient a, on a uniform grid of DEFAULT_SAMPLES points of
    [-R, R], R = DEFAULT_RADIUS, with spacing d: every sample lies in the
    band, and each end is within L d of a sample (a lies within L d / 2 of
    its extrema there when they are attained on the grid's range).  A band
    too narrow fails the first test, one too wide the second."""
    if cs.a is None or cs.band is None:
        raise ValueError("check_band needs a and its band")
    lo, hi = cs.band
    samples, radius = DEFAULT_SAMPLES, DEFAULT_RADIUS
    t = np.linspace(-radius, radius, samples)
    at = np.asarray(cs.a(t[:, None]), dtype=float)
    reach = cs.L * (t[1] - t[0])
    slack = [np.min(at) - lo, hi - np.max(at), lo + reach - np.min(at), np.max(at) - (hi - reach)]
    # np.min keeps a NaN sample
    return HypothesisReport("band", samples, float(np.min(slack)))


LEVEL_TOL = 1e-12  # largest |a(t) - s| at a declared level point
_LEVEL_PROBE = 1e-3  # a probe's share of the way from a level point to t0
_LEVEL_CHECKS = 256  # levels s sampled by check_levels
_LEVEL_SEED = 0  # seed of check_levels' t0


def check_levels(cs: CoefficientSet) -> HypothesisReport:
    """Sampled check of the declared level map of a scalar-gradient a, at
    _LEVEL_CHECKS levels s across the band (both ends included) and seeded t0
    in [-R, R], R = DEFAULT_RADIUS: (t_lo, t_hi) = levels(s, t0) has
    t_lo <= t0 <= t_hi, |a - s| <= LEVEL_TOL at each point, a point on each
    side where a - s changes sign between t0 and t0 -+ R, and the same pair
    again at a probe just inside (t_lo, t_hi) from either end.  A wrong
    phase or period fails on |a - s|; a map that skips a level point gives
    the skipped one at a probe."""
    if cs.a is None or cs.band is None or cs.levels is None:
        raise ValueError("check_levels needs a, its band and its declared level map (levels)")
    samples, radius = _LEVEL_CHECKS, DEFAULT_RADIUS
    s = np.linspace(*cs.band, samples)
    t0 = radius * (2.0 * np.random.default_rng(_LEVEL_SEED).random(samples) - 1.0)
    pair = np.array(cs.levels(s, t0))  # rows t_lo, t_hi
    found = ~np.isnan(pair)
    # a - s at the points found (t0 elsewhere), at t0 and at t0 -+ radius, in one call
    t = np.concatenate([np.where(found, pair, t0), [t0, t0 - radius, t0 + radius]])
    gap = np.asarray(cs.a(t.reshape(-1, 1)), dtype=float).reshape(t.shape) - s
    probe = t[:2] + _LEVEL_PROBE * (t0 - t[:2])
    # again[k, j] = levels(s, probe j)[k]
    again = np.array(cs.levels(np.tile(s, 2), probe.reshape(-1))).reshape(2, 2, samples)
    slack = [
        np.where((pair[0] > t0) | (pair[1] < t0), -np.inf, 0.0),
        np.where(found, -np.abs(gap[:2]), 0.0),
        np.where(~found & (gap[2] * gap[3:] < 0.0), -np.inf, 0.0),
        # NaN where exactly one of the two is NaN
        np.where(np.isnan(again) & ~found[:, None], 0.0, -np.abs(again - pair[:, None])),
    ]
    # np.min keeps a NaN sample
    return HypothesisReport("levels", samples,
                            float(np.min(np.concatenate([x.reshape(-1) for x in slack]))), LEVEL_TOL)
