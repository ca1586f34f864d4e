"""Coefficient families, declared constants and sampled hypothesis checks."""

import re

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid
from qlcontrol.control_opt import ControlProblem
from qlcontrol.grid import ScalarField
from qlcontrol.relaxed_opt import RelaxedProblem
from qlcontrol.state_monotone import MonotoneStateProblem
from qlcontrol.state_quasilinear import QuasilinearStateProblem
from qlcontrol.state_variational import VariationalStateProblem


class TestConstruction:
    def test_identity_flux_clamps_strictness(self):
        cs = co.make_perturbed_linear(1.0)
        assert cs.c == 1.0
        assert cs.c < cs.C <= 1.0 + 1e-11

    def test_perturbed_linear_constants(self):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
        assert cs.c == 0.5
        assert cs.C == 1.5

    def test_perturbed_linear_rejects_lost_monotonicity(self):
        with pytest.raises(ValueError):
            co.make_perturbed_linear(1.0, co.sin_perturbation(1.0), 1.0)

    def test_perturbed_linear_rejects_nonzero_g0(self):
        with pytest.raises(ValueError):
            co.make_perturbed_linear(1.0, lambda Y: Y + 1.0, 0.5)

    def test_constants_order_enforced(self):
        with pytest.raises(ValueError):
            co.CoefficientSet(c=2.0, C=1.0)
        with pytest.raises(ValueError):
            co.CoefficientSet(M=0.0)
        with pytest.raises(ValueError):
            co.CoefficientSet(L=-1.0)

    def test_a_zero_point_enforced(self):
        with pytest.raises(ValueError):
            co.CoefficientSet(a=lambda Y: Y[:, 0] + 1.0)

    # a NaN constant or a(0) = NaN passed the checks written as `x < 0.0`
    # and `|a(0)| > 1e-14`, which a NaN never meets
    def test_nan_lipschitz_constant_rejected(self):
        with pytest.raises(ValueError, match="^L must be nonnegative, got nan$"):
            co.CoefficientSet(a=lambda Y: np.sin(Y[:, 0]), L=np.nan, **co.f_tanh())

    def test_nan_a_at_zero_rejected(self):
        with pytest.raises(ValueError, match="^a\\(0\\) must vanish, got nan$"):
            co.CoefficientSet(a=lambda Y: np.full(Y.shape[0], np.nan), L=1.0)

    # an infinite constant meets every range check; C = inf would make the
    # Zarantonello step c/C^2 = 0.0, on which a monotone solve stalls
    @pytest.mark.parametrize("constants, name", [
        ({"M": np.inf}, "M"), ({"L": np.inf}, "L"), ({"c": 0.5, "C": np.inf}, "C"),
    ], ids=["M", "L", "C"])
    def test_infinite_constant_rejected(self, constants, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            co.CoefficientSet(**constants)

    def test_infinite_growth_constant_rejected_on_merge(self):
        with pytest.raises(ValueError, match="^C must be finite, got inf$"):
            co.make_perturbed_linear(1.0).merged(C=np.inf, **co.f_linear())

    def test_nan_g_at_zero_rejected(self):
        with pytest.raises(ValueError, match="^g\\(0\\) must vanish$"):
            co.make_perturbed_linear(1.0, lambda Y: np.full(Y.shape, np.nan), 0.5)


class TestMonotonicity:
    def test_identity_equality_case(self):
        rep = co.check_monotonicity(co.make_perturbed_linear(1.0))
        assert rep.worst_margin >= -1e-12
        assert rep.passed

    def test_perturbed_linear_passes(self):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
        rep = co.check_monotonicity(cs)
        assert rep.passed

    def test_overdeclared_constant_fails(self):
        cs = co.make_perturbed_linear(1.0).merged(c=2.0, C=2.5)
        rep = co.check_monotonicity(cs)
        assert not rep.passed
        assert rep.worst_margin < -1.0  # about -|y1-y2|^2 at sampled pairs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_stability(self, seed):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
        assert co.check_monotonicity(cs, seed=seed).passed


class TestGrowth:
    def test_identity_passes(self):
        rep = co.check_growth(co.make_perturbed_linear(1.0))
        assert rep.passed

    def test_sin_a_passes(self):
        cs = co.make_perturbed_linear(1.0).merged(**co.a_sin_gradient(1.0))
        assert co.check_growth(cs).passed

    def test_quadratic_a_fails(self):
        cs = co.make_perturbed_linear(1.0).merged(a=lambda Y: Y[:, 0] ** 2, L=0.0)
        rep = co.check_growth(cs)
        assert not rep.passed

    def test_cosine_wells_linear_bound(self):
        parts = co.a_cosine_wells(0.4, 5.0)
        cs = co.make_perturbed_linear(1.0).merged(C=parts["L"], c=parts["L"] / 2, **parts)
        assert co.check_growth(cs).passed

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seed_stability(self, seed):
        cs = co.make_perturbed_linear(1.0).merged(**co.a_clamped_linear(1.0))
        assert co.check_growth(cs, seed=seed).passed

    def test_nan_part_fails(self):
        # the builtin min over the parts' minima dropped a NaN minimum that
        # came after a finite one: here the a part's, after A's two
        a = lambda Y: np.where(Y[:, 0] > 5.0, np.nan, 0.0)  # noqa: E731
        rep = co.check_growth(co.make_perturbed_linear(1.0).merged(a=a))
        assert np.isnan(rep.worst_margin)
        assert not rep.passed


class TestWGrowth:
    def test_quadratic_passes(self):
        cs = co.CoefficientSet(**co.w_quadratic())
        assert cs.c == 0.4 and cs.C == 0.6
        assert co.check_w_growth(cs).passed

    def test_bump_of_height_one_fails_small_C(self):
        # W = |y|^2/2 + 1 at y=0 exceeds C(|y|^2+1) with C = 0.6
        def W(Y, u):
            return 0.5 * np.sum(Y * Y, axis=1) + 1.0

        cs = co.CoefficientSet(W=W, c=0.4, C=0.6)
        rep = co.check_w_growth(cs)
        assert not rep.passed

    def test_quartic_unclamped_fails(self):
        def W(Y, u):
            return np.sum(Y * Y, axis=1) ** 2

        cs = co.CoefficientSet(W=W, c=0.4, C=10.0)
        assert not co.check_w_growth(cs).passed

    def test_quartic_clamped_passes_globally(self, monkeypatch):
        cs = co.CoefficientSet(**co.w_quartic_clamped())
        assert co.check_w_growth(cs).passed
        monkeypatch.setattr(co, "DEFAULT_RADIUS", 30.0)
        assert co.check_w_growth(cs).passed  # tangent extension

    def test_u_scaled_passes(self):
        cs = co.CoefficientSet(**co.w_u_scaled_quadratic())
        assert co.check_w_growth(cs).passed


class TestConvexity:
    def test_builtin_energies_strictly_convex(self):
        for parts in (co.w_quadratic(), co.w_quartic_clamped(),
                      co.w_u_scaled_quadratic()):
            cs = co.CoefficientSet(**parts)
            assert co.check_w_convexity(cs).passed

    def test_concave_bump_fails(self):
        def W(Y, u):
            return 0.5 * np.sum(Y * Y, axis=1) - 2.0 * np.cos(Y[:, 0])

        cs = co.CoefficientSet(W=W, c=0.1, C=5.0)
        assert not co.check_w_convexity(cs).passed


A_FACTORIES = {
    "zero": co.a_zero(),
    "sin": co.a_sin_gradient(1.0),
    "sin-negative": co.a_sin_gradient(-0.5),
    "clamped-linear": co.a_clamped_linear(2.0),
    "clamped-linear-unit": co.a_clamped_linear(),
    "sin-flat": co.a_sin_gradient(0.0),
    "cosine-wells": co.a_cosine_wells(0.4, 5.0),
    "cosine-wells-negative": co.a_cosine_wells(-0.3, 2.0),
}


class TestBand:
    """Each a-factory declares its band (inf a, sup a); a sampled check
    falsifies a wrong declaration, as the state problem's check does for L."""

    @pytest.mark.parametrize("name", list(A_FACTORIES))
    def test_declared_band_passes(self, name):
        report = co.check_band(co.CoefficientSet(**A_FACTORIES[name]))
        assert report.passed and report.hypothesis == "band"

    @pytest.mark.parametrize("band", [(0.0, 0.5), (0.0, 1.0), (-0.1, 0.8)],
                             ids=["narrow", "wide", "low"])
    def test_wrong_band_fails(self, band):
        # the cosine wells with kappa = 0.4 range over [0, 0.8]
        cs = co.CoefficientSet(**{**co.a_cosine_wells(0.4, 5.0), "band": band})
        assert not co.check_band(cs).passed

    @pytest.mark.parametrize("band", [(float("nan"), 1.0), (-1.0, float("inf")), (0.5, 1.0)])
    def test_bad_band_rejected(self, band):
        with pytest.raises(ValueError, match="band"):
            co.CoefficientSet(**{**co.a_sin_gradient(1.0), "band": band})

    def test_nan_sample_fails(self):
        cs = co.CoefficientSet(a=lambda Y: np.where(Y[:, 0] > 5.0, np.nan, 0.0), band=(0.0, 0.0))
        assert not co.check_band(cs).passed


def shifted(levels, d):
    """The level map of t -> a(t - d), from the level map of a."""
    return lambda s, t0: tuple(t + d for t in levels(s, t0 - d))


def next_but_one(levels):
    """A map that skips the nearest level point on each side of t0."""
    def skip(s, t0):
        t_lo, t_hi = levels(s, t0)
        return levels(s, t_lo - 1e-6)[0], levels(s, t_hi + 1e-6)[1]

    return skip


def no_points(s, t0):
    return np.full(t0.shape, np.nan), np.full(t0.shape, np.nan)


SIN, WELLS = co.a_sin_gradient(1.0), co.a_cosine_wells(0.4, 5.0)
WRONG_LEVELS = {
    "phase": {**SIN, "levels": shifted(SIN["levels"], 0.3)},
    "period": {**WELLS, "levels": co.a_cosine_wells(0.4, 4.0)["levels"]},
    "sine-for-wells": {**WELLS, "band": (-0.4, 0.4), "levels": co.a_sin_gradient(0.4)["levels"]},
    "next-but-one-sin": {**SIN, "levels": next_but_one(SIN["levels"])},
    "next-but-one-wells": {**WELLS, "levels": next_but_one(WELLS["levels"])},
    "no-points": {**SIN, "levels": no_points},
}


class TestLevels:
    """Each a-factory declares its level map in closed form; a sampled check
    falsifies a wrong one, as check_band does a wrong band."""

    @pytest.mark.parametrize("name", list(A_FACTORIES))
    def test_declared_levels_pass(self, name):
        report = co.check_levels(co.CoefficientSet(**A_FACTORIES[name]))
        assert report.passed and report.hypothesis == "levels"
        assert report.worst_margin >= -co.LEVEL_TOL

    @pytest.mark.parametrize("name", list(WRONG_LEVELS))
    def test_wrong_level_map_fails(self, name):
        assert not co.check_levels(co.CoefficientSet(**WRONG_LEVELS[name])).passed

    def test_points_are_nearest_and_ordered(self):
        # the cosine wells of the gap family at a well's own level: the
        # wells at 0 and 2 pi/5 from just above 0, with t_lo <= t0 <= t_hi
        levels = WELLS["levels"]
        t0 = np.array([1e-3, -1e-3, 0.0, 2.0 * np.pi / 5.0])
        t_lo, t_hi = levels(np.zeros(4), t0)
        assert np.array_equal(t_lo[:3], [0.0, -2.0 * np.pi / 5.0, 0.0])
        assert np.array_equal(t_hi[:3], [2.0 * np.pi / 5.0, 0.0, 0.0])
        assert np.all(t_lo <= t0) and np.all(t0 <= t_hi)

    def test_clamped_linear_half_lines(self):
        # kappa clamp(t, -1, 1) = kappa on [1, inf): t0 itself at or past 1,
        # else nothing below and 1 above, and = -kappa on (-inf, -1]; a
        # level s inside the band has the one point s/kappa, one outside none
        levels = co.a_clamped_linear(2.0)["levels"]
        t_lo, t_hi = levels(np.array([2.0, 2.0, -2.0, 1.0, 3.0]),
                            np.array([0.5, 1.5, 0.0, 0.0, 0.0]))
        assert np.array_equal(t_lo, [np.nan, 1.5, -1.0, np.nan, np.nan], equal_nan=True)
        assert np.array_equal(t_hi, [1.0, 1.5, np.nan, 0.5, np.nan], equal_nan=True)

    def test_missing_map_is_named(self):
        cs = co.CoefficientSet(**{**SIN, "levels": None})
        with pytest.raises(ValueError, match=r"declared level map \(levels\)"):
            co.check_levels(cs)


def _variational(**parts):
    mesh = grid.build_mesh(1, 8)
    cs = co.CoefficientSet(**parts)
    return VariationalStateProblem(mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes)))


def _bumpy_w():
    # W = |y|^2/2 + 2(1 - cos y_0): inside the growth bounds, not convex
    def W(Y, u):
        return 0.5 * np.sum(Y * Y, axis=1) + 2.0 * (1.0 - np.cos(Y[:, 0]))

    return {"W": W, "dW": lambda Y, u: Y, "c": 0.1, "C": 5.0}


def _relaxed(b=1.0, **parts):
    cs = co.CoefficientSet(**{"M": 1e-3, "c": 0.5, "C": 1.0, **co.f_tanh(),
                              **co.cost_tracking(0.05), **parts})
    state = QuasilinearStateProblem(grid.build_mesh(1, 16), cs, b=b)
    return RelaxedProblem(ControlProblem(state))


class TestRequire:
    def test_passed_report_raises_nothing(self):
        co.HypothesisReport("growth", 10, -1e-11).require("anything")

    @pytest.mark.parametrize("margin", [-1.0, np.nan])
    def test_failed_report_raises_naming_its_subject(self, margin):
        with pytest.raises(ValueError, match=f"^the subject fails sampling by {margin}$"):
            co.HypothesisReport("growth", 10, margin).require("the subject")

    # every construction-time gate, each on a falsified declaration
    @pytest.mark.parametrize("build, subject", [
        (lambda: _variational(**{**co.w_quadratic(), "C": 0.45}),
         "the declared growth (c, C) of W"),
        (lambda: _variational(**_bumpy_w()), "the midpoint convexity of W"),
        (lambda: MonotoneStateProblem(grid.build_mesh(1, 8), co.make_perturbed_linear(1.0).merged(
            c=2.0, C=2.5, **co.f_linear())), "the declared monotonicity constant c"),
        (lambda: MonotoneStateProblem(grid.build_mesh(1, 8), co.make_perturbed_linear(1.0).merged(
            c=0.5, C=0.6, **co.f_linear())), "the declared growth (c, C)"),
        (lambda: _relaxed(**{**co.a_sin_gradient(1.0), "band": (-0.5, 0.5)}),
         "the declared band (-0.5, 0.5) of a"),
        (lambda: _relaxed(b=2.0, **{**co.a_cosine_wells(0.4, 5.0), "C": 2.0,
                                    "a": co.a_cosine_wells(0.4, 4.0)["a"]}),
         "the declared level map of a"),
    ], ids=["w-growth", "w-convexity", "monotonicity", "growth", "band", "levels"])
    def test_falsified_declaration_raises_naming_its_subject(self, build, subject):
        with pytest.raises(ValueError, match="^" + re.escape(subject) + " fails sampling by "):
            build()


class TestBuiltinsRoundTrip:
    def test_make_perturbed_linear_passes_own_checks(self):
        for lg in (0.0, 0.25, 0.5, 0.9):
            g = co.sin_perturbation(lg) if lg else None
            cs = co.make_perturbed_linear(1.0, g, lg)
            assert co.check_monotonicity(cs).passed
            assert co.check_growth(cs).passed

    def test_f_maps_vectorized(self):
        u = np.linspace(-3, 3, 7)
        assert np.allclose(co.f_linear()["f"](u), u)
        assert np.allclose(co.f_tanh()["f"](u), np.tanh(u))
        assert np.allclose(co.f_clamp()["f"](u), np.clip(u, -1, 1))
        assert np.allclose(co.f_zero()["f"](u), 0.0)


class TestDerivatives:
    """Central-difference derivatives of the coefficients (adjoint gradient)."""

    def test_pointwise_derivative_matches_closed_form(self):
        u = np.linspace(-3, 3, 13)
        assert np.allclose(co.pointwise_derivative(np.tanh, u), 1.0 / np.cosh(u) ** 2,
                           rtol=0, atol=1e-9)
        F = co.cost_tracking(0.05)["F"]
        assert np.allclose(co.pointwise_derivative(F, u), 2.0 * (u - 0.05), rtol=0, atol=1e-8)

    def test_kinks_give_a_clarke_element(self):
        # clamp at +-1 and shortfall at its cap: the average of the one-sided
        # slopes, inside [0, 1] and [-1, 0]
        f = co.f_clamp()["f"]
        assert np.allclose(co.pointwise_derivative(f, np.array([-1.0, 1.0])), 0.5)
        F = co.cost_shortfall()["F"]
        assert np.allclose(co.pointwise_derivative(F, np.array([1.0])), -0.5)
        a = co.a_clamped_linear(2.0)["a"]
        assert np.allclose(co.cellwise_jacobian(a, np.array([[1.0], [-1.0]])), 1.0)

    def test_cellwise_jacobian_of_a_and_A(self):
        Y = np.random.default_rng(0).uniform(-2, 2, (7, 2))
        da = co.cellwise_jacobian(lambda Z: 1.5 * np.sin(Z[:, 1]), Y)
        assert da.shape == (7, 2)
        assert np.allclose(da, np.column_stack([np.zeros(7), 1.5 * np.cos(Y[:, 1])]),
                           rtol=0, atol=1e-9)
        A = lambda Z: np.column_stack([Z[:, 0] ** 2 * Z[:, 1], np.sin(Z[:, 1]) + Z[:, 0]])
        want = np.empty((7, 2, 2))
        want[:, 0, 0], want[:, 0, 1] = 2 * Y[:, 0] * Y[:, 1], Y[:, 0] ** 2
        want[:, 1, 0], want[:, 1, 1] = 1.0, np.cos(Y[:, 1])
        assert np.allclose(co.cellwise_jacobian(A, Y), want, rtol=0, atol=1e-8)
        # a 1D flux: one 1x1 block per cell
        A1 = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5).A
        y = Y[:, :1]
        assert np.allclose(co.cellwise_jacobian(A1, y)[:, 0, 0], 1.0 + 0.5 * np.cos(y[:, 0]),
                           rtol=0, atol=1e-9)
