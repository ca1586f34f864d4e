"""Coefficient families, declared constants and sampled hypothesis checks."""

import numpy as np
import pytest

from qlcontrol import coefficients as co


class TestConstruction:
    def test_identity_flux_clamps_strictness(self):
        cs = co.identity_flux()
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


class TestMonotonicity:
    def test_identity_equality_case(self):
        rep = co.check_monotonicity(co.identity_flux())
        assert rep.worst_margin >= -1e-12
        assert rep.passed

    def test_perturbed_linear_passes(self):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
        rep = co.check_monotonicity(cs)
        assert rep.passed

    def test_overdeclared_constant_fails(self):
        cs = co.identity_flux().merged(c=2.0, C=2.5)
        rep = co.check_monotonicity(cs)
        assert not rep.passed
        assert rep.worst_margin < -1.0  # about -|y1-y2|^2 at sampled pairs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_stability(self, seed):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5)
        assert co.check_monotonicity(cs, seed=seed).passed


class TestGrowth:
    def test_identity_passes(self):
        rep = co.check_growth(co.identity_flux())
        assert rep.passed

    def test_sin_a_passes(self):
        cs = co.identity_flux().merged(**co.a_sin_gradient(1.0))
        assert co.check_growth(cs).passed

    def test_quadratic_a_fails(self):
        cs = co.identity_flux().merged(a=lambda Y: Y[:, 0] ** 2, L=0.0)
        rep = co.check_growth(cs, radius=10.0)
        assert not rep.passed

    def test_cosine_wells_linear_bound(self):
        parts = co.a_cosine_wells(0.4, 5.0)
        cs = co.identity_flux().merged(C=parts["L"], c=parts["L"] / 2, **parts)
        assert co.check_growth(cs).passed

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seed_stability(self, seed):
        cs = co.identity_flux().merged(**co.a_clamped_linear(1.0))
        assert co.check_growth(cs, seed=seed).passed


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
        assert not co.check_w_growth(cs, radius=10.0).passed

    def test_quartic_clamped_passes_globally(self):
        cs = co.CoefficientSet(**co.w_quartic_clamped())
        assert co.check_w_growth(cs, radius=10.0).passed
        assert co.check_w_growth(cs, radius=30.0).passed  # tangent extension

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
        F = co.cost_shortfall(1.0)["F"]
        assert np.allclose(co.pointwise_derivative(F, np.array([1.0])), -0.5)
        a = co.a_clamped_linear(2.0)["a"]
        assert np.allclose(co.cellwise_jacobian(a, np.array([[1.0], [-1.0]])), 1.0)

    def test_cellwise_jacobian_of_a_and_A(self):
        Y = np.random.default_rng(0).uniform(-2, 2, (7, 2))
        da = co.cellwise_jacobian(co.a_sin_gradient(1.5, axis=1)["a"], Y)
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
