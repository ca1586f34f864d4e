"""Manufactured-solution convergence of the nonlinear state solvers.

The sources are assembled from smooth exact solutions of the continuum
equations, so these checks exercise the full discretization (operators,
cell averaging, quadrature) independently of any discrete oracle.  The gap
family's certificate and the oscillation demo are checked the same way:
by their observed order as h -> 0 and as j -> infinity.
"""

import dataclasses

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid, instances
from qlcontrol.control_opt import evaluate_cost, minimizing_sequence_demo
from qlcontrol.grid import ScalarField
from qlcontrol.relaxed_opt import certify_gap
from qlcontrol.state_monotone import MonotoneStateProblem, solve_monotone
from qlcontrol.state_quasilinear import QuasilinearStateProblem, solve_quasilinear
from qlcontrol.young_measure import potential, realize_sequence, uniform_two_atom

from oracles import observed_order

B = 1.0


def exact_1d(x):
    return np.sin(np.pi * x)


class TestQuasilinear1D:
    # -y'' + sin(y') + b y = f with y = sin(pi x)
    def test_second_order(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_linear()})

        def source(x):
            return (
                np.pi**2 * np.sin(np.pi * x)
                + np.sin(np.pi * np.cos(np.pi * x))
                + B * np.sin(np.pi * x)
            )

        errs = []
        for n in (16, 32, 64):
            mesh = grid.build_mesh(1, n)
            x = mesh.node_coords()[:, 0]
            p = QuasilinearStateProblem(mesh, cs, b=B)
            y, _ = solve_quasilinear(p, ScalarField(mesh, source(x)), tol=1e-12)
            errs.append(float(np.max(np.abs(y.values - exact_1d(x)))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5
        assert errs[-1] <= 3e-4


class TestMonotone1D:
    # -(y' + sin(y')/2)' = f with y = sin(pi x)
    def test_second_order(self):
        cs = co.make_perturbed_linear(1.0, co.sin_perturbation(0.5), 0.5).merged(
            **co.f_linear()
        )

        def source(x):
            return (
                np.pi**2
                * np.sin(np.pi * x)
                * (1.0 + 0.5 * np.cos(np.pi * np.cos(np.pi * x)))
            )

        errs = []
        for n in (16, 32, 64):
            mesh = grid.build_mesh(1, n)
            x = mesh.node_coords()[:, 0]
            p = MonotoneStateProblem(mesh, cs)
            y, _ = solve_monotone(p, ScalarField(mesh, source(x)), tol=1e-11)
            errs.append(float(np.max(np.abs(y.values - exact_1d(x)))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestQuasilinear2D:
    # -lap y + sin(dy/dx) + b y = f with y = sin(pi x) sin(pi y)
    def test_second_order(self):
        cs = co.CoefficientSet(**{**co.a_sin_gradient(1.0), **co.f_linear()})

        def exact(xy):
            return np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])

        def source(xy):
            s = exact(xy)
            return (
                2.0 * np.pi**2 * s
                + np.sin(np.pi * np.cos(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]))
                + B * s
            )

        errs = []
        for n in (8, 16, 32):
            mesh = grid.build_mesh(2, n)
            xy = mesh.node_coords()
            p = QuasilinearStateProblem(mesh, cs, b=B)
            y, _ = solve_quasilinear(p, ScalarField(mesh, source(xy)), tol=1e-12)
            errs.append(float(np.max(np.abs(y.values - exact(xy)))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.3 <= coarse / fine <= 4.7


class TestGapFamilyAsHShrinks:
    # from the designed init both runs stop at iteration 1, on the kink of f,
    # so relaxed and best_classical do not depend on the optimizer's path; a
    # gap that shrank with h would be an artifact of the mesh
    def test_second_order_and_gap_above_margin(self):
        ns = (32, 64, 128, 256)
        values = {"relaxed": [], "best_classical": [], "gap": []}
        for n in ns:
            rp, designed = instances.build_relaxed_problem(
                "gap-family-1d", grid.build_mesh(1, n))
            rep = certify_gap(rp, samples=3, seed=0, designed_init=designed)
            gap = rep.best_classical - rep.relaxed
            delta = instances.designed_margin(rp, designed)
            assert gap > delta, f"n = {n}: gap {gap} <= delta* {delta}"
            for name, v in (("relaxed", rep.relaxed),
                            ("best_classical", rep.best_classical), ("gap", gap)):
                values[name].append(v)
        for name, vals in values.items():
            for i in range(len(ns) - 2):
                order, limit = observed_order(*vals[i : i + 3])
                assert 1.8 <= order <= 2.2, (
                    f"{name} at n = {ns[i]}, {ns[i + 1]}, {ns[i + 2]}: order "
                    f"{order:.4f}, Richardson limit {limit:.10g}")


class TestOscillationDemoLimit:
    # u_j -> u_bar uniformly while (M/2) int |u_j'|^2 tends to the measure's
    # second moment, so J(u_j) -> J(u_bar) + (M/2) int Var(mu_x) dx, with
    # first-order error in 1/j; J is taken on each realization mesh, so that
    # the base mesh's discretization error does not enter
    def test_first_order_in_one_over_j(self):
        self._check_rate(instances.build_relaxed_problem("gap-family-1d")[0].control)

    def test_first_order_for_unequal_weights_and_atoms(self):
        # Var = 1.6875, so the offset is not the trivial M/2
        cp = instances.build_relaxed_problem("gap-family-1d")[0].control
        mu = uniform_two_atom(cp.mesh, -0.5, 2.5, 0.25)
        self._check_rate(dataclasses.replace(cp, demo_measure=mu))

    @staticmethod
    def _check_rate(cp):
        mu = cp.demo_measure
        atoms, weights = mu.atoms[..., 0], mu.weights
        var = np.sum(weights * atoms**2, axis=1) - np.sum(weights * atoms, axis=1) ** 2
        offset = 0.5 * cp.cs.M * cp.mesh.cell_volume * np.sum(var)
        ubar = potential(mu)
        js = (2, 4, 8, 16)
        trace = minimizing_sequence_demo(cp, js)
        D = []
        for j, cost in zip(js, trace):
            fine = realize_sequence(mu, j).mesh
            u = np.interp(fine.node_coords()[:, 0], cp.mesh.node_coords()[:, 0], ubar.values)
            D.append(cost - evaluate_cost(cp.with_mesh(fine), ScalarField(fine, u)) - offset)
        for j, d, d_next in zip(js, D, D[1:]):
            assert 1.9 <= d / d_next <= 2.1, f"D_{j}/D_{2 * j} = {d / d_next:.5f}, D = {D}"
