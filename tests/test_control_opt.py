"""Outer control problem: costs, adjoint and FD gradients, descent,
oscillation demo."""

import dataclasses
import logging

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import control_opt, grid
from qlcontrol import instances, relaxed_opt, young_measure
from qlcontrol.control_opt import (
    ControlProblem,
    OptimizeOptions,
    central_fd_gradient,
    evaluate_cost,
    forward_fd_gradient,
    minimizing_sequence_demo,
    optimize_control,
)
from qlcontrol.grid import ScalarField
from qlcontrol.reports import NonConvergenceError, SolveReport
from qlcontrol.state_quasilinear import QuasilinearStateProblem
from qlcontrol.state_variational import VariationalStateProblem
from qlcontrol.young_measure import realize_sequence

from oracles import quadratic_program_oracle


def regularizer_only_problem(n=8, M=1.0):
    mesh = grid.build_mesh(1, n)
    cs = co.CoefficientSet(
        M=M, **{**co.a_zero(), **co.f_zero(), **co.cost_zero()}
    )
    state = QuasilinearStateProblem(mesh, cs, b=1.0)
    return ControlProblem(state)


def tracking_problem(n=16):
    # F = (y - y*)^2 with y* the b=1 response to the unit source, f(u) = u
    mesh = grid.build_mesh(1, n)
    ystar = grid.helmholtz_solve(1.0, ScalarField(mesh, np.ones(mesh.n_nodes)))
    parts = {**co.a_zero(), **co.f_linear(), **co.cost_tracking(ystar.values)}
    cs = co.CoefficientSet(M=1e-3, **parts)
    state = QuasilinearStateProblem(mesh, cs, b=1.0)
    return ControlProblem(state), ystar


class TestEvaluateCost:
    def test_zero_everything(self):
        cp = regularizer_only_problem()
        u = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        assert evaluate_cost(cp, u) == 0.0

    def test_decoupled_regularizer(self):
        # f = 0 forces y = 0, so the cost is exactly the Tychonov term
        mesh = grid.build_mesh(1, 8)
        cs = co.CoefficientSet(
            M=0.5, **{**co.a_zero(), **co.f_zero(), **co.cost_tracking(0.0)}
        )
        state = QuasilinearStateProblem(mesh, cs, b=1.0)
        cp = ControlProblem(state)
        x = mesh.node_coords()[:, 0]
        u = ScalarField(mesh, x)
        g = grid.gradient(u)
        assert abs(evaluate_cost(cp, u) - 0.25 * grid.inner(g, g)) <= 1e-14

    def test_tracking_reference_is_exact_zero(self):
        cp, _ = tracking_problem()
        u = ScalarField(cp.mesh, np.ones(cp.mesh.n_nodes))
        assert abs(evaluate_cost(cp, u, state_tol=1e-12)) <= 1e-10

    def test_hand_assembled_composition(self):
        cp, ystar = tracking_problem()
        mesh = cp.mesh
        x = mesh.node_coords()[:, 0]
        u = ScalarField(mesh, x)
        # compose the two linear solves by hand and quadrature the cost
        y_u = grid.helmholtz_solve(1.0, u)
        diff = ScalarField(mesh, y_u.values - ystar.values)
        by_hand = grid.inner(diff, diff) + 0.5 * 1e-3 * grid.inner(
            grid.gradient(u), grid.gradient(u)
        )
        assert abs(evaluate_cost(cp, u, state_tol=1e-13) - by_hand) <= 1e-10


class TestControlField:
    """A control that is not finite, or not a nodal field on the problem's
    mesh, is rejected before any state solve: evaluate_cost returned NaN
    for u = inf, and a field of another mesh failed inside numpy."""

    def test_non_finite_control_rejected(self):
        mesh = grid.build_mesh(1, 16)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^field values must be finite"):
                ScalarField(mesh, np.full(mesh.n_nodes, bad))

    @pytest.mark.parametrize("name", ["variational-quartic-1d", "monotone-perturbed-1d",
                                      "linear-quasilinear-1d"])
    def test_control_of_another_mesh_or_location_rejected(self, name):
        cp = instances.build_control_problem(name, grid.build_mesh(1, 16))
        other = grid.build_mesh(1, 8)
        for u in (ScalarField(other, np.zeros(other.n_nodes)),
                  ScalarField(cp.mesh, np.zeros(cp.mesh.n_cells), "cells")):
            with pytest.raises(ValueError, match="^control must be a nodal field on the "
                               "problem mesh"):
                evaluate_cost(cp, u)


class TestControlProblem:
    @pytest.mark.parametrize(
        "name, regime",
        [
            ("gap-family-1d", "quasilinear"),
            ("sin-gradient-2d", "quasilinear"),
            ("variational-quartic-1d", "variational"),
            ("monotone-perturbed-1d", "monotone"),
        ],
    )
    def test_state_fixes_mesh_coefficients_weight_and_regime(self, name, regime):
        cp = instances.build_control_problem(name)
        assert cp.mesh is cp.state.mesh
        assert cp.cs is cp.state.cs
        assert cp.M == cp.state.cs.M
        assert cp.regime == regime

    @pytest.mark.parametrize("build", [
        instances.build_state_problem,
        instances.build_control_problem,
        instances.default_mesh,
        lambda name: instances.build_state_problem(name, grid.build_mesh(1, 8)),
        instances.build_relaxed_problem,
    ], ids=["state", "control", "mesh", "state-on-mesh", "relaxed"])
    def test_unknown_instance_named_by_every_builder(self, build):
        with pytest.raises(KeyError, match="unknown instance 'nope'"):
            build("nope")

    def test_unknown_state_type_rejected(self):
        cp, _ = tracking_problem(n=8)
        with pytest.raises(ValueError, match="state problem type"):
            ControlProblem(cp.cs)

    @pytest.mark.parametrize("missing", ["M", "F"])
    def test_coefficients_without_weight_or_cost_rejected(self, missing):
        cp, _ = tracking_problem(n=8)
        state = QuasilinearStateProblem(cp.mesh, cp.cs.merged(**{missing: None}), b=1.0)
        with pytest.raises(ValueError, match=missing):
            ControlProblem(state)

    def test_variational_state_without_source_map_rejected(self):
        state = instances.build_state_problem("variational-quartic-1d")
        state = VariationalStateProblem(state.mesh, state.cs.merged(f=None), state.source)
        with pytest.raises(ValueError, match="map f"):
            ControlProblem(state)

    def test_with_mesh_carries_no_demo_measure(self, monkeypatch):
        cp = instances.build_control_problem("gap-family-1d", grid.build_mesh(1, 16))
        assert cp.demo_measure is not None and cp.reference_controls
        built = []
        monkeypatch.setattr(instances, "uniform_two_atom", lambda *a, **k: built.append(a))
        fine = grid.build_mesh(1, 64)
        cp_fine = cp.with_mesh(fine)
        assert built == []
        assert cp_fine.demo_measure is None and cp_fine.reference_controls == ()
        assert cp_fine.mesh == fine
        assert cp_fine.regime == "quasilinear" and cp_fine.state.b == cp.state.b


class TestOptimizeControl:
    def test_regularizer_only_drives_to_constant(self):
        cp = regularizer_only_problem(n=8, M=1.0)
        x = cp.mesh.node_coords()[:, 0]
        u0 = ScalarField(cp.mesh, np.sin(2 * np.pi * x))
        u, rep = optimize_control(cp, u0, OptimizeOptions(max_iterations=300))
        assert rep.cost <= 1e-5
        assert np.max(u.values) - np.min(u.values) <= 2e-2

    def test_descent_trace_monotone(self):
        cp, _ = tracking_problem()
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        _, rep = optimize_control(cp, u0, OptimizeOptions(max_iterations=25))
        trace = np.array(rep.cost_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_beats_constant_baselines(self):
        # u = 1 is the global optimum here (cost 0), so the run from zero
        # must descend to it up to the gradient-tolerance floor
        cp, _ = tracking_problem()
        mesh = cp.mesh
        u0 = ScalarField(mesh, np.zeros(mesh.n_nodes))
        _, rep = optimize_control(cp, u0, OptimizeOptions(max_iterations=400))
        for c in (0.0, 1.0):
            base = evaluate_cost(cp, ScalarField(mesh, np.full(mesh.n_nodes, c)))
            assert rep.cost <= base + 1e-8

    def test_matches_quadratic_program_oracle(self):
        cp = instances.build_control_problem("quadratic-variational-1d")
        target = 0.01 * np.sin(np.pi * cp.mesh.node_coords()[:, 0])
        _, oracle_cost = quadratic_program_oracle(cp, target)
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        _, rep = optimize_control(cp, u0, OptimizeOptions(max_iterations=200))
        assert abs(rep.cost - oracle_cost) <= 1e-4

    def test_two_dimensional_descent(self):
        mesh = grid.build_mesh(2, 6)
        cp = instances.build_control_problem("sin-gradient-2d", mesh)
        u0 = ScalarField(mesh, np.zeros(mesh.n_nodes))
        c0 = evaluate_cost(cp, u0)
        u, rep = optimize_control(cp, u0, OptimizeOptions(max_iterations=3))
        assert rep.cost <= c0
        assert np.all(np.diff(rep.cost_trace) <= 0.0)

    def test_linesearch_retries_counted(self, monkeypatch):
        # the first line-search trial's state solve fails, in its chunk and
        # alone, as a real solver's would; the step is halved, retried, and
        # the retry is reported
        cp, _ = tracking_problem(n=8)
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        opts = OptimizeOptions(max_iterations=3)
        _, clean = optimize_control(cp, u0, opts)
        assert clean.extras["linesearch_retries"] == 0
        solve = control_opt._state_columns
        failures = []

        def fail_first_trial(cp_, U, warm, state_tol):
            if len(U) == 2 and not failures:  # the first chunk of trials
                failures.append(U[0].copy())
            if any(np.array_equal(v, failures[0]) for v in U):
                raise NonConvergenceError("forced failure", SolveReport("forced", 1, 1.0, False))
            return solve(cp_, U, warm, state_tol)

        monkeypatch.setattr(control_opt, "_state_columns", fail_first_trial)
        _, rep = optimize_control(cp, u0, opts)
        assert len(failures) == 1
        assert rep.extras["linesearch_retries"] == 1
        assert rep.iterations == 3 and len(rep.cost_trace) == 4
        assert np.all(np.diff(rep.cost_trace) <= 0.0)

    def test_deterministic_given_start(self):
        cp, _ = tracking_problem(n=8)
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        opts = OptimizeOptions(max_iterations=10)
        u1, rep1 = optimize_control(cp, u0, opts)
        u2, rep2 = optimize_control(cp, u0, opts)
        assert np.array_equal(u1.values, u2.values)
        assert rep1.cost == rep2.cost

    def test_debug_log_records_each_iteration(self, caplog):
        cp, _ = tracking_problem(n=8)
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        opts = OptimizeOptions(max_iterations=3)
        u_quiet, quiet = optimize_control(cp, u0, opts)
        with caplog.at_level(logging.DEBUG, logger="qlcontrol"):
            u_logged, logged = optimize_control(cp, u0, opts)
        # the optimizer's own records; its state solves log per column too
        messages = [r.getMessage() for r in caplog.records if r.name == "qlcontrol.control_opt"]
        assert [m.split(":")[0] for m in messages] == [
            "optimize_control iteration 1",
            "optimize_control iteration 2",
            "optimize_control iteration 3",
            "optimize_control stopped",
        ]
        assert "step 1.000e+00" in messages[0]
        assert messages[3] == "optimize_control stopped: cap after 3 iterations"
        assert logged.to_dict() == quiet.to_dict()
        assert np.array_equal(u_logged.values, u_quiet.values)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iterations": -1},
            {"max_iterations": 1.5},
            {"max_iterations": True},
            {"gradient_tol": -1e-6},
            {"gradient_tol": float("inf")},
            {"state_tol": 0.0},
            {"state_tol": float("inf")},
        ],
        ids=lambda d: "{}={}".format(*next(iter(d.items()))),
    )
    def test_out_of_range_options_rejected(self, bad):
        with pytest.raises(ValueError):
            OptimizeOptions(**bad)


# optimize_control on variational-quartic-1d at h = 1/16, 12 iterations from
# 0.3 N(0, 1) of seed 0, recorded from the one-trial-at-a-time line search
PINNED_VARIATIONAL_U = [
    "-0x1.5ef8a118a410ep-7", "-0x1.e8f1539731caep-7", "-0x1.f91d2c8c5cf03p-6",
    "-0x1.97c8ef567bd4dp-5", "-0x1.39446a56bc3d4p-4", "-0x1.9e62658c00dcap-4",
    "-0x1.229b5f3142faap-3", "-0x1.53811dcd23580p-3", "-0x1.bde3998b63a97p-3",
    "-0x1.e56adf5a76ba6p-3", "-0x1.20c86a56a19c8p-2", "-0x1.2a04bcc37f151p-2",
    "-0x1.46086f722f4f9p-2", "-0x1.3a0eb4181a298p-2", "-0x1.4e6f2608a785cp-2",
    "-0x1.2e0b08b8a1f2ap-2", "-0x1.4a332ce41e2dcp-2",
]
PINNED_VARIATIONAL_TRACE = [
    "0x1.d996b24cf2dfep-7", "0x1.900174e1de1d5p-9", "0x1.86e7c667ae3afp-10",
    "0x1.68fae1cecf966p-10", "0x1.31f89a712b954p-10", "0x1.11f107895b490p-10",
    "0x1.f96ee74c3221ap-11", "0x1.d944f5c12ea32p-11", "0x1.c020c605a0b83p-11",
    "0x1.ab817fd14c0b6p-11", "0x1.9a1c89a497b3bp-11", "0x1.8ac33dd730913p-11",
    "0x1.7d7185b8bea4ep-11",
]


def sequential_line_search(cp, u0, opts, fail=()):
    """Reference: the first iteration's Armijo search from u0 along the
    optimizer's own gradient, one trial solve at a time, with control_opt's
    current _INITIAL_STEP and _LINESEARCH_MAX; trials whose index is in
    ``fail`` count as state-solver failures.  Returns the trial controls,
    the accepted control and cost (None when every trial fails) and the
    retries."""
    mesh = cp.mesh
    cost, state = evaluate_cost(cp, u0, state_tol=opts.state_tol, return_state=True)
    g = control_opt._cost_gradient(cp, u0.values, cost, state, opts)
    gnorm2 = float(mesh.cell_volume * np.sum(mesh.node_weights() * g * g))
    trials, accepted, retries = [], (None, None), 0
    alpha = control_opt._INITIAL_STEP
    for j in range(control_opt._LINESEARCH_MAX):
        trials.append(u0.values - alpha * g)
        if accepted[0] is None:
            if j in fail:
                retries += 1
            else:
                c = evaluate_cost(
                    cp, ScalarField(mesh, trials[j]), warm=state, state_tol=opts.state_tol
                )
                if c <= cost - 1e-4 * alpha * gnorm2:
                    accepted = (trials[j], c)
        alpha *= 0.5
    return trials, accepted, retries


def fail_trials(monkeypatch, trials, fail, error=None):
    """Make the stacked state solver fail every stack that holds a
    line-search trial whose index is in ``fail``: as a solve that did not
    converge, or by raising ``error``."""
    solve = control_opt._state_columns

    def wrapped(cp, U, warm, state_tol):
        if any(any(np.array_equal(v, trials[j]) for j in fail) for v in U):
            if error is not None:
                raise error("forced failure")
            raise NonConvergenceError("forced failure", SolveReport("forced", 1, 1.0, False))
        return solve(cp, U, warm, state_tol)

    monkeypatch.setattr(control_opt, "_state_columns", wrapped)


class TestLineSearchLadder:
    """The stacked trial ladder accepts what the one-by-one search accepts."""

    def test_variational_run_pinned(self):
        mesh = grid.build_mesh(1, 16)
        cp = instances.build_control_problem("variational-quartic-1d", mesh)
        u0 = 0.3 * np.random.default_rng(0).standard_normal(mesh.n_nodes)
        u, rep = optimize_control(
            cp, ScalarField(mesh, u0), OptimizeOptions(max_iterations=12)
        )
        assert u.values.tolist() == [float.fromhex(x) for x in PINNED_VARIATIONAL_U]
        assert rep.cost_trace == [float.fromhex(x) for x in PINNED_VARIATIONAL_TRACE]
        assert rep.cost == 0.0007275456365215067
        assert rep.extras == {"stopped": "cap", "linesearch_retries": 0, "kink_nodes": 0}

    # with a first step of 1e3 the search from zero first accepts trial 4,
    # in the second chunk (trials 2-5); trials 0-3 fail Armijo
    @pytest.mark.parametrize(
        "fail, linesearch_max",
        [((), 30), ((0,), 30), ((4,), 30), ((5, 13), 30), ((1, 4, 5, 6), 30),
         ((3, 4), 5), (tuple(range(30)), 30)],
        ids=["none", "first", "accepted", "after-accepted", "across-chunks",
             "all-left", "all"],
    )
    def test_retries_match_sequential_search(self, monkeypatch, fail, linesearch_max):
        cp, _ = tracking_problem(n=8)
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        monkeypatch.setattr(control_opt, "_INITIAL_STEP", 1e3)
        monkeypatch.setattr(control_opt, "_LINESEARCH_MAX", linesearch_max)
        opts = OptimizeOptions(max_iterations=1)
        trials, (u_ref, c_ref), retries = sequential_line_search(cp, u0, opts, fail)
        fail_trials(monkeypatch, trials, fail)
        u, rep = optimize_control(cp, u0, opts)
        assert rep.extras["linesearch_retries"] == retries
        if u_ref is None:
            assert rep.extras["stopped"] == "linesearch"
            assert np.array_equal(u.values, u0.values)
        else:
            assert rep.extras["stopped"] == "cap"
            assert np.array_equal(u.values, u_ref)
            assert rep.cost_trace[-1] == c_ref

    @pytest.mark.parametrize("at, raises", [(1, True), (4, True), (5, False)])
    def test_other_errors_surface_where_the_sequential_search_raises(
        self, monkeypatch, at, raises
    ):
        # a chunk that raises is scored again one trial at a time: the error
        # surfaces only if every trial before it is rejected
        cp, _ = tracking_problem(n=8)
        u0 = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
        monkeypatch.setattr(control_opt, "_INITIAL_STEP", 1e3)
        opts = OptimizeOptions(max_iterations=1)
        trials, (u_ref, _), _ = sequential_line_search(cp, u0, opts)
        fail_trials(monkeypatch, trials, (at,), error=ValueError)
        if raises:
            with pytest.raises(ValueError, match="forced failure"):
                optimize_control(cp, u0, opts)
        else:
            u, rep = optimize_control(cp, u0, opts)
            assert np.array_equal(u.values, u_ref)
            assert rep.extras["linesearch_retries"] == 0


class TestGradientSelfConsistency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_forward_vs_central(self, seed):
        cp, _ = tracking_problem(n=12)
        rng = np.random.default_rng(seed)
        u = ScalarField(cp.mesh, 0.5 * rng.standard_normal(cp.mesh.n_nodes))
        gf = forward_fd_gradient(cp, u)
        gc = central_fd_gradient(cp, u)
        rel = np.linalg.norm(gf - gc) / (np.linalg.norm(gc) + 1e-300)
        assert rel <= 1e-3


class TestAdjointGradient:
    """The discrete adjoint gradient of the quasilinear and monotone regimes
    against the independent central-difference stack."""

    @pytest.mark.parametrize("name, dim, n", [
        ("gap-family-1d", 1, 128),
        ("sin-gradient-1d", 1, 32),
        ("sin-gradient-2d", 2, 6),
        ("linear-quasilinear-1d", 1, 32),
        ("monotone-perturbed-1d", 1, 32),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_central_differences(self, name, dim, n, seed):
        mesh = grid.build_mesh(dim, n)
        cp = instances.build_control_problem(name, mesh)
        assert control_opt.gradient_method(cp) == "adjoint-projected-gradient"
        u = ScalarField(mesh, 0.5 * np.random.default_rng(seed).standard_normal(mesh.n_nodes))
        opts = OptimizeOptions(state_tol=1e-12)
        _, state = evaluate_cost(cp, u, state_tol=opts.state_tol, return_state=True)
        g = control_opt._adjoint_cost_gradient(cp, u.values, state)
        gc = central_fd_gradient(cp, u, opts)
        assert np.linalg.norm(g - gc) <= 1e-6 * np.linalg.norm(gc)

    @pytest.mark.parametrize("name, method", [
        ("linear-quasilinear-1d", "adjoint-projected-gradient"),
        ("monotone-perturbed-1d", "adjoint-projected-gradient"),
        ("variational-quartic-1d", "fd-projected-gradient"),
    ])
    def test_report_and_debug_line_name_the_gradient(self, caplog, name, method):
        mesh = grid.build_mesh(1, 8)
        cp = instances.build_control_problem(name, mesh)
        u0 = ScalarField(mesh, 0.3 * np.random.default_rng(0).standard_normal(mesh.n_nodes))
        with caplog.at_level(logging.DEBUG, logger="qlcontrol.control_opt"):
            _, rep = optimize_control(cp, u0, OptimizeOptions(max_iterations=2))
        assert rep.method == method
        lines = [r.getMessage() for r in caplog.records if r.name == "qlcontrol.control_opt"]
        steps = [m for m in lines if m.startswith("optimize_control iteration")]
        assert len(steps) == 2
        assert all(m.endswith(f"({method})") for m in steps)

    @pytest.mark.parametrize("name, fd_stacks", [
        ("monotone-perturbed-1d", False),
        ("linear-quasilinear-1d", False),
        ("variational-quartic-1d", True),
    ])
    def test_only_the_variational_regime_stacks_fd_states(self, monkeypatch, name, fd_stacks):
        mesh = grid.build_mesh(1, 8)
        cp = instances.build_control_problem(name, mesh)
        solver = control_opt.state_solvers(cp.regime)[1].__name__
        sizes = []
        stacked = getattr(control_opt, solver)

        def record(p, U, **kw):
            sizes.append(len(U))
            return stacked(p, U, **kw)

        monkeypatch.setattr(control_opt, solver, record)
        u0 = ScalarField(mesh, 0.3 * np.random.default_rng(0).standard_normal(mesh.n_nodes))
        optimize_control(cp, u0, OptimizeOptions(max_iterations=3))
        # a forward-difference stack solves one column per node
        assert (mesh.n_nodes in sizes) == fd_stacks


def kinked_f(u):
    """clamp(u, -1, 1) + |u| / 2: kinks at -1, 0 and 1, convex at 0 and
    concave at 1 (slopes 3/2 then 1/2)."""
    return np.clip(u, -1.0, 1.0) + 0.5 * np.abs(u)


class TestKinkDescent:
    """At the declared kinks of f the adjoint gradients take the
    steepest-descent vector of the one-sided directional derivatives;
    elsewhere they keep the central-slope formula bit for bit."""

    # one node per row: (u, r, lam, what the node shows); kinks at -1, 0, 1
    NODES = [
        (1.0, 0.8, -1.0, "B-stationary, neither side descends"),
        (0.0, -1.0, 1.0, "B-stationary at a convex kink"),
        (1.0, -1.2, 1.0, "concave: both sides descend, raising faster"),
        (1.0, -0.8, 1.0, "concave: both sides descend, lowering faster"),
        (0.0, -1.0, 0.5, "only raising descends"),
        (0.0, 1.0, -0.5, "only lowering descends"),
        (-1.0, 0.8, -1.0, "only lowering descends at the lower kink"),
        (0.3, 0.1, 2.0, "smooth"),
        (2.0, -0.4, 0.6, "smooth, beyond the clamp"),
    ]

    def test_matches_brute_force_directional_derivatives(self):
        u, r, lam = (np.array(col, dtype=float) for col in list(zip(*self.NODES))[:3])
        cs = co.CoefficientSet(f=kinked_f, f_kinks=(-1.0, 0.0, 1.0))
        g = control_opt._source_gradient(cs, r, u, lam)

        # per node, the cost's change along +e_i and -e_i: r t + lam (f(u + t) - f(u))
        def change(t):
            return r * t + lam * (kinked_f(u + t) - kinked_f(u))

        h = 1e-7
        up, down = change(h) / h, change(-h) / h  # directional derivatives
        want = np.where(np.minimum(up, down) >= 0.0, 0.0,
                        np.where(up < down, up, -down))
        assert np.allclose(g, want, rtol=0, atol=1e-7)
        assert [bool(x == 0.0) for x in g] == [True, True] + [False] * 7
        assert g[2] < 0.0 < g[3]  # the concave kink goes its faster way

        # -g/|g| attains the least directional derivative -|g| over the unit
        # sphere, sampled here, and so it is a descent direction
        def derivative(d):
            return float(np.sum(r * h * d + lam * (kinked_f(u + h * d) - kinked_f(u)))) / h

        gnorm = np.linalg.norm(g)
        assert abs(derivative(-g / gnorm) + gnorm) <= 1e-6
        for d in np.random.default_rng(0).standard_normal((2000, len(u))):
            assert derivative(d / np.linalg.norm(d)) >= -gnorm - 1e-6

    @pytest.mark.parametrize("name", [
        "linear-quasilinear-1d", "sin-gradient-1d", "monotone-perturbed-1d", "gap-family-1d"])
    def test_off_the_kinks_both_gradients_are_the_central_slope_formula(
        self, monkeypatch, name
    ):
        # smooth f (and the gap family's clamp at random controls, which sit
        # on no kink) never reach the one-sided slopes
        def no_kink_path(*args):
            raise AssertionError("one-sided slopes taken")

        monkeypatch.setattr(control_opt, "one_sided_derivatives", no_kink_path)
        mesh = grid.build_mesh(1, 32)
        cp = instances.build_control_problem(name, mesh)
        cs, interior = cp.cs, mesh.interior_indices
        weights = mesh.cell_volume * mesh.node_weights()
        rng = np.random.default_rng(3)
        u = 0.5 * rng.standard_normal(mesh.n_nodes)
        assert control_opt._kink_nodes(cp, u) == 0

        _, state = evaluate_cost(cp, ScalarField(mesh, u), return_state=True)
        dJdy = weights * co.pointwise_derivative(cs.F, state.values)
        K = control_opt._ADJOINT_JACOBIANS[cp.regime](cp.state, state.values)
        lam = np.linalg.solve(K.T, dJdy[interior])
        g = control_opt._regularizer_gradient(cp, u)
        g[interior] += co.pointwise_derivative(cs.f, u)[interior] * lam
        assert np.array_equal(control_opt._adjoint_cost_gradient(cp, u, state), g / weights)

        if name not in instances.relaxable_names():
            return
        rp, _ = instances.build_relaxed_problem(name, mesh)
        lo, hi = rp.band
        x = np.concatenate([u, rng.uniform(lo, hi, mesh.n_cells)])
        y = relaxed_opt._score_points(rp, x[None])[0][0]
        lam = grid.helmholtz_solve_values(mesh, rp.b, weights * co.pointwise_derivative(cs.F, y))
        gu = control_opt._regularizer_gradient(cp, u) + co.pointwise_derivative(cs.f, u) * lam
        gs = -grid.node_to_cell_values(mesh, lam)
        want = np.concatenate([gu / weights, gs / mesh.cell_volume])
        assert np.array_equal(relaxed_opt._relaxed_gradient(rp, x, y), want)


class TestExistenceSymptom:
    @pytest.mark.parametrize("name", ["monotone-perturbed-1d", "variational-quartic-1d"])
    def test_random_starts_agree(self, name):
        mesh = grid.build_mesh(1, 12)
        cp = instances.build_control_problem(name, mesh)
        rng = np.random.default_rng(0)
        costs = []
        opts = OptimizeOptions(max_iterations=60)
        for _ in range(5):
            u0 = ScalarField(mesh, 0.3 * rng.standard_normal(mesh.n_nodes))
            _, rep = optimize_control(cp, u0, opts)
            costs.append(rep.cost)
        assert max(costs) - min(costs) <= 1e-3


class TestMinimizingSequenceDemo:
    def test_single_atom_constant_trace(self):
        from qlcontrol.young_measure import YoungMeasureField

        cp = instances.build_control_problem("gap-family-1d", grid.build_mesh(1, 16))
        single = YoungMeasureField(
            cp.mesh,
            np.zeros((cp.mesh.n_cells, 1, 1)),
            np.ones((cp.mesh.n_cells, 1)),
            "PH1",
            potential_offset=1.0,
        )
        trace = minimizing_sequence_demo(dataclasses.replace(cp, demo_measure=single), [2, 8, 32])
        assert np.max(trace) - np.min(trace) <= 1e-12

    def test_gap_family_strictly_decreasing(self):
        cp = instances.build_control_problem("gap-family-1d", grid.build_mesh(1, 32))
        trace = minimizing_sequence_demo(cp, [2, 4, 8, 16, 32])
        diffs = np.diff(trace)
        assert np.all(diffs < 1e-3)
        assert trace[-1] < trace[0]

    def test_trace_limit_near_relaxed_value(self):
        from qlcontrol.relaxed_opt import evaluate_relaxed_cost

        mesh = grid.build_mesh(1, 64)
        rp, init = instances.build_relaxed_problem("gap-family-1d", mesh)
        trace = minimizing_sequence_demo(rp.control, [32])
        relaxed = evaluate_relaxed_cost(rp, init.mu, init.nu)
        assert abs(trace[-1] - relaxed) <= 5e-2

    def test_gap_family_trace_tends_to_the_classical_value(self):
        # the realized controls tend to u = 1, the best classical control:
        # the trace stays above the classical value and well above the
        # relaxed one (about 0.0088 above it at h = 1/128)
        from qlcontrol.relaxed_opt import certify_gap

        rp, designed = instances.build_relaxed_problem("gap-family-1d")
        assert rp.mesh.cells_per_axis == 128
        rep = certify_gap(rp, samples=3, seed=0, designed_init=designed)
        trace = minimizing_sequence_demo(rp.control, [2, 4, 8, 16, 32])
        assert np.min(trace) >= rep.best_classical - 1e-6
        assert trace[-1] >= rep.relaxed + 5e-3

    def test_designed_state_measure_needs_unbounded_sources(self):
        # realize the gap family's designed nu as laminates y_j on refined
        # meshes: the source each needs, (-lap_h + b) y_j + C2N a(grad y_j),
        # grows like j in L2, while every control's source f(u) = clamp(u)
        # has L2 norm at most 1; so no classical state sequence generates nu
        rp, designed = instances.build_relaxed_problem("gap-family-1d", grid.build_mesh(1, 16))
        base = young_measure.potential(designed.nu)
        norms = []
        for j in (1, 2, 4, 8, 16):
            y = realize_sequence(designed.nu, j)
            fine = y.mesh
            # y_j realizes nu: it matches nu's potential at the base nodes
            step = fine.cells_per_axis // rp.mesh.cells_per_axis
            assert np.allclose(y.values[::step], base.values, rtol=0, atol=1e-12)
            p = rp.control.with_mesh(fine).state
            g = grid.gradient_values(fine, y.values)
            src = (-grid.divergence_weak_values(fine, g) + p.b * y.values
                   + grid.cell_to_node_values(fine, p.cs.a(g)))
            src[fine.boundary_mask] = 0.0
            norms.append(grid.l2_norm(ScalarField(fine, src)))
        ratios = np.array(norms[1:]) / np.array(norms[:-1])
        assert np.all(ratios >= 1.9)
        assert norms[0] >= 100.0 and norms[-1] >= 16 * 0.9 * norms[0]

    def test_realizations_after_the_first_start_warm(self, monkeypatch):
        solve = control_opt.solve_quasilinear
        calls = []

        def recording(p, u, **kw):
            calls.append((u.mesh, kw.get("y0")))
            return solve(p, u, **kw)

        monkeypatch.setattr(control_opt, "solve_quasilinear", recording)
        cp = instances.build_control_problem("gap-family-1d", grid.build_mesh(1, 16))
        js = [2, 4, 8]
        trace = minimizing_sequence_demo(cp, js)
        assert len(calls) == len(js)
        assert calls[0][1] is None
        for mesh, y0 in calls[1:]:
            assert y0 is not None and y0.mesh == mesh
        monkeypatch.undo()
        for j, cost in zip(js, trace):
            u_j = realize_sequence(cp.demo_measure, j)
            assert abs(cost - evaluate_cost(cp.with_mesh(u_j.mesh), u_j)) <= 1e-10

    def test_missing_measure_rejected(self):
        cp, _ = tracking_problem()
        with pytest.raises(ValueError):
            minimizing_sequence_demo(cp, [2, 4])
