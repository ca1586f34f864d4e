"""Measure-valued relaxation: states, costs, optimizer, gap certificates."""

import hashlib
import logging

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import control_opt
from qlcontrol import grid
from qlcontrol import instances
from qlcontrol import relaxed_opt
from qlcontrol.control_opt import ControlProblem, OptimizeOptions, evaluate_cost
from qlcontrol.grid import ScalarField
from qlcontrol.relaxed_opt import (
    InfeasibleMeasureError,
    RelaxedInit,
    RelaxedProblem,
    certify_gap,
    embed_classical,
    evaluate_relaxed_cost,
    optimize_relaxed,
    solve_mv_state,
)
from qlcontrol.state_quasilinear import QuasilinearStateProblem, solve_quasilinear
from qlcontrol.young_measure import (
    YoungMeasureField,
    barycenter,
    dirac_field,
    potential,
    uniform_two_atom,
)

from oracles import cosine_level_points, sine_level_points


def small_gap_problem(n=32):
    rp, init = instances.build_relaxed_problem("gap-family-1d", grid.build_mesh(1, n))
    return rp, init


def a_free_problem(n=16):
    mesh = grid.build_mesh(1, n)
    cs = co.CoefficientSet(
        M=1e-3, **{**co.a_zero(), **co.f_tanh(), **co.cost_tracking(0.05)}
    )
    state = QuasilinearStateProblem(mesh, cs, b=1.0)
    return RelaxedProblem(ControlProblem(state))


class TestSolveMvState:
    def test_dirac_embedding_reproduces_classical_state(self):
        rp, _ = small_gap_problem()
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        y_u, _ = solve_quasilinear(rp.control.state, u, tol=1e-12)
        nu = dirac_field(grid.gradient(y_u))
        y, cons = solve_mv_state(rp, u, nu)
        assert np.max(np.abs(y.values - y_u.values)) <= 1e-9
        assert cons <= 1e-9

    def test_a_free_state_ignores_higher_moments(self):
        # with a = 0 the state only sees f(u): spreading atoms symmetrically
        # (same barycenter, different second moment) changes nothing, while a
        # barycenter mismatch shows up in the consistency alone
        rp = a_free_problem()
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        y_u, _ = solve_quasilinear(rp.control.state, u, tol=1e-12)
        g = grid.gradient(y_u)
        nu1 = dirac_field(g)
        spread = np.concatenate([g.values[:, None, :]] * 2, axis=1)
        spread = spread + np.array([[-0.5], [0.5]])[None, :, :]
        nu2 = YoungMeasureField(
            rp.mesh, spread, np.full((rp.mesh.n_cells, 2), 0.5), "PH10"
        )
        y1, c1 = solve_mv_state(rp, u, nu1)
        y2, c2 = solve_mv_state(rp, u, nu2)
        assert np.max(np.abs(y1.values - y2.values)) == 0.0
        assert c1 <= 1e-9 and c2 <= 1e-9
        x = rp.mesh.node_coords()[:, 0]
        wrong = dirac_field(grid.gradient(ScalarField(rp.mesh, 0.1 * np.sin(np.pi * x))))
        y3, c3 = solve_mv_state(rp, u, wrong)
        assert np.max(np.abs(y3.values - y1.values)) == 0.0
        assert c3 > 1e-2

    def test_class_violation_rejected(self):
        rp, _ = small_gap_problem()
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        ph1 = uniform_two_atom(rp.mesh, -1.0, 1.0, 0.75)  # nonzero barycenter
        with pytest.raises(ValueError):
            solve_mv_state(rp, u, ph1)


class TestEvaluateRelaxedCost:
    def test_dirac_pair_matches_classical_cost(self):
        rp, _ = small_gap_problem()
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        classical = evaluate_cost(rp.control, u, state_tol=1e-12)
        mu, nu, _ = embed_classical(rp, u)
        relaxed = evaluate_relaxed_cost(rp, mu, nu)
        assert abs(relaxed - classical) <= 1e-10

    def test_control_potential_recovered(self):
        rp, _ = small_gap_problem()
        x = rp.mesh.node_coords()[:, 0]
        u = ScalarField(rp.mesh, 0.5 * np.sin(np.pi * x) + 2.0)
        mu, _, _ = embed_classical(rp, u)
        assert np.max(np.abs(potential(mu).values - u.values)) <= 1e-12

    def test_regularizer_term_from_second_moment(self):
        # mu with atoms +-1 half/half adds (M/2) * 1 * |domain| to the cost
        mesh = grid.build_mesh(1, 16)
        cs = co.CoefficientSet(
            M=0.2, **{**co.a_zero(), **co.f_zero(), **co.cost_zero()}
        )
        state = QuasilinearStateProblem(mesh, cs, b=1.0)
        rp = RelaxedProblem(ControlProblem(state))
        mu = uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        nu = dirac_field(grid.VectorField(mesh, np.zeros((mesh.n_cells, 1))))
        assert abs(evaluate_relaxed_cost(rp, mu, nu) - 0.1) <= 1e-14

    def test_control_measure_of_class_ph10_rejected(self):
        rp, _ = small_gap_problem()
        mu = dirac_field(grid.VectorField(rp.mesh, np.zeros((rp.mesh.n_cells, 1))))
        assert mu.klass == "PH10"
        with pytest.raises(ValueError, match="^control measure must be of class PH1$"):
            evaluate_relaxed_cost(rp, mu, mu)

    def test_infeasible_nu_rejected(self):
        # a valid PH10 measure whose barycenter is the gradient of the wrong
        # H1_0 function decouples from the state and must be rejected
        rp, _ = small_gap_problem()
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        mu, _, _ = embed_classical(rp, u)
        x = rp.mesh.node_coords()[:, 0]
        wrong = dirac_field(grid.gradient(ScalarField(rp.mesh, 0.5 * np.sin(np.pi * x))))
        assert wrong.klass == "PH10"
        with pytest.raises(InfeasibleMeasureError):
            evaluate_relaxed_cost(rp, mu, wrong)


class TestOptimizeRelaxed:
    def test_descent_from_dirac_init(self):
        rp, _ = small_gap_problem(n=16)
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        classical = evaluate_cost(rp.control, u, state_tol=1e-12)
        mu, nu, _ = embed_classical(rp, u)
        mu, nu, _, rep = optimize_relaxed(rp, RelaxedInit(mu, nu))
        assert rep.cost <= classical + 1e-10
        # the output measures are feasible
        assert solve_mv_state(rp, potential(mu), nu)[1] <= 1e-6

    def test_designed_init_reaches_margin(self):
        rp, init = small_gap_problem(n=64)
        u = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        classical = evaluate_cost(rp.control, u, state_tol=1e-12)
        mu, nu, y, rep = optimize_relaxed(rp, init)
        delta = instances.gap_margin(rp.mesh)
        assert rep.cost <= classical - delta
        # outputs stay exactly normalized and feasible
        assert np.max(np.abs(np.sum(nu.weights, axis=1) - 1.0)) <= 1e-12
        assert solve_mv_state(rp, potential(mu), nu)[1] <= 1e-6
        assert mu.klass == "PH1" and nu.klass == "PH10"

    def test_convex_instance_collapses_to_classical(self):
        # both runs to the stationarity test: the relaxed run starts at the
        # converged classical control and stops there (it was compared with
        # a 40-step classical run to 1e-4 before the runs could converge)
        rp = a_free_problem()
        from qlcontrol.control_opt import optimize_control

        u0 = ScalarField(rp.mesh, np.zeros(rp.mesh.n_nodes))
        u_opt, rep_c = optimize_control(rp.control, u0)
        mu, nu, _ = embed_classical(rp, u_opt)
        _, _, _, rep_r = optimize_relaxed(rp, RelaxedInit(mu, nu))
        assert rep_c.converged and rep_r.converged
        assert abs(rep_r.cost - rep_c.cost) <= 1e-12


def outputs_sha256(mu, nu, y):
    h = hashlib.sha256()
    for a in (mu.atoms, mu.weights, [mu.potential_offset], nu.atoms, nu.weights, y.values):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def zero_control_embedding(name, n):
    rp, _ = instances.build_relaxed_problem(name, grid.build_mesh(1, n))
    mu, nu, _ = embed_classical(rp, ScalarField(rp.mesh, np.zeros(rp.mesh.n_nodes)))
    return rp, RelaxedInit(mu, nu)


class TestStopRule:
    # the designed init is B-stationary: u = 1 sits on f's kink with a
    # negative adjoint on every interior node, so neither side of the kink
    # descends, and s sits at the lower end of the band, where its gradient
    # points out.  The run stops on "gradient" at stationarity 0.0 (it
    # stopped on "linesearch" with the central slope f'(1) = 1/2 before);
    # the cost is the one the alternating scheme recorded from this init;
    # the output digests were re-recorded when nu became the level measure,
    # with the residuals when its level search went from 80 golden-section
    # steps to parabolic steps that stop at |a - s| <= 1e-12 (before:
    # 7.169257659676792e-17, c1623487... at 16; 7.531202627761144e-17,
    # e0d9cfdb... at 64), and again when the search gave way to the level
    # map of a (before: 1.356562631450705e-15, 5b008d46... at 16;
    # 3.93718088727148e-15, 62682cf0... at 64)
    @pytest.mark.parametrize(
        "n, cost, residual, sha",
        [
            (16, -0.06915362909010629, 3.024593730708204e-17,
             "06c648643b9bc5a24d351d320107e722d1d1c3541146a6ec826e8294efa496c6"),
            (64, -0.06945153919892398, 3.244283652405067e-17,
             "2e26c376bc0149eea4e6dfefedb1e401450993fc8102d2f16710bd8f35ed21a7"),
        ],
        ids=["n16", "n64"],
    )
    def test_designed_gap_init_stalls_with_unchanged_outputs(self, n, cost, residual, sha):
        rp, init = small_gap_problem(n=n)
        mu, nu, y, rep = optimize_relaxed(rp, init)
        assert rep.iterations == 1
        assert rep.extras == {"stopped": "gradient", "linesearch_retries": 0,
                              "kink_nodes": n - 1}
        assert rep.converged is True and rep.stationarity == 0.0
        assert rep.cost == cost and rep.cost_trace == [cost]
        # the coupling residual of the outputs (the report's is the stationarity)
        assert solve_mv_state(rp, potential(mu), nu)[1] == residual
        assert outputs_sha256(mu, nu, y) == sha

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_gap_family_runs_stop_b_stationary(self, n):
        # both runs of certify_gap start at u = 1, on the kink of f =
        # clamp(u, -1, 1), under its classical options; no direction descends
        # there, so each stops converged at its first gradient, with every
        # interior node on the kink
        rp, init = small_gap_problem(n=n)
        opts = OptimizeOptions(max_iterations=12)
        ones = ScalarField(rp.mesh, np.ones(rp.mesh.n_nodes))
        _, classical = control_opt.optimize_control(rp.control, ones, opts)
        relaxed = optimize_relaxed(rp, init, opts)[3]
        for rep in (classical, relaxed):
            assert rep.extras["stopped"] == "gradient" and rep.converged is True
            assert rep.iterations == 1 and rep.stationarity == 0.0
            assert rep.extras["kink_nodes"] == n - 1
        # neither side of the kink descends: moving every node either way
        # raises the cost or leaves it (f is flat above 1)
        cost = evaluate_cost(rp.control, ones, state_tol=1e-12)
        for shift in (-1e-3, 1e-3):
            moved = ScalarField(rp.mesh, ones.values + shift)
            assert evaluate_cost(rp.control, moved, state_tol=1e-12) >= cost - 1e-12

    def test_descending_run_goes_to_the_cap(self):
        # recorded from the (u, s) descent under OptimizeOptions(max_iterations
        # = 40); the alternating scheme stopped at 40 outer iterations at
        # 0.0024994341360164564
        rp, init = zero_control_embedding("linear-quasilinear-1d", 32)
        mu, nu, y, rep = optimize_relaxed(rp, init, OptimizeOptions(max_iterations=40))
        assert rep.iterations == 40
        assert rep.extras == {"stopped": "cap", "linesearch_retries": 0, "kink_nodes": 0}
        assert rep.converged is False
        assert rep.cost == 0.001444037685205934
        assert outputs_sha256(mu, nu, y) == (
            "62838e3f69d4380b0850034ede8768420614d69743e4d6a421e4f829046a170d"
        )

    def test_stationary_is_the_only_converged_exit(self):
        # from a start whose stationarity is positive (the gap family's
        # designed init is exactly B-stationary now, at 0.0)
        rp, init = zero_control_embedding("linear-quasilinear-1d", 32)
        _, _, _, rep = optimize_relaxed(rp, init, OptimizeOptions(gradient_tol=1.0))
        assert rep.iterations == 1
        assert rep.extras["stopped"] == "gradient" and rep.converged is True
        assert 0.0 < rep.stationarity <= 1.0

    def test_debug_log_records_each_outer_iteration(self, caplog):
        rp, init = small_gap_problem(n=16)
        quiet = optimize_relaxed(rp, init)
        with caplog.at_level(logging.DEBUG, logger="qlcontrol"):
            logged = optimize_relaxed(rp, init)
        messages = [r.getMessage() for r in caplog.records]
        # the designed init is B-stationary, so its first iteration ends the run
        assert len(messages) == 2
        assert messages[0].startswith("optimize_relaxed iteration 1: cost -0.06915362909")
        assert "stationarity 0.000e+00" in messages[0]
        assert messages[0].endswith("(adjoint-projected-gradient)")
        assert messages[1] == "optimize_relaxed stopped: gradient after 1 iterations"
        assert logged[3].to_dict() == quiet[3].to_dict()
        assert outputs_sha256(*logged[:3]) == outputs_sha256(*quiet[:3])


def split_atoms(ym, spread):
    """Split every atom of a one-atom field into len(spread) equally weighted
    atoms shifted along the first axis; the barycenter is kept when the
    shifts sum to zero."""
    shifts = np.zeros((len(spread), ym.mesh.dimension))
    shifts[:, 0] = spread
    atoms = ym.atoms[:, :1, :] + shifts[None]
    weights = np.full((ym.mesh.n_cells, len(spread)), 1.0 / len(spread))
    return YoungMeasureField(ym.mesh, atoms, weights, ym.klass, ym.potential_offset)


def per_point_abar(a, atoms, weights):
    """Reference: a at every atom of every point, one point at a time."""
    out = np.empty(atoms.shape[:-2])
    for idx in np.ndindex(atoms.shape[:-3]):
        vals = np.asarray(a(atoms[idx].reshape(-1, atoms.shape[-1])), dtype=float)
        out[idx] = np.sum(weights[idx] * vals.reshape(atoms.shape[-3:-1]), axis=-1)
    return out


def abar_cases():
    """(label, a, nu) with one and two atoms per cell, in 1D and 2D."""
    rp, _ = small_gap_problem(n=16)
    x = rp.mesh.node_coords()[:, 0]
    _, nu, _ = embed_classical(rp, ScalarField(rp.mesh, 0.5 + np.sin(np.pi * x)))
    yield "1d-K1", rp.control.cs.a, nu
    yield "1d-K2", rp.control.cs.a, split_atoms(nu, [-0.3, 0.3])
    # an a of both gradient components, so a row moved along either axis
    # counts; the atoms are the gradient of a smooth 2D field
    mesh = grid.build_mesh(2, 4)
    xy = mesh.node_coords()
    nu = dirac_field(grid.gradient(ScalarField(mesh, np.sin(np.pi * xy[:, 0]) * xy[:, 1])))
    a = lambda Y: np.sin(0.8 * Y[:, 0] + 0.6 * Y[:, 1])  # noqa: E731
    yield "2d-K1", a, nu
    yield "2d-K2", a, split_atoms(nu, [-0.2, 0.2])


class TestAbarCells:
    """_abar_cells evaluates a at every atom of a stack of points in one
    call; every point must keep its own evaluation bit for bit."""

    @pytest.mark.parametrize("case", list(abar_cases()), ids=lambda c: c[0])
    def test_stacks_and_single_point_match_per_point(self, case):
        _, a, nu = case
        # a stack of three points: the field and two perturbations of it
        shifts = 1e-3 * np.random.default_rng(5).standard_normal((3,) + nu.atoms.shape)
        shifts[0] = 0.0
        atoms = nu.atoms[None] + shifts
        weights = np.broadcast_to(nu.weights, (3,) + nu.weights.shape)
        got = relaxed_opt._abar_cells(a, atoms, weights)
        assert got.shape == (3, nu.mesh.n_cells)
        assert np.array_equal(got, per_point_abar(a, atoms, weights))
        # one unstacked point, as solve_mv_state and optimize_relaxed pass it
        got = relaxed_opt._abar_cells(a, nu.atoms, nu.weights)
        assert got.shape == (nu.mesh.n_cells,)
        assert np.array_equal(got, per_point_abar(a, nu.atoms, nu.weights))
        assert np.array_equal(got, relaxed_opt._abar_cells(a, atoms, weights)[0])


class TestCertifyGap:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gap_family_certificate(self, seed):
        rp, init = small_gap_problem(n=64)
        rep = certify_gap(rp, samples=3, seed=seed, designed_init=init)
        assert not rep.failed
        assert rep.relaxed <= rep.best_classical + 1e-8
        assert rep.dirac_residual <= 1e-10
        delta = instances.gap_margin(rp.mesh)
        assert rep.gap >= delta - 1e-3

    def test_convex_instance_near_zero_gap(self):
        rp, _ = instances.build_relaxed_problem(
            "linear-quasilinear-1d", grid.build_mesh(1, 16)
        )
        rep = certify_gap(rp, samples=3, seed=0)
        assert not rep.failed
        assert abs(rep.gap) <= 1e-3

    def test_classical_run_pinned(self, monkeypatch):
        # gap-family-1d at h = 1/128: the classical run from the best sampled
        # candidate, recorded from the one-trial-at-a-time line search and
        # re-recorded with the Green's function backbone (rounding level);
        # best_classical re-recorded when the tight embedding solve started
        # from the candidate's state (-0.06071327435300832 before), and with
        # the adjoint gradient (3 iterations and -0.060713274353001126 before);
        # the run stops B-stationary at its start u = 1 since the kinks of f
        # take one-sided slopes (2 iterations to "linesearch" before, whose
        # accepted step "descended" by 7e-14 of state-solve noise to cost
        # -0.06071327435306798), and best_classical did not move
        runs = []
        optimize = relaxed_opt.optimize_control

        def record(cp, u0, opts=None, **kwargs):
            out = optimize(cp, u0, opts, **kwargs)
            runs.append((u0, opts, kwargs, out[1]))
            return out

        monkeypatch.setattr(relaxed_opt, "optimize_control", record)
        rp, init = instances.build_relaxed_problem("gap-family-1d")
        rep = certify_gap(rp, samples=3, seed=0, designed_init=init)
        ((u0, opts, kwargs, classical),) = runs
        assert classical.method == "adjoint-projected-gradient"
        assert classical.iterations == 1
        assert classical.extras == {"stopped": "gradient", "linesearch_retries": 0,
                                    "kink_nodes": 127}
        assert classical.converged is True and classical.stationarity == 0.0
        assert classical.cost == -0.060713274352995485
        assert classical.cost_trace == [classical.cost]
        assert rep.best_classical == -0.06071327435306798
        assert rep.relaxed == -0.06946644528883991
        # the run starts from the best candidate's own cost and state, as
        # its single solve at the run's tolerance gives them
        cost, y = kwargs["base"]
        want_cost, want_y = evaluate_cost(
            rp.control, u0, state_tol=opts.state_tol, return_state=True)
        assert cost == want_cost
        assert np.array_equal(y.values, want_y.values)

    def test_classical_iterations_stack_no_fd_states(self, monkeypatch):
        # the classical run on gap-family-1d at h = 1/128 takes adjoint
        # gradients: its stacked Picard solves are the candidates' and the
        # line-search chunks', never a forward-difference stack of n + 1
        # columns (the parent solved 129 columns per iteration)
        sizes = []
        stacked = control_opt.solve_quasilinear_columns

        def record(p, U, **kw):
            sizes.append(len(U))
            return stacked(p, U, **kw)

        def no_fd(*args, **kwargs):
            raise AssertionError("forward-difference gradient taken")

        monkeypatch.setattr(control_opt, "solve_quasilinear_columns", record)
        monkeypatch.setattr(control_opt, "_fd_cost_gradient", no_fd)
        rp, init = instances.build_relaxed_problem("gap-family-1d")
        rep = certify_gap(rp, samples=3, seed=0, designed_init=init)
        assert rep.classical["iterations"] >= 1
        assert sizes and max(sizes) <= control_opt._LADDER_CHUNK
        assert rp.mesh.n_nodes not in sizes

    def test_work_counts_pinned(self, monkeypatch):
        # gap-family-1d at h = 1/128: both runs start B-stationary, so each
        # stops at its first gradient and scores no Armijo trial (82 trials
        # and 32 Helmholtz solves while the central slope at f's kink sent
        # both into ladders that could not succeed), and no state is solved
        # twice (101 Helmholtz solves from an empty cache before the
        # candidate states were reused, 38 with the alternating scheme's
        # first outer iteration)
        solves, outer, trials = [], [], []
        helmholtz = grid.helmholtz_solve_values
        optimize = relaxed_opt.optimize_relaxed
        ladder = control_opt._trial_ladder

        def count(*args, **kwargs):
            solves.append(1)
            return helmholtz(*args, **kwargs)

        def record(*args, **kwargs):
            out = optimize(*args, **kwargs)
            outer.append(out[3].iterations)
            return out

        def count_trials(*args):
            for trial in ladder(*args):
                trials.append(trial[0])
                yield trial

        rp, init = instances.build_relaxed_problem("gap-family-1d")
        monkeypatch.setattr(grid, "_FACTOR_CACHE", {})
        monkeypatch.setattr(grid, "helmholtz_solve_values", count)
        monkeypatch.setattr(relaxed_opt, "optimize_relaxed", record)
        monkeypatch.setattr(control_opt, "_trial_ladder", count_trials)
        certify_gap(rp, samples=3, seed=0, designed_init=init)
        assert outer == [1]
        assert len(trials) == 0
        assert len(solves) == 20

    def test_level_search_and_jacobian_work_pinned(self, monkeypatch):
        # gap-family-1d at h = 1/128: every cell's slack sits at the band's
        # lower end, a level the graph of a touches at its wells; the level
        # measure calls a once, for the Dirac test a(t0) = s, and takes its
        # atoms from the declared level map (5 calls while it searched: a(t0),
        # a march and 3 parabolic steps; 164 with 80 golden-section steps of
        # two each), and the classical run's adjoint Jacobian applies its
        # linearization to 3 comb vectors (127 identity columns before)
        a_calls, probes, inside = [], [], []
        apply_cellwise = relaxed_opt.apply_cellwise
        level_measure = relaxed_opt._level_measure
        interior_matrix = grid.interior_matrix

        def count_a(*args):
            if inside:
                a_calls.append(1)
            return apply_cellwise(*args)

        def flagged(*args):
            inside.append(1)
            try:
                return level_measure(*args)
            finally:
                inside.pop()

        def count_probes(mesh, apply):
            def counted(E):
                probes.append(E.shape[0])
                return apply(E)

            return interior_matrix(mesh, counted)

        rp, init = instances.build_relaxed_problem("gap-family-1d")
        monkeypatch.setattr(relaxed_opt, "apply_cellwise", count_a)
        monkeypatch.setattr(relaxed_opt, "_level_measure", flagged)
        monkeypatch.setattr(grid, "interior_matrix", count_probes)
        certify_gap(rp, samples=3, seed=0, designed_init=init)
        assert len(a_calls) == 1
        assert probes == [3]

    @pytest.mark.parametrize("name, relaxed, best_classical", [
        # recorded before certify_gap kept its relaxed point; re-recorded
        # with the Green's function backbone (at most 3.8e-11 relative),
        # gap-family's best_classical again when the tight embedding solve
        # started from the candidate's state (-0.06064999128539454 before),
        # and both best_classical values and linear-quasilinear's relaxed
        # value with the adjoint gradient (before: -0.06064999128538711;
        # 0.0019253592776774364 and 0.0019256669970192334, which carried
        # the forward difference's truncation error); linear-quasilinear's
        # relaxed value again with the (u, s) descent (0.001924644078631666
        # before): its band is {0}, so it is the classical value
        ("gap-family-1d", -0.06939192492772764, -0.06064999128544872),
        ("linear-quasilinear-1d", 0.0019249516474855208, 0.0019249516474855208),
    ], ids=["gap-family-1d", "linear-quasilinear-1d"])
    def test_minimizer_is_the_certified_point(self, name, relaxed, best_classical):
        rp, init = instances.build_relaxed_problem(name, grid.build_mesh(1, 32))
        rep = certify_gap(rp, samples=3, seed=0, designed_init=init)
        assert (rep.relaxed, rep.best_classical) == (relaxed, best_classical)
        mu, nu, y = rep.minimizer
        assert abs(evaluate_relaxed_cost(rp, mu, nu) - rep.relaxed) <= 1e-12
        assert np.array_equal(y.values, solve_mv_state(rp, potential(mu), nu)[0].values)
        assert "minimizer" not in rep.to_dict()

    def test_minimizer_is_the_embedding_when_it_wins(self, monkeypatch):
        # with no iteration allowed, the zero control's embedding stays far
        # above the embedding of the best classical control
        runs = []
        optimize = relaxed_opt.optimize_relaxed

        def record(*args, **kwargs):
            out = optimize(*args, **kwargs)
            runs.append(out[3].cost)
            return out

        monkeypatch.setattr(relaxed_opt, "optimize_relaxed", record)
        rp, _ = small_gap_problem(n=16)
        mu0, nu0, _ = embed_classical(rp, ScalarField(rp.mesh, np.zeros(rp.mesh.n_nodes)))
        rep = certify_gap(rp, samples=2, seed=0, designed_init=RelaxedInit(mu0, nu0),
                          classical_opts=OptimizeOptions(max_iterations=0))
        (optimized,) = runs
        assert rep.relaxed < optimized
        mu, nu, y = rep.minimizer
        assert evaluate_relaxed_cost(rp, mu, nu) == rep.relaxed
        assert np.array_equal(y.values, solve_mv_state(rp, potential(mu), nu)[0].values)
        assert mu.n_atoms == nu.n_atoms == 1

    def test_classical_side_stays_on_the_base_mesh(self, monkeypatch):
        # a relaxed run that does not beat a realization on a refined mesh
        # still passes: the embedding of the base-mesh best control is exact
        realized = []
        realize = control_opt.realize_sequence

        def count(ym, j):
            realized.append(j)
            return realize(ym, j)

        monkeypatch.setattr(control_opt, "realize_sequence", count)
        rp, init = zero_control_embedding("gap-family-1d", 16)
        rep = certify_gap(rp, samples=2, seed=0, designed_init=init,
                          classical_opts=OptimizeOptions(max_iterations=1))
        assert not rep.failed
        assert rep.relaxed <= rep.best_classical + 1e-8
        assert realized == []

    def test_report_serializes(self):
        rp, init = small_gap_problem(n=16)
        rep = certify_gap(rp, samples=2, seed=0, designed_init=init)
        d = rep.to_dict()
        assert set(d) >= {"best_classical", "relaxed", "gap", "certificates", "failed",
                          "classical", "relaxed_run"}
        for run_name in ("classical", "relaxed_run"):
            assert set(d[run_name]) == {"stopped", "iterations", "stationarity", "kink_nodes"}
        assert "trace" not in d
        assert d["gap"] == d["best_classical"] - d["relaxed"]


class TestValidation:
    def test_non_quasilinear_regime_rejected(self):
        cp = instances.build_control_problem("monotone-perturbed-1d")
        with pytest.raises(ValueError):
            RelaxedProblem(cp)

    def test_two_dimensional_mesh_rejected_before_the_classical_run(self, monkeypatch):
        # a 2D Dirac embedding drops u's checkerboard; the check used to live in
        # build_relaxed_problem only, so certify_gap ran the classical optimizer
        # and then failed on the coupling residual
        calls = []
        monkeypatch.setattr(relaxed_opt, "optimize_control", lambda *a, **k: calls.append(1))
        cp = instances.build_control_problem("sin-gradient-1d", grid.build_mesh(2, 6))
        with pytest.raises(ValueError, match="^the control problem relaxes on 1D meshes only: "
                           "the 2D gradient's kernel holds the checkerboard"):
            certify_gap(RelaxedProblem(cp), samples=1)
        assert calls == []

    def test_init_on_another_mesh_rejected(self, monkeypatch):
        # a 64-cell gap-family init on the 128-cell problem used to die inside
        # numpy ("could not broadcast input array from shape (1,0) into shape
        # (1,127)"); both entry points now name both meshes, and certify_gap
        # says so before its classical run
        calls = []
        monkeypatch.setattr(relaxed_opt, "optimize_control", lambda *a, **k: calls.append(1))
        rp, init = instances.build_relaxed_problem("gap-family-1d")
        _, coarse = small_gap_problem(n=64)
        message = (r"^RelaxedInit\.mu lives on Mesh\(dimension=1, cells_per_axis=64\), "
                   r"but the relaxed problem on Mesh\(dimension=1, cells_per_axis=128\)$")
        with pytest.raises(ValueError, match=message):
            optimize_relaxed(rp, coarse)
        with pytest.raises(ValueError, match=message):
            certify_gap(rp, samples=1, designed_init=coarse)
        assert calls == []
        with pytest.raises(ValueError, match=r"^RelaxedInit\.nu lives on Mesh\(dimension=1, "
                           r"cells_per_axis=64\), but the relaxed problem on Mesh"):
            optimize_relaxed(rp, RelaxedInit(init.mu, coarse.nu))

    def test_five_atoms_per_cell_accepted(self):
        # no atom budget, and by Jensen only mu's barycenter and nu's moment
        # of a enter the run: a five-atom mu runs as its one-atom barycenter,
        # and the outputs are a Dirac mu and a nu of at most two atoms per cell
        rp, _ = small_gap_problem(n=16)
        mesh = rp.mesh
        x = mesh.node_coords()[:, 0]
        mu, nu, _ = embed_classical(rp, ScalarField(mesh, 0.8 + 0.1 * np.sin(np.pi * x)))
        spread = [-0.4, -0.2, 0.0, 0.2, 0.4]
        opts = OptimizeOptions(max_iterations=3)
        one = optimize_relaxed(rp, RelaxedInit(mu, nu), opts)
        nu5 = YoungMeasureField(mesh, nu.atoms, nu.weights, "PH10")
        five = optimize_relaxed(rp, RelaxedInit(split_atoms(mu, spread), nu5), opts)
        assert abs(five[3].cost - one[3].cost) <= 1e-14
        assert five[0].n_atoms == 1 and five[1].n_atoms <= 2

    def test_samples_must_be_a_non_negative_integer(self):
        rp, init = small_gap_problem(n=16)
        for samples in (-1, 1.5, True):
            with pytest.raises(ValueError, match="^samples must be a non-negative integer"):
                certify_gap(rp, samples=samples, designed_init=init)

    def test_band_is_required_and_checked(self):
        mesh = grid.build_mesh(1, 16)

        def relaxed(**band):
            parts = {**co.a_sin_gradient(1.0), **co.f_tanh(), **co.cost_tracking(0.05), **band}
            cs = co.CoefficientSet(M=1e-3, c=0.5, C=1.0, **parts)
            return RelaxedProblem(ControlProblem(QuasilinearStateProblem(mesh, cs, b=1.0)))

        assert relaxed().band == (-1.0, 1.0)
        with pytest.raises(ValueError, match="band"):
            relaxed(band=None)
        for band in [(-0.5, 0.5), (-1.0, 1.2), (-1.1, 0.9)]:
            with pytest.raises(ValueError, match="fails sampling"):
                relaxed(band=band)

    def test_level_map_is_required_and_checked(self):
        mesh = grid.build_mesh(1, 16)
        parts = {**co.a_cosine_wells(0.4, 5.0), **co.f_clamp(), **co.cost_shortfall()}
        wells = co.CoefficientSet(M=1e-4, c=1.0, C=2.0, **parts)

        def relaxed(cs):
            return RelaxedProblem(ControlProblem(QuasilinearStateProblem(mesh, cs, b=2.0)))

        # merging a whole a-factory replaces its level map with the rest
        relaxed(wells.merged(**co.a_cosine_wells(0.4, 4.0)))
        # merging a alone keeps the map of omega = 5 under wells of omega =
        # 4, inside the same band
        with pytest.raises(ValueError, match="^the declared level map of a fails sampling"):
            relaxed(wells.merged(a=co.a_cosine_wells(0.4, 4.0)["a"]))
        with pytest.raises(ValueError, match=r"declared level map \(levels\)"):
            relaxed(wells.merged(levels=None))


def relaxable_case(name, n=32):
    mesh = None if name == "gap-family-1d" else grid.build_mesh(1, n)
    return instances.build_relaxed_problem(name, mesh)


def level_case(name):
    """(rp, s, t0) on 32 cells: random state gradients t0 of an H1_0
    function and random slacks s in the band, but 4 cells at each band end,
    4 Dirac cells (s = a(t0)), 4 cells 1e-9 inside the upper end, where the
    graph nearly touches a level that it crosses, and 4 cells at the lower
    end with |t0| < 0.025, where the gap family's nearest points are the
    well at 0 and the next one (a search that marched out in steps of 0.05
    missed the well at 0)."""
    rp, _ = instances.build_relaxed_problem(name, grid.build_mesh(1, 32))
    lo, hi = rp.band
    rng = np.random.default_rng(3)
    t0 = rng.uniform(-3.0, 3.0, rp.mesh.n_cells)
    t0 -= np.mean(t0)  # the gradient of an H1_0 function
    t0[16:20] = (-0.02, -1e-3, 1e-3, 0.02)
    t0[20:] -= np.sum(t0) / 12.0
    s = rng.uniform(lo, hi, rp.mesh.n_cells)
    s[:4] = lo
    s[4:8] = hi
    s[8:12] = rp.control.cs.a(t0[8:12, None])
    s[12:16] = hi - 1e-9
    s[16:20] = lo
    return rp, s, t0


class TestRelaxedSide:
    """The (u, s) descent: its gradient, its level measures and its values."""

    @pytest.mark.parametrize("name", ["gap-family-1d", "sin-gradient-1d",
                                      "linear-quasilinear-1d"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradient_matches_central_differences(self, name, seed):
        rp, _ = instances.build_relaxed_problem(name, grid.build_mesh(1, 16))
        rng = np.random.default_rng(seed)
        lo, hi = rp.band
        n = rp.mesh.n_nodes
        x = np.concatenate([0.3 * rng.standard_normal(n),
                            rng.uniform(lo, hi, rp.mesh.n_cells)])
        y, _ = relaxed_opt._score_points(rp, x[None])[0]
        g = relaxed_opt._relaxed_gradient(rp, x, y)
        step = 1e-6
        E = step * np.eye(x.size)
        up = [c for _, c in relaxed_opt._score_points(rp, x + E)]
        down = [c for _, c in relaxed_opt._score_points(rp, x - E)]
        weights = np.concatenate([rp.mesh.cell_volume * rp.mesh.node_weights(),
                                  np.full(rp.mesh.n_cells, rp.mesh.cell_volume)])
        gc = (np.array(up) - np.array(down)) / (2.0 * step) / weights
        assert np.linalg.norm(g - gc) <= 1e-6 * np.linalg.norm(gc)

    @pytest.mark.parametrize("name", ["gap-family-1d", "sin-gradient-1d"])
    def test_level_measure_has_the_slack_as_moment(self, name):
        rp, s, t0 = level_case(name)
        a = rp.control.cs.a
        nu = relaxed_opt._level_measure(rp, s, t0)
        assert nu.n_atoms == 2 and nu.klass == "PH10"
        assert np.max(np.abs(barycenter(nu).values[:, 0] - t0)) <= 1e-14
        values = a(nu.atoms.reshape(-1, 1)).reshape(nu.weights.shape)
        assert np.max(np.abs(values - s[:, None])) <= 1e-12
        assert np.all(nu.atoms[:, 0, 0] <= t0) and np.all(t0 <= nu.atoms[:, 1, 0])
        assert np.array_equal(nu.weights[8:12], [[1.0, 0.0]] * 4)
        assert np.array_equal(nu.atoms[8:12, :, 0], np.column_stack([t0[8:12]] * 2))

    def test_level_points_match_the_closed_form(self):
        # every atom of a cell off the Dirac test is the nearest root on its
        # side of t0 of the closed forms in tests/oracles.py: within 1e-12 of
        # a root, with no root strictly between it and t0
        oracles = {
            "gap-family-1d": lambda s, lo, hi: cosine_level_points(
                instances.GAP_KAPPA, instances.GAP_OMEGA, s, lo, hi),
            "sin-gradient-1d": lambda s, lo, hi: sine_level_points(1.0, s, lo, hi),
        }
        for name, oracle in oracles.items():
            rp, s, t0 = level_case(name)
            a = rp.control.cs.a
            nu = relaxed_opt._level_measure(rp, s, t0)
            assert np.max(np.abs(barycenter(nu).values[:, 0] - t0)) <= 1e-14
            values = a(nu.atoms.reshape(-1, 1)).reshape(nu.weights.shape)
            assert np.max(np.abs(values - s[:, None])) <= 1e-12
            t_lo, t_hi = nu.atoms[:, 0, 0], nu.atoms[:, 1, 0]
            assert np.all(t_lo <= t0) and np.all(t0 <= t_hi)
            off = np.flatnonzero(a(t0[:, None]) != s)
            assert len(off) == rp.mesh.n_cells - 4
            for c in off:
                roots = oracle(s[c], t0[c] - 10.0, t0[c] + 10.0)
                for t in (t_lo[c], t_hi[c]):
                    assert np.min(np.abs(roots - t)) <= 1e-12, (name, c, t)
                    side = np.sign(t - t0[c])
                    inner = (side * (roots - t0[c]) > 0.0) & (side * (t - roots) > 1e-12)
                    assert not inner.any(), (name, c, t, roots[inner])

    def test_monotone_a_has_no_level_point(self):
        mesh = grid.build_mesh(1, 16)
        parts = {**co.a_clamped_linear(1.0), **co.f_tanh(), **co.cost_tracking(0.05)}
        cs = co.CoefficientSet(M=1e-3, c=0.5, C=1.0, **parts)
        rp = RelaxedProblem(ControlProblem(QuasilinearStateProblem(mesh, cs, b=1.0)))
        t0 = np.zeros(mesh.n_cells)
        with pytest.raises(ValueError, match="on no side of"):
            relaxed_opt._level_measure(rp, np.full(mesh.n_cells, 0.5), t0)

    @pytest.mark.parametrize("name", ["gap-family-1d", "sin-gradient-1d",
                                      "linear-quasilinear-1d"])
    def test_minimizer_costs_the_relaxed_value(self, name):
        rp, init = relaxable_case(name)
        rep = certify_gap(rp, samples=3, seed=0, designed_init=init)
        mu, nu, _ = rep.minimizer
        assert abs(evaluate_relaxed_cost(rp, mu, nu) - rep.relaxed) <= 1e-12
        assert mu.n_atoms == 1 and nu.n_atoms <= 2

    def test_sin_gradient_relaxes_below_the_classical_value(self):
        # the alternating scheme reported 1.9400138596358703e-3 here
        rp, init = relaxable_case("sin-gradient-1d")
        rep = certify_gap(rp, samples=3, seed=0, designed_init=init)
        assert rep.best_classical == 0.0019403520763792625
        assert rep.relaxed == 0.0014560123183857392
        assert not rep.failed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_instance_relaxes_to_its_classical_value(self, seed):
        rp, init = relaxable_case("linear-quasilinear-1d")
        rep = certify_gap(rp, samples=3, seed=seed, designed_init=init)
        assert abs(rep.relaxed - rep.best_classical) <= 1e-12

    def test_gap_family_relaxes_to_the_a_free_state_at_one(self):
        # s = 0 in every cell: the state of u = 1 with a averaged out
        rp, init = relaxable_case("gap-family-1d")
        rep = certify_gap(rp, samples=3, seed=0, designed_init=init)
        mesh = rp.mesh
        y = grid.helmholtz_solve_values(mesh, rp.b, np.ones(mesh.n_nodes))
        assert abs(rep.relaxed - control_opt._state_costs(rp.control, y)) <= 1e-12
