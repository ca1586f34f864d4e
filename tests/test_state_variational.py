"""Variational state solves: energies, minimizers, minimality checks."""

import hashlib
import json
import zlib

import numpy as np
import pytest

from qlcontrol import coefficients as co
from qlcontrol import grid, instances, state_variational
from qlcontrol.grid import ScalarField
from qlcontrol.reports import NonConvergenceError
from qlcontrol.state_variational import (
    VariationalStateProblem,
    inner_energy,
    solve_state,
    verify_minimality,
)

from oracles import coordinate_descent_energy_oracle


def quadratic_problem(n=32, source=1.0):
    mesh = grid.build_mesh(1, n)
    cs = co.CoefficientSet(**co.w_quadratic())
    src = ScalarField(mesh, np.full(mesh.n_nodes, source))
    return VariationalStateProblem(mesh, cs, src)


class TestInnerEnergy:
    def test_zero_state_zero_source(self):
        p = quadratic_problem(source=0.0)
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        y = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        assert inner_energy(p, y, u) == 0.0

    def test_non_h10_state_rejected(self):
        p = quadratic_problem()
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        bad = ScalarField(p.mesh, np.ones(p.mesh.n_nodes))
        with pytest.raises(ValueError):
            inner_energy(p, bad, u)

    def test_parabola_energy_value(self):
        # W = |y'|^2/2, source = 1, y = x(1-x)/2: exact integral value is
        # 1/24 + 1/12 = 1/8 (computed from the closed-form polynomial
        # integrals); midpoint/trapezoid quadrature converges at O(h^2)
        p = quadratic_problem(n=128)
        x = p.mesh.node_coords()[:, 0]
        y = ScalarField(p.mesh, x * (1 - x) / 2)
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        val = inner_energy(p, y, u)
        assert abs(val - 0.125) <= 1e-4


class TestSolveState:
    def test_quadratic_matches_helmholtz(self):
        p = quadratic_problem()
        u = ScalarField(p.mesh, np.sin(np.pi * p.mesh.node_coords()[:, 0]))
        y, rep = solve_state(p, u)
        ref = grid.helmholtz_solve(0.0, ScalarField(p.mesh, -p.source.values))
        assert rep.converged
        assert np.max(np.abs(y.values - ref.values)) <= 1e-8

    def test_clamped_quartic_vs_coordinate_descent_oracle(self):
        mesh = grid.build_mesh(1, 32)
        cs = co.CoefficientSet(**co.w_quartic_clamped())
        src = ScalarField(mesh, np.ones(mesh.n_nodes))
        p = VariationalStateProblem(mesh, cs, src)
        u = ScalarField(mesh, np.zeros(mesh.n_nodes))
        y, rep = solve_state(p, u)
        assert rep.converged
        oracle = coordinate_descent_energy_oracle(mesh, cs.W, src.values, u.values)
        assert np.max(np.abs(y.values - oracle)) <= 1e-6

    def test_energy_trace_monotone(self):
        mesh = grid.build_mesh(1, 16)
        cs = co.CoefficientSet(**co.w_quartic_clamped())
        p = VariationalStateProblem(mesh, cs, ScalarField(mesh, np.ones(mesh.n_nodes)))
        _, rep = solve_state(p, ScalarField(mesh, np.zeros(mesh.n_nodes)))
        trace = np.array(rep.cost_trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_random_initializations_agree(self):
        mesh = grid.build_mesh(1, 16)
        cs = co.CoefficientSet(**co.w_quartic_clamped())
        p = VariationalStateProblem(mesh, cs, ScalarField(mesh, np.ones(mesh.n_nodes)))
        u = ScalarField(mesh, np.zeros(mesh.n_nodes))
        rng = np.random.default_rng(4)
        sols = []
        for _ in range(2):
            y0 = rng.standard_normal(mesh.n_nodes)
            y0[mesh.boundary_mask] = 0.0
            y, _ = solve_state(p, u, y0=ScalarField(mesh, y0))
            sols.append(y.values)
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-6

    def test_continuity_in_u(self):
        # W couples u and the gradient, so the state moves with the control;
        # the response must vanish monotonically with the perturbation scale
        mesh = grid.build_mesh(1, 32)
        cs = co.CoefficientSet(**co.w_u_scaled_quadratic(0.25))
        p = VariationalStateProblem(mesh, cs, ScalarField(mesh, np.ones(mesh.n_nodes)))
        rng = np.random.default_rng(6)
        u0 = ScalarField(mesh, np.zeros(mesh.n_nodes))
        y0, _ = solve_state(p, u0)
        direction = rng.standard_normal(mesh.n_nodes)
        drifts = []
        for scale in (1e-1, 1e-2, 1e-3):
            u = ScalarField(mesh, scale * direction)
            y, _ = solve_state(p, u)
            drifts.append(grid.l2_norm(ScalarField(mesh, y.values - y0.values)))
        assert drifts[0] > drifts[1] > drifts[2]
        assert drifts[2] <= 1e-3


    def test_plateaued_step_goes_to_polish(self):
        # captured from an optimizer run on variational-quartic-1d at h = 1/12:
        # with this warm start the accepted BB trials once left y unchanged
        # bit for bit and the loop spun to its 10,000-iteration cap
        mesh = grid.build_mesh(1, 12)
        u = ScalarField(mesh, np.array([
            -0.3903489688059055, -0.39108871936228207, -0.3918536982296071,
            -0.3908133364757734, -0.3892934242304379, -0.387896545438642,
            -0.3872699302142772, -0.3884724401392581, -0.38977945891033317,
            -0.3924062149771748, -0.3927580562745456, -0.3933295956787008,
            -0.39142182595358566,
        ]))
        y0 = ScalarField(mesh, np.array([
            0.0, 0.014464830814338562, 0.02640448626987843, 0.03575047823696582,
            0.042456614261982016, 0.04649328121855862, 0.04784533828759792,
            0.04650872095178757, 0.0424834266857881, 0.0357851192688777,
            0.026436158245177126, 0.01448768484668723, 0.0,
        ]))
        # the state the capped run returned after its polish
        expected = np.array([
            0.0, 0.014464802653713076, 0.026404429153001154, 0.035750391362541364,
            0.04245649693230772, 0.046493132785457005, 0.04784515829540131,
            0.046508509067639196, 0.04248318284258849, 0.035784938500209966,
            0.026436039277682805, 0.01448762616961344, 0.0,
        ])
        p = instances.build_state_problem("variational-quartic-1d", mesh).with_source(u)
        y, rep = solve_state(p, u, y0=y0)
        assert rep.converged and rep.residual <= 1e-8
        assert rep.iterations < 1000
        assert np.max(np.abs(y.values - expected)) <= 1e-12


def _solve_with_ladder(monkeypatch, p, u, ladder, poison_rate=None):
    """solve_state with the halving ladder set to ``ladder`` rungs per
    stacked evaluation (1: the one-halving-at-a-time loop).  With a poison
    rate, every halving trial whose bits hash to 0 mod the rate has a NaN
    energy; the poison depends only on the trial point, so both ladders see
    the same NaNs at the trials they evaluate.  Returns the outcome and how
    many poisoned trials were evaluated."""
    energies = state_variational._energies
    seen = []

    def checked(p, y, *data):  # first trials and polish stay unpoisoned
        val, Gy = energies(p, y, *data)
        if not np.isfinite(val).all():
            raise ValueError("inner energy is not finite")
        return val, Gy

    def poisoned(p, y, *data):
        val, Gy = energies(p, y, *data)
        hit = np.array([zlib.crc32(row.tobytes()) % poison_rate == 0 for row in y])
        seen.append(int(np.count_nonzero(hit)))
        return np.where(hit, np.nan, val), Gy

    with monkeypatch.context() as m:
        m.setattr(state_variational, "_LADDER", ladder)
        if poison_rate is not None:
            m.setattr(state_variational, "_energy_values", checked)
            m.setattr(state_variational, "_energies", poisoned)
        try:
            y, rep = solve_state(p, u)
        except ValueError as exc:
            return ("raised", str(exc)), sum(seen)
    return ("solved", y.values.tobytes(), rep.to_dict()), sum(seen)


class TestHalvingLadder:
    """A rejected BB step scores its next halvings as one stack; the step,
    the state and every report field stay those of one halving at a time."""

    @staticmethod
    def problem():
        mesh = grid.build_mesh(1, 12)
        u = ScalarField(mesh, 0.3 * np.random.default_rng(5).standard_normal(mesh.n_nodes))
        p = instances.build_state_problem("variational-quartic-1d", mesh).with_source(u)
        return p, u

    def test_matches_one_halving_at_a_time(self, monkeypatch):
        p, u = self.problem()
        assert (_solve_with_ladder(monkeypatch, p, u, 8)
                == _solve_with_ladder(monkeypatch, p, u, 1))

    def test_stacked_columns_match_one_halving_at_a_time(self, monkeypatch):
        mesh = grid.build_mesh(1, 16)
        p = instances.build_state_problem("variational-quartic-1d", mesh)
        U = 0.3 * np.random.default_rng(2).standard_normal((5, mesh.n_nodes))
        runs = []
        for ladder in (8, 1):
            monkeypatch.setattr(state_variational, "_LADDER", ladder)
            y, reps = state_variational.solve_state_columns(p, U, source=U)
            runs.append((y.tobytes(), [r.to_dict() for r in reps]))
        assert runs[0] == runs[1]

    def test_non_finite_energy_raises_only_where_halving_would(self, monkeypatch):
        p, u = self.problem()
        ignored = raised = 0
        for rate in (133, 181, 197, 213, 341, 533):
            stacked, seen = _solve_with_ladder(monkeypatch, p, u, 8, rate)
            single, seen_single = _solve_with_ladder(monkeypatch, p, u, 1, rate)
            assert stacked == single
            raised += stacked[0] == "raised"
            ignored += stacked[0] == "solved" and seen > seen_single
        # both sides of the rule are exercised: a NaN on a rung past the
        # accepted one is ignored, a NaN before it raises
        assert raised and ignored


class TestLineSearchExhaustion:
    def test_one_exhausted_column_leaves_the_others_alone(self, monkeypatch):
        mesh = grid.build_mesh(1, 16)
        p = instances.build_state_problem("variational-quartic-1d", mesh)
        U = 0.3 * np.random.default_rng(3).standard_normal((4, mesh.n_nodes))
        singles = [
            state_variational.solve_state_columns(p, U[i : i + 1], source=U[i : i + 1])
            for i in range(4)
        ]
        gradient = state_variational._energy_gradient

        def flipped(p, Gy, ucell, source):
            # column 2 steps uphill, so every halving of its first step is
            # rejected and it leaves the stack unconverged
            g = gradient(p, Gy, ucell, source)
            return np.where(np.all(source == U[2], axis=-1)[:, None], -g, g)

        monkeypatch.setattr(state_variational, "_energy_gradient", flipped)
        # the stack's states and reports, as the solver hands them to the raise
        results, result = [], state_variational._columns_result
        monkeypatch.setattr(state_variational, "_columns_result", lambda regime, states, reports, *a:
                            results.append((states, reports)) or result(regime, states, reports, *a))
        with pytest.raises(NonConvergenceError):
            state_variational.solve_state_columns(p, U, source=U)
        (states, reports), = results
        assert states.shape == U.shape and len(reports) == 4
        assert [r.converged for r in reports] == [True, True, False, True]
        assert reports[2].iterations == 1
        for i in (0, 1, 3):
            y, single = singles[i]
            assert np.array_equal(states[i], y[0])
            assert reports[i].to_dict() == single[0].to_dict()

    def test_every_column_exhausted_in_one_step_matches_its_own_solve(self, monkeypatch):
        mesh = grid.build_mesh(1, 16)
        p = instances.build_state_problem("variational-quartic-1d", mesh)
        U = 0.3 * np.random.default_rng(3).standard_normal((3, mesh.n_nodes))
        energies = state_variational._energies
        calls = []

        def rejecting(p, y, *data):
            # every energy after a solve's first lies above the start's, so
            # every line search of the first step runs out
            val, Gy = energies(p, y, *data)
            calls.append(1)
            return (val if len(calls) == 1 else val + 1.0), Gy

        polished = []
        polish = state_variational._polish
        monkeypatch.setattr(state_variational, "_energies", rejecting)
        monkeypatch.setattr(state_variational, "_polish",
                            lambda *args: polished.append(len(args[1])) or polish(*args))
        runs = []
        for rows in ([0, 1, 2], [0], [1], [2]):
            calls.clear()
            runs.append(state_variational.solve_state_columns(p, U[rows], source=U[rows]))
        (states, reports), singles = runs[0], runs[1:]
        # each run hands all of its columns, unmoved, to the polish
        assert polished == [3, 1, 1, 1]
        for i, (y, single) in enumerate(singles):
            assert reports[i].iterations == 1 and len(reports[i].cost_trace) == 1
            assert np.array_equal(states[i], y[0])
            assert reports[i].to_dict() == single[0].to_dict()


# (dim, n, tol): sha256 of the states and of each report's iterations,
# residual, converged, cost and cost_trace, recorded from BB's own column
# loop before it became a step on the shared driver.  The 2D entries were
# re-recorded when the 2D stencils took one neighbour pass per axis: at
# 1e-8 only rounding moved; at 1e-11 and 1e-13 the runs end in the polish,
# whose kept and rejected steps follow the last bits of the residual, so
# the iteration counts moved too (every column still converges)
PINNED_BB = {
    (1, 16, 1e-8): ("1b37d9c19395ce9a5c031f7251c18d974b9b4ba22b913bf7575e3cf8a9be1f77",
                    "acbf236a5d1b763d2b6fd57e978ab32f89097f0a573415274e330ed1ca57cd20"),
    (1, 16, 1e-11): ("3cc1f5505932155b37802dfd61737a03ebc775487f6bbd62976cba9ea709d0c3",
                     "30f699918a998727a17788ebccd832204f0a8885a03d7ff53e15114151d85860"),
    (1, 16, 1e-13): ("1721347025a09ec4b37f43a12e974e05ec9196198208c068a80b1ab8e224b0f5",
                     "69e847bb086260ea3a219fcd143816d5d0515c83cd8c10cfd8cea00efd185f38"),
    (1, 32, 1e-8): ("4641fb67c70b8c2900292a5d7d027d93923b69ec647d6a11829f0358960a13aa",
                    "62c50795cfc4d1cc650a9cdc3bc6cd8eb97b2e2f0ac7b960d7beded6fa48b1ea"),
    (1, 32, 1e-11): ("8451685d048ab0916391f13281142b3ff66efe181e212012bacdcd4dde82877f",
                     "8e85c0e3a54db1ce4ca077562621b74e567c8b44bb34a1212f0d13dece4701e8"),
    (1, 32, 1e-13): ("9097f10519991fd36d42d292c9c54d815bbe5000d529c62fcfefb63ebf7b7aaa",
                     "f6176b996426a528e92e685e82590669204a73f166e2bcc96320ecdf49a83c09"),
    (2, 6, 1e-8): ("2d910ce3fa3c1f00ac02cc8c2f328c3070ad3658a610f1d58823de65e2ad3552",
                   "49f5c164bc9f4abf9e4e5afade3268b102a8b66a0842647935d823be69cc33e6"),
    (2, 6, 1e-11): ("a336a8927e99936e85dfb4732d1b75fb7627fc3b700a47fed826e131cb629242",
                    "afbf6d7f1d4c05ae0870ac07f8264e7bc3798103370a0b3a1e94a1158bf23b68"),
    (2, 6, 1e-13): ("4d85ddacccf70b9d820a7a943177ef6a34d2f65f3c531b645fe2c4bdfaf9b917",
                    "11fec242981c74e81d8f96348d846d9fc669a779b91442fbd95c459b79e5c14e"),
}


@pytest.mark.parametrize("dim, n, tol", list(PINNED_BB))
def test_stacked_bb_matches_pinned_digests(monkeypatch, dim, n, tol):
    # five 0.3 N(0, 1) controls (seed 7) with their f(u) sources; the n = 32
    # stacks run 247-473 iterations, and the tighter tolerances end in the
    # polish
    polished = []
    polish = state_variational._polish
    monkeypatch.setattr(state_variational, "_polish",
                        lambda *args: polished.append(1) or polish(*args))
    mesh = grid.build_mesh(dim, n)
    p = instances.build_state_problem("variational-quartic-1d", mesh)
    U = 0.3 * np.random.default_rng(7).standard_normal((5, mesh.n_nodes))
    y, reps = state_variational.solve_state_columns(
        p, U, source=np.asarray(p.cs.f(U), dtype=float), tol=tol
    )
    fields = [[r.iterations, r.residual, r.converged, r.cost, r.cost_trace] for r in reps]
    assert (hashlib.sha256(y.tobytes()).hexdigest(),
            hashlib.sha256(json.dumps(fields).encode()).hexdigest()) == PINNED_BB[dim, n, tol]
    assert len(polished) == (tol < 1e-8)


def _polish_one(p, y, u, source, tol):
    """The polish of one column, one step at a time: a step along the lifted
    energy gradient with step tau, kept only if it lowers the lifted
    residual; tau grows by 1.25 (to at most 1) after a kept step and halves
    after any other, and the column stops at ``tol``, once tau < 1e-6 or
    after 200 steps.  Returns the state, its residual and the stop."""
    data = state_variational._column_data(p.mesh, u[None], source[None])

    def residual(y):
        g = state_variational._energy_gradient(p, grid.gradient_values(p.mesh, y), *data)
        return grid.lift_values(p.mesh, g)[1][0]

    y = y[None]
    res = residual(y)
    tau, steps = 1.0, 0
    while res > tol:
        if steps == 200:
            return y[0], res, "cap"
        g = state_variational._energy_gradient(p, grid.gradient_values(p.mesh, y), *data)
        trial = y - tau * grid.helmholtz_solve_values(p.mesh, 0.0, g)
        rtrial = residual(trial)
        steps += 1
        if rtrial < res:
            y, res, tau = trial, rtrial, min(tau * 1.25, 1.0)
        else:
            tau *= 0.5
            if tau < 1e-6:
                return y[0], res, "floor"
    return y[0], res, "tol"


class TestPolish:
    def test_stacked_polish_equals_one_column_loop(self):
        # W = (1 + 0.99 tanh u)|grad y|^2/2: a control of +-5 on the two
        # halves makes the energy ill-conditioned (cap); a 1e8 source puts
        # the residual's rounding floor above the tolerance (floor)
        mesh = grid.build_mesh(1, 16)
        x = mesh.node_coords()[:, 0]
        cs = co.CoefficientSet(**co.w_u_scaled_quadratic(0.99))
        p = VariationalStateProblem(mesh, cs, ScalarField(mesh, np.ones(mesh.n_nodes)))
        U = np.array([np.full(mesh.n_nodes, 0.3), np.zeros(mesh.n_nodes),
                      np.where(x < 0.5, 5.0, -5.0)])
        S = np.array([np.sin(7.0 * x), 1e8 * np.sin(7.0 * x), np.ones(mesh.n_nodes)])
        tol = 1e-12
        y, res, energy = state_variational._polish(
            p, np.zeros(U.shape), state_variational._column_data(mesh, U, S), tol
        )
        stops = []
        for i in range(len(U)):
            y_ref, res_ref, stop = _polish_one(p, np.zeros(mesh.n_nodes), U[i], S[i], tol)
            stops.append(stop)
            assert np.array_equal(y[i], y_ref)
            assert res[i] == res_ref
            data = state_variational._column_data(mesh, U[i][None], S[i][None])
            assert energy[i] == state_variational._energy_values(p, y_ref[None], *data)[0][0]
        assert stops == ["tol", "floor", "cap"]


class TestWithSource:
    def test_runs_no_w_checks(self, monkeypatch):
        p = quadratic_problem()

        def forbidden(*args, **kwargs):
            raise AssertionError("with_source re-ran a W check")

        monkeypatch.setattr(state_variational, "check_w_growth", forbidden)
        monkeypatch.setattr(state_variational, "check_w_convexity", forbidden)
        src = ScalarField(p.mesh, np.full(p.mesh.n_nodes, 2.0))
        q = p.with_source(src)
        assert q.source is src
        assert (q.mesh, q.cs) == (p.mesh, p.cs)
        assert np.all(p.source.values == 1.0)

    def test_rejects_cell_source(self):
        p = quadratic_problem()
        with pytest.raises(ValueError, match="on nodes$"):
            ScalarField(p.mesh, np.zeros(p.mesh.n_cells))
        other = ScalarField(grid.build_mesh(1, 8), np.zeros(9))
        with pytest.raises(ValueError):
            p.with_source(other)


class TestVerifyMinimality:
    def test_quadratic_passes_100_trials(self):
        p = quadratic_problem()
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        y, _ = solve_state(p, u)
        rep = verify_minimality(p, y, u, trials=100)
        assert rep.passed

    def test_constructed_violation_fails(self):
        p = quadratic_problem()
        u = ScalarField(p.mesh, np.zeros(p.mesh.n_nodes))
        y, _ = solve_state(p, u)
        bad = np.array(y.values)
        bad[p.mesh.n_nodes // 2] += 0.1
        rep = verify_minimality(p, ScalarField(p.mesh, bad), u, trials=50)
        assert not rep.passed

    def test_clamped_quartic_passes(self):
        mesh = grid.build_mesh(1, 16)
        cs = co.CoefficientSet(**co.w_quartic_clamped())
        p = VariationalStateProblem(mesh, cs, ScalarField(mesh, np.ones(mesh.n_nodes)))
        u = ScalarField(mesh, np.zeros(mesh.n_nodes))
        y, _ = solve_state(p, u)
        assert verify_minimality(p, y, u, trials=60).passed


class TestValidation:
    def test_nonconvex_w_rejected(self):
        # W'' = 1 + 2 cos(y_0) < 0 near y_0 = pi; the growth bounds hold, so
        # only the convexity check can reject it
        def W(Y, u):
            return 0.5 * np.sum(Y * Y, axis=1) + 2.0 * (1.0 - np.cos(Y[:, 0]))

        def dW(Y, u):
            out = np.array(Y, dtype=float)
            out[:, 0] += 2.0 * np.sin(Y[:, 0])
            return out

        mesh = grid.build_mesh(1, 8)
        cs = co.CoefficientSet(W=W, dW=dW, c=0.1, C=5.0)
        with pytest.raises(ValueError, match="convexity"):
            VariationalStateProblem(mesh, cs, ScalarField(mesh, np.zeros(mesh.n_nodes)))

    def test_infinite_inner_energy_rejected(self):
        # W is +inf beyond |y| = 10, outside the radius-10 ball that the
        # construction checks sample; a start of 100 has cell gradients of
        # 800 at the boundary
        def W(Y, u):
            n2 = np.sum(Y * Y, axis=1)
            return np.where(n2 <= 100.0, 0.5 * n2, np.inf)

        mesh = grid.build_mesh(1, 8)
        cs = co.CoefficientSet(W=W, dW=lambda Y, u: Y, c=0.4, C=0.6)
        zero = ScalarField(mesh, np.zeros(mesh.n_nodes))
        p = VariationalStateProblem(mesh, cs, zero)
        y0 = ScalarField(mesh, np.where(mesh.boundary_mask, 0.0, 100.0))
        with pytest.raises(ValueError, match="^inner energy is not finite$"):
            solve_state(p, zero, y0=y0)

    def test_w_without_dw_rejected(self):
        mesh = grid.build_mesh(1, 8)
        parts = co.w_quadratic()
        del parts["dW"]
        with pytest.raises(ValueError, match="dW"):
            VariationalStateProblem(
                mesh, co.CoefficientSet(**parts), ScalarField(mesh, np.zeros(mesh.n_nodes)))
