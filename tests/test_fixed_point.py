"""Pinned Zarantonello and Picard reports.

Both regimes iterate through one fixed-point driver, and ``test_columns``
only compares stacked solves with one-column solves, which share that
driver.  These values were recorded from the two regimes' separate loops
before the merge, so any drift in the iteration arithmetic, the iteration
count, the contraction-ratio bookkeeping or the error message shows here.

Each case solves the control ``0.3 * N(0, 1)`` (seed 7) cold, warm-started
at the state of that control shifted by 0.05, and capped at 3 iterations
with an unreachable tolerance.  The checksum is the exactly rounded sum of
``(i + 1) * y[i]`` over the nodes.  A column stuck at its floating-point
floor stops after a 100-iteration window with no new lowest measure.

The 1D entries were re-recorded when the 1D Helmholtz backbone became a
closed-form Green's function, and the Picard entries when Picard started
carrying each iterate's gradient.  Both shift rounding only, and every
iteration count stays: the checksums move by at most 2e-15 relative, the
residuals and final increments by at most 5e-17 absolute (they are
differences of O(1) terms, so up to 1.3e-7 relative near 3e-10), and the
measured ratios, quotients of two such increments, by at most 7.2e-9
relative.
"""

import math

import numpy as np
import pytest

from qlcontrol import grid, instances
from qlcontrol.control_opt import _source_kw, state_solvers
from qlcontrol.grid import ScalarField
from qlcontrol.reports import NonConvergenceError
from qlcontrol.state_monotone import solve_monotone, solve_monotone_columns
from qlcontrol.state_quasilinear import solve_quasilinear

TAU = {"tau": 0.2222222222222222}
Z_CAP = "Zarantonello iteration did not reach 1e-30 in 3 steps (last residual {})"
P_CAP = (
    "Picard iteration did not contract to 1e-30 within 3 steps (measured ratio "
    "{}); b may barely exceed the uniqueness threshold"
)

# (instance, dim, n, mode): (iterations, residual, contraction_ratio,
# extras, checksum or error message)
PINNED = {
    ("monotone-perturbed-1d", 1, 16, "cold"): (
        36, 6.761080372895221e-09, 0.6666790494974898, TAU, -0.2007566773524546
    ),
    ("monotone-perturbed-1d", 1, 16, "warm"): (
        35, 9.896774882606685e-09, 0.6666742199994937, TAU, -0.20075649559952954
    ),
    ("monotone-perturbed-1d", 1, 16, "capped"): (
        3, 0.006559346561171228, 0.66666916306958, TAU, Z_CAP.format("6.559e-03")
    ),
    ("monotone-perturbed-1d", 2, 6, "cold"): (
        38, 8.35468106661912e-09, 0.666730669369731, TAU, -3.140237153814783
    ),
    ("monotone-perturbed-1d", 2, 6, "warm"): (
        34, 9.591531209866511e-09, 0.6667019009702861, TAU, -3.1402367249068974
    ),
    ("monotone-perturbed-1d", 2, 6, "capped"): (
        3, 0.01818853014946803, 0.6666795521982163, TAU, Z_CAP.format("1.819e-02")
    ),
    ("sin-gradient-1d", 1, 16, "cold"): (
        10, 2.7968571048232344e-10, 0.14959909159669996,
        {"final_increment": 2.985197738189759e-10}, -0.3100725576615329,
    ),
    ("sin-gradient-1d", 1, 16, "warm"): (
        10, 3.441673095430693e-10, 0.14959867472570001,
        {"final_increment": 3.78744650343803e-10}, -0.3100725588895195,
    ),
    ("sin-gradient-1d", 1, 16, "capped"): (
        3, 0.00016877778053220094, 0.13292872922237917,
        {"final_increment": 0.00018494347549115065}, P_CAP.format("0.1329"),
    ),
    ("sin-gradient-2d", 2, 6, "cold"): (
        9, 1.2847994557620524e-10, 0.09868892811489628,
        {"final_increment": 1.991785364659448e-10}, -4.216977684698338,
    ),
    ("sin-gradient-2d", 2, 6, "warm"): (
        8, 3.2089424455990316e-10, 0.09868388257199497,
        {"final_increment": 5.075462676109278e-10}, -4.216977679759992,
    ),
    ("sin-gradient-2d", 2, 6, "capped"): (
        3, 0.0001389385044814557, 0.09326684126960513,
        {"final_increment": 0.00021930023517385152}, P_CAP.format("0.0933"),
    ),
}


@pytest.mark.parametrize("name, dim, n, mode", list(PINNED))
def test_report_matches_pinned_values(name, dim, n, mode):
    iterations, residual, ratio, extras, last = PINNED[name, dim, n, mode]
    mesh = grid.build_mesh(dim, n)
    p = instances.build_state_problem(name, mesh)
    solve = solve_monotone if name.startswith("monotone") else solve_quasilinear
    u = 0.3 * np.random.default_rng(7).standard_normal(mesh.n_nodes)
    kw = {}
    if mode == "warm":
        kw["y0"] = solve(p, ScalarField(mesh, u + 0.05))[0]
    if mode == "capped":
        with pytest.raises(NonConvergenceError) as exc:
            solve(p, ScalarField(mesh, u), tol=1e-30, max_iterations=3)
        assert str(exc.value) == last
        rep = exc.value.report
    else:
        y, rep = solve(p, ScalarField(mesh, u), **kw)
        assert math.fsum(y.values * np.arange(1, mesh.n_nodes + 1)) == last
    assert rep.converged == (mode != "capped")
    assert rep.iterations == iterations
    assert rep.residual == residual
    assert rep.contraction_ratio == ratio
    assert rep.extras == extras


@pytest.mark.parametrize("level", [1e8, 1e30])
def test_stalled_column_stops_early(level):
    # a huge constant control leaves the residual at its floating-point
    # floor, above the tolerance; the loop used to run to its 100,000 cap
    mesh = grid.build_mesh(1, 8)
    p = instances.build_state_problem("monotone-perturbed-1d", mesh)
    with pytest.raises(NonConvergenceError) as exc:
        solve_monotone(p, ScalarField(mesh, np.full(mesh.n_nodes, level)))
    rep = exc.value.report
    assert not rep.converged
    assert rep.iterations < 1000
    assert f"stalled after {rep.iterations} steps" in str(exc.value)


def test_stalled_column_leaves_the_others_alone():
    # one stalled column in a stack: the converging column keeps its
    # one-column solve bit for bit
    mesh = grid.build_mesh(1, 8)
    p = instances.build_state_problem("monotone-perturbed-1d", mesh)
    u = 0.3 * np.random.default_rng(7).standard_normal(mesh.n_nodes)
    y, rep = solve_monotone(p, ScalarField(mesh, u))
    with pytest.raises(NonConvergenceError) as exc:
        solve_monotone_columns(p, np.stack([np.full(mesh.n_nodes, 1e8), u]))
    stalled, converged = exc.value.reports
    assert not stalled.converged and stalled.iterations < 1000
    assert converged.to_dict() == rep.to_dict()
    assert np.array_equal(exc.value.states[1], y.values)


class TestFloor:
    """The driver's ``floor`` mask, on a step that adds 1 to the iterate and
    measures 2**-iterate: with tol = 2**-3 a column converges once its
    iterate reaches 3, and it is at its floor once it reaches its own
    ``floor_at``."""

    @staticmethod
    def step(y, floor_at):
        nxt = y + 1.0
        return nxt, 2.0 ** -nxt[:, 0], nxt[:, 0] >= floor_at, (nxt, floor_at)

    def test_floor_stops_unconverged_with_its_candidate(self):
        y0 = np.array([[0.0], [0.0], [-2.0]])
        floor_at = np.array([2.0, 3.0, np.inf])
        states, outcome = grid._fixed_point_columns(
            self.step, (y0, floor_at), 2.0**-3, 50, 1
        )
        # column 0 stops at its floor, one step short of the tolerance;
        # column 1 reaches both at once and is converged; column 2 has no
        # floor and keeps stepping after the others stopped
        assert outcome == [(2, 0.25, 0.5, False), (3, 0.125, 0.5, True),
                           (5, 0.125, 0.5, True)]
        assert np.array_equal(states, [[2.0], [3.0], [3.0]])

    def test_no_floor_runs_to_the_cap(self):
        y0 = np.array([[-100.0], [0.0]])
        states, outcome = grid._fixed_point_columns(
            lambda y: (y + 1.0, 2.0 ** -(y[:, 0] + 1.0), None, (y + 1.0,)),
            (y0,), 2.0**-3, 4, 1,
        )
        assert outcome == [(4, 2.0**96, 0.5, False), (3, 0.125, 0.5, True)]
        assert np.array_equal(states, [[-96.0], [3.0]])


class TestStallWindow:
    """The stall rule on a step that counts iterations and reads each
    column's measure at iteration it off row it - 1 of a table: a column
    stops at the end of a 100-iteration window with no measure below the
    lowest before it.  The stop iterations and measures were recorded from
    the driver that kept each window's measures in a list."""

    @staticmethod
    def run(table, floor_at):
        def step(y, rows, floor_at):
            nxt = y + 1.0
            it = nxt[:, 0].astype(int)
            return nxt, table[rows, it - 1], it == floor_at, (nxt, rows, floor_at)

        k, cap = table.shape
        return grid._fixed_point_columns(
            step, (np.zeros((k, 1)), np.arange(k), np.asarray(floor_at)), 1e-3, cap, 1
        )

    def test_columns_leaving_mid_window_and_nan_measures(self):
        it = np.arange(1.0, 401.0)
        table = np.array([
            np.maximum(1 + 1 / it, 1 + 1 / 150),  # flat from 150: stalls at 300
            2.0 ** (-it / 7),  # converges at 70, mid-window
            np.full(it.size, np.nan),  # no measure ever sets a low: stalls at 100
            np.where(it % 2 == 1, 1 + 1 / it, np.nan),  # floor at 250, mid-window
            it,  # rising: no new low in the second window
            np.where((it >= 2) & (it <= 250), np.nan, 1 + 1 / it),  # all-NaN 2nd window
            1 + 1 / it,  # a new low every iteration: runs to the cap
        ])
        states, outcome = self.run(table, [0, 0, 0, 250, 0, 0, 0])
        assert states[:, 0].tolist() == [300, 70, 100, 250, 200, 200, 400]
        np.testing.assert_equal(outcome, [
            (300, 1.0066666666666666, 1.0, False),
            (70, 0.0009765625, 0.905723664263907, True),
            (100, np.nan, np.nan, False),
            (250, np.nan, np.nan, False),
            (200, 200.0, 2.0, False),
            (200, np.nan, np.nan, False),
            (400, 1.0025, 0.99999375, False),
        ])

    def test_stacked_stops_equal_one_column_runs(self):
        it = np.arange(1.0, 401.0)
        table = np.array([
            np.maximum(1 + 1 / it, 1 + 1 / 150),
            np.where(it % 3 == 0, np.nan, np.maximum(2 - it / 100, 0.5)),
            2.0 ** (-it / 7),
        ])
        stacked = self.run(table, [0, 0, 0])
        for c in range(len(table)):
            states, outcome = self.run(table[c : c + 1], [0])
            assert np.array_equal(states[0], stacked[0][c])
            np.testing.assert_equal(outcome[0], stacked[1][c])


@pytest.mark.parametrize("bad, message", [
    ({"tol": float("nan")}, "^tol must be a non-negative number, got nan"),
    ({"tol": -1.0}, "^tol must be a non-negative number, got -1.0"),
    ({"max_iterations": -1}, "^max_iterations must be a non-negative integer, got -1$"),
], ids=["tol-nan", "tol-negative", "cap-negative"])
@pytest.mark.parametrize("name", ["variational-quartic-1d", "monotone-perturbed-1d",
                                  "sin-gradient-1d"])
def test_driver_rejects_bad_tolerance_and_cap(name, bad, message):
    # a NaN or negative tol ran into the stall window (or the cap) and
    # reported it as a solver failure; a negative cap read "within -1 steps"
    cp = instances.build_control_problem(name, grid.build_mesh(1, 8))
    u = ScalarField(cp.mesh, np.zeros(cp.mesh.n_nodes))
    solve = state_solvers(cp.regime)[0]
    with pytest.raises(ValueError, match=message):
        solve(cp.state, u, **bad, **_source_kw(cp.state, u.values))
