"""Pinned Zarantonello and Picard reports.

Both regimes iterate through one fixed-point driver, and ``test_columns``
only compares stacked solves with one-column solves, which share that
driver.  These values were recorded from the two regimes' separate loops
before the merge, so any drift in the iteration arithmetic, the iteration
count, the contraction-ratio bookkeeping or the error message shows here.

Each case solves the control ``0.3 * N(0, 1)`` (seed 7) cold, warm-started
at the state of that control shifted by 0.05, and capped at 3 iterations
with an unreachable tolerance.  The checksum is the exactly rounded sum of
``(i + 1) * y[i]`` over the nodes.
"""

import math

import numpy as np
import pytest

from qlcontrol import grid, instances
from qlcontrol.grid import ScalarField
from qlcontrol.reports import NonConvergenceError
from qlcontrol.state_monotone import solve_monotone
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
        36, 6.7610803725454595e-09, 0.666679049335892, TAU, -0.2007566773524546
    ),
    ("monotone-perturbed-1d", 1, 16, "warm"): (
        35, 9.896774884500586e-09, 0.6666742200458377, TAU, -0.20075649559952954
    ),
    ("monotone-perturbed-1d", 1, 16, "capped"): (
        3, 0.006559346561171229, 0.6666691630695799, TAU, Z_CAP.format("6.559e-03")
    ),
    ("monotone-perturbed-1d", 2, 6, "cold"): (
        38, 8.354681066556139e-09, 0.6667306693056951, TAU, -3.1402371538147826
    ),
    ("monotone-perturbed-1d", 2, 6, "warm"): (
        34, 9.591531209109093e-09, 0.6667019009569964, TAU, -3.1402367249068974
    ),
    ("monotone-perturbed-1d", 2, 6, "capped"): (
        3, 0.018188530149468026, 0.6666795521982162, TAU, Z_CAP.format("1.819e-02")
    ),
    ("sin-gradient-1d", 1, 16, "cold"): (
        10, 2.796857370310875e-10, 0.1495990926764547,
        {"final_increment": 2.985197756415143e-10}, -0.3100725576615334,
    ),
    ("sin-gradient-1d", 1, 16, "warm"): (
        10, 3.4416735315119324e-10, 0.14959867453435163,
        {"final_increment": 3.7874464824226484e-10}, -0.31007255888951984,
    ),
    ("sin-gradient-1d", 1, 16, "capped"): (
        3, 0.00016877778053223412, 0.13292872922237212,
        {"final_increment": 0.00018494347549114087}, P_CAP.format("0.1329"),
    ),
    ("sin-gradient-2d", 2, 6, "cold"): (
        9, 1.2847993554073042e-10, 0.09868892417803846,
        {"final_increment": 1.9917852886900372e-10}, -4.216977684698338,
    ),
    ("sin-gradient-2d", 2, 6, "warm"): (
        8, 3.208942574698391e-10, 0.09868388263186381,
        {"final_increment": 5.07546271268603e-10}, -4.216977679759992,
    ),
    ("sin-gradient-2d", 2, 6, "capped"): (
        3, 0.00013893850448148194, 0.09326684126960852,
        {"final_increment": 0.00021930023517385925}, P_CAP.format("0.0933"),
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
