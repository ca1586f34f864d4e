"""Young-measure fields: moments, classes, projection, laminate realization."""

import numpy as np
import pytest

from qlcontrol import grid
from qlcontrol import young_measure as ym
from qlcontrol.grid import ScalarField, VectorField

from oracles import laminate_oracle


def psi_sq(lam):
    return np.sum(lam * lam, axis=1)


def psi_sin(lam):
    return np.sin(lam[:, 0])


class TestDiracField:
    def test_zero_field_is_ph10(self):
        mesh = grid.build_mesh(1, 4)
        d = ym.dirac_field(VectorField(mesh, np.zeros((4, 1))))
        assert d.klass == "PH10"

    def test_gradient_of_h10_is_ph10(self):
        mesh = grid.build_mesh(2, 4)
        rng = np.random.default_rng(0)
        yv = rng.standard_normal(mesh.n_nodes)
        yv[mesh.boundary_mask] = 0.0
        d = ym.dirac_field(grid.gradient(ScalarField(mesh, yv)))
        assert d.klass == "PH10"

    def test_constant_nonzero_is_ph1_not_ph10(self):
        mesh = grid.build_mesh(1, 4)
        d = ym.dirac_field(VectorField(mesh, np.ones((4, 1))))
        assert d.klass == "PH1"

    def test_ph1_rejected_on_2d_before_any_solve(self, monkeypatch):
        mesh = grid.build_mesh(2, 4)
        calls = count_potential_solves(monkeypatch)
        with pytest.raises(ValueError, match="1D meshes only"):
            ym.YoungMeasureField(mesh, np.ones((mesh.n_cells, 1, 2)), np.ones((mesh.n_cells, 1)),
                                 "PH1")
        assert calls == []

    def test_curl_field_unconstrained(self):
        mesh = grid.build_mesh(2, 4)
        rng = np.random.default_rng(1)
        d = ym.dirac_field(VectorField(mesh, rng.standard_normal((mesh.n_cells, 2))))
        assert d.klass == "unconstrained"


def count_potential_solves(monkeypatch):
    """List that gains one entry per grid.gradient_potential_values call."""
    calls = []
    solve = grid.gradient_potential_values

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(grid, "gradient_potential_values", counted)
    return calls


class TestPotentialSolves:
    """A field keeps the barycenter and the potential its class check
    solves for."""

    @pytest.mark.parametrize("klass", ["PH10", "PH1"])
    def test_potential_and_barycenter_solve_nothing(self, monkeypatch, klass):
        mesh = grid.build_mesh(1, 8)
        rng = np.random.default_rng(4)
        yv = rng.standard_normal(mesh.n_nodes)
        if klass == "PH10":
            yv[mesh.boundary_mask] = 0.0
        g = grid.gradient_values(mesh, yv)
        atoms = np.stack([g - 0.5, g + 1.5], axis=1)
        field = ym.YoungMeasureField(mesh, atoms, np.tile([0.75, 0.25], (8, 1)), klass, 2.0)
        calls = count_potential_solves(monkeypatch)
        pot = ym.potential(field)
        bary = ym.barycenter(field)
        assert calls == []
        # the values a fresh solve gives, bit for bit
        space = "h10" if klass == "PH10" else "h1"
        fresh, _ = grid.gradient_potential(bary, space)
        offset = 2.0 if klass == "PH1" else 0.0
        assert np.array_equal(pot.values, fresh.values + offset)
        assert np.array_equal(bary.values, np.einsum("ck,ckn->cn", field.weights, atoms))

    @pytest.mark.parametrize(
        "values, klass, solves",
        [("h10", "PH10", 1), ("ones", "unconstrained", 1), ("noise", "unconstrained", 1)],
    )
    def test_dirac_field_solves_once_per_class_tried(self, monkeypatch, values, klass,
                                                     solves):
        mesh = grid.build_mesh(2, 4)
        rng = np.random.default_rng(5)
        if values == "h10":
            yv = rng.standard_normal(mesh.n_nodes)
            yv[mesh.boundary_mask] = 0.0
            v = grid.gradient(ScalarField(mesh, yv))
        elif values == "ones":
            v = VectorField(mesh, np.ones((mesh.n_cells, 2)))
        else:
            v = VectorField(mesh, rng.standard_normal((mesh.n_cells, 2)))
        calls = count_potential_solves(monkeypatch)
        d = ym.dirac_field(v)
        assert d.klass == klass
        assert len(calls) == solves
        if klass != "unconstrained":
            ym.potential(d)
            assert len(calls) == solves


class TestMoments:
    def test_dirac_reproduces_composition(self):
        mesh = grid.build_mesh(1, 8)
        rng = np.random.default_rng(2)
        v = VectorField(mesh, rng.standard_normal((8, 1)))
        d = ym.dirac_field(v)
        for psi in (lambda l: l[:, 0], psi_sq, psi_sin):
            assert np.array_equal(ym.moment(d, psi), psi(v.values))

    def test_symmetric_two_atom(self):
        mesh = grid.build_mesh(1, 4)
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        assert np.allclose(ym.moment(two, lambda l: l[:, 0]), 0.0, atol=1e-15)
        assert np.allclose(ym.moment(two, psi_sq), 1.0, atol=1e-15)
        assert np.allclose(ym.moment(two, psi_sin), 0.0, atol=1e-15)

    def test_weighted_atoms_arithmetic(self):
        mesh = grid.build_mesh(1, 4)
        f = ym.uniform_two_atom(mesh, 0.0, 2.0, 0.25)
        assert np.allclose(ym.barycenter(f).values[:, 0], 0.5)
        assert np.allclose(ym.moment(f, psi_sq), 1.0)

    def test_dirac_barycenter_and_second_moment(self):
        mesh = grid.build_mesh(1, 8)
        rng = np.random.default_rng(3)
        v = VectorField(mesh, rng.standard_normal((8, 1)))
        d = ym.dirac_field(v)
        assert np.array_equal(ym.barycenter(d).values, v.values)
        assert abs(ym.second_moment(d) - grid.l2_norm(v) ** 2) <= 1e-14

    def test_half_half_second_moment_is_domain_volume(self):
        mesh = grid.build_mesh(1, 4)
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        assert abs(ym.second_moment(two) - 1.0) <= 1e-14

    def test_nonfinite_psi_rejected(self):
        mesh = grid.build_mesh(1, 4)
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                ym.moment(two, lambda l: np.log(l[:, 0]))  # log(-1) = nan

    def test_jensen_inequality_per_cell(self):
        rng = np.random.default_rng(4)
        mesh = grid.build_mesh(1, 6)
        atoms = rng.standard_normal((6, 3, 1))
        w = rng.random((6, 3))
        w /= w.sum(axis=1, keepdims=True)
        f = ym.YoungMeasureField(mesh, atoms, w)
        gap = ym.moment(f, psi_sq) - np.sum(
            ym.barycenter(f).values**2, axis=1
        )
        assert np.min(gap) >= -1e-12
        d = ym.dirac_field(VectorField(mesh, rng.standard_normal((6, 1))))
        gap_d = ym.moment(d, psi_sq) - np.sum(
            ym.barycenter(d).values**2, axis=1
        )
        assert np.max(np.abs(gap_d)) <= 1e-12  # equality iff single atom


class TestValidation:
    def test_weights_must_normalize(self):
        mesh = grid.build_mesh(1, 4)
        atoms = np.zeros((4, 2, 1))
        w = np.full((4, 2), 0.4)
        with pytest.raises(ValueError):
            ym.YoungMeasureField(mesh, atoms, w)

    def test_negative_weights_rejected(self):
        mesh = grid.build_mesh(1, 4)
        atoms = np.zeros((4, 2, 1))
        w = np.column_stack([np.full(4, 1.2), np.full(4, -0.2)])
        with pytest.raises(ValueError):
            ym.YoungMeasureField(mesh, atoms, w)

    def test_nan_weights_rejected(self):
        # a NaN weight passed both the sign and the row-sum check
        mesh = grid.build_mesh(1, 4)
        w = np.full((4, 2), 0.5)
        w[1, 0] = np.nan
        with pytest.raises(ValueError, match="^weights must be finite$"):
            ym.YoungMeasureField(mesh, np.zeros((4, 2, 1)), w)

    def test_class_tag_checked(self):
        mesh = grid.build_mesh(1, 4)
        atoms = np.ones((4, 1, 1))  # constant barycenter: PH1, not PH10
        with pytest.raises(ValueError):
            ym.YoungMeasureField(mesh, atoms, np.ones((4, 1)), "PH10")


class TestProjectClass:
    def test_idempotent_on_member(self):
        mesh = grid.build_mesh(1, 4)
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        p = ym.project_class(two, "PH1")
        assert np.max(np.abs(p.atoms - two.atoms)) <= 1e-12
        pp = ym.project_class(p, "PH1")
        assert np.max(np.abs(pp.atoms - p.atoms)) <= 1e-12

    def test_constant_barycenter_to_ph10(self):
        # explicit 1D least squares: the projection removes the mean slope
        mesh = grid.build_mesh(1, 4)
        d = ym.dirac_field(VectorField(mesh, np.full((4, 1), 0.7)))
        p = ym.project_class(d, "PH10")
        assert p.klass == "PH10"
        assert np.max(np.abs(ym.barycenter(p).values)) <= 1e-12

    def test_2d_nongradient_vs_dense_least_squares(self):
        rng = np.random.default_rng(5)
        mesh = grid.build_mesh(2, 4)
        v = VectorField(mesh, rng.standard_normal((mesh.n_cells, 2)))
        d = ym.dirac_field(v)
        p = ym.project_class(d, "PH10")
        # dense oracle: min ||G y - v|| over H1_0 via lstsq on the assembled
        # gradient's interior columns
        interior = mesh.interior_indices
        G = np.zeros((2 * mesh.n_cells, interior.size))
        for jcol, node in enumerate(interior):
            e = np.zeros(mesh.n_nodes)
            e[node] = 1.0
            G[:, jcol] = grid.gradient_values(mesh, e).T.ravel()
        sol, *_ = np.linalg.lstsq(G, v.values.T.ravel(), rcond=None)
        proj = G @ sol
        bary = ym.barycenter(p).values.T.ravel()
        assert np.max(np.abs(bary - proj)) <= 1e-9

    def test_projection_is_exact_member(self):
        rng = np.random.default_rng(6)
        mesh = grid.build_mesh(2, 3)
        v = VectorField(mesh, rng.standard_normal((mesh.n_cells, 2)))
        p = ym.project_class(ym.dirac_field(v), "PH10")
        bary = ym.barycenter(p)
        _, res = grid.gradient_potential(bary, "h10")
        assert res <= 1e-9 * (1.0 + grid.l2_norm(bary))


class TestRealizeSequence:
    def test_single_atom_returns_base_potential(self):
        mesh = grid.build_mesh(1, 4)
        single = ym.YoungMeasureField(
            mesh, np.full((4, 1, 1), 0.5), np.ones((4, 1)), "PH1", 2.0
        )
        for j in (1, 4, 16):
            u = ym.realize_sequence(single, j)
            assert u.mesh is mesh or u.mesh == mesh
            x = mesh.node_coords()[:, 0]
            assert np.allclose(u.values, 0.5 * x - 0.25 + 2.0, atol=1e-12)

    def test_symmetric_two_atom_exact_moments(self):
        mesh = grid.build_mesh(1, 4)
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        u8 = ym.realize_sequence(two, 8)
        slopes = grid.gradient(u8).values[:, 0]
        r = u8.mesh.n_cells // 4
        for i in range(4):
            cell = slopes[i * r : (i + 1) * r]
            assert np.mean(cell) == 0.0
            assert np.mean(cell**2) == 1.0
            assert abs(np.mean(np.sin(cell))) <= 1e-16

    def test_endpoint_match_exact(self):
        mesh = grid.build_mesh(1, 8)
        two = ym.uniform_two_atom(mesh, -0.5, 1.5, 0.25, potential_offset=0.3)
        pot = ym.potential(two)
        u = ym.realize_sequence(two, 4)
        r = u.mesh.n_cells // 8
        assert np.max(np.abs(u.values[::r] - pot.values)) <= 1e-14

    @pytest.mark.parametrize(
        "psi", [lambda l: l[:, 0], psi_sq, psi_sin], ids=["id", "square", "sin"]
    )
    def test_moment_error_decays_like_one_over_j(self, psi):
        # incommensurate weight: realized moments converge at rate K/j
        mesh = grid.build_mesh(1, 4)
        theta = 1.0 / 3.0
        two = ym.uniform_two_atom(mesh, -1.0, 2.0, theta)
        target = ym.moment(two, psi)[0]
        errs = []
        for j in (2, 8, 32):
            u = ym.realize_sequence(two, j)
            slopes = grid.gradient(u).values[:, 0]
            r = u.mesh.n_cells // 4
            errs.append(abs(np.mean(psi(slopes[:, None])[:r]) - target))
        assert errs[2] <= errs[0] / 4 + 1e-12
        assert errs[2] <= 3.0 / 32  # K/j with a generous constant

    def test_histogram_matches_weights_at_j64(self):
        mesh = grid.build_mesh(1, 4)
        theta = 0.3
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, theta)
        u = ym.realize_sequence(two, 64)
        slopes = grid.gradient(u).values[:, 0]
        r = u.mesh.n_cells // 4
        for i in range(4):
            cell = slopes[i * r : (i + 1) * r]
            upper_frac = np.mean(np.abs(cell - 1.0) < np.abs(cell + 1.0))
            assert abs(upper_frac - theta) <= 1.0 / 64

    @pytest.mark.parametrize("q", [1, 3, 8])
    @pytest.mark.parametrize("j", [1, 2, 3, 5, 16, 32])
    def test_matches_loop_laminate_bit_for_bit(self, monkeypatch, j, q):
        rng = np.random.default_rng(1000 * j + q)
        n = 7
        mesh = grid.build_mesh(1, n)
        atoms = rng.normal(0.0, 1.0, (n, 2, 1))  # either order within a cell
        theta = rng.uniform(0.02, 0.98, n)
        assert np.all(np.abs(theta * q - np.rint(theta * q)) > 1e-3)  # off the q grid
        theta[[1, 4]] = 0.0
        theta[5] = 1.0  # zero weights on either atom
        weights = np.column_stack([1.0 - theta, theta])
        field = ym.YoungMeasureField(mesh, atoms, weights, "PH1", 0.3)
        monkeypatch.setattr(ym, "SUBCELLS_PER_PERIOD", q)
        u = ym.realize_sequence(field, j)
        assert u.mesh.cells_per_axis == n * j * q
        want = laminate_oracle(atoms[..., 0], weights, ym.potential(field).values, j, q)
        assert np.array_equal(u.values, want)

    @pytest.mark.parametrize("j", [True, 2.5, 2.0, 0, -1])
    def test_rejects_j_other_than_a_positive_integer(self, j):
        two = ym.uniform_two_atom(grid.build_mesh(1, 4), -1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=f"^j must be a positive integer, got {j!r}$"):
            ym.realize_sequence(two, j)

    def test_accepts_a_numpy_integer_j(self):
        two = ym.uniform_two_atom(grid.build_mesh(1, 4), -1.0, 1.0, 0.5)
        assert np.array_equal(ym.realize_sequence(two, np.int64(4)).values,
                              ym.realize_sequence(two, 4).values)

    def test_rejects_2d(self):
        mesh = grid.build_mesh(2, 3)
        d = ym.dirac_field(VectorField(mesh, np.zeros((mesh.n_cells, 2))))
        with pytest.raises(ValueError):
            ym.realize_sequence(d, 4)

    def test_rejects_three_atoms(self):
        mesh = grid.build_mesh(1, 4)
        atoms = np.zeros((4, 3, 1))
        atoms[:, 1, 0] = 1.0
        atoms[:, 2, 0] = -1.0
        w = np.full((4, 3), 1.0 / 3.0)
        f = ym.YoungMeasureField(mesh, atoms, w, "PH1")
        with pytest.raises(ValueError):
            ym.realize_sequence(f, 4)


class TestCsv:
    def test_dump_format(self, tmp_path):
        mesh = grid.build_mesh(1, 3)
        two = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5)
        path = tmp_path / "ym.csv"
        ym.young_measure_to_csv(two, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell,atom_index,lambda_x,weight,potential_offset"
        assert len(lines) == 1 + 3 * 2
        assert lines[1].split(",")[:2] == ["0", "0"]
        assert {line.split(",")[-1] for line in lines[1:]} == {"0.0"}
        shifted = ym.uniform_two_atom(mesh, -1.0, 1.0, 0.5, potential_offset=0.25)
        ym.young_measure_to_csv(shifted, path)
        lines = path.read_text().strip().splitlines()
        assert {line.split(",")[-1] for line in lines[1:]} == {"0.25"}


_MESH4 = grid.build_mesh(1, 4)
_ONE_ATOM = (np.zeros((4, 1, 1)), np.ones((4, 1)))
# (message, call) of each documented input check of young_measure
_INPUT_CHECKS = {
    "shapes-disagree": (r"^atoms \(4, 2, 1\) and weights \(4, 3\) must agree on \(4, K\)$",
                        lambda: ym.YoungMeasureField(_MESH4, np.zeros((4, 2, 1)),
                                                     np.full((4, 3), 1.0 / 3.0))),
    # atoms take exactly the three axes (n_cells, K, N)
    "atoms-two-axes": (r"^atoms \(4, 2\) and weights \(4, 2\) must agree on \(4, K\)$",
                       lambda: ym.YoungMeasureField(_MESH4, np.zeros((4, 2)),
                                                    np.full((4, 2), 0.5))),
    "atoms-four-axes": (r"^atoms \(4, 2, 1, 1\) and weights \(4, 2\) must agree on \(4, K\)$",
                        lambda: ym.YoungMeasureField(_MESH4, np.zeros((4, 2, 1, 1)),
                                                     np.full((4, 2), 0.5))),
    "atom-dimension": ("^atom dimension must match the mesh dimension$",
                       lambda: ym.YoungMeasureField(_MESH4, np.zeros((4, 1, 2)), np.ones((4, 1)))),
    "atoms-finite": ("^atoms must be finite$", lambda: ym.YoungMeasureField(
        _MESH4, np.full((4, 1, 1), np.inf), np.ones((4, 1)))),
    "unknown-class": ("^unknown class 'PH2'$",
                      lambda: ym.YoungMeasureField(_MESH4, *_ONE_ATOM, "PH2")),
    "potential-unconstrained": ("^unconstrained measures have no canonical potential$",
                                lambda: ym.potential(ym.YoungMeasureField(_MESH4, *_ONE_ATOM))),
    "project-unknown-class": ("^projection target must be PH10 or PH1, got 'PH2'$",
                              lambda: ym.project_class(ym.uniform_two_atom(
                                  _MESH4, -1.0, 1.0, 0.5), "PH2")),
    "two-atom-2d": ("^uniform_two_atom builds 1D fields$", lambda: ym.uniform_two_atom(
        grid.build_mesh(2, 4), -1.0, 1.0, 0.5)),
    "theta-below": (r"^theta must lie in \[0, 1\]$",
                    lambda: ym.uniform_two_atom(_MESH4, -1.0, 1.0, -0.1)),
    "theta-above": (r"^theta must lie in \[0, 1\]$",
                    lambda: ym.uniform_two_atom(_MESH4, -1.0, 1.0, 1.5)),
}


@pytest.mark.parametrize("case", list(_INPUT_CHECKS))
def test_input_checks(case):
    message, call = _INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
