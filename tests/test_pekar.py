import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_lab.errors import ConvergenceError
from polaron_lab.spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    hartree_energy,
    mode_norm_sq,
)
from polaron_lab.pekar import (
    PekarSolution,
    _mean_field_apply,
    _residual,
    coherent_displacement,
    energy_gradient,
    load_solution,
    minimize_pekar,
    pekar_energy,
    save_solution,
    scaling_check,
)

from polaron_lab import pekar as pekar_module
from polaron_lab.cli import main as cli_main
from scipy.sparse.linalg import lobpcg

from oracles import dense_mean_field_spectrum, radial_ground_state


def gaussian_orbital(grid, sigma):
    mesh = np.meshgrid(*([grid.x_axis_centered] * grid.dim), indexing="ij")
    r2 = sum(c**2 for c in mesh)
    return WaveField(grid, np.exp(-r2 / (4 * sigma**2))).normalized()


class TestEnergy:
    def test_constant_orbital_has_zero_kinetic(self):
        g = Grid(3, 16, 10.0)
        phi = WaveField(g, np.ones(g.shape)).normalized()
        en = pekar_energy(phi, 1.0)
        assert en.kinetic == pytest.approx(0.0, abs=1e-13)
        assert en.total == pytest.approx(-en.hartree, rel=1e-12)

    def test_gaussian_closed_forms(self):
        g = Grid(3, 64, 24.0)
        sigma = 1.0
        phi = gaussian_orbital(g, sigma)
        en = pekar_energy(phi, 1.0)
        assert en.kinetic == pytest.approx(3 / (4 * sigma**2), rel=1e-6)
        assert en.hartree == pytest.approx(1 / (sigma * np.sqrt(np.pi)), rel=1e-4)

    def test_gradient_matches_finite_differences(self, rng):
        g = Grid(3, 16, 10.0)
        form = FormFactor.coulomb_d3_isolated(g)
        coupling = 1.0
        h = 1e-5
        for _ in range(20):
            phi = WaveField(g, rng.standard_normal(g.shape) + 0.5).normalized()
            delta = rng.standard_normal(g.shape)
            # tangential direction (real pairing)
            overlap = float(np.sum(phi.values.real * delta) * g.cell_volume)
            delta = delta - overlap * phi.values.real
            grad = energy_gradient(phi, coupling, form)
            analytic = 2 * float(np.sum(grad.real * delta) * g.cell_volume)

            def energy_at(eps):
                cand = WaveField(g, phi.values + eps * delta).normalized()
                return pekar_energy(cand, coupling, form).total

            numeric = (energy_at(h) - energy_at(-h)) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-10)


def complex_mean_field_reference(values, g, form):
    """(E, H_mf phi, V) on full complex transforms, kinetic energy by Parseval."""
    grid = form.grid
    dv = grid.cell_volume
    spec = np.fft.fftn(values) * dv
    v = (np.fft.ifftn(-form.kernel_multiplier * np.fft.fftn(np.abs(values) ** 2) * dv) / dv).real
    t = np.sum(grid.k_sq * np.abs(spec) ** 2) * grid.mode_weight / (2 * np.pi) ** grid.dim
    d = -np.sum(np.abs(values) ** 2 * v) * dv
    return t - g * d, np.fft.ifftn(grid.k_sq * spec) / dv + 2 * g * v * values, v


@st.composite
def mean_field_problems(draw):
    """Real and imaginary parts of an orbital, a coupling and a form on a small 1-3d grid."""
    dim = draw(st.integers(1, 3))
    grid = Grid(dim, draw(st.sampled_from((2, 4, 8, 16))), draw(st.floats(2.0, 20.0)))
    if dim == 3 and draw(st.booleans()):
        form = FormFactor.coulomb_d3_isolated(grid)
    else:
        form = FormFactor.toy(grid, draw(st.floats(0.01, 1.0)), draw(st.sampled_from((0.0, 1.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((2,) + grid.shape), draw(st.floats(0.1, 3.0)), form


class TestMeanFieldOperator:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(mean_field_problems())
    def test_matches_complex_reference(self, problem):
        # a real orbital takes the real transforms, a complex one the complex ones
        (real, imag), coupling, form = problem
        for values in (real, real + 1j * imag):
            e_ref, h_ref, v_ref = complex_mean_field_reference(values, coupling, form)
            energy, hphi, v = _mean_field_apply(values, coupling, form)
            assert np.isrealobj(hphi) == np.isrealobj(values)
            assert abs(energy - e_ref) <= 1e-12 * max(1.0, abs(e_ref))
            assert np.max(np.abs(hphi - h_ref)) <= 1e-12 * max(1.0, np.max(np.abs(h_ref)))
            assert np.max(np.abs(v - v_ref)) <= 1e-12 * max(1.0, np.max(np.abs(v_ref)))


class TestMinimizer:
    def test_small_grid_converges(self, pekar_small):
        sol = pekar_small
        assert sol.residual < 1e-7
        assert abs(sol.phi0.norm() - 1.0) < 1e-10
        # monotone energy log
        hist = np.array(sol.energy_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_identities_at_rescaled_coupling(self, pekar_rescaled_small):
        # g = 1/2 is the rescaled-unit convention where mu = -||f||^2
        sol = pekar_rescaled_small
        fsq = mode_norm_sq(sol.phi0.grid, sol.f)
        assert sol.mu == pytest.approx(-fsq, rel=1e-10)
        assert sol.e_p == pytest.approx(sol.lam - sol.mu, rel=1e-9)
        v = pekar_energy(sol.phi0, sol.g, sol.form)
        assert sol.e_p == pytest.approx(v.total, rel=1e-12)

    def test_mu_is_half_potential_expectation(self, pekar_rescaled_small):
        from polaron_lab.spectral_core import kernel_potential

        sol = pekar_rescaled_small
        rho = WaveField(sol.phi0.grid, sol.phi0.density())
        v = kernel_potential(rho, sol.form)
        expectation = float(
            np.sum(sol.phi0.density() * v.values.real) * sol.phi0.grid.cell_volume
        )
        assert sol.mu == pytest.approx(0.5 * expectation, rel=1e-9)

    def test_energy_against_same_reach_radial_oracle(self):
        # 3d lattice vs independent radial finite differences with the same
        # interaction reach r_cut = L/2; tails are negligible at L=40, so the
        # sphere/torus geometry difference is immaterial
        sol = minimize_pekar(Grid(3, 64, 40.0), g=1.0, tol=1e-7, compute_gap=False)
        oracle = radial_ground_state(1.0, r_cut=20.0)
        assert sol.e_p == pytest.approx(oracle["E"], rel=5e-5)

    def test_energy_matches_free_space_value_on_adequate_box(self):
        sol = minimize_pekar(Grid(3, 64, 32.0), g=1.0, tol=1e-7, compute_gap=False)
        oracle = radial_ground_state(1.0)
        assert oracle["E"] == pytest.approx(-0.108513, abs=2e-6)
        assert sol.e_p == pytest.approx(oracle["E"], rel=1e-2)

    def test_free_case(self):
        g = Grid(3, 16, 10.0)
        sol = minimize_pekar(g, g=0.0)
        assert "free case" in sol.flags
        assert pekar_energy(sol.phi0, 0.0).kinetic == pytest.approx(0.0, abs=1e-12)

    def test_energy_invariant_under_grid_shift_and_phase(self, pekar_small):
        sol = pekar_small
        shifted = WaveField(sol.phi0.grid, np.roll(sol.phi0.values, (3, 1, 5), axis=(0, 1, 2)))
        e0 = pekar_energy(sol.phi0, sol.g, sol.form).total
        e1 = pekar_energy(shifted, sol.g, sol.form).total
        assert e1 == pytest.approx(e0, rel=1e-13)
        phased = WaveField(sol.phi0.grid, np.exp(0.7j) * sol.phi0.values)
        assert pekar_energy(phased, sol.g, sol.form).total == pytest.approx(e0, rel=1e-13)

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError):
            minimize_pekar(Grid(3, 16, 12.0), g=1.0, tol=1e-14, max_iter=3)

    def test_lambda_is_lowest_eigenvalue_with_positive_gap(self):
        # box 16, not 12: at box 12 the minimizer is the uniform torus state, not a polaron
        sol = minimize_pekar(Grid(3, 16, 16.0), g=1.0, tol=1e-7, compute_gap=True)
        assert "delocalized" not in sol.flags
        assert sol.gap is not None and sol.gap > 0
        assert "gap_unconverged" not in sol.flags

    @pytest.mark.parametrize("orbital", ["localized", "uniform"])
    def test_deflated_gap_matches_dense_spectrum(self, orbital):
        # the uniform orbital's first excitation is the 6-fold (2 pi / L)^2 shell
        grid, g = Grid(3, 8, 10.0), 2.0
        sol = minimize_pekar(grid, g=g, tol=1e-9, compute_gap=False)
        assert "delocalized" not in sol.flags
        phi = sol.phi0 if orbital == "localized" else WaveField(grid, np.ones(grid.shape)).normalized()
        lam0, gap, converged = pekar_module._spectral_gap(phi, g, sol.form)
        levels = dense_mean_field_spectrum(grid, _mean_field_apply(phi.values, g, sol.form)[2], g)
        assert converged
        assert lam0 == pytest.approx(levels[0], rel=1e-9)
        assert gap == pytest.approx(levels[1] - levels[0], rel=1e-9)

    def test_gap_of_a_loosely_converged_orbital_reaches_its_tolerance(self):
        # the orbital is an eigenvector only to 1e-4; the solve runs on H compressed to its
        # complement, so that residual does not floor the gap solve's
        sol = minimize_pekar(Grid(3, 16, 16.0), g=2.0, tol=1e-4, compute_gap=True)
        assert "gap_unconverged" not in sol.flags
        assert sol.gap > 0

    def test_orbital_with_a_level_below_it_is_refused(self, monkeypatch):
        # hand the gap solve the p-like x_0 phi: its own frozen V binds an s level below it
        grid = Grid(3, 16, 16.0)
        minimize = pekar_module._sphere_minimize

        def excited(*args, **kwargs):
            x, residual, history = minimize(*args, **kwargs)
            p = grid.x_axis_centered[:, None, None] * x
            return p / np.sqrt(np.sum(p**2) * grid.cell_volume), residual, history

        monkeypatch.setattr(pekar_module, "_sphere_minimize", excited)
        with pytest.raises(ConvergenceError, match="not the lowest mean-field eigenvector"):
            minimize_pekar(grid, g=1.0, tol=1e-7, compute_gap=True)

    def test_gap_solve_that_misses_its_tolerance_is_flagged(self, tmp_path, monkeypatch):
        # lobpcg returns its best iterate at the iteration cap, with only a warning
        def capped(*args, **kwargs):
            return lobpcg(*args, **{**kwargs, "maxiter": 2})

        monkeypatch.setattr(pekar_module, "lobpcg", capped)
        out = tmp_path / "run"
        with pytest.warns(UserWarning):
            code = cli_main(["pekar", "--grid", "16", "--box", "16", "--g", "1", "--tol", "1e-7",
                             "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["flags"] == ["gap_unconverged"]
        assert load_solution(out).flags == ("gap_unconverged",)


class TestScaling:
    def test_equal_couplings_ratio_one(self, pekar_small):
        rep = scaling_check(pekar_small, pekar_small)
        assert rep.ratio == pytest.approx(1.0)

    def test_dilation_law_one_to_two(self):
        # boxes paired by the exact lattice dilation (g, L) -> (2g, L/2)
        s1 = minimize_pekar(Grid(3, 32, 24.0), g=1.0, tol=1e-8, compute_gap=False)
        s2 = minimize_pekar(Grid(3, 32, 12.0), g=2.0, tol=1e-8, compute_gap=False)
        rep = scaling_check(s1, s2)
        assert rep.ratio == pytest.approx(4.0, abs=4e-3)
        assert rep.length_ratio_defect < 1e-2

    def test_one_to_three(self):
        s1 = minimize_pekar(Grid(3, 32, 24.0), g=1.0, tol=1e-8, compute_gap=False)
        s3 = minimize_pekar(Grid(3, 32, 8.0), g=3.0, tol=1e-8, compute_gap=False)
        rep = scaling_check(s1, s3, ratio_tol=2e-3)
        assert rep.ratio == pytest.approx(9.0, rel=2e-3)


class TestDisplacement:
    def test_zero_field(self):
        g = Grid(3, 16, 10.0)
        f = coherent_displacement(WaveField(g, np.zeros(g.shape)))
        assert np.all(f == 0)

    def test_norm_squared_is_half_hartree(self, pekar_small):
        sol = pekar_small
        fsq = mode_norm_sq(sol.phi0.grid, sol.f)
        rho = WaveField(sol.phi0.grid, sol.phi0.density())
        d = hartree_energy(rho, form=sol.form).value
        assert fsq == pytest.approx(d / 2, rel=1e-10)
        assert sol.mu == pytest.approx(-2 * sol.g * fsq, rel=1e-12)

    def test_single_mode_density(self):
        g = Grid(3, 16, 9.0)
        form = FormFactor.coulomb_d3(g)
        mesh = np.meshgrid(*([g.x_axis] * 3), indexing="ij")
        rho_vals = 1.0 + 0.3 * np.cos(g.k_axis[2] * mesh[0])
        phi = WaveField(g, np.sqrt(rho_vals)).normalized()
        f = coherent_displacement(phi, form)
        support = np.abs(f) > 1e-12 * np.max(np.abs(f))
        assert support.sum() == 2  # bare kernel kills k=0, leaving the +-k pair


class TestRadialOracle:
    def test_truncated_radial_kernel_against_direct_sum(self):
        from oracles import radial_newton_potential, radial_truncated_potential

        n, rmax = 1500, 30.0
        dr = rmax / n
        r = dr * np.arange(1, n + 1)
        u = r * np.exp(-r / 3.0)
        u /= np.sqrt(np.sum(u**2) * dr)
        v_newton = radial_newton_potential(u, r, dr)
        v_inf = radial_truncated_potential(u, r, dr, r_cut=1e6)
        assert np.max(np.abs(v_inf - v_newton)) < 1e-12
        rc = 8.0
        kern = np.maximum(
            0.0, np.minimum(r[:, None] + r[None, :], rc) - np.abs(r[:, None] - r[None, :])
        ) / (2 * r[:, None] * r[None, :])
        v_direct = -(kern @ (u**2)) * dr
        v_fast = radial_truncated_potential(u, r, dr, r_cut=rc)
        assert np.max(np.abs(v_fast - v_direct)) < 1e-6

    def test_free_energy_matches_literature_constant(self):
        res = radial_ground_state(1.0)
        assert res["E"] == pytest.approx(-0.108513, abs=2e-6)
        assert res["D"] == pytest.approx(2 * res["T"], rel=1e-4)

    def test_exhausted_iterations_raise(self):
        with pytest.raises(ConvergenceError):
            radial_ground_state(1.0, max_iter=3)

    def test_cached_result_is_read_only(self):
        res = radial_ground_state(1.0)
        with pytest.raises(TypeError):
            res["E"] = 0.0
        assert radial_ground_state(1.0)["E"] == pytest.approx(-0.108513, abs=2e-6)


class TestPersistence:
    def test_round_trip(self, tmp_path, pekar_rescaled_small):
        # at the lp-flow set-up size (32^3, L 32, g 0.5, tol 1e-9) the reload is bitwise and
        # keeps the residual it claims
        sol = pekar_rescaled_small
        save_solution(tmp_path, sol)
        loaded = load_solution(tmp_path)
        json.loads((tmp_path / "pekar.json").read_text(), parse_constant=pytest.fail)  # strict
        assert np.array_equal(loaded.phi0.values, sol.phi0.values)
        assert np.array_equal(loaded.form.values, sol.form.values)
        assert np.array_equal(loaded.f, sol.f)
        assert loaded.phi0.grid == sol.phi0.grid
        assert (loaded.kernel, loaded.form.cutoff) == (sol.kernel, sol.form.cutoff)
        assert (loaded.e_p, loaded.lam, loaded.mu, loaded.g, loaded.residual) == (
            sol.e_p, sol.lam, sol.mu, sol.g, sol.residual
        )
        recomputed = _residual(loaded.phi0.values, loaded.g, loaded.form)[0]
        assert recomputed == pytest.approx(sol.residual, rel=1e-6)

    def test_tampered_field_is_refused(self, tmp_path, pekar_rescaled_small):
        save_solution(tmp_path, pekar_rescaled_small)
        with np.load(tmp_path / "pekar.npz") as arrays:
            phi0, v = arrays["phi0"].copy(), arrays["v"]
        phi0[0, 0, 0] += 1e-3 * np.abs(phi0).max()
        np.savez(tmp_path / "pekar.npz", phi0=phi0, v=v)
        with pytest.raises(ConvergenceError):
            load_solution(tmp_path)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 3),
        log_points=st.integers(1, 3),
        box=st.floats(1.0, 40.0),
        coulomb=st.booleans(),
        v0=st.floats(1e-3, 2.0),
        exponent=st.sampled_from([0.0, 1.0]),
        cutoff=st.sampled_from([np.inf, 2.5]),
        seed=st.integers(0, 2**16),
    )
    def test_saved_fields_reload_bitwise(
        self, dim, log_points, box, coulomb, v0, exponent, cutoff, seed
    ):
        grid = Grid(dim, 2**log_points, box)
        if coulomb and dim == 3:
            form = FormFactor.coulomb_d3_isolated(grid, cutoff=cutoff)
        else:
            form = FormFactor.toy(grid, v0, exponent, cutoff=cutoff)
        rng = np.random.default_rng(seed)
        phi = WaveField(
            grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        ).normalized()
        residual, lam = _residual(phi.values, 0.7, form)
        sol = PekarSolution(
            phi0=phi, lam=lam, mu=-1.0, e_p=-0.5, g=0.7, residual=residual,
            f=coherent_displacement(phi, form), form=form, gap=None, energy_history=(-0.5,),
        )
        with tempfile.TemporaryDirectory() as directory:
            save_solution(directory, sol, tag="state")
            loaded = load_solution(directory, tag="state")
        assert np.array_equal(loaded.phi0.values, phi.values)
        assert np.array_equal(loaded.form.values, form.values)
        assert np.array_equal(loaded.f, sol.f)
        assert (loaded.kernel, loaded.form.cutoff, loaded.phi0.grid) == (
            form.variant, cutoff, grid
        )
