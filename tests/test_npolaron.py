import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_lab.cli import main as cli_main
from polaron_lab.errors import SizingError
from polaron_lab.spectral_core import FormFactor, Grid, WaveField, _half_displacement
from polaron_lab import lp_dynamics as lp
from polaron_lab import npolaron as npl
from polaron_lab.pekar import minimize_pekar


@pytest.fixture(scope="module")
def grid1d():
    return Grid(1, 32, 16.0)


@pytest.fixture(scope="module")
def form1d(grid1d):
    return FormFactor.toy(grid1d, 0.3)


@pytest.fixture(scope="module")
def pair_solution_1d(grid1d, form1d):
    cfg = npl.PTConfig(2, 0.5, grid1d, statistics="full_two_body", form=form1d)
    return cfg, npl.minimize_pt(cfg, tol=1e-9)


class TestConfig:
    def test_rejects_single_particle(self, grid1d):
        with pytest.raises(ValueError):
            npl.PTConfig(1, 0.0, grid1d)

    def test_full_path_only_for_two(self, grid1d):
        with pytest.raises(SizingError):
            npl.PTConfig(3, 0.0, grid1d, statistics="full_two_body")

    def test_pair_budget(self):
        with pytest.raises(SizingError):
            npl.PTConfig(2, 0.0, Grid(3, 32, 16.0), statistics="full_two_body")

    def test_effective_coupling_map(self, grid1d):
        assert npl.PTConfig(2, 0.0, grid1d).effective_orbital_coupling == 1.0
        assert npl.PTConfig(2, 1.0, grid1d).effective_orbital_coupling == 0.5
        assert npl.PTConfig(3, 0.5, grid1d).effective_orbital_coupling == 1.0


class TestPairLattice:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pair_arrays_are_their_entrywise_definitions(self, dim):
        # the broadcasts and the sparse-index gather against a loop over every pair of sites
        grid = Grid(dim, 4, 6.0)
        form = FormFactor.coulomb_d3_isolated(grid) if dim == 3 else FormFactor.toy(grid, 0.3)
        k_real = (np.fft.ifftn(form.kernel_multiplier) / grid.cell_volume).real
        kernel = npl._pair_kernel(grid, form)
        ksq2 = npl._pair_kinetic_multiplier(grid)
        v = np.random.default_rng(dim).standard_normal(grid.shape)
        potential = npl._pair_potential(v, kernel)
        assert kernel.shape == ksq2.shape == potential.shape == grid.shape * 2
        for x1 in np.ndindex(grid.shape):
            for x2 in np.ndindex(grid.shape):
                pair = x1 + x2
                assert kernel[pair] == k_real[tuple((a - b) % 4 for a, b in zip(x1, x2))]
                assert ksq2[pair] == grid.k_sq[x1] + grid.k_sq[x2]
                assert potential[pair] == v[x1] + v[x2] + kernel[pair]


class TestEnergy:
    def test_product_expansion_matches_reduced_form(self, grid1d, form1d):
        # two independent code paths: term-by-term N-body expectation vs
        # the closed-form N (T - g_eff D)
        rng = np.random.default_rng(4)
        u = WaveField(grid1d, rng.standard_normal(32) + 2.0).normalized()
        for n_part, u_rep in [(2, 0.0), (2, 0.7), (3, 0.4)]:
            cfg = npl.PTConfig(n_part, u_rep, grid1d, form=form1d)
            en = pt = npl.pt_energy(u, cfg)
            single = npl.pt_energy(u, npl.PTConfig(2, 0.0, grid1d, form=form1d))
            t_u = single.kinetic / 2
            d_u = single.hartree / 4
            reduced = n_part * (t_u - cfg.effective_orbital_coupling * d_u)
            assert en.total == pytest.approx(reduced, rel=1e-12)

    def test_product_pair_sum_identity(self, grid1d, form1d):
        # N=2, U=0: E = 2T(u) - 2 D(|u|^2) with rho = 2|u|^2
        rng = np.random.default_rng(5)
        u = WaveField(grid1d, rng.standard_normal(32) + 1.5).normalized()
        cfg = npl.PTConfig(2, 0.0, grid1d, form=form1d)
        en = npl.pt_energy(u, cfg)
        assert en.total == pytest.approx(en.kinetic - 0.5 * en.hartree, rel=1e-12)
        assert en.repulsion == 0.0

    def test_energy_increases_with_repulsion_at_fixed_state(self, grid1d, form1d):
        u = WaveField(grid1d, np.exp(-grid1d.x_axis_centered**2 / 4)).normalized()
        vals = [
            npl.pt_energy(u, npl.PTConfig(2, float(urep), grid1d, form=form1d)).total
            for urep in (0.0, 0.3, 0.9)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_product_energy_evaluates_identically_through_pair_array(
        self, grid1d, form1d
    ):
        u = WaveField(grid1d, np.exp(-grid1d.x_axis_centered**2 / 5)).normalized()
        pair = np.multiply.outer(u.values, u.values)
        cfg = npl.PTConfig(2, 0.6, grid1d, statistics="full_two_body", form=form1d)
        en_pair = npl.pt_energy(pair, cfg)
        en_prod = npl.pt_energy(u, npl.PTConfig(2, 0.6, grid1d, form=form1d))
        assert en_pair.total == pytest.approx(en_prod.total, rel=1e-10)


class TestMinimization:
    def test_enhanced_binding_at_zero_repulsion(self):
        grid = Grid(3, 32, 32.0)
        cfg = npl.PTConfig(2, 0.0, grid)
        sol = npl.minimize_pt(cfg, tol=1e-7)
        assert sol.binding["bound"]
        assert sol.e_n < sol.binding["n_times_single"]
        # the U=0 pair problem reduces exactly to the doubled-coupling orbital one
        doubled = minimize_pekar(grid, g=1.0, tol=1e-8, compute_gap=False)
        assert sol.e_n == pytest.approx(2 * doubled.e_p, rel=1e-6)
        # continuum dilation says E_2 = 8 E_1; on the shared box the g = 1/2
        # reference carries the larger finite-size deficit, hence the slack
        single = minimize_pekar(grid, g=0.5, tol=1e-7, compute_gap=False)
        assert sol.e_n == pytest.approx(8 * single.e_p, rel=8e-2)

    def test_large_repulsion_reports_unbound(self, grid1d, form1d):
        cfg = npl.PTConfig(2, 10.0, grid1d, form=form1d)
        sol = npl.minimize_pt(cfg, tol=1e-6)
        assert not sol.binding["bound"]
        assert "no binding" in sol.binding["message"]

    def test_identities_product(self, grid1d, form1d):
        cfg = npl.PTConfig(2, 0.4, grid1d, form=form1d)
        sol = npl.minimize_pt(cfg, tol=1e-9)
        assert np.sum(sol.rho) * grid1d.cell_volume == pytest.approx(2.0, abs=1e-10)
        fsq = float(np.sum(np.abs(sol.f) ** 2) * grid1d.mode_weight)
        assert sol.mu == pytest.approx(-fsq, rel=1e-12)
        assert sol.e_n == pytest.approx(sol.lam - sol.mu, rel=1e-12)

    def test_full_two_body_identities(self, pair_solution_1d):
        cfg, sol = pair_solution_1d
        grid = cfg.grid
        assert np.sum(sol.rho) * grid.cell_volume == pytest.approx(2.0, abs=1e-10)
        ex = npl._exchange(sol.pair, grid.dim)
        assert np.max(np.abs(sol.pair - ex)) < 1e-8
        assert sol.rho.min() >= -1e-14
        assert sol.e_n == pytest.approx(sol.lam - sol.mu, rel=1e-12)

    def test_pair_path_reduces_to_product_at_zero_repulsion(self, grid1d, form1d):
        # at U = 0 the pair Hamiltonian is a sum of one-body terms, so the pair
        # minimizer must land on u x u with u the product path's orbital: the
        # two callers of the shared sphere minimizer agree
        full = npl.minimize_pt(
            npl.PTConfig(2, 0.0, grid1d, statistics="full_two_body", form=form1d), tol=1e-9
        )
        prod = npl.minimize_pt(npl.PTConfig(2, 0.0, grid1d, form=form1d), tol=1e-9)
        assert full.e_n == pytest.approx(prod.e_n, rel=1e-10)
        svals = np.linalg.svd(full.pair, compute_uv=False)
        assert 1 - svals[0] ** 2 / np.sum(svals**2) < 1e-10

    def test_product_bound_below_by_full(self, pair_solution_1d):
        cfg, sol_full = pair_solution_1d
        prod = npl.minimize_pt(
            npl.PTConfig(2, 0.5, cfg.grid, form=cfg.form), tol=1e-9
        )
        assert sol_full.e_n <= prod.e_n + 1e-12

    def test_energy_nondecreasing_in_repulsion(self, grid1d, form1d):
        cfg = npl.PTConfig(2, 0.0, grid1d, form=form1d)
        rows = npl.binding_scan(cfg, [0.0, 0.25, 0.5, 1.0], tol=1e-8)[1]
        energies = [r["E_N"] for r in rows]
        assert all(a <= b + 1e-10 for a, b in zip(energies, energies[1:]))

    def test_verb_solves_the_single_polaron_once(self, tmp_path, monkeypatch):
        # one solve per distinct orbital coupling: E_1 is the U = 1 orbital (g_eff 1/2) and
        # the verb's U = 0.5 is a scan point, so 3 minimizer calls give all 5 solutions
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["g"])
            return minimize_pekar(*args, **kwargs)

        monkeypatch.setattr(npl, "minimize_pekar", counting)
        code = cli_main([
            "npolaron", "--grid", "16", "--box", "24", "--u-grid", "0,0.5,1.0", "--out", str(tmp_path)
        ])
        assert code == 0
        assert sorted(calls) == [0.5, 0.75, 1.0]
        with open(tmp_path / "binding.csv") as handle:
            rows = list(csv.DictReader(handle))
        summary = json.loads((tmp_path / "summary.json").read_text())
        # the summary and each row equal a stand-alone solve at its U that finds its own E_1
        grid = Grid(3, 16, 24.0)
        sol = npl.minimize_pt(npl.PTConfig(2, 0.5, grid))
        assert (summary["E_N"], summary["lambda"], summary["mu"], summary["residual"]) == (
            sol.e_n, sol.lam, sol.mu, sol.residual
        )
        assert summary["binding"] == sol.binding
        for row in rows:
            sol = npl.minimize_pt(npl.PTConfig(2, float(row["U"]), grid))
            assert float(row["E_N"]) == sol.e_n
            assert float(row["N_E_single"]) == sol.binding["n_times_single"]
            assert row["bound"] == str(sol.binding["bound"])
            assert float(row["rms_radius"]) == sol.binding["rms_radius"]
        assert (rows[0]["bound"], rows[-1]["bound"]) == ("True", "False")

    def test_verb_draws_its_start_from_the_seed(self, tmp_path):
        # every orbital solve perturbs its Gaussian start with default_rng(seed)
        written = []
        for seed in ("0", "5"):
            argv = ["npolaron", "--grid", "16", "--box", "24", "--u-grid", "0,1.0", "--seed", seed]
            assert cli_main([*argv, "--out", str(tmp_path / seed)]) == 0
            written.append((tmp_path / seed / "binding.csv").read_bytes())
        assert written[0] != written[1]

    def test_seeded_call_solves_e_single_from_its_own_rng(self):
        # E_1 starts from a fresh default_rng(seed), as each orbital solve of the call does
        grid = Grid(3, 16, 24.0)
        sol = npl.minimize_pt(npl.PTConfig(2, 0.5, grid), seed=5)
        e_single = minimize_pekar(
            grid, g=0.5, tol=1e-7, rng=np.random.default_rng(5), compute_gap=False
        ).e_p
        assert sol.binding["n_times_single"] == 2 * e_single

    def test_full_pair_verb_shares_e_single_with_the_scan(self, tmp_path, monkeypatch):
        # the pair summary takes E_1 from the scan's U = 1 orbital
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["g"])
            return minimize_pekar(*args, **kwargs)

        monkeypatch.setattr(npl, "minimize_pekar", counting)
        argv = ["npolaron", "--mode", "full", "--grid", "4", "--box", "6", "--u-grid", "0,1.0"]
        assert cli_main([*argv, "--out", str(tmp_path)]) == 0
        assert sorted(calls) == [0.5, 1.0]
        summary = json.loads((tmp_path / "summary.json").read_text())
        grid = Grid(3, 4, 6.0)
        sol = npl.minimize_pt(npl.PTConfig(2, 0.5, grid, statistics="full_two_body"))
        assert (summary["E_N"], summary["residual"], summary["binding"]) == (
            sol.e_n, sol.residual, sol.binding
        )


class TestDynamics:
    def test_minimizer_is_fixed_point(self, pair_solution_1d):
        cfg, sol = pair_solution_1d
        samples = npl.dfn_evolve(cfg, sol.pair, alpha=2.0, t_final=5.0, dt=1e-3)
        final = samples[-1]
        overlap = np.sum(np.conj(final.pair) * sol.pair) * cfg.grid.cell_volume**2
        assert 1 - abs(overlap) < 1e-5
        nrm = npl._pair_norm(cfg.grid, final.pair)
        assert abs(nrm - 1) < 1e-8

    def test_zero_time_identity(self, pair_solution_1d):
        cfg, sol = pair_solution_1d
        samples = npl.dfn_evolve(cfg, sol.pair, alpha=2.0, t_final=0.0, dt=1e-3)
        assert len(samples) == 1
        assert np.array_equal(samples[0].pair, sol.pair / npl._pair_norm(cfg.grid, sol.pair))

    def test_product_form_preserved_without_repulsion(self, grid1d, form1d):
        # U = 0 and phi = u x u: the generator is a sum of one-body terms, so
        # the flow keeps the state a product
        u = WaveField(grid1d, np.exp(-grid1d.x_axis_centered**2 / 6)).normalized()
        pair0 = np.multiply.outer(u.values, u.values)
        cfg = npl.PTConfig(2, 0.0, grid1d, statistics="full_two_body", form=form1d)
        samples = npl.dfn_evolve(cfg, pair0, alpha=2.0, t_final=1.0, dt=1e-3)
        final = samples[-1].pair
        # product test via the Schmidt rank: top singular value carries all weight
        svals = np.linalg.svd(final, compute_uv=False)
        assert 1 - svals[0] ** 2 / np.sum(svals**2) < 1e-6

    def test_zero_repulsion_is_tensor_square_of_one_electron_flow(self, grid1d, form1d, rng):
        # at U = 0 the pair from u x u with label z0 carries the one-electron flow
        # with form sqrt(2) v and label z0 / sqrt(2): f_pair = sqrt(2) f_single and
        # both see one potential, so pair = u(t) x u(t), z = sqrt(2) z_single, a = a_single^2
        u = WaveField(
            grid1d, np.exp(-grid1d.x_axis_centered**2 / 6 + 0.3j * grid1d.x_axis_centered)
        ).normalized()
        z0 = 0.2 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        cfg = npl.PTConfig(2, 0.0, grid1d, statistics="full_two_body", form=form1d)
        root2 = FormFactor(
            grid1d, np.sqrt(2.0) * form1d.values, cutoff=form1d.cutoff, variant=form1d.variant
        )
        single_cfg = lp.LPConfig(grid1d, root2, alpha=2.0)
        for t_final, dt in ((1.0, 1e-3), (2.0, 1e-2)):
            pair = npl.dfn_evolve(
                cfg, np.multiply.outer(u.values, u.values), 2.0, t_final, dt, z0=z0
            )[-1]
            single = lp.evolve(lp.initial_state(single_cfg, u, z0=z0 / np.sqrt(2.0)), t_final, dt)[-1]
            phi = single.phi.values
            assert np.max(np.abs(pair.pair - np.multiply.outer(phi, phi))) < 1e-12
            assert np.max(np.abs(pair.z - np.sqrt(2.0) * single.label())) < 1e-12
            assert abs(pair.a_phase - single.a_phase**2) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([4, 8, 16]),
        st.floats(4.0, 16.0),
        st.floats(0.0, 0.5),
        st.floats(0.0, 1.0),
        st.floats(0.5, 4.0),
        st.floats(1e-3, 5e-2),
        st.integers(0, 2**32 - 1),
    )
    def test_step_back_is_inverse_and_keeps_norm(self, n, box, v0, repulsion, alpha, dt, seed):
        grid = Grid(1, n, box)
        form = FormFactor.toy(grid, v0, cutoff=6.0)
        cfg = npl.PTConfig(2, repulsion, grid, statistics="full_two_body", form=form)
        rng = np.random.default_rng(seed)
        pair0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair0 = (pair0 + pair0.T) / npl._pair_norm(grid, pair0 + pair0.T)
        z0 = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        forward = npl.dfn_evolve(cfg, pair0, alpha, dt, dt, z0=z0)[-1]
        # the flow is autonomous: restarting at t = 0 from the stepped pair and label
        # and stepping -dt is the backward step
        back = npl.dfn_evolve(cfg, forward.pair, alpha, -dt, -dt, z0=forward.z)[-1]
        assert abs(npl._pair_norm(grid, forward.pair) - 1.0) < 1e-12
        assert np.max(np.abs(back.pair - pair0)) < 1e-10
        assert np.max(np.abs(back.z - z0)) < 1e-10
        assert abs(forward.a_phase * back.a_phase - 1.0) < 1e-10

    def test_carried_displacement_is_the_pair_s(self, pair_solution_1d):
        cfg, sol = pair_solution_1d
        pair0 = sol.pair * np.exp(0.2j * np.add.outer(cfg.grid.x_axis, cfg.grid.x_axis))
        samples = npl.dfn_evolve(cfg, pair0, alpha=2.0, t_final=5e-2, dt=1e-2, sample_interval=1e-2)
        assert len(samples) == 6
        for state in samples:
            rho = npl._one_body_density(cfg.grid, state.pair)
            assert np.array_equal(state.displacement(), _half_displacement(rho, cfg.form))

    @pytest.mark.parametrize(
        "t_final, dt", [(1.0005, 1e-3), (1.0, 0.0), (-1.0, 1e-3), (np.inf, 1e-3)]
    )
    def test_rejects_step_counts_that_miss_t_final(self, pair_solution_1d, t_final, dt):
        cfg, sol = pair_solution_1d
        with pytest.raises(ValueError):
            npl.dfn_evolve(cfg, sol.pair, alpha=2.0, t_final=t_final, dt=dt)

    def test_energy_conserved(self, pair_solution_1d, rng):
        cfg, sol = pair_solution_1d
        # generic (non-stationary) initial data
        pair0 = sol.pair * np.exp(0.2j * np.add.outer(cfg.grid.x_axis, cfg.grid.x_axis))
        samples = npl.dfn_evolve(cfg, pair0, alpha=2.0, t_final=1.0, dt=1e-3)

        def energy(state):
            en = npl.pt_energy(state.pair, cfg).total
            fsq_term = state.phonons.frequency * float(
                np.sum(np.abs(state.z) ** 2) * cfg.grid.mode_weight
            )
            rho = npl._one_body_density(cfg.grid, state.pair)
            f = cfg.form.values * (np.fft.fftn(rho) * cfg.grid.cell_volume)
            cross = 2 * state.phonons.coupling * float(
                np.real(np.vdot(state.z, f)) * cfg.grid.mode_weight
            )
            # subtract the double-counted attraction: product energy already
            # contains -D/2 which the phonon cross term re-adds at z = -alpha f
            return en + 0.5 * npl.pt_energy(state.pair, cfg).hartree + fsq_term + cross

        e0 = energy(samples[0])
        e1 = energy(samples[-1])
        assert abs(e1 - e0) < 1e-6
