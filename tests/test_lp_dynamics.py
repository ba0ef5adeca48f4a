import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_lab.errors import BlowUpError
from polaron_lab.spectral_core import FormFactor, Grid, WaveField
from polaron_lab import lp_dynamics as lp
from polaron_lab import spectral_core as sc


@pytest.fixture(scope="module")
def ring_cfg():
    grid = Grid(1, 32, 16.0)
    form = FormFactor.toy(grid, v0=0.08, cutoff=3.0)
    return lp.LPConfig(grid, form, alpha=2.0)


@pytest.fixture(scope="module")
def ring_state(ring_cfg, rng):
    grid = ring_cfg.grid
    bump = np.exp(-((grid.x_axis_centered) ** 2) / 4.0) * (1 + 0.1j)
    phi = WaveField(grid, bump).normalized()
    z0 = 0.05 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return lp.initial_state(ring_cfg, phi, z0=z0)


@pytest.fixture(scope="module")
def pekar_lp(pekar_rescaled_small):
    sol = pekar_rescaled_small
    cfg = lp.LPConfig(sol.phi0.grid, sol.form, alpha=2.0)
    z0 = lp.stationary_label(cfg, sol.f)
    return sol, cfg, z0


class TestConfig:
    def test_units_mapping(self, grid16):
        form = FormFactor.coulomb_d3_isolated(grid16)
        sc = lp.LPConfig(grid16, form, alpha=4.0)
        assert sc.coupling == 0.25 and sc.frequency == pytest.approx(1 / 16)

    @pytest.mark.parametrize("rep", ["quad", "osc", "both"])
    def test_initial_state_refuses_other_representation_names(self, ring_cfg, rep):
        phi = WaveField(ring_cfg.grid, np.ones(32)).normalized()
        with pytest.raises(ValueError, match="unknown representation"):
            lp.initial_state(ring_cfg, phi, rep=rep)


class TestStationaryData:
    def test_pekar_fixed_point_infidelity(self, pekar_lp):
        sol, cfg, z0 = pekar_lp
        state = lp.initial_state(cfg, sol.phi0, z0=z0)
        final = lp.evolve(state, 1.0, 1e-2)[-1]
        overlap = complex(np.vdot(final.phi.values, sol.phi0.values)) * cfg.grid.cell_volume
        assert 1 - abs(overlap) < 1e-10
        assert abs(final.phi.norm() - 1) < 1e-10

    def test_phase_is_exp_2_mu_t(self, pekar_lp):
        sol, cfg, z0 = pekar_lp
        state = lp.initial_state(cfg, sol.phi0, z0=z0)
        final = lp.evolve(state, 1.0, 1e-3)[-1]
        # mu = -||f||^2 in these units; total phase accumulates to 2 mu t
        assert np.angle(final.a_phase) == pytest.approx(
            np.angle(np.exp(2j * sol.mu * 1.0)), abs=1e-8
        )

    def test_df_energy_equals_pekar_level(self, pekar_lp):
        from polaron_lab.spectral_core import kinetic_energy

        sol, cfg, z0 = pekar_lp
        state = lp.initial_state(cfg, sol.phi0, z0=z0)
        # <u, H u> at the stationary data equals T - ||f||^2 = lam - mu = E_P
        assert lp.df_energy(state) == pytest.approx(sol.e_p, rel=1e-12)
        t_kin = kinetic_energy(sol.phi0)
        assert lp.df_energy(state) == pytest.approx(t_kin + sol.mu, rel=1e-9)

    def test_stationary_potential_is_static_mean_field(self, pekar_lp):
        from polaron_lab.spectral_core import kernel_potential

        sol, cfg, z0 = pekar_lp
        state = lp.initial_state(cfg, sol.phi0, z0=z0)
        rho = WaveField(cfg.grid, sol.phi0.density())
        v_static = kernel_potential(rho, sol.form).values.real
        assert np.max(np.abs(state.potential() - v_static)) < 1e-12
        later = lp.evolve(state, 0.5, 1e-2)[-1]
        assert np.max(np.abs(later.potential() - v_static)) < 1e-8


class TestConservation:
    def test_norm_and_modulus(self, ring_state):
        final = lp.evolve(ring_state, 5.0, 1e-2)[-1]
        assert abs(final.phi.norm() - 1.0) < 1e-8
        assert abs(abs(final.a_phase) - 1.0) < 1e-12

    def test_energy_drift_per_unit_time(self, ring_state):
        e0 = lp.df_energy(ring_state)
        final = lp.evolve(ring_state, 1.0, 1e-3)[-1]
        assert abs(lp.df_energy(final) - e0) < 1e-6

    def test_long_energy_drift(self, ring_state):
        # 10^4 steps on a generic state
        e0 = lp.df_energy(ring_state)
        final = lp.evolve(ring_state, 10.0, 1e-3)[-1]
        assert abs(lp.df_energy(final) - e0) < 1e-6


class TestRepresentations:
    def test_label_field_round_trip(self, ring_cfg, rng):
        z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        osc = lp.OscillatorRep.from_label(ring_cfg, z)
        assert np.max(np.abs(osc.label(ring_cfg, 0.0) - z)) < 1e-12

    def test_representations_agree_on_modes_without_coupling(self, rng):
        # v = 0.3 on +-1 and +-2 of an 8-site ring: both carry z on the uncoupled modes too
        grid = Grid(1, 8, 8.0)
        values = np.zeros(8)
        values[[1, 2, 6, 7]] = 0.3
        cfg = lp.LPConfig(grid, FormFactor(grid, values, np.inf, "ring"), alpha=1.5)
        phi = WaveField(grid, rng.standard_normal(8) + 1j * rng.standard_normal(8)).normalized()
        z0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        quad = lp.initial_state(cfg, phi, z0=z0, rep="quadrature")
        osc = lp.initial_state(cfg, phi, z0=z0, rep="oscillator")
        for _ in range(100):
            quad, osc = lp.step(quad, 1e-2), lp.step(osc, 1e-2)
        assert np.max(np.abs(quad.label() - osc.label())) < 1e-12
        assert abs(lp.df_energy(quad) - lp.df_energy(osc)) < 1e-12

    def test_oscillator_and_quadrature_agree(self, ring_cfg, ring_state):
        quad = ring_state
        osc = lp.LPState(
            cfg=ring_cfg,
            t=0.0,
            phi=quad.phi,
            rep=lp.OscillatorRep.from_label(ring_cfg, quad.label()),
        )
        sq = lp.evolve(quad, 10.0, 1e-2, sample_interval=2.0)
        so = lp.evolve(osc, 10.0, 1e-2, sample_interval=2.0)
        for a, b in zip(sq, so):
            gap = np.max(np.abs(a.potential() - b.potential()))
            assert gap < 1e-8
        assert np.max(np.abs(sq[-1].phi.values - so[-1].phi.values)) < 1e-8

    def test_frozen_electron_memory_kernel(self):
        # z0 = 0, drive frozen: V(t) = -(lam_c^2/omega)(1 - cos omega t) K*rho
        grid = Grid(1, 32, 16.0)
        form = FormFactor.toy(grid, v0=0.1)
        cfg = lp.LPConfig(grid, form, alpha=1.5)
        phi = WaveField(grid, np.exp(-grid.x_axis_centered**2)).normalized()
        f = cfg.displacement_profile(phi.values)
        rep = lp.OscillatorRep.from_label(cfg, np.zeros(grid.shape, dtype=complex))
        t, h = 0.0, 0.05
        for _ in range(40):
            rep = rep.stepped(cfg, t, h, f)
            t += h
        conv = np.fft.ifftn(form.kernel_multiplier * np.fft.fftn(phi.density())).real
        lam, om = cfg.coupling, cfg.frequency
        expected = -(lam**2 / om) * (1 - np.cos(om * t)) * conv
        assert np.max(np.abs(cfg.label_potential(rep.hermitian_label(cfg, t)) - expected)) < 1e-12

    def test_zero_coupling_free_evolution(self, rng):
        grid = Grid(1, 32, 16.0)
        form = FormFactor.toy(grid, v0=0.0)
        cfg = lp.LPConfig(grid, form, alpha=2.0)
        phi = WaveField(
            grid, rng.standard_normal(32) + 1j * rng.standard_normal(32)
        ).normalized()
        z0 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = lp.initial_state(cfg, phi, z0=z0)
        final = lp.evolve(state, 2.0, 1e-2)[-1]
        free = np.fft.ifftn(np.exp(-2j * grid.k_sq) * np.fft.fftn(phi.values))
        assert np.max(np.abs(final.phi.values - free)) < 1e-12
        # label rotates at exactly the phonon frequency
        assert np.max(np.abs(final.label() - np.exp(-2j * cfg.frequency) * z0)) < 1e-12
        assert final.a_phase == pytest.approx(1.0 + 0j, abs=1e-14)


class TestIntegrator:
    def test_time_reversibility(self, ring_state):
        forward = lp.step(ring_state, 1e-2)
        back = lp.step(forward, -1e-2)
        assert np.max(np.abs(back.phi.values - ring_state.phi.values)) < 1e-10
        assert np.max(np.abs(back.label() - ring_state.label())) < 1e-10
        assert abs(back.a_phase - ring_state.a_phase) < 1e-10

    def test_richardson_second_order(self, ring_state):
        def final_phi(dt):
            return lp.evolve(ring_state, 1.0, dt)[-1].phi.values

        ref = final_phi(1.0 / 1024)
        err1 = np.linalg.norm(final_phi(1.0 / 64) - ref)
        err2 = np.linalg.norm(final_phi(1.0 / 128) - ref)
        assert 3.6 < err1 / err2 < 4.4

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([4, 8, 16, 32]),
        st.floats(4.0, 16.0),
        st.floats(0.0, 0.5),
        st.floats(0.5, 4.0),
        st.floats(1e-3, 5e-2),
        st.sampled_from(["quadrature", "oscillator"]),
        st.integers(0, 2**32 - 1),
    )
    def test_step_back_is_inverse_and_keeps_norm(self, n, box, v0, alpha, dt, rep, seed):
        grid = Grid(1, n, box)
        cfg = lp.LPConfig(grid, FormFactor.toy(grid, v0, cutoff=6.0), alpha=alpha)
        rng = np.random.default_rng(seed)
        phi = WaveField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n)).normalized()
        z0 = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        state = lp.initial_state(cfg, phi, z0=z0, rep=rep)
        forward = lp.step(state, dt)
        back = lp.step(forward, -dt)
        assert abs(forward.phi.norm() - 1.0) < 1e-12
        assert np.max(np.abs(back.phi.values - state.phi.values)) < 1e-10
        assert np.max(np.abs(back.label() - state.label())) < 1e-10
        assert abs(back.a_phase - state.a_phase) < 1e-10

    @pytest.mark.parametrize("rep", ["quadrature", "oscillator"])
    def test_carried_displacement_is_the_orbital_s(self, pekar_lp, rep):
        # each step hands its f_after on as the next f_before; it must be the f of phi
        sol, cfg, z0 = pekar_lp
        state = lp.initial_state(cfg, sol.phi0, z0=(1.0 + 0.2j) * z0, rep=rep)
        for _ in range(5):
            state = lp.step(state, 1e-2)
            assert np.array_equal(state.displacement(), cfg.displacement_profile(state.phi.values))

    @pytest.mark.parametrize("rep", ["quadrature", "oscillator"])
    def test_step_does_four_transforms(self, ring_state, rep, monkeypatch):
        # drift fftn/ifftn, the potential's irfftn and f_after's rfftn; f_before is carried.
        # Counted at the grid transforms, on the ring (numpy) and on a 3d grid (scipy.fft)
        calls = []

        def counted(transform):
            def wrapper(*args, **kwargs):
                calls.append(transform.__name__)
                return transform(*args, **kwargs)

            return wrapper

        names = ("_fftn", "_ifftn", "_rfftn", "_irfftn")
        wrappers = {name: counted(getattr(sc, name)) for name in names}
        for module in (sc, lp):
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        grid = Grid(3, 8, 8.0)
        cube = lp.LPConfig(grid, FormFactor.coulomb_d3_isolated(grid), alpha=2.0)
        bump = np.exp(-sum(c**2 for c in np.meshgrid(*[grid.x_axis_centered] * 3)) / 4.0)
        for cfg, phi, z0 in (
            (ring_state.cfg, ring_state.phi, ring_state.label()),
            (cube, WaveField(grid, bump).normalized(), 0.05j * np.ones(grid.shape)),
        ):
            state = lp.initial_state(cfg, phi, z0=z0, rep=rep)
            calls.clear()
            for _ in range(3):
                state = lp.step(state, 1e-2)
            assert sorted(calls) == sorted(names * 3)

    def test_step_builds_the_mid_step_label_once(self, ring_state, monkeypatch):
        # the kick's potential and the phase update share one QuadratureRep.hermitian_label call
        calls = []
        label = lp.QuadratureRep.hermitian_label

        def counted(self, cfg, t):
            calls.append(t)
            return label(self, cfg, t)

        monkeypatch.setattr(lp.QuadratureRep, "hermitian_label", counted)
        state = ring_state
        for _ in range(5):
            state = lp.step(state, 1e-2)
        assert len(calls) == 5

    @pytest.mark.parametrize("rep", ["quadrature", "oscillator"])
    def test_drift_follows_dt_on_one_config(self, ring_state, rep):
        # one config stepped at dt, dt/2 and -dt against a fresh config per step
        cfg = lp.LPConfig(ring_state.cfg.grid, ring_state.cfg.form, alpha=2.0)
        shared = lp.initial_state(cfg, ring_state.phi, z0=ring_state.label(), rep=rep)
        fresh = shared
        for dt in (1e-2, 5e-3, -1e-2):
            shared = lp.step(shared, dt)
            new_cfg = lp.LPConfig(cfg.grid, cfg.form, alpha=2.0)
            fresh = lp.step(
                lp.LPState(new_cfg, fresh.t, fresh.phi, fresh.rep, fresh.a_phase), dt
            )
            assert shared.t == fresh.t
            assert np.array_equal(shared.phi.values, fresh.phi.values)
            assert np.array_equal(shared.label(), fresh.label())
            assert shared.a_phase == fresh.a_phase

    @pytest.mark.parametrize("t_final, dt", [(0.1, 1e-2), (-0.1, -1e-2)])
    def test_samples_at_the_interval_in_both_directions(self, ring_state, t_final, dt):
        times = [s.t for s in lp.evolve(ring_state, t_final, dt, sample_interval=0.05)]
        assert times == pytest.approx([0.0, t_final / 2, t_final])

    def test_blow_up_detection(self, ring_cfg):
        bad = WaveField(ring_cfg.grid, np.full(32, np.nan, dtype=complex))
        state = lp.LPState(
            cfg=ring_cfg,
            t=0.0,
            phi=bad,
            rep=lp.QuadratureRep.from_label(ring_cfg, np.zeros(32, dtype=complex)),
        )
        with pytest.raises(BlowUpError):
            lp.step(state, 1e-2)

    def test_phase_update_unit_modulus(self, ring_state):
        a = lp.step(ring_state, 1e-2).a_phase
        assert abs(abs(a) - 1) < 1e-12


class TestErrorIntegral:
    def test_zero_length(self, ring_state):
        assert lp.df_error_integral([ring_state], lambda s: 1.0) == 0.0

    def test_monotone_in_time(self, ring_state):
        states = lp.evolve(ring_state, 1.0, 1e-2, sample_interval=0.1)
        partials = [
            lp.df_error_integral(states[: k + 1], lambda s: 0.5 + 0.1 * np.sin(s.t))
            for k in range(1, len(states))
        ]
        assert all(b >= a for a, b in zip(partials, partials[1:]))
