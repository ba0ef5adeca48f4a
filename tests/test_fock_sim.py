import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import expm_multiply

from polaron_lab.errors import ConvergenceError, SizingError
from polaron_lab import fock_sim as fs
from polaron_lab import lp_dynamics as lp
from polaron_lab.spectral_core import WaveField, mode_norm_sq

from oracles import (
    dense_weighted_resolvent_norm,
    displaced_oscillator_ground_energy,
    h_effective,
    h_tilde,
    ring_density_transform,
    ring_mode_potential,
)


IDENTITIES = fs.FockConfig(
    n_sites=16, box_length=16.0, mode_numbers=(1, -1, 2, -2, 3, -3), v0=0.05, n_max=3, alpha=2.0
)
SWEEP = fs.FockConfig(
    n_sites=8, box_length=2.0, mode_numbers=(1, -1, 2, -2), v0=3e-3, n_max=6, alpha=1.0
)
# the quick-preset fock_id block and the lemma-suite verb at 8 sites, box 8 (dimension 672)
QUICK_LEMMAS = fs.FockConfig(8, 8.0, (1, -1, 2, -2), v0=0.05, n_max=2, alpha=1.0)
BENCH_LEMMAS = fs.FockConfig(8, 8.0, (1, -1, 2, -2, 3, -3), v0=0.05, n_max=3, alpha=1.0)


@pytest.fixture(scope="module")
def ops_id():
    return fs.assemble(IDENTITIES)


@pytest.fixture(scope="module")
def pekar_id(ops_id):
    return fs.discrete_pekar(ops_id)


@pytest.fixture(scope="module")
def propagation_problem(rng):
    ops = fs.assemble(fs.FockConfig(8, 4.0, (1, -1), v0=0.3, n_max=4, alpha=1.5))
    x = rng.standard_normal(ops.basis.dim_total) + 1j * rng.standard_normal(ops.basis.dim_total)
    return ops, x / np.linalg.norm(x)


class TestAssembly:
    def test_nmax_zero_reduces_to_electron_problem(self):
        cfg = fs.FockConfig(8, 4.0, (1, -1), v0=0.2, n_max=0, alpha=1.0)
        ops = fs.assemble(cfg)
        assert ops.basis.n_occ == 1
        e0, _ = fs.ground_state(ops)
        assert e0 == pytest.approx(0.0, abs=1e-12)  # free ring ground state

    def test_displaced_oscillator_closed_form(self):
        cfg = fs.FockConfig(2, 2.0, (0,), v0=0.05, n_max=40, alpha=1.7)
        ops = fs.assemble(cfg)
        e0, _ = fs.ground_state(ops)
        w = ops.basis.grid.mode_weight
        expected = displaced_oscillator_ground_energy(
            cfg.alpha**-2, cfg.alpha**-1 * cfg.v0 * np.sqrt(w)
        )
        assert e0 == pytest.approx(expected, abs=1e-12)

    def test_hermitian(self, ops_id):
        assert ops_id.hermiticity_defect() < 1e-13

    def test_adjoint_pairing(self, ops_id, rng):
        a = ops_id.annihilate_g
        x = rng.standard_normal(ops_id.basis.dim_total) + 0j
        y = rng.standard_normal(ops_id.basis.dim_total) + 0j
        assert np.vdot(y, a @ x) == pytest.approx(np.conj(np.vdot(x, a.conj().T @ y)))

    def test_budget_guard(self):
        with pytest.raises(SizingError):
            fs.FockBasis(
                fs.FockConfig(16, 16.0, (1, -1, 2, -2, 3, -3), 0.05, n_max=3, alpha=1.0, budget=10)
            )

    def test_occupation_order_is_lexicographic(self, ops_id):
        occs = ops_id.basis.occupations
        assert occs == sorted(occs)

    @pytest.mark.parametrize("n_modes, n_max", [(0, 3), (1, 4), (2, 0), (3, 3), (4, 5), (6, 2)])
    def test_occupations_match_product_filter(self, n_modes, n_max):
        reference = [
            n for n in itertools.product(range(n_max + 1), repeat=n_modes) if sum(n) <= n_max
        ]
        occ = fs._occupations(n_modes, n_max)
        assert [tuple(row) for row in occ.tolist()] == reference
        assert np.array_equal(fs._occupation_rank(occ, n_max), np.arange(len(reference)))

    def test_lowering_matches_loop_reference(self):
        basis = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.1, n_max=5, alpha=1.0))
        index = {occ: i for i, occ in enumerate(basis.occupations)}
        for j, aj in enumerate(basis.lowering):
            rows, cols, vals = [], [], []
            for i, occ in enumerate(basis.occupations):
                if occ[j] > 0:
                    target = list(occ)
                    target[j] -= 1
                    rows.append(index[tuple(target)])
                    cols.append(i)
                    vals.append(np.sqrt(occ[j]))
            reference = sp.csr_matrix((vals, (rows, cols)), shape=aj.shape, dtype=complex)
            assert (aj != reference).nnz == 0

    def test_mode_set_must_close_under_negation(self):
        with pytest.raises(ValueError):
            fs.FockConfig(8, 4.0, (1, 2, -2), v0=0.1, n_max=2, alpha=1.0)


class TestWeyl:
    def test_identity_at_zero(self, ops_id):
        vac = ops_id.basis.vacuum_occ()
        out, leak = fs.weyl_apply(ops_id.basis, np.zeros(6, dtype=complex), vac)
        assert np.allclose(out, vac)
        assert leak == 0.0

    def test_unitary_on_random_states(self, ops_id, rng):
        basis = ops_id.basis
        f = fs._small_test_displacement(basis, rng, scale=0.05)
        for _ in range(5):
            x = rng.standard_normal(basis.n_occ) + 1j * rng.standard_normal(basis.n_occ)
            out, _ = fs.weyl_apply(basis, f, x)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_coherent_label_matches_minus_alpha_f(self):
        cfg = fs.FockConfig(8, 4.0, (1, -1), v0=0.05, n_max=12, alpha=2.0)
        basis = fs.FockBasis(cfg)
        f = np.array([0.02 + 0.01j, 0.02 - 0.01j])
        eta, leak = fs.coherent_state(basis, -cfg.alpha * f)
        assert leak < 1e-8
        for j, aj in enumerate(basis.lowering):
            label = np.vdot(eta, aj @ eta) / np.sqrt(basis.grid.mode_weight)
            assert label == pytest.approx(-cfg.alpha * f[j], rel=1e-6)

    def test_truncation_guard(self, ops_id):
        big = np.full(6, 10.0, dtype=complex)
        with pytest.raises(SizingError):
            fs.weyl_apply(ops_id.basis, big, ops_id.basis.vacuum_occ())


@st.composite
def momentum_configs(draw):
    """A small FockConfig: mode set {+-1} plus up to three more pairs, dimension <= 1320."""
    pairs = {1} | draw(st.sets(st.integers(2, 4), max_size=3))
    config = fs.FockConfig(
        n_sites=draw(st.sampled_from((4, 8))),
        box_length=draw(st.floats(2.0, 16.0)),
        mode_numbers=tuple(m for k in sorted(pairs) for m in (k, -k)),
        v0=draw(st.floats(0.05, 1.0)),
        n_max=draw(st.integers(1, 3)),
        alpha=draw(st.floats(0.5, 4.0)),
    )
    assert fs.FockBasis(config).dim_total <= 1500
    return config


class TestMomentumConservation:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(momentum_configs())
    def test_translation_commutes_with_hamiltonian(self, config):
        # T = shift (x) e^{-i sum_j n_j k_j dx}: the electron moves by one site and the
        # phonons carry the momentum back, so T conserves total momentum and [T, H] = 0
        ops = fs.assemble(config)
        basis = ops.basis
        shift = sp.csr_matrix(np.roll(np.eye(config.n_sites), 1, axis=0))
        total = basis.occ @ basis.k_modes * basis.grid.dx

        def commutator_norm(sign):
            t = sp.kron(shift, sp.diags(np.exp(sign * 1j * total)), format="csr")
            return spla.norm(t @ ops.hamiltonian - ops.hamiltonian @ t)

        h_norm = spla.norm(ops.hamiltonian)
        assert commutator_norm(-1) <= 1e-12 * h_norm
        # the conjugate phase rotates the +-1 coupling by e^{-+2 i k_1 dx}, sin(2 k_1 dx) != 0
        # on 4 or 8 sites: the commutator is of the coupling's size, so the check above bites
        assert commutator_norm(+1) > 0.5 * spla.norm(ops.field_g) / config.alpha


class TestRingMaps:
    # +-2 on 4 sites share ring index 2: the maps and the exact model keep both modes
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(momentum_configs(), st.integers(0, 2**32 - 1))
    @example(fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.5, n_max=1, alpha=1.0), 0)
    def test_displacement_potential_and_adjoint_maps(self, config, seed):
        basis = fs.FockBasis(config)
        rng = np.random.default_rng(seed)
        n, n_modes = config.n_sites, len(config.mode_numbers)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        f = basis.displacement(psi)
        assert np.max(np.abs(f - basis.v * ring_density_transform(basis, psi))) < 1e-13
        assert np.max(np.abs(basis.potential(f) - ring_mode_potential(basis, f))) < 1e-13
        modes = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        lattice = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(
            np.vdot(basis.to_lattice(modes), lattice) - np.vdot(modes, basis.to_modes(lattice))
        ) < 1e-13

    def test_conjugate_partner_is_the_negated_mode(self):
        basis = fs.FockBasis(fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.5, n_max=1, alpha=1.0))
        assert basis.conjugate_mode_index == [1, 0, 3, 2]
        f = fs._symmetric_draw(basis, np.random.default_rng(0))
        assert f[3] == np.conj(f[2]) and f[1] == np.conj(f[0])

    def test_lp_comparisons_refuse_a_repeated_ring_momentum(self):
        config = fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=3e-3, n_max=2, alpha=1.0)
        phi0 = np.full(4, 0.5, dtype=complex)
        with pytest.raises(ValueError, match="ring momentum"):
            fs.error_sweep_coherent(config, [1.0], 0.1, phi0, np.zeros(4), dt=1e-2, n_samples=2)
        with pytest.raises(ValueError, match="ring momentum"):
            fs.make_defect_evaluator(fs.assemble(config))
        # the exact-model experiments keep taking the set
        rep = fs.error_sweep_stationary(config, [1.0, 2.0], 0.1, n_samples=2)
        assert rep["leakage_max"] < 1e-12


@st.composite
def weyl_problems(draw):
    """A small occupation basis, a random vector on its shells <= n_max - 3 and a small g.

    The mean phonon number of g stays below 2.5e-5, so the displaced vector
    keeps less than 1e-12 of its weight on the saturated shell.
    """
    pairs = draw(st.integers(1, 3))
    basis = fs.FockBasis(
        fs.FockConfig(
            n_sites=draw(st.sampled_from((2, 4, 8))),
            box_length=draw(st.floats(2.0, 8.0)),
            mode_numbers=tuple(m for k in range(1, pairs + 1) for m in (k, -k)),
            v0=0.1,
            n_max=draw(st.integers(3, 6)),
            alpha=1.0,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(basis.n_occ) + 1j * rng.standard_normal(basis.n_occ)
    x *= basis.occ_totals <= basis.config.n_max - 3
    g = rng.standard_normal(2 * pairs) + 1j * rng.standard_normal(2 * pairs)
    g *= np.sqrt(draw(st.floats(0.0, 2.5e-5)) / mode_norm_sq(basis.grid, g))
    return basis, x / np.linalg.norm(x), g


class TestWeylProperties:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(weyl_problems())
    def test_unitary_and_inverted_by_negative_displacement(self, problem):
        basis, x, g = problem
        out, leakage = fs.weyl_apply(basis, g, x, guard=False)
        assert leakage < 1e-12
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        back, _ = fs.weyl_apply(basis, -g, out, guard=False)
        assert np.linalg.norm(back - x) < 1e-10


class TestGroundState:
    def test_variational_ordering(self, ops_id, pekar_id):
        e_f, psi = fs.ground_state(ops_id)
        rq = np.real(np.vdot(psi, ops_id.hamiltonian @ psi))
        assert rq <= pekar_id.energy

    def test_residual_contract(self, ops_id):
        e0, psi = fs.ground_state(ops_id)
        r = np.linalg.norm(ops_id.hamiltonian @ psi - e0 * psi)
        assert r < 1e-8


class TestDiscretePekar:
    def test_self_consistency_residuals(self, pekar_id):
        assert pekar_id.electron_residual < 1e-8
        assert pekar_id.phonon_residual < 1e-8

    def test_zero_coupling_free_mode(self):
        cfg = fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2, alpha=1.0)
        pek = fs.discrete_pekar(fs.assemble(cfg))
        assert np.allclose(np.abs(pek.phi), 1 / np.sqrt(8))
        assert np.all(pek.f == 0)
        assert pek.energy == pytest.approx(0.0, abs=1e-12)

    def test_exhausted_iterations_raise(self, ops_id):
        with pytest.raises(ConvergenceError):
            fs.discrete_pekar(ops_id, max_iter=1)

    def test_energy_is_product_expectation(self, ops_id, pekar_id):
        u0 = np.kron(pekar_id.phi, pekar_id.eta)
        direct = np.real(np.vdot(u0, ops_id.hamiltonian @ u0))
        assert direct == pytest.approx(pekar_id.energy, abs=1e-10)

    def test_against_quasi_newton_oracle(self):
        # direct minimization over (phi, z) with scipy, strong enough coupling
        # that the minimizer localizes and the data is nontrivial
        from scipy.optimize import minimize

        cfg = fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.35, n_max=3, alpha=2.0)
        ops = fs.assemble(cfg)
        basis = ops.basis
        pek = fs.discrete_pekar(ops)
        n, m = 8, 4

        def unpack(x):
            phi = x[:n] + 1j * x[n : 2 * n]
            z = x[2 * n : 2 * n + m] + 1j * x[2 * n + m :]
            return phi / np.linalg.norm(phi), z

        def energy(x):
            phi, z = unpack(x)
            f = basis.v * ring_density_transform(basis, phi)
            kin = np.real(np.vdot(phi, basis.kinetic_electron @ phi))
            w = basis.grid.mode_weight
            return (
                kin
                + cfg.alpha**-2 * w * np.sum(np.abs(z) ** 2)
                + cfg.alpha**-1 * 2 * np.real(w * np.vdot(z, f))
            )

        rng = np.random.default_rng(0)
        best = np.inf
        for _ in range(3):
            x0 = rng.standard_normal(2 * n + 2 * m)
            res = minimize(energy, x0, method="L-BFGS-B", options={"maxiter": 2000})
            best = min(best, res.fun)
        assert pek.energy == pytest.approx(best, abs=1e-7)
        assert pek.energy < 0  # localized, genuinely bound state at this coupling


class TestPropagation:
    def test_t_zero_identity(self, ops_id, rng):
        x = rng.standard_normal(ops_id.basis.dim_total) + 0j
        out = fs.propagate(ops_id, x, 0.0)
        assert np.allclose(out, x)

    def test_eigenvector_phase(self, ops_id):
        e0, psi = fs.ground_state(ops_id)
        out = fs.propagate(ops_id, psi, 0.7)
        assert np.max(np.abs(out - np.exp(-1j * e0 * 0.7) * psi)) < 1e-10

    def test_matches_dense_eigh_reference(self, propagation_problem):
        ops, x = propagation_problem
        vals, vecs = eigh(ops.hamiltonian.toarray())
        prop = fs.Propagator(ops.hamiltonian)
        for t in (0.5, 3.0):
            dense = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ x))
            assert np.linalg.norm(dense - prop.apply(x, t)) < 1e-9

    def test_grid_matches_scalar_samples(self, propagation_problem):
        ops, x = propagation_problem
        prop = fs.Propagator(ops.hamiltonian)
        times = np.linspace(0.5, 3.0, 11)
        stacked = prop.apply(x, times)
        assert stacked.shape == (len(times), ops.basis.dim_total)
        for t, row in zip(times, stacked):
            assert np.linalg.norm(row - prop.apply(x, t)) < 1e-9

    def test_grid_must_be_uniform(self, ops_id):
        prop = fs.Propagator(ops_id.hamiltonian)
        x = np.zeros(ops_id.basis.dim_total, dtype=complex)
        for bad in ([0.0, 1.0, 3.0], [1.0], [[0.0, 1.0]]):
            with pytest.raises(ValueError):
                prop.apply(x, np.array(bad))

    def test_norm_and_energy_preserved(self, ops_id, rng):
        x = rng.standard_normal(ops_id.basis.dim_total) + 0j
        x /= np.linalg.norm(x)
        out = fs.propagate(ops_id, x, 2.0)
        assert abs(np.linalg.norm(out) - 1) < 1e-10
        e0 = np.real(np.vdot(x, ops_id.hamiltonian @ x))
        e1 = np.real(np.vdot(out, ops_id.hamiltonian @ out))
        assert abs(e1 - e0) < 1e-9


@st.composite
def fock_problems(draw):
    """A small assembled Fock Hamiltonian and a random normalized state on its space."""
    pairs = draw(st.integers(1, 2))
    config = fs.FockConfig(
        n_sites=draw(st.sampled_from((2, 4, 8))),
        box_length=draw(st.floats(2.0, 8.0)),
        mode_numbers=tuple(m for k in range(1, pairs + 1) for m in (k, -k)),
        v0=draw(st.floats(0.0, 0.5)),
        n_max=draw(st.integers(0, 3)),
        alpha=draw(st.floats(0.5, 4.0)),
    )
    ops = fs.assemble(config)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = ops.basis.dim_total
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return fs.Propagator(ops.hamiltonian), x / np.linalg.norm(x)


any_time = st.floats(-3.0, 3.0)
properties = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestPropagatorProperties:
    @properties
    @given(fock_problems(), any_time)
    def test_norm_preserved(self, problem, t):
        prop, x = problem
        assert abs(np.linalg.norm(prop.apply(x, t)) - 1.0) < 1e-10

    @properties
    @given(fock_problems(), any_time)
    def test_reversible(self, problem, t):
        prop, x = problem
        assert np.linalg.norm(prop.apply(prop.apply(x, t), -t) - x) < 1e-9

    @properties
    @given(fock_problems(), any_time, any_time)
    def test_group_law(self, problem, s, t):
        prop, x = problem
        assert np.linalg.norm(prop.apply(x, s + t) - prop.apply(prop.apply(x, s), t)) < 1e-9


class TestProjectors:
    def test_identities_on_random_products(self, ops_id, pekar_id, rng):
        rep = fs.projector_identities(ops_id, pekar_id, rng)
        assert rep["idempotency"] < 1e-12
        assert rep["three_term_vs_alternative"] < 1e-12
        assert rep["complement_factorization"] < 1e-12
        assert rep["delta_h_identity"] < 1e-12

    def test_zero_coupling_invariant_subspace(self, rng):
        cfg = fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2, alpha=1.0)
        ops = fs.assemble(cfg)
        basis = ops.basis
        phi = np.ones(8, dtype=complex) / np.sqrt(8)
        vac = basis.vacuum_occ()
        u = np.kron(phi, vac)
        hu = ops.hamiltonian @ u
        pu = fs.tangent_projector_apply(basis, phi, vac, hu)
        assert np.linalg.norm(hu - pu) < 1e-13

    def test_defect_halves_when_alpha_doubles(self, pekar_id):
        defects = []
        for alpha in (2.0, 4.0):
            ops = fs.assemble(IDENTITIES.with_alpha(alpha))
            pek = fs.discrete_pekar(ops)
            defects.append(
                fs.perp_defect(ops.basis, pek.phi, pek.eta, ops.hamiltonian)
            )
        assert defects[1] / defects[0] == pytest.approx(0.5, abs=0.05)


class TestQuadratureReconstruction:
    def test_eta_reconstruction_matches_direct_integration(self):
        """(J, F) reconstruction against an independent phonon integrator.

        Evolve the coupled system, record f_s, then directly integrate
        i d(eta)/dt = (omega N + lam phi(f_s)) eta with midpoint steps and
        compare with e^{-iF} e^{-i omega N t} W(J_t) eta0.
        """
        cfg_f = fs.FockConfig(8, 2.0, (1, -1), v0=0.15, n_max=10, alpha=1.5)
        basis = fs.FockBasis(cfg_f)
        grid = basis.grid
        cfg = lp.LPConfig(grid, basis.form, alpha=cfg_f.alpha)
        x = grid.x_axis_centered
        phi0 = WaveField(grid, np.exp(-(x**2) / (2 * 0.2**2)) + 0j).normalized()
        g = np.array([0.1 + 0.05j, 0.1 - 0.05j])
        state = lp.initial_state(cfg, phi0, z0=basis.to_lattice(-cfg_f.alpha * g))
        eta0, _ = fs.coherent_state(basis, -cfg_f.alpha * g)

        dt = 1e-3
        eta_direct = eta0.copy()
        omega, lam = cfg.frequency, cfg.coupling
        n_op = basis.number_occ
        t = 0.0
        current = state
        for _ in range(500):
            mid = lp.step(current, dt / 2)
            f_modes = basis.displacement(mid.phi.values * np.sqrt(grid.dx))
            h_ph = (omega * n_op + lam * basis.field_occ(f_modes)).tocsc()
            eta_direct = expm_multiply(-1j * dt * h_ph, eta_direct)
            current = lp.step(mid, dt / 2)
            t += dt

        j_t = basis.to_modes(current.rep.memory(cfg))
        eta_rec, _ = fs.weyl_apply(basis, j_t, eta0, guard=False)
        eta_rec = np.exp(-1j * omega * basis.occ_totals * t) * eta_rec
        eta_rec = np.exp(-1j * current.rep.f_acc) * eta_rec
        assert np.linalg.norm(eta_rec - eta_direct) < 1e-5


class TestSweeps:
    def test_stationary_trend(self):
        rep = fs.error_sweep_stationary(SWEEP, [1.0, 2.0, 4.0, 8.0], 5.0, n_samples=51)
        sups = rep["sup_errors"]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert rep["slope"] <= -1.8
        assert rep["r_squared"] > 0.99
        assert rep["rows"][0][2] == pytest.approx(0.0, abs=1e-12)  # t = 0

    def test_error_symmetric_in_time_reversal(self):
        cfg = SWEEP.with_alpha(2.0)
        ops = fs.assemble(cfg)
        pek = fs.discrete_pekar(ops)
        u0 = np.kron(pek.phi, pek.eta)
        u0 /= np.linalg.norm(u0)
        prop = fs.Propagator(ops.hamiltonian)
        for t in (0.7, 2.3):
            errs = []
            for sign in (1, -1):
                psi = prop.apply(u0, sign * t)
                ov = np.vdot(u0, psi) * np.exp(1j * pek.energy * sign * t)
                errs.append(float(2 * (1 - ov.real)))
            assert abs(errs[0] - errs[1]) < 1e-10

    def test_coherent_trend_and_separation(self, rng):
        phi0, g = fs._coherent_initial_data(fs.FockBasis(SWEEP), rng)
        coh = fs.error_sweep_coherent(SWEEP, [1.0, 2.0, 4.0, 8.0], 5.0, phi0, g, dt=2e-3)
        stat = fs.error_sweep_stationary(SWEEP, [1.0, 2.0, 4.0, 8.0], 5.0, n_samples=51)
        assert coh["slope"] <= -0.8
        worse = coh["slope"] > stat["slope"] or coh["intercept"] > stat["intercept"]
        assert worse

    def test_coherent_sweep_refuses_samples_between_steps(self, monkeypatch):
        # T 2.5 over 25 intervals at dt 3e-3 puts a sample every 33.3 steps; the LP state
        # would then be compared with the exact one up to dt/2 away in time
        config = fs.FockConfig(8, 2.0, (1, -1, 2, -2), v0=3e-3, n_max=2, alpha=1.0)
        phi0, g = fs._coherent_initial_data(fs.FockBasis(config), np.random.default_rng(0))

        def assemble_forbidden(*args):
            raise AssertionError("assembled before the step count was checked")

        monkeypatch.setattr(fs, "assemble", assemble_forbidden)
        with pytest.raises(ValueError, match="integer number of steps"):
            fs.error_sweep_coherent(config, [1.0, 8.0], 2.5, phi0, g, dt=3e-3, n_samples=26)
        with pytest.raises(ValueError, match="at least 2"):
            fs.error_sweep_coherent(config, [1.0, 8.0], 2.5, phi0, g, dt=1e-2, n_samples=1)

    def test_coherent_reduces_to_stationary_for_pekar_data(self):
        # z0 = -alpha f with phi0 the self-consistent minimizer is the fixed
        # point; the coherent machinery must reproduce the stationary errors
        alphas = [2.0, 4.0]
        ops = fs.assemble(SWEEP.with_alpha(alphas[0]))
        pek = fs.discrete_pekar(ops)
        coh = fs.error_sweep_coherent(
            SWEEP, alphas, 2.0, pek.phi, pek.f, dt=1e-3, n_samples=11
        )
        stat = fs.error_sweep_stationary(SWEEP, alphas, 2.0, n_samples=11)
        for a, b in zip(coh["sup_errors"], stat["sup_errors"]):
            assert a == pytest.approx(b, rel=2e-2, abs=1e-12)


class TestDefectIntegral:
    def test_stationary_integrand_constant_and_alpha_scaling(self):
        ring = fs.FockBasis(SWEEP)
        integrals = []
        for alpha in (2.0, 4.0):
            ops = fs.assemble(SWEEP.with_alpha(alpha))
            pek = fs.discrete_pekar(ops)
            cfg = lp.LPConfig(ring.grid, ring.form, alpha=alpha)
            phi = WaveField(ring.grid, pek.phi / np.sqrt(ring.grid.dx))
            state = lp.initial_state(cfg, phi, z0=ring.to_lattice(-alpha * pek.f))
            states = lp.evolve(state, 0.5, 1e-2, sample_interval=0.1)
            defect = fs.make_defect_evaluator(ops)
            values = [defect(s) for s in states]
            assert max(values) - min(values) < 1e-6 * max(values)  # constant integrand
            integrals.append(lp.df_error_integral(states, defect))
        assert integrals[1] / integrals[0] == pytest.approx(0.5, abs=0.05)


class TestInequalities:
    def test_suite_report(self, rng):
        rep = fs.inequality_suite(IDENTITIES, alphas=(1.0, 2.0, 4.0), rng=rng, n_random=1000)
        assert rep["annihilator_bounds_hold"]
        for name, resid in rep["conjugation_residuals"].items():
            assert resid < 1e-8, name
        for key, val in rep["two_sided_bound_min_eigs"].items():
            assert val >= -1e-10, key
        assert rep["resolvent_spread_nonincreasing"]

    def test_resolvent_norm_matches_dense_reference(self):
        for config in (QUICK_LEMMAS, BENCH_LEMMAS):
            for alpha in (1.0, 2.0, 4.0):
                ops = fs.assemble(config.with_alpha(alpha))
                pek = fs.discrete_pekar(ops)
                dense = dense_weighted_resolvent_norm(ops, pek)
                assert fs._weighted_resolvent_norm(ops, pek) == pytest.approx(dense, rel=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from((4, 8)),
        st.integers(1, 2),
        st.integers(1, 3),
        st.floats(0.0, 0.3),
        st.floats(0.5, 6.0),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 2.0),
    )
    def test_resolvent_norm_matches_dense_reference_off_the_pekar_point(
        self, sites, pairs, n_max, v0, alpha, seed, lift
    ):
        # a random orbital and a raised E: the factorisation must not rely on phi
        # being an eigenvector of h_e, and gaps below the 1e-14 floor get clamped
        modes = tuple(m for k in range(1, pairs + 1) for m in (k, -k))
        ops = fs.assemble(fs.FockConfig(sites, float(sites), modes, v0, n_max, alpha))
        pek = fs.discrete_pekar(ops)
        phi = np.random.default_rng(seed).standard_normal((sites, 2)) @ [1.0, 1j]
        pek = dataclasses.replace(pek, phi=phi / np.linalg.norm(phi), energy=pek.energy + lift)
        dense = dense_weighted_resolvent_norm(ops, pek)
        assert fs._weighted_resolvent_norm(ops, pek) == pytest.approx(dense, rel=1e-12)

    def test_zero_factor_degenerate_case(self, rng):
        cfg = fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2, alpha=1.0)
        ops = fs.assemble(cfg)
        x = rng.standard_normal(ops.basis.dim_total) + 0j
        assert np.linalg.norm(ops.annihilate_g @ x) == 0.0

    def test_rotated_frame_evolution_identity(self, rng):
        # || (e^{-iHt} - e^{-iH_eff t}) W* chi || == || (e^{-iH_rot t} - e^{-iH_tilde t}) chi ||
        cfg = IDENTITIES
        ops = fs.assemble(cfg)
        basis = ops.basis
        f = fs._small_test_displacement(basis, rng)
        a_occ = basis.annihilator_occ(cfg.alpha * f)
        gen = sp.kron(ops.eye_e, (a_occ.conj().T - a_occ), format="csc")
        chi = fs._band_limited_vector(basis, rng, basis.config.n_max - 2)
        u0 = expm_multiply(-gen, chi)  # W(alpha f)^* chi
        t = 1.3
        lhs_a = fs.Propagator(ops.hamiltonian).apply(u0, t)
        lhs_b = fs.Propagator(h_effective(ops, f)).apply(u0, t)
        rhs_a = fs.Propagator(ops.h_rotated(f)).apply(chi, t)
        rhs_b = fs.Propagator(h_tilde(ops, f)).apply(chi, t)
        assert np.linalg.norm(lhs_a - lhs_b) == pytest.approx(
            np.linalg.norm(rhs_a - rhs_b), abs=1e-8
        )
