import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh
from scipy.sparse.linalg import expm_multiply

from polaron_lab.errors import ConvergenceError, SizingError
from polaron_lab import fock_sim as fs
from polaron_lab import lp_dynamics as lp
from polaron_lab.spectral_core import WaveField, mode_norm_sq

from oracles import (
    annihilator_bounds_reference,
    coherent_sweep_reference,
    conjugation_residuals_reference,
    dense_weighted_resolvent_norm,
    discrete_pekar_reference,
    displaced_oscillator_ground_energy,
    h_effective,
    h_tilde,
    mode_lowering,
    per_mode_annihilator_g,
    ring_density_transform,
    ring_mode_potential,
    stationary_sweep_reference,
    weyl_apply_reference,
    weyl_generator_reference,
)


IDENTITIES = fs.FockConfig(
    n_sites=16, box_length=16.0, mode_numbers=(1, -1, 2, -2, 3, -3), v0=0.05, n_max=3
)
SWEEP = fs.FockConfig(n_sites=8, box_length=2.0, mode_numbers=(1, -1, 2, -2), v0=3e-3, n_max=6)
# the quick-preset fock_id block and the lemma-suite verb at 8 sites, box 8 (dimension 672)
QUICK_LEMMAS = fs.FockConfig(8, 8.0, (1, -1, 2, -2), v0=0.05, n_max=2)
BENCH_LEMMAS = fs.FockConfig(8, 8.0, (1, -1, 2, -2, 3, -3), v0=0.05, n_max=3)


def assembled(config, alpha):
    return fs.assemble(fs.FockBasis(config), alpha)


@pytest.fixture(scope="module")
def ops_id():
    return assembled(IDENTITIES, 2.0)


@pytest.fixture(scope="module")
def pekar_id(ops_id):
    return fs.discrete_pekar(ops_id.basis, ops_id.alpha)


@pytest.fixture(scope="module")
def propagation_problem(rng):
    ops = assembled(fs.FockConfig(8, 4.0, (1, -1), v0=0.3, n_max=4), 1.5)
    x = rng.standard_normal(ops.basis.dim_total) + 1j * rng.standard_normal(ops.basis.dim_total)
    return ops, x / np.linalg.norm(x)


class TestAssembly:
    def test_nmax_zero_reduces_to_electron_problem(self):
        ops = assembled(fs.FockConfig(8, 4.0, (1, -1), v0=0.2, n_max=0), 1.0)
        assert ops.basis.n_occ == 1
        e0, _ = fs.ground_state(ops)
        assert e0 == pytest.approx(0.0, abs=1e-12)  # free ring ground state

    def test_displaced_oscillator_closed_form(self):
        cfg, alpha = fs.FockConfig(2, 2.0, (0,), v0=0.05, n_max=40), 1.7
        ops = assembled(cfg, alpha)
        e0, _ = fs.ground_state(ops)
        w = ops.basis.grid.mode_weight
        expected = displaced_oscillator_ground_energy(alpha**-2, alpha**-1 * cfg.v0 * np.sqrt(w))
        assert e0 == pytest.approx(expected, abs=1e-12)

    def test_hermitian(self, ops_id):
        assert ops_id.hermiticity_defect() < 1e-13

    def test_adjoint_pairing(self, ops_id, rng):
        a = ops_id.annihilate_g
        x = rng.standard_normal(ops_id.basis.dim_total) + 0j
        y = rng.standard_normal(ops_id.basis.dim_total) + 0j
        assert np.vdot(y, a @ x) == pytest.approx(np.conj(np.vdot(x, a.conj().T @ y)))

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(fs, "_BASIS_BUDGET", 10)
        with pytest.raises(SizingError):
            fs.FockBasis(IDENTITIES)

    def test_alpha_must_be_positive(self):
        basis = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1), v0=0.2, n_max=1))
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError, match="alpha"):
                fs.assemble(basis, alpha)

    def test_occupation_order_is_lexicographic(self, ops_id):
        occs = [tuple(row) for row in ops_id.basis.occ.tolist()]
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
        basis = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.1, n_max=5))
        occupations = [tuple(row) for row in basis.occ.tolist()]
        index = {occ: i for i, occ in enumerate(occupations)}
        for j, aj in enumerate(mode_lowering(basis)):
            rows, cols, vals = [], [], []
            for i, occ in enumerate(occupations):
                if occ[j] > 0:
                    target = list(occ)
                    target[j] -= 1
                    rows.append(index[tuple(target)])
                    cols.append(i)
                    vals.append(np.sqrt(occ[j]))
            reference = sp.csr_matrix((vals, (rows, cols)), shape=aj.shape, dtype=complex)
            assert (aj != reference).nnz == 0

    def test_annihilator_is_the_per_mode_sum_exactly(self, rng):
        basis = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.1, n_max=5))
        sqw = np.sqrt(basis.grid.mode_weight)
        drawn = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for f in (basis.v, drawn, drawn * [1, 0, 0, 1]):
            reference = sp.csr_matrix((basis.n_occ, basis.n_occ), dtype=complex)
            for fj, aj in zip(f, mode_lowering(basis)):
                if fj != 0:
                    reference = reference + sqw * np.conj(fj) * aj
            a = basis.annihilator_occ(f)
            assert a.nnz == reference.nnz
            assert np.array_equal(a.toarray(), reference.toarray())

    @pytest.mark.parametrize(
        "config",
        [
            fs.FockConfig(8, 8.0, (1, -1, 2, -2), v0=0.05, n_max=2),
            fs.FockConfig(16, 16.0, (1, -1, 2, -2, 3, -3), v0=0.05, n_max=3),
            fs.FockConfig(8, 8.0, (1, -1, 2, -2), v0=0.05, n_max=5),
            fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.3, n_max=3),  # +-2 share ring index 2
            fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2),
        ],
    )
    def test_product_space_annihilator_is_the_per_mode_kron_sum_as_stored(self, config):
        # H @ psi sums each row in stored order, so the entry order must match too
        a = assembled(config, 1.0).annihilate_g
        reference = per_mode_annihilator_g(fs.FockBasis(config))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, attr), getattr(reference, attr))

    def test_mode_set_must_close_under_negation(self):
        with pytest.raises(ValueError):
            fs.FockConfig(8, 4.0, (1, 2, -2), v0=0.1, n_max=2)


class TestWeyl:
    def test_identity_at_zero(self, ops_id):
        vac = ops_id.basis.vacuum_occ()
        out, leak = fs.weyl_apply(ops_id.basis, np.zeros(6, dtype=complex), vac)
        assert np.allclose(out, vac)
        assert leak == 0.0

    def test_unitary_on_random_states(self, ops_id, rng):
        basis = ops_id.basis
        f = fs._symmetric_draw(basis, rng)
        f = 0.05 * f / np.sqrt(mode_norm_sq(basis.grid, f))
        for _ in range(5):
            x = rng.standard_normal(basis.n_occ) + 1j * rng.standard_normal(basis.n_occ)
            out, _ = fs.weyl_apply(basis, f, x)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_coherent_label_matches_minus_alpha_f(self):
        basis, alpha = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1), v0=0.05, n_max=12)), 2.0
        f = np.array([0.02 + 0.01j, 0.02 - 0.01j])
        eta, leak = fs.coherent_state(basis, -alpha * f)
        assert leak < 1e-8
        for j, aj in enumerate(mode_lowering(basis)):
            label = np.vdot(eta, aj @ eta) / np.sqrt(basis.grid.mode_weight)
            assert label == pytest.approx(-alpha * f[j], rel=1e-6)

    def test_truncation_guard(self, ops_id):
        big = np.full(6, 10.0, dtype=complex)
        with pytest.raises(SizingError):
            fs.weyl_apply(ops_id.basis, big, ops_id.basis.vacuum_occ())

    def test_one_norm_is_scipys(self, monkeypatch):
        # every generator of the fock-sweep and lemma-suite workloads, and a zero displacement
        # (a generator without entries): the norm picks expm_multiply's Taylor degree
        from scipy.sparse.linalg._expm_multiply import _exact_1_norm as scipy_norm

        norms, ours = [], fs._exact_1_norm

        def both(generator):
            norms.append((ours(generator), scipy_norm(generator)))
            return norms[-1][0]

        monkeypatch.setattr(fs, "_exact_1_norm", both)
        sweep = fs.FockConfig(8, 2.0, (1, -1, 2, -2), v0=3e-3, n_max=5)
        phi0, g = fs._coherent_initial_data(fs.FockBasis(sweep), np.random.default_rng(0))
        fs.error_sweep_coherent(sweep, [1.0, 8.0], 2.5, phi0, g, dt=2e-3, n_samples=26)
        assert len(norms) == 52
        fs.inequality_suite(BENCH_LEMMAS, (1.0, 2.0, 4.0), rng=np.random.default_rng(0))
        assert len(norms) == 52 + 5
        zero = fs.FockBasis(sweep)._weyl_generator(np.zeros(4))
        assert zero.nnz == 0
        both(zero)
        assert all(a == b for a, b in norms) and norms[-1] == (0.0, 0.0)


@st.composite
def momentum_models(draw):
    """A small (FockConfig, alpha): modes +-1 and up to three more pairs, dimension <= 1320."""
    pairs = {1} | draw(st.sets(st.integers(2, 4), max_size=3))
    config = fs.FockConfig(
        n_sites=draw(st.sampled_from((4, 8))),
        box_length=draw(st.floats(2.0, 16.0)),
        mode_numbers=tuple(m for k in sorted(pairs) for m in (k, -k)),
        v0=draw(st.floats(0.05, 1.0)),
        n_max=draw(st.integers(1, 3)),
    )
    assert fs.FockBasis(config).dim_total <= 1500
    return config, draw(st.floats(0.5, 4.0))


class TestMomentumConservation:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(momentum_models())
    def test_translation_commutes_with_hamiltonian(self, model):
        # T = shift (x) e^{-i sum_j n_j k_j dx}: the electron moves by one site and the
        # phonons carry the momentum back, so T conserves total momentum and [T, H] = 0
        config, alpha = model
        ops = assembled(config, alpha)
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
        assert commutator_norm(+1) > 0.5 * spla.norm(ops.field_g) / alpha


class TestRingMaps:
    # +-2 on 4 sites share ring index 2: the maps and the exact model keep both modes
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(momentum_models(), st.integers(0, 2**32 - 1))
    @example((fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.5, n_max=1), 1.0), 0)
    def test_displacement_potential_and_adjoint_maps(self, model, seed):
        config, _ = model
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
        basis = fs.FockBasis(fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.5, n_max=1))
        assert basis.conjugate_mode_index == [1, 0, 3, 2]
        f = fs._symmetric_draw(basis, np.random.default_rng(0))
        assert f[3] == np.conj(f[2]) and f[1] == np.conj(f[0])

    def test_lp_comparisons_refuse_a_repeated_ring_momentum(self):
        config = fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=3e-3, n_max=2)
        phi0 = np.full(4, 0.5, dtype=complex)
        with pytest.raises(ValueError, match="ring momentum"):
            fs.error_sweep_coherent(config, [1.0], 0.1, phi0, np.zeros(4), dt=1e-2, n_samples=2)
        with pytest.raises(ValueError, match="ring momentum"):
            fs.make_defect_evaluator(assembled(config, 1.0))
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
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(basis.n_occ) + 1j * rng.standard_normal(basis.n_occ)
    x *= basis.occ_totals <= basis.config.n_max - 3
    g = rng.standard_normal(2 * pairs) + 1j * rng.standard_normal(2 * pairs)
    g *= np.sqrt(draw(st.floats(0.0, 2.5e-5)) / mode_norm_sq(basis.grid, g))
    return basis, x / np.linalg.norm(x), g


def assert_weyl_is_the_reference(basis, g, x):
    """The generator's arrays and W(g) x equal the public-expm_multiply reference's, bit
    for bit: a scipy release that changes the private steps ``weyl_apply`` runs fails here."""
    generator, reference = basis._weyl_generator(g), weyl_generator_reference(basis, g)
    for name in ("data", "indices", "indptr"):
        ours, theirs = getattr(generator, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    out, _ = fs.weyl_apply(basis, g, x, guard=False)
    assert out.tobytes() == weyl_apply_reference(basis, g, x).tobytes()
    return generator


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
        assert_weyl_is_the_reference(basis, g, x)
        assert_weyl_is_the_reference(basis, -g, out)

    @pytest.mark.parametrize(
        "zero_modes, part",
        [([0, 1, 2, 3], 1), ([2], 1), ([0, 3], 1), ([], 1), ([1], 1j), ([], 1j)],
        ids=["zero", "one-zero-mode", "two-zero-modes", "real", "imaginary-one-zero", "imaginary"],
    )
    def test_zero_modes_keep_the_reference_structure(self, zero_modes, part):
        # a real or an imaginary g gives entries with a zero part, whose sign the binop's
        # 0 - x keeps; a zero mode gives no entries at all
        basis = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.1, n_max=4))
        rng = np.random.default_rng(3)
        g = 0.05 * part * rng.standard_normal(4).astype(complex)
        g[zero_modes] = 0
        x = rng.standard_normal(basis.n_occ) + 1j * rng.standard_normal(basis.n_occ)
        generator = assert_weyl_is_the_reference(basis, g, x)
        _, _, _, mode = basis._lowering_entries
        assert generator.nnz == 2 * np.count_nonzero(g[mode])


@st.composite
def small_models(draw):
    """A small (FockConfig, alpha): 2, 4 or 8 sites, modes +-1 or +-1, +-2, n_max <= 3."""
    pairs = draw(st.integers(1, 2))
    config = fs.FockConfig(
        n_sites=draw(st.sampled_from((2, 4, 8))),
        box_length=draw(st.floats(2.0, 8.0)),
        mode_numbers=tuple(m for k in range(1, pairs + 1) for m in (k, -k)),
        v0=draw(st.floats(0.0, 0.5)),
        n_max=draw(st.integers(0, 3)),
    )
    return config, draw(st.floats(0.5, 4.0))


class TestGroundState:
    # +-2 on 4 sites repeat ring index 2; one mode at k = 0 on 2 sites is the displaced oscillator
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(small_models())
    @example((fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.5, n_max=3), 1.0))
    @example((fs.FockConfig(2, 2.0, (0,), v0=0.3, n_max=6), 0.7))
    def test_sectors_give_the_dense_ground_energy(self, model):
        ops = assembled(*model)
        e0, psi = fs.ground_state(ops)
        assert abs(e0 - eigvalsh(ops.hamiltonian.toarray())[0]) <= 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        # the two-sided bound (1+eps)(K + alpha^-2 N) + c_eps - H of inequality_suite
        basis, alpha = ops.basis, ops.alpha
        for eps in (0.25, 0.5):
            c_eps = eps * alpha**-2 + mode_norm_sq(basis.grid, basis.v) / eps
            upper = (1 + eps) * (ops.kinetic + alpha**-2 * ops.number) - ops.hamiltonian
            dense = eigvalsh(upper.toarray() + c_eps * np.eye(basis.dim_total))[0]
            sector, _, _ = fs._lowest_by_sector(basis, eps, eps * alpha**-2, c_eps, -alpha**-1)
            assert abs(sector - dense) <= 1e-12

    def test_sector_above_the_dense_limit_is_refused_before_it_is_built(self, monkeypatch):
        config = fs.FockConfig(2, 2.0, (0,), v0=0.05, n_max=fs._SECTOR_LIMIT)

        def build_forbidden(*args):
            raise AssertionError("work done before the sector size check")

        class UntouchedRng:
            def __getattr__(self, name):
                raise AssertionError("random stream used before the sector size check")

        monkeypatch.setattr(fs.FockBasis, "field_occ", build_forbidden)
        monkeypatch.setattr(fs, "aliased_cv_constant", build_forbidden)
        with pytest.raises(SizingError, match="sector"):
            fs.ground_state(assembled(config, 1.0))
        with pytest.raises(SizingError, match="sector"):
            fs.inequality_suite(config, (1.0, 2.0, 4.0), rng=UntouchedRng(), n_random=10)

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
        basis = fs.FockBasis(fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2))
        pek = fs.discrete_pekar(basis, 1.0)
        assert np.allclose(np.abs(pek.phi), 1 / np.sqrt(8))
        assert np.all(pek.f == 0)
        assert pek.energy == pytest.approx(0.0, abs=1e-12)

    def test_exhausted_iterations_raise(self, ops_id, monkeypatch):
        monkeypatch.setattr(fs, "_PEKAR_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            fs.discrete_pekar(ops_id.basis, ops_id.alpha)

    def test_energy_is_product_expectation(self, ops_id, pekar_id):
        u0 = np.kron(pekar_id.phi, pekar_id.eta)
        direct = np.real(np.vdot(u0, ops_id.hamiltonian @ u0))
        assert direct == pytest.approx(pekar_id.energy, abs=1e-10)

    def test_against_quasi_newton_oracle(self):
        # direct minimization over (phi, z) with scipy. At this coupling both minimizers
        # find the uniform orbital with f = 0 (discrete_pekar: E = -5.0e-15 and an IPR of
        # 1/8 + 2.8e-17; L-BFGS: +1.4e-10): the Pekar functional does not localize here
        from scipy.optimize import minimize

        alpha = 2.0
        ops = assembled(fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.35, n_max=3), alpha)
        basis = ops.basis
        pek = fs.discrete_pekar(ops.basis, ops.alpha)
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
                + alpha**-2 * w * np.sum(np.abs(z) ** 2)
                + alpha**-1 * 2 * np.real(w * np.vdot(z, f))
            )

        rng = np.random.default_rng(0)
        best = np.inf
        for _ in range(3):
            x0 = rng.standard_normal(2 * n + 2 * m)
            res = minimize(energy, x0, method="L-BFGS-B", options={"maxiter": 2000})
            best = min(best, res.fun)
        assert pek.energy == pytest.approx(best, abs=1e-7)
        assert abs(np.sum(np.abs(pek.phi) ** 4) - 1 / n) < 1e-12  # the uniform orbital's IPR
        assert np.linalg.norm(pek.f) < 1e-12

    @pytest.mark.parametrize("config", [SWEEP, QUICK_LEMMAS, IDENTITIES])
    def test_every_alpha_is_its_own_minimization(self, config):
        # the sweeps solve the alpha-free minimization once per basis; each alpha's state
        # must equal the per-alpha solve, field by field
        basis, alphas = fs.FockBasis(config), (1.0, 2.0, 4.0, 8.0)
        orbital = fs._pekar_orbital(basis)
        for alpha in alphas:
            expected = discrete_pekar_reference(basis, alpha)
            for pek in (fs._pekar_at(basis, orbital, alpha), fs.discrete_pekar(basis, alpha)):
                for name in ("phi", "f", "eta"):
                    assert np.array_equal(getattr(pek, name), getattr(expected, name)), name
                for name in ("lam", "mu", "energy", "leakage", "electron_residual",
                             "phonon_residual"):
                    assert getattr(pek, name) == getattr(expected, name), name

    def test_sweep_and_suite_minimize_once_per_basis(self, monkeypatch):
        calls = []
        orbital = fs._pekar_orbital

        def counted(basis):
            calls.append(basis)
            return orbital(basis)

        def forbidden(*args, **kwargs):
            raise AssertionError("minimized once per alpha")

        monkeypatch.setattr(fs, "_pekar_orbital", counted)
        monkeypatch.setattr(fs, "discrete_pekar", forbidden)
        alphas = (1.0, 2.0, 4.0)
        rep = fs.error_sweep_stationary(QUICK_LEMMAS, alphas, 1.0, n_samples=3)
        assert len(calls) == 1 and len(rep["sup_errors"]) == 3
        rep = fs.inequality_suite(QUICK_LEMMAS, alphas, rng=np.random.default_rng(0), n_random=2)
        assert len(calls) == 2 and len(rep["resolvent_norms"]) == 3


class TestPropagation:
    def test_t_zero_identity(self, ops_id, rng):
        x = rng.standard_normal(ops_id.basis.dim_total) + 0j
        out = fs.Propagator(ops_id.basis, ops_id.alpha).apply(x, 0.0)
        assert np.allclose(out, x)

    def test_eigenvector_phase(self, ops_id):
        e0, psi = fs.ground_state(ops_id)
        out = fs.Propagator(ops_id.basis, ops_id.alpha).apply(psi, 0.7)
        assert np.max(np.abs(out - np.exp(-1j * e0 * 0.7) * psi)) < 1e-10

    def test_matches_dense_eigh_reference(self, propagation_problem):
        ops, x = propagation_problem
        vals, vecs = eigh(ops.hamiltonian.toarray())
        prop = fs.Propagator(ops.basis, ops.alpha)
        for t in (0.5, 3.0):
            dense = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ x))
            assert np.linalg.norm(dense - prop.apply(x, t)) < 1e-9

    def test_grid_matches_scalar_samples(self, propagation_problem):
        ops, x = propagation_problem
        prop = fs.Propagator(ops.basis, ops.alpha)
        times = np.linspace(0.5, 3.0, 11)
        stacked = prop.apply(x, times)
        assert stacked.shape == (len(times), ops.basis.dim_total)
        for t, row in zip(times, stacked):
            assert np.linalg.norm(row - prop.apply(x, t)) < 1e-9

    def test_grid_need_not_be_uniform(self, propagation_problem):
        ops, x = propagation_problem
        prop = fs.Propagator(ops.basis, ops.alpha)
        times = np.array([0.0, 1.0, 3.0, -0.4])
        for t, row in zip(times, prop.apply(x, times)):
            assert np.linalg.norm(row - prop.apply(x, t)) < 1e-12

    def test_grid_must_be_one_dimensional(self, ops_id):
        prop = fs.Propagator(ops_id.basis, ops_id.alpha)
        x = np.zeros(ops_id.basis.dim_total, dtype=complex)
        with pytest.raises(ValueError, match="1-d"):
            prop.apply(x, np.array([[0.0, 1.0]]))

    def test_norm_and_energy_preserved(self, ops_id, rng):
        x = rng.standard_normal(ops_id.basis.dim_total) + 0j
        x /= np.linalg.norm(x)
        out = fs.Propagator(ops_id.basis, ops_id.alpha).apply(x, 2.0)
        assert abs(np.linalg.norm(out) - 1) < 1e-10
        e0 = np.real(np.vdot(x, ops_id.hamiltonian @ x))
        e1 = np.real(np.vdot(out, ops_id.hamiltonian @ out))
        assert abs(e1 - e0) < 1e-9


@st.composite
def fock_problems(draw):
    """A small assembled Fock Hamiltonian and a random normalized state on its space."""
    ops = assembled(*draw(small_models()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = ops.basis.dim_total
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return fs.Propagator(ops.basis, ops.alpha), x / np.linalg.norm(x)


any_time = st.floats(-3.0, 3.0)
properties = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestPropagatorProperties:
    # +-2 on 4 sites repeat ring index 2; at n_max 0 each sector is one occupation
    @properties
    @given(small_models(), st.integers(0, 2**32 - 1), any_time)
    @example((fs.FockConfig(4, 4.0, (1, -1, 2, -2), v0=0.5, n_max=3), 1.0), 0, 2.5)
    @example((fs.FockConfig(8, 4.0, (1, -1, 2, -2), v0=0.3, n_max=0), 0.7), 1, -1.5)
    def test_sectors_match_sparse_expm_multiply(self, model, seed, t):
        ops = assembled(*model)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(ops.basis.dim_total) + 1j * rng.standard_normal(ops.basis.dim_total)
        x /= np.linalg.norm(x)
        reference = expm_multiply(-1j * t * ops.hamiltonian, x)
        assert np.linalg.norm(fs.Propagator(ops.basis, ops.alpha).apply(x, t) - reference) < 1e-10

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
        ops = assembled(fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2), 1.0)
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
            ops = assembled(IDENTITIES, alpha)
            pek = fs.discrete_pekar(ops.basis, ops.alpha)
            defects.append(
                fs.perp_defect(ops.basis, pek.phi, pek.eta, ops.hamiltonian)
            )
        assert defects[1] / defects[0] == pytest.approx(0.5, abs=0.05)


class TestQuadratureReconstruction:
    def test_eta_reconstruction_matches_direct_integration(self):
        """(J, F) reconstruction against an independent phonon integrator.

        Evolve the coupled system, record f_s, then directly integrate
        i d(eta)/dt = (omega N + lam phi(f_s)) eta with midpoint steps and
        compare the sweeps' comparison state ``_lp_product_state``, a(t) phi_t x
        e^{-iF} e^{-i omega N t} W(J_t) eta0, with a(t) phi_t x eta_direct.
        """
        basis, alpha = fs.FockBasis(fs.FockConfig(8, 2.0, (1, -1), v0=0.15, n_max=10)), 1.5
        grid = basis.grid
        cfg = lp.LPConfig(grid, basis.form, alpha=alpha)
        x = grid.x_axis_centered
        phi0 = WaveField(grid, np.exp(-(x**2) / (2 * 0.2**2)) + 0j).normalized()
        g = np.array([0.1 + 0.05j, 0.1 - 0.05j])
        state = lp.initial_state(cfg, phi0, z0=basis.to_lattice(-alpha * g))
        eta0, _ = fs.coherent_state(basis, -alpha * g)

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

        u_rec, _ = fs._lp_product_state(basis, eta0, current, t)
        psi_e = current.phi.values * np.sqrt(grid.dx)
        assert np.linalg.norm(u_rec - current.a_phase * np.kron(psi_e, eta_direct)) < 1e-5


class TestSweeps:
    def test_stationary_trend(self):
        rep = fs.error_sweep_stationary(SWEEP, [1.0, 2.0, 4.0, 8.0], 5.0, n_samples=51)
        sups = rep["sup_errors"]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert rep["slope"] <= -1.8
        assert rep["r_squared"] > 0.99
        assert rep["rows"][0][2] == pytest.approx(0.0, abs=1e-12)  # t = 0

    def test_error_symmetric_in_time_reversal(self):
        ops = assembled(SWEEP, 2.0)
        pek = fs.discrete_pekar(ops.basis, ops.alpha)
        u0 = np.kron(pek.phi, pek.eta)
        u0 /= np.linalg.norm(u0)
        prop = fs.Propagator(ops.basis, ops.alpha)
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
        config = fs.FockConfig(8, 2.0, (1, -1, 2, -2), v0=3e-3, n_max=2)
        phi0, g = fs._coherent_initial_data(fs.FockBasis(config), np.random.default_rng(0))

        def forbidden(*args, **kwargs):
            raise AssertionError("worked before the step count was checked")

        for name in ("coherent_state", "Propagator"):
            monkeypatch.setattr(fs, name, forbidden)
        monkeypatch.setattr(lp, "evolve_stack", forbidden)
        with pytest.raises(ValueError, match="integer number of steps"):
            fs.error_sweep_coherent(config, [1.0, 8.0], 2.5, phi0, g, dt=3e-3, n_samples=26)
        with pytest.raises(ValueError, match="at least 2"):
            fs.error_sweep_coherent(config, [1.0, 8.0], 2.5, phi0, g, dt=1e-2, n_samples=1)

    def test_coherent_sweep_assembles_nothing(self, monkeypatch):
        # the sector Propagator and the LP stack read only the basis and alpha
        config = fs.FockConfig(8, 2.0, (1, -1, 2, -2), v0=3e-3, n_max=2)
        phi0, g = fs._coherent_initial_data(fs.FockBasis(config), np.random.default_rng(0))

        def forbidden(*args, **kwargs):
            raise AssertionError("assembled a product-space operator")

        monkeypatch.setattr(fs, "assemble", forbidden)
        monkeypatch.setattr(fs, "FockOperatorSet", forbidden)
        rep = fs.error_sweep_coherent(config, [1.0, 8.0], 0.5, phi0, g, dt=1e-2, n_samples=6)
        assert len(rep["rows"]) == 12 and rep["sup_errors"][1] < rep["sup_errors"][0]

    def test_stationary_sweep_assembles_nothing(self, monkeypatch):
        # discrete_pekar and the sector Propagator read only the basis and alpha
        def forbidden(*args, **kwargs):
            raise AssertionError("assembled a product-space operator")

        monkeypatch.setattr(fs, "assemble", forbidden)
        monkeypatch.setattr(fs, "FockOperatorSet", forbidden)
        rep = fs.error_sweep_stationary(SWEEP, [1.0, 8.0], 1.0, n_samples=6)
        assert len(rep["rows"]) == 12 and rep["leakage_max"] < 1e-6

    def test_stationary_errors_are_exact_norms(self):
        rep = fs.error_sweep_stationary(SWEEP, [1.0, 2.0, 4.0, 8.0], 5.0, n_samples=6)
        assert [err for t, _, err in rep["rows"] if t == 0.0] == [0.0] * 4
        assert all(err >= 0.0 for _, _, err in rep["rows"])

    def test_sweeps_refuse_an_oversized_sector_before_any_work(self, monkeypatch):
        # modes +-1..+-4 at n_max 6 give sectors of C(14, 6) = 3003 occupations
        config = fs.FockConfig(16, 16.0, (1, -1, 2, -2, 3, -3, 4, -4), v0=3e-3, n_max=6)
        phi0 = np.full(16, 0.25, dtype=complex)

        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the sector size check")

        for name in ("assemble", "discrete_pekar", "_pekar_orbital", "coherent_state"):
            monkeypatch.setattr(fs, name, forbidden)
        with pytest.raises(SizingError, match="dense limit"):
            fs.error_sweep_stationary(config, [1.0, 8.0], 2.5)
        with pytest.raises(SizingError, match="dense limit"):
            fs.error_sweep_coherent(config, [1.0, 8.0], 2.5, phi0, np.zeros(8), dt=1e-2)

    @pytest.mark.parametrize(
        "alphas, t_final, n_samples",
        [([], 1.0, 6), ([1.0, -2.0], 1.0, 6), ([2.0, 2.0], 1.0, 6), ([1.0], 0.0, 6),
         ([1.0], 1.0, 1), ([1.0], 1.0, 0)],
        ids=["no-alpha", "negative-alpha", "repeated-alpha", "zero-T", "one-sample", "no-sample"],
    )
    def test_sweeps_refuse_bad_inputs_before_any_work(
        self, monkeypatch, alphas, t_final, n_samples
    ):
        config = fs.FockConfig(8, 2.0, (1, -1, 2, -2), v0=3e-3, n_max=2)
        phi0 = np.full(8, 8**-0.5, dtype=complex)

        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the input check")

        for name in ("discrete_pekar", "_pekar_orbital", "coherent_state", "Propagator"):
            monkeypatch.setattr(fs, name, forbidden)
        with pytest.raises(ValueError, match="error sweep needs"):
            fs.error_sweep_stationary(config, alphas, t_final, n_samples=n_samples)
        with pytest.raises(ValueError, match="error sweep needs"):
            fs.error_sweep_coherent(
                config, alphas, t_final, phi0, np.zeros(4), dt=1e-2, n_samples=n_samples
            )

    def test_sweeps_keep_their_own_reductions(self):
        # the stationary sweep reduces each alpha's errors with one axis=1 norm, the coherent
        # sweep one vector at a time; the forms round differently, so each sweep must equal
        # its own reference bit for bit (the quick preset's sweep)
        config, alphas = fs.FockConfig(8, 2.0, (1, -1), v0=3e-3, n_max=4), [1.0, 2.0]
        phi0, g = fs._coherent_initial_data(fs.FockBasis(config), np.random.default_rng(0))
        stat = fs.error_sweep_stationary(config, alphas, 1.0, n_samples=6)
        coh = fs.error_sweep_coherent(config, alphas, 1.0, phi0, g, dt=5e-3, n_samples=6)
        for rep, ref in (
            (stat, stationary_sweep_reference(config, alphas, 1.0, 6)),
            (coh, coherent_sweep_reference(config, alphas, 1.0, phi0, g, 5e-3, 6)),
        ):
            assert (rep["rows"], rep["sup_errors"], rep["leakage_max"]) == ref

    def test_coherent_reduces_to_stationary_for_pekar_data(self):
        # z0 = -alpha f with phi0 the self-consistent minimizer is the fixed
        # point; the coherent machinery must reproduce the stationary errors
        alphas = [2.0, 4.0]
        ops = assembled(SWEEP, alphas[0])
        pek = fs.discrete_pekar(ops.basis, ops.alpha)
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
            ops = fs.assemble(ring, alpha)
            pek = fs.discrete_pekar(ops.basis, ops.alpha)
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
        assert rep["failures"] == []

    def test_spread_verdict_does_not_depend_on_the_alpha_order(self, rng):
        # norms 1.0, 1.366, 1.543 at alpha 1, 2, 4; in the order (2, 1, 4) the steps would grow
        rep = fs.inequality_suite(QUICK_LEMMAS, alphas=(2.0, 1.0, 4.0), rng=rng, n_random=10)
        assert list(rep["resolvent_norms"]) == [2.0, 1.0, 4.0]
        assert rep["resolvent_spread_nonincreasing"]
        assert rep["failures"] == []

    def test_suite_assembles_one_operator_set(self, monkeypatch, rng):
        # the resolvent norms read only the basis and alpha; parts (a) and (b) use alphas[0]
        alphas = []
        assemble = fs.assemble

        def counted(basis, alpha):
            alphas.append(alpha)
            return assemble(basis, alpha)

        monkeypatch.setattr(fs, "assemble", counted)
        rep = fs.inequality_suite(QUICK_LEMMAS, alphas=(2.0, 1.0, 4.0), rng=rng, n_random=10)
        assert alphas == [2.0]
        assert rep["failures"] == []

    @pytest.mark.parametrize("n_random", [0, -5])
    def test_fewer_than_one_random_vector_is_refused_before_any_work(self, monkeypatch, n_random):
        def build_forbidden(*args):
            raise AssertionError("work done before the n_random check")

        class UntouchedRng:
            def __getattr__(self, name):
                raise AssertionError("random stream used before the n_random check")

        monkeypatch.setattr(fs, "FockBasis", build_forbidden)
        with pytest.raises(ValueError, match="n_random"):
            fs.inequality_suite(QUICK_LEMMAS, (1.0, 2.0), rng=UntouchedRng(), n_random=n_random)

    @pytest.mark.parametrize(
        "alphas",
        [(), (1.0, -2.0), (0.0,), (2.0, 2.0, 1.0)],
        ids=["no-alpha", "negative-alpha", "zero-alpha", "repeated-alpha"],
    )
    def test_bad_alphas_are_refused_before_any_work(self, monkeypatch, alphas):
        # (2.0, 2.0, 1.0) used to return 2 resolvent norms and no failure
        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the alpha check")

        class UntouchedRng:
            def __getattr__(self, name):
                raise AssertionError("random stream used before the alpha check")

        for name in ("FockBasis", "_pekar_orbital", "_lowest_by_sector", "assemble"):
            monkeypatch.setattr(fs, name, forbidden)
        with pytest.raises(ValueError, match="inequality suite needs distinct alphas"):
            fs.inequality_suite(QUICK_LEMMAS, alphas, rng=UntouchedRng(), n_random=10)

    @staticmethod
    def assert_bounds_are_the_reference(config, alpha, n_random, seed):
        ops = assembled(config, alpha)
        sqrt_cv = np.sqrt(fs.aliased_cv_constant(ops.basis))
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = annihilator_bounds_reference(ops, sqrt_cv, rng_ref, n_random)
        hold, worst1, worst2 = fs._annihilator_bounds(ops, sqrt_cv, rng, n_random)
        assert hold is expected[0]
        assert (worst1, worst2) == expected[1:]  # every bit
        assert rng.standard_normal() == rng_ref.standard_normal()  # the stream ends in step

    @pytest.mark.parametrize(
        "config", [QUICK_LEMMAS, BENCH_LEMMAS, IDENTITIES], ids=["quick", "bench", "identities"]
    )
    @pytest.mark.parametrize(
        "n_random",
        [1, fs._BOUND_BLOCK - 1, fs._BOUND_BLOCK, fs._BOUND_BLOCK + 1, 1000],
    )
    def test_blocked_bounds_are_the_per_vector_loop(self, config, n_random):
        self.assert_bounds_are_the_reference(config, 2.0, n_random, seed=0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        small_models(),
        st.integers(1, 3 * fs._BOUND_BLOCK + 1),
        st.integers(0, 2**32 - 1),
    )
    def test_blocked_bounds_are_the_per_vector_loop_on_small_rings(self, model, n_random, seed):
        self.assert_bounds_are_the_reference(*model, n_random, seed)

    def test_conjugation_residuals_are_the_per_call_reference(self):
        # the lemma-suite verb's config and first alpha
        ops = assembled(BENCH_LEMMAS, 1.0)
        rng_ref, rng = np.random.default_rng(0), np.random.default_rng(0)
        f_ref = fs._small_test_displacement(ops.basis, rng_ref)
        expected = conjugation_residuals_reference(ops, f_ref, rng_ref)
        f = fs._small_test_displacement(ops.basis, rng)
        assert fs._conjugation_residuals(ops, f, rng) == expected  # every bit
        assert rng.standard_normal() == rng_ref.standard_normal()

    def test_resolvent_norm_matches_dense_reference(self):
        for config in (QUICK_LEMMAS, BENCH_LEMMAS):
            for alpha in (1.0, 2.0, 4.0):
                ops = assembled(config, alpha)
                pek = fs.discrete_pekar(ops.basis, ops.alpha)
                dense = dense_weighted_resolvent_norm(ops, pek)
                norm = fs._weighted_resolvent_norm(ops.basis, alpha, pek)
                assert norm == pytest.approx(dense, rel=1e-12)

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
        ops = assembled(fs.FockConfig(sites, float(sites), modes, v0, n_max), alpha)
        pek = fs.discrete_pekar(ops.basis, ops.alpha)
        phi = np.random.default_rng(seed).standard_normal((sites, 2)) @ [1.0, 1j]
        pek = dataclasses.replace(pek, phi=phi / np.linalg.norm(phi), energy=pek.energy + lift)
        dense = dense_weighted_resolvent_norm(ops, pek)
        norm = fs._weighted_resolvent_norm(ops.basis, alpha, pek)
        assert norm == pytest.approx(dense, rel=1e-12)

    def test_zero_factor_degenerate_case(self, rng):
        ops = assembled(fs.FockConfig(8, 4.0, (1, -1), v0=0.0, n_max=2), 1.0)
        x = rng.standard_normal(ops.basis.dim_total) + 0j
        assert np.linalg.norm(ops.annihilate_g @ x) == 0.0

    def test_rotated_frame_evolution_identity(self, rng):
        # || (e^{-iHt} - e^{-iH_eff t}) W* chi || == || (e^{-iH_rot t} - e^{-iH_tilde t}) chi ||
        ops = assembled(IDENTITIES, 2.0)
        basis = ops.basis
        f = fs._small_test_displacement(basis, rng)
        a_occ = basis.annihilator_occ(ops.alpha * f)
        gen = sp.kron(ops.eye_e, (a_occ.conj().T - a_occ), format="csc")
        chi = fs._band_limited_vector(basis, rng, basis.config.n_max - 2)
        u0 = expm_multiply(-gen, chi)  # W(alpha f)^* chi
        t = 1.3

        def evolve(h, x):  # h_rotated, h_effective and h_tilde are not translation-invariant
            return expm_multiply(-1j * t * h, x)

        lhs_a = fs.Propagator(ops.basis, ops.alpha).apply(u0, t)
        lhs_b = evolve(h_effective(ops, f), u0)
        rhs_a = evolve(ops.h_rotated(f), chi)
        rhs_b = evolve(h_tilde(ops, f), chi)
        assert np.linalg.norm(lhs_a - lhs_b) == pytest.approx(
            np.linalg.norm(rhs_a - rhs_b), abs=1e-8
        )
