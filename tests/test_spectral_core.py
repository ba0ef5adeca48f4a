import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from polaron_lab.errors import (
    GridMismatchError,
    MeasureConsistencyError,
    UnsupportedKernelError,
)
from polaron_lab.spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _fftn,
    _fourier_multiply,
    _half_displacement,
    _half_inner,
    _half_potential,
    _hermitian_fill,
    _hermitian_split,
    _ifftn,
    _irfftn,
    _label_potential,
    _rfftn,
    hartree_energy,
    kernel_potential,
    kinetic_energy,
    mode_norm_sq,
)

from oracles import brute_force_coulomb_free, dft_direct


def random_field(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return WaveField(grid, vals)


def gaussian_density(grid, sigma):
    mesh = np.meshgrid(*([grid.x_axis_centered] * grid.dim), indexing="ij")
    r2 = sum(c**2 for c in mesh)
    rho = np.exp(-r2 / (2 * sigma**2)) / (2 * np.pi * sigma**2) ** (grid.dim / 2)
    return WaveField(grid, rho)


class TestGrid:
    def test_basic_derived_quantities(self):
        g = Grid(3, 16, 8.0)
        assert g.dx * g.points_per_axis == pytest.approx(g.box_length)
        assert g.mode_weight == pytest.approx((2 * np.pi / 8.0) ** 3)

    def test_momentum_lattice_closed_under_negation(self):
        g = Grid(1, 16, 4.0)
        k = g.k_axis
        # negation is an index permutation modulo the 2pi*N/L alias
        neg = np.array([(-i) % 16 for i in range(16)])
        alias = 2 * np.pi * 16 / 4.0
        resid = np.abs((k[neg] + k + alias / 2) % alias - alias / 2)
        assert np.allclose(resid, 0, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(GridMismatchError):
            Grid(4, 16, 1.0)
        with pytest.raises(GridMismatchError):
            Grid(3, 12, 1.0)
        with pytest.raises(GridMismatchError):
            Grid(2, 16, -1.0)


class TestFourier:
    def test_zero_field_transforms_to_zero(self, grid16):
        z = WaveField(grid16, np.zeros(grid16.shape))
        assert np.all(z.spectrum() == 0)

    def test_pure_mode_is_single_spike(self):
        g = Grid(1, 32, 8.0)
        k0 = g.k_axis[3]
        psi = WaveField(g, np.exp(1j * k0 * g.x_axis))
        spec = psi.spectrum()
        expected = np.zeros(32, dtype=complex)
        expected[3] = g.box_length
        assert np.allclose(spec, expected, atol=1e-10)

    def test_against_direct_dft_oracle(self, rng):
        g = Grid(3, 8, 5.0)
        psi = random_field(g, rng)
        assert np.max(np.abs(psi.spectrum() - dft_direct(psi.values, g))) < 1e-10

    def test_parseval_with_lattice_weights(self, rng):
        for _ in range(100):
            g = Grid(2, 16, 7.0)
            psi = random_field(g, rng)
            lhs = psi.norm() ** 2
            spec = psi.spectrum()
            rhs = np.sum(np.abs(spec) ** 2) * g.mode_weight / (2 * np.pi) ** g.dim
            assert abs(lhs - rhs) < 1e-12 * lhs

    def test_shape_mismatch_raises(self, grid16):
        with pytest.raises(GridMismatchError):
            WaveField(grid16, np.zeros((8, 8, 8)))

    def test_inner_product_requires_same_grid(self, rng):
        a = random_field(Grid(3, 8, 4.0), rng)
        b = random_field(Grid(3, 8, 5.0), rng)
        with pytest.raises(GridMismatchError):
            a.grid.require_same(b.grid)


class TestCoulomb:
    def test_zero_density(self, grid16):
        zero = WaveField(grid16, np.zeros(grid16.shape))
        v = kernel_potential(zero, FormFactor.coulomb_d3(grid16))
        assert np.all(v.values == 0)

    def test_dim_guard(self):
        g = Grid(1, 16, 4.0)
        with pytest.raises(UnsupportedKernelError):
            FormFactor.coulomb_d3(g)
        with pytest.raises(UnsupportedKernelError):
            FormFactor.coulomb_d3_isolated(g)

    def test_gaussian_against_erf_oracle_isolated(self):
        g = Grid(3, 64, 16.0)
        sigma = 1.0
        rho = gaussian_density(g, sigma)
        v = kernel_potential(rho, FormFactor.coulomb_d3_isolated(g))
        mesh = np.meshgrid(*([g.x_axis_centered] * 3), indexing="ij")
        r = np.sqrt(sum(c**2 for c in mesh))
        exact = np.where(
            r > 1e-9,
            -erf(r / (np.sqrt(2) * sigma)) / np.maximum(r, 1e-9),
            -np.sqrt(2 / np.pi) / sigma,
        )
        inner = np.all([np.abs(c) <= g.box_length / 6 for c in mesh], axis=0)
        err = np.max(np.abs(v.values.real - exact)[inner]) / np.max(np.abs(exact[inner]))
        assert err < 1e-2

    def test_gaussian_against_erf_oracle_periodic_mod_offset(self):
        # the bare periodic kernel carries a constant background offset; the
        # comparison gauges it away before applying the 1% criterion
        g = Grid(3, 64, 16.0)
        sigma = 1.0
        rho = gaussian_density(g, sigma)
        v = kernel_potential(rho, FormFactor.coulomb_d3(g))
        mesh = np.meshgrid(*([g.x_axis_centered] * 3), indexing="ij")
        r = np.sqrt(sum(c**2 for c in mesh))
        exact = np.where(
            r > 1e-9,
            -erf(r / (np.sqrt(2) * sigma)) / np.maximum(r, 1e-9),
            -np.sqrt(2 / np.pi) / sigma,
        )
        inner = np.all([np.abs(c) <= g.box_length / 6 for c in mesh], axis=0)
        diff = (v.values.real - exact)[inner]
        gauged = diff - diff.mean()
        assert np.max(np.abs(gauged)) / np.max(np.abs(exact[inner])) < 1e-2

    def test_against_brute_force_free_sum(self):
        g = Grid(3, 16, 12.0)
        shift = np.array([2, 1, 0]) * g.dx

        def density(x, y, z):
            r2 = x**2 + y**2 + z**2
            rs2 = (x - shift[0]) ** 2 + (y - shift[1]) ** 2 + (z - shift[2]) ** 2
            return np.exp(-r2 / (2 * 1.2**2)) / (2 * np.pi * 1.2**2) ** 1.5 + 0.4 * np.exp(
                -rs2 / (2 * 1.4**2)
            ) / (2 * np.pi * 1.4**2) ** 1.5

        mesh = np.meshgrid(*([g.x_axis_centered] * 3), indexing="ij")
        rho = density(*mesh)
        rho_f = WaveField(g, rho)
        v = kernel_potential(rho_f, FormFactor.coulomb_d3_isolated(g))
        oracle = brute_force_coulomb_free(density, g, refine=3)
        mesh = np.meshgrid(*([g.x_axis_centered] * 3), indexing="ij")
        inner = np.all([np.abs(c) <= g.box_length / 6 for c in mesh], axis=0)
        diff = (v.values.real - oracle)[inner]
        scale = np.max(np.abs(oracle[inner]))
        assert np.max(np.abs(diff - diff.mean())) / scale < 1e-2

    def test_output_real_and_even(self):
        g = Grid(3, 16, 10.0)
        rho = gaussian_density(g, 1.5)
        v = kernel_potential(rho, FormFactor.coulomb_d3(g))
        assert np.max(np.abs(v.values.imag)) < 1e-12
        flipped = v.values[
            np.ix_(*[(-np.arange(g.points_per_axis)) % g.points_per_axis] * 3)
        ]
        assert np.allclose(v.values, flipped, atol=1e-12)


class TestHartree:
    def test_zero(self, grid16):
        zero = WaveField(grid16, np.zeros(grid16.shape))
        res = hartree_energy(zero, FormFactor.coulomb_d3(grid16))
        assert res.value == 0.0

    def test_single_mode_closed_form(self):
        g = Grid(3, 16, 9.0)
        k_idx = (1, 0, 0)
        kvec = np.array([g.k_axis[1], 0, 0])
        mesh = np.meshgrid(*([g.x_axis] * 3), indexing="ij")
        rho = 1.0 + 0.25 * np.cos(kvec[0] * mesh[0])
        form = FormFactor.coulomb_d3(g)
        res = hartree_energy(WaveField(g, rho), form)
        rhohat = WaveField(g, rho).spectrum()
        expected = 0.0
        for idx in [k_idx, tuple((-i) % 16 for i in k_idx)]:
            expected += 2 * g.mode_weight * form.values[idx] ** 2 * np.abs(rhohat[idx]) ** 2
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_gaussian_value_against_quadrature(self):
        g = Grid(3, 64, 16.0)
        sigma = 1.0
        rho = gaussian_density(g, sigma)
        res = hartree_energy(rho, FormFactor.coulomb_d3_isolated(g))
        # radial momentum quadrature: (2pi)^-3 int 4pi/k^2 |rhohat|^2 d^3k
        val, _ = quad(lambda k: (2 / np.pi) * np.exp(-(sigma**2) * k**2), 0, np.inf)
        assert res.value == pytest.approx(val, rel=1e-4)
        assert res.value == pytest.approx(1 / (sigma * np.sqrt(np.pi)), rel=1e-4)

    def test_dual_evaluation_identity_random_smooth(self, rng):
        g = Grid(3, 16, 11.0)
        for form in (FormFactor.coulomb_d3(g), FormFactor.coulomb_d3_isolated(g)):
            for _ in range(5):
                base = gaussian_density(g, 1.8).values
                rho = base * (1 + 0.5 * rng.random(g.shape))
                res = hartree_energy(WaveField(g, rho), form)
                assert res.momentum == pytest.approx(res.real_space, rel=1e-10)

    def test_inconsistent_measure_detected(self, grid16):
        rho = gaussian_density(grid16, 2.0)
        with pytest.raises(MeasureConsistencyError):
            hartree_energy(rho, FormFactor.coulomb_d3(grid16), rtol=1e-22)


class TestKernels:
    def test_coulomb_d3_values(self):
        g = Grid(3, 16, 8.0)
        form = FormFactor.coulomb_d3(g)
        kabs = g.k_abs
        nz = kabs > 0
        assert np.allclose(form.values[nz], 1.0 / (2 * np.pi * kabs[nz]), rtol=1e-14)
        assert form.values[0, 0, 0] == 0.0

    def test_kernel_multiplier_matches_4pi_over_ksq(self):
        g = Grid(3, 16, 8.0)
        form = FormFactor.coulomb_d3(g)
        nz = g.k_abs > 0
        assert np.allclose(
            form.kernel_multiplier[nz], 4 * np.pi / g.k_sq[nz], rtol=1e-13
        )

    def test_kinetic_energy_plane_wave(self):
        g = Grid(1, 32, 8.0)
        k0 = g.k_axis[5]
        psi = WaveField(g, np.exp(1j * k0 * g.x_axis) / np.sqrt(g.box_length))
        assert kinetic_energy(psi) == pytest.approx(k0**2, rel=1e-12)


@st.composite
def real_fields(draw, count):
    """``count`` random real fields on a small 1-, 2- or 3-d grid."""
    dim = draw(st.integers(1, 3))
    grid = Grid(dim, draw(st.sampled_from((2, 4, 8, 16))), draw(st.floats(1.0, 20.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grid, [rng.standard_normal(grid.shape) for _ in range(count)]


def any_form(grid, choice, v0):
    """A Coulomb factor (3d) or a toy factor, with and without a k = 0 mode."""
    if grid.dim == 3 and choice == 0:
        return FormFactor.coulomb_d3_isolated(grid)
    if grid.dim == 3 and choice == 1:
        return FormFactor.coulomb_d3(grid)
    return FormFactor.toy(grid, v0, exponent=float(choice % 2))


spectral_properties = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestSpectralProperties:
    @spectral_properties
    @given(real_fields(2))
    def test_parseval_on_real_fields(self, problem):
        grid, (a, b) = problem
        fa, fb = WaveField(grid, a), WaveField(grid, b)
        lhs = np.vdot(a, b) * grid.cell_volume
        rhs = np.vdot(fa.spectrum(), fb.spectrum()) * grid.mode_weight / (2 * np.pi) ** grid.dim
        assert abs(lhs - rhs) <= 1e-12 * fa.norm() * fb.norm()
        assert fa.norm() ** 2 == pytest.approx(
            mode_norm_sq(grid, fa.spectrum()) / (2 * np.pi) ** grid.dim, rel=1e-12
        )

    @spectral_properties
    @given(real_fields(1), st.integers(0, 3), st.floats(0.01, 1.0))
    def test_dual_hartree_identity_on_real_densities(self, problem, choice, v0):
        grid, (u,) = problem
        rho = WaveField(grid, u**2)
        res = hartree_energy(rho, form=any_form(grid, choice, v0), rtol=np.inf)
        assert res.momentum > 0.0
        assert res.real_space == pytest.approx(res.momentum, rel=1e-12)

    @spectral_properties
    @given(st.data())
    def test_grid_transforms_are_numpy_bit_for_bit(self, data):
        # 1 axis (the Fock ring), 2 and 3 (the grids) and 6 (a 3d pair state), power-of-two sizes
        ndim = data.draw(st.sampled_from((1, 2, 3, 6)))
        sizes = (2, 4) if ndim == 6 else (2, 4, 8, 16)
        shape = tuple(data.draw(st.sampled_from(sizes)) for _ in range(ndim))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        real = rng.standard_normal(shape)
        multiplier = rng.standard_normal(shape)
        half = multiplier[..., : shape[-1] // 2 + 1]
        every = tuple(range(ndim))
        spectrum = np.fft.rfftn(real, axes=every)
        assert np.array_equal(_rfftn(real), spectrum)
        assert np.array_equal(
            _irfftn(spectrum, shape), np.fft.irfftn(spectrum, s=shape, axes=every)
        )
        assert np.array_equal(
            _fourier_multiply(real, multiplier),
            np.fft.irfftn(half * np.fft.rfftn(real, axes=every), s=shape, axes=every),
        )
        for values in (real, real + 1j * rng.standard_normal(shape)):
            assert np.array_equal(_fftn(values), np.fft.fftn(values))
            assert np.array_equal(_fftn(values), np.fft.fftn(values, axes=every))
            assert np.array_equal(_ifftn(values), np.fft.ifftn(values))
            assert np.array_equal(_ifftn(values), np.fft.ifftn(values, axes=every))
        assert np.array_equal(
            _fourier_multiply(values, multiplier),
            np.fft.ifftn(multiplier * np.fft.fftn(values)),
        )


class TestRingTransforms:
    """The one-axis transforms (the Fock ring, a field or a stack of rows) call numpy's
    pocketfft gufuncs themselves. ``lp_step_reference`` runs these same transforms, so only
    numpy's public functions can tell a wrong scale or direction; the bits must be theirs."""

    @staticmethod
    def assert_same_bits(ours, theirs):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs) and ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("rows", [(), (2,), (3,)], ids=["field", "2-rows", "3-rows"])
    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_one_axis_transforms_are_numpys(self, n, rows):
        rng = np.random.default_rng(n + len(rows))
        shape = rows + (n,)
        real = rng.standard_normal(shape)
        values = real + 1j * rng.standard_normal(shape)
        half = np.fft.rfft(rng.standard_normal(shape))
        for field in (real, values):
            self.assert_same_bits(_fftn(field, 1), np.fft.fft(field))
            self.assert_same_bits(_ifftn(field, 1), np.fft.ifft(field))
        self.assert_same_bits(_rfftn(real, 1), np.fft.rfft(real))
        self.assert_same_bits(_irfftn(half, (n,)), np.fft.irfft(half, n))

    @pytest.mark.parametrize("n", [8, 32])
    def test_overwrite_x_transforms_a_complex_ring_field_in_place(self, n):
        values = np.random.default_rng(n).standard_normal((2, n)) + 0.5j
        for transform, public in ((_fftn, np.fft.fft), (_ifftn, np.fft.ifft)):
            scratch = values.copy()
            out = transform(scratch, 1, overwrite_x=True)
            assert out is scratch
            self.assert_same_bits(out, public(values))


@st.composite
def complex_labels(draw):
    """A random complex label on a small 1-, 2- or 3-d grid, with a real field beside it."""
    dim = draw(st.integers(1, 3))
    grid = Grid(dim, draw(st.sampled_from((2, 4, 8, 16))), draw(st.floats(1.0, 20.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return grid, z, rng.standard_normal(grid.shape)


class TestHalfLattice:
    """The rfftn half-lattice maps against their full-lattice complex-transform forms."""

    @spectral_properties
    @given(complex_labels())
    def test_split_then_fill_returns_the_label(self, problem):
        grid, z, _ = problem
        p, q = _hermitian_split(z)
        assert p.shape == q.shape == grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
        back = _hermitian_fill(p, grid.shape) + 1j * _hermitian_fill(q, grid.shape)
        assert np.max(np.abs(back - z)) <= 1e-15 * np.max(np.abs(z))

    @spectral_properties
    @given(complex_labels())
    def test_weighted_half_inner_product_is_the_full_lattice_one(self, problem):
        grid, z, u = problem
        halves = [*_hermitian_split(z), _rfftn(u)]
        fulls = [_hermitian_fill(h, grid.shape) for h in halves]
        for a, full_a in zip(halves, fulls):
            for b, full_b in zip(halves, fulls):
                exact = np.vdot(full_a, full_b) * grid.mode_weight
                scale = np.sqrt(mode_norm_sq(grid, full_a) * mode_norm_sq(grid, full_b))
                assert abs(_half_inner(grid, a, b) - exact) <= 1e-13 * scale

    @spectral_properties
    @given(complex_labels(), st.integers(0, 3), st.floats(0.01, 1.0), st.floats(0.1, 2.0))
    def test_half_potential_is_the_complex_transform_potential(
        self, problem, choice, v0, coupling
    ):
        grid, z, _ = problem
        form = any_form(grid, choice, v0)
        complex_transform = 2.0 * coupling * (
            np.fft.ifftn(form.values * z) * (grid.mode_weight * grid.size)
        ).real
        half = _half_potential(_hermitian_split(z)[0], form, coupling)
        scale = max(np.max(np.abs(complex_transform)), 1e-300)
        assert np.max(np.abs(half - complex_transform)) <= 1e-13 * scale
        assert np.array_equal(_label_potential(z, form, coupling), half)

    @spectral_properties
    @given(complex_labels(), st.integers(0, 3), st.floats(0.01, 1.0))
    def test_half_displacement_is_the_complex_transform_displacement(self, problem, choice, v0):
        grid, _, u = problem
        form = any_form(grid, choice, v0)
        rho = u**2
        complex_transform = form.values * (np.fft.fftn(rho) * grid.cell_volume)
        full = _hermitian_fill(_half_displacement(rho, form), grid.shape)
        scale = max(np.max(np.abs(complex_transform)), 1e-300)
        assert np.max(np.abs(full - complex_transform)) <= 1e-14 * scale

    def test_form_factor_must_be_even(self):
        grid = Grid(1, 8, 8.0)
        values = np.zeros(8)
        values[1] = 0.3
        with pytest.raises(ValueError, match="even"):
            FormFactor(grid, values, np.inf, "one-sided")
