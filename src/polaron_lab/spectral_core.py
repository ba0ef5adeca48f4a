"""Periodic-grid fields, Fourier transforms, and Coulomb-type kernels.

Conventions (used consistently across the whole package):

* forward transform of a field ``f`` on the box ``[0, L)^d``::

      fhat(k) = sum_x exp(-i k.x) f(x) dx^d        (= fftn(f) * dx^d)

  so that convolutions become products, and the inverse carries the
  ``(2pi)^-d`` of the continuum convention,

* momentum sums approximate integrals with the flat weight
  ``w_k = (2pi/L)^d``, which makes Parseval read
  ``<f, g> = (2pi)^-d * sum_k w_k conj(fhat) ghat`` exactly on the lattice,

* an interaction form factor ``v(k) >= 0`` induces the scalar kernel
  multiplier ``M(k) = 2 (2pi)^d v(k)^2``; for the three-dimensional Coulomb
  factor ``v(k) = 1/(2pi|k|)`` this gives the familiar ``4pi/k^2``.

All field/grid values are immutable after construction; operations are pure
functions and safe to call concurrently.

The coupling maps have one implementation each, here: the displacement
f = v rhohat (``_half_displacement``), the label potential's multiplier
(``_half_potential_multiplier``) and the weighted half-lattice inner product
(``_row_inner``). ``lp_dynamics``, ``npolaron`` and ``fock_sim`` look the first
two up on this module at each use, never by from-import, so a patch of either
here reaches every flow. An ``LPConfig`` makes its multiplier at first use and
keeps it, so a patch of ``_half_potential_multiplier`` must come before that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import (
    GridMismatchError,
    MeasureConsistencyError,
    UnsupportedKernelError,
)

__all__ = [
    "Grid",
    "WaveField",
    "FormFactor",
    "mode_norm_sq",
    "kernel_potential",
    "hartree_energy",
    "HartreeEnergy",
    "kinetic_energy",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[0, box_length)^dim``.

    The momentum lattice is ``(2pi/L) * Z^dim`` folded into the first
    Brillouin zone by the usual FFT ordering; it is closed under ``k -> -k``
    up to that folding.
    """

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridMismatchError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not _is_power_of_two(self.points_per_axis):
            raise GridMismatchError(
                f"points_per_axis must be a power of two >= 2, got {self.points_per_axis}"
            )
        if not (self.box_length > 0):
            raise GridMismatchError(f"box_length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def mode_weight(self) -> float:
        """Quadrature weight w_k = (2pi/L)^dim of one momentum-lattice cell."""
        return (2.0 * np.pi / self.box_length) ** self.dim

    @cached_property
    def k_axis(self) -> np.ndarray:
        """1d momentum values in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.dx)

    @cached_property
    def x_axis(self) -> np.ndarray:
        return self.dx * np.arange(self.points_per_axis)

    @cached_property
    def x_axis_centered(self) -> np.ndarray:
        """Signed minimum-image coordinates relative to the grid origin."""
        n = self.points_per_axis
        idx = np.arange(n)
        idx = np.where(idx < n // 2, idx, idx - n)
        return self.dx * idx

    @cached_property
    def half_weight(self) -> np.ndarray:
        """w_k times the multiplicity of a last-axis index of the rfftn half lattice.

        Indices 0 and n/2 stand for themselves, every other one for itself and its
        mirror, so a sum over the half with these weights is the full-lattice sum
        ``sum_k w_k`` for a Hermitian (real-field) summand.
        """
        n = self.points_per_axis
        out = np.full(n // 2 + 1, 2.0 * self.mode_weight)
        out[[0, -1]] = self.mode_weight
        out.flags.writeable = False
        return out

    @cached_property
    def r_sq(self) -> np.ndarray:
        """|x|^2 in the signed minimum-image coordinates of ``x_axis_centered``."""
        out = sum(c**2 for c in np.meshgrid(*([self.x_axis_centered] * self.dim), indexing="ij"))
        out.flags.writeable = False
        return out

    @cached_property
    def k_mesh(self) -> tuple:
        return np.meshgrid(*([self.k_axis] * self.dim), indexing="ij")

    @cached_property
    def k_sq(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for comp in self.k_mesh:
            out = out + comp**2
        out.flags.writeable = False
        return out

    @cached_property
    def k_abs(self) -> np.ndarray:
        out = np.sqrt(self.k_sq)
        out.flags.writeable = False
        return out

    def require_same(self, other: "Grid"):
        if not (
            self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
            and np.isclose(self.box_length, other.box_length, rtol=1e-14, atol=0.0)
        ):
            raise GridMismatchError(f"incompatible grids: {self} vs {other}")


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WaveField:
    """Complex field on a periodic grid (units L^{-dim/2}, so norms are pure numbers)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        # an array already frozen that owns its data is held as it is, anything else copied
        if vals.flags.writeable or vals.base is not None:
            vals = _freeze(vals)
        object.__setattr__(self, "values", vals)

    def spectrum(self) -> np.ndarray:
        return _fftn(self.values) * self.grid.cell_volume

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2).real * self.grid.cell_volume))

    def normalized(self) -> "WaveField":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero field")
        return WaveField(self.grid, self.values / n)

    def density(self) -> np.ndarray:
        """Pointwise |phi|^2 as a real array."""
        return np.abs(self.values) ** 2


def mode_norm_sq(grid: Grid, f: np.ndarray) -> float:
    return float(np.sum(np.abs(f) ** 2) * grid.mode_weight)


def _row_inner(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Re np.vdot(a_r, b_r) of each pair of rows, the trailing ``dim`` grid axes, of a and b
    (b may stack more rows on leading axes): one ``np.vecdot`` over the grid axes flattened
    in C order, as np.vdot flattens its arguments, which gives np.vdot's bits.

    With b weighted by ``grid.half_weight``, this is the momentum-space inner product
    sum_k w_k conj(A) B of Hermitian A, B (spectra of real fields, so the sum is real) from
    their rfftn half spectra a, b.
    """
    if dim > 1:
        a = a.reshape(a.shape[: a.ndim - dim] + (-1,))
        b = b.reshape(b.shape[: b.ndim - dim] + (-1,))
    return np.vecdot(a, b).real


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a(-k) along ``axes``: the index permutation i -> -i mod n of the FFT lattice."""
    for axis in axes:
        n = a.shape[axis]
        a = np.take(a, -np.arange(n) % n, axis=axis)
    return a


def _hermitian_split(z: np.ndarray) -> tuple:
    """The rfftn half spectra of (P, Q) with z = P + iQ and P, Q Hermitian, P(-k) = conj P(k).

    Exact for any complex z: P = (z + conj z(-k))/2 and Q = (z - conj z(-k))/2i are the
    spectra of real fields, so their halves hold them; ``_hermitian_fill`` restores them.
    """
    zc = np.conj(_reflect(z, range(z.ndim)))
    half = z.shape[-1] // 2 + 1
    return (0.5 * (z + zc))[..., :half], (-0.5j * (z - zc))[..., :half]


def _hermitian_fill(half: np.ndarray, shape: tuple) -> np.ndarray:
    """The full spectrum H on a lattice of ``shape`` from its rfftn half, by H(-k) = conj H(k)."""
    m = half.shape[-1]
    # last-axis index j > n/2 is the mirror of n - j, which runs n/2 - 1 down to 1
    mirror = np.conj(_reflect(half[..., m - 2 : 0 : -1], range(len(shape) - 1)))
    return np.concatenate([half, mirror], axis=-1)


@dataclass(frozen=True)
class FormFactor:
    """Electron-phonon coupling profile v(k) >= 0 on the momentum lattice.

    ``kernel_multiplier`` is the scalar-potential kernel the factor induces,
    M(k) = 2 (2pi)^dim v(k)^2, i.e. the Fourier multiplier of the static
    interaction the phonons mediate.
    """

    grid: Grid
    values: np.ndarray
    cutoff: float
    variant: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"form factor shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if np.any(vals < 0):
            raise ValueError("form factor values must be nonnegative")
        # f = v rhohat and the label potential are spectra of real fields only for an even v
        if not np.array_equal(vals, _reflect(vals, range(vals.ndim))):
            raise ValueError("form factor values must be even in k: v(-k) = v(k)")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def coulomb_d3(cls, grid: Grid) -> "FormFactor":
        """Bare periodic Coulomb factor v(k) = 1/(2pi|k|), v(0) = 0."""
        if grid.dim != 3:
            raise UnsupportedKernelError("coulomb_d3 requires a 3d grid")
        kabs = grid.k_abs
        with np.errstate(divide="ignore"):
            vals = np.where(kabs > 0, 1.0 / (2.0 * np.pi * np.maximum(kabs, 1e-300)), 0.0)
        return cls(grid, vals, cutoff=np.inf, variant="coulomb_d3")

    @classmethod
    def coulomb_d3_isolated(cls, grid: Grid) -> "FormFactor":
        """Sphere-truncated Coulomb factor for isolated (image-free) systems.

        The induced kernel is exactly 1/r for r < r_cut and zero beyond, so a
        charge distribution that fits inside a ball of radius r_cut/2 feels no
        periodic images at all. r_cut is half the box, the largest wrap-free
        choice.
        """
        if grid.dim != 3:
            raise UnsupportedKernelError("coulomb_d3_isolated requires a 3d grid")
        r_cut = grid.box_length / 2.0
        kabs = grid.k_abs
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.sqrt(2.0) * np.abs(np.sin(kabs * r_cut / 2.0)) / (
                2.0 * np.pi * np.maximum(kabs, 1e-300)
            )
        # k -> 0 limit of sqrt(2)|sin(k r/2)|/(2 pi k)
        vals = np.where(kabs > 0, vals, np.sqrt(2.0) * r_cut / (4.0 * np.pi))
        return cls(grid, vals, cutoff=np.inf, variant="coulomb_d3_isolated")

    @classmethod
    def toy(
        cls, grid: Grid, v0: float, exponent: float = 0.0, cutoff: float = np.inf
    ) -> "FormFactor":
        """Toy factor v(k) = v0 |k|^{-exponent} for low-dimensional experiments."""
        kabs = grid.k_abs
        if exponent == 0.0:
            vals = np.full(grid.shape, float(v0))
        else:
            with np.errstate(divide="ignore"):
                vals = np.where(kabs > 0, v0 * np.maximum(kabs, 1e-300) ** (-exponent), 0.0)
        vals = np.where(kabs <= cutoff, vals, 0.0)
        return cls(grid, vals, cutoff=cutoff, variant=f"toy(v0={v0},p={exponent})")

    @cached_property
    def half_values(self) -> np.ndarray:
        """v(k) on the rfftn half lattice."""
        return _freeze(self.values[..., : self.grid.points_per_axis // 2 + 1])

    @cached_property
    def kernel_multiplier(self) -> np.ndarray:
        """M(k) = 2 (2pi)^dim v(k)^2 (equals 4pi/k^2 for the bare d=3 factor)."""
        out = 2.0 * (2.0 * np.pi) ** self.grid.dim * self.values**2
        out.flags.writeable = False
        return out


def _trailing(ndim: int) -> tuple:
    """The last ``ndim`` axes, last first: numpy's order over an n-d grid."""
    return tuple(range(-1, -ndim - 1, -1))


def _one_axis_out(a: np.ndarray, overwrite_x: bool) -> np.ndarray:
    """The result array of a one-axis complex transform of ``a``: ``a`` itself when
    ``overwrite_x`` allows it and ``a`` is complex128, else a fresh complex128 array."""
    return a if overwrite_x and a.dtype == np.complex128 else np.empty(a.shape, np.complex128)


def _fftn(a: np.ndarray, ndim: int | None = None, overwrite_x: bool = False) -> np.ndarray:
    """``np.fft.fftn`` over the trailing ``ndim`` axes (every axis by default), bit for bit;
    see ``_fourier_multiply`` for the kernel. ``overwrite_x`` lets the transform of a
    complex128 array write its result into that array and return it, as a one-axis
    transform always does then."""
    ndim = a.ndim if ndim is None else ndim
    if ndim < 2:
        return _pocketfft.fft(a, 1, out=_one_axis_out(a, overwrite_x))
    import scipy.fft

    a = np.asarray(a, dtype=np.complex128)
    return scipy.fft.fftn(a, axes=_trailing(ndim), overwrite_x=overwrite_x)


def _ifftn(a: np.ndarray, ndim: int | None = None, overwrite_x: bool = False) -> np.ndarray:
    """``np.fft.ifftn`` over the trailing ``ndim`` axes (every axis by default), bit for bit;
    see ``_fourier_multiply`` for the kernel and ``_fftn`` for ``overwrite_x``."""
    ndim = a.ndim if ndim is None else ndim
    if ndim < 2:
        return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=_one_axis_out(a, overwrite_x))
    import scipy.fft

    a = np.asarray(a, dtype=np.complex128)
    return scipy.fft.ifftn(a, axes=_trailing(ndim), overwrite_x=overwrite_x)


def _rfftn(a: np.ndarray, ndim: int | None = None) -> np.ndarray:
    """``np.fft.rfftn`` of a real array over the trailing ``ndim`` axes (every axis by
    default), bit for bit; see ``_fourier_multiply``."""
    ndim = a.ndim if ndim is None else ndim
    if ndim < 2:
        n = a.shape[-1]
        ufunc = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
        return ufunc(a, 1, out=np.empty(a.shape[:-1] + (n // 2 + 1,), np.complex128))
    import scipy.fft

    axes = _trailing(ndim)
    return scipy.fft.rfftn(a, axes=axes[1:] + axes[:1])


def _irfftn(half: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.fft.irfftn(half, s=shape)``, the real field of ``shape`` on the trailing axes,
    bit for bit."""
    if len(shape) < 2:
        n = shape[0]
        return _pocketfft.irfft(half, 1.0 / n, out=np.empty(half.shape[:-1] + (n,)))
    import scipy.fft

    return scipy.fft.irfftn(half, s=shape, axes=tuple(range(-len(shape), 0)))


def _fourier_multiply(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """ifft(multiplier * fft(values)) for a real multiplier even in k, as all of them here.

    A real field takes the real transforms on the half spectrum, a complex one the full ones.
    The transforms run over every axis, so a pair state on grid.shape * 2 takes a pair multiplier.

    The grid transforms (``_rfftn``, ``_irfftn``, ``_fftn`` and ``_ifftn``) give numpy's
    bits. Over two or more axes they run scipy's n-d pocketfft kernel, which at 32^3 takes
    about half numpy's time, in numpy's axis order: numpy transforms the last axis first,
    and the complex transforms cast to complex128 as numpy does. The inverses scale by 1/n,
    a power of two on every Grid, which is exact whether applied per axis (numpy) or once
    (scipy). A one-axis transform (the Fock ring) runs along the last axis on the pocketfft
    gufunc behind numpy's 1-d ``fft``, ``ifft``, ``rfft`` or ``irfft``, called with numpy's
    own scale factor (1, or 1/n for an inverse): numpy's bits without numpy's Python
    wrapper, whose argument handling took longer than an 8-point transform. ``scipy.fft``
    (which imports ``scipy.special``) is imported at the first multi-axis transform only.
    Given the grid's number of axes, the transforms run over the trailing ones, so each row
    of a stack of fields (a leading axis) gets the bits of its own transform.
    """
    if np.iscomplexobj(values):
        return _ifftn(multiplier * _fftn(values))
    half = multiplier[..., : values.shape[-1] // 2 + 1]
    return _irfftn(half * _rfftn(values), values.shape)


def _density_potential(rho: np.ndarray, form: FormFactor) -> np.ndarray:
    """V = -(K * rho) as a real array, for a real density array on ``form.grid``."""
    return -_fourier_multiply(rho, form.kernel_multiplier).real


def _half_displacement(rho: np.ndarray, form: FormFactor) -> np.ndarray:
    """Phonon displacement f(k) = v(k) rhohat(k) of a real density array on ``form.grid``,
    as its rfftn half spectrum; row by row for densities stacked on leading axes."""
    return form.half_values * (_rfftn(rho, form.grid.dim) * form.grid.cell_volume)


def _density_displacement(rho: np.ndarray, form: FormFactor) -> np.ndarray:
    """``_half_displacement`` on the full lattice."""
    return _hermitian_fill(_half_displacement(rho, form), form.grid.shape)


def _half_potential_multiplier(form: FormFactor, coupling: float) -> np.ndarray:
    """2 coupling w_k N v(k) on the rfftn half lattice: the label potential
    V(x) = 2 coupling Re sum_k w_k v(k) z(k) e^{ikx} on ``form.grid`` is
    ``_irfftn(multiplier * P, form.grid.shape)`` for the rfftn half spectrum P of the
    label's Hermitian part, since Re(v z) transforms as v P."""
    grid = form.grid
    return (2.0 * coupling * grid.mode_weight * grid.size) * form.half_values


def kernel_potential(rho: WaveField, form: FormFactor) -> WaveField:
    """Attractive potential V = -(K * rho) for the kernel induced by ``form``."""
    rho.grid.require_same(form.grid)
    return WaveField(rho.grid, _density_potential(rho.values.real, form))


@dataclass(frozen=True)
class HartreeEnergy:
    """Dual evaluation of D(rho) = integral rho(x) rho(y) / |x-y|."""

    momentum: float
    real_space: float

    @property
    def value(self) -> float:
        return self.momentum


def hartree_energy(rho: WaveField, form: FormFactor, rtol: float = 1e-10) -> HartreeEnergy:
    """Compute D(rho) both as 2 sum_k w_k v^2 |rhohat|^2 and as -<rho, V rho>.

    The two evaluations must agree to ``rtol`` (relative); any discrepancy
    means the lattice measure weights are inconsistent somewhere, so this
    doubles as the package-wide measure self-test.
    """
    rho.grid.require_same(form.grid)
    rhohat = rho.spectrum()
    d_momentum = 2.0 * float(
        np.sum(form.values**2 * np.abs(rhohat) ** 2) * rho.grid.mode_weight
    )
    v = kernel_potential(rho, form)
    d_real = -float(np.sum(rho.values.real * v.values.real) * rho.grid.cell_volume)
    scale = max(abs(d_momentum), abs(d_real), 1e-30)
    if abs(d_momentum - d_real) > rtol * scale:
        raise MeasureConsistencyError(
            f"Hartree dual evaluation mismatch: momentum={d_momentum!r}, "
            f"real_space={d_real!r}"
        )
    return HartreeEnergy(momentum=d_momentum, real_space=d_real)


def kinetic_energy(psi: WaveField) -> float:
    """<psi, -Laplacian psi> evaluated spectrally."""
    spec = psi.spectrum()
    g = psi.grid
    return float(
        np.sum(g.k_sq * np.abs(spec) ** 2) * g.mode_weight / (2.0 * np.pi) ** g.dim
    )

