"""Exact quantum simulation on (ring electron) x (truncated phonon Fock space).

The Hamiltonian assembled here is

    H = -Lap + alpha^-2 N + alpha^-1 (a(G) + a*(G)),
    a(G) = sum_j sqrt(w) v_j e^{+i k_j x} (x) a_j,       w = 2 pi / L,

with phonons on a chosen negation-closed subset {k_j} of ring momenta and the
total occupation capped at n_max (lexicographic enumeration, so runs are
bit-reproducible). Mode operators a_j are unit-normalized; continuum labels
z(k_j) = <a(k_j)> correspond to <a_j> = sqrt(w) z_j, and a coherent state of
label z is W(z) vac with the displacement vector folded by sqrt(w).

The model is born at finite mode count, so the cutoff remainders of the
continuum construction vanish identically: delta_H = alpha^-1 (phi(G) - phi(f))
exactly, and the Weyl-conjugation identities hold up to truncation leakage
only.

On the ring e^{i k_j x} depends on m_j only mod sites, so mode j sits at the
lattice index ``FockBasis.mode_index[j]`` = m_j mod sites. The basis carries
the coupling there as a ``FormFactor`` and two maps: ``to_modes`` gathers a
lattice array at the mode indices, and its adjoint ``to_lattice`` scatter-adds
modes onto the lattice. Through them f_j = v_j rhohat(k_j) and
V(x) = -2 Re sum_j w v_j f_j e^{i k_j x} (the LP label potential at
z = -alpha f) are spectral_core's. A mode set may repeat a ring index (+-2 on
4 sites): the exact model keeps both modes and the scatter adds them, but the
LP flow on the ring has one mode per index, so ``error_sweep_coherent`` and
``make_defect_evaluator`` refuse such a set.

A Weyl operator W(g) = exp(a*(g) - a(g)) is applied bit for bit as scipy's
``expm_multiply`` (the Al-Mohy-Higham truncated Taylor method) would apply it,
but set up once per generator. The generator has no diagonal, so
``expm_multiply``'s trace shift is 0. Its CSC pattern is fixed by the basis and
cached there, so a generator is only its data filled in. Its 1-norm (scipy's
column sums of |data|, without scipy's matrix wrapping) and Taylor degree are
chosen once, and each vector runs scipy's own Taylor loop. Vectors are never
applied as a block: the loop's stopping test reads the norm of the whole block,
so a block would change their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg._expm_multiply import (
    LazyOperatorNormInfo,
    _expm_multiply_simple_core,
    _fragment_3_1,
)

from . import spectral_core
from .errors import ConvergenceError, SizingError
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _density_displacement,
    _hermitian_split,
    _irfftn,
    mode_norm_sq,
)

__all__ = [
    "FockConfig",
    "FockBasis",
    "FockOperatorSet",
    "assemble",
    "weyl_apply",
    "coherent_state",
    "ground_state",
    "Propagator",
    "discrete_pekar",
    "projector_identities",
    "make_defect_evaluator",
    "error_sweep_stationary",
    "error_sweep_coherent",
    "inequality_suite",
    "fit_loglog",
]


# largest product-space dimension a basis may have; checked before any occupation is formed
_BASIS_BUDGET = 2_000_000
# largest total-momentum sector ``_sector_blocks`` builds densely
_SECTOR_LIMIT = 2000
# energy tolerance and iteration cap of ``discrete_pekar``'s alternating minimization
_PEKAR_TOL = 1e-12
_PEKAR_MAX_ITER = 500
# random vectors per block of the annihilator-bound check: as fast as 32, and no block size
# up to 32 raised the lemma suite's peak resident memory
_BOUND_BLOCK = 16


@dataclass(frozen=True)
class FockConfig:
    """The basis of the truncated model, shared by every alpha (``assemble``'s argument)."""

    n_sites: int
    box_length: float
    mode_numbers: tuple  # integer momenta m -> k = 2 pi m / L
    v0: float
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "mode_numbers", tuple(int(m) for m in self.mode_numbers))
        ms = set(self.mode_numbers)
        if len(ms) != len(self.mode_numbers):
            raise ValueError("duplicate phonon modes")
        for m in ms:
            if (-m) % self.n_sites not in {mm % self.n_sites for mm in ms}:
                raise ValueError("phonon mode set must be closed under k -> -k")


def _occupations(n_modes: int, n_max: int) -> np.ndarray:
    """All occupation vectors with total <= n_max, one per row, in lexicographic order.

    Built one mode at a time: each prefix row, in order, is followed by every
    value its remaining room allows, ascending, so the order stays
    lexicographic and no vector over the cap is ever formed.
    """
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        reps = n_max - occ.sum(axis=1) + 1
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        occ = np.column_stack([np.repeat(occ, reps, axis=0), np.arange(starts.size) - starts])
    return occ


def _occupation_rank(occ: np.ndarray, n_max: int) -> np.ndarray:
    """Position of each row of ``occ`` in the ``_occupations`` order.

    Length-k vectors with total <= m number C(k + m, k), and those whose
    first entry is at least a number C(k + m - a, k). So entry i of a row adds
    the count of vectors that share the row's prefix and have a smaller
    entry i.
    """
    n_modes = occ.shape[1]
    count = np.array(
        [[math.comb(k + m, k) for m in range(n_max + 1)] for k in range(n_modes + 1)],
        dtype=np.int64,
    )
    room = n_max - np.cumsum(occ, axis=1) + occ  # cap left before entry i
    k = n_modes - np.arange(n_modes)
    return (count[k, room] - count[k, room - occ]).sum(axis=1)


class FockBasis:
    """Product basis (ring site) x (occupation multi-index)."""

    def __init__(self, config: FockConfig):
        self.config = config
        self.grid = Grid(1, config.n_sites, config.box_length)
        self.x = self.grid.x_axis
        self.k_modes = 2.0 * np.pi * np.array(config.mode_numbers) / config.box_length
        self.mode_index = np.array(config.mode_numbers, dtype=np.int64) % config.n_sites
        self.v = np.full(len(self.k_modes), float(config.v0))
        self.n_occ = math.comb(len(self.k_modes) + config.n_max, config.n_max)
        self.dim_total = config.n_sites * self.n_occ
        if self.dim_total > _BASIS_BUDGET:
            raise SizingError(f"basis dimension {self.dim_total} exceeds budget {_BASIS_BUDGET}")
        self.occ = _occupations(len(self.k_modes), config.n_max)
        self.occ_totals = self.occ.sum(axis=1)

    # --- occupation-space operators -------------------------------------
    @cached_property
    def _lowering_entries(self):
        """(rows, cols, values, mode) of every entry <n - e_j| a_j |n> = sqrt(n_j), by mode j.

        The modes' patterns are disjoint, so any combination of the a_j is one sparse matrix.
        """
        mode, cols = np.nonzero(self.occ.T)
        target = self.occ[cols]
        target[np.arange(len(cols)), mode] -= 1
        rows = _occupation_rank(target, self.config.n_max)
        values = np.sqrt(self.occ[cols, mode]).astype(complex)
        return rows, cols, values, mode

    @cached_property
    def number_occ(self):
        return sp.diags(self.occ_totals.astype(float)).tocsr()

    def annihilator_occ(self, f_values: np.ndarray):
        """a(f) = sum_j sqrt(w) conj(f_j) a_j on the occupation factor, as one sparse matrix."""
        rows, cols, values, mode = self._lowering_entries
        scale = (np.sqrt(self.grid.mode_weight) * np.conj(np.asarray(f_values)))[mode]
        keep = scale != 0
        return sp.csr_matrix(
            (scale[keep] * values[keep], (rows[keep], cols[keep])), shape=(self.n_occ, self.n_occ)
        )

    @cached_property
    def _weyl_pattern(self):
        """(indices, indptr, raising, lowering) of the CSC pattern of a*(g) - a(g).

        Entry k of ``_lowering_entries`` sits at data position ``lowering[k]`` and its
        adjoint at ``raising[k]``; rows are sorted within each column, as a sparse binop
        leaves them. The two parts never overlap: they change the total occupation by +-1.
        """
        rows, cols, _, _ = self._lowering_entries
        entry_rows, entry_cols = np.concatenate([cols, rows]), np.concatenate([rows, cols])
        order = np.lexsort((entry_rows, entry_cols))
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        indptr = np.zeros(self.n_occ + 1, dtype=np.int32)
        np.cumsum(np.bincount(entry_cols, minlength=self.n_occ), out=indptr[1:])
        return (entry_rows[order].astype(np.int32), indptr, *np.split(position, 2))

    def _weyl_generator(self, g: np.ndarray):
        """a*(g) - a(g) as a CSC matrix with the bits of ``(a.conj().T - a).tocsc()``,
        a = ``annihilator_occ(g)``: its pattern filled in, without explicit zeros."""
        indices, indptr, raising, lowering = self._weyl_pattern
        _, _, values, mode = self._lowering_entries
        lowered = (np.sqrt(self.grid.mode_weight) * np.conj(np.asarray(g)))[mode] * values
        data = np.empty(len(indices), dtype=complex)
        data[raising] = np.conj(lowered)
        data[lowering] = 0 - lowered  # the binop's 0 - x, whose zeros' signs -x does not keep
        generator = sp.csc_matrix(
            (data, indices.copy(), indptr.copy()), shape=(self.n_occ, self.n_occ)
        )
        generator.eliminate_zeros()  # a zero mode of g leaves no entries, as the binop drops them
        return generator

    def field_occ(self, f_values: np.ndarray):
        a = self.annihilator_occ(f_values)
        return a + a.conj().T

    def vacuum_occ(self) -> np.ndarray:
        vec = np.zeros(self.n_occ, dtype=complex)
        vec[0] = 1.0  # the all-zero occupation sorts first
        return vec

    # --- electron-space operators ---------------------------------------
    def _spectral_matrix(self, multiplier: np.ndarray) -> np.ndarray:
        """Dense ring operator ifft(multiplier * fft(.)) built column by column."""
        n = self.config.n_sites
        mat = np.fft.ifft(multiplier[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
        return 0.5 * (mat + mat.conj().T)

    @cached_property
    def kinetic_electron(self) -> np.ndarray:
        """Dense spectral -Lap on the ring (Hermitian circulant)."""
        return self._spectral_matrix(self.grid.k_sq)

    def electron_momentum_weight(self) -> np.ndarray:
        """Dense (1 + p^2)^{1/2} on the ring (spectral)."""
        return self._spectral_matrix((1.0 + self.grid.k_sq) ** 0.5)

    @cached_property
    def conjugate_mode_index(self):
        """Index j' of the mode -m_j, or failing that of a mode at ring index -m_j mod sites."""
        numbers = list(self.config.mode_numbers)
        index = self.mode_index.tolist()
        return [
            numbers.index(-m) if -m in numbers else index.index(-m % self.config.n_sites)
            for m in numbers
        ]

    # --- ring lattice <-> modes ---------------------------------------------
    @cached_property
    def form(self) -> FormFactor:
        """The coupling on the ring lattice: v0 at each mode's index, 0 elsewhere."""
        values = np.zeros(self.grid.shape)
        values[self.mode_index] = self.config.v0
        return FormFactor(self.grid, values, cutoff=np.inf, variant="fock-modes")

    def to_modes(self, lattice: np.ndarray) -> np.ndarray:
        """Gather: a lattice array's entry at each mode's ring index."""
        return np.asarray(lattice)[self.mode_index]

    def to_lattice(self, modes: np.ndarray) -> np.ndarray:
        """Scatter-add, the adjoint of ``to_modes``: modes that share a ring index add up."""
        out = np.zeros(self.grid.shape, dtype=complex)
        np.add.at(out, self.mode_index, modes)
        return out

    def displacement(self, psi_e: np.ndarray) -> np.ndarray:
        """f_j = v_j rhohat(k_j) of an l2-normalized ring orbital."""
        rho = np.abs(psi_e) ** 2 / self.grid.dx
        return self.to_modes(_density_displacement(rho, self.form))

    def potential(self, f_values: np.ndarray) -> np.ndarray:
        """V(x) = -2 Re sum_j w v_j f_j e^{i k_j x}, the LP potential of the label z = -alpha f."""
        multiplier = spectral_core._half_potential_multiplier(self.form, -1.0)
        p = _hermitian_split(self.to_lattice(f_values))[0]
        return _irfftn(multiplier * p, self.grid.shape)

    def mean_field(self, f_values: np.ndarray) -> np.ndarray:
        """Dense ring mean-field operator h_e = -Lap + V_f, V_f = ``potential(f_values)``."""
        return self.kinetic_electron + np.diag(self.potential(f_values))


def _kron(a, b):
    return sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="csr")


class FockOperatorSet:
    """Assembled sparse operators of one alpha on the full product space."""

    def __init__(self, basis: FockBasis, alpha: float):
        self.basis = basis
        self.alpha = alpha
        n = basis.config.n_sites
        self.eye_e = sp.identity(n, dtype=complex, format="csr")
        self.eye_occ = sp.identity(basis.n_occ, dtype=complex, format="csr")

        self.kinetic = _kron(basis.kinetic_electron, self.eye_occ)
        self.number = _kron(self.eye_e, basis.number_occ)

        # a(G): at each site x, every entry sqrt(n_j) of a_j of a coupled mode times
        # sqrt(w) v_j e^{ik_j x}, grouped as (sqrt(w) v_j)(e^{ik_j x} sqrt(n_j)): the bits of
        # summing the per-mode Kronecker products
        rows, cols, values, mode = basis._lowering_entries
        keep = basis.v[mode] != 0
        rows, cols, values, mode = rows[keep], cols[keep], values[keep], mode[keep]
        phases = np.exp(1j * basis.k_modes[:, None] * basis.x)  # one row per mode
        data = (np.sqrt(basis.grid.mode_weight) * basis.v[mode]) * (phases[mode].T * values)
        shift = basis.n_occ * np.arange(n)[:, None]  # site x's block of the product space
        self.annihilate_g = sp.csr_matrix(
            (data.ravel(), ((shift + rows).ravel(), (shift + cols).ravel())),
            shape=(basis.dim_total, basis.dim_total),
        )
        self.field_g = self.annihilate_g + self.annihilate_g.conj().T

        self.hamiltonian = (
            self.kinetic
            + self.alpha**-2 * self.number
            + self.alpha**-1 * self.field_g
        ).tocsr()

    # --- helpers ----------------------------------------------------------
    def potential_diag(self, v_of_x: np.ndarray):
        return _kron(np.diag(v_of_x), self.eye_occ)

    def field_of(self, f_values: np.ndarray):
        return _kron(self.eye_e, self.basis.field_occ(f_values))

    def h_rotated(self, f_values: np.ndarray):
        """H + V - alpha^-1 phi(f) + ||f||^2 (Weyl conjugation of H, assembled)."""
        fsq = mode_norm_sq(self.basis.grid, f_values)
        return (
            self.hamiltonian
            + self.potential_diag(self.basis.potential(f_values))
            - self.alpha**-1 * self.field_of(f_values)
            + fsq * sp.identity(self.basis.dim_total, format="csr")
        ).tocsr()

    def delta_h(self, f_values: np.ndarray):
        """delta_H = alpha^-1 (phi(G) - phi(f)); the V_cut - V piece is exactly zero here."""
        return (self.alpha**-1 * (self.field_g - self.field_of(f_values))).tocsr()

    def hermiticity_defect(self) -> float:
        ops = [self.kinetic, self.number, self.field_g, self.hamiltonian]
        return max(abs((op - op.conj().T)).max() for op in ops)


def assemble(basis: FockBasis, alpha: float) -> FockOperatorSet:
    """The operators of coupling ``alpha`` on ``basis``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return FockOperatorSet(basis, alpha)


# --- Weyl operators -------------------------------------------------------


def _exact_1_norm(generator) -> float:
    """max_j sum_i |G_ij| of a CSC generator, bit for bit scipy's ``_exact_1_norm``: the
    same ``np.add.reduceat`` of |data| over the non-empty columns, without the |G| matrix
    and the matrix it wraps the column sums in."""
    indptr = generator.indptr
    filled = np.flatnonzero(np.diff(indptr))
    return np.add.reduceat(np.abs(generator.data), indptr[filled]).max(initial=0.0)


def _weyl_exponential(generator):
    """``v -> expm_multiply(generator, v)`` for one vector v, bit for bit, with the set-up
    done once per generator: scipy's own steps of ``expm_multiply``.

    A Weyl generator has no diagonal, so its trace, and with it expm_multiply's shift mu,
    is 0: ``generator - mu I`` and ``1.0 * generator`` are the generator itself. What is
    left per generator is the exact 1-norm and the Taylor degree and step count of the
    Al-Mohy-Higham code fragment (3.1), for one column; per vector, the Taylor loop. The
    loop's stopping test reads the norm of its whole operand, so the vectors go one at a
    time: a block would change their bits. Above the fragment's bound (a 1-norm of about
    63) scipy estimates norms of powers from random starts of numpy's global generator;
    there the choice is drawn once per generator, not once per vector.
    """
    norm = _exact_1_norm(generator)
    if norm == 0:
        m_star, s = 0, 1
    else:
        info = LazyOperatorNormInfo(generator, A_1_norm=norm, ell=2)
        m_star, s = _fragment_3_1(info, 1, 2.0**-53, ell=2)
    return lambda v: _expm_multiply_simple_core(generator, v, 1.0, 0.0, m_star, s)


def weyl_apply(basis: FockBasis, displacement: np.ndarray, occ_vec: np.ndarray, guard: bool = True):
    """Apply W(g) = exp(a*(g) - a(g)) to one vector of the occupation factor.

    ``displacement`` is in the continuum convention (the coherent label it
    creates on the vacuum). Unitary by construction; returns (vector, leakage)
    where leakage is the probability weight on the saturated shell. The vector
    is bit for bit ``expm_multiply(a*(g) - a(g), occ_vec)``: the generator is
    the basis's cached pattern filled in, and it runs scipy's own steps
    (``_weyl_exponential``).
    """
    disp_sq = mode_norm_sq(basis.grid, displacement)
    if guard and disp_sq > basis.config.n_max / 4.0:
        raise SizingError(
            f"mean phonon number {disp_sq:.3g} exceeds the truncation guard "
            f"n_max/4 = {basis.config.n_max / 4:.3g}"
        )
    out = _weyl_exponential(basis._weyl_generator(displacement))(
        np.asarray(occ_vec, dtype=complex)
    )
    mask = basis.occ_totals == basis.config.n_max
    leakage = float(np.sum(np.abs(out[mask]) ** 2))
    return out, leakage


def coherent_state(basis: FockBasis, label: np.ndarray):
    """Normalized coherent state with <a(k_j)> = label_j (i.e. W(label) vac)."""
    return weyl_apply(basis, label, basis.vacuum_occ())


# --- eigensolving and propagation ------------------------------------------


def _require_dense_sectors(basis: FockBasis):
    """SizingError if a total-momentum sector has more than ``_SECTOR_LIMIT`` occupations."""
    if basis.n_occ > _SECTOR_LIMIT:
        raise SizingError(
            f"momentum sector of {basis.n_occ} occupations exceeds the dense limit {_SECTOR_LIMIT}"
        )


def _sector_blocks(basis: FockBasis, a: float, b: float, c: float, s: float):
    """The blocks ``(p, block)`` of a ring operator diag(a k_p^2 + b |n| + c) + s phi(v), one per P.

    It conserves the total momentum P = p + M(n) mod sites, M(n) = sum_j m_j n_j
    (Lee-Low-Pines): in sector P each occupation n fixes the electron's ring index
    p = P - M(n), so one block per P, sectors in ascending order, acts on the occupation
    factor. As v is real, each block is real symmetric. SizingError for sectors above
    ``_SECTOR_LIMIT`` occupations, before any is built.
    """
    _require_dense_sectors(basis)
    n = basis.config.n_sites
    coupling = s * basis.field_occ(basis.v).toarray().real
    momentum = basis.occ @ np.array(basis.config.mode_numbers, dtype=np.int64)
    occ_part = b * basis.occ_totals + c
    for sector in range(n):
        p = (sector - momentum) % n
        yield p, coupling + np.diag(a * basis.grid.k_sq[p] + occ_part)


def _lowest_by_sector(basis: FockBasis, a: float, b: float, c: float, s: float):
    """Lowest eigenpair ``(e, vec, p)`` of a ring operator diag(a k_p^2 + b |n| + c) + s phi(v).

    One dense ``eigh`` per ``_sector_blocks`` block; ``p`` holds the electron's ring
    indices in the lowest sector (the lowest P on a tie).
    """
    best = (np.inf, None, None)
    for p, block in _sector_blocks(basis, a, b, c, s):
        vals, vecs = eigh(block, subset_by_index=[0, 0])
        if vals[0] < best[0]:
            best = (float(vals[0]), vecs[:, 0], p)
    return best


def ground_state(ops: FockOperatorSet):
    """Lowest eigenpair ``(e0, psi)`` of the assembled Hamiltonian (residual-checked).

    H is the sector form (1, alpha^-2, 0, alpha^-1) of ``_sector_blocks``; its
    eigenvector maps back as psi(x, n) = c(n) e^{i k_p x} / sqrt(sites), site-major.
    """
    basis = ops.basis
    e0, c, p = _lowest_by_sector(basis, 1.0, ops.alpha**-2, 0.0, ops.alpha**-1)
    n = basis.config.n_sites
    psi = (np.exp(1j * np.outer(basis.x, basis.grid.k_axis[p])) * c / np.sqrt(n)).ravel()
    residual = float(np.linalg.norm(ops.hamiltonian @ psi - e0 * psi))
    if residual > 1e-8:
        raise ConvergenceError("ground-state residual above 1e-8", residual=residual)
    return e0, psi


class Propagator:
    """e^{-iHt} of the Hamiltonian of coupling ``alpha`` on ``basis``, exactly, from its
    total-momentum sectors; it assembles no product-space operator.

    H is the sector form (1, alpha^-2, 0, alpha^-1) of ``_sector_blocks``: each real
    symmetric block is diagonalized once, here. ``apply`` moves a state to the momentum
    basis e^{i k_p x} / sqrt(sites) by an orthonormal FFT over the site axis, rotates
    each sector's eigen-coordinates by e^{-iEt} and transforms back. SizingError for
    sectors above ``_SECTOR_LIMIT`` occupations.
    """

    def __init__(self, basis: FockBasis, alpha: float):
        self._shape = (basis.config.n_sites, basis.n_occ)
        self._sectors = [
            (p, *eigh(block, driver="evd"))
            for p, block in _sector_blocks(basis, 1.0, alpha**-2, 0.0, alpha**-1)
        ]

    def apply(self, psi: np.ndarray, t) -> np.ndarray:
        """e^{-iHt} psi for a scalar ``t``; for a 1-d array of times, one row per sample."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"times must be a scalar or a 1-d array, got shape {times.shape}")
        hat = np.fft.fft(np.reshape(psi, self._shape), axis=0, norm="ortho")
        out = np.empty(times.shape + self._shape, dtype=complex)
        occ = np.arange(self._shape[1])
        for p, energies, vecs in self._sectors:
            coeff = hat[p, occ] @ vecs
            out[..., p, occ] = (np.exp(-1j * np.multiply.outer(times, energies)) * coeff) @ vecs.T
        out = np.fft.ifft(out, axis=-2, norm="ortho")
        return out.reshape(times.shape + (-1,))


# --- discrete product-state (Pekar) data ------------------------------------


@dataclass(frozen=True)
class DiscretePekar:
    phi: np.ndarray  # l2-normalized electron orbital
    f: np.ndarray  # displacement profile f_j = v_j rhohat_j
    lam: float
    mu: float
    energy: float  # lam + ||f||^2 = <u0, H u0>
    eta: np.ndarray  # coherent occupation vector, label -alpha f
    leakage: float
    electron_residual: float
    phonon_residual: float


def discrete_pekar(basis: FockBasis, alpha: float):
    """Alternating minimization over product states phi x coherent(z) at coupling ``alpha``.

    phi solves the electron problem for -Lap + V_z, z = -alpha f(phi) is the
    phonon fixed point. Verifies both stationarity relations; the coherent
    one holds up to truncation leakage. Assembles no product-space operator.
    The minimization reads only the basis (``_pekar_orbital``); alpha enters
    through the coherent state and the phonon residual (``_pekar_at``).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _pekar_at(basis, _pekar_orbital(basis), alpha)


def _pekar_orbital(basis: FockBasis) -> tuple:
    """(phi, f, lam, electron residual) of the alternating minimization, which does not
    depend on alpha: ``mean_field`` and ``displacement`` read only the basis. So a sweep over
    alphas runs it once and hands it to ``_pekar_at`` for each alpha."""
    n = basis.config.n_sites
    f = basis.displacement(np.ones(n) / np.sqrt(n))
    energy = np.inf
    for _ in range(_PEKAR_MAX_ITER):
        vals, vecs = eigh(basis.mean_field(f))
        psi, lam, f_prev, e_prev = vecs[:, 0], float(vals[0]), f, energy
        f = basis.displacement(psi)
        energy = lam + mode_norm_sq(basis.grid, f)
        if abs(energy - e_prev) < _PEKAR_TOL and np.linalg.norm(f - f_prev) < np.sqrt(_PEKAR_TOL):
            break
    else:
        raise ConvergenceError(
            f"discrete Pekar not converged in {_PEKAR_MAX_ITER} iterations",
            residual=abs(energy - e_prev),
        )
    e_res = float(np.linalg.norm(basis.mean_field(f) @ psi - lam * psi))
    return psi, f, lam, e_res


def _pekar_at(basis: FockBasis, orbital: tuple, alpha: float) -> DiscretePekar:
    """The ``DiscretePekar`` of a ``_pekar_orbital`` at coupling ``alpha``: the coherent state
    of label -alpha f and the phonon stationarity residual."""
    psi, f, lam, e_res = orbital
    fsq = mode_norm_sq(basis.grid, f)
    mu = -fsq
    eta, leakage = coherent_state(basis, -alpha * f)
    h_ph = (alpha**-2) * basis.number_occ + (alpha**-1) * basis.field_occ(f)
    p_res = float(np.linalg.norm(h_ph @ eta - mu * eta))
    return DiscretePekar(
        phi=psi.astype(complex),
        f=f,
        lam=lam,
        mu=mu,
        energy=lam + fsq,
        eta=eta,
        leakage=leakage,
        electron_residual=e_res,
        phonon_residual=p_res,
    )


# --- tangent-space projectors ------------------------------------------------


def _split(basis: FockBasis, vec: np.ndarray) -> np.ndarray:
    return vec.reshape(basis.config.n_sites, basis.n_occ)


def project_electron(basis, phi, vec):
    m = _split(basis, vec)
    return np.kron(phi, phi.conj() @ m)


def project_phonon(basis, eta, vec):
    m = _split(basis, vec)
    return ((m @ eta.conj())[:, None] * eta[None, :]).ravel()


def project_product(basis, phi, eta, vec):
    u = np.kron(phi, eta)
    return u * np.vdot(u, vec)


def tangent_projector_apply(basis, phi, eta, vec):
    """P(u) = P_phi x 1 + 1 x P_eta - P_{phi x eta} acting on a vector."""
    return (
        project_electron(basis, phi, vec)
        + project_phonon(basis, eta, vec)
        - project_product(basis, phi, eta, vec)
    )


def tangent_projector_threeterm(basis, phi, eta, vec):
    """P_{phi x eta} + P_phi^perp x P_eta + P_phi x P_eta^perp (the split form)."""
    p_e = project_electron(basis, phi, vec)
    p_p = project_phonon(basis, eta, vec)
    p_u = project_product(basis, phi, eta, vec)
    # P_phi^perp x P_eta = (1 x P_eta) - (P_phi x P_eta); P_phi x P_eta = P_{u} on products
    cross = project_electron(basis, phi, p_p)
    return p_u + (p_p - cross) + (p_e - cross)


def perp_defect(basis, phi, eta, h):
    """||P(u)^perp H u|| for the product state u = phi x eta."""
    u = np.kron(phi, eta)
    hu = h @ u
    return float(np.linalg.norm(hu - tangent_projector_apply(basis, phi, eta, hu)))


def projector_identities(ops: FockOperatorSet, pekar: DiscretePekar, rng):
    """Algebraic projector checks on 20 random vectors + the rotated-frame defect identity.

    Returns a dict of worst-case residuals; all are expected at the 1e-12
    level on the truncated space.
    """
    basis = ops.basis
    phi, eta = pekar.phi, pekar.eta
    idem = three_vs_two = complement = 0.0
    for _ in range(20):
        x = rng.standard_normal(basis.dim_total) + 1j * rng.standard_normal(basis.dim_total)
        x /= np.linalg.norm(x)
        px = tangent_projector_apply(basis, phi, eta, x)
        ppx = tangent_projector_apply(basis, phi, eta, px)
        idem = max(idem, float(np.linalg.norm(ppx - px)))
        tx = tangent_projector_threeterm(basis, phi, eta, x)
        three_vs_two = max(three_vs_two, float(np.linalg.norm(tx - px)))
        # P(u)^perp = P_phi^perp x P_eta^perp
        perp = x - px
        complement = max(complement, float(np.linalg.norm(perp - _q0_apply(basis, phi, eta, perp))))
    # Q0 delta_H psi0 = alpha^-1 Q0 a*(G) psi0 with psi0 = phi x vac
    psi0 = np.kron(phi, basis.vacuum_occ())
    dh = ops.delta_h(pekar.f)
    vac = basis.vacuum_occ()
    rhs = (1.0 / ops.alpha) * (ops.annihilate_g.conj().T @ psi0)
    delta_residual = float(
        np.linalg.norm(_q0_apply(basis, phi, vac, dh @ psi0) - _q0_apply(basis, phi, vac, rhs))
    )
    return {
        "idempotency": idem,
        "three_term_vs_alternative": three_vs_two,
        "complement_factorization": complement,
        "delta_h_identity": delta_residual,
    }


def _q0_apply(basis, phi, eta, vec):
    """Q0 = P_phi^perp x P_eta^perp."""
    m = _split(basis, vec.copy())
    m = m - np.outer(phi, phi.conj() @ m)
    m = m - np.outer(m @ eta.conj(), eta)
    return m.ravel()


def _require_distinct_ring_modes(basis: FockBasis):
    """ValueError if two modes share a ring index, which the LP flow on the ring cannot hold."""
    if len(np.unique(basis.mode_index)) < len(basis.mode_index):
        raise ValueError(
            f"modes {basis.config.mode_numbers} repeat a ring momentum on "
            f"{basis.config.n_sites} sites; the LP flow on the ring has one mode per index"
        )


def make_defect_evaluator(ops: FockOperatorSet):
    """Adapter for lp_dynamics.df_error_integral: LPState -> ||P(u)^perp H u||.

    The LP state must live on the same ring, with one mode per ring index; its
    orbital is converted to the l2 convention and its label to a coherent
    occupation vector.
    """
    basis = ops.basis
    _require_distinct_ring_modes(basis)

    def defect(state) -> float:
        psi_e = state.phi.values * np.sqrt(state.cfg.grid.dx)
        eta, _ = coherent_state(basis, basis.to_modes(state.label()))
        return perp_defect(basis, psi_e, eta, ops.hamiltonian)

    return defect


# --- error-scaling sweeps -----------------------------------------------------


def fit_loglog(alphas, sups):
    """Least-squares slope/intercept of log(sup_err) vs log(alpha), with R^2."""
    if len(alphas) < 2:
        return 0.0, float(np.log(max(sups[0], 1e-300))) if sups else 0.0, 1.0
    x = np.log(np.asarray(alphas, dtype=float))
    y = np.log(np.maximum(np.asarray(sups, dtype=float), 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _distinct_positive(alphas) -> bool:
    """Whether ``alphas`` holds one or more couplings, each positive and none repeated."""
    return len(set(alphas)) == len(alphas) > 0 and all(a > 0 for a in alphas)


def _sweep_setup(config: FockConfig, alphas, t_final: float, n_samples: int):
    """(basis, linspace(0, t_final, n_samples)) of an error sweep. ValueError unless the alphas
    are one or more, positive and distinct, t_final > 0 and n_samples >= 2, and SizingError
    for a sector above ``_SECTOR_LIMIT`` occupations, both before any other work."""
    if not (_distinct_positive(alphas) and t_final > 0 and n_samples >= 2):
        raise ValueError(
            "an error sweep needs distinct alphas > 0, t_final > 0 and n_samples at least 2, "
            f"got alphas {list(alphas)}, t_final {t_final} and n_samples {n_samples}"
        )
    basis = FockBasis(config)
    _require_dense_sectors(basis)
    return basis, np.linspace(0.0, t_final, n_samples)


def _sweep_report(alphas, times, errors) -> dict:
    """Rows, sups and fits of a sweep from ``errors[i]``, alpha i's errors at ``times[1:]``.

    Each alpha's rows open with err 0 at t = 0, where psi_0 = u0. The log-log fit runs over
    the sups; C (``c_hat``) of the bound err <= C t / alpha^2 is fitted at the first alpha,
    and ``bound_margin`` is the bound's least slack at the other alphas (0 for one alpha).
    """
    rows, sups = [], []
    for alpha, errs in zip(alphas, errors, strict=True):
        rows.append((0.0, float(alpha), 0.0))
        rows.extend((float(t), float(alpha), float(err)) for t, err in zip(times[1:], errs))
        sups.append(float(np.max(errs, initial=0.0)))
    slope, intercept, r2 = fit_loglog(alphas, sups)
    a0 = alphas[0]
    c_hat = max((err * a0**2 / t for (t, a, err) in rows if a == a0 and t > 0), default=0.0)
    others = [(t, a, err) for (t, a, err) in rows if a != a0 and t > 0]
    margin = min(c_hat * t / a**2 - err for (t, a, err) in others) if others else 0.0
    return {
        "rows": rows,
        "alphas": [float(a) for a in alphas],
        "sup_errors": sups,
        "slope": slope,
        "intercept": intercept,
        "r_squared": r2,
        "c_hat": float(c_hat),
        "bound_margin": float(margin),
    }


def _lp_product_state(basis: FockBasis, eta0: np.ndarray, state, t: float):
    """(u_t, leakage): the LP ``state`` at t on the product space, a(t) phi_t x eta_t, with
    eta_t = e^{-iF_t} e^{-i omega N t} W(J_t) eta0 and leakage W(J_t) eta0's weight on the
    saturated shell. The state's ring must have one mode per index."""
    cfg = state.cfg
    eta_t, leakage = weyl_apply(basis, basis.to_modes(state.rep.memory(cfg)), eta0, guard=False)
    eta_t = np.exp(-1j * cfg.frequency * basis.occ_totals * t) * eta_t
    eta_t = np.exp(-1j * state.rep.f_acc) * eta_t
    return state.a_phase * np.kron(state.phi.values * np.sqrt(basis.grid.dx), eta_t), leakage


def error_sweep_stationary(config: FockConfig, alphas, t_final: float, n_samples: int = 26):
    """Stability of the stationary product state: err(t) = ||psi_t - e^{-iEt} u0||^2.

    Returns a dict with the (t, alpha, err) table, per-alpha sup, the log-log
    fit, and the bound-form constant fitted at the smallest alpha. Each alpha's errors are
    one ``np.linalg.norm(..., axis=1)``. ``discrete_pekar`` and the sector ``Propagator``
    read only the basis and alpha, so no product-space operator is assembled. The
    alpha-free minimization runs once (``_pekar_orbital``), every alpha's Pekar state is
    built from it before the first ``Propagator``, and ``_sweep_setup``'s checks run before
    any Pekar iteration.
    """
    basis, times = _sweep_setup(config, alphas, t_final, n_samples)
    orbital = _pekar_orbital(basis)
    pekars = [_pekar_at(basis, orbital, alpha) for alpha in alphas]
    errors = []
    for alpha, pek in zip(alphas, pekars):
        u0 = np.kron(pek.phi, pek.eta)
        u0 = u0 / np.linalg.norm(u0)
        psi = Propagator(basis, alpha).apply(u0, times[1:])  # psi_0 = u0: err(0) is 0
        phases = np.exp(-1j * pek.energy * times[1:])[:, None]
        errors.append(np.linalg.norm(psi - phases * u0, axis=1) ** 2)
    return {
        **_sweep_report(alphas, times, errors),
        "leakage_max": float(max(pek.leakage for pek in pekars)),
        "residual_max": float(max(max(p.electron_residual, p.phonon_residual) for p in pekars)),
    }


def error_sweep_coherent(
    config: FockConfig,
    alphas,
    t_final: float,
    phi0: np.ndarray,
    g_displacement: np.ndarray,
    dt: float = 1e-3,
    n_samples: int = 26,
):
    """Coherent-initial-data accuracy sweep against the effective product flow.

    phi0 is an l2-normalized ring orbital, g the displacement profile of the
    initial coherent state (label -alpha g). The effective trajectories are
    ``lp_dynamics.evolve_stack`` on the same ring, which needs one mode per ring index:
    every alpha's LP state marches in one stack, each row bit for bit its own ``evolve``.
    They are sampled at the n_samples times linspace(0, t_final, n_samples); ValueError
    unless their spacing is a whole number of dt steps, so each LP sample sits at its
    exact-flow time. The comparison state is ``_lp_product_state``, and each error is one
    vector's ``np.linalg.norm``, which rounds unlike the stationary sweep's ``axis=1``; the
    exact side is the sector ``Propagator``, and no product-space operator is assembled.
    ValueError and SizingError (``_sweep_setup``), and SizingError for an initial coherent
    state beyond the truncation guard, before any propagation.
    """
    from . import lp_dynamics as lp

    basis, times = _sweep_setup(config, alphas, t_final, n_samples)
    _require_distinct_ring_modes(basis)
    spacing = t_final / (n_samples - 1)
    lp._step_count(0.0, spacing, dt)
    grid = basis.grid
    phi_field = WaveField(grid, phi0 / np.sqrt(grid.dx))
    starts, coherent = [], []
    for alpha in alphas:
        label0 = -alpha * np.asarray(g_displacement)
        cfg = lp.LPConfig(grid, basis.form, alpha=alpha)
        starts.append(lp.initial_state(cfg, phi_field, z0=basis.to_lattice(label0)))
        coherent.append(coherent_state(basis, label0))
    trajectories = lp.evolve_stack(starts, t_final, dt, spacing)
    errors = []
    leak_max = max(leak for _, leak in coherent)
    for alpha, (eta0, _), trajectory in zip(alphas, coherent, trajectories):
        u0 = np.kron(phi0, eta0)
        u0 = u0 / np.linalg.norm(u0)
        psi = Propagator(basis, alpha).apply(u0, times[1:])  # psi_0 = u0: err(0) is 0
        errors.append([])
        for psi_t, t, current in zip(psi, times[1:], trajectory[1:], strict=True):
            u_t, leak = _lp_product_state(basis, eta0, current, t)
            leak_max = max(leak_max, leak)
            errors[-1].append(float(np.linalg.norm(psi_t - u_t) ** 2))
    return {**_sweep_report(alphas, times, errors), "leakage_max": float(leak_max)}


# --- operator-inequality suite ------------------------------------------------


def aliased_cv_constant(basis: FockBasis) -> float:
    """sup over ring momenta q of sum_j w v_j^2 / (1 + alias(q - k_j)^2)."""
    n = basis.config.n_sites
    bz = 2.0 * np.pi * n / basis.config.box_length
    best = 0.0
    for q in basis.grid.k_axis:
        total = 0.0
        for k, v in zip(basis.k_modes, basis.v):
            d = q - k
            d = (d + bz / 2) % bz - bz / 2
            total += basis.grid.mode_weight * v**2 / (1.0 + d**2)
        best = max(best, total)
    return best


def _column_norms(y: np.ndarray) -> np.ndarray:
    """l2 norm of each column of a complex block, each one the bits of ``np.linalg.norm``
    of that column alone: the same real and imaginary ``dot`` products, summed and rooted."""
    rows = y.T
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def _worst_ratio(lhs: np.ndarray, rhs: np.ndarray):
    """Largest lhs / rhs over the columns, a column with rhs = 0 counting as 0."""
    return np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0).max()


def _annihilator_bounds(ops: FockOperatorSet, sqrt_cv, rng, n_random: int) -> tuple:
    """(hold, worst1, worst2) of ||a(G) x|| <= sqrt(C_v) ||(1+p^2)^{1/2} N^{1/2} x|| and
    ||(N+1)^{-1/2} a(G) x|| <= sqrt(C_v) ||(1+p^2)^{1/2} x|| on ``n_random`` Gaussian x.

    The vectors are drawn ``_BOUND_BLOCK`` at a time as (real, imaginary) pairs, the same
    stream as one ``x = re + 1j im`` per draw, and every operator is applied to a block at
    once; scipy's CSR multi-vector product sums each column in the single-vector order, so
    every number equals the per-vector loop's, and ``rng`` ends where that loop leaves it.
    """
    basis = ops.basis
    p_half_full = _kron(basis.electron_momentum_weight(), ops.eye_occ)
    n_half = _kron(ops.eye_e, sp.diags(np.sqrt(basis.occ_totals.astype(float))))
    n_inv_half = _kron(
        ops.eye_e, sp.diags(1.0 / np.sqrt(basis.occ_totals.astype(float) + 1.0))
    )
    hold = True
    worst1 = worst2 = 0.0
    for start in range(0, n_random, _BOUND_BLOCK):
        z = rng.standard_normal((min(_BOUND_BLOCK, n_random - start), 2, basis.dim_total))
        x = np.ascontiguousarray((z[:, 0] + 1j * z[:, 1]).T)  # one vector per column
        ax = ops.annihilate_g @ x
        lhs1 = _column_norms(ax)
        rhs1 = sqrt_cv * _column_norms(p_half_full @ (n_half @ x))
        lhs2 = _column_norms(n_inv_half @ ax)
        rhs2 = sqrt_cv * _column_norms(p_half_full @ x)
        hold &= bool(np.all(lhs1 <= rhs1 * (1 + 1e-12)) and np.all(lhs2 <= rhs2 * (1 + 1e-12)))
        worst1 = max(worst1, _worst_ratio(lhs1, rhs1))
        worst2 = max(worst2, _worst_ratio(lhs2, rhs2))
    return hold, worst1, worst2


def inequality_suite(config: FockConfig, alphas, *, rng, n_random: int = 1000):
    """Numerical checks of the operator bounds underpinning the error analysis.

    Returns a report dict; its ``failures`` names the gates that fail. Parts (c) and (d)
    draw nothing from ``rng`` and run first, so a sector above ``_SECTOR_LIMIT`` is refused
    before any random vector is drawn; (a) and (b) run at ``alphas[0]``. The
    creation/annihilation bound uses sqrt(C_v): the Cauchy-Schwarz proof produces the
    square root of the Lorentzian sup (the unsquared constant fails simple scaling).
    Its ``n_random`` vectors are drawn in blocks from the same stream, and every number
    equals that of a loop over one vector at a time (``_annihilator_bounds``). The alpha-free
    Pekar minimization of (d) runs once (``_pekar_orbital``). ``alphas`` that are empty,
    repeated or not all positive, and an ``n_random`` below 1, raise ``ValueError`` before
    any work.
    """
    if not _distinct_positive(alphas):
        raise ValueError(f"the inequality suite needs distinct alphas > 0, got {list(alphas)}")
    if n_random < 1:
        raise ValueError(f"n_random must be at least 1, got {n_random}")
    basis = FockBasis(config)
    report = {}

    # (c) two-sided kinetic/number bound, by sector: (1+eps)(K + alpha^-2 N) + c_eps - H
    # = eps K + eps alpha^-2 N + c_eps - alpha^-1 phi(G)
    a5 = {}
    for alpha in alphas:
        for eps in (0.25, 0.5):
            c_eps = eps * alpha**-2 + (1.0 / eps) * mode_norm_sq(basis.grid, basis.v)
            a5[alpha, eps] = _lowest_by_sector(basis, eps, eps * alpha**-2, c_eps, -alpha**-1)[0]
    report["two_sided_bound_min_eigs"] = a5

    # (d) resolvent norms ||(1+p^2)^{1/2} R^{1/2} Q0||
    orbital = _pekar_orbital(basis)
    report["resolvent_norms"] = {
        float(alpha): _weighted_resolvent_norm(basis, alpha, _pekar_at(basis, orbital, alpha))
        for alpha in alphas
    }
    diffs = np.abs(np.diff([norm for _, norm in sorted(report["resolvent_norms"].items())]))
    report["resolvent_spread_nonincreasing"] = bool(
        all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    )

    # (a) creation/annihilation bounds against sqrt(C_v)
    ops = assemble(basis, alphas[0])
    c_v = aliased_cv_constant(basis)
    hold, worst1, worst2 = _annihilator_bounds(ops, np.sqrt(c_v), rng, n_random)
    report["annihilator_bounds_hold"] = hold
    report["annihilator_bound_ratios"] = (worst1, worst2)
    report["c_v"] = c_v

    # (b) Weyl conjugation identities on band-limited vectors, small test f
    f_test = _small_test_displacement(basis, rng)
    report["conjugation_residuals"] = _conjugation_residuals(ops, f_test, rng)

    gates = {"annihilator_bounds": report["annihilator_bounds_hold"]}
    gates.update(
        {f"conjugation:{k}<1e-8": v < 1e-8 for k, v in report["conjugation_residuals"].items()}
    )
    gates.update({f"two_sided_bound:{k}": v >= -1e-10 for k, v in a5.items()})
    gates["resolvent_spread_nonincreasing"] = report["resolvent_spread_nonincreasing"]
    report["failures"] = [name for name, ok in gates.items() if not ok]
    return report


def _symmetric_draw(basis: FockBasis, rng) -> np.ndarray:
    """Gaussian mode profile with f(-k) = conj(f(k)), so the potential it induces is real."""
    f = rng.standard_normal(len(basis.k_modes)) + 1j * rng.standard_normal(len(basis.k_modes))
    for i, j in enumerate(basis.conjugate_mode_index):
        if j > i:
            f[j] = np.conj(f[i])
        elif j == i:
            f[i] = f[i].real
    return f


def _coherent_initial_data(basis: FockBasis, rng) -> tuple:
    """(phi0, g) of the coherent sweep: a centred Gaussian ring orbital of width L/8
    (l2-normalized) and a random symmetric displacement with ||g||^2 = 4e-3."""
    x = basis.x - basis.config.box_length / 2
    phi0 = np.exp(-(x**2) / (2 * (basis.config.box_length / 8) ** 2)).astype(complex)
    phi0 /= np.linalg.norm(phi0)
    g = _symmetric_draw(basis, rng)
    g *= np.sqrt(4e-3 / mode_norm_sq(basis.grid, g))
    return phi0, g


def _small_test_displacement(basis: FockBasis, rng):
    """A ``_symmetric_draw`` scaled to norm 5e-4."""
    f = _symmetric_draw(basis, rng)
    return 5e-4 * f / np.sqrt(mode_norm_sq(basis.grid, f))


def _band_limited_vector(basis: FockBasis, rng, band: int):
    vec = rng.standard_normal(basis.dim_total) + 1j * rng.standard_normal(basis.dim_total)
    mask = np.kron(
        np.ones(basis.config.n_sites), (basis.occ_totals <= band).astype(float)
    )
    vec = vec * mask
    return vec / np.linalg.norm(vec)


def _conjugation_residuals(ops: FockOperatorSet, f_values, rng):
    """Worst residuals of the three displacement identities on six band-limited vectors each.

    W(alpha f) and its adjoint W(-alpha f) on the product space are each set up once
    (``_weyl_exponential``) for the 36 applies, every apply bit for bit its own
    ``expm_multiply`` call, one vector at a time.
    """
    basis = ops.basis
    alpha = ops.alpha
    band = max(0, basis.config.n_max - 2)
    fsq = mode_norm_sq(basis.grid, f_values)
    gen_full = _kron(ops.eye_e, basis._weyl_generator(alpha * np.asarray(f_values))).tocsc()
    weyl, weyl_dagger = _weyl_exponential(gen_full), _weyl_exponential(-gen_full)

    def conj_apply(op, x):
        return weyl(op @ weyl_dagger(x))  # W(alpha f)^dagger = W(-alpha f)

    phi_f = ops.field_of(f_values)
    v_diag = ops.potential_diag(basis.potential(f_values))
    ident = sp.identity(basis.dim_total, format="csr")
    checks = {
        "number": (
            alpha**-2 * ops.number,
            alpha**-2 * ops.number - alpha**-1 * phi_f + fsq * ident,
        ),
        "field_f": (alpha**-1 * phi_f, alpha**-1 * phi_f - 2 * fsq * ident),
        "field_g": (
            alpha**-1 * ops.field_g,
            alpha**-1 * ops.field_g + v_diag,
        ),
    }
    out = {}
    for name, (lhs_op, rhs_op) in checks.items():
        worst = 0.0
        for _ in range(6):
            x = _band_limited_vector(basis, rng, band)
            worst = max(worst, float(np.linalg.norm(conj_apply(lhs_op, x) - rhs_op @ x)))
        out[name] = worst
    return out


def _orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of u^perp (Householder mapping e0 -> u)."""
    n = len(u)
    u = u / np.linalg.norm(u)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    phase = u[0] / abs(u[0]) if abs(u[0]) > 1e-14 else 1.0
    v = u + phase * e0
    v /= np.linalg.norm(v)
    h = np.eye(n, dtype=complex) - 2.0 * np.outer(v, v.conj())
    # h maps e0 to -phase*u; its remaining columns span u^perp
    return h[:, 1:]


def _weighted_resolvent_norm(basis: FockBasis, alpha: float, pek: DiscretePekar) -> float:
    """||(1+p^2)^{1/2} R^{1/2} Q0|| with R the reduced resolvent of H~ - E.

    Exact tensor factorisation: H~ = h_e x 1 + 1 x alpha^-2 N + ||f||^2
    (h_e = -Lap + V_f), Q0 = q_e x q_p with q_p the non-vacuum occupation
    coordinates, weight w x 1. As q_e* q_e = 1 whether or not phi is an exact
    eigenvector, Q0* H~ Q0 = U diag(eps) U* x 1 + 1 x diag(alpha^-2 n), so
    R is diagonal in U x 1 and the norm is max over shells n >= 1 of
    sqrt(lambda_max(D_n G D_n)), G = (w q_e U)* (w q_e U), D_n =
    diag(max(eps + alpha^-2 n + ||f||^2 - E, 1e-14)^-1/2): one (sites-1)-sized
    problem per shell, never a product-space matrix.
    """
    q_e = _orthonormal_complement(pek.phi)
    eps, u = eigh(q_e.conj().T @ basis.mean_field(pek.f) @ q_e)
    b = basis.electron_momentum_weight() @ q_e @ u
    gram = b.conj().T @ b
    shells = np.unique(basis.occ_totals[1:])[:, None]
    gaps = eps + alpha**-2 * shells + mode_norm_sq(basis.grid, pek.f) - pek.energy
    d = 1.0 / np.sqrt(np.maximum(gaps, 1e-14))  # one row per shell: the diagonal of D_n
    return float(np.sqrt(np.linalg.eigvalsh(d[:, :, None] * gram * d[:, None, :])[:, -1].max()))
