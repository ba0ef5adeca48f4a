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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, expm_multiply

from .errors import ConvergenceError, SizingError
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _density_displacement,
    _label_potential,
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
    "propagate",
    "discrete_pekar",
    "projector_identities",
    "make_defect_evaluator",
    "error_sweep_stationary",
    "error_sweep_coherent",
    "inequality_suite",
    "fit_loglog",
]


@dataclass(frozen=True)
class FockConfig:
    n_sites: int
    box_length: float
    mode_numbers: tuple  # integer momenta m -> k = 2 pi m / L
    v0: float
    n_max: int
    alpha: float
    budget: int = 2_000_000

    def __post_init__(self):
        object.__setattr__(self, "mode_numbers", tuple(int(m) for m in self.mode_numbers))
        ms = set(self.mode_numbers)
        if len(ms) != len(self.mode_numbers):
            raise ValueError("duplicate phonon modes")
        for m in ms:
            if (-m) % self.n_sites not in {mm % self.n_sites for mm in ms}:
                raise ValueError("phonon mode set must be closed under k -> -k")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def with_alpha(self, alpha: float) -> "FockConfig":
        return FockConfig(
            self.n_sites, self.box_length, self.mode_numbers, self.v0, self.n_max, alpha, self.budget
        )


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
        if self.dim_total > config.budget:
            raise SizingError(
                f"basis dimension {self.dim_total} exceeds budget {config.budget}"
            )
        self.occ = _occupations(len(self.k_modes), config.n_max)
        self.occ_totals = self.occ.sum(axis=1)

    @cached_property
    def occupations(self):
        """Occupation tuples in basis order (the rows of ``occ``)."""
        return [tuple(row) for row in self.occ.tolist()]

    # --- occupation-space operators -------------------------------------
    @cached_property
    def lowering(self):
        """Sparse a_j on the occupation factor, <n - e_j| a_j |n> = sqrt(n_j)."""
        out = []
        for j in range(len(self.k_modes)):
            cols = np.flatnonzero(self.occ[:, j])
            target = self.occ[cols]
            target[:, j] -= 1
            rows = _occupation_rank(target, self.config.n_max)
            vals = np.sqrt(self.occ[cols, j])
            out.append(
                sp.csr_matrix(
                    (vals, (rows, cols)), shape=(self.n_occ, self.n_occ), dtype=complex
                )
            )
        return out

    @cached_property
    def number_occ(self):
        return sp.diags(self.occ_totals.astype(float)).tocsr()

    def annihilator_occ(self, f_values: np.ndarray):
        """a(f) = sum_j sqrt(w) conj(f_j) a_j on the occupation factor."""
        out = sp.csr_matrix((self.n_occ, self.n_occ), dtype=complex)
        for fj, aj in zip(np.asarray(f_values), self.lowering):
            if fj != 0:
                out = out + np.sqrt(self.grid.mode_weight) * np.conj(fj) * aj
        return out

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

    def electron_momentum_weight(self, power: float = 0.5) -> np.ndarray:
        """Dense (1 + p^2)^power on the ring (spectral)."""
        return self._spectral_matrix((1.0 + self.grid.k_sq) ** power)

    @cached_property
    def conjugate_mode_index(self):
        """Index j' of the mode -m_j, or failing that of a mode at ring index -m_j mod sites."""
        numbers = list(self.config.mode_numbers)
        index = self.mode_index.tolist()
        return [
            numbers.index(-m) if -m in numbers else index.index(-m % self.config.n_sites)
            for m in numbers
        ]

    def mode_phases(self):
        """Diagonal electron matrices e^{+i k_j x}."""
        return [np.exp(1j * k * self.x) for k in self.k_modes]

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
        return _label_potential(self.to_lattice(f_values), self.form, -1.0)


def _kron(a, b):
    return sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="csr")


class FockOperatorSet:
    """Assembled sparse operators on the full product space."""

    def __init__(self, basis: FockBasis):
        self.basis = basis
        self.alpha = basis.config.alpha
        n = basis.config.n_sites
        self.eye_e = sp.identity(n, dtype=complex, format="csr")
        self.eye_occ = sp.identity(basis.n_occ, dtype=complex, format="csr")

        self.kinetic = _kron(basis.kinetic_electron, self.eye_occ)
        self.number = _kron(self.eye_e, basis.number_occ)

        a_total = sp.csr_matrix((basis.dim_total, basis.dim_total), dtype=complex)
        sqw = np.sqrt(basis.grid.mode_weight)
        for phase, vj, aj in zip(basis.mode_phases(), basis.v, basis.lowering):
            if vj != 0:
                a_total = a_total + sqw * vj * _kron(np.diag(phase), aj)
        self.annihilate_g = a_total
        self.field_g = a_total + a_total.conj().T

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


def assemble(config: FockConfig) -> FockOperatorSet:
    return FockOperatorSet(FockBasis(config))


# --- Weyl operators -------------------------------------------------------


def weyl_apply(basis: FockBasis, displacement: np.ndarray, occ_vec: np.ndarray, guard: bool = True):
    """Apply W(g) = exp(a*(g) - a(g)) on the occupation factor.

    ``displacement`` is in the continuum convention (the coherent label it
    creates on the vacuum). Unitary by construction; returns (vector, leakage)
    where leakage is the probability weight on the saturated shell.
    """
    disp_sq = mode_norm_sq(basis.grid, displacement)
    if guard and disp_sq > basis.config.n_max / 4.0:
        raise SizingError(
            f"mean phonon number {disp_sq:.3g} exceeds the truncation guard "
            f"n_max/4 = {basis.config.n_max / 4:.3g}"
        )
    a = basis.annihilator_occ(displacement)
    generator = (a.conj().T - a).tocsc()
    out = expm_multiply(generator, np.asarray(occ_vec, dtype=complex))
    mask = basis.occ_totals == basis.config.n_max
    leakage = float(np.sum(np.abs(out[mask]) ** 2))
    return out, leakage


def coherent_state(basis: FockBasis, label: np.ndarray, guard: bool = True):
    """Normalized coherent state with <a(k_j)> = label_j (i.e. W(label) vac)."""
    return weyl_apply(basis, label, basis.vacuum_occ(), guard=guard)


# --- eigensolving and propagation ------------------------------------------


def ground_state(ops: FockOperatorSet, tol: float = 1e-10, rng=None):
    """Lowest eigenpair ``(e0, psi)`` of the assembled Hamiltonian (residual-checked).

    ``psi`` is the complex coefficient vector on the product basis.
    """
    h = ops.hamiltonian
    if rng is None:
        rng = np.random.default_rng(7)
    if ops.basis.dim_total <= 2000:
        dense = h.toarray()
        vals, vecs = eigh(dense)
        e0, psi = float(vals[0]), vecs[:, 0]
    else:
        v0 = rng.standard_normal(ops.basis.dim_total)
        vals, vecs = eigsh(h, k=1, which="SA", v0=v0, tol=tol)
        e0, psi = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(h @ psi - e0 * psi))
    if residual > 1e-8:
        raise ConvergenceError("ground-state residual above 1e-8", residual=residual)
    return e0, psi.astype(complex)


class Propagator:
    """e^{-iHt} by the truncated-Taylor action of ``expm_multiply`` on a cached sparse -iH.

    No eigendecomposition is formed: ``apply`` costs only sparse matrix-vector
    products, with the Taylor degree and step count chosen from 1-norm
    estimates of -iHt (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).
    """

    def __init__(self, h):
        self._generator = -1j * sp.csr_matrix(h)

    def apply(self, psi: np.ndarray, t) -> np.ndarray:
        """e^{-iHt} psi for a scalar ``t``.

        For a uniform 1-d grid of times the result stacks one state per sample
        (shape ``(len(t), dim)``), computed in one call that steps from sample
        to sample.
        """
        psi = np.asarray(psi, dtype=complex)
        times = np.asarray(t, dtype=float)
        if times.ndim == 0:
            return expm_multiply(float(times) * self._generator, psi)
        if times.ndim != 1 or len(times) < 2 or not np.allclose(
            times, np.linspace(times[0], times[-1], len(times)), rtol=1e-12, atol=1e-12
        ):
            raise ValueError("time grid must be a uniform 1-d array of at least two samples")
        return expm_multiply(
            self._generator, psi, start=times[0], stop=times[-1], num=len(times), endpoint=True
        )


def propagate(ops_or_h, psi: np.ndarray, t: float) -> np.ndarray:
    """One-shot exp(-iHt) psi with norm/energy preservation checks."""
    h = ops_or_h.hamiltonian if isinstance(ops_or_h, FockOperatorSet) else ops_or_h
    out = Propagator(h).apply(psi, t)
    n0, n1 = np.linalg.norm(psi), np.linalg.norm(out)
    if abs(n1 - n0) > 1e-10 * max(1.0, n0):
        raise ConvergenceError("propagation lost norm", residual=abs(n1 - n0))
    e0 = np.real(np.vdot(psi, h @ psi))
    e1 = np.real(np.vdot(out, h @ out))
    if abs(e1 - e0) > 1e-9 * max(1.0, abs(e0)):
        raise ConvergenceError("propagation lost energy", residual=abs(e1 - e0))
    return out


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


def discrete_pekar(ops: FockOperatorSet, tol: float = 1e-12, max_iter: int = 500):
    """Alternating minimization over product states phi x coherent(z).

    phi solves the electron problem for -Lap + V_z, z = -alpha f(phi) is the
    phonon fixed point. Verifies both stationarity relations; the coherent
    one holds up to truncation leakage.
    """
    basis = ops.basis
    alpha = ops.alpha
    n = basis.config.n_sites
    f = basis.displacement(np.ones(n) / np.sqrt(n))
    energy = np.inf
    for _ in range(max_iter):
        vals, vecs = eigh(basis.kinetic_electron + np.diag(basis.potential(f)))
        psi, lam, f_prev, e_prev = vecs[:, 0], float(vals[0]), f, energy
        f = basis.displacement(psi)
        energy = lam + mode_norm_sq(basis.grid, f)
        if abs(energy - e_prev) < tol and np.linalg.norm(f - f_prev) < np.sqrt(tol):
            break
    else:
        raise ConvergenceError(
            f"discrete Pekar not converged in {max_iter} iterations", residual=abs(energy - e_prev)
        )
    fsq = mode_norm_sq(basis.grid, f)
    mu = -fsq
    eta, leakage = coherent_state(basis, -alpha * f)
    # stationarity checks
    h_e = basis.kinetic_electron + np.diag(basis.potential(f))
    e_res = float(np.linalg.norm(h_e @ psi - lam * psi))
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


def perp_defect(basis, phi, eta, h, vec=None):
    """||P(u)^perp H u|| for the product state u = phi x eta."""
    u = np.kron(phi, eta)
    hu = h @ u
    return float(np.linalg.norm(hu - tangent_projector_apply(basis, phi, eta, hu)))


def projector_identities(ops: FockOperatorSet, pekar: DiscretePekar, rng, n_vectors: int = 20):
    """Algebraic projector checks + the rotated-frame defect identity.

    Returns a dict of worst-case residuals; all are expected at the 1e-12
    level on the truncated space.
    """
    basis = ops.basis
    phi, eta = pekar.phi, pekar.eta
    idem = three_vs_two = complement = 0.0
    for _ in range(n_vectors):
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


def _sweep_summary(alphas, rows, sups) -> dict:
    """Log-log fit of the per-alpha sup errors and the bound form err <= C t / alpha^2.

    C (``c_hat``) is fitted at the first alpha; ``bound_margin`` is the least slack of the
    bound over the other alphas' samples. Both are 0 where there is nothing to fit: no
    sample after t = 0, or a single alpha.
    """
    slope, intercept, r2 = fit_loglog(alphas, sups)
    a0 = alphas[0]
    c_hat = max((err * a0**2 / t for (t, a, err) in rows if a == a0 and t > 0), default=0.0)
    others = [(t, a, err) for (t, a, err) in rows if a != a0 and t > 0]
    margin = min(c_hat * t / a**2 - err for (t, a, err) in others) if others else 0.0
    return {
        "alphas": [float(a) for a in alphas],
        "sup_errors": sups,
        "slope": slope,
        "intercept": intercept,
        "r_squared": r2,
        "c_hat": float(c_hat),
        "bound_margin": float(margin),
    }


def error_sweep_stationary(config: FockConfig, alphas, t_final: float, n_samples: int = 26):
    """Stability of the stationary product state: err(t) = ||psi_t - e^{-iEt} u0||^2.

    Returns a dict with the (t, alpha, err) table, per-alpha sup, the log-log
    fit, and the bound-form constant fitted at the smallest alpha.
    """
    times = np.linspace(0.0, t_final, n_samples)
    rows = []
    sups = []
    leakages = []
    residuals = []
    for alpha in alphas:
        ops = assemble(config.with_alpha(alpha))
        pek = discrete_pekar(ops)
        leakages.append(pek.leakage)
        residuals.append(max(pek.electron_residual, pek.phonon_residual))
        u0 = np.kron(pek.phi, pek.eta)
        u0 = u0 / np.linalg.norm(u0)
        psi = Propagator(ops.hamiltonian).apply(u0, times)
        overlaps = (psi @ u0.conj()) * np.exp(1j * pek.energy * times)
        errs = 2.0 * (1.0 - overlaps.real)
        rows.extend((float(t), float(alpha), float(err)) for t, err in zip(times, errs))
        sups.append(float(max(np.max(errs), 0.0)))
    return {
        "rows": rows,
        **_sweep_summary(alphas, rows, sups),
        "leakage_max": float(max(leakages)),
        "residual_max": float(max(residuals)),
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
    initial coherent state (label -alpha g). The effective trajectory is
    ``lp_dynamics.evolve`` on the same ring, which needs one mode per ring index,
    sampled at the n_samples times linspace(0, t_final, n_samples); ValueError
    unless their spacing is a whole number of dt steps, so each LP sample sits at
    its exact-flow time. The comparison state is a(t) phi_t x eta_t with eta_t
    reconstructed from (J_t, F_t).
    """
    from . import lp_dynamics as lp

    basis = FockBasis(config)
    _require_distinct_ring_modes(basis)
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    spacing = t_final / (n_samples - 1)
    lp._step_count(0.0, spacing, dt)
    grid = basis.grid
    times = np.linspace(0.0, t_final, n_samples)
    rows = []
    sups = []
    leak_max = 0.0
    for alpha in alphas:
        ops = assemble(config.with_alpha(alpha))
        cfg = lp.LPConfig(grid, basis.form, alpha=alpha)
        phi_field = WaveField(grid, phi0 / np.sqrt(grid.dx))
        label0 = -alpha * np.asarray(g_displacement)
        state = lp.initial_state(cfg, phi_field, z0=basis.to_lattice(label0))
        eta0, leak = coherent_state(basis, label0)
        leak_max = max(leak_max, leak)
        u0 = np.kron(phi0, eta0)
        u0 = u0 / np.linalg.norm(u0)
        psi = Propagator(ops.hamiltonian).apply(u0, times)

        errs = [0.0]
        rows.append((0.0, float(alpha), 0.0))
        omega = cfg.frequency
        samples = lp.evolve(state, t_final, dt, spacing)[1:]
        for i, (t, current) in enumerate(zip(times[1:], samples, strict=True), start=1):
            # eta_t = e^{-iF} e^{-i omega N t} W(J_t) eta0
            j_t = basis.to_modes(current.rep.memory(cfg))
            eta_t, leak = weyl_apply(basis, j_t, eta0, guard=False)
            leak_max = max(leak_max, leak)
            eta_t = np.exp(-1j * omega * basis.occ_totals * t) * eta_t
            eta_t = np.exp(-1j * current.rep.f_acc) * eta_t
            psi_e = current.phi.values * np.sqrt(grid.dx)
            u_t = current.a_phase * np.kron(psi_e, eta_t)
            err = float(np.linalg.norm(psi[i] - u_t) ** 2)
            errs.append(err)
            rows.append((float(t), float(alpha), err))
        sups.append(max(errs))
    return {
        "rows": rows,
        **_sweep_summary(alphas, rows, sups),
        "leakage_max": float(leak_max),
    }


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


def inequality_suite(config: FockConfig, alphas=(1.0, 2.0, 4.0), rng=None, n_random: int = 1000):
    """Numerical checks of the operator bounds underpinning the error analysis.

    Returns a report dict; see the test suite for the asserted tolerances.
    The creation/annihilation bound uses sqrt(C_v): the Cauchy-Schwarz proof
    produces the square root of the Lorentzian sup (the unsquared constant
    fails simple scaling).
    """
    if rng is None:
        rng = np.random.default_rng(11)
    ops = assemble(config)
    basis = ops.basis
    report = {}

    # (a) creation/annihilation bounds against sqrt(C_v)
    c_v = aliased_cv_constant(basis)
    sqrt_cv = np.sqrt(c_v)
    p_half = basis.electron_momentum_weight(0.5)
    p_half_full = _kron(p_half, ops.eye_occ)
    n_half = _kron(ops.eye_e, sp.diags(np.sqrt(basis.occ_totals.astype(float))))
    n_inv_half = _kron(
        ops.eye_e, sp.diags(1.0 / np.sqrt(basis.occ_totals.astype(float) + 1.0))
    )
    worst1 = worst2 = 0.0
    ok1 = ok2 = True
    for _ in range(n_random):
        x = rng.standard_normal(basis.dim_total) + 1j * rng.standard_normal(basis.dim_total)
        lhs1 = np.linalg.norm(ops.annihilate_g @ x)
        rhs1 = sqrt_cv * np.linalg.norm(p_half_full @ (n_half @ x))
        lhs2 = np.linalg.norm(n_inv_half @ (ops.annihilate_g @ x))
        rhs2 = sqrt_cv * np.linalg.norm(p_half_full @ x)
        ok1 &= lhs1 <= rhs1 * (1 + 1e-12)
        ok2 &= lhs2 <= rhs2 * (1 + 1e-12)
        worst1 = max(worst1, lhs1 / rhs1 if rhs1 > 0 else 0.0)
        worst2 = max(worst2, lhs2 / rhs2 if rhs2 > 0 else 0.0)
    report["annihilator_bounds_hold"] = bool(ok1 and ok2)
    report["annihilator_bound_ratios"] = (worst1, worst2)
    report["c_v"] = c_v

    # (b) Weyl conjugation identities on band-limited vectors, small test f
    f_test = _small_test_displacement(basis, rng)
    report["conjugation_residuals"] = _conjugation_residuals(ops, f_test, rng)

    # (c) two-sided kinetic/number bound; (d) resolvent norms ||(1+p^2)^{1/2} R^{1/2} Q0||
    a5 = {}
    res_norms = []
    for alpha in alphas:
        ops_a = assemble(config.with_alpha(alpha))
        for eps in (0.25, 0.5):
            c_eps = eps * alpha**-2 + (1.0 / eps) * mode_norm_sq(basis.grid, basis.v)
            upper = (
                (1 + eps) * (ops_a.kinetic + alpha**-2 * ops_a.number)
                + c_eps * sp.identity(basis.dim_total, format="csr")
                - ops_a.hamiltonian
            )
            val = eigsh(
                upper.tocsc(),
                k=1,
                which="SA",
                v0=np.ones(basis.dim_total),
                tol=1e-12,
                return_eigenvectors=False,
            )
            a5[(alpha, eps)] = float(val[0])
        res_norms.append(_weighted_resolvent_norm(ops_a, discrete_pekar(ops_a)))
    report["two_sided_bound_min_eigs"] = a5
    report["resolvent_norms"] = dict(zip(map(float, alphas), res_norms))
    diffs = np.abs(np.diff(res_norms))
    report["resolvent_spread_nonincreasing"] = bool(
        all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    )
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


def _small_test_displacement(basis: FockBasis, rng, scale: float = 5e-4):
    f = _symmetric_draw(basis, rng)
    return scale * f / np.sqrt(mode_norm_sq(basis.grid, f))


def _band_limited_vector(basis: FockBasis, rng, band: int):
    vec = rng.standard_normal(basis.dim_total) + 1j * rng.standard_normal(basis.dim_total)
    mask = np.kron(
        np.ones(basis.config.n_sites), (basis.occ_totals <= band).astype(float)
    )
    vec = vec * mask
    return vec / np.linalg.norm(vec)


def _conjugation_residuals(ops: FockOperatorSet, f_values, rng, n_vectors: int = 6):
    """Residuals of the three displacement identities on band-limited vectors."""
    basis = ops.basis
    alpha = ops.alpha
    band = max(0, basis.config.n_max - 2)
    fsq = mode_norm_sq(basis.grid, f_values)
    a_occ = basis.annihilator_occ(alpha * np.asarray(f_values))
    gen = (a_occ.conj().T - a_occ).tocsc()
    gen_full = _kron(ops.eye_e, gen).tocsc()

    def conj_apply(op, x):
        y = expm_multiply(-gen_full, x)  # W(alpha f)^dagger = W(-alpha f)
        y = op @ y
        return expm_multiply(gen_full, y)

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
        for _ in range(n_vectors):
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


def _weighted_resolvent_norm(ops: FockOperatorSet, pek: DiscretePekar) -> float:
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
    basis = ops.basis
    q_e = _orthonormal_complement(pek.phi)
    h_e = basis.kinetic_electron + np.diag(basis.potential(pek.f))
    eps, u = eigh(q_e.conj().T @ h_e @ q_e)
    b = basis.electron_momentum_weight(0.5) @ q_e @ u
    gram = b.conj().T @ b
    shells = np.unique(basis.occ_totals[1:])[:, None]
    gaps = eps + ops.alpha**-2 * shells + mode_norm_sq(basis.grid, pek.f) - pek.energy
    d = 1.0 / np.sqrt(np.maximum(gaps, 1e-14))  # one row per shell: the diagonal of D_n
    return float(np.sqrt(np.linalg.eigvalsh(d[:, :, None] * gram * d[:, None, :])[:, -1].max()))
