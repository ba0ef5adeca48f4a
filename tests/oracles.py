"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's FFT/lattice machinery:
direct DFT sums, radial finite-difference self-consistent field, brute-force
pair sums. Slow but trustworthy.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from polaron_lab.fock_sim import _orthonormal_complement
from polaron_lab.radial_oracle import radial_ground_state as _radial_ground_state
from polaron_lab.radial_oracle import (  # noqa: F401  (re-exported for direct validation)
    radial_newton_potential,
    radial_truncated_potential,
)


def dft_direct(values, grid):
    """O(N^2) direct evaluation of the continuum-normalized forward transform."""
    pts = np.stack(
        np.meshgrid(*([grid.x_axis] * grid.dim), indexing="ij"), axis=-1
    ).reshape(-1, grid.dim)
    ks = np.stack(
        np.meshgrid(*([grid.k_axis] * grid.dim), indexing="ij"), axis=-1
    ).reshape(-1, grid.dim)
    phases = np.exp(-1j * ks @ pts.T)
    out = phases @ values.ravel() * grid.cell_volume
    return out.reshape(grid.shape)


def dense_mean_field_spectrum(grid, v, g):
    """Ascending eigenvalues of -Lap + 2 g V on the grid, V a frozen real potential array.

    The spectral -Lap is assembled from explicit one-axis DFT sums, one Kronecker
    factor per axis, and the dense matrix goes to eigvalsh. Cubic in the grid size;
    only for small grids.
    """
    n = grid.points_per_axis
    phases = np.exp(-1j * np.outer(grid.k_axis, grid.x_axis))
    lap_1d = (phases.conj().T @ (grid.k_axis[:, None] ** 2 * phases)).real / n
    eye = np.eye(n)
    lap = np.zeros((grid.size, grid.size))
    for axis in range(grid.dim):
        factors = [eye] * grid.dim
        factors[axis] = lap_1d
        term = factors[0]
        for factor in factors[1:]:
            term = np.kron(term, factor)
        lap += term
    return np.linalg.eigvalsh(lap + np.diag(2.0 * g * np.ravel(v)))


def _cell_averaged_inverse_r(n, dx, sub=4):
    """Table of cell-averaged 1/|r| over all (2n-1)^3 integer offsets."""
    offs = dx * np.arange(-(n - 1), n)
    # subcell quadrature nodes (midpoint rule inside each cell)
    u = dx * ((np.arange(sub) + 0.5) / sub - 0.5)
    table = np.zeros((2 * n - 1,) * 3)
    ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
    for ux in u:
        for uy in u:
            for uz in u:
                table += 1.0 / np.sqrt(
                    (ox + ux) ** 2 + (oy + uy) ** 2 + (oz + uz) ** 2
                )
    return table / sub**3


def brute_force_coulomb_free(rho, grid, refine=1):
    """Free-space V = -sum_y rho(y) <1/|x-y|>_cell dx^3: padded direct convolution.

    The kernel is tabulated by real-space subcell averaging (no spectral
    machinery involved), and the convolution is zero-padded, so there are no
    periodic images. ``refine`` > 1 evaluates the sum on a finer grid (pass a
    callable rho(x, y, z) in that case) and restricts back.
    """
    from scipy.signal import fftconvolve

    n = grid.points_per_axis * refine
    dx = grid.dx / refine
    if callable(rho):
        idx = np.arange(n)
        idx = np.where(idx < n // 2, idx, idx - n)
        ax = dx * idx
        mesh = np.meshgrid(ax, ax, ax, indexing="ij")
        rho_arr = rho(*mesh)
    else:
        rho_arr = rho
    kernel = _cell_averaged_inverse_r(n, dx)
    rho_c = np.roll(rho_arr, (n // 2,) * 3, axis=(0, 1, 2))
    v = -fftconvolve(rho_c, kernel, mode="same") * dx**3
    v = np.roll(v, (-(n // 2),) * 3, axis=(0, 1, 2))
    return v[::refine, ::refine, ::refine]


def radial_ground_state(g, r_cut=None, **kwargs):
    """Radial reference solver (package implementation, validated below)."""
    return _radial_ground_state(g, r_cut=r_cut, **kwargs)


def displaced_oscillator_ground_energy(omega, coupling):
    """Ground energy of omega*n + coupling*(a + a^dagger): -coupling^2/omega."""
    return -(coupling**2) / omega


def ring_density_transform(basis, psi_e):
    """rhohat(k_j) = sum_x e^{-i k_j x} |psi_x|^2 of an l2-normalized ring orbital, summed."""
    rho = np.abs(psi_e) ** 2
    return np.array([np.sum(np.exp(-1j * k * basis.x) * rho) for k in basis.k_modes])


def ring_mode_potential(basis, f_values):
    """V(x) = -2 Re sum_j w v_j f_j e^{i k_j x}, summed directly over the modes."""
    v = np.zeros(basis.config.n_sites, dtype=complex)
    for k, vj, fj in zip(basis.k_modes, basis.v, f_values):
        v = v + basis.grid.mode_weight * vj * fj * np.exp(1j * k * basis.x)
    return -2.0 * v.real


def h_tilde(ops, f_values):
    """-Lap + V + alpha^-2 N + ||f||^2, the Weyl-rotated effective generator, assembled."""
    basis = ops.basis
    fsq = basis.grid.mode_weight * np.sum(np.abs(f_values) ** 2)
    return (
        ops.kinetic
        + ops.potential_diag(ring_mode_potential(basis, f_values))
        + ops.alpha**-2 * ops.number
        + fsq * sp.identity(basis.dim_total, format="csr")
    ).tocsr()


def h_effective(ops, f_values):
    """(-Lap + V) x 1 + 1 x (alpha^-2 N + alpha^-1 phi(f)) + 2||f||^2, assembled."""
    fsq = ops.basis.grid.mode_weight * np.sum(np.abs(f_values) ** 2)
    return (
        h_tilde(ops, f_values)
        + ops.alpha**-1 * ops.field_of(f_values)
        + fsq * sp.identity(ops.basis.dim_total, format="csr")
    ).tocsr()


def dense_weighted_resolvent_norm(ops, pek):
    """||(1+p^2)^{1/2} R^{1/2} Q0|| by dense product-space algebra.

    Builds h_tilde, Q0 = q_e x q_p and the weight on the full product space,
    takes R^{1/2} from an eigendecomposition of Q0* h_tilde Q0 (eigenvalues
    minus E floored at 1e-14) and returns the spectral norm. Cubic in the
    Fock dimension; only for checking the factorised evaluation.
    """
    basis = ops.basis
    h_t = h_tilde(ops, pek.f).toarray()
    q_e = _orthonormal_complement(pek.phi)
    q_p = _orthonormal_complement(basis.vacuum_occ())
    q = np.kron(q_e, q_p)
    vals, vecs = eigh(q.conj().T @ h_t @ q)
    inv_sqrt = (vecs / np.sqrt(np.maximum(vals - pek.energy, 1e-14))) @ vecs.conj().T
    w_full = np.kron(basis.electron_momentum_weight(0.5), np.eye(basis.n_occ))
    return float(np.linalg.norm(w_full @ q @ inv_sqrt, ord=2))
