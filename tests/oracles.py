"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's FFT/lattice machinery:
direct DFT sums, radial finite-difference self-consistent field, brute-force
pair sums. Slow but trustworthy.
"""

import cmath
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import expm_multiply

from polaron_lab import fock_sim
from polaron_lab import lp_dynamics as lp
from polaron_lab.fock_sim import (
    FockBasis,
    Propagator,
    _band_limited_vector,
    _kron,
    _orthonormal_complement,
    coherent_state,
    discrete_pekar,
    weyl_apply,
)
from polaron_lab.spectral_core import (
    WaveField,
    _fftn,
    _half_displacement,
    _half_inner,
    _half_potential_multiplier,
    _ifftn,
    _irfftn,
    mode_norm_sq,
)
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


def mode_lowering(basis):
    """Sparse a_j on the occupation factor, one per mode: the mode's own ``_lowering_entries``."""
    rows, cols, values, mode = basis._lowering_entries
    return [
        sp.csr_matrix(
            (values[mode == j], (rows[mode == j], cols[mode == j])),
            shape=(basis.n_occ, basis.n_occ),
        )
        for j in range(len(basis.k_modes))
    ]


def per_mode_annihilator_g(basis):
    """a(G) = sum_j sqrt(w) v_j e^{i k_j x} (x) a_j, summed one sparse kron product per mode."""
    a_total = sp.csr_matrix((basis.dim_total, basis.dim_total), dtype=complex)
    sqw = np.sqrt(basis.grid.mode_weight)
    for k, vj, aj in zip(basis.k_modes, basis.v, mode_lowering(basis)):
        if vj != 0:
            phase = sp.csr_matrix(np.diag(np.exp(1j * k * basis.x)))
            a_total = a_total + sqw * vj * sp.kron(phase, aj, format="csr")
    return a_total


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
    w_full = np.kron(basis.electron_momentum_weight(), np.eye(basis.n_occ))
    return float(np.linalg.norm(w_full @ q @ inv_sqrt, ord=2))


def lp_step_reference(state, dt):
    """One ``lp_dynamics.step`` of one state written as plain numpy expressions, each
    array a fresh temporary.

    The package's step writes its transients into a per-config workspace; this is the
    step before that change, kept as its bit-for-bit reference. Unlike the rest of this
    module it runs the package's grid transforms: what it pins is the step's arithmetic
    and the order of every product's operands. From 256 KiB a field on (32^3 and up)
    numpy's temporary elision computes ``drift * _fftn(...)`` below as
    ``_fftn(...) * drift``, the order the package's step writes out.
    """
    cfg, grid, t = state.cfg, state.cfg.grid, state.t
    lam, om = cfg.coupling, cfg.frequency
    quadrature = isinstance(state.rep, lp.QuadratureRep)

    def stepped(rep, t, h, f):
        if not quadrature:
            c, s = math.cos(om * h), math.sin(om * h)
            p_fixed = (-lam / om) * f
            dp = rep.p - p_fixed
            return lp.OscillatorRep(p_fixed + c * dp + s * rep.q, c * rep.q - s * dp)
        weighted = grid.half_weight * f
        ip = float(np.vdot(weighted, rep.p - rep.p0).real)
        iq = float(np.vdot(weighted, rep.q - rep.q0).real)
        fs = float(np.vdot(weighted, f).real)
        dc = math.cos(om * (t + h)) - math.cos(om * t)
        ds = math.sin(om * (t + h)) - math.sin(om * t)
        term1 = lam * (ip * ds - iq * dc) / om
        term2 = -(lam**2 / om) * fs * (h - math.sin(om * h) / om)
        shift = -lam / om
        return lp.QuadratureRep(
            rep.p + (shift * dc) * f, rep.q + (shift * ds) * f, rep.p0, rep.q0,
            rep.f_acc + term1 + term2,
        )

    def hermitian_label(rep, t):
        if not quadrature:
            return rep.p
        return math.cos(om * t) * rep.p + math.sin(om * t) * rep.q

    f_before = state.displacement()
    drift = np.exp(-1j * dt * grid.k_sq)
    rep_mid = stepped(state.rep, t, dt / 2.0, f_before)
    t_mid = t + dt / 2.0
    p_mid = hermitian_label(rep_mid, t_mid)
    multiplier = _half_potential_multiplier(cfg.form, lam)
    kick = np.exp(-0.5j * dt * _irfftn(multiplier * p_mid, grid.shape))
    new = _ifftn(drift * _fftn(kick * state.phi.values))
    new = kick * new
    f_after = _half_displacement(np.abs(new) ** 2, cfg.form)
    rep_new = stepped(rep_mid, t_mid, dt / 2.0, f_after)
    inner = _half_inner(grid, p_mid, f_before + f_after)
    a_phase = state.a_phase * cmath.exp(1j * dt * lam * inner)
    return lp.LPState(cfg, t + dt, WaveField(grid, new), rep_new, a_phase, _f=f_after)


def annihilator_bounds_reference(ops, sqrt_cv, rng, n_random):
    """(hold, worst1, worst2) of ``fock_sim._annihilator_bounds``, one random vector at a
    time: the suite's loop before it drew its vectors in blocks, kept as its bit-for-bit
    reference."""
    basis = ops.basis
    p_half = basis.electron_momentum_weight()
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
    return bool(ok1 and ok2), worst1, worst2


def weyl_generator_reference(basis, g):
    """a*(g) - a(g) on the occupation factor, built from ``annihilator_occ`` as
    ``weyl_apply`` built it before it filled in a cached pattern: the bit-for-bit reference
    of ``FockBasis._weyl_generator``."""
    a = basis.annihilator_occ(g)
    return (a.conj().T - a).tocsc()


def weyl_apply_reference(basis, g, occ_vec):
    """W(g) occ_vec through scipy's public ``expm_multiply``, set up afresh for the call:
    the bit-for-bit reference of ``weyl_apply``'s vector."""
    return expm_multiply(weyl_generator_reference(basis, g), np.asarray(occ_vec, dtype=complex))


def conjugation_residuals_reference(ops, f_values, rng):
    """``fock_sim._conjugation_residuals`` with one ``expm_multiply`` call per Weyl apply:
    the suite's code before it set up each exponential once, kept as its bit-for-bit
    reference."""
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
        for _ in range(6):
            x = _band_limited_vector(basis, rng, band)
            worst = max(worst, float(np.linalg.norm(conj_apply(lhs_op, x) - rhs_op @ x)))
        out[name] = worst
    return out


def discrete_pekar_reference(basis, alpha):
    """``fock_sim.discrete_pekar`` as one function of (basis, alpha), the alternating
    minimization run afresh for each alpha: its form before the sweeps ran the alpha-free
    part once per basis, kept as the bit-for-bit reference of every alpha's Pekar state."""
    n = basis.config.n_sites
    f = basis.displacement(np.ones(n) / np.sqrt(n))
    energy = np.inf
    for _ in range(fock_sim._PEKAR_MAX_ITER):
        vals, vecs = eigh(basis.mean_field(f))
        psi, lam, f_prev, e_prev = vecs[:, 0], float(vals[0]), f, energy
        f = basis.displacement(psi)
        energy = lam + mode_norm_sq(basis.grid, f)
        tol = fock_sim._PEKAR_TOL
        if abs(energy - e_prev) < tol and np.linalg.norm(f - f_prev) < np.sqrt(tol):
            break
    fsq = mode_norm_sq(basis.grid, f)
    mu = -fsq
    eta, leakage = coherent_state(basis, -alpha * f)
    e_res = float(np.linalg.norm(basis.mean_field(f) @ psi - lam * psi))
    h_ph = (alpha**-2) * basis.number_occ + (alpha**-1) * basis.field_occ(f)
    p_res = float(np.linalg.norm(h_ph @ eta - mu * eta))
    return fock_sim.DiscretePekar(
        psi.astype(complex), f, lam, mu, lam + fsq, eta, leakage, e_res, p_res
    )


def stationary_sweep_reference(config, alphas, t_final, n_samples):
    """(rows, sups, leakage_max) of ``error_sweep_stationary`` from its per-alpha loop before
    the sweeps shared a report: the bit-for-bit reference of its reduction, one
    ``np.linalg.norm(..., axis=1)`` over each alpha's samples."""
    basis = FockBasis(config)
    times = np.linspace(0.0, t_final, n_samples)[1:]
    rows, sups, leakages = [], [], []
    for alpha in alphas:
        pek = discrete_pekar(basis, alpha)
        leakages.append(pek.leakage)
        u0 = np.kron(pek.phi, pek.eta)
        u0 = u0 / np.linalg.norm(u0)
        psi = Propagator(basis, alpha).apply(u0, times)
        errs = np.linalg.norm(psi - np.exp(-1j * pek.energy * times)[:, None] * u0, axis=1) ** 2
        rows.append((0.0, float(alpha), 0.0))
        rows.extend((float(t), float(alpha), float(err)) for t, err in zip(times, errs))
        sups.append(float(np.max(errs, initial=0.0)))
    return rows, sups, float(max(leakages))


def coherent_sweep_reference(config, alphas, t_final, phi0, g, dt, n_samples):
    """(rows, sups, leakage_max) of ``error_sweep_coherent`` from its per-alpha loop before
    the sweeps shared a report, with the LP state lifted to the product space inline: the
    bit-for-bit reference of its reduction, one ``np.linalg.norm`` per sample vector."""
    basis = FockBasis(config)
    grid = basis.grid
    times = np.linspace(0.0, t_final, n_samples)
    phi_field = WaveField(grid, phi0 / np.sqrt(grid.dx))
    starts, coherent = [], []
    for alpha in alphas:
        label0 = -alpha * np.asarray(g)
        cfg = lp.LPConfig(grid, basis.form, alpha=alpha)
        starts.append(lp.initial_state(cfg, phi_field, z0=basis.to_lattice(label0)))
        coherent.append(coherent_state(basis, label0))
    trajectories = lp.evolve_stack(starts, t_final, dt, t_final / (n_samples - 1))
    rows, sups = [], []
    leak_max = max(leak for _, leak in coherent)
    for alpha, (eta0, _), trajectory in zip(alphas, coherent, trajectories):
        u0 = np.kron(phi0, eta0)
        u0 = u0 / np.linalg.norm(u0)
        psi = Propagator(basis, alpha).apply(u0, times[1:])
        errs = [0.0]
        rows.append((0.0, float(alpha), 0.0))
        cfg = trajectory[0].cfg
        for psi_t, t, current in zip(psi, times[1:], trajectory[1:], strict=True):
            j_t = basis.to_modes(current.rep.memory(cfg))
            eta_t, leak = weyl_apply(basis, j_t, eta0, guard=False)
            leak_max = max(leak_max, leak)
            eta_t = np.exp(-1j * cfg.frequency * basis.occ_totals * t) * eta_t
            eta_t = np.exp(-1j * current.rep.f_acc) * eta_t
            u_t = current.a_phase * np.kron(current.phi.values * np.sqrt(grid.dx), eta_t)
            err = float(np.linalg.norm(psi_t - u_t) ** 2)
            errs.append(err)
            rows.append((float(t), float(alpha), err))
        sups.append(max(errs))
    return rows, sups, float(leak_max)
