"""Ground states of the polaron energy functional (Choquard minimization).

The functional minimized here is

    E(phi) = int |grad phi|^2  -  g * int int rho(x) rho(y) / |x-y|,   rho = |phi|^2

on the sphere ||phi|| = 1. Its Euler-Lagrange equation is

    (-Lap + 2 g V) phi = lambda phi,      V = -|.|^{-1} * rho,

and the stationary phonon data attached to a minimizer is the displacement
f(k) = v(k) rhohat(k) with mu = -2g ||f||^2 and E_P = lambda - mu.  The
rescaled strong-coupling units used by the dynamics and Fock modules
correspond to g = 1/2 (where mu = -||f||^2).

Minimization is a projected, kinetic-preconditioned Barzilai-Borwein flow
on the sphere with an energy-monotone line search. Its iterate is real and
non-negative, so the mean-field operator runs on real transforms (rfftn).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .errors import ConvergenceError, ProjectionError
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _coulomb_form,
    _density_displacement,
    _density_potential,
    _fourier_multiply,
    hartree_energy,
    kinetic_energy,
    mode_norm_sq,
)

__all__ = [
    "PekarEnergy",
    "PekarSolution",
    "pekar_energy",
    "energy_gradient",
    "minimize_pekar",
    "coherent_displacement",
    "scaling_check",
    "save_solution",
    "load_solution",
]


@dataclass(frozen=True)
class PekarEnergy:
    total: float
    kinetic: float
    hartree: float
    g: float

    @property
    def interaction(self) -> float:
        """Magnitude g*D of the attractive term actually entering the energy."""
        return self.g * self.hartree


def pekar_energy(phi: WaveField, g: float, form: FormFactor | None = None) -> PekarEnergy:
    """Evaluate E(phi) = T - g*D together with its (T, D) decomposition."""
    if form is None:
        form = _coulomb_form(phi.grid, "isolated")
    t = kinetic_energy(phi)
    rho = WaveField(phi.grid, phi.density())
    d = hartree_energy(rho, form=form).value
    return PekarEnergy(total=t - g * d, kinetic=t, hartree=d, g=g)


def _mean_field_apply(values: np.ndarray, g: float, form: FormFactor, v=None) -> tuple:
    """(E, H_mf values, V) for H_mf = -Lap + 2 g V, V = -(K * |values|^2) unless ``v`` is given.

    E = <phi, -Lap phi> - g D(|phi|^2) is the energy functional at a normalized phi.
    """
    if v is None:
        v = _density_potential(np.abs(values) ** 2, form)
    kin = _fourier_multiply(values, form.grid.k_sq)
    dv = form.grid.cell_volume
    t = float(np.real(np.vdot(values, kin)) * dv)
    d = float(-np.sum(np.abs(values) ** 2 * v) * dv)
    return t - g * d, kin + 2.0 * g * v * values, v


def energy_gradient(phi: WaveField, g: float, form: FormFactor | None = None) -> np.ndarray:
    """H_mf phi with H_mf = -Lap + 2 g V[rho]; pairs with variations via 2 Re<., .>."""
    if form is None:
        form = _coulomb_form(phi.grid, "isolated")
    return _mean_field_apply(phi.values, g, form)[1]


def coherent_displacement(phi: WaveField, form: FormFactor | None = None) -> np.ndarray:
    """Stationary phonon displacement profile f(k) = v(k) rhohat(k)."""
    if form is None:
        form = _coulomb_form(phi.grid, "isolated")
    return _density_displacement(phi.density(), form)


@dataclass(frozen=True)
class PekarSolution:
    phi0: WaveField
    lam: float
    mu: float
    e_p: float
    g: float
    residual: float
    f: np.ndarray
    form: FormFactor
    gap: float | None
    energy_history: tuple
    flags: tuple = ()

    @property
    def kernel(self) -> str:
        return self.form.variant


def _gaussian_seed(grid: Grid, g: float, rng) -> WaveField:
    sigma = max(1.5 / max(g, 1e-3), 2.5 * grid.dx)
    mesh = np.meshgrid(*([grid.x_axis_centered] * grid.dim), indexing="ij")
    r2 = sum(c**2 for c in mesh)
    vals = np.exp(-r2 / (4.0 * sigma**2)) * (1.0 + 0.01 * rng.standard_normal(grid.shape))
    return WaveField(grid, vals).normalized()


def _recenter(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Integer-shift the density centroid to the grid origin (periodic centroid)."""
    rho = np.abs(values) ** 2
    shifts = []
    for axis in range(grid.dim):
        phase = np.exp(-2j * np.pi * grid.x_axis / grid.box_length)
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        m = complex(np.sum(rho * phase.reshape(shape)))
        theta = np.angle(m)  # in (-pi, pi], centroid = theta/(2 pi) * L
        shift = int(np.round(theta / (2.0 * np.pi) * grid.points_per_axis))
        shifts.append(-shift % grid.points_per_axis)
    return np.roll(values, shifts, axis=tuple(range(grid.dim)))


def _residual(values: np.ndarray, g: float, form: FormFactor) -> tuple:
    hphi = _mean_field_apply(values, g, form)[1]
    dv = form.grid.cell_volume
    lam = float(np.real(np.vdot(values, hphi)) * dv)
    return float(np.sqrt(np.sum(np.abs(hphi - lam * values) ** 2) * dv)), lam


def _spectral_gap(phi: WaveField, g: float, form: FormFactor) -> tuple:
    """(lambda_0, gap, converged) of H = -Lap + 2gV at the frozen V of ``phi`` (matrix-free,
    kinetic-preconditioned).

    lambda_0 = <phi, H phi> for the normalized ``phi``. lobpcg holds ``phi`` as its
    constraint and runs its one search column on H compressed to phi's orthogonal
    complement, so it finds the level above phi's, not phi again (Knyazev, SIAM J. Sci.
    Comput. 23, 2001). Since Lap V = 4 pi rho >= 0, that level lies in the p shell
    (Baumgartner, Grosse & Martin, Phys. Lett. B 146, 1984), and the column starts at
    x_0 phi, x_0 the first axis of the grid's centred coordinates, on whose origin the
    minimizer centres phi. No random draw enters. ``gap`` is that level minus lambda_0;
    it is <= 0 exactly when some level lies below phi's. ``converged`` is whether the
    final lobpcg residual norm reaches its tolerance; at its iteration cap lobpcg returns
    its best iterate with no more than a warning.
    """
    grid = phi.grid
    values = phi.values.real
    v = _mean_field_apply(values, g, form)[2]
    inverse_kinetic = 1.0 / (grid.k_sq + 0.3)
    ground = values.ravel() / np.linalg.norm(values)

    def matvec(x):
        return _mean_field_apply(x.reshape(grid.shape), g, form, v)[1].ravel()

    def compressed(x):
        # P H P, P = 1 - |phi><phi|: phi is an eigenvector only to the minimizer's tolerance,
        # and its residual's overlap would otherwise floor lobpcg's residual above tol
        x = x.ravel()
        hx = matvec(x - ground * (ground @ x))
        return hx - ground * (ground @ hx)

    def precond(x):
        return _fourier_multiply(x.reshape(grid.shape), inverse_kinetic).ravel()

    op = LinearOperator((grid.size, grid.size), matvec=compressed, dtype=float)
    m = LinearOperator((grid.size, grid.size), matvec=precond, dtype=float)
    lam0 = float(ground @ matvec(ground))
    x0 = grid.x_axis_centered.reshape((-1,) + (1,) * (grid.dim - 1))
    tol = 1e-8
    vals, _, residual_norms = lobpcg(
        op, (x0 * values).reshape(-1, 1), M=m, Y=ground.reshape(-1, 1), tol=tol, maxiter=400,
        largest=False, retResidualNormsHistory=True,
    )
    return lam0, float(vals[0] - lam0), bool(np.max(residual_norms[-1]) <= tol)


def _sphere_minimize(
    x, evaluate, k_sq, project, weight, tol, max_iter, tau, tau_max, shift_floor
) -> tuple:
    """Projected, preconditioned gradient descent on the unit sphere; returns (x, residual, history).

    ``evaluate(x)`` returns (E(x), H x), where lam = <x, H x> makes H x - lam x the sphere
    gradient; ``project(cand, it)`` maps a trial point at iteration ``it`` back onto the
    admissible part of the sphere; ``weight`` is the cell measure of the inner products (dv,
    or dv^2 for a pair state). The direction is preconditioned by 1/(k_sq + max(|lam|,
    shift_floor)); the step starts at ``tau``, then takes the Barzilai-Borwein length
    (Barzilai & Borwein, IMA J. Numer. Anal. 1988) capped at ``tau_max``, and backtracks
    until the energy does not rise. Raises ConvergenceError when the line search collapses
    or ``max_iter`` runs out.
    """
    energy, hx = evaluate(x)
    history = [energy]
    prev_step = prev_dgrad = None
    residual = np.inf
    for it in range(max_iter):
        lam = float(np.vdot(x, hx) * weight)
        grad = hx - lam * x
        residual = float(np.sqrt(np.sum(grad**2) * weight))
        if residual < tol:
            return x, residual, history
        shift = max(abs(lam), shift_floor)
        inverse_kinetic = 1.0 / (k_sq + shift)
        direction = _fourier_multiply(grad, inverse_kinetic)
        if prev_step is not None:
            sy = float(np.vdot(prev_step, prev_dgrad) * weight)
            ss = float(np.vdot(prev_step, prev_step) * weight)
            if sy > 1e-300:
                tau = min(max(ss / sy, 1e-4), tau_max)
        for _ in range(40):
            cand = project(x - tau * direction, it)
            e_new, h_new = evaluate(cand)
            if e_new <= energy + 1e-15 * max(1.0, abs(energy)):
                break
            tau *= 0.4
        else:
            raise ConvergenceError(
                "line search collapsed without reaching tolerance", residual=residual
            )
        prev_step = cand - x
        x = cand
        lam_new = float(np.vdot(x, h_new) * weight)
        prev_dgrad = _fourier_multiply((h_new - lam_new * x) - grad, inverse_kinetic)
        energy, hx = e_new, h_new
        history.append(energy)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def minimize_pekar(
    grid: Grid,
    g: float,
    tol: float = 1e-6,
    max_iter: int = 2000,
    kernel: str = "isolated",
    form: FormFactor | None = None,
    rng=None,
    compute_gap: bool = True,
) -> PekarSolution:
    """Minimize the polaron functional on the grid; see module docstring.

    ``rng`` draws the perturbation of the Gaussian start (default_rng(0) when not given).
    With ``compute_gap``, the gap to the next level of the frozen mean-field operator is
    solved with the orbital deflated (``_spectral_gap``); no random draw enters it.

    Raises ConvergenceError if the Euler-Lagrange residual does not reach
    ``tol`` within ``max_iter`` sweeps or if the gap solve finds a level at or below
    lambda, and ProjectionError if the iterate develops genuine sign changes that the
    positivity projection cannot heal.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if form is None:
        form = _coulomb_form(grid, kernel)

    if g <= 0:
        # Non-binding limit: the infimum 0 is attained only by the constant mode.
        phi = WaveField(grid, np.full(grid.shape, 1.0)).normalized()
        f = coherent_displacement(phi, form)
        residual, lam = _residual(phi.values, g, form)
        e_p = pekar_energy(phi, g, form).total
        return PekarSolution(
            phi0=phi,
            lam=0.0 if g == 0 else lam,
            mu=-2.0 * g * mode_norm_sq(grid, f),
            e_p=e_p,
            g=g,
            residual=residual,
            f=f,
            form=form,
            gap=None,
            energy_history=(e_p,),
            flags=("free case",),
        )

    dv = grid.cell_volume

    def project(cand, it):
        neg_mass = float(np.sqrt(np.sum(np.clip(cand, None, 0.0) ** 2)))
        if it > 30 and neg_mass > 0.05 * float(np.sqrt(np.sum(cand**2))):
            raise ProjectionError(
                "iterate developed persistent sign changes under positivity projection"
            )
        cand = np.abs(cand)  # ground state is positive; removes phase drift
        return cand / np.sqrt(np.sum(cand**2) * dv)

    phi, _, history = _sphere_minimize(
        _gaussian_seed(grid, g, rng).values.real,
        lambda x: _mean_field_apply(x, g, form)[:2],
        grid.k_sq,
        project,
        weight=dv,
        tol=tol,
        max_iter=max_iter,
        tau=0.5 / max(g, 1.0),
        tau_max=100.0,
        shift_floor=0.05,
    )
    phi = _recenter(grid, phi)
    residual, lam = _residual(phi, g, form)
    phi = WaveField(grid, phi)
    f = coherent_displacement(phi, form)
    fsq = mode_norm_sq(grid, f)
    mu = -2.0 * g * fsq
    energy_parts = pekar_energy(phi, g, form)
    e_p = energy_parts.total
    flags = ()
    if energy_parts.kinetic < 1e-6 * max(abs(e_p), 1e-12):
        # uniform torus state: on small boxes it can undercut the polaron branch
        flags = ("delocalized",)
    gap = None
    if compute_gap:
        lam0, gap, gap_converged = _spectral_gap(phi, g, form)
        if not gap_converged:
            flags += ("gap_unconverged",)
        if gap <= 0:
            raise ConvergenceError(
                f"converged state is not the lowest mean-field eigenvector "
                f"(lambda={lam0:.8e}, gap={gap:.3e})",
                residual=residual,
            )
    return PekarSolution(
        phi0=phi,
        lam=lam,
        mu=mu,
        e_p=e_p,
        g=g,
        residual=residual,
        f=f,
        form=form,
        gap=gap,
        energy_history=tuple(history),
        flags=flags,
    )


@dataclass(frozen=True)
class ScalingReport:
    g1: float
    g2: float
    e1: float
    e2: float
    ratio: float
    expected_ratio: float
    ratio_defect: float
    length1: float
    length2: float
    length_ratio_defect: float


def _rms_radius(phi: WaveField) -> float:
    grid = phi.grid
    mesh = np.meshgrid(*([grid.x_axis_centered] * grid.dim), indexing="ij")
    r2 = sum(c**2 for c in mesh)
    rho = phi.density()
    return float(np.sqrt(np.sum(r2 * rho) * grid.cell_volume))


def scaling_check(
    sol1: PekarSolution,
    sol2: PekarSolution,
    ratio_tol: float = 1e-3,
    length_tol: float = 1e-2,
) -> ScalingReport:
    """Verify the dilation law E_P(g2)/E_P(g1) = (g2/g1)^2 and the 1/g length scale."""
    expected = (sol2.g / sol1.g) ** 2
    ratio = sol2.e_p / sol1.e_p
    ratio_defect = abs(ratio - expected) / expected
    r1, r2 = _rms_radius(sol1.phi0), _rms_radius(sol2.phi0)
    length_defect = abs(r1 / r2 - sol2.g / sol1.g) / (sol2.g / sol1.g)
    report = ScalingReport(
        g1=sol1.g,
        g2=sol2.g,
        e1=sol1.e_p,
        e2=sol2.e_p,
        ratio=ratio,
        expected_ratio=expected,
        ratio_defect=ratio_defect,
        length1=r1,
        length2=r2,
        length_ratio_defect=length_defect,
    )
    if ratio_defect > ratio_tol:
        raise ConvergenceError(
            f"energy scaling ratio {ratio} deviates from {expected} beyond {ratio_tol}",
            residual=ratio_defect,
        )
    if length_defect > length_tol:
        raise ConvergenceError(
            f"length-scale contraction defect {length_defect} exceeds {length_tol}",
            residual=length_defect,
        )
    return report


def save_solution(directory, sol: PekarSolution, tag: str = "pekar") -> Path:
    """Write ``<tag>.json`` (scalars, box, form name and cutoff) beside ``<tag>.npz``
    (phi0 and v(k), as held); returns the ``.json`` path, which ``lp-evolve --init`` takes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez(directory / f"{tag}.npz", phi0=sol.phi0.values, v=sol.form.values)
    meta = {
        "lambda": sol.lam,
        "mu": sol.mu,
        "E_P": sol.e_p,
        "g": sol.g,
        "residual": sol.residual,
        "gap": sol.gap,
        "kernel": sol.kernel,
        "flags": list(sol.flags),
        "box": sol.phi0.grid.box_length,
        "cutoff": sol.form.cutoff if np.isfinite(sol.form.cutoff) else None,  # JSON has no inf
    }
    out = directory / f"{tag}.json"
    out.write_text(json.dumps(meta, indent=2, sort_keys=True))
    return out


def load_solution(directory, tag: str = "pekar") -> PekarSolution:
    """What ``save_solution`` wrote, bit for bit; ConvergenceError if the stored field's
    residual exceeds the stored residual by more than 1e-6 relative."""
    directory = Path(directory)
    meta = json.loads((directory / f"{tag}.json").read_text())
    with np.load(directory / f"{tag}.npz") as arrays:
        values, v = arrays["phi0"], arrays["v"]
    grid = Grid(values.ndim, values.shape[0], meta["box"])
    phi0 = WaveField(grid, values)
    form = FormFactor(grid, v, np.inf if meta["cutoff"] is None else meta["cutoff"], meta["kernel"])
    residual = _residual(phi0.values, meta["g"], form)[0]
    if not residual <= meta["residual"] * (1.0 + 1e-6):
        raise ConvergenceError(
            f"{directory / tag}: residual {residual:.6e} > stored {meta['residual']:.6e}", residual
        )
    return PekarSolution(
        phi0=phi0,
        lam=meta["lambda"],
        mu=meta["mu"],
        e_p=meta["E_P"],
        g=meta["g"],
        residual=meta["residual"],
        f=coherent_displacement(phi0, form),
        form=form,
        gap=meta["gap"],
        energy_history=(meta["E_P"],),
        flags=tuple(meta["flags"]),
    )
