"""Multi-electron polaron ground states and dynamics (rescaled units).

The energy functional for N electrons with repulsion strength U is

    E_N(phi) = <phi, (sum_j -Lap_j + sum_{i<j} U K(x_i - x_j)) phi> - 1/2 D(rho),

with K the same lattice Coulomb kernel as the attraction, rho the one-body
density (integrating to N) and D the Hartree pairing. Under the symmetric
product ansatz phi = u^(xN) this reduces to

    E_N(u) = N [ T(u) - g_eff D(|u|^2) ],    g_eff = (N - (N-1) U) / 2,

so the product path delegates to the single-orbital minimizer; the product
ansatz binds (E_N < N E_1) exactly for U < 1. The full two-body path (N = 2)
minimizes over the pair wavefunction directly and provides the variational
oracle E_full <= E_product on the shared grid.

Identities carried by a solution: f(k) = v(k) rhohat(k), mu = -||f||^2 =
-D(rho)/2, E_N = lambda - mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral_core
from .errors import SizingError
from .lp_dynamics import LPConfig, QuadratureRep, _march, _strang_step, stationary_label
from .pekar import _sphere_minimize, minimize_pekar
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _density_displacement,
    _density_potential,
    _fourier_multiply,
    _hermitian_fill,
    _ifftn,
    kinetic_energy,
    mode_norm_sq,
)

__all__ = [
    "PTConfig",
    "PTSolution",
    "PTEnergy",
    "pt_energy",
    "minimize_pt",
    "binding_scan",
    "dfn_evolve",
    "PairState",
]

_STATISTICS = ("boson_product", "full_two_body")
_PAIR_BUDGET_SITES = 4096  # 16^3-equivalent single-particle grid


def _default_form(grid: Grid) -> FormFactor:
    if grid.dim == 3:
        return FormFactor.coulomb_d3_isolated(grid)
    return FormFactor.toy(grid, 0.1)


@dataclass(frozen=True)
class PTConfig:
    n_particles: int
    repulsion: float
    grid: Grid
    statistics: str = "boson_product"
    form: FormFactor | None = None

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if self.repulsion < 0:
            raise ValueError("repulsion U must be nonnegative")
        if self.statistics not in _STATISTICS:
            raise ValueError(f"statistics must be one of {_STATISTICS}")
        if self.statistics == "full_two_body":
            if self.n_particles != 2:
                raise SizingError("the full wavefunction path exists only for N = 2")
            if self.grid.size > _PAIR_BUDGET_SITES:
                raise SizingError(
                    f"pair grid {self.grid.size} sites exceeds the {_PAIR_BUDGET_SITES}-site budget"
                )
        if self.form is None:
            object.__setattr__(self, "form", _default_form(self.grid))
        self.grid.require_same(self.form.grid)

    @property
    def effective_orbital_coupling(self) -> float:
        n, u = self.n_particles, self.repulsion
        return (n - (n - 1) * u) / 2.0


@dataclass(frozen=True)
class PTEnergy:
    total: float
    kinetic: float
    repulsion: float
    hartree: float  # the full D(rho); the functional carries -D/2


def _pair_kinetic_multiplier(grid: Grid) -> np.ndarray:
    return np.add.outer(grid.k_sq, grid.k_sq)


def _pair_kernel(grid: Grid, form: FormFactor) -> np.ndarray:
    """K(x1 - x2) on the pair lattice (periodic difference indexing)."""
    k_real = (_ifftn(form.kernel_multiplier) / grid.cell_volume).real
    d, n = grid.dim, grid.points_per_axis
    idx = np.meshgrid(*([np.arange(n)] * (2 * d)), indexing="ij", sparse=True)
    return k_real[tuple((idx[axis] - idx[d + axis]) % n for axis in range(d))]


def _pair_potential(v: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """V(x_1) + V(x_2) + kernel on the pair lattice, with ``kernel`` = U K(x_1 - x_2)."""
    return np.add.outer(v, v) + kernel


def _one_body_density(grid: Grid, pair: np.ndarray) -> np.ndarray:
    """rho(x) = 2 sum_y |phi(x, y)|^2 dv for an exchange-symmetric pair state."""
    d = grid.dim
    return 2.0 * np.sum(np.abs(pair) ** 2, axis=tuple(range(d, 2 * d))) * grid.cell_volume


def _pair_norm(grid: Grid, pair: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(pair) ** 2) * grid.cell_volume**2))


def _pair_apply(pair: np.ndarray, cfg: PTConfig, ksq2: np.ndarray, kernel: np.ndarray) -> tuple:
    """(PTEnergy, H pair) for a normalized pair state.

    H = -Lap_1 - Lap_2 + kernel + V(x_1) + V(x_2) with ``kernel`` = U K(x_1 - x_2) and
    V = -K * rho the mean field of the one-body density; the energy is
    <pair, (-Lap_1 - Lap_2 + kernel) pair> - D(rho)/2, whose sphere gradient is H pair.
    """
    grid = cfg.grid
    dv2 = grid.cell_volume**2
    rho = _one_body_density(grid, pair)
    v = _density_potential(rho, cfg.form)
    kin = _fourier_multiply(pair, ksq2)
    kinetic = float(np.real(np.vdot(pair, kin)) * dv2)
    repulsion = float(np.sum(kernel * np.abs(pair) ** 2) * dv2)
    hartree = float(-np.sum(rho * v) * grid.cell_volume)
    energy = PTEnergy(
        total=kinetic + repulsion - 0.5 * hartree,
        kinetic=kinetic,
        repulsion=repulsion,
        hartree=hartree,
    )
    return energy, kin + _pair_potential(v, kernel) * pair


def pt_energy(candidate, cfg: PTConfig) -> PTEnergy:
    """Energy of a normalized candidate: product orbital or N=2 pair array.

    The product branch evaluates the N-body expectation term by term (kinetic,
    pair repulsion, Hartree attraction); the reduced closed form
    N (T - g_eff D_u) is checked against it in the test suite.
    """
    grid, form = cfg.grid, cfg.form
    n, u = cfg.n_particles, cfg.repulsion
    if isinstance(candidate, WaveField):
        orbital = candidate.normalized()
        t_orb = kinetic_energy(orbital)
        rho_orb = orbital.density()
        v_orb = _density_potential(rho_orb, form)
        d_orb = float(-np.sum(rho_orb * v_orb) * grid.cell_volume)
        kinetic = n * t_orb
        repulsion = 0.5 * n * (n - 1) * u * d_orb
        hartree = n**2 * d_orb  # D(rho) with rho = N |u|^2
        return PTEnergy(
            total=kinetic + repulsion - 0.5 * hartree,
            kinetic=kinetic,
            repulsion=repulsion,
            hartree=hartree,
        )
    pair = np.asarray(candidate)
    if pair.shape != grid.shape + grid.shape:
        raise SizingError(f"pair state must have shape {grid.shape + grid.shape}")
    pair = pair / _pair_norm(grid, pair)
    return _pair_apply(pair, cfg, _pair_kinetic_multiplier(grid), u * _pair_kernel(grid, form))[0]


@dataclass(frozen=True)
class PTSolution:
    cfg: PTConfig
    orbital: WaveField | None
    pair: np.ndarray | None
    rho: np.ndarray
    e_n: float
    lam: float
    mu: float
    f: np.ndarray
    residual: float
    binding: dict


def _orbital_solver(grid: Grid, form: FormFactor, tol: float, seed: int):
    """g -> minimize_pekar at (grid, form, tol) from a fresh default_rng(seed), without the gap.

    Each distinct g is solved once per solver: the product orbital at U = 1 is the single
    polaron (g_eff = 1/2 for every N), and a verb's own U may recur in its scan. The
    solutions live as long as the solver, which lives as long as the call that made it.
    """
    solved = {}

    def solve(g):
        if g not in solved:
            solved[g] = minimize_pekar(
                grid, g=g, tol=tol, form=form, rng=np.random.default_rng(seed), compute_gap=False
            )
        return solved[g]

    return solve


def _binding_diagnostic(cfg: PTConfig, e_n: float, rho: np.ndarray, e_single: float) -> dict:
    grid = cfg.grid
    n_single = cfg.n_particles * e_single
    total = float(np.sum(rho) * grid.cell_volume)
    rms = float(np.sqrt(np.sum(grid.r_sq * rho) * grid.cell_volume / total))
    delocalized = rms > grid.box_length / 4.0
    bound = (e_n < n_single - 1e-12) and not delocalized
    return {
        "bound": bound,
        "e_n": e_n,
        "n_times_single": n_single,
        "rms_radius": rms,
        "message": None
        if bound
        else f"no binding at this U (product ansatz): E_N = {e_n:.6g} vs N E_1 = {n_single:.6g}",
    }


def _product_solution(cfg: PTConfig, sol, e_single: float) -> PTSolution:
    """The product state of ``sol``, the orbital minimizer's solution at cfg's g_eff."""
    grid, form = cfg.grid, cfg.form
    n = cfg.n_particles
    orbital = sol.phi0
    rho = n * orbital.density()
    en = pt_energy(orbital, cfg)
    f = _density_displacement(rho, form)
    mu = -mode_norm_sq(grid, f)
    lam = en.total + mu
    # residual of the N-body stationarity through the orbital equation
    residual = sol.residual * n
    return PTSolution(
        cfg=cfg,
        orbital=orbital,
        pair=None,
        rho=rho,
        e_n=en.total,
        lam=lam,
        mu=mu,
        f=f,
        residual=residual,
        binding=_binding_diagnostic(cfg, en.total, rho, e_single),
    )


def _minimize_pair(cfg: PTConfig, tol: float, e_single: float) -> PTSolution:
    """Minimization over the real, non-negative, exchange-symmetric pair state.

    Same sphere minimizer as the single orbital, with the pair kinetic preconditioner.
    """
    grid, form = cfg.grid, cfg.form
    d = grid.dim
    ksq2 = _pair_kinetic_multiplier(grid)
    kernel = cfg.repulsion * _pair_kernel(grid, form)

    sigma = max(1.5, 3 * grid.dx)
    seed = np.exp(-grid.r_sq / (4 * sigma**2))
    pair = np.multiply.outer(seed, seed)
    pair /= _pair_norm(grid, pair)

    def evaluate(p):
        energy, hpair = _pair_apply(p, cfg, ksq2, kernel)
        return energy.total, hpair

    def project(cand, it):
        cand = np.abs(cand)
        cand = 0.5 * (cand + _exchange(cand, d))
        return cand / _pair_norm(grid, cand)

    pair, residual, history = _sphere_minimize(
        pair,
        evaluate,
        ksq2,
        project,
        weight=grid.cell_volume**2,
        tol=tol,
        max_iter=2000,
        tau=0.4,
        tau_max=50.0,
        shift_floor=0.5,
    )
    energy = history[-1]
    rho = _one_body_density(grid, pair)
    f = _density_displacement(rho, form)
    mu = -mode_norm_sq(grid, f)
    return PTSolution(
        cfg=cfg,
        orbital=None,
        pair=pair,
        rho=rho,
        e_n=energy,
        lam=energy + mu,
        mu=mu,
        f=f,
        residual=residual,
        binding=_binding_diagnostic(cfg, energy, rho, e_single),
    )


def _exchange(pair: np.ndarray, d: int) -> np.ndarray:
    return np.transpose(pair, axes=tuple(range(d, 2 * d)) + tuple(range(d)))


def minimize_pt(cfg: PTConfig, tol: float = 1e-7, seed: int = 0) -> PTSolution:
    """Minimize the N-electron functional: ``binding_scan``'s solution at cfg, with no scan."""
    return binding_scan(cfg, (), tol, seed)[0]


def binding_scan(cfg: PTConfig, u_values=(), tol: float = 1e-7, seed: int = 0) -> tuple:
    """(the N-electron minimizer at cfg, one binding row per U of ``u_values``).

    The rows take cfg's N, grid and form under the product ansatz. Every orbital solve
    starts from a fresh default_rng(seed), and each distinct orbital coupling is solved
    once per call, E_1's (g = 1/2) included; so the solution and each row equal a
    ``minimize_pt`` at their U.
    """
    solve = _orbital_solver(cfg.grid, cfg.form, tol, seed)
    e_single = solve(0.5).e_p
    if cfg.statistics == "boson_product":
        sol = _product_solution(cfg, solve(cfg.effective_orbital_coupling), e_single)
    else:
        sol = _minimize_pair(cfg, tol, e_single)
    rows = []
    for u in u_values:
        row_cfg = PTConfig(cfg.n_particles, float(u), cfg.grid, form=cfg.form)
        row = _product_solution(row_cfg, solve(row_cfg.effective_orbital_coupling), e_single)
        rows.append(
            {
                "U": float(u),
                "E_N": row.e_n,
                "N_E_single": row.binding["n_times_single"],
                "bound": row.binding["bound"],
                "rms_radius": row.binding["rms_radius"],
            }
        )
    return sol, rows


@dataclass(frozen=True)
class PairState:
    """Two-electron state coupled to the phonon field (strong-coupling units).

    ``phonons`` is the one-body LPConfig the phonon representation ``rep``
    lives on; its (lam_c, omega) are (1/alpha, 1/alpha^2).
    """

    cfg: PTConfig
    phonons: LPConfig
    t: float
    pair: np.ndarray
    rep: QuadratureRep
    a_phase: complex = 1.0 + 0.0j
    # f = v rhohat of the pair's one-body density, as its rfftn half spectrum: handed on
    # by the step that made the pair, computed from it otherwise
    _f: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f = _pair_displacement(self.cfg, self.pair) if self._f is None else self._f
        f.flags.writeable = False
        object.__setattr__(self, "_f", f)

    def displacement(self) -> np.ndarray:
        return self._f

    @property
    def z(self) -> np.ndarray:
        return self.rep.label(self.phonons, self.t)


def _pair_displacement(cfg: PTConfig, pair: np.ndarray) -> np.ndarray:
    """f = v rhohat of the pair's one-body density, as its rfftn half spectrum."""
    return spectral_core._half_displacement(_one_body_density(cfg.grid, pair), cfg.form)


def dfn_evolve(
    cfg: PTConfig,
    pair0: np.ndarray,
    alpha: float,
    t_final: float,
    dt: float,
    z0: np.ndarray | None = None,
    sample_interval: float | None = None,
):
    """Evolve the two-electron product-state dynamics; returns sampled PairStates.

    The pair runs the one-electron Strang step with the pair drift, the
    one-body-density displacement and the lift V -> V x 1 + 1 x V + U K(x_1 - x_2).
    Defaults to the stationary phonon data z = -alpha f(pair0) when z0 is not
    given, so a converged minimizer is a fixed point up to integrator error.
    """
    if cfg.statistics != "full_two_body":
        raise SizingError("dfn_evolve runs on the full_two_body configuration")
    grid, form = cfg.grid, cfg.form
    phonons = LPConfig(grid, form, alpha)
    pair0 = np.asarray(pair0, dtype=complex)
    pair0 = pair0 / _pair_norm(grid, pair0)
    f0 = _pair_displacement(cfg, pair0)
    if z0 is None:
        z0 = stationary_label(phonons, _hermitian_fill(f0, grid.shape))
    drift = np.exp(-1j * dt * _pair_kinetic_multiplier(grid))
    kernel = cfg.repulsion * _pair_kernel(grid, form)

    def lift(v):
        return _pair_potential(v, kernel)

    def displacement(pair):
        return _pair_displacement(cfg, pair)

    def advance(state, dt):
        pair, rep, a_phase, f = _strang_step(
            phonons, state.rep, state.t, state.pair, state.displacement(), state.a_phase, dt,
            drift, displacement, lift,
        )
        return replace(state, t=state.t + dt, pair=pair, rep=rep, a_phase=a_phase, _f=f)

    state = PairState(cfg, phonons, 0.0, pair0, QuadratureRep.from_label(phonons, z0), _f=f0)
    return list(_march(state, t_final, dt, advance, sample_interval))
