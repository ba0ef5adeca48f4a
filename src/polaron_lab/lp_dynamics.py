"""Coupled electron/phonon effective dynamics (nonlinear Schroedinger + memory).

The evolved system, in the units selected by ``LPConfig.units``:

    i dphi/dt = (-Lap + V_z) phi
    dz/dt     = -i omega z - i lam_c f,      f(k) = v(k) rhohat(k)
    a(t)      = exp( i lam_c int_0^t 2 Re <z, f>_w ds )

with the potential generated by the phonon labels

    V_z(x) = 2 lam_c Re sum_k w_k v(k) z(k) e^{ikx}.

``strong_coupling`` units set (lam_c, omega) = (1/alpha, 1/alpha^2);
``froehlich`` units set (sqrt(alpha), omega0). The stationary polaron data is
z = -(lam_c/omega) f, which in strong-coupling units is z = -alpha f.

Two interchangeable phonon representations are provided: OscillatorRep keeps
the potential field and its velocity and rotates each Fourier mode exactly
around the instantaneous driven fixed point; QuadratureRep keeps the initial
label plus the running memory integral J and phase accumulator F,

    z(t) = e^{-i omega t} (z0 + J_t),
    J_t  = -i lam_c int_0^t e^{i omega s} f_s ds,
    F_t  = lam_c int_0^t Re[ e^{-i omega s} <f_s, J_s>_w ] ds,

with both integrals accumulated exactly for drive held constant over each
substep (never re-integrated from zero). States are immutable snapshots; a
step returns a new state.

One step does four complex transforms: the drift's fftn and ifftn, the
half-step potential's ifftn and the fftn of f = v rhohat at the step's end.
The state carries that f, so the next step starts from it instead of
transforming phi again. The step's multipliers are built once per config
(the oscillator's scale, label divisor and fixed-point factor) or once per
(config, dt) (the drift exp(-i dt k^2); only the last dt is kept). The
transforms are spectral_core's grid transforms, numpy's bits on scipy's n-d
kernel on a 3d grid. Two other forms are not used (one thread, 32^3, medians
on a shared 2-vCPU host where a step takes 7-9 ms). The potential Re ifftn(c)
as irfftn of the Hermitian-symmetrised half spectrum changes the last bits of
the seeded CSVs and took 0.93 ms against 0.75 ms for ifftn(c).real (rfftn for
f would need the full lattice filled back in and saves as little). The kick
as cos + i sin equals the complex exp bit for bit on numpy 2.4.6 (over 1.4e7
arguments of scales 1e-8 to 1e6) and saves about 0.2 ms of a step alone, but
no time end to end: perfbench ``lp-flow`` read 1.320, 1.349 and 1.327 s with
it against 1.344, 1.313 and 1.335 s without, over 3 pairs of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BlowUpError, GridMismatchError
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _density_displacement,
    _fftn,
    _ifftn,
    _label_potential,
    kinetic_energy,
    mode_inner,
    mode_norm_sq,
)

__all__ = [
    "LPConfig",
    "PhononDisplacement",
    "OscillatorRep",
    "QuadratureRep",
    "LPState",
    "initial_state",
    "stationary_label",
    "step",
    "evolve",
    "df_energy",
    "df_error_integral",
]

_UNITS = ("strong_coupling", "froehlich")


@dataclass(frozen=True)
class LPConfig:
    grid: Grid
    form: FormFactor
    alpha: float
    omega0: float = 1.0
    units: str = "strong_coupling"

    def __post_init__(self):
        if self.units not in _UNITS:
            raise ValueError(f"units must be one of {_UNITS}")
        self.grid.require_same(self.form.grid)
        if self.alpha <= 0 or self.omega0 <= 0:
            raise ValueError("alpha and omega0 must be positive")

    @property
    def coupling(self) -> float:
        """Prefactor of the interaction term (lam_c)."""
        if self.units == "strong_coupling":
            return 1.0 / self.alpha
        return float(np.sqrt(self.alpha))

    @property
    def frequency(self) -> float:
        """Phonon frequency (omega)."""
        if self.units == "strong_coupling":
            return self.alpha**-2
        return self.omega0

    def displacement_profile(self, phi_values: np.ndarray) -> np.ndarray:
        """f(k) = v(k) rhohat(k) for the given orbital values."""
        return _density_displacement(np.abs(phi_values) ** 2, self.form)

    def potential_of_label(self, z: np.ndarray) -> np.ndarray:
        """V(x) = 2 lam_c Re sum_k w_k v(k) z(k) e^{ikx} (real array)."""
        return _label_potential(z, self.form, self.coupling)

    def _drift(self, dt: float) -> np.ndarray:
        """Kinetic multiplier exp(-i dt k^2); only the last dt's is kept."""
        last = self.__dict__.get("_last_drift")
        if last is None or last[0] != dt:
            last = (dt, _frozen(np.exp(-1j * dt * self.grid.k_sq)))
            self.__dict__["_last_drift"] = last
        return last[1]

    @cached_property
    def _oscillator_scale(self) -> np.ndarray:
        """(2pi)^d lam_c v(k): the label z -> potential spectrum factor."""
        return _frozen((2.0 * np.pi) ** self.grid.dim * self.coupling * self.form.values)

    @cached_property
    def _label_divisor(self) -> tuple:
        """(scale > 0, 2 scale there and 1 elsewhere): modes with v(k) = 0 get label 0."""
        scale = self._oscillator_scale
        return _frozen(scale > 0), _frozen(np.where(scale > 0, 2.0 * scale, 1.0))

    @cached_property
    def _fixed_point_factor(self) -> np.ndarray:
        """V_p / f = -(lam_c^2/omega) M / v with M = 2 (2pi)^d v^2."""
        prefactor = -(self.coupling**2 / self.frequency) * 2.0 * (2.0 * np.pi) ** self.grid.dim
        return _frozen(prefactor * self.form.values)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PhononDisplacement:
    """Per-mode complex label z(k) = <eta, a(k) eta> on the momentum lattice."""

    grid: Grid
    z: np.ndarray
    units: str = "strong_coupling"

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.complex128)
        if z.shape != self.grid.shape:
            raise GridMismatchError(
                f"label shape {z.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "z", z)
        if self.units not in _UNITS:
            raise ValueError(f"units must be one of {_UNITS}")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.z) ** 2) * self.grid.mode_weight)


def stationary_label(cfg: LPConfig, f: np.ndarray) -> np.ndarray:
    """Fixed point of the label equation: z = -(lam_c/omega) f."""
    return -(cfg.coupling / cfg.frequency) * np.asarray(f, dtype=complex)


@dataclass(frozen=True)
class OscillatorRep:
    """Phonon state as the potential field and its velocity (spectra cached)."""

    v_hat: np.ndarray
    vdot_hat: np.ndarray

    @classmethod
    def from_fields(cls, cfg: LPConfig, v: np.ndarray, vdot: np.ndarray):
        dv = cfg.grid.cell_volume
        return cls(_fftn(v) * dv, _fftn(vdot) * dv)

    @classmethod
    def from_label(cls, cfg: LPConfig, z: np.ndarray):
        scale = cfg._oscillator_scale
        zc = np.conj(_negate_modes(z))
        v_hat = scale * (z + zc)
        vdot_hat = scale * (-1j * cfg.frequency) * (z - zc)
        return cls(v_hat, vdot_hat)

    def label(self, cfg: LPConfig, t: float) -> np.ndarray:
        carries, divisor = cfg._label_divisor
        c_hat = self.v_hat + 1j * self.vdot_hat / cfg.frequency
        return np.where(carries, c_hat / divisor, 0.0)

    def potential(self, cfg: LPConfig, t: float) -> np.ndarray:
        return (_ifftn(self.v_hat) / cfg.grid.cell_volume).real

    def _label_and_potential(self, cfg: LPConfig, t: float):
        return self.label(cfg, t), self.potential(cfg, t)

    def stepped(self, cfg: LPConfig, t: float, h: float, f_drive: np.ndarray):
        """Exact mode rotation around the driven fixed point, drive frozen."""
        om = cfg.frequency
        # fixed point: V_p = -(lam^2/om) M rho_hat with M = 2 (2pi)^d v^2 and f = v rho_hat
        v_p = cfg._fixed_point_factor * f_drive
        c, s = np.cos(om * h), np.sin(om * h)
        dv = self.v_hat - v_p
        return OscillatorRep(
            v_hat=v_p + dv * c + self.vdot_hat * s / om,
            vdot_hat=-om * dv * s + self.vdot_hat * c,
        )


@dataclass(frozen=True)
class QuadratureRep:
    """Phonon state as (initial label, running memory integral, phase accumulator)."""

    z0: np.ndarray
    j: np.ndarray
    f_acc: float  # the accumulated scalar F(t); internal bookkeeping only

    @classmethod
    def from_label(cls, cfg: LPConfig, z: np.ndarray):
        return cls(np.asarray(z, dtype=complex), np.zeros_like(np.asarray(z, dtype=complex)), 0.0)

    def label(self, cfg: LPConfig, t: float) -> np.ndarray:
        return np.exp(-1j * cfg.frequency * t) * (self.z0 + self.j)

    def potential(self, cfg: LPConfig, t: float) -> np.ndarray:
        return self._label_and_potential(cfg, t)[1]

    def _label_and_potential(self, cfg: LPConfig, t: float):
        z = self.label(cfg, t)
        return z, cfg.potential_of_label(z)

    def stepped(self, cfg: LPConfig, t: float, h: float, f_drive: np.ndarray):
        om, lam = cfg.frequency, cfg.coupling
        e_t = np.exp(1j * om * t)
        e_th = np.exp(1j * om * (t + h))
        delta_j = -(lam / om) * f_drive * (e_th - e_t)
        # dF/ds = lam * Re[e^{-i om s} <f, J_s>_w]; J(s) analytic for frozen f
        inner_fj = complex(np.vdot(f_drive, self.j) * cfg.grid.mode_weight)
        term1 = lam * (inner_fj * (np.conj(e_t) - np.conj(e_th)) / (1j * om)).real
        fsq = float(np.sum(np.abs(f_drive) ** 2) * cfg.grid.mode_weight)
        term2 = -(lam**2 / om) * fsq * (h - np.sin(om * h) / om)
        return QuadratureRep(self.z0, self.j + delta_j, self.f_acc + term1 + term2)


def _negate_modes(arr: np.ndarray) -> np.ndarray:
    """arr(k) -> arr(-k) as an index permutation on the FFT lattice."""
    idx = [(-np.arange(n)) % n for n in arr.shape]
    return arr[np.ix_(*idx)]


@dataclass(frozen=True)
class LPState:
    cfg: LPConfig
    t: float
    phi: WaveField
    rep: object
    a_phase: complex = 1.0 + 0.0j
    # f = v rhohat of phi: handed on by the step that made phi, computed from phi otherwise
    _f: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f = self.cfg.displacement_profile(self.phi.values) if self._f is None else self._f
        object.__setattr__(self, "_f", _frozen(f))

    def label(self) -> np.ndarray:
        return self.rep.label(self.cfg, self.t)

    def potential(self) -> np.ndarray:
        return self.rep.potential(self.cfg, self.t)

    def displacement(self) -> np.ndarray:
        return self._f


def initial_state(
    cfg: LPConfig,
    phi0: WaveField,
    z0: np.ndarray | PhononDisplacement | None = None,
    v0: np.ndarray | None = None,
    v0dot: np.ndarray | None = None,
    rep: str = "quadrature",
) -> LPState:
    """Build a state from a coherent label z0 or an (V0, dV0/dt) field pair.

    The pair is converted through V0 + i dV0/dt / omega = 2 lam_c sum_k w_k
    v(k) z(k) e^{ikx}; modes with v(k) = 0 carry no potential and get z = 0.
    """
    cfg.grid.require_same(phi0.grid)
    if z0 is not None and (v0 is not None or v0dot is not None):
        raise ValueError("give either z0 or the (v0, v0dot) pair, not both")
    if z0 is None and v0 is None:
        z0 = np.zeros(cfg.grid.shape, dtype=complex)
    if isinstance(z0, PhononDisplacement):
        if z0.units != cfg.units:
            raise ValueError(
                f"displacement carries units {z0.units!r} but config uses {cfg.units!r}"
            )
        z0 = z0.z
    if z0 is None:
        if v0dot is None:
            v0dot = np.zeros(cfg.grid.shape)
        osc = OscillatorRep.from_fields(cfg, v0, v0dot)
        z0 = osc.label(cfg, 0.0)
    if rep in ("quadrature", "quad"):
        phonons = QuadratureRep.from_label(cfg, z0)
    elif rep in ("oscillator", "osc"):
        phonons = OscillatorRep.from_label(cfg, z0)
    else:
        raise ValueError(f"unknown representation {rep!r}")
    return LPState(cfg=cfg, t=0.0, phi=phi0.normalized(), rep=phonons, a_phase=1.0 + 0.0j)


def df_energy(state: LPState) -> float:
    """Conserved product-state energy T + omega ||z||^2 + lam_c 2 Re <z, f>."""
    cfg = state.cfg
    z = state.label()
    f = state.displacement()
    return (
        kinetic_energy(state.phi)
        + cfg.frequency * mode_norm_sq(cfg.grid, z)
        + cfg.coupling * 2.0 * mode_inner(cfg.grid, z, f).real
    )


def _strang_step(cfg: LPConfig, rep, t, values, f_before, a_phase, dt, drift, displacement, lift):
    """Phonon half step, kick-drift-kick, phonon half step, then the phase update.

    The one splitting behind both the one-electron flow (``step``) and the pair
    flow (``npolaron.dfn_evolve``). ``values`` is the electron field on its own
    lattice and ``f_before`` its f(k), ``drift`` the kinetic multiplier
    exp(-i dt k^2) there, ``displacement`` maps values to f(k), and ``lift``
    carries the one-body potential onto the field's lattice. Returns
    (values, rep, a_phase, f) at t + dt; the caller hands f on as the next
    step's ``f_before``.
    """
    rep_mid = rep.stepped(cfg, t, dt / 2.0, f_before)
    t_mid = t + dt / 2.0
    z_mid, v_mid = rep_mid._label_and_potential(cfg, t_mid)
    kick = np.exp(-0.5j * dt * lift(v_mid))
    new = kick * values
    new = _ifftn(drift * _fftn(new))
    # kept apart from the transform: numpy would multiply into the ifftn temporary in
    # place, which swaps the complex product's operands and changes its rounding
    new = kick * new
    if not np.all(np.isfinite(new)):
        raise BlowUpError("electron field became non-finite", last_valid_time=t)

    f_after = displacement(new)
    rep_new = rep_mid.stepped(cfg, t_mid, dt / 2.0, f_after)
    field_expectation = 2.0 * mode_inner(cfg.grid, z_mid, 0.5 * (f_before + f_after)).real
    a_new = a_phase * np.exp(1j * dt * cfg.coupling * field_expectation)
    return new, rep_new, complex(a_new), f_after


def _one_body(v: np.ndarray) -> np.ndarray:
    """The one-electron lift: the potential already lives on the field's lattice."""
    return v


def step(state: LPState, dt: float) -> LPState:
    """One symmetric step: phonon half, electron kick-drift-kick, phonon half.

    Second order in dt, exactly time-reversible (step(step(s, dt), -dt) == s),
    with the phonon drive frozen per substep so each mode update is the exact
    driven-oscillator solution.
    """
    cfg = state.cfg
    phi, rep, a_phase, f = _strang_step(
        cfg, state.rep, state.t, state.phi.values, state.displacement(), state.a_phase, dt,
        cfg._drift(dt), cfg.displacement_profile, _one_body,
    )
    return LPState(
        cfg=cfg, t=state.t + dt, phi=WaveField(cfg.grid, phi), rep=rep, a_phase=a_phase, _f=f
    )


def _step_count(t: float, t_final: float, dt: float) -> int:
    """Number of dt steps from t to t_final; ValueError unless a whole number >= 0."""
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if not np.isfinite((t_final - t) / dt):
        raise ValueError(f"no finite step count from t {t} to t_final {t_final} at dt {dt}")
    n_steps = int(round((t_final - t) / dt))
    if n_steps < 0:
        raise ValueError(f"t_final {t_final} lies behind t {t} in the direction of dt {dt}")
    if not abs(t + n_steps * dt - t_final) <= 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("t_final must be an integer number of steps away")
    return n_steps


def _march(state, t_final: float, dt: float, advance, sample_interval: float | None = None):
    """Yield ``state``, then every sampled ``advance(state, dt)`` up to t_final (always the last).

    The sample interval is a length of time: a march backwards (dt < 0) samples
    every |sample_interval / dt| steps too.
    """
    n_steps = _step_count(state.t, t_final, dt)
    stride = max(1, int(round(abs((sample_interval or t_final) / dt))))
    yield state
    for i in range(1, n_steps + 1):
        state = advance(state, dt)
        if i % stride == 0 or i == n_steps:
            yield state


def evolve(state: LPState, t_final: float, dt: float, sample_interval: float | None = None):
    """March to t_final, returning sampled states (always includes first/last)."""
    return list(_march(state, t_final, dt, step, sample_interval))


def df_error_integral(states, defect) -> float:
    """Trapezoid accumulation of int ||P(u)^perp H u|| ds along a trajectory.

    ``defect`` maps an LPState to the tangential defect norm (supplied by the
    truncated-space simulator). Nondecreasing in the trajectory length.
    """
    if len(states) < 2:
        return 0.0
    total = 0.0
    values = [float(defect(s)) for s in states]
    for a, b, va, vb in zip(states, states[1:], values, values[1:]):
        total += 0.5 * (va + vb) * (b.t - a.t)
    return total
