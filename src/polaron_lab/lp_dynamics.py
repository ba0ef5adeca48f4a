"""Coupled electron/phonon effective dynamics (nonlinear Schroedinger + memory).

The evolved system, in the strong-coupling units (lam_c, omega) = (1/alpha,
1/alpha^2) of the Schroedinger-Poisson limit of the Froehlich model:

    i dphi/dt = (-Lap + V_z) phi
    dz/dt     = -i omega z - i lam_c f,      f(k) = v(k) rhohat(k)
    a(t)      = exp( i lam_c int_0^t 2 Re <z, f>_w ds )

with the potential generated by the phonon labels

    V_z(x) = 2 lam_c Re sum_k w_k v(k) z(k) e^{ikx}.

The stationary polaron data is z = -(lam_c/omega) f = -alpha f.

State layout. v is real and even in k and rho is real, so f is the spectrum
of a real field: Hermitian, f(-k) = conj f(k). A label is written z = P + iQ
with P and Q Hermitian, a split that is exact for any complex z, and P, Q and
f are held as rfftn half spectra (spectral_core's ``_hermitian_split`` and
``_hermitian_fill``). The potential needs only P = H(z), the Hermitian part:
V_z = 2 lam_c w N irfftn(v P). The phase uses Re <z, f>_w = <P, f>_w, a
weighted sum over the half lattice. The label equation splits into the real
pair dP/dt = omega Q, dQ/dt = -omega P - lam_c f, so each phonon half step
updates half-size arrays by real scalars. Two interchangeable phonon
representations hold the pair:

* OscillatorRep keeps the lab-frame pair (P, Q) and rotates (P - P_p, Q) by
  omega h about the driven fixed point P_p = -(lam_c/omega) f;
* QuadratureRep keeps the rotating-frame pair (P~, Q~) of z0 + J, the pair of
  z0 and the phase accumulator F,

      z(t) = e^{-i omega t} (z0 + J_t),   H(z(t)) = cos(omega t) P~ + sin(omega t) Q~,
      J_t  = -i lam_c int_0^t e^{i omega s} f_s ds,
      F_t  = lam_c int_0^t Re[ e^{-i omega s} <f_s, J_s>_w ] ds,

  with both integrals accumulated exactly for drive held constant over each
  substep (never re-integrated from zero).

Both carry z on every mode, also where v(k) = 0. ``initial_state``,
``from_label`` and ``label()`` take and return the full-lattice z. States are
immutable snapshots; a step returns a new state.

One step does two complex transforms, the drift's fftn and ifftn, and one
real pair: the half-step potential's irfftn and the rfftn of f = v rhohat at
the step's end. The state carries that f, so the next step starts from it
instead of transforming phi again. The drift exp(-i dt k^2) is built once per
(config, dt); only the last dt is kept. The transforms are spectral_core's
grid transforms, numpy's bits on scipy's n-d kernel on a 3d grid.

Step times at 32^3 (box 32, alpha 2, dt 1e-3, one thread, a shared 2-vCPU
host), as medians of 16 blocks of 50 steps alternated in one process with the
same step on the full complex lattice: quadrature 3.44 ms against 4.12 ms,
oscillator 3.08 ms against 5.80 ms. On a slower spell of the host (12 blocks)
they read 5.60 against 6.51 ms and 5.18 against 8.77 ms.

The kick as cos + i sin equals the complex exp bit for bit on numpy 2.4.6
(over 1.4e7 arguments of scales 1e-8 to 1e6) and saves about 0.2 ms of a step
alone, but no time end to end: perfbench ``lp-flow`` read 1.320, 1.349 and
1.327 s with it against 1.344, 1.313 and 1.335 s without, over 3 pairs of
runs; it is not used.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _fftn,
    _half_displacement,
    _half_inner,
    _half_potential,
    _hermitian_fill,
    _hermitian_split,
    _ifftn,
    kinetic_energy,
    mode_norm_sq,
)

__all__ = [
    "LPConfig",
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


@dataclass(frozen=True)
class LPConfig:
    grid: Grid
    form: FormFactor
    alpha: float

    def __post_init__(self):
        self.grid.require_same(self.form.grid)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def coupling(self) -> float:
        """Prefactor of the interaction term (lam_c)."""
        return 1.0 / self.alpha

    @property
    def frequency(self) -> float:
        """Phonon frequency (omega)."""
        return self.alpha**-2

    def displacement_profile(self, phi_values: np.ndarray) -> np.ndarray:
        """f(k) = v(k) rhohat(k) for the given orbital values, as its rfftn half spectrum."""
        return _half_displacement(np.abs(phi_values) ** 2, self.form)

    def label_potential(self, p: np.ndarray) -> np.ndarray:
        """V(x) = 2 lam_c Re sum_k w_k v(k) z(k) e^{ikx} (real array) from the rfftn half
        spectrum p of the label's Hermitian part H(z)."""
        return _half_potential(p, self.form, self.coupling)

    def _drift(self, dt: float) -> np.ndarray:
        """Kinetic multiplier exp(-i dt k^2); only the last dt's is kept."""
        last = self.__dict__.get("_last_drift")
        if last is None or last[0] != dt:
            last = (dt, _frozen(np.exp(-1j * dt * self.grid.k_sq)))
            self.__dict__["_last_drift"] = last
        return last[1]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def stationary_label(cfg: LPConfig, f: np.ndarray) -> np.ndarray:
    """Fixed point of the label equation: z = -(lam_c/omega) f."""
    return -(cfg.coupling / cfg.frequency) * np.asarray(f, dtype=complex)


def _full_label(cfg: LPConfig, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P + iQ on the full lattice from the rfftn halves of the Hermitian pair."""
    return _hermitian_fill(p, cfg.grid.shape) + 1j * _hermitian_fill(q, cfg.grid.shape)


@dataclass(frozen=True)
class OscillatorRep:
    """Phonon state as the lab-frame Hermitian pair of the label, z = P + iQ (rfftn halves).

    P is the potential's field and omega Q its velocity.
    """

    p: np.ndarray
    q: np.ndarray

    @classmethod
    def from_label(cls, cfg: LPConfig, z: np.ndarray):
        return cls(*_hermitian_split(np.asarray(z, dtype=complex)))

    def label(self, cfg: LPConfig, t: float) -> np.ndarray:
        return _full_label(cfg, self.p, self.q)

    def hermitian_label(self, cfg: LPConfig, t: float) -> np.ndarray:
        return self.p

    def stepped(self, cfg: LPConfig, t: float, h: float, f_drive: np.ndarray):
        """Exact rotation of (P - P_p, Q) by omega h about the driven fixed point
        P_p = -(lam_c/omega) f, drive frozen."""
        om = cfg.frequency
        p_fixed = (-cfg.coupling / om) * f_drive
        c, s = math.cos(om * h), math.sin(om * h)
        dp = self.p - p_fixed
        return OscillatorRep(p=p_fixed + c * dp + s * self.q, q=c * self.q - s * dp)


@dataclass(frozen=True)
class QuadratureRep:
    """Phonon state in the rotating frame: the Hermitian pair (P, Q) of z0 + J, the pair
    (P0, Q0) of z0 (rfftn halves) and the phase accumulator F."""

    p: np.ndarray
    q: np.ndarray
    p0: np.ndarray
    q0: np.ndarray
    f_acc: float  # the accumulated scalar F(t)

    @classmethod
    def from_label(cls, cfg: LPConfig, z: np.ndarray):
        p, q = _hermitian_split(np.asarray(z, dtype=complex))
        return cls(p, q, p, q, 0.0)

    def label(self, cfg: LPConfig, t: float) -> np.ndarray:
        return np.exp(-1j * cfg.frequency * t) * _full_label(cfg, self.p, self.q)

    def hermitian_label(self, cfg: LPConfig, t: float) -> np.ndarray:
        """H(e^{-i omega t}(P + iQ)) = cos(omega t) P + sin(omega t) Q."""
        wt = cfg.frequency * t
        return math.cos(wt) * self.p + math.sin(wt) * self.q

    def memory(self, cfg: LPConfig) -> np.ndarray:
        """The memory integral J_t on the full lattice."""
        return _full_label(cfg, self.p - self.p0, self.q - self.q0)

    def stepped(self, cfg: LPConfig, t: float, h: float, f_drive: np.ndarray):
        om, lam = cfg.frequency, cfg.coupling
        dc = math.cos(om * (t + h)) - math.cos(om * t)
        ds = math.sin(om * (t + h)) - math.sin(om * t)
        # dF/ds = lam * Re[e^{-i om s} <f, J_s>_w]; J(s) analytic for frozen f. For Hermitian
        # f, <f, J>_w = <f, J_P>_w + i <f, J_Q>_w with both inner products real
        # (three _half_inner products that share one weighting of f)
        weighted = cfg.grid.half_weight * f_drive
        inner_p = np.vdot(weighted, self.p - self.p0).real
        inner_q = np.vdot(weighted, self.q - self.q0).real
        term1 = lam * (inner_p * ds - inner_q * dc) / om
        fsq = np.vdot(weighted, f_drive).real
        term2 = -(lam**2 / om) * fsq * (h - math.sin(om * h) / om)
        # J += -(lam/om) f (e^{i om (t+h)} - e^{i om t}), whose pair is -(lam/om) f (dc, ds)
        scale = -lam / om
        return QuadratureRep(
            self.p + (scale * dc) * f_drive,
            self.q + (scale * ds) * f_drive,
            self.p0,
            self.q0,
            self.f_acc + term1 + term2,
        )


@dataclass(frozen=True)
class LPState:
    cfg: LPConfig
    t: float
    phi: WaveField
    rep: object
    a_phase: complex = 1.0 + 0.0j
    # f = v rhohat of phi, as its rfftn half spectrum: handed on by the step that made phi,
    # computed from phi otherwise
    _f: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f = self.cfg.displacement_profile(self.phi.values) if self._f is None else self._f
        object.__setattr__(self, "_f", _frozen(f))

    def label(self) -> np.ndarray:
        return self.rep.label(self.cfg, self.t)

    def potential(self) -> np.ndarray:
        return self.cfg.label_potential(self.rep.hermitian_label(self.cfg, self.t))

    def displacement(self) -> np.ndarray:
        """f = v rhohat of phi, as its rfftn half spectrum."""
        return self._f


def initial_state(
    cfg: LPConfig, phi0: WaveField, z0: np.ndarray | None = None, rep: str = "quadrature"
) -> LPState:
    """The state at t = 0 from the orbital phi0 (normalized here) and the phonon label
    z0 (zero when not given), in the ``"quadrature"`` or ``"oscillator"`` representation."""
    cfg.grid.require_same(phi0.grid)
    if z0 is None:
        z0 = np.zeros(cfg.grid.shape, dtype=complex)
    if rep == "quadrature":
        phonons = QuadratureRep.from_label(cfg, z0)
    elif rep == "oscillator":
        phonons = OscillatorRep.from_label(cfg, z0)
    else:
        raise ValueError(f"unknown representation {rep!r}")
    return LPState(cfg=cfg, t=0.0, phi=phi0.normalized(), rep=phonons, a_phase=1.0 + 0.0j)


def df_energy(state: LPState) -> float:
    """Conserved product-state energy T + omega ||z||^2 + lam_c 2 Re <z, f>."""
    cfg = state.cfg
    p = state.rep.hermitian_label(cfg, state.t)
    return (
        kinetic_energy(state.phi)
        + cfg.frequency * mode_norm_sq(cfg.grid, state.label())
        + cfg.coupling * 2.0 * _half_inner(cfg.grid, p, state.displacement())
    )


def _strang_step(cfg: LPConfig, rep, t, values, f_before, a_phase, dt, drift, displacement, lift):
    """Phonon half step, kick-drift-kick, phonon half step, then the phase update.

    The one splitting behind both the one-electron flow (``step``) and the pair
    flow (``npolaron.dfn_evolve``). ``values`` is the electron field on its own
    lattice and ``f_before`` its f(k) as an rfftn half spectrum, ``drift`` the
    kinetic multiplier exp(-i dt k^2) there, ``displacement`` maps values to
    that half f(k), and ``lift`` carries the one-body potential onto the field's
    lattice. Returns (values, rep, a_phase, f) at t + dt; the caller hands f on
    as the next step's ``f_before``.
    """
    rep_mid = rep.stepped(cfg, t, dt / 2.0, f_before)
    t_mid = t + dt / 2.0
    p_mid = rep_mid.hermitian_label(cfg, t_mid)
    kick = np.exp(-0.5j * dt * lift(cfg.label_potential(p_mid)))
    new = kick * values
    new = _ifftn(drift * _fftn(new))
    # kept apart from the transform: numpy would multiply into the ifftn temporary in
    # place, which swaps the complex product's operands and changes its rounding
    new = kick * new
    if not np.all(np.isfinite(new)):
        raise BlowUpError("electron field became non-finite", last_valid_time=t)

    f_after = displacement(new)
    rep_new = rep_mid.stepped(cfg, t_mid, dt / 2.0, f_after)
    # 2 Re <z_mid, (f_before + f_after)/2>_w, and Re <z, f>_w = <H(z), f>_w for Hermitian f
    field_expectation = _half_inner(cfg.grid, p_mid, f_before + f_after)
    a_new = a_phase * cmath.exp(1j * dt * cfg.coupling * field_expectation)
    return new, rep_new, a_new, f_after


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


def _sample_stride(sample_interval: float, dt: float) -> int:
    """Steps per sample, |sample_interval / dt|; ValueError unless a whole number >= 1."""
    stride = _step_count(0.0, abs(sample_interval), abs(dt))
    if stride == 0:
        raise ValueError(f"sample_interval {sample_interval} is shorter than the step {dt}")
    return stride


def _march(state, t_final: float, dt: float, advance, sample_interval: float | None = None):
    """Yield ``state``, then every sampled ``advance(state, dt)`` up to t_final (always the last).

    The sample interval is a length of time and a whole number of steps (ValueError
    otherwise): a march backwards (dt < 0) samples every |sample_interval / dt| steps too.
    """
    n_steps = _step_count(state.t, t_final, dt)
    stride = max(n_steps, 1) if sample_interval is None else _sample_stride(sample_interval, dt)
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
