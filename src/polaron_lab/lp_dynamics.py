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

Stacks. ``evolve_stack`` marches states that differ only in alpha as one
stack: the arrays gain a leading coupling axis, phi as (couplings,
*grid.shape) and P, Q, P0, Q0 and f as (couplings, *half shape), and the
per-coupling scalars F and a become tuples with one entry per row. The grid
transforms, the drift and the potential and displacement maps act on the
trailing grid axes. The scalar arithmetic of a step (the rotation angles, the
increments of F and the phase) stays in Python floats, one coupling at a time,
exactly as for one state, and reaches the arrays as a column per quantity; a
config is the stack of one with the same hooks (``_rows``, ``_columns``,
``_packed``, ``_unpacked``). Its inner products are ``np.vdot`` of each row,
all rows in one ``np.vecdot`` over the grid axes (``_row_inner``), which gives
np.vdot's bits. So each row equals its own march bit for bit. The pitfall is
complex multiplication: numpy's complex multiply rounds differently from
Python's, and its ``a*b`` from its ``b*a``, so the phase update stays a Python
complex product per coupling, and every complex array product keeps its
operand order (see Operand order below). Per-(config, h) constants, the drift
of a dt and each representation's half-step factors, are made once and kept
(``_kept``).

On the ring a step's cost is numpy's per-call overhead, not its arithmetic:
each of its 40 or so numpy calls on 2 x 8 numbers costs a few tenths of a
microsecond to 2 microseconds, and the Python between them as much again. So
the step calls numpy's pocketfft gufuncs without np.fft's wrappers
(spectral_core's one-axis transforms), and stacking pays. On the 8-site Fock
ring (alpha 1 and 8, 1250 steps of 2e-3, one thread, a shared 2-vCPU host,
medians of 8 runs alternated in one process, two processes each) the stack
took 84 ms (67 us a step) against 139 ms for the two states' step loops. With
np.fft's wrappers, a np.vdot call per row and product, and the half-step
factors made at every call, they read 116 ms (93 us) against 179 ms. A stack
of one costs 1.07 to 1.20 times its step loop on rings of 8 and 32 sites and
0.97 to 1.10 at 32^3 (one thread, medians of 7 alternated runs, four runs of
each), so ``evolve`` marches one state through ``step`` unstacked.

Coupling maps. f = v rhohat, the label potential's multiplier and the
weighted inner product ``_row_inner`` are spectral_core's, shared with the pair
flow and the Fock ring. A config looks ``_half_displacement`` and
``_half_potential_multiplier`` up on spectral_core at use, so a patch of either
there reaches ``step``, a stack row and the pair flow; a config makes its
multiplier at first use and keeps it, so such a patch must come before that.

One step does two complex transforms, the drift's fftn and ifftn, and one
real pair: the half-step potential's irfftn and the rfftn of f = v rhohat at
the step's end. The state carries that f, so the next step starts from it
instead of transforming phi again. The drift exp(-i dt k^2) is built once per
(config, dt); only the last dt is kept. The transforms are spectral_core's
grid transforms, numpy's bits on scipy's n-d kernel on a 3d grid and on
numpy's own pocketfft gufuncs on the ring.

Workspace. A step writes its transients into scratch memory that its config (or
a stack's ``_Couplings``) owns, a ``_Workspace`` made at first use and sized
from the arrays it serves: the phonon half step's weighted f and J = P - P0
(the oscillator's P_p and P - P_p), the mid-step pair, its Hermitian label, the
potential's spectrum, the kick and the drifted field (transformed in place,
``overwrite_x``), |phi|^2 and f_before + f_after. Transients whose lifetimes do
not overlap share one region of it, as a stack allocator would reuse a freed
block, so a step touches less memory. The rule: transients only. Each is
written before it is read within one call, and no array a state holds (phi, P,
Q, P0, Q0, f) lies in the workspace; those are fresh arrays, and ``step`` hands
its fresh phi to the WaveField frozen instead of copying it. So marches of one
config interleave freely (the lp-evolve verb runs both representations in
lockstep), but two threads must not step one config at once. The workspace dies
with its config. Every ufunc takes ``out=`` with the operands in the order of
the plain expressions it replaces, so the step keeps their bits
(``tests/oracles.py`` holds the plain step as the reference).

Operand order. numpy's complex multiply rounds a*b and b*a differently, so
each complex product is written with one operand order. The drift product
takes the order numpy's temporary elision gave the plain one-field
expression ``drift * fftn(field)``: elision (arrays of 256 KiB and more,
numpy's NPY_MIN_ELIDE_BYTES) wrote the product into the fftn temporary as
``fftn(field) * drift``. So a row of 256 KiB or more (32^3 and up, and the
3d pair flow) takes the spectrum first, and a smaller one the drift first,
for one field and for a stack alike; the bits no longer depend on whether
the interpreter elides.

Step times at 32^3 (box 32, alpha 2, dt 1e-3, one thread, a shared 2-vCPU
host), as medians of 16 blocks of 50 steps alternated in one process with the
same step on the full complex lattice: quadrature 3.44 ms against 4.12 ms,
oscillator 3.08 ms against 5.80 ms. On a slower spell of the host (12 blocks)
they read 5.60 against 6.51 ms and 5.18 against 8.77 ms. With the workspace,
60 blocks of 10 steps of both representations in lockstep (as the lp-evolve
verb runs them), alternated in one process with the plain step, took a
median 3.58 ms a step against 3.90 ms.

The kick as cos + i sin equals the complex exp bit for bit on numpy 2.4.6
(over 1.4e7 arguments of scales 1e-8 to 1e6), but only on the host where that
was checked, so the kick stays ``np.exp``, applied in place.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import spectral_core
from .errors import BlowUpError
from .spectral_core import (
    FormFactor,
    Grid,
    WaveField,
    _fftn,
    _hermitian_fill,
    _hermitian_split,
    _ifftn,
    _irfftn,
    _row_inner,
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
    "evolve_stack",
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

    @cached_property
    def coupling(self) -> float:
        """Prefactor of the interaction term (lam_c)."""
        return 1.0 / self.alpha

    @cached_property
    def frequency(self) -> float:
        """Phonon frequency (omega)."""
        return self.alpha**-2

    @cached_property
    def _potential_multiplier(self) -> np.ndarray:
        """2 lam_c w_k N v(k) on the rfftn half lattice: V = irfftn(multiplier * H(z))."""
        return _frozen(spectral_core._half_potential_multiplier(self.form, self.coupling))

    @cached_property
    def _scratch(self) -> "_Workspace":
        """The scratch regions of this config's steps."""
        return _Workspace()

    def displacement_profile(self, phi_values: np.ndarray) -> np.ndarray:
        """f(k) = v(k) rhohat(k) for the given orbital values, as its rfftn half spectrum."""
        rho = np.abs(phi_values, out=self._scratch("a", phi_values.shape, float))
        return spectral_core._half_displacement(np.square(rho, out=rho), self.form)

    def label_potential(self, p: np.ndarray) -> np.ndarray:
        """V(x) = 2 lam_c Re sum_k w_k v(k) z(k) e^{ikx} (real array) from the rfftn half
        spectrum p of the label's Hermitian part H(z)."""
        spectrum = np.multiply(self._potential_multiplier, p, out=self._scratch("a", p.shape))
        return _irfftn(spectrum, self.grid.shape)

    # A config is the stack of one. The step reads its per-coupling scalars row by row from
    # ``_rows``, puts back a per-row value with ``_packed`` and reads the per-row values of
    # a scalar with ``_unpacked``, and turns per-row tuples of scalars into factors of the
    # arrays with ``_columns``; a _Couplings stack does the same.
    @property
    def _rows(self) -> tuple:
        return (self,)

    @staticmethod
    def _packed(values):
        return values[0]

    _columns = _packed

    @staticmethod
    def _unpacked(value) -> tuple:
        return (value,)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _kept(cfg, make, h: float):
    """``make(cfg, h)``, made at the first call for an h and kept on ``cfg`` (a config or a
    stack) until ``make`` is asked of it for another h: the drift of a step dt and the
    per-row constants of a representation's half step h."""
    kept = cfg.__dict__.setdefault("_kept", {})
    last = kept.get(make)
    if last is None or last[0] != h:
        last = kept[make] = (h, make(cfg, h))
    return last[1]


def _drift(cfg, dt: float) -> np.ndarray:
    """Kinetic multiplier exp(-i dt k^2)."""
    return _frozen(np.exp(-1j * dt * cfg.grid.k_sq))


class _Workspace:
    """Scratch memory for the transients of a config's or a stack's steps, in regions.

    ``ws(region, shape, dtype)`` is an array over the named region's memory, which grows
    to the largest array asked of it; arrays over one region alias. Transients whose
    lifetimes within a step do not overlap share a region, so a step touches less memory
    and finds more of it in cache:

    * "a": the drifted field, |phi|^2, and the half-lattice scratch: the weighted f, the
      product s Q, the potential's spectrum and f_before + f_after;
    * "b": the kick, and within a half step the pair (J_P, J_Q), J = P - P0 (the
      oscillator's P_p);
    * "c": the oscillator's P - P_p within a half step;
    * "p", "q" and "h": the mid-step pair and its Hermitian label.

    A step writes each transient before it reads it within one call, and no array a state
    holds lies in a region. So steps of one config may interleave (the lp-evolve verb
    marches both representations in lockstep), but not run at once from two threads.
    """

    def __init__(self):
        self._memory = {}
        self._views = {}

    def __call__(self, region: str, shape: tuple, dtype=complex) -> np.ndarray:
        try:
            return self._views[region, shape, dtype]
        except KeyError:
            pass
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        memory = self._memory.get(region)
        if memory is None or memory.nbytes < nbytes:
            # a larger region: the arrays over the old memory are dropped with it
            memory = self._memory[region] = np.empty(nbytes, np.uint8)
            self._views = {k: v for k, v in self._views.items() if k[0] != region}
        arr = self._views[region, shape, dtype] = memory[:nbytes].view(dtype).reshape(shape)
        return arr


class _Couplings:
    """The configs of a stack, one per row of its leading axis, and the grid and form they
    share. A per-row value is a tuple, and an array factor a column over the rows."""

    def __init__(self, cfgs):
        self._rows = tuple(cfgs)
        self.grid, self.form = cfgs[0].grid, cfgs[0].form
        self._potential_multiplier = np.stack([c._potential_multiplier for c in cfgs])
        self._scratch = _Workspace()

    def _columns(self, rows) -> np.ndarray:
        """One column over the rows per entry of the rows' tuples, stacked on a first axis."""
        table = np.array(rows).T
        return table.reshape(table.shape + (1,) * self.grid.dim)

    _packed = staticmethod(tuple)

    @staticmethod
    def _unpacked(values):
        return values

    # the config's own maps, which read only the grid, the form, the multiplier and the
    # scratch regions; looked up on LPConfig at each call, so a stack runs what a config runs
    def displacement_profile(self, phi_values: np.ndarray) -> np.ndarray:
        return LPConfig.displacement_profile(self, phi_values)

    def label_potential(self, p: np.ndarray) -> np.ndarray:
        return LPConfig.label_potential(self, p)


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

    @classmethod
    def stacked(cls, reps):
        return cls(np.stack([r.p for r in reps]), np.stack([r.q for r in reps]))

    def row(self, i: int):
        return OscillatorRep(self.p[i], self.q[i])

    def label(self, cfg: LPConfig, t: float) -> np.ndarray:
        return _full_label(cfg, self.p, self.q)

    def hermitian_label(self, cfg: LPConfig, t: float, out=None) -> np.ndarray:
        return self.p

    @staticmethod
    def _constants(cfg, h: float) -> tuple:
        """The factors (-lam_c/omega, cos omega h, sin omega h) of a half step h."""
        rows = [
            (-c.coupling / c.frequency, math.cos(c.frequency * h), math.sin(c.frequency * h))
            for c in cfg._rows
        ]
        return tuple(cfg._columns(rows))

    def stepped(self, cfg: LPConfig, t: float, h: float, f_drive: np.ndarray, out=(None, None)):
        """Exact rotation of (P - P_p, Q) by omega h about the driven fixed point
        P_p = -(lam_c/omega) f, drive frozen; the new pair is written into ``out`` (fresh
        arrays for None)."""
        drive, c, s = _kept(cfg, OscillatorRep._constants, h)
        shape = self.p.shape
        p_fixed = np.multiply(drive, f_drive, out=cfg._scratch("b", shape))
        dp = np.subtract(self.p, p_fixed, out=cfg._scratch("c", shape))
        # P = P_p + c dP + s Q and Q = c Q - s dP; p_fixed and dp hold s Q and s dP once spent
        p = np.multiply(c, dp, out=out[0])
        np.add(p_fixed, p, out=p)
        np.add(p, np.multiply(s, self.q, out=p_fixed), out=p)
        q = np.multiply(c, self.q, out=out[1])
        np.subtract(q, np.multiply(s, dp, out=dp), out=q)
        return OscillatorRep(p, q)


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

    @classmethod
    def stacked(cls, reps):
        """The reps' arrays on a leading coupling axis, F as a tuple."""
        p, q, p0, q0 = (np.stack([getattr(r, n) for r in reps]) for n in ("p", "q", "p0", "q0"))
        return cls(p, q, p0, q0, tuple(r.f_acc for r in reps))

    def row(self, i: int):
        return QuadratureRep(self.p[i], self.q[i], self.p0[i], self.q0[i], self.f_acc[i])

    def label(self, cfg: LPConfig, t: float) -> np.ndarray:
        return np.exp(-1j * cfg.frequency * t) * _full_label(cfg, self.p, self.q)

    def hermitian_label(self, cfg: LPConfig, t: float, out=None) -> np.ndarray:
        """H(e^{-i omega t}(P + iQ)) = cos(omega t) P + sin(omega t) Q, written into ``out``
        (a fresh array for None)."""
        rows = [(math.cos(c.frequency * t), math.sin(c.frequency * t)) for c in cfg._rows]
        c, s = cfg._columns(rows)
        h = np.multiply(c, self.p, out=out)
        return np.add(h, np.multiply(s, self.q, out=cfg._scratch("a", self.q.shape)), out=h)

    def memory(self, cfg: LPConfig) -> np.ndarray:
        """The memory integral J_t on the full lattice."""
        return _full_label(cfg, self.p - self.p0, self.q - self.q0)

    @staticmethod
    def _constants(cfg, h: float) -> list:
        """Per row (omega, lam_c, -lam_c/omega, -lam_c^2/omega, h - sin(omega h)/omega), the
        constants of a half step h."""
        return [
            (om, lam, -lam / om, -(lam**2 / om), h - math.sin(om * h) / om)
            for om, lam in ((c.frequency, c.coupling) for c in cfg._rows)
        ]

    def stepped(self, cfg: LPConfig, t: float, h: float, f_drive: np.ndarray, out=(None, None)):
        """The pair and F after h with the drive frozen at f; the new pair is written into
        ``out`` (fresh arrays for None)."""
        # dF/ds = lam * Re[e^{-i om s} <f, J_s>_w]; J(s) analytic for frozen f. For Hermitian
        # f, <f, J>_w = <f, J_P>_w + i <f, J_Q>_w with both inner products real: three
        # weighted inner products that share one weighting of f, of each row of the pair
        # (J_P, J_Q) and of f
        ws, shape, dim = cfg._scratch, self.p.shape, cfg.grid.dim
        weighted = np.multiply(cfg.grid.half_weight, f_drive, out=ws("a", shape))
        pair = ws("b", (2,) + shape)
        np.subtract(self.p, self.p0, out=pair[0])
        np.subtract(self.q, self.q0, out=pair[1])
        ips, iqs = _row_inner(weighted, pair, dim).reshape(2, -1).tolist()
        fss = _row_inner(weighted, f_drive, dim).reshape(-1).tolist()
        end = t + h
        constants = _kept(cfg, QuadratureRep._constants, h)
        shifts, f_acc = [], []
        for (om, lam, scale, k2, c2), f, ip, iq, fs in zip(
            constants, cfg._unpacked(self.f_acc), ips, iqs, fss
        ):
            dc = math.cos(om * end) - math.cos(om * t)
            ds = math.sin(om * end) - math.sin(om * t)
            term1 = lam * (ip * ds - iq * dc) / om
            # J += -(lam/om) f (e^{i om (t+h)} - e^{i om t}), whose pair is -(lam/om) f (dc, ds)
            shifts.append((scale * dc, scale * ds))
            f_acc.append(f + term1 + k2 * fs * c2)
        shift_p, shift_q = cfg._columns(shifts)
        p = np.multiply(shift_p, f_drive, out=out[0])
        q = np.multiply(shift_q, f_drive, out=out[1])
        np.add(self.p, p, out=p)
        np.add(self.q, q, out=q)
        return QuadratureRep(p, q, self.p0, self.q0, cfg._packed(f_acc))


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
    cfg, grid = state.cfg, state.cfg.grid
    p = state.rep.hermitian_label(cfg, state.t)
    cross = float(_row_inner(p, grid.half_weight * state.displacement(), grid.dim))
    return (
        kinetic_energy(state.phi)
        + cfg.frequency * mode_norm_sq(grid, state.label())
        + cfg.coupling * 2.0 * cross
    )


def _strang_step(cfg: LPConfig, rep, t, values, f_before, a_phase, dt, drift, displacement, lift):
    """Phonon half step, kick-drift-kick, phonon half step, then the phase update.

    The one splitting behind both the one-electron flow (``step``) and the pair
    flow (``npolaron.dfn_evolve``). ``values`` is the electron field on its own
    lattice and ``f_before`` its f(k) as an rfftn half spectrum, ``drift`` the
    kinetic multiplier exp(-i dt k^2) there, ``displacement`` maps values to
    that half f(k), and ``lift`` carries the one-body potential onto the field's
    lattice. Returns (values, rep, a_phase, f) at t + dt; the caller hands f on
    as the next step's ``f_before``. The transients go to the scratch regions
    ``cfg._scratch`` (see ``_Workspace``); the returned arrays are fresh.
    """
    ws, half = cfg._scratch, f_before.shape
    rep_mid = rep.stepped(cfg, t, dt / 2.0, f_before, out=(ws("p", half), ws("q", half)))
    t_mid = t + dt / 2.0
    p_mid = rep_mid.hermitian_label(cfg, t_mid, ws("h", half))
    kick = np.multiply(-0.5j * dt, lift(cfg.label_potential(p_mid)), out=ws("b", values.shape))
    np.exp(kick, out=kick)
    new = np.multiply(kick, _drifted(np.multiply(kick, values, out=ws("a", values.shape)), drift))
    if not np.isfinite(new).all():
        raise BlowUpError("electron field became non-finite", last_valid_time=t)

    f_after = displacement(new)
    rep_new = rep_mid.stepped(cfg, t_mid, dt / 2.0, f_after)
    # 2 Re <z_mid, (f_before + f_after)/2>_w, and Re <z, f>_w = <H(z), f>_w for Hermitian f,
    # one weighted inner product of a row each (the weighting done once, in place)
    f_sum = np.add(f_before, f_after, out=ws("a", half))
    np.multiply(cfg.grid.half_weight, f_sum, out=f_sum)
    inner = _row_inner(p_mid, f_sum, cfg.grid.dim).reshape(-1).tolist()
    # Python complex arithmetic, one coupling at a time: numpy's complex multiply rounds
    # differently from Python's
    a_new = cfg._packed([
        a * cmath.exp(1j * dt * c.coupling * x)
        for c, a, x in zip(cfg._rows, cfg._unpacked(a_phase), inner)
    ])
    return new, rep_new, a_new, f_after


# numpy's NPY_MIN_ELIDE_BYTES: from this size on, numpy's temporary elision computed the
# drift product of the plain expression drift * fftn(field) as fftn(field) * drift
_ELIDE_BYTES = 256 * 1024


def _drifted(values: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """ifftn(drift * fftn(values)) over the drift's axes, the trailing ones of a stack,
    computed in place of ``values``, a complex128 array.

    numpy's complex multiply rounds a*b and b*a differently. The product takes the operand
    order numpy's elision gave the plain one-field expression: the spectrum first for rows
    (the drift's shape and dtype) of 256 KiB or more, the drift first below that.
    """
    spectrum = _fftn(values, drift.ndim, overwrite_x=True)
    if drift.nbytes >= _ELIDE_BYTES:
        np.multiply(spectrum, drift, out=spectrum)
    else:
        np.multiply(drift, spectrum, out=spectrum)
    return _ifftn(spectrum, drift.ndim, overwrite_x=True)


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
        _kept(cfg, _drift, dt), cfg.displacement_profile, _one_body,
    )
    return LPState(
        cfg=cfg, t=state.t + dt, phi=WaveField(cfg.grid, _frozen(phi)), rep=rep, a_phase=a_phase,
        _f=f,
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


class _Stack(NamedTuple):
    """The raw arrays of a stack of LP states at one time, one row per coupling."""

    t: float
    values: np.ndarray
    rep: object
    a_phase: tuple
    f: np.ndarray


def evolve_stack(states, t_final: float, dt: float, sample_interval: float | None = None):
    """``evolve`` of each state, marched as one stack: one list of sampled states per state.

    The states may differ only in alpha. They must share a grid (GridMismatchError), and a
    form factor, a representation and a start time (ValueError), all checked before any
    step. Each row's samples equal its own ``evolve`` bit for bit.
    """
    first = states[0]
    for other in states[1:]:
        first.cfg.grid.require_same(other.cfg.grid)
        if not np.array_equal(first.cfg.form.values, other.cfg.form.values):
            raise ValueError("stacked states must share one form factor")
        if type(other.rep) is not type(first.rep):
            raise ValueError("stacked states must share one representation")
        if other.t != first.t:
            raise ValueError(f"stacked states must share one start time: {first.t} vs {other.t}")
    cfgs = [s.cfg for s in states]
    couplings = _Couplings(cfgs)
    drift = _kept(first.cfg, _drift, dt)

    def advance(stack, dt):
        values, rep, a_phase, f = _strang_step(
            couplings, stack.rep, stack.t, stack.values, stack.f, stack.a_phase, dt, drift,
            couplings.displacement_profile, _one_body,
        )
        return _Stack(stack.t + dt, values, rep, a_phase, f)

    start = _Stack(
        first.t,
        np.stack([s.phi.values for s in states]),
        type(first.rep).stacked([s.rep for s in states]),
        tuple(s.a_phase for s in states),
        np.stack([s.displacement() for s in states]),
    )
    samples = [
        [
            LPState(cfg, stack.t, WaveField(cfg.grid, stack.values[i]), stack.rep.row(i),
                    stack.a_phase[i], _f=stack.f[i])
            for i, cfg in enumerate(cfgs)
        ]
        for stack in _march(start, t_final, dt, advance, sample_interval)
    ]
    return [list(trajectory) for trajectory in zip(*samples)]


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
