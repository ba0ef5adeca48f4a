"""Independent radial reference solver for the ground-state energy.

Solves the spherically-symmetric problem on a fine radial finite-difference
grid with a self-consistent-field loop, deliberately sharing no code with the
periodic-lattice machinery: different discretization, different geometry,
different algorithm. Used as the acceptance oracle for the 3d minimizer.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError

__all__ = ["radial_ground_state", "radial_newton_potential", "radial_truncated_potential"]


def _prefix(vals, dr):
    return np.concatenate(([0.0], np.cumsum(vals) * dr))


def _interp(prefix, grid_r, s):
    return np.interp(s, np.concatenate(([0.0], grid_r)), prefix)


def radial_newton_potential(u, r, dr):
    """V(r) = -(Q(r)/r + int_r^R u^2/s ds) for the full 1/r kernel."""
    q = np.cumsum(u**2) * dr
    tail = np.concatenate(([0.0], np.cumsum((u**2 / r)[::-1])))[::-1][1:] * dr
    return -(q / r + tail)


def radial_truncated_potential(u, r, dr, r_cut):
    """Angle-averaged potential of the kernel 1/t * [t < r_cut].

    V(r) = -(1/2r) int [min(r+s, rc) - |r-s|]_+ u(s)^2/s ds via prefix sums;
    the plain Newton formula is recovered as r_cut -> infinity.
    """
    p0 = _prefix(u**2, dr)
    p1 = _prefix(u**2 / r, dr)
    rc = r_cut
    a = np.clip(rc - r, 0.0, None)

    def seg(p, lo, hi):
        lo = np.asarray(np.broadcast_to(lo, r.shape), dtype=float)
        hi = np.asarray(np.broadcast_to(hi, r.shape), dtype=float)
        out = _interp(p, r, np.clip(hi, 0.0, r[-1])) - _interp(p, r, np.clip(lo, 0.0, r[-1]))
        return np.where(hi > lo, out, 0.0)

    newton = 2.0 * seg(p0, 0.0, np.minimum(r, a)) + 2.0 * r * seg(p1, r, a)
    lo1 = np.maximum(a, r - rc)
    b1 = (rc - r) * seg(p1, lo1, r) + seg(p0, lo1, r)
    lo2 = np.maximum(a, r)
    b2 = (rc + r) * seg(p1, lo2, r + rc) - seg(p0, lo2, r + rc)
    return -(newton + b1 + b2) / (2.0 * r)


@lru_cache(maxsize=32)
def radial_ground_state(
    g: float,
    r_cut: float | None = None,
    r_max: float = 60.0,
    n: int = 12000,
    max_iter: int = 300,
    mix: float = 0.5,
    tol: float = 1e-12,
):
    """Self-consistent radial solve of (-d^2/dr^2 + 2 g V[u]) u = lam u.

    Returns the read-only (cached) mapping {"E", "T", "D", "lam"}, E = T - g D.
    ``r_cut`` selects the sphere-truncated interaction; None means the full 1/r
    kernel. Raises ConvergenceError if ``max_iter`` passes without settling.
    """
    dr = r_max / n
    r = dr * np.arange(1, n + 1)
    u = r * np.exp(-r / 3.0)
    u /= np.sqrt(np.sum(u**2) * dr)
    diag_kin = np.full(n, 2.0) / dr**2
    off = np.full(n - 1, -1.0) / dr**2
    e_prev = np.inf
    energy = d = lam = 0.0
    for _ in range(max_iter):
        if r_cut is None:
            v = radial_newton_potential(u, r, dr)
        else:
            v = radial_truncated_potential(u, r, dr, r_cut)
        w, vec = eigh_tridiagonal(diag_kin + 2.0 * g * v, off, select="i", select_range=(0, 0))
        u_new = np.abs(vec[:, 0])
        u_new /= np.sqrt(np.sum(u_new**2) * dr)
        u = mix * u_new + (1.0 - mix) * u
        u /= np.sqrt(np.sum(u**2) * dr)
        d = -np.sum(v * u**2) * dr
        lam = float(w[0])
        energy = lam + g * d
        if abs(energy - e_prev) < tol:
            break
        e_prev = energy
    else:
        raise ConvergenceError(f"radial SCF not settled to {tol} in {max_iter} iterations")
    return MappingProxyType({"E": energy, "T": energy + g * d, "D": d, "lam": lam})
