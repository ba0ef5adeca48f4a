#!/usr/bin/env python3
"""Ground state of the polaron functional, step by step.

Minimizes E(phi) = T - g * D(|phi|^2) on a 3d periodic grid, checks the
stationarity identities, and compares the energy against the independent
radial reference solver. At g = 1 the converged energy reproduces the
classic strong-coupling constant -0.108513.
"""

import numpy as np

from polaron_lab import Grid, minimize_pekar, pekar_energy, radial_ground_state
from polaron_lab.spectral_core import mode_norm_sq

grid = Grid(dim=3, points_per_axis=64, box_length=40.0)
print(f"grid: {grid.points_per_axis}^3, box {grid.box_length}, dx = {grid.dx}")

sol = minimize_pekar(grid, g=1.0, tol=1e-7)
parts = pekar_energy(sol.phi0, sol.g, sol.form)

print(f"\nconverged in {len(sol.energy_history)} energy-decreasing steps")
print(f"E_P      = {sol.e_p:.8f}")
print(f"kinetic  = {parts.kinetic:.8f}")
print(f"hartree  = {parts.hartree:.8f}   (virial: g*D = 2T up to the box tail)")
print(f"lambda   = {sol.lam:.8f}")
print(f"mu       = {sol.mu:.8f}")
print(f"residual = {sol.residual:.2e}")
print(f"gap      = {sol.gap:.5f}  (lowest mean-field level is isolated)")

# identities carried by the solution
fsq = mode_norm_sq(grid, sol.f)
print(f"\nE_P - (lambda - mu)      = {sol.e_p - (sol.lam - sol.mu):+.2e}")
print(f"||f||^2 - D/2            = {fsq - parts.hartree / 2:+.2e}")
print(f"virial |gD - 2T| / gD    = {parts.virial_defect:.2e}")

oracle = radial_ground_state(1.0)
print(f"\nradial reference E       = {oracle['E']:.8f}")
print(f"relative deviation       = {abs(sol.e_p - oracle['E']) / abs(oracle['E']):.2e}")

# dilation law: doubling the coupling quadruples the energy (and halves the size)
half_box = Grid(3, 64, 20.0)
sol2 = minimize_pekar(half_box, g=2.0, tol=1e-7, compute_gap=False)
print(f"\nE_P(g=2) / E_P(g=1)      = {sol2.e_p / sol.e_p:.6f}  (dilation law: 4)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    r = grid.x_axis_centered
    mid = grid.points_per_axis // 2
    prof = np.roll(sol.phi0.values.real, mid, axis=(0,))[:, 0, 0]
    plt.figure(figsize=(6, 4))
    plt.plot(np.roll(r, mid), np.roll(prof, 0), lw=2)
    plt.xlabel("x")
    plt.ylabel("phi(x, 0, 0)")
    plt.title("polaron orbital through the origin")
    plt.tight_layout()
    plt.savefig("ground_state_profile.png", dpi=150)
    print("\nwrote ground_state_profile.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the profile plot)")
