#!/usr/bin/env python3
"""Two electrons sharing one phonon cloud: binding against repulsion.

Scans the inter-electron repulsion U, showing enhanced binding (E_2 < 2 E_1)
below the product-ansatz threshold U = 1, then compares the product ansatz
against the full pair wavefunction on a shared tiny grid, and finally checks
that a converged pair minimizer is a fixed point of the coupled dynamics.
"""

import numpy as np

from polaron_lab import Grid, PTConfig, binding_scan, dfn_evolve, minimize_pt
from polaron_lab.spectral_core import FormFactor

grid = Grid(3, 32, 32.0)
print("repulsion scan (product ansatz, N = 2):")
for row in binding_scan(PTConfig(2, 0.0, grid), [0.0, 0.25, 0.5, 1.0])[1]:
    marker = "bound" if row["bound"] else "unbound"
    print(f"  U = {row['U']:<5}: E_2 = {row['E_N']:+.6f}   2 E_1 = {row['N_E_single']:+.6f}   {marker}")

print("\nproduct ansatz vs full pair wavefunction (shared 8^3 grid, U = 0.5):")
small = Grid(3, 8, 12.0)
prod = minimize_pt(PTConfig(2, 0.5, small), tol=1e-8)
full = minimize_pt(PTConfig(2, 0.5, small, statistics="full_two_body"), tol=1e-7)
print(f"  E_product = {prod.e_n:+.6f}")
print(f"  E_full    = {full.e_n:+.6f}   (variational: full <= product)")

print("\npair dynamics from the converged minimizer (1d toy, alpha = 2):")
ring = Grid(1, 32, 16.0)
form = FormFactor.toy(ring, 0.3)
cfg = PTConfig(2, 0.5, ring, statistics="full_two_body", form=form)
sol = minimize_pt(cfg, tol=1e-9)
samples = dfn_evolve(cfg, sol.pair, alpha=2.0, t_final=5.0, dt=1e-3, sample_interval=1.0)
for state in samples:
    overlap = np.sum(np.conj(state.pair) * sol.pair) * ring.cell_volume**2
    print(f"  t = {state.t:4.1f}: infidelity {1 - abs(overlap):.2e}")
