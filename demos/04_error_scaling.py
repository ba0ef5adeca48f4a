#!/usr/bin/env python3
"""How well does the product-state flow track the exact evolution?

Measures err(t, alpha) = ||psi_exact(t) - u_effective(t)||^2 on the toy chain
for two classes of initial data:

* the stationary product state (expected decay ~ alpha^-2), and
* displaced coherent data evolved with the full effective flow, compared
  via the (J, F) phonon reconstruction (expected decay at least ~ alpha^-1
  and a visibly larger constant).
"""

import numpy as np

from polaron_lab import FockConfig, error_sweep_coherent, error_sweep_stationary
from polaron_lab.fock_sim import FockBasis, _coherent_initial_data

config = FockConfig(n_sites=8, box_length=2.0, mode_numbers=(1, -1, 2, -2), v0=3e-3, n_max=6)
alphas = [1.0, 2.0, 4.0, 8.0]

stationary = error_sweep_stationary(config, alphas, t_final=5.0, n_samples=51)
print("stationary data:")
for a, s in zip(alphas, stationary["sup_errors"]):
    print(f"  alpha = {a:>3.0f}: sup err = {s:.3e}")
print(f"  fitted slope {stationary['slope']:.3f} (R^2 = {stationary['r_squared']:.4f})")
print(f"  bound constant C^ = {stationary['c_hat']:.3e} "
      f"(margin at larger alpha: {stationary['bound_margin']:+.2e})")

# a centred Gaussian orbital (width L/8) and a random displacement with ||g||^2 = 4e-3
phi0, g = _coherent_initial_data(FockBasis(config), np.random.default_rng(42))

coherent = error_sweep_coherent(config, alphas, 5.0, phi0, g, dt=2e-3)
print("\ndisplaced coherent data (non-minimizer orbital):")
for a, s in zip(alphas, coherent["sup_errors"]):
    print(f"  alpha = {a:>3.0f}: sup err = {s:.3e}")
print(f"  fitted slope {coherent['slope']:.3f}")
print(f"\nseparation: coherent slope {coherent['slope']:.2f} > "
      f"stationary slope {stationary['slope']:.2f} "
      f"or larger constant ({coherent['intercept']:.1f} vs {stationary['intercept']:.1f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.loglog(alphas, stationary["sup_errors"], "o-", label="stationary data")
    ax.loglog(alphas, coherent["sup_errors"], "s-", label="coherent data")
    ax.loglog(alphas, [stationary["sup_errors"][0] * (alphas[0] / a) ** 2 for a in alphas],
              "k--", lw=1, label="alpha^-2 guide")
    ax.set_xlabel("coupling alpha")
    ax.set_ylabel("sup_t err(t, alpha)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("error_scaling.png", dpi=150)
    print("\nwrote error_scaling.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
