#!/usr/bin/env python3
"""Exact checks on the truncated (ring x phonon-occupation) space.

Builds the toy-chain Hamiltonian, verifies the tangent-projector algebra and
the rotated-frame identity residuals, runs the operator-bound suite, and
confirms the variational ordering between the true ground state and the best
product state.
"""

import numpy as np

from polaron_lab import (
    FockBasis,
    FockConfig,
    assemble,
    discrete_pekar,
    ground_state,
    inequality_suite,
    projector_identities,
)

config = FockConfig(
    n_sites=16,
    box_length=16.0,
    mode_numbers=(1, -1, 2, -2, 3, -3),
    v0=0.05,
    n_max=3,
)
ops = assemble(FockBasis(config), alpha=2.0)
print(f"total dimension: {ops.basis.dim_total} "
      f"({config.n_sites} sites x {ops.basis.n_occ} occupations)")
print(f"hermiticity defect: {ops.hermiticity_defect():.2e}")

pek = discrete_pekar(ops.basis, ops.alpha)
print(f"\nbest product state: E = {pek.energy:.8f} "
      f"(electron residual {pek.electron_residual:.1e}, "
      f"phonon residual {pek.phonon_residual:.1e})")

e_f, gs = ground_state(ops)
print(f"true ground state:  E = {e_f:.8f}")
print(f"variational ordering E_F <= E_product: {e_f <= pek.energy}")

rng = np.random.default_rng(0)
proj = projector_identities(ops, pek, rng)
print("\ntangent-projector residuals (all exact on the truncated space):")
for name, value in proj.items():
    print(f"  {name:28s} {value:.2e}")

print("\noperator-bound suite over alpha in (1, 2, 4):")
# the suite's bound and conjugation checks run at its first alpha, the alpha of ops above
rep = inequality_suite(config, alphas=(2.0, 1.0, 4.0), rng=rng, n_random=500)
print(f"  annihilator bounds hold: {rep['annihilator_bounds_hold']} "
      f"(worst ratio {max(rep['annihilator_bound_ratios']):.3f})")
print(f"  conjugation residuals:   {max(rep['conjugation_residuals'].values()):.2e}")
print(f"  two-sided bound min eig: {min(rep['two_sided_bound_min_eigs'].values()):.2e}")
print(f"  weighted resolvent norms (converging to an alpha-uniform bound):")
for alpha, value in sorted(rep["resolvent_norms"].items()):
    print(f"    alpha = {alpha}: {value:.6f}")
