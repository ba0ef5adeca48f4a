"""Desk-scale acceptance suite: one callable check per shipped guarantee.

Each check returns a CheckResult with status "pass"/"fail", a details dict of
the measured numbers, and (where applicable) "expected-defect" sub-items:
quantities whose stated target is unreachable for structural reasons that are
documented in the repository notes, reported with their measured values
rather than silently weakened. The full-acceptance runner scenario executes
every check and exits nonzero if any gated assertion fails.

Two presets: "desk" (the real tolerances and sizes) and "quick" (tiny
versions of the same pipelines, used for the byte-identical determinism
double run).
"""

from __future__ import annotations

import filecmp
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .radial_oracle import radial_ground_state
from .runner import _BINDING_HEADER, _error_table

PRESETS = {
    "desk": {
        "pekar": {
            "n": 64,
            "box_pinned": 16.0,
            "box_physics": 40.0,
            "box_scaled": 24.0,
            "g": 1.0,
            "tol": 1e-6,
            "budget_s": 300.0,
        },
        "lp": {
            "n": 32,
            "box": 32.0,
            "g": 0.5,
            "alpha": 2.0,
            "t_final": 10.0,
            "dt": 1e-3,
            "budget_s": 600.0,
        },
        "fock_id": {
            "sites": 16,
            "box": 16.0,
            "modes": (1, -1, 2, -2, 3, -3),
            "v0": 0.05,
            "nmax": 3,
            "alphas": (1.0, 2.0, 4.0),
            "n_random": 1000,
            "budget_s": 600.0,
        },
        "sweep": {
            "sites": 8,
            "box": 2.0,
            "modes": (1, -1, 2, -2),
            "v0": 3e-3,
            "nmax": 6,
            "alphas": (1.0, 2.0, 4.0, 8.0),
            "t_final": 5.0,
            "samples": 51,
            "dt": 2e-3,
            "budget_s": 1800.0,
        },
        "npolaron": {
            "n": 32,
            "box": 32.0,
            "u_grid": (0.0, 0.25, 0.5, 1.0),
            "pair_dim": 3,
            "pair_n": 8,
            "pair_box": 12.0,
            "pair_u": 0.5,
            "budget_s": 900.0,
        },
        "hygiene": {"n": 16, "box": 10.0},
    },
    "quick": {
        "pekar": {
            "n": 16,
            "box_pinned": 16.0,
            "box_physics": 24.0,
            "box_scaled": 16.0,
            "g": 1.0,
            "tol": 1e-5,
            "budget_s": 120.0,
        },
        "lp": {
            "n": 16,
            "box": 32.0,
            "g": 0.5,
            "alpha": 2.0,
            "t_final": 0.2,
            "dt": 1e-2,
            "budget_s": 120.0,
        },
        "fock_id": {
            "sites": 8,
            "box": 8.0,
            "modes": (1, -1, 2, -2),
            "v0": 0.05,
            "nmax": 2,
            "alphas": (1.0, 2.0),
            "n_random": 100,
            "budget_s": 120.0,
        },
        "sweep": {
            "sites": 8,
            "box": 2.0,
            "modes": (1, -1),
            "v0": 3e-3,
            "nmax": 4,
            "alphas": (1.0, 2.0),
            "t_final": 1.0,
            "samples": 6,
            "dt": 5e-3,
            "budget_s": 120.0,
        },
        "npolaron": {
            "n": 16,
            "box": 32.0,
            "u_grid": (0.0, 0.5),
            "pair_dim": 1,
            "pair_n": 32,
            "pair_box": 16.0,
            "pair_u": 0.5,
            "budget_s": 120.0,
        },
        "hygiene": {"n": 8, "box": 8.0},
    },
}


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    expected_defects: dict = field(default_factory=dict)
    elapsed: float = 0.0
    tables: dict = field(default_factory=dict)  # name -> (rows, header), as <check>_<name>.csv

    def headline(self) -> str:
        keys = list(self.details)[:4]
        parts = [f"{k}={_short(self.details[k])}" for k in keys]
        if self.failures:
            parts.append("failures=" + ";".join(self.failures))
        return ", ".join(parts)


def _short(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


class _Gate:
    """Collects named assertions without aborting on the first failure."""

    def __init__(self):
        self.failures = []

    def check(self, name: str, ok: bool):
        if not ok:
            self.failures.append(name)
        return ok


def check_pekar_ground_state(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Ground-state minimization, oracle match, virial, and coupling scaling."""
    from .pekar import minimize_pekar, pekar_energy, scaling_check
    from .spectral_core import Grid

    p = PRESETS[preset]["pekar"]
    rng = np.random.default_rng(seed)
    gate = _Gate()
    start = time.perf_counter()

    pinned = minimize_pekar(
        Grid(3, p["n"], p["box_pinned"]), g=p["g"], tol=p["tol"], rng=rng, compute_gap=True
    )
    gate.check("el_residual<tol", pinned.residual < p["tol"])
    gate.check("gap_positive", pinned.gap is not None and pinned.gap > 0)
    # The two solves below have always started from the stream after one more grid of
    # normals, which the gap solve used to draw; drawing it here keeps their numbers.
    rng.standard_normal(pinned.phi0.grid.shape)

    oracle_free = radial_ground_state(p["g"])["E"]
    pinned_dev = abs(pinned.e_p - oracle_free) / abs(oracle_free)

    physics = minimize_pekar(
        Grid(3, p["n"], p["box_physics"]), g=p["g"], tol=p["tol"], rng=rng, compute_gap=False
    )
    parts = pekar_energy(physics.phi0, physics.g, physics.form)
    virial = abs(parts.interaction - 2 * parts.kinetic) / parts.interaction
    physics_dev = abs(physics.e_p - oracle_free) / abs(oracle_free)

    scaled = minimize_pekar(
        Grid(3, p["n"], p["box_scaled"]), g=2 * p["g"], tol=p["tol"], rng=rng, compute_gap=False
    )
    ratio = scaled.e_p / physics.e_p
    length_defect = float("nan")
    if preset == "desk":
        # the quick preset exercises the same pipelines at sizes where the
        # physics tolerances are not meaningful
        gate.check("oracle_match_1pc", physics_dev < 1e-2)
        gate.check("virial_defect<1e-3", virial < 1e-3)
        gate.check("scaling_ratio_4", abs(ratio - 4.0) < 1e-3 * 4.0)
        try:
            scaling = scaling_check(physics, scaled, ratio_tol=1e-3, length_tol=1e-2)
            length_defect = scaling.length_ratio_defect
        except Exception:
            gate.check("length_contraction", False)
    elapsed = time.perf_counter() - start
    gate.check("runtime", elapsed < p["budget_s"])

    return CheckResult(
        name="pekar-ground-state",
        status="pass" if not gate.failures else "fail",
        details={
            "E_P_physics": physics.e_p,
            "oracle": oracle_free,
            "oracle_dev": physics_dev,
            "virial_defect": virial,
            "scaling_ratio": ratio,
            "length_defect": length_defect,
            "E_P_pinned_box": pinned.e_p,
            "pinned_box_oracle_dev": pinned_dev,
            "residual": pinned.residual,
            "gap": pinned.gap,
        },
        failures=gate.failures,
        expected_defects={
            # No periodic-lattice kernel reaches the free-space value on the
            # pinned box: the g=1 orbital tail spans L/2 (measured ~4.7%).
            "pinned_box_oracle_match_1pc": pinned_dev
        },
        elapsed=elapsed,
    )


def check_lp_stationarity(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Fixed-point quality of the coupled flow started from the minimizer."""
    from . import lp_dynamics as lp
    from .pekar import minimize_pekar
    from .spectral_core import Grid

    p = PRESETS[preset]["lp"]
    rng = np.random.default_rng(seed)
    gate = _Gate()
    start = time.perf_counter()

    sol = minimize_pekar(
        Grid(3, p["n"], p["box"]), g=p["g"], tol=1e-9, rng=rng, compute_gap=False
    )
    gate.check("localized_minimizer", "delocalized" not in sol.flags)
    cfg = lp.LPConfig(sol.phi0.grid, sol.form, alpha=p["alpha"])
    z0 = lp.stationary_label(cfg, sol.f)
    quad = lp.initial_state(cfg, sol.phi0, z0=z0, rep="quadrature")
    osc = lp.initial_state(cfg, sol.phi0, z0=z0, rep="oscillator")
    e0 = lp.df_energy(quad)

    quad = lp.evolve(quad, p["t_final"], p["dt"])[-1]
    osc = lp.evolve(osc, p["t_final"], p["dt"])[-1]
    rep_gap = float(np.max(np.abs(quad.potential() - osc.potential())))
    overlap = complex(np.vdot(quad.phi.values, sol.phi0.values)) * cfg.grid.cell_volume
    infidelity = 1.0 - abs(overlap)
    norm_defect = abs(quad.phi.norm() - 1.0)
    drift = abs(lp.df_energy(quad) - e0)

    gate.check("infidelity<1e-6", infidelity < 1e-6)
    gate.check("norm_defect<1e-8", norm_defect < 1e-8)
    gate.check("energy_drift<1e-5", drift < 1e-5)
    gate.check("rep_gap<1e-8", rep_gap < 1e-8)
    elapsed = time.perf_counter() - start
    gate.check("runtime", elapsed < p["budget_s"])

    return CheckResult(
        name="lp-stationarity",
        status="pass" if not gate.failures else "fail",
        details={
            "infidelity": infidelity,
            "norm_defect": norm_defect,
            "energy_drift": drift,
            "rep_gap": rep_gap,
            "t_final": p["t_final"],
            "phase_arg": float(np.angle(quad.a_phase)),
        },
        failures=gate.failures,
        elapsed=elapsed,
    )


def _fock_config(block):
    from .fock_sim import FockConfig

    return FockConfig(
        n_sites=block["sites"],
        box_length=block["box"],
        mode_numbers=tuple(block["modes"]),
        v0=block["v0"],
        n_max=block["nmax"],
        alpha=block["alphas"][0],
    )


def check_fock_identities(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Projector algebra, rotated-frame identity, and operator bounds."""
    from . import fock_sim as fs

    p = PRESETS[preset]["fock_id"]
    rng = np.random.default_rng(seed)
    gate = _Gate()
    start = time.perf_counter()

    base = _fock_config(p)
    ops = fs.assemble(base)
    pek = fs.discrete_pekar(ops)
    proj = fs.projector_identities(ops, pek, rng)
    for key, value in proj.items():
        gate.check(f"projector:{key}<1e-12", value < 1e-12)
    gate.check("pekar_electron_residual<1e-8", pek.electron_residual < 1e-8)
    gate.check("pekar_phonon_residual<1e-8", pek.phonon_residual < 1e-8)

    suite = fs.inequality_suite(base, alphas=p["alphas"], rng=rng, n_random=p["n_random"])
    gate.check("annihilator_bounds", suite["annihilator_bounds_hold"])
    for name, resid in suite["conjugation_residuals"].items():
        gate.check(f"conjugation:{name}<1e-8", resid < 1e-8)
    for key, val in suite["two_sided_bound_min_eigs"].items():
        gate.check(f"two_sided_bound:{key}", val >= -1e-10)
    gate.check("resolvent_spread_nonincreasing", suite["resolvent_spread_nonincreasing"])

    e_f, gs = fs.ground_state(ops)
    rq = float(np.real(np.vdot(gs, ops.hamiltonian @ gs)))
    gate.check("variational_ordering", rq <= pek.energy)
    elapsed = time.perf_counter() - start
    gate.check("runtime", elapsed < p["budget_s"])

    return CheckResult(
        name="fock-identities",
        status="pass" if not gate.failures else "fail",
        details={
            "projector_worst": max(proj.values()),
            "conjugation_worst": max(suite["conjugation_residuals"].values()),
            "bound_ratio_worst": max(suite["annihilator_bound_ratios"]),
            "min_eig_worst": min(suite["two_sided_bound_min_eigs"].values()),
            "E_F": e_f,
            "E_P_disc": pek.energy,
            "resolvent_norms": {str(k): v for k, v in suite["resolvent_norms"].items()},
        },
        failures=gate.failures,
        elapsed=elapsed,
    )


def check_error_scaling_stationary(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Stationary product-state error decay across the coupling grid."""
    from . import fock_sim as fs

    p = PRESETS[preset]["sweep"]
    gate = _Gate()
    start = time.perf_counter()
    base = _fock_config(p)
    rep = fs.error_sweep_stationary(base, list(p["alphas"]), p["t_final"], n_samples=p["samples"])
    sups = rep["sup_errors"]
    gate.check("sup_strictly_decreasing", all(a > b for a, b in zip(sups, sups[1:])))
    if preset == "desk":
        gate.check("slope<=-1.8", rep["slope"] <= -1.8)
    elapsed = time.perf_counter() - start
    gate.check("runtime", elapsed < p["budget_s"])
    return CheckResult(
        name="error-scaling-stationary",
        status="pass" if not gate.failures else "fail",
        details={
            "slope": rep["slope"],
            "intercept": rep["intercept"],
            "r_squared": rep["r_squared"],
            "sup_errors": sups,
            "c_hat": rep["c_hat"],
            "bound_margin": rep["bound_margin"],
            "leakage_max": rep["leakage_max"],
        },
        failures=gate.failures,
        expected_defects={
            # err * alpha^2 grows mildly with alpha (the one-phonon gap is
            # k^2 + alpha^-2), so a constant fitted at alpha=1 undershoots by
            # O(1/(k1 alpha)^2); measured a few percent of the error scale.
            "bound_margin>=0": rep["bound_margin"]
        },
        elapsed=elapsed,
        tables={"errors": _error_table(rep["rows"])},
    )


def check_error_scaling_coherent(
    preset: str = "desk", seed: int = 0, stationary: CheckResult | None = None
) -> CheckResult:
    """Coherent-data error decay; must sit above the stationary run."""
    from . import fock_sim as fs

    p = PRESETS[preset]["sweep"]
    rng = np.random.default_rng(seed + 1)
    gate = _Gate()
    start = time.perf_counter()
    base = _fock_config(p)
    phi0, g = fs._coherent_initial_data(fs.FockBasis(base), rng)
    rep = fs.error_sweep_coherent(
        base, list(p["alphas"]), p["t_final"], phi0, g, dt=p["dt"], n_samples=p["samples"]
    )
    if preset == "desk":
        gate.check("slope<=-0.8", rep["slope"] <= -0.8)
    worse = True
    if stationary is not None:
        worse = (
            rep["slope"] > stationary.details["slope"]
            or rep["intercept"] > stationary.details["intercept"]
        )
        gate.check("strictly_worse_than_stationary", worse)
    elapsed = time.perf_counter() - start
    gate.check("runtime", elapsed < p["budget_s"])
    return CheckResult(
        name="error-scaling-coherent",
        status="pass" if not gate.failures else "fail",
        details={
            "slope": rep["slope"],
            "intercept": rep["intercept"],
            "r_squared": rep["r_squared"],
            "sup_errors": rep["sup_errors"],
            "leakage_max": rep["leakage_max"],
            "worse_than_stationary": worse,
        },
        failures=gate.failures,
        elapsed=elapsed,
        tables={"errors": _error_table(rep["rows"])},
    )


def check_npolaron(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Two-electron binding, repulsion monotonicity, and the pair oracle."""
    from . import npolaron as npl
    from .spectral_core import FormFactor, Grid

    p = PRESETS[preset]["npolaron"]
    gate = _Gate()
    start = time.perf_counter()
    grid = Grid(3, p["n"], p["box"])
    rows = npl.binding_scan(grid, p["u_grid"])
    energies = [r["E_N"] for r in rows]
    gate.check("binding_at_zero_U", rows[0]["bound"] and rows[0]["E_N"] < rows[0]["N_E_single"])
    gate.check(
        "nondecreasing_in_U", all(a <= b + 1e-10 for a, b in zip(energies, energies[1:]))
    )

    pair_grid = Grid(p["pair_dim"], p["pair_n"], p["pair_box"])
    pair_form = (
        FormFactor.coulomb_d3_isolated(pair_grid)
        if p["pair_dim"] == 3
        else FormFactor.toy(pair_grid, 0.3)
    )
    prod = npl.minimize_pt(
        npl.PTConfig(2, p["pair_u"], pair_grid, form=pair_form), tol=1e-8
    )
    full = npl.minimize_pt(
        npl.PTConfig(2, p["pair_u"], pair_grid, statistics="full_two_body", form=pair_form),
        tol=1e-7,
    )
    gate.check("product_above_full", full.e_n <= prod.e_n + 1e-12)
    elapsed = time.perf_counter() - start
    gate.check("runtime", elapsed < p["budget_s"])
    return CheckResult(
        name="npolaron-binding",
        status="pass" if not gate.failures else "fail",
        details={
            "E_2_U0": energies[0],
            "twice_single": rows[0]["N_E_single"],
            "energies_vs_U": energies,
            "E_product": prod.e_n,
            "E_full": full.e_n,
        },
        failures=gate.failures,
        elapsed=elapsed,
        tables={"binding": (rows, _BINDING_HEADER)},
    )


def check_numerics_hygiene(
    preset: str = "desk",
    seed: int = 0,
    include_determinism: bool = True,
    work_dir=None,
) -> CheckResult:
    """Gradient consistency, reversibility, integrator order, determinism."""
    from . import lp_dynamics as lp
    from .pekar import energy_gradient, pekar_energy
    from .spectral_core import FormFactor, Grid, WaveField

    p = PRESETS[preset]["hygiene"]
    rng = np.random.default_rng(seed + 2)
    gate = _Gate()
    start = time.perf_counter()

    grid = Grid(3, p["n"], p["box"])
    form = FormFactor.coulomb_d3_isolated(grid)
    h = 1e-5
    worst_grad = 0.0
    for _ in range(20):
        phi = WaveField(grid, rng.standard_normal(grid.shape) + 0.5).normalized()
        delta = rng.standard_normal(grid.shape)
        delta -= float(np.sum(phi.values.real * delta) * grid.cell_volume) * phi.values.real
        analytic = 2 * float(
            np.sum(energy_gradient(phi, 1.0, form).real * delta) * grid.cell_volume
        )
        plus = pekar_energy(WaveField(grid, phi.values + h * delta).normalized(), 1.0, form).total
        minus = pekar_energy(WaveField(grid, phi.values - h * delta).normalized(), 1.0, form).total
        numeric = (plus - minus) / (2 * h)
        worst_grad = max(worst_grad, abs(analytic - numeric) / max(abs(numeric), 1e-12))
    gate.check("gradient_fd<=1e-6", worst_grad <= 1e-6)

    ring = Grid(1, 32, 16.0)
    ring_form = FormFactor.toy(ring, 0.08, cutoff=3.0)
    cfg = lp.LPConfig(ring, ring_form, alpha=2.0)
    bump = WaveField(ring, np.exp(-(ring.x_axis_centered**2) / 4.0) * (1 + 0.1j)).normalized()
    z0 = 0.05 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    state = lp.initial_state(cfg, bump, z0=z0)
    fwd = lp.step(state, 1e-2)
    back = lp.step(fwd, -1e-2)
    reversibility = max(
        float(np.max(np.abs(back.phi.values - state.phi.values))),
        float(np.max(np.abs(back.label() - state.label()))),
    )
    gate.check("reversibility<=1e-10", reversibility <= 1e-10)

    def final_values(dt):
        return lp.evolve(state, 1.0, dt)[-1].phi.values

    ref = final_values(1.0 / 1024)
    err1 = np.linalg.norm(final_values(1.0 / 64) - ref)
    err2 = np.linalg.norm(final_values(1.0 / 128) - ref)
    richardson = err1 / err2
    gate.check("richardson_in_[3.6,4.4]", 3.6 < richardson < 4.4)

    determinism_identical = None
    if include_determinism:
        from .runner import RunConfig, run

        base = Path(work_dir) if work_dir else Path(".polaron-lab-determinism")
        outs = []
        for label in ("a", "b"):
            out = base / label
            cfgr = RunConfig(
                scenario="full-acceptance",
                params={"preset": "quick", "determinism": False},
                seed=seed,
                out_dir=out,
            )
            run(cfgr)
            outs.append(out)
        csvs_a = sorted(x.relative_to(outs[0]) for x in outs[0].rglob("*.csv"))
        csvs_b = sorted(x.relative_to(outs[1]) for x in outs[1].rglob("*.csv"))
        determinism_identical = csvs_a == csvs_b and all(
            filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False) for rel in csvs_a
        )
        gate.check("determinism_byte_identical", bool(determinism_identical))

    elapsed = time.perf_counter() - start
    return CheckResult(
        name="numerics-hygiene",
        status="pass" if not gate.failures else "fail",
        details={
            "gradient_worst_rel": worst_grad,
            "reversibility": reversibility,
            "richardson_ratio": richardson,
            "determinism_identical": determinism_identical,
        },
        failures=gate.failures,
        elapsed=elapsed,
    )


def run_all(
    preset: str = "desk",
    seed: int = 0,
    include_determinism: bool = True,
    out_dir=None,
    echo=print,
):
    """Execute every acceptance check, printing one status line per criterion."""
    results = []
    stationary = None
    for name, fn in (
        ("pekar-ground-state", check_pekar_ground_state),
        ("lp-stationarity", check_lp_stationarity),
        ("fock-identities", check_fock_identities),
        ("error-scaling-stationary", check_error_scaling_stationary),
        ("error-scaling-coherent", None),
        ("npolaron-binding", check_npolaron),
        ("numerics-hygiene", None),
    ):
        if name == "error-scaling-coherent":
            res = check_error_scaling_coherent(preset, seed, stationary=stationary)
        elif name == "numerics-hygiene":
            work = Path(out_dir) / "determinism" if out_dir else None
            res = check_numerics_hygiene(
                preset, seed, include_determinism=include_determinism, work_dir=work
            )
        else:
            res = fn(preset, seed)
        if name == "error-scaling-stationary":
            stationary = res
        results.append(res)
        tag = "PASS" if res.status == "pass" else "FAIL"
        echo(f"[{tag}] {res.name} ({res.elapsed:.1f}s): {res.headline()}")
        for key, value in res.expected_defects.items():
            echo(f"    [EXPECTED-DEFECT] {res.name}:{key} measured={_short(value)}")
    return results
