"""Desk-scale acceptance suite: one callable check per shipped guarantee.

Each check returns a CheckResult: the named gates it failed, in the order it
tested them (its status is "fail" exactly when there is one), a details dict
of the measured numbers, and (where applicable) expected defects: quantities
whose stated target is unreachable for structural reasons that are
documented in the repository notes, reported with their measured values
rather than silently weakened. A check with a time budget gates its own wall
time last, as "runtime". The full-acceptance runner scenario executes every
check and exits nonzero if any gate fails.

Two presets: "desk" (the real tolerances and sizes) and "quick" (tiny
versions of the same pipelines, used for the byte-identical determinism
double run).
"""

from __future__ import annotations

import filecmp
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .radial_oracle import radial_ground_state
from .runner import _BINDING_HEADER, _error_table, _fock_config, _lp_observables

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
            "modes": 6,
            "v0": 0.05,
            "nmax": 3,
            "alphas": (1.0, 2.0, 4.0),
            "n_random": 1000,
            "budget_s": 600.0,
        },
        "sweep": {
            "sites": 8,
            "box": 2.0,
            "modes": 4,
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
            "modes": 4,
            "v0": 0.05,
            "nmax": 2,
            "alphas": (1.0, 2.0),
            "n_random": 100,
            "budget_s": 120.0,
        },
        "sweep": {
            "sites": 8,
            "box": 2.0,
            "modes": 2,
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
    """One check's record: the gates it failed, in the order it tested them, the measured
    numbers, the expected-defect sub-items, its wall time and its tables."""

    name: str
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    expected_defects: dict = field(default_factory=dict)
    elapsed: float = 0.0
    tables: dict = field(default_factory=dict)  # name -> (rows, header), as <check>_<name>.csv

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    def gate(self, name: str, ok: bool):
        """Record the named assertion; a failing one is kept, and the check goes on."""
        if not ok:
            self.failures.append(name)

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


@contextmanager
def _timed(name: str, budget_s: float | None = None):
    """The CheckResult of the check named ``name``, timed from entry to exit; on exit it
    gets its ``elapsed`` and, given a budget, the "runtime" gate as its last gate."""
    res = CheckResult(name)
    start = time.perf_counter()
    yield res
    res.elapsed = time.perf_counter() - start
    if budget_s is not None:
        res.gate("runtime", res.elapsed < budget_s)


def _print_result(res: CheckResult):
    """A check's status line, then one line per expected-defect sub-item."""
    print(f"[{res.status.upper()}] {res.name} ({res.elapsed:.1f}s): {res.headline()}")
    for key, value in res.expected_defects.items():
        print(f"    [EXPECTED-DEFECT] {res.name}:{key} measured={_short(value)}")


def check_pekar_ground_state(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Ground-state minimization, oracle match, virial, and coupling scaling."""
    from .pekar import _rms_radius, minimize_pekar, pekar_energy
    from .spectral_core import Grid

    p = PRESETS[preset]["pekar"]
    rng = np.random.default_rng(seed)
    with _timed("pekar-ground-state", p["budget_s"]) as res:
        pinned = minimize_pekar(
            Grid(3, p["n"], p["box_pinned"]), g=p["g"], tol=p["tol"], rng=rng, compute_gap=True
        )
        res.gate("el_residual<tol", pinned.residual < p["tol"])
        res.gate("gap_positive", pinned.gap is not None and pinned.gap > 0)
        # The two solves below have always started from the stream after one more grid of
        # normals, which the gap solve used to draw; drawing it here keeps their numbers.
        rng.standard_normal(pinned.phi0.grid.shape)

        oracle_free = radial_ground_state(p["g"])["E"]
        pinned_dev = abs(pinned.e_p - oracle_free) / abs(oracle_free)

        physics = minimize_pekar(
            Grid(3, p["n"], p["box_physics"]), g=p["g"], tol=p["tol"], rng=rng, compute_gap=False
        )
        virial = pekar_energy(physics.phi0, physics.g, physics.form).virial_defect
        physics_dev = abs(physics.e_p - oracle_free) / abs(oracle_free)

        scaled = minimize_pekar(
            Grid(3, p["n"], p["box_scaled"]), g=2 * p["g"], tol=p["tol"], rng=rng, compute_gap=False
        )
        ratio = scaled.e_p / physics.e_p
        length_defect = float("nan")
        if preset == "desk":
            # the quick preset exercises the same pipelines at sizes where the
            # physics tolerances are not meaningful
            res.gate("oracle_match_1pc", physics_dev < 1e-2)
            res.gate("virial_defect<1e-3", virial < 1e-3)
            res.gate("scaling_ratio_4", abs(ratio - 4.0) < 1e-3 * 4.0)
            # the rms radius contracts as 1/g: r1 / r2 = g2 / g1
            r1, r2 = _rms_radius(physics.phi0), _rms_radius(scaled.phi0)
            length_defect = abs(r1 / r2 - scaled.g / physics.g) / (scaled.g / physics.g)
            res.gate("length_contraction", length_defect <= 1e-2)

    res.details = {
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
    }
    # No periodic-lattice kernel reaches the free-space value on the
    # pinned box: the g=1 orbital tail spans L/2 (measured ~4.7%).
    res.expected_defects["pinned_box_oracle_match_1pc"] = pinned_dev
    return res


def check_lp_stationarity(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Fixed-point quality of the coupled flow started from the minimizer."""
    from .pekar import minimize_pekar
    from .spectral_core import Grid

    p = PRESETS[preset]["lp"]
    rng = np.random.default_rng(seed)
    with _timed("lp-stationarity", p["budget_s"]) as res:
        sol = minimize_pekar(
            Grid(3, p["n"], p["box"]), g=p["g"], tol=1e-9, rng=rng, compute_gap=False
        )
        res.gate("localized_minimizer", "delocalized" not in sol.flags)
        # the lp-evolve verb's rows, sampled at t = 0 and t_final only
        first, final = _lp_observables(sol, p["alpha"], p["t_final"], p["dt"], p["t_final"])
        drift = abs(final["energy"] - first["energy"])

        res.gate("infidelity<1e-6", final["infidelity"] < 1e-6)
        res.gate("norm_defect<1e-8", final["norm_defect"] < 1e-8)
        res.gate("energy_drift<1e-5", drift < 1e-5)
        res.gate("rep_gap<1e-8", final["rep_gap"] < 1e-8)

    res.details = {
        "infidelity": final["infidelity"],
        "norm_defect": final["norm_defect"],
        "energy_drift": drift,
        "rep_gap": final["rep_gap"],
        "t_final": p["t_final"],
        "phase_arg": final["phase_arg"],
    }
    return res


def check_fock_identities(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Projector algebra, rotated-frame identity, and operator bounds."""
    from . import fock_sim as fs

    p = PRESETS[preset]["fock_id"]
    rng = np.random.default_rng(seed)
    with _timed("fock-identities", p["budget_s"]) as res:
        base = _fock_config(p)
        ops = fs.assemble(fs.FockBasis(base), p["alphas"][0])
        pek = fs.discrete_pekar(ops.basis, ops.alpha)
        proj = fs.projector_identities(ops, pek, rng)
        for key, value in proj.items():
            res.gate(f"projector:{key}<1e-12", value < 1e-12)
        res.gate("pekar_electron_residual<1e-8", pek.electron_residual < 1e-8)
        res.gate("pekar_phonon_residual<1e-8", pek.phonon_residual < 1e-8)

        suite = fs.inequality_suite(base, alphas=p["alphas"], rng=rng, n_random=p["n_random"])
        res.failures.extend(suite["failures"])

        e_f, gs = fs.ground_state(ops)
        rq = float(np.real(np.vdot(gs, ops.hamiltonian @ gs)))
        res.gate("variational_ordering", rq <= pek.energy)

    res.details = {
        "projector_worst": max(proj.values()),
        "conjugation_worst": max(suite["conjugation_residuals"].values()),
        "bound_ratio_worst": max(suite["annihilator_bound_ratios"]),
        "min_eig_worst": min(suite["two_sided_bound_min_eigs"].values()),
        "E_F": e_f,
        "E_P_disc": pek.energy,
        "resolvent_norms": {str(k): v for k, v in suite["resolvent_norms"].items()},
    }
    return res


def check_error_scaling_stationary(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Stationary product-state error decay across the coupling grid."""
    from . import fock_sim as fs

    p = PRESETS[preset]["sweep"]
    with _timed("error-scaling-stationary", p["budget_s"]) as res:
        base = _fock_config(p)
        rep = fs.error_sweep_stationary(
            base, list(p["alphas"]), p["t_final"], n_samples=p["samples"]
        )
        sups = rep["sup_errors"]
        res.gate("sup_strictly_decreasing", all(a > b for a, b in zip(sups, sups[1:])))
        if preset == "desk":
            res.gate("slope<=-1.8", rep["slope"] <= -1.8)

    res.details = {
        "slope": rep["slope"],
        "intercept": rep["intercept"],
        "r_squared": rep["r_squared"],
        "sup_errors": sups,
        "c_hat": rep["c_hat"],
        "bound_margin": rep["bound_margin"],
        "leakage_max": rep["leakage_max"],
    }
    # err * alpha^2 grows mildly with alpha (the one-phonon gap is
    # k^2 + alpha^-2), so a constant fitted at alpha=1 undershoots by
    # O(1/(k1 alpha)^2); measured a few percent of the error scale.
    res.expected_defects["bound_margin>=0"] = rep["bound_margin"]
    res.tables["errors"] = _error_table(rep["rows"])
    return res


def check_error_scaling_coherent(
    preset: str = "desk", seed: int = 0, stationary: CheckResult | None = None
) -> CheckResult:
    """Coherent-data error decay; must sit above the stationary run."""
    from . import fock_sim as fs

    p = PRESETS[preset]["sweep"]
    rng = np.random.default_rng(seed + 1)
    with _timed("error-scaling-coherent", p["budget_s"]) as res:
        base = _fock_config(p)
        phi0, g = fs._coherent_initial_data(fs.FockBasis(base), rng)
        rep = fs.error_sweep_coherent(
            base, list(p["alphas"]), p["t_final"], phi0, g, dt=p["dt"], n_samples=p["samples"]
        )
        if preset == "desk":
            res.gate("slope<=-0.8", rep["slope"] <= -0.8)
        worse = None  # not compared without a stationary run
        if stationary is not None:
            worse = (
                rep["slope"] > stationary.details["slope"]
                or rep["intercept"] > stationary.details["intercept"]
            )
            res.gate("strictly_worse_than_stationary", worse)

    res.details = {
        "slope": rep["slope"],
        "intercept": rep["intercept"],
        "r_squared": rep["r_squared"],
        "sup_errors": rep["sup_errors"],
        "leakage_max": rep["leakage_max"],
        "worse_than_stationary": worse,
    }
    res.tables["errors"] = _error_table(rep["rows"])
    return res


def check_npolaron(preset: str = "desk", seed: int = 0) -> CheckResult:
    """Two-electron binding, repulsion monotonicity, and the pair oracle."""
    from . import npolaron as npl
    from .spectral_core import FormFactor, Grid

    p = PRESETS[preset]["npolaron"]
    with _timed("npolaron-binding", p["budget_s"]) as res:
        grid = Grid(3, p["n"], p["box"])
        # the scan's own solve, at its first U, is one it makes for its rows anyway
        _, rows = npl.binding_scan(npl.PTConfig(2, p["u_grid"][0], grid), p["u_grid"], seed=seed)
        energies = [r["E_N"] for r in rows]
        res.gate("binding_at_zero_U", rows[0]["bound"] and rows[0]["E_N"] < rows[0]["N_E_single"])
        res.gate(
            "nondecreasing_in_U", all(a <= b + 1e-10 for a, b in zip(energies, energies[1:]))
        )

        pair_grid = Grid(p["pair_dim"], p["pair_n"], p["pair_box"])
        pair_form = (
            FormFactor.coulomb_d3_isolated(pair_grid)
            if p["pair_dim"] == 3
            else FormFactor.toy(pair_grid, 0.3)
        )
        prod = npl.minimize_pt(
            npl.PTConfig(2, p["pair_u"], pair_grid, form=pair_form), tol=1e-8, seed=seed
        )
        full = npl.minimize_pt(
            npl.PTConfig(2, p["pair_u"], pair_grid, statistics="full_two_body", form=pair_form),
            tol=1e-7,
            seed=seed,
        )
        res.gate("product_above_full", full.e_n <= prod.e_n + 1e-12)

    res.details = {
        "E_2_U0": energies[0],
        "twice_single": rows[0]["N_E_single"],
        "energies_vs_U": energies,
        "E_product": prod.e_n,
        "E_full": full.e_n,
    }
    res.tables["binding"] = (rows, _BINDING_HEADER)
    return res


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
    with _timed("numerics-hygiene") as res:
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
        res.gate("gradient_fd<=1e-6", worst_grad <= 1e-6)

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
        res.gate("reversibility<=1e-10", reversibility <= 1e-10)

        def final_values(dt):
            return lp.evolve(state, 1.0, dt)[-1].phi.values

        ref = final_values(1.0 / 1024)
        err1 = np.linalg.norm(final_values(1.0 / 64) - ref)
        err2 = np.linalg.norm(final_values(1.0 / 128) - ref)
        richardson = err1 / err2
        res.gate("richardson_in_[3.6,4.4]", 3.6 < richardson < 4.4)

        determinism_identical = None
        if include_determinism:
            determinism_identical = _double_run_identical(seed, work_dir)
            res.gate("determinism_byte_identical", determinism_identical)

    res.details = {
        "gradient_worst_rel": worst_grad,
        "reversibility": reversibility,
        "richardson_ratio": richardson,
        "determinism_identical": determinism_identical,
    }
    return res


def _double_run_identical(seed: int, work_dir) -> bool:
    """Whether two seeded quick full-acceptance runs, into ``work_dir``/a and /b, write the
    same CSVs byte for byte. Without a ``work_dir`` they run in a temporary directory that
    is removed afterwards."""
    from .runner import RunConfig, run

    with nullcontext(work_dir) if work_dir else tempfile.TemporaryDirectory() as base:
        outs = [Path(base) / label for label in ("a", "b")]
        for out in outs:
            params = {"preset": "quick", "determinism": False}
            run(RunConfig(scenario="full-acceptance", params=params, seed=seed, out_dir=out))
        csvs_a = sorted(x.relative_to(outs[0]) for x in outs[0].rglob("*.csv"))
        csvs_b = sorted(x.relative_to(outs[1]) for x in outs[1].rglob("*.csv"))
        return csvs_a == csvs_b and all(
            filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False) for rel in csvs_a
        )


def run_all(
    preset: str = "desk", seed: int = 0, include_determinism: bool = True, out_dir=None
):
    """Execute every acceptance check, printing one status line per criterion."""
    work = Path(out_dir) / "determinism" if out_dir else None
    results = []

    def record(res):
        results.append(res)
        _print_result(res)
        return res

    record(check_pekar_ground_state(preset, seed))
    record(check_lp_stationarity(preset, seed))
    record(check_fock_identities(preset, seed))
    stationary = record(check_error_scaling_stationary(preset, seed))
    record(check_error_scaling_coherent(preset, seed, stationary=stationary))
    record(check_npolaron(preset, seed))
    record(
        check_numerics_hygiene(preset, seed, include_determinism=include_determinism, work_dir=work)
    )
    return results
