"""Reproducible experiment orchestration: config validation, dispatch, persistence.

Every run writes a manifest (config echo, code version, Python/numpy/scipy
versions, thread settings, status, wall time) before any results, then
observable tables as CSV (17 significant digits) and a JSON summary whose
scalars are recomputable from the tables. Identical (config, seed) pairs
produce byte-identical CSVs at one thread setting; all randomness flows from
the single seeded generator.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from zipfile import BadZipFile

import numpy as np
import scipy

from . import __version__
from .errors import GridMismatchError, SchemaError
from .lp_dynamics import _sample_stride, _step_count
from .spectral_core import FormFactor, Grid

# environment variables that set a thread count: BLAS reductions sum in a
# thread-dependent order, so the last digits of a run depend on them
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SCENARIOS = ("pekar", "lp-evolve", "fock", "npolaron", "lemma-suite", "full-acceptance")

# scenario -> {key: (type, default)}; None default means required. With _CHOICES this is
# the one declaration of each verb's parameters: the CLI makes its flags from it
_SCHEMAS = {
    "pekar": {
        "grid": (int, 64),
        "box": (float, 16.0),
        "g": (float, 1.0),
        "tol": (float, 1e-6),
        "kernel": (str, "isolated"),
    },
    "lp-evolve": {
        "init": (str, None),
        "alpha": (float, 4.0),
        "T": (float, 10.0),
        "dt": (float, 1e-3),
        "rep": (str, "both"),
        "sample_interval": (float, 0.1),
    },
    "fock": {
        "sites": (int, 16),
        "box": (float, 16.0),
        "modes": (int, 6),
        "nmax": (int, 3),
        "v0": (float, 0.05),
        "alpha_grid": (str, "1,2,4,8"),
        "T": (float, 5.0),
        "dt": (float, 2e-3),
        "samples": (int, 26),
        "experiment": (str, "theorem1"),
    },
    "npolaron": {
        "N": (int, 2),
        "U": (float, 0.5),
        "mode": (str, "product"),
        "grid": (int, 32),
        "box": (float, 32.0),
        "u_grid": (str, "0,0.25,0.5,1.0"),
    },
    "lemma-suite": {
        "sites": (int, 16),
        "box": (float, 16.0),
        "modes": (int, 6),
        "nmax": (int, 3),
        "v0": (float, 0.05),
        "alpha_grid": (str, "1,2,4"),
    },
    "full-acceptance": {
        "preset": (str, "desk"),
        "determinism": (bool, True),
    },
}

# the pekar verb's --kernel: the Coulomb factor of each name
_KERNEL_FORMS = {"isolated": FormFactor.coulomb_d3_isolated, "periodic": FormFactor.coulomb_d3}

_CHOICES = {
    ("pekar", "kernel"): tuple(_KERNEL_FORMS),
    ("lp-evolve", "rep"): ("both", "oscillator", "quadrature"),
    ("fock", "experiment"): ("theorem1", "theorem2", "lemmas", "projectors"),
    ("npolaron", "mode"): ("product", "full"),
    ("full-acceptance", "preset"): ("desk", "quick"),
}


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict
    seed: int = 0
    out_dir: Path | None = None


@dataclass
class RunRecord:
    manifest: dict
    tables: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    passed: bool = True


def validate_config(raw: dict) -> RunConfig:
    """Schema-check a raw key-value tree; raises SchemaError naming bad keys.

    Every parameter check is here, so a bad value is refused before ``run``
    writes the manifest.
    """
    if not isinstance(raw, dict):
        raise SchemaError("configuration must be a key-value tree", keys=())
    scenario = raw.get("scenario")
    if not scenario:
        raise SchemaError("missing required key: 'scenario'", keys=("scenario",))
    if scenario not in SCENARIOS:
        raise SchemaError(
            f"unknown scenario {scenario!r}; choose from {SCENARIOS}", keys=("scenario",)
        )
    schema = _SCHEMAS[scenario]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"'params' must be a key-value tree, got {params!r}", keys=("params",))
    bad = [k for k in params if k not in schema]
    if bad:
        raise SchemaError(
            f"unknown parameter keys for scenario {scenario!r}: {sorted(bad)}",
            keys=tuple(sorted(bad)),
        )
    resolved = {}
    missing = []
    wrong_type = []
    for key, (typ, default) in schema.items():
        if key in params:
            value = params[key]
            try:
                if typ is bool and not isinstance(value, bool):  # bool("false") would be True
                    raise TypeError
                resolved[key] = _integer(value) if typ is int else typ(value)
            except (TypeError, ValueError, OverflowError):
                wrong_type.append(key)
        elif default is None:
            missing.append(key)
        else:
            resolved[key] = default
    if missing:
        raise SchemaError(f"missing required parameters: {missing}", keys=tuple(missing))
    if wrong_type:
        raise SchemaError(
            f"parameters with invalid types: {wrong_type}", keys=tuple(wrong_type)
        )
    for (scen, key), choices in _CHOICES.items():
        if scen == scenario and resolved.get(key) not in choices:
            raise SchemaError(
                f"parameter {key!r} must be one of {choices}, got {resolved.get(key)!r}",
                keys=(key,),
            )
    if scenario == "lp-evolve":
        try:
            _step_count(0.0, resolved["T"], resolved["dt"])
        except ValueError as exc:
            raise SchemaError(
                f"'T' and 'dt' must give T = n dt with a whole n >= 0: {exc}", keys=("T", "dt")
            ) from None
        interval = resolved["sample_interval"]
        if not 0 < interval < np.inf:
            raise SchemaError(
                f"'sample_interval' must be positive and finite, got {interval!r}",
                keys=("sample_interval",),
            )
        try:
            _sample_stride(interval, resolved["dt"])
        except ValueError as exc:
            raise SchemaError(
                f"'sample_interval' must be a whole number of steps 'dt': {exc}",
                keys=("sample_interval",),
            ) from None
    points = "grid" if "grid" in resolved else "sites"
    if points in resolved:
        # the grid's own check; its rules for points and box do not depend on the dimension
        try:
            Grid(1, resolved[points], resolved["box"])
        except GridMismatchError as exc:
            raise SchemaError(
                f"{points!r} and 'box' must make a grid: {exc}", keys=(points, "box")
            ) from None
    if scenario == "npolaron":
        _float_list(resolved["u_grid"], "u_grid")
    if scenario in ("fock", "lemma-suite"):
        alphas = _float_list(resolved["alpha_grid"], "alpha_grid")
        checks = (
            ("modes", resolved["modes"] >= 2 and resolved["modes"] % 2 == 0),  # pairs +-m
            ("nmax", resolved["nmax"] >= 0),
            ("alpha_grid", all(a > 0 for a in alphas) and len(set(alphas)) == len(alphas)),
        )
        bad = [k for k, ok in checks if not ok]
        if bad:
            raise SchemaError(
                "Fock parameters out of range "
                f"(need even modes >= 2, nmax >= 0, distinct alphas > 0): {bad}",
                keys=tuple(bad),
            )
    if scenario == "fock":
        # a sweep needs t = 0 and at least one later sample to measure an error at
        bad = [k for k, ok in (("samples", resolved["samples"] >= 2), ("T", resolved["T"] > 0)) if not ok]
        if bad:
            raise SchemaError(
                f"sweep parameters out of range (need samples >= 2 and T > 0): {bad}",
                keys=tuple(bad),
            )
        if resolved["experiment"] == "theorem2":
            try:
                _step_count(0.0, resolved["T"] / (resolved["samples"] - 1), resolved["dt"])
            except ValueError as exc:
                raise SchemaError(
                    f"theorem2 needs 'T'/('samples' - 1) = n 'dt' with a whole n: {exc}",
                    keys=("T", "samples", "dt"),
                ) from None
        # the pairs +-1, ..., +-modes/2 repeat a ring momentum once modes >= sites (sites/2 and
        # -sites/2 agree mod sites), and the LP flow theorem2 runs has one mode per ring index
        if resolved["experiment"] == "theorem2" and resolved["modes"] >= resolved["sites"]:
            raise SchemaError(
                "theorem2 needs modes < sites, or two modes share a ring momentum: "
                f"'modes' {resolved['modes']}, 'sites' {resolved['sites']}",
                keys=("modes", "sites"),
            )
    try:
        seed = _integer(raw.get("seed", 0))
        if seed < 0:  # numpy's generators take no negative seed
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            f"'seed' must be a non-negative integer, got {raw.get('seed')!r}", keys=("seed",)
        ) from None
    out_dir = raw.get("out")
    return RunConfig(
        scenario=scenario,
        params=resolved,
        seed=seed,
        out_dir=Path(out_dir) if out_dir else None,
    )


def _integer(value) -> int:
    """``value`` as an int when it is an integer, an integral number or an integer string (as
    CLI flags arrive); a boolean or a non-integral number raises, where int() would truncate."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    out = int(value)
    if not isinstance(value, str) and out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _float_list(text, key: str) -> list:
    """The numbers of a comma list such as '1,2,4'; SchemaError naming ``key`` unless one or more."""
    try:
        values = [float(v) for v in str(text).split(",") if v]
    except ValueError:
        values = []
    if not values:
        raise SchemaError(f"{key!r} must be a comma list of numbers, got {text!r}", keys=(key,))
    return values


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, rows, header) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])
    return path


def _jsonable(obj):
    """``obj`` as plain JSON data: numpy scalars as Python ones, non-finite floats as None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def json_text(summary: dict) -> str:
    """The JSON text of a summary or manifest, as written to disk and printed by the CLI."""
    return json.dumps(_jsonable(summary), indent=2, sort_keys=True)


def _write_summary(path: Path, summary: dict):
    path.write_text(json_text(summary))


def run(config: RunConfig) -> RunRecord:
    """Dispatch a validated config; manifest is written before any results."""
    out = config.out_dir
    manifest = {
        "scenario": config.scenario,
        "params": config.params,
        "seed": config.seed,
        "code_version": __version__,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "thread_settings": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "status": "running",
        "wall_time_s": None,
    }
    record = RunRecord(manifest=manifest)
    manifest_path = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        manifest_path = out / "manifest.json"
        _write_summary(manifest_path, manifest)
    start = time.perf_counter()
    try:
        _DISPATCH[config.scenario](config, record)
    except BaseException:
        manifest["status"] = "aborted"
        manifest["wall_time_s"] = time.perf_counter() - start
        if manifest_path is not None:
            _write_summary(manifest_path, manifest)
        raise
    manifest["status"] = "done"
    manifest["wall_time_s"] = time.perf_counter() - start
    if out is not None:
        _write_summary(manifest_path, manifest)
        _write_summary(out / "summary.json", record.summary)
        for name, (rows, header) in record.tables.items():
            write_csv(out / f"{name}.csv", rows, header)
    return record


# --- scenario implementations -------------------------------------------------


def _run_pekar(config: RunConfig, record: RunRecord):
    from .pekar import minimize_pekar, pekar_energy, save_solution

    p = config.params
    rng = np.random.default_rng(config.seed)
    grid = Grid(3, p["grid"], p["box"])
    form = _KERNEL_FORMS[p["kernel"]](grid)
    sol = minimize_pekar(grid, g=p["g"], tol=p["tol"], form=form, rng=rng)
    parts = pekar_energy(sol.phi0, sol.g, sol.form)
    record.summary = {
        "E_P": sol.e_p,
        "lambda": sol.lam,
        "mu": sol.mu,
        "residual": sol.residual,
        "gap": sol.gap,
        "virial_defect": parts.virial_defect,
        "kinetic": parts.kinetic,
        "hartree": parts.hartree,
        "flags": list(sol.flags),
    }
    record.tables["energy_history"] = (
        [{"iteration": i, "energy": e} for i, e in enumerate(sol.energy_history)],
        ["iteration", "energy"],
    )
    if config.out_dir is not None:
        save_solution(config.out_dir, sol)


def _lp_observables(sol, alpha: float, t_final: float, dt: float, sample_interval: float,
                    reps=("quadrature", "oscillator")) -> list:
    """One row per sample of the LP flow at coupling ``alpha`` from the ground state ``sol``
    and its stationary label: the first of ``reps`` gives the norm defect, DF energy,
    infidelity against ``sol.phi0`` and phase; the others give its representation gap."""
    from . import lp_dynamics as lp

    cfg = lp.LPConfig(sol.phi0.grid, sol.form, alpha=alpha)
    z0 = lp.stationary_label(cfg, sol.f)
    phi_ref = sol.phi0.values

    def observe(primary, *other):
        overlap = complex(
            np.vdot(primary.phi.values, phi_ref) * cfg.grid.cell_volume
        )
        rep_gap = 0.0
        for b in other:
            rep_gap = float(np.max(np.abs(primary.potential() - b.potential())))
        return {
            "t": primary.t,
            "norm_defect": abs(primary.phi.norm() - 1.0),
            "energy": lp.df_energy(primary),
            "infidelity": 1.0 - abs(overlap),
            "phase_arg": float(np.angle(primary.a_phase)),
            "rep_gap": rep_gap,
        }

    marches = [
        lp._march(lp.initial_state(cfg, sol.phi0, z0=z0, rep=rep), t_final, dt, lp.step,
                  sample_interval)
        for rep in reps
    ]
    # map, not a loop over zip: zip keeps the last sampled states alive while the
    # marches step on, map releases them once observed
    return list(map(observe, *marches))


def _run_lp_evolve(config: RunConfig, record: RunRecord):
    from .pekar import load_solution

    p = config.params
    init = Path(p["init"])
    tag = init.stem if init.suffix == ".json" else "pekar"
    directory = init.parent if init.suffix == ".json" else init
    try:
        sol = load_solution(directory, tag=tag)
    except (
        OSError, EOFError, ValueError, KeyError, TypeError, BadZipFile, GridMismatchError
    ) as exc:
        raise SchemaError(
            f"'init' {init} holds no readable ground state ({type(exc).__name__}: {exc}); run "
            f"the pekar verb to write {tag}.json and {tag}.npz", keys=("init",)
        ) from None
    reps = {"both": ("quadrature", "oscillator")}.get(p["rep"], (p["rep"],))
    rows = _lp_observables(sol, p["alpha"], p["T"], p["dt"], p["sample_interval"], reps)
    e0 = rows[0]["energy"]
    record.tables["observables"] = (
        rows,
        ["t", "norm_defect", "energy", "infidelity", "phase_arg", "rep_gap"],
    )
    final = rows[-1]
    stationary_init = abs(sol.g - 0.5) < 1e-12  # rescaled-unit ground state
    record.summary = {
        "final_infidelity": final["infidelity"],
        "max_norm_defect": max(r["norm_defect"] for r in rows),
        "energy_drift": max(abs(r["energy"] - e0) for r in rows),
        "max_rep_gap": max(r["rep_gap"] for r in rows),
        "alpha": p["alpha"],
        "stationary_init": stationary_init,
    }
    conserved = bool(
        record.summary["max_norm_defect"] < 1e-8
        and record.summary["energy_drift"] < 1e-5
    )
    # the fidelity gate only makes sense for matching stationary initial data
    record.passed = conserved and (not stationary_init or final["infidelity"] < 1e-6)


_BINDING_HEADER = ["U", "E_N", "N_E_single", "bound", "rms_radius"]


def _error_table(rows) -> tuple:
    """The (rows, header) table of an error sweep's (t, alpha, err) rows."""
    header = ["t", "alpha", "err"]
    return [dict(zip(header, row)) for row in rows], header


def _mode_numbers(count: int):
    """Pairs +-1, +-2, ... of ``count`` (even, as validation ensures) phonon modes."""
    out = []
    for m in range(1, count // 2 + 1):
        out.extend([m, -m])
    return tuple(out)


def _fock_config(p: dict):
    """The FockConfig of a params block's sites, box, modes (a count), v0 and nmax."""
    from .fock_sim import FockConfig

    return FockConfig(
        n_sites=p["sites"],
        box_length=p["box"],
        mode_numbers=_mode_numbers(p["modes"]),
        v0=p["v0"],
        n_max=p["nmax"],
    )


def _run_fock(config: RunConfig, record: RunRecord):
    from . import fock_sim as fs

    p = config.params
    experiment = p["experiment"]
    if experiment == "lemmas":
        _run_lemmas(config, record)
        return
    rng = np.random.default_rng(config.seed)
    alphas = _float_list(p["alpha_grid"], "alpha_grid")
    base = _fock_config(p)
    if experiment in ("theorem1", "theorem2"):
        if experiment == "theorem1":
            rep = fs.error_sweep_stationary(base, alphas, p["T"], n_samples=p["samples"])
            extra = {k: rep[k] for k in ("c_hat", "bound_margin")}
            extra["residuals"] = rep["residual_max"]
        else:
            phi0, g = fs._coherent_initial_data(fs.FockBasis(base), rng)
            rep = fs.error_sweep_coherent(
                base, alphas, p["T"], phi0, g, dt=p["dt"], n_samples=p["samples"]
            )
            extra = {"residuals": 0.0}  # no product-state residual in this experiment
        record.tables["errors"] = _error_table(rep["rows"])
        record.summary = {
            k: rep[k]
            for k in ("alphas", "sup_errors", "slope", "intercept", "r_squared", "leakage_max")
        }
        record.summary.update(extra)
    elif experiment == "projectors":
        ops = fs.assemble(fs.FockBasis(base), alphas[0])
        pek = fs.discrete_pekar(ops.basis, ops.alpha)
        rep = fs.projector_identities(ops, pek, rng)
        record.summary = dict(rep)
        record.summary["E_P_disc"] = pek.energy
        record.passed = bool(all(v < 1e-12 for v in rep.values()))
    record.summary["experiment"] = experiment


def _run_lemmas(config: RunConfig, record: RunRecord):
    """The operator-bound suite of the lemma-suite verb and of fock --experiment lemmas."""
    from . import fock_sim as fs

    p = config.params
    rng = np.random.default_rng(config.seed)
    alphas = _float_list(p["alpha_grid"], "alpha_grid")
    base = _fock_config(p)
    rep = fs.inequality_suite(base, alphas=tuple(alphas), rng=rng)
    record.summary = {
        "annihilator_bounds_hold": rep["annihilator_bounds_hold"],
        "annihilator_bound_ratios": list(rep["annihilator_bound_ratios"]),
        "c_v": rep["c_v"],
        "conjugation_residuals": rep["conjugation_residuals"],
        "two_sided_bound_min_eigs": {
            f"alpha={a},eps={e}": v for (a, e), v in rep["two_sided_bound_min_eigs"].items()
        },
        "resolvent_norms": rep["resolvent_norms"],
        "resolvent_spread_nonincreasing": rep["resolvent_spread_nonincreasing"],
        "failures": rep["failures"],
        "experiment": "lemmas",
    }
    record.tables["resolvent_norms"] = (
        [{"alpha": a, "norm": v} for a, v in rep["resolvent_norms"].items()],
        ["alpha", "norm"],
    )
    record.passed = not rep["failures"]


def _run_npolaron(config: RunConfig, record: RunRecord):
    from . import npolaron as npl

    p = config.params
    grid = Grid(3, p["grid"], p["box"])
    statistics = "boson_product" if p["mode"] == "product" else "full_two_body"
    cfg = npl.PTConfig(p["N"], p["U"], grid, statistics=statistics)
    sol, scan = npl.binding_scan(cfg, _float_list(p["u_grid"], "u_grid"), seed=config.seed)
    record.summary = {
        "E_N": sol.e_n,
        "lambda": sol.lam,
        "mu": sol.mu,
        "residual": sol.residual,
        "binding": sol.binding,
        "U": p["U"],
        "N": p["N"],
    }
    record.tables["binding"] = (scan, _BINDING_HEADER)
    energies = [r["E_N"] for r in scan]
    record.passed = all(a <= b + 1e-10 for a, b in zip(energies, energies[1:]))


def _run_full_acceptance(config: RunConfig, record: RunRecord):
    from . import acceptance

    results = acceptance.run_all(
        preset=config.params["preset"],
        seed=config.seed,
        include_determinism=config.params["determinism"],
        out_dir=config.out_dir,
    )
    # wall times live in the summary, never in the byte-compared tables
    rows = [{"check": res.name, "status": res.status, "detail": res.headline()} for res in results]
    record.tables["acceptance"] = (rows, ["check", "status", "detail"])
    for res in results:
        for name, table in res.tables.items():
            record.tables[f"{res.name}_{name}"] = table
    record.summary = {
        res.name: {
            "status": res.status,
            "elapsed_s": res.elapsed,
            **{k: v for k, v in res.details.items() if _is_scalar(v)},
        }
        for res in results
    }
    record.passed = all(res.status == "pass" for res in results)


def _is_scalar(v):
    return isinstance(v, (int, float, str, bool, np.floating, np.integer, np.bool_))


_DISPATCH = {
    "pekar": _run_pekar,
    "lp-evolve": _run_lp_evolve,
    "fock": _run_fock,
    "npolaron": _run_npolaron,
    "lemma-suite": _run_lemmas,
    "full-acceptance": _run_full_acceptance,
}


def emit_plotdata(record: RunRecord, out_dir) -> list:
    """Write gnuplot-ready two-column data files from a record's error table.

    err-vs-t per alpha plus log(sup err) vs log(alpha) with the fitted line
    coefficients in a JSON sidecar. Empty tables produce empty files plus a
    warning.
    """
    import warnings

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "errors" not in record.tables:
        raise SchemaError("record has no error table to plot", keys=("errors",))
    rows, _ = record.tables["errors"]
    if not rows:
        path = out_dir / "err_vs_t.dat"
        path.write_text("")
        warnings.warn("empty error table: wrote an empty plot file")
        return [path]
    alphas = sorted({r["alpha"] for r in rows})
    for a in alphas:
        path = out_dir / f"err_vs_t_alpha{_fmt(a)}.dat"
        lines = [
            f"{_fmt(r['t'])} {_fmt(r['err'])}" for r in rows if r["alpha"] == a
        ]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    sups = [max(r["err"] for r in rows if r["alpha"] == a) for a in alphas]
    path = out_dir / "sup_err_vs_alpha.dat"
    path.write_text(
        "\n".join(f"{_fmt(np.log(a))} {_fmt(np.log(max(s, 1e-300)))}" for a, s in zip(alphas, sups))
        + "\n"
    )
    written.append(path)
    fit = {
        "slope": record.summary.get("slope"),
        "intercept": record.summary.get("intercept"),
        "r_squared": record.summary.get("r_squared"),
    }
    sidecar = out_dir / "fit.json"
    _write_summary(sidecar, fit)
    written.append(sidecar)
    return written
