"""The four benchmark workloads and the oracle that verifies their outputs.

Each workload is a list of CLI-verb configurations, run in order through
``runner.run(validate_config(raw))``; one run of that list is a *pass*. The
seed goes into every configuration's ``seed``, which is where the verbs draw
their randomness (the Pekar seed perturbation, the coherent displacement of
the Fock sweep, the random test vectors of the lemma suite).

Sizes are below the README's so that a pass takes 2-4 s and one run of the
benchmark holds 5-11 passes; at README size a single pass filled a run, and
one sample per run could not be told apart from the host's drift. The
ground-state Pekar solve uses the README box (L=40) at 32^3: at 32^3 with
L=32 the lobpcg gap reaches its 400-iteration cap at some seeds (seed 14
takes 3.3 s instead of 0.5 s), which would make the pass cost depend on the
seed.

An *operation* is one verified output: a verb's ``record.passed``, one physics
gate of the verb, or, at seed 0 only, one pinned reference value. An exception
while checking counts as a failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Seed-0 values produced by the seed commit of the package (one BLAS thread),
# at the sizes of the configurations below.
REFERENCES = {
    "ground-state": {"E_P": -0.026373628659944758, "E_N": -0.120861405474458},
    "fock-sweep": {"slope": -1.7483839496133142},
    "lemma-suite": {
        "resolvent_norm_alpha1": 1.0000000000000013,
        "resolvent_norm_alpha2": 1.3657237339323112,
        "resolvent_norm_alpha4": 1.5427232497294032,
    },
}
# Admits summation reordering (1 -> 2 BLAS threads moves the slope by 4e-12)
# and stays orders of magnitude below any physics effect.
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], list]  # (seed, work dir) -> [(label, raw config)] of one pass
    gates: dict = field(default_factory=dict)  # operation -> (records -> bool)
    pinned: dict = field(default_factory=dict)  # reference key -> (records -> float)


def _ground_state(seed, work: Path):
    return [
        ("pekar", {
            "scenario": "pekar",
            "params": {"grid": 32, "box": 40.0, "g": 0.5, "tol": 1e-7, "kernel": "isolated"},
        }),
        ("npolaron", {
            "scenario": "npolaron",
            "params": {"N": 2, "U": 0.5, "mode": "product", "grid": 32, "box": 32.0,
                       "u_grid": "0,1.0"},
        }),
    ]


def _lp_flow(seed, work: Path):
    """Set-up solves the 32^3 seed ground state once; the pass only evolves it (200 steps)."""
    from polaron_lab.runner import run, validate_config

    init = work / "ground"
    record = run(validate_config({
        "scenario": "pekar",
        "params": {"grid": 32, "box": 32.0, "g": 0.5, "tol": 1e-9},
        "seed": seed,
        "out": str(init),
    }))
    if not record.passed:
        raise RuntimeError("lp-flow set-up: the 32^3 ground state failed its gates")
    return [
        ("lp-evolve", {
            "scenario": "lp-evolve",
            "params": {"init": str(init / "pekar.json"), "alpha": 2.0, "T": 0.1, "dt": 1e-3,
                       "rep": "both", "sample_interval": 0.05},
        }),
    ]


def _fock_sweep(seed, work: Path):
    return [
        ("fock", {
            "scenario": "fock",
            "params": {"sites": 8, "box": 2.0, "modes": 4, "nmax": 5, "v0": 3e-3,
                       "alpha_grid": "1,8", "T": 2.5, "samples": 26, "dt": 2e-3,
                       "experiment": "theorem2"},
        }),
    ]


def _lemma_suite(seed, work: Path):
    return [("lemma-suite", {"scenario": "lemma-suite", "params": {"sites": 8, "box": 8.0}})]


def _summary(records, label):
    return records[label].summary


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ground-state",
            "pekar then npolaron verb at 32^3: the BB minimizer, spectral kernel, lobpcg gap and "
            "a two-point binding scan (7 solves); no time stepping, no Fock space",
            _ground_state,
            gates={
                "pekar.passed": lambda r: r["pekar"].passed,
                "pekar.residual<tol": lambda r: _summary(r, "pekar")["residual"] < 1e-7,
                "pekar.gap>0": lambda r: _summary(r, "pekar")["gap"] > 0,
                "pekar.E_P<0": lambda r: _summary(r, "pekar")["E_P"] < 0,
                "pekar.localized": lambda r: "delocalized" not in _summary(r, "pekar")["flags"],
                "npolaron.passed": lambda r: r["npolaron"].passed,
                "npolaron.bound_at_U0": lambda r: bool(
                    r["npolaron"].tables["binding"][0][0]["bound"]
                ),
            },
            pinned={
                "E_P": lambda r: _summary(r, "pekar")["E_P"],
                "E_N": lambda r: _summary(r, "npolaron")["E_N"],
            },
        ),
        Workload(
            "lp-flow",
            "lp-evolve verb, 200 steps from a 32^3 ground state (alpha 2, dt 1e-3, both representations): "
            "LP steps and their FFTs; the minimizer runs only in set-up",
            _lp_flow,
            gates={
                "lp-evolve.passed": lambda r: r["lp-evolve"].passed,
                "lp-evolve.stationary_init": lambda r: _summary(r, "lp-evolve")["stationary_init"],
                "lp-evolve.infidelity<1e-6": lambda r: _summary(r, "lp-evolve")["final_infidelity"] < 1e-6,
                "lp-evolve.rep_gap<1e-8": lambda r: _summary(r, "lp-evolve")["max_rep_gap"] < 1e-8,
            },
        ),
        Workload(
            "fock-sweep",
            "fock verb, theorem2 sweep at dimension 1008 (alpha 1 and 8, T 2.5): dense propagator eigh, "
            "applies, Weyl displacements and ring LP steps",
            _fock_sweep,
            gates={
                "fock.passed": lambda r: r["fock"].passed,
                "fock.slope<=-0.8": lambda r: _summary(r, "fock")["slope"] <= -0.8,
                "fock.sup_errors_positive": lambda r: all(
                    math.isfinite(e) and e > 0 for e in _summary(r, "fock")["sup_errors"]
                ),
            },
            pinned={"slope": lambda r: _summary(r, "fock")["slope"]},
        ),
        Workload(
            "lemma-suite",
            "lemma-suite verb on 8 sites (dimension 672): operator assembly, reduced-resolvent "
            "eigh and svd, eigsh and Weyl conjugations; no time propagation",
            _lemma_suite,
            gates={
                "lemma-suite.passed": lambda r: r["lemma-suite"].passed,
                "lemma-suite.resolvent_spread_nonincreasing": lambda r: _summary(
                    r, "lemma-suite"
                )["resolvent_spread_nonincreasing"],
            },
            pinned={
                f"resolvent_norm_alpha{a}": (
                    lambda r, a=a: _summary(r, "lemma-suite")["resolvent_norms"][float(a)]
                )
                for a in (1, 2, 4)
            },
        ),
    )
}


def verify(workload: Workload, seed: int, records: dict, references=REFERENCES) -> dict:
    """Check one pass's records; returns {operation: passed}."""
    checks = dict(workload.gates)
    if seed == 0:
        refs = references.get(workload.name, {})
        for key, read in workload.pinned.items():
            checks[f"pinned.{key}"] = (
                lambda r, read=read, ref=refs.get(key): math.isclose(read(r), ref, rel_tol=RTOL)
            )
    outcome = {}
    for name, check in checks.items():
        try:
            outcome[name] = bool(check(records))
        except Exception:  # a missing record or a raising verb is a failed operation
            outcome[name] = False
    return outcome
