"""Tests of the benchmark itself (oracle, tracer, layout); runs no workload.

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern, so a bare
``pytest`` from the repository root does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import REFERENCES, RTOL, WORKLOADS, verify  # noqa: E402


def _records(name, refs):
    """Records whose outputs equal the pinned references and pass every gate."""
    ok = lambda **summary: SimpleNamespace(passed=True, summary=summary, tables={})  # noqa: E731
    if name == "ground-state":
        npol = ok(E_N=refs["E_N"])
        npol.tables["binding"] = ([{"bound": True}], ["bound"])
        return {"pekar": ok(E_P=refs["E_P"], residual=1e-8, gap=0.1, flags=[]), "npolaron": npol}
    if name == "lp-flow":
        return {"lp-evolve": ok(stationary_init=True, final_infidelity=0.0, max_rep_gap=0.0)}
    if name == "fock-sweep":
        return {"fock": ok(slope=refs["slope"], sup_errors=[4e-3, 2e-3, 8e-4, 3e-4])}
    norms = {float(a): refs[f"resolvent_norm_alpha{a}"] for a in (1, 2, 4)}
    return {"lemma-suite": ok(resolvent_norms=norms, resolvent_spread_nonincreasing=True)}


def _failed_frac(outcome):
    return sum(not ok for ok in outcome.values()) / len(outcome)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_outputs_pass(name):
    records = _records(name, REFERENCES.get(name, {}))
    for seed in (0, 7):
        assert _failed_frac(verify(WORKLOADS[name], seed, records)) == 0


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_perturbed_reference_fails_at_seed0_only(name):
    records = _records(name, REFERENCES[name])
    for key in REFERENCES[name]:
        perturbed = {n: dict(v) for n, v in REFERENCES.items()}
        perturbed[name][key] *= 1 + 100 * RTOL
        assert _failed_frac(verify(WORKLOADS[name], 0, records, perturbed)) > 0
        assert _failed_frac(verify(WORKLOADS[name], 7, records, perturbed)) == 0


def test_round_off_is_admitted():
    name = "fock-sweep"
    records = _records(name, {"slope": REFERENCES[name]["slope"] * (1 + 4e-12)})
    assert _failed_frac(verify(WORKLOADS[name], 0, records)) == 0


def test_missing_record_counts_as_failure():
    outcome = verify(WORKLOADS["lemma-suite"], 0, {})
    assert outcome and not any(outcome.values())


def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0, 0),
        ("b", 1.0, 4.0, 0, 0, 0),
        ("c", 2.0, 3.0, 1, 0, 0),
        ("d", 5.0, 6.0, 0, 0, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_install_patches_every_namespace_and_uninstall_restores():
    import numpy as np

    from polaron_lab import npolaron, pekar

    originals = (np.fft.fftn, pekar.minimize_pekar, npolaron.minimize_pekar)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert npolaron.minimize_pekar is pekar.minimize_pekar
        assert pekar.minimize_pekar is not originals[1]
        assert np.fft.fftn is not originals[0]
    finally:
        tracer.uninstall()
    assert (np.fft.fftn, pekar.minimize_pekar, npolaron.minimize_pekar) == originals


def test_traced_minimizer_attribution():
    from polaron_lab import pekar
    from polaron_lab.spectral_core import Grid

    tracer = tracing.Tracer()
    tracer.install()
    try:
        sol = pekar.minimize_pekar(Grid(3, 16, 10.0), g=1.0, tol=1e-6)
    finally:
        tracer.uninstall()
    m = {k: v for k, (v, _) in tracing.layer_metrics(tracer.spans).items()}
    assert m["pekar.minimize_pekar.calls"] == 1
    assert m["pekar.minimize_pekar.iterations"] == len(sol.energy_history) - 1
    assert m["spectral_core.fft.calls"] > 0
    assert m["spectral_core.fft.points"] == 16**3 * m["spectral_core.fft.calls"]
    assert m["pekar.gap.s"] > 0
    total = sum(e - s for (n, s, e, *_) in tracer.spans if n == "pekar.minimize_pekar")
    assert 0 < m["pekar.minimize_pekar.self_s"] < total - m["pekar.gap.s"]


def test_tier1_does_not_collect_the_benchmark():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "tests/test_" in proc.stdout
    assert "perfbench" not in proc.stdout


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lp-flow", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    layers = dict(tracing.layer_metrics([]), **{"trace.overhead_frac": (0.0, "ratio")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
