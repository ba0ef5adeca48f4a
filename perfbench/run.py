"""polaron-lab benchmark: four CLI-verb workloads timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload ground-state --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 0

Each workload runs in its own worker process (``worker.py``) with one
BLAS/OpenMP thread and ``POLARON_LAB_THREADS=1``. The worker builds its inputs
from ``--seed``, runs timed passes of the workload's verbs through
``runner.run(validate_config(raw))`` for about ``--seconds`` (at least one
pass), and verifies every pass against the oracle in ``workloads.py``. A fixed
numpy job, the reference kernel, is timed before the first pass and after
every pass.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref_s``: median, over passes, of a pass's wall time divided by the
  mean time of the reference-kernel runs just before and just after it, times
  ``REFERENCE_NOMINAL_S``: the wall time of one pass on a host that runs the
  reference kernel in 0.5 s. On a shared 2-vCPU VM the host's speed drifts by
  10-20% over tens of seconds, which moves the plain median wall time of a
  pass by as much from one run to the next; the reference kernel slows with
  it, and the ratio cancels most of that drift. The plain median (``wall_s``), its sample count and tail go to
  standard error and to the result file, with the reference kernel's median;
* ``setup_s``: median, over several worker processes, of the time from process
  spawn to the first timed call (imports, inputs, and for ``lp-flow`` the
  32^3 ground state), scaled like ``wall_ref_s`` by the run's median
  reference-kernel time; set-up is CPU-bound too, and its plain median moved
  with the host's speed by up to 25% between sets of runs. The plain median
  goes to standard error and to the result file;
* ``peak_rss_mb``: peak resident memory of the measuring worker.

``--trace 1`` reports the per-layer metrics of ``tracing.py`` from one traced
pass plus its set-up, and ``trace.overhead_frac`` against an untraced pass in
the same worker; spans go to ``.perfbench_out/spans/``.

Failed over attempted operations (``failed_frac``) is carried by the result's
``attempted`` and ``failed``. Human-readable lines and the provenance go to
standard error and to ``.perfbench_out/results/``; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # worker processes whose set-up time is measured per run
REFERENCE_NOMINAL_S = 0.5  # reference-kernel time that wall_ref_s is scaled to
DEADLINE_S = 175.0  # every run ends (or is killed) before this


def _spawn(name, args, *extra, deadline):
    """Run one worker to completion; returns (its result dict, spawn time)."""
    out = OUT / "raw" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out), *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
    return json.loads(out.read_text()), spawned


def _wall_summary(walls):
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(walls), "samples": len(walls)}
    tail = [p for p in (50, 90, 99) if len(walls) * (100 - p) >= 1000]
    if tail:
        out[f"p{tail[-1]}"] = statistics.quantiles(walls, n=100, method="inclusive")[tail[-1] - 1]
    return out


def run_workload(name, args, deadline) -> dict:
    if args.trace:
        spans = OUT / "spans" / f"{name}-seed{args.seed}.jsonl"
        result, _ = _spawn(name, args, "--spans", str(spans), deadline=deadline)
        metrics = result["metrics"]
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            probe, spawned = _spawn(name, args, "--setup-only", deadline=deadline)
            setups.append(probe["ready_monotonic"] - spawned)
        result, spawned = _spawn(name, args, deadline=deadline)
        setups.append(result["ready_monotonic"] - spawned)
        result["setup_s"] = setups
        result["wall"] = _wall_summary(result["wall_s"])
        reference = statistics.median(sum(result["reference_s"], []))
        metrics = {
            "wall_ref_s": {
                "value": statistics.median(result["relative"]) * REFERENCE_NOMINAL_S,
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setups) / reference * REFERENCE_NOMINAL_S, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["metrics"] = metrics
    result["failed_frac"] = result["failed"] / max(result["attempted"], 1)
    detail = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps(result, indent=1, sort_keys=True))
    _report(result)
    return result


def _report(result):
    line = [f"{result['workload']} seed {result['seed']} trace {result['trace']}:"]
    for name, m in result["metrics"].items():
        line.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "wall" in result:
        wall = ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items())
        line.append(f"  wall_s (plain) = {wall}; setup_s (plain) = {statistics.median(result['setup_s']):.6g};"
                    f" reference kernel median {statistics.median(sum(result['reference_s'], [])):.6g} s")
    line.append(
        f"  failed_frac = {result['failed_frac']:.6g} ({result['failed']}/{result['attempted']} operations)"
    )
    for item in result["failed_operations"] + result["errors"]:
        line.append(f"  FAILED {item}")
    prov = result["provenance"]
    line.append(
        f"  provenance: git {prov['git_sha']} dirty={prov['git_dirty']} src {prov['src_sha256'][:12]}"
        f" python {prov['python']} numpy {prov['numpy']} scipy {prov['scipy']}"
        f" BLAS threads {prov['threads']['OPENBLAS_NUM_THREADS']}"
        f" POLARON_LAB_THREADS {prov['threads']['POLARON_LAB_THREADS']}"
        f" nproc {prov['nproc']} host {prov['host']}"
    )
    print("\n".join(line), file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "polaron_lab" / "__init__.py").is_file():
        print(f"perfbench: no polaron_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile up front so that no timed set-up pays for it
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("perfbench: polaron_lab sources do not compile", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, deadline if len(names) == 1 else float("inf")))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
