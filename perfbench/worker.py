"""Run one workload in this process and write its raw result as JSON.

Started by ``run.py``; not meant to be run by hand. The BLAS/OpenMP thread
count and ``POLARON_LAB_THREADS`` are pinned to 1 before numpy is imported,
so every result measures the same single-threaded program.

Modes:
* ``--setup-only``: import and set up, record when set-up ended, exit.
* ``--trace 0``: set up, then run timed passes for about ``--seconds``,
  alternating with timed runs of a fixed reference kernel; no pass is started
  that would likely end past ``--seconds``.
* ``--trace 1``: set up with tracing on, run one untraced pass, then one
  traced pass; compute the per-layer metrics and write the span file.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["POLARON_LAB_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, verify  # noqa: E402

REFERENCE_SHARE = 0.2  # reference-kernel time after each pass, as a share of the pass


def provenance() -> dict:
    import numpy
    import scipy

    git_sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
        )
        if head.returncode == 0 and status.returncode == 0:
            git_sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polaron_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS + ("POLARON_LAB_THREADS",)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "host": platform.node(),
    }


def reference_kernel():
    """A fixed numpy job timed between passes; returns a function that runs it once.

    It mixes what the workloads spend their time on (3-d FFTs of fresh 32^3
    arrays, elementwise complex arithmetic, dense Hermitian ``eigh``) and uses
    no polaron_lab code, so a change to the program leaves its time alone while
    a busier host slows it about as much as the passes around it.
    """
    import numpy as np

    rng = np.random.default_rng(20161201)
    field = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
    matrix = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    matrix = matrix + matrix.conj().T

    def run_once():
        start = time.perf_counter()
        for _ in range(200):
            np.fft.ifftn(np.exp(-0.1j) * np.fft.fftn(field))
        np.linalg.eigh(matrix)
        np.linalg.eigh(matrix)
        return time.perf_counter() - start

    return run_once


def run_pass(configs, seed, out_dir: Path):
    """Run one pass of verb configs; returns (wall seconds, records, errors)."""
    from polaron_lab.runner import run, validate_config

    records, errors = {}, []
    start = time.perf_counter()
    for label, raw in configs:
        try:
            records[label] = run(validate_config(dict(raw, seed=seed, out=str(out_dir / label))))
        except Exception as exc:  # counted as failed operations by the oracle
            errors.append(f"{label}: {exc!r}")
    return time.perf_counter() - start, records, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="path of the result JSON")
    parser.add_argument("--spans", help="path of the span file (traced runs)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    try:
        tracer = None
        import polaron_lab.runner  # noqa: F401  (imports are part of set-up)

        if args.trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        configs = workload.setup(args.seed, work)
        result["ready_monotonic"] = time.monotonic()
        if args.setup_only:
            return _write(args.out, result)

        walls, outcomes, errors = [], [], []

        def timed_pass(index):
            wall, records, errs = run_pass(configs, args.seed, work / f"pass{index}")
            outcomes.append(verify(workload, args.seed, records))
            errors.extend(errs)
            shutil.rmtree(work / f"pass{index}", ignore_errors=True)
            return wall

        if tracer is not None:
            tracer.uninstall()
            untraced = timed_pass(0)
            tracer.pass_id = 1
            tracer.install()
            try:
                traced = timed_pass(1)
            finally:
                tracer.uninstall()
            walls = [untraced, traced]
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer.spans).items()}
            metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
            result["metrics"] = metrics
            result["span_count"] = len(tracer.spans)
            if args.spans:
                result["span_file"] = str(tracer.write(args.spans).relative_to(ROOT))
        else:
            # A shared host's speed drifts by 10-20% over tens of seconds. The
            # reference kernel runs once before the first pass and, after every
            # pass, for at least REFERENCE_SHARE of that pass's time; each pass
            # is then also timed relative to the reference runs that bracket
            # it. Stop before a pass that would likely end past --seconds, so
            # runs of every workload take about --seconds whatever their pass
            # length.
            reference = reference_kernel()
            start = time.perf_counter()
            refs = [[reference()]]
            while True:
                walls.append(timed_pass(len(walls)))
                refs.append([])
                while sum(refs[-1]) < REFERENCE_SHARE * walls[-1]:
                    refs[-1].append(reference())
                spent = time.perf_counter() - start
                if spent + (1 + REFERENCE_SHARE) * statistics.median(walls) > args.seconds:
                    break
            result["reference_s"] = refs
            result["relative"] = [
                wall / ((statistics.mean(before) + statistics.mean(after)) / 2)
                for wall, before, after in zip(walls, refs, refs[1:])
            ]
        result.update(
            wall_s=walls,
            attempted=sum(len(o) for o in outcomes),
            failed=sum(not ok for o in outcomes for ok in o.values()),
            failed_operations=sorted({k for o in outcomes for k, ok in o.items() if not ok}),
            errors=errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            provenance=provenance(),
        )
        return _write(args.out, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write(path, result) -> int:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
