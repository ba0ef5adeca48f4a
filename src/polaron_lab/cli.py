"""Command-line entry point.

Verbs map one-to-one onto runner scenarios:

    polaron-lab pekar --grid 64 --box 16 --g 1.0 --tol 1e-6 --out dir/
    polaron-lab lp-evolve --init dir/pekar.json --alpha 4 --T 10 --dt 1e-3 \\
        --rep both --out run.csv
    polaron-lab fock --sites 16 --modes 6 --nmax 3 --alpha-grid 1,2,4,8 --T 5 \\
        --experiment theorem1 --out dir/
    polaron-lab npolaron --N 2 --U 0.5 --mode product --out dir/
    polaron-lab lemma-suite --out dir/
    polaron-lab full-acceptance --preset desk --out dir/

A JSON config file (--config) supplies the same key-value tree; explicit
flags override config keys. Exit codes: 0 pass, 1 assertion failure,
2 configuration error, 3 resource/budget error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PolaronLabError, SchemaError, SizingError
from .runner import emit_plotdata, run, validate_config


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--out", help="output directory (or CSV path for lp-evolve)")
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaron-lab",
        description="strong-coupling polaron numerics: ground states, effective dynamics, truncated-space experiments",
    )
    subs = parser.add_subparsers(dest="scenario")

    p = subs.add_parser("pekar", help="minimize the polaron ground-state functional")
    p.add_argument("--grid", type=int)
    p.add_argument("--box", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--kernel", choices=("isolated", "periodic"))
    _add_common(p)

    p = subs.add_parser("lp-evolve", help="integrate the coupled electron/phonon flow")
    p.add_argument("--init", help="saved ground-state JSON (from the pekar verb)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--dt", type=float)
    p.add_argument("--rep", choices=("both", "oscillator", "quadrature"))
    p.add_argument("--sample-interval", type=float, dest="sample_interval")
    _add_common(p)

    p = subs.add_parser("fock", help="truncated-space experiments and sweeps")
    p.add_argument("--sites", type=int)
    p.add_argument("--box", type=float)
    p.add_argument("--modes", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--v0", type=float)
    p.add_argument("--alpha-grid", dest="alpha_grid")
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--dt", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--experiment", choices=("theorem1", "theorem2", "lemmas", "projectors"))
    p.add_argument("--plot-data", action="store_true", help="also write gnuplot files")
    _add_common(p)

    p = subs.add_parser("npolaron", help="two-electron ground states and binding scan")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--U", type=float, dest="U")
    p.add_argument("--mode", choices=("product", "full"))
    p.add_argument("--grid", type=int)
    p.add_argument("--box", type=float)
    p.add_argument("--u-grid", dest="u_grid")
    _add_common(p)

    p = subs.add_parser("lemma-suite", help="operator-bound suite on the toy chain")
    p.add_argument("--sites", type=int)
    p.add_argument("--box", type=float)
    p.add_argument("--modes", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--v0", type=float)
    p.add_argument("--alpha-grid", dest="alpha_grid")
    _add_common(p)

    p = subs.add_parser("full-acceptance", help="run every acceptance check")
    p.add_argument("--preset", choices=("desk", "quick"))
    p.add_argument("--no-determinism", action="store_true")
    _add_common(p)

    return parser


def _assemble_raw(args) -> dict:
    raw = {"scenario": args.scenario, "params": {}}
    if getattr(args, "config", None):
        raw.update(json.loads(Path(args.config).read_text()))
        raw["scenario"] = args.scenario
    skip = {"scenario", "config", "out", "seed", "plot_data", "no_determinism"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        raw.setdefault("params", {})[key] = value
    if getattr(args, "no_determinism", False):
        raw["params"]["determinism"] = False
    if args.out:
        raw["out"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.scenario:
        parser.print_help()
        return 2
    try:
        raw = _assemble_raw(args)
        out = raw.get("out")
        if args.scenario == "lp-evolve" and out and str(out).endswith(".csv"):
            # spec'd convenience: a .csv target means "directory of the file"
            raw["out"] = str(Path(out).parent or ".")
        config = validate_config(raw)
        record = run(config)
        if getattr(args, "plot_data", False) and config.out_dir is not None:
            emit_plotdata(record, config.out_dir / "plotdata")
        if args.scenario == "lp-evolve" and out and str(out).endswith(".csv"):
            src = config.out_dir / "observables.csv" if config.out_dir else None
            if src and src.exists():
                Path(out).write_bytes(src.read_bytes())
        summary = {k: v for k, v in record.summary.items()}
        print(json.dumps(_plain(summary), indent=2, sort_keys=True, default=str))
        return 0 if record.passed else 1
    except SchemaError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SizingError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except PolaronLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _plain(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


if __name__ == "__main__":
    sys.exit(main())
