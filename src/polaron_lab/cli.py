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

Each verb's flags are its keys in ``runner._SCHEMAS``, written ``--`` plus the
key with ``_`` as ``-``; only ``--config``, ``--out``, ``--seed``,
``--plot-data`` and ``--no-determinism`` are declared here. Flags pass their
text on unchecked, and ``runner.validate_config`` coerces and checks every
value before any work, so a bad flag and a bad config key both exit 2 naming
the key. A JSON config file (--config) supplies the same key-value tree;
explicit flags override config keys. Exit codes: 0 pass, 1 assertion
failure, 2 configuration error, 3 resource/budget error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PolaronLabError, SchemaError, SizingError
from .runner import _CHOICES, _SCHEMAS, emit_plotdata, json_text, run, validate_config

_VERB_HELP = {
    "pekar": "minimize the polaron ground-state functional",
    "lp-evolve": "integrate the coupled electron/phonon flow",
    "fock": "truncated-space experiments and sweeps",
    "npolaron": "two-electron ground states and binding scan",
    "lemma-suite": "operator-bound suite on the toy chain",
    "full-acceptance": "run every acceptance check",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaron-lab",
        description="strong-coupling polaron numerics: ground states, effective dynamics, truncated-space experiments",
    )
    subs = parser.add_subparsers(dest="scenario")
    for scenario, help_text in _VERB_HELP.items():
        p = subs.add_parser(scenario, help=help_text)
        for key, (typ, _) in _SCHEMAS[scenario].items():
            if typ is not bool:
                choices = _CHOICES.get((scenario, key))
                p.add_argument(
                    "--" + key.replace("_", "-"), dest=key, help=choices and f"one of {choices}"
                )
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output directory (or CSV path for lp-evolve)")
        p.add_argument("--seed", type=int, default=None)
    subs.choices["fock"].add_argument(
        "--plot-data", action="store_true", help="also write gnuplot files"
    )
    subs.choices["full-acceptance"].add_argument(
        "--no-determinism", dest="determinism", action="store_const", const=False
    )
    return parser


def _assemble_raw(args) -> dict:
    raw = {"scenario": args.scenario, "params": {}}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise SchemaError(
                f"'config' {args.config} is not readable JSON: {exc}", keys=("config",)
            ) from None
        if not isinstance(loaded, dict):
            raise SchemaError(f"'config' {args.config} holds no JSON object", keys=("config",))
        raw.update(loaded)
        raw["scenario"] = args.scenario
    flags = {k: v for k, v in vars(args).items() if k in _SCHEMAS[args.scenario] and v is not None}
    if isinstance(raw.get("params"), dict):  # validate_config refuses any other params
        raw["params"].update(flags)
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
        print(json_text(record.summary))
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


if __name__ == "__main__":
    sys.exit(main())
