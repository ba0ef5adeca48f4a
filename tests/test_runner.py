import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polaron_lab.errors import ConvergenceError, SchemaError
from polaron_lab import fock_sim, lp_dynamics as lp, pekar, runner
from polaron_lab.cli import _assemble_raw, build_parser, main as cli_main

from oracles import dense_weighted_resolvent_norm


class TestValidation:
    def test_missing_scenario_named(self):
        with pytest.raises(SchemaError) as err:
            runner.validate_config({})
        assert "scenario" in err.value.keys

    def test_unknown_scenario(self):
        with pytest.raises(SchemaError):
            runner.validate_config({"scenario": "nope"})

    def test_unknown_keys_listed(self):
        with pytest.raises(SchemaError) as err:
            runner.validate_config(
                {"scenario": "pekar", "params": {"grid": 16, "bogus": 1, "worse": 2}}
            )
        assert set(err.value.keys) == {"bogus", "worse"}

    def test_type_coercion_and_defaults(self):
        cfg = runner.validate_config({"scenario": "pekar", "params": {"grid": "32"}})
        assert cfg.params["grid"] == 32
        assert cfg.params["box"] == 16.0

    def test_theorem2_refuses_a_repeated_ring_momentum(self):
        # pairs +-1, +-2 on 4 sites: +-2 share ring index 2, which the exact model holds and
        # the LP flow does not
        params = {"sites": 4, "box": 4.0, "modes": 4}
        for experiment in ("theorem1", "lemmas", "projectors"):
            fock = {**params, "experiment": experiment}
            runner.validate_config({"scenario": "fock", "params": fock})
        runner.validate_config({"scenario": "lemma-suite", "params": params})
        with pytest.raises(SchemaError) as err:
            runner.validate_config(
                {"scenario": "fock", "params": {**params, "experiment": "theorem2"}}
            )
        assert err.value.keys == ("modes", "sites")
        ok = runner.validate_config(
            {"scenario": "fock", "params": {**params, "sites": 8, "experiment": "theorem2"}}
        )
        assert ok.params["sites"] == 8

    def test_lp_evolve_step_lattice(self):
        params = {"init": "ground/pekar.json", "T": 0.1, "dt": 1e-3}
        assert runner.validate_config({"scenario": "lp-evolve", "params": params}).params["T"] == 0.1
        with pytest.raises(SchemaError) as err:
            runner.validate_config(
                {"scenario": "lp-evolve", "params": {**params, "T": 1.0005}}
            )
        assert err.value.keys == ("T", "dt")

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_bool_keys_take_only_booleans(self, value):
        params = {"preset": "quick", "determinism": value}
        with pytest.raises(SchemaError) as err:
            runner.validate_config({"scenario": "full-acceptance", "params": params})
        assert err.value.keys == ("determinism",)
        params["determinism"] = False
        cfg = runner.validate_config({"scenario": "full-acceptance", "params": params})
        assert cfg.params["determinism"] is False

    @pytest.mark.parametrize("raw, key", [
        ({"scenario": "pekar", "params": [["grid", 16]]}, "params"),
        ({"scenario": "pekar", "params": None}, "params"),
    ])
    def test_malformed_tree_is_a_schema_error(self, raw, key):
        with pytest.raises(SchemaError) as err:
            runner.validate_config(raw)
        assert err.value.keys == (key,)

    @pytest.mark.parametrize("params", [
        {"grid": 16.7}, {"grid": True}, {"grid": float("inf")}, {"grid": "16.0"},
    ])
    def test_int_keys_refuse_what_int_would_truncate(self, params):
        with pytest.raises(SchemaError) as err:
            runner.validate_config({"scenario": "pekar", "params": params})
        assert err.value.keys == ("grid",)

    def test_int_keys_take_integers_integral_numbers_and_integer_text(self):
        with pytest.raises(SchemaError) as err:
            runner.validate_config({"scenario": "fock", "params": {"nmax": True}})
        assert err.value.keys == ("nmax",)
        for value in (16, 16.0, np.int64(16), "16"):
            cfg = runner.validate_config({"scenario": "pekar", "params": {"grid": value}})
            assert cfg.params["grid"] == 16 and type(cfg.params["grid"]) is int

    @pytest.mark.parametrize("seed", ["x", 1.5, True, None, -1, [3]])
    def test_seed_is_a_non_negative_integer(self, seed):
        with pytest.raises(SchemaError) as err:
            runner.validate_config({"scenario": "pekar", "seed": seed})
        assert err.value.keys == ("seed",)
        assert runner.validate_config({"scenario": "pekar", "seed": "7"}).seed == 7

    def test_choice_enforcement(self):
        with pytest.raises(SchemaError) as err:
            runner.validate_config({"scenario": "fock", "params": {"experiment": "bogus"}})
        assert "experiment" in err.value.keys


class TestRun:
    def test_pekar_scenario_writes_manifest_and_tables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = runner.validate_config(
            {
                "scenario": "pekar",
                "params": {"grid": 16, "box": 16.0, "tol": 1e-5},
                "out": str(tmp_path / "run"),
                "seed": 5,
            }
        )
        record = runner.run(cfg)
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "done"
        assert manifest["seed"] == 5
        assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
        assert manifest["versions"]["numpy"] == np.__version__
        assert set(manifest["thread_settings"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        }
        assert manifest["thread_settings"]["OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["thread_settings"]["MKL_NUM_THREADS"] is None
        assert (out / "energy_history.csv").exists()
        assert (out / "summary.json").exists()
        assert record.summary["E_P"] < 0

    def test_crash_leaves_aborted_manifest(self, tmp_path, monkeypatch):
        cfg = runner.validate_config(
            {"scenario": "pekar", "params": {"grid": 16}, "out": str(tmp_path / "boom")}
        )

        def explode(config, record):
            raise RuntimeError("injected")

        monkeypatch.setitem(runner._DISPATCH, "pekar", explode)
        with pytest.raises(RuntimeError):
            runner.run(cfg)
        manifest = json.loads((tmp_path / "boom" / "manifest.json").read_text())
        assert manifest["status"] == "aborted"

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        outs = []
        for label in ("one", "two"):
            cfg = runner.validate_config(
                {
                    "scenario": "fock",
                    "params": {
                        "sites": 8,
                        "box": 2.0,
                        "modes": 2,
                        "nmax": 3,
                        "v0": 3e-3,
                        "alpha_grid": "1,2",
                        "T": 0.5,
                        "samples": 4,
                        "experiment": "theorem1",
                    },
                    "out": str(tmp_path / label),
                    "seed": 9,
                }
            )
            runner.run(cfg)
            outs.append(tmp_path / label)
        a = (outs[0] / "errors.csv").read_bytes()
        b = (outs[1] / "errors.csv").read_bytes()
        assert a == b

    def test_summary_recomputable_from_table(self, tmp_path):
        cfg = runner.validate_config(
            {
                "scenario": "fock",
                "params": {
                    "sites": 8,
                    "box": 2.0,
                    "modes": 2,
                    "nmax": 3,
                    "v0": 3e-3,
                    "alpha_grid": "1,2",
                    "T": 0.5,
                    "samples": 4,
                    "experiment": "theorem1",
                },
                "out": str(tmp_path / "r"),
            }
        )
        record = runner.run(cfg)
        import csv as csvmod

        from polaron_lab.fock_sim import fit_loglog

        with open(tmp_path / "r" / "errors.csv") as fh:
            rows = [
                {k: float(v) for k, v in row.items()} for row in csvmod.DictReader(fh)
            ]
        alphas = sorted({r["alpha"] for r in rows})
        sups = [max(r["err"] for r in rows if r["alpha"] == a) for a in alphas]
        slope, intercept, _ = fit_loglog(alphas, sups)
        assert slope == pytest.approx(record.summary["slope"], rel=1e-12)

    def test_seventeen_digit_serialization(self, tmp_path):
        path = runner.write_csv(
            tmp_path / "vals.csv", [{"x": 1.0 / 3.0}], ["x"]
        )
        text = path.read_text().splitlines()[1]
        assert text == format(1.0 / 3.0, ".17g")
        assert float(text) == 1.0 / 3.0

    def test_full_acceptance_writes_every_table_at_full_precision(self, tmp_path):
        # the determinism double run compares these files, not only four-digit headlines
        params = {"preset": "quick", "determinism": False}
        record = runner.run(runner.validate_config(
            {"scenario": "full-acceptance", "params": params, "out": str(tmp_path)}
        ))
        assert record.passed
        names = ("error-scaling-stationary_errors", "error-scaling-coherent_errors",
                 "npolaron-binding_binding")
        for name in names:
            rows, header = record.tables[name]
            with open(tmp_path / f"{name}.csv") as fh:
                written = list(csv.DictReader(fh))
            assert len(written) == len(rows) > 0
            for row, back in zip(rows, written):
                for key in header:
                    if isinstance(row[key], float):
                        assert float(back[key]) == row[key]


class TestFockVerb:
    def test_theorem1_is_the_stationary_sweep(self, tmp_path):
        # the verb's rows and fit are error_sweep_stationary's, bit for bit
        params = {
            "sites": 8,
            "box": 2.0,
            "modes": 2,
            "nmax": 3,
            "v0": 3e-3,
            "alpha_grid": "1,2",
            "T": 0.5,
            "samples": 4,
            "experiment": "theorem1",
        }
        cfg = runner.validate_config(
            {"scenario": "fock", "params": params, "out": str(tmp_path), "seed": 2}
        )
        summary = runner.run(cfg).summary
        base = fock_sim.FockConfig(8, 2.0, (1, -1), v0=3e-3, n_max=3)
        rep = fock_sim.error_sweep_stationary(base, [1.0, 2.0], 0.5, n_samples=4)
        with open(tmp_path / "errors.csv") as fh:
            rows = [(float(r["t"]), float(r["alpha"]), float(r["err"])) for r in csv.DictReader(fh)]
        assert rows == rep["rows"]
        for key in ("alphas", "sup_errors", "slope", "intercept", "r_squared", "leakage_max",
                    "c_hat", "bound_margin"):
            assert summary[key] == rep[key]
        assert summary["residuals"] == rep["residual_max"]

    def test_single_alpha_fit_matches_fit_loglog(self):
        # a one-point sweep has no slope; its intercept is log(sup err), as fit_loglog says
        cfg = runner.validate_config(
            {
                "scenario": "fock",
                "params": {
                    "sites": 8, "box": 2.0, "modes": 2, "nmax": 3, "v0": 3e-3,
                    "alpha_grid": "2", "T": 0.5, "samples": 4, "experiment": "theorem1",
                },
            }
        )
        summary = runner.run(cfg).summary
        assert (summary["slope"], summary["intercept"], summary["r_squared"]) == (
            fock_sim.fit_loglog([2.0], summary["sup_errors"])
        )
        assert summary["intercept"] == pytest.approx(math.log(summary["sup_errors"][0]))

    def test_theorem2_scenario_summary_keys(self, tmp_path):
        cfg = runner.validate_config(
            {
                "scenario": "fock",
                "params": {
                    "sites": 8,
                    "box": 2.0,
                    "modes": 2,
                    "nmax": 4,
                    "v0": 3e-3,
                    "alpha_grid": "1,2",
                    "T": 0.5,
                    "dt": 5e-3,
                    "samples": 3,
                    "experiment": "theorem2",
                },
                "out": str(tmp_path / "t2"),
            }
        )
        record = runner.run(cfg)
        for key in ("slope", "intercept", "r_squared", "leakage_max", "residuals"):
            assert key in record.summary

    def test_lemma_suite_is_the_lemmas_experiment_validated_once(self, tmp_path, monkeypatch):
        lemmas = {"sites": 8, "box": 8.0, "modes": 4, "nmax": 2, "alpha_grid": "1,2"}
        fock = runner.validate_config(
            {
                "scenario": "fock",
                "params": {**lemmas, "experiment": "lemmas"},
                "out": str(tmp_path / "fock"),
            }
        )
        suite = runner.validate_config(
            {"scenario": "lemma-suite", "params": lemmas, "out": str(tmp_path / "suite")}
        )

        def forbidden(raw):
            raise AssertionError("a validated config was validated again")

        monkeypatch.setattr(runner, "validate_config", forbidden)
        runner.run(fock)
        runner.run(suite)
        fock_dir, suite_dir = tmp_path / "fock", tmp_path / "suite"
        for name in ("summary.json", "resolvent_norms.csv"):
            assert (suite_dir / name).read_bytes() == (fock_dir / name).read_bytes()
        assert json.loads((suite_dir / "summary.json").read_text())["experiment"] == "lemmas"


class TestPlotData:
    def _record(self):
        cfg = runner.validate_config(
            {
                "scenario": "fock",
                "params": {
                    "sites": 8,
                    "box": 2.0,
                    "modes": 2,
                    "nmax": 3,
                    "v0": 3e-3,
                    "alpha_grid": "1,2",
                    "T": 0.5,
                    "samples": 4,
                    "experiment": "theorem1",
                },
            }
        )
        return runner.run(cfg)

    def test_curves_and_fit_sidecar(self, tmp_path):
        record = self._record()
        files = runner.emit_plotdata(record, tmp_path)
        names = {f.name for f in files}
        assert "err_vs_t_alpha1.dat" in names
        assert "err_vs_t_alpha2.dat" in names
        assert "fit.json" in names
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["slope"] == pytest.approx(record.summary["slope"])

    def test_empty_table_warns(self, tmp_path):
        record = runner.RunRecord(manifest={}, tables={"errors": ([], ["t", "alpha", "err"])})
        with pytest.warns(UserWarning):
            files = runner.emit_plotdata(record, tmp_path)
        assert files[0].read_text() == ""

    def test_malformed_record_raises(self, tmp_path):
        record = runner.RunRecord(manifest={})
        with pytest.raises(SchemaError):
            runner.emit_plotdata(record, tmp_path)


class TestLpEvolve:
    def test_rows_are_the_evolve_samples_of_both_representations(
        self, tmp_path, pekar_rescaled_small
    ):
        # the saved ground state evolves bit for bit as the one in memory
        sol = pekar_rescaled_small
        pekar.save_solution(tmp_path, sol)
        params = {"init": str(tmp_path / "pekar.json"), "alpha": 2.0, "T": 0.02, "dt": 1e-3,
                  "sample_interval": 0.01}
        record = runner.run(runner.validate_config({"scenario": "lp-evolve", "params": params}))
        rows = record.tables["observables"][0]
        cfg = lp.LPConfig(sol.phi0.grid, sol.form, alpha=2.0)
        z0 = lp.stationary_label(cfg, sol.f)
        quad, osc = (
            lp.evolve(lp.initial_state(cfg, sol.phi0, z0=z0, rep=rep), 0.02, 1e-3, 0.01)
            for rep in ("quadrature", "oscillator")
        )
        assert len(rows) == len(quad) == 3
        for row, a, b in zip(rows, quad, osc):
            overlap = complex(np.vdot(a.phi.values, sol.phi0.values) * cfg.grid.cell_volume)
            assert row == {
                "t": a.t,
                "norm_defect": abs(a.phi.norm() - 1.0),
                "energy": lp.df_energy(a),
                "infidelity": 1.0 - abs(overlap),
                "phase_arg": float(np.angle(a.a_phase)),
                "rep_gap": float(np.max(np.abs(a.potential() - b.potential()))),
            }
        assert record.passed

    def test_verb_reports_what_the_stationarity_check_gates(self, tmp_path):
        # the check observes the verb's rows at t = 0 and t_final, so on the quick preset's
        # ground state the verb sampled at t_final reports the check's numbers bit for bit
        from polaron_lab import acceptance
        from polaron_lab.spectral_core import Grid

        p = acceptance.PRESETS["quick"]["lp"]
        check = acceptance.check_lp_stationarity("quick", seed=0)
        sol = pekar.minimize_pekar(
            Grid(3, p["n"], p["box"]), g=p["g"], tol=1e-9, rng=np.random.default_rng(0),
            compute_gap=False,
        )
        pekar.save_solution(tmp_path, sol)
        params = {"init": str(tmp_path / "pekar.json"), "alpha": p["alpha"], "T": p["t_final"],
                  "dt": p["dt"], "sample_interval": p["t_final"]}
        record = runner.run(runner.validate_config({"scenario": "lp-evolve", "params": params}))
        summary, details = record.summary, check.details
        assert (
            summary["final_infidelity"], summary["max_norm_defect"], summary["energy_drift"],
            summary["max_rep_gap"],
        ) == (details["infidelity"], details["norm_defect"], details["energy_drift"],
              details["rep_gap"])

    @pytest.mark.parametrize("case", ["missing", "older-format", "garbage"])
    def test_unreadable_init_is_a_schema_error(self, tmp_path, capsys, case):
        init = tmp_path / "ground" / "pekar.json"
        if case != "missing":
            init.parent.mkdir()
            init.write_text(json.dumps({"E_P": -0.02, "g": 0.5, "residual": 1e-9}))
        if case == "garbage":
            (init.parent / "pekar.npz").write_bytes(b"not an archive")
        out = tmp_path / "run"
        code = cli_main(["lp-evolve", "--init", str(init), "--T", "0.01", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'init'" in err
        if case != "garbage":
            assert "run the pekar verb" in err
        assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"


class TestCli:
    def test_schema_error_exit_code(self, tmp_path, capsys):
        assert cli_main(["fock", "--modes", "3", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["fock", "--modes", "3"], "modes"),
            (["lemma-suite", "--modes", "3"], "modes"),
            (["fock", "--alpha-grid", "1,x"], "alpha_grid"),
            (["lemma-suite", "--alpha-grid", "1,x"], "alpha_grid"),
            (["npolaron", "--u-grid", "0,y"], "u_grid"),
            (["fock", "--alpha-grid", "0,1"], "alpha_grid"),
            (["fock", "--alpha-grid", ","], "alpha_grid"),
            (["fock", "--nmax", "-1"], "nmax"),
            (["pekar", "--grid", "12"], "grid"),
            (["npolaron", "--grid", "12"], "grid"),
            (["fock", "--sites", "6"], "sites"),
            (["fock", "--modes", "0"], "modes"),
            (["lemma-suite", "--modes", "0"], "modes"),
            (["fock", "--sites", "4", "--modes", "4", "--experiment", "theorem2"], "modes"),
            (
                ["fock", "--experiment", "theorem2", "--sites", "8", "--box", "2", "--modes", "4",
                 "--nmax", "5", "--v0", "3e-3", "--alpha-grid", "1,8", "--T", "2.5",
                 "--samples", "26", "--dt", "3e-3"],
                "dt",
            ),
            (
                ["lp-evolve", "--init", "missing/pekar.json", "--sample-interval", "0.0015",
                 "--T", "0.01", "--dt", "1e-3"],
                "sample_interval",
            ),
            (["fock", "--alpha-grid", "2,2"], "alpha_grid"),
            (["lp-evolve"], "init"),
        ],
    )
    def test_malformed_parameters_are_refused_before_the_manifest(
        self, tmp_path, capsys, argv, key
    ):
        assert cli_main([*argv, "--out", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_solver_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise ConvergenceError("injected non-convergence", residual=1.0)

        monkeypatch.setattr(pekar, "minimize_pekar", no_convergence)
        code = cli_main(["pekar", "--grid", "16", "--out", str(tmp_path)])
        assert code == 1
        assert "injected non-convergence" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "aborted"

    def test_budget_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # 16 modes at n_max 10 on 16 sites is 85M states; the guard must fire
        # from the closed-form count, before any occupation is enumerated
        def enumerate_forbidden(*args):
            raise AssertionError("occupations enumerated before the budget check")

        monkeypatch.setattr(fock_sim, "_occupations", enumerate_forbidden)
        code = cli_main(["fock", "--modes", "16", "--nmax", "10", "--out", str(tmp_path)])
        assert code == 3
        assert "exceeds budget" in capsys.readouterr().err

    def test_sector_limit_exit_code(self, tmp_path, capsys):
        # 6 modes at n_max 8 give sectors of 3003 occupations, above the dense limit of 2000
        code = cli_main(["lemma-suite", "--nmax", "8", "--out", str(tmp_path)])
        assert code == 3
        assert "dense limit" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["theorem1", "theorem2"])
    def test_sweep_sector_limit_exit_code(self, tmp_path, capsys, experiment):
        # 8 modes at n_max 6 give sectors of 3003 occupations; the sweeps refuse them at once
        argv = ["fock", "--modes", "8", "--nmax", "6", "--experiment", experiment]
        assert cli_main([*argv, "--out", str(tmp_path)]) == 3
        assert "dense limit" in capsys.readouterr().err

    def test_success_exit_code(self, tmp_path):
        code = cli_main(
            [
                "lemma-suite",
                "--sites", "8", "--box", "8.0", "--modes", "4", "--nmax", "2",
                "--alpha-grid", "1,2", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "done"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["annihilator_bounds_hold"] is True
        with open(tmp_path / "resolvent_norms.csv") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        assert [r["alpha"] for r in rows] == [1.0, 2.0]
        basis = fock_sim.FockBasis(fock_sim.FockConfig(8, 8.0, (1, -1, 2, -2), v0=0.05, n_max=2))
        for row in rows:
            ops = fock_sim.assemble(basis, row["alpha"])
            pek = fock_sim.discrete_pekar(basis, row["alpha"])
            dense = dense_weighted_resolvent_norm(ops, pek)
            assert row["norm"] == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("experiment", ["theorem1", "theorem2"])
    @pytest.mark.parametrize("key, value", [("samples", "1"), ("T", "0")])
    def test_sweep_without_a_later_sample_is_a_schema_error(
        self, tmp_path, capsys, experiment, key, value
    ):
        # one sample, or T = 0, leaves no t > 0 point to measure an error at
        params = {"--T": "0.5", "--samples": "4", f"--{key}": value}
        code = cli_main(
            [
                "fock",
                "--sites", "8", "--box", "2.0", "--modes", "2", "--nmax", "2",
                "--alpha-grid", "1,2", "--experiment", experiment, "--out", str(tmp_path),
                *[item for pair in params.items() for item in pair],
            ]
        )
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--dt", "0"], ["--dt=-1e-2"], ["--T", "-1"], ["--T", "0.0105", "--dt", "1e-3"],
         ["--T", "inf"]],
    )
    def test_lp_evolve_steps_that_miss_T_are_a_schema_error(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        # dt = 0, steps away from T, or T off the step lattice: refused before any set-up
        def load_forbidden(*args, **kwargs):
            raise AssertionError("ground state loaded before T and dt were checked")

        monkeypatch.setattr(pekar, "load_solution", load_forbidden)
        code = cli_main(
            ["lp-evolve", "--init", str(tmp_path / "pekar.json"), *flags, "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'T'" in err and "'dt'" in err

    @pytest.mark.parametrize("interval", ["-1", "0"])
    def test_lp_evolve_non_positive_sample_interval_is_a_schema_error(
        self, tmp_path, monkeypatch, capsys, interval
    ):
        def load_forbidden(*args, **kwargs):
            raise AssertionError("ground state loaded before sample_interval was checked")

        monkeypatch.setattr(pekar, "load_solution", load_forbidden)
        code = cli_main(
            ["lp-evolve", "--init", str(tmp_path / "pekar.json"), "--T", "0.05",
             f"--sample-interval={interval}", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "'sample_interval'" in capsys.readouterr().err

    def test_projectors_verb(self, tmp_path):
        code = cli_main(
            [
                "fock",
                "--sites", "8", "--box", "4.0", "--modes", "2", "--nmax", "2",
                "--v0", "0.05", "--alpha-grid", "1", "--experiment", "projectors",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["idempotency"] < 1e-12

    @pytest.mark.parametrize(
        "content", [None, "{not json", "[1, 2]", '{"params": [1, 2]}', '{"params": 3}']
    )
    def test_malformed_config_file_is_a_schema_error(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:  # None: the file does not exist
            cfg_path.write_text(content)
        out = tmp_path / "out"
        code = cli_main(["pekar", "--config", str(cfg_path), "--grid", "16", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'config'" in err or "'params'" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("raw", [{"seed": "x"}, {"seed": 2.5}, {"params": {"grid": 16.7}}])
    def test_config_file_values_int_would_truncate_are_schema_errors(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["pekar", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert ("'seed'" if "seed" in raw else "'grid'") in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_fock_and_lemma_suite_runs_leave_scipy_fft_unimported(self, tmp_path):
        # scipy.fft imports scipy.special; only a transform over two or more axes loads it
        script = f"""
import sys
import numpy as np
import polaron_lab
from polaron_lab.cli import main
assert "scipy.fft" not in sys.modules, "import polaron_lab"
args = ["--sites", "8", "--box", "2", "--modes", "2", "--nmax", "2", "--alpha-grid", "1,2"]
assert main(["fock", *args, "--T", "0.5", "--samples", "3", "--experiment", "theorem2",
             "--out", {str(tmp_path / "fock")!r}]) == 0
assert main(["lemma-suite", *args, "--out", {str(tmp_path / "lemma")!r}]) == 0
assert "scipy.fft" not in sys.modules, "fock and lemma-suite"
polaron_lab.spectral_core._fftn(np.ones((2, 2)))
assert "scipy.fft" in sys.modules, "a two-axis transform"
"""
        src = Path(runner.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"scenario": "pekar", "params": {"grid": 16, "g": 1.0, "tol": 1e-4}})
        )
        out = tmp_path / "out"
        code = cli_main(
            ["pekar", "--config", str(cfg_path), "--g", "2.0", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["g"] == 2.0  # flag beats config file
        assert manifest["params"]["grid"] == 16


class TestReadme:
    def test_command_lines_pass_validation(self):
        # every documented command line parses and validates against the schema, unrun
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("polaron-lab ")]
        assert commands
        for command in commands:
            runner.validate_config(_assemble_raw(build_parser().parse_args(command[1:])))
