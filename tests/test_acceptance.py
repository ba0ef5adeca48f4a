"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s to stream them).
Two sub-quantities are marked as strict expected failures; the repository
notes carry the measured analysis for both:

* the pinned-box (L=16) ground-state energy against the free-space oracle,
* the stability-bound constant fitted at alpha=1 holding with margin >= 0.
"""

import numpy as np
import pytest

from polaron_lab import acceptance
from polaron_lab import npolaron as npl
from polaron_lab.pekar import minimize_pekar


@pytest.fixture(scope="session")
def pekar_check():
    res = acceptance.check_pekar_ground_state("desk", seed=0)
    acceptance._print_result(res)
    return res


@pytest.fixture(scope="session")
def lp_check():
    res = acceptance.check_lp_stationarity("desk", seed=0)
    acceptance._print_result(res)
    return res


@pytest.fixture(scope="session")
def fock_check():
    res = acceptance.check_fock_identities("desk", seed=0)
    acceptance._print_result(res)
    return res


@pytest.fixture(scope="session")
def stationary_check():
    res = acceptance.check_error_scaling_stationary("desk", seed=0)
    acceptance._print_result(res)
    return res


@pytest.fixture(scope="session")
def coherent_check(stationary_check):
    res = acceptance.check_error_scaling_coherent("desk", seed=0, stationary=stationary_check)
    acceptance._print_result(res)
    return res


@pytest.fixture(scope="session")
def npolaron_check():
    res = acceptance.check_npolaron("desk", seed=0)
    acceptance._print_result(res)
    return res


@pytest.fixture(scope="session")
def hygiene_check(tmp_path_factory):
    work = tmp_path_factory.mktemp("determinism")
    res = acceptance.check_numerics_hygiene(
        "desk", seed=0, include_determinism=True, work_dir=work
    )
    acceptance._print_result(res)
    return res


class TestCheckResult:
    def test_failing_gates_are_kept_in_order_and_set_the_status(self, capsys):
        res = acceptance.CheckResult("demo")
        assert res.status == "pass"
        res.gate("first", True)
        res.gate("second", False)
        res.gate("third", True)
        res.gate("fourth", False)
        assert res.failures == ["second", "fourth"]
        assert res.status == "fail"
        res.details["x"] = 0.5
        res.expected_defects["y>=0"] = -0.25
        acceptance._print_result(res)
        assert capsys.readouterr().out == (
            "[FAIL] demo (0.0s): x=0.5, failures=second;fourth\n"
            "    [EXPECTED-DEFECT] demo:y>=0 measured=-0.25\n"
        )

    def test_a_zero_budget_fails_the_runtime_gate_last(self, monkeypatch):
        monkeypatch.setitem(acceptance.PRESETS["quick"]["sweep"], "budget_s", 0.0)
        res = acceptance.check_error_scaling_stationary("quick")
        assert res.failures == ["runtime"]
        assert res.status == "fail"
        # a stationary run that the coherent one cannot sit above fails a gate first
        above = acceptance.CheckResult("stationary", details={"slope": 0.0, "intercept": 0.0})
        res = acceptance.check_error_scaling_coherent("quick", stationary=above)
        assert res.failures == ["strictly_worse_than_stationary", "runtime"]


class TestPekarGroundState:
    def test_el_residual(self, pekar_check):
        assert "el_residual<tol" not in pekar_check.failures
        assert pekar_check.details["residual"] < 1e-6

    def test_energy_matches_radial_oracle_within_1_percent(self, pekar_check):
        assert pekar_check.details["oracle_dev"] < 1e-2

    def test_virial_defect_below_1e3(self, pekar_check):
        assert pekar_check.details["virial_defect"] < 1e-3

    def test_coupling_scaling_ratio_four(self, pekar_check):
        assert abs(pekar_check.details["scaling_ratio"] - 4.0) < 4e-3
        assert pekar_check.details["length_defect"] < 1e-2

    def test_runtime_budget(self, pekar_check):
        assert pekar_check.elapsed < 300.0

    def test_overall(self, pekar_check):
        assert pekar_check.status == "pass", pekar_check.failures

    @pytest.mark.xfail(
        strict=True,
        reason="documented defect: no periodic-lattice kernel reaches the free-space "
        "energy on the pinned L=16 box (orbital tail spans L/2; measured ~4.7%)",
    )
    def test_pinned_box_energy_matches_free_oracle(self, pekar_check):
        assert pekar_check.details["pinned_box_oracle_dev"] < 1e-2

    def test_length_defect_is_measured_even_where_the_energy_ratio_fails(self, monkeypatch):
        # the desk branch at the quick preset's sizes fails the energy-ratio gate; the length
        # law is measured from the same two solves, and gates length_contraction alone
        monkeypatch.setitem(
            acceptance.PRESETS["desk"], "pekar", acceptance.PRESETS["quick"]["pekar"]
        )
        res = acceptance.check_pekar_ground_state("desk", seed=0)
        defect = res.details["length_defect"]
        assert np.isfinite(defect)
        assert ("length_contraction" in res.failures) == (defect > 1e-2)


class TestLpStationarity:
    def test_infidelity(self, lp_check):
        assert lp_check.details["infidelity"] < 1e-6

    def test_norm_defect(self, lp_check):
        assert lp_check.details["norm_defect"] < 1e-8

    def test_energy_drift_total(self, lp_check):
        assert lp_check.details["energy_drift"] < 1e-5

    def test_representation_gap(self, lp_check):
        assert lp_check.details["rep_gap"] < 1e-8

    def test_runtime_budget(self, lp_check):
        assert lp_check.elapsed < 600.0

    def test_overall(self, lp_check):
        assert lp_check.status == "pass", lp_check.failures


class TestFockIdentities:
    def test_projector_and_rotated_frame_identities(self, fock_check):
        assert fock_check.details["projector_worst"] < 1e-12

    def test_conjugation_residuals(self, fock_check):
        assert fock_check.details["conjugation_worst"] < 1e-8

    def test_annihilator_bounds_thousand_states(self, fock_check):
        assert all(not f.startswith("annihilator") for f in fock_check.failures)
        assert fock_check.details["bound_ratio_worst"] <= 1.0

    def test_two_sided_bound(self, fock_check):
        assert fock_check.details["min_eig_worst"] >= -1e-10

    def test_variational_ordering_zero_tolerance(self, fock_check):
        assert fock_check.details["E_F"] <= fock_check.details["E_P_disc"]

    def test_runtime_budget(self, fock_check):
        assert fock_check.elapsed < 600.0

    def test_overall(self, fock_check):
        assert fock_check.status == "pass", fock_check.failures


class TestErrorScalingStationary:
    def test_sup_errors_strictly_decreasing(self, stationary_check):
        sups = stationary_check.details["sup_errors"]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_slope(self, stationary_check):
        assert stationary_check.details["slope"] <= -1.8

    def test_runtime_budget(self, stationary_check):
        assert stationary_check.elapsed < 1800.0

    def test_overall(self, stationary_check):
        assert stationary_check.status == "pass", stationary_check.failures

    @pytest.mark.xfail(
        strict=True,
        reason="documented defect: err*alpha^2 grows mildly with alpha (one-phonon "
        "gap k^2 + alpha^-2), so the constant fitted at alpha=1 undershoots by "
        "O(1/(k alpha)^2); measured a few percent of the error scale",
    )
    def test_bound_form_margin_nonnegative(self, stationary_check):
        assert stationary_check.details["bound_margin"] >= 0.0


class TestErrorScalingCoherent:
    def test_slope(self, coherent_check):
        assert coherent_check.details["slope"] <= -0.8

    def test_strictly_worse_than_stationary(self, coherent_check):
        assert coherent_check.details["worse_than_stationary"]

    def test_nothing_compared_without_a_stationary_run(self):
        res = acceptance.check_error_scaling_coherent("quick")
        assert res.details["worse_than_stationary"] is None
        assert "strictly_worse_than_stationary" not in res.failures

    def test_runtime_budget(self, coherent_check):
        assert coherent_check.elapsed < 1800.0

    def test_overall(self, coherent_check):
        assert coherent_check.status == "pass", coherent_check.failures


class TestNPolaron:
    def test_binding_at_zero_repulsion(self, npolaron_check):
        d = npolaron_check.details
        assert d["E_2_U0"] < d["twice_single"]

    def test_energy_nondecreasing_in_repulsion(self, npolaron_check):
        energies = npolaron_check.details["energies_vs_U"]
        assert all(a <= b + 1e-10 for a, b in zip(energies, energies[1:]))

    def test_product_at_or_above_full_oracle(self, npolaron_check):
        assert (
            npolaron_check.details["E_full"]
            <= npolaron_check.details["E_product"] + 1e-12
        )

    def test_runtime_budget(self, npolaron_check):
        assert npolaron_check.elapsed < 900.0

    def test_overall(self, npolaron_check):
        assert npolaron_check.status == "pass", npolaron_check.failures

    def test_seed_reaches_every_solve(self, monkeypatch):
        # every orbital solve starts from default_rng(seed): E_1 and U = 0, 0.5 for the scan,
        # E_1 and the orbital for the product pair, E_1 for the full pair
        starts = []

        def recording(*args, rng, **kwargs):
            starts.append(rng.bit_generator.state)
            return minimize_pekar(*args, rng=rng, **kwargs)

        monkeypatch.setattr(npl, "minimize_pekar", recording)
        acceptance.check_npolaron("quick", seed=5)
        assert len(starts) == 6
        assert all(state == np.random.default_rng(5).bit_generator.state for state in starts)


class TestNumericsHygiene:
    def test_gradient_matches_finite_differences(self, hygiene_check):
        assert hygiene_check.details["gradient_worst_rel"] <= 1e-6

    def test_time_reversibility(self, hygiene_check):
        assert hygiene_check.details["reversibility"] <= 1e-10

    def test_richardson_order_two(self, hygiene_check):
        assert 3.6 < hygiene_check.details["richardson_ratio"] < 4.4

    def test_seeded_runs_byte_identical(self, hygiene_check):
        assert hygiene_check.details["determinism_identical"] is True

    def test_overall(self, hygiene_check):
        assert hygiene_check.status == "pass", hygiene_check.failures

    def test_double_run_without_a_work_dir_leaves_nothing_behind(self, monkeypatch, tmp_path):
        from polaron_lab import runner

        out_dirs = []

        def recording(config):
            out_dirs.append(config.out_dir)
            config.out_dir.mkdir(parents=True)
            (config.out_dir / "acceptance.csv").write_text("check,status,detail\n")

        monkeypatch.setattr(runner, "run", recording)
        monkeypatch.chdir(tmp_path)
        res = acceptance.check_numerics_hygiene("quick")
        assert res.details["determinism_identical"] is True
        assert [out.name for out in out_dirs] == ["a", "b"]
        assert out_dirs[0].parent == out_dirs[1].parent
        assert not out_dirs[0].parent.exists()
        assert list(tmp_path.iterdir()) == []

        # a given work dir is used and kept
        out_dirs.clear()
        acceptance.check_numerics_hygiene("quick", work_dir=tmp_path / "work")
        assert out_dirs == [tmp_path / "work" / "a", tmp_path / "work" / "b"]
        assert (tmp_path / "work" / "b" / "acceptance.csv").exists()
