import numpy as np
import pytest

from polaron_lab import fock_sim as fs
from polaron_lab import lp_dynamics as lp
from polaron_lab import npolaron as npl
from polaron_lab import runner
from polaron_lab.errors import GridMismatchError, SchemaError, SizingError
from polaron_lab.spectral_core import FormFactor, Grid, WaveField

RING = Grid(1, 8, 8.0)


def _ring_state():
    cfg = lp.LPConfig(RING, FormFactor.toy(RING, 0.3), alpha=2.0)
    return lp.initial_state(cfg, WaveField(RING, np.ones(8)))


def _pair_config(statistics):
    return npl.PTConfig(2, 0.5, RING, statistics, FormFactor.toy(RING, 0.3))


@pytest.mark.parametrize(
    "call, error, fragment, keys",
    [
        pytest.param(
            lambda: fs.FockConfig(8, 2.0, (1, 1, -1), 3e-3, 2), ValueError,
            "duplicate phonon modes", None, id="fock-duplicate-mode",
        ),
        pytest.param(
            lambda: fs.discrete_pekar(fs.FockBasis(fs.FockConfig(8, 2.0, (-1, 1), 3e-3, 2)), 0.0),
            ValueError, "alpha must be positive", None, id="discrete-pekar-zero-alpha",
        ),
        pytest.param(
            lambda: lp.LPConfig(RING, FormFactor.toy(RING, 0.3), alpha=0.0), ValueError,
            "alpha must be positive", None, id="lp-zero-alpha",
        ),
        pytest.param(
            lambda: lp.evolve(_ring_state(), 0.1, 1e-2, sample_interval=0.0), ValueError,
            "shorter than the step", None, id="evolve-zero-sample-interval",
        ),
        pytest.param(
            lambda: npl.PTConfig(2, -0.5, RING), ValueError, "nonnegative", None,
            id="pt-negative-repulsion",
        ),
        pytest.param(
            lambda: npl.PTConfig(2, 0.5, RING, statistics="fermion"), ValueError,
            "statistics must be one of", None, id="pt-unknown-statistics",
        ),
        pytest.param(
            lambda: npl.pt_energy(np.ones((8, 4)), _pair_config("full_two_body")), SizingError,
            "pair state must have shape", None, id="pt-energy-pair-shape",
        ),
        pytest.param(
            lambda: npl.dfn_evolve(_pair_config("boson_product"), np.ones((8, 8)), 2.0, 0.1, 1e-2),
            SizingError, "full_two_body", None, id="dfn-evolve-product-config",
        ),
        pytest.param(
            lambda: WaveField(RING, np.zeros(8)).normalized(), ZeroDivisionError, "zero field",
            None, id="normalize-zero-field",
        ),
        pytest.param(
            lambda: FormFactor(RING, np.ones(4), np.inf, "short"), GridMismatchError,
            "does not match grid", None, id="form-factor-shape",
        ),
        pytest.param(
            lambda: FormFactor(RING, -np.ones(8), np.inf, "negative"), ValueError,
            "nonnegative", None, id="form-factor-negative",
        ),
        pytest.param(
            lambda: runner.validate_config(["lp-evolve"]), SchemaError, "key-value tree", (),
            id="config-not-a-tree",
        ),
        pytest.param(
            lambda: runner.validate_config({"scenario": "lp-evolve"}), SchemaError,
            "missing required parameters", ("init",), id="lp-evolve-without-init",
        ),
    ],
)
def test_a_refusal_raises_its_typed_error(call, error, fragment, keys):
    with pytest.raises(error, match=fragment) as refused:
        call()
    if keys is not None:
        assert refused.value.keys == keys
