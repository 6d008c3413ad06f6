import json
from pathlib import Path

import pytest

import alphascreen.baselines
import alphascreen.fdr
import alphascreen.linalg
import alphascreen.methods
from alphascreen.baselines import bh_procedure, bh_statistics, sbh_statistics, sn_statistics
from alphascreen.estimation import fit_observed
from alphascreen.fdr import NegativeControlConfig, select_threshold, split_statistics
from alphascreen.simulation import SimulationScenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _split(**kwargs):
    def rejected(returns, factors, beta):
        return select_threshold(split_statistics(returns, factors, **kwargs).t_prod, beta)[1]

    return rejected


def _bh(statistic):
    def rejected(returns, factors, beta):
        return bh_procedure(statistic(returns, factors).p_values, beta)

    return rejected


# Per method, the rejected indices from its public panel-level statistic
# and decision rule, refitting the panel on every call: the plain
# reference for the shared-fit method registry.
REFERENCE_REJECTED = {
    "yd": _split(),
    "yd_r": _split(studentize=True),
    "yd_th": _split(negative_control=NegativeControlConfig(mode="threshold_rule")),
    "bh": _bh(bh_statistics),
    "sbh": _bh(sbh_statistics),
    "sn": _bh(sn_statistics),
}


@pytest.fixture(autouse=True)
def blas_cap_released():
    """Fail a test that leaves a BLAS cap held or numpy's OpenBLAS thread
    count changed, then put both back for the tests that follow."""
    controls = alphascreen.linalg._BLAS_CONTROLS
    before = [get_threads() for _, get_threads in controls]
    yield
    holders = alphascreen.linalg._cap_holders
    after = [get_threads() for _, get_threads in controls]
    if holders == 0 and after == before:
        return
    alphascreen.linalg._cap_holders = 0
    for (set_threads, _), count in zip(controls, before):
        set_threads(count)
    pytest.fail(f"left {holders} BLAS cap(s) held and OpenBLAS at {after} threads, not {before}")


@pytest.fixture()
def load_scenario():
    """Load a checked-in scenario file by name, such as ``"global_null"``."""

    def load(name):
        return SimulationScenario.from_dict(json.loads((SCENARIOS / f"{name}.json").read_text()))

    return load


@pytest.fixture()
def reference_rejected():
    return REFERENCE_REJECTED


@pytest.fixture()
def fitted_lengths(monkeypatch):
    """Period count of every panel or half whose first pass ``fit_observed`` makes."""
    lengths = []

    def counting(returns, factors):
        lengths.append(returns.n_periods)
        return fit_observed(returns, factors)

    monkeypatch.setattr(alphascreen.estimation, "fit_observed", counting)
    return lengths


@pytest.fixture()
def caller_blas_threads():
    """Set numpy's bundled OpenBLAS to two threads, so that a cap to one
    shows and a count left at one is caught; the process's own count comes
    back after the test.  Yields the counts set."""
    controls = alphascreen.linalg._BLAS_CONTROLS
    saved = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(2)
    yield [2] * len(controls)
    for (set_threads, _), count in zip(controls, saved):
        set_threads(count)
