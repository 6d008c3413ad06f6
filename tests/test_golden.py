"""Decisions, FDP and power of every shipped scenario and method against
``tests/golden/golden.json``; README "Tests and acceptance suite" says when
the file may be regenerated."""

import importlib.util
import json

import numpy as np
import pytest

from alphascreen import METHODS

_SPEC = importlib.util.spec_from_file_location(
    "make_golden", __file__.replace("test_golden.py", "golden/make_golden.py")
)
make_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_golden)

GOLDEN = json.loads(make_golden.GOLDEN.read_text())
# Statistics and alphas may move by rounding: this share of a column's largest magnitude.
RTOL = 1e-12


def test_covers_every_scenario_and_method():
    assert list(GOLDEN["studies"]) == [path.name for path in make_golden.SCENARIOS]
    assert len(GOLDEN["studies"]) == 7
    assert list(GOLDEN["analyze"]) == list(METHODS)
    for rows in GOLDEN["studies"].values():
        assert {row[0] for row in rows} == set(METHODS)
        assert len(rows) == len(METHODS) * len(make_golden.BETAS) * make_golden.REPLICATIONS


@pytest.mark.parametrize("parallelism", [1, 2])
def test_study_rows_are_pinned(parallelism):
    rows = make_golden.study_rows(parallelism)
    assert rows == {name: [row[:5] for row in pinned] for name, pinned in GOLDEN["studies"].items()}


def test_rejection_sets_are_pinned():
    sets = make_golden.rejection_sets()
    expected = {
        name: [row[:3] + row[5:] for row in pinned] for name, pinned in GOLDEN["studies"].items()
    }
    assert sets == expected


def test_analyze_selections_are_pinned(tmp_path):
    for method, record in make_golden.selections(tmp_path).items():
        pinned = GOLDEN["analyze"][method]
        assert record["rejected"] == pinned["rejected"], method
        assert record["cutoff_name"] == pinned["cutoff_name"], method
        assert record["footer"] == pinned["footer"], method
        for column in ("alpha_hat", "statistic"):
            expected = np.array(pinned[column])
            scale = RTOL * np.max(np.abs(expected))
            assert np.max(np.abs(np.array(record[column]) - expected)) <= scale, (method, column)
        scale = RTOL * max(np.max(np.abs(pinned["statistic"])), abs(pinned["cutoff"]))
        assert record["cutoff"] == pinned["cutoff"] or abs(record["cutoff"] - pinned["cutoff"]) <= scale, method


def test_fit_ranks_are_pinned():
    # every fit's ratio winner is the search cap, so a lower MAX_RANK fails here
    ranks = make_golden.fit_ranks()
    assert list(ranks) == list(GOLDEN["ranks"])
    for name, (rank_hat, eigen_ratio) in GOLDEN["ranks"].items():
        assert ranks[name][0] == rank_hat, name
        assert abs(ranks[name][1] - eigen_ratio) <= RTOL * eigen_ratio, name


def test_a_rewrite_reports_its_drift():
    assert make_golden.drift(GOLDEN, GOLDEN)[-2:] == [
        "changed: 0 study rows, 0 rejection digests, 0 ranks",
        "eigenvalue ratios: largest relative change 0",
    ]
    moved = json.loads(json.dumps(GOLDEN))
    moved["analyze"]["yd"]["statistic"][0] += 1e-3 * np.max(np.abs(moved["analyze"]["yd"]["statistic"]))
    moved["studies"]["dense_alpha.json"][0][3] += 0.5
    moved["ranks"]["full"][0] += 1
    lines = make_golden.drift(GOLDEN, moved)
    assert lines[0].startswith("analyze yd: alpha_hat 0, statistic 0.001, cutoff 0;")
    assert lines[-2] == "changed: 1 study rows, 0 rejection digests, 1 ranks"
