"""The tools: the exactness tool's digests are stable from one run to the
next and pinned, and the cold-zone and warm-hour timers run."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_exactness_digests_repeat(capsys):
    """Two runs over the fixture days print equal digests;
    the first starts cold, the second on the kept problem. A third run, with
    ``--src`` naming this checkout's ``src/``, prints them too."""
    tool = _tool("exactness")
    outputs = []
    for argv in (["--part", "fixture"], ["--part", "fixture"], ["--part", "fixture", "--src", str(ROOT / "src")]):
        assert tool.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert re.fullmatch(r"fixture weighted [0-9a-f]{64}\n", outputs[0])
    engine = tool.engine()
    assert engine is tool.engine(ROOT / "src")
    assert engine.power_bandwidth.solve is engine.lp_core.solve  # the recording wrapper is gone


# The fixture days' digests, pinned: a change that moves them on purpose
# re-pins them and says why, as it would for the goldens.
FIXTURE_DIGESTS = (
    "fixture weighted 88db774385e166b113ec0bfe06e76d1d3244287d732d9da2335795bd94b77d0e\n"
)
YEAR_DIGESTS = (
    "year weighted dca1950b71d9536981f6ed3ed0e0be7bc18c44ed90689d1b8bb86821aea6d925\n"
)
RANDOM_DIGESTS = (
    "random weighted 1fb62171ffad4dc6119eb46c5fe0526eb30a0b2d373772adbdc3beb5f7f70cc3\n"
)


def test_exactness_fixture_digests_are_pinned(capsys):
    """The fixture days' results and solver counters keep their bits."""
    assert _tool("exactness").main(["--part", "fixture"]) == 0
    assert capsys.readouterr().out == FIXTURE_DIGESTS


@pytest.mark.parametrize(
    "part, digests", [("year", YEAR_DIGESTS), ("random", RANDOM_DIGESTS)], ids=["year", "random"]
)
def test_exactness_digests_are_pinned(capsys, part, digests):
    """The synthetic year's and the random instances' results and solver
    counters keep their bits."""
    assert _tool("exactness").main(["--part", part]) == 0
    assert capsys.readouterr().out == digests


def test_coldzone_times_five_zones(capsys):
    """The cold-zone timer reaches into ``BandwidthProblem`` (its
    constructor, ``set_hour`` and ``objectives``), ``_solve_written``,
    ``network_model`` and ``_max_violation_diagnostic``; on five zones, one
    pass, it prints a JSON report of one tree, and again on a second call in
    the same process."""
    tool = _tool("coldzone")
    reports = []
    for _ in range(2):
        assert tool.main(["--zones", "5", "--passes", "1", "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    for report in reports:
        assert report["results_equal"] is True
        assert report["zones"] == 5 and len(report["trees"]) == 1
    assert reports[0]["unclearable"] == reports[1]["unclearable"]


def test_warmhour_times_three_days(capsys):
    """The warm-hour timer reaches into ``compute_power_bandwidths`` and the
    fixtures' synthetic year; on three days, one pass, it prints a JSON report
    of one tree imported twice, whose copies' results are equal."""
    tool = _tool("warmhour")
    assert tool.main(["--days", "3", "--passes", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results_equal"] is True
    assert report["days"] == 3 and report["hours"] == 72 and len(report["trees"]) == 1
    tree = report["trees"][0]
    assert len(tree["by_import"]) == 2 and tree["us_per_hour"] == min(tree["by_import"]) > 0
    split = tree["split_us_per_hour"]
    assert list(split) == ["block preparation", "walk", "read-out"] and all(v > 0 for v in split.values())


def test_warmhour_splits_na_for_a_missing_name(capsys, monkeypatch):
    """A tree without one of the split's functions reads "n/a" for its part
    and for the read-out, and the other parts still read."""
    tool = _tool("warmhour")
    monkeypatch.setattr(tool, "SPLIT", (*tool.SPLIT[:2], ("walk", "lp_core", "_no_such_walk")))
    assert tool.main(["--days", "1", "--passes", "1"]) == 0
    out = capsys.readouterr().out
    split_row = out.splitlines()[-2].split()
    assert split_row[-2:] == ["n/a", "n/a"] and float(split_row[-3]) > 0
