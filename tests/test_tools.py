"""The exactness tool: its digests are stable from one run to the next."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from bandwidth_engine import lp_core
from bandwidth_engine import power_bandwidth as pb

TOOL = Path(__file__).resolve().parent.parent / "tools" / "exactness.py"


def test_exactness_digests_repeat(capsys):
    """Two runs over the fixture days print equal digests, one per objective;
    the first starts cold, the second on the kept problem."""
    spec = importlib.util.spec_from_file_location("exactness", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outputs = []
    pb._kept.clear()
    for _ in range(2):
        assert tool.main(["--part", "fixture"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert re.fullmatch(r"fixture weighted [0-9a-f]{64}\nfixture lexicographic [0-9a-f]{64}\n", outputs[0])
    assert pb.solve is lp_core.solve  # the recording wrapper is gone
