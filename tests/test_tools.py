"""The exactness tool: its digests are stable from one run to the next."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "exactness.py"


def test_exactness_digests_repeat(capsys):
    """Two runs over the fixture days print equal digests, one per objective;
    the first starts cold, the second on the kept problem. A third run, with
    ``--src`` naming this checkout's ``src/``, prints them too."""
    spec = importlib.util.spec_from_file_location("exactness", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outputs = []
    for argv in (["--part", "fixture"], ["--part", "fixture"], ["--part", "fixture", "--src", str(ROOT / "src")]):
        assert tool.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert re.fullmatch(r"fixture weighted [0-9a-f]{64}\nfixture lexicographic [0-9a-f]{64}\n", outputs[0])
    engine = tool.engine()
    assert engine is tool.engine(ROOT / "src")
    assert engine.power_bandwidth.solve is engine.lp_core.solve  # the recording wrapper is gone
