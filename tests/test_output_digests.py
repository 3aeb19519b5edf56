"""tools/output_digests.py: the byte check of a change against its parent."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_listing_is_the_same_at_jobs_1_and_3():
    tool = _tool()
    serial = tool.listing(ROOT / "src", 1)
    assert tool.listing(ROOT / "src", 3) == serial
    # every command ran to the end, and each wrote its log
    assert [line for line in serial if line.startswith("exit ")] == [
        f"exit 0  {name}: exit code" for name, _ in tool.COMMANDS]
    listed = {line.split("  ")[1] for line in serial}
    assert {"bench/runs.jsonl", "switch-analysis/switch_runs.jsonl",
            "switch-plans/switch_runs.jsonl", "switch-point/switch_runs.jsonl",
            "sweep/sweep_runs.jsonl"} <= listed
