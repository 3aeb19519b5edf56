"""Guard for the benchmark tracer's hooks into dynswitch.

``benchmark/tracer.py`` wraps dynswitch functions by name, where their
callers look them up.  A refactor that drops one of those names, or routes a
call around it, would only show in a traced benchmark run; this test runs a
tiny bench, analyze, switch against that bench and sweep through the CLI
with the tracer installed, so it shows in the test suite too.
"""

import csv
import importlib
import sys
from pathlib import Path

from dynswitch import cli, switching
from dynswitch.optimizers import driver
from dynswitch.problems import ProblemInstance
from dynswitch.tracing import BudgetedEvaluator, load_records

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "benchmark"

# every (owner, name) that tracer.install patches
PATCHED = (
    (ProblemInstance, "evaluate"), (BudgetedEvaluator, "__call__"),
    (cli, "record_to_json"), (cli, "instantiate"), (cli, "load_records"),
    (cli, "build_ert_tables"), (cli, "build_vbs_reports"),
    (cli, "run_single"), (cli, "sweep_tau"), (cli, "run_switch"),
    (driver, "drive"), (switching, "drive"), (switching, "extract"),
    (switching, "apply_warmstart"), (switching, "run_switch"),
)
SMALL = ("--functions", "1", "--dims", "2", "--runs", "1", "--instances",
         "1,2", "--budget-mult", "200")


def _import_tracer():
    # the benchmark's modules import each other as top-level modules
    sys.path.insert(0, str(BENCHMARK_DIR))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCHMARK_DIR))


def test_tracer_hooks_see_every_evaluation(tmp_path):
    tracer_module = _import_tracer()
    originals = [getattr(owner, name) for owner, name in PATCHED]
    tracer = tracer_module.Tracer()
    restore = tracer_module.install(tracer)
    try:
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(PATCHED, originals))
        assert cli.main(["bench", "--algorithms", "BFGS,CMA-ES", *SMALL,
                         "--out", str(tmp_path / "bench")]) == 0
        assert cli.main(["analyze", "--logs", str(tmp_path / "bench"),
                         "--out", str(tmp_path / "analysis")]) == 0
        assert cli.main(["switch", "--plan", "BFGS:CMA-ES:1", *SMALL,
                         "--logs", str(tmp_path / "bench"),
                         "--out", str(tmp_path / "switch")]) == 0
        assert cli.main(["sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES",
                         "--function", "1", "--dim", "2",
                         "--tau-exponents", "1,0", *SMALL[4:],
                         "--out", str(tmp_path / "sweep")]) == 0
    finally:
        restore()
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(PATCHED, originals))

    static, _ = load_records(tmp_path / "bench" / "runs.jsonl")
    records, _ = load_records(tmp_path / "switch" / "switch_runs.jsonl")
    with open(tmp_path / "sweep" / "sweep_runs.tsv") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert len(static) == 4 and len(records) == 2 and len(rows) == 4
    evals = (sum(r["evals_used"] for r in static + records)
             + sum(int(r["evals_used"]) for r in rows))
    counted = sum(count for key, (count, *_) in tracer.calls.items()
                  if key.startswith("problems.evaluate.F"))
    assert counted == evals > 0

    spans = [s.name for s in tracer.spans]
    assert spans.count("optimizers.run_single") == len(static)
    # ERT tables for bench's success counts, for analyze, and for switch's
    # static log and its own runs; the logs that analyze and switch read
    assert spans.count("analysis.build_ert_tables") == 4
    assert spans.count("analysis.build_vbs_reports") == 1
    assert spans.count("tracing.load_records") == 2
    assert spans.count("switching.sweep_tau") == 1
    # each executed run went through the patched run_switch and drive
    assert spans.count("switching.run_switch") == len(records) + len(rows)
    switched = sum(r["switch_eval"] is not None for r in records) + sum(
        r["switch_eval"] != "None" for r in rows)
    assert spans.count("warmstart.extract") == switched > 0
    assert spans.count("warmstart.apply_warmstart") == switched
    assert spans.count("optimizers.drive") >= len(records) + len(rows)
