import argparse
import collections
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynswitch
from dynswitch import cli, switching
from dynswitch.analysis import VbsReport, vbs_table
from dynswitch.cli import cell_seed, main
from dynswitch.tracing import (DEFAULT_GRID, RunTrace, load_records,
                               record_to_json)


# 2 instances x 3 runs
TWO_BY_THREE = ("--instances", "1,2", "--runs", "3")


def run_cli(*argv):
    return main(list(argv))


def test_cell_seed_is_stable_and_distinct():
    a = cell_seed(0, "BFGS", 1, 2, 1, 0)
    assert a == cell_seed(0, "BFGS", 1, 2, 1, 0)
    assert a != cell_seed(0, "BFGS", 1, 2, 1, 1)
    assert a != cell_seed(1, "BFGS", 1, 2, 1, 0)
    assert 0 <= a < 2 ** 64


def test_cli_and_every_algorithm_run_without_scipy():
    # a fresh interpreter: this test process has SciPy loaded as an oracle
    script = """
import sys
import dynswitch.cli
from dynswitch.optimizers import ALGORITHMS, OptimizerConfig, run_single
from dynswitch.problems import ProblemId, instantiate
problem = instantiate(ProblemId(10, 2, 1), 0)
for name in ALGORITHMS:
    assert run_single(OptimizerConfig(name), problem, budget=500).evals_used
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    src = str(Path(dynswitch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_usage_errors_exit_one(capsys):
    assert run_cli() == 1
    assert run_cli("bogus-command") == 1
    assert run_cli("analyze") == 1  # --logs is required
    capsys.readouterr()


def test_analyze_missing_log_exits_one(tmp_path, capsys):
    assert run_cli("analyze", "--logs", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path)) == 1
    capsys.readouterr()


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    code = main([
        "bench", "--algorithms", "BFGS,CMA-ES", "--functions", "1",
        "--dims", "2", *TWO_BY_THREE, "--budget-mult", "2000",
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_bench_record_count_and_manifest(bench_dir):
    records, skipped = load_records(bench_dir / "runs.jsonl")
    assert skipped == 0
    # 2 algorithms x 1 function x 1 dim x 2 instances x 3 runs
    assert len(records) == 12
    manifest = json.loads((bench_dir / "manifest.json").read_text())
    assert manifest["records"] == 12
    assert manifest["instances"] == [1, 2] and manifest["runs"] == 3


def test_bench_rerun_is_byte_identical(bench_dir, tmp_path):
    out2 = tmp_path / "again"
    code = main([
        "bench", "--algorithms", "BFGS,CMA-ES", "--functions", "1",
        "--dims", "2", *TWO_BY_THREE, "--budget-mult", "2000",
        "--out", str(out2),
    ])
    assert code == 0
    assert (out2 / "runs.jsonl").read_bytes() == \
        (bench_dir / "runs.jsonl").read_bytes()


def test_algorithm_aliases_accepted(tmp_path):
    out = tmp_path / "alias"
    code = main([
        "bench", "--algorithms", "cmaes", "--functions", "1", "--dims", "2",
        *TWO_BY_THREE, "--budget-mult", "500", "--out", str(out),
    ])
    assert code == 0
    records, _ = load_records(out / "runs.jsonl")
    assert all(r["algorithm_label"] == "CMA-ES" for r in records)


@pytest.fixture(scope="module")
def analysis_dir(bench_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("analysis")
    code = main(["analyze", "--logs", str(bench_dir), "--out", str(out)])
    assert code == 0
    return out


def test_analyze_artifacts(analysis_dir):
    for name in ("ert_table.tsv", "vbs_report.tsv", "use_cases.tsv",
                 "heatmap.tsv"):
        assert (analysis_dir / name).exists()
    lines = (analysis_dir / "ert_table.tsv").read_text().strip().split("\n")
    header = lines[0].split("\t")
    assert header[:4] == ["algorithm", "function_id", "dimension",
                          "target_exponent"]
    # 2 algorithm groups x 51 grid targets
    assert len(lines) == 1 + 2 * 51


def test_analyze_skips_malformed_lines(bench_dir, tmp_path, capsys):
    log = tmp_path / "runs.jsonl"
    text = (bench_dir / "runs.jsonl").read_text()
    log.write_text("garbage\n" + text)
    out = tmp_path / "out"
    assert main(["analyze", "--logs", str(log), "--out", str(out)]) == 0
    assert "skipped 1 malformed" in capsys.readouterr().err


def test_analyze_skips_a_record_without_report_fields(
        bench_dir, analysis_dir, tmp_path, capsys):
    # the line parses, but lacks every field the tables group and count by
    log = tmp_path / "runs.jsonl"
    log.write_text('{"hit_at": []}\n' + (bench_dir / "runs.jsonl").read_text())
    out = tmp_path / "out"
    assert main(["analyze", "--logs", str(log), "--out", str(out)]) == 0
    assert "skipped 1 malformed" in capsys.readouterr().err
    assert (out / "ert_table.tsv").read_bytes() == \
        (analysis_dir / "ert_table.tsv").read_bytes()


@pytest.mark.parametrize("field, value", [
    ("budget", [1]), ("evals_used", "7"), ("function_id", True),
    ("dimension", 2.0), ("algorithm_label", 3),
])
def test_analyze_skips_a_record_with_a_field_of_the_wrong_type(
        field, value, bench_dir, analysis_dir, tmp_path, capsys):
    records, _ = load_records(bench_dir / "runs.jsonl")
    log = tmp_path / "runs.jsonl"
    log.write_text(record_to_json(dict(records[0], **{field: value})) + "\n"
                   + (bench_dir / "runs.jsonl").read_text())
    out = tmp_path / "out"
    assert main(["analyze", "--logs", str(log), "--out", str(out)]) == 0
    assert "skipped 1 malformed" in capsys.readouterr().err
    assert (out / "ert_table.tsv").read_bytes() == \
        (analysis_dir / "ert_table.tsv").read_bytes()


def test_analyze_refuses_a_run_over_its_budget(bench_dir, tmp_path, capsys):
    records, _ = load_records(bench_dir / "runs.jsonl")
    over = dict(records[0], evals_used=records[0]["budget"] + 1)
    log = tmp_path / "runs.jsonl"
    log.write_text(record_to_json(over) + "\n")
    assert main(["analyze", "--logs", str(log),
                 "--out", str(tmp_path / "out")]) == 1
    assert "over the budget" in capsys.readouterr().err


def test_switch_requires_a_plan_source(tmp_path, capsys):
    assert main(["switch", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_switch_plan_execution_and_report(bench_dir, tmp_path):
    out = tmp_path / "switch"
    code = main([
        "switch", "--plan", "BFGS:CMA-ES:1e-2", "--functions", "1",
        "--dims", "2", *TWO_BY_THREE, "--budget-mult", "2000",
        "--logs", str(bench_dir), "--out", str(out),
    ])
    assert code == 0
    records, _ = load_records(out / "switch_runs.jsonl")
    assert len(records) == 6  # 2 instances x 3 runs
    assert all("switch_eval" in r for r in records)
    lines = (out / "switch_report.tsv").read_text().strip().split("\n")
    assert len(lines) == 2
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["a1"] == "BFGS" and row["a2"] == "CMA-ES"
    assert float(row["actual_ert"]) > 0
    assert row["static_ert"] != ""
    assert row["theoretical_ert"] != ""


def _report_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def test_switch_from_analysis(analysis_dir, tmp_path):
    out = tmp_path / "switch2"
    code = main([
        "switch", "--from-analysis", str(analysis_dir), *TWO_BY_THREE,
        "--budget-mult", "2000", "--out", str(out),
    ])
    # the VBS may pick an identity pair for every cell; then there is
    # nothing to execute and the command reports a usage problem
    if code == 0:
        assert (out / "switch_report.tsv").exists()
    else:
        assert code == 1


def test_switch_from_analysis_reads_static_log_directory(
        bench_dir, analysis_dir, tmp_path):
    rows = _report_rows(analysis_dir / "vbs_report.tsv")
    assert any(r["dyn_a1"] != r["dyn_a2"] for r in rows)  # something to run
    out = tmp_path / "switch3"
    code = main([
        "switch", "--from-analysis", str(analysis_dir), "--logs",
        str(bench_dir), *TWO_BY_THREE, "--budget-mult", "2000",
        "--out", str(out),
    ])
    assert code == 0
    report = _report_rows(out / "switch_report.tsv")
    assert report and all(r["static_ert"] != "" for r in report)


def test_switch_from_analysis_refuses_another_phi(bench_dir, tmp_path, capsys):
    # the VBS pairs and tau of an analysis at 1e-2 are not the ones for 1e-8
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--logs", str(bench_dir), "--phi", "1e-2",
                 "--out", str(analysis)]) == 0
    assert json.loads((analysis / "manifest.json").read_text())["phi"] == 1e-2
    capsys.readouterr()
    out = tmp_path / "switch"
    assert main(["switch", "--from-analysis", str(analysis), *TWO_BY_THREE,
                 "--budget-mult", "2000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "phi 0.01, not 1e-08" in err
    assert "rerun `dynswitch analyze --phi 1e-08`" in err
    assert not out.exists()


def test_switch_from_analysis_refuses_analysis_without_manifest(
        bench_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--logs", str(bench_dir),
                 "--out", str(analysis)]) == 0
    (analysis / "manifest.json").unlink(missing_ok=True)
    capsys.readouterr()
    out = tmp_path / "switch"
    assert main(["switch", "--from-analysis", str(analysis), *TWO_BY_THREE,
                 "--budget-mult", "2000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "no manifest.json" in err and "rerun `dynswitch analyze" in err
    assert not out.exists()


@pytest.mark.parametrize("dropped", [
    ("dyn_a1", "dyn_a2", "dyn_tau_exponent"), ("function_id", "dimension"),
])
def test_switch_from_analysis_refuses_missing_columns(
        dropped, analysis_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    (analysis / "manifest.json").write_bytes(
        (analysis_dir / "manifest.json").read_bytes())
    rows = [line.split("\t") for line in
            (analysis_dir / "vbs_report.tsv").read_text().splitlines()]
    kept = [i for i, name in enumerate(rows[0]) if name not in dropped]
    (analysis / "vbs_report.tsv").write_text(
        "".join("\t".join(row[i] for i in kept) + "\n" for row in rows))
    out = tmp_path / "switch"
    assert main(["switch", "--from-analysis", str(analysis), *TWO_BY_THREE,
                 "--budget-mult", "2000", "--out", str(out)]) == 1
    assert f"lacks the columns {', '.join(dropped)}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_switch_from_analysis_reads_back_the_vbs_table(tmp_path, monkeypatch):
    # vbs_report.tsv as analyze writes it, with an identity pair (no tau)
    reports = [
        VbsReport(1, 2, "BFGS", 40.0, "PSO", "BFGS", 1.2, 30.0, 0.25),
        VbsReport(8, 3, "CMA-ES", 90.0, "CMA-ES", "CMA-ES", None, 90.0, 0.0),
        VbsReport(10, 2, "BFGS", math.inf, "CMA-ES", "BFGS", -2.2, 500.0,
                  math.inf),
    ]
    analysis = tmp_path / "analysis"
    cli._write_table(analysis / "vbs_report.tsv", *vbs_table(reports))
    (analysis / "manifest.json").write_text(json.dumps({"phi": 1e-8}))
    read = []

    def no_runs(tasks, *args):
        read.extend((plan.a1.algorithm, plan.a2.algorithm, plan.tau_exponent,
                     problem.id.function_id, problem.id.dimension)
                    for plan, problem, *_ in tasks)
        return [], []

    monkeypatch.setattr(cli, "run_switch_tasks", no_runs)
    assert main(["switch", "--from-analysis", str(analysis), "--runs", "1",
                 "--instances", "1", "--budget-mult", "50",
                 "--out", str(tmp_path / "switch")]) == 0
    assert read == [(r.dyn_a1, r.dyn_a2, r.dyn_tau_exponent, r.function_id,
                     r.dimension) for r in reports if r.dyn_a1 != r.dyn_a2]


@pytest.mark.parametrize("exponent, tau", [("400", "inf"), ("-400", "0.0")])
def test_switch_from_analysis_refuses_an_exponent_without_a_finite_tau(
        exponent, tau, tmp_path, capsys):
    # 10.0 ** 400 used to end in an OverflowError traceback
    analysis = tmp_path / "analysis"
    cli._write_table(analysis / "vbs_report.tsv", *vbs_table([
        VbsReport(1, 2, "BFGS", 40.0, "PSO", "BFGS", exponent, 30.0, 0.25)]))
    (analysis / "manifest.json").write_text(json.dumps({"phi": 1e-8}))
    out = tmp_path / "switch"
    assert main(["switch", "--from-analysis", str(analysis), "--runs", "1",
                 "--instances", "1", "--budget-mult", "50",
                 "--out", str(out)]) == 1
    assert (f"tau exponent '{exponent}': precision targets must be positive "
            f"and finite, got {tau}" in capsys.readouterr().err)
    assert not out.exists()


def test_switch_missing_static_log_fails_before_running(tmp_path, capsys):
    out = tmp_path / "switch4"
    code = main([
        "switch", "--plan", "BFGS:CMA-ES:1e-2", "--functions", "1",
        "--dims", "2", *TWO_BY_THREE, "--budget-mult", "2000",
        "--logs", str(tmp_path / "missing"), "--out", str(out),
    ])
    assert code == 1
    assert "no run log" in capsys.readouterr().err
    assert not (out / "switch_runs.jsonl").exists()


def test_switch_refuses_static_log_of_another_budget(tmp_path, capsys):
    static = tmp_path / "static"
    assert main([
        "bench", "--algorithms", "BFGS,CMA-ES", "--functions", "1",
        "--dims", "2", "--runs", "1", "--instances", "1",
        "--budget-mult", "500", "--out", str(static),
    ]) == 0
    out = tmp_path / "switch"
    code = main([
        "switch", "--plan", "BFGS:CMA-ES:1e-2", "--functions", "1",
        "--dims", "2", "--runs", "1", "--instances", "1",
        "--budget-mult", "2000", "--logs", str(static), "--out", str(out),
    ])
    assert code == 1
    assert "budget 1000 for F1 2D" in capsys.readouterr().err
    assert not (out / "switch_runs.jsonl").exists()


def test_analyze_refuses_mixed_budgets(bench_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert main([
        "bench", "--algorithms", "BFGS", "--functions", "1", "--dims", "2",
        "--runs", "1", "--instances", "1", "--budget-mult", "500",
        "--out", str(other),
    ]) == 0
    log = tmp_path / "mixed.jsonl"
    log.write_text((bench_dir / "runs.jsonl").read_text()
                   + (other / "runs.jsonl").read_text())
    assert main(["analyze", "--logs", str(log), "--out",
                 str(tmp_path / "out")]) == 1
    assert "different budgets" in capsys.readouterr().err


def test_sweep_tau_artifacts(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function", "1",
        "--dim", "2", "--tau-exponents", "0.0,-2.0", *TWO_BY_THREE,
        "--budget-mult", "2000", "--out", str(out),
    ])
    assert code == 0
    summary = (out / "sweep_summary.tsv").read_text().strip().split("\n")
    assert len(summary) == 3
    runs = (out / "sweep_runs.tsv").read_text().strip().split("\n")
    assert len(runs) == 1 + 2 * 2 * 3  # 2 taus x 2 instances x 3 runs
    assert (out / "manifest.json").exists()


def test_config_overrides_are_applied(tmp_path):
    cfg = tmp_path / "overrides.json"
    cfg.write_text(json.dumps({"CMA-ES": {"population_size": 12}}))
    out = tmp_path / "cfg"
    code = main([
        "bench", "--algorithms", "CMA-ES", "--functions", "1", "--dims", "2",
        "--runs", "1", "--instances", "1", "--budget-mult", "100",
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 0
    records, _ = load_records(out / "runs.jsonl")
    # with lambda forced to 12 and budget 200, evaluation counts are
    # multiples of 12 until interruption
    assert records[0]["evals_used"] > 0


@pytest.mark.parametrize("override, reason", [
    ({"population_size": 1}, "CMA-ES needs a population of at least 2, got 1"),
    ({"sigma": math.nan}, "sigma must be finite and positive, got nan"),
    ({"sigma": math.inf}, "sigma must be finite and positive, got inf"),
])
def test_bench_fails_a_cmaes_cell_it_cannot_run(override, reason, tmp_path,
                                                 capsys):
    # a population of 1 or a NaN step size used to end in a record that
    # claimed convergence
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"CMA-ES": override}))
    out = tmp_path / "out"
    code = main([
        "bench", "--algorithms", "CMA-ES", "--functions", "1", "--dims", "2",
        "--runs", "1", "--instances", "1", "--budget-mult", "50",
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert failed == [f"FAILED CMA-ES F1 2D instance 1 run 0: {reason}"]
    assert (out / "runs.jsonl").read_text() == ""


@pytest.mark.parametrize("command", [
    ["switch", "--plan", "CMA-ES:BFGS:1e-1", "--functions", "10",
     "--dims", "2"],
    ["sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS", "--function", "10",
     "--dim", "2", "--tau-exponents", "0.0"],
    # the override is for A2, the warm-started CMA-ES
    ["switch", "--plan", "BFGS:CMA-ES:1", "--functions", "10",
     "--dims", "2"],
])
def test_config_overrides_reach_switch_runs(command, tmp_path):
    cfg = tmp_path / "overrides.json"
    cfg.write_text(json.dumps({"CMA-ES": {"population_size": 12}}))
    small = ["--runs", "2", "--instances", "1", "--budget-mult", "200"]
    outputs = []
    for name, extra in (("plain", []), ("cfg", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main([*command, *small, *extra, "--out", str(out)]) == 0
        log = "switch_runs.jsonl" if command[0] == "switch" else "sweep_runs.tsv"
        outputs.append((out / log).read_text())
    assert outputs[0] != outputs[1]


def test_off_grid_phi_scores_every_target_hit(tmp_path):
    # bench stops each run at --phi and analyze reads the ERT at --phi: both
    # must mean the same grid target, or a stopped run can miss it
    bench, analysis = tmp_path / "bench", tmp_path / "analysis"
    assert main([
        "bench", "--algorithms", "BFGS,CMA-ES,PSO", "--functions", "1,10",
        "--dims", "2", "--instances", "1,2,3", "--runs", "2",
        "--budget-mult", "500", "--phi", "1.9e-8", "--out", str(bench),
    ]) == 0
    assert main(["analyze", "--logs", str(bench), "--phi", "1.9e-8",
                 "--out", str(analysis)]) == 0
    records, _ = load_records(bench / "runs.jsonl")
    hits = collections.Counter(
        (r["algorithm_label"], r["function_id"], r["dimension"])
        for r in records if r["terminated_reason"] == "target_hit")
    phi_exp = DEFAULT_GRID.snap_exponent(1.9e-8)
    rows = [r for r in _report_rows(analysis / "ert_table.tsv")
            if float(r["target_exponent"]) == phi_exp]
    assert len(rows) == 6
    for r in rows:
        key = (r["algorithm"], int(r["function_id"]), int(r["dimension"]))
        assert int(r["successes"]) == hits[key], key
    manifest = json.loads((bench / "manifest.json").read_text())
    assert manifest["phi"] == DEFAULT_GRID.snap(1.9e-8)


def test_switch_tau_snapping_onto_phi_fails_before_running(tmp_path, capsys):
    out = tmp_path / "switch"
    code = main([
        "switch", "--plan", "BFGS:CMA-ES:1.05e-8", "--functions", "1",
        "--dims", "2", "--runs", "1", "--instances", "1",
        "--budget-mult", "200", "--out", str(out),
    ])
    assert code == 1
    assert "tau > phi" in capsys.readouterr().err
    assert not (out / "switch_runs.jsonl").exists()


def test_sweep_tau_reports_the_grid_exponent_it_ran(tmp_path):
    small = ["--a1", "BFGS", "--a2", "CMA-ES", "--function", "1", "--dim",
             "2", "--runs", "1", "--instances", "1", "--budget-mult", "500"]
    off, on = tmp_path / "off", tmp_path / "on"
    assert main(["sweep-tau", *small, "--tau-exponents=-1.05,-2",
                 "--out", str(off)]) == 0
    assert main(["sweep-tau", *small, "--tau-exponents=-1,-2",
                 "--out", str(on)]) == 0
    for name in ("sweep_runs.tsv", "sweep_summary.tsv"):
        assert [r["tau_exponent"] for r in _report_rows(off / name)] == \
            ["-1.0", "-2.0"]
        assert (off / name).read_bytes() == (on / name).read_bytes()


def test_sweep_tau_refuses_exponents_on_one_grid_point(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function", "1",
        "--dim", "2", "--tau-exponents=-1,-1.05", "--runs", "1",
        "--instances", "1", "--budget-mult", "500", "--out", str(out),
    ])
    assert code == 1
    assert "same grid target" in capsys.readouterr().err
    assert not (out / "sweep_runs.tsv").exists()


@pytest.mark.parametrize("plans", [
    ["BFGS:CMA-ES:1e-2", "BFGS:CMA-ES:1.05e-2"],  # both snap to 10^-2
    ["BFGS:CMA-ES:1e-2", "BFGS:CMA-ES:1e-2"],
])
def test_switch_refuses_plans_on_one_grid_cell(plans, tmp_path, capsys):
    out = tmp_path / "switch"
    code = main([
        "switch", *(f"--plan={p}" for p in plans), "--functions", "1",
        "--dims", "2", "--runs", "2", "--instances", "1",
        "--budget-mult", "200", "--out", str(out),
    ])
    assert code == 1
    assert "same grid target" in capsys.readouterr().err
    assert not (out / "switch_runs.jsonl").exists()


SMALL_SWEEP = ("sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function",
               "1", "--dim", "2", "--tau-exponents", "1,0", "--runs", "2",
               "--instances", "1,2", "--budget-mult", "200")


def test_sweep_tau_jobs_write_the_same_bytes(tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main([*SMALL_SWEEP, "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in (
            "sweep_runs.tsv", "sweep_runs.jsonl", "sweep_summary.tsv")])
    assert outputs[0] == outputs[1]
    # the sweep's records are a run log that analyze reads
    assert main(["analyze", "--logs", str(tmp_path / "jobs1" / "sweep_runs.jsonl"),
                 "--out", str(tmp_path / "analysis")]) == 0


def test_switch_runs_replay_the_static_run_of_their_a1(tmp_path):
    # A1 is seeded as bench seeds the static run of its cell, so up to the
    # switch a switch or sweep run is that run; and a sweep row is the
    # switch record of its plan
    common = ["--dims", "2", "--instances", "1,2", "--runs", "3",
              "--budget-mult", "300", "--seed", "4", "--suite-seed", "3"]
    sweep_plans = ("CMA-ES:BFGS:1e-1", "CMA-ES:BFGS:1e-3")
    plans = (*sweep_plans, "BFGS:CMA-ES:1", "MLSL:PSO:1", "PSO:DE:1",
             "DE:MLSL:1")

    def switch(name, plans, functions, jobs="1"):
        out = tmp_path / name
        assert main(["switch", *(f"--plan={p}" for p in plans), "--functions",
                     functions, *common, "--jobs", jobs, "--out", str(out)]) == 0
        return out / "switch_runs.jsonl"

    assert main(["bench", "--functions", "10,21", *common,
                 "--out", str(tmp_path / "bench")]) == 0
    assert main(["sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS", "--function",
                 "10", "--dim", "2", "--tau-exponents=-1,-3", *common[2:],
                 "--out", str(tmp_path / "sweep")]) == 0
    sweep_log = tmp_path / "sweep" / "sweep_runs.jsonl"
    assert sweep_log.read_bytes() == \
        switch("sweep-plans", sweep_plans, "10").read_bytes()
    switch_log = switch("jobs1", plans, "10,21")
    assert switch_log.read_bytes() == \
        switch("jobs2", plans, "10,21", jobs="2").read_bytes()

    static = {(r["algorithm_label"], r["function_id"], r["dimension"],
               r["instance"], r["run_index"]): r
              for r in load_records(tmp_path / "bench" / "runs.jsonl")[0]}
    records = load_records(switch_log)[0] + load_records(sweep_log)[0]
    reasons = collections.Counter(r["phase1_reason"] for r in records)
    assert reasons["target_hit"] and reasons["algorithm_converged"], reasons
    for r in records:
        a1 = r["algorithm_label"].split(">")[0]
        bench = static[a1, r["function_id"], r["dimension"], r["instance"],
                       r["run_index"]]
        switched = r["switch_eval"]
        if switched is None:
            assert r["hit_at"] == bench["hit_at"]
            continue
        assert {e: n for e, n in r["hit_at"].items() if n <= switched} == \
            {e: n for e, n in bench["hit_at"].items() if n <= switched}
        if r["phase1_reason"] == "target_hit":
            tau_exp = DEFAULT_GRID.snap_exponent(r["tau"])
            assert switched == bench["hit_at"][tau_exp]
        else:
            assert r["phase1_reason"] == "algorithm_converged"
            assert switched == bench["evals_used"]


def test_sweep_summary_ert_counts_failed_runs_once(tmp_path, monkeypatch):
    # hand-built runs: run 0 reaches phi after 100 evaluations, run 1 fails
    # after 300, so the ERT is 400/1 while the mean cost is 400/2
    def fake_run_switch(plan, problem, budget=None, seed=0, run_index=0,
                        early_switch=True):
        trace = RunTrace(problem=problem.id, algorithm_label=plan.label(),
                         run_index=run_index, budget=budget,
                         evals_used=300 if run_index else 100)
        if run_index == 0:
            trace.hit_at = {e: 100 for e in DEFAULT_GRID.exponents}
        return switching.SwitchTrace(trace, plan.tau, None, "target_hit", None)

    monkeypatch.setattr(switching, "run_switch", fake_run_switch)
    out = tmp_path / "sweep"
    assert main([*SMALL_SWEEP, "--tau-exponents", "0", "--instances", "1",
                 "--out", str(out)]) == 0
    [row] = _report_rows(out / "sweep_summary.tsv")
    assert (row["mean"], row["successes"], row["runs"], row["ert"]) == \
        ("200.0", "1", "2", "400.0")


def _sweep_with_a_cmaes_a2_it_cannot_build(tmp_path, exponents, jobs="1"):
    # A2 is built at the switch: BFGS reaches tau 10 at once and its run
    # fails there, while with --no-early-switch it misses 10^-7.8 and ends
    # without a switch
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"CMA-ES": {"population_size": 1}}))
    out = tmp_path / f"jobs{jobs}"
    code = main(["sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function",
                 "10", "--dim", "2", "--tau-exponents", exponents,
                 "--instances", "1,2", "--runs", "2", "--budget-mult", "50",
                 "--no-early-switch", "--config", str(cfg), "--jobs", jobs,
                 "--out", str(out)])
    return code, out


SWEEP_OUTPUTS = ("sweep_runs.tsv", "sweep_runs.jsonl", "sweep_summary.tsv")
TAU_10_FAILURES = [
    f"FAILED BFGS>CMA-ES F10 2D tau 10 instance {i} run {r}: CMA-ES needs a "
    f"population of at least 2, got 1" for i in (1, 2) for r in (0, 1)]


def test_sweep_tau_names_every_failed_run(tmp_path, capsys):
    # the runs that finished are written, as bench and switch write theirs
    outputs = []
    for jobs in ("1", "2"):
        code, out = _sweep_with_a_cmaes_a2_it_cannot_build(
            tmp_path, "1,-7.8", jobs)
        assert code == 2
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("FAILED")] == TAU_10_FAILURES
        outputs.append([(out / name).read_bytes() for name in SWEEP_OUTPUTS])
    assert outputs[0] == outputs[1]
    finished = [(i, r) for i in (1, 2) for r in (0, 1)]
    records, _ = load_records(out / "sweep_runs.jsonl")
    assert [(DEFAULT_GRID.snap_exponent(r["tau"]), r["instance"],
             r["run_index"]) for r in records] == [(-7.8, *k) for k in finished]
    assert [(r["tau_exponent"], int(r["instance"]), int(r["run_index"]))
            for r in _report_rows(out / "sweep_runs.tsv")] == \
        [("-7.8", *k) for k in finished]
    [summary] = _report_rows(out / "sweep_summary.tsv")
    assert (summary["tau_exponent"], summary["runs"]) == ("-7.8", "4")
    assert json.loads((out / "manifest.json").read_text())["records"] == 4


def test_sweep_tau_writes_header_only_tables_when_every_run_fails(tmp_path,
                                                                  capsys):
    code, out = _sweep_with_a_cmaes_a2_it_cannot_build(tmp_path, "1")
    assert code == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("FAILED")] == TAU_10_FAILURES
    assert [(out / name).read_text() for name in SWEEP_OUTPUTS] == [
        "tau_exponent\tinstance\trun_index\thit_phi\tevals_used\tsuccess"
        "\tswitch_eval\n", "",
        "tau_exponent\tmean\tstd\tsuccesses\truns\tert\n"]


def test_switch_reports_each_failed_run_on_one_line(tmp_path, monkeypatch,
                                                   capsys):
    real_run_switch = switching.run_switch

    def failing_run_switch(*args, run_index=0, **kwargs):
        if run_index == 1:
            raise RuntimeError("boom")
        return real_run_switch(*args, run_index=run_index, **kwargs)

    monkeypatch.setattr(switching, "run_switch", failing_run_switch)
    out = tmp_path / "switch"
    assert main(["switch", "--plan", "BFGS:CMA-ES:1", "--functions", "1",
                 "--dims", "2", "--runs", "2", "--instances", "1",
                 "--budget-mult", "200", "--out", str(out)]) == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert failed == ["FAILED BFGS>CMA-ES F1 2D tau 1 instance 1 run 1: boom"]
    records, _ = load_records(out / "switch_runs.jsonl")
    assert [r["run_index"] for r in records] == [0]


SMALL_COMMANDS = {
    "bench": {"--algorithms": "BFGS", "--functions": "1", "--dims": "2"},
    "switch": {"--plan": "BFGS:CMA-ES:1", "--functions": "1", "--dims": "2"},
    "sweep-tau": {"--a1": "BFGS", "--a2": "CMA-ES", "--function": "1",
                  "--dim": "2", "--tau-exponents": "0"},
}


@pytest.mark.parametrize("command, option, value, named", [
    *((command, option, value, named)
      for command in SMALL_COMMANDS for option, value, named in (
          ("--runs", "0", "--runs: must be >= 1, got 0"),
          ("--runs", "-1", "--runs: must be >= 1, got -1"),
          ("--budget-mult", "0", "--budget-mult: must be >= 1, got 0"),
          ("--instances", "0", "--instances: must be >= 1, got 0"),
          ("--jobs", "0", "--jobs: must be >= 1, got 0"),
          ("--jobs", "-3", "--jobs: must be >= 1, got -3"),
          ("--instances", "3-1",
           "--instances: reversed instance range '3-1'"),
          ("--instances", ",", "--instances: empty instance in ','"),
          ("--suite-seed", "-1", "--suite-seed: must be >= 0, got -1"),
      )),
    *((command, "--step-window", "1", "--step-window: must be >= 2, got 1")
      for command in ("switch", "sweep-tau")),
    ("bench", "--dims", "5-3", "--dims: reversed dimension range '5-3'"),
    ("bench", "--dims", "0", "--dims: must be >= 2, got 0"),
    ("bench", "--dims", "2,1", "--dims: must be >= 2, got 1"),
    ("bench", "--dims", "1-3", "--dims: must be >= 2, got 1"),
    ("switch", "--dims", "1", "--dims: must be >= 2, got 1"),
    ("sweep-tau", "--dim", "1", "--dim: must be >= 2, got 1"),
    ("bench", "--algorithms", "BFGS,foo", "unknown algorithm 'foo'"),
    ("sweep-tau", "--a1", "foo", "unknown algorithm 'foo'"),
    ("sweep-tau", "--a2", "foo", "unknown algorithm 'foo'"),
    ("sweep-tau", "--function", "99", "--function: invalid choice: 99"),
    ("sweep-tau", "--tau-exponents", "0,x", "--tau-exponents: not a number: 'x'"),
    ("switch", "--plan", "foo:BFGS:1", "unknown algorithm 'foo'"),
    ("switch", "--plan", "BFGS:CMA-ES:x", "--plan: not a number: 'x'"),
    ("switch", "--plan", "BFGS:CMA-ES", "plan must look like A1:A2:TAU"),
    ("bench", "--phi", "0", "--phi: precision targets must be positive"),
    ("bench", "--phi", "nan",
     "--phi: precision targets must be positive and finite, got nan"),
    ("bench", "--phi", "inf",
     "--phi: precision targets must be positive and finite, got inf"),
])
def test_usage_errors_name_the_bad_value(command, option, value, named,
                                         tmp_path, capsys):
    # refused while parsing: no run starts and no output directory appears
    args = {**SMALL_COMMANDS[command], "--instances": "1", "--runs": "1",
            "--budget-mult": "50", option: value}
    out = tmp_path / "out"
    assert run_cli(command, *(a for kv in args.items() for a in kv),
                   "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["switch", "--plan", "BFGS:CMA-ES:1"], "--plan needs --functions and --dims"),
    (["switch", "--from-analysis", "missing"], "no analysis artifacts at"),
    (["switch", "--plan", "BFGS:CMA-ES:1", "--functions", "1", "--dims", "2",
      "--logs", "missing"], "no run log at"),
    (["analyze", "--logs", "missing"], "no run log at"),
    # refused by the switching module, after the command-level checks
    (["sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function", "1",
      "--dim", "2", "--tau-exponents=-1,-1.05", "--runs", "1",
      "--instances", "1", "--budget-mult", "50"], "same grid target"),
    (["switch", "--plan", "BFGS:CMA-ES:1e-2", "--plan", "BFGS:CMA-ES:1.05e-2",
      "--functions", "1", "--dims", "2", "--runs", "1", "--instances", "1",
      "--budget-mult", "50"], "same grid target"),
    # the default exponents are the grid targets above phi: here none
    (["sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function", "1",
      "--dim", "2", "--phi", "100", "--runs", "1", "--instances", "1",
      "--budget-mult", "50"], "no switch run to execute"),
    # a NaN target used to snap to 10^2
    (["switch", "--plan", "BFGS:CMA-ES:nan", "--functions", "1", "--dims",
      "2", "--runs", "1", "--instances", "1", "--budget-mult", "50"],
     "precision targets must be positive and finite, got nan"),
    (["sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES", "--function", "1",
      "--dim", "2", "--tau-exponents", "nan", "--runs", "1", "--instances",
      "1", "--budget-mult", "50"],
     "precision targets must be positive and finite, got nan"),
    (["analyze", "--logs", "missing", "--phi", "nan"],
     "--phi: precision targets must be positive and finite, got nan"),
])
def test_refused_commands_leave_no_output_directory(argv, named, tmp_path,
                                                    capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "switch"])
def test_a_log_that_holds_one_run_twice_is_refused(command, bench_dir,
                                                   tmp_path, capsys):
    # the copies used to pool as extra runs of their cell
    log = tmp_path / "twice.jsonl"
    log.write_text((bench_dir / "runs.jsonl").read_text() * 2)
    argv = {"analyze": [],
            "switch": ["--plan", "BFGS:CMA-ES:1e-2", "--functions", "1",
                       "--dims", "2", "--instances", "1", "--runs", "1",
                       "--budget-mult", "2000"]}[command]
    out = tmp_path / "out"
    assert run_cli(command, *argv, "--logs", str(log), "--out", str(out)) == 1
    assert (f"{log} holds BFGS F1 2D instance 1 run 0 at budget 4000 twice"
            in capsys.readouterr().err)
    assert not out.exists()


def _typed_options():
    """(command, flag) for every option that converts its value."""
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.option_strings[-1])
            for command, parser in commands.choices.items()
            for action in parser._actions if action.type is not None]


def test_the_option_walk_finds_the_count_options():
    options = _typed_options()
    assert {("bench", "--runs"), ("bench", "--dims"), ("switch", "--dims"),
            ("sweep-tau", "--dim"), ("sweep-tau", "--function"),
            ("analyze", "--phi")} <= set(options)


@pytest.mark.parametrize("command, option", _typed_options())
def test_every_typed_option_refuses_a_non_number_naming_its_flag(
        command, option, tmp_path, capsys):
    # a converter's reason reaches the message, not the converter's name
    out = tmp_path / "out"
    assert run_cli(command, option, "x", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"argument {option}: " in err
    assert not re.search(r"invalid \S+ value", err), err
    assert not out.exists()


@pytest.mark.parametrize("config, named", [
    ({"CMA-ES": {"popsize": 4}}, "CMA-ES takes no setting 'popsize'"),
    ({"bfgs": {"trajectory_window": 11}},
     "BFGS takes no setting 'trajectory_window'"),
    # refused even for an algorithm the command does not run
    ({"MLSL": {"swarm_size": 4}}, "MLSL takes no setting 'swarm_size'"),
    ([1, 2], "must hold a JSON object of objects"),
    ({"BFGS": 3}, "must hold a JSON object of objects"),
    # the starting state is handed over by a warm start, never set: a BFGS
    # x0 made every run a copy of one, and PSO positions set the swarm size
    ({"BFGS": {"x0": [1.0, 1.0]}},
     "BFGS takes no setting 'x0'; it takes gradient_tolerance"),
    ({"BFGS": {"inv_hessian": [[1, 0], [0, 1]]}},
     "BFGS takes no setting 'inv_hessian'"),
    ({"CMA-ES": {"mean": [0, 0], "C": [[1, 0], [0, 1]]}},
     "CMA-ES takes no setting 'C', 'mean'"),
    ({"PSO": {"positions": [[0, 0], [1, 1]]}},
     "PSO takes no setting 'positions'"),
    ({"PSO": {"velocities": [[0, 0]]}}, "PSO takes no setting 'velocities'"),
    ({"DE": {"population": [[0, 0]] * 4}}, "DE takes no setting 'population'"),
])
@pytest.mark.parametrize("command", ["bench", "switch"])
def test_config_is_checked_before_any_run(command, config, named, tmp_path,
                                          capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    argv = {"bench": ["--algorithms", "BFGS,CMA-ES"],
            "switch": ["--plan", "BFGS:CMA-ES:1"]}[command]
    out = tmp_path / "out"
    assert run_cli(command, *argv, "--functions", "1", "--dims", "2",
                   "--instances", "1", "--runs", "1", "--budget-mult", "50",
                   "--config", str(cfg), "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_switch_averages_any_step_window(tmp_path, monkeypatch):
    # BFGS keeps every iterate, so a window of 20 steps averages 20 steps
    seen = []
    real_apply = switching.apply_warmstart

    def spy(ws, *args, **kwargs):
        a2 = real_apply(ws, *args, **kwargs)
        seen.append((ws.recent_trajectory, a2.sigma))
        return a2

    monkeypatch.setattr(switching, "apply_warmstart", spy)
    assert main(["switch", "--plan", "BFGS:CMA-ES:1e-4", "--functions", "8",
                 "--dims", "2", "--step-window", "20", "--runs", "1",
                 "--instances", "1", "--budget-mult", "1000",
                 "--out", str(tmp_path / "out")]) == 0
    [(trajectory, sigma)] = seen
    assert len(trajectory) > 21
    steps = [float(np.linalg.norm(trajectory[j] - trajectory[j + 1]))
             for j in range(20)]
    assert sigma == float(np.mean(steps))


@pytest.mark.parametrize("command, config, reason", [
    (["bench", "--algorithms", "CMA-ES"], {"CMA-ES": {"population_size": 0}},
     "CMA-ES needs a population of at least 2, got 0"),
    (["bench", "--algorithms", "DE"], {"DE": {"population_size": 0}},
     "DE needs a population of at least 4, got 0"),
    (["bench", "--algorithms", "MLSL"], {"MLSL": {"population_size": 0}},
     "MLSL needs a population of at least 1, got 0"),
    (["bench", "--algorithms", "PSO"], {"PSO": {"swarm_size": 0}},
     "PSO needs a swarm of at least 1, got 0"),
    (["bench", "--algorithms", "DE"], {"DE": {"population_size": -3}},
     "DE needs a population of at least 4, got -3"),
    # A2 built by the warm start
    (["switch", "--plan", "CMA-ES:PSO:1"], {"PSO": {"swarm_size": 0}},
     "PSO needs a swarm of at least 1, got 0"),
    (["switch", "--plan", "PSO:DE:1"], {"DE": {"population_size": 0}},
     "DE needs a population of at least 4, got 0"),
])
def test_a_population_of_zero_fails_its_cells(command, config, reason,
                                              tmp_path, capsys):
    # 0 used to mean the default size
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*command, "--functions", "1", "--dims", "2", "--runs", "1",
                 "--instances", "1", "--budget-mult", "50",
                 "--config", str(cfg), "--out", str(out)]) == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].endswith(f": {reason}")


@pytest.mark.parametrize("option, value, named", [
    ("--algorithms", "BFGS,bfgs", "duplicate algorithm(s): BFGS"),
    ("--functions", "1,8,1", "duplicate function(s): 1"),
    ("--dims", "2-3,2", "duplicate dimension(s): 2"),
    ("--instances", "1,1", "duplicate instance(s): 1"),
])
def test_bench_refuses_duplicate_list_entries(option, value, named, tmp_path,
                                              capsys):
    # each duplicate would run a copy of its cells and pool it with the first
    args = {"--algorithms": "BFGS", "--functions": "1", "--dims": "2",
            "--instances": "1", option: value}
    out = tmp_path / "out"
    assert run_cli("bench", *(a for kv in args.items() for a in kv),
                   "--runs", "1", "--budget-mult", "50",
                   "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_sweep_tau_refuses_duplicate_instances(tmp_path, capsys):
    assert run_cli("sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS",
                   "--function", "1", "--dim", "2", "--instances", "1-2,2",
                   "--out", str(tmp_path / "out")) == 1
    assert "duplicate instance(s): 2" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--beta", "nan"), ("--beta", "inf"), ("--eta", "nan"), ("--eta", "inf"),
])
@pytest.mark.parametrize("command", ["switch", "sweep-tau"])
def test_warmstart_scales_must_be_finite_and_positive(command, option, value,
                                                       tmp_path, capsys):
    # a NaN beta left BFGS as A2 without progress, and a NaN or infinite eta
    # failed every PSO/DE A2 only after its A1 had run
    args = {**SMALL_COMMANDS[command], "--instances": "1", "--runs": "1",
            "--budget-mult": "50", option: value}
    out = tmp_path / "out"
    assert run_cli(command, *(a for kv in args.items() for a in kv),
                   "--out", str(out)) == 1
    assert (f"argument {option}: must be finite and positive, got '{value}'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("exponent, tau", [("400", "inf"), ("-400", "0.0")])
def test_sweep_tau_refuses_an_exponent_without_a_finite_tau(exponent, tau,
                                                            tmp_path, capsys):
    # 10.0 ** 400 used to end in an OverflowError traceback, and 10.0 ** -400
    # in a refusal of "0.0" that did not name the exponent
    out = tmp_path / "out"
    assert run_cli("sweep-tau", "--a1", "BFGS", "--a2", "CMA-ES",
                   "--function", "1", "--dim", "2",
                   f"--tau-exponents=0,{exponent}", "--runs", "1",
                   "--instances", "1", "--budget-mult", "50",
                   "--out", str(out)) == 1
    assert (f"--tau-exponents: tau exponent '{exponent}': precision targets "
            f"must be positive and finite, got {tau}"
            in capsys.readouterr().err)
    assert not out.exists()
