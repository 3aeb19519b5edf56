"""Golden behaviour fingerprint of a small bench + switch + sweep run.

The integer fields of every run (evaluations used, first-hit counts on the
target grid, termination reason, switch point) are hashed and compared with
a committed digest; they survive last-bit floating-point differences, raw
log bytes do not.  ``best_precision`` is compared with a relative tolerance.
A change that moves the digest on purpose must say which records moved and
why, and update the constants here.
"""

import hashlib
import json
import math

import pytest

from dynswitch.cli import main

ALGORITHMS = "BFGS,CMA-ES,PSO,DE,MLSL"
# every apply_warmstart branch: the two dedicated model transfers, then the
# generic transfer into each of the five algorithms, into PSO and DE both
# from a source without a population (MLSL) and from one with (PSO, DE)
SWITCH_PLANS = (
    "BFGS:CMA-ES:1", "CMA-ES:BFGS:1", "MLSL:PSO:1", "MLSL:DE:1",
    "MLSL:CMA-ES:1", "PSO:BFGS:1", "CMA-ES:MLSL:1", "DE:CMA-ES:1",
    "DE:PSO:1", "PSO:DE:1",
)
SMALL = ("--instances", "1", "--runs", "2", "--budget-mult", "200")

# one digest per log, so a declared change shows which logs moved
EXPECTED_DIGEST = {
    "bench":
        "6d3e08d1bc89f73388f0b5a5e886f902f47112724fdf88cf4855b28b36277b7d",
    "full":
        "831c25b6ff700757bf0ad7204249eeef8d4138ed0effae2e4fd8f8883197036f",
    "point_only":
        "84be22e845415ea7f103fa18e5d1a10558d139473c63e17df1e173b2243b65e1",
    "sweep":
        "466b855dc2b121bcfaa4e7b5cb7026a56c0f25a01e9076946c6c671d728192bf",
}
# sum over each log's runs of log10(best_precision)
EXPECTED_LOG_PRECISION = {
    "bench": -792.5061556585988,
    "full": -231.201023384063,
    "point_only": -244.94249618625597,
}


def _run(*argv):
    assert main([*argv, *SMALL]) == 0


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _rows(records):
    return [[r["algorithm_label"], r["function_id"], r["dimension"],
             r["instance"], r["run_index"], r["evals_used"],
             [[repr(e), n] for e, n in r["hit_at"]], r["terminated_reason"],
             r.get("switch_eval")] for r in records]


def _log_precision(records):
    return math.fsum(math.log10(max(r["best_precision"], 1e-300))
                     for r in records)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fingerprint")
    _run("bench", "--algorithms", ALGORITHMS, "--functions", "1,8,10",
         "--dims", "2,5", "--out", str(out / "bench"))
    for mode in ("full", "point_only"):
        _run("switch", *(a for p in SWITCH_PLANS for a in ("--plan", p)),
             "--functions", "1,8", "--dims", "2", "--warmstart-mode", mode,
             "--out", str(out / mode))
    _run("sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS", "--function", "10",
         "--dim", "2", "--tau-exponents", "1,0,-1", "--out", str(out / "sweep"))
    records = {name: _records(out / name / log) for name, log in (
        ("bench", "runs.jsonl"), ("full", "switch_runs.jsonl"),
        ("point_only", "switch_runs.jsonl"))}
    with open(out / "sweep" / "sweep_runs.tsv") as fh:
        sweep = [line.rstrip("\n").split("\t") for line in fh]
    return records, sweep


def test_every_switch_plan_switches(outputs):
    records, _ = outputs
    for mode in ("full", "point_only"):
        switched = {r["algorithm_label"].split("@")[0]
                    for r in records[mode] if r["switch_eval"] is not None}
        assert switched == {p.rsplit(":", 1)[0].replace(":", ">")
                            for p in SWITCH_PLANS}


def test_fingerprint_digest(outputs):
    records, sweep = outputs
    payload = {name: _rows(recs) for name, recs in records.items()}
    payload["sweep"] = sweep
    got = {name: hashlib.sha256(json.dumps(
        rows, separators=(",", ":")).encode()).hexdigest()
        for name, rows in payload.items()}
    assert got == EXPECTED_DIGEST


def test_fingerprint_best_precision(outputs):
    records, _ = outputs
    got = {name: _log_precision(recs) for name, recs in records.items()}
    assert got == pytest.approx(EXPECTED_LOG_PRECISION, rel=1e-9)
