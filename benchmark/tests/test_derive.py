"""Tests for the benchmark's own derivations.

    python3 -m pytest benchmark/tests
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from derive import (
    END_TO_END,
    EXACT,
    PER_LAYER,
    PER_LAYER_UNITS,
    combine_units,
    layer_metrics,
    overhead_ratio,
    percentile,
    phase1_rerun_frac,
    scale_to_reference,
    tail_percentile,
)
from tracer import Span, Tracer
from workloads import (
    GRID,
    WORKLOADS,
    expected_runs,
    parts,
    record_problem,
    unit_commands,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_subtracts_nested_spans_and_aggregated_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(_):
        clock.advance(3)

    leaf = tracer.aggregated(leaf, lambda a: "leaf")

    def inner():
        clock.advance(5)
        leaf(None)
        leaf(None)

    inner = tracer.spanned(inner, "inner")

    def outer():
        clock.advance(7)
        inner()
        clock.advance(1)
        leaf(None)

    tracer.spanned(outer, "outer")()
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].end - spans["inner"].start == 11
    assert spans["inner"].self_ns == 5
    assert spans["outer"].end - spans["outer"].start == 22
    assert spans["outer"].self_ns == 8
    assert spans["inner"].parent == spans["outer"].id
    assert spans["inner"].root == spans["outer"].root == spans["outer"].id
    # each span counts the aggregated calls it made itself
    assert (spans["inner"].agg_calls, spans["outer"].agg_calls) == (2, 1)
    assert tracer.calls["leaf"] == [3, 9, 9, 0]


def test_aggregated_calls_count_their_own_aggregated_callees():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.aggregated(lambda: None, lambda a: "inner")

    def outer():
        inner()
        inner()

    tracer.aggregated(outer, lambda a: "outer")()
    assert tracer.calls["outer"][3] == 2
    assert tracer.calls["inner"][3] == 0


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def fails():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.spanned(fails, "fails")()
    assert [s.name for s in tracer.spans] == ["fails"]
    assert tracer.stack == []


def test_phase1_rerun_frac_on_hand_built_sweep_rows():
    rows = [
        # one (instance, run) swept over three tau: 100 + 60 + 40 phase-1
        # evaluations, of which one pass to the finest tau needs 100
        ("a", 100), ("a", 60), ("a", 40),
        # a second cell with a single tau has nothing to share
        ("b", 50),
    ]
    assert phase1_rerun_frac(rows) == pytest.approx(100 / 250)
    assert phase1_rerun_frac([("a", 10), ("b", 20)]) == 0.0
    assert phase1_rerun_frac([]) == 0.0


@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(list(range(101)), 95) == 95.0


def _span(sid, parent, name, start, end, self_ns=None, **attrs):
    return Span(sid, parent, 1, name, start, end,
                end - start if self_ns is None else self_ns, attrs=attrs)


def _sweep_trace():
    """One CLI command: a static run and a two-tau sweep of one cell."""
    spans = [
        _span(1, None, "cli.main", 0, 1000, self_ns=100),
        _span(2, 1, "optimizers.run_single", 0, 200, algorithm="BFGS"),
        _span(3, 2, "optimizers.drive", 0, 200, self_ns=50, algorithm="BFGS",
              evals=10, reason="target_hit"),
        _span(4, 1, "switching.run_switch", 200, 600, cell="c", switched=True),
        _span(5, 4, "optimizers.drive", 200, 500, self_ns=90,
              algorithm="CMA-ES", evals=30, reason="target_hit"),
        _span(6, 4, "warmstart.apply_warmstart", 500, 510),
        _span(7, 4, "optimizers.drive", 510, 600, self_ns=20,
              algorithm="BFGS", evals=5, reason="budget_exhausted"),
        _span(8, 1, "switching.run_switch", 600, 900, cell="c", switched=False),
        _span(9, 8, "optimizers.drive", 600, 900, self_ns=40,
              algorithm="CMA-ES", evals=20, reason="budget_exhausted"),
    ]
    calls = {"problems.evaluate.F10": [65, 650, 650, 0],
             "tracing.evaluator": [65, 900, 250, 65]}
    probe = {f"problems.evaluate.F{f}": [2, 40, 40, 0] for f in (1, 10)}
    return calls, spans, probe


def test_layer_metrics_on_a_hand_built_trace():
    calls, spans, probe = _sweep_trace()
    m = layer_metrics(calls, spans, probe, wrapper_ns=0)
    assert m["problems.evals"] == 65
    assert m["problems.eval_us.F10"] == pytest.approx(690 / 67 / 1e3)
    assert m["problems.eval_us.F1"] == pytest.approx(20 / 1e3)
    assert m["problems.eval_us.F2"] == 0.0
    assert m["problems.busy_frac"] == pytest.approx(0.65)
    assert m["tracing.overhead_us"] == pytest.approx(250 / 65 / 1e3)
    assert m["optimizers.CMA-ES.evals"] == 50
    assert m["optimizers.CMA-ES.overhead_us"] == pytest.approx(130 / 50 / 1e3)
    # only drives that aim at phi count: the static run and the A2 phase
    assert m["optimizers.BFGS.success_frac"] == 0.5
    assert m["optimizers.CMA-ES.success_frac"] == 0.0
    assert m["optimizers.runs"] == 3
    assert m["optimizers.run_tail_pct"] == 50.0
    assert m["optimizers.run_ms_p50"] == pytest.approx(300 / 1e6)
    assert m["switching.phase1_evals"] == 50
    assert m["switching.phase2_evals"] == 5
    assert m["switching.phase1_frac"] == pytest.approx(600 / 700)
    assert m["switching.switch_frac"] == 0.5
    assert m["switching.phase1_rerun_frac"] == pytest.approx(20 / 50)
    assert m["warmstart.transfers"] == 1
    assert m["cli.self_ms"] == pytest.approx(100 / 1e6)
    assert m["trace.wrapper_us"] == 0.0


def test_wrapper_cost_is_taken_off_the_callers_self_time():
    calls, spans, probe = _sweep_trace()
    # the BFGS drives made 10 and 5 evaluator calls, the CMA-ES drives
    # 30 and 20, and the command itself 4 record_to_json calls
    counts = {3: 10, 5: 30, 7: 5, 9: 20, 1: 4}
    spans = [dataclasses.replace(s, agg_calls=counts.get(s.id, 0)) for s in spans]
    m = layer_metrics(calls, spans, probe, wrapper_ns=2)
    # the evaluator made one evaluate call per evaluation
    assert m["tracing.overhead_us"] == pytest.approx((250 - 2 * 65) / 65 / 1e3)
    assert m["optimizers.CMA-ES.overhead_us"] == pytest.approx(
        (130 - 2 * 50) / 50 / 1e3)
    assert m["optimizers.BFGS.overhead_us"] == pytest.approx(
        (70 - 2 * 15) / 15 / 1e3)
    assert m["cli.self_ms"] == pytest.approx((100 - 2 * 4) / 1e6)
    assert m["trace.wrapper_us"] == pytest.approx(2 / 1e3)
    # totals and kernel means are durations, measured inside the wrapper
    assert m["problems.eval_us.F10"] == pytest.approx(690 / 67 / 1e3)


def test_scale_to_reference_undoes_a_slow_host():
    # the calibration ran twice as slow as the reference: halve the times
    assert scale_to_reference([30, 40, 50], ref=20) == pytest.approx(0.5)


def test_overhead_ratio_is_a_ratio_of_medians():
    assert overhead_ratio([12, 30, 13], [10, 11, 9]) == pytest.approx(13 / 10)


def test_every_named_metric_is_emitted_with_its_unit():
    calls, spans, probe = _sweep_trace()
    # the overhead ratio compares whole units, so it is derived apart
    emitted = {**layer_metrics(calls, spans, probe, 500),
               "trace.overhead_ratio": overhead_ratio([2], [1])}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(emitted) == set(declared) == set(PER_LAYER_UNITS)
    assert declared == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in emitted.values())
    # an empty unit still emits every metric
    assert set(layer_metrics({}, [], {}, 0)) | {"trace.overhead_ratio"} == set(declared)


def test_exact_metrics_are_the_counts():
    counts = {name for name, unit, _ in PER_LAYER if unit.startswith("count")}
    assert counts | {"optimizers.run_tail_pct"} == EXACT


def test_combine_units_medians_timings_and_flags_changed_counts():
    a = {"problems.evals": 10, "cli.self_ms": 1.0}
    b = {"problems.evals": 10, "cli.self_ms": 3.0}
    c = {"problems.evals": 11, "cli.self_ms": 2.0}
    merged, unstable = combine_units([a, b, c])
    assert merged == {"problems.evals": 10, "cli.self_ms": 2.0}
    assert unstable == ["problems.evals"]
    assert combine_units([a, b])[1] == []


def _record(**changes):
    rec = {"budget": 500, "evals_used": 120, "terminated_reason": "budget_exhausted",
           "hit_at": [[2.0, 3], [1.8, 40], [1.6, 40]]}
    rec.update(changes)
    return rec


def test_record_checks():
    assert record_problem(_record(), 500) is None
    assert "budget" in record_problem(_record(evals_used=501), 500)
    assert "prefix" in record_problem(_record(hit_at=[[2.0, 3], [1.6, 4]]), 500)
    assert "monotone" in record_problem(
        _record(hit_at=[[2.0, 30], [1.8, 4]]), 500)
    assert "monotone" in record_problem(
        _record(hit_at=[[2.0, 3], [1.8, 400]]), 500)
    assert "unknown" in record_problem(_record(terminated_reason="x"), 500)
    hits = [[e, 50] for e in GRID]
    assert record_problem(_record(hit_at=hits, terminated_reason="target_hit"),
                          500) is None
    assert "phi" in record_problem(_record(terminated_reason="target_hit"), 500)
    assert "switch_eval" in record_problem(
        _record(switch_eval=121, phase1_reason="target_hit"), 500)


def test_expected_runs_per_unit():
    sizes = {name: len(expected_runs(w)) for name, w in WORKLOADS.items()}
    assert sizes == {"static-grid": 60, "tau-sweep": 36, "switch-20d": 48}
    assert ("CMA-ES>BFGS@0.01", 1, 20, 2, 0) in expected_runs(WORKLOADS["switch-20d"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parts_split_the_unit_into_disjoint_shares(name):
    w = WORKLOADS[name]
    shares = [expected_runs(p) for p in parts(w)]
    assert len(shares) > 1
    assert set().union(*shares) == expected_runs(w)
    assert sum(map(len, shares)) == len(expected_runs(w))
    # each part writes under its own directory
    argvs = unit_commands(w, 1, "out", jobs=1)
    assert len(argvs) == len(shares)
    for i, part in enumerate(argvs):
        outs = {a[a.index("--out") + 1] for a in part}
        assert all(o.startswith(f"out/part-{i}/") for o in outs)
    # and asks the CLI for its own share, not the whole unit
    selections = {tuple(a for a in part[0] if not a.startswith("out/"))
                  for part in argvs}
    assert len(selections) == len(argvs)
