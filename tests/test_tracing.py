import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynswitch.tracing import (
    DEFAULT_GRID,
    BudgetedEvaluator,
    BudgetExhausted,
    TargetGrid,
    TargetReached,
    load_records,
    parse_record,
    record_to_json,
)

from conftest import FuncProblem


def precision_feeder(precisions, budget=None, stop_target=1e-12):
    """Evaluator over a stub problem that replays a precision sequence."""
    seq = iter(precisions)
    problem = FuncProblem(lambda x: next(seq), 2)
    return BudgetedEvaluator(
        problem, budget if budget is not None else len(list(precisions)) + 10,
        stop_target=stop_target,
    )


def test_grid_shape():
    g = TargetGrid()
    assert len(g.exponents) == len(g.targets) == 51
    assert g.targets[0] == 100.0
    assert g.targets[-1] == pytest.approx(1e-8)
    assert all(a > b for a, b in zip(g.targets, g.targets[1:]))


def test_grid_snap():
    assert DEFAULT_GRID.snap_exponent(3.98e-6) == pytest.approx(-5.4)
    assert DEFAULT_GRID.snap(1e-4) == pytest.approx(1e-4)
    with pytest.raises(ValueError):
        DEFAULT_GRID.snap_exponent(0.0)


def test_first_call_crosses_all_targets_above_precision():
    precisions = [0.5]
    ev = precision_feeder(precisions, budget=10)
    ev(np.zeros(2))
    hit = ev.trace.hit_at
    for e, t in zip(DEFAULT_GRID.exponents, DEFAULT_GRID.targets):
        if t >= 0.5:
            assert hit[e] == 1
        else:
            assert e not in hit


def test_worse_call_leaves_trace_unchanged():
    ev = precision_feeder([0.5, 2.0], budget=10)
    ev(np.zeros(2))
    before = dict(ev.trace.hit_at)
    ev(np.zeros(2))
    assert ev.trace.hit_at == before
    assert ev.trace.best_precision == 0.5
    assert ev.trace.evals_used == 2


def oracle_hit_scan(precisions, grid=DEFAULT_GRID):
    """Independent brute-force scan of first-crossing indices."""
    hits = {}
    for e, t in zip(grid.exponents, grid.targets):
        for i, p in enumerate(precisions):
            if p <= t:
                hits[e] = i + 1
                break
    return hits


def test_random_sequence_matches_oracle_scan():
    rng = np.random.default_rng(0)
    precisions = list(10.0 ** rng.uniform(-9, 3, size=1000))
    ev = precision_feeder(precisions, budget=2000, stop_target=1e-30)
    for _ in range(1000):
        ev(np.zeros(2))
    assert ev.trace.hit_at == oracle_hit_scan(precisions)


def test_budget_exhaustion_signal():
    ev = precision_feeder([1.0] * 5, budget=3, stop_target=1e-30)
    for _ in range(3):
        ev(np.zeros(2))
    with pytest.raises(BudgetExhausted):
        ev(np.zeros(2))
    assert ev.trace.evals_used == 3


def test_target_reached_signal():
    ev = precision_feeder([5.0, 1e-9], budget=10, stop_target=1e-8)
    ev(np.zeros(2))
    with pytest.raises(TargetReached):
        ev(np.zeros(2))
    assert ev.trace.best_precision <= 1e-8
    assert ev.trace.hit_at[-8.0] == 2
    # the first call (precision 5) reaches 10^0.8 but not 10^0.6
    assert ev.trace.hit_at[0.8] == 1
    assert ev.trace.hit_at[0.6] == 2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-9.0, max_value=3.0, allow_nan=False),
        min_size=1, max_size=60,
    )
)
def test_hit_at_monotone_property(exponents):
    precisions = [10.0 ** e for e in exponents]
    ev = precision_feeder(precisions, budget=100, stop_target=1e-30)
    for _ in precisions:
        ev(np.zeros(2))
    tr = ev.trace
    assert tr.hit_at == oracle_hit_scan(precisions)
    hits = [tr.hit_at[e] for e in DEFAULT_GRID.exponents if e in tr.hit_at]
    assert hits == sorted(hits)


def test_record_roundtrip():
    ev = precision_feeder([0.5, 1e-3], budget=10, stop_target=1e-30)
    ev(np.zeros(2))
    ev(np.zeros(2))
    line = record_to_json(ev.trace.to_record())
    rec = parse_record(line)
    assert rec["evals_used"] == 2
    assert rec["hit_at"][0.0] == 1
    assert rec["hit_at"][-2.8] == 2


def test_load_records_skips_malformed(tmp_path):
    path = tmp_path / "runs.jsonl"
    ev = precision_feeder([0.5], budget=10, stop_target=1e-30)
    ev(np.zeros(2))
    good = record_to_json(ev.trace.to_record())
    path.write_text(good + "\nnot json\n\n" + good + "\n")
    records, skipped = load_records(path)
    assert len(records) == 2
    assert skipped == 1
