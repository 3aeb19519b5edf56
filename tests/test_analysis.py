import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynswitch.analysis import (
    VbsReport,
    best_tau,
    build_ert_tables,
    build_vbs_reports,
    ert,
    ert_curve,
    gains,
    relative_gain,
    switch_report,
    tau_summary,
    theoretical_performance,
    use_case_table,
    vbs_dyn,
)
from dynswitch.optimizers import OptimizerConfig
from dynswitch.switching import SwitchPlan
from dynswitch.tracing import DEFAULT_GRID, parse_record, record_to_json


def test_ert_worked_examples():
    # 3 runs, budget 500: hits at 100 and 200, one failure consuming 150
    assert ert([(100, 100), (200, 200), (math.inf, 150)], 500) == pytest.approx(225.0)
    # single failure at full budget then a hit: (500 + 300) / 1
    assert ert([(math.inf, 500), (300, 300)], 500) == pytest.approx(800.0)
    # another textbook case: hits 100, 200; two failures at budget 500
    assert ert([(100, 100), (200, 200), (math.inf, 500), (math.inf, 500)],
               500) == pytest.approx(650.0)


def test_ert_all_failures_is_infinite():
    assert ert([(math.inf, 500), (math.inf, 400)], 500) == math.inf


def test_ert_input_validation():
    with pytest.raises(ValueError):
        ert([], 100)
    with pytest.raises(ValueError):
        ert([(50, 200)], 100)
    # ert_curve hands ert the evaluations a record used, uncapped: a record
    # over its budget is a broken log, not a run that used the budget
    with pytest.raises(ValueError, match="500 evaluations, over the budget 100"):
        ert_curve([make_record("A", 1, 2, {2.0: 3}, 500, budget=100)])


def test_ert_permutation_invariant():
    runs = [(100, 100), (math.inf, 350), (220, 220), (math.inf, 500)]
    base = ert(runs, 500)
    rng = random.Random(0)
    for _ in range(10):
        shuffled = runs[:]
        rng.shuffle(shuffled)
        assert ert(shuffled, 500) == base


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=1000)),
    min_size=1, max_size=20,
))
def test_ert_matches_direct_formula(runs):
    budget = 1000
    pairs = [(float(t) if hit else math.inf, t) for hit, t in runs]
    successes = sum(1 for hit, _ in runs if hit)
    total = sum(t for _, t in runs)
    if successes:
        assert ert(pairs, budget) == pytest.approx(total / successes)
    else:
        assert ert(pairs, budget) == math.inf


def make_record(label, fid, dim, hit_at, evals_used, budget=1000):
    return {
        "algorithm_label": label,
        "function_id": fid,
        "dimension": dim,
        "hit_at": hit_at,
        "evals_used": evals_used,
        "budget": budget,
    }


def test_ert_curve_against_synthetic_oracle():
    # two runs of a fake algorithm on a problem where the curve can be
    # written down by hand
    r1 = make_record("X", 1, 2, {2.0: 1, 0.0: 10, -2.0: 100}, 100)
    r2 = make_record("X", 1, 2, {2.0: 1, 0.0: 20}, 1000)
    curve = ert_curve([r1, r2])
    assert curve[2.0] == (1.0, 2, 2)
    assert curve[0.0] == (15.0, 2, 2)
    assert curve[-2.0] == ((100 + 1000) / 1, 1, 2)
    assert curve[-8.0][0] == math.inf
    assert curve[-8.0][1] == 0


def test_ert_curve_is_monotone_in_target_hardness():
    rng = np.random.default_rng(0)
    records = []
    for i in range(10):
        hits = {}
        t = 0
        for e in DEFAULT_GRID.exponents:
            t += int(rng.integers(1, 50))
            if rng.random() < 0.8:
                hits[e] = t
            else:
                break
        records.append(make_record("X", 1, 2, hits, min(t, 1000)))
    curve = ert_curve(records)
    values = [curve[e][0] for e in DEFAULT_GRID.exponents]
    for a, b in zip(values, values[1:]):
        assert b >= a or (math.isinf(a) and math.isinf(b))


def test_build_ert_tables_grouping():
    recs = [
        make_record("A", 1, 2, {2.0: 5}, 100),
        make_record("A", 1, 2, {2.0: 7}, 100),
        make_record("B", 1, 2, {2.0: 3}, 100),
        make_record("A", 8, 2, {2.0: 9}, 100),
    ]
    tables = build_ert_tables(recs)
    assert set(tables) == {("A", 1, 2), ("B", 1, 2), ("A", 8, 2)}
    assert tables[("A", 1, 2)][2.0] == (6.0, 2, 2)


def test_ert_curve_reads_parsed_pair_form():
    # logs hold hit_at as pairs; parse_record turns them back into the dict
    rec = make_record("A", 1, 2, {2.0: 5, 0.0: 50}, 100)
    line = record_to_json(rec)
    assert json.loads(line)["hit_at"] == [[2.0, 5], [0.0, 50]]
    curve = ert_curve([parse_record(line)])
    assert curve[0.0] == (50.0, 1, 1)


def test_ert_tables_refuse_to_pool_mixed_budgets():
    recs = [make_record("A", 1, 2, {2.0: 5}, 100, budget=1000),
            make_record("A", 1, 2, {2.0: 7}, 100, budget=2000)]
    with pytest.raises(ValueError, match="different budgets"):
        build_ert_tables(recs)
    # groups that differ in budget but not in (label, f, d) stay apart
    other = make_record("A", 8, 2, {2.0: 7}, 100, budget=2000)
    assert set(build_ert_tables([recs[0], other])) == {("A", 1, 2), ("A", 8, 2)}


def constant_curve(value):
    return {e: (value, 1, 1) for e in DEFAULT_GRID.exponents}


def test_theoretical_performance_arithmetic():
    c1 = {(-2.0): (100.0, 1, 1)}
    c2 = {(-2.0): (400.0, 1, 1), (-8.0): (1000.0, 1, 1)}
    # 100 + 1000 - 400 = 700
    assert theoretical_performance(c1, c2, -2.0, -8.0) == pytest.approx(700.0)


def test_theoretical_performance_floor():
    c1 = {(-2.0): (100.0, 1, 1)}
    c2 = {(-2.0): (990.0, 1, 1), (-8.0): (1000.0, 1, 1)}
    # raw value 110 stays; raw value below ERT(A1, tau) gets floored
    assert theoretical_performance(c1, c2, -2.0, -8.0) == pytest.approx(110.0)
    c2b = {(-2.0): (999.0, 1, 1), (-8.0): (1000.0, 1, 1)}
    assert theoretical_performance(c1, c2b, -2.0, -8.0) == pytest.approx(101.0)
    c2c = {(-2.0): (5000.0, 1, 1), (-8.0): (1000.0, 1, 1)}
    assert theoretical_performance(c1, c2c, -2.0, -8.0) == pytest.approx(100.0)


def test_theoretical_performance_identity_pair_telescopes():
    # switching from an algorithm to itself at any tau equals its plain ERT
    rng = np.random.default_rng(1)
    t = 0.0
    curve = {}
    for e in DEFAULT_GRID.exponents:
        t += float(rng.integers(1, 100))
        curve[e] = (t, 1, 1)
    for tau_exp in (1.0, 0.0, -3.0, -7.8):
        assert theoretical_performance(curve, curve, tau_exp, -8.0) == pytest.approx(
            curve[-8.0][0]
        )


def test_theoretical_performance_inf_propagation():
    c1 = constant_curve(math.inf)
    c2 = constant_curve(100.0)
    assert theoretical_performance(c1, c2, -2.0, -8.0) == math.inf
    assert theoretical_performance(c2, c1, -2.0, -8.0) == math.inf


def test_theoretical_performance_requires_tau_easier_than_phi():
    c = constant_curve(1.0)
    with pytest.raises(ValueError):
        theoretical_performance(c, c, -8.0, -2.0)


def test_best_tau_brute_force():
    rng = np.random.default_rng(7)
    t1, t2 = 0.0, 0.0
    c1, c2 = {}, {}
    for e in DEFAULT_GRID.exponents:
        t1 += float(rng.integers(1, 30))
        t2 += float(rng.integers(1, 60))
        c1[e] = (t1, 1, 1)
        c2[e] = (t2, 1, 1)
    tau_exp, val = best_tau(c1, c2, -8.0)
    brute = min(
        (theoretical_performance(c1, c2, e, -8.0), -e)
        for e in DEFAULT_GRID.exponents if e > -8.0
    )
    assert val == pytest.approx(brute[0])
    assert tau_exp == pytest.approx(-brute[1])


def test_best_tau_tie_breaks_to_larger_tau():
    # flat landscape: every tau gives the same value, pick the largest
    c1 = constant_curve(10.0)
    c2 = constant_curve(10.0)
    tau_exp, val = best_tau(c1, c2, -8.0)
    assert tau_exp == 2.0


def test_best_tau_planted_minimum():
    c1 = {}
    c2 = {}
    for e in DEFAULT_GRID.exponents:
        c1[e] = (100.0 if e >= -4.0 else 10_000.0, 1, 1)
        c2[e] = (50.0 * (2.0 - e), 1, 1)
    tau_exp, val = best_tau(c1, c2, -8.0)
    assert tau_exp == -4.0
    assert val == pytest.approx(100.0 + c2[-8.0][0] - c2[-4.0][0])


def test_relative_gain_values():
    assert relative_gain(705.0, 271.64) == pytest.approx(0.615, abs=5e-3)
    assert relative_gain(100.0, 100.0) == 0.0
    assert relative_gain(100.0, math.inf) == -math.inf
    with pytest.raises(ValueError):
        relative_gain(math.inf, 10.0)


def test_gains_triple():
    tg, ag, avt = gains(705.0, 271.64, 525.0)
    assert tg == pytest.approx((705.0 - 271.64) / 705.0)
    assert ag == pytest.approx((705.0 - 525.0) / 705.0)
    assert avt == pytest.approx((271.64 - 525.0) / 271.64)


def test_vbs_dyn_single_algorithm_is_identity():
    tables = {"A": constant_curve(100.0)}
    rep = vbs_dyn(tables, 1, 2, -8.0)
    assert rep.static_algorithm == "A"
    assert rep.dyn_a1 == rep.dyn_a2 == "A"
    assert rep.dyn_tau_exponent is None
    assert rep.dyn_theoretical_ert == 100.0
    assert rep.theoretical_gain == 0.0


def test_vbs_dyn_domination():
    # B dominates everywhere: no switch can beat pure B
    fast = constant_curve(10.0)
    slow = constant_curve(1000.0)
    rep = vbs_dyn({"A": slow, "B": fast}, 1, 2, -8.0)
    assert rep.static_algorithm == "B"
    assert rep.dyn_a1 == rep.dyn_a2 == "B"
    assert rep.dyn_theoretical_ert == 10.0


def test_vbs_dyn_brute_force_over_five_tables():
    rng = np.random.default_rng(3)
    tables = {}
    for name in "ABCDE":
        t = 0.0
        curve = {}
        for e in DEFAULT_GRID.exponents:
            t += float(rng.integers(1, 80))
            curve[e] = (t, 1, 1)
        tables[name] = curve
    rep = vbs_dyn(tables, 1, 2, -8.0)
    # independent exhaustive enumeration
    candidates = []
    for a1 in tables:
        candidates.append((tables[a1][-8.0][0], a1, a1, None))
        for a2 in tables:
            if a2 == a1:
                continue
            for e in DEFAULT_GRID.exponents:
                if e > -8.0:
                    v = theoretical_performance(tables[a1], tables[a2], e, -8.0)
                    candidates.append((v, a1, a2, e))
    best_val = min(c[0] for c in candidates)
    assert rep.dyn_theoretical_ert == pytest.approx(best_val)
    assert rep.static_ert == min(t[-8.0][0] for t in tables.values())
    assert rep.theoretical_gain == pytest.approx(
        (rep.static_ert - best_val) / rep.static_ert
    )


def test_build_vbs_reports_covers_each_cell():
    recs = []
    for fid in (1, 8):
        for label, t in (("A", 10), ("B", 5)):
            recs.append(make_record(label, fid, 2,
                                    {e: t for e in DEFAULT_GRID.exponents}, t))
    tables = build_ert_tables(recs)
    reports = build_vbs_reports(tables, -8.0)
    assert [(r.function_id, r.dimension) for r in reports] == [(1, 2), (8, 2)]


def report(fid, dim, gain, a1="A", a2="B"):
    return VbsReport(
        function_id=fid, dimension=dim, static_algorithm="A", static_ert=100.0,
        dyn_a1=a1, dyn_a2=a2, dyn_tau_exponent=-2.0,
        dyn_theoretical_ert=100.0 * (1 - gain) if math.isfinite(gain) else math.inf,
        theoretical_gain=gain,
    )


def test_use_case_table_excludes_identity():
    reports = [
        report(1, 2, 0.4, a1="A", a2="B"),
        report(8, 2, 0.2, a1="A", a2="B"),
        report(10, 2, 0.1, a1="C", a2="D"),
        report(11, 2, 0.0, a1="A", a2="A"),
    ]
    header, rows = use_case_table(reports[::-1])
    assert header == ("a1", "a2", "count", "cells")
    # pairs sorted, each with its cells sorted; the identity pair A>A absent
    assert rows == [("A", "B", 2, "F1/2D;F8/2D"), ("C", "D", 1, "F10/2D")]


def step_curve(value_to_tau, value_to_phi, tau_exponent=-2.0):
    """ERT value_to_tau down to tau, value_to_phi beyond it."""
    return {e: (value_to_tau if e >= tau_exponent else value_to_phi, 1, 1)
            for e in DEFAULT_GRID.exponents}


BFGS_CMAES = SwitchPlan(OptimizerConfig("BFGS"), OptimizerConfig("CMA-ES"),
                        tau=1e-2)
PLAN_COLUMNS = ("BFGS", "CMA-ES", 1, 2, 0.01)


@pytest.mark.parametrize("static_tables, switch_ert, expected", [
    # present pair: 100 + 400 - 50 theoretically, against the static 100
    ({("BFGS", 1, 2): constant_curve(100.0),
      ("CMA-ES", 1, 2): step_curve(50.0, 400.0)}, 300.0,
     (100.0, 450.0, 300.0, -3.5, -2.0, 1 / 3)),
    # infinite static ERT: no gain relative to it
    ({("BFGS", 1, 2): constant_curve(math.inf),
      ("CMA-ES", 1, 2): constant_curve(math.inf)}, 300.0,
     (math.inf, math.inf, 300.0, "", "", "")),
    # the pair is absent from the static cell: a static best, no theory
    ({("BFGS", 1, 2): constant_curve(100.0),
      ("PSO", 1, 2): constant_curve(80.0)}, 300.0,
     (80.0, "", 300.0, "", "", "")),
    # the static log has no (1, 2) cell; the switch runs all missed phi
    ({("BFGS", 8, 2): constant_curve(100.0)}, math.inf,
     ("", "", math.inf, "", "", "")),
    # no static log at all; no switch record for the cell
    (None, None, ("", "", math.inf, "", "", "")),
])
def test_switch_report_rows(static_tables, switch_ert, expected):
    switch_tables = {} if switch_ert is None else {
        (BFGS_CMAES.label(), 1, 2): constant_curve(switch_ert)}
    header, [row] = switch_report([(BFGS_CMAES, 1, 2)], switch_tables,
                                  static_tables, -8.0)
    assert header == ("a1", "a2", "function_id", "dimension", "tau",
                      "static_ert", "theoretical_ert", "actual_ert",
                      "theoretical_gain", "actual_gain",
                      "actual_vs_theoretical")
    assert row == (*PLAN_COLUMNS, *expected)


def test_tau_summary_per_tau_in_record_order():
    # tau 10^0: one run reaches phi after 50, one misses it after 200;
    # tau 10^-2: both reach it, after 40 and 60
    def run(tau, evals, hit):
        rec = make_record(f"X@{tau}", 1, 2, {-8.0: evals} if hit else {},
                          evals)
        return dict(rec, tau=tau)

    records = [run(1.0, 50, True), run(1.0, 200, False),
               run(0.01, 40, True), run(0.01, 60, True)]
    assert tau_summary(records, -8.0) == (
        ("tau_exponent", "mean", "std", "successes", "runs", "ert"),
        [(0.0, 125.0, 75.0, 1, 2, 250.0), (-2.0, 50.0, 10.0, 2, 2, 50.0)])
