"""Expected running time, switching performance, and virtual-best reports.

Pure functions over immutable run-log records.  ERT is total evaluations
over all runs divided by the number of successful runs; unsuccessful runs
contribute the evaluations they actually consumed (equal to the budget
unless the algorithm converged early on its own).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .tracing import DEFAULT_GRID


def ert(runs, budget) -> float:
    """ERT from (hitting_time, evals_consumed) pairs; inf if no successes.

    Successful runs contribute min(T_i, budget); unsuccessful ones the
    evaluations they consumed.  A run over the budget is refused.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("ert needs at least one run")
    total = 0.0
    successes = 0
    for hitting_time, consumed in runs:
        if consumed > budget:
            raise ValueError(
                f"run consumed {consumed} evaluations, over the budget {budget}"
            )
        if math.isfinite(hitting_time):
            total += min(hitting_time, budget)
            successes += 1
        else:
            total += consumed
    return total / successes if successes else math.inf


def ert_curve(records) -> dict:
    """Per grid exponent: (ert, successes, runs) pooled over the records.

    The records must share one budget: runs from experiments with different
    budgets are not comparable.
    """
    if not records:
        raise ValueError("no records to aggregate")
    budgets = sorted({rec["budget"] for rec in records})
    if len(budgets) > 1:
        first = records[0]
        raise ValueError(
            f"cannot pool {first['algorithm_label']} runs on "
            f"F{first['function_id']} {first['dimension']}D with different "
            f"budgets {budgets}"
        )
    budget = budgets[0]
    curve = {}
    for e in DEFAULT_GRID.exponents:
        runs = [(rec["hit_at"].get(e, math.inf), rec["evals_used"])
                for rec in records]
        curve[e] = (ert(runs, budget),
                    sum(math.isfinite(h) for h, _ in runs), len(runs))
    return curve


def build_ert_tables(records):
    """Group run records by (algorithm_label, function, dimension)."""
    groups = {}
    for rec in records:
        key = (rec["algorithm_label"], rec["function_id"], rec["dimension"])
        groups.setdefault(key, []).append(rec)
    return {key: ert_curve(recs) for key, recs in groups.items()}


def ert_table(tables):
    """ert_table.tsv: ERT, successes and runs per algorithm, cell, target."""
    return (("algorithm", "function_id", "dimension", "target_exponent",
             "ert", "successes", "runs"),
            [(label, f, d, e, *curve[e])
             for (label, f, d), curve in sorted(tables.items())
             for e in DEFAULT_GRID.exponents])


def _cells(tables):
    """{(function, dimension): {algorithm_label: curve}} from ERT tables."""
    cells = {}
    for (label, f, d), curve in tables.items():
        cells.setdefault((f, d), {})[label] = curve
    return cells


def tau_summary(records, phi_exponent):
    """sweep_summary.tsv: per tau, in record order, the mean and std of the
    cost to phi (the hitting time, or the evaluations used when phi was
    missed), the successes and runs, and the ERT at phi."""
    by_tau = {}
    for rec in records:
        by_tau.setdefault(rec["tau"], []).append(rec)
    rows = []
    for tau, cell in by_tau.items():
        costs = [r["hit_at"].get(phi_exponent, r["evals_used"]) for r in cell]
        value, successes, runs = ert_curve(cell)[phi_exponent]
        rows.append((DEFAULT_GRID.snap_exponent(tau), float(np.mean(costs)),
                     float(np.std(costs)), successes, runs, value))
    return ("tau_exponent", "mean", "std", "successes", "runs", "ert"), rows


def sweep_run_table(records, phi_exponent):
    """sweep_runs.tsv, one row per run in record order: tau, the hitting time
    of phi (inf if missed), evaluations, success and the switch evaluation."""
    return (("tau_exponent", "instance", "run_index", "hit_phi", "evals_used",
             "success", "switch_eval"),
            [(DEFAULT_GRID.snap_exponent(r["tau"]), r["instance"],
              r["run_index"], r["hit_at"].get(phi_exponent, math.inf),
              r["evals_used"], int(phi_exponent in r["hit_at"]),
              r["switch_eval"]) for r in records])


def _ert_at(curve, exponent):
    entry = curve.get(exponent)
    return math.inf if entry is None else entry[0]


def theoretical_performance(curve_a1, curve_a2, tau_exponent, phi_exponent) -> float:
    """ERT(A1, tau) + ERT(A2, phi) - ERT(A2, tau), floored at ERT(A1, tau)."""
    if not tau_exponent > phi_exponent:
        raise ValueError("tau must be an easier target than phi")
    v1 = _ert_at(curve_a1, tau_exponent)
    v2 = _ert_at(curve_a2, phi_exponent)
    v3 = _ert_at(curve_a2, tau_exponent)
    if math.isinf(v1) or math.isinf(v2) or math.isinf(v3):
        return math.inf
    return max(v1, v1 + v2 - v3)


def best_tau(curve_a1, curve_a2, phi_exponent):
    """(tau_exponent, value) minimizing the theoretical switching cost.

    Ties break toward the larger tau (the earlier switch).
    """
    best_exp, best_val = None, math.inf
    for e in DEFAULT_GRID.exponents:  # descending: largest tau first
        if not e > phi_exponent:
            continue
        val = theoretical_performance(curve_a1, curve_a2, e, phi_exponent)
        if val < best_val:
            best_exp, best_val = e, val
    return best_exp, best_val


@dataclass
class VbsReport:
    """Static vs dynamic virtual best for one (function, dimension) cell."""

    function_id: int
    dimension: int
    static_algorithm: str
    static_ert: float
    dyn_a1: str
    dyn_a2: str
    dyn_tau_exponent: float | None   # None for the identity (no-switch) pair
    dyn_theoretical_ert: float
    theoretical_gain: float


def relative_gain(reference: float, value: float) -> float:
    """(reference - value) / reference; -inf when value is infinite."""
    if math.isinf(reference):
        raise ValueError("reference ERT must be finite")
    if math.isinf(value):
        return -math.inf
    return (reference - value) / reference


def gains(static_ert, theoretical_ert, actual_ert):
    """The three relative measures used in reporting.

    Returns (theoretical_gain_vs_static, actual_gain_vs_static,
    actual_vs_theoretical).
    """
    tg = relative_gain(static_ert, theoretical_ert)
    ag = relative_gain(static_ert, actual_ert)
    if math.isinf(theoretical_ert):
        avt = -math.inf if math.isfinite(actual_ert) else math.nan
    else:
        avt = relative_gain(theoretical_ert, actual_ert)
    return tg, ag, avt


def vbs_dyn(tables_for_cell, function_id, dimension, phi_exponent) -> VbsReport:
    """Exhaustive search over ordered (A1, A2) pairs (identity included)
    and all grid switching points for one function-dimension cell."""
    if not tables_for_cell:
        raise ValueError("need at least one algorithm table")
    static_algorithm, static_ert = min(
        ((label, _ert_at(curve, phi_exponent))
         for label, curve in tables_for_cell.items()),
        key=lambda item: (item[1], item[0]),
    )
    best = None  # (value, a1, a2, tau_exponent)
    for a1, curve1 in sorted(tables_for_cell.items()):
        # identity pair: no switch, value is the plain ERT at phi
        identity = _ert_at(curve1, phi_exponent)
        if best is None or identity < best[0]:
            best = (identity, a1, a1, None)
        for a2, curve2 in sorted(tables_for_cell.items()):
            if a2 == a1:
                continue
            tau_exp, val = best_tau(curve1, curve2, phi_exponent)
            if tau_exp is not None and val < best[0]:
                best = (val, a1, a2, tau_exp)
    dyn_val, a1, a2, tau_exp = best
    if math.isinf(static_ert):
        theoretical_gain = 0.0 if math.isinf(dyn_val) else math.inf
    else:
        theoretical_gain = relative_gain(static_ert, dyn_val)
    return VbsReport(
        function_id=function_id,
        dimension=dimension,
        static_algorithm=static_algorithm,
        static_ert=static_ert,
        dyn_a1=a1,
        dyn_a2=a2,
        dyn_tau_exponent=tau_exp,
        dyn_theoretical_ert=dyn_val,
        theoretical_gain=theoretical_gain,
    )


def build_vbs_reports(tables, phi_exponent):
    """One VbsReport per (function, dimension) present in the tables."""
    return [
        vbs_dyn(algos, f, d, phi_exponent)
        for (f, d), algos in sorted(_cells(tables).items())
    ]


def vbs_table(reports):
    """vbs_report.tsv: VbsReport's fields, one row per report; an identity
    pair's tau (None) is an empty cell."""
    return ([f.name for f in fields(VbsReport)],
            [["" if v is None else v for v in astuple(r)] for r in reports])


def switch_report(plans, switch_tables, static_tables, phi_exponent):
    """switch_report.tsv, one row per (plan, function, dimension): static
    best, theoretical and actual ERT at phi, and the gains.  A cell absent
    from ``static_tables`` (or None) leaves the static columns empty."""
    static_cells = _cells(static_tables or {})
    rows = []
    for plan, f, d in plans:
        a1, a2 = plan.a1.algorithm, plan.a2.algorithm
        actual = _ert_at(switch_tables.get((plan.label(), f, d), {}),
                         phi_exponent)
        cell = static_cells.get((f, d), {})
        static = theoretical = ""
        if cell:
            static = min(_ert_at(c, phi_exponent) for c in cell.values())
            if a1 in cell and a2 in cell:
                theoretical = theoretical_performance(
                    cell[a1], cell[a2], plan.tau_exponent, phi_exponent)
        row_gains = ("", "", "")
        if theoretical != "" and math.isfinite(static):
            row_gains = gains(static, theoretical, actual)
        rows.append((a1, a2, f, d, plan.tau, static, theoretical, actual,
                     *row_gains))
    return (("a1", "a2", "function_id", "dimension", "tau", "static_ert",
             "theoretical_ert", "actual_ert", "theoretical_gain",
             "actual_gain", "actual_vs_theoretical"), rows)


def use_case_table(reports):
    """use_cases.tsv: each (A1, A2) pair leading the dynamic VBS, with the
    number and the sorted list of its cells; identity pairs are 'no switch'
    and excluded."""
    cells = {}
    for r in sorted(reports, key=lambda r: (r.function_id, r.dimension)):
        if r.dyn_a1 != r.dyn_a2:
            cells.setdefault((r.dyn_a1, r.dyn_a2), []).append(
                f"F{r.function_id}/{r.dimension}D")
    return (("a1", "a2", "count", "cells"),
            [(a1, a2, len(c), ";".join(c))
             for (a1, a2), c in sorted(cells.items())])
