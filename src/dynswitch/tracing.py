"""Budget-enforcing evaluation wrapper and fixed-target run traces.

Every objective call an optimizer makes is routed through a
:class:`BudgetedEvaluator`, which counts evaluations, tracks best-so-far
precision, and records first-hitting times on a fixed log-spaced target grid
(10^2 down to 10^-8 in exponent steps of 0.2; 51 targets).  Budget
exhaustion and target hits are signalled by exceptions that optimizer loops
must let propagate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemId, ProblemInstance

DEFAULT_FINAL_TARGET = 1e-8

TERMINATED_TARGET = "target_hit"
TERMINATED_BUDGET = "budget_exhausted"
TERMINATED_CONVERGED = "algorithm_converged"


class StopRun(Exception):
    """Base signal that a run must halt; not an error."""


class BudgetExhausted(StopRun):
    pass


class TargetReached(StopRun):
    pass


class TargetGrid:
    """The fixed descending grid of precision targets 10^2, 10^1.8, ..., 10^-8.

    phi and tau are snapped onto it where they enter the program, so runs
    stop exactly at the targets that the ERT tables read.
    """

    exponents = tuple(round(2.0 - i * 0.2, 10) for i in range(51))
    targets = tuple(10.0 ** e for e in exponents)

    def snap_exponent(self, value: float) -> float:
        """Exponent of the grid target nearest to ``value`` (a precision)."""
        if value <= 0:
            raise ValueError(f"precision targets must be positive, got {value}")
        e = math.log10(value)
        return min(self.exponents, key=lambda g: (abs(g - e), -g))

    def snap(self, value: float) -> float:
        return 10.0 ** self.snap_exponent(value)


DEFAULT_GRID = TargetGrid()


@dataclass
class RunTrace:
    """Per-run evaluation log on the fixed target grid.

    ``hit_at`` maps grid exponents (e.g. -5.4) to the evaluation count at
    which that precision was first reached.
    """

    problem: ProblemId
    algorithm_label: str
    run_index: int
    budget: int
    evals_used: int = 0
    best_precision: float = math.inf
    hit_at: dict[float, int] = field(default_factory=dict)
    terminated_reason: str = TERMINATED_BUDGET

    def to_record(self) -> dict:
        rec = {
            "algorithm_label": self.algorithm_label,
            "function_id": self.problem.function_id,
            "dimension": self.problem.dimension,
            "instance": self.problem.instance,
            "run_index": self.run_index,
            "budget": self.budget,
            "evals_used": self.evals_used,
            "best_precision": self.best_precision,
            "terminated_reason": self.terminated_reason,
            "hit_at": dict(self.hit_at),
        }
        return rec


def record_to_json(rec: dict) -> str:
    """Canonical single-line serialization (the producer/consumer contract).

    ``hit_at`` is written as (exponent, count) pairs, exponents descending;
    :func:`parse_record` turns them back into a dict.
    """
    pairs = sorted(rec["hit_at"].items(), reverse=True)
    return json.dumps(dict(rec, hit_at=pairs), sort_keys=True, allow_nan=True)


REPORT_FIELDS = {"algorithm_label": str, "function_id": int, "dimension": int,
                 "budget": int, "evals_used": int}


def parse_record(line: str) -> dict:
    """The record on a log line; ValueError when it lacks a field the reports
    read (REPORT_FIELDS) or holds one of another type (a bool is not an int).
    """
    rec = json.loads(line)
    rec["hit_at"] = {float(e): int(n) for e, n in rec["hit_at"]}
    bad = [name for name, kind in REPORT_FIELDS.items()
           if type(rec.get(name)) is not kind]
    if bad:
        raise ValueError(f"record lacks or mistypes the fields {bad}")
    return rec


def load_records(path):
    """Parse a line-delimited run log; returns (records, skipped_count)."""
    records, skipped = [], 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse_record(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                skipped += 1
    return records, skipped


class BudgetedEvaluator:
    """Routes objective calls to a problem, recording the trace as it goes.

    ``stop_target`` is the precision at which a TargetReached signal fires;
    the switching driver lowers it from tau to phi across the phase boundary
    while counters stay cumulative.  One evaluator per run; not shared.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        budget: int,
        stop_target: float = DEFAULT_FINAL_TARGET,
        algorithm_label: str = "",
        run_index: int = 0,
    ):
        self.problem = problem
        self.budget = int(budget)
        self.stop_target = float(stop_target)
        self.trace = RunTrace(
            problem=problem.id,
            algorithm_label=algorithm_label,
            run_index=run_index,
            budget=self.budget,
        )
        self.best_x = None
        self.best_f = math.inf
        self._next_grid_index = 0

    @property
    def evals_used(self) -> int:
        return self.trace.evals_used

    @property
    def best_precision(self) -> float:
        return self.trace.best_precision

    def __call__(self, x) -> float:
        trace, problem = self.trace, self.problem
        if trace.evals_used >= self.budget:
            raise BudgetExhausted()
        value = problem.evaluate(x)
        trace.evals_used += 1
        prec = problem.precision(value)
        if prec < trace.best_precision:
            trace.best_precision = prec
            self.best_x = np.array(x, dtype=float, copy=True)
            self.best_f = value
            targets = DEFAULT_GRID.targets
            while (
                self._next_grid_index < len(targets)
                and prec <= targets[self._next_grid_index]
            ):
                e = DEFAULT_GRID.exponents[self._next_grid_index]
                trace.hit_at[e] = trace.evals_used
                self._next_grid_index += 1
        if trace.best_precision <= self.stop_target:
            raise TargetReached()
        return value
