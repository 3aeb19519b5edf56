"""In-memory tracer that wraps dynswitch's public functions from outside.

Calls made once per evaluation are aggregated as a count plus total and
self nanoseconds; every other wrapped call gets a :class:`Span` with its
parent.  A call's self time is its duration minus the durations of the
wrapped calls it made, kept on a stack as the calls nest.  Each call also
counts the aggregated calls it made directly: their wrappers' bookkeeping
falls outside the callee's duration and so inside the caller's self time,
and the derivations take it off again.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    root: int              # id of the outermost span: one per CLI command
    name: str
    start: int
    end: int
    self_ns: int
    agg_calls: int = 0     # aggregated calls made directly by this one
    attrs: dict = field(default_factory=dict)

    def to_json(self):
        return {"id": self.id, "parent": self.parent, "root": self.root,
                "name": self.name, "start_ns": self.start, "end_ns": self.end,
                "self_ns": self.self_ns, "agg_calls": self.agg_calls,
                "attrs": self.attrs}


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []   # frames: [child_ns, agg_calls, span_id, root_id]
        self.calls = {}   # key -> [count, total_ns, self_ns, agg_calls]
        self.spans = []
        self._last_id = 0

    def reset(self):
        # wrappers hold these containers, so clear them in place
        self.stack.clear()
        self.calls.clear()
        self.spans.clear()

    def aggregated(self, fn, key_of):
        """Wrap a per-evaluation call; ``key_of(args)`` names its counter."""
        stack, calls, clock = self.stack, self.calls, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0, *(stack[-1][2:] if stack else (None, None))]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += 1
                key = key_of(args)
                entry = calls.get(key)
                if entry is None:
                    entry = calls[key] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                entry[3] += frame[1]

        return wrapper

    def spanned(self, fn, name, before=None, attrs=None):
        """Wrap a call so that each call records a span.

        ``before(args, kwargs)`` runs before the call and its value is
        handed to ``attrs(args, kwargs, result, before_value)``, which
        returns the span's attributes (``result`` is None if it raised).
        """
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._last_id += 1
            sid = self._last_id
            parent = stack[-1] if stack else None
            frame = [0, 0, sid, parent[3] if parent else sid]
            pre = before(args, kwargs) if before else None
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                self.spans.append(Span(
                    sid, parent[2] if parent else None, frame[3], name,
                    start, end, end - start - frame[0], frame[1],
                    attrs(args, kwargs, result, pre) if attrs else {},
                ))

        return wrapper


def _run_single_attrs(args, kwargs, trace, _):
    return {"algorithm": args[0].algorithm}


def _run_switch_attrs(args, kwargs, st, _):
    plan, problem = args[0], args[1]
    pid = problem.id
    cell = "|".join(map(str, (plan.a1.algorithm, plan.a2.algorithm,
                              pid.function_id, pid.dimension, pid.instance,
                              kwargs.get("run_index", 0))))
    return {"cell": cell, "tau": plan.tau,
            "switched": st is not None and st.switch_eval is not None}


def _drive_before(args, kwargs):
    return args[1].evals_used


def install(tracer):
    """Patch the traced functions where their callers look them up.

    Returns a function that restores the originals.
    """
    from dynswitch import cli, switching
    from dynswitch.optimizers import ALGORITHMS, driver
    from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemInstance
    from dynswitch.tracing import BudgetedEvaluator

    algorithm_of = {cls: name for name, cls in ALGORITHMS.items()}

    def drive_attrs(args, kwargs, reason, evals_before):
        optimizer, ev = args
        return {"algorithm": algorithm_of[type(optimizer)],
                "evals": ev.evals_used - evals_before, "reason": reason}

    eval_keys = {f: f"problems.evaluate.F{f}" for f in IMPLEMENTED_FUNCTIONS}
    patches = [
        (ProblemInstance, "evaluate", tracer.aggregated(
            ProblemInstance.evaluate, lambda a: eval_keys[a[0].id.function_id])),
        (BudgetedEvaluator, "__call__", tracer.aggregated(
            BudgetedEvaluator.__call__, lambda a: "tracing.evaluator")),
        (cli, "record_to_json", tracer.aggregated(
            cli.record_to_json, lambda a: "tracing.record_to_json")),
        (cli, "instantiate", tracer.spanned(cli.instantiate, "problems.instantiate")),
        (cli, "load_records", tracer.spanned(cli.load_records, "tracing.load_records")),
        (cli, "build_ert_tables", tracer.spanned(
            cli.build_ert_tables, "analysis.build_ert_tables")),
        (cli, "build_vbs_reports", tracer.spanned(
            cli.build_vbs_reports, "analysis.build_vbs_reports")),
        (cli, "run_single", tracer.spanned(
            cli.run_single, "optimizers.run_single", attrs=_run_single_attrs)),
        (cli, "sweep_tau", tracer.spanned(cli.sweep_tau, "switching.sweep_tau")),
        # switching binds drive, extract and apply_warmstart by name, and
        # sweep_tau calls run_switch through the switching module
        (driver, "drive", tracer.spanned(
            driver.drive, "optimizers.drive", _drive_before, drive_attrs)),
        (switching, "drive", tracer.spanned(
            switching.drive, "optimizers.drive", _drive_before, drive_attrs)),
        (switching, "extract", tracer.spanned(switching.extract, "warmstart.extract")),
        (switching, "apply_warmstart", tracer.spanned(
            switching.apply_warmstart, "warmstart.apply_warmstart")),
        (cli, "run_switch", tracer.spanned(
            cli.run_switch, "switching.run_switch", attrs=_run_switch_attrs)),
        (switching, "run_switch", tracer.spanned(
            switching.run_switch, "switching.run_switch", attrs=_run_switch_attrs)),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)

    def restore():
        for owner, name, original in originals:
            setattr(owner, name, original)

    return restore
