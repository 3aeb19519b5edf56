"""Single-switch dynamic runs: A1 until precision tau, warm-start, A2 to phi.

Both phases share one evaluator, so the budget and the evaluation counter
are strictly cumulative across the boundary and best-so-far never worsens
at the switch.  When A1 converges internally above tau, the run switches
immediately at that point unless the plan's policy sets
``WarmStartPolicy.early_switch`` to False, the strict no-switch semantics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
from dataclasses import astuple, dataclass

import numpy as np

from .optimizers import OptimizerConfig, drive, make_optimizer
from .problems import ProblemInstance
from .tracing import (
    DEFAULT_FINAL_TARGET,
    DEFAULT_GRID,
    TERMINATED_CONVERGED,
    TERMINATED_TARGET,
    BudgetedEvaluator,
    RunTrace,
)
from .warmstart import WarmStartPolicy, apply_warmstart, extract

A2_SEED_SALT = 0x5EC0


def cell_seed(*parts) -> int:
    """Stable per-cell seed from the master seed and the cell coordinates."""
    text = "|".join(map(str, parts))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class SwitchPlan:
    a1: OptimizerConfig
    a2: OptimizerConfig
    tau: float
    phi: float = DEFAULT_FINAL_TARGET
    policy: WarmStartPolicy = WarmStartPolicy()

    def __post_init__(self):
        # tau and phi move onto the target grid (snap refuses values <= 0),
        # so the runs stop exactly where the ERT tables read them
        object.__setattr__(self, "tau", DEFAULT_GRID.snap(self.tau))
        object.__setattr__(self, "phi", DEFAULT_GRID.snap(self.phi))
        if not self.tau > self.phi > 0:
            raise ValueError(
                f"need tau > phi > 0, got tau={self.tau}, phi={self.phi}"
            )

    @property
    def tau_exponent(self) -> float:
        """Grid exponent of tau: where the ERT tables read it."""
        return DEFAULT_GRID.snap_exponent(self.tau)

    def label(self) -> str:
        return f"{self.a1.algorithm}>{self.a2.algorithm}@{self.tau:.6g}"


@dataclass
class SwitchTrace:
    trace: RunTrace
    tau: float
    switch_eval: int | None      # evaluation count at the switch; None if no switch
    phase1_reason: str
    phase2_reason: str | None

    def to_record(self) -> dict:
        rec = self.trace.to_record()
        rec["tau"] = self.tau
        rec["switch_eval"] = self.switch_eval
        rec["phase1_reason"] = self.phase1_reason
        rec["phase2_reason"] = self.phase2_reason
        return rec


def run_switch(
    plan: SwitchPlan,
    problem: ProblemInstance,
    budget: int,
    seed: int = 0,
    run_index: int = 0,
) -> SwitchTrace:
    """Execute one dynamic run; deterministic given (plan, problem, seed)."""
    ev = BudgetedEvaluator(
        problem, budget, stop_target=plan.tau,
        algorithm_label=plan.label(), run_index=run_index,
    )
    rng1 = np.random.default_rng(seed)
    a1 = make_optimizer(plan.a1, problem.dimension, rng1)
    phase1_reason = drive(a1, ev)

    switch_eval = None
    phase2_reason = None
    do_switch = phase1_reason == TERMINATED_TARGET or (
        plan.policy.early_switch
        and phase1_reason == TERMINATED_CONVERGED
        and ev.evals_used > 0
    )
    if do_switch:
        switch_eval = ev.evals_used
        ws = extract(a1, ev.best_x, ev.best_f, ev.evals_used)
        rng2 = np.random.default_rng([seed, A2_SEED_SALT])
        a2 = apply_warmstart(
            ws, plan.a1.algorithm, plan.a2.algorithm, plan.policy, rng2,
            overrides=plan.a2.overrides,
        )
        ev.stop_target = plan.phi
        if ev.best_precision <= plan.phi:
            phase2_reason = TERMINATED_TARGET
        else:
            phase2_reason = drive(a2, ev)
    ev.trace.terminated_reason = phase2_reason or phase1_reason
    return SwitchTrace(
        trace=ev.trace,
        tau=plan.tau,
        switch_eval=switch_eval,
        phase1_reason=phase1_reason,
        phase2_reason=phase2_reason,
    )


def run_tasks(worker, tasks, jobs):
    """Apply ``worker`` to every task over ``jobs`` processes in all.

    At ``jobs`` > 1 the calling process works beside a pool of ``jobs`` - 1
    processes: each takes the next unclaimed task, in list order, from one
    shared counter, and reports its outcome as soon as it finishes.  No
    more processes run than there are tasks.  Returns (results, failures)
    in task order; a task that raises, or dies with its pool process, is
    reported as (task, message) and the batch continues.
    """
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        outcomes = _self_scheduled(worker, tasks, jobs)
    else:
        outcomes = [_outcome(worker, t) for t in tasks]
    results, failures = [], []
    for task, (ok, value) in zip(tasks, outcomes):
        if ok:
            results.append(value)
        else:
            failures.append((task, value))
    return results, failures


def _outcome(worker, task):
    """(True, ``worker(task)``), or (False, its message) if it raised."""
    try:
        return True, worker(task)
    except Exception as exc:  # cell failure; batch continues
        return False, str(exc)


# (worker, tasks, counter) in a pool process: an initializer is the one way
# to hand a pool process a shared counter
_batch = None


def _join(worker, tasks, counter):
    """Pool initializer: the batch this process takes its tasks from."""
    global _batch
    _batch = worker, tasks, counter


def _claim(counter):
    """The index of the next unclaimed task."""
    with counter.get_lock():
        counter.value += 1
        return counter.value - 1


def _run_next():
    """Pool call: (index, outcome) of the next unclaimed task, or None
    when every task is claimed."""
    worker, tasks, counter = _batch
    index = _claim(counter)
    if index < len(tasks):
        return index, _outcome(worker, tasks[index])


def _self_scheduled(worker, tasks, jobs):
    """Outcomes of ``tasks`` in task order, from this process and a pool.

    The pool is handed one call per task; a call claims its task only when
    it starts, so the calls queued in the pool bind no task.  Each pool
    process gets the batch once, through the initializer (a fork inherits
    it), not a task per call.  A pool process that dies fails every task the
    pool held, a live sibling's too; this process runs every unclaimed task.
    """
    import multiprocessing  # here: only a pool needs it, as for the executor

    counter = multiprocessing.Value("q", 0)
    outcomes = {}
    with concurrent.futures.ProcessPoolExecutor(
            jobs - 1, initializer=_join,
            initargs=(worker, tasks, counter)) as pool:
        calls = [pool.submit(_run_next) for _ in tasks]
        while (index := _claim(counter)) < len(tasks):
            outcomes[index] = _outcome(worker, tasks[index])
        pool.shutdown(cancel_futures=True)
    lost = None
    for call in calls:
        if call.cancelled():
            continue
        try:
            claimed = call.result()
        except Exception as exc:  # the pool broke: its claimed tasks are lost
            lost = str(exc)
        else:
            if claimed is not None:
                outcomes[claimed[0]] = claimed[1]
    return [outcomes.get(i, (False, lost)) for i in range(len(tasks))]


def _switch_task(seed, task):
    """Worker: one switch run.  Top level so it pickles for the pool."""
    plan, problem, budget, run = task
    a1_seed = cell_seed(seed, plan.a1.algorithm, *astuple(problem.id), run)
    return run_switch(plan, problem, budget=budget, seed=a1_seed,
                      run_index=run).to_record()


def run_switch_tasks(tasks, seed, jobs=1):
    """Run tasks ``(plan, problem, budget, run)`` over ``jobs`` processes,
    A1 seeded from ``seed`` as bench seeds its static run, which it replays.

    Refuses an empty batch, and two tasks of one plan label, problem and
    run: their records would pool.  Returns (records, failures) in task
    order, each failure one line naming its run.
    """
    if not tasks:
        raise ValueError("no switch run to execute: no plan, or no tau above phi")
    seen = set()
    for plan, problem, *_, run in tasks:
        key = (plan.label(), problem.id, run)
        if key in seen:
            raise ValueError(
                f"two {plan.a1.algorithm}>{plan.a2.algorithm} plans on "
                f"F{problem.id.function_id} {problem.id.dimension}D put their "
                f"switching points on the same grid target {plan.tau_exponent}")
        seen.add(key)
    records, failures = run_tasks(
        functools.partial(_switch_task, seed), tasks, jobs)
    return records, [
        f"{plan.a1.algorithm}>{plan.a2.algorithm} F{problem.id.function_id} "
        f"{problem.id.dimension}D tau {plan.tau:g} instance "
        f"{problem.id.instance} run {run}: {message}"
        for (plan, problem, *_, run), message in failures]


def sweep_tau(
    a1: OptimizerConfig,
    a2: OptimizerConfig,
    problems,
    tau_exponents,
    budget: int,
    runs_per_instance: int = 5,
    phi: float = DEFAULT_FINAL_TARGET,
    seed: int = 0,
    policy: WarmStartPolicy = WarmStartPolicy(),
    jobs: int = 1,
):
    """Switching-point sensitivity sweep over ``jobs`` processes.

    Runs ``runs_per_instance`` switch runs per (tau, problem instance).
    Returns :func:`run_switch_tasks`'s (records, failures), the records in
    (tau, problem, run) order.
    """
    plans = [SwitchPlan(a1=a1, a2=a2, tau=10.0 ** tau_exp, phi=phi,
                        policy=policy) for tau_exp in tau_exponents]
    tasks = [(plan, problem, budget, run) for plan in plans
             for problem in problems for run in range(runs_per_instance)]
    return run_switch_tasks(tasks, seed, jobs)
