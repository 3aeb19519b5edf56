"""Single-switch dynamic runs: A1 until precision tau, warm-start, A2 to phi.

Both phases share one evaluator, so the budget and the evaluation counter
are strictly cumulative across the boundary and best-so-far never worsens
at the switch.  When A1 converges internally above tau, the run switches
immediately at that point unless the plan's policy sets
``WarmStartPolicy.early_switch`` to False, the strict no-switch semantics.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .optimizers import OptimizerConfig, drive, start
from .problems import ProblemInstance
from .tracing import (
    DEFAULT_FINAL_TARGET,
    DEFAULT_GRID,
    TERMINATED_CONVERGED,
    TERMINATED_TARGET,
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


class RunKey(NamedTuple):
    """A run's identity: it sorts a log, refuses a run given twice, names a
    run as a message does and seeds it."""
    label: str
    function: int
    dimension: int
    instance: int | None
    run: int | None

    @classmethod
    def of(cls, task):
        """The key of the record a task (plan or config, problem, budget,
        run) writes."""
        plan, problem, _, run = task
        label = plan.label() if isinstance(plan, SwitchPlan) else plan.algorithm
        return cls(label, *astuple(problem.id), run)

    @classmethod
    def of_record(cls, rec):
        """A record's key; None for an instance or run index it lacks."""
        return cls(rec["algorithm_label"], rec["function_id"],
                   rec["dimension"], rec.get("instance"), rec.get("run_index"))

    def seed(self, master):
        """Seeded by A1, so that a switch run's A1 replays its static run."""
        return cell_seed(master, self.label.partition(">")[0], self.function,
                         self.dimension, self.instance, self.run)

    def __str__(self):
        name, _, tau = self.label.partition("@")
        tau = f" tau {tau}" if tau else ""
        return (f"{name} F{self.function} {self.dimension}D{tau} instance "
                f"{self.instance} run {self.run}")


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
    """Execute one dynamic run; deterministic given (plan, problem, seed):
    A1 from :func:`start` to tau, then A2 warm-started from it to phi."""
    ev, a1, phase1_reason = start(plan.a1, problem, budget, plan.tau,
                                  plan.label(), seed, run_index)

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
        a2 = apply_warmstart(ws, plan.a2, plan.policy, rng2)
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

    At ``jobs`` > 1 the calling process works beside ``jobs`` - 1 worker
    processes, each taking the next unclaimed task, in list order, from one
    shared counter; no more processes run than there are tasks.  Returns
    (results, failures) in task order; a task that raises, or dies with its
    worker, is reported as (task, message) and the others run on.  An
    exception out of the calling process (KeyboardInterrupt) stops them all.
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


def _claim(counter):
    """The index of the next unclaimed task."""
    with counter.get_lock():
        counter.value += 1
        return counter.value - 1


def _work(worker, tasks, counter, sender):
    """Worker process: send (index, outcome) of every task it claims."""
    while (index := _claim(counter)) < len(tasks):
        sender.send((index, _outcome(worker, tasks[index])))


def _self_scheduled(worker, tasks, jobs):
    """Outcomes of ``tasks`` in task order, from this process and ``jobs``
    - 1 workers.  A thread files what each worker sends until its pipe
    closes; a task left with no outcome died with its worker, alone."""
    import multiprocessing  # here: jobs 1 needs no process
    import threading
    from multiprocessing.connection import wait

    counter = multiprocessing.Value("q", 0)
    outcomes, pipes, workers = {}, [], []

    def collect():
        while pipes:
            for pipe in wait(pipes):
                try:
                    index, outcome = pipe.recv()
                except (EOFError, OSError):  # its worker has exited
                    pipes.remove(pipe)
                    pipe.close()
                else:
                    outcomes[index] = outcome

    try:
        for _ in range(jobs - 1):
            pipe, sender = multiprocessing.Pipe(duplex=False)
            workers.append(multiprocessing.Process(
                target=_work, args=(worker, tasks, counter, sender), daemon=True))
            workers[-1].start()
            sender.close()  # the worker's copy alone: EOF when it exits
            pipes.append(pipe)
        # started after the forks, so that no fork copies a running thread
        collector = threading.Thread(target=collect, daemon=True)
        collector.start()
        while (index := _claim(counter)) < len(tasks):
            outcomes[index] = _outcome(worker, tasks[index])
        collector.join()
    finally:  # a no-op for workers whose pipes are closed
        for process in workers:
            process.terminate()
            process.join()
    died = False, "its worker process terminated abruptly"
    return [outcomes.get(i, died) for i in range(len(tasks))]


def _switch_task(seed, task):
    """Worker: one switch run.  Top level so it pickles for a worker."""
    plan, problem, budget, run = task
    return run_switch(plan, problem, budget=budget,
                      seed=RunKey.of(task).seed(seed),
                      run_index=run).to_record()


def run_switch_tasks(tasks, seed, jobs=1):
    """Run tasks ``(plan, problem, budget, run)`` over ``jobs`` processes,
    each seeded by its :class:`RunKey`, so that A1 replays its static run.

    Refuses an empty batch, and two tasks of one run key (plan label,
    problem and run): their records would pool.  Returns (records,
    failures) in task order, each failure one line naming its run key.
    """
    if not tasks:
        raise ValueError("no switch run to execute: no plan, or no tau above phi")
    seen = set()
    for task in tasks:
        key = RunKey.of(task)
        if key in seen:
            raise ValueError(
                f"two plans put their switching points on the same grid "
                f"target {task[0].tau_exponent}: both give the run {key}")
        seen.add(key)
    records, failures = run_tasks(
        functools.partial(_switch_task, seed), tasks, jobs)
    return records, [f"{RunKey.of(task)}: {message}"
                     for task, message in failures]


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
