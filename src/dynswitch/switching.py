"""Single-switch dynamic runs: A1 until precision tau, warm-start, A2 to phi.

Both phases share one evaluator, so the budget and the evaluation counter
are strictly cumulative across the boundary and best-so-far never worsens
at the switch.  When A1 converges internally above tau, the default policy
switches immediately at that point; ``early_switch=False`` restores the
strict no-switch semantics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .optimizers import OptimizerConfig, drive, make_optimizer
from .problems import ProblemInstance
from .tracing import (
    DEFAULT_BUDGET_MULTIPLIER,
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
    budget: int | None = None,
    seed: int = 0,
    run_index: int = 0,
    early_switch: bool = True,
) -> SwitchTrace:
    """Execute one dynamic run; deterministic given (plan, problem, seed)."""
    dim = problem.dimension
    if budget is None:
        budget = DEFAULT_BUDGET_MULTIPLIER * dim
    ev = BudgetedEvaluator(
        problem, budget, stop_target=plan.tau,
        algorithm_label=plan.label(), run_index=run_index,
    )
    rng1 = np.random.default_rng(seed)
    a1 = make_optimizer(plan.a1, dim, rng1, budget=budget)
    phase1_reason = drive(a1, ev)

    switch_eval = None
    phase2_reason = None
    do_switch = phase1_reason == TERMINATED_TARGET or (
        early_switch
        and phase1_reason == TERMINATED_CONVERGED
        and ev.evals_used > 0
    )
    if do_switch:
        switch_eval = ev.evals_used
        ws = extract(a1, ev.best_x, ev.best_f, ev.evals_used)
        rng2 = np.random.default_rng([seed, A2_SEED_SALT])
        a2 = apply_warmstart(
            ws, plan.a1.algorithm, plan.a2.algorithm, plan.policy, rng2,
            budget=budget, overrides=plan.a2.overrides,
        )
        ev.stop_target = plan.phi
        if ev.best_precision <= plan.phi:
            phase2_reason = TERMINATED_TARGET
        else:
            phase2_reason = drive(a2, ev)
        ev.trace.terminated_reason = phase2_reason
    else:
        ev.trace.terminated_reason = phase1_reason
    return SwitchTrace(
        trace=ev.trace,
        tau=plan.tau,
        switch_eval=switch_eval,
        phase1_reason=phase1_reason,
        phase2_reason=phase2_reason,
    )


def sweep_tau(
    a1: OptimizerConfig,
    a2: OptimizerConfig,
    problems,
    tau_exponents,
    runs_per_instance: int = 5,
    phi: float = DEFAULT_FINAL_TARGET,
    budget: int | None = None,
    seed: int = 0,
    policy: WarmStartPolicy = WarmStartPolicy(),
    early_switch: bool = True,
):
    """Switching-point sensitivity sweep.

    Runs ``runs_per_instance`` switch runs per (tau, problem instance) and
    reports the hitting time at phi per run (evaluations consumed when phi
    was never reached).  Returns (rows, summary): rows are dicts per run,
    summary aggregates mean/std per tau, keyed by tau's grid exponent.
    """
    plans = {}
    for tau_exp in tau_exponents:
        plan = SwitchPlan(a1=a1, a2=a2, tau=10.0 ** tau_exp, phi=phi,
                          policy=policy)
        key = DEFAULT_GRID.snap_exponent(plan.tau)
        if key in plans:
            raise ValueError(f"tau exponents {list(tau_exponents)} put two "
                             f"switching points on the same grid target {key}")
        plans[key] = plan
    rows = []
    for key, plan in plans.items():
        for problem in problems:
            for run in range(runs_per_instance):
                run_seed = cell_seed("sweep", seed, key, problem.id.instance, run)
                st = run_switch(plan, problem, budget=budget, seed=run_seed,
                                run_index=run, early_switch=early_switch)
                hit = st.trace.hitting_time(plan.phi)
                rows.append({
                    "tau_exponent": key,
                    "instance": problem.id.instance,
                    "run_index": run,
                    "hit_phi": hit,
                    "evals_used": st.trace.evals_used,
                    "success": hit != float("inf"),
                    "switch_eval": st.switch_eval,
                })
    summary = []
    for key in plans:
        cell = [r for r in rows if r["tau_exponent"] == key]
        costs = [r["hit_phi"] if r["success"] else r["evals_used"] for r in cell]
        summary.append({
            "tau_exponent": key,
            "mean": float(np.mean(costs)),
            "std": float(np.std(costs)),
            "successes": sum(r["success"] for r in cell),
            "runs": len(cell),
        })
    return rows, summary
