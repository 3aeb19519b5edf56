import concurrent.futures
import time

import numpy as np
import pytest

from dynswitch import switching
from dynswitch.analysis import tau_summary
from dynswitch.optimizers import OptimizerConfig, run_single
from dynswitch.problems import ProblemId, instantiate
from dynswitch.switching import SwitchPlan, run_switch, run_tasks, sweep_tau
from dynswitch.tracing import DEFAULT_GRID, TERMINATED_TARGET


BFGS = OptimizerConfig("BFGS")
CMAES = OptimizerConfig("CMA-ES")


@pytest.fixture(scope="module")
def f10_d5():
    return instantiate(ProblemId(10, 5, 1), 0)


def test_plan_validation():
    with pytest.raises(ValueError):
        SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-8, phi=1e-8)
    with pytest.raises(ValueError):
        SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-9, phi=1e-8)
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-4)
    assert plan.phi == 1e-8


def test_plan_snaps_tau_to_grid():
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=3.98e-6)
    assert plan.tau == pytest.approx(10 ** -5.4)


def test_plan_snaps_phi_to_grid_before_validating():
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-2, phi=1.9e-8)
    assert plan.phi == DEFAULT_GRID.snap(1.9e-8)
    assert plan.phi in DEFAULT_GRID.targets
    # tau above phi, but both land on the same grid target
    with pytest.raises(ValueError):
        SwitchPlan(a1=BFGS, a2=CMAES, tau=1.05e-8, phi=1e-8)


def test_plan_label():
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-4)
    assert plan.label() == "BFGS>CMA-ES@0.0001"


def test_huge_tau_switches_almost_immediately(sphere_problem):
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=100.0)
    st = run_switch(plan, sphere_problem, budget=20_000, seed=1)
    assert st.switch_eval is not None
    # any point with precision <= 100 triggers the switch; the first
    # evaluations of a fresh BFGS run rarely need more than a few steps
    assert st.switch_eval < 100
    assert st.trace.best_precision <= 1e-8


def test_no_switch_replays_pure_first_phase(f10_d5):
    # tau below what BFGS reaches on this problem: with early switching off
    # the dynamic run must be byte-for-byte the static BFGS run
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-7, phi=1e-8)
    st = run_switch(plan, f10_d5, budget=5000, seed=3, early_switch=False)
    single = run_single(BFGS, f10_d5, budget=5000, final_target=1e-7, seed=3)
    if st.switch_eval is None:
        assert st.trace.evals_used == single.evals_used
        assert st.trace.best_precision == single.best_precision
        assert st.trace.hit_at == single.hit_at
    else:
        # BFGS did reach tau here; then the prefix up to the switch agrees
        assert single.terminated_reason == TERMINATED_TARGET
        assert st.switch_eval == single.evals_used


def test_switch_run_is_deterministic(f10_d5):
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-2)
    a = run_switch(plan, f10_d5, budget=10_000, seed=5)
    b = run_switch(plan, f10_d5, budget=10_000, seed=5)
    assert a.trace.hit_at == b.trace.hit_at
    assert a.trace.evals_used == b.trace.evals_used
    assert a.switch_eval == b.switch_eval
    c = run_switch(plan, f10_d5, budget=10_000, seed=6)
    assert (a.trace.evals_used, a.trace.best_precision) != (
        c.trace.evals_used, c.trace.best_precision)


def test_budget_is_cumulative_across_phases(f10_d5):
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-1)
    budget = 3000
    st = run_switch(plan, f10_d5, budget=budget, seed=2)
    assert st.trace.evals_used <= budget
    if st.switch_eval is not None:
        assert st.switch_eval <= st.trace.evals_used


def test_best_precision_never_worsens_at_switch(f10_d5):
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-1)
    st = run_switch(plan, f10_d5, budget=10_000, seed=4)
    if st.switch_eval is not None:
        tau_hits = [n for e, n in st.trace.hit_at.items()
                    if 10.0 ** e >= 1e-1]
        assert max(tau_hits) <= st.switch_eval


def test_identity_pair_runs(sphere_problem):
    plan = SwitchPlan(a1=CMAES, a2=CMAES, tau=1e-2)
    st = run_switch(plan, sphere_problem, budget=20_000, seed=0)
    assert st.trace.best_precision <= 1e-8


def test_warm_start_survives_phase_one_convergence(f10_d5):
    # BFGS usually stalls before 1e-7 on this problem; with early switching
    # the run must still continue into phase two instead of stopping
    plan = SwitchPlan(a1=BFGS, a2=CMAES, tau=1e-7)
    st = run_switch(plan, f10_d5, budget=50_000, seed=3, early_switch=True)
    assert st.trace.best_precision <= 1e-8
    assert st.phase2_reason is not None


def test_sweep_tau_shapes(sphere_problem):
    rows, failures = sweep_tau(
        BFGS, CMAES, [sphere_problem], tau_exponents=[0.0, -2.0],
        runs_per_instance=2, budget=5000,
    )
    assert len(rows) == 4 and failures == []
    header, summary_rows = tau_summary(rows, -8.0)
    summary = [dict(zip(header, row)) for row in summary_rows]
    assert len(summary) == 2
    assert {s["tau_exponent"] for s in summary} == {0.0, -2.0}
    for s in summary:
        assert s["runs"] == 2
        assert s["mean"] > 0


def test_sweep_tau_rejects_tau_at_or_below_phi(sphere_problem):
    with pytest.raises(ValueError):
        sweep_tau(BFGS, CMAES, [sphere_problem], tau_exponents=[-8.0],
                  runs_per_instance=1, budget=1000)


def test_sweep_tau_counts_every_run_that_reaches_off_grid_phi():
    # phi = 9e-8 lies between grid targets: the runs stop at phi's grid
    # target and the hits are read at that same target
    problems = [instantiate(ProblemId(1, 2, i), 0) for i in (1, 2, 3)]
    rows, failures = sweep_tau(
        BFGS, CMAES, problems, tau_exponents=[0.0, -2.0],
        runs_per_instance=5, phi=9e-8, budget=20_000, seed=0,
    )
    assert len(rows) == 30 and failures == []
    phi_exp = DEFAULT_GRID.snap_exponent(9e-8)
    assert all(phi_exp in r["hit_at"] for r in rows)
    header, summary = tau_summary(rows, phi_exp)
    assert [s[header.index("successes")] for s in summary] == [15, 15]


def _slow_first(task):
    # task 0 sleeps while the other worker finishes the rest, so tasks
    # complete in another order than they were given
    time.sleep(0.3 if task == 0 else 0.0)
    if task in (2, 4):
        raise RuntimeError(f"task {task} failed")
    return task * 10


def test_run_tasks_keeps_task_order_in_a_pool():
    results, failures = run_tasks(_slow_first, list(range(6)), jobs=2)
    assert results == [0, 10, 30, 50]
    assert failures == [(2, "task 2 failed"), (4, "task 4 failed")]
    assert run_tasks(_slow_first, list(range(6)), jobs=1) == (results, failures)


def test_run_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    started = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(switching.concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    assert run_tasks(abs, [-1, -2, -3], jobs=8) == ([1, 2, 3], [])
    assert run_tasks(abs, [-1, -2, -3], jobs=2) == ([1, 2, 3], [])
    assert run_tasks(abs, [-4], jobs=8) == ([4], [])
    assert run_tasks(abs, [], jobs=8) == ([], [])
    assert started == [3, 2]
