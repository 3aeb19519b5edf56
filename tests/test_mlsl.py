import numpy as np
import pytest

from dynswitch.optimizers import OptimizerConfig, make_optimizer, mlsl
from dynswitch.optimizers.mlsl import Mlsl, critical_distance, powell_minimize
from dynswitch.tracing import BudgetedEvaluator, StopRun
from dynswitch.warmstart import WarmStartPolicy, WarmStartState, apply_warmstart

from conftest import FuncProblem


def test_critical_distance_shrinks_with_samples():
    radii = [critical_distance(2, n) for n in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert all(r > 0 for r in radii)


def test_powell_quadratic():
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return float((x[0] - 2.0) ** 2)

    x, fx = powell_minimize(f, np.array([10.0]))
    assert abs(x[0] - 2.0) < 1e-4
    assert fx < 1e-7
    assert calls["n"] < 100


def test_powell_from_optimal_start():
    x, fx = powell_minimize(lambda x: float(np.sum(x * x)), np.zeros(2))
    assert fx == 0.0
    assert np.allclose(x, 0.0)


def test_powell_respects_eval_cap():
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return float(np.sum(x * x))

    powell_minimize(f, np.array([3.0, 3.0]), max_evals=25)
    assert calls["n"] <= 25


def start_rule_oracle(points, values, minima_values_in_order, r_k, n_reduced):
    """Replay of the reduced-set start rule for one level.

    Walks reduced points best-first and records which would launch a local
    search, consuming recorded minima as they appear.
    """
    order = np.argsort(values, kind="stable")[:n_reduced]
    started = []
    minima = []
    next_min = iter(minima_values_in_order)
    for idx in order:
        x, f = points[idx], values[idx]
        blocked = False
        for j in range(points.shape[0]):
            if np.linalg.norm(points[j] - x) <= r_k and values[j] < f:
                blocked = True
                break
        if not blocked:
            for mx, mf in minima:
                if np.linalg.norm(mx - x) <= r_k and mf < f:
                    blocked = True
                    break
        if not blocked:
            started.append(int(idx))
            minima.append(next(next_min))
    return started


def test_first_level_start_rule_matches_oracle():
    problem = FuncProblem(lambda x: float(np.sum(x * x)), 2)
    ev = BudgetedEvaluator(problem, 100_000, stop_target=0.0)
    opt = Mlsl(2, np.random.default_rng(9))
    opt.step(ev)
    n = 100
    points = opt.sample_points[:n]
    values = opt.sample_values[:n]
    r_k = critical_distance(2, n)
    expected = start_rule_oracle(points, values, list(opt.minima), r_k,
                                 n_reduced=10)
    assert sorted(opt.started) == sorted(expected)
    assert len(opt.started) >= 1


def test_two_basin_function_starts_multiple_searches():
    # two well separated basins; both should attract a local search once
    # both show up in the reduced set
    centers = (np.array([-3.5, -3.5]), np.array([3.5, 3.5]))

    def f(x):
        # offset keeps the precision positive so the run is never cut short
        return 1.0 + float(min(np.sum((x - c) ** 2) for c in centers))

    problem = FuncProblem(f, 2)
    ev = BudgetedEvaluator(problem, 200_000, stop_target=0.0)
    opt = Mlsl(2, np.random.default_rng(1))
    try:
        for _ in range(4):
            opt.step(ev)
    except StopRun:
        pass
    found = np.array([m[0] for m in opt.minima])
    near = [min(np.linalg.norm(found - c, axis=1)) for c in centers]
    assert max(near) < 1e-3


def test_solves_sphere_instance(sphere_problem):
    ev = BudgetedEvaluator(sphere_problem, 20_000, stop_target=1e-8)
    opt = Mlsl(2, np.random.default_rng(3))
    try:
        while not opt.finished:
            opt.step(ev)
    except StopRun:
        pass
    assert ev.trace.best_precision <= 1e-8


def _local_caps(monkeypatch, opt):
    """``max_evals`` of every local search ``opt`` starts in one step under
    a 4000-evaluation evaluator."""
    caps = []

    def fake_powell(fun, x0, f_tol, max_evals):
        caps.append(max_evals)
        return x0, fun(x0)

    monkeypatch.setattr(mlsl, "powell_minimize", fake_powell)
    problem = FuncProblem(lambda x: 1.0 + float(np.sum(x * x)), 2)
    opt.step(BudgetedEvaluator(problem, 4000, stop_target=0.0))
    assert caps
    return caps


def test_local_search_cap_is_fraction_of_budget(monkeypatch):
    static = make_optimizer(OptimizerConfig("MLSL"), 2,
                            np.random.default_rng(0))
    ws = WarmStartState(best_point=np.array([1.0, -2.0]), best_value=3.0,
                        evaluations_spent=9)
    switched = apply_warmstart(ws, "CMA-ES", "MLSL", WarmStartPolicy(),
                               np.random.default_rng(0))
    for opt in (static, switched):
        assert set(_local_caps(monkeypatch, opt)) == {400}


def test_local_budget_fraction_override_sets_the_cap(monkeypatch):
    opt = Mlsl(2, np.random.default_rng(0), local_budget_fraction=0.05)
    assert set(_local_caps(monkeypatch, opt)) == {200}


def test_best_property_covers_samples_and_minima():
    opt = Mlsl(2, np.random.default_rng(0))
    opt.sample_points = np.array([[1.0, 1.0], [2.0, 2.0]])
    opt.sample_values = np.array([5.0, 3.0])
    opt.minima = [(np.array([0.5, 0.5]), 4.0)]
    x, f = opt.best
    assert f == 3.0
    assert np.array_equal(x, [2.0, 2.0])
