import numpy as np
import pytest

from dynswitch.optimizers.bfgs import Bfgs
from dynswitch.optimizers.cmaes import Cmaes, default_population_size
from dynswitch.problems import ProblemId, instantiate
from dynswitch.tracing import BudgetedEvaluator, StopRun
from dynswitch.warmstart import (WarmStartPolicy, extract,
                                 warmstart_cmaes_from_bfgs)

from conftest import FuncProblem


def test_default_population_size():
    assert default_population_size(2) == 6
    assert default_population_size(10) == 10
    assert default_population_size(3) == 7


def test_weights_are_a_decreasing_distribution():
    opt = Cmaes(10, np.random.default_rng(0))
    w = opt.weights
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)
    assert np.all(np.diff(w) <= 0)
    assert len(w) == opt.lam // 2


def test_solves_sphere():
    problem = FuncProblem(lambda x: float(np.sum(x * x)), 3)
    ev = BudgetedEvaluator(problem, 30_000, stop_target=1e-8)
    opt = Cmaes(3, np.random.default_rng(4))
    try:
        while not opt.finished:
            opt.step(ev)
    except StopRun:
        pass
    assert ev.trace.best_precision <= 1e-8


def test_degenerate_step_size_samples_at_mean():
    seen = []
    problem = FuncProblem(lambda x: (seen.append(x.copy()), float(np.sum(x * x)))[1], 2)
    ev = BudgetedEvaluator(problem, 1000, stop_target=0.0)
    mean = np.array([0.3, -0.7])
    opt = Cmaes(2, np.random.default_rng(0), mean=mean, sigma=1e-20)
    opt.step(ev)
    for x in seen:
        assert np.allclose(x, mean, atol=1e-15)


def test_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        Cmaes(2, np.random.default_rng(0), sigma=0.0)


def test_injected_covariance_is_repaired_and_kept_spd():
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    opt = Cmaes(2, np.random.default_rng(0), C=C)
    assert np.allclose(opt.C, opt.C.T)
    problem = FuncProblem(lambda x: float(np.sum(x * x)), 2)
    ev = BudgetedEvaluator(problem, 5000, stop_target=0.0)
    try:
        for _ in range(20):
            opt.step(ev)
            assert np.all(np.linalg.eigvalsh(opt.C) > 0)
    except StopRun:
        pass


def test_ill_conditioned_quadratic_adapts_covariance():
    A = np.diag([1000.0, 1.0])
    problem = FuncProblem(lambda x: 0.5 * float(x @ A @ x), 2)
    ev = BudgetedEvaluator(problem, 20_000, stop_target=1e-10)
    opt = Cmaes(2, np.random.default_rng(11))
    try:
        while not opt.finished:
            opt.step(ev)
    except StopRun:
        pass
    assert ev.trace.best_precision <= 1e-10


def _from_bfgs(problem, rng):
    bfgs = Bfgs(problem.dimension, rng)
    ev = BudgetedEvaluator(problem, 300, stop_target=0.0)
    try:
        while not bfgs.finished:
            bfgs.step(ev)
    except StopRun:
        pass
    ws = extract(bfgs, ev.best_x, ev.best_f, ev.evals_used)
    assert ws.inv_hessian is not None
    return warmstart_cmaes_from_bfgs(ws, WarmStartPolicy(), rng)


@pytest.mark.parametrize("start", ["identity", "asymmetric", "indefinite",
                                   "bfgs"])
def test_covariance_stays_exactly_symmetric(start):
    # the sampling transform decomposes C as it stands, without
    # symmetrizing it first: C must equal its transpose bit for bit
    problem = instantiate(ProblemId(10, 5, 1), 0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    injected = {"asymmetric": a @ a.T + 0.3 * np.triu(a, 1), "indefinite": a}
    if start == "bfgs":
        opt = _from_bfgs(problem, rng)
    else:
        opt = Cmaes(5, rng, C=injected.get(start))
    assert np.array_equal(opt.C, opt.C.T)
    ev = BudgetedEvaluator(problem, 5000, stop_target=1e-8)
    try:
        while not opt.finished:
            opt.step(ev)
            assert np.array_equal(opt.C, opt.C.T)
    except StopRun:
        pass
    assert opt.generation > 10
