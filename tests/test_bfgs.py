import numpy as np
import pytest

from dynswitch.optimizers.bfgs import Bfgs, finite_difference_gradient
from dynswitch.tracing import BudgetedEvaluator, StopRun

from conftest import FuncProblem


def run_until_done(opt, ev, max_steps=500):
    try:
        for _ in range(max_steps):
            if opt.finished:
                break
            opt.step(ev)
    except StopRun:
        pass
    return ev


def test_finite_difference_gradient_on_quadratic():
    problem = FuncProblem(lambda x: 3.0 * x[0] ** 2 + x[1] ** 2, 2)
    ev = BudgetedEvaluator(problem, 100, stop_target=0.0)
    g = finite_difference_gradient(ev, np.array([1.0, -2.0]))
    assert np.allclose(g, [6.0, -4.0], atol=1e-5)
    assert ev.trace.evals_used == 3


def test_descends_on_sphere(sphere_problem):
    ev = BudgetedEvaluator(sphere_problem, 10_000, stop_target=1e-8)
    rng = np.random.default_rng(3)
    opt = Bfgs(2, rng)
    run_until_done(opt, ev)
    assert ev.trace.best_precision <= 1e-8


def test_sphere_5d_is_cheap():
    rng = np.random.default_rng(1)
    problem = FuncProblem(lambda x: float(np.sum(x * x)), 5)
    ev = BudgetedEvaluator(problem, 10_000, stop_target=1e-8)
    opt = Bfgs(5, rng)
    run_until_done(opt, ev)
    assert ev.trace.best_precision <= 1e-8
    assert ev.trace.evals_used < 400


def test_inverse_hessian_recovery_on_quadratic():
    # f(x) = 0.5 x' A x has constant Hessian A; on convergence the model
    # should approximate A^-1
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    A_inv = np.linalg.inv(A)
    problem = FuncProblem(lambda x: 0.5 * float(x @ A @ x), 2)
    ev = BudgetedEvaluator(problem, 10_000, stop_target=1e-12)
    opt = Bfgs(2, np.random.default_rng(0), x0=np.array([3.0, -2.0]))
    run_until_done(opt, ev)
    rel = np.linalg.norm(opt.inv_hessian - A_inv) / np.linalg.norm(A_inv)
    # gradient noise from forward differences limits the achievable accuracy
    assert rel < 1e-2


def test_model_stays_symmetric_positive_definite():
    problem = FuncProblem(
        lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                               + (1.0 - x[:-1]) ** 2)), 3)
    ev = BudgetedEvaluator(problem, 5000, stop_target=1e-10)
    opt = Bfgs(3, np.random.default_rng(7))
    try:
        for _ in range(40):
            if opt.finished:
                break
            opt.step(ev)
            H = opt.inv_hessian
            assert np.allclose(H, H.T)
            assert np.all(np.linalg.eigvalsh(H) > 0)
    except StopRun:
        pass


def test_recent_points_hold_every_iterate():
    # Rosenbrock takes BFGS well past ten iterates
    problem = FuncProblem(
        lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2, 2)
    ev = BudgetedEvaluator(problem, 10_000, stop_target=1e-10)
    opt = Bfgs(2, np.random.default_rng(2), x0=np.array([-1.2, 1.0]))
    iterates = [opt.x.copy()]
    try:
        while not opt.finished:
            opt.step(ev)
            if not np.array_equal(opt.x, iterates[-1]):
                iterates.append(opt.x.copy())
    except StopRun:
        pass
    assert len(iterates) > 20
    # most recent first: the head is the current iterate
    assert [p.tobytes() for p in opt.recent_points] == [
        p.tobytes() for p in reversed(iterates)]


def test_injected_inverse_hessian_is_used():
    A = np.diag([100.0, 1.0])
    problem = FuncProblem(lambda x: 0.5 * float(x @ A @ x), 2)
    x0 = np.array([1.0, 1.0])

    ev_cold = BudgetedEvaluator(problem, 10_000, stop_target=1e-10)
    run_until_done(Bfgs(2, np.random.default_rng(0), x0=x0), ev_cold)
    ev_warm = BudgetedEvaluator(problem, 10_000, stop_target=1e-10)
    run_until_done(
        Bfgs(2, np.random.default_rng(0), x0=x0, inv_hessian=np.linalg.inv(A)),
        ev_warm,
    )
    assert ev_warm.trace.evals_used <= ev_cold.trace.evals_used
