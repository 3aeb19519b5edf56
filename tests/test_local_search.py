"""The ported line search and Powell's method against SciPy, call by call.

SciPy 1.17.1's ``scipy.optimize.line_search`` and
``scipy.optimize.minimize(method="Powell")`` are the reference here; the
program itself does not import SciPy.  Every test records each point the
objective is called with and requires the port to make the same calls,
with the same bits, in the same order.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import line_search, minimize

from dynswitch.optimizers import OptimizerConfig, bfgs, local_search, mlsl, run_single
from dynswitch.optimizers.local_search import line_search_wolfe2, minimize_powell
from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
from dynswitch.tracing import TERMINATED_BUDGET, BudgetedEvaluator, BudgetExhausted

DIMS = (2, 5, 10)
SEEDS = (0, 1)


class Recorder:
    """Objective wrapper that keeps a copy of every point it is called with."""

    def __init__(self, fun):
        self.fun = fun
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x, dtype=float, copy=True))
        return self.fun(x)


class RecordingProblem:
    """A problem instance that records every point it evaluates."""

    def __init__(self, problem):
        self.problem = problem
        self.points = []

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def evaluate(self, x):
        self.points.append(np.array(x, dtype=float, copy=True))
        return self.problem.evaluate(x)


def assert_same_calls(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.tobytes() == b.tobytes(), f"call {i} differs"


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def scipy_wolfe2(f, fprime, xk, pk, gfk, old_fval, old_old_fval,
                 c1=1e-4, c2=0.9, maxiter=10):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alpha, _, _, f_new, _, g_new = line_search(
            f, fprime, xk, pk, gfk=gfk, old_fval=old_fval,
            old_old_fval=old_old_fval, c1=c1, c2=c2, maxiter=maxiter)
    return alpha, f_new, g_new


def scipy_powell_minimize(fun, x0, f_tol=mlsl.POWELL_F_TOL, max_evals=None):
    """``mlsl.powell_minimize`` as it ran on ``scipy.optimize.minimize``."""
    x0 = np.asarray(x0, dtype=float)
    state = {"count": 0, "best_x": x0.copy(), "best_f": math.inf}

    def wrapped(x):
        if max_evals is not None and state["count"] >= max_evals:
            raise mlsl._LocalCapReached()
        state["count"] += 1
        f = fun(np.asarray(x, dtype=float))
        if f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = np.array(x, dtype=float, copy=True)
        return f

    try:
        minimize(wrapped, x0, method="Powell",
                 options={"ftol": f_tol, "xtol": 1e-10, "maxfev": np.inf})
    except mlsl._LocalCapReached:
        pass
    if not math.isfinite(state["best_f"]):
        state["best_f"] = fun(x0)
    return state["best_x"], state["best_f"]


def recorded_run(algorithm, problem, budget, seed):
    recording = RecordingProblem(problem)
    trace = run_single(OptimizerConfig(algorithm), recording, budget=budget,
                       seed=seed)
    return recording.points, trace.to_record()


# --- the line search ------------------------------------------------------


@pytest.mark.parametrize("dim", DIMS)
def test_bfgs_runs_match_scipy_line_search(dim, monkeypatch):
    """Whole BFGS runs on every function: the same calls with either search.

    The runs end on the target, on the budget (a StopRun raised inside the
    line search) or on two failed searches, and between them they see every
    outcome of the search: a step with its gradient, a step after the last
    expansion without one, and no step.
    """
    outcomes = set()

    def counted(*args, **kwargs):
        alpha, f_new, g_new = line_search_wolfe2(*args, **kwargs)
        outcomes.add("none" if alpha is None
                     else "step" if g_new is not None else "no gradient")
        return alpha, f_new, g_new

    ends = set()
    for fid in IMPLEMENTED_FUNCTIONS:
        for seed in SEEDS:
            problem = instantiate(ProblemId(fid, dim, 1), seed)
            budget = 100 * dim
            monkeypatch.setattr(bfgs, "line_search_wolfe2", counted)
            got, got_record = recorded_run("BFGS", problem, budget, seed)
            monkeypatch.setattr(bfgs, "line_search_wolfe2", scipy_wolfe2)
            want, want_record = recorded_run("BFGS", problem, budget, seed)
            assert_same_calls(got, want)
            assert got_record == want_record
            ends.add(got_record["terminated_reason"])
    assert {"none", "step"} <= outcomes
    assert TERMINATED_BUDGET in ends


# far-out probes overflow F12's kernel, and rotating that inf gives nan
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("seed", range(6))
def test_line_search_calls_and_result_match_scipy(seed):
    """Single searches from random points, along random descent directions
    and along ascent directions (which fail)."""
    rng = np.random.default_rng(seed)
    failed = 0
    for fid in IMPLEMENTED_FUNCTIONS:
        for dim in DIMS:
            problem = instantiate(ProblemId(fid, dim, 1 + seed % 3), seed)
            xk = rng.uniform(-5, 5, size=dim)
            gfk = bfgs.finite_difference_gradient(problem.evaluate, xk)
            fk = problem.evaluate(xk)
            m = rng.standard_normal((dim, dim))
            pk = -(m @ m.T + np.eye(dim)) @ gfk
            if seed % 2:
                pk = -pk
            old_old = fk + float(np.linalg.norm(gfk)) * rng.uniform(0.1, 2.0)
            runs = []
            for search in (line_search_wolfe2, scipy_wolfe2):
                f = Recorder(problem.evaluate)
                fprime = Recorder(
                    lambda x: bfgs.finite_difference_gradient(problem.evaluate, x))
                result = search(f, fprime, xk, pk, gfk, fk, old_old,
                                c1=bfgs.WOLFE_C1, c2=bfgs.WOLFE_C2, maxiter=30)
                runs.append((result, f.points, fprime.points))
            (got, got_f, got_g), (want, want_f, want_g) = runs
            assert_same_calls(got_f, want_f)
            assert_same_calls(got_g, want_g)
            assert all(same_bits(a, b) for a, b in zip(got, want))
            failed += got[0] is None
    if seed % 2:
        assert failed > 0


def test_line_search_stop_run_propagates_at_the_same_call():
    problem = instantiate(ProblemId(10, 5, 1), 0)
    xk = np.full(5, 3.0)
    gfk = bfgs.finite_difference_gradient(problem.evaluate, xk)
    fk = problem.evaluate(xk)
    seen = []
    for search in (line_search_wolfe2, scipy_wolfe2):
        ev = BudgetedEvaluator(RecordingProblem(problem), 9, stop_target=0.0)
        with pytest.raises(BudgetExhausted):
            search(ev, lambda x: bfgs.finite_difference_gradient(ev, x),
                   xk, -gfk, gfk, fk, fk + 1.0, maxiter=30)
        seen.append(ev.problem.points)
    assert len(seen[0]) == 9
    assert_same_calls(*seen)


# --- Powell's method ------------------------------------------------------


@pytest.fixture
def bracket_errors(monkeypatch):
    """Counts the BracketErrors that the port's line minimiser recovers from."""
    count = [0]
    ported = local_search.bracket

    def counted(func):
        try:
            return ported(func)
        except local_search.BracketError:
            count[0] += 1
            raise

    monkeypatch.setattr(local_search, "bracket", counted)
    return count


@pytest.mark.parametrize("dim", DIMS)
def test_mlsl_runs_match_scipy_powell(dim, monkeypatch):
    """Whole MLSL runs on every function: the same calls with either Powell.

    Local searches end on the f tolerance, on MLSL's local-search cap
    (``_LocalCapReached``) or on the run's budget (a StopRun raised inside
    Powell).
    """
    cap_hits = [0]

    class CountedCap(mlsl._LocalCapReached):
        def __init__(self):
            cap_hits[0] += 1

    ported_powell = mlsl.powell_minimize
    monkeypatch.setattr(mlsl, "_LocalCapReached", CountedCap)
    ends = set()
    for fid in IMPLEMENTED_FUNCTIONS:
        for seed in SEEDS:
            problem = instantiate(ProblemId(fid, dim, 1), seed)
            budget = 200 * dim
            monkeypatch.setattr(mlsl, "powell_minimize", ported_powell)
            got, got_record = recorded_run("MLSL", problem, budget, seed)
            monkeypatch.setattr(mlsl, "powell_minimize", scipy_powell_minimize)
            want, want_record = recorded_run("MLSL", problem, budget, seed)
            assert_same_calls(got, want)
            assert got_record == want_record
            ends.add(got_record["terminated_reason"])
    assert cap_hits[0] > 0
    assert TERMINATED_BUDGET in ends


@pytest.mark.parametrize("seed", range(4))
def test_powell_calls_and_result_match_scipy(seed):
    rng = np.random.default_rng(seed)
    for fid in IMPLEMENTED_FUNCTIONS:
        for dim in DIMS:
            problem = instantiate(ProblemId(fid, dim, 1 + seed % 3), seed)
            x0 = rng.uniform(-5, 5, size=dim)
            cap = int(rng.integers(20, 60 * dim))
            got = Recorder(problem.evaluate)
            got_best = mlsl.powell_minimize(got, x0, max_evals=cap)
            want = Recorder(problem.evaluate)
            want_best = scipy_powell_minimize(want, x0, max_evals=cap)
            assert_same_calls(got.points, want.points)
            assert same_bits(got_best[0], want_best[0])
            assert same_bits(got_best[1], want_best[1])


@pytest.mark.parametrize("fun", [
    lambda x: 1.0,
    lambda x: float((x[0] - 1.0) ** 2),
    lambda x: math.nan if x[0] > 0.5 else float(x @ x),
], ids=["flat", "flat-along-two-axes", "nan-region"])
def test_powell_without_a_bracket_matches_scipy(fun, bracket_errors):
    x0 = np.array([0.3, -1.7, 2.2])
    got = Recorder(fun)
    minimize_powell(got, x0, xtol=1e-10, ftol=1e-8)
    assert bracket_errors[0] > 0
    want = Recorder(fun)
    minimize(want, x0, method="Powell",
             options={"ftol": 1e-8, "xtol": 1e-10, "maxfev": np.inf})
    assert_same_calls(got.points, want.points)


def test_powell_stop_run_propagates_at_the_same_call():
    problem = instantiate(ProblemId(21, 5, 2), 3)
    x0 = np.linspace(-2.0, 2.0, 5)
    seen = []
    for powell in (mlsl.powell_minimize, scipy_powell_minimize):
        ev = BudgetedEvaluator(RecordingProblem(problem), 37, stop_target=0.0)
        with pytest.raises(BudgetExhausted):
            powell(ev, x0)
        seen.append(ev.problem.points)
    assert len(seen[0]) == 37
    assert_same_calls(*seen)


def test_powell_on_a_quadratic_matches_scipy_minimum():
    a = np.diag([1.0, 10.0, 100.0])
    x0 = np.array([1.0, 1.0, 1.0])

    def fun(x):
        return float(x @ a @ x)

    x, f = minimize_powell(fun, x0, xtol=1e-10, ftol=1e-8)
    res = minimize(fun, x0, method="Powell",
                   options={"ftol": 1e-8, "xtol": 1e-10, "maxfev": np.inf})
    assert x.tobytes() == res.x.tobytes()
    assert f == res.fun
