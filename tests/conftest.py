import numpy as np
import pytest

from dynswitch.problems import ProblemId, instantiate
from dynswitch.tracing import BudgetedEvaluator


class FuncProblem:
    """Minimal problem stand-in wrapping an arbitrary objective callable."""

    def __init__(self, func, dim, f_opt=0.0):
        self.func = func
        self.dimension = dim
        self.f_opt = f_opt
        self.id = ProblemId(1, max(dim, 2), 1)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.func(x))

    def precision(self, value):
        return max(value - self.f_opt, 0.0)


# about 70% of the suite's time: `pytest -m "not slow"` leaves them out for
# a fast inner loop, and a run that selects no marker runs every test
SLOW = {
    "tests/test_acceptance.py::test_criterion_10_trace_invariants_under_fuzzing",
    "tests/test_acceptance.py::test_criterion_09_switching_point_regimes",
    "tests/test_de.py::test_pcg64_draws_equal_the_scalar_draws",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.partition("[")[0] in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def sphere_problem():
    return instantiate(ProblemId(1, 2, 1), 0)


def make_evaluator(problem, budget=10_000, stop_target=1e-8, **kwargs):
    return BudgetedEvaluator(problem, budget, stop_target=stop_target, **kwargs)
