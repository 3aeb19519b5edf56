"""The optimizer driver: which constructor parameters are settings, and
when ``drive`` stops stepping."""

import inspect

import numpy as np
import pytest

from dynswitch.optimizers import ALGORITHMS, OptimizerConfig, drive
from dynswitch.optimizers.base import Optimizer
from dynswitch.tracing import TERMINATED_CONVERGED, BudgetedEvaluator

from conftest import FuncProblem

# what a warm start hands over to each algorithm
START_STATE = {
    "BFGS": {"x0", "inv_hessian"},
    "CMA-ES": {"mean", "C"},
    "PSO": {"positions", "velocities"},
    "DE": {"population"},
    "MLSL": {"samples"},
}


@pytest.mark.parametrize("algorithm", sorted(START_STATE))
def test_start_state_is_keyword_only(algorithm):
    # OptimizerConfig reads the settings off the signature, so a start state
    # is refused by name with no list of names to keep
    parameters = inspect.signature(ALGORITHMS[algorithm]).parameters.values()
    assert {p.name for p in parameters
            if p.kind is p.KEYWORD_ONLY} == START_STATE[algorithm]
    settings = [p.name for p in parameters
                if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert settings[:2] == ["dim", "rng"]
    for name in sorted(START_STATE[algorithm]):
        with pytest.raises(ValueError) as refused:
            OptimizerConfig(algorithm, {name: 1})
        assert str(refused.value) == (
            f"{algorithm} takes no setting {name!r}; it takes "
            f"{', '.join(settings[2:])}")


class _ConvergesAtOnce(Optimizer):
    steps = 0

    def step(self, ev):
        self.steps += 1
        ev(np.zeros(self.dim))
        self.finished = True


def test_drive_steps_a_finished_optimizer_no_more():
    # no step checks finished: drive alone stops before the next one
    optimizer = _ConvergesAtOnce(2, np.random.default_rng(0))
    problem = FuncProblem(lambda x: 1.0 + float(x.dot(x)), 2)
    ev = BudgetedEvaluator(problem, 100, stop_target=0.0)
    assert drive(optimizer, ev) == TERMINATED_CONVERGED
    assert (optimizer.steps, ev.evals_used) == (1, 1)
