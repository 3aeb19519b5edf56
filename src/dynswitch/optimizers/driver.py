"""Optimizer configuration and the single-run execution loop."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from ..problems import ProblemInstance
from ..tracing import (
    DEFAULT_FINAL_TARGET,
    TERMINATED_BUDGET,
    TERMINATED_CONVERGED,
    TERMINATED_TARGET,
    BudgetedEvaluator,
    BudgetExhausted,
    RunTrace,
    TargetReached,
)
from .bfgs import Bfgs
from .cmaes import Cmaes
from .de import De
from .mlsl import Mlsl
from .pso import Pso

ALGORITHMS = {
    "BFGS": Bfgs,
    "CMA-ES": Cmaes,
    "PSO": Pso,
    "DE": De,
    "MLSL": Mlsl,
}

_ALIASES = {
    "bfgs": "BFGS",
    "cmaes": "CMA-ES",
    "cma-es": "CMA-ES",
    "cma": "CMA-ES",
    "pso": "PSO",
    "de": "DE",
    "mlsl": "MLSL",
}


# the values a setting takes, by the type of its constructor default; a None
# default stands for a computed size
_SETTING_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    type(None): ((int,), "an integer"),
}


def canonical_algorithm(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(_ALIASES)}")
    return _ALIASES[key]


@dataclass(frozen=True)
class OptimizerConfig:
    """Algorithm choice plus hyperparameter overrides for its constructor;
    a setting no run could use is refused by name when the config is made."""

    algorithm: str
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "algorithm", canonical_algorithm(self.algorithm))
        # refused here, before any run: names and types, then the ranges of
        # one build at d = 2, as no range a constructor refuses depends on d;
        # the starting state is keyword-only and no setting: only a warm
        # start hands it over
        signature = inspect.signature(ALGORITHMS[self.algorithm])
        takes = [name for name, p in signature.parameters.items()
                 if p.kind is p.POSITIONAL_OR_KEYWORD][2:]  # after dim, rng
        unknown = sorted(set(self.overrides) - set(takes))
        if unknown:
            raise ValueError(f"{self.algorithm} takes no setting "
                             f"{', '.join(map(repr, unknown))}; it takes "
                             f"{', '.join(takes)}")
        for name, value in self.overrides.items():
            default = signature.parameters[name].default
            kinds, what = _SETTING_KINDS[type(default)]
            # a bool is an int, but no setting is a flag
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{self.algorithm} {name} must be {what}, "
                                 f"got {value!r}")
        make_optimizer(self, 2, np.random.default_rng(0))


def make_optimizer(config: OptimizerConfig, dim: int, rng, **state):
    """The one builder of an optimizer: ``config``'s, with a warm start's
    ``state``, which wins over a setting of the same name."""
    return ALGORITHMS[config.algorithm](dim, rng, **(config.overrides | state))


def drive(optimizer, ev: BudgetedEvaluator) -> str:
    """Step the optimizer until a stop signal; returns the termination reason."""
    try:
        while not optimizer.finished and ev.evals_used < ev.budget:
            optimizer.step(ev)
        return TERMINATED_CONVERGED if optimizer.finished else TERMINATED_BUDGET
    except TargetReached:
        return TERMINATED_TARGET
    except BudgetExhausted:
        return TERMINATED_BUDGET


def start(config: OptimizerConfig, problem: ProblemInstance, budget: int,
          stop_target: float, label: str, seed: int, run_index: int):
    """(evaluator, optimizer, reason): ``config``'s optimizer, seeded with
    ``seed`` and driven to ``stop_target``.  A static run and a switch's
    phase 1 both start here: A1 replays its static run evaluation for
    evaluation."""
    ev = BudgetedEvaluator(problem, budget, stop_target=stop_target,
                           algorithm_label=label, run_index=run_index)
    optimizer = make_optimizer(config, problem.dimension,
                               np.random.default_rng(seed))
    return ev, optimizer, drive(optimizer, ev)


def run_single(
    config: OptimizerConfig,
    problem: ProblemInstance,
    budget: int,
    final_target: float = DEFAULT_FINAL_TARGET,
    seed: int = 0,
    run_index: int = 0,
) -> RunTrace:
    """One full static run, :func:`start` to ``final_target``; deterministic
    given (config, problem, seed)."""
    ev, _, reason = start(config, problem, budget, final_target,
                          config.algorithm, seed, run_index)
    ev.trace.terminated_reason = reason
    return ev.trace
