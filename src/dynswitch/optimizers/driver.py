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


def canonical_algorithm(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(_ALIASES)}")
    return _ALIASES[key]


@dataclass(frozen=True)
class OptimizerConfig:
    """Algorithm choice plus hyperparameter overrides for its constructor."""

    algorithm: str
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "algorithm", canonical_algorithm(self.algorithm))
        # refused here, before any run, rather than by each constructor call;
        # the starting state is no setting: only a warm start hands it over
        takes = [name for name in inspect.signature(
                     ALGORITHMS[self.algorithm]).parameters
                 if name not in ("dim", "rng", "x0", "inv_hessian", "mean", "C",
                                 "positions", "velocities", "population")]
        unknown = sorted(set(self.overrides) - set(takes))
        if unknown:
            raise ValueError(f"{self.algorithm} takes no setting "
                             f"{', '.join(map(repr, unknown))}; it takes "
                             f"{', '.join(takes)}")


def make_optimizer(config: OptimizerConfig, dim: int, rng):
    return ALGORITHMS[config.algorithm](dim, rng, **config.overrides)


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


def run_single(
    config: OptimizerConfig,
    problem: ProblemInstance,
    budget: int,
    final_target: float = DEFAULT_FINAL_TARGET,
    seed: int = 0,
    run_index: int = 0,
) -> RunTrace:
    """One full static run; deterministic given (config, problem, seed)."""
    ev = BudgetedEvaluator(
        problem, budget, stop_target=final_target,
        algorithm_label=config.algorithm, run_index=run_index,
    )
    rng = np.random.default_rng(seed)
    optimizer = make_optimizer(config, problem.dimension, rng)
    ev.trace.terminated_reason = drive(optimizer, ev)
    return ev.trace
