"""Common stepwise optimizer interface.

An optimizer is a plain object owning its mutable search state.  ``step``
performs one iteration's worth of evaluations through a BudgetedEvaluator
(letting StopRun signals propagate) and ``finished`` reports internal
convergence.  All internals needed for warm-starting are public attributes.
"""

from __future__ import annotations

import numpy as np


class Optimizer:
    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = int(dim)
        self.rng = rng
        self.finished = False

    def step(self, ev):
        raise NotImplementedError
