"""Global-best particle swarm with linearly decreasing inertia.

40 particles; cognitive and social rates 1.4944; inertia
omega = 0.9 - 0.8 t where t is the fraction of the evaluation budget spent.
Positions are clipped to [-5, 5]^d with the violated velocity component
zeroed; velocities themselves are clipped to [-5, 5].
"""

from __future__ import annotations

import numpy as np

from ..problems import DOMAIN_HIGH, DOMAIN_LOW
from .base import Optimizer

SWARM_SIZE = 40
LEARNING_RATE = 1.4944
VELOCITY_INIT_LOW = -1.0
VELOCITY_INIT_HIGH = 1.0


def inertia(t: float) -> float:
    """Linearly decreasing inertia weight; t is normalized budget progress."""
    return 0.9 - 0.8 * t


class Pso(Optimizer):
    def __init__(self, dim, rng, positions=None, velocities=None,
                 swarm_size=SWARM_SIZE):
        super().__init__(dim, rng)
        if positions is None:
            positions = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, size=(swarm_size, dim))
        self.positions = np.asarray(positions, dtype=float)
        n = self.positions.shape[0]
        if velocities is None:
            velocities = rng.uniform(
                VELOCITY_INIT_LOW, VELOCITY_INIT_HIGH, size=(n, dim)
            )
        self.velocities = np.asarray(velocities, dtype=float)
        self.pbest_positions = self.positions.copy()
        self.pbest_values = np.full(n, np.inf)
        self.gbest_position = self.positions[0].copy()
        self.gbest_value = np.inf
        self._evaluated_once = False

    def _evaluate_swarm(self, ev):
        for i in range(self.positions.shape[0]):
            f = ev(self.positions[i])
            if f < self.pbest_values[i]:
                self.pbest_values[i] = f
                self.pbest_positions[i] = self.positions[i].copy()
            if f < self.gbest_value:
                self.gbest_value = f
                self.gbest_position = self.positions[i].copy()

    def step(self, ev):
        if not self._evaluated_once:
            self._evaluate_swarm(ev)
            self._evaluated_once = True
            return
        t = ev.evals_used / ev.budget if ev.budget > 0 else 1.0
        omega = inertia(t)
        n, d = self.positions.shape
        r1 = self.rng.random((n, d))
        r2 = self.rng.random((n, d))
        self.velocities = (
            omega * self.velocities
            + LEARNING_RATE * r1 * (self.pbest_positions - self.positions)
            + LEARNING_RATE * r2 * (self.gbest_position[None, :] - self.positions)
        )
        np.clip(self.velocities, DOMAIN_LOW, DOMAIN_HIGH, out=self.velocities)
        self.positions = self.positions + self.velocities
        violated = (self.positions < DOMAIN_LOW) | (self.positions > DOMAIN_HIGH)
        np.clip(self.positions, DOMAIN_LOW, DOMAIN_HIGH, out=self.positions)
        self.velocities[violated] = 0.0
        self._evaluate_swarm(ev)
