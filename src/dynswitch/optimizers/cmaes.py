"""(mu/mu_w, lambda)-CMA-ES with standard tutorial hyperparameters.

Default population size lambda = 4 + floor(3 ln d); no restarts, no
boundary handling.  Mean, step-size, covariance and evolution paths are
public state so they can be injected by warm-starting or inspected at a
switch point.

``C`` is always exactly symmetric, bit for bit: every assignment to it
goes through ``symmetrize``, ``repair_spd`` or ``np.eye``, and
``(m + m.T) / 2`` is symmetric because float addition commutes.  The
sampling transform relies on this and decomposes ``C`` as it stands.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import repair_spd, symmetrize
from .base import Optimizer


def default_population_size(dim: int) -> int:
    return 4 + int(3 * math.log(dim))


class Cmaes(Optimizer):
    def __init__(self, dim, rng, mean=None, sigma=0.5, C=None,
                 population_size=None):
        super().__init__(dim, rng)
        if mean is None:
            mean = rng.uniform(0.0, 1.0, size=dim)
        self.mean = np.asarray(mean, dtype=float)
        self.sigma = float(sigma)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        self.C = np.eye(dim) if C is None else repair_spd(C, warn_context="CMA-ES init")
        self.p_sigma = np.zeros(dim)
        self.p_c = np.zeros(dim)
        self.generation = 0

        lam = population_size or default_population_size(dim)
        mu = lam // 2
        raw = math.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        self.weights = raw / raw.sum()
        self.mu = mu
        self.lam = lam
        self.mueff = float(1.0 / np.sum(self.weights ** 2))
        d = dim
        self.c_sigma = (self.mueff + 2.0) / (d + self.mueff + 5.0)
        self.d_sigma = (
            1.0
            + 2.0 * max(0.0, math.sqrt((self.mueff - 1.0) / (d + 1.0)) - 1.0)
            + self.c_sigma
        )
        self.c_c = (4.0 + self.mueff / d) / (d + 4.0 + 2.0 * self.mueff / d)
        self.c_1 = 2.0 / ((d + 1.3) ** 2 + self.mueff)
        self.c_mu = min(
            1.0 - self.c_1,
            2.0 * (self.mueff - 2.0 + 1.0 / self.mueff) / ((d + 2.0) ** 2 + self.mueff),
        )
        self.chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))

    def _sampling_transform(self):
        vals, vecs = np.linalg.eigh(self.C)
        if vals[0] <= 0:
            self.C = repair_spd(self.C, warn_context="CMA-ES covariance")
            vals, vecs = np.linalg.eigh(self.C)
        return vecs, np.sqrt(vals)

    def step(self, ev):
        if self.finished:
            return
        B, D = self._sampling_transform()
        z = self.rng.standard_normal((self.lam, self.dim))
        y = z * D[None, :] @ B.T  # rows: B D z_k
        xs = self.mean[None, :] + self.sigma * y
        fs = np.array([ev(x) for x in xs])
        order = np.argsort(fs, kind="stable")
        y_sel = y[order[: self.mu]]
        y_bar = self.weights @ y_sel
        self.mean = self.mean + self.sigma * y_bar

        inv_sqrt_y = B @ ((B.T @ y_bar) / D)
        self.p_sigma = (1.0 - self.c_sigma) * self.p_sigma + math.sqrt(
            self.c_sigma * (2.0 - self.c_sigma) * self.mueff
        ) * inv_sqrt_y
        self.generation += 1
        ps_norm = math.sqrt(self.p_sigma.dot(self.p_sigma))
        denom = math.sqrt(
            1.0 - (1.0 - self.c_sigma) ** (2.0 * self.generation)
        )
        h_sigma = ps_norm / denom / self.chi_n < 1.4 + 2.0 / (self.dim + 1.0)
        self.p_c = (1.0 - self.c_c) * self.p_c + (
            math.sqrt(self.c_c * (2.0 - self.c_c) * self.mueff) * y_bar
            if h_sigma
            else 0.0
        )
        rank_mu = (y_sel * self.weights[:, None]).T @ y_sel
        correction = (1.0 - h_sigma) * self.c_c * (2.0 - self.c_c)
        self.C = symmetrize(
            (1.0 - self.c_1 - self.c_mu) * self.C
            + self.c_1 * (self.p_c[:, None] * self.p_c + correction * self.C)
            + self.c_mu * rank_mu
        )
        self.sigma *= math.exp(
            (self.c_sigma / self.d_sigma) * (ps_norm / self.chi_n - 1.0)
        )
        if not np.isfinite(self.sigma) or self.sigma < 1e-30:
            self.finished = True
