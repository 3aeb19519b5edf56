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

from ..linalg import eigh, repair_spd, symmetrize
from .base import Optimizer


def default_population_size(dim: int) -> int:
    return 4 + int(3 * math.log(dim))


class Cmaes(Optimizer):
    def __init__(self, dim, rng, sigma=0.5, population_size=None, *,
                 mean=None, C=None):
        super().__init__(dim, rng)
        lam = (default_population_size(dim) if population_size is None
               else population_size)
        if lam < 2:
            raise ValueError(f"CMA-ES needs a population of at least 2, "
                             f"got {lam} (population_size)")
        self.sigma = float(sigma)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(
                f"CMA-ES sigma must be finite and positive, got {self.sigma}")
        if mean is None:
            mean = rng.uniform(0.0, 1.0, size=dim)
        self.mean = np.asarray(mean, dtype=float)
        self.C = np.eye(dim) if C is None else repair_spd(C, warn_context="CMA-ES init")
        self.p_sigma = np.zeros(dim)
        self.p_c = np.zeros(dim)
        self.generation = 0

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
        # the update's constants, each computed once by the expression that
        # defines it, so that step gives the same floats as inline arithmetic
        self._ps_coef = math.sqrt(self.c_sigma * (2.0 - self.c_sigma) * self.mueff)
        self._pc_coef = math.sqrt(self.c_c * (2.0 - self.c_c) * self.mueff)
        self._sigma_rate = self.c_sigma / self.d_sigma
        self._c_keep = 1.0 - self.c_1 - self.c_mu
        self._h_threshold = 1.4 + 2.0 / (d + 1.0)
        self._weight_col = self.weights[:, None]

    def _sampling_transform(self):
        vals, vecs = eigh(self.C)
        if vals[0] <= 0:
            self.C = repair_spd(self.C, warn_context="CMA-ES covariance")
            vals, vecs = eigh(self.C)
        return vecs, np.sqrt(vals, out=vals)

    def step(self, ev):
        B, D = self._sampling_transform()
        z = self.rng.standard_normal((self.lam, self.dim))
        z *= D
        y = z.dot(B.T)  # rows: B D z_k
        xs = self.sigma * y
        xs += self.mean
        fs = np.fromiter(map(ev, xs), float, self.lam)
        y_sel = y.take(fs.argsort(kind="stable")[: self.mu], 0)
        y_bar = self.weights.dot(y_sel)
        self.mean = self.mean + self.sigma * y_bar

        inv_sqrt_y = B.dot(B.T.dot(y_bar) / D)
        inv_sqrt_y *= self._ps_coef
        p_sigma = (1.0 - self.c_sigma) * self.p_sigma
        p_sigma += inv_sqrt_y
        self.p_sigma = p_sigma
        self.generation += 1
        ps_norm = math.sqrt(p_sigma.dot(p_sigma))
        denom = math.sqrt(
            1.0 - (1.0 - self.c_sigma) ** (2.0 * self.generation)
        )
        h_sigma = ps_norm / denom / self.chi_n < self._h_threshold
        p_c = (1.0 - self.c_c) * self.p_c
        p_c += (self._pc_coef * y_bar) if h_sigma else 0.0
        self.p_c = p_c

        # (1 - c1 - cmu) C + c1 (p_c p_c^T + correction C) + cmu rank_mu,
        # summed in that order
        correction = (1.0 - h_sigma) * self.c_c * (2.0 - self.c_c)
        rank_one = np.multiply.outer(p_c, p_c)
        rank_one += correction * self.C
        rank_one *= self.c_1
        rank_mu = (y_sel * self._weight_col).T.dot(y_sel)
        rank_mu *= self.c_mu
        C = self._c_keep * self.C
        C += rank_one
        C += rank_mu
        self.C = symmetrize(C)
        self.sigma *= math.exp(self._sigma_rate * (ps_norm / self.chi_n - 1.0))
        if not math.isfinite(self.sigma) or self.sigma < 1e-30:
            self.finished = True
