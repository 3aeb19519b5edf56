"""Multi-level single linkage multistart with Powell local search.

Each level adds 50d uniform samples, shrinks the critical distance, and
starts a Powell local search from every reduced-set point that has no
better point within that distance.  Each local-search invocation is capped
at 10% of the total evaluation budget.
"""

from __future__ import annotations

import math

import numpy as np

from ..problems import DOMAIN_HIGH, DOMAIN_LOW
from .base import Optimizer
from .local_search import minimize_powell

POPULATION_MULTIPLIER = 50
REDUCED_FRACTION = 0.1     # gamma: fraction of cumulative samples kept
SIGMA_PARAMETER = 2.0      # sigma in the critical-distance formula
LOCAL_BUDGET_FRACTION = 0.1
POWELL_F_TOL = 1e-8


class _LocalCapReached(Exception):
    pass


def powell_minimize(fun, x0, f_tol=POWELL_F_TOL, max_evals=None):
    """Powell conjugate-direction descent (``local_search.minimize_powell``).

    Stops on relative f-improvement below ``f_tol`` or after ``max_evals``
    objective calls.  Returns (best_x, best_f).  StopRun signals raised by
    the objective propagate to the caller.
    """
    x0 = np.asarray(x0, dtype=float)
    count, best_x, best_f = 0, x0.copy(), math.inf

    def wrapped(x):
        nonlocal count, best_x, best_f
        if max_evals is not None and count >= max_evals:
            raise _LocalCapReached()
        count += 1
        f = fun(x)
        if f < best_f:
            best_f = f
            best_x = x.copy()
        return f

    try:
        minimize_powell(wrapped, x0, xtol=1e-10, ftol=f_tol)
    except _LocalCapReached:
        pass
    if not math.isfinite(best_f):
        best_f = fun(x0)
    return best_x, best_f


def critical_distance(dim, total_samples, sigma=SIGMA_PARAMETER):
    """MLSL critical-distance radius r_k; decreasing in the sample count."""
    box_volume = (DOMAIN_HIGH - DOMAIN_LOW) ** dim
    kn = max(total_samples, 2)
    inner = math.gamma(1.0 + dim / 2.0) * box_volume * sigma * math.log(kn) / kn
    return inner ** (1.0 / dim) / math.sqrt(math.pi)


class Mlsl(Optimizer):
    def __init__(self, dim, rng, population_size=None,
                 reduced_fraction=REDUCED_FRACTION,
                 local_budget_fraction=LOCAL_BUDGET_FRACTION,
                 f_tol=POWELL_F_TOL):
        super().__init__(dim, rng)
        self.population_size = population_size or POPULATION_MULTIPLIER * dim
        self.reduced_fraction = reduced_fraction
        self.local_budget_fraction = local_budget_fraction
        self.f_tol = f_tol
        self.sample_points = np.empty((0, dim))
        self.sample_values = np.empty(0)
        self.started = set()           # indices local searches started from
        self.minima = []               # (point, value) found by local search
        self.level = 0

    def step(self, ev):
        if self.finished:
            return
        new = self.rng.uniform(DOMAIN_LOW, DOMAIN_HIGH,
                               size=(self.population_size, self.dim))
        values = np.array([ev(x) for x in new])
        self.sample_points = np.vstack([self.sample_points, new])
        self.sample_values = np.concatenate([self.sample_values, values])
        self.level += 1
        total = self.sample_points.shape[0]
        r_k = critical_distance(self.dim, total)

        n_reduced = max(1, int(math.ceil(self.reduced_fraction * total)))
        order = np.argsort(self.sample_values, kind="stable")
        reduced = order[:n_reduced]
        known_points = (
            np.array([m[0] for m in self.minima]) if self.minima else None
        )
        known_values = (
            np.array([m[1] for m in self.minima]) if self.minima else None
        )
        local_cap = max(1, int(self.local_budget_fraction * ev.budget))
        for idx in reduced:
            if int(idx) in self.started:
                continue
            x = self.sample_points[idx]
            f = self.sample_values[idx]
            dist = np.linalg.norm(self.sample_points - x[None, :], axis=1)
            better_nearby = np.any((dist <= r_k) & (self.sample_values < f))
            if not better_nearby and known_points is not None:
                dist_m = np.linalg.norm(known_points - x[None, :], axis=1)
                better_nearby = np.any((dist_m <= r_k) & (known_values < f))
            if better_nearby:
                continue
            self.started.add(int(idx))
            bx, bf = powell_minimize(ev, x, f_tol=self.f_tol,
                                     max_evals=local_cap)
            self.minima.append((bx, bf))
            known_points = np.array([m[0] for m in self.minima])
            known_values = np.array([m[1] for m in self.minima])
