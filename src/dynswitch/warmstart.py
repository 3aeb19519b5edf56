"""Information transfer across a switch point.

Extracts an algorithm-agnostic bundle from a suspended optimizer and builds
the successor's initial state from it: inverse Hessian <-> covariance with
unit-determinant normalization, step-size from trajectory averaging, and
hyperbox population seeding around the best point.  None of these
operations performs function evaluations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .linalg import repair_spd
from .optimizers import Bfgs, Cmaes, De, Mlsl, Pso
from .optimizers.de import POPULATION_MULTIPLIER
from .optimizers.pso import SWARM_SIZE
from .problems import DOMAIN_HIGH, DOMAIN_LOW

log = logging.getLogger(__name__)

MODE_POINT_ONLY = "point_only"
MODE_FULL = "full"

DEFAULT_SIGMA = 0.5


@dataclass(frozen=True)
class WarmStartPolicy:
    mode: str = MODE_FULL
    step_size_window: int = 10     # n: trajectory points averaged for sigma
    hyperbox_radius: float = 0.1   # eta: half-width of the seeding box
    hessian_scale: float = 1.0     # beta: scale for covariance -> inv Hessian

    def __post_init__(self):
        if self.mode not in (MODE_POINT_ONLY, MODE_FULL):
            raise ValueError(f"unknown warm-start mode {self.mode!r}")
        if self.step_size_window < 2:
            raise ValueError("step_size_window must be >= 2")
        if self.hyperbox_radius <= 0 or self.hessian_scale <= 0:
            raise ValueError("hyperbox_radius and hessian_scale must be positive")


@dataclass
class WarmStartState:
    """Everything extracted from the predecessor at the switch point."""

    best_point: np.ndarray
    best_value: float
    evaluations_spent: int
    recent_trajectory: list | None = None   # most-recent-first iterates (BFGS)
    inv_hessian: np.ndarray | None = None
    mean: np.ndarray | None = None
    sigma: float | None = None
    covariance: np.ndarray | None = None
    population: list | None = field(default=None, repr=False)  # (point, value)


def extract(optimizer, best_point, best_value, evaluations_spent) -> WarmStartState:
    """Bundle whatever fields the suspended optimizer possesses.

    ``best_point``/``best_value`` come from the evaluator's best-so-far
    bookkeeping so they stay consistent with the trace even when the run
    was interrupted mid-iteration.
    """
    if evaluations_spent < 1:
        raise ValueError("cannot extract warm-start state before any evaluation")
    ws = WarmStartState(
        best_point=np.array(best_point, dtype=float, copy=True),
        best_value=float(best_value),
        evaluations_spent=int(evaluations_spent),
    )
    if isinstance(optimizer, Bfgs):
        ws.inv_hessian = repair_spd(optimizer.inv_hessian,
                                    warn_context="BFGS inverse Hessian")
        ws.recent_trajectory = [p.copy() for p in optimizer.recent_points]
    elif isinstance(optimizer, Cmaes):
        # mean/sigma/C summarize the population; it is deliberately omitted
        ws.mean = optimizer.mean.copy()
        ws.sigma = float(optimizer.sigma)
        ws.covariance = repair_spd(optimizer.C, warn_context="CMA-ES covariance")
    elif isinstance(optimizer, Pso):
        ws.population = [
            (optimizer.pbest_positions[i].copy(), float(optimizer.pbest_values[i]))
            for i in range(optimizer.pbest_positions.shape[0])
        ]
    elif isinstance(optimizer, De):
        ws.population = [
            (optimizer.population[i].copy(), float(optimizer.values[i]))
            for i in range(optimizer.population.shape[0])
        ]
    elif isinstance(optimizer, Mlsl):
        ws.population = [
            (optimizer.sample_points[i].copy(), float(optimizer.sample_values[i]))
            for i in range(optimizer.sample_points.shape[0])
        ]
        ws.population.extend(
            (np.array(x, dtype=float), float(f)) for x, f in optimizer.minima
        )
    return ws


def _trajectory_sigma(trajectory, window):
    """Mean displacement over the most recent ``window`` iterates."""
    pts = trajectory[: window + 1] if trajectory else []
    if len(pts) < 2:
        log.warning("trajectory too short for step-size averaging; "
                    "falling back to sigma=%.2f", DEFAULT_SIGMA)
        return DEFAULT_SIGMA
    steps = [float(np.linalg.norm(pts[j] - pts[j + 1])) for j in range(len(pts) - 1)]
    sigma = float(np.mean(steps))
    if sigma <= 0.0:
        log.warning("degenerate trajectory (zero displacement); "
                    "falling back to sigma=%.2f", DEFAULT_SIGMA)
        return DEFAULT_SIGMA
    return sigma


def unit_determinant(matrix):
    """Scale an SPD matrix to determinant 1."""
    m = repair_spd(matrix)
    d = m.shape[0]
    sign, logdet = np.linalg.slogdet(m)
    return m / np.exp(logdet / d)


def _construct(cls, dim, rng, overrides, **state):
    """``cls`` built with the A2 config overrides; the warm-started state
    wins where both name the same parameter."""
    return cls(dim, rng, **{**(overrides or {}), **state})


def warmstart_cmaes_from_bfgs(ws: WarmStartState, policy: WarmStartPolicy,
                              rng, overrides=None) -> Cmaes:
    """Covariance from the inverse Hessian, step-size from the trajectory."""
    if ws.inv_hessian is None or ws.recent_trajectory is None:
        raise ValueError("warm-start state lacks BFGS fields")
    dim = ws.best_point.size
    last_point = ws.recent_trajectory[0]
    if policy.mode == MODE_POINT_ONLY:
        return _construct(Cmaes, dim, rng, overrides,
                          mean=ws.best_point.copy(), sigma=DEFAULT_SIGMA)
    cov = unit_determinant(ws.inv_hessian)
    sigma = _trajectory_sigma(ws.recent_trajectory, policy.step_size_window)
    return _construct(Cmaes, dim, rng, overrides,
                      mean=np.array(last_point, dtype=float, copy=True),
                      sigma=sigma, C=cov)


def warmstart_bfgs_from_cmaes(ws: WarmStartState, policy: WarmStartPolicy,
                              rng, overrides=None) -> Bfgs:
    """Inverse Hessian = beta * sigma^2 * C, started at the best point."""
    dim = ws.best_point.size
    if policy.mode == MODE_POINT_ONLY or ws.covariance is None or ws.sigma is None:
        return _construct(Bfgs, dim, rng, overrides, x0=ws.best_point.copy())
    h0 = policy.hessian_scale * ws.sigma ** 2 * ws.covariance
    return _construct(Bfgs, dim, rng, overrides, x0=ws.best_point.copy(),
                      inv_hessian=h0)


def _hyperbox_sample(ws, policy, rng, n):
    """``n`` uniform points in the eta-box around the best point."""
    low = np.clip(ws.best_point - policy.hyperbox_radius, DOMAIN_LOW, DOMAIN_HIGH)
    high = np.clip(ws.best_point + policy.hyperbox_radius, DOMAIN_LOW, DOMAIN_HIGH)
    return rng.uniform(low, high, size=(n, ws.best_point.size))


def _population_size(target, dim, overrides):
    """Swarm or population size, as the PSO and DE constructors choose it."""
    overrides = overrides or {}
    if target == "PSO":
        return overrides.get("swarm_size", SWARM_SIZE)
    return overrides.get("population_size") or POPULATION_MULTIPLIER * dim


def warmstart_population_from_mlsl(ws: WarmStartState, policy: WarmStartPolicy,
                                   target: str, rng, overrides=None):
    """Seed a PSO swarm or DE population in the hyperbox around the best point."""
    if target not in ("PSO", "DE"):
        raise ValueError(f"unsupported hyperbox target {target!r}")
    dim = ws.best_point.size
    pop = _hyperbox_sample(ws, policy, rng, _population_size(target, dim, overrides))
    pop[0] = np.clip(ws.best_point, DOMAIN_LOW, DOMAIN_HIGH)
    if target == "DE":
        return _construct(De, dim, rng, overrides, population=pop)
    eta = policy.hyperbox_radius
    velocities = rng.uniform(-eta, eta, size=pop.shape)
    return _construct(Pso, dim, rng, overrides, positions=pop,
                      velocities=velocities)


def warmstart_cmaes_from_mlsl(ws: WarmStartState, rng, overrides=None) -> Cmaes:
    """Mean at the best point; default step-size and identity covariance."""
    return _construct(Cmaes, ws.best_point.size, rng, overrides,
                      mean=ws.best_point.copy(), sigma=DEFAULT_SIGMA)


def warmstart_generic(ws: WarmStartState, target: str,
                      policy: WarmStartPolicy, rng, overrides=None):
    """Fallback transfer for pairs without a dedicated procedure."""
    dim = ws.best_point.size
    if target == "BFGS":
        return _construct(Bfgs, dim, rng, overrides, x0=ws.best_point.copy())
    if target == "MLSL":
        # a fresh sampler, pre-seeded with the predecessor's best point so
        # the reduced-set logic is aware of it
        opt = _construct(Mlsl, dim, rng, overrides)
        opt.sample_points = np.array([ws.best_point], dtype=float)
        opt.sample_values = np.array([ws.best_value], dtype=float)
        return opt
    if target == "CMA-ES":
        sigma = DEFAULT_SIGMA
        if ws.population:
            coords = np.array([p for p, _ in ws.population])
            spread = float(np.mean(np.std(coords, axis=0)))
            if spread > 0:
                sigma = 0.5 * spread
        return _construct(Cmaes, dim, rng, overrides,
                          mean=ws.best_point.copy(), sigma=sigma)
    if target in ("PSO", "DE"):
        size = _population_size(target, dim, overrides)
        ranked = sorted(ws.population or [], key=lambda pf: pf[1])[:size]
        n_carried = len(ranked)
        carried = np.array([p for p, _ in ranked]).reshape(n_carried, dim)
        pad = _hyperbox_sample(ws, policy, rng, size - n_carried)
        positions = np.clip(np.vstack([carried, pad]), DOMAIN_LOW, DOMAIN_HIGH)
        # make sure the best point itself is present
        best_clipped = np.clip(ws.best_point, DOMAIN_LOW, DOMAIN_HIGH)
        if not np.any(np.all(positions == best_clipped[None, :], axis=1)):
            positions[-1] = best_clipped
        if target == "DE":
            return _construct(De, dim, rng, overrides, population=positions)
        eta = policy.hyperbox_radius
        velocities = np.zeros_like(positions)
        velocities[n_carried:] = rng.uniform(-eta, eta, size=pad.shape)
        return _construct(Pso, dim, rng, overrides, positions=positions,
                          velocities=velocities)
    raise ValueError(f"unsupported warm-start target {target!r}")


def apply_warmstart(ws: WarmStartState, source: str, target: str,
                    policy: WarmStartPolicy, rng, overrides=None):
    """Dispatch to the pair-specific procedure, else the generic fallback.

    ``overrides`` are A2's constructor overrides (``OptimizerConfig``); the
    warm-started mean, sigma, C, x0, inverse Hessian and population win over
    them.
    """
    if source == "BFGS" and target == "CMA-ES":
        return warmstart_cmaes_from_bfgs(ws, policy, rng, overrides)
    if source == "CMA-ES" and target == "BFGS":
        return warmstart_bfgs_from_cmaes(ws, policy, rng, overrides)
    if source == "MLSL" and target in ("PSO", "DE"):
        return warmstart_population_from_mlsl(ws, policy, target, rng, overrides)
    if source == "MLSL" and target == "CMA-ES":
        return warmstart_cmaes_from_mlsl(ws, rng, overrides)
    return warmstart_generic(ws, target, policy, rng, overrides)
