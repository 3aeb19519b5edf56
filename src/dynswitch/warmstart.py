"""Information transfer across a switch point.

Extracts an algorithm-agnostic bundle from a suspended optimizer and builds
the successor's initial state from it.  BFGS -> CMA-ES and CMA-ES -> BFGS
have a dedicated transfer in ``full`` mode: inverse Hessian <-> covariance
with unit-determinant normalization, step-size from trajectory averaging.
Every other pair and mode takes the generic transfer: A2 starts at the best
point, and a PSO swarm or DE population keeps the predecessor's best
members, padded with hyperbox draws around the best point.  None of these
operations performs function evaluations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import repair_spd
from .optimizers import Bfgs, Cmaes, De, Mlsl, Pso
from .optimizers.de import resolve_population_size
from .optimizers.pso import resolve_swarm_size
from .problems import DOMAIN_HIGH, DOMAIN_LOW

log = logging.getLogger(__name__)

MODE_POINT_ONLY = "point_only"
MODE_FULL = "full"

DEFAULT_SIGMA = 0.5


@dataclass(frozen=True)
class WarmStartPolicy:
    """How A2 is built from A1's state at the switch.

    ``full`` selects the dedicated BFGS -> CMA-ES and CMA-ES -> BFGS
    transfers; ``point_only`` gives those two pairs the generic transfer.
    The other 18 ordered pairs take the generic transfer in both modes.
    ``early_switch``: whether a run whose A1 converged above tau hands over.
    """

    mode: str = MODE_FULL
    step_size_window: int = 10     # n: trajectory points averaged for sigma
    hyperbox_radius: float = 0.1   # eta: half-width of the seeding box
    hessian_scale: float = 1.0     # beta: scale for covariance -> inv Hessian
    early_switch: bool = True

    def __post_init__(self):
        if self.mode not in (MODE_POINT_ONLY, MODE_FULL):
            raise ValueError(f"unknown warm-start mode {self.mode!r}")
        if self.step_size_window < 2:
            raise ValueError("step_size_window must be >= 2")
        if not (0 < self.hyperbox_radius < math.inf
                and 0 < self.hessian_scale < math.inf):
            raise ValueError(
                "hyperbox_radius and hessian_scale must be finite and positive")


@dataclass
class WarmStartState:
    """Everything extracted from the predecessor at the switch point."""

    best_point: np.ndarray
    best_value: float
    recent_trajectory: list | None = None   # most-recent-first iterates (BFGS)
    inv_hessian: np.ndarray | None = None
    sigma: float | None = None
    covariance: np.ndarray | None = None
    # PSO's personal bests or DE's members as arrays (points, values)
    population: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)


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
    )
    if isinstance(optimizer, Bfgs):
        ws.inv_hessian = repair_spd(optimizer.inv_hessian,
                                    warn_context="BFGS inverse Hessian")
        # BFGS stores copies of its iterates and never writes to them
        ws.recent_trajectory = list(optimizer.recent_points)
    elif isinstance(optimizer, Cmaes):
        # sigma and C summarize the population; it is deliberately omitted
        ws.sigma = float(optimizer.sigma)
        ws.covariance = repair_spd(optimizer.C, warn_context="CMA-ES covariance")
    elif isinstance(optimizer, Pso):
        ws.population = (optimizer.pbest_positions.copy(),
                         optimizer.pbest_values.copy())
    elif isinstance(optimizer, De):
        ws.population = (optimizer.population.copy(), optimizer.values.copy())
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
    """Covariance from the inverse Hessian, step-size from the trajectory,
    mean at BFGS's last iterate."""
    dim = ws.best_point.size
    cov = unit_determinant(ws.inv_hessian)
    sigma = _trajectory_sigma(ws.recent_trajectory, policy.step_size_window)
    last_point = np.array(ws.recent_trajectory[0], dtype=float, copy=True)
    return _construct(Cmaes, dim, rng, overrides, mean=last_point,
                      sigma=sigma, C=cov)


def warmstart_bfgs_from_cmaes(ws: WarmStartState, policy: WarmStartPolicy,
                              rng, overrides=None) -> Bfgs:
    """Inverse Hessian = beta * sigma^2 * C, started at the best point."""
    dim = ws.best_point.size
    h0 = policy.hessian_scale * ws.sigma ** 2 * ws.covariance
    return _construct(Bfgs, dim, rng, overrides, x0=ws.best_point.copy(),
                      inv_hessian=h0)


def _population_size(target, dim, overrides):
    """Swarm or population size, as the PSO and DE constructors choose and
    check it."""
    overrides = overrides or {}
    if target == "PSO":
        return resolve_swarm_size(overrides.get("swarm_size"))
    return resolve_population_size(dim, overrides.get("population_size"))


def warmstart_generic(ws: WarmStartState, target: str,
                      policy: WarmStartPolicy, rng, overrides=None):
    """Transfer for every pair and mode without a dedicated procedure; a
    PSO/DE target from a source without a population is all hyperbox."""
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
        if ws.population is not None:
            spread = float(np.mean(np.std(ws.population[0], axis=0)))
            if spread > 0:
                sigma = 0.5 * spread
        return _construct(Cmaes, dim, rng, overrides,
                          mean=ws.best_point.copy(), sigma=sigma)
    if target in ("PSO", "DE"):
        size = _population_size(target, dim, overrides)
        points, values = ws.population or (np.empty((0, dim)), np.empty(0))
        carried = points[np.argsort(values, kind="stable")[:size]]
        n_carried = len(carried)
        # padded with uniform draws in the eta-box around the best point
        eta = policy.hyperbox_radius
        low = np.clip(ws.best_point - eta, DOMAIN_LOW, DOMAIN_HIGH)
        high = np.clip(ws.best_point + eta, DOMAIN_LOW, DOMAIN_HIGH)
        pad = rng.uniform(low, high, size=(size - n_carried, dim))
        positions = np.clip(np.vstack([carried, pad]), DOMAIN_LOW, DOMAIN_HIGH)
        # make sure the best point itself is present
        best_clipped = np.clip(ws.best_point, DOMAIN_LOW, DOMAIN_HIGH)
        if not np.any(np.all(positions == best_clipped[None, :], axis=1)):
            positions[-1] = best_clipped
        if target == "DE":
            return _construct(De, dim, rng, overrides, population=positions)
        velocities = np.zeros_like(positions)
        velocities[n_carried:] = rng.uniform(-eta, eta, size=pad.shape)
        return _construct(Pso, dim, rng, overrides, positions=positions,
                          velocities=velocities)
    raise ValueError(f"unsupported warm-start target {target!r}")


def apply_warmstart(ws: WarmStartState, source: str, target: str,
                    policy: WarmStartPolicy, rng, overrides=None):
    """The dedicated model transfer for BFGS -> CMA-ES and CMA-ES -> BFGS in
    ``full`` mode; the generic transfer for everything else.

    ``overrides`` are A2's constructor overrides (``OptimizerConfig``, which
    refuses the starting state as a setting); a warm-started sigma wins over
    theirs.
    """
    if policy.mode == MODE_FULL:
        if (source, target) == ("BFGS", "CMA-ES"):
            return warmstart_cmaes_from_bfgs(ws, policy, rng, overrides)
        if (source, target) == ("CMA-ES", "BFGS"):
            return warmstart_bfgs_from_cmaes(ws, policy, rng, overrides)
    return warmstart_generic(ws, target, policy, rng, overrides)
