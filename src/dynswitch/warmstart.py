"""Information transfer across a switch point.

``extract`` bundles what the suspended optimizer holds: its best point and
value, and the fields only its algorithm has (BFGS's inverse Hessian and
iterates, CMA-ES's sigma and covariance, PSO's personal bests or DE's
members).  ``apply_warmstart`` builds the successor from that bundle alone.
A BFGS target starts at the best point, with beta * sigma^2 * C as its
inverse Hessian when a covariance was handed over.  A CMA-ES target handed
an inverse Hessian takes it, at unit determinant, as its covariance, with a
trajectory-averaged step size and its mean at BFGS's last iterate; any
other starts at the best point.  A PSO swarm or DE population keeps the
best members handed over, padded with hyperbox draws around the best point,
and MLSL's sample starts with the best point.  ``point_only`` mode drops the
model (trajectory, inverse Hessian, sigma, covariance) first.  None of these
operations performs function evaluations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import repair_spd
from .optimizers import Bfgs, Cmaes, De, OptimizerConfig, Pso, make_optimizer
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

    ``full`` hands over every field ``extract`` took; ``point_only`` drops
    the model fields (trajectory, inverse Hessian, sigma, covariance).  Only
    BFGS -> CMA-ES and CMA-ES -> BFGS read them, so every other ordered pair,
    A -> A included, builds the same A2 in both modes.
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


def warmstart_cmaes_from_bfgs(ws: WarmStartState, policy: WarmStartPolicy,
                              rng, a2=OptimizerConfig("CMA-ES")) -> Cmaes:
    """Covariance from the inverse Hessian, step-size from the trajectory,
    mean at BFGS's last iterate."""
    dim = ws.best_point.size
    cov = unit_determinant(ws.inv_hessian)
    sigma = _trajectory_sigma(ws.recent_trajectory, policy.step_size_window)
    last_point = np.array(ws.recent_trajectory[0], dtype=float, copy=True)
    return make_optimizer(a2, dim, rng, mean=last_point, sigma=sigma, C=cov)


def apply_warmstart(ws: WarmStartState, a2: OptimizerConfig,
                    policy: WarmStartPolicy, rng):
    """A2, built by ``make_optimizer`` from its config and the fields of
    ``ws``, which name no source: ``extract`` sets ``inv_hessian`` only for
    BFGS and ``covariance`` only for CMA-ES.  The handed-over state wins over
    a setting of the same name (sigma); ``OptimizerConfig`` refuses the rest
    of it as a setting.
    """
    if policy.mode == MODE_POINT_ONLY:
        ws = replace(ws, recent_trajectory=None, inv_hessian=None,
                     sigma=None, covariance=None)
    dim = ws.best_point.size
    target = a2.algorithm
    if target == "BFGS":
        # inverse Hessian = beta * sigma^2 * C, or the identity
        h0 = (None if ws.covariance is None
              else policy.hessian_scale * ws.sigma ** 2 * ws.covariance)
        return make_optimizer(a2, dim, rng, x0=ws.best_point.copy(),
                              inv_hessian=h0)
    if target == "CMA-ES":
        if ws.inv_hessian is not None:
            return warmstart_cmaes_from_bfgs(ws, policy, rng, a2)
        sigma = DEFAULT_SIGMA
        if ws.population is not None:
            spread = float(np.mean(np.std(ws.population[0], axis=0)))
            if spread > 0:
                sigma = 0.5 * spread
        return make_optimizer(a2, dim, rng, mean=ws.best_point.copy(),
                              sigma=sigma)
    if target == "MLSL":
        # the best point seeds the sample, so the reduced-set logic knows it
        return make_optimizer(a2, dim, rng, samples=(
            np.array([ws.best_point], dtype=float),
            np.array([ws.best_value], dtype=float)))
    # PSO or DE: the best members handed over, padded with uniform draws in
    # the eta-box around the best point; all draws without a population
    size = (resolve_swarm_size(a2.overrides.get("swarm_size"))
            if target == "PSO" else
            resolve_population_size(dim, a2.overrides.get("population_size")))
    points, values = ws.population or (np.empty((0, dim)), np.empty(0))
    carried = points[np.argsort(values, kind="stable")[:size]]
    n_carried = len(carried)
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
        return make_optimizer(a2, dim, rng, population=positions)
    velocities = np.zeros_like(positions)
    velocities[n_carried:] = rng.uniform(-eta, eta, size=pad.shape)
    return make_optimizer(a2, dim, rng, positions=positions,
                          velocities=velocities)
