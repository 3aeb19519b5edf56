"""Differential evolution, DE/best/1/bin.

Population of 5d vectors; crossover rate 0.7 with one forced dimension per
trial; mutation scale F drawn uniformly from [0.5, 1] once per generation;
greedy selection.  Converges when the spread of population values drops
below the tolerance.

Random draws.  The reference stream (``_scalar_draws``) gives each trial i,
in turn, its pair (r1, r2) from ``rng.choice`` over the indices j != i, then
``crossover_mask``: d uniform doubles, then the forced dimension.
``_pcg64_draws`` makes the same draws for a whole generation, before its
first trial, from one ``random_raw(n * (d + 2))`` call on a PCG64 bit
generator, decoded as numpy does:

- each trial takes two raw uint64 outputs and splits them into four uint32
  halves, low half first.  A half h gives the Lemire bounded draw
  ``(h * r) >> 32`` in [0, r).  In order, the four draws are Floyd's pair
  over r = n - 2 and r = n - 1 (a second draw equal to the first becomes
  n - 2), the shuffle over r = 2 (the pair swaps on 0), and the forced
  crossover dimension over r = d;
- the trial's next d outputs become the doubles ``(u >> 11) * 2**-53``
  that are compared with the crossover rate.

Where that decoding could differ from numpy's, it returns None and leaves
the generator where it was, and the reference stream is drawn instead:
another bit generator, a pending uint32 half, d < 2 (``integers(1)`` draws
nothing), or a Lemire draw that numpy would reject and redraw.  Either way
the generator ends the generation in the same state.  A run stopped
mid-generation has drawn the whole generation; nothing draws from its
generator afterwards.

Trials.  A generation's trials are built in one pass from the population
as it stands before its first trial; evaluation and selection then go
trial by trial.  A trial i sees the rows replaced earlier in its
generation, so when one of the rows it reads (r1[i], r2[i] or the best
row) has been replaced, trial i is built again from the current rows.
Row i itself is replaced only by trial i.  Each build is the same
elementwise arithmetic, so every trial has the bits of a trial-by-trial
build.
"""

from __future__ import annotations

import numpy as np

from ..problems import DOMAIN_HIGH, DOMAIN_LOW
from .base import Optimizer

CROSSOVER_RATE = 0.7
SCALE_LOW = 0.5
SCALE_HIGH = 1.0
CONVERGENCE_TOL = 1e-12
POPULATION_MULTIPLIER = 5
_LOW32 = np.uint64(0xFFFFFFFF)


def resolve_population_size(dim, size=None):
    """DE's population: ``size`` members, 5d when it is None; below 4 is
    refused."""
    size = POPULATION_MULTIPLIER * dim if size is None else size
    if size < 4:
        raise ValueError(
            f"DE needs a population of at least 4, got {size} (population_size)")
    return size


def crossover_mask(rng, dim, crossover_rate):
    """Binomial crossover mask with one uniformly chosen forced dimension."""
    mask = rng.random(dim) < crossover_rate
    mask[rng.integers(dim)] = True
    return mask


def _scalar_draws(rng, n, d, crossover_rate):
    """One generation's (r1, r2, crossover masks), trial by trial."""
    r1, r2 = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    masks = np.empty((n, d), dtype=bool)
    candidates = np.arange(1, n)  # the indices j != i, for i = 0
    for i in range(n):
        candidates[:i] = np.arange(i)
        r1[i], r2[i] = rng.choice(candidates, size=2, replace=False)
        masks[i] = crossover_mask(rng, d, crossover_rate)
    return r1, r2, masks


def _decode(raw, n, d, crossover_rate):
    """``_scalar_draws`` from the generation's raw PCG64 outputs, or None."""
    raw = raw.reshape(n, d + 2)
    halves = np.empty((n, 4), dtype=np.uint64)  # low half first
    halves[:, 0::2] = raw[:, :2] & _LOW32
    halves[:, 1::2] = raw[:, :2] >> 32
    # Lemire's bounded draw is (h * r) >> 32; numpy redraws when the low
    # word falls below 2**32 % r
    bounds = np.array([n - 2, n - 1, 2, d], dtype=np.uint64)
    m = halves * bounds
    if ((m & _LOW32) < (1 << 32) % bounds).any():
        return None
    first, second, shuffle, forced = (m >> 32).astype(np.int64).T
    second[second == first] = n - 2
    swap = shuffle == 0
    a, b = np.where(swap, second, first), np.where(swap, first, second)
    masks = (raw[:, 2:] >> 11) * 2.0**-53 < crossover_rate
    i = np.arange(n)
    masks[i, forced] = True
    # a draw k picks the k-th of the candidates j != i
    return a + (a >= i), b + (b >= i), masks


def _pcg64_draws(rng, n, d, crossover_rate):
    """``_scalar_draws`` from one raw call, or None with the state unmoved."""
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or d < 2:
        return None
    state = bitgen.state
    if state["has_uint32"]:
        return None
    raw = bitgen.random_raw(n * (d + 2))
    draws = _decode(raw, n, d, crossover_rate)
    if draws is None:
        bitgen.state = state
        return None
    # numpy keeps the last forced-dimension half in its spent uint32 buffer
    state = bitgen.state
    state["uinteger"] = int(raw[-d - 1] >> 32)
    bitgen.state = state
    return draws


class De(Optimizer):
    def __init__(self, dim, rng, population_size=None,
                 crossover_rate=CROSSOVER_RATE, tol=CONVERGENCE_TOL, *,
                 population=None):
        super().__init__(dim, rng)
        size = resolve_population_size(
            dim, population_size if population is None else len(population))
        if population is None:
            population = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, size=(size, dim))
        self.population = np.asarray(population, dtype=float)
        self.values = np.full(self.population.shape[0], np.inf)
        if not 0 <= crossover_rate <= 1:
            raise ValueError(f"DE crossover_rate must be in [0, 1], "
                             f"got {crossover_rate}")
        if not 0 <= tol < np.inf:
            raise ValueError(f"DE tol must be finite and >= 0, got {tol}")
        self.crossover_rate = crossover_rate
        self.tol = tol
        self._evaluated_once = False

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.values))

    def _check_convergence(self):
        if np.all(np.isfinite(self.values)):
            spread = float(np.std(self.values))
            if spread <= self.tol * abs(float(np.mean(self.values))):
                self.finished = True

    def step(self, ev):
        n, d = self.population.shape
        if not self._evaluated_once:
            for i in range(n):
                self.values[i] = ev(self.population[i])
            self._evaluated_once = True
            self._check_convergence()
            return
        pop, values = self.population, self.values
        scale = self.rng.uniform(SCALE_LOW, SCALE_HIGH)
        b = self.best_index
        best = pop[b]  # a view: it follows the row if a trial replaces it
        r1, r2, cross = (_pcg64_draws(self.rng, n, d, self.crossover_rate)
                         or _scalar_draws(self.rng, n, d, self.crossover_rate))
        trials = np.where(cross, best + scale * (pop[r1] - pop[r2]), pop)
        replaced = [False] * n
        for i, j, k in zip(range(n), r1.tolist(), r2.tolist()):
            if replaced[j] or replaced[k] or replaced[b]:
                trial = np.where(cross[i], best + scale * (pop[j] - pop[k]),
                                 pop[i])
            else:
                trial = trials[i]
            f = ev(trial)
            if f <= values[i]:
                pop[i] = trial
                values[i] = f
                replaced[i] = True
        self._check_convergence()
