import copy

import numpy as np
import pytest

from dynswitch.optimizers.de import (
    SCALE_HIGH,
    SCALE_LOW,
    De,
    _decode,
    _pcg64_draws,
    _scalar_draws,
    crossover_mask,
)
from dynswitch.problems import ProblemId, instantiate
from dynswitch.tracing import BudgetedEvaluator, StopRun

from conftest import FuncProblem


def test_population_sizing_and_minimum():
    opt = De(4, np.random.default_rng(0))
    assert opt.population.shape == (20, 4)
    with pytest.raises(ValueError):
        De(2, np.random.default_rng(0), population=np.zeros((3, 2)))


def test_crossover_mask_always_has_a_forced_dimension():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mask = crossover_mask(rng, 6, 0.0)
        assert mask.sum() == 1


def test_crossover_mask_expected_gene_count():
    # d=10, rate 0.7: one forced dimension plus 9 Bernoulli(0.7) trials,
    # expected 7.3 inherited genes
    rng = np.random.default_rng(123)
    n = 100_000
    total = sum(crossover_mask(rng, 10, 0.7).sum() for _ in range(n))
    assert total / n == pytest.approx(7.3, rel=0.02)


def test_selection_is_elitist():
    problem = FuncProblem(lambda x: float(np.sum(x * x)), 3)
    ev = BudgetedEvaluator(problem, 50_000, stop_target=0.0)
    opt = De(3, np.random.default_rng(2))
    opt.step(ev)
    best = opt.values[opt.best_index]
    try:
        for _ in range(30):
            opt.step(ev)
            new_best = opt.values[opt.best_index]
            assert new_best <= best
            best = new_best
    except StopRun:
        pass


def test_solves_sphere():
    problem = FuncProblem(lambda x: float(np.sum(x * x)), 2)
    ev = BudgetedEvaluator(problem, 50_000, stop_target=1e-8)
    opt = De(2, np.random.default_rng(6))
    try:
        while not opt.finished:
            opt.step(ev)
    except StopRun:
        pass
    assert ev.trace.best_precision <= 1e-8


def test_convergence_flag_on_flat_population():
    problem = FuncProblem(lambda x: 1.0, 2)
    ev = BudgetedEvaluator(problem, 1000, stop_target=0.0)
    opt = De(2, np.random.default_rng(0))
    opt.step(ev)
    assert opt.finished


def _trial_by_trial_generation(opt, ev):
    """One generation built trial by trial from the current rows; returns
    the trials built up front from the rows as they stood at its start."""
    pop, values = opt.population, opt.values
    n, d = pop.shape
    scale = opt.rng.uniform(SCALE_LOW, SCALE_HIGH)
    best = pop[opt.best_index]
    r1, r2, cross = (_pcg64_draws(opt.rng, n, d, opt.crossover_rate)
                     or _scalar_draws(opt.rng, n, d, opt.crossover_rate))
    up_front = np.where(cross, best + scale * (pop[r1] - pop[r2]), pop)
    for i in range(n):
        mutant = best + scale * (pop[r1[i]] - pop[r2[i]])
        trial = np.where(cross[i], mutant, pop[i])
        f = ev(trial)
        if f <= values[i]:
            pop[i] = trial
            values[i] = f
    return up_front


def test_generation_rebuilds_trials_whose_rows_were_replaced():
    # F1 with eight members: trials win often, so a later trial of the same
    # generation often reads a row replaced before it.  With this seed,
    # leaving out any one of the three rebuild conditions (r1, r2 or the
    # best row replaced) changes an evaluated point within two generations.
    problem = instantiate(ProblemId(1, 5, 1), 0)
    opt = De(5, np.random.default_rng(2), population_size=8)
    opt.step(problem.evaluate)
    rebuilt = 0
    for _ in range(10):
        ref = copy.deepcopy(opt)
        got, want = [], []
        opt.step(lambda x: (got.append(x.copy()), problem.evaluate(x))[1])
        up_front = _trial_by_trial_generation(
            ref, lambda x: (want.append(x.copy()), problem.evaluate(x))[1])
        got, want = np.array(got), np.array(want)
        assert got.tobytes() == want.tobytes()
        assert opt.population.tobytes() == ref.population.tobytes()
        assert opt.values.tobytes() == ref.values.tobytes()
        assert opt.rng.bit_generator.state == ref.rng.bit_generator.state
        # a point unlike its up-front trial can only come from a rebuild
        rebuilt += int((got != up_front).any(axis=1).sum())
    assert rebuilt > 0


# --- one raw call per generation against numpy's trial-by-trial draws --------

GUARD_SEEDS = range(300)
GUARD_DIMS = (2, 3, 5, 10, 20, 40)
GUARD_RATES = (0.0, 0.7, 1.0)
# numpy's PCG64 multiplier: the next state is state * MULTIPLIER + inc
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _assert_same_draws(got, want):
    assert got is not None
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("n", (4, 5, 10, 25, 50, 100, 200))
def test_pcg64_draws_equal_the_scalar_draws(n):
    # Pins the decoding to numpy's own choice/random/integers: a numpy that
    # draws otherwise fails here instead of falling back or moving bits.
    for seed in GUARD_SEEDS:
        for d in GUARD_DIMS:
            for rate in GUARD_RATES:
                fast = np.random.default_rng(seed)
                ref = np.random.default_rng(seed)
                _assert_same_draws(_pcg64_draws(fast, n, d, rate),
                                   _scalar_draws(ref, n, d, rate))
                assert fast.bit_generator.state == ref.bit_generator.state
                assert fast.random() == ref.random()


def _pcg64_about_to_output(value):
    """A PCG64 generator whose next raw output is ``value``."""
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    # a state with high word 0 outputs its low word unrotated
    state["state"]["state"] = ((value - state["state"]["inc"])
                               * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128)
    bitgen.state = state
    return np.random.Generator(bitgen)


def _assert_falls_back(make_rng, n, d, prepare=lambda rng: None):
    fast, ref = make_rng(), make_rng()
    prepare(fast)
    prepare(ref)
    before = fast.bit_generator.state
    assert _pcg64_draws(fast, n, d, 0.7) is None
    np.testing.assert_equal(fast.bit_generator.state, before)
    # De.step then draws the reference stream itself
    _assert_same_draws(_scalar_draws(fast, n, d, 0.7),
                       _scalar_draws(ref, n, d, 0.7))
    np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)


def test_pending_uint32_half_falls_back():
    def draw_one_half(rng):
        rng.integers(5)
        assert rng.bit_generator.state["has_uint32"]

    _assert_falls_back(lambda: np.random.default_rng(3), 10, 5, draw_one_half)


def test_other_bit_generator_falls_back():
    _assert_falls_back(lambda: np.random.Generator(np.random.MT19937(3)), 10, 5)


def test_one_dimension_falls_back():
    # integers(1) draws nothing, so trials would not start on a fresh output
    _assert_falls_back(lambda: np.random.default_rng(3), 5, 1)


def test_decode_refuses_a_draw_numpy_would_redraw():
    n, d = 5, 3
    raw = np.random.default_rng(0).bit_generator.random_raw(n * (d + 2))
    assert _decode(raw, n, d, 0.7) is not None
    # low half 0 over r = n - 2 = 3: low word 0 < 2**32 % 3, so redrawn
    raw[0] = raw[0] & np.uint64(0xFFFFFFFF00000000)
    assert _decode(raw, n, d, 0.7) is None


def test_forced_rejection_restores_the_generator():
    rng = _pcg64_about_to_output(0)
    assert rng.bit_generator.random_raw() == 0
    _assert_falls_back(lambda: _pcg64_about_to_output(0), 5, 3)
