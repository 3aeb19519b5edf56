import copy
from collections import deque

import numpy as np
import pytest

from dynswitch import warmstart
from dynswitch.optimizers import Bfgs, Cmaes, De, Mlsl, OptimizerConfig, Pso
from dynswitch.tracing import BudgetedEvaluator, StopRun
from dynswitch.warmstart import (
    DEFAULT_SIGMA,
    MODE_FULL,
    MODE_POINT_ONLY,
    WarmStartPolicy,
    WarmStartState,
    _trajectory_sigma,
    apply_warmstart,
    extract,
    unit_determinant,
    warmstart_cmaes_from_bfgs,
)

from conftest import FuncProblem


def default_policy(**kw):
    return WarmStartPolicy(**kw)


def run_a_little(opt, problem, budget=2000, steps=5):
    ev = BudgetedEvaluator(problem, budget, stop_target=0.0)
    try:
        for _ in range(steps):
            opt.step(ev)
    except StopRun:
        pass
    return ev


def sphere():
    return FuncProblem(lambda x: 1.0 + float(np.sum(x * x)), 2)


def test_policy_validation():
    with pytest.raises(ValueError):
        WarmStartPolicy(mode="bogus")
    with pytest.raises(ValueError):
        WarmStartPolicy(step_size_window=1)
    with pytest.raises(ValueError):
        WarmStartPolicy(hyperbox_radius=0.0)
    with pytest.raises(ValueError):
        WarmStartPolicy(hessian_scale=-1.0)


@pytest.mark.parametrize("field", ["hyperbox_radius", "hessian_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_policy_refuses_non_finite_scales(field, value):
    with pytest.raises(ValueError, match="must be finite and positive"):
        WarmStartPolicy(**{field: value})


def test_extract_requires_evaluations():
    opt = Bfgs(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        extract(opt, np.zeros(2), 1.0, 0)


@pytest.mark.parametrize("cls,fields", [
    (Bfgs, ("inv_hessian", "recent_trajectory")),
    (Cmaes, ("sigma", "covariance")),
    (Pso, ("population",)),
    (De, ("population",)),
])
def test_extract_carries_algorithm_fields(cls, fields):
    rng = np.random.default_rng(0)
    opt = cls(2, rng)
    ev = run_a_little(opt, sphere(), steps=3)
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    for f in fields:
        assert getattr(ws, f) is not None
    assert ws.best_value == ev.best_f


@pytest.mark.parametrize("cls", [Pso, De])
def test_extract_is_a_snapshot(cls):
    # several successors may be built from one extract, after A1 went on
    opt = cls(2, np.random.default_rng(0))
    ev = run_a_little(opt, sphere(), steps=2)
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    points, values = (a.copy() for a in ws.population)
    run_a_little(opt, sphere(), steps=3)
    assert np.array_equal(ws.population[0], points)
    assert np.array_equal(ws.population[1], values)
    # and A1 did move on
    moved = opt.pbest_positions if cls is Pso else opt.population
    assert not np.array_equal(moved, points)


def test_generic_transfer_carries_the_best_members_in_value_order():
    # ties keep their row order
    points = np.array([[float(i), 0.0] for i in range(6)])
    values = np.array([3.0, 1.0, np.inf, 1.0, 0.5, 2.0])
    ws = WarmStartState(best_point=points[4], best_value=0.5,
                        population=(points, values))
    de = apply_warmstart(
        ws, OptimizerConfig("DE", {"population_size": 4}),
        default_policy(), np.random.default_rng(0))
    assert np.array_equal(de.population, points[[4, 1, 3, 5]])


def test_extract_cmaes_omits_population():
    opt = Cmaes(2, np.random.default_rng(0))
    ev = run_a_little(opt, sphere(), steps=2)
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    assert ws.population is None


def test_trajectory_sigma_constant_steps():
    # equal 0.25 displacements should average to exactly 0.25
    pts = [np.array([0.25 * k, 0.0]) for k in range(8, -1, -1)]
    assert _trajectory_sigma(pts, 10) == pytest.approx(0.25)


def test_trajectory_sigma_window_limits_history():
    # one huge old step outside the window must not affect the average
    pts = [np.array([float(k), 0.0]) for k in range(3, -1, -1)]
    pts.append(np.array([-100.0, 0.0]))
    assert _trajectory_sigma(pts, 3) == pytest.approx(1.0)


def test_trajectory_sigma_fallbacks():
    assert _trajectory_sigma([], 10) == DEFAULT_SIGMA
    assert _trajectory_sigma([np.zeros(2)], 10) == DEFAULT_SIGMA
    same = [np.ones(2), np.ones(2)]
    assert _trajectory_sigma(same, 10) == DEFAULT_SIGMA


def test_unit_determinant_diagonal():
    m = unit_determinant(np.diag([4.0, 1.0]))
    assert np.allclose(m, np.diag([2.0, 0.5]))
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_unit_determinant_is_scale_invariant():
    base = np.array([[3.0, 1.0], [1.0, 2.0]])
    assert np.allclose(unit_determinant(base), unit_determinant(7.5 * base))


def test_cmaes_from_bfgs_full_transfer():
    H = np.diag([4.0, 1.0])
    ws_traj = [np.array([0.1 * k, 0.0]) for k in range(4, -1, -1)]
    ws = WarmStartState(
        best_point=np.array([0.4, 0.0]), best_value=1.0,
        inv_hessian=H, recent_trajectory=ws_traj,
    )
    opt = warmstart_cmaes_from_bfgs(ws, default_policy(), np.random.default_rng(0))
    assert np.allclose(opt.C, np.diag([2.0, 0.5]))
    assert opt.sigma == pytest.approx(0.1)
    assert np.array_equal(opt.mean, ws_traj[0])


def test_cmaes_from_bfgs_point_only():
    ws = WarmStartState(
        best_point=np.array([1.0, 2.0]), best_value=1.0,
        inv_hessian=np.diag([4.0, 1.0]),
        recent_trajectory=[np.array([9.0, 9.0])],
    )
    opt = apply_warmstart(ws, OptimizerConfig("CMA-ES"),
                          default_policy(mode=MODE_POINT_ONLY),
                          np.random.default_rng(0))
    assert np.array_equal(opt.mean, [1.0, 2.0])
    assert opt.sigma == DEFAULT_SIGMA
    assert np.allclose(opt.C, np.eye(2))


def test_cmaes_sampling_distribution_matches_transfer():
    # Monte Carlo check: samples drawn after the transfer have covariance
    # close to sigma^2 C
    H = np.array([[2.0, 0.6], [0.6, 1.0]])
    traj = [np.array([0.2 * k, 0.1 * k]) for k in range(5, -1, -1)]
    ws = WarmStartState(
        best_point=traj[0], best_value=1.0,
        inv_hessian=H, recent_trajectory=traj,
    )
    opt = warmstart_cmaes_from_bfgs(ws, default_policy(), np.random.default_rng(0))
    B, D = opt._sampling_transform()
    rng = np.random.default_rng(42)
    z = rng.standard_normal((10_000, 2))
    samples = opt.sigma * (z * D[None, :] @ B.T)
    emp = samples.T @ samples / samples.shape[0]
    expected = opt.sigma ** 2 * opt.C
    assert np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.05


def test_bfgs_from_cmaes_scaling():
    C = np.diag([2.0, 0.5])
    ws = WarmStartState(
        best_point=np.array([0.1, 0.2]), best_value=1.0,
        sigma=0.3, covariance=C,
    )
    policy = default_policy(hessian_scale=2.0)
    opt = apply_warmstart(ws, OptimizerConfig("BFGS"), policy,
                          np.random.default_rng(0))
    assert np.allclose(opt.inv_hessian, 2.0 * 0.3 ** 2 * C)
    assert np.array_equal(opt.x, [0.1, 0.2])
    point_only = apply_warmstart(ws, OptimizerConfig("BFGS"),
                                 default_policy(mode=MODE_POINT_ONLY),
                                 np.random.default_rng(0))
    assert np.allclose(point_only.inv_hessian, np.eye(2))


def test_hyperbox_population_geometry():
    # a source without a population: the swarm is all hyperbox draws
    best = np.array([2.0, -1.0])
    ws = WarmStartState(best_point=best, best_value=1.0)
    policy = default_policy(hyperbox_radius=0.25)
    pso = apply_warmstart(ws, OptimizerConfig("PSO"), policy,
                          np.random.default_rng(0))
    assert pso.positions.shape == (40, 2)
    assert np.any(np.all(pso.positions == best[None, :], axis=1))
    assert np.all(np.abs(pso.positions - best[None, :]) <= 0.25 + 1e-12)
    assert np.all(np.abs(pso.velocities) <= 0.25)
    de = apply_warmstart(ws, OptimizerConfig("DE"), policy,
                         np.random.default_rng(0))
    assert de.population.shape == (10, 2)
    assert np.any(np.all(de.population == best[None, :], axis=1))
    assert np.all(np.abs(de.population - best[None, :]) <= 0.25 + 1e-12)


def test_hyperbox_clips_at_domain_boundary():
    best = np.array([4.95, -4.95])
    ws = WarmStartState(best_point=best, best_value=1.0)
    policy = default_policy(hyperbox_radius=0.5)
    pso = apply_warmstart(ws, OptimizerConfig("PSO"), policy,
                          np.random.default_rng(0))
    assert np.all(pso.positions <= 5.0)
    assert np.all(pso.positions >= -5.0)


def test_cmaes_from_mlsl_is_mean_only():
    # MLSL's samples are not carried, so their spread cannot set sigma
    mlsl = Mlsl(2, np.random.default_rng(0))
    ev = run_a_little(mlsl, sphere(), steps=1)
    ws = extract(mlsl, ev.best_x, ev.best_f, ev.trace.evals_used)
    assert ws.population is None
    for mode in (MODE_FULL, MODE_POINT_ONLY):
        opt = apply_warmstart(ws, OptimizerConfig("CMA-ES"),
                              default_policy(mode=mode),
                              np.random.default_rng(0))
        assert np.array_equal(opt.mean, ev.best_x)
        assert opt.sigma == DEFAULT_SIGMA
        assert np.allclose(opt.C, np.eye(2))


def test_generic_population_transfer_keeps_best_point():
    pop = (np.array([[float(i), 0.0] for i in range(5)]), np.arange(5.0))
    ws = WarmStartState(best_point=np.array([0.0, 0.0]), best_value=0.0,
                        population=pop)
    de = apply_warmstart(ws, OptimizerConfig("DE"), default_policy(),
                         np.random.default_rng(0))
    assert de.population.shape == (10, 2)
    assert np.any(np.all(de.population == 0.0, axis=1))
    pso = apply_warmstart(ws, OptimizerConfig("PSO"), default_policy(),
                          np.random.default_rng(0))
    # carried members start at rest, padded ones get hyperbox velocities
    assert np.all(pso.velocities[:5] == 0.0)


def test_generic_transfer_into_mlsl_seeds_best_point():
    ws = WarmStartState(best_point=np.array([1.0, -2.0]), best_value=3.0)
    opt = apply_warmstart(ws, OptimizerConfig("MLSL"),
                          default_policy(), np.random.default_rng(0))
    assert np.array_equal(opt.sample_points, [[1.0, -2.0]])
    assert opt.sample_values[0] == 3.0


def test_no_evaluations_during_transfer():
    calls = {"n": 0}

    def counting(x):
        calls["n"] += 1
        return 1.0 + float(np.sum(x * x))

    problem = FuncProblem(counting, 2)
    opt = Cmaes(2, np.random.default_rng(0))
    ev = run_a_little(opt, problem, steps=3)
    before = calls["n"]
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    apply_warmstart(ws, OptimizerConfig("BFGS"),
                    default_policy(), np.random.default_rng(1))
    assert calls["n"] == before


def test_full_transfer_beats_point_only_after_bfgs():
    # paired experiment on an ill-conditioned quadratic: the curvature-informed
    # start should beat a plain restart from the same point on every seed
    A = np.diag([10.0 ** i for i in range(5)])
    problem = FuncProblem(lambda x: 0.5 * float(x @ A @ x) + 1.0, 5, f_opt=1.0)

    warm_costs, cold_costs = [], []
    for seed in range(5):
        b = Bfgs(5, np.random.default_rng(seed))
        ev = BudgetedEvaluator(problem, 5000, stop_target=0.0)
        try:
            for _ in range(60):
                if b.finished:
                    break
                b.step(ev)
        except StopRun:
            pass
        ws = extract(b, ev.best_x, ev.best_f, ev.trace.evals_used)
        for bucket, policy in (
            (warm_costs, default_policy()),
            (cold_costs, default_policy(mode=MODE_POINT_ONLY)),
        ):
            c = apply_warmstart(ws, OptimizerConfig("CMA-ES"),
                                policy, np.random.default_rng(seed))
            ev2 = BudgetedEvaluator(problem, 100_000, stop_target=1e-9)
            try:
                while not c.finished:
                    c.step(ev2)
            except StopRun:
                pass
            bucket.append(ev2.trace.evals_used)
    assert np.mean(warm_costs) < np.mean(cold_costs)


def test_a2_overrides_apply_and_warm_state_wins():
    best = np.array([1.5, 0.5])
    ws = WarmStartState(best_point=best, best_value=1.0,
                        population=(best[None, :], np.array([1.0])))
    # a config holds no starting state (mean, x0): only sigma can clash
    cma = apply_warmstart(
        ws, OptimizerConfig("CMA-ES", {"population_size": 12,
                                       "sigma": 3.0}),
        default_policy(), np.random.default_rng(0))
    assert cma.lam == 12
    assert np.array_equal(cma.mean, best) and cma.sigma == DEFAULT_SIGMA
    bfgs = apply_warmstart(
        ws, OptimizerConfig("BFGS", {"gradient_tolerance": 1e-3}),
        default_policy(), np.random.default_rng(0))
    assert bfgs.gradient_tolerance == 1e-3 and np.array_equal(bfgs.x, best)
    # population sizes follow the overrides, with members carried or not
    for state in (ws, WarmStartState(best_point=best, best_value=1.0)):
        de = apply_warmstart(
            state, OptimizerConfig("DE", {"population_size": 7}),
            default_policy(), np.random.default_rng(0))
        pso = apply_warmstart(
            state, OptimizerConfig("PSO", {"swarm_size": 9}),
            default_policy(), np.random.default_rng(0))
        assert de.population.shape == (7, 2)
        assert pso.positions.shape == (9, 2)


ALGORITHMS = {"BFGS": Bfgs, "CMA-ES": Cmaes, "PSO": Pso, "DE": De, "MLSL": Mlsl}


def _start_state(opt):
    """``opt``'s type and attributes: arrays by their bytes, the generator by
    its state, so two optimizers compare equal when they start alike."""
    state = {}
    for name, value in vars(opt).items():
        if isinstance(value, np.random.Generator):
            value = value.bit_generator.state
        elif isinstance(value, np.ndarray):
            value = (value.shape, value.tobytes())
        elif isinstance(value, deque):
            value = [p.tobytes() for p in value]
        state[name] = value
    return type(opt), state


@pytest.mark.parametrize("source", ALGORITHMS)
def test_mode_changes_only_the_model_transfers(source):
    opt = ALGORITHMS[source](2, np.random.default_rng(0))
    ev = run_a_little(opt, sphere(), steps=3)
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    # A -> A hands over no model either
    for target in ALGORITHMS:
        full, point_only = (
            _start_state(apply_warmstart(ws, OptimizerConfig(target),
                                         default_policy(mode=mode),
                                         np.random.default_rng(1)))
            for mode in (MODE_FULL, MODE_POINT_ONLY))
        model_transfer = (source, target) in (("BFGS", "CMA-ES"),
                                              ("CMA-ES", "BFGS"))
        assert (full != point_only) == model_transfer, (source, target)


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_POINT_ONLY])
@pytest.mark.parametrize("target", ALGORITHMS)
@pytest.mark.parametrize("source", ALGORITHMS)
def test_a2_is_what_make_optimizer_built(source, target, mode, monkeypatch):
    # make_optimizer builds A2 from its whole start state: nothing is set on
    # the optimizer after it returns
    opt = ALGORITHMS[source](2, np.random.default_rng(0))
    ev = run_a_little(opt, sphere(), steps=3)
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    built, make = [], warmstart.make_optimizer

    def spy(*args, **kwargs):
        a2 = make(*args, **kwargs)
        built.append((a2, copy.deepcopy(_start_state(a2))))
        return a2

    monkeypatch.setattr(warmstart, "make_optimizer", spy)
    a2 = apply_warmstart(ws, OptimizerConfig(target),
                         default_policy(mode=mode), np.random.default_rng(1))
    [(made, state)] = built
    assert a2 is made
    assert _start_state(a2) == state
