import numpy as np
import pytest

from dynswitch.optimizers import Bfgs, Cmaes, De, Mlsl, Pso
from dynswitch.tracing import BudgetedEvaluator, StopRun
from dynswitch.warmstart import (
    DEFAULT_SIGMA,
    MODE_POINT_ONLY,
    WarmStartPolicy,
    _trajectory_sigma,
    apply_warmstart,
    extract,
    unit_determinant,
    warmstart_bfgs_from_cmaes,
    warmstart_cmaes_from_bfgs,
    warmstart_cmaes_from_mlsl,
    warmstart_population_from_mlsl,
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


def test_extract_requires_evaluations():
    opt = Bfgs(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        extract(opt, np.zeros(2), 1.0, 0)


@pytest.mark.parametrize("cls,fields", [
    (Bfgs, ("inv_hessian", "recent_trajectory")),
    (Cmaes, ("mean", "sigma", "covariance")),
    (Pso, ("population",)),
    (De, ("population",)),
    (Mlsl, ("population",)),
])
def test_extract_carries_algorithm_fields(cls, fields):
    rng = np.random.default_rng(0)
    opt = cls(2, rng)
    ev = run_a_little(opt, sphere(), steps=3)
    ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
    for f in fields:
        assert getattr(ws, f) is not None
    assert ws.evaluations_spent == ev.trace.evals_used
    assert ws.best_value == ev.best_f


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
    from dynswitch.warmstart import WarmStartState
    ws = WarmStartState(
        best_point=np.array([0.4, 0.0]), best_value=1.0, evaluations_spent=50,
        inv_hessian=H, recent_trajectory=ws_traj,
    )
    opt = warmstart_cmaes_from_bfgs(ws, default_policy(), np.random.default_rng(0))
    assert np.allclose(opt.C, np.diag([2.0, 0.5]))
    assert opt.sigma == pytest.approx(0.1)
    assert np.array_equal(opt.mean, ws_traj[0])


def test_cmaes_from_bfgs_point_only():
    from dynswitch.warmstart import WarmStartState
    ws = WarmStartState(
        best_point=np.array([1.0, 2.0]), best_value=1.0, evaluations_spent=50,
        inv_hessian=np.diag([4.0, 1.0]),
        recent_trajectory=[np.array([9.0, 9.0])],
    )
    opt = warmstart_cmaes_from_bfgs(
        ws, default_policy(mode=MODE_POINT_ONLY), np.random.default_rng(0))
    assert np.array_equal(opt.mean, [1.0, 2.0])
    assert opt.sigma == DEFAULT_SIGMA
    assert np.allclose(opt.C, np.eye(2))


def test_cmaes_sampling_distribution_matches_transfer():
    # Monte Carlo check: samples drawn after the transfer have covariance
    # close to sigma^2 C
    H = np.array([[2.0, 0.6], [0.6, 1.0]])
    from dynswitch.warmstart import WarmStartState
    traj = [np.array([0.2 * k, 0.1 * k]) for k in range(5, -1, -1)]
    ws = WarmStartState(
        best_point=traj[0], best_value=1.0, evaluations_spent=10,
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
    from dynswitch.warmstart import WarmStartState
    C = np.diag([2.0, 0.5])
    ws = WarmStartState(
        best_point=np.array([0.1, 0.2]), best_value=1.0, evaluations_spent=20,
        mean=np.zeros(2), sigma=0.3, covariance=C,
    )
    policy = default_policy(hessian_scale=2.0)
    opt = warmstart_bfgs_from_cmaes(ws, policy, np.random.default_rng(0))
    assert np.allclose(opt.inv_hessian, 2.0 * 0.3 ** 2 * C)
    assert np.array_equal(opt.x, [0.1, 0.2])
    point_only = warmstart_bfgs_from_cmaes(
        ws, default_policy(mode=MODE_POINT_ONLY), np.random.default_rng(0))
    assert np.allclose(point_only.inv_hessian, np.eye(2))


def test_hyperbox_population_geometry():
    from dynswitch.warmstart import WarmStartState
    best = np.array([2.0, -1.0])
    ws = WarmStartState(best_point=best, best_value=1.0, evaluations_spent=5,
                        population=[(best, 1.0)])
    policy = default_policy(hyperbox_radius=0.25)
    pso = warmstart_population_from_mlsl(ws, policy, "PSO",
                                         np.random.default_rng(0))
    assert pso.positions.shape == (40, 2)
    assert np.array_equal(pso.positions[0], best)
    assert np.all(np.abs(pso.positions - best[None, :]) <= 0.25 + 1e-12)
    assert np.all(np.abs(pso.velocities) <= 0.25)
    de = warmstart_population_from_mlsl(ws, policy, "DE",
                                        np.random.default_rng(0))
    assert de.population.shape == (10, 2)
    assert np.all(np.abs(de.population - best[None, :]) <= 0.25 + 1e-12)


def test_hyperbox_clips_at_domain_boundary():
    from dynswitch.warmstart import WarmStartState
    best = np.array([4.95, -4.95])
    ws = WarmStartState(best_point=best, best_value=1.0, evaluations_spent=5)
    policy = default_policy(hyperbox_radius=0.5)
    pso = warmstart_population_from_mlsl(ws, policy, "PSO",
                                         np.random.default_rng(0))
    assert np.all(pso.positions <= 5.0)
    assert np.all(pso.positions >= -5.0)


def test_cmaes_from_mlsl_is_mean_only():
    from dynswitch.warmstart import WarmStartState
    ws = WarmStartState(best_point=np.array([1.5, 0.5]), best_value=1.0,
                        evaluations_spent=5)
    opt = warmstart_cmaes_from_mlsl(ws, np.random.default_rng(0))
    assert np.array_equal(opt.mean, [1.5, 0.5])
    assert opt.sigma == DEFAULT_SIGMA
    assert np.allclose(opt.C, np.eye(2))


def test_generic_population_transfer_keeps_best_point():
    from dynswitch.warmstart import WarmStartState
    pop = [(np.array([float(i), 0.0]), float(i)) for i in range(5)]
    ws = WarmStartState(best_point=np.array([0.0, 0.0]), best_value=0.0,
                        evaluations_spent=5, population=pop)
    de = apply_warmstart(ws, "PSO", "DE", default_policy(),
                         np.random.default_rng(0))
    assert de.population.shape == (10, 2)
    assert np.any(np.all(de.population == 0.0, axis=1))
    pso = apply_warmstart(ws, "DE", "PSO", default_policy(),
                          np.random.default_rng(0))
    # carried members start at rest, padded ones get hyperbox velocities
    assert np.all(pso.velocities[:5] == 0.0)


def test_generic_transfer_into_mlsl_seeds_best_point():
    from dynswitch.warmstart import WarmStartState
    ws = WarmStartState(best_point=np.array([1.0, -2.0]), best_value=3.0,
                        evaluations_spent=9)
    opt = apply_warmstart(ws, "CMA-ES", "MLSL", default_policy(),
                          np.random.default_rng(0))
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
    apply_warmstart(ws, "CMA-ES", "BFGS", default_policy(),
                    np.random.default_rng(1))
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
            c = warmstart_cmaes_from_bfgs(ws, policy, np.random.default_rng(seed))
            ev2 = BudgetedEvaluator(problem, 100_000, stop_target=1e-9)
            try:
                while not c.finished:
                    c.step(ev2)
            except StopRun:
                pass
            bucket.append(ev2.trace.evals_used)
    assert np.mean(warm_costs) < np.mean(cold_costs)


def test_a2_overrides_apply_and_warm_state_wins():
    from dynswitch.warmstart import WarmStartState
    best = np.array([1.5, 0.5])
    ws = WarmStartState(best_point=best, best_value=1.0, evaluations_spent=5,
                        population=[(best, 1.0)])
    cma = apply_warmstart(ws, "MLSL", "CMA-ES", default_policy(),
                          np.random.default_rng(0),
                          overrides={"population_size": 12,
                                     "mean": np.zeros(2), "sigma": 3.0})
    assert cma.lam == 12
    assert np.array_equal(cma.mean, best) and cma.sigma == DEFAULT_SIGMA
    bfgs = apply_warmstart(ws, "PSO", "BFGS", default_policy(),
                           np.random.default_rng(0),
                           overrides={"gradient_tolerance": 1e-3,
                                      "x0": np.zeros(2)})
    assert bfgs.gradient_tolerance == 1e-3 and np.array_equal(bfgs.x, best)
    # population sizes follow the overrides, for the hyperbox and the
    # generic transfer alike
    for source in ("MLSL", "CMA-ES"):
        de = apply_warmstart(ws, source, "DE", default_policy(),
                             np.random.default_rng(0),
                             overrides={"population_size": 7})
        pso = apply_warmstart(ws, source, "PSO", default_policy(),
                              np.random.default_rng(0),
                              overrides={"swarm_size": 9})
        assert de.population.shape == (7, 2)
        assert pso.positions.shape == (9, 2)
