"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS or FAIL
line so the suite output doubles as a checklist.  The expensive shared
datasets (static benchmark tables) are built once per module.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from dynswitch.analysis import (
    best_tau,
    build_ert_tables,
    build_vbs_reports,
    ert,
    gains,
    tau_summary,
    theoretical_performance,
)
from dynswitch.cli import cell_seed, main
from dynswitch.optimizers import Bfgs, OptimizerConfig, run_single
from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
from dynswitch.switching import SwitchPlan, run_switch, sweep_tau
from dynswitch.tracing import (
    DEFAULT_GRID,
    BudgetedEvaluator,
    StopRun,
    load_records,
)
from dynswitch.warmstart import (
    MODE_POINT_ONLY,
    WarmStartPolicy,
    extract,
    warmstart_cmaes_from_bfgs,
)

from conftest import FuncProblem

PHI = 1e-8
PHI_EXP = -8.0
ALGORITHMS = ("BFGS", "MLSL", "PSO", "CMA-ES", "DE")


@contextlib.contextmanager
def reported(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def bench_cell(algorithm, fid, dim, n_instances=5, n_runs=5,
               budget_mult=10_000):
    records = []
    for inst in range(1, n_instances + 1):
        problem = instantiate(ProblemId(fid, dim, inst), 0)
        for run in range(n_runs):
            seed = cell_seed(0, algorithm, fid, dim, inst, run)
            trace = run_single(OptimizerConfig(algorithm), problem,
                               budget=budget_mult * dim, final_target=PHI,
                               seed=seed, run_index=run)
            records.append(trace.to_record())
    return records


def switch_cell(a1, a2, tau, fid, dim, policy, n_instances=5, n_runs=5,
                budget_mult=10_000):
    plan = SwitchPlan(a1=OptimizerConfig(a1), a2=OptimizerConfig(a2),
                      tau=tau, phi=PHI, policy=policy)
    records = []
    for inst in range(1, n_instances + 1):
        problem = instantiate(ProblemId(fid, dim, inst), 0)
        for run in range(n_runs):
            seed = cell_seed(0, "switch", a1, a2, tau, fid, dim, inst, run)
            st = run_switch(plan, problem, budget=budget_mult * dim,
                            seed=seed, run_index=run)
            records.append(st.to_record())
    return records


def curve_ert(records, exponent=PHI_EXP):
    tables = build_ert_tables(records)
    (curve,) = tables.values()
    return curve[exponent][0]


@pytest.fixture(scope="module")
def portfolio_tables():
    """All five algorithms on the sphere in 2D, 25 runs each."""
    records = []
    for algorithm in ALGORITHMS:
        records.extend(bench_cell(algorithm, 1, 2))
    return build_ert_tables(records)


@pytest.fixture(scope="module")
def ill_conditioned_tables():
    """BFGS and CMA-ES on the two ellipsoid variants in 10D, 25 runs each."""
    records = []
    for fid in (10, 11):
        for algorithm in ("BFGS", "CMA-ES"):
            records.extend(bench_cell(algorithm, fid, 10))
    return build_ert_tables(records)


def all_measured_tables(portfolio_tables, ill_conditioned_tables):
    merged = dict(portfolio_tables)
    merged.update(ill_conditioned_tables)
    return merged


def test_criterion_01_ert_oracle_equivalence():
    with reported("criterion 1: ERT matches the brute-force oracle on 1000 "
                  "random run sets"):
        rng = np.random.default_rng(0)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            budget = int(rng.integers(50, 5000))
            runs = []
            for _ in range(n):
                consumed = int(rng.integers(1, budget + 1))
                if rng.random() < 0.6:
                    runs.append((float(rng.integers(1, consumed + 1)),
                                 consumed))
                else:
                    runs.append((math.inf, consumed))
            # independent oracle: integer arithmetic, one division at the end
            total = 0
            successes = 0
            for hit, consumed in runs:
                if math.isfinite(hit):
                    total += int(min(hit, budget))
                    successes += 1
                else:
                    total += min(consumed, budget)
            expected = float(total) / successes if successes else math.inf
            assert ert(runs, budget) == expected
        assert time.monotonic() - start < 1.0


def test_criterion_02_switch_identity(portfolio_tables,
                                      ill_conditioned_tables):
    with reported("criterion 2: switching an algorithm to itself equals its "
                  "plain ERT on every measured table"):
        tables = all_measured_tables(portfolio_tables, ill_conditioned_tables)
        assert tables
        for curve in tables.values():
            target = curve[PHI_EXP][0]
            for e in DEFAULT_GRID.exponents:
                if not e > PHI_EXP:
                    continue
                value = theoretical_performance(curve, curve, e, PHI_EXP)
                if math.isinf(target):
                    assert math.isinf(value)
                else:
                    assert abs(value - target) <= 1e-9


def test_criterion_03_vbs_dominance(portfolio_tables, ill_conditioned_tables):
    with reported("criterion 3: the dynamic virtual best never loses to the "
                  "static virtual best"):
        tables = all_measured_tables(portfolio_tables, ill_conditioned_tables)
        reports = build_vbs_reports(tables, PHI_EXP)
        assert reports
        for rep in reports:
            assert rep.dyn_theoretical_ert <= rep.static_ert


def test_criterion_04_problem_suite_correctness():
    with reported("criterion 4: planted optima, rotation orthogonality, and "
                  "transcription oracles across the whole suite"):
        for fid in IMPLEMENTED_FUNCTIONS:
            for dim in (2, 3, 5, 10, 20):
                for inst in range(1, 6):
                    p = instantiate(ProblemId(fid, dim, inst), 0)
                    assert abs(p.evaluate(p.x_opt) - p.f_opt) < 1e-12
                    for m in (p.rotation_R, p.rotation_Q):
                        assert np.max(np.abs(m @ m.T - np.eye(dim))) < 1e-10
        # direct transcription oracles at 100 random points each
        rng = np.random.default_rng(17)
        p1 = instantiate(ProblemId(1, 5, 2), 0)
        p8 = instantiate(ProblemId(8, 5, 2), 0)
        c = max(1.0, math.sqrt(5) / 8.0)
        for _ in range(100):
            x = rng.uniform(-5, 5, 5)
            sphere = float(np.sum((x - p1.x_opt) ** 2))
            assert p1.evaluate(x) == pytest.approx(sphere, rel=1e-10)
            z = c * (x - p8.x_opt) + 1.0
            rosen = float(np.sum(100.0 * (z[:-1] ** 2 - z[1:]) ** 2
                                 + (z[:-1] - 1.0) ** 2))
            assert p8.evaluate(x) == pytest.approx(rosen, rel=1e-10)


def test_criterion_05_optimizer_smoke_convergence(portfolio_tables):
    with reported("criterion 5: BFGS and CMA-ES solve the sphere reliably "
                  "and BFGS recovers the analytic inverse Hessian"):
        for algorithm in ("BFGS", "CMA-ES"):
            # 2D runs come from the shared portfolio dataset
            successes = portfolio_tables[(algorithm, 1, 2)][PHI_EXP][1]
            assert successes >= 24
            records = bench_cell(algorithm, 1, 5)
            tables = build_ert_tables(records)
            successes = tables[(algorithm, 1, 5)][PHI_EXP][1]
            assert successes >= 24
        # inverse-Hessian recovery on a convex quadratic; the protocol
        # takes the median over 5 starts because forward-difference
        # gradient noise makes single runs wobble around the target
        A = np.diag([4.0, 1.0])
        A_inv = np.linalg.inv(A)
        rels = []
        for seed in range(5):
            problem = FuncProblem(lambda x: 0.5 * float(x @ A @ x), 2)
            opt = Bfgs(2, np.random.default_rng(seed),
                       x0=np.random.default_rng(seed + 10).uniform(-3, 3, 2))
            ev = BudgetedEvaluator(problem, 100_000, stop_target=0.0)
            try:
                for _ in range(500):
                    if opt.finished:
                        break
                    opt.step(ev)
            except StopRun:
                pass
            rels.append(np.linalg.norm(opt.inv_hessian - A_inv)
                        / np.linalg.norm(A_inv))
        assert float(np.median(rels)) < 1e-3
        assert max(rels) < 5e-3


def test_criterion_06_warmstart_invariants():
    with reported("criterion 6: covariance transfer invariants (determinant, "
                  "alignment, step-size, sampling distribution)"):
        # build a genuinely trained BFGS state
        A = np.array([[3.0, 0.8], [0.8, 1.5]])
        problem = FuncProblem(lambda x: 0.5 * float(x @ A @ x), 2)
        opt = Bfgs(2, np.random.default_rng(0), x0=np.array([2.5, -1.5]))
        ev = BudgetedEvaluator(problem, 100_000, stop_target=0.0)
        try:
            for _ in range(200):
                if opt.finished:
                    break
                opt.step(ev)
        except StopRun:
            pass
        ws = extract(opt, ev.best_x, ev.best_f, ev.trace.evals_used)
        cma = warmstart_cmaes_from_bfgs(ws, WarmStartPolicy(),
                                        np.random.default_rng(1))
        assert abs(np.linalg.det(cma.C) - 1.0) <= 1e-8
        assert cma.sigma > 0
        # eigenvector alignment between the source model and the covariance
        _, vecs_h = np.linalg.eigh(ws.inv_hessian)
        _, vecs_c = np.linalg.eigh(cma.C)
        for i in range(2):
            cos = abs(float(vecs_h[:, i] @ vecs_c[:, i]))
            assert math.acos(min(cos, 1.0)) <= 1e-8
        # constant-step trajectory gives sigma equal to the step exactly
        from dynswitch.warmstart import _trajectory_sigma
        pts = [np.array([0.125 * k, 0.0]) for k in range(6, -1, -1)]
        assert _trajectory_sigma(pts, 10) == 0.125
        # Monte Carlo: 10^4 samples match sigma^2 C within 5%
        B, D = cma._sampling_transform()
        rng = np.random.default_rng(2)
        z = rng.standard_normal((10_000, 2))
        samples = cma.sigma * (z * D[None, :] @ B.T)
        emp = samples.T @ samples / samples.shape[0]
        expected = cma.sigma ** 2 * cma.C
        assert (np.linalg.norm(emp - expected)
                / np.linalg.norm(expected)) < 0.05


def test_criterion_07_warmstart_ordering_2d():
    with reported("criterion 7: full warm-start switch beats both static "
                  "CMA-ES and the point-only switch on F14 2D"):
        tau = 10.0 ** -5.4
        static_records = bench_cell("CMA-ES", 14, 2)
        static = curve_ert(static_records)
        full = curve_ert(switch_cell("BFGS", "CMA-ES", tau, 14, 2,
                                     WarmStartPolicy()))
        point = curve_ert(switch_cell("BFGS", "CMA-ES", tau, 14, 2,
                                      WarmStartPolicy(mode=MODE_POINT_ONLY)))
        assert full < static
        assert full < point
        _, actual_gain, _ = gains(static, full, full)
        assert actual_gain > 0.25


def test_criterion_08_ill_conditioned_gains(ill_conditioned_tables):
    with reported("criterion 8: BFGS to CMA-ES switching pays off on the "
                  "ill-conditioned ellipsoids in 10D"):
        for fid in (10, 11):
            bfgs_curve = ill_conditioned_tables[("BFGS", fid, 10)]
            cma_curve = ill_conditioned_tables[("CMA-ES", fid, 10)]
            tau_exp, _ = best_tau(bfgs_curve, cma_curve, PHI_EXP)
            assert tau_exp is not None
            actual = curve_ert(switch_cell("BFGS", "CMA-ES", 10.0 ** tau_exp,
                                           fid, 10, WarmStartPolicy()))
            static_bfgs = bfgs_curve[PHI_EXP][0]
            static_cma = cma_curve[PHI_EXP][0]
            static = min(static_bfgs, static_cma)
            gain = (static - actual) / static
            if gain <= 0.2:
                # fallback: the ordering must still hold
                assert actual < static_bfgs
                assert actual < static_cma
            else:
                assert gain > 0.2


def test_criterion_09_switching_point_regimes():
    with reported("criterion 9: late switching points beat very early ones "
                  "on F10 5D across the full grid sweep"):
        problems = [instantiate(ProblemId(10, 5, i), 0) for i in range(1, 6)]
        exps = [e for e in DEFAULT_GRID.exponents if e > PHI_EXP]
        records, failures = sweep_tau(
            OptimizerConfig("BFGS"), OptimizerConfig("CMA-ES"), problems,
            exps, runs_per_instance=5, phi=PHI, budget=50_000, seed=0,
        )
        assert failures == []
        header, rows = tau_summary(records, PHI_EXP)
        summary = [dict(zip(header, row)) for row in rows]
        means = {s["tau_exponent"]: s["mean"] for s in summary}
        late = [means[e] for e in means if -7.8 <= e <= -4.0]
        early = [means[e] for e in means if 1.0 <= e <= 2.0]
        assert late and early
        assert float(np.mean(late)) < float(np.mean(early))


class RecordingProblem:
    """Delegating wrapper that logs the precision of every evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.precisions = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, x):
        value = self.inner.evaluate(x)
        self.precisions.append(self.inner.precision(value))
        return value


def first_crossings(precisions):
    hits = {}
    best = math.inf
    for i, p in enumerate(precisions):
        if p < best:
            best = p
            for e, t in zip(DEFAULT_GRID.exponents, DEFAULT_GRID.targets):
                if p <= t and e not in hits:
                    hits[e] = i + 1
    return hits


def test_criterion_10_trace_invariants_under_fuzzing():
    with reported("criterion 10: trace invariants hold over 10^4 randomized "
                  "short runs"):
        rng = np.random.default_rng(123)
        fids = list(IMPLEMENTED_FUNCTIONS)
        checked_sequences = 0
        for i in range(10_000):
            fid = fids[rng.integers(len(fids))]
            dim = int(rng.choice([2, 3]))
            inst = int(rng.integers(1, 4))
            budget = int(rng.integers(50, 400))
            seed = int(rng.integers(0, 2 ** 32))
            problem = instantiate(ProblemId(fid, dim, inst), 0)
            record_sequence = i % 20 == 0
            if record_sequence:
                problem = RecordingProblem(problem)
            a1, a2 = rng.choice(ALGORITHMS, size=2, replace=False)
            if rng.random() < 0.5:
                trace = run_single(OptimizerConfig(a1), problem,
                                   budget=budget, final_target=PHI, seed=seed)
                switch_eval = None
            else:
                tau = 10.0 ** float(rng.uniform(-6, 2))
                plan = SwitchPlan(a1=OptimizerConfig(a1),
                                  a2=OptimizerConfig(a2), tau=tau, phi=PHI)
                st = run_switch(plan, problem, budget=budget, seed=seed)
                trace = st.trace
                switch_eval = st.switch_eval
            # budget conservation, also across the switch boundary
            assert trace.evals_used <= budget
            if switch_eval is not None:
                assert switch_eval <= trace.evals_used
            # hit_at monotone in target hardness, hits within the budget
            hits = [trace.hit_at[e] for e in DEFAULT_GRID.exponents
                    if e in trace.hit_at]
            assert hits == sorted(hits)
            assert all(1 <= h <= trace.evals_used for h in hits)
            if record_sequence:
                assert len(problem.precisions) == trace.evals_used
                assert trace.best_precision == min(problem.precisions)
                assert trace.hit_at == first_crossings(problem.precisions)
                # best-so-far at each hit really had crossed the target
                checked_sequences += 1
        assert checked_sequences >= 400


def test_criterion_11_bench_determinism(tmp_path):
    with reported("criterion 11: the bench command is byte-deterministic "
                  "under a fixed master seed"):
        payloads = []
        for name in ("one", "two"):
            out = tmp_path / name
            code = main([
                "bench", "--algorithms", "BFGS,CMA-ES,DE", "--functions",
                "1,10", "--dims", "2", "--runs", "2", "--instances", "1,2",
                "--budget-mult", "2000", "--seed", "7", "--out", str(out),
            ])
            assert code == 0
            payloads.append((out / "runs.jsonl").read_bytes())
        assert payloads[0] == payloads[1]
        records, skipped = load_records(tmp_path / "one" / "runs.jsonl")
        assert skipped == 0
        assert len(records) == 3 * 2 * 2 * 2
