"""Whole CMA-ES runs against a frozen copy of its inline-arithmetic step, bit for bit.

``Cmaes.step`` computes its constants once per instance, samples in place
and decomposes ``C`` through ``linalg.eigh``.  The reference below is the
step that computed every constant inline and called ``np.linalg.eigh``.
Static runs, and CMA-ES as A2 after a switch, must end with the same
evaluations, target hits, termination and best precision, and with the
same bytes of mean, covariance, evolution paths and step size.
"""

import math

import numpy as np
import pytest

from dynswitch.linalg import repair_spd, symmetrize
from dynswitch.optimizers import OptimizerConfig, run_single
from dynswitch.optimizers.cmaes import Cmaes
from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
from dynswitch.switching import SwitchPlan, run_switch
from dynswitch.warmstart import MODE_FULL, MODE_POINT_ONLY, WarmStartPolicy

DIMS = (2, 5, 10, 20)
SEEDS = (0, 1)
BUDGET_MULT = 200


# --- frozen reference step ---------------------------------------------------

def ref_sampling_transform(self):
    vals, vecs = np.linalg.eigh(self.C)
    if vals[0] <= 0:
        self.C = repair_spd(self.C, warn_context="CMA-ES covariance")
        vals, vecs = np.linalg.eigh(self.C)
    return vecs, np.sqrt(vals)


def ref_step(self, ev):
    if self.finished:
        return
    B, D = self._sampling_transform()
    z = self.rng.standard_normal((self.lam, self.dim))
    y = z * D[None, :] @ B.T  # rows: B D z_k
    xs = self.mean[None, :] + self.sigma * y
    fs = np.array([ev(x) for x in xs])
    order = np.argsort(fs, kind="stable")
    y_sel = y[order[: self.mu]]
    y_bar = self.weights @ y_sel
    self.mean = self.mean + self.sigma * y_bar

    inv_sqrt_y = B @ ((B.T @ y_bar) / D)
    self.p_sigma = (1.0 - self.c_sigma) * self.p_sigma + math.sqrt(
        self.c_sigma * (2.0 - self.c_sigma) * self.mueff
    ) * inv_sqrt_y
    self.generation += 1
    ps_norm = math.sqrt(self.p_sigma.dot(self.p_sigma))
    denom = math.sqrt(
        1.0 - (1.0 - self.c_sigma) ** (2.0 * self.generation)
    )
    h_sigma = ps_norm / denom / self.chi_n < 1.4 + 2.0 / (self.dim + 1.0)
    self.p_c = (1.0 - self.c_c) * self.p_c + (
        math.sqrt(self.c_c * (2.0 - self.c_c) * self.mueff) * y_bar
        if h_sigma
        else 0.0
    )
    rank_mu = (y_sel * self.weights[:, None]).T @ y_sel
    correction = (1.0 - h_sigma) * self.c_c * (2.0 - self.c_c)
    self.C = symmetrize(
        (1.0 - self.c_1 - self.c_mu) * self.C
        + self.c_1 * (self.p_c[:, None] * self.p_c + correction * self.C)
        + self.c_mu * rank_mu
    )
    self.sigma *= math.exp(
        (self.c_sigma / self.d_sigma) * (ps_norm / self.chi_n - 1.0)
    )
    if not np.isfinite(self.sigma) or self.sigma < 1e-30:
        self.finished = True


@pytest.mark.parametrize("population_size", (None, 2, 3, 12, 50))
def test_constants_equal_the_inline_expressions(population_size):
    # a 1-ulp change of the h_sigma threshold rarely flips a comparison
    # within a run, so every constant is also checked on its own
    for dim in range(2, 41):
        opt = Cmaes(dim, np.random.default_rng(0),
                    population_size=population_size)
        cs, cc, mueff = opt.c_sigma, opt.c_c, opt.mueff
        got = (opt._ps_coef, opt._pc_coef, opt._sigma_rate, opt._c_keep,
               opt._h_threshold)
        want = (math.sqrt(cs * (2.0 - cs) * mueff),
                math.sqrt(cc * (2.0 - cc) * mueff),
                cs / opt.d_sigma, 1.0 - opt.c_1 - opt.c_mu,
                1.4 + 2.0 / (opt.dim + 1.0))
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
        assert opt._weight_col.tobytes() == opt.weights[:, None].tobytes()


# --- comparison ----------------------------------------------------------------

def _outcome(record):
    return (record["evals_used"], record["hit_at"],
            record["terminated_reason"], record.get("switch_eval"),
            float.hex(record["best_precision"]))


def _state(opt):
    return (opt.generation, opt.mean.tobytes(), opt.C.tobytes(),
            opt.p_sigma.tobytes(), opt.p_c.tobytes(), float.hex(opt.sigma))


def _outcomes_and_states(run, patch, step):
    """Records of ``run()`` and the final state of every CMA-ES it stepped."""
    stepped = []

    def recording_step(self, ev):
        if not stepped or stepped[-1] is not self:
            stepped.append(self)
        return step(self, ev)

    patch.setattr(Cmaes, "step", recording_step)
    outcomes = [_outcome(r) for r in run()]
    return outcomes, [_state(opt) for opt in stepped]


def _assert_same_runs(run, monkeypatch):
    """``run()`` gives a list of records; compare them with the reference."""
    with monkeypatch.context() as patch:
        got = _outcomes_and_states(run, patch, Cmaes.step)
    with monkeypatch.context() as patch:
        patch.setattr(Cmaes, "_sampling_transform", ref_sampling_transform)
        want = _outcomes_and_states(run, patch, ref_step)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[1], "no CMA-ES was stepped"
    return got[0]


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_static_runs_match_reference_bits(fid, monkeypatch):
    def run():
        return [run_single(OptimizerConfig("CMA-ES"),
                           instantiate(ProblemId(fid, dim, 1), 0),
                           budget=BUDGET_MULT * dim, seed=fid * 100 + dim + seed)
                .to_record() for dim in DIMS for seed in SEEDS]

    _assert_same_runs(run, monkeypatch)


@pytest.mark.parametrize("a1, mode", [
    ("BFGS", MODE_FULL), ("BFGS", MODE_POINT_ONLY),
    ("MLSL", MODE_FULL), ("PSO", MODE_FULL), ("DE", MODE_FULL),
])
def test_cmaes_as_a2_matches_reference_bits(a1, mode, monkeypatch):
    plan = SwitchPlan(a1=OptimizerConfig(a1), a2=OptimizerConfig("CMA-ES"),
                      tau=1.0, policy=WarmStartPolicy(mode=mode))

    def run():
        return [run_switch(plan, instantiate(ProblemId(fid, dim, 1), 0),
                           budget=BUDGET_MULT * dim, seed=seed).to_record()
                for fid in (1, 8, 10, 21) for dim in (2, 5) for seed in SEEDS]

    outcomes = _assert_same_runs(run, monkeypatch)
    assert any(switch_eval is not None for _, _, _, switch_eval, _ in outcomes)
