"""Whole DE runs against a frozen copy of its trial-by-trial step, bit for bit.

``De.step`` draws a generation's random numbers before its first trial.
The reference below is the step that drew them trial by trial.  Static
runs, and DE as A2 after a switch, must end with the same evaluations,
target hits, termination and best precision, to the last bit.
"""

import numpy as np
import pytest

from dynswitch.optimizers import OptimizerConfig, run_single
from dynswitch.optimizers.de import SCALE_HIGH, SCALE_LOW, De, crossover_mask
from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
from dynswitch.switching import SwitchPlan, run_switch

DIMS = (2, 3, 5, 10, 20)
BUDGET_MULT = 200


# --- frozen reference step ---------------------------------------------------

def ref_step(self, ev):
    if self.finished:
        return
    n, d = self.population.shape
    if not self._evaluated_once:
        for i in range(n):
            self.values[i] = ev(self.population[i])
        self._evaluated_once = True
        self._check_convergence()
        return
    scale = self.rng.uniform(SCALE_LOW, SCALE_HIGH)
    best = self.population[self.best_index]
    for i in range(n):
        candidates = [j for j in range(n) if j != i]
        r1, r2 = self.rng.choice(candidates, size=2, replace=False)
        mutant = best + scale * (self.population[r1] - self.population[r2])
        cross = crossover_mask(self.rng, d, self.crossover_rate)
        trial = np.where(cross, mutant, self.population[i])
        f = ev(trial)
        if f <= self.values[i]:
            self.population[i] = trial
            self.values[i] = f
    self._check_convergence()


# --- comparison ----------------------------------------------------------------

def _outcome(record):
    return (record["evals_used"], record["hit_at"],
            record["terminated_reason"], record.get("switch_eval"),
            float.hex(record["best_precision"]))


def _assert_same_runs(run, monkeypatch):
    """``run()`` gives a list of records; compare them with the reference."""
    got = [_outcome(r) for r in run()]
    with monkeypatch.context() as patch:
        patch.setattr(De, "step", ref_step)
        want = [_outcome(r) for r in run()]
    assert got == want
    return got


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_static_runs_match_reference_bits(fid, monkeypatch):
    def run():
        return [run_single(OptimizerConfig("DE"),
                           instantiate(ProblemId(fid, dim, 1), 0),
                           budget=BUDGET_MULT * dim, seed=fid * 100 + dim)
                .to_record() for dim in DIMS]

    _assert_same_runs(run, monkeypatch)


@pytest.mark.parametrize("a1", ("MLSL", "PSO"))
def test_de_as_a2_matches_reference_bits(a1, monkeypatch):
    plan = SwitchPlan(a1=OptimizerConfig(a1), a2=OptimizerConfig("DE"), tau=1.0)

    def run():
        return [run_switch(plan, instantiate(ProblemId(fid, dim, 1), 0),
                           budget=BUDGET_MULT * dim, seed=seed).to_record()
                for fid in (1, 8, 10, 21) for dim in (2, 5) for seed in (0, 1)]

    outcomes = _assert_same_runs(run, monkeypatch)
    assert any(switch_eval is not None for _, _, _, switch_eval, _ in outcomes)
