"""Whole BFGS runs against a frozen copy of its step, bit for bit.

``Bfgs.step`` spells its products ``ndarray.dot`` and its norms as the
expressions ``np.linalg.norm`` evaluates.  The reference below is the step
that used the ``@`` operator and called ``np.linalg.norm``.  Static runs,
and BFGS as A2 after a switch from CMA-ES, must end with the same
evaluations, target hits, termination and best precision, and with the
same bytes of the iterate and the inverse Hessian.
"""

from functools import partial

import numpy as np
import pytest

from dynswitch.linalg import symmetrize
from dynswitch.optimizers import OptimizerConfig, run_single
from dynswitch.optimizers import bfgs
from dynswitch.optimizers.bfgs import Bfgs, finite_difference_gradient
from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
from dynswitch.switching import SwitchPlan, run_switch
from dynswitch.warmstart import MODE_FULL, MODE_POINT_ONLY, WarmStartPolicy

DIMS = (2, 5, 10, 20)
SEEDS = (0, 1)
BUDGET_MULT = 200


# --- frozen reference step ---------------------------------------------------

def ref_step(self, ev):
    if self.finished:
        return
    if self.f is None:
        self.f = ev(self.x)
    if self.grad is None:
        self.grad = finite_difference_gradient(ev, self.x, self.f)
    if np.linalg.norm(self.grad, ord=np.inf) <= self.gradient_tolerance:
        self._restore_saved_model()
        self.finished = True
        return
    direction = -self.inv_hessian @ self.grad
    if self._old_old_fval is None:
        self._old_old_fval = self.f + float(np.linalg.norm(self.grad)) / 2.0
    alpha, f_new, g_new = bfgs.line_search_wolfe2(
        ev, partial(finite_difference_gradient, ev), self.x, direction,
        self.grad, self.f, self._old_old_fval,
        c1=bfgs.WOLFE_C1, c2=bfgs.WOLFE_C2, maxiter=30,
    )
    if alpha is None:
        if self._had_line_search_failure:
            self._restore_saved_model()
            self.finished = True
            return
        self._had_line_search_failure = True
        if self._model_before_reset is None:
            self._model_before_reset = self.inv_hessian
            self._grad_norm_at_reset = float(np.linalg.norm(self.grad))
        self.inv_hessian = np.eye(self.dim)
        self._old_old_fval = None
        return
    self._had_line_search_failure = False
    self._old_old_fval = self.f
    x_new = self.x + alpha * direction
    if g_new is None:
        g_new = finite_difference_gradient(ev, x_new, f_new)
    s = x_new - self.x
    y = g_new - self.grad
    sy = float(s @ y)
    if sy > 1e-8 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
        rho = 1.0 / sy
        eye = np.eye(self.dim)
        left = eye - rho * np.outer(s, y)
        self.inv_hessian = symmetrize(
            left @ self.inv_hessian @ left.T + rho * np.outer(s, s)
        )
    self.x = x_new
    self.f = f_new
    self.grad = g_new
    self.recent_points.appendleft(self.x.copy())
    if (self._model_before_reset is not None
            and float(np.linalg.norm(g_new)) < 0.1 * self._grad_norm_at_reset):
        self._model_before_reset = None


# --- comparison ----------------------------------------------------------------

def _outcome(record):
    return (record["evals_used"], record["hit_at"],
            record["terminated_reason"], record.get("switch_eval"),
            float.hex(record["best_precision"]))


def _state(opt):
    return (opt.x.tobytes(), opt.inv_hessian.tobytes(), opt.finished,
            len(opt.recent_points))


def _outcomes_and_states(run, patch, step):
    """Records of ``run()`` and the final state of every BFGS it stepped."""
    stepped = []

    def recording_step(self, ev):
        if not stepped or stepped[-1] is not self:
            stepped.append(self)
        return step(self, ev)

    patch.setattr(Bfgs, "step", recording_step)
    outcomes = [_outcome(r) for r in run()]
    return outcomes, [_state(opt) for opt in stepped]


def _assert_same_runs(run, monkeypatch):
    """``run()`` gives a list of records; compare them with the reference."""
    with monkeypatch.context() as patch:
        got = _outcomes_and_states(run, patch, Bfgs.step)
    with monkeypatch.context() as patch:
        want = _outcomes_and_states(run, patch, ref_step)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[1], "no BFGS was stepped"
    return got[0]


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_static_runs_match_reference_bits(fid, monkeypatch):
    def run():
        return [run_single(OptimizerConfig("BFGS"),
                           instantiate(ProblemId(fid, dim, 1), 0),
                           budget=BUDGET_MULT * dim, seed=fid * 100 + dim + seed)
                .to_record() for dim in DIMS for seed in SEEDS]

    _assert_same_runs(run, monkeypatch)


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_POINT_ONLY])
def test_bfgs_as_a2_matches_reference_bits(mode, monkeypatch):
    plan = SwitchPlan(a1=OptimizerConfig("CMA-ES"), a2=OptimizerConfig("BFGS"),
                      tau=1.0, policy=WarmStartPolicy(mode=mode))

    def run():
        return [run_switch(plan, instantiate(ProblemId(fid, dim, 1), 0),
                           budget=BUDGET_MULT * dim, seed=seed).to_record()
                for fid in (1, 8, 10, 21) for dim in (2, 5) for seed in SEEDS]

    outcomes = _assert_same_runs(run, monkeypatch)
    assert any(switch_eval is not None for _, _, _, switch_eval, _ in outcomes)
