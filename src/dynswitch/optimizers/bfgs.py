"""Quasi-Newton BFGS with finite-difference gradients and Wolfe line search.

Gradients are forward differences (d extra evaluations per gradient call);
the line search enforces strong Wolfe conditions.  Every iterate, most
recent first, and the running inverse-Hessian approximation are kept public
so a successor algorithm can be warm-started from them.  No restart
heuristics: after a second consecutive line-search failure the optimizer
terminates.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from ..linalg import symmetrize
from ..problems import DOMAIN_HIGH, DOMAIN_LOW
from .base import Optimizer
from .local_search import line_search_wolfe2

GRADIENT_TOLERANCE = 1e-10
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def finite_difference_gradient(ev, x, f_x=None):
    """Forward-difference gradient; h_i = sqrt(eps) * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    if f_x is None:
        f_x = ev(x)
    g = np.empty_like(x)
    for i, x_i in enumerate(x.tolist()):
        h = SQRT_EPS * max(1.0, abs(x_i))
        xp = x.copy()
        xp[i] = x_i + h
        g[i] = (ev(xp) - f_x) / h
    return g


class Bfgs(Optimizer):
    def __init__(self, dim, rng, gradient_tolerance=GRADIENT_TOLERANCE, *,
                 x0=None, inv_hessian=None):
        super().__init__(dim, rng)
        if x0 is None:
            x0 = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, size=dim)
        self.x = np.asarray(x0, dtype=float)
        self.f = None
        self.grad = None
        self.inv_hessian = (
            np.eye(dim) if inv_hessian is None
            else symmetrize(np.asarray(inv_hessian, dtype=float))
        )
        if not 0 <= gradient_tolerance < np.inf:
            raise ValueError(f"BFGS gradient_tolerance must be finite and >= 0, "
                             f"got {gradient_tolerance}")
        self.gradient_tolerance = gradient_tolerance
        # every iterate, most recent first: copies that nothing writes to
        self.recent_points = deque([self.x.copy()])
        self._had_line_search_failure = False
        self._old_old_fval = None
        self._model_before_reset = None
        self._grad_norm_at_reset = 0.0

    def _restore_saved_model(self):
        # a pending identity-reset never paid off: the learned model from
        # before the reset is the better curvature estimate to hand over
        if self._model_before_reset is not None:
            self.inv_hessian = self._model_before_reset
            self._model_before_reset = None

    def step(self, ev):
        if self.f is None:
            self.f = ev(self.x)
        if self.grad is None:
            self.grad = finite_difference_gradient(ev, self.x, self.f)
        if np.abs(self.grad).max() <= self.gradient_tolerance:
            self._restore_saved_model()
            self.finished = True
            return
        direction = (-self.inv_hessian).dot(self.grad)
        if self._old_old_fval is None:
            # seeds the initial step guess at roughly 1/|g|, as in the
            # reference quasi-Newton implementations
            self._old_old_fval = self.f + float(np.sqrt(self.grad.dot(self.grad))) / 2.0
        alpha, f_new, g_new = line_search_wolfe2(
            ev, partial(finite_difference_gradient, ev), self.x, direction,
            self.grad, self.f, self._old_old_fval,
            c1=WOLFE_C1, c2=WOLFE_C2, maxiter=30,
        )
        if alpha is None:
            if self._had_line_search_failure:
                self._restore_saved_model()
                self.finished = True
                return
            # one retry from a fresh steepest-descent model
            self._had_line_search_failure = True
            if self._model_before_reset is None:
                self._model_before_reset = self.inv_hessian
                self._grad_norm_at_reset = float(np.sqrt(self.grad.dot(self.grad)))
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
        sy = float(s.dot(y))
        # skip the update when the curvature signal is too weak relative to
        # |s||y|; near the optimum y is dominated by finite-difference noise
        # and an update there can corrupt the model badly
        if sy > 1e-8 * float(np.sqrt(s.dot(s)) * np.sqrt(y.dot(y)) + 1e-300):
            rho = 1.0 / sy
            eye = np.eye(self.dim)
            left = eye - rho * np.outer(s, y)
            self.inv_hessian = symmetrize(
                left.dot(self.inv_hessian).dot(left.T) + rho * np.outer(s, s)
            )
        self.x = x_new
        self.f = f_new
        self.grad = g_new
        self.recent_points.appendleft(self.x.copy())
        # the saved model stays around until the post-reset iterates make
        # real progress; gradient-noise wiggles at the optimum do not count
        if (self._model_before_reset is not None
                and float(np.sqrt(g_new.dot(g_new))) < 0.1 * self._grad_norm_at_reset):
            self._model_before_reset = None
