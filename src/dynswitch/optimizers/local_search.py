"""Strong-Wolfe line search and Powell's method, ported from SciPy 1.17.1.

BFGS takes its steps from ``line_search_wolfe2``, the strong-Wolfe line
search of Nocedal & Wright, *Numerical Optimization* (1999), Algorithms
3.5 and 3.6.  MLSL runs ``minimize_powell``: Powell's 1964 conjugate
direction method, each line minimised by Brent's 1973 method inside a
bracket found by golden-section growth.

Both are SciPy 1.17.1's code for the paths dynswitch runs, and nothing
else: ``scipy.optimize.line_search`` without ``args``, ``amax`` or
``extra_condition``, and ``scipy.optimize.minimize(method="Powell")``
without bounds, callbacks, ``maxfev`` or a result object.  Every objective
call is made at the same point, with the same bits and in the same order
as SciPy's; ``tests/test_local_search.py`` checks this call by call
against SciPy.  Porting the two keeps ``import scipy.optimize`` (most of
the CLI's start-up time) out of the program.

The ported code is under SciPy's licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

The arithmetic is kept as SciPy writes it, down to the mix of Python and
numpy scalars, because that mix decides which overflows raise.  One
spelling differs: ``brent`` and ``bracket`` call the builtin ``abs``
where SciPy calls ``np.abs``.  Their abscissae start from numpy floats
and stay numpy floats, and ``abs`` of a numpy float64 returns a numpy
float64 with the same bits, so every value keeps its type; it skips the
ufunc call that ``np.abs`` makes for each scalar.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Strong-Wolfe line search (SciPy's scipy/optimize/_linesearch.py)
# ---------------------------------------------------------------------------


def line_search_wolfe2(f, fprime, xk, pk, gfk, old_fval, old_old_fval,
                       c1=1e-4, c2=0.9, maxiter=10):
    """Step length along ``pk`` from ``xk`` meeting the strong Wolfe conditions.

    ``f`` and ``fprime`` are the objective and its gradient; ``gfk`` and
    ``old_fval`` are their values at ``xk`` and ``old_old_fval`` the value
    at the previous iterate, which sets the first trial step.  Returns
    ``(alpha, f_new, g_new)``.  ``alpha`` is None when the search failed.
    ``g_new`` is the gradient at ``xk + alpha * pk`` when the search
    converged, and None otherwise; after ``maxiter`` expansions ``alpha``
    and ``f_new`` are the last trial's.
    """
    gval = [None]

    def phi(alpha):
        return f(xk + alpha * pk)

    def derphi(alpha):
        gval[0] = fprime(xk + alpha * pk)
        return np.dot(gval[0], pk)

    derphi0 = np.dot(gfk, pk)
    alpha_star, phi_star, derphi_star = scalar_search_wolfe2(
        phi, derphi, old_fval, old_old_fval, derphi0, c1, c2, maxiter)
    if derphi_star is None:
        return alpha_star, phi_star, None
    # the last gradient evaluated is the one at alpha_star
    return alpha_star, phi_star, gval[0]


def scalar_search_wolfe2(phi, derphi, phi0, old_phi0, derphi0,
                         c1=1e-4, c2=0.9, maxiter=10):
    """Algorithm 3.5 on phi(alpha) = f(xk + alpha * pk).

    Returns ``(alpha_star, phi_star, derphi_star)``; ``alpha_star`` is
    None on failure and ``derphi_star`` is None unless the search
    converged.
    """
    alpha0 = 0
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01*2*(phi0 - old_phi0)/derphi0)
    else:
        alpha1 = 1.0

    if alpha1 < 0:
        alpha1 = 1.0

    phi_a1 = phi(alpha1)

    phi_a0 = phi0
    derphi_a0 = derphi0

    for i in range(maxiter):
        if alpha1 == 0:
            # the increment slipped below machine precision
            alpha_star = None
            phi_star = phi0
            derphi_star = None
            break

        not_first_iteration = i > 0
        if (phi_a1 > phi0 + c1 * alpha1 * derphi0) or \
           ((phi_a1 >= phi_a0) and not_first_iteration):
            alpha_star, phi_star, derphi_star = \
                _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi,
                      phi0, derphi0, c1, c2)
            break

        derphi_a1 = derphi(alpha1)
        if (abs(derphi_a1) <= -c2*derphi0):
            alpha_star = alpha1
            phi_star = phi_a1
            derphi_star = derphi_a1
            break

        if (derphi_a1 >= 0):
            alpha_star, phi_star, derphi_star = \
                _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi,
                      phi0, derphi0, c1, c2)
            break

        alpha2 = 2 * alpha1  # increase by factor of two on each iteration
        alpha0 = alpha1
        alpha1 = alpha2
        phi_a0 = phi_a1
        phi_a1 = phi(alpha1)
        derphi_a0 = derphi_a1

    else:
        # maxiter reached
        alpha_star = alpha1
        phi_star = phi_a1
        derphi_star = None

    return alpha_star, phi_star, derphi_star


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimiser of the cubic through (a,fa), (b,fb), (c,fc) with slope fpa at a.

    None if there is none.
    """
    # f(x) = A *(x-a)^3 + B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide='raise', over='raise', invalid='raise'):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc ** 2
            d1[0, 1] = -db ** 2
            d1[1, 0] = -dc ** 3
            d1[1, 1] = db ** 3
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db,
                                            fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """Minimiser of the quadratic through (a,fa), (b,fb) with slope fpa at a."""
    # f(x) = B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide='raise', over='raise', invalid='raise'):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo,
          phi, derphi, phi0, derphi0, c1, c2):
    """Algorithm 3.6 (zoom) between a_lo and a_hi."""
    maxiter = 10
    i = 0
    delta1 = 0.2  # cubic interpolant check
    delta2 = 0.1  # quadratic interpolant check
    phi_rec = phi0
    a_rec = 0
    while True:
        # trial step: the cubic interpolant's minimiser, or the quadratic's
        # if that is too close to an end point, or else bisection
        dalpha = a_hi - a_lo
        if dalpha < 0:
            a, b = a_hi, a_lo
        else:
            a, b = a_lo, a_hi

        if (i > 0):
            cchk = delta1 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi,
                            a_rec, phi_rec)
        if (i == 0) or (a_j is None) or (a_j > b - cchk) or (a_j < a + cchk):
            qchk = delta2 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if (a_j is None) or (a_j > b-qchk) or (a_j < a+qchk):
                a_j = a_lo + 0.5*dalpha

        phi_aj = phi(a_j)
        if (phi_aj > phi0 + c1*a_j*derphi0) or (phi_aj >= phi_lo):
            phi_rec = phi_hi
            a_rec = a_hi
            a_hi = a_j
            phi_hi = phi_aj
        else:
            derphi_aj = derphi(a_j)
            if abs(derphi_aj) <= -c2*derphi0:
                a_star = a_j
                val_star = phi_aj
                valprime_star = derphi_aj
                break
            if derphi_aj*(a_hi - a_lo) >= 0:
                phi_rec = phi_hi
                a_rec = a_hi
                a_hi = a_lo
                phi_hi = phi_lo
            else:
                phi_rec = phi_lo
                a_rec = a_lo
            a_lo = a_j
            phi_lo = phi_aj
            derphi_lo = derphi_aj
        i += 1
        if (i > maxiter):
            # no conforming step size
            a_star = None
            val_star = None
            valprime_star = None
            break
    return a_star, val_star, valprime_star


# ---------------------------------------------------------------------------
# Powell's method with Brent line minimisation (scipy/optimize/_optimize.py)
# ---------------------------------------------------------------------------


def minimize_powell(func, x0, xtol, ftol):
    """Minimise ``func`` from ``x0`` by Powell's method, without bounds.

    Stops when one sweep over the directions improves f by a relative
    ``ftol`` or less, after 1000 sweeps per dimension, or in a NaN region.
    Each line is minimised to ``100 * xtol``.  Returns ``(x, f)``.
    Exceptions raised by ``func`` propagate.
    """
    x = np.asarray(x0).flatten()
    N = len(x)
    maxiter = N * 1000
    direc = np.eye(N, dtype=float)

    fval = func(x)
    x1 = x.copy()
    iter = 0
    while True:
        fx = fval
        bigind = 0
        delta = 0.0
        for i in range(N):
            direc1 = direc[i]
            fx2 = fval
            fval, x, direc1 = _linesearch_powell(func, x, direc1,
                                                 tol=xtol * 100, fval=fval)
            if (fx2 - fval) > delta:
                delta = fx2 - fval
                bigind = i
        iter += 1
        bnd = ftol * (np.abs(fx) + np.abs(fval)) + 1e-20
        if 2.0 * (fx - fval) <= bnd:
            break
        if iter >= maxiter:
            break
        if np.isnan(fx) and np.isnan(fval):
            # ended up in a nan-region: bail out
            break

        # the extrapolated point; without bounds the full step is taken
        direc1 = x - x1
        x1 = x.copy()
        x2 = x + direc1
        fx2 = func(x2)

        if (fx > fx2):
            t = 2.0*(fx + fx2 - 2.0*fval)
            temp = (fx - fval - delta)
            t *= temp*temp
            temp = fx - fx2
            t -= delta*temp*temp
            if t < 0.0:
                fval, x, direc1 = _linesearch_powell(func, x, direc1,
                                                     tol=xtol * 100, fval=fval)
                if np.any(direc1):
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return x, fval


def _linesearch_powell(func, p, xi, tol, fval):
    """Minimise ``func(p + alpha * xi)`` over alpha; returns (f, x, step)."""
    def myfunc(alpha):
        return func(p + alpha*xi)

    # if xi is zero, then don't optimize
    if not np.any(xi):
        return fval, p, xi
    try:
        alpha_min, fret = brent(myfunc, tol)
    except BracketError as e:
        # no valid bracket: take the best of its three points
        xs, fs = list(e.data[:3]), list(e.data[3:])
        if np.any(np.isnan([xs, fs])):
            alpha_min, fret = np.nan, np.nan
        else:
            imin = np.argmin(fs)
            alpha_min, fret = xs[imin], fs[imin]
    xi = alpha_min * xi
    return fret, p + xi, xi


def brent(func, tol):
    """Brent's minimiser of a scalar ``func`` inside ``bracket(func)``.

    Returns ``(x, f(x))`` after at most 500 iterations.  Raises
    BracketError when no bracket is found.
    """
    xa, xb, xc, fa, fb, fc = bracket(func)
    maxiter = 500
    _mintol = 1.0e-11
    _cg = 0.3819660
    x = w = v = xb
    fw = fv = fx = fb
    if (xa < xc):
        a = xa
        b = xc
    else:
        a = xc
        b = xa
    deltax = 0.0
    iter = 0

    while (iter < maxiter):
        tol1 = tol * abs(x) + _mintol
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        # check for convergence
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if (abs(deltax) <= tol1):
            if (x >= xmid):
                deltax = a - x       # do a golden section step
            else:
                deltax = b - x
            rat = _cg * deltax
        else:                              # do a parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if (tmp2 > 0.0):
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            # check parabolic fit
            if ((p > tmp2 * (a - x)) and (p < tmp2 * (b - x)) and
                    (abs(p) < abs(0.5 * tmp2 * dx_temp))):
                rat = p * 1.0 / tmp2        # if parabolic step is useful.
                u = x + rat
                if ((u - a) < tol2 or (b - u) < tol2):
                    if xmid - x >= 0:
                        rat = tol1
                    else:
                        rat = -tol1
            else:
                if (x >= xmid):
                    deltax = a - x  # if it's not do a golden section step
                else:
                    deltax = b - x
                rat = _cg * deltax

        if (abs(rat) < tol1):            # update by at least tol1
            if rat >= 0:
                u = x + tol1
            else:
                u = x - tol1
        else:
            u = x + rat
        fu = func(u)                  # calculate new output value

        if (fu > fx):                 # if it's bigger than current
            if (u < x):
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v = w
                w = u
                fv = fw
                fw = fu
            elif (fu <= fv) or (v == x) or (v == w):
                v = u
                fv = fu
        else:
            if (u >= x):
                a = x
            else:
                b = x
            v = w
            w = x
            x = u
            fv = fw
            fw = fx
            fx = fu

        iter += 1
    return x, fx


class BracketError(RuntimeError):
    """``bracket`` ended without a valid bracket; ``data`` holds its last one."""


def bracket(func):
    """Three points xa, xb, xc, strictly ordered, with f(xb) below both ends.

    Searches downhill from 0 and 1.  Returns ``(xa, xb, xc, fa, fb, fc)``.
    Raises BracketError, with that tuple as ``data``, when the final points
    are not a valid bracket, and RuntimeError after 1000 growth steps.
    """
    grow_limit = 110.0
    maxiter = 1000
    _gold = 1.618034  # golden ratio: (1.0+sqrt(5.0))/2.0
    _verysmall_num = 1e-21
    # numpy floats, as SciPy starts from
    xa, xb = np.asarray([0.0, 1.0])
    fa = func(xa)
    fb = func(xb)
    if (fa < fb):                      # Switch so fa > fb
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _gold * (xb - xa)
    fc = func(xc)
    iter = 0
    while (fc < fb):
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        if abs(val) < _verysmall_num:
            denom = 2.0 * _verysmall_num
        else:
            denom = 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + grow_limit * (xc - xb)
        if iter > maxiter:
            raise RuntimeError(
                f"no valid bracket after {maxiter} growth steps")
        iter += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = func(w)
            if (fw < fc):
                xa = xb
                xb = w
                fa = fb
                fb = fw
                break
            elif (fw > fb):
                xc = w
                fc = fw
                break
            w = xc + _gold * (xc - xb)
            fw = func(w)
        elif (w - wlim)*(wlim - xc) >= 0.0:
            w = wlim
            fw = func(w)
        elif (w - wlim)*(xc - w) > 0.0:
            fw = func(w)
            if (fw < fc):
                xb = xc
                xc = w
                w = xc + _gold * (xc - xb)
                fb = fc
                fc = fw
                fw = func(w)
        else:
            w = xc + _gold * (xc - xb)
            fw = func(w)
        xa = xb
        xb = xc
        xc = w
        fa = fb
        fb = fc
        fc = fw

    # three conditions for a valid bracket
    cond1 = (fb < fc and fb <= fa) or (fb < fa and fb <= fc)
    cond2 = (xa < xb < xc or xc < xb < xa)
    cond3 = np.isfinite(xa) and np.isfinite(xb) and np.isfinite(xc)
    if not (cond1 and cond2 and cond3):
        e = BracketError("no valid bracket")
        e.data = (xa, xb, xc, fa, fb, fc)
        raise e
    return xa, xb, xc, fa, fb, fc
