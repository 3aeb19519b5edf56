"""Small shared helpers for symmetric positive-definite matrices."""

from __future__ import annotations

import logging

import numpy as np

try:  # the LAPACK gufuncs behind numpy.linalg; private, so optional
    from numpy.linalg import _umath_linalg
except ImportError:  # pragma: no cover - numpy without the module
    _umath_linalg = None

log = logging.getLogger(__name__)
SPD_FLOOR_RATIO = 1e-14


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def eigh(m):
    """``np.linalg.eigh(m)`` of a float64 symmetric matrix, with less dispatch.

    Calls the gufunc that ``np.linalg.eigh`` calls, under the same
    floating-point error state, so it gives the same bits and raises
    ``LinAlgError`` where that does.  Falls back to ``np.linalg.eigh``
    when numpy lacks the private module.
    """
    if _umath_linalg is None:
        return np.linalg.eigh(m)
    with np.errstate(call=_raise_nonconvergence, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(m, signature="d->dd")


def symmetrize(m):
    return (m + m.T) / 2.0


def repair_spd(m, warn_context=""):
    """Symmetrize and floor eigenvalues at SPD_FLOOR_RATIO * max eigenvalue.

    Returns a matrix guaranteed SPD (up to numerics).  Logs a warning when a
    repair actually changed the spectrum.
    """
    m = symmetrize(np.asarray(m, dtype=float))
    vals, vecs = eigh(m)
    max_eig = float(vals[-1])
    if max_eig <= 0.0:
        log.warning("matrix with no positive eigenvalue%s; resetting to identity",
                    f" ({warn_context})" if warn_context else "")
        return np.eye(m.shape[0])
    floor = SPD_FLOOR_RATIO * max_eig
    if vals[0] < floor:
        # only complain about genuinely indefinite input; eigenvalues that
        # dip below the floor by roundoff are repaired silently
        if vals[0] < -1e-10 * max_eig:
            log.warning("eigenvalue floor repair applied%s (min %.3e, floor %.3e)",
                        f" ({warn_context})" if warn_context else "",
                        float(vals[0]), floor)
        vals = np.maximum(vals, floor)
        m = symmetrize((vecs * vals) @ vecs.T)
    return m
