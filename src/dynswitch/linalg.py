"""Small shared helpers for symmetric positive-definite matrices."""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)
SPD_FLOOR_RATIO = 1e-14


def symmetrize(m):
    return (m + m.T) / 2.0


def repair_spd(m, warn_context=""):
    """Symmetrize and floor eigenvalues at SPD_FLOOR_RATIO * max eigenvalue.

    Returns a matrix guaranteed SPD (up to numerics).  Logs a warning when a
    repair actually changed the spectrum.
    """
    m = symmetrize(np.asarray(m, dtype=float))
    vals, vecs = np.linalg.eigh(m)
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
