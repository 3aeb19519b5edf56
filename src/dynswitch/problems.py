"""BBOB-style test problems with instance transformations and known optima.

Implements a 12-function subset of the standard noiseless suite (F1, F2, F6,
F8, F9, F10, F11, F12, F13, F14, F21, F22) on the search domain [-5, 5]^d.
Instances use a simplified model: the optimum is planted uniformly at random
in [-4, 4]^d, f_opt = 0, and rotation matrices are built by orthonormalizing
seeded Gaussian matrices.  Structure (separability, conditioning,
multimodality) is preserved; exact byte-compatibility with the reference
suite is not a goal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

IMPLEMENTED_FUNCTIONS = (1, 2, 6, 8, 9, 10, 11, 12, 13, 14, 21, 22)
SEPARABLE_FUNCTIONS = (1, 2)
DOMAIN_LOW = -5.0
DOMAIN_HIGH = 5.0


class ConfigurationError(ValueError):
    """Raised for unknown function ids or invalid problem parameters."""


@dataclass(frozen=True)
class ProblemId:
    """Identifies one concrete (function, dimension, instance) problem."""

    function_id: int
    dimension: int
    instance: int

    def __post_init__(self):
        if self.function_id not in IMPLEMENTED_FUNCTIONS:
            raise ConfigurationError(
                f"function F{self.function_id} is not implemented; "
                f"available: {IMPLEMENTED_FUNCTIONS}"
            )
        if self.dimension < 2:
            raise ConfigurationError(f"dimension must be >= 2, got {self.dimension}")
        if self.instance < 1:
            raise ConfigurationError(f"instance must be >= 1, got {self.instance}")


def _read_only(a):
    a.setflags(write=False)
    return a


# c1 (row 0) and c2 (row 1) of the oscillation transform; column 0 for a
# clear sign bit, column 1 for a set one.  A zero coordinate has xhat = 0,
# so the column it takes cannot matter
_OSCILLATION_C = _read_only(np.array([[10.0, 5.5], [7.9, 3.1]]))


def _oscillation(x):
    """Coordinate-wise oscillation transform used by several suite functions.

    ``x`` is a float vector; returns a new vector.
    """
    ax = np.abs(x)
    nonzero = np.count_nonzero(ax) == ax.size
    # log(1) = 0 exactly, so a zero coordinate gets xhat = 0
    xhat = np.log(ax if nonzero else np.where(x != 0.0, ax, 1.0))
    t = _OSCILLATION_C.take(np.signbit(x), 1)   # (2, d): c1, c2 per coordinate
    t *= xhat
    np.sin(t, out=t)
    s = t[0]
    s += t[1]                               # sin(c1 xhat) + sin(c2 xhat)
    s *= 0.049
    s += xhat
    np.exp(s, out=s)
    if nonzero:
        return np.copysign(s, x, out=s)     # sign(x) * s, as sign(x) is +-1
    s *= np.sign(x)
    return s


def _oscillation_scalar(v):
    """The oscillation transform of one float; returns a numpy float64.

    Uses the same numpy ufuncs as the vector form, so both agree bit for bit.
    """
    if v == 0.0:
        return np.sign(v)
    xhat = np.log(abs(v))
    c1, c2 = (10.0, 7.9) if v > 0.0 else (5.5, 3.1)
    e = np.exp(xhat + 0.049 * (np.sin(c1 * xhat) + np.sin(c2 * xhat)))
    return e if v > 0.0 else -e


@functools.lru_cache(maxsize=None)
def _asymmetry_ramp(d, beta):
    return _read_only(beta * (np.arange(d) / max(d - 1, 1)))


def _asymmetry(x, beta):
    """Coordinate-wise asymmetry transform; identity for non-positive entries."""
    xp = np.maximum(x, 0.0)
    expo = _asymmetry_ramp(x.size, beta) * np.sqrt(xp)
    expo += 1.0
    return np.where(x > 0.0, np.power(xp, expo), x)


@functools.lru_cache(maxsize=None)
def _power_weights(d, condition):
    """diag entries of the conditioning matrix Lambda^alpha."""
    idx = np.arange(d) / max(d - 1, 1)
    return _read_only(np.power(condition, 0.5 * idx))


@functools.lru_cache(maxsize=None)
def _ellipsoid_weights(d):
    return _read_only(np.power(10.0, 6.0 * np.arange(d) / max(d - 1, 1)))


@functools.lru_cache(maxsize=None)
def _different_powers_exponents(d):
    return _read_only(2.0 + 4.0 * np.arange(d) / max(d - 1, 1))


@functools.lru_cache(maxsize=None)
def _rosenbrock_scale(d):
    return max(1.0, np.sqrt(d) / 8.0)


def _random_rotation(rng, d):
    """Orthonormal matrix from QR decomposition of a Gaussian matrix."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    # fix signs so the decomposition (and hence the instance) is unique
    q = q * np.sign(np.diag(r))
    return q


@dataclass(frozen=True)
class ProblemInstance:
    """A concrete objective with planted optimum and frozen transforms.

    Immutable after construction; evaluation is pure, so instances can be
    shared freely across concurrent runs.
    """

    id: ProblemId
    x_opt: np.ndarray
    f_opt: float
    rotation_R: np.ndarray
    rotation_Q: np.ndarray
    peaks: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        # bound once so that evaluate does no lookups beyond its own
        object.__setattr__(self, "_kernel", _EVALUATORS[self.id.function_id])
        object.__setattr__(self, "_shape", (self.id.dimension,))

    @property
    def dimension(self) -> int:
        return self.id.dimension

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(
                f"expected point of dimension {self.dimension}, got shape {x.shape}"
            )
        return self._kernel(self, x)

    def precision(self, f_value: float) -> float:
        return max(f_value - self.f_opt, 0.0)


def _f1_sphere(p, x):
    z = x - p.x_opt
    return float(z @ z)


def _f2_ellipsoid_separable(p, x):
    z = _oscillation(x - p.x_opt)
    return float(_ellipsoid_weights(x.size) @ (z * z))


def _f6_attractive_sector(p, x):
    z = p.rotation_Q @ (_power_weights(x.size, 100.0) * (p.rotation_R @ (x - p.x_opt)))
    # s * z with s = 100 where z * x_opt > 0, else 1 (1 * z is z exactly)
    np.multiply(z, 100.0, out=z, where=z * p.x_opt > 0.0)
    z *= z
    return float(_oscillation_scalar(float(np.add.reduce(z))) ** 0.9)


def _rosenbrock(z):
    head = z[:-1]
    t = head * head
    t -= z[1:]
    t *= t
    t *= 100.0
    u = head - 1.0
    u *= u
    t += u
    return float(np.add.reduce(t))


def _f8_rosenbrock(p, x):
    z = _rosenbrock_scale(x.size) * (x - p.x_opt)
    z += 1.0
    return _rosenbrock(z)


def _f9_rosenbrock_rotated(p, x):
    z = _rosenbrock_scale(x.size) * (p.rotation_R @ (x - p.x_opt))
    z += 1.0
    return _rosenbrock(z)


def _f10_ellipsoid_rotated(p, x):
    z = _oscillation(p.rotation_R @ (x - p.x_opt))
    return float(_ellipsoid_weights(x.size) @ (z * z))


def _f11_discus(p, x):
    z = _oscillation(p.rotation_R @ (x - p.x_opt))
    tail = z[1:]
    return float(1e6 * z[0] ** 2 + np.add.reduce(tail * tail))


def _f12_bent_cigar(p, x):
    z = p.rotation_R @ _asymmetry(p.rotation_R @ (x - p.x_opt), 0.5)
    tail = z[1:]
    return float(z[0] ** 2 + 1e6 * np.add.reduce(tail * tail))


def _f13_sharp_ridge(p, x):
    z = p.rotation_Q @ (_power_weights(x.size, 10.0) * (p.rotation_R @ (x - p.x_opt)))
    tail = z[1:]
    return float(z[0] ** 2 + 100.0 * np.sqrt(np.add.reduce(tail * tail)))


def _f14_different_powers(p, x):
    z = np.abs(p.rotation_R @ (x - p.x_opt))
    np.power(z, _different_powers_exponents(x.size), out=z)
    return float(np.sqrt(np.add.reduce(z)))


def _gallagher(p, x):
    peaks = p.peaks
    diff = x[None, :] - peaks["centers"]          # (K, d)
    q = diff @ p.rotation_R.T                     # rows R (x - y_i)
    q *= q
    q *= peaks["scales"]
    q = np.add.reduce(q, axis=1)
    q /= -2.0 * x.size
    np.exp(q, out=q)
    q *= peaks["weights"]
    best = float(q.max())
    return float(_oscillation_scalar(10.0 - best) ** 2)


_EVALUATORS = {
    1: _f1_sphere,
    2: _f2_ellipsoid_separable,
    6: _f6_attractive_sector,
    8: _f8_rosenbrock,
    9: _f9_rosenbrock_rotated,
    10: _f10_ellipsoid_rotated,
    11: _f11_discus,
    12: _f12_bent_cigar,
    13: _f13_sharp_ridge,
    14: _f14_different_powers,
    21: _gallagher,
    22: _gallagher,
}

_GALLAGHER_NUM_PEAKS = {21: 101, 22: 21}
_GALLAGHER_GLOBAL_CONDITION = {21: 1000.0, 22: 1000.0 ** 2}


def _build_gallagher_peaks(rng, function_id, d, x_opt):
    k = _GALLAGHER_NUM_PEAKS[function_id]
    centers = rng.uniform(-4.9, 4.9, size=(k, d))
    centers[0] = x_opt
    weights = np.empty(k)
    weights[0] = 10.0
    weights[1:] = 1.1 + 8.0 * np.arange(k - 1) / (k - 2)
    conditions = np.empty(k)
    conditions[0] = _GALLAGHER_GLOBAL_CONDITION[function_id]
    pool = np.power(1000.0, 2.0 * np.arange(k - 1) / (k - 2))
    conditions[1:] = rng.permutation(pool)
    idx = np.arange(d) / max(d - 1, 1)
    scales = np.power(conditions[:, None], idx[None, :]) / np.power(
        conditions[:, None], 0.25
    )
    return {"centers": centers, "weights": weights, "scales": scales}


def instantiate(pid: ProblemId, suite_seed: int = 0) -> ProblemInstance:
    """Build the deterministic problem instance for ``pid``.

    The same (pid, suite_seed) always yields identical transforms.
    """
    d = pid.dimension
    entropy = (int(suite_seed), pid.function_id, d, pid.instance)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    x_opt = rng.uniform(-4.0, 4.0, size=d)
    if pid.function_id in SEPARABLE_FUNCTIONS:
        rot_r = np.eye(d)
        rot_q = np.eye(d)
    else:
        rot_r = _random_rotation(rng, d)
        rot_q = _random_rotation(rng, d)
    peaks = None
    if pid.function_id in _GALLAGHER_NUM_PEAKS:
        peaks = _build_gallagher_peaks(rng, pid.function_id, d, x_opt)
    inst = ProblemInstance(
        id=pid, x_opt=x_opt, f_opt=0.0, rotation_R=rot_r, rotation_Q=rot_q,
        peaks=peaks,
    )
    inst.x_opt.setflags(write=False)
    inst.rotation_R.setflags(write=False)
    inst.rotation_Q.setflags(write=False)
    return inst
