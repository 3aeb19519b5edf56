"""The objective kernels against a frozen reference copy, bit for bit.

The reference below is the straightforward numpy form of every kernel and
of the oscillation transform.  ``ProblemInstance.evaluate`` is a leaner
form of the same arithmetic: every value it returns must have the same
bits, because run records, ERT tables and the fingerprint depend on them.
"""

import pickle

import numpy as np
import pytest

from dynswitch.problems import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    IMPLEMENTED_FUNCTIONS,
    ProblemId,
    _oscillation,
    _oscillation_scalar,
    instantiate,
)

DIMS = (2, 3, 5, 10, 20, 40)
INSTANCES = (1, 2, 3)


# --- frozen reference kernels ------------------------------------------------

def ref_oscillation(x):
    x = np.asarray(x, dtype=float)
    xhat = np.where(x != 0.0, np.log(np.abs(np.where(x != 0.0, x, 1.0))), 0.0)
    c1 = np.where(x > 0.0, 10.0, 5.5)
    c2 = np.where(x > 0.0, 7.9, 3.1)
    return np.sign(x) * np.exp(xhat + 0.049 * (np.sin(c1 * xhat) + np.sin(c2 * xhat)))


def ref_asymmetry(x, beta):
    x = np.asarray(x, dtype=float)
    d = x.size
    idx = np.arange(d) / max(d - 1, 1)
    expo = 1.0 + beta * idx * np.sqrt(np.maximum(x, 0.0))
    return np.where(x > 0.0, np.power(np.maximum(x, 0.0), expo), x)


def ref_power_weights(d, condition):
    idx = np.arange(d) / max(d - 1, 1)
    return np.power(condition, 0.5 * idx)


def ref_f1(p, x):
    z = x - p.x_opt
    return float(z @ z)


def ref_f2(p, x):
    z = ref_oscillation(x - p.x_opt)
    d = p.dimension
    w = np.power(10.0, 6.0 * np.arange(d) / max(d - 1, 1))
    return float(w @ (z * z))


def ref_f6(p, x):
    d = p.dimension
    z = p.rotation_Q @ (ref_power_weights(d, 100.0) * (p.rotation_R @ (x - p.x_opt)))
    s = np.where(z * p.x_opt > 0.0, 100.0, 1.0)
    val = float(np.sum((s * z) ** 2))
    return float(ref_oscillation(val) ** 0.9)


def ref_rosenbrock(z):
    return float(
        np.sum(100.0 * (z[:-1] ** 2 - z[1:]) ** 2 + (z[:-1] - 1.0) ** 2)
    )


def ref_f8(p, x):
    c = max(1.0, np.sqrt(p.dimension) / 8.0)
    z = c * (x - p.x_opt) + 1.0
    return ref_rosenbrock(z)


def ref_f9(p, x):
    c = max(1.0, np.sqrt(p.dimension) / 8.0)
    z = c * (p.rotation_R @ (x - p.x_opt)) + 1.0
    return ref_rosenbrock(z)


def ref_f10(p, x):
    z = ref_oscillation(p.rotation_R @ (x - p.x_opt))
    d = p.dimension
    w = np.power(10.0, 6.0 * np.arange(d) / max(d - 1, 1))
    return float(w @ (z * z))


def ref_f11(p, x):
    z = ref_oscillation(p.rotation_R @ (x - p.x_opt))
    return float(1e6 * z[0] ** 2 + np.sum(z[1:] ** 2))


def ref_f12(p, x):
    z = p.rotation_R @ ref_asymmetry(p.rotation_R @ (x - p.x_opt), 0.5)
    return float(z[0] ** 2 + 1e6 * np.sum(z[1:] ** 2))


def ref_f13(p, x):
    d = p.dimension
    z = p.rotation_Q @ (ref_power_weights(d, 10.0) * (p.rotation_R @ (x - p.x_opt)))
    return float(z[0] ** 2 + 100.0 * np.sqrt(np.sum(z[1:] ** 2)))


def ref_f14(p, x):
    d = p.dimension
    z = p.rotation_R @ (x - p.x_opt)
    expo = 2.0 + 4.0 * np.arange(d) / max(d - 1, 1)
    return float(np.sqrt(np.sum(np.abs(z) ** expo)))


def ref_gallagher(p, x):
    peaks = p.peaks
    diff = x[None, :] - peaks["centers"]
    rotated = diff @ p.rotation_R.T
    q = np.sum(rotated * rotated * peaks["scales"], axis=1)
    vals = peaks["weights"] * np.exp(-q / (2.0 * p.dimension))
    best = float(np.max(vals))
    return float(ref_oscillation(10.0 - best) ** 2)


REFERENCE = {
    1: ref_f1, 2: ref_f2, 6: ref_f6, 8: ref_f8, 9: ref_f9, 10: ref_f10,
    11: ref_f11, 12: ref_f12, 13: ref_f13, 14: ref_f14,
    21: ref_gallagher, 22: ref_gallagher,
}


# --- points ------------------------------------------------------------------

def probe_points(p, rng):
    """x_opt and its neighbourhood, zero coordinates, corners, random points."""
    d = p.dimension
    pts = [p.x_opt.copy(), np.zeros(d), -np.zeros(d),
           np.full(d, DOMAIN_LOW), np.full(d, DOMAIN_HIGH)]
    corner = np.where(rng.random(d) < 0.5, DOMAIN_LOW, DOMAIN_HIGH)
    pts.append(corner)
    for eps in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
        pts.append(p.x_opt + eps * rng.standard_normal(d))
        # one coordinate off the optimum, so transformed coordinates are 0
        one = p.x_opt.copy()
        one[rng.integers(d)] += eps
        pts.append(one)
    mixed = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, d)
    mixed[::2] = 0.0
    mixed[1::4] = -0.0
    pts.append(mixed)
    pts.extend(rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, (8, d)))
    return pts


def hex_of(value):
    return float(value).hex()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_evaluate_matches_reference_bits(fid, dim):
    rng = np.random.default_rng([fid, dim])
    for inst in INSTANCES:
        p = instantiate(ProblemId(fid, dim, inst), 0)
        for x in probe_points(p, rng):
            got = p.evaluate(x)
            assert type(got) is float
            assert hex_of(got) == hex_of(REFERENCE[fid](p, x)), (inst, x)


@pytest.mark.parametrize("n", (1, 2, 5, 20, 40, 101))
def test_oscillation_vector_matches_reference_bits(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.1] = -0.0
        got, want = _oscillation(x), ref_oscillation(x)
        assert [hex_of(v) for v in got] == [hex_of(v) for v in want]


def test_oscillation_scalar_matches_reference_bits():
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12, 1.0,
               -1.0, 10.0, 1e300, -1e300, 1.7976931348623157e308]
    spread = rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000)
    for v in special + [float(v) for v in spread]:
        got, want = _oscillation_scalar(v), ref_oscillation(v)
        # the caller raises the result to a power; the type decides how
        assert type(got) is type(want) is np.float64
        assert hex_of(got) == hex_of(want), v


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_instance_survives_pickle(fid):
    p = instantiate(ProblemId(fid, 5, 2), 0)
    q = pickle.loads(pickle.dumps(p))
    for x in np.random.default_rng(fid).uniform(DOMAIN_LOW, DOMAIN_HIGH, (20, 5)):
        assert hex_of(q.evaluate(x)) == hex_of(p.evaluate(x))
    with pytest.raises(ValueError, match="dimension 5"):
        q.evaluate(np.zeros(4))
