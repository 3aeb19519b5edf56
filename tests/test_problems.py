import numpy as np
import pytest

from dynswitch.problems import (
    IMPLEMENTED_FUNCTIONS,
    ConfigurationError,
    ProblemId,
    instantiate,
)

DIMS = (2, 3, 5)


def test_unknown_function_id_is_named_in_error():
    with pytest.raises(ConfigurationError, match="F7"):
        ProblemId(7, 2, 1)


def test_invalid_dimension_and_instance():
    with pytest.raises(ConfigurationError):
        ProblemId(1, 1, 1)
    with pytest.raises(ConfigurationError):
        ProblemId(1, 2, 0)


def test_instantiate_deterministic():
    a = instantiate(ProblemId(1, 2, 1), suite_seed=7)
    b = instantiate(ProblemId(1, 2, 1), suite_seed=7)
    assert np.array_equal(a.x_opt, b.x_opt)
    assert np.array_equal(a.rotation_R, b.rotation_R)
    c = instantiate(ProblemId(1, 2, 2), suite_seed=7)
    assert not np.array_equal(a.x_opt, c.x_opt)


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
@pytest.mark.parametrize("dim", DIMS)
def test_optimum_evaluates_to_f_opt(fid, dim):
    for inst in (1, 2):
        p = instantiate(ProblemId(fid, dim, inst), 0)
        assert abs(p.evaluate(p.x_opt) - p.f_opt) < 1e-12
        assert p.precision(p.evaluate(p.x_opt)) == 0.0


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_rotations_orthogonal(fid):
    p = instantiate(ProblemId(fid, 5, 3), 0)
    for m in (p.rotation_R, p.rotation_Q):
        assert np.max(np.abs(m @ m.T - np.eye(5))) < 1e-10


@pytest.mark.parametrize("fid", IMPLEMENTED_FUNCTIONS)
def test_optimum_is_strict_local_minimum(fid):
    # brute-force perturbation sampling around the planted optimum
    rng = np.random.default_rng(99)
    p = instantiate(ProblemId(fid, 5, 2), 0)
    for _ in range(50):
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        for eps in (1e-6, 1e-3, 1e-1):
            assert p.evaluate(p.x_opt + eps * direction) > p.f_opt


def test_f10_perturbed_along_first_axis():
    p = instantiate(ProblemId(10, 5, 2), 0)
    x = p.x_opt.copy()
    x[0] += 1e-6
    assert p.evaluate(x) > p.f_opt


def test_sphere_shift_arithmetic():
    p = instantiate(ProblemId(1, 2, 1), 0)
    assert p.evaluate(p.x_opt + np.array([3.0, 4.0])) == pytest.approx(
        p.f_opt + 25.0, abs=1e-12
    )


def test_sphere_reference_oracle():
    # oracle: direct transcription of the sphere definition with the shift
    p = instantiate(ProblemId(1, 5, 4), 0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-5, 5, 5)
        expected = float(np.sum((x - p.x_opt) ** 2))
        assert p.evaluate(x) == pytest.approx(expected, rel=1e-10)


def test_rosenbrock_reference_oracle():
    # oracle: direct transcription of the shifted Rosenbrock definition
    p = instantiate(ProblemId(8, 5, 1), 0)
    c = max(1.0, np.sqrt(5) / 8.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-5, 5, 5)
        z = c * (x - p.x_opt) + 1.0
        expected = float(
            np.sum(100.0 * (z[:-1] ** 2 - z[1:]) ** 2 + (z[:-1] - 1.0) ** 2)
        )
        assert p.evaluate(x) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("fid", (1, 2))
def test_separable_functions_are_additively_separable(fid):
    # for f(x) = sum_i g_i(x_i): mixing coordinates of a and b preserves
    # the total, f(a) + f(b) == f(mix) + f(complement)
    p = instantiate(ProblemId(fid, 3, 1), 0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(-5, 5, 3)
        b = rng.uniform(-5, 5, 3)
        for j in range(3):
            mix = a.copy()
            mix[j] = b[j]
            comp = b.copy()
            comp[j] = a[j]
            lhs = p.evaluate(a) + p.evaluate(b)
            rhs = p.evaluate(mix) + p.evaluate(comp)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_evaluation_is_referentially_transparent():
    p = instantiate(ProblemId(21, 5, 1), 0)
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 5)
    assert p.evaluate(x) == p.evaluate(x)


def test_dimension_mismatch_raises():
    p = instantiate(ProblemId(1, 2, 1), 0)
    with pytest.raises(ValueError):
        p.evaluate(np.zeros(3))


def test_precision_clamps_roundoff():
    p = instantiate(ProblemId(1, 2, 1), 0)
    assert p.precision(p.f_opt) == 0.0
    assert p.precision(p.f_opt + 1e-8) == pytest.approx(1e-8)
    assert p.precision(p.f_opt - 1e-15) == 0.0


def test_gallagher_peak_counts():
    p21 = instantiate(ProblemId(21, 2, 1), 0)
    p22 = instantiate(ProblemId(22, 2, 1), 0)
    assert p21.peaks["centers"].shape[0] == 101
    assert p22.peaks["centers"].shape[0] == 21
