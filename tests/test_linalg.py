"""``linalg.eigh`` against ``np.linalg.eigh``: the same bits, the same errors."""

import numpy as np
import pytest

from dynswitch import linalg


def _spd(rng, d):
    a = rng.standard_normal((d, d))
    return linalg.symmetrize(a @ a.T + 1e-3 * np.eye(d))


@pytest.mark.parametrize("d", (2, 3, 5, 10, 20, 40))
def test_eigh_gives_numpys_bits(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        m = _spd(rng, d)
        vals, vecs = linalg.eigh(m)
        want_vals, want_vecs = np.linalg.eigh(m)
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()
        assert vecs.strides == want_vecs.strides


@pytest.mark.parametrize("m", [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
], ids=["nan-entry", "inf-entry"])
def test_eigh_returns_what_numpy_returns_on_a_non_finite_entry(m):
    vals, vecs = linalg.eigh(m)
    want_vals, want_vecs = np.linalg.eigh(m)
    np.testing.assert_array_equal(vals, want_vals)
    np.testing.assert_array_equal(vecs, want_vecs)


def test_eigh_raises_where_numpy_raises():
    m = np.full((3, 3), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(m)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.eigh(m)


def test_eigh_falls_back_to_numpy_without_the_private_module(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def numpy_eigh(m):
        calls.append(m)
        return original(m)

    m = _spd(np.random.default_rng(0), 4)
    want_vals, want_vecs = np.linalg.eigh(m)
    monkeypatch.setattr(linalg, "_umath_linalg", None)
    monkeypatch.setattr(np.linalg, "eigh", numpy_eigh)
    vals, vecs = linalg.eigh(m)
    assert len(calls) == 1 and calls[0] is m
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.tobytes() == want_vecs.tobytes()
