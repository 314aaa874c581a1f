import math

import numpy as np
import pytest

from exitwalk import substream


def test_exponential_zero_rate_is_inf():
    rng = substream(1, "exp")
    before = rng.draws
    assert rng.exponential(0.0) == math.inf
    assert rng.draws == before


def test_exponential_mean():
    rng = substream(2, "exp")
    n = 100_000
    vals = np.array([rng.exponential(2.0) for _ in range(n)])
    assert abs(vals.mean() - 0.5) <= 3.0 * vals.std() / math.sqrt(n)
    assert np.all(vals > 0.0)


def test_exponential_negative_rate():
    with pytest.raises(ValueError):
        substream(3, "exp").exponential(-1.0)


def test_exponential_reproducible():
    assert substream(4, "exp").exponential(3.0) == substream(4, "exp").exponential(3.0)


def test_array_draws_count_and_stay_in_the_open_interval():
    rng = substream(5, "arrays")
    chunks = [rng.uniforms(n) for n in (1, 700, 4000, 5000, 3)]
    normals = [rng.normals(n) for n in (2000, 3000)]
    assert rng.draws == 9704 + 5000
    u = np.concatenate(chunks)
    assert u.shape == (9704,) and np.all((u > 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / len(u))
    v = np.concatenate(normals)
    assert abs(v.mean()) <= 4.0 / math.sqrt(len(v))
    with pytest.raises(ValueError):  # served arrays are read-only views
        chunks[1][0] = 0.5
    again = substream(5, "arrays")
    assert again.uniforms(701).tobytes() == np.concatenate(chunks[:2]).tobytes()


def test_array_uniforms_redraw_exact_zeros():
    rng = substream(6, "zeros")
    real = rng._gen
    calls = []

    class ZerosFirst:
        def random(self, n):
            calls.append(n)
            out = real.random(n)
            if len(calls) == 1:
                out[::3] = 0.0
            return out

    rng._gen = ZerosFirst()
    u = rng.uniforms(30)
    assert np.all(u > 0.0) and len(calls) >= 2 and rng.draws == 30
