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
