import math

import numpy as np
import pytest

from exitwalk import (
    ConvergenceError,
    adaptive_simpson,
    brownian,
    cox_ingersoll_ross,
    exit_probability,
    mean_exit_time,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    substream,
)
from stat_helpers import (
    _regularized_gamma_q,
    binomial_z,
    chi_square_test,
    kolmogorov_sf,
    ks_1sample,
    ks_2sample,
    ks_critical,
)

BM = brownian()
SIN = sinusoidal_drift()
OU1 = ornstein_uhlenbeck(1.0)
OU2 = ornstein_uhlenbeck(2.0)
CIR = cox_ingersoll_ross(3.0, 7.0, 1.0)

# pinned quadrature fixtures for the study cases; each was cross-checked
# against an independent Euler run within its O(sqrt(dt)) bias allowance
PINNED = {
    "sin": (0.9999998631142644, 2.7486031188981768),
    "ou1": (1.0492494664279202e-17, 2.10616780003286),
    "ou2": (0.5007412520875946, 503.7876550023754),
    "cir": (0.999999999999993, 0.3929011474818936),
}


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_simpson_sine():
    r = adaptive_simpson(math.sin, 0.0, math.pi, 1e-11)
    assert r.value == pytest.approx(2.0, abs=1e-10)
    assert r.abs_error_bound <= 1e-11
    assert r.evaluations > 0


def test_simpson_polynomial_and_orientation():
    f = lambda x: 3.0 * x * x
    assert adaptive_simpson(f, 0.0, 2.0, 1e-12).value == pytest.approx(8.0, abs=1e-11)
    assert adaptive_simpson(f, 2.0, 0.0, 1e-12).value == pytest.approx(-8.0, abs=1e-11)
    assert adaptive_simpson(f, 1.0, 1.0, 1e-12).value == 0.0


def test_simpson_eval_cap():
    with pytest.raises(ConvergenceError):
        adaptive_simpson(lambda x: math.sin(1.0 / (x + 1e-9)), 0.0, 1.0, 1e-14, max_evals=200)


def test_simpson_rejects_non_finite():
    f = lambda x: math.inf if x == 0.0 else 1.0 / x
    with pytest.raises(ConvergenceError):
        adaptive_simpson(f, 0.0, 1.0, 1e-8)


# ---------------------------------------------------------------------------
# scale-function exit probabilities
# ---------------------------------------------------------------------------


def test_exit_probability_zero_drift():
    assert exit_probability(BM, 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-10)


def test_exit_probability_monotone_in_x():
    vals = [exit_probability(OU1, x, 0.0, 2.0) for x in (0.2, 0.7, 1.2, 1.7)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_exit_probability_boundary_limits():
    assert exit_probability(BM, 1e-9, 0.0, 1.0) == pytest.approx(0.0, abs=1e-6)
    assert exit_probability(BM, 1.0 - 1e-9, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "name,model,x,a,b",
    [
        ("sin", SIN, 3.0, 0.0, 7.0),
        ("ou1", OU1, 3.0, 0.0, 7.0),
        ("ou2", OU2, 0.5, -2.0, 2.0),
        ("cir", CIR, 3.0, 1.0, 6.0),
    ],
)
def test_pinned_fixtures(name, model, x, a, b):
    p_pin, t_pin = PINNED[name]
    assert exit_probability(model, x, a, b) == pytest.approx(p_pin, rel=1e-8, abs=1e-20)
    assert mean_exit_time(model, x, a, b) == pytest.approx(t_pin, rel=1e-7)


def test_cir_coordinate_invariance():
    p_t = exit_probability(CIR, 3.0, 1.0, 6.0)
    p_o = exit_probability(CIR, 3.0, 1.0, 6.0, use_transform=False)
    assert p_o == pytest.approx(p_t, rel=1e-8, abs=1e-12)
    t_t = mean_exit_time(CIR, 3.0, 1.0, 6.0)
    t_o = mean_exit_time(CIR, 3.0, 1.0, 6.0, use_transform=False)
    assert t_o == pytest.approx(t_t, rel=1e-8)


# ---------------------------------------------------------------------------
# mean exit times
# ---------------------------------------------------------------------------


def test_mean_exit_time_zero_drift():
    assert mean_exit_time(BM, 0.3, 0.0, 1.0) == pytest.approx(0.21, abs=1e-9)
    assert mean_exit_time(BM, 0.5, 0.0, 1.0) == pytest.approx(0.25, abs=1e-9)


def test_mean_exit_time_vanishes_at_boundaries():
    assert mean_exit_time(BM, 1e-6, 0.0, 1.0) < 2e-6
    assert mean_exit_time(OU1, 2.0 - 1e-6, 0.0, 2.0) < 1e-5


# ---------------------------------------------------------------------------
# statistical helpers (tests/stat_helpers.py)
# ---------------------------------------------------------------------------


def test_ks_identical_samples():
    a = np.linspace(0.0, 1.0, 500)
    d, p = ks_2sample(a, a)
    assert d == 0.0 and p == 1.0
    rng = substream(67, "shuffle")
    b = a.copy()
    order = np.argsort([rng.uniform() for _ in range(len(b))])
    d2, _ = ks_2sample(a, b[order])
    assert d2 == 0.0


def test_ks_separates_shifted_uniforms():
    rng = substream(68, "sep")
    n = 10_000
    a = np.array([rng.uniform() for _ in range(n)])
    b = np.array([rng.uniform() * 1.2 for _ in range(n)])
    _, p = ks_2sample(a, b)
    assert p < 1e-6


def test_ks_1sample_null_behaviour():
    rng = substream(69, "one")
    n = 20_000
    a = np.array([rng.uniform() for _ in range(n)])
    d, p = ks_1sample(a, lambda v: min(max(v, 0.0), 1.0))
    assert d < ks_critical(n)
    assert p > 0.01


def test_ks_critical_value():
    assert ks_critical(100_000) == pytest.approx(1.6276 / math.sqrt(100_000), rel=1e-3)


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_2sample([], [1.0])
    with pytest.raises(ValueError):
        ks_1sample([], lambda v: v)


def test_kolmogorov_sf_shape():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(1.0) == pytest.approx(0.26999967, abs=1e-6)
    assert kolmogorov_sf(2.5) < 1e-4
    vals = [kolmogorov_sf(x) for x in (0.3, 0.6, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_binomial_z():
    assert binomial_z(30, 100, 0.3) == 0.0
    assert binomial_z(40, 100, 0.3) == pytest.approx(0.1 / math.sqrt(0.21 / 100))
    assert binomial_z(0, 100, 0.0) == 0.0
    assert binomial_z(1, 100, 0.0) == math.inf


def test_regularized_gamma_q_identities():
    # Q(1/2, y) = erfc(sqrt(y)); Q(1, y) = exp(-y)
    for y in (0.1, 0.5, 2.0, 7.0):
        assert _regularized_gamma_q(0.5, y) == pytest.approx(math.erfc(math.sqrt(y)), rel=1e-10)
        assert _regularized_gamma_q(1.0, y) == pytest.approx(math.exp(-y), rel=1e-10)


def test_chi_square_uniform_counts():
    rng = substream(70, "chi")
    n = 20_000
    counts = np.zeros(10)
    for _ in range(n):
        counts[int(rng.uniform() * 10)] += 1
    stat, p = chi_square_test(counts, [0.1] * 10)
    assert p > 0.01
    bad = counts.copy()
    bad[0] += 500
    bad[1] -= 500
    _, p_bad = chi_square_test(bad, [0.1] * 10)
    assert p_bad < 1e-6


def test_chi_square_structural_zeros():
    probs = [0.3, 0.0, 0.5, 0.2, 0.0]
    counts = [25, 0, 55, 20, 0]
    stat, p = chi_square_test(counts, probs)
    want = (25 - 30) ** 2 / 30 + (55 - 50) ** 2 / 50 + (20 - 20) ** 2 / 20
    assert stat == pytest.approx(want, rel=1e-12)
    # three positive cells, two degrees of freedom: Q(1, x/2) = exp(-x/2)
    assert p == pytest.approx(math.exp(-want / 2.0), rel=1e-10)
    assert chi_square_test([25, 1, 55, 20, 0], probs)[1] == 0.0
    assert chi_square_test([25, 0, 55, 20, 3], probs)[1] == 0.0


def test_chi_square_positive_cells_unchanged_by_structural_zeros():
    counts = np.array([90.0, 110.0, 95.0, 105.0])
    probs = [0.25] * 4
    exp = 100.0
    stat = float(np.sum((counts - exp) ** 2 / exp))
    assert chi_square_test(counts, probs) == (stat, _regularized_gamma_q(1.5, stat / 2.0))
