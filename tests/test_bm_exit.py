import math

import numpy as np
import pytest

from exitwalk import (
    ConvergenceError,
    DegenerateInputError,
    absorbing_kernel,
    cond_bm,
    exit_bm,
    exit_time_cdf,
    hit_cdf,
    substream,
)
from exitwalk.bm_exit import (
    _hit_cdf_bounds,
    _hit_density_bounds,
    _kernel_bounds,
    _resolve,
    _survival_bounds,
    _T_CROSS,
)
from stat_helpers import ks_1sample, ks_2sample, ks_critical


def _sample_exits(seed, x, l, u, n):
    rng = substream(seed, "exits")
    times = np.empty(n)
    upper = np.zeros(n, dtype=bool)
    for i in range(n):
        s = exit_bm(rng, x, l, u)
        times[i] = s.time
        upper[i] = s.side == "upper"
    return times, upper


def test_exit_bm_midpoint_side_frequency():
    _, upper = _sample_exits(11, 0.5, 0.0, 1.0, 100_000)
    assert abs(upper.mean() - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)


def test_exit_bm_mean_time_and_side_at_x03():
    times, upper = _sample_exits(12, 0.3, 0.0, 1.0, 100_000)
    n = len(times)
    assert abs(upper.mean() - 0.3) <= 3.0 * math.sqrt(0.3 * 0.7 / n)
    assert abs(times.mean() - 0.21) <= 3.0 * times.std() / math.sqrt(n)


def test_exit_bm_times_match_cdf_oracle():
    times, upper = _sample_exits(13, 0.3, 0.0, 1.0, 30_000)
    d, _ = ks_1sample(times, lambda t: exit_time_cdf(0.3, 0.0, 1.0, t))
    assert d < ks_critical(len(times))
    # side-conditional laws against the sub-CDF oracle
    p_up = 0.3
    tu = times[upper]
    d_up, _ = ks_1sample(tu, lambda t: hit_cdf(0.3, 0.0, 1.0, t, "upper") / p_up)
    assert d_up < ks_critical(len(tu))
    tl = times[~upper]
    d_lo, _ = ks_1sample(tl, lambda t: hit_cdf(0.3, 0.0, 1.0, t, "lower") / (1.0 - p_up))
    assert d_lo < ks_critical(len(tl))


def test_exit_bm_brownian_scaling():
    c = 2.5
    times_base, _ = _sample_exits(14, 0.3, 0.0, 1.0, 20_000)
    times_scaled, _ = _sample_exits(15, c * 0.3, 0.0, c * 1.0, 20_000)
    _, p = ks_2sample(times_base * c * c, times_scaled)
    assert p > 0.01


def test_exit_bm_location_is_exact_endpoint():
    rng = substream(16, "loc")
    for _ in range(500):
        s = exit_bm(rng, 1.1, 0.7, 1.9)
        assert s.location in (0.7, 1.9)
        assert (s.side == "upper") == (s.location == 1.9)
        assert s.time > 0.0


def test_exit_bm_determinism():
    a = [exit_bm(substream(77, "det", i), 0.4, 0.0, 1.0) for i in range(50)]
    b = [exit_bm(substream(77, "det", i), 0.4, 0.0, 1.0) for i in range(50)]
    assert a == b


def test_exit_bm_preconditions():
    rng = substream(1, "pre")
    with pytest.raises(ValueError):
        exit_bm(rng, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        exit_bm(rng, 1.5, 0.0, 1.0)


def _kernel_cdf_oracle(x, l, u, t, m=3001):
    ys = np.linspace(l, u, m)
    q = np.zeros(m)
    for i in range(1, m - 1):
        ev = absorbing_kernel(x, ys[i], l, u, t, 1e-12)
        q[i] = 0.5 * (ev.lower_bound + ev.upper_bound)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(ys))])
    cum /= cum[-1]
    return lambda v: np.interp(v, ys, cum)


def test_cond_bm_symmetric_mean():
    rng = substream(21, "sym")
    n = 30_000
    ys = np.array([cond_bm(rng, 0.5, 0.0, 1.0, 0.6) for _ in range(n)])
    assert abs(ys.mean() - 0.5) <= 3.0 * ys.std() / math.sqrt(n)


def test_cond_bm_small_time_concentrates_at_start():
    rng = substream(22, "small")
    n = 20_000
    t = 1e-6  # times (u-l)^2
    ys = np.array([cond_bm(rng, 0.3, 0.0, 1.0, t) for _ in range(n)])
    assert abs(ys.mean() - 0.3) <= 3.0 * ys.std() / math.sqrt(n)


@pytest.mark.parametrize("x,l,u,t", [(0.3, 0.0, 1.0, 0.5), (0.3, 0.0, 1.0, 0.08), (1.7, 1.0, 3.0, 4.0)])
def test_cond_bm_matches_integrated_kernel(x, l, u, t):
    rng = substream(23, "ks", int(t * 1000))
    n = 20_000
    ys = np.array([cond_bm(rng, x, l, u, t) for _ in range(n)])
    assert np.all(ys > l) and np.all(ys < u)
    d, _ = ks_1sample(ys, _kernel_cdf_oracle(x, l, u, t))
    assert d < ks_critical(n)


def test_cond_bm_preconditions():
    rng = substream(2, "pre")
    with pytest.raises(ValueError):
        cond_bm(rng, 0.3, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        cond_bm(rng, -0.1, 0.0, 1.0, 1.0)


def test_cond_bm_degenerate_horizon_raises():
    # survival to normalised t=1000 underflows every float; t=100 is still representable
    rng = substream(70, "degenerate")
    with pytest.raises(DegenerateInputError):
        cond_bm(rng, 0.3, 0.0, 1.0, 1000.0)
    y = cond_bm(rng, 0.3, 0.0, 1.0, 100.0)
    assert 0.0 < y < 1.0


def test_absorbing_kernel_large_t_first_term():
    ev = absorbing_kernel(0.5, 0.5, 0.0, 1.0, 10.0, 1e-18)
    expected = 2.0 * math.exp(-5.0 * math.pi**2)
    assert ev.lower_bound <= expected <= ev.upper_bound
    assert ev.upper_bound - ev.lower_bound <= 1e-18


def test_absorbing_kernel_symmetry_bounds_overlap():
    # a few-ulp slack: the sandwich is exact, float summation order is not
    for t in (0.05, 0.2, 0.7):
        e1 = absorbing_kernel(0.3, 0.6, 0.0, 1.0, t, 1e-13)
        e2 = absorbing_kernel(0.6, 0.3, 0.0, 1.0, t, 1e-13)
        slack = 1e-14 * max(1.0, e1.upper_bound)
        assert e1.lower_bound <= e2.upper_bound + slack
        assert e2.lower_bound <= e1.upper_bound + slack


def test_absorbing_kernel_mass_decreases_in_t():
    def mass(t):
        ys = np.linspace(0.0, 1.0, 201)[1:-1]
        vals = [absorbing_kernel(0.4, y, 0.0, 1.0, t, 1e-12) for y in ys]
        mid = np.array([0.5 * (v.lower_bound + v.upper_bound) for v in vals])
        return np.trapezoid(mid, ys)

    masses = [mass(t) for t in (0.05, 0.2, 0.6, 1.5)]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_kernel_bounds_nest_as_terms_grow():
    for t in (0.1, 0.9):
        lo_prev, hi_prev = -math.inf, math.inf
        for k in range(1, 8):
            lo, hi = _kernel_bounds(0.35, 0.6, t, k)
            lo, hi = max(lo, lo_prev), min(hi, hi_prev)
            assert lo <= hi
            assert lo >= lo_prev - 1e-18 and hi <= hi_prev + 1e-18
            lo_prev, hi_prev = lo, hi


def test_exit_time_cdf_endpoints():
    assert exit_time_cdf(0.3, 0.0, 1.0, 0.0) == 0.0
    assert exit_time_cdf(0.3, 0.0, 1.0, 50.0) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        exit_time_cdf(0.3, 0.0, 1.0, -1.0)


def test_exit_time_cdf_dual_series_agreement():
    for z in (0.1, 0.3, 0.5, 0.8):
        for t in (0.05, 0.2, 0.31, 0.33, 0.6, 1.4):
            img = _survival_series_brute(z, t, image=True)
            spec = _survival_series_brute(z, t, image=False)
            assert img == pytest.approx(spec, abs=1e-10)


def _survival_series_brute(z, t, image, k=40):
    import exitwalk.bm_exit as B

    if image:
        rt = math.sqrt(t)
        s = 0.0
        for j in range(-k, k + 1):
            s += (
                B._norm_cdf((1.0 - z + 2.0 * j) / rt)
                - B._norm_cdf((-z + 2.0 * j) / rt)
                - B._norm_cdf((1.0 + z + 2.0 * j) / rt)
                + B._norm_cdf((z + 2.0 * j) / rt)
            )
        return s
    a = 0.5 * math.pi * math.pi * t
    s = 0.0
    for n in range(1, 2 * k, 2):
        s += 4.0 / (n * math.pi) * math.sin(n * math.pi * z) * math.exp(-n * n * a)
    return s


def test_exit_time_cdf_specific_value_both_series():
    # spec case: x=0.3 on [0,1] at t=0.1
    v = exit_time_cdf(0.3, 0.0, 1.0, 0.1)
    img = 1.0 - _survival_series_brute(0.3, 0.1, image=True)
    spec = 1.0 - _survival_series_brute(0.3, 0.1, image=False)
    assert v == pytest.approx(img, abs=1e-10)
    assert v == pytest.approx(spec, abs=1e-10)


def test_hit_cdf_limits_and_consistency():
    assert hit_cdf(0.3, 0.0, 1.0, 1e9, "upper") == pytest.approx(0.3, abs=1e-10)
    assert hit_cdf(0.3, 0.0, 1.0, 1e9, "lower") == pytest.approx(0.7, abs=1e-10)
    for t in (0.05, 0.2, 0.7):
        total = hit_cdf(0.3, 0.0, 1.0, t, "upper") + hit_cdf(0.3, 0.0, 1.0, t, "lower")
        assert total == pytest.approx(exit_time_cdf(0.3, 0.0, 1.0, t), abs=1e-9)
    with pytest.raises(ValueError):
        hit_cdf(0.3, 0.0, 1.0, 1.0, "sideways")


def test_hit_density_bounds_bracket_brute_force():
    for z in (0.2, 0.5, 0.9):
        for t in (0.1, 0.3, 0.5, 1.0):
            brute = _hit_density_brute(z, t)
            for k in (2, 4, 6):
                lo, hi = _hit_density_bounds(z, t, k)
                assert lo - 1e-13 <= brute <= hi + 1e-13


def _hit_density_brute(z, t, k=60):
    pref = 1.0 / math.sqrt(2.0 * math.pi * t**3)
    s = 0.0
    for j in range(k):
        half = j >> 1
        d = (2 * half + 1) - z if j % 2 == 0 else (2 * half + 1) + z
        c = d * math.exp(-d * d / (2.0 * t)) * pref
        s += -c if j & 1 else c
    return s


def test_hit_cdf_bounds_bracket():
    for z in (0.25, 0.6):
        for t in (0.1, 0.4):
            lo, hi, _ = _resolve(lambda k: _hit_cdf_bounds(z, t, k), 1e-13)
            assert 0.0 <= lo <= hi <= 1.0


def test_resolve_raises_when_bounds_stagnate():
    with pytest.raises(ConvergenceError):
        _resolve(lambda k: (0.0, 1.0), 1e-6)
