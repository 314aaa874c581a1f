import importlib
import math

import numpy as np
import pytest

from exitwalk import (
    ConvergenceError,
    DegenerateInputError,
    cond_bm,
    exit_bm,
    substream,
)
from exitwalk.bm_exit import (
    _exit_bm_norm,
    _hit_cdf_bounds,
    _hit_density_bounds,
    _cond_bm_norm,
    _kernel_bounds,
    _sample_hit_time,
    _normal_tail_lanes,
    _sample_hit_time_lanes,
    _sample_normal_tail,
    _sandwich_accept,
    _T_CROSS,
)
from stat_helpers import (
    _resolve,
    absorbing_kernel,
    binomial_z,
    exit_time_cdf,
    hit_cdf,
    ks_1sample,
    ks_2sample,
    ks_critical,
)

bm_mod = importlib.import_module("exitwalk.bm_exit")


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


@pytest.mark.parametrize("z", [0.2, 0.5, 0.9])
def test_capped_exit_matches_sub_cdf_oracle(z):
    # caps below the series crossover decide the exit first, the others draw it eagerly
    n = 4000
    for cap in (0.01, 0.1, 0.3, 0.4, 1.0):
        rng = substream(19, "capped", repr((z, cap)))
        draws = [_exit_bm_norm(rng, z, 1.0 - z, cap) for _ in range(n)]
        for upper, side in ((True, "upper"), (False, "lower")):
            times = np.array([t for t, up in draws if up == upper and t != math.inf])
            p_side = hit_cdf(z, 0.0, 1.0, cap, side)
            assert abs(binomial_z(len(times), n, p_side)) <= 4.0, (cap, side)
            assert np.all(times <= cap)
            if len(times) >= 20:
                d, _ = ks_1sample(times, lambda t: hit_cdf(z, 0.0, 1.0, t, side) / p_side)
                assert d < ks_critical(len(times)), (cap, side)
        assert all(not up for t, up in draws if t == math.inf)


def test_uncapped_exit_draws_as_before():
    def eager(rng, zl, zu):
        if rng.uniform() < zl:
            return _sample_hit_time(rng, zu), True
        return _sample_hit_time(rng, zl), False

    for z in (0.2, 0.5, 0.9):
        a = substream(20, "eager", repr(z))
        b = substream(20, "eager", repr(z))
        assert [_exit_bm_norm(a, z, 1.0 - z) for _ in range(500)] == [eager(b, z, 1.0 - z) for _ in range(500)]
        assert a.draws == b.draws


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
    import stat_helpers as B

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
    # the bounds are on the density times sqrt(2 pi t^3), at the distance 1 - z to the upper end
    for z in (0.2, 0.5, 0.9):
        for t in (0.1, 0.3, 0.5, 1.0):
            brute = _hit_density_brute(z, t)
            scale = math.sqrt(2.0 * math.pi * t**3)
            for k in (2, 4, 6):
                lo, hi = _hit_density_bounds(1.0 - z, t, k)
                assert lo / scale - 1e-13 <= brute <= hi / scale + 1e-13


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
    for d in (0.25, 0.6):
        for t in (0.1, 0.4):
            lo, hi, _ = _resolve(lambda k: _hit_cdf_bounds(d, t, k), 1e-13)
            assert 0.0 <= lo <= hi <= 1.0


def test_resolve_raises_when_bounds_stagnate():
    with pytest.raises(ConvergenceError):
        _resolve(lambda k: (0.0, 1.0), 1e-6)


class _Scripted:
    """A stream that serves the given normals and uniforms in turn, one at a time or in arrays."""

    def __init__(self, normals, uniforms):
        self.normal = iter(normals).__next__
        self.uniform = iter(uniforms).__next__

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)])

    def uniforms(self, n):
        return np.array([self.uniform() for _ in range(n)])


def _six_term(z, y, tn):
    """(q, tail): the k=1 image sum of q_tn(z, y) and its tail bound, as _cond_bm_norm computed them before the squeeze."""
    inv2t = 0.5 / tn
    pref = 1.0 / math.sqrt(6.283185307179586 * tn)
    tail = 4.0 * pref * math.exp(-4.0 * inv2t) / (1.0 - math.exp(-6.0 / tn))
    d = y - z
    ypz = y + z
    q = (
        math.exp(-d * d * inv2t)
        - math.exp(-ypz * ypz * inv2t)
        + math.exp(-(d + 2.0) * (d + 2.0) * inv2t)
        - math.exp(-(ypz + 2.0) * (ypz + 2.0) * inv2t)
        + math.exp(-(d - 2.0) * (d - 2.0) * inv2t)
        - math.exp(-(ypz - 2.0) * (ypz - 2.0) * inv2t)
    ) * pref
    return q, tail


def _six_term_decision(z, y, tn, threshold):
    """threshold <= q_tn(z, y) as the image regime decided it before the squeeze: k=1 bounds, then the sandwich."""
    q, tail = _six_term(z, y, tn)
    if threshold <= q - tail:
        return True
    if threshold > q + tail:
        return False
    return _sandwich_accept(threshold, lambda k: _kernel_bounds(z, y, tn, k), 2)


def test_image_squeeze_decides_as_the_six_term_test():
    """Thresholds a few ulps around q -/+ tail, around q and around the
    squeeze's own edges: the first proposal is accepted exactly when the
    six-term test accepts it (a rejected one is followed by a sure accept at
    y = z)."""
    checked = 0
    for z in (0.03, 0.2, 0.5, 0.77, 0.97):
        for tn in (1e-4, 0.01, 0.05, 0.15, 0.3, 0.318):
            s = math.sqrt(tn)
            inv2t = 0.5 / tn
            pref = 1.0 / math.sqrt(6.283185307179586 * tn)
            for v in (-2.5, -1.0, -0.3, 0.4, 1.2, 2.8):
                y = z + s * v
                if not 0.0 < y < 1.0:
                    continue
                q, tail = _six_term(z, y, tn)
                d = y - z
                lead = math.exp(-d * d * inv2t)
                m = min(y + z, 2.0 - y - z)
                q2 = (lead - math.exp(-m * m * inv2t)) * pref
                band = pref * (math.exp(-inv2t) + math.exp(-4.0 * inv2t)) + tail
                for edge in (q - tail, q, q + tail, q2 - band, q2 + band):
                    u = edge / (pref * lead)
                    for _ in range(4):
                        u = math.nextafter(u, 0.0)
                    for _ in range(9):
                        if 0.0 < u < 1.0:
                            expected = _six_term_decision(z, y, tn, u * pref * lead)
                            got = _cond_bm_norm(_Scripted([v, 0.0], [u, 1e-300]), z, tn)
                            assert got == (y if expected else z), (z, tn, v, u)
                            checked += 1
                        u = math.nextafter(u, 1.0)
    assert checked > 1000


def test_normal_tail_loops_are_capped(monkeypatch):
    monkeypatch.setattr(bm_mod, "_MAX_PROPOSALS", 100)
    stuck = _Scripted(iter(lambda: 0.0, None), iter(lambda: 1.0 - 2.0**-53, None))
    for c in (0.5, 2.0):  # the plain loop, then the Rayleigh loop
        with pytest.raises(ConvergenceError, match="normal-tail"):
            _sample_normal_tail(stuck, c)


def test_normal_tail_lane_loops_are_capped(monkeypatch):
    monkeypatch.setattr(bm_mod, "_MAX_PROPOSALS", 100)
    stuck = _Scripted(iter(lambda: 0.0, None), iter(lambda: 1.0 - 2.0**-53, None))
    for c, loop in ((0.5, "plain"), (1.5, "Rayleigh")):
        with pytest.raises(ConvergenceError, match=rf"normal-tail \({loop}\)"), np.errstate(all="ignore"):
            _normal_tail_lanes(stuck, np.full(2 * bm_mod._TAIL_LANES, c))


class _Stuck:
    """A stream whose every uniform is the largest float below 1 and every
    normal 1.0: each hit-time proposal at distance 0.5 takes the tail piece and
    is rejected, in either engine."""

    uniform = staticmethod(lambda: 1.0 - 2.0**-53)
    normal = staticmethod(lambda: 1.0)

    def uniforms(self, n):
        return np.full(n, 1.0 - 2.0**-53)

    def normals(self, n):
        return np.ones(n)


def test_hit_time_loops_are_capped(monkeypatch):
    monkeypatch.setattr(bm_mod, "_MAX_PROPOSALS", 100)
    with pytest.raises(ConvergenceError, match="hitting-time"):
        _sample_hit_time(_Stuck(), 0.5)
    with pytest.raises(ConvergenceError, match="hitting-time"), np.errstate(all="ignore"):
        _sample_hit_time_lanes(_Stuck(), np.full(2 * bm_mod._TAIL_LANES, 0.5))


def _levy_cdf(s):
    """P(tau <= s d^2) for the one-barrier hitting time from distance d."""
    return math.erfc(1.0 / math.sqrt(2.0 * s))


@pytest.mark.parametrize("d", [1e-60, 1e-150])
def test_tiny_hitting_distances_keep_the_one_barrier_law(d):
    # far below the other end, t / d^2 follows the one-barrier (Levy) law;
    # neither engine forms t^3, which underflows once d < 1e-51
    n = 2000
    rng = substream(24, "tiny", repr(d))
    scalar = np.array([_sample_hit_time(rng, d) for _ in range(n)]) / (d * d)
    with np.errstate(all="ignore"):
        lanes = _sample_hit_time_lanes(rng, np.full(n, d)) / (d * d)
    for scaled in (scalar, lanes):
        assert np.all(scaled > 0.0)
        stat, _ = ks_1sample(scaled, _levy_cdf)
        assert stat < ks_critical(n)
    for cap in (1e-3, 0.1, 1.0):
        t, upper = _exit_bm_norm(rng, d, 1.0, cap)
        assert not upper and 0.0 < t < 1e12 * d * d


def test_distance_whose_square_underflows_raises():
    rng = substream(25, "underflow")
    for cap in (0.1, 1.0, math.inf):
        with pytest.raises(DegenerateInputError, match="5e-324"):
            _exit_bm_norm(rng, 5e-324, 1.0, cap)
    with pytest.raises(DegenerateInputError, match="5e-324"), np.errstate(all="ignore"):
        _sample_hit_time_lanes(rng, np.full(2 * bm_mod._TAIL_LANES, 5e-324))
