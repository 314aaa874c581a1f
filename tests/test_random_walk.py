import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

walk_mod = importlib.import_module("exitwalk.random_walk")
from exitwalk import (
    ConfigurationError,
    DegenerateInputError,
    RunawayError,
    SliceGrid,
    brownian,
    cox_ingersoll_ross,
    diff_exit,
    exit_probability,
    make_model,
    mean_exit_time,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    slice_interval,
    substream,
)
from exitwalk.box_exit import box_exit
from stat_helpers import binomial_z, ks_2sample, slice_index

BM = brownian()
SIN = sinusoidal_drift()
OU1 = ornstein_uhlenbeck(1.0)
CIR = cox_ingersoll_ross(3.0, 7.0, 1.0)


def test_slice_index_examples():
    grid = SliceGrid(0.0, 7.0, 7)
    assert grid.delta == 1.0
    assert slice_index(grid, 3.2) == 3
    assert slice_index(grid, 0.1) == 1
    assert slice_index(grid, 6.9) == 6


def test_slice_index_preconditions():
    grid = SliceGrid(0.0, 7.0, 7)
    with pytest.raises(ValueError):
        slice_index(grid, -0.1)
    with pytest.raises(ValueError):
        slice_index(grid, 7.1)


def test_slice_interval_examples():
    grid = SliceGrid(0.0, 7.0, 7)
    assert slice_interval(grid, 1) == (0.0, 2.0)
    assert slice_interval(grid, 3) == (2.0, 4.0)
    assert slice_interval(grid, 6)[1] == 7.0  # a_hat + N*delta lands on b_hat
    with pytest.raises(ValueError):
        slice_interval(grid, 0)
    with pytest.raises(ValueError):
        slice_interval(grid, 7)


def test_grid_validation():
    with pytest.raises(ValueError):
        SliceGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        SliceGrid(1.0, 0.0, 4)


@given(
    a=st.floats(-10.0, 10.0),
    width=st.floats(0.01, 20.0),
    n=st.integers(2, 40),
    frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(a=0.0, width=0.96875, n=39, frac=0.9999999999999999)
@settings(max_examples=200, deadline=None)
def test_slice_cover_and_margin(a, width, n, frac):
    grid = SliceGrid(a, a + width, n)
    x = a + frac * width
    if not a < x < a + width:  # float collapse at extreme fractions
        return
    i = slice_index(grid, x)
    lo, hi = slice_interval(grid, i)
    assert lo < x < hi
    d = grid.delta
    if a + 0.55 * d <= x <= a + width - 0.55 * d:
        assert min(x - lo, hi - x) >= 0.5 * d * (1.0 - 1e-9)


def test_grid_points_match_slice_index():
    grid = SliceGrid(-1.3, 5.9, 13)
    for j in range(1, grid.n):
        assert slice_index(grid, grid.grid_point(j)) == j


def test_start_just_below_b_lies_in_the_top_slice():
    # a_hat + n*delta rounds below b_hat on this grid; the top grid point must be b_hat
    assert SliceGrid(0.0, 0.96875, 39).grid_point(39) == 0.96875
    rec = diff_exit(substream(1), BM, 0.96875 * 0.9999999999999999, 0.0, 0.96875, 1.0, 39)
    assert rec.exit_location in (0.0, 0.96875)


def test_two_slices_degenerate_to_full_interval():
    grid = SliceGrid(0.25, 1.75, 2)
    lo, hi = slice_interval(grid, 1)
    assert lo == 0.25
    assert hi == pytest.approx(1.75, abs=1e-15)
    # the walk is then a chain of full-interval rectangles
    rng = substream(31, "n2")
    rec = diff_exit(rng, BM, 1.0, 0.25, 1.75, 0.5, 2)
    assert rec.exit_location in (0.25, 1.75)
    assert rec.steps >= 1


def test_n2_matches_iterated_box_exit():
    n = 4000
    rng = substream(32, "walkn2")
    walk_t = np.array([diff_exit(rng, OU1, 0.5, 0.0, 1.0, 0.7, 2).exit_time for _ in range(n)])
    rng2 = substream(33, "iter")
    it_t = np.empty(n)
    for i in range(n):
        z, total = 0.5, 0.0
        while True:
            o = box_exit(rng2, OU1, z, 0.0, 1.0, 0.7)
            total += o.time
            if o.exited:
                break
            z = o.position
        it_t[i] = total
    _, p = ks_2sample(walk_t, it_t)
    assert p > 0.01


def test_sin_walk_matches_oracles():
    n = 5000
    rng = substream(34, "sin")
    times = np.empty(n)
    at_b = 0
    for i in range(n):
        rec = diff_exit(rng, SIN, 3.0, 0.0, 7.0, 1.0, 7)
        times[i] = rec.exit_time
        at_b += rec.exit_location == 7.0
    p = exit_probability(SIN, 3.0, 0.0, 7.0)
    assert abs(binomial_z(at_b, n, p)) <= 3.0
    t_oracle = mean_exit_time(SIN, 3.0, 0.0, 7.0)
    assert abs(times.mean() - t_oracle) <= 3.0 * times.std() / math.sqrt(n)


def test_law_independent_of_n_quick():
    n = 5000
    samples = {}
    for N in (5, 14):
        rng = substream(35, "law", N)
        samples[N] = np.array(
            [diff_exit(rng, OU1, 3.0, 0.0, 7.0, 1.0, N).exit_time for _ in range(n)]
        )
    _, p = ks_2sample(samples[5], samples[14])
    assert p > 0.01


def test_infinite_horizon_accepted_only_when_admissible():
    rng = substream(36, "inf")
    rec = diff_exit(rng, SIN, 3.0, 0.0, 7.0, math.inf, 7)
    assert rec.exit_location in (0.0, 7.0)
    with pytest.raises(ConfigurationError):
        diff_exit(rng, OU1, 3.0, 0.0, 7.0, math.inf, 7)


def test_cir_walk_reports_exact_original_endpoints():
    rng = substream(37, "cir")
    for _ in range(60):
        rec = diff_exit(rng, CIR, 3.0, 1.0, 6.0, 0.5, 8)
        assert rec.exit_location in (1.0, 6.0)
        assert rec.steps >= 1
        assert rec.exit_time > 0.0
        assert rec.chosen_N == 8


def test_exit_time_is_sum_of_box_times(monkeypatch):
    recorded = []
    real = walk_mod.box_exit

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        recorded.append(out.time)
        return out

    monkeypatch.setattr(walk_mod, "box_exit", wrapper)
    rng = substream(38, "sum")
    rec = diff_exit(rng, OU1, 0.5, 0.0, 1.0, 0.3, 5)
    assert rec.exit_time == sum(recorded)
    assert rec.steps == len(recorded)


def test_interior_start_audit(monkeypatch):
    """Every rectangle call starts strictly inside its slice (bulk audit)."""
    real = walk_mod.box_exit
    seen = {"count": 0}

    def checker(rng, model, x, l, u, T, **kwargs):
        assert l < x < u
        seen["count"] += 1
        return real(rng, model, x, l, u, T, **kwargs)

    monkeypatch.setattr(walk_mod, "box_exit", checker)
    rng = substream(39, "audit")
    while seen["count"] < 1_000_000:
        diff_exit(rng, BM, 0.52, 0.0, 1.0, 0.02, 8)


def test_sin_walk_far_from_the_origin_returns():
    # past x = 354 the antiderivative 2x + 1 - cos x exceeds the log of the
    # largest float; the bounds stay in log space, so the walk still runs
    rec = diff_exit(substream(1), SIN, 1003.0, 1000.0, 1007.0, 1.0, 12)
    assert rec.exit_location in (1000.0, 1007.0) and rec.exit_time > 0.0


@pytest.mark.parametrize(
    "model,b,N,lanes", [(BM, 1.0, 2, None), (BM, 1.0, 2, 100), (SIN, 7.0, 7, None)], ids=["bm", "bm-lanes", "sin"]
)
def test_start_next_to_the_lower_end_returns(model, b, N, lanes):
    # 1 - (1 - 1e-20) rounds to 0: a lower exit drawn from that distance never
    # came; from the distance 1e-20 itself the walk leaves at once, at 0
    out = diff_exit(substream(1), model, 1e-20, 0.0, b, 1.0, N, lanes=lanes)
    for rec in [out] if lanes is None else out:
        assert rec.exit_location == 0.0 and 0.0 < rec.exit_time < 1e-20


def test_slices_too_narrow_for_their_floats_raise():
    # 12 slices of 8 ulps: grid points coincided and the walk stopped on a
    # ValueError; one slice covers any interval, however narrow
    a = 1e6
    b = a + 8 * math.ulp(a)
    with pytest.raises(DegenerateInputError, match="too narrow"):
        diff_exit(substream(1), BM, math.nextafter(a, b), a, b, 1.0, 12)
    rec = diff_exit(substream(1), BM, math.nextafter(a, b), a, b, 1.0, 2)
    assert rec.exit_location in (a, b)


def test_grid_bounds_far_from_the_origin_return():
    # the grid path padded e^a, which overflows once the antiderivative
    # 2x + 1 - cos x passes 709.78; it now pads in log space
    grid_sin = make_model("sin-grid", SIN.mu0, SIN.mu0_prime, SIN.mu0_antiderivative)
    rec = diff_exit(substream(1), grid_sin, 1003.0, 1000.0, 1007.0, 1.0, 12)
    assert rec.exit_location in (1000.0, 1007.0) and rec.exit_time > 0.0


def test_step_cap_raises_runaway(monkeypatch):
    monkeypatch.setattr(walk_mod, "_MAX_STEPS", 3)
    rng = substream(40, "cap")
    with pytest.raises(RunawayError):
        diff_exit(rng, BM, 0.5, 0.0, 1.0, 1e-6, 8)


def test_walk_preconditions():
    rng = substream(41, "pre")
    with pytest.raises(ValueError):
        diff_exit(rng, BM, 0.0, 0.0, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        diff_exit(rng, BM, 0.5, 0.0, 1.0, -1.0, 4)
    with pytest.raises(ValueError):
        diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 4, bounds_table=())


def test_determinism():
    a = [diff_exit(substream(42, "det", i), OU1, 3.0, 0.0, 7.0, 1.0, 7).exit_time for i in range(20)]
    b = [diff_exit(substream(42, "det", i), OU1, 3.0, 0.0, 7.0, 1.0, 7).exit_time for i in range(20)]
    assert a == b
