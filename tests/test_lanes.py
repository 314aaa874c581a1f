"""The lockstep lane walk against the scalar walk: the same law, the same work, the same caps."""

import numpy as np
import pytest

import exitwalk.bm_exit as bm_mod
import exitwalk.random_walk as walk_mod
from exitwalk import (
    RunawayError,
    brownian,
    cox_ingersoll_ross,
    diff_exit,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    substream,
)
from exitwalk.bm_exit import _hit_density_bounds, _hit_density_k1, _kernel_bounds, _kernel_k1
from exitwalk.parallel import run_replications
from stat_helpers import assert_same_exit_law

# the ou2, cir and sin cases of acceptance criterion 3: model, x, a, b, T, N
CASES = {
    "ou2": (ornstein_uhlenbeck(2.0), 0.5, -2.0, 2.0, 0.5, 6),
    "cir": (cox_ingersoll_ross(3.0, 7.0, 1.0), 3.0, 1.0, 6.0, 0.5, 16),
    "sin": (sinusoidal_drift(), 3.0, 0.0, 7.0, 1.0, 7),
}
SIZE = 4000
_SCALAR = {}


def _scalar(case):
    """SIZE scalar walks of ``case`` from one stream, shared by the tests below."""
    if case not in _SCALAR:
        model, x, a, b, T, N = CASES[case]
        rng = substream(90, "scalar", case)
        _SCALAR[case] = [diff_exit(rng, model, x, a, b, T, N) for _ in range(SIZE)]
    return _SCALAR[case]


def _lanes(case, seed):
    model, x, a, b, T, N = CASES[case]
    return diff_exit(substream(seed, "lanes", case), model, x, a, b, T, N, lanes=SIZE)


def test_k1_bounds_are_the_scalar_k1_bounds():
    # both series regimes: the crossover sits at normalised t = 1/pi
    z, y, t = (a.ravel() for a in np.meshgrid(
        np.linspace(0.02, 0.98, 9), np.linspace(0.03, 0.97, 7), np.geomspace(0.01, 3.0, 15)
    ))
    d = z  # the hitting bounds take the distance to the end being hit, any value in (0, 1)
    lo, hi = _hit_density_k1(d, t)
    for k in range(len(d)):
        want_lo, want_hi = _hit_density_bounds(d[k], t[k], 1)
        assert max(lo[k], 0.0) == pytest.approx(want_lo, rel=1e-12, abs=1e-300)
        assert hi[k] == pytest.approx(want_hi, rel=1e-12, abs=1e-300)
    lo, hi = _kernel_k1(z, y, t)
    for k in range(len(z)):
        want_lo, want_hi = _kernel_bounds(z[k], y[k], t[k], 1)
        assert max(lo[k], 0.0) == pytest.approx(want_lo, rel=1e-12, abs=1e-300)
        assert hi[k] == pytest.approx(want_hi, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lanes_match_scalar_law_and_work(case):
    # scalar rectangles decide whether the exit comes first before drawing it,
    # lanes draw every exit in full: the law and every work count still agree
    batch = _lanes(case, 91)
    assert len(batch) == SIZE
    assert all(r.exit_location in CASES[case][2:4] for r in batch)
    assert_same_exit_law(batch, _scalar(case), CASES[case][3], case)


@pytest.mark.parametrize("case", ["cir", "sin"])
def test_scalar_sandwich_deciding_every_lane_keeps_the_law(monkeypatch, case):
    def undecided(*arrays):
        return np.full(len(arrays[0]), -np.inf), np.full(len(arrays[0]), np.inf)

    decided = [0]
    real_sandwich = bm_mod._sandwich_accept

    def counting_sandwich(*args):
        decided[0] += 1
        return real_sandwich(*args)

    monkeypatch.setattr(bm_mod, "_hit_density_k1", undecided)
    monkeypatch.setattr(bm_mod, "_kernel_k1", undecided)
    monkeypatch.setattr(bm_mod, "_sandwich_accept", counting_sandwich)
    batch = _lanes(case, 92)
    assert decided[0] > SIZE
    assert_same_exit_law(batch, _scalar(case), CASES[case][3], case)


@pytest.mark.parametrize("lanes", [10, 200])
def test_step_cap_raises_runaway_per_lane(monkeypatch, lanes):
    monkeypatch.setattr(walk_mod, "_MAX_STEPS", 3)
    # a tiny horizon truncates every rectangle, so no walk gets far in 3 steps
    with pytest.raises(RunawayError):
        diff_exit(substream(93, "cap"), brownian(), 0.5, 0.0, 1.0, 1e-6, 8, lanes=lanes)


@pytest.mark.parametrize("n", [1, 8, 63])
@pytest.mark.parametrize("case", ["cir", "ou2", "sin"])
def test_block_below_tail_lanes_is_scalar_walks_in_turn(monkeypatch, case, n):
    assert n < walk_mod._TAIL_LANES

    def no_lanes(*args):
        raise AssertionError("lane constants built")

    # such a block sets up no lanes at all
    monkeypatch.setattr(walk_mod, "slice_constants", no_lanes)
    model, x, a, b, T, N = CASES[case]
    N = 12 if case == "sin" else N
    block_rng, rng = substream(95, "tail", case, n), substream(95, "tail", case, n)
    block = diff_exit(block_rng, model, x, a, b, T, N, lanes=n)
    walks = [diff_exit(rng, model, x, a, b, T, N) for _ in range(n)]
    assert [(r.exit_time, r.exit_location, r.steps, r.work) for r in block] == [
        (r.exit_time, r.exit_location, r.steps, r.work) for r in walks
    ]
    assert block_rng.draws == rng.draws


def test_lane_path_reruns_byte_identical():
    model, x, a, b, T, N = CASES["sin"]
    one = run_replications(model, x, a, b, T, N, 300, 94, tag="rerun", processes=1)
    two = run_replications(model, x, a, b, T, N, 300, 94, tag="rerun", processes=1)
    for key in one:
        if key != "wall_time":
            assert one[key].tobytes() == two[key].tobytes(), key


def test_lanes_validation():
    model, x, a, b, T, N = CASES["cir"]
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError):
            diff_exit(substream(95), model, x, a, b, T, N, lanes=bad)
    recs = diff_exit(substream(95), model, x, a, b, T, N, lanes=1)
    assert len(recs) == 1 and recs[0].chosen_N == N
