import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exitwalk.bandit as bandit_mod
from exitwalk import (
    BanditState,
    WALL_TIME,
    WORK_UNITS,
    bandit_diff_exit,
    brownian,
    diff_exit,
    ornstein_uhlenbeck,
    select_arm,
    sinusoidal_drift,
    substream,
    update,
)
from stat_helpers import assert_same_exit_law, chi_square_test, ks_2sample

OU1 = ornstein_uhlenbeck(1.0)
BM = brownian()
SIN = sinusoidal_drift()


def test_update_first_observation():
    s = BanditState(n0=5, epsilon=0.1)
    update(s, 3, 3.0)
    assert s.mean_cost[1] == 3.0
    assert s.pulls[1] == 1


def test_update_incremental_mean():
    s = BanditState(n0=5, epsilon=0.1)
    s.mean_cost[0], s.pulls[0] = 2.0, 3
    update(s, 2, 6.0)
    assert s.mean_cost[0] == pytest.approx(3.0)
    assert s.pulls[0] == 4


def test_update_sequence_mean():
    s = BanditState(n0=5, epsilon=0.1)
    for r in (1.0, 2.0, 3.0):
        update(s, 4, r)
    assert s.mean_cost[2] == pytest.approx(2.0)


@given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=300))
@settings(max_examples=80, deadline=None)
def test_incremental_mean_matches_direct_sum(rewards):
    s = BanditState(n0=3, epsilon=0.5)
    for r in rewards:
        update(s, 2, r)
    direct = sum(rewards) / len(rewards)
    assert abs(s.mean_cost[0] - direct) <= 1e-9 * max(1.0, abs(direct))


def test_update_validation():
    s = BanditState(n0=5, epsilon=0.1)
    with pytest.raises(ValueError):
        update(s, 1, 1.0)
    with pytest.raises(ValueError):
        update(s, 6, 1.0)
    with pytest.raises(ValueError):
        update(s, 2, 0.0)
    with pytest.raises(ValueError):
        update(s, 2, math.inf)


def test_state_validation():
    with pytest.raises(ValueError):
        BanditState(n0=2, epsilon=0.1)
    with pytest.raises(ValueError):
        BanditState(n0=5, epsilon=0.0)
    with pytest.raises(ValueError):
        BanditState(n0=5, epsilon=1.1)
    with pytest.raises(ValueError):
        BanditState(n0=5, epsilon=0.1, schedule="boltzmann")


def test_greedy_arm_all_zero_tie_returns_smallest():
    s = BanditState(n0=21, epsilon=0.1)
    assert s.greedy_arm() == 2


def test_greedy_arm_unique_argmin():
    s = BanditState(n0=21, epsilon=0.1)
    for arm in s.arms:
        update(s, arm, 10.0 + abs(arm - 14))
    assert s.greedy_arm() == 14


def test_selection_probabilities_fresh_state_uniform():
    s = BanditState(n0=21, epsilon=0.1)
    probs = s.selection_probabilities()
    assert probs == [1.0 / 20] * 20
    assert sum(probs) == pytest.approx(1.0)


def test_selection_probabilities_match_greedy_mix():
    s = BanditState(n0=21, epsilon=0.1)
    for arm in s.arms:
        update(s, arm, 10.0 + abs(arm - 14))
    probs = s.selection_probabilities()
    assert sum(probs) == pytest.approx(1.0)
    assert probs[14 - 2] == pytest.approx(0.9)
    assert probs[13 - 2] == probs[15 - 2] == pytest.approx(0.05)
    for arm in s.arms:
        if arm not in (13, 14, 15):
            assert probs[arm - 2] == 0.0


@pytest.mark.parametrize("greedy, neighbour", [(2, 3), (21, 20)])
def test_edge_greedy_arm_gives_its_one_neighbour_all_of_epsilon(greedy, neighbour):
    s = BanditState(n0=21, epsilon=0.2)
    for arm in s.arms:
        update(s, arm, 10.0 + abs(arm - greedy))
    probs = s.selection_probabilities()
    assert probs[greedy - 2] == pytest.approx(0.8)
    assert probs[neighbour - 2] == pytest.approx(0.2)
    assert sum(p > 0.0 for p in probs) == 2
    rng = substream(64, "edge", greedy)
    n = 5_000
    counts = np.zeros(s.n_arms)
    for _ in range(n):
        counts[select_arm(s, rng) - 2] += 1
    assert counts[greedy - 2] + counts[neighbour - 2] == n
    _, p = chi_square_test(counts, probs)
    assert p > 0.01


def test_selection_frequencies_match_chi_square():
    s = BanditState(n0=21, epsilon=0.3)
    for arm in s.arms:
        update(s, arm, 5.0 + abs(arm - 9))
    rng = substream(51, "chisq")
    n = 30_000
    counts = np.zeros(s.n_arms)
    for _ in range(n):
        counts[select_arm(s, rng) - 2] += 1
    stat, p = chi_square_test(counts, s.selection_probabilities())
    assert p > 0.01


def test_epsilon_one_explores_only_the_neighbours():
    s = BanditState(n0=11, epsilon=1.0)
    for arm in s.arms:
        update(s, arm, 1.0 + abs(arm - 6))
    rng = substream(52, "uni")
    n = 20_000
    counts = np.zeros(s.n_arms)
    for _ in range(n):
        counts[select_arm(s, rng) - 2] += 1
    assert counts[5 - 2] + counts[7 - 2] == n
    bound = 4.0 * math.sqrt(n * 0.25)
    assert abs(counts[5 - 2] - n / 2) <= bound


def test_epsilon_effective_cube_root_decay():
    s = BanditState(n0=21, epsilon=0.1, schedule="cube_root_decay")
    assert s.epsilon_effective(1) == 1.0
    assert s.epsilon_effective(2) == 1.0  # formula exceeds 1 this early
    v = s.epsilon_effective(1000)
    assert v == pytest.approx(min(1.0, 1000 ** (-1 / 3) * (20 * math.log(1000)) ** (1 / 3)))
    assert 0.0 < v < 1.0


def test_forced_exploration_visits_every_arm():
    s = BanditState(n0=12, epsilon=1e-9)
    rng = substream(53, "forced")
    for it in range(s.n_arms + 1):
        arm = select_arm(s, rng)
        update(s, arm, 1.0 + 0.001 * arm)
    assert all(p >= 1 for p in s.pulls)


@pytest.mark.parametrize("epsilon, schedule", [(1.0, "fixed"), (0.1, "cube_root_decay")])
def test_initial_sweep_visits_every_arm_whatever_epsilon(epsilon, schedule):
    # both states start with epsilon_effective = 1, where the unpulled greedy
    # arm would otherwise never be taken and exploration would stay beside it
    s = BanditState(n0=21, epsilon=epsilon, schedule=schedule)
    rng = substream(56, "sweep", schedule)
    for it in range(s.n_arms):
        if it > 0:
            greedy = s.greedy_arm()
            assert s.pulls[greedy - 2] == 0
            probs = s.selection_probabilities()
            assert probs[greedy - 2] == 1.0 and sum(probs) == 1.0
        update(s, select_arm(s, rng), 1.0 + 0.1 * it)
    assert s.pulls == [1] * s.n_arms


def test_synthetic_environment_concentrates_on_best_arm():
    rng = substream(54, "synth")
    s = BanditState(n0=11, epsilon=0.1)
    best = 6
    picks = []
    for it in range(4000):
        arm = select_arm(s, rng)
        picks.append(arm)
        cost = 1.0 + 0.25 * abs(arm - best) + 0.01 * rng.uniform()
        update(s, arm, cost)
    late = picks[2000:]
    share = sum(a == best for a in late) / len(late)
    assert share >= 0.8


def test_reward_models(monkeypatch):
    recs, trace = bandit_diff_exit(substream(55, "rw"), BM, 0.5, 0.0, 1.0, 1.0, 4, 0.3, 200, reward=WORK_UNITS)
    assert [row[2] for row in trace.rows] == [float(rec.work.total()) for rec in recs]
    # a clock that ticks 1e-12 s per reading: every measured walk is shorter than the floor
    ticks = iter(range(10**6))
    monkeypatch.setattr(bandit_mod._time, "perf_counter", lambda: next(ticks) * 1e-12)
    _, trace = bandit_diff_exit(substream(55, "rw"), BM, 0.5, 0.0, 1.0, 1.0, 4, 0.3, 50, reward=WALL_TIME)
    assert [row[2] for row in trace.rows] == [1e-9] * 50
    with pytest.raises(ValueError):
        bandit_diff_exit(substream(55, "rw"), BM, 0.5, 0.0, 1.0, 1.0, 4, 0.3, 5, reward="boltzmann")


def test_bandit_diff_exit_trace_and_determinism():
    def run():
        rng = substream(56, "trace")
        return bandit_diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 5, 0.3, 60, reward=WORK_UNITS)

    recs1, tr1 = run()
    recs2, tr2 = run()
    assert tr1.rows == tr2.rows
    assert len(recs1) == 60
    assert [r.exit_time for r in recs1] == [r.exit_time for r in recs2]
    iters, arms, rewards, running, eps = zip(*tr1.rows)
    assert list(iters) == list(range(1, 61))
    assert all(2 <= a <= 5 for a in arms)
    assert all(r > 0 for r in rewards)
    np.testing.assert_allclose(np.array(running), np.cumsum(rewards) / np.arange(1, 61))
    assert sum(tr1.state.pulls) == 60
    summary = tr1.arm_summary()
    assert [row[0] for row in summary] == [2, 3, 4, 5]


def test_bandit_preserves_exit_law():
    n = 10_000
    rng = substream(57, "pool")
    recs, _ = bandit_diff_exit(rng, OU1, 3.0, 0.0, 7.0, 1.0, 11, 0.3, n, reward=WORK_UNITS)
    pooled = np.array([r.exit_time for r in recs])
    rng2 = substream(58, "fixed")
    fixed = np.array([diff_exit(rng2, OU1, 3.0, 0.0, 7.0, 1.0, 7).exit_time for _ in range(n)])
    _, p = ks_2sample(pooled, fixed)
    assert p > 0.01


def test_bandit_builds_every_table_before_the_first_pull(monkeypatch):
    """A wall-clock reward must not charge a table build to the pull that needs it."""
    import importlib

    bandit_mod = importlib.import_module("exitwalk.bandit")
    walk_mod = importlib.import_module("exitwalk.random_walk")
    events = []
    real_table = bandit_mod.slice_bounds_table
    real_select = bandit_mod.select_arm

    def table(*args):
        events.append("table")
        return real_table(*args)

    def select(*args):
        events.append("pull")
        return real_select(*args)

    monkeypatch.setattr(bandit_mod, "slice_bounds_table", table)
    monkeypatch.setattr(walk_mod, "slice_bounds_table", table)
    monkeypatch.setattr(bandit_mod, "select_arm", select)
    bandit_diff_exit(substream(60, "tables"), OU1, 3.0, 0.0, 7.0, 1.0, 6, 0.5, 40)
    first = events.index("pull")
    assert events[:first] == ["table"] * 5
    assert events[first:] == ["pull"] * 40


def test_bandit_validation():
    rng = substream(59, "val")
    with pytest.raises(ValueError):
        bandit_diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 2, 0.1, 10)
    with pytest.raises(ValueError):
        bandit_diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 5, 0.1, 0)
    with pytest.raises(ValueError):
        bandit_diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 5, 1.5, 10)


def _counting_diff_exit(monkeypatch):
    """Every walk call of the bandit, as (N, lanes, what it returned)."""
    calls = []
    real = bandit_mod.diff_exit

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args[6], kwargs.get("lanes"), out))
        return out

    monkeypatch.setattr(bandit_mod, "diff_exit", counting)
    return calls


def test_banked_walks_keep_the_scalar_law(monkeypatch):
    calls = _counting_diff_exit(monkeypatch)
    recs, _ = bandit_diff_exit(substream(61, "bank"), SIN, 3.0, 0.0, 7.0, 1.0, 13, 0.1, 3000)
    blocks = [(n, out) for n, lanes, out in calls if lanes is not None]
    arms = {n for n, _ in blocks}
    assert arms, "no pull was served from a bank"
    arm = max(arms, key=lambda n: sum(len(out) for m, out in blocks if m == n))
    served = {id(r) for n, out in blocks if n == arm for r in out}
    banked = [r for r in recs if id(r) in served]  # in pull order
    assert len(banked) >= 1000
    rng = substream(62, "bank-scalar")
    scalar = [diff_exit(rng, SIN, 3.0, 0.0, 7.0, 1.0, arm) for _ in range(len(banked))]
    assert_same_exit_law(banked, scalar, 7.0, arm)
    # Each pull takes a walk independent of the ones before it.  Almost every
    # banked walk is served, so the tests above cannot see the order they are
    # served in; the ascents of n i.i.d. continuous values have mean (n-1)/2
    # and variance (n+1)/12.
    t = [r.exit_time for r in banked]
    ascents = sum(u < v for u, v in zip(t, t[1:]))
    n = len(t)
    assert abs(ascents - (n - 1) / 2) <= 4.0 * math.sqrt((n + 1) / 12), (ascents, n)


def test_work_reward_banks_only_greedy_blocks(monkeypatch):
    cap, M = 32, 400
    picks = []  # (greedy arm before the pick, arm picked, its pulls so far, pulls left)
    calls = []  # (pick of the pull, N, lanes)
    real_select, real_walk = bandit_mod.select_arm, bandit_mod.diff_exit

    def select(state, rng):
        greedy = state.greedy_arm()
        arm = real_select(state, rng)
        picks.append((greedy, arm, state.pulls[arm - 2], M - state.total_pulls))
        return arm

    def walk(*args, **kwargs):
        calls.append((picks[-1], args[6], kwargs.get("lanes")))
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(bandit_mod, "select_arm", select)
    monkeypatch.setattr(bandit_mod, "diff_exit", walk)
    monkeypatch.setattr(bandit_mod, "_LANES", cap)
    recs, trace = bandit_diff_exit(substream(63, "seams"), BM, 0.5, 0.0, 1.0, 1.0, 5, 0.3, M)
    assert len(recs) == len(trace.rows) == M
    # after the first pull, every pick is the greedy arm or one of its neighbours
    assert all(abs(arm - greedy) <= 1 for greedy, arm, _, _ in picks[1:])
    blocks = [c for c in calls if c[2] is not None]
    assert blocks and len(calls) < M
    # a block doubles the arm's pulls until the cap or the end of the run bounds it
    for (greedy, arm, pulls, left), n, lanes in blocks:
        assert n == arm == greedy and lanes == min(cap, left, pulls)
    assert any(lanes == cap for _, _, lanes in blocks)


def test_every_walk_draws_from_the_bandit_stream(monkeypatch):
    streams = []
    real = bandit_mod.diff_exit

    def walk(*args, **kwargs):
        streams.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(bandit_mod, "diff_exit", walk)
    rng = substream(65, "own")
    bandit_diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 5, 0.3, 200)
    assert streams and all(s is rng for s in streams)


def test_wall_reward_runs_one_scalar_walk_per_pull(monkeypatch):
    calls = _counting_diff_exit(monkeypatch)
    recs, _ = bandit_diff_exit(substream(63, "seams"), BM, 0.5, 0.0, 1.0, 1.0, 5, 0.3, 400, reward=WALL_TIME)
    assert len(recs) == 400
    assert [lanes for _, lanes, _ in calls] == [None] * 400
