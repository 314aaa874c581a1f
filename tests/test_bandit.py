import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitwalk import (
    BanditState,
    WORK_UNITS,
    bandit_diff_exit,
    brownian,
    diff_exit,
    ornstein_uhlenbeck,
    reward_model,
    select_arm,
    substream,
    update,
)
from stat_helpers import chi_square_test, ks_2sample

OU1 = ornstein_uhlenbeck(1.0)
BM = brownian()


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
    assert probs[14 - 2] == pytest.approx(0.9 + 0.1 / 20)
    for arm in s.arms:
        if arm != 14:
            assert probs[arm - 2] == pytest.approx(0.005)


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


def test_epsilon_one_is_uniform():
    s = BanditState(n0=11, epsilon=1.0)
    for arm in s.arms:
        update(s, arm, float(arm))
    rng = substream(52, "uni")
    n = 20_000
    counts = np.zeros(s.n_arms)
    for _ in range(n):
        counts[select_arm(s, rng) - 2] += 1
    p0 = 1.0 / s.n_arms
    bound = 4.0 * math.sqrt(n * p0 * (1.0 - p0))
    assert np.all(np.abs(counts - n * p0) <= bound)


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


def test_reward_models():
    rng = substream(55, "rw")
    rec = diff_exit(rng, BM, 0.5, 0.0, 1.0, 1.0, 4)
    assert WORK_UNITS.extract(rec, 0.0) == float(rec.work.total()) > 0.0
    wall = reward_model("wall").extract(rec, 1e-12)
    assert wall > 0.0
    with pytest.raises(ValueError):
        reward_model("boltzmann")


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
