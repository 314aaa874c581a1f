import math
import types

import numpy as np
import pytest

import exitwalk.box_exit as box_mod
from exitwalk import (
    ConfigurationError,
    RunawayError,
    WorkCounter,
    brownian,
    compute_bounds,
    cond_bm,
    exit_bm,
    exit_time_cdf,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    substream,
)
from exitwalk.box_exit import box_exit
from stat_helpers import binomial_z, corrupt_gamma, ks_2sample

BM = brownian()
OU1 = ornstein_uhlenbeck(1.0)
SIN = sinusoidal_drift()

# frozen reference scheme run: OU lambda=1 on [0,7] from 3, horizon 0.5,
# Euler-Maruyama dt=1e-5, n=1e5 (seed path (101, 'euler', 'box')); the scheme
# has since been removed from the package, so the constants stay frozen
EULER_BOX_P_EXIT = 0.00107
EULER_BOX_P_EXIT_N = 100_000
EULER_BOX_LOWER_SHARE = 1.0


def test_preconditions():
    rng = substream(5, "pre")
    with pytest.raises(ValueError):
        box_exit(rng, BM, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        box_exit(rng, BM, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        box_exit(rng, BM, 0.5, 0.0, 1.0, 0.0)


def test_infinite_horizon_needs_nonnegative_gamma():
    rng = substream(6, "inf")
    out = box_exit(rng, SIN, 3.0, 0.0, 7.0, math.inf)
    assert out.exited and out.position in (0.0, 7.0)
    with pytest.raises(ConfigurationError):
        box_exit(rng, OU1, 3.0, 0.0, 7.0, math.inf)


def test_zero_drift_collapse_finite_horizon():
    """With zero drift the sampler must reproduce the plain Brownian outcome."""
    from exitwalk import hit_cdf

    n = 20_000
    rng = substream(7, "box")
    times = np.empty(n)
    pos = np.empty(n)
    exited = np.zeros(n, dtype=bool)
    for i in range(n):
        o = box_exit(rng, BM, 0.3, 0.0, 1.0, 1.0)
        times[i], pos[i], exited[i] = o.time, o.position, o.exited

    rng2 = substream(8, "ref")
    ref_t = np.empty(n)
    for i in range(n):
        s = exit_bm(rng2, 0.3, 0.0, 1.0)
        ref_t[i] = s.time if s.time <= 1.0 else 1.0

    _, p = ks_2sample(times, ref_t)
    assert p > 0.01
    p_exit = exit_time_cdf(0.3, 0.0, 1.0, 1.0)
    assert abs(binomial_z(int(exited.sum()), n, p_exit)) <= 3.0
    p_up_given_exit = hit_cdf(0.3, 0.0, 1.0, 1.0, "upper") / p_exit
    n_ex = int(exited.sum())
    assert abs(binomial_z(int((pos[exited] == 1.0).sum()), n_ex, p_up_given_exit)) <= 3.0


def test_zero_drift_infinite_horizon_matches_exit_bm():
    n = 10_000
    rng = substream(9, "detbox")
    times = np.array([box_exit(rng, BM, 0.3, 0.0, 1.0, math.inf).time for _ in range(n)])
    rng2 = substream(10, "detbm")
    ref = np.array([exit_bm(rng2, 0.3, 0.0, 1.0).time for _ in range(n)])
    _, p = ks_2sample(times, ref)
    assert p > 0.01


def test_truncation_time_is_exact():
    rng = substream(11, "trunc")
    for _ in range(200):
        o = box_exit(rng, BM, 0.5, 0.0, 1.0, 1e-4)
        assert not o.exited
        assert o.time == 1e-4
        assert 0.0 < o.position < 1.0


def test_ou_single_box_matches_frozen_euler_reference():
    """OU box on [0,7] from 3 with horizon 0.5 against the frozen Euler run."""
    n = 15_000
    rng = substream(12, "oubox")
    exited = 0
    lower = 0
    for _ in range(n):
        o = box_exit(rng, OU1, 3.0, 0.0, 7.0, 0.5)
        if o.exited:
            exited += 1
            lower += o.position == 0.0
    p_hat = exited / n
    se = math.sqrt(
        EULER_BOX_P_EXIT * (1 - EULER_BOX_P_EXIT) / EULER_BOX_P_EXIT_N
        + p_hat * (1 - p_hat) / n
    )
    assert abs(p_hat - EULER_BOX_P_EXIT) <= 3.0 * se
    # every observed exit in the reference run crossed the lower boundary
    assert lower / max(exited, 1) > 0.99


def test_conservative_bounds_change_work_not_law():
    bounds = compute_bounds(OU1, 0.0, 1.0)
    inflated = bounds.inflated(2.0)
    n = 10_000

    def run(tag, bd):
        rng = substream(13, tag)
        t = np.empty(n)
        loc = np.empty(n)
        work = np.empty(n)
        for i in range(n):
            o = box_exit(rng, OU1, 0.5, 0.0, 1.0, 1.0, bounds=bd)
            t[i], loc[i], work[i] = o.time, o.position, o.work.total()
        return t, loc, work

    t1, loc1, w1 = run("tight", bounds)
    t2, loc2, w2 = run("loose", inflated)
    _, p = ks_2sample(t1, t2)
    assert p > 0.01
    k1 = int((loc1 == 1.0).sum())
    k2 = int((loc2 == 1.0).sum())
    pooled = (k1 + k2) / (2 * n)
    z = (k1 / n - k2 / n) / math.sqrt(2 * pooled * (1 - pooled) / n)
    assert abs(z) <= 3.0
    assert w2.mean() > w1.mean()


def test_gamma_override_hook_biases_the_law():
    # the validation hook must actually change acceptance when gamma is corrupted
    n = 2_000
    rng = substream(14, "hooka")
    base = np.array([box_exit(rng, SIN, 3.0, 2.0, 4.0, math.inf).time for _ in range(n)])
    rng = substream(14, "hookb")
    bad = corrupt_gamma(SIN, 5.0)
    corrupted = np.array([box_exit(rng, bad, 3.0, 2.0, 4.0, math.inf).time for _ in range(n)])
    # extra killing at rate 5 per unit time tilts toward short excursions
    assert corrupted.mean() < 0.9 * base.mean()


def test_box_exit_submodule_is_not_shadowed(monkeypatch):
    # the package must not re-export the function under its module's name
    assert isinstance(box_mod, types.ModuleType)
    monkeypatch.setattr("exitwalk.box_exit._exit_bm_norm", lambda rng, z: (0.25, True))
    out = box_exit(substream(18, "patched"), BM, 0.5, 0.0, 1.0, 1.0)
    assert (out.time, out.position, out.exited) == (0.25, 1.0, True)


def test_work_cap_raises_runaway():
    bounds = compute_bounds(OU1, 0.0, 1.0)
    starved = box_mod.IntervalBounds(
        beta_sup=bounds.beta_sup * 1e30,
        gamma_inf=bounds.gamma_inf,
        gamma_sup=bounds.gamma_sup,
        gamma_range=bounds.gamma_range,
        log_beta_sup=bounds.log_beta_sup + 30.0 * math.log(10.0),
    )
    rng = substream(15, "runaway")
    with pytest.raises(RunawayError):
        box_exit(rng, OU1, 0.5, 0.0, 1.0, 1.0, bounds=starved, max_restarts=50)


def test_work_accounting_audit(monkeypatch):
    """Every raw draw maps to exactly one counter: the primitives' internal
    consumption is attributed to their call counters, everything else to
    exp_draws/uniform_draws."""
    rng = substream(16, "audit")
    inner = {"exit": 0, "cond": 0, "exit_calls": 0, "cond_calls": 0}
    real_exit = box_mod._exit_bm_norm
    real_cond = box_mod._cond_bm_norm

    def wrapped_exit(r, z):
        before = r.draws
        out = real_exit(r, z)
        inner["exit"] += r.draws - before
        inner["exit_calls"] += 1
        return out

    def wrapped_cond(r, z, tn):
        before = r.draws
        out = real_cond(r, z, tn)
        inner["cond"] += r.draws - before
        inner["cond_calls"] += 1
        return out

    monkeypatch.setattr(box_mod, "_exit_bm_norm", wrapped_exit)
    monkeypatch.setattr(box_mod, "_cond_bm_norm", wrapped_cond)

    work = WorkCounter()
    total_before = rng.draws
    for _ in range(300):
        box_exit(rng, OU1, 3.0, 2.0, 4.0, 0.3, work=work)
    consumed = rng.draws - total_before
    assert work.exit_bm_calls == inner["exit_calls"]
    assert work.cond_bm_calls == inner["cond_calls"]
    assert consumed == inner["exit"] + inner["cond"] + work.exp_draws + work.uniform_draws
    assert work.restarts <= work.exit_bm_calls


def test_outcome_invariants():
    rng = substream(17, "inv")
    for _ in range(2000):
        o = box_exit(rng, OU1, 0.5, 0.0, 1.0, 0.4)
        assert 0.0 <= o.time <= 0.4
        assert o.exited == (o.position in (0.0, 1.0))
        if not o.exited:
            assert o.time == 0.4 and 0.0 < o.position < 1.0
        else:
            assert o.time > 0.0
