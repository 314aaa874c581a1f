import dataclasses
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
    ornstein_uhlenbeck,
    sinusoidal_drift,
    substream,
)
from exitwalk.bm_exit import _T_CROSS
from exitwalk.box_exit import box_exit
from stat_helpers import binomial_z, corrupt_gamma, exit_time_cdf, inflate, ks_2sample

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
    from stat_helpers import hit_cdf

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
    inflated = inflate(bounds, 2.0)
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
    monkeypatch.setattr("exitwalk.box_exit._exit_bm_norm", lambda rng, zl, zu, cap: (0.25, True))
    out = box_exit(substream(18, "patched"), BM, 0.5, 0.0, 1.0, 1.0)
    assert (out.time, out.position, out.exited) == (0.25, 1.0, True)


# model, x, l, u, T: the edge and the middle slice of the ou2 walk (lambda=2,
# N=6 on (-2, 2)), a sin slice with a finite and an infinite horizon, and BM
LAZY_CASES = {
    "ou2-edge": (ornstein_uhlenbeck(2.0), -4.0 / 3.0, -2.0, -2.0 / 3.0, 0.5),
    "ou2-middle": (ornstein_uhlenbeck(2.0), 0.0, -2.0 / 3.0, 2.0 / 3.0, 0.5),
    "sin-T3": (SIN, 3.0, 2.0, 4.0, 3.0),
    "sin-Tinf": (SIN, 3.0, 2.0, 4.0, math.inf),
    "bm": (BM, 0.3, 0.0, 1.0, 0.6),
}


@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_capped_exit_keeps_box_law_and_work(monkeypatch, case):
    """box_exit against the same loop drawing every exit time in full."""
    model, x, l, u, T = LAZY_CASES[case]
    n = 10_000

    def run(tag):
        rng = substream(19, tag, case)
        return [box_exit(rng, model, x, l, u, T) for _ in range(n)]

    capped = run("capped")
    real_exit = box_mod._exit_bm_norm
    monkeypatch.setattr(box_mod, "_exit_bm_norm", lambda rng, zl, zu, cap: real_exit(rng, zl, zu))
    eager = run("eager")
    _, p = ks_2sample([o.time for o in capped], [o.time for o in eager])
    assert p > 0.01, p
    for ends in ((l, u), (u,)):
        k1 = sum(o.position in ends for o in capped)
        k2 = sum(o.position in ends for o in eager)
        pooled = (k1 + k2) / (2 * n)
        if 0.0 < pooled < 1.0:
            assert abs(k1 - k2) / n <= 3.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / n), ends
    inner = [[o.position for o in out if not o.exited] for out in (capped, eager)]
    if min(map(len, inner)) >= 100:
        _, p = ks_2sample(*inner)
        assert p > 0.01, p
    for field in dataclasses.fields(WorkCounter):
        w1, w2 = (np.array([getattr(o.work, field.name) for o in out], dtype=float) for out in (capped, eager))
        se = math.sqrt((w1.var(ddof=1) + w2.var(ddof=1)) / n)
        assert abs(w1.mean() - w2.mean()) <= 4.0 * se, (field.name, w1.mean(), w2.mean())


def test_both_distances_come_from_the_raw_position(monkeypatch):
    # near u, 1 - (x - l)/w misses (u - x)/w by 1.2e-5 relative here
    seen = []
    real_exit = box_mod._exit_bm_norm

    def recording(rng, zl, zu, cap):
        seen.append((zl, zu))
        return real_exit(rng, zl, zu, cap)

    monkeypatch.setattr(box_mod, "_exit_bm_norm", recording)
    x, l, u = 1.0 - 2.0**-40, 0.3, 1.0
    box_exit(substream(20, "distances"), BM, x, l, u, 1.0)
    assert seen[0] == ((x - l) / (u - l), (u - x) / (u - l))
    assert seen[0][1] != 1.0 - seen[0][0]


def test_work_cap_raises_runaway():
    bounds = compute_bounds(OU1, 0.0, 1.0)
    starved = box_mod.IntervalBounds(
        gamma_inf=bounds.gamma_inf,
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
    inner = {"exit": 0, "cond": 0, "exit_calls": 0, "cond_calls": 0, "capped": 0, "eager": 0}
    real_exit = box_mod._exit_bm_norm
    real_cond = box_mod._cond_bm_norm

    def wrapped_exit(r, zl, zu, *cap):
        before = r.draws
        out = real_exit(r, zl, zu, *cap)
        inner["exit"] += r.draws - before
        inner["exit_calls"] += 1
        inner["capped" if cap[0] < _T_CROSS else "eager"] += 1
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
        box_exit(rng, OU1, 0.5, 0.0, 1.0, 1.0, work=work)
    consumed = rng.draws - total_before
    assert work.exit_bm_calls == inner["exit_calls"]
    assert work.cond_bm_calls == inner["cond_calls"]
    assert consumed == inner["exit"] + inner["cond"] + work.exp_draws + work.uniform_draws
    assert work.restarts <= work.exit_bm_calls
    # both regimes of the capped primitive ran
    assert inner["capped"] > 0 and inner["eager"] > 0


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
