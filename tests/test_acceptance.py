"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is seeded, so
each criterion is fully reproducible; replications fan out over local cores
through run_replications, whose arrays do not depend on the core count.
"""

import math
import time

import numpy as np
import pytest

import exitwalk as ew
from exitwalk.bandit import BanditState, WORK_UNITS, bandit_diff_exit, select_arm, update
from exitwalk.box_exit import box_exit
from exitwalk.parallel import run_replications
from stat_helpers import binomial_z, chi_square_test, exit_time_cdf, inflate, ks_1sample, ks_2sample, ks_critical

SIN = ew.sinusoidal_drift()
OU1 = ew.ornstein_uhlenbeck(1.0)
OU2 = ew.ornstein_uhlenbeck(2.0)
CIR = ew.cox_ingersoll_ross(3.0, 7.0, 1.0)
BM = ew.brownian()

_SWEEP_CACHE = {}


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail} [{time.perf_counter() - t0:.1f}s]")


def example1_sweep():
    """Criterion-6 data: mean work per N for Example 1 at T=1, n=2000 per arm."""
    if "sweep" not in _SWEEP_CACHE:
        means = {}
        for n_slices in range(2, 22):
            out = run_replications(
                SIN, 3.0, 0.0, 7.0, 1.0, n_slices, 2000, seed=600, tag=f"c6-{n_slices}", processes=2
            )
            means[n_slices] = float(out["work"].mean())
        _SWEEP_CACHE["sweep"] = means
    return _SWEEP_CACHE["sweep"]


def test_criterion_1_brownian_kernel_exactness():
    t0 = time.perf_counter()
    rng_cfg = ew.substream(100, "c1-configs")
    failures = []
    details = []
    for case in range(10):
        l = -2.0 + 2.0 * rng_cfg.uniform()
        width = 0.5 + 2.5 * rng_cfg.uniform()
        u = l + width
        x = l + (0.1 + 0.8 * rng_cfg.uniform()) * width
        n = 100_000
        rng = ew.substream(100, "c1", case)
        times = np.empty(n)
        upper = 0
        for i in range(n):
            s = ew.exit_bm(rng, x, l, u)
            times[i] = s.time
            upper += s.side == "upper"
        p = (x - l) / (u - l)
        z = binomial_z(upper, n, p)
        d, _ = ks_1sample(times, lambda t: exit_time_cdf(x, l, u, t))
        crit = ks_critical(n, 0.01)
        if abs(z) > 3.0 or d >= crit:
            failures.append((case, z, d))
        details.append(f"{abs(z):.2f}/{d / crit:.2f}")
    ok = not failures
    _report(1, "brownian kernel exactness", ok, f"max |z|, D/crit per case: {details}", t0)
    assert ok, failures


def test_criterion_2_zero_drift_collapse():
    t0 = time.perf_counter()
    n = 100_000
    x, l, u, T = 0.3, 0.0, 1.0, 1.0
    rng = ew.substream(200, "c2-box")
    times = np.empty(n)
    pos = np.empty(n)
    exited = np.zeros(n, dtype=bool)
    for i in range(n):
        o = box_exit(rng, BM, x, l, u, T)
        times[i], pos[i], exited[i] = o.time, o.position, o.exited
    rng2 = ew.substream(200, "c2-ref")
    ref_t = np.empty(n)
    ref_up = np.zeros(n, dtype=bool)
    ref_exit = np.zeros(n, dtype=bool)
    for i in range(n):
        s = ew.exit_bm(rng2, x, l, u)
        if s.time <= T:
            ref_t[i] = s.time
            ref_up[i] = s.location == u
            ref_exit[i] = True
        else:
            ref_t[i] = T
    _, p_times = ks_2sample(times, ref_t)
    k1 = int((pos[exited] == u).sum())
    n1 = int(exited.sum())
    k2 = int(ref_up.sum())
    n2 = int(ref_exit.sum())
    pooled = (k1 + k2) / (n1 + n2)
    z_loc = (k1 / n1 - k2 / n2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    ok = p_times > 0.01 and abs(z_loc) <= 3.0
    _report(2, "zero-drift collapse", ok, f"KS p={p_times:.3f}, location z={z_loc:.2f}", t0)
    assert ok


def test_criterion_3_oracle_agreement_per_model():
    t0 = time.perf_counter()
    cases = [
        ("sin", SIN, 3.0, 0.0, 7.0, 1.0, 7),
        ("ou1", OU1, 3.0, 0.0, 7.0, 1.0, 14),
        ("ou2", OU2, 0.5, -2.0, 2.0, 0.5, 6),
        ("cir", CIR, 3.0, 1.0, 6.0, 0.5, 16),
    ]
    n = 20_000
    rows = []
    ok = True
    for name, model, x, a, b, T, n_slices in cases:
        out = run_replications(model, x, a, b, T, n_slices, n, seed=300, tag=f"c3-{name}", processes=2)
        p = ew.exit_probability(model, x, a, b)
        t_mean = ew.mean_exit_time(model, x, a, b)
        freq = float((out["location"] == b).mean())
        p_se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
        z_loc = (freq - p) / p_se
        t_se = float(out["time"].std(ddof=1)) / math.sqrt(n)
        z_time = (float(out["time"].mean()) - t_mean) / t_se
        good = abs(freq - p) <= 3.0 * p_se and abs(z_time) <= 3.0
        ok = ok and good
        rows.append(f"{name}: loc z={z_loc:.2f} time z={z_time:.2f}")
    _report(3, "oracle agreement per model", ok, "; ".join(rows), t0)
    assert ok, rows


def test_criterion_4_law_invariance():
    t0 = time.perf_counter()
    n = 10_000
    samples = {}
    for n_slices in (2, 7, 14, 21):
        out = run_replications(OU1, 3.0, 0.0, 7.0, 1.0, n_slices, n, seed=400, tag=f"c4-N{n_slices}", processes=2)
        samples[("N", n_slices)] = out
    for T in (0.5, 2.0):
        out = run_replications(OU1, 3.0, 0.0, 7.0, T, 7, n, seed=400, tag=f"c4-T{T}", processes=2)
        samples[("T", T)] = out

    keys = list(samples)
    ps = []
    ok = True
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            _, p = ks_2sample(samples[keys[i]]["time"], samples[keys[j]]["time"])
            ps.append(p)
            ok = ok and p > 0.01
    _report(4, "law invariance in N and T", ok, f"min KS p over {len(ps)} pairs = {min(ps):.4f}", t0)
    assert ok, ps


def test_criterion_5_conservative_bounds_invariance():
    t0 = time.perf_counter()
    n = 20_000
    bounds = ew.compute_bounds(OU1, 0.0, 1.0)
    inflated = inflate(bounds, 2.0)

    def run(tag, bd):
        rng = ew.substream(500, tag)
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
    k1, k2 = int((loc1 == 1.0).sum()), int((loc2 == 1.0).sum())
    pooled = (k1 + k2) / (2 * n)
    z = (k1 / n - k2 / n) / math.sqrt(2 * pooled * (1 - pooled) / n)
    grew = w2.mean() > w1.mean()
    ok = p > 0.01 and abs(z) <= 3.0 and grew
    _report(
        5, "conservative-bounds invariance", ok,
        f"KS p={p:.3f}, loc z={z:.2f}, mean work {w1.mean():.1f} -> {w2.mean():.1f}", t0,
    )
    assert ok


def test_criterion_6_cost_unimodality():
    t0 = time.perf_counter()
    means = example1_sweep()
    argmin = min(means, key=means.get)
    interior = 3 < argmin < 20
    left_edge_high = means[2] > means[argmin] and means[3] > means[argmin]
    right_edge_high = means[21] > means[argmin]
    ok = interior and left_edge_high and right_edge_high
    curve = {k: round(v) for k, v in means.items()}
    _report(6, "cost unimodality over N", ok, f"argmin N={argmin}, curve={curve}", t0)
    assert ok, curve


def test_criterion_7_bandit_selection_law():
    t0 = time.perf_counter()
    state = BanditState(n0=21, epsilon=0.1)
    for arm in state.arms:
        update(state, arm, 10.0 + abs(arm - 14))
    rng = ew.substream(700, "c7-freq")
    n = 100_000
    counts = np.zeros(state.n_arms)
    for _ in range(n):
        counts[select_arm(state, rng) - 2] += 1
    stat, p = chi_square_test(counts, state.selection_probabilities())

    rng2 = ew.substream(700, "c7-synth")
    s2 = BanditState(n0=21, epsilon=0.1)
    best = 14
    picks = []
    for _ in range(10_000):
        arm = select_arm(s2, rng2)
        picks.append(arm)
        cost = 1.0 + 0.05 * abs(arm - best) + 0.01 * rng2.uniform()
        update(s2, arm, cost)
    late = picks[5000:]
    share = sum(a == best for a in late) / len(late)
    ok = p > 0.01 and share >= 0.85
    _report(7, "bandit selection law", ok, f"chi2 p={p:.3f}, best-arm share={share:.3f}", t0)
    assert ok


def test_criterion_8_bandit_acceleration():
    """Final running-mean work within 1.2x of the best fixed-N sweep mean.

    The N=2 arm of this problem costs about 65x the optimum and N=3 about
    14x (the intrinsic rejection rate of wide rectangles, not an
    implementation constant).  Uniform exploration over all 20 arms would
    hold the steady-state running mean near 1.45x the best; the bandit
    explores only the greedy arm's neighbours, whose costs are close to the
    optimum's on this curve (criterion 6 checks its interior minimum), which
    brings the ratio to about 1.03-1.05.
    """
    t0 = time.perf_counter()
    means = example1_sweep()
    best = min(means.values())
    rng = ew.substream(800, "c8")
    _, trace = bandit_diff_exit(
        rng, SIN, 3.0, 0.0, 7.0, 1.0, 21, 0.1, 10_000, reward=WORK_UNITS
    )
    final_running_mean = trace.rows[-1][3]
    ratio = final_running_mean / best
    ok = ratio <= 1.2
    _report(
        8, "bandit acceleration", ok,
        f"final running mean {final_running_mean:.1f} vs best fixed-N {best:.1f} (ratio {ratio:.3f})", t0,
    )
    assert ok, ratio


def test_criterion_9_horizon_insensitivity():
    t0 = time.perf_counter()
    finals = {}
    for T in (0.5, 1.0, 2.0):
        rng = ew.substream(900, "c9", int(T * 10))
        _, trace = bandit_diff_exit(
            rng, SIN, 3.0, 0.0, 7.0, T, 21, 0.1, 10_000, reward=WORK_UNITS
        )
        finals[T] = trace.rows[-1][3]
    spread = (max(finals.values()) - min(finals.values())) / min(finals.values())
    ok = spread < 0.5
    _report(9, "horizon insensitivity", ok, f"final means {finals}, spread {spread:.2%}", t0)
    assert ok, finals


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from exitwalk.cli import main

    specs = {
        "sample": ["sample", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
                   "--T", "1", "--N", "7", "--M", "300", "--seed", "10"],
        "sweep": ["sweep", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
                  "--T", "1", "--N0", "6", "--M", "60", "--seed", "10"],
        "bandit": ["bandit", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
                   "--T", "1", "--N0", "6", "--epsilon", "0.2", "--M", "200",
                   "--seed", "10", "--reward", "work"],
    }
    ok = True
    for name, args in specs.items():
        f1 = tmp_path / f"{name}1.csv"
        f2 = tmp_path / f"{name}2.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        same = f1.read_bytes() == f2.read_bytes()
        if name == "bandit":
            same = same and (
                (tmp_path / "bandit1.arms.csv").read_bytes()
                == (tmp_path / "bandit2.arms.csv").read_bytes()
            )
        ok = ok and same
    _report(10, "CLI byte determinism", ok, "sample/sweep/bandit byte-identical reruns", t0)
    assert ok
