"""exitwalk benchmark: exact-sample throughput on three workloads, checked against references.

    python3 perfbench/run.py --workload ou2-long --seed 1 --seconds 30 --trace 0

The timed phase calls only public entry points, in whole rounds:
``exitwalk.parallel.run_replications(..., processes=1)`` for the fixed-N
workloads and ``exitwalk.bandit.bandit_diff_exit`` for ``sin-bandit``.  Every
exit sample is checked against quadrature references computed in
``reference.py`` without the sampler.  The last line of standard output is
one JSON object; a fuller record goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds twice, plain for half of ``--seconds`` and then under the tracer of
``tracer.py``, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import EPSILON, WORKLOADS, set_up

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # fresh-process set-ups beside the run's own; setup_s is the median of all
Z_MAX = 5.0  # standard errors allowed between a sample statistic and its reference


class Tally:
    """Aggregates of every round: what the checks and the metrics need."""

    def __init__(self):
        self.sims = self.failed = 0
        self.at_a = self.bad_location = self.bad_time = 0
        self.mean = self.m2 = 0.0  # exit time, merged over rounds (Chan et al.)
        self.steps = self.work = self.restarts = self.draws = 0
        self.elapsed = 0.0  # seconds inside the entry-point calls
        self.rounds: list[tuple[float, int, int]] = []  # (seconds, sims, rectangles) per round
        self.bandit_errors: list[str] = []
        self.explore_work = 0
        self.errors: list[str] = []

    def add_times(self, times) -> None:
        n = len(times)
        if n == 0:
            return
        mean = math.fsum(times) / n
        m2 = math.fsum((t - mean) ** 2 for t in times)
        total = self.sims + n
        d = mean - self.mean
        self.m2 += m2 + d * d * self.sims * n / total
        self.mean += d * n / total
        self.sims = total

    def add_exits(self, w, times, locations) -> None:
        self.at_a += sum(1 for v in locations if v == w.a)
        self.bad_location += sum(1 for v in locations if v != w.a and v != w.b)
        self.bad_time += sum(1 for t in times if not (math.isfinite(t) and t > 0.0))
        self.add_times(times)


def run_round(ew, model, w, seed: int, r: int, tally: Tally) -> None:
    """One call of the workload's public entry point, timed, then folded into ``tally``."""
    try:
        if w.bandit:
            rng = ew.substream(seed, w.name, r)
            t0 = time.perf_counter()
            records, trace = ew.bandit_diff_exit(
                rng, model, w.x, w.a, w.b, w.T, w.arms[-1], EPSILON, w.round_size,
                reward=ew.WORK_UNITS,
            )
            dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            out = ew.parallel.run_replications(
                model, w.x, w.a, w.b, w.T, w.arms[0], w.round_size, seed,
                tag=f"{w.name}/{r}", processes=1,
            )
            dt = time.perf_counter() - t0
    except (ew.ExitwalkError, ValueError) as exc:
        tally.failed += w.round_size
        tally.errors.append(f"round {r}: {type(exc).__name__}: {exc}")
        return
    tally.elapsed += dt
    if not w.bandit:
        steps = int(out["steps"].sum())
        tally.rounds.append((dt, w.round_size, steps))
        tally.add_exits(w, out["time"].tolist(), out["location"].tolist())
        tally.steps += steps
        tally.work += int(out["work"].sum())
        tally.restarts += int(out["restarts"].sum())
        return
    tally.add_exits(w, [rec.exit_time for rec in records], [rec.exit_location for rec in records])
    tally.draws += rng.draws
    greedy = trace.state.greedy_arm()
    if trace.state.total_pulls != w.round_size:
        tally.bandit_errors.append(f"round {r}: pulls sum to {trace.state.total_pulls}")
    running = 0.0
    steps = 0
    for it, (rec, row) in enumerate(zip(records, trace.rows), start=1):
        work = rec.work.total()
        steps += rec.steps
        tally.work += work
        tally.restarts += rec.work.restarts
        if rec.chosen_N != greedy:
            tally.explore_work += work
        running += work
        if row[1] != rec.chosen_N or row[2] != float(work):
            tally.bandit_errors.append(f"round {r} pull {it}: reward {row[2]!r}, work {work}")
        if not math.isclose(row[3], running / it, rel_tol=1e-12):
            tally.bandit_errors.append(f"round {r} pull {it}: running mean {row[3]!r} != {running / it!r}")
    if len(records) != w.round_size:
        tally.bandit_errors.append(f"round {r}: {len(records)} records")
    tally.steps += steps
    tally.rounds.append((dt, w.round_size, steps))


def timed_phase(ew, model, w, seed, *, seconds=None, rounds=None) -> tuple[Tally, int]:
    """Whole rounds until ``seconds`` of wall time have passed, or exactly ``rounds`` of them."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while (time.perf_counter() - start < seconds) if rounds is None else (r < rounds):
        run_round(ew, model, w, seed, r, tally)
        r += 1
    return tally, r


def binomial_tail(k: int, n: int, log_p: float, log_q: float) -> float:
    """Smaller of P(K >= k) and P(K <= k) for K ~ Binomial(n, p), exactly."""
    mode = math.floor((n + 1) * math.exp(log_p))
    c = math.lgamma(n + 1)
    tails = []
    for step in (1, -1):
        total = 0.0
        i = k
        while 0 <= i <= n:
            t = math.exp(c - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
            total += t
            if (i - mode) * step > 0 and t <= 1e-17 * total:
                break
            i += step
        tails.append(min(total, 1.0))
    return min(tails)


def check(w, tally: Tally, ref) -> dict:
    """Every check on the outputs of all rounds; ``ok`` is their conjunction."""
    p_b, p_a, mean_ref = ref
    n = tally.sims
    out = {"sims_checked": n, "errors": tally.errors[:5]}
    alpha = math.erfc(Z_MAX / math.sqrt(2.0))  # two-sided normal tail at Z_MAX
    ok = n > 1 and tally.bad_location == 0 and tally.bad_time == 0 and not tally.bandit_errors
    out["bad_locations"] = tally.bad_location
    out["bad_times"] = tally.bad_time
    out["bandit_errors"] = tally.bandit_errors[:5]
    if n > 1:
        tail = binomial_tail(tally.at_a, n, math.log(p_a), math.log(p_b))
        se = math.sqrt(tally.m2 / (n - 1) / n)
        z = (tally.mean - mean_ref) / se if se > 0.0 else math.inf
        ok = ok and tail >= 0.5 * alpha and abs(z) <= Z_MAX
        out.update(
            exits_at_a=tally.at_a, p_exit_a_ref=p_a, location_tail_prob=tail,
            location_tail_floor=0.5 * alpha, mean_exit_time=tally.mean,
            mean_exit_time_ref=mean_ref, mean_exit_time_z=z, z_max=Z_MAX,
            detectable_mean_shift=Z_MAX * se / mean_ref,
        )
    out["ok"] = bool(ok)
    return out


def setup_samples(w, first) -> list:
    """The run's own set-up plus ``SETUP_PROBES`` cold set-ups in fresh processes."""
    samples = [first]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), w.name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def per_call_ns(fn, n: int = 20_000, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean ns per call of ``fn()`` (loop overhead included)."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn()
        out.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(out)


def microbenchmarks(ew, seed: int) -> dict:
    """Public primitives at fixed inputs on the unit interval."""
    rng = ew.substream(seed, "micro")
    state = ew.BanditState(n0=21, epsilon=EPSILON)

    def bandit_step():
        ew.update(state, ew.select_arm(state, rng), 100.0)

    return {
        "rng.uniform_ns": per_call_ns(rng.uniform, 200_000),
        "rng.normal_ns": per_call_ns(rng.normal, 200_000),
        "bm_exit.exit_bm_ns": per_call_ns(lambda: ew.exit_bm(rng, 0.3, 0.0, 1.0)),
        "bm_exit.cond_bm_image_ns": per_call_ns(lambda: ew.cond_bm(rng, 0.3, 0.0, 1.0, 0.1)),
        "bm_exit.cond_bm_spectral_ns": per_call_ns(lambda: ew.cond_bm(rng, 0.3, 0.0, 1.0, 0.5)),
        "bandit.step_ns": per_call_ns(bandit_step),
    }


def layer_metrics(w, tally: Tally, tr, micro: dict, plain_sims_per_s: float) -> dict:
    """Per-layer values from the traced phase; a metric whose names are missing is left out."""
    sims, rects = tally.sims, tally.steps
    phase_ns = tally.elapsed * 1e9

    def ratio(num, den):
        return None if num is None or den is None or den == 0 else num / den

    def total(*keys):
        vals = [tr.ns(k) for k in keys]
        return None if None in vals else sum(vals)

    def per_call(key, unused):
        # a regime the workload never enters takes the public primitive's microbenchmark
        return unused if tr.calls(key) == 0 else ratio(tr.ns(key), tr.calls(key))

    walk_key = "bandit.diff_exit" if w.bandit else "parallel.diff_exit"
    exit_key = "box_exit._exit_bm_norm"
    image, spectral = "box_exit._cond_bm_norm.image", "box_exit._cond_bm_norm.spectral"
    bm_ns = total(exit_key, image, spectral)
    box_ns = tr.ns("random_walk.box_exit")
    walk_ns, walk_children = total(walk_key), total("random_walk.box_exit", "random_walk.slice_bounds_table")
    walk_self = None if walk_ns is None or walk_children is None else walk_ns - walk_children
    box_self = None if box_ns is None or bm_ns is None else box_ns - bm_ns
    discarded = None if tr.calls(image) is None else tr.calls(image) + tr.calls(spectral)
    draws = tally.draws if w.bandit else (tr.draws if "parallel.substream" not in tr.missing else None)
    step_calls = tr.calls("bandit.select_arm")
    traced_sims_per_s = sims / tally.elapsed
    m = {
        "rng.draws_per_sim": ratio(draws, sims),
        "bm_exit.exit_ns": ratio(tr.ns(exit_key), tr.calls(exit_key)),
        "bm_exit.cond_image_ns": per_call(image, micro["bm_exit.cond_bm_image_ns"]),
        "bm_exit.cond_spectral_ns": per_call(spectral, micro["bm_exit.cond_bm_spectral_ns"]),
        "bm_exit.share": ratio(bm_ns, phase_ns),
        "box_exit.ns_per_rect": ratio(box_ns, rects),
        "box_exit.self_ns_per_rect": ratio(box_self, rects),
        "box_exit.proposals_per_rect": ratio(tr.calls(exit_key), rects),
        "box_exit.restarts_per_rect": tally.restarts / rects,
        "box_exit.discarded_exits_per_rect": ratio(discarded, rects),
        "box_exit.work_per_sim": tally.work / sims,
        "random_walk.rect_per_sim": rects / sims,
        "random_walk.self_us_per_sim": ratio(walk_self, 1e3 * sims),
        "bandit.step_ns": (
            ratio(total("bandit.select_arm", "bandit.update"), step_calls)
            if w.bandit else micro["bandit.step_ns"]
        ),
        "bandit.explore_work_share": tally.explore_work / tally.work,
        "parallel.overhead_share": ratio(None if tr.ns(walk_key) is None else phase_ns - tr.ns(walk_key), phase_ns),
        "trace.overhead_share": 1.0 - traced_sims_per_s / plain_sims_per_s,
    }
    m.update({k: v for k, v in micro.items() if k != "bandit.step_ns"})
    return {k: v for k, v in m.items() if v is not None}


END_TO_END = {"sims_per_s": "1/s", "us_per_rect": "us", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "rng.uniform_ns": "ns", "rng.normal_ns": "ns", "rng.draws_per_sim": "count",
    "bm_exit.exit_ns": "ns", "bm_exit.cond_image_ns": "ns", "bm_exit.cond_spectral_ns": "ns",
    "bm_exit.share": "share", "bm_exit.exit_bm_ns": "ns", "bm_exit.cond_bm_image_ns": "ns",
    "bm_exit.cond_bm_spectral_ns": "ns",
    "box_exit.ns_per_rect": "ns", "box_exit.self_ns_per_rect": "ns",
    "box_exit.proposals_per_rect": "count", "box_exit.restarts_per_rect": "count",
    "box_exit.discarded_exits_per_rect": "count", "box_exit.work_per_sim": "count",
    "random_walk.rect_per_sim": "count", "random_walk.self_us_per_sim": "us",
    "model.bounds_ms": "ms",
    "bandit.step_ns": "ns", "bandit.explore_work_share": "share",
    "parallel.overhead_share": "share",
    "trace.overhead_share": "share",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    s = set_up(w, _T0)
    ew, model = s.ew, s.model
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        plain, rounds = timed_phase(ew, model, w, args.seed, seconds=0.5 * args.seconds)
        from tracer import Tracer  # imported here, as reference below, to keep them out of setup_s

        with Tracer() as tr:
            tally, _ = timed_phase(ew, model, w, args.seed, rounds=rounds)
        tallies = [plain, tally]
        micro = microbenchmarks(ew, args.seed)
    else:
        tally, rounds = timed_phase(ew, model, w, args.seed, seconds=args.seconds)
        tallies = [tally]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not all(t.sims for t in tallies):
        for t in tallies:
            print("\n".join(t.errors), file=sys.stderr)
        raise SystemExit("every round failed; no metric to report")
    setups = setup_samples(w, {"setup_s": s.setup_s, "bounds_ms": s.bounds_ms})

    from reference import WORKLOAD_LAWS, exit_law

    ref = exit_law(WORKLOAD_LAWS[w.name])
    checks = [check(w, t, ref) for t in tallies]
    attempted = sum(t.sims + t.failed for t in tallies)
    failed = sum(t.failed for t in tallies)
    if args.trace:
        metrics = layer_metrics(w, tally, tr, micro, plain.sims / plain.elapsed)
        metrics["model.bounds_ms"] = statistics.median(x["bounds_ms"] for x in setups)
        record.update(traced={k: {"calls": v[0], "ns": v[1]} for k, v in sorted(tr.stats.items())},
                      missing=tr.missing)
    else:
        metrics = {
            "sims_per_s": tally.sims / tally.elapsed,
            "us_per_rect": 1e6 * tally.elapsed / tally.steps,
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "peak_rss_mb": peak_rss_mb,
        }
    units = PER_LAYER if args.trace else END_TO_END
    correct = all(c["ok"] for c in checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    record.update(
        rounds=rounds, round_size=w.round_size, round_log=[t.rounds for t in tallies],
        reference={"p_exit_b": ref[0], "p_exit_a": ref[1], "mean_exit_time": ref[2]},
        checks=checks, setups=setups, peak_rss_mb=peak_rss_mb, result=result,
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for c in checks:
        print(f"check {w.name}: {json.dumps(c)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
