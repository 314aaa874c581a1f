"""Alternating benchmark pairs of two checkouts, summarised as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr 11 \\
        --seconds 30 sin-bandit:1101-1110 cir-short:1121-1124 ou2-long:1131-1134 \\
        --trace-seed 1141

writes ``BENCH_11.json`` in the current directory.

Each argument ``WORKLOAD:SEEDS`` names a workload of ``perfbench/workloads.py``
and its seeds, as a range ``a-b`` or a comma list.  For every seed the
script runs ``python3 perfbench/run.py --trace 0`` once in each checkout,
from the root of that checkout, alternating which side goes first from one
pair to the next.  With ``--trace-seed`` it also runs one ``--trace 1`` pair
per workload and records the per-layer metrics, the benchmark's list of
tracer names it could not find (``missing``), and ``model.bounds_ms``.

A run counts only if it exits 0 and its standard output holds exactly one
JSON object, its last line, parsed strictly: NaN and infinities are
rejected.  Any other outcome stops the script with an error.

For each workload and end-to-end metric of ``BENCHMARK.json`` the output
holds each side's values, median and quartiles, the pairs each side won,
the median and quartiles of the per-pair ratio change/parent
(``pair_ratio``), the seeds, and the ``correct`` and ``failed`` counts.
Each side is named by its git commit, if it is a git checkout whose src/
and perfbench/ match that commit, and by ``tree_hash``, which names a copy
made with ``git archive`` or an uncommitted change as well.
The two runs of a pair follow each other, so a drift of the host's speed
over minutes moves both and largely cancels out of their ratio, while it
widens each side's own quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = (int(v) for v in text.split("-", 1))
        return list(range(a, b + 1))
    return [int(v) for v in text.split(",")]


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in result line")


def strict_json(line: str) -> dict:
    return json.loads(line, parse_constant=_reject_constant)


def result_line(stdout: str) -> dict:
    """The one JSON object of a run's standard output, which must be its last line."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    objects = [i for i, ln in enumerate(lines) if ln.lstrip().startswith("{")]
    if objects != [len(lines) - 1]:
        raise ValueError(f"expected exactly one JSON line, the last; got {len(objects)}")
    result = strict_json(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"result line lacks {key!r}")
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 300)
    if done.returncode != 0:
        raise SystemExit(f"{checkout.name}: {' '.join(cmd[1:])} exited {done.returncode}\n{done.stderr[-2000:]}")
    try:
        result = result_line(done.stdout)
    except ValueError as exc:
        raise SystemExit(f"{checkout.name}: {' '.join(cmd[1:])}: {exc}")
    if trace:
        record = json.loads((checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
        result["missing"] = record.get("missing")
    return result


def run_pair(dirs: dict, workload: str, seed: int, seconds: float, trace: int, parent_first: bool) -> dict:
    order = SIDES if parent_first else SIDES[::-1]
    out = {}
    for side in order:
        out[side] = run_once(dirs[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} trace {trace} {side}: "
              + json.dumps({k: v["value"] for k, v in out[side]["metrics"].items()}), file=sys.stderr, flush=True)
    out["first"] = order[0]
    return out


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "correct": {s: sum(p[s]["correct"] is True for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "metrics": {},
    }
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        change_wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        parent_wins = sum((p < c) if lower else (p > c) for p, c in zip(vals["parent"], vals["change"]))
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        entry.update({s: spread(vals[s]) for s in SIDES})
        entry["wins"] = {"parent": parent_wins, "change": change_wins}
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"]) if p]
        entry["pair_ratio"] = spread(ratios) if ratios else None
        out["metrics"][name] = entry
    return out


def git_head(checkout: Path):
    """The commit the checkout's src/ and perfbench/ hold, or None if they differ from HEAD."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        return None  # not a git checkout, e.g. a `git archive` copy
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=checkout, capture_output=True, text=True
    )
    if dirty.returncode != 0 or dirty.stdout.strip():
        return None  # the measured code is not HEAD's; tree_hash still names it
    return done.stdout.strip()


def tree_hash(checkout: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of the files under src/ and perfbench/.

    Byte-code caches and the benchmark's own output, perfbench/out/, are left out.
    """
    h = hashlib.sha256()
    files = [
        f for top in ("src", "perfbench") for f in (checkout / top).rglob("*")
        if f.is_file() and "__pycache__" not in f.parts
        and f.relative_to(checkout).parts[:2] != ("perfbench", "out")
    ]
    for f in sorted(files, key=lambda f: f.relative_to(checkout).as_posix()):
        rel = f.relative_to(checkout).as_posix().encode()
        data = f.read_bytes()
        for part in (rel, data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace-seed", type=int, help="seed of one --trace 1 pair per workload")
    ap.add_argument("specs", nargs="+", metavar="WORKLOAD:SEEDS")
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for d in dirs.values():
        if not (d / "perfbench" / "run.py").is_file():
            ap.error(f"{d} has no perfbench/run.py")
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    specs = []
    for spec in args.specs:
        name, _, seeds = spec.partition(":")
        if name not in {w["name"] for w in bench["workloads"]} or not seeds:
            ap.error(f"bad spec {spec!r}")
        specs.append((name, parse_seeds(seeds)))

    doc = {
        "pr": args.pr,
        "commits": {s: git_head(d) for s, d in dirs.items()},
        "trees": {s: tree_hash(d) for s, d in dirs.items()},
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "seconds": args.seconds,
        "command": bench["command"],
        "workloads": {},
    }
    k = 0
    for name, seeds in specs:
        pairs = []
        for seed in seeds:
            pair = run_pair(dirs, name, seed, args.seconds, 0, parent_first=k % 2 == 0)
            pairs.append({"seed": seed, **pair})
            k += 1
        doc["workloads"][name] = summarise(pairs, bench["end_to_end"])
    if args.trace_seed is not None:
        doc["traced"] = {}
        for name, _ in specs:
            pair = run_pair(dirs, name, args.trace_seed, args.seconds, 1, parent_first=k % 2 == 0)
            k += 1
            doc["traced"][name] = {
                "seed": args.trace_seed,
                "first": pair["first"],
                **{s: {"correct": pair[s]["correct"], "failed": pair[s]["failed"], "missing": pair[s]["missing"],
                       "metrics": {m: v["value"] for m, v in pair[s]["metrics"].items()}} for s in SIDES},
                "model.bounds_ms": {s: pair[s]["metrics"].get("model.bounds_ms", {}).get("value") for s in SIDES},
            }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
