"""Alternating rounds of two checkouts in one process, compared by time and by output bytes.

    python3 scripts/ab_inproc.py ../parent . --workload ou2-long --rounds 20

Each checkout's ``src/exitwalk`` is loaded under its own package name
(``exitwalk_parent`` and ``exitwalk_change``), so both live in one process.
Round r of a workload of ``perfbench/workloads.py`` (read from the change
checkout) is the call of the public entry point that ``perfbench/run.py``
makes for round r: ``run_replications`` for the fixed-N workloads and
``bandit_diff_exit`` for the bandit.  Both sides run round r with the same
seed, one after the other, and which side goes first alternates from round
to round.  A drift of the host's speed over minutes then moves both sides of
a round alike and cancels out of their ratio.

Each round prints both times, their ratio change/parent and whether the two
outputs are byte-identical: the arrays of ``run_replications`` except
``wall_time``, or the bandit's records and its stream's ``draws``.  The last
line is one JSON object with the median and quartiles of the ratios and the
number of identical rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
SEED = 1  # both sides run round r from this seed


def load_module(name: str, path: Path, package: bool = False):
    """The file ``path`` imported as the module ``name``; a package when ``package``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_exitwalk(checkout: Path, side: str):
    """The checkout's exitwalk, imported as ``exitwalk_<side>``, with its parallel module."""
    name = f"exitwalk_{side}"
    pkg = load_module(name, checkout / "src" / "exitwalk" / "__init__.py", package=True)
    importlib.import_module(f"{name}.parallel")
    return pkg


class Side:
    """One checkout's package, model and bounds tables for a workload."""

    def __init__(self, checkout: Path, side: str, w):
        self.ew = load_exitwalk(checkout, side)
        self.model = getattr(self.ew, w.model)(*w.params)
        a_hat = self.ew.lamperti_forward(self.model, w.a)
        b_hat = self.ew.lamperti_forward(self.model, w.b)
        for n in w.arms:  # as perfbench set-up does, outside the timed rounds
            self.ew.slice_bounds_table(self.model, a_hat, b_hat, n)

    def round(self, w, epsilon: float, r: int) -> tuple[float, str]:
        """(seconds in the entry point, SHA-256 of its seeded output) of round r."""
        ew, h = self.ew, hashlib.sha256()
        if w.bandit:
            rng = ew.substream(SEED, w.name, r)
            t0 = time.perf_counter()
            records, _ = ew.bandit_diff_exit(
                rng, self.model, w.x, w.a, w.b, w.T, w.arms[-1], epsilon, w.round_size, reward=ew.WORK_UNITS
            )
            dt = time.perf_counter() - t0
            rows = [(r.exit_time, r.exit_location, r.steps, r.chosen_N, r.work.total()) for r in records]
            h.update(repr((rows, rng.draws)).encode())
        else:
            t0 = time.perf_counter()
            out = ew.parallel.run_replications(
                self.model, w.x, w.a, w.b, w.T, w.arms[0], w.round_size, SEED, tag=f"{w.name}/{r}", processes=1
            )
            dt = time.perf_counter() - t0
            for key in sorted(out):
                if key != "wall_time":
                    h.update(key.encode())
                    h.update(out[key].tobytes())
        return dt, h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for d in dirs.values():
        if not (d / "src" / "exitwalk" / "__init__.py").is_file():
            ap.error(f"{d} has no src/exitwalk")
    workloads = load_module("ab_workloads", dirs["change"] / "perfbench" / "workloads.py")
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    sides = {s: Side(dirs[s], s, w) for s in SIDES}

    ratios, identical = [], 0
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        got = {s: sides[s].round(w, workloads.EPSILON, r) for s in order}
        ratio = got["change"][0] / got["parent"][0]
        same = got["change"][1] == got["parent"][1]
        ratios.append(ratio)
        identical += same
        print(f"round {r}: parent {got['parent'][0]:.4f} s, change {got['change'][0]:.4f} s, "
              f"ratio {ratio:.4f}, {'identical' if same else 'DIFFERENT'}", flush=True)
    q1, med, q3 = quartiles(ratios)
    print(json.dumps({
        "workload": w.name, "rounds": args.rounds, "seed": SEED,
        "ratio": {"median": med, "q1": q1, "q3": q3},
        "identical_rounds": identical,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
