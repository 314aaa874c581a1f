"""Benchmark workloads and their set-up: import, model construction, bounds tables.

Set-up is everything a user pays before the first exact sample: importing
``exitwalk`` (and numpy with it), building the model, and building the
bounds table of every ``N`` the workload uses through the public
``slice_bounds_table``.  The package builds those tables lazily inside the
first simulation of each ``N``; building them here keeps that work out of
the timed phase and puts it where ``setup_s`` sees it.

    python3 perfbench/workloads.py <workload>   # one cold set-up, prints JSON

The benchmark runs that command a few times to take a median of set-up time
in fresh processes.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # constructor name in exitwalk
    params: tuple[float, ...]
    x: float
    a: float
    b: float
    T: float
    arms: tuple[int, ...]  # every N the workload runs; more than one means the bandit
    round_size: int  # simulations per call of the public entry point

    @property
    def bandit(self) -> bool:
        return len(self.arms) > 1


# Round sizes keep one call of the entry point near 0.2 s for the fixed-N
# workloads.  A sin-bandit round is one tuning run of M = 10,000 pulls, the
# size of the acceptance test on the paper's Example 1, so the share of work
# spent exploring is the one that test sees.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ou2-long", "ornstein_uhlenbeck", (2.0,), 0.5, -2.0, 2.0, 0.5, (6,), 4),
        Workload("cir-short", "cox_ingersoll_ross", (3.0, 7.0, 1.0), 3.0, 1.0, 6.0, 0.5, (16,), 500),
        Workload("sin-bandit", "sinusoidal_drift", (), 3.0, 0.0, 7.0, 1.0, tuple(range(2, 22)), 10_000),
    )
}

EPSILON = 0.1  # sin-bandit exploration rate, as in the acceptance test


def import_exitwalk():
    """The package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "exitwalk" / "__init__.py").is_file():
        raise SystemExit(f"exitwalk sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import exitwalk
    import exitwalk.parallel  # run_replications is not re-exported by the package

    if Path(exitwalk.__file__).resolve().parent != SRC / "exitwalk":
        raise SystemExit(f"imported exitwalk from {exitwalk.__file__}, not from {SRC}")
    return exitwalk


@dataclass
class Setup:
    ew: object  # the exitwalk package
    model: object
    setup_s: float  # from process start to tables built
    bounds_ms: float  # cold build of every table the workload uses


def set_up(w: Workload, t0: float = _T0) -> Setup:
    ew = import_exitwalk()
    model = getattr(ew, w.model)(*w.params)
    a_hat = ew.lamperti_forward(model, w.a)
    b_hat = ew.lamperti_forward(model, w.b)
    t_tables = time.perf_counter()
    for n in w.arms:
        ew.slice_bounds_table(model, a_hat, b_hat, n)
    done = time.perf_counter()
    return Setup(ew, model, done - t0, 1e3 * (done - t_tables))


if __name__ == "__main__":
    s = set_up(WORKLOADS[sys.argv[1]])
    print(json.dumps({"setup_s": s.setup_s, "bounds_ms": s.bounds_ms}))
