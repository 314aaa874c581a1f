"""Parallel replications with scheduling-independent results.

Replication i always draws from substream(seed, tag, i), so the assembled
arrays are bit-identical whether the work runs inline, in one process, or
fanned out over a pool.  Worker processes are forked after the case is
staged in a module global, which keeps models (closures) out of pickling.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

from .model import lamperti_forward
from .random_walk import diff_exit, slice_bounds_table
from .rng import substream

_CASE = None

# output key and dtype, in the order _run_chunk lists one replication's values
_COLUMNS = (
    ("time", np.float64),
    ("location", np.float64),
    ("work", np.int64),
    ("steps", np.int64),
    ("restarts", np.int64),
    ("exit_bm_calls", np.int64),
    ("cond_bm_calls", np.int64),
    ("wall_time", np.float64),
)


def _run_chunk(bounds):
    lo, hi = bounds
    model, x, a, b, T, N, seed, tag = _CASE
    rows = []
    for i in range(lo, hi):
        rec = diff_exit(substream(seed, tag, i), model, x, a, b, T, N)
        w = rec.work
        rows.append((
            rec.exit_time, rec.exit_location, w.total(), rec.steps, w.restarts,
            w.exit_bm_calls, w.cond_bm_calls, rec.wall_time,
        ))
    return rows


def run_replications(model, x, a, b, T, N, n, seed, tag="rep", processes=None) -> dict[str, np.ndarray]:
    """n independent exit simulations, one array entry per replication.

    Keys: time, location, wall_time (float64) and work, steps, restarts,
    exit_bm_calls, cond_bm_calls (int64).  Every array except the measured
    wall_time is independent of ``processes``.
    """
    global _CASE
    if processes is None:
        processes = os.cpu_count() or 1
    _CASE = (model, x, a, b, T, N, seed, tag)
    try:
        if processes <= 1 or n < 64 or mp.get_start_method(allow_none=True) not in (None, "fork"):
            parts = [_run_chunk((0, n))]
        else:
            # built before the fork, the bounds table is shared instead of built per worker
            slice_bounds_table(model, lamperti_forward(model, a), lamperti_forward(model, b), N)
            chunk = max(32, (n + 4 * processes - 1) // (4 * processes))
            bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
            ctx = mp.get_context("fork")
            with ctx.Pool(processes) as pool:
                parts = pool.map(_run_chunk, bounds)
    finally:
        _CASE = None
    columns = list(zip(*(row for part in parts for row in part))) or [()] * len(_COLUMNS)
    return {key: np.array(col, dtype=dtype) for (key, dtype), col in zip(_COLUMNS, columns)}
