"""Parallel replications with scheduling-independent results.

The replications are cut into blocks of random_walk._LANES, and block c
runs its walks as one ``diff_exit(..., lanes=k)`` call on
substream(seed, tag, "lanes", c).  The arrays depend on (seed, tag, n) and
never on ``processes``: they are bit-identical whether the work runs inline
or fanned out over a pool.
Worker processes are forked after the case is staged in a module global,
which keeps models (closures) out of pickling.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np

from .model import lamperti_forward
from .random_walk import _LANES, diff_exit, slice_bounds_table
from .rng import substream

_CASE = None

# output key and dtype, in the order _run_block lists one replication's values
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


def _run_block(c):
    model, x, a, b, T, N, n, seed, tag = _CASE
    lanes = min(_LANES, n - c * _LANES)
    rng = substream(seed, tag, "lanes", c)
    t0 = time.perf_counter()
    records = diff_exit(rng, model, x, a, b, T, N, lanes=lanes)
    wall = (time.perf_counter() - t0) / lanes
    return [
        (rec.exit_time, rec.exit_location, rec.work.total(), rec.steps, rec.work.restarts,
         rec.work.exit_bm_calls, rec.work.cond_bm_calls, wall)
        for rec in records
    ]


def run_replications(model, x, a, b, T, N, n, seed, tag="rep", processes=None) -> dict[str, np.ndarray]:
    """n independent exit simulations, one array entry per replication.

    Keys: time, location, wall_time (float64) and work, steps, restarts,
    exit_bm_calls, cond_bm_calls (int64).  Every array except the measured
    wall_time depends on (seed, tag, n) only, never on ``processes``.  Each
    replication's wall_time is its block's measured time over the block's
    size.
    """
    global _CASE
    if processes is None:
        processes = os.cpu_count() or 1
    blocks = range((n + _LANES - 1) // _LANES)
    _CASE = (model, x, a, b, T, N, n, seed, tag)
    try:
        if processes <= 1 or len(blocks) < 2 or mp.get_start_method(allow_none=True) not in (None, "fork"):
            parts = [_run_block(c) for c in blocks]
        else:
            # built before the fork, the bounds table is shared instead of built per worker
            slice_bounds_table(model, lamperti_forward(model, a), lamperti_forward(model, b), N)
            with mp.get_context("fork").Pool(min(processes, len(blocks))) as pool:
                parts = pool.map(_run_block, blocks)
    finally:
        _CASE = None
    columns = list(zip(*(row for part in parts for row in part))) or [()] * len(_COLUMNS)
    return {key: np.array(col, dtype=dtype) for (key, dtype), col in zip(_COLUMNS, columns)}
