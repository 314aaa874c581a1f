"""Random walk on overlapping rectangles: full exit from an interval.

The transformed interval (a_hat, b_hat) is covered by N-1 slices of width
2*delta, delta = (b_hat - a_hat)/N.  Each step runs the rectangle sampler on
the slice indexed by the current position; exits land exactly on grid points
(single-multiplication arithmetic, no accumulated drift), so absorption at
either endpoint is detected by integer index, never by float comparison.
Truncated rectangles hand back an interior position and the walk continues.
The exit law is independent of N and of the per-rectangle horizon T; both
parameters only move the cost.

``diff_exit(..., lanes=k)`` runs k independent walks with the law and the
work counts of k scalar walks.  From _TAIL_LANES walks on they run in
lockstep as numpy lanes (struct-of-arrays), one pass of the rectangle loop
per lane at a time; fewer run as scalar walks in turn, where lanes would not
pay for their set-up.  The threshold is bm_exit's, and it decides both
hand-offs: a walk's lanes, and the lanes of each lane rejection loop, go to
their scalar twins once fewer than _TAIL_LANES remain.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .bm_exit import _TAIL_LANES
from .box_exit import (
    _MAX_RESTARTS,
    EXITED_UPPER,
    RESTARTED,
    TRUNCATED,
    WorkCounter,
    box_exit,
    box_round,
    slice_constants,
)
from .errors import DegenerateInputError, DomainError, RunawayError
from .model import DiffusionModel, IntervalBounds, check_horizon, compute_bounds, lamperti_forward
from .rng import RandomStream

_MAX_STEPS = 10**8
# the largest lane block of any caller: most of a small block's time is numpy
# overhead per pass, so one sin N=12 walk cost 77 us in blocks of 512, 57 in
# 1,024, 42 in 2,048 and 37 in 4,096 (109 as a scalar walk; 2-vCPU x86_64,
# numpy 2.4); past 2,048 the gain per walk shrinks while a block's arrays grow
_LANES = 2048


@dataclass(frozen=True, slots=True)
class SliceGrid:
    """Uniform grid a_hat + j*delta, j = 0..n, with n-1 overlapping slices."""

    a_hat: float
    b_hat: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n!r}")
        if not self.a_hat < self.b_hat:
            raise ValueError(f"need a_hat < b_hat, got {self.a_hat!r}, {self.b_hat!r}")
        # from n = 3 on, a walk moves between slices, and each grid point and
        # slice index must keep a position strictly inside its slice; one
        # slice covers the whole interval whatever its width
        if self.n > 2 and not self.delta > 8.0 * math.ulp(max(abs(self.a_hat), abs(self.b_hat))):
            raise DegenerateInputError(
                f"{self.n} slices of ({self.a_hat!r}, {self.b_hat!r}) are too narrow to tell their points apart"
            )

    @property
    def delta(self) -> float:
        return (self.b_hat - self.a_hat) / self.n

    def grid_point(self, j: int) -> float:
        """a_hat + j*delta; the top point is b_hat itself, whatever the rounding."""
        if j == self.n:
            return self.b_hat
        return self.a_hat + j * self.delta


def _index(grid: SliceGrid, x: float) -> int:
    d = grid.delta
    j = math.floor((x - grid.a_hat - 0.5 * d) / d) + 1
    if j < 1:
        return 1
    if j > grid.n - 1:
        return grid.n - 1
    return j


def slice_interval(grid: SliceGrid, i: int) -> tuple[float, float]:
    """Open slice (a_hat + (i-1)*delta, a_hat + (i+1)*delta)."""
    if not 1 <= i <= grid.n - 1:
        raise ValueError(f"slice index {i!r} outside 1..{grid.n - 1}")
    return grid.grid_point(i - 1), grid.grid_point(i + 1)


@lru_cache(maxsize=512)
def slice_bounds_table(model: DiffusionModel, a_hat: float, b_hat: float, n: int) -> tuple[IntervalBounds, ...]:
    """Bounds for the N-1 overlapping slices of the N-interval grid on [a_hat, b_hat]."""
    grid = SliceGrid(a_hat, b_hat, n)
    return tuple(compute_bounds(model, *slice_interval(grid, i)) for i in range(1, n))


@dataclass(frozen=True, slots=True)
class ExitRecord:
    exit_time: float
    exit_location: float
    steps: int
    work: WorkCounter
    chosen_N: int


def _walk(rng, model, grid, pos, T, table, work, elapsed=0.0, steps=0, restarts=0):
    """Scalar rectangle walk from pos: (elapsed, absorbing grid index 0 or n, steps).

    ``elapsed`` and ``steps`` carry a walk already under way, and
    ``restarts`` counts the rejections already spent on its first rectangle.
    """
    n = grid.n
    points = [grid.grid_point(j) for j in range(n + 1)]
    i = _index(grid, pos)
    while True:
        lo = points[i - 1]
        hi = points[i + 1]
        t, y, exited, _ = box_exit(
            rng, model, pos, lo, hi, T, bounds=table[i - 1], work=work, max_restarts=_MAX_RESTARTS - restarts
        )
        restarts = 0
        steps += 1
        elapsed += t
        if exited:
            i = i - 1 if y == lo else i + 1
            if i == 0 or i == n:
                return elapsed, i, steps
            # grid point i is the centre of slice i, the next rectangle
            pos = points[i]
        else:
            pos = y
            i = _index(grid, pos)
        if steps >= _MAX_STEPS:
            raise RunawayError(f"diff_exit exceeded {_MAX_STEPS} rectangle steps")


def _walk_lanes(rng, model, grid, x_hat, T, table, lanes):
    """``lanes`` walks from x_hat in lockstep, as arrays in lane order: (elapsed, index, steps, work).

    diff_exit calls it for at least _TAIL_LANES walks.  Every pass of the
    loop runs one pass of box_exit's loop body on each active lane
    (box_round), then the walk step on the lanes whose rectangle ended;
    absorbed lanes leave the arrays.  Once fewer than _TAIL_LANES are
    active, each lane that stands where box_exit starts (at its start with
    no time elapsed: a new rectangle, or one just rejected) goes on with the
    scalar walk, so the stragglers cost no numpy passes.
    """
    n = grid.n
    points = np.array([grid.grid_point(j) for j in range(n + 1)])
    sc = slice_constants(model, [slice_interval(grid, i) for i in range(1, n)], table)
    out_elapsed = np.empty(lanes)
    out_index = np.empty(lanes, dtype=np.int64)
    out_steps = np.empty(lanes, dtype=np.int64)
    out_work = np.empty((5, lanes), dtype=np.int64)

    ids = np.arange(lanes)
    s = np.full(lanes, _index(grid, x_hat) - 1)
    pos = np.full(lanes, x_hat)  # where each lane's rectangle started
    x = pos.copy()  # where it stands
    el = np.zeros(lanes)
    restarts = np.zeros(lanes, dtype=np.int64)
    elapsed = np.zeros(lanes)
    steps = np.zeros(lanes, dtype=np.int64)
    work = np.zeros((5, lanes), dtype=np.int64)
    while len(ids):
        if len(ids) < _TAIL_LANES:
            for k in (el == 0.0).nonzero()[0].tolist():
                w = WorkCounter(*work[:, k].tolist())
                lane = ids[k]
                out_elapsed[lane], out_index[lane], out_steps[lane] = _walk(
                    rng, model, grid, float(pos[k]), T, table, w,
                    float(elapsed[k]), int(steps[k]), int(restarts[k]),
                )
                out_work[:, lane] = astuple(w)
            keep = el != 0.0
            ids, s, pos, x, el, restarts, elapsed, steps, work = (
                v[..., keep] for v in (ids, s, pos, x, el, restarts, elapsed, steps, work)
            )
            if not len(ids):
                break

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            outcome, t, y = box_round(rng, model, sc, s, pos, x, el, T, work)
        restarts += outcome == RESTARTED
        if restarts.max() > _MAX_RESTARTS:
            raise RunawayError(f"box_exit exceeded {_MAX_RESTARTS} restarts")
        c = (outcome >= TRUNCATED).nonzero()[0]
        if not len(c):
            continue
        elapsed[c] += t[c]
        steps[c] += 1
        oc = outcome[c]
        j = s[c] + 1 + np.where(oc == EXITED_UPPER, 1, -1)
        absorbed = (oc != TRUNCATED) & ((j == 0) | (j == n))
        going = c[~absorbed]
        if len(going) and steps[going].max() >= _MAX_STEPS:
            raise RunawayError(f"diff_exit exceeded {_MAX_STEPS} rectangle steps")
        p = np.where(oc == TRUNCATED, y[c], points[np.clip(j, 0, n)])[~absorbed]
        pos[going] = p
        x[going] = p
        d = grid.delta
        s[going] = np.clip(np.floor((p - grid.a_hat - 0.5 * d) / d), 0, n - 2).astype(np.int64)
        el[going] = 0.0
        restarts[going] = 0
        if absorbed.any():
            a = c[absorbed]
            lane = ids[a]
            out_elapsed[lane] = elapsed[a]
            out_index[lane] = j[absorbed]
            out_steps[lane] = steps[a]
            out_work[:, lane] = work[:, a]
            keep = np.ones(len(ids), dtype=bool)
            keep[a] = False
            ids, s, pos, x, el, restarts, elapsed, steps, work = (
                v[..., keep] for v in (ids, s, pos, x, el, restarts, elapsed, steps, work)
            )
    return out_elapsed, out_index, out_steps, out_work


def diff_exit(
    rng: RandomStream,
    model: DiffusionModel,
    x: float,
    a: float,
    b: float,
    T: float,
    N: int,
    *,
    bounds_table: tuple[IntervalBounds, ...] | None = None,
    lanes: int | None = None,
) -> ExitRecord | list[ExitRecord]:
    """Exit time and location of the original diffusion from (a, b), started at x.

    Runs the rectangle walk in transformed coordinates; absorbed positions
    snap exactly to the caller's a or b.  T = inf is admissible only when
    every slice has gamma_inf = 0.

    With ``lanes=None`` this is one walk and returns one ExitRecord.  With an
    integer, it runs that many independent walks from the one stream ``rng``
    and returns a list of ExitRecords in lane order, each with the law of a
    single walk: in lockstep from _TAIL_LANES walks on, and otherwise as
    scalar walks in turn.
    """
    if not (a < x < b):
        raise ValueError(f"need a < x < b, got a={a!r}, x={x!r}, b={b!r}")
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"need integer N >= 2, got {N!r}")
    if not T > 0.0:
        raise ValueError(f"need T > 0, got {T!r}")
    if lanes is not None and (not isinstance(lanes, int) or lanes < 1):
        raise ValueError(f"need lanes None or an integer >= 1, got {lanes!r}")
    a_hat = lamperti_forward(model, a)
    b_hat = lamperti_forward(model, b)
    x_hat = lamperti_forward(model, x)
    if not (a_hat < x_hat < b_hat):
        raise DomainError(f"transformed start {x_hat!r} not inside ({a_hat!r}, {b_hat!r})")
    grid = SliceGrid(a_hat, b_hat, N)
    if bounds_table is None:
        bounds_table = slice_bounds_table(model, a_hat, b_hat, N)
    if len(bounds_table) != N - 1:
        raise ValueError(f"bounds_table must have {N - 1} entries, got {len(bounds_table)}")
    check_horizon(T, bounds_table)

    if lanes is None or lanes < _TAIL_LANES:
        records = []
        for _ in range(lanes or 1):
            work = WorkCounter()
            elapsed, j, steps = _walk(rng, model, grid, x_hat, T, bounds_table, work)
            records.append(ExitRecord(elapsed, a if j == 0 else b, steps, work, N))
        return records[0] if lanes is None else records
    elapsed, index, steps, work = _walk_lanes(rng, model, grid, x_hat, T, bounds_table, lanes)
    return [
        ExitRecord(t, a if j == 0 else b, st, WorkCounter(*w), N)
        for t, j, st, w in zip(elapsed.tolist(), index.tolist(), steps.tolist(), work.T.tolist())
    ]
