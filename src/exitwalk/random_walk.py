"""Random walk on overlapping rectangles: full exit from an interval.

The transformed interval (a_hat, b_hat) is covered by N-1 slices of width
2*delta, delta = (b_hat - a_hat)/N.  Each step runs the rectangle sampler on
the slice indexed by the current position; exits land exactly on grid points
(single-multiplication arithmetic, no accumulated drift), so absorption at
either endpoint is detected by integer index, never by float comparison.
Truncated rectangles hand back an interior position and the walk continues.
The exit law is independent of N and of the per-rectangle horizon T; both
parameters only move the cost.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from functools import lru_cache

from .box_exit import BoxOutcome, WorkCounter, box_exit
from .errors import DomainError, RunawayError
from .model import DiffusionModel, IntervalBounds, check_horizon, compute_bounds, lamperti_forward
from .rng import RandomStream

_MAX_STEPS = 10**8


@dataclass(frozen=True)
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


def slice_index(grid: SliceGrid, x: float) -> int:
    """Index of the slice covering x, clamped to 1 near a_hat and n-1 near b_hat."""
    if not (grid.a_hat <= x <= grid.b_hat):
        raise ValueError(f"x={x!r} outside [{grid.a_hat!r}, {grid.b_hat!r}]")
    return _index(grid, x)


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


@dataclass(frozen=True)
class ExitRecord:
    exit_time: float
    exit_location: float
    steps: int
    work: WorkCounter
    wall_time: float
    chosen_N: int


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
    max_steps: int = _MAX_STEPS,
) -> ExitRecord:
    """Exit time and location of the original diffusion from (a, b), started at x.

    Runs the rectangle walk in transformed coordinates and maps the final
    position back; absorbed positions snap exactly to the caller's a or b.
    T = inf is admissible only when every slice has gamma_inf = 0.
    """
    if not (a < x < b):
        raise ValueError(f"need a < x < b, got a={a!r}, x={x!r}, b={b!r}")
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"need integer N >= 2, got {N!r}")
    if not T > 0.0:
        raise ValueError(f"need T > 0, got {T!r}")
    t0 = _time.perf_counter()
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

    work = WorkCounter()
    pos = x_hat
    elapsed = 0.0
    steps = 0
    location = None
    while True:
        i = _index(grid, pos)
        lo, hi = slice_interval(grid, i)
        out: BoxOutcome = box_exit(rng, model, pos, lo, hi, T, bounds=bounds_table[i - 1], work=work)
        steps += 1
        elapsed += out.time
        if out.exited:
            j = i - 1 if out.position == lo else i + 1
            if j == 0:
                location = a
                break
            if j == grid.n:
                location = b
                break
            pos = grid.grid_point(j)
        else:
            pos = out.position
        if steps >= max_steps:
            raise RunawayError(f"diff_exit exceeded {max_steps} rectangle steps")

    wall = _time.perf_counter() - t0
    return ExitRecord(
        exit_time=elapsed,
        exit_location=location,
        steps=steps,
        work=work,
        wall_time=wall,
        chosen_N=N,
    )
