"""Epsilon-greedy tuning of the slicing parameter N over arms {2, ..., N0}.

The reward of an arm is the cost of one full exit simulation run with that N
(wall-clock seconds, or deterministic work units for reproducible tests),
and the bandit minimises it: with probability 1 - epsilon it replays the arm
with the smallest empirical mean cost, otherwise it explores uniformly.
Selection at iteration n+1 depends only on rewards up to n, and the exit law
itself does not depend on N, so tuning never perturbs the sampled law.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable

from .model import DiffusionModel, lamperti_forward
from .random_walk import ExitRecord, diff_exit, slice_bounds_table
from .rng import RandomStream

SCHEDULES = ("fixed", "cube_root_decay")


@dataclass
class BanditState:
    n0: int
    epsilon: float
    schedule: str = "fixed"
    mean_cost: list[float] = field(default_factory=list)
    pulls: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.n0 < 3:
            raise ValueError(f"need N0 >= 3, got {self.n0!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"need epsilon in (0, 1], got {self.epsilon!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not self.mean_cost:
            self.mean_cost = [0.0] * self.n_arms
        if not self.pulls:
            self.pulls = [0] * self.n_arms

    @property
    def n_arms(self) -> int:
        return self.n0 - 1

    @property
    def arms(self) -> range:
        return range(2, self.n0 + 1)

    @property
    def total_pulls(self) -> int:
        return sum(self.pulls)

    def greedy_arm(self) -> int:
        """Arm with the smallest empirical mean cost; ties go to the smallest N."""
        best = 0
        for i in range(1, self.n_arms):
            if self.mean_cost[i] < self.mean_cost[best]:
                best = i
        return best + 2

    def epsilon_effective(self, n: int) -> float:
        if self.schedule == "fixed" or n < 2:
            return self.epsilon if self.schedule == "fixed" else 1.0
        return min(1.0, n ** (-1.0 / 3.0) * (self.n_arms * math.log(n)) ** (1.0 / 3.0))

    def selection_probabilities(self) -> list[float]:
        """Distribution of the next selection implied by the current state."""
        if self.total_pulls == 0:
            return [1.0 / self.n_arms] * self.n_arms
        eps = self.epsilon_effective(self.total_pulls + 1)
        probs = [eps / self.n_arms] * self.n_arms
        probs[self.greedy_arm() - 2] += 1.0 - eps
        return probs


def select_arm(state: BanditState, rng: RandomStream) -> int:
    """Next N: uniform on the very first pull, epsilon-greedy afterwards."""
    if state.total_pulls == 0:
        return 2 + int(rng.uniform() * state.n_arms)
    eps = state.epsilon_effective(state.total_pulls + 1)
    if rng.uniform() < 1.0 - eps:
        return state.greedy_arm()
    return 2 + int(rng.uniform() * state.n_arms)


def update(state: BanditState, N: int, reward: float) -> None:
    """Fold one reward into the running mean of arm N."""
    if not 2 <= N <= state.n0:
        raise ValueError(f"arm {N!r} outside 2..{state.n0}")
    if not (reward > 0.0 and math.isfinite(reward)):
        raise ValueError(f"reward must be strictly positive and finite, got {reward!r}")
    i = N - 2
    m = state.pulls[i]
    state.mean_cost[i] = (m * state.mean_cost[i] + reward) / (m + 1)
    state.pulls[i] = m + 1


@dataclass(frozen=True)
class RewardModel:
    kind: str  # "wall_time" | "work_units"
    extract: Callable[[ExitRecord, float], float]


WORK_UNITS = RewardModel("work_units", lambda rec, dt: float(rec.work.total()))
WALL_TIME = RewardModel("wall_time", lambda rec, dt: max(dt, 1e-9))


def reward_model(kind: str) -> RewardModel:
    if kind in ("work", "work_units"):
        return WORK_UNITS
    if kind in ("wall", "wall_time"):
        return WALL_TIME
    raise ValueError(f"unknown reward kind {kind!r}")


@dataclass
class BanditTrace:
    # rows: (iteration, N, reward, running mean of rewards, effective epsilon)
    rows: list[tuple[int, int, float, float, float]]
    state: BanditState

    def arm_summary(self) -> list[tuple[int, int, float]]:
        return [
            (arm, self.state.pulls[arm - 2], self.state.mean_cost[arm - 2])
            for arm in self.state.arms
        ]


def bandit_diff_exit(
    rng: RandomStream,
    model: DiffusionModel,
    x: float,
    a: float,
    b: float,
    T: float,
    n0: int,
    epsilon: float,
    M: int,
    reward: RewardModel = WORK_UNITS,
    schedule: str = "fixed",
) -> tuple[list[ExitRecord], BanditTrace]:
    """Run M exit simulations, choosing N by epsilon-greedy cost minimisation.

    Strictly sequential: the clock is started and stopped around each exit
    simulation and the state is updated before the next arm is selected.
    The bounds table of every arm is built before the first pull, so a
    wall-clock reward never charges that one-off build to an arm.
    """
    if M < 1:
        raise ValueError(f"need M >= 1, got {M!r}")
    state = BanditState(n0=n0, epsilon=epsilon, schedule=schedule)
    a_hat = lamperti_forward(model, a)
    b_hat = lamperti_forward(model, b)
    tables = {arm: slice_bounds_table(model, a_hat, b_hat, arm) for arm in state.arms}
    records: list[ExitRecord] = []
    rows: list[tuple[int, int, float, float, float]] = []
    running = 0.0
    for it in range(1, M + 1):
        eps_eff = state.epsilon_effective(it)
        arm = select_arm(state, rng)
        t0 = _time.perf_counter()
        rec = diff_exit(rng, model, x, a, b, T, arm, bounds_table=tables[arm])
        dt = _time.perf_counter() - t0
        r = reward.extract(rec, dt)
        update(state, arm, r)
        running += r
        records.append(rec)
        rows.append((it, arm, r, running / it, eps_eff))
    return records, BanditTrace(rows=rows, state=state)
