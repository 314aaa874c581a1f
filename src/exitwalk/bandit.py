"""Epsilon-greedy tuning of the slicing parameter N over arms {2, ..., N0}.

The reward of an arm is the cost of one full exit simulation run with that
N, of one of two kinds: ``WORK_UNITS`` ("work"), the walk's deterministic
count of sampler events, or ``WALL_TIME`` ("wall"), its wall-clock seconds.
The bandit minimises it: with probability 1 - epsilon it replays the arm with
the smallest empirical mean cost, otherwise it explores that arm's
neighbours N - 1 and N + 1, uniformly among those in 2..N0.  This assumes
the cost over N is unimodal: then the leader's neighbours are the only arms
worth exploring (unimodal bandits: Yu & Mannor, ICML 2011; Combes &
Proutiere, ICML 2014).  Acceptance criterion 6 checks on the paper's
Example 1 that the cost has an interior minimum with dearer edges.  On a
cost with several local minima the tuner can settle in one of them.
Unpulled arms have mean cost 0 and so are greedy first, and an unpulled
greedy arm is pulled outright whatever epsilon is, so the initial sweep
visits every arm in the first N0 - 1 pulls.  Selection at iteration n+1
depends only on rewards up to n, and the exit law itself does not depend on
N, so tuning never perturbs the sampled law.

With the work reward, pulls of the greedy arm are served from a per-arm bank
of walks drawn ahead as one block (``diff_exit(..., lanes=k)``) from the
bandit's own stream, of at most random_walk._LANES walks, the block size of
``run_replications``.  This is the "stack of rewards" view of a bandit
(Lattimore & Szepesvari, *Bandit Algorithms*, 2020, section 4.6): the
block reads variates that no earlier decision read, every later selection
reads variates after it, and each pull takes the next unread i.i.d. walk of
its arm, so the joint law of arms and rewards is that of one scalar walk
per pull.
"""

from __future__ import annotations

import math
import time as _time
from collections import deque
from dataclasses import dataclass, field

from .model import DiffusionModel, lamperti_forward
from .random_walk import _LANES, ExitRecord, diff_exit, slice_bounds_table
from .rng import RandomStream

SCHEDULES = ("fixed", "cube_root_decay")
WORK_UNITS = "work"
WALL_TIME = "wall"


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
        return self.mean_cost.index(min(self.mean_cost)) + 2

    def epsilon_effective(self, n: int) -> float:
        if self.schedule == "fixed" or n < 2:
            return self.epsilon if self.schedule == "fixed" else 1.0
        return min(1.0, n ** (-1.0 / 3.0) * (self.n_arms * math.log(n)) ** (1.0 / 3.0))

    def neighbours(self, arm: int) -> list[int]:
        """The arms next to ``arm``: one at either edge of 2..N0, two inside."""
        return [n for n in (arm - 1, arm + 1) if 2 <= n <= self.n0]

    def selection_probabilities(self) -> list[float]:
        """Distribution of the next selection implied by the current state."""
        if self.total_pulls == 0:
            return [1.0 / self.n_arms] * self.n_arms
        greedy = self.greedy_arm()
        probs = [0.0] * self.n_arms
        if self.pulls[greedy - 2] == 0:
            probs[greedy - 2] = 1.0
            return probs
        eps = self.epsilon_effective(self.total_pulls + 1)
        near = self.neighbours(greedy)
        probs[greedy - 2] = 1.0 - eps
        for arm in near:
            probs[arm - 2] = eps / len(near)
        return probs


def select_arm(state: BanditState, rng: RandomStream) -> int:
    """Next N: uniform on the very first pull, then the greedy arm outright
    while it is unpulled, and otherwise the greedy arm with probability
    1 - epsilon and one of its neighbours, uniformly, with probability epsilon."""
    if state.total_pulls == 0:
        return 2 + int(rng.uniform() * state.n_arms)
    greedy = state.greedy_arm()
    if state.pulls[greedy - 2] == 0:
        return greedy
    eps = state.epsilon_effective(state.total_pulls + 1)
    if rng.uniform() < 1.0 - eps:
        return greedy
    near = state.neighbours(greedy)
    return near[int(rng.uniform() * len(near))]


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
    reward: str = WORK_UNITS,
    schedule: str = "fixed",
) -> tuple[list[ExitRecord], BanditTrace]:
    """Run M exit simulations, choosing N by epsilon-greedy cost minimisation
    with exploration of the greedy arm's neighbours (see ``select_arm``).

    The state is updated after every pull, before the next arm is selected.
    Every arm's bounds table is built before the first pull, so a wall-clock
    reward never charges that one-off build to an arm.

    ``reward`` is ``WORK_UNITS`` ("work"), the walk's ``work.total()``, or
    ``WALL_TIME`` ("wall"), the seconds measured around its scalar walk,
    floored at 1e-9.  Any other kind raises ValueError.

    With the work reward, a pull of the greedy arm whose bank is empty
    refills it with one block ``diff_exit(rng, ..., lanes=k)`` of ``k =
    min(_LANES, M - it + 1, pulls of that arm)`` walks, if k >= 1, so blocks
    double with the arm's pulls up to random_walk's largest lane block, and
    banked walks are popped in lane order.  The law is exact: k may depend
    on the history, but the block reads variates no earlier decision read,
    and leftovers are dropped unread.  Every other pull runs one scalar walk
    on ``rng``; with the wall reward every pull does, since a block's
    amortised time would underprice the banked arm.
    """
    if M < 1:
        raise ValueError(f"need M >= 1, got {M!r}")
    if reward not in (WORK_UNITS, WALL_TIME):
        raise ValueError(f"unknown reward kind {reward!r}")
    work_reward = reward == WORK_UNITS
    state = BanditState(n0=n0, epsilon=epsilon, schedule=schedule)
    a_hat = lamperti_forward(model, a)
    b_hat = lamperti_forward(model, b)
    tables = {arm: slice_bounds_table(model, a_hat, b_hat, arm) for arm in state.arms}
    banks: dict[int, deque[ExitRecord]] = {arm: deque() for arm in state.arms}
    records: list[ExitRecord] = []
    rows: list[tuple[int, int, float, float, float]] = []
    running = 0.0
    for it in range(1, M + 1):
        eps_eff = state.epsilon_effective(it)
        arm = select_arm(state, rng)
        bank = banks[arm]
        # select_arm leaves the state alone, so greedy_arm() is still the pre-selection one
        if not bank and work_reward and arm == state.greedy_arm():
            k = min(_LANES, M - it + 1, state.pulls[arm - 2])
            if k:
                bank.extend(diff_exit(rng, model, x, a, b, T, arm, bounds_table=tables[arm], lanes=k))
        if bank:
            rec = bank.popleft()
        else:
            t0 = _time.perf_counter()
            rec = diff_exit(rng, model, x, a, b, T, arm, bounds_table=tables[arm])
            dt = _time.perf_counter() - t0
        r = float(rec.work.total()) if work_reward else max(dt, 1e-9)
        update(state, arm, r)
        running += r
        records.append(rec)
        rows.append((it, arm, r, running / it, eps_eff))
    return records, BanditTrace(rows=rows, state=state)
