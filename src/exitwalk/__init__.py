"""Exact simulation of one-dimensional diffusion exit times.

The exit time and location of a diffusion from an interval are sampled
without discretisation bias by a random walk on space-time rectangles; the
per-rectangle sampler is an acceptance-rejection scheme built on exact
Brownian primitives, and the number of slices covering the interval can be
tuned online by an epsilon-greedy bandit minimising the per-simulation cost.
"""

from .bandit import (
    BanditState,
    BanditTrace,
    RewardModel,
    WALL_TIME,
    WORK_UNITS,
    bandit_diff_exit,
    reward_model,
    select_arm,
    update,
)
from .bm_exit import BmExitSample, KernelEvaluation, absorbing_kernel, cond_bm, exit_bm, exit_time_cdf, hit_cdf
from .box_exit import BoxOutcome, WorkCounter
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    ExitwalkError,
    RunawayError,
)
from .model import (
    DiffusionModel,
    IntervalBounds,
    beta,
    brownian,
    build_model,
    compute_bounds,
    cox_ingersoll_ross,
    gamma,
    lamperti_forward,
    lamperti_inverse,
    make_model,
    ornstein_uhlenbeck,
    sinusoidal_drift,
)
from .oracle import exit_probability, mean_exit_time
from .quadrature import QuadratureResult, adaptive_simpson
from .random_walk import ExitRecord, SliceGrid, diff_exit, slice_bounds_table, slice_index, slice_interval
from .rng import RandomStream, substream

__version__ = "0.1.0"
