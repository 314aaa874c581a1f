"""Exact exit-or-truncation sampling from one space-time rectangle.

Given the unit-diffusion process on (l, u) with horizon T (finite or
infinite), the sampler runs the three-branch rejection loop: draw a thinning
clock E ~ Exp(gamma_range) and a Brownian exit (S, Y); whichever of the exit,
the horizon, or the clock comes first decides the branch.  Exit and
truncation candidates pass a beta acceptance test (in log space), thinning
events pass a gamma survival test and continue the clock; any failure
restarts the whole rectangle from the initial state.  With valid interval
bounds the outcome is exactly distributed as (tau ^ T, position), whatever
the bounds' slack; looser bounds only raise the work counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bm_exit import _cond_bm_norm, _exit_bm_norm
from .errors import RunawayError
from .model import DiffusionModel, IntervalBounds, check_horizon, compute_bounds
from .rng import RandomStream

_MAX_RESTARTS = 10**9


@dataclass
class WorkCounter:
    """Hardware-independent cost ledger; one field per kind of random event."""

    restarts: int = 0
    exit_bm_calls: int = 0
    cond_bm_calls: int = 0
    exp_draws: int = 0
    uniform_draws: int = 0

    def total(self) -> int:
        return (
            self.restarts
            + self.exit_bm_calls
            + self.cond_bm_calls
            + self.exp_draws
            + self.uniform_draws
        )


@dataclass(frozen=True)
class BoxOutcome:
    time: float
    position: float
    exited: bool
    work: WorkCounter


def box_exit(
    rng: RandomStream,
    model: DiffusionModel,
    x: float,
    l: float,
    u: float,
    T: float = math.inf,
    *,
    bounds: IntervalBounds | None = None,
    gamma_fn=None,
    work: WorkCounter | None = None,
    max_restarts: int = _MAX_RESTARTS,
) -> BoxOutcome:
    """Sample (tau_{l,u} ^ T, position) for the unit-diffusion process from x.

    ``bounds`` may be any valid (possibly conservative) interval bounds; they
    are computed from the model when omitted.  ``gamma_fn`` overrides the
    model's gamma evaluator in the thinning test (validation hook; the bounds
    are never derived from it).  ``work`` lets a caller aggregate cost over
    many rectangles; the returned outcome carries whichever counter was used.
    """
    if not (l < x < u):
        raise ValueError(f"need l < x < u, got l={l!r}, x={x!r}, u={u!r}")
    if not T > 0.0:
        raise ValueError(f"need T > 0, got {T!r}")
    if bounds is None:
        bounds = compute_bounds(model, l, u)
    g_inf = bounds.gamma_inf
    g_range = bounds.gamma_range
    log_bsup = bounds.log_beta_sup
    check_horizon(T, (bounds,))
    if gamma_fn is None:
        gamma_fn = model.gamma_fn
    anti = model.mu0_antiderivative
    w = work if work is not None else WorkCounter()
    # per-rectangle constants: normalised coordinates and endpoint log margins
    width = u - l
    wsq = width * width
    z0 = (x - l) / width
    accept_lo = anti(l) - log_bsup
    accept_hi = anti(u) - log_bsup
    uniform = rng.uniform
    log = math.log
    log1p = math.log1p
    inf = math.inf

    z = z0
    elapsed = 0.0
    n_restart = n_exit = n_cond = n_exp = n_uni = 0
    try:
        while True:
            if g_range > 0.0:
                e = -log1p(-uniform()) / g_range
                n_exp += 1
            else:
                e = inf
            s_norm, upper = _exit_bm_norm(rng, z)
            n_exit += 1
            t_hit = elapsed + s_norm * wsq
            t_thin = elapsed + e

            if t_hit <= t_thin and t_hit <= T:
                n_uni += 1
                ok = log(uniform()) <= (accept_hi if upper else accept_lo)
                if ok and g_inf != 0.0:
                    n_uni += 1
                    ok = log(uniform()) <= g_inf * (T - t_hit)
                if ok:
                    return BoxOutcome(time=t_hit, position=u if upper else l, exited=True, work=w)
            elif T <= t_thin:
                yn = _cond_bm_norm(rng, z, (T - elapsed) / wsq)
                n_cond += 1
                n_uni += 1
                y = l + yn * width
                if l < y < u and log(uniform()) <= anti(y) - log_bsup:
                    return BoxOutcome(time=T, position=y, exited=False, work=w)
            else:
                yn = _cond_bm_norm(rng, z, e / wsq)
                n_cond += 1
                n_uni += 1
                y = l + yn * width
                if l < y < u and g_range * uniform() > gamma_fn(y) - g_inf:
                    z = yn
                    elapsed = t_thin
                    continue

            n_restart += 1
            if n_restart > max_restarts:
                raise RunawayError(f"box_exit exceeded {max_restarts} restarts on ({l!r}, {u!r})")
            z = z0
            elapsed = 0.0
    finally:
        w.restarts += n_restart
        w.exit_bm_calls += n_exit
        w.cond_bm_calls += n_cond
        w.exp_draws += n_exp
        w.uniform_draws += n_uni
