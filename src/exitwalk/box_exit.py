"""Exact exit-or-truncation sampling from one space-time rectangle.

Given the unit-diffusion process on (l, u) with horizon T (finite or
infinite), the sampler runs the three-branch rejection loop.  Each attempt
draws a thinning clock E ~ Exp(gamma_range), then asks whether the Brownian
exit comes by the clock and the horizon, and draws the exit (S, Y) only if it
does; whichever of the exit, the horizon, or the clock comes first decides
the branch.  Exit and truncation candidates pass a beta acceptance test (in
log space), thinning events pass a gamma survival test and continue the
clock; any failure restarts the whole rectangle from the initial state.
With valid interval bounds the outcome is exactly distributed as
(tau ^ T, position), whatever the bounds' slack; looser bounds only raise
the work counters.  The lane twin ``box_round`` draws every exit in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bm_exit import _cond_bm_norm, _cond_bm_norm_lanes, _each, _exit_bm_norm, _exit_bm_norm_lanes
from .errors import RunawayError
from .model import DiffusionModel, IntervalBounds, check_horizon, compute_bounds
from .rng import RandomStream

_MAX_RESTARTS = 10**9
_tuple_new = tuple.__new__  # builds a BoxOutcome without the NamedTuple's Python-level __new__


@dataclass(slots=True)
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


class BoxOutcome(NamedTuple):
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
    work: WorkCounter | None = None,
    max_restarts: int = _MAX_RESTARTS,
) -> BoxOutcome:
    """Sample (tau_{l,u} ^ T, position) for the unit-diffusion process from x.

    ``bounds`` may be any valid (possibly conservative) interval bounds; they
    are computed from the model when omitted.  ``work`` lets a caller
    aggregate cost over many rectangles; the returned outcome carries
    whichever counter was used.
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
    if T == math.inf:
        check_horizon(T, (bounds,))
    gamma = model.gamma_fn
    anti = model.mu0_antiderivative
    w = work if work is not None else WorkCounter()
    # per-rectangle constants: normalised distances to each end, taken from the
    # raw position, and endpoint log margins
    width = u - l
    wsq = width * width
    zl0 = (x - l) / width
    zu0 = (u - x) / width
    accept_lo = anti(l) - log_bsup
    accept_hi = anti(u) - log_bsup
    uniform = rng.uniform
    log = math.log
    log1p = math.log1p
    inf = math.inf

    zl = zl0
    zu = zu0
    elapsed = 0.0
    left = T  # T - elapsed
    n_restart = n_exit = n_cond = n_exp = n_uni = 0
    try:
        while True:
            if g_range > 0.0:
                e = -log1p(-uniform()) / g_range
                n_exp += 1
            else:
                e = inf
            # an exit after the clock or the horizon is reported as s_norm = inf
            s_norm, upper = _exit_bm_norm(rng, zl, zu, (e if e < left else left) / wsq)
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
                    return _tuple_new(BoxOutcome, (t_hit, u if upper else l, True, w))
            elif T <= t_thin:
                yn = _cond_bm_norm(rng, zl, left / wsq)
                n_cond += 1
                n_uni += 1
                y = l + yn * width
                if l < y < u and log(uniform()) <= anti(y) - log_bsup:
                    return _tuple_new(BoxOutcome, (T, y, False, w))
            else:
                yn = _cond_bm_norm(rng, zl, e / wsq)
                n_cond += 1
                n_uni += 1
                y = l + yn * width
                if l < y < u and g_range * uniform() > gamma(y) - g_inf:
                    zl = yn
                    zu = (u - y) / width
                    elapsed = t_thin
                    left = T - elapsed
                    continue

            n_restart += 1
            if n_restart > max_restarts:
                raise RunawayError(f"box_exit exceeded {max_restarts} restarts on ({l!r}, {u!r})")
            zl = zl0
            zu = zu0
            elapsed = 0.0
            left = T
    finally:
        w.restarts += n_restart
        w.exit_bm_calls += n_exit
        w.cond_bm_calls += n_cond
        w.exp_draws += n_exp
        w.uniform_draws += n_uni


# ---------------------------------------------------------------------------
# lanes: box_exit's loop body for a batch of rectangles, as struct-of-arrays
# ---------------------------------------------------------------------------

# outcome of one lane in one box_round pass; the last two end the rectangle
RESTARTED, THINNED, TRUNCATED, EXITED_LOWER, EXITED_UPPER = range(5)


class SliceConstants(NamedTuple):
    """box_exit's per-rectangle constants, one array entry per slice."""

    l: np.ndarray
    u: np.ndarray
    width: np.ndarray
    wsq: np.ndarray
    g_inf: np.ndarray
    g_range: np.ndarray
    log_bsup: np.ndarray
    accept_lo: np.ndarray
    accept_hi: np.ndarray


def slice_constants(model: DiffusionModel, intervals, table) -> SliceConstants:
    """Constants of the rectangles ``intervals`` with their bounds ``table``, as box_exit computes them."""
    anti = model.mu0_antiderivative
    rows = []
    for (l, u), bd in zip(intervals, table):
        width = u - l
        log_bsup = bd.log_beta_sup
        rows.append((
            l, u, width, width * width, bd.gamma_inf, bd.gamma_range, log_bsup,
            anti(l) - log_bsup, anti(u) - log_bsup,
        ))
    return SliceConstants(*(np.array(col, dtype=float) for col in zip(*rows)))


def box_round(rng: RandomStream, model: DiffusionModel, sc: SliceConstants, s, x0, x, elapsed, T: float, work):
    """One pass of box_exit's loop body for every lane.

    Lane k runs rectangle s[k] of ``sc``, started at position x0[k], and
    stands at x[k] after elapsed[k] of its time; the distances to its ends
    are taken from x[k], as box_exit takes them.  A thinning survivor moves
    x and elapsed in place and a rejection resets them to (x0, 0), as
    box_exit does.  ``work`` is the (5, lanes) array of the WorkCounter
    fields in field order, counted as box_exit counts them.
    Call it with numpy's divide, overflow and invalid warnings off.
    Returns (outcome, time, position): the time of an exited or truncated
    lane's BoxOutcome, and the position of a truncated lane.
    """
    n = len(x)
    l, u, width = sc.l[s], sc.u[s], sc.width[s]
    g_range = sc.g_range[s]
    wsq = sc.wsq[s]
    e = -np.log1p(-rng.uniforms(n)) / g_range  # inf where g_range == 0
    zl = (x - l) / width
    s_norm, upper = _exit_bm_norm_lanes(rng, zl, (u - x) / width)
    t_hit = elapsed + s_norm * wsq
    t_thin = elapsed + e
    hit = (t_hit <= t_thin) & (t_hit <= T)
    outcome = np.full(n, RESTARTED)
    time = np.where(hit, t_hit, T)
    position = np.empty(n)
    second = np.zeros(n, dtype=bool)  # lanes that drew the horizon-weight uniform

    h = hit.nonzero()[0]
    sh = s[h]
    up = upper[h]
    ok = np.log(rng.uniforms(len(h))) <= np.where(up, sc.accept_hi[sh], sc.accept_lo[sh])
    g_inf = sc.g_inf[sh]
    j = (ok & (g_inf != 0.0)).nonzero()[0]
    second[h[j]] = True
    ok[j] = np.log(rng.uniforms(len(j))) <= g_inf[j] * (T - t_hit[h[j]])
    outcome[h[ok]] = np.where(up[ok], EXITED_UPPER, EXITED_LOWER)

    c = (~hit).nonzero()[0]
    sc_c = s[c]
    trunc = T <= t_thin[c]
    yn = _cond_bm_norm_lanes(rng, zl[c], np.where(trunc, T - elapsed[c], e[c]) / wsq[c])
    lc = l[c]
    y = lc + yn * width[c]
    inside = (lc < y) & (y < u[c])
    v = rng.uniforms(len(c))
    ok = np.zeros(len(c), dtype=bool)
    j = (inside & trunc).nonzero()[0]
    ok[j] = np.log(v[j]) <= _each(model.mu0_antiderivative, y[j]) - sc.log_bsup[sc_c[j]]
    j = (inside & ~trunc).nonzero()[0]
    ok[j] = sc.g_range[sc_c[j]] * v[j] > _each(model.gamma_fn, y[j]) - sc.g_inf[sc_c[j]]
    accepted = ok & trunc
    outcome[c[accepted]] = TRUNCATED
    position[c[accepted]] = y[accepted]
    accepted = ok & ~trunc
    th = c[accepted]
    outcome[th] = THINNED
    x[th] = y[accepted]
    elapsed[th] = t_thin[th]

    restarted = outcome == RESTARTED
    x[restarted] = x0[restarted]
    elapsed[restarted] = 0.0
    work[0] += restarted
    work[1] += 1
    work[2] += ~hit
    work[3] += g_range > 0.0
    work[4] += 1 + second
    return outcome, time, position
