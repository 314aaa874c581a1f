"""Exact sampling primitives for standard Brownian motion on an interval.

Everything is computed on the normalised interval (0, 1) (Brownian scaling:
positions map affinely, times by the squared width) from two classical series
for the heat kernel with absorption at both endpoints:

* image (reflection) series, sharp for small ``t``:
      q_t(z, y) = sum_k  phi_t(y - z + 2k) - phi_t(y + z + 2k)
* spectral (sine) series, sharp for large ``t``:
      q_t(z, y) = sum_n  2 sin(n pi z) sin(n pi y) exp(-n^2 pi^2 t / 2)

The density of hitting the upper endpoint at time t (before the lower one)
has matching twins,

      f(t | z) = (2 pi t^3)^(-1/2) sum_j (-1)^j d_j exp(-d_j^2 / (2t)),
                 d_{2i} = (2i+1) - z,  d_{2i+1} = (2i+1) + z,
      f(t | z) = pi sum_n (-1)^(n+1) n sin(n pi z) exp(-n^2 pi^2 t / 2),

and every accept/reject decision is taken against rigorous lower/upper
partial-sum bounds of these series, so no series is ever summed to
completion and no decision is ever approximate.  The crossover between the
twins sits at the theta-duality point t = (u-l)^2 / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DegenerateInputError
from .rng import RandomStream

_T_CROSS = 1.0 / math.pi  # series crossover, normalised time
_T_HEAD = 0.5  # head/tail split of the exit-time proposal envelope
_HALF_PI2 = 0.5 * math.pi * math.pi
# sum_{n>=2} n exp(-n^2 a) <= 2 exp(-4a) / (1 - exp(-4a))^2, so for t >= _T_HEAD
# the n>=2 spectral terms are below _TAIL_ENV_SLACK * exp(-pi^2 t / 2)
_TAIL_ENV_SLACK = 1.25e-3
_MAX_TERMS = 10**6
_MAX_PROPOSALS = 10**7


@dataclass(frozen=True)
class BmExitSample:
    time: float
    side: str  # "lower" | "upper"
    location: float


@dataclass(frozen=True)
class KernelEvaluation:
    lower_bound: float
    upper_bound: float
    terms_used: int


def _phi(w: float, t: float) -> float:
    return math.exp(-w * w / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sandwich bounds, normalised coordinates
# ---------------------------------------------------------------------------


def _hit_density_bounds(z: float, t: float, k: int) -> tuple[float, float]:
    """Bounds on the upper-endpoint hitting density f(t | z) after k terms."""
    if t <= _T_CROSS:
        # image series: terms decrease from j = 1 on (d_1 = 1 + z > sqrt(t))
        pref = 1.0 / math.sqrt(2.0 * math.pi * t * t * t)
        s = 0.0
        for j in range(k + 1):
            half = j >> 1
            d = (2 * half + 1) - z if j % 2 == 0 else (2 * half + 1) + z
            c = d * math.exp(-d * d / (2.0 * t)) * pref
            s += -c if j & 1 else c
        jn = k + 1
        half = jn >> 1
        dn = (2 * half + 1) - z if jn % 2 == 0 else (2 * half + 1) + z
        cn = dn * math.exp(-dn * dn / (2.0 * t)) * pref
        if k & 1:
            return max(s, 0.0), s + cn
        return max(s - cn, 0.0), s
    a = _HALF_PI2 * t
    s = 0.0
    for n in range(1, k + 1):
        term = n * math.sin(n * math.pi * z) * math.exp(-n * n * a)
        s += term if n % 2 == 1 else -term
    s *= math.pi
    r = math.exp(-2.0 * (k + 1) * a)
    tail = math.pi * (k + 1) * math.exp(-(k + 1) * (k + 1) * a) / (1.0 - r) ** 2
    return max(s - tail, 0.0), s + tail


def _kernel_bounds(z: float, y: float, t: float, k: int) -> tuple[float, float]:
    """Bounds on the absorbing kernel q_t(z, y) after k image pairs / modes."""
    if t < _T_CROSS:
        s = 0.0
        for j in range(-k, k + 1):
            s += _phi(y - z + 2.0 * j, t) - _phi(y + z + 2.0 * j, t)
        tail = 4.0 * _phi(2.0 * k, t) / (1.0 - math.exp(-(4.0 * k + 2.0) / t)) if k >= 1 else math.inf
        return max(s - tail, 0.0), s + tail
    a = _HALF_PI2 * t
    s = 0.0
    for n in range(1, k + 1):
        s += 2.0 * math.sin(n * math.pi * z) * math.sin(n * math.pi * y) * math.exp(-n * n * a)
    tail = 2.0 * math.exp(-(k + 1) * (k + 1) * a) / (1.0 - math.exp(-2.0 * (k + 1) * a))
    return max(s - tail, 0.0), s + tail


def _survival_bounds(z: float, t: float, k: int) -> tuple[float, float]:
    """Bounds on P(tau > t) after k image pairs / odd modes."""
    if t < _T_CROSS:
        rt = math.sqrt(t)
        s = 0.0
        for j in range(-k, k + 1):
            s += (
                _norm_cdf((1.0 - z + 2.0 * j) / rt)
                - _norm_cdf((-z + 2.0 * j) / rt)
                - _norm_cdf((1.0 + z + 2.0 * j) / rt)
                + _norm_cdf((z + 2.0 * j) / rt)
            )
        tail = 4.0 * _phi(2.0 * k, t) / (1.0 - math.exp(-(4.0 * k + 2.0) / t)) if k >= 1 else math.inf
        return max(s - tail, 0.0), min(s + tail, 1.0)
    a = _HALF_PI2 * t
    s = 0.0
    n = 1
    for _ in range(k):
        s += (4.0 / (n * math.pi)) * math.sin(n * math.pi * z) * math.exp(-n * n * a)
        n += 2
    tail = (4.0 / (n * math.pi)) * math.exp(-n * n * a) / (1.0 - math.exp(-(4.0 * n + 4.0) * a))
    return max(s - tail, 0.0), min(s + tail, 1.0)


def _hit_cdf_bounds(z: float, t: float, k: int) -> tuple[float, float]:
    """Bounds on the sub-CDF P(tau <= t, exit at the upper endpoint)."""
    if t <= _T_CROSS:
        rt2 = math.sqrt(2.0 * t)
        s = 0.0
        for j in range(k + 1):
            half = j >> 1
            d = (2 * half + 1) - z if j % 2 == 0 else (2 * half + 1) + z
            c = math.erfc(d / rt2)
            s += -c if j & 1 else c
        jn = k + 1
        half = jn >> 1
        dn = (2 * half + 1) - z if jn % 2 == 0 else (2 * half + 1) + z
        cn = math.erfc(dn / rt2)
        if k & 1:
            return max(s, 0.0), min(s + cn, 1.0)
        return max(s - cn, 0.0), min(s, 1.0)
    a = _HALF_PI2 * t
    s = 0.0
    for n in range(1, k + 1):
        term = (2.0 / (n * math.pi)) * math.sin(n * math.pi * z) * math.exp(-n * n * a)
        s += term if n % 2 == 1 else -term
    tail = (2.0 / ((k + 1) * math.pi)) * math.exp(-(k + 1) * (k + 1) * a) / (
        1.0 - math.exp(-2.0 * (k + 1) * a)
    )
    return max(z - s - tail, 0.0), min(z - s + tail, 1.0)


def _resolve(bound_fn, tol: float, k_start: int = 1) -> tuple[float, float, int]:
    """Shrink [lo, hi] (kept monotone by best-tracking) until hi - lo <= tol.

    Raises once the term cap is hit or the width stops improving (the series
    has bottomed out at float precision above the requested tolerance).
    """
    best_lo, best_hi = 0.0, math.inf
    stale = 0
    k = k_start
    while k <= _MAX_TERMS:
        lo, hi = bound_fn(k)
        improved = False
        if lo > best_lo:
            best_lo = lo
            improved = True
        if hi < best_hi:
            best_hi = hi
            improved = True
        if best_hi - best_lo <= tol:
            return best_lo, best_hi, k
        stale = 0 if improved else stale + 1
        if stale >= 8:
            raise ConvergenceError(
                f"series sandwich stalled at width {best_hi - best_lo!r} above tolerance {tol!r}"
            )
        k += 1
    raise ConvergenceError("series sandwich did not reach the requested tolerance")


def _sandwich_accept(threshold: float, bound_fn, k_start: int = 1) -> bool:
    """Exact accept/reject of ``threshold <= series value`` via shrinking bounds."""
    best_lo, best_hi = -math.inf, math.inf
    k = k_start
    while k <= _MAX_TERMS:
        lo, hi = bound_fn(k)
        if lo > best_lo:
            best_lo = lo
        if hi < best_hi:
            best_hi = hi
        if threshold <= best_lo:
            return True
        if threshold > best_hi:
            return False
        if best_hi - best_lo <= 1e-15 * max(1.0, abs(best_hi)):
            # unresolvable at float precision, measure-zero event
            return threshold <= 0.5 * (best_lo + best_hi)
        k += 1
    raise ConvergenceError("acceptance sandwich did not separate")


def _accept_hit_density(threshold: float, z: float, t: float) -> bool:
    """threshold <= f(t | z), with the k=1 bounds inlined (decides almost always)."""
    if t <= _T_CROSS:
        inv2t = 0.5 / t
        pref = 1.0 / math.sqrt(6.283185307179586 * t * t * t)
        d0 = 1.0 - z
        d1 = 1.0 + z
        d2 = 3.0 - z
        s1 = (d0 * math.exp(-d0 * d0 * inv2t) - d1 * math.exp(-d1 * d1 * inv2t)) * pref
        if threshold <= s1:
            return True
        hi = s1 + d2 * math.exp(-d2 * d2 * inv2t) * pref
        if threshold > hi:
            return False
    else:
        a = _HALF_PI2 * t
        s1 = math.pi * math.sin(math.pi * z) * math.exp(-a)
        r = math.exp(-4.0 * a)
        tail = 6.283185307179586 * r / ((1.0 - r) * (1.0 - r))
        if threshold <= s1 - tail:
            return True
        if threshold > s1 + tail:
            return False
    return _sandwich_accept(threshold, lambda k: _hit_density_bounds(z, t, k), 2)


def _accept_kernel(threshold: float, z: float, y: float, t: float) -> bool:
    """threshold <= q_t(z, y), with the k=1 bounds inlined."""
    if t < _T_CROSS:
        inv2t = 0.5 / t
        pref = 1.0 / math.sqrt(6.283185307179586 * t)
        ymz = y - z
        ypz = y + z
        s = (
            math.exp(-ymz * ymz * inv2t)
            - math.exp(-ypz * ypz * inv2t)
            + math.exp(-(ymz + 2.0) * (ymz + 2.0) * inv2t)
            - math.exp(-(ypz + 2.0) * (ypz + 2.0) * inv2t)
            + math.exp(-(ymz - 2.0) * (ymz - 2.0) * inv2t)
            - math.exp(-(ypz - 2.0) * (ypz - 2.0) * inv2t)
        ) * pref
        tail = 4.0 * pref * math.exp(-4.0 * inv2t) / (1.0 - math.exp(-6.0 / t))
        if threshold <= s - tail:
            return True
        if threshold > s + tail:
            return False
    else:
        a = _HALF_PI2 * t
        s = 2.0 * math.sin(math.pi * z) * math.sin(math.pi * y) * math.exp(-a)
        tail = 2.0 * math.exp(-4.0 * a) / (1.0 - math.exp(-4.0 * a))
        if threshold <= s - tail:
            return True
        if threshold > s + tail:
            return False
    return _sandwich_accept(threshold, lambda k: _kernel_bounds(z, y, t, k), 2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _sample_normal_tail(rng: RandomStream, c: float) -> float:
    """|N(0,1)| conditioned on being >= c (c >= 0)."""
    if c < 1.2:
        while True:
            v = abs(rng.normal())
            if v >= c:
                return v
    # Rayleigh-tail proposal with accept probability c / y
    while True:
        y = math.sqrt(c * c + 2.0 * rng.exponential(1.0))
        if rng.uniform() * y <= c:
            return y


# _exit_bm_norm alternates between z and 1 - z, and a rectangle restarts from
# the same z, so a few entries catch most repeats
@lru_cache(maxsize=8)
def _hit_envelope(z: float) -> tuple[float, float, float, float]:
    """(c_env, mass_head, total mass, normal truncation point) of the envelope at z."""
    d0 = 1.0 - z
    c_env = math.sin(math.pi * z) + _TAIL_ENV_SLACK
    mass_head = math.erfc(d0 / math.sqrt(2.0 * _T_HEAD))
    total = mass_head + (2.0 * c_env / math.pi) * math.exp(-_HALF_PI2 * _T_HEAD)
    return c_env, mass_head, total, d0 / math.sqrt(_T_HEAD)


def _sample_hit_time(rng: RandomStream, z: float) -> float:
    """Time to hit the upper endpoint, given the walk exits there, from z.

    Proposal envelope: the leading image term (the one-barrier hitting-time
    density of the distance d0 = 1 - z) restricted to t <= _T_HEAD, plus an
    exponential tail of rate pi^2/2 scaled by sin(pi z) + slack, which
    dominates the spectral series for t >= _T_HEAD.
    """
    d0 = 1.0 - z
    c_env, mass_head, total, trunc = _hit_envelope(z)
    pref = 0.3989422804014327  # 1/sqrt(2 pi)
    while True:
        if rng.uniform() * total < mass_head:
            v = _sample_normal_tail(rng, trunc)
            t = d0 * d0 / (v * v)
            if t <= 0.0:
                continue
            env = d0 * math.exp(-d0 * d0 / (2.0 * t)) * pref / math.sqrt(t * t * t)
        else:
            t = _T_HEAD + rng.exponential(_HALF_PI2)
            env = math.pi * c_env * math.exp(-_HALF_PI2 * t)
        threshold = rng.uniform() * env
        if _accept_hit_density(threshold, z, t):
            return t


def _exit_bm_norm(rng: RandomStream, z: float) -> tuple[float, bool]:
    """(normalised exit time, exited at the upper endpoint) from z in (0, 1)."""
    if rng.uniform() < z:
        return _sample_hit_time(rng, z), True
    return _sample_hit_time(rng, 1.0 - z), False


def exit_bm(rng: RandomStream, x: float, l: float, u: float) -> BmExitSample:
    """Exit time and side of standard Brownian motion from (l, u) started at x.

    The side is Bernoulli((x-l)/(u-l)); the side-conditional time is drawn by
    rejection from the two-piece envelope with sandwich evaluation of the
    hitting density, so the pair is exact.
    """
    if not (l < x < u):
        raise ValueError(f"need l < x < u, got l={l!r}, x={x!r}, u={u!r}")
    w = u - l
    t, upper = _exit_bm_norm(rng, (x - l) / w)
    if upper:
        return BmExitSample(time=t * w * w, side="upper", location=u)
    return BmExitSample(time=t * w * w, side="lower", location=l)


def _cond_bm_norm(rng: RandomStream, z: float, tn: float) -> float:
    """Normalised conditioned position in (0, 1); tn is time over squared width."""
    if tn >= _T_CROSS:
        a = _HALF_PI2 * tn
        sup_q = 2.0 * math.sin(math.pi * z) * math.exp(-a) + 2.0 * math.exp(-4.0 * a) / (
            1.0 - math.exp(-4.0 * a)
        )
        # sup_q bounds the kernel, and with it the survival probability, from above
        if sup_q < 1e-300:
            raise DegenerateInputError(f"survival probability underflow at normalised t={tn!r}")
        for _ in range(_MAX_PROPOSALS):
            y = rng.uniform()
            threshold = rng.uniform() * sup_q
            if _accept_kernel(threshold, z, y, tn):
                return y
        raise ConvergenceError("conditioned-position sampler stalled (spectral regime)")

    s = math.sqrt(tn)
    inv2t = 0.5 / tn
    pref = 1.0 / math.sqrt(6.283185307179586 * tn)
    for _ in range(_MAX_PROPOSALS):
        y = z + s * rng.normal()
        if not 0.0 < y < 1.0:
            continue
        d = y - z
        threshold = rng.uniform() * pref * math.exp(-d * d * inv2t)
        if _accept_kernel(threshold, z, y, tn):
            return y
    raise ConvergenceError("conditioned-position sampler stalled (image regime)")


def cond_bm(rng: RandomStream, x: float, l: float, u: float, t: float) -> float:
    """Brownian position at time t started at x, conditioned on no exit from (l, u).

    Rejection proposals match the kernel's dominant shape in each regime: a
    uniform draw under a rigorous kernel sup bound for t >= (u-l)^2/pi, a
    truncated Gaussian centred at x otherwise; acceptance is decided by the
    kernel sandwich, never by a truncated-sum approximation.
    """
    if not (l < x < u):
        raise ValueError(f"need l < x < u, got l={l!r}, x={x!r}, u={u!r}")
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t!r}")
    w = u - l
    while True:
        y = _cond_bm_norm(rng, (x - l) / w, t / (w * w))
        out = l + y * w
        if l < out < u:
            return out


# ---------------------------------------------------------------------------
# deterministic evaluations (validation oracles and test tooling)
# ---------------------------------------------------------------------------


def absorbing_kernel(
    x: float, y: float, l: float, u: float, t: float, tolerance: float = 1e-12
) -> KernelEvaluation:
    """Sandwich bounds on the absorbing heat kernel q_t(x, y) on (l, u)."""
    if not (l < x < u and l < y < u):
        raise ValueError("x and y must lie strictly inside (l, u)")
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t!r}")
    w = u - l
    z = (x - l) / w
    yn = (y - l) / w
    tn = t / (w * w)
    lo, hi, k = _resolve(lambda kk: _kernel_bounds(z, yn, tn, kk), tolerance * w)
    return KernelEvaluation(lower_bound=lo / w, upper_bound=hi / w, terms_used=k)


def exit_time_cdf(x: float, l: float, u: float, t: float) -> float:
    """P(exit from (l, u) by time t) for Brownian motion from x, to 1e-10 absolute."""
    if not (l < x < u):
        raise ValueError(f"need l < x < u, got l={l!r}, x={x!r}, u={u!r}")
    if t < 0.0:
        raise ValueError(f"need t >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    z = (x - l) / (u - l)
    tn = t / ((u - l) * (u - l))
    lo, hi, _ = _resolve(lambda k: _survival_bounds(z, tn, k), 1e-10)
    return min(max(1.0 - 0.5 * (lo + hi), 0.0), 1.0)


def hit_cdf(x: float, l: float, u: float, t: float, side: str) -> float:
    """Sub-CDF P(tau <= t and exit at ``side``), to 1e-12 absolute."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if not (l < x < u):
        raise ValueError(f"need l < x < u, got l={l!r}, x={x!r}, u={u!r}")
    if t < 0.0:
        raise ValueError(f"need t >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    z = (x - l) / (u - l)
    if side == "lower":
        z = 1.0 - z
    tn = t / ((u - l) * (u - l))
    lo, hi, _ = _resolve(lambda k: _hit_cdf_bounds(z, tn, k), 1e-12)
    return 0.5 * (lo + hi)
