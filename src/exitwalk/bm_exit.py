"""Exact sampling primitives for standard Brownian motion on an interval.

Everything is computed on the normalised interval (0, 1) (Brownian scaling:
positions map affinely, times by the squared width) from two classical series
for the heat kernel with absorption at both endpoints:

* image (reflection) series, sharp for small ``t``:
      q_t(z, y) = sum_k  phi_t(y - z + 2k) - phi_t(y + z + 2k)
* spectral (sine) series, sharp for large ``t``:
      q_t(z, y) = sum_n  2 sin(n pi z) sin(n pi y) exp(-n^2 pi^2 t / 2)

The hitting problem has one coordinate: d, the normalised distance from the
start to the endpoint being hit.  The density of hitting it at time t
(before the other endpoint) has matching twins,

      f(t | d) = (2 pi t^3)^(-1/2) sum_j (-1)^j d_j exp(-d_j^2 / (2t)),
                 d_j = j + d for even j,  j + 1 - d for odd j  (d, 2 - d, 2 + d, ...),
      f(t | d) = pi sum_n n sin(n pi d) exp(-n^2 pi^2 t / 2),

and every accept/reject decision is taken against rigorous lower/upper
partial-sum bounds of these series, so no series is ever summed to
completion and no decision is ever approximate.  The crossover between the
twins sits at the theta-duality point t = (u-l)^2 / pi.  Hitting densities
are compared times sqrt(2 pi t^3), so the image series carries no prefactor
and no power of a tiny t is ever formed.  Each caller computes d from the
raw position, (x - l)/(u - l) or (u - x)/(u - l), never as one minus the
other distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DegenerateInputError
from .rng import RandomStream

_T_CROSS = 1.0 / math.pi  # series crossover, normalised time
_T_HEAD = 0.5  # head/tail split of the exit-time proposal envelope
_HALF_PI2 = 0.5 * math.pi * math.pi
# f(t | d) sqrt(2 pi t^3) = _PI_SQRT_2PI t^1.5 sum_n n sin(n pi d) exp(-n^2 pi^2 t / 2)
_PI_SQRT_2PI = math.pi * math.sqrt(2.0 * math.pi)
# sum_{n>=2} n exp(-n^2 a) <= 2 exp(-4a) / (1 - exp(-4a))^2, so for t >= _T_HEAD
# the n>=2 spectral terms are below _TAIL_ENV_SLACK * exp(-pi^2 t / 2)
_TAIL_ENV_SLACK = 1.25e-3
_MAX_TERMS = 10**6
# cap on the proposals of one rejection loop (on the rounds of a lane loop); a
# scalar loop counts down from it, which costs less than a range() per call
_MAX_PROPOSALS = 10**7
# absolute rounding allowance, over pref, of the two- and six-term image sums of q
_SUM_ROUNDING = 1e-14
# a lane rejection loop hands its last few lanes to the scalar sampler
_FEW_LANES = 16
_TAIL_TRIES = 4  # normal-tail candidates per lane and pass
_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class BmExitSample:
    time: float
    side: str  # "lower" | "upper"
    location: float


def _phi(w: float, t: float) -> float:
    return math.exp(-w * w / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sandwich bounds, normalised coordinates
# ---------------------------------------------------------------------------


def _image_distance(j: int, d: float) -> float:
    """d_j of the image series: d, 2 - d, 2 + d, 4 - d, ..."""
    return j + d if j % 2 == 0 else j + 1 - d


def _hit_density_bounds(d: float, t: float, k: int) -> tuple[float, float]:
    """Bounds on the hitting density f(t | d) times sqrt(2 pi t^3), after k terms."""
    if t <= _T_CROSS:
        # image series: terms decrease from j = 1 on (d_1 = 2 - d > sqrt(t))
        t2 = t + t
        s = 0.0
        for j in range(k + 1):
            dj = _image_distance(j, d)
            c = dj * math.exp(-dj * dj / t2)
            s += -c if j & 1 else c
        dn = _image_distance(k + 1, d)
        cn = dn * math.exp(-dn * dn / t2)
        if k & 1:
            return max(s, 0.0), s + cn
        return max(s - cn, 0.0), s
    a = _HALF_PI2 * t
    s = 0.0
    for n in range(1, k + 1):
        s += n * math.sin(n * math.pi * d) * math.exp(-n * n * a)
    r = math.exp(-2.0 * (k + 1) * a)
    tail = (k + 1) * math.exp(-(k + 1) * (k + 1) * a) / (1.0 - r) ** 2
    scale = _PI_SQRT_2PI * t * math.sqrt(t)
    return max((s - tail) * scale, 0.0), (s + tail) * scale


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


def _hit_cdf_bounds(d: float, t: float, k: int) -> tuple[float, float]:
    """Bounds on the sub-CDF P(tau <= t, exit at the endpoint at distance d)."""
    if t <= _T_CROSS:
        rt2 = math.sqrt(2.0 * t)
        s = 0.0
        for j in range(k + 1):
            c = math.erfc(_image_distance(j, d) / rt2)
            s += -c if j & 1 else c
        cn = math.erfc(_image_distance(k + 1, d) / rt2)
        if k & 1:
            return max(s, 0.0), min(s + cn, 1.0)
        return max(s - cn, 0.0), min(s, 1.0)
    a = _HALF_PI2 * t
    s = 0.0
    for n in range(1, k + 1):
        s += (2.0 / (n * math.pi)) * math.sin(n * math.pi * d) * math.exp(-n * n * a)
    tail = (2.0 / ((k + 1) * math.pi)) * math.exp(-(k + 1) * (k + 1) * a) / (
        1.0 - math.exp(-2.0 * (k + 1) * a)
    )
    p = 1.0 - d  # the chance of exiting at this endpoint at all
    return max(p - s - tail, 0.0), min(p - s + tail, 1.0)


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


def _accept_hit_density(threshold: float, d: float, t: float) -> bool:
    """threshold <= f(t | d) sqrt(2 pi t^3), with the k=1 bounds inlined (decides almost always).

    The image terms divide by 2t rather than multiply by 1/(2t), which
    overflows for a t that a tiny d can make subnormal.
    """
    if t <= _T_CROSS:
        t2 = t + t
        d1 = 2.0 - d
        d2 = 2.0 + d
        s1 = d * math.exp(-d * d / t2) - d1 * math.exp(-d1 * d1 / t2)
        if threshold <= s1:
            return True
        if threshold > s1 + d2 * math.exp(-d2 * d2 / t2):
            return False
    else:
        a = _HALF_PI2 * t
        scale = _PI_SQRT_2PI * t * math.sqrt(t)
        s1 = scale * math.sin(math.pi * d) * math.exp(-a)
        r = math.exp(-4.0 * a)
        tail = 2.0 * scale * r / ((1.0 - r) * (1.0 - r))
        if threshold <= s1 - tail:
            return True
        if threshold > s1 + tail:
            return False
    return _sandwich_accept(threshold, lambda k: _hit_density_bounds(d, t, k), 2)


def _accept_hit_cdf(threshold: float, d: float, t: float, rt2: float, s: float) -> bool:
    """threshold <= P(tau <= t, exit at the endpoint at distance d) for t <= _T_CROSS.

    The image series alternates with decreasing terms, so its partial sums
    bracket the value: the first term bounds it from above, the first two from
    below, the first three from above again.  The caller passes rt2 =
    sqrt(2 t) and the first term s = erfc(d / rt2), having checked
    threshold <= s.  One or two more erfc calls decide almost every threshold;
    the sandwich settles the rest.
    """
    s -= math.erfc((2.0 - d) / rt2)
    if threshold <= s:
        return True
    if threshold > s + math.erfc((2.0 + d) / rt2):
        return False
    return _sandwich_accept(threshold, lambda k: _hit_cdf_bounds(d, t, k), 2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _sample_normal_tail(rng: RandomStream, c: float) -> float:
    """|N(0,1)| conditioned on being >= c (c >= 0)."""
    if c < 1.2:
        normal = rng.normal
        tries = _MAX_PROPOSALS
        while tries:
            tries -= 1
            v = abs(normal())
            if v >= c:
                return v
    else:
        # Rayleigh-tail proposal with accept probability c / y
        uniform = rng.uniform
        tries = _MAX_PROPOSALS
        while tries:
            tries -= 1
            y = math.sqrt(c * c + 2.0 * -math.log1p(-uniform()))
            if uniform() * y <= c:
                return y
    raise ConvergenceError(f"normal-tail sampler stalled at c={c!r}")


# a rectangle alternates between its two distances and restarts from the same
# pair, so a few entries catch most repeats
@lru_cache(maxsize=8)
def _hit_envelope(d: float) -> tuple[float, float, float, float]:
    """(c_env, mass_head, total mass, normal truncation point) of the envelope at distance d."""
    c_env = math.sin(math.pi * d) + _TAIL_ENV_SLACK
    mass_head = math.erfc(d / math.sqrt(2.0 * _T_HEAD))
    total = mass_head + (2.0 * c_env / math.pi) * math.exp(-_HALF_PI2 * _T_HEAD)
    return c_env, mass_head, total, d / math.sqrt(_T_HEAD)


def _sample_hit_time(rng: RandomStream, d: float, cap: float = math.inf) -> float:
    """Time to hit the endpoint at normalised distance d, given the walk exits there.

    Proposal envelope: the leading image term (the one-barrier hitting-time
    density of the distance d) restricted to t <= _T_HEAD, plus an
    exponential tail of rate pi^2/2 scaled by sin(pi d) + slack, which
    dominates the spectral series for t >= _T_HEAD.  With cap < _T_HEAD the
    time is conditioned on t <= cap: the head piece alone, its normal tail
    cut at d / sqrt(cap).  A d whose square underflows to 0 has no
    representable head proposal and raises DegenerateInputError.
    """
    dd = d * d
    if dd == 0.0:
        raise DegenerateInputError(f"hitting distance {d!r} squares to 0")
    head_only = cap < _T_HEAD
    if head_only:
        trunc = d / math.sqrt(cap)
    else:
        c_env, mass_head, total, trunc = _hit_envelope(d)
    uniform = rng.uniform
    exp = math.exp
    tries = _MAX_PROPOSALS
    while tries:
        tries -= 1
        if head_only or uniform() * total < mass_head:
            v = _sample_normal_tail(rng, trunc)
            t = dd / (v * v)
            if t <= 0.0:
                continue
            env = d * exp(-dd / (t + t))
        else:
            t = _T_HEAD + -math.log1p(-uniform()) / _HALF_PI2
            env = _PI_SQRT_2PI * t * math.sqrt(t) * c_env * exp(-_HALF_PI2 * t)
        threshold = uniform() * env
        if _accept_hit_density(threshold, d, t):
            return t
    raise ConvergenceError(f"hitting-time sampler stalled at d={d!r}")


def _exit_bm_norm(rng: RandomStream, zl: float, zu: float, cap: float = math.inf) -> tuple[float, bool]:
    """(normalised exit time, exited at the upper endpoint) from normalised
    distances zl to the lower and zu to the upper endpoint, or (inf, False)
    when the exit comes after the normalised time ``cap``.

    Below the series crossover one uniform U decides the event and the side
    before any exit time is drawn: U <= P(tau <= cap, upper) is an upper exit,
    1 - U <= P(tau <= cap, lower) a lower one, and anything else no exit by
    cap; the time then comes from the hitting-time envelope cut at cap.  From
    the crossover on, most exits come by cap anyway, so the side and the time
    are drawn as without a cap and a time past it is reported as no exit.
    """
    if 0.0 < cap < _T_CROSS:
        u = rng.uniform()
        # the first image term bounds each sub-CDF from above and turns most
        # thresholds away before _accept_hit_cdf is called
        rt2 = math.sqrt(2.0 * cap)
        head = math.erfc(zu / rt2)
        if u <= head and _accept_hit_cdf(u, zu, cap, rt2, head):
            return _sample_hit_time(rng, zu, cap), True
        head = math.erfc(zl / rt2)
        if 1.0 - u <= head and _accept_hit_cdf(1.0 - u, zl, cap, rt2, head):
            return _sample_hit_time(rng, zl, cap), False
        return math.inf, False
    if rng.uniform() < zl:
        t, upper = _sample_hit_time(rng, zu), True
    else:
        t, upper = _sample_hit_time(rng, zl), False
    if t > cap:
        return math.inf, False
    return t, upper


def exit_bm(rng: RandomStream, x: float, l: float, u: float) -> BmExitSample:
    """Exit time and side of standard Brownian motion from (l, u) started at x.

    The side is Bernoulli((x-l)/(u-l)); the side-conditional time is drawn by
    rejection from the two-piece envelope with sandwich evaluation of the
    hitting density, so the pair is exact.
    """
    if not (l < x < u):
        raise ValueError(f"need l < x < u, got l={l!r}, x={x!r}, u={u!r}")
    w = u - l
    t, upper = _exit_bm_norm(rng, (x - l) / w, (u - x) / w)
    if upper:
        return BmExitSample(time=t * w * w, side="upper", location=u)
    return BmExitSample(time=t * w * w, side="lower", location=l)


def _cond_bm_norm(rng: RandomStream, z: float, tn: float) -> float:
    """Normalised conditioned position in (0, 1); tn is time over squared width.

    Each proposal y is accepted when its threshold is at most q_tn(z, y),
    decided by the k=1 bounds of _kernel_bounds, inlined with their
    tn-only parts computed once per call, and by the sandwich when those
    leave it open.  In the image regime a two-term squeeze decides most
    proposals before the k=1 bounds are computed.
    """
    uniform = rng.uniform
    exp = math.exp
    if tn >= _T_CROSS:
        a = _HALF_PI2 * tn
        two_sin_z = 2.0 * math.sin(math.pi * z)
        ea = exp(-a)
        tail = 2.0 * exp(-4.0 * a) / (1.0 - exp(-4.0 * a))
        sup_q = two_sin_z * ea + tail
        # sup_q bounds the kernel, and with it the survival probability, from above
        if sup_q < 1e-300:
            raise DegenerateInputError(f"survival probability underflow at normalised t={tn!r}")
        tries = _MAX_PROPOSALS
        while tries:
            tries -= 1
            y = uniform()
            threshold = uniform() * sup_q
            q = two_sin_z * math.sin(math.pi * y) * ea
            if threshold <= q - tail:
                return y
            if threshold > q + tail:
                continue
            if _sandwich_accept(threshold, lambda k: _kernel_bounds(z, y, tn, k), 2):
                return y
        raise ConvergenceError("conditioned-position sampler stalled (spectral regime)")

    s = math.sqrt(tn)
    inv2t = 0.5 / tn
    pref = 1.0 / math.sqrt(6.283185307179586 * tn)
    e4 = exp(-4.0 * inv2t)
    tail = 4.0 * pref * e4 / (1.0 - exp(-6.0 / tn))
    # Squeeze: with d = y - z in (-1, 1) and y + z in (0, 2), the k=1 sum is
    # lead - near + (e(d + 2) + e(d - 2)) - (e(y + z + 2) + far), where e(v) =
    # exp(-v^2 inv2t), lead = e(d), near = e(m) for the smaller in size of
    # m = y + z and y + z - 2, and far = e of the other.  In each bracket one
    # argument has size at least 1 and the other at least 2, so each bracket
    # lies in [0, exp(-inv2t) + e4], and q lies within pref times that of
    # pref (lead - near).  The band adds tail and the rounding of either sum,
    # so a threshold outside it is decided as the k=1 bounds decide it.
    band = pref * (exp(-inv2t) + e4 + _SUM_ROUNDING) + tail
    normal = rng.normal
    tries = _MAX_PROPOSALS
    while tries:
        tries -= 1
        y = z + s * normal()
        if not 0.0 < y < 1.0:
            continue
        d = y - z
        lead = exp(-d * d * inv2t)  # the proposal density's shape and the kernel's j=0 term
        threshold = uniform() * pref * lead
        ypz = y + z
        m = ypz if ypz <= 1.0 else ypz - 2.0
        q = (lead - exp(-m * m * inv2t)) * pref
        if threshold <= q - band:
            return y
        if threshold > q + band:
            continue
        q = (
            lead
            - exp(-ypz * ypz * inv2t)
            + exp(-(d + 2.0) * (d + 2.0) * inv2t)
            - exp(-(ypz + 2.0) * (ypz + 2.0) * inv2t)
            + exp(-(d - 2.0) * (d - 2.0) * inv2t)
            - exp(-(ypz - 2.0) * (ypz - 2.0) * inv2t)
        ) * pref
        if threshold <= q - tail:
            return y
        if threshold > q + tail:
            continue
        if _sandwich_accept(threshold, lambda k: _kernel_bounds(z, y, tn, k), 2):
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
# lane samplers: struct-of-arrays twins of the samplers above, same laws.
# Their callers silence numpy's float warnings: a bound that overflows to inf
# or nan only leaves its lane to the scalar sandwich or rejects a proposal.
# ---------------------------------------------------------------------------


def _by_regime(image, image_fn, spectral_fn, *arrays):
    """(lo, hi) from image_fn where ``image`` holds and from spectral_fn elsewhere."""
    if image.all():
        return image_fn(*arrays)
    if not image.any():
        return spectral_fn(*arrays)
    (ilo, ihi), (slo, shi) = image_fn(*arrays), spectral_fn(*arrays)
    return np.where(image, ilo, slo), np.where(image, ihi, shi)


def _hit_density_k1_image(d, t):
    t2 = t + t
    d1 = 2.0 - d
    d2 = 2.0 + d
    s1 = d * np.exp(-d * d / t2) - d1 * np.exp(-d1 * d1 / t2)
    return s1, s1 + d2 * np.exp(-d2 * d2 / t2)


def _hit_density_k1_spectral(d, t):
    a = _HALF_PI2 * t
    scale = _PI_SQRT_2PI * t * np.sqrt(t)
    s1 = scale * np.sin(math.pi * d) * np.exp(-a)
    r = np.exp(-4.0 * a)
    tail = 2.0 * scale * r / ((1.0 - r) * (1.0 - r))
    return s1 - tail, s1 + tail


def _hit_density_k1(d, t):
    """The k=1 bounds of _accept_hit_density, lane by lane."""
    return _by_regime(t <= _T_CROSS, _hit_density_k1_image, _hit_density_k1_spectral, d, t)


def _kernel_k1_image(z, y, t):
    inv2t = 0.5 / t
    pref = 1.0 / np.sqrt(6.283185307179586 * t)
    ymz = y - z
    ypz = y + z
    s = (
        np.exp(-ymz * ymz * inv2t)
        - np.exp(-ypz * ypz * inv2t)
        + np.exp(-(ymz + 2.0) * (ymz + 2.0) * inv2t)
        - np.exp(-(ypz + 2.0) * (ypz + 2.0) * inv2t)
        + np.exp(-(ymz - 2.0) * (ymz - 2.0) * inv2t)
        - np.exp(-(ypz - 2.0) * (ypz - 2.0) * inv2t)
    ) * pref
    tail = 4.0 * pref * np.exp(-4.0 * inv2t) / (1.0 - np.exp(-6.0 / t))
    return s - tail, s + tail


def _kernel_k1_spectral(z, y, t):
    a = _HALF_PI2 * t
    s = 2.0 * np.sin(math.pi * z) * np.sin(math.pi * y) * np.exp(-a)
    tail = 2.0 * np.exp(-4.0 * a) / (1.0 - np.exp(-4.0 * a))
    return s - tail, s + tail


def _kernel_k1(z, y, t):
    """The k=1 kernel bounds of _cond_bm_norm, lane by lane."""
    return _by_regime(t < _T_CROSS, _kernel_k1_image, _kernel_k1_spectral, z, y, t)


def _decide(threshold, bounds, bound_fn, *args):
    """Lanes with threshold <= series value; the scalar sandwich settles what the k=1 bounds leave open."""
    lo, hi = bounds
    accept = threshold <= lo
    for k in (~accept & (threshold <= hi)).nonzero()[0].tolist():
        lane = [float(a[k]) for a in args]
        accept[k] = _sandwich_accept(float(threshold[k]), lambda kk: bound_fn(*lane, kk), 2)
    return accept


def _rejection_lanes(n: int, propose, finish, cap: float = math.inf, what: str = ""):
    """Masked rejection loop over n lanes, compacting the lanes still open.

    ``propose(idx)`` returns (accepted, values) for the open lanes ``idx``;
    once at most _FEW_LANES remain, ``finish(k)`` samples lane k with the
    scalar sampler.  Past ``cap`` rounds the loop raises ConvergenceError.
    """
    out = np.empty(n)
    idx = np.arange(n)
    rounds = 0
    while len(idx) > _FEW_LANES:
        rounds += 1
        if rounds > cap:
            raise ConvergenceError(f"{what} sampler stalled")
        ok, values = propose(idx)
        out[idx[ok]] = values[ok]
        idx = idx[~ok]
    for k in idx.tolist():
        out[k] = finish(k)
    return out


def _first_accepted(ok, values):
    """Per row, (any candidate accepted, the first accepted one): sequential rejection over the row."""
    first = ok.argmax(axis=1)
    rows = np.arange(len(ok))
    return ok[rows, first], values[rows, first]


def _normal_tail_lanes(rng: RandomStream, c):
    """Lane twin of _sample_normal_tail: |N(0,1)| conditioned on >= c[k].

    Each pass draws _TAIL_TRIES candidates per open lane and keeps the first
    that passes, which is the scalar rejection loop run _TAIL_TRIES times.
    """
    out = np.empty(len(c))
    small = c < 1.2
    plain = small.nonzero()[0]
    cp = c[plain]

    def propose_plain(idx):
        v = np.abs(rng.normals(len(idx) * _TAIL_TRIES)).reshape(len(idx), _TAIL_TRIES)
        return _first_accepted(v >= cp[idx, None], v)

    out[plain] = _rejection_lanes(len(plain), propose_plain, lambda k: _sample_normal_tail(rng, float(cp[k])))
    rayleigh = (~small).nonzero()[0]
    cr = c[rayleigh]

    def propose_rayleigh(idx):
        cc = cr[idx, None]
        shape = (len(idx), _TAIL_TRIES)
        y = np.sqrt(cc * cc + 2.0 * -np.log1p(-rng.uniforms(shape[0] * shape[1]).reshape(shape)))
        return _first_accepted(rng.uniforms(shape[0] * shape[1]).reshape(shape) * y <= cc, y)

    out[rayleigh] = _rejection_lanes(
        len(rayleigh), propose_rayleigh, lambda k: _sample_normal_tail(rng, float(cr[k]))
    )
    return out


def _sample_hit_time_lanes(rng: RandomStream, d):
    """Lane twin of _sample_hit_time, with the same two-piece envelope."""
    dd = d * d
    if not dd.all():
        raise DegenerateInputError(f"hitting distance {float(d[dd == 0.0][0])!r} squares to 0")
    c_env = np.sin(math.pi * d) + _TAIL_ENV_SLACK
    mass_head = _erfc(d / math.sqrt(2.0 * _T_HEAD)).astype(float)
    total = mass_head + (2.0 * c_env / math.pi) * math.exp(-_HALF_PI2 * _T_HEAD)
    trunc = d / math.sqrt(_T_HEAD)

    def propose(idx):
        m = len(idx)
        t = np.empty(m)
        env = np.empty(m)
        head = rng.uniforms(m) * total[idx] < mass_head[idx]
        h = head.nonzero()[0]
        dh = d[idx[h]]
        ddh = dd[idx[h]]
        v = _normal_tail_lanes(rng, trunc[idx[h]])
        th = ddh / (v * v)
        t[h] = th
        # a head proposal that underflows to t = 0 gets a nan envelope, and a
        # nan threshold fails every comparison, so the lane just proposes again
        env[h] = np.where(th > 0.0, dh * np.exp(-ddh / (th + th)), np.nan)
        g = (~head).nonzero()[0]
        tg = _T_HEAD + -np.log1p(-rng.uniforms(len(g))) / _HALF_PI2
        t[g] = tg
        env[g] = _PI_SQRT_2PI * tg * np.sqrt(tg) * c_env[idx[g]] * np.exp(-_HALF_PI2 * tg)
        threshold = rng.uniforms(m) * env
        di = d[idx]
        return _decide(threshold, _hit_density_k1(di, t), _hit_density_bounds, di, t), t

    return _rejection_lanes(
        len(d), propose, lambda k: _sample_hit_time(rng, float(d[k])), _MAX_PROPOSALS, "hitting-time"
    )


def _exit_bm_norm_lanes(rng: RandomStream, zl, zu):
    """Lane twin of _exit_bm_norm: (normalised exit times, exited at the upper endpoint)."""
    upper = rng.uniforms(len(zl)) < zl
    return _sample_hit_time_lanes(rng, np.where(upper, zu, zl)), upper


def _cond_bm_norm_lanes(rng: RandomStream, z, tn):
    """Lane twin of _cond_bm_norm: normalised conditioned positions in (0, 1)."""
    out = np.empty(len(z))
    spectral = tn >= _T_CROSS
    sp = spectral.nonzero()[0]
    if len(sp):
        zs = z[sp]
        ts = tn[sp]
        a = _HALF_PI2 * ts
        sup_q = 2.0 * np.sin(math.pi * zs) * np.exp(-a) + 2.0 * np.exp(-4.0 * a) / (1.0 - np.exp(-4.0 * a))
        low = (sup_q < 1e-300).nonzero()[0]
        if len(low):
            raise DegenerateInputError(f"survival probability underflow at normalised t={ts[low[0]]!r}")

        def propose_spectral(idx):
            y = rng.uniforms(len(idx))
            threshold = rng.uniforms(len(idx)) * sup_q[idx]
            zi, ti = zs[idx], ts[idx]
            return _decide(threshold, _kernel_k1(zi, y, ti), _kernel_bounds, zi, y, ti), y

        out[sp] = _rejection_lanes(
            len(sp), propose_spectral, lambda k: _cond_bm_norm(rng, float(zs[k]), float(ts[k])),
            _MAX_PROPOSALS, "conditioned-position (spectral regime)",
        )
    im = (~spectral).nonzero()[0]
    if len(im):
        zm = z[im]
        tm = tn[im]
        sd = np.sqrt(tm)
        inv2t = 0.5 / tm
        pref = 1.0 / np.sqrt(6.283185307179586 * tm)

        def propose_image(idx):
            zi = zm[idx]
            ti = tm[idx]
            y = zi + sd[idx] * rng.normals(len(idx))
            d = y - zi
            threshold = rng.uniforms(len(idx)) * pref[idx] * np.exp(-d * d * inv2t[idx])
            # a nan threshold fails every comparison: proposals outside (0, 1) are rejected
            threshold[(y <= 0.0) | (y >= 1.0)] = np.nan
            return _decide(threshold, _kernel_k1(zi, y, ti), _kernel_bounds, zi, y, ti), y

        out[im] = _rejection_lanes(
            len(im), propose_image, lambda k: _cond_bm_norm(rng, float(zm[k]), float(tm[k])),
            _MAX_PROPOSALS, "conditioned-position (image regime)",
        )
    return out


# ---------------------------------------------------------------------------
# deterministic evaluations (validation oracles)
# ---------------------------------------------------------------------------


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
    d = ((u - x) if side == "upper" else (x - l)) / (u - l)
    tn = t / ((u - l) * (u - l))
    lo, hi, _ = _resolve(lambda k: _hit_cdf_bounds(d, tn, k), 1e-12)
    return 0.5 * (lo + hi)
