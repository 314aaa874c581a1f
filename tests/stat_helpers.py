"""Statistics and evaluations behind the assertions of the test suite.

Kolmogorov-Smirnov distances with asymptotic p-values, an exact-variance
binomial z-score and a Pearson chi-square test; ``corrupt_gamma``, the fault
injection that checks a biased thinning test is caught; ``inflate``, the
conservative bounds that must change work but not the law;
``absorbing_kernel``, sandwich bounds on the Brownian kernel that the
conditioned-position tests integrate against; and ``assert_same_exit_law``,
the two-sample comparison of exit records that every faster path must pass.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from exitwalk import DiffusionModel, IntervalBounds, WorkCounter, compute_bounds
from exitwalk.bm_exit import _kernel_bounds, _resolve


def inflate(bounds: IntervalBounds, factor: float = 2.0) -> IntervalBounds:
    """Conservative variant: the sup of beta and gamma_range scaled, gamma_inf kept."""
    if factor < 1.0:
        raise ValueError("inflation factor must be >= 1")
    return IntervalBounds(
        gamma_inf=bounds.gamma_inf,
        gamma_range=factor * bounds.gamma_range,
        log_beta_sup=bounds.log_beta_sup + math.log(factor),
    )


@dataclass(frozen=True)
class KernelEvaluation:
    lower_bound: float
    upper_bound: float
    terms_used: int


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


def corrupt_gamma(model: DiffusionModel, shift: float) -> DiffusionModel:
    """``model`` with gamma raised by ``shift`` everywhere, its bounds left those of ``model``.

    Only the thinning test sees the corruption: mu0' grows by 2*shift, and
    both bounds hooks return the true model's ``compute_bounds`` values, the
    sup of gamma as the sampler reads it, gamma_inf + gamma_range.
    """
    true_bounds = functools.lru_cache(maxsize=None)(lambda l, u: compute_bounds(model, l, u))

    def gamma_extrema(l, u):
        b = true_bounds(l, u)
        return b.gamma_inf, b.gamma_inf + b.gamma_range

    return dataclasses.replace(
        model,
        mu0_prime=lambda y: model.mu0_prime(y) + 2.0 * shift,
        gamma_extrema=gamma_extrema,
        log_beta_max=lambda l, u: true_bounds(l, u).log_beta_sup,
    )


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic survival function of the Kolmogorov statistic."""
    if lam <= 0.0:
        return 1.0
    s = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        s += term if k % 2 == 1 else -term
        if term < 1e-18:
            break
    return min(max(2.0 * s, 0.0), 1.0)


def ks_2sample(sample_a, sample_b) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value (with the small-sample factor)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        raise ValueError("samples must be nonempty")
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / na
    cdf_b = np.searchsorted(b, allv, side="right") / nb
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    en = math.sqrt(na * nb / (na + nb))
    return d, kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def ks_1sample(sample, cdf) -> tuple[float, float]:
    """One-sample KS distance to a CDF callable, with asymptotic p-value."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("sample must be nonempty")
    f = np.array([cdf(v) for v in xs])
    lo = np.max(np.abs(f - np.arange(0, n) / n))
    hi = np.max(np.abs(f - np.arange(1, n + 1) / n))
    d = float(max(lo, hi))
    en = math.sqrt(n)
    return d, kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample critical distance sqrt(-ln(alpha/2)/2) / sqrt(n)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def binomial_z(successes: int, n: int, p0: float) -> float:
    """Exact-variance z-score of a success count against probability p0."""
    if n <= 0:
        raise ValueError("need n > 0")
    var = p0 * (1.0 - p0)
    if var == 0.0:
        return 0.0 if successes == round(n * p0) else math.inf
    return (successes / n - p0) / math.sqrt(var / n)


def _regularized_gamma_q(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x)/Gamma(s) by lower series / Lentz continued fraction."""
    if x < 0.0 or s <= 0.0:
        raise ValueError("need x >= 0 and s > 0")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        term = 1.0 / s
        total = term
        k = s
        for _ in range(10_000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-x + s * math.log(x) - math.lgamma(s))
        return min(max(1.0 - p, 0.0), 1.0)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = f * math.exp(-x + s * math.log(x) - math.lgamma(s))
    return min(max(q, 0.0), 1.0)


def chi_square_test(observed, probs) -> tuple[float, float]:
    """Pearson chi-square of observed counts against cell probabilities.

    A cell of probability 0 is a structural zero: it must hold no count, or
    the law is rejected outright (p = 0.0), and it adds nothing to the
    statistic or to the degrees of freedom.
    """
    obs = np.asarray(observed, dtype=float)
    p = np.asarray(probs, dtype=float)
    if obs.shape != p.shape or obs.ndim != 1:
        raise ValueError("observed and probs must be 1-d and matched")
    if np.any(p < 0.0):
        raise ValueError("cell probabilities must be nonnegative")
    support = p > 0.0
    if np.any(obs[~support] != 0.0):
        return math.inf, 0.0
    obs, p = obs[support], p[support]
    n = obs.sum()
    exp = n * p
    if np.any(exp <= 0.0):
        raise ValueError("all expected counts must be positive")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    return stat, _regularized_gamma_q(dof / 2.0, stat / 2.0)


def assert_same_exit_law(batch, scalar, b: float, label) -> None:
    """Two samples of ExitRecords share a law: exit time, exit location and every work count.

    A two-sample KS test on exit time (p > 0.01), a two-proportion z-test
    on exits at ``b`` (|z| <= 3) and each ``WorkCounter`` field's mean within
    4 standard errors.
    """
    _, p = ks_2sample([r.exit_time for r in batch], [r.exit_time for r in scalar])
    assert p > 0.01, (label, p)
    n1, n2 = len(batch), len(scalar)
    k1 = sum(r.exit_location == b for r in batch)
    k2 = sum(r.exit_location == b for r in scalar)
    pooled = (k1 + k2) / (n1 + n2)
    if 0.0 < pooled < 1.0:
        z = (k1 / n1 - k2 / n2) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
        assert abs(z) <= 3.0, (label, z)
    else:  # every walk of both samples left through the same endpoint
        assert k1 / n1 == k2 / n2
    for field in dataclasses.fields(WorkCounter):
        w1 = np.array([getattr(r.work, field.name) for r in batch], dtype=float)
        w2 = np.array([getattr(r.work, field.name) for r in scalar], dtype=float)
        se = math.sqrt(w1.var(ddof=1) / n1 + w2.var(ddof=1) / n2)
        assert abs(w1.mean() - w2.mean()) <= 4.0 * se, (label, field.name, w1.mean(), w2.mean(), se)
