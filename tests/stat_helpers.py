"""Statistics behind the distributional assertions of the test suite.

Kolmogorov-Smirnov distances with asymptotic p-values, an exact-variance
binomial z-score and a Pearson chi-square test, plus ``corrupt_gamma``, the
fault injection that checks a biased thinning test is caught.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from exitwalk import DiffusionModel, compute_bounds


def corrupt_gamma(model: DiffusionModel, shift: float) -> DiffusionModel:
    """``model`` with gamma raised by ``shift`` everywhere, its bounds left those of ``model``.

    Only the thinning test sees the corruption: mu0' grows by 2*shift, and
    both bounds hooks return the true model's ``compute_bounds`` values.
    """
    true_bounds = functools.lru_cache(maxsize=None)(lambda l, u: compute_bounds(model, l, u))
    return dataclasses.replace(
        model,
        mu0_prime=lambda y: model.mu0_prime(y) + 2.0 * shift,
        gamma_extrema=lambda l, u: (true_bounds(l, u).gamma_inf, true_bounds(l, u).gamma_sup),
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
    """Pearson chi-square of observed counts against cell probabilities."""
    obs = np.asarray(observed, dtype=float)
    p = np.asarray(probs, dtype=float)
    if obs.shape != p.shape or obs.ndim != 1:
        raise ValueError("observed and probs must be 1-d and matched")
    n = obs.sum()
    exp = n * p
    if np.any(exp <= 0.0):
        raise ValueError("all expected counts must be positive")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    return stat, _regularized_gamma_q(dof / 2.0, stat / 2.0)
