"""Diffusion models, the unit-diffusion change of variables, and interval bounds.

A model bundles the original SDE coefficients (drift ``mu``, diffusion
``sigma``) together with the drift ``mu0`` of the transformed unit-diffusion
process, its derivative, its antiderivative, and the monotone change of
variables that links the two coordinate systems.  All samplers operate on the
transformed process; an exit lands on a transformed endpoint, which stands
for the original a or b, so no position is ever mapped back.

Two scalar functions drive every acceptance test:

    log beta(x) = integral of mu0 up to x   (``mu0_antiderivative``)
    gamma(x)    = (mu0(x)^2 + mu0'(x)) / 2

plus their sup/inf over the current interval.  beta itself is never formed:
it overflows long before the acceptance tests, which work in log space,
would.  The samplers are exact only if those constants really bound the
functions they evaluate; a conservative bound only costs acceptance rate.  Every built-in model (``bm``, ``ou``,
``sin``, ``cir``) supplies closed-form extrema, taken at the endpoints and
the critical points of gamma and of the antiderivative of mu0.  ``ou``,
``sin`` and ``cir`` also pad them by a few ulps, which certifies them against
the rounding of the sampler's own evaluators (``bm``'s are exactly 0).  Only
:func:`make_model` models fall back to the heuristic grid of
:func:`compute_bounds`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import ConfigurationError, DomainError
from .quadrature import adaptive_simpson

_GRID_POINTS = 10_001
_PAD = 1e-6
_ANTIDERIVATIVE_TOL = 1e-12  # absolute, of make_model's quadrature-backed antiderivative
# Relative rounding allowance of the few-operation gamma and antiderivative
# evaluators, twice over: once at the candidate point, once at any other point.
_ROUNDING = 16 * sys.float_info.epsilon


def _identity(x: float) -> float:
    return x


def _one(x: float) -> float:
    return 1.0


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Immutable model description; safe to share across workers.

    ``domain`` is the open interval (in transformed coordinates) on which
    ``mu0`` is finite and C1.  For the built-in models it coincides with the
    original-coordinate domain.  Models compare by identity.
    """

    name: str
    drift: Callable[[float], float]
    diffusion: Callable[[float], float]
    mu0: Callable[[float], float]
    mu0_prime: Callable[[float], float]
    mu0_antiderivative: Callable[[float], float]
    lamperti: Callable[[float], float]
    domain: tuple[float, float] = (-math.inf, math.inf)
    params: tuple[tuple[str, float], ...] = ()
    # exact extrema hooks; None means grid maximisation with a safety pad
    gamma_extrema: Optional[Callable[[float, float], tuple[float, float]]] = None
    log_beta_max: Optional[Callable[[float, float], float]] = None

    @cached_property
    def gamma_fn(self) -> Callable[[float], float]:
        """gamma(y) = (mu0(y)^2 + mu0'(y))/2 without domain checks, built once per model.

        The samplers call this evaluator in their inner loops; :func:`gamma`
        adds the domain and finiteness checks on top of it.
        """
        return _gamma_evaluator(self.mu0, self.mu0_prime)


def _gamma_evaluator(mu0: Callable[[float], float], mu0p: Callable[[float], float]) -> Callable[[float], float]:
    """The one gamma expression: the samplers and both kinds of bounds evaluate it alike."""

    def gamma_fn(y: float) -> float:
        m = mu0(y)
        return 0.5 * (m * m + mu0p(y))

    return gamma_fn


@dataclass(frozen=True)
class IntervalBounds:
    """Sup/inf constants of log beta and gamma over one interval.

    ``gamma_inf`` is the inf of gamma clamped at zero (it enters the
    algorithm only through nonpositive exponents), ``gamma_range`` the sup of
    gamma less ``gamma_inf``, which is the thinning rate, and
    ``log_beta_sup`` the sup of the antiderivative of mu0.
    """

    gamma_inf: float
    gamma_range: float
    log_beta_sup: float


def _check_in_domain(model: DiffusionModel, x: float) -> None:
    lo, hi = model.domain
    if not (lo < x < hi):
        raise DomainError(f"x={x!r} outside open domain ({lo!r}, {hi!r}) of model {model.name!r}")


def gamma(model: DiffusionModel, x: float) -> float:
    """(mu0^2 + mu0')/2 at x."""
    _check_in_domain(model, x)
    v = model.gamma_fn(x)
    if not math.isfinite(v):
        raise DomainError(f"gamma not finite at x={x!r} for model {model.name!r}")
    return v


def lamperti_forward(model: DiffusionModel, x: float) -> float:
    _check_in_domain(model, x)
    y = model.lamperti(x)
    if not math.isfinite(y):
        raise DomainError(f"transform not finite at x={x!r}")
    return y


def _pad_up(v: float) -> float:
    return v + _PAD * (1.0 + abs(v))


def _pad_down(v: float) -> float:
    return v - _PAD * (1.0 + abs(v))


def compute_bounds(model: DiffusionModel, l: float, u: float) -> IntervalBounds:
    """Valid (possibly conservative) log beta/gamma constants for [l, u].

    Uses the model's closed-form extrema when present: ``bm``, ``ou``,
    ``sin`` and ``cir`` all have them, certified against rounding.  Only
    :func:`make_model` models take the heuristic path, which maximises on a
    10,001-point grid and inflates by a pad of 1e-6 * (1 + |value|).
    """
    if not l < u:
        raise ValueError(f"need l < u, got {l!r} >= {u!r}")
    lo, hi = model.domain
    if not (lo < l and u < hi):
        raise DomainError(f"[{l!r}, {u!r}] not inside open domain ({lo!r}, {hi!r})")

    if model.gamma_extrema is not None and model.log_beta_max is not None:
        g_lo, g_hi = model.gamma_extrema(l, u)
        log_bsup = model.log_beta_max(l, u)
    else:
        step = (u - l) / (_GRID_POINTS - 1)
        xs = [l + i * step for i in range(_GRID_POINTS - 1)]
        xs.append(u)
        gamma_fn = model.gamma_fn
        g_lo = math.inf
        g_hi = -math.inf
        for x in xs:
            g = gamma_fn(x)
            if g < g_lo:
                g_lo = g
            if g > g_hi:
                g_hi = g
        anti = model.mu0_antiderivative
        a_hi = max(anti(x) for x in xs)
        if not (math.isfinite(g_lo) and math.isfinite(g_hi) and math.isfinite(a_hi)):
            raise DomainError(f"non-finite gamma or antiderivative on [{l!r}, {u!r}]")
        g_lo = _pad_down(g_lo)
        g_hi = _pad_up(g_hi)
        # log of _pad_up(e^a_hi) = (1 + _PAD) e^a_hi + _PAD, as a log-sum-exp
        # that never forms e^a_hi
        p, q = a_hi + math.log1p(_PAD), math.log(_PAD)
        log_bsup = max(p, q) + math.log1p(math.exp(-abs(p - q)))

    gamma_inf = min(g_lo, 0.0)
    return IntervalBounds(gamma_inf=gamma_inf, gamma_range=g_hi - gamma_inf, log_beta_sup=log_bsup)


def check_horizon(T: float, table: Sequence[IntervalBounds]) -> None:
    """Reject T = inf unless every interval of ``table`` has gamma_inf = 0.

    With gamma_inf < 0 the exit weight exp(gamma_inf * (T - t)) vanishes as
    T grows, so an untruncated rectangle would never accept.
    """
    if math.isinf(T):
        for i, bd in enumerate(table, 1):
            if bd.gamma_inf != 0.0:
                raise ConfigurationError(
                    f"T=inf inadmissible: interval {i} of {len(table)} has gamma_inf={bd.gamma_inf!r} < 0"
                )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def brownian() -> DiffusionModel:
    """Zero drift, unit diffusion; every acceptance test collapses to a no-op."""
    zero = lambda x: 0.0
    return DiffusionModel(
        name="bm",
        drift=zero,
        diffusion=_one,
        mu0=zero,
        mu0_prime=zero,
        mu0_antiderivative=zero,
        lamperti=_identity,
        gamma_extrema=lambda l, u: (0.0, 0.0),
        log_beta_max=lambda l, u: 0.0,
    )


def _sign_change_roots(f: Callable[[float], float], lo: float, hi: float) -> list[float]:
    """Roots of f in [lo, hi] at least (hi - lo)/64 apart: a sign scan over 64
    equal pieces, then bisection until the bracket is two adjacent floats."""
    roots = []
    step = (hi - lo) / 64
    a, neg_a = lo, f(lo) < 0.0
    for i in range(1, 65):
        b = lo + i * step
        neg_b = f(b) < 0.0
        if neg_a != neg_b:
            x0, x1 = a, b
            mid = 0.5 * (x0 + x1)
            while x0 < mid < x1:
                if (f(mid) < 0.0) == neg_a:
                    x0 = mid
                else:
                    x1 = mid
                mid = 0.5 * (x0 + x1)
            roots.append(x0)
        a, neg_a = b, neg_b
    return roots


def sinusoidal_drift() -> DiffusionModel:
    """Unit diffusion with drift 2 + sin(x); gamma >= 0 everywhere, so an
    infinite horizon is admissible on any interval.

    Closed-form bounds.  The antiderivative 2x + 1 - cos x has derivative
    2 + sin x >= 1, so its maximum on [l, u] is at u.  gamma' =
    (2 + sin x) cos x - sin(x)/2 has two roots per period (about 1.40490, a
    maximum, and 4.28263, a minimum), found once to full precision; the
    extrema of gamma on [l, u] are among its values at l, at u and at each
    root whose shift by a multiple of 2 pi lies in [l, u].  A root is
    evaluated unshifted, where gamma is the same, and is counted when its
    shift lies within a small slack of [l, u] (counting an extra extremum of
    the period is only conservative).

    Each value is padded outward by ``_ROUNDING`` times the magnitude of the
    terms of its evaluator: (2 + sin)^2 + |cos| <= 10 for gamma, and
    2 max(|l|, |u|) + 2 for the antiderivative.  That covers the rounding of
    the sampler's own ``gamma_fn`` and ``mu0_antiderivative`` both at the
    candidate and at any other point of [l, u].  A root found to within
    delta moves gamma only by |gamma''| delta^2 / 2 <= 3.5 delta^2 / 2
    (gamma'' = cos 2x - 2 sin x - cos(x)/2), some 1e-30 here and far below
    the pad.  The minimum of gamma is about 0.387, so the padded gamma_inf
    still clamps to exactly 0.
    """
    mu0 = lambda x: 2.0 + math.sin(x)
    anti = lambda x: 2.0 * x + 1.0 - math.cos(x)
    g = _gamma_evaluator(mu0, math.cos)
    roots = _sign_change_roots(lambda x: (2.0 + math.sin(x)) * math.cos(x) - 0.5 * math.sin(x), 0.0, math.tau)
    critical = [g(r) for r in roots]
    g_pad = _ROUNDING * 10.0

    def gamma_extrema(l: float, u: float) -> tuple[float, float]:
        vals = [g(l), g(u)]
        slack = 1e-9 * (1.0 + abs(l) + abs(u))
        for r, gr in zip(roots, critical):
            n = math.ceil((l - slack - r) / math.tau)
            if r + n * math.tau <= u + slack:
                vals.append(gr)
        return min(vals) - g_pad, max(vals) + g_pad

    def log_beta_max(l: float, u: float) -> float:
        return anti(u) + _ROUNDING * (2.0 * max(abs(l), abs(u)) + 2.0)

    return DiffusionModel(
        name="sin",
        drift=mu0,
        diffusion=_one,
        mu0=mu0,
        mu0_prime=math.cos,
        mu0_antiderivative=anti,
        lamperti=_identity,
        gamma_extrema=gamma_extrema,
        log_beta_max=log_beta_max,
    )


def ornstein_uhlenbeck(lam: float) -> DiffusionModel:
    """Mean-reverting drift -lam*x with unit diffusion; closed-form extrema.

    gamma = (lam^2 x^2 - lam)/2 is a convex parabola and the antiderivative
    -lam x^2/2 a concave one, both with their extremum at 0: the extrema on
    [l, u] are among the values at l, at u and at 0 clamped into [l, u].
    gamma is evaluated through the sampler's own ``gamma_fn``, and each value
    is padded outward by ``_ROUNDING`` times the magnitude of the terms of its
    evaluator, lam^2 x^2 + lam for gamma and lam x^2 / 2 for the
    antiderivative, both largest at the endpoint farther from 0.  That covers
    the rounding of the sampler's evaluators at the candidate and at any other
    point of [l, u].
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ConfigurationError(f"ou requires lambda > 0, got {lam!r}")
    mu0 = lambda x: -lam * x
    mu0p = lambda x: -lam
    anti = lambda x: -0.5 * lam * x * x
    g = _gamma_evaluator(mu0, mu0p)

    def gamma_extrema(l: float, u: float) -> tuple[float, float]:
        pad = _ROUNDING * (lam * lam * max(l * l, u * u) + lam)
        return g(min(max(0.0, l), u)) - pad, max(g(l), g(u)) + pad

    def log_beta_max(l: float, u: float) -> float:
        return anti(min(max(0.0, l), u)) + _ROUNDING * 0.5 * lam * max(l * l, u * u)

    return DiffusionModel(
        name="ou",
        drift=mu0,
        diffusion=_one,
        mu0=mu0,
        mu0_prime=mu0p,
        mu0_antiderivative=anti,
        lamperti=_identity,
        params=(("lambda", lam),),
        gamma_extrema=gamma_extrema,
        log_beta_max=log_beta_max,
    )


def cox_ingersoll_ross(k: float, theta: float, sigma: float) -> DiffusionModel:
    """Square-root diffusion dX = k(theta - X)dt + sigma sqrt(X) dB on (0, inf).

    The change of variables is S(x) = 2 sqrt(x)/sigma; the transformed drift is
    mu0(x) = rho/x - k x/2 with rho = (4 k theta - sigma^2) / (2 sigma^2).
    Construction requires finite k, theta, sigma and rho > 0 (process stays
    strictly positive).

    Closed-form bounds.  gamma = A/x^2 + B x^2 + C with A = (rho^2 - rho)/2,
    B = k^2/8 and C = -k (rho + 1/2)/2.  When rho > 1 it is convex with its
    minimum at (A/B)^(1/4); when rho <= 1 it is increasing.  Either way the
    extrema on [l, u] are among its values at l, at u and at that minimiser
    clamped into [l, u].  The antiderivative rho log x - k x^2/4 is concave
    with its maximum at sqrt(2 rho / k), clamped into [l, u].

    Each value is padded outward by ``_ROUNDING`` times the magnitude of the
    terms of its evaluator, taken at the worse endpoint: (rho/x + k x/2)^2 +
    rho/x^2 + k/2 for gamma and rho |log x| + k x^2/4 for the antiderivative,
    each largest at an endpoint.  That covers the rounding of the sampler's
    own ``gamma_fn`` and ``mu0_antiderivative`` at the candidate and at any
    other point of [l, u], even where the terms cancel.  The few-ulp error of
    a computed critical point moves a value only at second order, by
    |f''| delta^2 / 2, far below the pad.
    """
    if not all(math.isfinite(v) for v in (k, theta, sigma)):
        raise ConfigurationError(
            f"cir requires finite k, theta, sigma, got k={k!r}, theta={theta!r}, sigma={sigma!r}"
        )
    if sigma <= 0.0 or k <= 0.0:
        raise ConfigurationError(f"cir requires k > 0 and sigma > 0, got k={k!r}, sigma={sigma!r}")
    rho = (4.0 * k * theta - sigma * sigma) / (2.0 * sigma * sigma)
    if rho <= 0.0:
        raise ConfigurationError(
            f"cir requires rho = (4*k*theta - sigma^2)/(2*sigma^2) > 0, got rho={rho!r}"
        )

    mu0 = lambda x: rho / x - 0.5 * k * x
    mu0p = lambda x: -rho / (x * x) - 0.5 * k
    anti = lambda x: rho * math.log(x) - 0.25 * k * x * x
    g = _gamma_evaluator(mu0, mu0p)
    a_coef = 0.5 * (rho * rho - rho)
    # minimiser of gamma; with rho <= 1 gamma increases, so its minimum is at l
    x_min = (8.0 * a_coef / (k * k)) ** 0.25 if a_coef > 0.0 else 0.0
    x_top = math.sqrt(2.0 * rho / k)  # maximiser of the concave antiderivative

    def g_terms(x: float) -> float:
        return (rho / x + 0.5 * k * x) ** 2 + rho / (x * x) + 0.5 * k

    def gamma_extrema(l: float, u: float) -> tuple[float, float]:
        vals = (g(l), g(u), g(min(max(x_min, l), u)))
        pad = _ROUNDING * max(g_terms(l), g_terms(u))
        return min(vals) - pad, max(vals) + pad

    def log_beta_max(l: float, u: float) -> float:
        terms = rho * max(abs(math.log(l)), abs(math.log(u))) + 0.25 * k * u * u
        return anti(min(max(x_top, l), u)) + _ROUNDING * terms

    return DiffusionModel(
        name="cir",
        drift=lambda x: k * (theta - x),
        diffusion=lambda x: sigma * math.sqrt(x),
        mu0=mu0,
        mu0_prime=mu0p,
        mu0_antiderivative=anti,
        lamperti=lambda x: 2.0 * math.sqrt(x) / sigma,
        domain=(0.0, math.inf),
        params=(("k", k), ("theta", theta), ("sigma", sigma), ("rho", rho)),
        gamma_extrema=gamma_extrema,
        log_beta_max=log_beta_max,
    )


def make_model(
    name: str,
    mu0: Callable[[float], float],
    mu0_prime: Callable[[float], float],
    mu0_antiderivative: Optional[Callable[[float], float]] = None,
    *,
    domain: tuple[float, float] = (-math.inf, math.inf),
) -> DiffusionModel:
    """User-defined unit-diffusion model.

    When no closed-form antiderivative is given, one is backed by adaptive
    quadrature from the anchor 0 (or the domain midpoint-ish anchor for
    domains excluding 0) to an absolute tolerance of ``_ANTIDERIVATIVE_TOL``.
    """
    if mu0_antiderivative is None:
        lo, hi = domain
        anchor = 0.0 if lo < 0.0 < hi else (lo + min(1.0, (hi - lo) / 2.0) if math.isfinite(lo) else hi - 1.0)
        cache: dict[float, float] = {anchor: 0.0}

        def mu0_antiderivative(x: float, _anchor=anchor, _cache=cache) -> float:
            got = _cache.get(x)
            if got is None:
                got = adaptive_simpson(mu0, _anchor, x, _ANTIDERIVATIVE_TOL).value
                if len(_cache) < 65536:
                    _cache[x] = got
            return got

    return DiffusionModel(
        name=name,
        drift=mu0,
        diffusion=_one,
        mu0=mu0,
        mu0_prime=mu0_prime,
        mu0_antiderivative=mu0_antiderivative,
        lamperti=_identity,
        domain=domain,
    )


def build_model(name: str, params: dict[str, float]) -> DiffusionModel:
    """CLI registry: 'sin' (no params), 'ou' (lambda), 'cir' (k, theta, sigma)."""
    known = {"sin", "ou", "cir"}
    if name not in known:
        raise ConfigurationError(f"unknown model {name!r}; choose one of {sorted(known)}")
    if name == "sin":
        if params:
            raise ConfigurationError(f"model 'sin' takes no parameters, got {params!r}")
        return sinusoidal_drift()
    if name == "ou":
        extra = set(params) - {"lambda"}
        if extra or "lambda" not in params:
            raise ConfigurationError(f"model 'ou' takes exactly one parameter 'lambda', got {params!r}")
        return ornstein_uhlenbeck(params["lambda"])
    extra = set(params) - {"k", "theta", "sigma"}
    if extra or set(params) != {"k", "theta", "sigma"}:
        raise ConfigurationError(f"model 'cir' takes parameters k, theta, sigma; got {params!r}")
    return cox_ingersoll_ross(params["k"], params["theta"], params["sigma"])
