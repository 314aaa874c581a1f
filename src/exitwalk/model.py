"""Diffusion models, the unit-diffusion change of variables, and interval bounds.

A model bundles the original SDE coefficients (drift ``mu``, diffusion
``sigma``) together with the drift ``mu0`` of the transformed unit-diffusion
process, its derivative, its antiderivative, and the monotone change of
variables that links the two coordinate systems.  All samplers operate on the
transformed process; only the final exit location is mapped back.

Two scalar functions drive every acceptance test:

    beta(x)  = exp(integral of mu0 up to x)
    gamma(x) = (mu0(x)^2 + mu0'(x)) / 2

plus their sup/inf over the current interval.  Conservative bounds only cost
acceptance rate, never correctness, so grid-based bounds carry a small safety
pad while the built-in models supply closed-form extrema where available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import ConfigurationError, DomainError
from .quadrature import adaptive_simpson

_GRID_POINTS = 10_001
_PAD = 1e-6


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
    lamperti_inverse: Callable[[float], float]
    domain: tuple[float, float] = (-math.inf, math.inf)
    params: tuple[tuple[str, float], ...] = ()
    # exact extrema hooks; None means grid maximisation with a safety pad
    gamma_extrema: Optional[Callable[[float, float], tuple[float, float]]] = None
    log_beta_max: Optional[Callable[[float, float], float]] = None
    antiderivative_tol: Optional[float] = None

    @cached_property
    def gamma_fn(self) -> Callable[[float], float]:
        """gamma(y) = (mu0(y)^2 + mu0'(y))/2 without domain checks, built once per model.

        The samplers call this evaluator in their inner loops; :func:`gamma`
        adds the domain and finiteness checks on top of it.
        """
        mu0 = self.mu0
        mu0p = self.mu0_prime

        def gamma_fn(y: float) -> float:
            m = mu0(y)
            return 0.5 * (m * m + mu0p(y))

        return gamma_fn


@dataclass(frozen=True)
class IntervalBounds:
    """Sup/inf constants of beta and gamma over one interval.

    ``gamma_inf`` is clamped at zero (it enters the algorithm only through
    nonpositive exponents), ``gamma_range = gamma_sup - gamma_inf`` is the
    thinning rate, and ``log_beta_sup`` duplicates ``beta_sup`` in log space
    for overflow-free acceptance tests.
    """

    beta_sup: float
    gamma_inf: float
    gamma_sup: float
    gamma_range: float
    log_beta_sup: float

    def inflated(self, factor: float = 2.0) -> "IntervalBounds":
        """Conservative variant: beta_sup and gamma_range scaled, gamma_inf kept."""
        if factor < 1.0:
            raise ValueError("inflation factor must be >= 1")
        gamma_sup = self.gamma_inf + factor * self.gamma_range
        return IntervalBounds(
            beta_sup=self.beta_sup * factor,
            gamma_inf=self.gamma_inf,
            gamma_sup=gamma_sup,
            gamma_range=gamma_sup - self.gamma_inf,
            log_beta_sup=self.log_beta_sup + math.log(factor),
        )


def _check_in_domain(model: DiffusionModel, x: float) -> None:
    lo, hi = model.domain
    if not (lo < x < hi):
        raise DomainError(f"x={x!r} outside open domain ({lo!r}, {hi!r}) of model {model.name!r}")


def beta(model: DiffusionModel, x: float) -> float:
    """exp of the antiderivative of mu0 at x; strictly positive."""
    _check_in_domain(model, x)
    v = math.exp(model.mu0_antiderivative(x))
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"beta not finite/positive at x={x!r} for model {model.name!r}")
    return v


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


def lamperti_inverse(model: DiffusionModel, y: float) -> float:
    x = model.lamperti_inverse(y)
    if not math.isfinite(x):
        raise DomainError(f"inverse transform not finite at y={y!r}")
    _check_in_domain(model, x)
    return x


def _pad_up(v: float) -> float:
    return v + _PAD * (1.0 + abs(v))


def _pad_down(v: float) -> float:
    return v - _PAD * (1.0 + abs(v))


def compute_bounds(model: DiffusionModel, l: float, u: float) -> IntervalBounds:
    """Valid (possibly conservative) beta/gamma constants for [l, u].

    Uses the model's closed-form extrema when present, otherwise maximises on
    a 10,001-point grid and inflates by a pad of 1e-6 * (1 + |value|).
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
        mu0 = model.mu0
        mu0p = model.mu0_prime
        g_lo = math.inf
        g_hi = -math.inf
        for x in xs:
            m = mu0(x)
            g = 0.5 * (m * m + mu0p(x))
            if g < g_lo:
                g_lo = g
            if g > g_hi:
                g_hi = g
        anti = model.mu0_antiderivative
        a_hi = max(anti(x) for x in xs)
        if not (math.isfinite(g_lo) and math.isfinite(g_hi) and math.isfinite(a_hi)):
            raise DomainError(f"non-finite beta/gamma on [{l!r}, {u!r}]")
        g_lo = _pad_down(g_lo)
        g_hi = _pad_up(g_hi)
        bmax = math.exp(a_hi)
        if not math.isfinite(bmax):
            raise DomainError(f"beta overflows on [{l!r}, {u!r}]")
        bsup = _pad_up(bmax)
        log_bsup = math.log(bsup)
        gamma_inf = min(g_lo, 0.0)
        return IntervalBounds(bsup, gamma_inf, g_hi, g_hi - gamma_inf, log_bsup)

    gamma_inf = min(g_lo, 0.0)
    return IntervalBounds(
        beta_sup=math.exp(log_bsup),
        gamma_inf=gamma_inf,
        gamma_sup=g_hi,
        gamma_range=g_hi - gamma_inf,
        log_beta_sup=log_bsup,
    )


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
        lamperti_inverse=_identity,
        gamma_extrema=lambda l, u: (0.0, 0.0),
        log_beta_max=lambda l, u: 0.0,
    )


def sinusoidal_drift() -> DiffusionModel:
    """Unit diffusion with drift 2 + sin(x); gamma >= 0 everywhere, so an
    infinite horizon is admissible on any interval."""
    return DiffusionModel(
        name="sin",
        drift=lambda x: 2.0 + math.sin(x),
        diffusion=_one,
        mu0=lambda x: 2.0 + math.sin(x),
        mu0_prime=math.cos,
        mu0_antiderivative=lambda x: 2.0 * x + 1.0 - math.cos(x),
        lamperti=_identity,
        lamperti_inverse=_identity,
    )


def ornstein_uhlenbeck(lam: float) -> DiffusionModel:
    """Mean-reverting drift -lam*x with unit diffusion; closed-form extrema."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ConfigurationError(f"ou requires lambda > 0, got {lam!r}")

    def gamma_extrema(l: float, u: float) -> tuple[float, float]:
        # gamma(x) = (lam^2 x^2 - lam)/2, a convex parabola
        x_in = min(max(0.0, l), u)
        g = lambda x: 0.5 * (lam * lam * x * x - lam)
        return g(x_in), max(g(l), g(u))

    def log_beta_max(l: float, u: float) -> float:
        x_in = min(max(0.0, l), u)
        return -0.5 * lam * x_in * x_in

    return DiffusionModel(
        name="ou",
        drift=lambda x: -lam * x,
        diffusion=_one,
        mu0=lambda x: -lam * x,
        mu0_prime=lambda x: -lam,
        mu0_antiderivative=lambda x: -0.5 * lam * x * x,
        lamperti=_identity,
        lamperti_inverse=_identity,
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

    return DiffusionModel(
        name="cir",
        drift=lambda x: k * (theta - x),
        diffusion=lambda x: sigma * math.sqrt(x),
        mu0=lambda x: rho / x - 0.5 * k * x,
        mu0_prime=lambda x: -rho / (x * x) - 0.5 * k,
        mu0_antiderivative=lambda x: rho * math.log(x) - 0.25 * k * x * x,
        lamperti=lambda x: 2.0 * math.sqrt(x) / sigma,
        lamperti_inverse=lambda y: (0.5 * sigma * y) ** 2,
        domain=(0.0, math.inf),
        params=(("k", k), ("theta", theta), ("sigma", sigma), ("rho", rho)),
    )


def make_model(
    name: str,
    mu0: Callable[[float], float],
    mu0_prime: Callable[[float], float],
    mu0_antiderivative: Optional[Callable[[float], float]] = None,
    *,
    domain: tuple[float, float] = (-math.inf, math.inf),
    antiderivative_tol: float = 1e-12,
) -> DiffusionModel:
    """User-defined unit-diffusion model.

    When no closed-form antiderivative is given, one is backed by adaptive
    quadrature from the anchor 0 (or the domain midpoint-ish anchor for
    domains excluding 0) at the stated absolute tolerance; the tolerance is
    recorded on the model so drivers can surface it in output metadata.
    """
    used_tol = None
    if mu0_antiderivative is None:
        lo, hi = domain
        anchor = 0.0 if lo < 0.0 < hi else (lo + min(1.0, (hi - lo) / 2.0) if math.isfinite(lo) else hi - 1.0)
        cache: dict[float, float] = {anchor: 0.0}

        def mu0_antiderivative(x: float, _anchor=anchor, _cache=cache) -> float:
            got = _cache.get(x)
            if got is None:
                got = adaptive_simpson(mu0, _anchor, x, antiderivative_tol).value
                if len(_cache) < 65536:
                    _cache[x] = got
            return got

        used_tol = antiderivative_tol

    return DiffusionModel(
        name=name,
        drift=mu0,
        diffusion=_one,
        mu0=mu0,
        mu0_prime=mu0_prime,
        mu0_antiderivative=mu0_antiderivative,
        lamperti=_identity,
        lamperti_inverse=_identity,
        domain=domain,
        antiderivative_tol=used_tol,
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
