"""Independent ground-truth exit probabilities and mean exit times.

Exit-side probabilities come from the scale function (s' proportional to
exp(-2 * integral of the drift)), mean exit times from the Green-function
representation of 0.5 u'' + mu0 u' = -1 with absorbing boundary conditions,
both by nested adaptive Simpson quadrature.  Scale integrands are evaluated
with a running max-shift in log space because exp(-2A) spans hundreds of
orders of magnitude on wide intervals, and every piece of the Green formula
is an integral of a positive integrand, so nothing is obtained by differencing
near-equal scale values.
"""

from __future__ import annotations

import bisect
import math

from .errors import ConvergenceError
from .model import DiffusionModel, lamperti_forward
from .quadrature import adaptive_simpson

_PROBES = 257
_MAX_EXPONENT = 700.0


def _integrate_rel(f, lo: float, hi: float, rel: float) -> float:
    """Adaptive Simpson with tolerance scaled to the integrand's probed magnitude."""
    if lo == hi:
        return 0.0
    n = 65
    step = (hi - lo) / (n - 1)
    peak = max(abs(f(lo + i * step)) for i in range(n))
    tol = max(peak * abs(hi - lo) * rel, 1e-320)
    return adaptive_simpson(f, lo, hi, tol).value


class _Cumulative:
    """Incremental antiderivative of f from a floating anchor.

    Each new query integrates from the nearest previously-resolved point, so
    repeated nearby evaluations (as adaptive outer quadratures produce) stay
    cheap and quadrature error does not accumulate over long spans.
    """

    def __init__(self, f, rel: float = 1e-13):
        self.f = f
        self.rel = rel
        self.keys: list[float] = []
        self.vals: list[float] = []

    def __call__(self, y: float) -> float:
        keys = self.keys
        if not keys:
            keys.append(y)
            self.vals.append(0.0)
            return 0.0
        i = bisect.bisect_left(keys, y)
        if i < len(keys) and keys[i] == y:
            return self.vals[i]
        if i == 0:
            j = 0
        elif i == len(keys):
            j = i - 1
        else:
            j = i if keys[i] - y < y - keys[i - 1] else i - 1
        base_y, base_v = keys[j], self.vals[j]
        if base_y == y:
            return base_v
        # segments are short (nearest anchor), so two endpoint probes set the scale
        peak = max(abs(self.f(base_y)), abs(self.f(y)), 1e-300)
        tol = max(peak * abs(y - base_y) * self.rel, 1e-320)
        val = base_v + adaptive_simpson(self.f, base_y, y, tol).value
        if len(keys) < 1 << 18:
            keys.insert(i, y)
            self.vals.insert(i, val)
        return val


def _log_scale_derivative(model: DiffusionModel, use_transform: bool):
    """h with s'(y) = exp(h(y)), in transformed or original coordinates."""
    if use_transform:
        anti = model.mu0_antiderivative
        return lambda y: -2.0 * anti(y)

    drift = model.drift
    diff = model.diffusion

    def ratio(y: float) -> float:
        s = diff(y)
        return drift(y) / (s * s)

    cum = _Cumulative(ratio)
    return lambda y: -2.0 * cum(y)


def _max_shift(h, lo: float, hi: float) -> float:
    step = (hi - lo) / (_PROBES - 1)
    return max(h(lo + i * step) for i in range(_PROBES))


def exit_probability(
    model: DiffusionModel,
    x: float,
    a: float,
    b: float,
    *,
    use_transform: bool = True,
    rel: float = 1e-11,
) -> float:
    """P(the diffusion from x leaves (a, b) at b), by scale-function quadrature."""
    if not (a < x < b):
        raise ValueError(f"need a < x < b, got a={a!r}, x={x!r}, b={b!r}")
    if use_transform:
        lo, mid, hi = (lamperti_forward(model, v) for v in (a, x, b))
    else:
        lo, mid, hi = a, x, b
    h = _log_scale_derivative(model, use_transform)
    c = _max_shift(h, lo, hi)
    f = lambda y: math.exp(h(y) - c)
    i0 = _integrate_rel(f, lo, mid, rel)
    i1 = _integrate_rel(f, mid, hi, rel)
    return i0 / (i0 + i1)


def mean_exit_time(
    model: DiffusionModel,
    x: float,
    a: float,
    b: float,
    *,
    use_transform: bool = True,
    rel: float = 1e-10,
) -> float:
    """E[first exit time of (a, b) from x], by the Green-function double integral.

    With P0, P1 the scale masses left/right of x and J1, J2 the nested
    speed-measure integrals against the inner scale masses,

        u = 2 (P1*J1 + P0*J2) / (P0 + P1).
    """
    if not (a < x < b):
        raise ValueError(f"need a < x < b, got a={a!r}, x={x!r}, b={b!r}")
    if use_transform:
        lo, mid, hi = (lamperti_forward(model, v) for v in (a, x, b))
    else:
        lo, mid, hi = a, x, b
    h = _log_scale_derivative(model, use_transform)
    c = _max_shift(h, lo, hi)

    if use_transform:
        speed_log = lambda y: -h(y) + c
    else:
        diff = model.diffusion

        def speed_log(y: float) -> float:
            s = diff(y)
            return -h(y) + c - math.log(s * s)

    step = (hi - lo) / (_PROBES - 1)
    peak = max(speed_log(lo + i * step) for i in range(_PROBES))
    if peak > _MAX_EXPONENT:
        raise ConvergenceError(f"speed measure overflows (max exponent {peak:.1f}); interval too wide")

    scale = lambda y: math.exp(h(y) - c)
    speed = lambda y: math.exp(speed_log(y))
    inner_rel = rel * 1e-2

    p0 = _integrate_rel(scale, lo, mid, inner_rel)
    p1 = _integrate_rel(scale, mid, hi, inner_rel)

    def j1_integrand(y: float) -> float:
        return _integrate_rel(scale, lo, y, inner_rel) * speed(y)

    def j2_integrand(y: float) -> float:
        return _integrate_rel(scale, y, hi, inner_rel) * speed(y)

    j1 = _integrate_rel(j1_integrand, lo, mid, rel)
    j2 = _integrate_rel(j2_integrand, mid, hi, rel)
    return 2.0 * (p1 * j1 + p0 * j2) / (p0 + p1)
