"""Reference exit laws for the benchmark workloads, computed apart from the sampler.

For a diffusion dX = mu(X) dt + sigma(X) dB on (a, b) started at x, with

    h(y) = 2 mu(y) / sigma(y)^2,   H(y) = integral of h from a to y,

the scale density is s(y) = exp(-H(y)) and the speed density is
m(y) = 2 / (sigma(y)^2 s(y)).  Then

    P(exit at b) = p = int_a^x s / int_a^b s,
    E[tau] = (1-p) int_a^x A(y) 2/sigma^2(y) dy + p int_x^b B(y) 2/sigma^2(y) dy,
    A(y) = int_a^y exp(H(y) - H(u)) du,  B(y) = int_y^b exp(H(y) - H(u)) du,

which is the Green-function integral of the speed measure.  Every factor is
carried as a logarithm (the CIR workload spans exp(-34) to exp(45)), and the
integrals are composite Gauss-Legendre rules, which are exact to rounding
for these analytic integrands.  Nothing here imports ``exitwalk``.

    python3 perfbench/reference.py     # self-test, then print the references
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

_ORDER = 20
_PANELS = 16


@dataclass(frozen=True)
class Law:
    """One diffusion on (a, b) from x, in original coordinates.

    ``H`` is the closed-form integral of 2 mu / sigma^2 from ``a``; the
    self-test checks it against quadrature of ``mu`` and ``sigma2``.
    """

    name: str
    mu: Callable[[np.ndarray], np.ndarray]
    sigma2: Callable[[np.ndarray], np.ndarray]
    H: Callable[[np.ndarray], np.ndarray]
    x: float
    a: float
    b: float


def brownian_law(x: float, a: float, b: float) -> Law:
    zero = lambda y: 0.0 * y
    return Law("bm", zero, lambda y: 1.0 + 0.0 * y, zero, x, a, b)


def ou_law(lam: float, x: float, a: float, b: float) -> Law:
    return Law(
        f"ou(lambda={lam:g})",
        lambda y: -lam * y,
        lambda y: 1.0 + 0.0 * y,
        lambda y: -lam * (y * y - a * a),
        x, a, b,
    )


def sin_law(x: float, a: float, b: float) -> Law:
    return Law(
        "sin",
        lambda y: 2.0 + np.sin(y),
        lambda y: 1.0 + 0.0 * y,
        lambda y: 4.0 * (y - a) - 2.0 * (np.cos(y) - math.cos(a)),
        x, a, b,
    )


def cir_law(k: float, theta: float, sigma: float, x: float, a: float, b: float) -> Law:
    c = 2.0 * k / (sigma * sigma)
    return Law(
        f"cir(k={k:g},theta={theta:g},sigma={sigma:g})",
        lambda y: k * (theta - y),
        lambda y: sigma * sigma * y,
        lambda y: c * theta * np.log(y / a) - c * (y - a),
        x, a, b,
    )


def _nodes(lo, hi, panels: int = _PANELS, order: int = _ORDER):
    """Composite Gauss-Legendre nodes and weights on [lo, hi] (arrays broadcast)."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    unit = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    unit_w = (half[:, None] * w[None, :]).ravel()
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    return lo + (hi - lo) * unit, (hi - lo) * unit_w


def _log_integral(log_f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log of sum(w * exp(log_f)) along the last axis, shifted against overflow."""
    top = log_f.max(axis=-1, keepdims=True)
    return top[..., 0] + np.log((w * np.exp(log_f - top)).sum(axis=-1))


def exit_law(law: Law, panels: int = _PANELS) -> tuple[float, float, float]:
    """(P(exit at b), P(exit at a), E[tau]) by log-space quadrature of scale and Green function."""
    a, x, b, H = law.a, law.x, law.b, law.H
    if not a < x < b:
        raise ValueError(f"need a < x < b, got {a!r}, {x!r}, {b!r}")
    ys, ws = _nodes(a, x, panels)
    log_left = _log_integral(-H(ys), ws)
    ys, ws = _nodes(x, b, panels)
    log_right = _log_integral(-H(ys), ws)
    # p and 1-p each from the ratio of the two scale masses: no cancellation
    log_p = -np.logaddexp(0.0, log_right - log_left)
    log_q = -np.logaddexp(0.0, log_left - log_right)

    def green_part(lo, hi, inner_lo_is_a: bool, log_weight: float) -> float:
        y, wy = _nodes(lo, hi, panels)
        u, wu = _nodes(a, y, panels) if inner_lo_is_a else _nodes(y, b, panels)
        log_inner = _log_integral(H(y)[:, None] - H(u), wu)
        return float(np.exp(_log_integral(log_weight + log_inner + np.log(2.0 / law.sigma2(y)), wy)))

    mean = green_part(a, x, True, float(log_q)) + green_part(x, b, False, float(log_p))
    return float(np.exp(log_p)), float(np.exp(log_q)), mean


def check_H(law: Law) -> float:
    """Largest relative gap between the closed-form H and quadrature of 2 mu / sigma^2."""
    ys = np.linspace(law.a, law.b, 9)[1:]
    u, wu = _nodes(law.a, ys)
    numeric = (wu * 2.0 * law.mu(u) / law.sigma2(u)).sum(axis=-1)
    closed = law.H(ys)
    return float(np.max(np.abs(numeric - closed) / (1.0 + np.abs(closed))))


def self_test() -> list[str]:
    """Failures of the quadrature against Brownian closed forms and its own refinement."""
    failures = []
    for x, a, b in ((0.3, 0.0, 1.0), (3.0, 0.0, 7.0), (0.5, -2.0, 2.0), (1.01, 1.0, 6.0)):
        p, _, mean = exit_law(brownian_law(x, a, b))
        p_true = (x - a) / (b - a)
        mean_true = (x - a) * (b - x)
        if abs(p - p_true) > 1e-12 or abs(mean - mean_true) > 1e-10 * mean_true:
            failures.append(f"bm x={x} on ({a}, {b}): got p={p!r}, E={mean!r}; "
                            f"want {p_true!r}, {mean_true!r}")
    for law in WORKLOAD_LAWS.values():
        gap = check_H(law)
        if gap > 1e-12:
            failures.append(f"{law.name}: closed-form H off quadrature by {gap:.3g}")
        p, _, mean = exit_law(law)
        p2, _, mean2 = exit_law(law, 2 * _PANELS)
        if abs(p2 - p) > 1e-12 or abs(mean2 - mean) > 1e-9 * mean:
            failures.append(f"{law.name}: refinement moves p by {p2 - p:.3g}, E by {mean2 - mean:.3g}")
    return failures


# the laws of the benchmark workloads (sin-bandit's law does not depend on N)
WORKLOAD_LAWS = {
    "ou2-long": ou_law(2.0, 0.5, -2.0, 2.0),
    "cir-short": cir_law(3.0, 7.0, 1.0, 3.0, 1.0, 6.0),
    "sin-bandit": sin_law(3.0, 0.0, 7.0),
}


def main() -> int:
    failures = self_test()
    for f in failures:
        print("SELF-TEST FAILED:", f, file=sys.stderr)
    print(f"{'workload':<12} {'law':<26} {'P(exit at b)':>20} {'P(exit at a)':>24} {'E[tau]':>20}")
    for name, law in WORKLOAD_LAWS.items():
        p_b, p_a, mean = exit_law(law)
        print(f"{name:<12} {law.name:<26} {p_b!r:>20} {p_a!r:>24} {mean!r:>20}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
