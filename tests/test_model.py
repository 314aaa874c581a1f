import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitwalk import (
    ConfigurationError,
    DomainError,
    brownian,
    build_model,
    compute_bounds,
    cox_ingersoll_ross,
    gamma,
    lamperti_forward,
    make_model,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    slice_bounds_table,
)
import exitwalk.model as model_mod
from stat_helpers import inflate

OU1 = ornstein_uhlenbeck(1.0)
SIN = sinusoidal_drift()
CIR = cox_ingersoll_ross(3.0, 7.0, 1.0)
BM = brownian()


# beta is exp of the antiderivative of mu0; it is checked in log space, where the sampler reads it


def test_beta_ou_at_zero():
    assert OU1.mu0_antiderivative(0.0) == 0.0


def test_beta_ou_at_two():
    assert OU1.mu0_antiderivative(2.0) == pytest.approx(-2.0, rel=1e-14)


def test_beta_cir_closed_form():
    # transformed drift rho/x - k x/2 with rho = (4*3*7 - 1)/2 = 41.5
    rho = dict(CIR.params)["rho"]
    assert rho == pytest.approx(41.5, abs=0)
    assert CIR.mu0_antiderivative(2.0) == pytest.approx(41.5 * math.log(2.0) - 3.0, rel=1e-12)


def test_gamma_ou_closed_form():
    assert gamma(OU1, 0.0) == -0.5
    for x in (-2.0, 0.3, 1.7, 5.0):
        assert gamma(OU1, x) == pytest.approx(0.5 * (x * x - 1.0), rel=1e-14)


def test_gamma_sin_nonnegative():
    for i in range(1001):
        x = -10.0 + 20.0 * i / 1000
        assert gamma(SIN, x) >= 0.0


def test_gamma_cir_matches_displayed_formula():
    k, rho = 3.0, 41.5
    for i in range(100):
        x = 0.5 + 5.0 * i / 99
        expected = 0.5 * ((rho / x - k * x / 2.0) ** 2 - rho / (x * x) - k / 2.0)
        assert gamma(CIR, x) == pytest.approx(expected, rel=1e-12)


def test_bounds_ou_closed_form():
    # the exact extrema 1, -0.5 and 24, each padded outward by a few ulps of its terms
    b = compute_bounds(OU1, 0.0, 7.0)
    assert 0.0 < b.log_beta_sup < math.log1p(1e-12)
    assert -0.5 - 1e-12 < b.gamma_inf < -0.5
    assert 24.0 < b.gamma_inf + b.gamma_range < 24.0 + 1e-12


def test_bounds_zero_drift():
    b = compute_bounds(BM, -3.0, 11.0)
    assert (b.log_beta_sup, b.gamma_inf, b.gamma_range) == (0.0, 0.0, 0.0)


def test_bounds_sin_gamma_inf_clamped_to_zero():
    b = compute_bounds(SIN, 0.0, 7.0)
    assert b.gamma_inf == 0.0
    assert b.gamma_range > 0.0


@pytest.mark.parametrize(
    "model,lo,hi",
    [(SIN, 0.0, 7.0), (OU1, 0.0, 7.0), (ornstein_uhlenbeck(2.0), -2.0, 2.0), (CIR, 2.0, 2.0 * math.sqrt(6.0))],
)
def test_bounds_dominate_on_fine_grid(model, lo, hi):
    b = compute_bounds(model, lo, hi)
    for i in range(1000):
        x = lo + (hi - lo) * (i + 0.5) / 1000
        g = gamma(model, x)
        assert b.gamma_inf <= min(g, 0.0)
        assert g - b.gamma_inf <= b.gamma_range
        assert model.mu0_antiderivative(x) <= b.log_beta_sup


def test_bounds_inflated():
    b = compute_bounds(OU1, 0.0, 7.0)
    infl = inflate(b, 2.0)
    assert infl.log_beta_sup == pytest.approx(b.log_beta_sup + math.log(2.0))
    assert infl.gamma_inf == b.gamma_inf
    assert infl.gamma_range == pytest.approx(2.0 * b.gamma_range)


def test_slice_bounds_table_matches_direct():
    table = slice_bounds_table(OU1, 0.0, 7.0, 7)
    assert len(table) == 6
    direct = compute_bounds(OU1, 2.0, 4.0)
    assert table[2] == direct


def test_lamperti_identity_for_unit_models():
    for m in (SIN, OU1, BM):
        for x in (-3.2, 0.0, 4.5):
            assert lamperti_forward(m, x) == x
            assert m.mu0(x) == m.drift(x)


def test_lamperti_cir_values():
    assert lamperti_forward(CIR, 4.0) == pytest.approx(4.0, rel=1e-14)
    assert lamperti_forward(CIR, 6.0) == pytest.approx(2.0 * math.sqrt(6.0), rel=1e-13)


@pytest.mark.parametrize("model,lo,hi", [(SIN, -5.0, 5.0), (OU1, -5.0, 5.0), (CIR, 0.5, 8.0)])
def test_mu0_prime_matches_finite_difference(model, lo, hi):
    h = 1e-5
    for i in range(101):
        x = lo + (hi - lo) * i / 100
        fd = (model.mu0(x + h) - model.mu0(x - h)) / (2.0 * h)
        assert model.mu0_prime(x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_cir_requires_positive_rho():
    with pytest.raises(ConfigurationError):
        cox_ingersoll_ross(1.0, 0.1, 2.0)  # rho = (0.4 - 4)/8 < 0
    with pytest.raises(ConfigurationError):
        cox_ingersoll_ross(-1.0, 7.0, 1.0)


def test_ou_requires_positive_lambda():
    with pytest.raises(ConfigurationError):
        ornstein_uhlenbeck(0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        lamperti_forward(CIR, -1.0)
    with pytest.raises(DomainError):
        gamma(CIR, 0.0)
    with pytest.raises(DomainError):
        compute_bounds(CIR, -0.5, 2.0)
    with pytest.raises(ValueError):
        compute_bounds(OU1, 3.0, 2.0)


def test_make_model_quadrature_backed_antiderivative():
    m = make_model("wave", mu0=math.cos, mu0_prime=lambda x: -math.sin(x))
    for x in (-2.0, 0.7, 3.1):
        assert m.mu0_antiderivative(x) == pytest.approx(math.sin(x), abs=1e-10)
    b = compute_bounds(m, 0.0, 2.0)
    assert b.log_beta_sup >= 1.0  # sup of sin on [0, 2], the log of the sup of exp(sin)


def test_grid_log_beta_sup_is_the_log_of_the_padded_sup():
    # the grid path pads e^a as (1 + _PAD) e^a + _PAD without forming e^a; where
    # e^a is finite it agrees with padding e^a itself, to 1e-12 relative or an
    # ulp of 1, the rounding of the old sum near a = 0, where its log is ~1e-6
    zero = lambda x: 0.0
    for a in (-745.0, -700.0, -13.8, -1.0, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 1.0, 50.0, 700.0, 709.78):
        flat = make_model("flat", zero, zero, lambda x, a=a: a)
        got = compute_bounds(flat, 0.0, 1.0).log_beta_sup
        old = math.log(model_mod._pad_up(math.exp(a)))
        assert math.isclose(got, old, rel_tol=1e-12, abs_tol=sys.float_info.epsilon), (a, got, old)
    far = make_model("flat", zero, zero, lambda x: 1e4)
    assert compute_bounds(far, 0.0, 1.0).log_beta_sup == pytest.approx(1e4 + math.log1p(1e-6), rel=1e-15)


def test_build_model_registry():
    assert build_model("sin", {}).name == "sin"
    assert dict(build_model("ou", {"lambda": 2.0}).params)["lambda"] == 2.0
    assert build_model("cir", {"k": 3.0, "theta": 7.0, "sigma": 1.0}).name == "cir"
    with pytest.raises(ConfigurationError):
        build_model("nope", {})
    with pytest.raises(ConfigurationError):
        build_model("sin", {"lambda": 1.0})
    with pytest.raises(ConfigurationError):
        build_model("ou", {})
    with pytest.raises(ConfigurationError):
        build_model("cir", {"k": 3.0})


@given(
    lo=st.floats(-5.0, 4.0),
    width=st.floats(0.05, 6.0),
    lam=st.floats(0.1, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_ou_closed_form_bounds_dominate(lo, width, lam):
    _assert_certified(ornstein_uhlenbeck(lam), lo, lo + width, [0.0])


def _bisect(f, a, b):
    """A root of f in [a, b], where f changes sign, to two adjacent floats."""
    neg_a = f(a) < 0.0
    mid = 0.5 * (a + b)
    while a < mid < b:
        if (f(mid) < 0.0) == neg_a:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return a


def _sin_gamma_roots():
    dg = lambda x: (2.0 + math.sin(x)) * math.cos(x) - 0.5 * math.sin(x)
    return _bisect(dg, 1.3, 1.5), _bisect(dg, 4.2, 4.4)


def _near(points, lo, hi, ulps=4):
    """Each point and its neighbours within ``ulps`` floats, kept inside [lo, hi]."""
    out = []
    for p in points:
        below = above = p
        out.append(p)
        for _ in range(ulps):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            out += [below, above]
    return [x for x in out if lo <= x <= hi]


def _assert_certified(model, lo, hi, critical):
    """No slack: the sampler's own evaluators stay inside the bounds at every probe."""
    b = compute_bounds(model, lo, hi)
    g_lo, g_hi = model.gamma_extrema(lo, hi)
    assert b.gamma_inf == min(g_lo, 0.0) and b.gamma_range == g_hi - b.gamma_inf
    xs = [lo + (hi - lo) * i / 1999 for i in range(2000)] + [lo, hi] + _near(critical + [lo, hi], lo, hi)
    g, anti = model.gamma_fn, model.mu0_antiderivative
    for x in xs:
        assert g_lo <= g(x) <= g_hi, x
        assert g(x) - b.gamma_inf <= b.gamma_range, x
        assert anti(x) <= b.log_beta_sup, x


@given(lo=st.floats(-30.0, 30.0), width=st.floats(1e-3, 15.0))
@settings(max_examples=80, deadline=None)
def test_sin_closed_form_bounds_are_certified(lo, width):
    hi = lo + width
    tau = 2.0 * math.pi
    critical = [
        r + n * tau for r in _sin_gamma_roots() for n in range(math.floor((lo - r) / tau), math.ceil((hi - r) / tau) + 1)
    ]
    _assert_certified(SIN, lo, hi, critical)


CIR_CASES = {
    "rho>1": (3.0, 7.0, 1.0),  # rho = 41.5, the benchmark's
    "rho<1": (1.0, 0.3, 1.0),  # rho = 0.1
    "rho=1": (1.0, 0.75, 1.0),
}


@given(case=st.sampled_from(sorted(CIR_CASES)), lo=st.floats(0.05, 10.0), width=st.floats(1e-3, 8.0))
@settings(max_examples=80, deadline=None)
def test_cir_closed_form_bounds_are_certified(case, lo, width):
    k, theta, sigma = CIR_CASES[case]
    model = cox_ingersoll_ross(k, theta, sigma)
    rho = dict(model.params)["rho"]
    critical = [math.sqrt(2.0 * rho / k)]
    if rho > 1.0:
        critical.append((4.0 * (rho * rho - rho) / (k * k)) ** 0.25)
    _assert_certified(model, lo, lo + width, critical)


@pytest.mark.parametrize(
    "model,a,b,ns",
    [
        (SIN, 0.0, 7.0, range(2, 22)),
        (CIR, 1.0, 6.0, (16,)),
        (cox_ingersoll_ross(*CIR_CASES["rho<1"]), 0.2, 6.0, (16,)),
        (cox_ingersoll_ross(*CIR_CASES["rho=1"]), 0.2, 6.0, (16,)),
    ],
)
def test_closed_form_bounds_no_looser_than_grid(model, a, b, ns):
    grid_model = dataclasses.replace(model, gamma_extrema=None, log_beta_max=None)
    a_hat, b_hat = lamperti_forward(model, a), lamperti_forward(model, b)
    for n in ns:
        for new, old in zip(slice_bounds_table(model, a_hat, b_hat, n), slice_bounds_table(grid_model, a_hat, b_hat, n)):
            assert new.gamma_inf + new.gamma_range <= old.gamma_inf + old.gamma_range
            assert new.log_beta_sup <= old.log_beta_sup


def test_builtin_tables_never_use_the_grid(monkeypatch):
    def no_grid(v):
        raise AssertionError("grid bounds used")

    monkeypatch.setattr(model_mod, "_pad_up", no_grid)
    with pytest.raises(AssertionError, match="grid bounds"):
        compute_bounds(make_model("wave", mu0=math.cos, mu0_prime=lambda x: -math.sin(x), mu0_antiderivative=math.sin), 0.0, 1.0)
    sin = sinusoidal_drift()
    for n in range(2, 22):
        slice_bounds_table(sin, 0.0, 7.0, n)
    for params in CIR_CASES.values():
        cir = cox_ingersoll_ross(*params)
        slice_bounds_table(cir, lamperti_forward(cir, 1.0), lamperti_forward(cir, 6.0), 16)
