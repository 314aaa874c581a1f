import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitwalk import (
    ConfigurationError,
    DomainError,
    beta,
    brownian,
    build_model,
    compute_bounds,
    cox_ingersoll_ross,
    gamma,
    lamperti_forward,
    lamperti_inverse,
    make_model,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    slice_bounds_table,
    substream,
)

OU1 = ornstein_uhlenbeck(1.0)
SIN = sinusoidal_drift()
CIR = cox_ingersoll_ross(3.0, 7.0, 1.0)
BM = brownian()


def test_beta_ou_at_zero():
    assert beta(OU1, 0.0) == 1.0


def test_beta_ou_at_two():
    assert beta(OU1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_beta_cir_closed_form():
    # transformed drift rho/x - k x/2 with rho = (4*3*7 - 1)/2 = 41.5
    rho = dict(CIR.params)["rho"]
    assert rho == pytest.approx(41.5, abs=0)
    assert beta(CIR, 2.0) == pytest.approx(2.0**41.5 * math.exp(-3.0), rel=1e-12)


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
    b = compute_bounds(OU1, 0.0, 7.0)
    assert b.beta_sup == 1.0
    assert b.gamma_inf == -0.5
    assert b.gamma_sup == 24.0
    assert b.gamma_range == 24.5


def test_bounds_zero_drift():
    b = compute_bounds(BM, -3.0, 11.0)
    assert (b.beta_sup, b.gamma_inf, b.gamma_sup, b.gamma_range) == (1.0, 0.0, 0.0, 0.0)


def test_bounds_sin_gamma_inf_clamped_to_zero():
    b = compute_bounds(SIN, 0.0, 7.0)
    assert b.gamma_inf == 0.0
    assert b.gamma_sup > 0.0


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
        assert g <= b.gamma_sup
        assert beta(model, x) <= b.beta_sup
    assert b.gamma_range == b.gamma_sup - b.gamma_inf
    assert b.log_beta_sup == pytest.approx(math.log(b.beta_sup), rel=1e-12)


def test_bounds_inflated():
    b = compute_bounds(OU1, 0.0, 7.0)
    infl = b.inflated(2.0)
    assert infl.beta_sup == pytest.approx(2.0 * b.beta_sup)
    assert infl.gamma_inf == b.gamma_inf
    assert infl.gamma_range == pytest.approx(2.0 * b.gamma_range)
    assert infl.gamma_range == infl.gamma_sup - infl.gamma_inf


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
    assert lamperti_inverse(CIR, 2.0 * math.sqrt(6.0)) == pytest.approx(6.0, rel=1e-13)


def test_lamperti_round_trip():
    rng = substream(5, "roundtrip")
    for _ in range(1000):
        x = 0.01 + 12.0 * rng.uniform()
        y = lamperti_forward(CIR, x)
        back = lamperti_inverse(CIR, y)
        assert abs(back - x) <= 1e-10 * max(1.0, abs(x))


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
        beta(CIR, -1.0)
    with pytest.raises(DomainError):
        gamma(CIR, 0.0)
    with pytest.raises(DomainError):
        compute_bounds(CIR, -0.5, 2.0)
    with pytest.raises(ValueError):
        compute_bounds(OU1, 3.0, 2.0)


def test_make_model_quadrature_backed_antiderivative():
    m = make_model("wave", mu0=math.cos, mu0_prime=lambda x: -math.sin(x))
    assert m.antiderivative_tol == 1e-12
    for x in (-2.0, 0.7, 3.1):
        assert m.mu0_antiderivative(x) == pytest.approx(math.sin(x), abs=1e-10)
    b = compute_bounds(m, 0.0, 2.0)
    assert b.beta_sup >= math.exp(1.0)  # sup of exp(sin) on [0, 2]


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
    model = ornstein_uhlenbeck(lam)
    hi = lo + width
    b = compute_bounds(model, lo, hi)
    for i in range(200):
        x = lo + width * i / 199
        assert gamma(model, x) <= b.gamma_sup + 1e-12
        assert b.gamma_inf <= gamma(model, x) + 1e-12 or b.gamma_inf <= 0.0
        assert beta(model, x) <= b.beta_sup * (1.0 + 1e-12)
