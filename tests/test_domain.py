"""Domain fuzz: no input inside the documented domain hangs or crashes a walk.

Each built-in model runs in both engines (one scalar walk, and 64 walks in
lanes) from the floats next to either end, far from the origin, and over
horizons from a hundredth of the squared width up to infinity where
``check_horizon`` admits it.  Every call must return records or raise an
ExitwalkError.  The proposal cap is lowered to 10^4, so a rejection loop
that cannot finish raises soon.  Inputs whose cost legitimately explodes
stay out of the domain drawn: a horizon far below the squared width (many
rectangles per walk), ``ou`` over a high barrier (an exit time of order
exp(lambda x^2)) or with a long horizon (an exit weight of order
exp(-lambda T / 2)), and ``cir`` on wide slices near 0, where gamma grows as
1/x^2.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exitwalk.bm_exit as bm_mod
from exitwalk import (
    ExitwalkError,
    brownian,
    cox_ingersoll_ross,
    diff_exit,
    ornstein_uhlenbeck,
    sinusoidal_drift,
    substream,
)

FUZZ = settings(max_examples=50, deadline=None)
ENGINES = pytest.mark.parametrize("lanes", [None, 64])
BM = brownian()
SIN = sinusoidal_drift()
CIR = cox_ingersoll_ross(3.0, 7.0, 1.0)
ENDS = st.sampled_from(["a", "b"])
NS = st.integers(2, 12)
# T over the squared width of (a, b); None stands for T = inf
HORIZONS = st.one_of(st.none(), st.floats(1e-2, 1e2))


def _walk(model, a, b, end, T, N, lanes, ulps=1):
    """diff_exit from ``ulps`` floats inside ``end``: records, or None after an ExitwalkError.

    A start that is not strictly inside (a, b), where a and b are a few
    floats apart, is outside the domain and returns None untried.
    """
    x = a if end == "a" else b
    for _ in range(ulps):
        x = math.nextafter(x, b if end == "a" else a)
    if not a < x < b:
        return None
    try:
        with mock.patch.object(bm_mod, "_MAX_PROPOSALS", 10**4):
            out = diff_exit(substream(0, "fuzz"), model, x, a, b, T, N, lanes=lanes)
    except ExitwalkError:
        return None
    for rec in [out] if lanes is None else out:
        assert rec.exit_location in (a, b)
        assert 0.0 <= rec.exit_time < math.inf
    return out


def _horizon(f, a, b):
    return math.inf if f is None else f * (b - a) ** 2


@ENGINES
@FUZZ
@given(a=st.floats(-1e6, 1e6), width=st.floats(1e-12, 1e6), end=ENDS, f=HORIZONS, N=NS)
# slices a few ulps wide; the whole interval two ulps wide; a distance that underflows
@example(a=1e6, width=1e-9, end="a", f=None, N=12)
@example(a=1e6, width=2.5e-10, end="b", f=1.0, N=2)
@example(a=0.0, width=1e-12, end="a", f=None, N=2)
def test_bm(lanes, a, width, end, f, N):
    b = a + width
    if a < b:
        _walk(BM, a, b, end, _horizon(f, a, b), N, lanes)


@ENGINES
@FUZZ
@given(a=st.floats(-1e6, 1e6), width=st.floats(0.1, 10.0), end=ENDS, f=HORIZONS, N=NS)
def test_sin(lanes, a, width, end, f, N):
    b = a + width
    _walk(SIN, a, b, end, _horizon(f, a, b), N, lanes)


@ENGINES
@FUZZ
@given(
    lam=st.floats(0.25, 4.0),
    p=st.floats(-1.0, 0.9),
    w=st.floats(0.05, 1.0),
    end=ENDS,
    f=st.one_of(st.floats(1e-2, 1.0), st.none()),
    N=NS,
)
def test_ou(lanes, lam, p, w, end, f, N):
    # (a, b) inside (-r, r): a barrier lambda x^2 / 2 of at most 2, and lambda T at most 4
    r = 2.0 / math.sqrt(lam)
    a = p * r
    b = a + w * (r - a)
    T = _horizon(f, a, b)
    _walk(ornstein_uhlenbeck(lam), a, b, end, T if T == math.inf else min(T, 4.0 / lam), N, lanes)


@ENGINES
@FUZZ
@given(a=st.floats(2.0, 100.0), width=st.floats(1e-3, 10.0), end=ENDS, f=HORIZONS, N=st.integers(4, 12))
def test_cir(lanes, a, width, end, f, N):
    # a slice where gamma spans hundreds costs thousands of restarts per
    # rectangle: a >= 2 and N >= 4 keep the slices off that regime.  cir's
    # exit weight can be below 1 (gamma_inf >= -1.5): T is kept at most 4;
    # the transform 2 sqrt(x) halves the float spacing, so the start is the fourth
    # float inside the end, which stays inside the transformed interval
    b = a + width
    T = _horizon(f, a, b)
    _walk(CIR, a, b, end, T if T == math.inf else min(T, 4.0), N, lanes, ulps=4)
