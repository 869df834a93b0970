import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from refdiff import profiles
from refdiff.errors import BadParameters, BadThresholds
from refdiff.profiles import (PiecewisePoly, RampProfile, cutoff, rising_cutoff,
                              zeta_for_band)

DELTA, EPS = 1e-4, 0.04


def test_xi_plateaus():
    xi = cutoff(0.5, 1.0)
    assert xi.value(0.25) == 1.0
    assert xi.value(2.0) == 0.0
    mid = xi.value(np.linspace(0.5, 1.0, 50))
    assert np.all(np.diff(mid) <= 0)


def test_zeta_band_values():
    ze = zeta_for_band(1.0)
    assert ze.value(1.25) == 1.0
    assert ze.value(2.0) == 0.0
    s = np.linspace(-1, 3, 400)
    assert np.all(np.diff(ze.value(s)) <= 1e-15)


def test_cutoff_c2_joins():
    xi = cutoff(0.5, 1.0)
    for s0 in (0.5, 1.0):
        h = 1e-6
        assert abs(xi.d1(s0 - h) - xi.d1(s0 + h)) < 1e-4
        assert abs(xi.d2(s0 - h) - xi.d2(s0 + h)) < 1e-2


def test_bad_thresholds():
    with pytest.raises(BadThresholds):
        cutoff(1.0, 0.5)
    with pytest.raises(BadThresholds):
        rising_cutoff(2.0, 2.0)


@pytest.fixture(scope="module")
def ramp():
    return RampProfile(DELTA, EPS)


def test_ramp_zero_below_delta(ramp):
    s = np.array([-0.1, 0.0, DELTA / 2, DELTA])
    assert np.all(ramp.exact.value(s) == 0.0)
    assert ramp.value(0.0) == 0.0


def test_ramp_exact_mid_curvature(ramp):
    s = np.linspace(DELTA + np.sqrt(DELTA) * 1.001, EPS * 0.999, 100)
    assert np.allclose(ramp.exact.d2(s), 2.0)


def test_ramp_plateau_value(ramp):
    expected = (2 * DELTA * (np.sqrt(DELTA) + 1)
                - (DELTA + np.sqrt(DELTA)) ** 2 + EPS ** 2 + EPS ** 1.5)
    s = np.array([EPS + np.sqrt(EPS), 1.0, 7.0])
    assert np.allclose(ramp.exact.value(s), expected, rtol=1e-14)
    assert np.allclose(ramp.value(np.array([2 * (EPS + np.sqrt(EPS)), 3.0])),
                       expected, rtol=1e-12)
    assert ramp.d2(3.0) == 0.0


def test_ramp_published_bounds(ramp):
    s = np.linspace(-0.05, 0.6, 4000)
    v, d1 = ramp.value(s), ramp.d1(s)
    assert np.all(v >= 0) and np.all(v <= 5 * EPS)
    assert np.all(d1 >= 0) and np.all(d1 <= 2 * np.sqrt(EPS) * (1 + 1e-12))


def test_ramp_band_curvature(ramp):
    band = np.linspace(DELTA + 2 * np.sqrt(DELTA), EPS / 2, 500)
    assert np.min(ramp.d2(band)) >= 2.0 - 1e-9


def test_ramp_tail_curvature(ramp):
    tail = np.linspace(EPS - ramp.kappa, 3 * EPS, 800)
    assert np.max(np.abs(ramp.d2(tail))) <= 2 * np.sqrt(EPS) * (1 + 1e-12)


def test_ramp_nonneg_curvature_before_band(ramp):
    s = np.linspace(0, EPS - ramp.width, 2000)
    assert np.min(ramp.d2(s)) >= -1e-12


def test_ramp_mollification_error(ramp):
    s = np.linspace(0, 0.5, 3000)
    err = np.abs(ramp.value(s) - ramp.exact.value(s)).max()
    assert err <= 2 * np.sqrt(EPS) * ramp.width


def test_ramp_monotone(ramp):
    s = np.linspace(-0.01, 0.5, 3000)
    assert np.all(np.diff(ramp.value(s)) >= -1e-14)


def test_ramp_derivative_consistency(ramp):
    # third derivatives blow up like 1/width inside the mollification bands
    # around the exact breakpoints, so probes avoid those slivers
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 0.3, 200)
    breaks = np.concatenate([ramp.exact.breaks, ramp.exact.breaks - ramp.width])
    dist = np.min(np.abs(s[:, None] - breaks[None, :]), axis=1)
    s = s[dist > 2 * ramp.width]
    h = 1e-7
    fd1 = (ramp.value(s + h) - ramp.value(s - h)) / (2 * h)
    assert np.max(np.abs(fd1 - ramp.d1(s))) < 1e-5
    h2 = 1e-6
    fd2 = (ramp.d1(s + h2) - ramp.d1(s - h2)) / (2 * h2)
    assert np.max(np.abs(fd2 - ramp.d2(s))) < 2e-4


def test_ramp_bad_parameters():
    with pytest.raises(BadParameters):
        RampProfile(0.0, 0.1)
    with pytest.raises(BadParameters):
        RampProfile(0.05, 0.1)       # delta + sqrt(delta) >= eps


# ---------------------------------------------------------------------------
# Reference evaluations: the coefficient table and the batched ramp must
# reproduce the per-piece Polynomial path and the per-point window loop bit
# for bit
# ---------------------------------------------------------------------------

def _per_piece(breaks, pieces, k, s):
    """k-th derivative by per-piece Polynomial calls on the points each owns."""
    polys = [p.deriv(k) for p in pieces]
    idx = np.searchsorted(breaks, s, side="left")
    out = np.empty_like(s)
    for i in np.unique(idx):
        m = idx == i
        out[m] = polys[i](s[m])
    return out


def _cutoff_pieces(kind, lo, hi):
    step = profiles._smoothstep()(profiles._affine(lo, hi))
    if kind == "rising":
        return [lo, hi], [Polynomial([0.0]), step, Polynomial([1.0])]
    return [lo, hi], [Polynomial([1.0]), 1.0 - step, Polynomial([0.0])]


@st.composite
def _profiles_and_points(draw):
    kind = draw(st.sampled_from(["xi", "zeta", "rising", "ramp"]))
    if kind == "ramp":
        delta = draw(st.floats(1e-6, 1e-2))
        eps = draw(st.floats(delta + math.sqrt(delta), 0.4,
                             exclude_min=True, exclude_max=True))
        breaks, pieces = profiles._exact_ramp(delta, eps)
        prof = PiecewisePoly(breaks, pieces)
    else:
        lo = draw(st.floats(-2.0, 2.0))
        hi = lo + draw(st.floats(1e-3, 3.0))
        prof = rising_cutoff(lo, hi) if kind == "rising" else cutoff(lo, hi)
        breaks, pieces = _cutoff_pieces(kind, lo, hi)
    b = np.asarray(breaks, dtype=float)
    exact = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                            [0.0, np.nan, np.inf, -np.inf]])
    s = draw(st.lists(st.one_of(st.sampled_from(exact.tolist()),
                                st.floats(b[0] - 1.0, b[-1] + 1.0)),
                      min_size=1, max_size=40))
    return prof, breaks, pieces, np.array(s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_profiles_and_points())
def test_table_matches_per_piece_polynomials(case):
    # bit for bit, the sign of a zero included; NaN and +-inf give NaN
    prof, breaks, pieces, s = case
    for k, name in enumerate(("value", "d1", "d2")):
        with np.errstate(invalid="ignore"):
            ref = _per_piece(np.asarray(breaks, dtype=float), pieces, k, s)
            got = getattr(prof, name)(s)
            one = getattr(prof, name)(float(s[0]))
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.isnan(got[~np.isfinite(s)]).all()
        assert np.array_equal([one], ref[:1], equal_nan=True)


_GX, _GW = np.polynomial.legendre.leggauss(10)


def _masked_kernel(ramp, t):
    w = ramp.width
    tau = (t - 0.75 * w) / (0.25 * w)
    out = np.zeros_like(np.asarray(t, dtype=float))
    m = np.abs(tau) < 1.0
    out[m] = (35.0 / (8.0 * 0.25 * w * 4.0)) * (1.0 - tau[m] ** 2) ** 3
    return out


def _window_quad(ramp, s, f):
    """Gauss quadrature of f(s+t) kernel(t) over t in [w/2, w], cut at the
    exact breaks strictly inside the window."""
    w = ramp.width
    lo, hi = s + w / 2.0, s + w
    cuts = sorted(set([lo, hi] + [float(b) for b in ramp.exact.breaks if lo < b < hi]))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid + half * _GX
        total += half * float(np.sum(_GW * f(u) * _masked_kernel(ramp, u - s)))
    return total


def _per_point_ramp(ramp, k, s):
    f = (ramp.exact.value, ramp.exact.d1, ramp.exact.d2)[k]
    w = ramp.width
    out = np.empty_like(s)
    for i, si in enumerate(s):
        if si + w <= ramp.delta:
            out[i] = 0.0
        elif si + w / 2.0 >= ramp.eps + np.sqrt(ramp.eps):
            out[i] = ramp.plateau if k == 0 else 0.0
        else:
            out[i] = _window_quad(ramp, si, f)
            if k == 2:
                out[i] += ramp._kink_jump * float(
                    _masked_kernel(ramp, np.array([ramp.delta - si]))[0])
    return out


@pytest.mark.parametrize("delta, eps", [(DELTA, EPS), (0.05 ** 2 / 8, 0.05)])
def test_batched_ramp_matches_per_point_window_loop(delta, eps):
    ramp = RampProfile(delta, eps)
    w = ramp.width
    b = np.concatenate([ramp.exact.breaks - w, ramp.exact.breaks - w / 2,
                        ramp.exact.breaks])
    s = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                        np.linspace(-0.01, 1.2 * (eps + np.sqrt(eps)), 400),
                        np.random.default_rng(3).uniform(-0.01, 0.3, 100)])
    for k, name in enumerate(("value", "d1", "d2")):
        ref = _per_point_ramp(ramp, k, s)
        assert np.array_equal(getattr(ramp, name)(s), ref)
        assert getattr(ramp, name)(float(s[5])) == ref[5]
