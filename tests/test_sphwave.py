import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

from modesub.pointgroup import O3IrrepId
from modesub import sphwave
from modesub.sphwave import (
    TE,
    TM,
    ModeIndex,
    _ratio,
    eigenvalue,
    index_to_mode,
    mode_index,
    poles,
    sample_trace,
    spherical_bessel,
)

# first positive zero of j_1, from bisection on the closed form
# sin(x)/x^2 - cos(x)/x; brentq re-derives it below
J1_FIRST_ZERO = 4.493409457909064


def test_bessel_against_scipy():
    worst = 0.0
    for t in range(16):
        for x in np.linspace(0.05 * np.pi, 2.5 * np.pi, 40):
            jt = spherical_bessel("j", t, x)
            yt = spherical_bessel("y", t, x)
            ref_j = special.spherical_jn(t, x)
            ref_y = special.spherical_yn(t, x)
            scale = max(abs(ref_j), 1e-30)
            worst = max(worst, abs(jt - ref_j) / scale)
            scale = max(abs(ref_y), 1e-30)
            worst = max(worst, abs(yt - ref_y) / scale)
    assert worst < 1e-10


def test_bessel_small_argument_downward_branch():
    # x far below t forces the downward recurrence
    for t in (8, 15, 25):
        x = 0.3
        ref = special.spherical_jn(t, x)
        assert spherical_bessel("j", t, x) == pytest.approx(ref, rel=1e-10)


def test_wronskian_identity():
    for t in range(1, 12):
        for x in np.linspace(0.2, 8.0, 25):
            jt = spherical_bessel("j", t, x)
            yt = spherical_bessel("y", t, x)
            jm = spherical_bessel("j", t - 1, x)
            ym = spherical_bessel("y", t - 1, x)
            lhs = jt * ym - jm * yt
            assert lhs * x * x == pytest.approx(1.0, rel=1e-9)


def test_eigenvalues_at_pi_closed_form():
    assert eigenvalue(O3IrrepId(1, TE), math.pi) == pytest.approx(
        -1.0 / math.pi, abs=1e-9)
    assert eigenvalue(O3IrrepId(1, TM), math.pi) == pytest.approx(
        math.pi - 1.0 / math.pi, abs=1e-9)


def test_eigenvalue_matches_direct_ratio():
    # independent route: assemble the TE/TM ratios from scipy directly
    for t in (1, 2, 3, 5):
        for x in (1.3, 2.9, 4.1, 6.7):
            te = -special.spherical_yn(t, x) / special.spherical_jn(t, x)
            assert eigenvalue(O3IrrepId(t, TE), x) == pytest.approx(te, rel=1e-9)
            num = x * special.spherical_yn(t - 1, x) - t * special.spherical_yn(t, x)
            den = x * special.spherical_jn(t - 1, x) - t * special.spherical_jn(t, x)
            assert eigenvalue(O3IrrepId(t, TM), x) == pytest.approx(
                -num / den, rel=1e-9)


def test_first_te_pole_bisection():
    got = poles(O3IrrepId(1, TE), 0.5, 5.0)
    assert len(got) == 1
    assert got[0] == pytest.approx(J1_FIRST_ZERO, abs=1e-6)
    # oracle recomputed in place
    ref = brentq(lambda x: math.sin(x) / x ** 2 - math.cos(x) / x, 4.0, 5.0,
                 xtol=1e-12)
    assert ref == pytest.approx(J1_FIRST_ZERO, abs=1e-10)
    assert got[0] == pytest.approx(ref, abs=1e-8)


def test_pole_approach_signs():
    # below the pole the trace runs to -inf, above it comes down from +inf
    x0 = J1_FIRST_ZERO
    wave = O3IrrepId(1, TE)
    assert eigenvalue(wave, x0 - 1e-4) < -1e3
    assert eigenvalue(wave, x0 + 1e-4) > 1e3


@pytest.mark.parametrize("t", [1, 7, 12])
def test_tiny_kr_keeps_the_small_argument_limit(t):
    # y_t overflows there; TM must not turn inf - inf into a sign flip
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalue(O3IrrepId(t, TM), 1e-10) < -1e29
        for x in (1e-30, 1e-200):
            assert eigenvalue(O3IrrepId(t, TM), x) == -math.inf
            assert eigenvalue(O3IrrepId(t, TE), x) == math.inf
        lam, _ = sample_trace(O3IrrepId(t, TM), np.array([1e-200, 1e-30, 1.0]))
    assert lam[:2].tolist() == [-math.inf, -math.inf]
    assert lam[2] == eigenvalue(O3IrrepId(t, TM), 1.0)


def test_kr_below_the_smallest_normal_float_is_rejected():
    # scipy's spherical_jn(t >= 1, x) is NaN at subnormal x; the sphere
    # layer must refuse such kR rather than return NaN
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1, 12):
            assert eigenvalue(O3IrrepId(t, TM), tiny) == -math.inf
            assert eigenvalue(O3IrrepId(t, TE), tiny) == math.inf
            assert eigenvalue(O3IrrepId(t, TM), 1e-300) == -math.inf
        lam, _ = sample_trace(O3IrrepId(1, TE), np.array([tiny, 1e-300, 1.0]))
        assert lam[:2].tolist() == [math.inf, math.inf]
        for bad in (np.nextafter(tiny, 0.0), 1e-310, 5e-324, 0.0, -1.0,
                    math.nan, math.inf):
            with pytest.raises(ValueError, match="kR must be positive"):
                eigenvalue(O3IrrepId(1, TE), bad)
            with pytest.raises(ValueError, match="kR must be positive"):
                spherical_bessel("j", 1, bad)
        for grid in ([1e-310, 0.5, 1.0], [0.5, math.nan, 1.0],
                     [0.5, 1.0, math.inf]):
            with pytest.raises(ValueError, match="kR must be positive"):
                sample_trace(O3IrrepId(1, TE), np.array(grid))
        with pytest.raises(ValueError, match="kR must be positive"):
            poles(O3IrrepId(1, TE), 1e-310, 1.0)
        with pytest.raises(ValueError, match="kR must be positive"):
            poles(O3IrrepId(1, TE), 1.0, math.inf)


def test_exact_pole_gives_signed_infinity():
    wave = O3IrrepId(1, TE)
    found = poles(wave, 0.5, 5.0)[0]
    lam = eigenvalue(wave, found)
    if not math.isfinite(lam):
        assert math.isinf(lam)
    else:
        # bisection point is near but not exactly on the zero; huge either way
        assert abs(lam) > 1e6


def test_tm_poles_match_scipy_zero_scan():
    wave = O3IrrepId(1, TM)
    got = poles(wave, 0.5, 9.0)

    def den(x):
        return (x * special.spherical_jn(0, x)
                - 1 * special.spherical_jn(1, x))

    xs = np.linspace(0.5, 9.0, 2000)
    vals = den(xs)
    ref = [brentq(den, xs[i], xs[i + 1])
           for i in range(len(xs) - 1) if vals[i] * vals[i + 1] < 0]
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a == pytest.approx(b, abs=1e-8)


def test_poles_keep_exact_scan_zeros(monkeypatch):
    # a denominator that vanishes exactly on both scan end points
    monkeypatch.setattr(sphwave, "_riccati",
                        lambda wave, x, f: (x - 1.0) * (x - 2.0))
    assert poles(O3IrrepId(1, TE), 1.0, 2.0) == [1.0, 2.0]


def test_tiny_kr_window_has_no_pole_scan():
    # the padded scan window lies below the 1e-12 floor: nothing to scan
    lam, near = sample_trace(O3IrrepId(1, TE), np.array([1e-13, 2e-13]))
    assert lam.tolist() == [math.inf, math.inf]
    assert near.tolist() == [True, True]


def test_mode_index_round_trip():
    seen = set()
    for t in range(1, 7):
        for s in (TE, TM):
            for m in range(-t, t + 1):
                n = mode_index(t, m, s).n
                assert n not in seen
                seen.add(n)
                back = index_to_mode(n)
                assert (back.t, back.m, back.s) == (t, m, s)
    # indices tile 1..N without gaps
    assert seen == set(range(1, 1 + len(seen)))


def test_mode_index_validation():
    with pytest.raises(ValueError):
        mode_index(0, 0, TE)
    with pytest.raises(ValueError):
        mode_index(2, 3, TE)
    with pytest.raises(ValueError):
        mode_index(1, 0, 7)
    assert mode_index(1, -1, TE) == ModeIndex(1, -1, TE, 1)


def test_sample_trace_flags_pole_neighbors():
    kr = np.linspace(4.0, 5.0, 101)
    lam, near = sample_trace(O3IrrepId(1, TE), kr)
    inside = (kr > 4.48) & (kr < 4.51)
    assert near[inside].any()
    far = (kr < 4.2) | (kr > 4.8)
    assert not near[far].any()
    assert np.isfinite(lam[~near]).all()


def test_sample_trace_rejects_bad_grids():
    wave = O3IrrepId(1, TE)
    with pytest.raises(ValueError):
        sample_trace(wave, np.array([1.0]))
    with pytest.raises(ValueError):
        sample_trace(wave, np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="kR must be positive"):
        sample_trace(wave, np.linspace(0.0, 1.0, 5))


def _scipy_riccati(t, s, x):
    if s == TE:
        return special.spherical_yn(t, x), special.spherical_jn(t, x)
    return (x * special.spherical_yn(t - 1, x) - t * special.spherical_yn(t, x),
            x * special.spherical_jn(t - 1, x) - t * special.spherical_jn(t, x))


def test_sample_trace_full_diagram_grid_matches_scipy():
    # the grid `predict --tmax 12 --grid 4000` samples; its last point is
    # kR = 2pi, where j_0 vanishes to rounding
    kr = np.linspace(0.05 * np.pi, 2.0 * np.pi, 4000)
    total_poles = total_ref = 0
    for t in range(1, 13):
        for s in (TE, TM):
            lam, near = sample_trace(O3IrrepId(t, s), kr)
            num, den = _scipy_riccati(t, s, kr)
            free = ~near
            ref = -num[free] / den[free]
            assert np.all(np.abs(lam[free] - ref) <= 1e-9 * np.abs(ref)), (t, s)
            if t >= 7:
                assert np.isfinite(lam[-1]) and not near[-1], (t, s)

            got = poles(O3IrrepId(t, s), kr[0], kr[-1])
            ref_poles = [brentq(lambda x: _scipy_riccati(t, s, x)[1],
                                kr[i], kr[i + 1], xtol=1e-14)
                         for i in np.flatnonzero(den[:-1] * den[1:] < 0)]
            assert len(got) == len(ref_poles), (t, s)
            assert np.allclose(got, ref_poles, rtol=0, atol=1e-9)
            total_poles += len(got)
            total_ref += len(ref_poles)
    assert total_poles == total_ref == 7


def seed_poles(wave, lo, hi):
    """The brentq pole finder sphwave.poles replaced, kept as its oracle."""
    den = lambda x: _scipy_riccati(wave.t, wave.s, x)[1]
    step = math.pi / sphwave.POLE_SCAN_DENSITY
    count = max(2, int(math.ceil((hi - lo) / step)) + 1)
    xs = np.linspace(lo, hi, count)
    vals = den(xs)
    found = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        if vals[i] == 0.0:
            found.append(float(xs[i]))
        else:
            found.append(brentq(den, float(xs[i]), float(xs[i + 1]),
                                xtol=sphwave.POLE_BISECTION_TOL))
    if vals[-1] == 0.0:
        found.append(float(xs[-1]))
    return found


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from([TE, TM]),
       st.floats(1e-3, 60.0), st.floats(1e-3, 60.0))
def test_poles_match_brentq_oracle(t, s, a, b):
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi)
    wave = O3IrrepId(t, s)
    got, want = poles(wave, lo, hi), seed_poles(wave, lo, hi)
    assert len(got) == len(want)
    assert np.all(np.abs(np.subtract(got, want))
                  <= 2 * sphwave.POLE_BISECTION_TOL)


def test_pole_bisection_ends_at_large_kr(monkeypatch):
    # one ulp of 1e7 exceeds POLE_BISECTION_TOL: a fixed halving count, not
    # a bracket width, must end the refinement
    calls = []
    riccati = sphwave._riccati

    def counted(wave, x, f):
        calls.append(f)
        return riccati(wave, x, f)

    monkeypatch.setattr(sphwave, "_riccati", counted)
    wave = O3IrrepId(1, TE)
    got = poles(wave, 1e7, 1e7 + 4.0)
    halvings = math.ceil(math.log2(math.pi / sphwave.POLE_SCAN_DENSITY
                                   / sphwave.POLE_BISECTION_TOL))
    assert halvings == 23
    assert calls == [special.spherical_jn] * (1 + halvings)
    want = seed_poles(wave, 1e7, 1e7 + 4.0)
    assert len(got) == len(want) == 1
    assert abs(got[0] - want[0]) <= 2 * sphwave.POLE_BISECTION_TOL \
        + 4 * np.spacing(1e7)
    # a scan with no sign change runs no halvings
    calls.clear()
    assert poles(wave, 1.0, 2.0) == [] and len(calls) == 1


def _scalar_pole_rule(num, den):
    """The scalar eigenvalue rule _ratio vectorises, kept as its oracle."""
    if abs(den) < 1e-13:
        if den != 0.0:
            return math.inf if -num / den > 0 else -math.inf
        return -math.copysign(math.inf, num)
    return -num / den


_NEAR_POLE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-14, -1e-14,
                              9.9e-14, 1e-13, -1e-13])
_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_NEAR_POLE, _VALUES),
                          st.one_of(_NEAR_POLE, _VALUES)), min_size=1))
def test_ratio_matches_scalar_rule(pairs):
    num, den = np.array(pairs).T
    got = _ratio(num, den)
    want = [_scalar_pole_rule(float(a), float(b)) for a, b in pairs]
    assert [repr(float(v)) for v in got] == [repr(v) for v in want]
    for a, b in pairs:
        assert repr(float(_ratio(a, b))) == repr(_scalar_pole_rule(a, b))
