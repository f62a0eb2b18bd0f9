import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesub.pointgroup import TE, TM, O3IrrepId
from modesub.sphwave import POLE_BISECTION_TOL, poles
from modesub.subduction import ParityFilter
from modesub.tracediagram import (
    MAX_DIAGRAM_ORDER,
    CrossingEvent,
    build_diagram,
    find_crossings,
    predict_avoidances,
    shared_irreps,
)

LO = 0.05 * np.pi
HI = 2.0 * np.pi

# frozen labels for the octahedral diagram up to t=3
OH_LABELS = {
    "t=1,TE": "T_1g:1",
    "t=1,TM": "T_1u:1",
    "t=2,TE": "E_u:1 T_2u:1",
    "t=2,TM": "E_g:1 T_2g:1",
    "t=3,TE": "A_2g:1 T_1g:1 T_2g:1",
    "t=3,TM": "A_2u:1 T_1u:1 T_2u:1",
}


def test_diagram_labels_and_grid():
    d = build_diagram(3, LO, HI, 200, "O_h")
    assert {str(tr.source): str(tr.label) for tr in d} == OH_LABELS
    for tr in d:
        assert len(tr.kr) == 200
        assert tr.kr[0] == pytest.approx(LO)
        assert tr.kr[-1] == pytest.approx(HI)


def test_filtered_diagram_labels():
    d = build_diagram(2, LO, HI, 50, "C_4v", parity=ParityFilter("odd"))
    got = {str(tr.source): str(tr.label) for tr in d}
    assert got == {
        "t=1,TE": "E:1",
        "t=1,TM": "A_1:1",
        "t=2,TE": "A_2:1 B_1:1 B_2:1",
        "t=2,TM": "E:1",
    }


def test_diagram_poles_match_interval_scan():
    # the t=3 TM and t=1 TM poles sit within one cell outside [lo, hi]: the
    # mask scan is padded by a cell and sees them, the stored poles do not
    lo, hi = 1.5832 * np.pi, 1.9469 * np.pi
    d = build_diagram(6, lo, hi, 300, "O_h")
    by = {str(tr.source): tr for tr in d}
    assert by["t=3,TM"].pole_adjacent[0] and by["t=1,TM"].pole_adjacent[-1]
    assert sum(len(tr.poles) for tr in d) > 0
    for tr in d:
        want = poles(tr.source, lo, hi)
        assert len(tr.poles) == len(want), str(tr.source)
        assert np.allclose(tr.poles, want, rtol=0, atol=POLE_BISECTION_TOL)
        assert all(lo <= p <= hi for p in tr.poles)


def test_shared_irreps():
    d = build_diagram(3, LO, HI, 50, "O_h")
    by = {str(tr.source): tr for tr in d}
    assert shared_irreps(by["t=1,TM"], by["t=3,TM"]) == ("T_1u",)
    assert shared_irreps(by["t=1,TE"], by["t=1,TM"]) == ()
    assert shared_irreps(by["t=1,TE"], by["t=3,TE"]) == ("T_1g",)


def test_forbidden_crossing_t1_t3_tm():
    d = build_diagram(3, LO, HI, 800, "O_h")
    events = find_crossings(d)
    by = {str(tr.source): i for i, tr in enumerate(d)}
    forb = [ev for ev in events if ev.forbidden]
    mine = [ev for ev in forb
            if {ev.index_a, ev.index_b} == {by["t=1,TM"], by["t=3,TM"]}]
    assert len(mine) == 1
    ev = mine[0]
    assert ev.kr_star / np.pi == pytest.approx(0.78, abs=0.05)
    assert ev.shared == ("T_1u",)


def test_te_tm_t1_pair_clean():
    d = build_diagram(1, LO, HI, 800, "O_h")
    events = find_crossings(d)
    assert [ev for ev in events if ev.forbidden] == []


def test_pole_slopes_do_not_fake_crossings():
    # between two pole-bracketing samples every trace cuts through its
    # neighbors; those cells are excluded
    d = build_diagram(3, LO, HI, 120, "O_h")
    events = find_crossings(d)
    for ev in events:
        a, b = d[ev.index_a], d[ev.index_b]
        i = int(np.searchsorted(a.kr, ev.kr_star)) - 1
        assert not a.pole_adjacent[i] and not b.pole_adjacent[i]


def test_avoidance_orientation():
    d = build_diagram(3, LO, HI, 800, "O_h")
    avo = predict_avoidances(d)
    assert len(avo) == 1
    av = avo[0]
    assert av.affected == ("T_1u",)
    assert str(av.lower_source) == "t=3,TM"
    assert str(av.upper_source) == "t=1,TM"
    # orientation re-derived from the samples just before the intersection
    by = {str(tr.source): tr for tr in d}
    i = int(np.searchsorted(by["t=1,TM"].kr, av.event.kr_star)) - 1
    assert by["t=3,TM"].lam[i] < by["t=1,TM"].lam[i]


def test_diagram_rejects_mixed_grids():
    d1 = build_diagram(1, LO, HI, 50, "O_h")
    d2 = build_diagram(1, LO, HI, 60, "O_h")
    with pytest.raises(ValueError):
        find_crossings([d1[0], d2[1]])


def test_order_cap():
    with pytest.raises(ValueError):
        build_diagram(MAX_DIAGRAM_ORDER + 1, LO, HI, 16, "O_h")


def test_sources_cover_both_polarizations():
    d = build_diagram(2, LO, HI, 16, "O_h")
    srcs = {(tr.source.t, tr.source.s) for tr in d}
    assert srcs == {(1, TE), (1, TM), (2, TE), (2, TM)}
    assert all(isinstance(tr.source, O3IrrepId) for tr in d)


def _loop_find_crossings(diagram):
    """find_crossings as a per-sample loop, kept as its oracle."""
    events = []
    for ia in range(len(diagram)):
        for ib in range(ia + 1, len(diagram)):
            a, b = diagram[ia], diagram[ib]
            shared = shared_irreps(a, b)
            with np.errstate(invalid="ignore"):
                diff = a.lam - b.lam
            usable = (np.isfinite(a.lam) & np.isfinite(b.lam)
                      & ~a.pole_adjacent & ~b.pole_adjacent)
            for i in range(len(a.kr) - 1):
                if not (usable[i] and usable[i + 1]):
                    continue
                d0, d1 = diff[i], diff[i + 1]
                if d0 == 0.0:
                    kr_star = float(a.kr[i])
                    lam_star = float(a.lam[i])
                elif d0 * d1 < 0.0:
                    frac = d0 / (d0 - d1)
                    kr_star = float(a.kr[i] + frac * (a.kr[i + 1] - a.kr[i]))
                    lam_star = float(a.lam[i] + frac * (a.lam[i + 1] - a.lam[i]))
                else:
                    continue
                events.append(CrossingEvent(ia, ib, a.source, b.source,
                                            kr_star, lam_star, shared,
                                            bool(shared)))
    return events


# a few repeated values make exact d0 == 0 cells and ties common
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, np.inf, -np.inf, np.nan]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


# labels with and without shared irreps; samples and masks are drawn
_BASE = build_diagram(3, LO, HI, 2, "O_h")


@st.composite
def _random_diagram(draw):
    size = draw(st.integers(2, 12))
    count = draw(st.integers(2, 4))
    picks = draw(st.lists(st.sampled_from(_BASE),
                          min_size=count, max_size=count))
    return [replace(tr, kr=np.linspace(LO, HI, size),
                    lam=np.array(draw(st.lists(_SAMPLE, min_size=size,
                                               max_size=size))),
                    pole_adjacent=np.array(draw(st.lists(
                        st.booleans(), min_size=size, max_size=size))))
            for tr in picks]


@settings(max_examples=300, deadline=None)
@given(_random_diagram())
def test_find_crossings_equals_sample_loop(diagram):
    assert find_crossings(diagram) == _loop_find_crossings(diagram)


def test_full_diagram_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = build_diagram(12, LO, HI, 4000, "O_h")
        find_crossings(d)
