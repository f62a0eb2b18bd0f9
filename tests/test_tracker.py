from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modesub import tracker
from modesub.tracker import (
    DEFAULT_JUMP_THRESHOLD,
    AvoidanceSignature,
    Snapshot,
    TrackOptions,
    TrackedTrace,
    TracePoint,
    correlation,
    detect_avoidances,
    split_at_poles,
    track,
)


def three_curve_snapshots(rng, shuffle=True):
    freqs = np.linspace(0.0, 4.0, 50)
    basis = np.linalg.qr(rng.normal(size=(6, 3)))[0]
    curves = [
        lambda f: np.sin(3.0 * f),
        lambda f: 0.5 * f * f - 1.0,
        lambda f: np.cos(2.0 * f) + 2.0,
    ]
    snaps = []
    perms = []
    for f in freqs:
        lam = np.array([c(f) for c in curves])
        perm = rng.permutation(3) if shuffle else np.arange(3)
        snaps.append(Snapshot(f, lam[perm], basis[:, perm]))
        perms.append(perm)
    return freqs, curves, snaps, perms


def test_shuffled_recovery_is_exact():
    rng = np.random.default_rng(7)
    freqs, curves, snaps, perms = three_curve_snapshots(rng)
    traces = track(snaps, TrackOptions(enforce_no_crossing=False))
    assert len(traces) == 3
    for tr in traces:
        assert len(tr.points) == 50
        # each trace follows exactly one of the generating curves
        errs = [np.abs(tr.lambdas - c(freqs)).max() for c in curves]
        assert min(errs) == 0.0


def test_unshuffled_is_identity():
    rng = np.random.default_rng(3)
    _, _, snaps, _ = three_curve_snapshots(rng, shuffle=False)
    traces = track(snaps, TrackOptions(enforce_no_crossing=False))
    for k, tr in enumerate(sorted(traces, key=lambda t: t.points[0].mode_index)):
        assert [p.mode_index for p in tr.points] == [k] * 50


def test_labels_partition_assignment():
    # same eigenvalue collisions in different irreps stay separated
    rng = np.random.default_rng(11)
    freqs = np.linspace(0.0, 2.0, 40)
    snaps = []
    for f in freqs:
        lam = np.array([f, -f, f, -f])
        snaps.append(Snapshot(f, lam, rng.normal(size=(8, 4)),
                              labels=("A_1", "A_1", "B_2", "B_2")))
    traces = track(snaps, TrackOptions(enforce_no_crossing=False))
    assert len(traces) == 4
    assert sorted(tr.irrep for tr in traces) == ["A_1", "A_1", "B_2", "B_2"]
    for tr in traces:
        assert len(tr.points) == 40


def test_no_crossing_enforcement_sign():
    # two same-irrep curves that cross get reassigned so the ordering never flips
    rng = np.random.default_rng(5)
    freqs = np.linspace(-1.0, 1.0, 41)
    v = np.eye(2)
    snaps = [Snapshot(f, np.array([f, -f]), v, labels=("A_1", "A_1"))
             for f in freqs]
    traces = track(snaps, TrackOptions())
    assert len(traces) == 2
    a, b = sorted(traces, key=lambda t: t.points[0].lam)
    diff = b.lambdas - a.lambdas
    assert np.all(diff >= 0.0)
    # and without enforcement the correlation keeps the crossing: the trace
    # that starts below ends above
    raw = track(snaps, TrackOptions(enforce_no_crossing=False))
    ra, rb = sorted(raw, key=lambda t: t.points[0].lam)
    rdiff = rb.lambdas - ra.lambdas
    assert rdiff[-1] < 0.0 < rdiff[0]


def test_different_irreps_may_cross():
    freqs = np.linspace(-1.0, 1.0, 21)
    v = np.eye(2)
    snaps = [Snapshot(f, np.array([f, -f]), v, labels=("A_1", "B_1"))
             for f in freqs]
    traces = track(snaps, TrackOptions())
    a, b = sorted(traces, key=lambda t: t.points[0].lam)
    diff = b.lambdas - a.lambdas
    assert diff[-1] < 0.0 < diff[0]


def test_birth_and_death():
    v3 = np.eye(3)
    snaps = [
        Snapshot(0.0, np.array([0.0, 1.0]), v3[:, :2]),
        Snapshot(1.0, np.array([0.1, 1.1, 2.0]), v3),
        Snapshot(2.0, np.array([0.2, 1.2, 2.1]), v3),
        Snapshot(3.0, np.array([0.3, 2.2]), v3[:, [0, 2]]),
    ]
    traces = track(snaps, TrackOptions(enforce_no_crossing=False))
    assert len(traces) == 3
    by_first = {tr.points[0].lam: tr for tr in traces}
    long = by_first[0.0]
    assert len(long.points) == 4 and long.events == []
    dead = by_first[1.0]
    assert len(dead.points) == 3
    assert [ev["kind"] for ev in dead.events] == ["death"]
    assert dead.events[0]["frequency"] == 2.0
    born = by_first[2.0]
    assert len(born.points) == 3
    assert [ev["kind"] for ev in born.events] == ["birth"]
    assert born.events[0]["frequency"] == 1.0


def test_partition_stress():
    # random permutations, several irreps, thirty trials
    rng = np.random.default_rng(2024)
    labels = ("A_1", "A_1", "E", "E", "B_2")
    for _ in range(30):
        freqs = np.linspace(0.0, 1.0, 12)
        basis = np.linalg.qr(rng.normal(size=(9, 5)))[0]
        slopes = rng.uniform(-2.0, 2.0, size=5)
        offsets = rng.uniform(-1.0, 1.0, size=5)
        snaps = []
        for f in freqs:
            lam = slopes * f + offsets
            perm = rng.permutation(5)
            snaps.append(Snapshot(f, lam[perm], basis[:, perm],
                                  labels=tuple(labels[i] for i in perm)))
        traces = track(snaps, TrackOptions(enforce_no_crossing=False))
        assert len(traces) == 5
        recovered = sorted(
            (tr.points[0].lam, tr.irrep, tuple(tr.lambdas)) for tr in traces)
        expect = sorted(
            (offsets[i], labels[i], tuple(slopes[i] * freqs + offsets[i]))
            for i in range(5))
        for got, want in zip(recovered, expect):
            assert got[1] == want[1]
            assert np.allclose(got[2], want[2])


def test_correlation_weighted():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(4, 1))
    w = np.diag(rng.uniform(0.5, 2.0, size=4))
    assert correlation(v, v, w)[0, 0] == pytest.approx(1.0)
    assert correlation(v, -2.5 * v, w)[0, 0] == pytest.approx(1.0)
    u = rng.normal(size=(4, 1))
    c = correlation(v, u, w)[0, 0]
    num = abs(v[:, 0] @ w @ u[:, 0])
    den = np.sqrt(v[:, 0] @ w @ v[:, 0]) * np.sqrt(u[:, 0] @ w @ u[:, 0])
    assert c == pytest.approx(num / den)
    assert 0.0 <= c <= 1.0
    # pairwise shape over several columns at once
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 2))
    assert correlation(a, b).shape == (3, 2)


def test_pole_split_on_dense_grid():
    from modesub.pointgroup import TE, O3IrrepId
    from modesub.sphwave import eigenvalue

    freqs = np.linspace(4.4, 4.6, 2001)
    lam = np.array([eigenvalue(O3IrrepId(1, TE), f) for f in freqs])
    tr = TrackedTrace(0, "T_1g",
                      [TracePoint(f, l, 0) for f, l in zip(freqs, lam)], [])
    pieces = split_at_poles(tr)
    assert len(pieces) == 2
    below, above = pieces
    assert below.id == above.id == 0
    assert below.lambdas[-1] < -DEFAULT_JUMP_THRESHOLD
    assert above.lambdas[0] > DEFAULT_JUMP_THRESHOLD
    ev = below.events[-1]
    assert ev["kind"] == "pole-split"
    lo, hi = ev["interval"]
    assert lo < 4.49340946 < hi
    assert hi - lo == pytest.approx(1e-4, rel=1e-6)


def test_pole_split_reversed():
    freqs = np.linspace(0.0, 1.0, 5)
    lam = np.array([1.0, 2e3, -2e3, -1.0, 0.0])
    tr = TrackedTrace(4, "A_1",
                      [TracePoint(f, l, 1) for f, l in zip(freqs, lam)],
                      [{"kind": "birth", "frequency": 0.0},
                       {"kind": "death", "frequency": 1.0}])
    pieces = split_at_poles(tr)
    assert len(pieces) == 2
    assert pieces[0].events[0]["kind"] == "birth"
    assert pieces[0].events[-1]["kind"] == "pole-split-reversed"
    assert pieces[1].events == [{"kind": "death", "frequency": 1.0}]


def test_split_leaves_bounded_trace_alone():
    freqs = np.linspace(0.0, 1.0, 9)
    tr = TrackedTrace(2, "E",
                      [TracePoint(f, np.sin(f), 0) for f in freqs], [])
    assert split_at_poles(tr) == [tr]


def test_detect_avoidance_kinds():
    freqs = np.linspace(-1.0, 1.0, 201)
    for gap, kind in ((0.01, "MICA"), (5.0, "MACA")):
        lower = np.sqrt(freqs ** 2 + 0.25 * gap ** 2) * -1.0
        upper = -lower
        traces = [
            TrackedTrace(0, "T_1u",
                         [TracePoint(f, l, 0) for f, l in zip(freqs, upper)],
                         []),
            TrackedTrace(1, "T_1u",
                         [TracePoint(f, l, 1) for f, l in zip(freqs, lower)],
                         []),
        ]
        sigs = detect_avoidances(traces)
        assert len(sigs) == 1
        sig = sigs[0]
        assert sig.kind == kind
        assert sig.microscopic == (kind == "MICA")
        assert (sig.lower_id, sig.upper_id) == (1, 0)
        assert sig.irrep == "T_1u"
        assert sig.frequency == pytest.approx(0.0, abs=0.02)
        assert sig.gap == pytest.approx(gap, rel=1e-3)


def test_avoidance_needs_matching_irrep():
    freqs = np.linspace(-1.0, 1.0, 101)
    a = TrackedTrace(0, "A_1",
                     [TracePoint(f, abs(f) + 0.1, 0) for f in freqs], [])
    b = TrackedTrace(1, "B_1",
                     [TracePoint(f, -abs(f) - 0.1, 1) for f in freqs], [])
    assert detect_avoidances([a, b]) == []


def test_single_snapshot():
    v = np.eye(3)
    traces = track([Snapshot(1.0, np.array([-1.0, 0.0, 1.0]), v)],
                   TrackOptions())
    assert len(traces) == 3
    for tr in traces:
        assert len(tr.points) == 1
        assert tr.points[0].frequency == 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        track([], TrackOptions())
    with pytest.raises(ValueError):
        Snapshot(0.0, np.array([1.0, 2.0]), np.eye(3))
    with pytest.raises(ValueError):
        Snapshot(0.0, np.array([1.0]), np.eye(1), labels=("A_1", "B_1"))
    v2, v3 = np.eye(2), np.eye(3)
    with pytest.raises(ValueError):
        track([Snapshot(0.0, np.zeros(2), v2),
               Snapshot(1.0, np.zeros(3), v3)], TrackOptions())


def test_snapshots_sorted_by_frequency():
    v = np.eye(2)
    snaps = [Snapshot(f, np.array([f, f + 1.0]), v) for f in (2.0, 0.0, 1.0)]
    traces = track(snaps, TrackOptions(enforce_no_crossing=False))
    for tr in traces:
        assert list(tr.frequencies) == [0.0, 1.0, 2.0]


def seed_detect_avoidances(traces, gap_threshold=1.0):
    """The per-pair loop detect_avoidances replaced, kept as its oracle."""
    out = []
    for ia in range(len(traces)):
        for ib in range(ia + 1, len(traces)):
            a, b = traces[ia], traces[ib]
            if a.irrep is None or a.irrep != b.irrep:
                continue
            fa, la = a.frequencies, a.lambdas
            fb, lb = b.frequencies, b.lambdas
            if len(fa) < 2 or len(fb) < 2:
                continue
            lo = max(fa.min(), fb.min())
            hi = min(fa.max(), fb.max())
            if hi <= lo:
                continue
            grid = np.union1d(fa, fb)
            grid = grid[(grid >= lo) & (grid <= hi)]
            if len(grid) < 3:
                continue
            ga = np.interp(grid, fa, la)
            gb = np.interp(grid, fb, lb)
            gap = np.abs(ga - gb)
            for i in range(1, len(grid) - 1):
                if gap[i] <= gap[i - 1] and gap[i] < gap[i + 1]:
                    lower, upper = (a, b) if ga[i] <= gb[i] else (b, a)
                    kind = "MICA" if gap[i] <= gap_threshold else "MACA"
                    out.append(AvoidanceSignature(lower.id, upper.id, a.irrep,
                                                  float(grid[i]),
                                                  float(gap[i]), kind))
    return out


# frequencies come from one small grid, so traces share frequency arrays,
# start late (births), stop early (deaths) or skip points (ragged grids);
# lambdas come from a few levels, so gaps tie
_FREQS = [0.0, 0.5, 1.0, 1.25, 2.0, 3.0, 3.5]
_LAMBDAS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                     st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def trace_sets(draw):
    count = draw(st.integers(0, 9))
    traces = []
    ids = draw(st.permutations(range(count)))
    for k in range(count):
        shape = draw(st.sampled_from(["full", "span", "subset"]))
        if shape == "full":
            freqs = _FREQS
        elif shape == "span":
            lo = draw(st.integers(0, len(_FREQS) - 1))
            hi = draw(st.integers(lo, len(_FREQS) - 1))
            freqs = _FREQS[lo:hi + 1]
        else:
            freqs = sorted(draw(st.sets(st.sampled_from(_FREQS))))
        lams = draw(st.lists(_LAMBDAS, min_size=len(freqs),
                             max_size=len(freqs)))
        irrep = draw(st.sampled_from([None, "A_1", "A_1", "E"]))
        traces.append(TrackedTrace(
            ids[k], irrep,
            [TracePoint(f, lam, k) for f, lam in zip(freqs, lams)], []))
    return traces


def _trace(tid, freqs, lams, irrep="A_1"):
    return TrackedTrace(tid, irrep, [TracePoint(float(f), float(lam), 0)
                                     for f, lam in zip(freqs, lams)], [])


@settings(max_examples=300, deadline=None)
@given(traces=trace_sets(), threshold=st.sampled_from([0.0, 0.5, 1.0]))
# traces 1 and 2 touch (gap 0) at f = 1; the earlier one, 1, is the lower
# although trace 2's frequency array was seen first
@example(traces=[_trace(0, [0, 1, 2], [5, 5, 5]),
                 _trace(1, [0, 1, 2, 3], [1, 0, 1, 2]),
                 _trace(2, [0, 1, 2], [-1, 0, -1])], threshold=1.0)
def test_detect_avoidances_matches_pair_loop(traces, threshold):
    got = detect_avoidances(traces, threshold)
    want = seed_detect_avoidances(traces, threshold)
    assert got == want
    assert [(s.frequency, s.gap) for s in got] == \
        [(s.frequency, s.gap) for s in want]
    assert all(type(s.frequency) is float and type(s.gap) is float
               for s in got)


def test_detect_avoidances_in_chunks(monkeypatch):
    # a chunk smaller than one row of gaps splits every group pair
    rng = np.random.default_rng(9)
    freqs = np.linspace(0.0, 1.0, 12)
    traces = [TrackedTrace(k, "T_2g",
                           [TracePoint(f, lam, k) for f, lam in
                            zip(freqs, rng.normal(size=len(freqs)))], [])
              for k in range(6)]
    want = seed_detect_avoidances(traces)
    assert len(want) > 10
    monkeypatch.setattr(tracker, "_GAP_CHUNK", 1)
    assert detect_avoidances(traces) == want


def test_labelled_birth_and_death_keep_rank_order():
    # A_1 gains a mode at f = 1 and loses one at f = 3, E dies after f = 1
    # and B_1 is born at f = 3; the correlations (unit vectors) would hand
    # the surviving A_1 modes over crosswise at f = 3, rank order does not
    e = np.eye(4)
    snaps = [
        Snapshot(0.0, np.array([0.0, 1.0, 5.0]), e[:, [0, 1, 3]],
                 ("A_1", "A_1", "E")),
        Snapshot(1.0, np.array([0.1, 1.1, 2.0, 5.1]), e[:, [0, 1, 2, 3]],
                 ("A_1", "A_1", "A_1", "E")),
        Snapshot(2.0, np.array([2.1, 0.2, 1.2]), e[:, [2, 0, 1]],
                 ("A_1", "A_1", "A_1")),
        Snapshot(3.0, np.array([2.5, 0.3, -1.0]), e[:, [0, 2, 3]],
                 ("A_1", "A_1", "B_1")),
    ]
    traces = track(snaps)
    assert [(tr.id, tr.irrep, list(tr.frequencies), list(tr.lambdas),
             [p.mode_index for p in tr.points], tr.events)
            for tr in traces] == [
        (0, "A_1", [0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 0.2, 0.3], [0, 0, 1, 1],
         []),
        (1, "A_1", [0.0, 1.0, 2.0], [1.0, 1.1, 1.2], [1, 1, 2],
         [{"kind": "death", "frequency": 2.0}]),
        (2, "E", [0.0, 1.0], [5.0, 5.1], [2, 3],
         [{"kind": "death", "frequency": 1.0}]),
        (3, "A_1", [1.0, 2.0, 3.0], [2.0, 2.1, 2.5], [2, 0, 0],
         [{"kind": "birth", "frequency": 1.0}]),
        (4, "B_1", [3.0], [-1.0], [2], [{"kind": "birth", "frequency": 3.0}]),
    ]
    assert traces == seed_track(snaps)
    raw = track(snaps, TrackOptions(enforce_no_crossing=False))
    assert list(raw[0].lambdas) == [0.0, 0.1, 0.2, 2.5]
    assert list(raw[3].lambdas) == [2.0, 2.1, 0.3]


@pytest.mark.parametrize("frequencies, message", [
    ([2.0, 1.0, 3.0, 1.0], "two snapshots at frequency 1.0"),
    ([0.0, float("nan")], "snapshot frequency nan is not finite"),
    ([-np.inf, 0.0], "snapshot frequency -inf is not finite"),
])
def test_repeated_or_nonfinite_frequencies_are_rejected(frequencies, message):
    # a trace has one point per frequency and NaN has no place in the
    # order; a Snapshot itself may still hold NaN (fileio round-trips one)
    snaps = [Snapshot(f, np.array([0.0, 1.0]), np.eye(2), ("A_1", "A_1"))
             for f in frequencies]
    for options in (TrackOptions(), TrackOptions(use_labels=False)):
        with pytest.raises(ValueError) as err:
            track(snaps, options)
        assert str(err.value) == message


def seed_track(snapshots, options=None):
    """The correlation assignment plus no-crossing pass that rank pairing
    replaced on labelled sweeps, kept as its oracle."""
    from scipy.optimize import linear_sum_assignment

    options = options or TrackOptions()
    snaps = sorted(snapshots, key=lambda s: s.frequency)
    have_labels = options.use_labels and all(s.labels is not None
                                             for s in snaps)
    traces = []
    active = {}

    def open_trace(snap, k, born=False):
        tid = len(traces)
        tr = TrackedTrace(tid, snap.labels[k] if have_labels else None)
        tr.points.append(TracePoint(snap.frequency, float(snap.lambdas[k]), k))
        if born:
            tr.events.append({"kind": "birth", "frequency": snap.frequency})
        traces.append(tr)
        active[tid] = k

    for k in range(snaps[0].count):
        open_trace(snaps[0], k)
    for prev, nxt in zip(snaps, snaps[1:]):
        prev_ids = list(active)
        groups = {}
        for tid in prev_ids:
            key = traces[tid].irrep if have_labels else None
            groups.setdefault(key, ([], []))[0].append(tid)
        for k in range(nxt.count):
            key = nxt.labels[k] if have_labels else None
            if key in groups:
                groups[key][1].append(k)
        survivors = {}
        for tids, cols in groups.values():
            if not cols:
                continue
            aff = tracker._affinity(prev, nxt, np.array([active[t] for t in tids]),
                                    np.array(cols))
            rows, col_sel = linear_sum_assignment(aff, maximize=True)
            for r, c in zip(rows, col_sel):
                survivors[tids[r]] = cols[c]
        for tid in prev_ids:
            if tid in survivors:
                k = survivors[tid]
                traces[tid].points.append(
                    TracePoint(nxt.frequency, float(nxt.lambdas[k]), k))
                active[tid] = k
            else:
                traces[tid].events.append(
                    {"kind": "death", "frequency": prev.frequency})
                del active[tid]
        matched = set(survivors.values())
        for k in range(nxt.count):
            if k not in matched:
                open_trace(nxt, k, born=True)
    if options.enforce_no_crossing and have_labels:
        _seed_enforce_no_crossing(traces)
    return traces


def _seed_enforce_no_crossing(traces):
    by_irrep = {}
    for tr in traces:
        if tr.irrep is not None:
            by_irrep.setdefault(tr.irrep, []).append(tr)
    for group in by_irrep.values():
        if len(group) < 2:
            continue
        freqs = sorted({p.frequency for tr in group for p in tr.points})
        point_of = [{p.frequency: p for p in tr.points} for tr in group]
        rank_order = []
        new_points = [[] for _ in group]
        for f in freqs:
            present = [i for i in range(len(group)) if f in point_of[i]]
            if not present:
                continue
            pool = sorted((point_of[i][f] for i in present),
                          key=lambda p: p.lam)
            continuing = [i for i in rank_order if i in present]
            newcomers = sorted((i for i in present if i not in continuing),
                               key=lambda i: point_of[i][f].lam)
            slots = [None] * len(pool)
            taken = set()
            for i in newcomers:
                raw = point_of[i][f].lam
                j = min((k for k in range(len(pool)) if k not in taken),
                        key=lambda k: abs(pool[k].lam - raw))
                slots[j] = i
                taken.add(j)
            free = [k for k in range(len(pool)) if slots[k] is None]
            for k, i in zip(free, continuing):
                slots[k] = i
            for k, i in enumerate(slots):
                new_points[i].append(pool[k])
            rank_order = list(slots)
        for i, tr in enumerate(group):
            tr.points = new_points[i]


#: None stands for a mode left unlabelled, which correlation matches
_IRREPS = ("A_1", "E", "T_2", None)


@st.composite
def labelled_sweeps(draw, constant_counts):
    """Snapshots of up to four irreps at distinct frequencies, in no
    particular order, with shuffled columns, random currents and eigenvalues
    drawn partly from a few levels, so same-irrep ties are common."""
    size = draw(st.integers(2, 6))
    freqs = draw(st.lists(st.floats(-5.0, 5.0), min_size=size,
                          max_size=size, unique=True))
    counts = st.lists(st.integers(0, 3), min_size=len(_IRREPS),
                      max_size=len(_IRREPS))
    fixed = draw(counts)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    snaps = []
    for f in freqs:
        labels = [name for name, c in zip(_IRREPS, fixed if constant_counts
                                          else draw(counts))
                  for _ in range(c)]
        lam = draw(st.lists(_LAMBDAS, min_size=len(labels),
                            max_size=len(labels)))
        perm = rng.permutation(len(labels))
        snaps.append(Snapshot(f, np.array(lam, dtype=float)[perm],
                              rng.normal(size=(6, len(labels))),
                              tuple(labels[i] for i in perm)))
    return snaps


def _tied(snaps, point, other):
    """Whether two points of one frequency hold same-irrep, equal-lambda
    modes."""
    snap = next(s for s in snaps if s.frequency == point.frequency)
    i, j = point.mode_index, other.mode_index
    return (snap.labels[i] == snap.labels[j]
            and snap.lambdas[i] == snap.lambdas[j])


def _check_correlation_paths(snaps):
    for options in (TrackOptions(enforce_no_crossing=False),
                    TrackOptions(use_labels=False)):
        assert track(snaps, options) == seed_track(snaps, options)


_TIES = [Snapshot(1.0, np.array([1.0, 0.5, 1.0, 1.0]), np.eye(4),
                  ("E", "A_1", "E", "E")),
         Snapshot(0.0, np.array([1.0, 1.0, 0.0, 1.0]), np.eye(4)[:, ::-1],
                  ("A_1", "E", "E", "E"))]


@settings(max_examples=200, deadline=None)
@given(snaps=labelled_sweeps(constant_counts=True))
@example(snaps=_TIES)
def test_rank_pairing_matches_seed_at_constant_counts(snaps):
    got, want = track(snaps), seed_track(snaps)
    assert [(t.id, t.irrep, t.events) for t in got] == \
        [(t.id, t.irrep, t.events) for t in want]
    for tg, tw in zip(got, want):
        assert list(tg.frequencies) == list(tw.frequencies)
        assert list(tg.lambdas) == list(tw.lambdas)
        for pg, pw in zip(tg.points, tw.points):
            assert pg.mode_index == pw.mode_index or _tied(snaps, pg, pw)
    _check_correlation_paths(snaps)


@settings(max_examples=200, deadline=None)
@given(snaps=labelled_sweeps(constant_counts=False))
def test_rank_pairing_births_and_deaths_match_seed(snaps):
    got = track(snaps)

    def events(traces):
        return Counter((t.irrep, e["kind"], e["frequency"])
                       for t in traces for e in t.events)

    assert events(got) == events(seed_track(snaps))
    for snap in snaps:
        used = sorted(p.mode_index for t in got for p in t.points
                      if p.frequency == snap.frequency)
        assert used == list(range(snap.count))
    for t in got:
        for p in t.points:
            snap = next(s for s in snaps if s.frequency == p.frequency)
            assert snap.labels[p.mode_index] == t.irrep
    for a in got:
        for b in got:
            if a.id < b.id and a.irrep == b.irrep is not None:
                common = np.intersect1d(a.frequencies, b.frequencies)
                la = a.lambdas[np.isin(a.frequencies, common)]
                lb = b.lambdas[np.isin(b.frequencies, common)]
                assert not (np.any(la > lb) and np.any(la < lb))
    _check_correlation_paths(snaps)
