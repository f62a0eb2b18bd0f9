import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modesub import fileio
from modesub.cmsolver import ImpedancePair, ModeSet, solve_cm
from modesub.pointgroup import builtin_group
from modesub.symaction import GroupAction, action_from_points, orbit_points
from modesub.tracker import (AvoidanceSignature, Snapshot, TrackOptions,
                             TrackedTrace, TracePoint, track)

from group_helpers import dense_operators


def random_spd_pair(rng, n):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    return ImpedancePair(a + a.T, b @ b.T + n * np.eye(n))


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5))
    p = tmp_path / "m.csv"
    fileio.save_matrix_csv(p, m)
    assert np.array_equal(fileio.load_matrix(p), m)


def test_matrix_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(7, 7))
    p = tmp_path / "m.cmx"
    fileio.save_matrix_binary(p, m)
    raw = p.read_bytes()
    assert raw[:4] == fileio.MATRIX_MAGIC
    assert np.array_equal(fileio.load_matrix(p), m)


def test_load_matrix_sniffs_format(tmp_path):
    # same loader handles both encodings, picking by leading magic
    m = np.arange(9.0).reshape(3, 3)
    csv_p, bin_p = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.save_matrix_csv(csv_p, m)
    fileio.save_matrix_binary(bin_p, m)
    assert np.array_equal(fileio.load_matrix(csv_p), fileio.load_matrix(bin_p))


def test_load_matrix_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        fileio.load_matrix(p)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        fileio.load_matrix(empty)


def test_binary_requires_square():
    with pytest.raises(ValueError):
        fileio.save_matrix_binary("/tmp/never-written.cmx", np.zeros((2, 3)))


def test_vectors_csv_shapes(tmp_path):
    rng = np.random.default_rng(2)
    v = rng.normal(size=(6, 3))
    p = tmp_path / "v.csv"
    fileio.save_vectors_csv(p, v)
    assert np.array_equal(fileio.load_vectors_csv(p), v)
    single = tmp_path / "one.csv"
    single.write_text("\n".join(str(x) for x in v[:, 0]) + "\n")
    got = fileio.load_vectors_csv(single)
    assert got.shape == (6, 1)
    assert np.array_equal(got[:, 0], v[:, 0])
    binary = tmp_path / "v.cmx"
    fileio.save_matrix_binary(binary, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        fileio.load_vectors_csv(binary)


def test_modes_json_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    modes = solve_cm(random_spd_pair(rng, 6))
    p = tmp_path / "modes.json"
    fileio.save_modes_json(p, modes, labels=["A_1"] * modes.count)
    snap = fileio.load_modes_json(p)
    assert isinstance(snap, Snapshot)
    assert np.allclose(snap.lambdas, modes.eigenvalues)
    assert np.allclose(snap.vectors, modes.eigencurrents)
    assert snap.labels == ("A_1",) * modes.count
    doc = json.loads(p.read_text())
    # one row per mode so the file diffs row-wise
    assert len(doc["vectors"]) == modes.count
    assert len(doc["vectors"][0]) == 6


def test_modes_json_rejects_other_documents(tmp_path):
    p = tmp_path / "other.json"
    p.write_text(json.dumps({"group": "O_h"}))
    with pytest.raises(ValueError, match="not a mode-set file"):
        fileio.load_modes_json(p)


@pytest.mark.parametrize("key, value, reason", [
    ("vectors", [1.0, 2.0], "vectors must be a 2-D list of 2 rows"),
    ("vectors", [[1.0, 0.0], [3.0]], "vectors must be a 2-D list of 2 rows"),
    ("vectors", [[1.0, 0.0]], "vectors must be a 2-D list of 2 rows"),
    ("vectors", "12", "vectors must be a 2-D list of 2 rows"),
    ("lambdas", "12", "lambdas must be a list of numbers"),
    ("lambdas", [1.0, "2"], "lambdas must be a list of numbers"),
    ("lambdas", [True, 2.0], "lambdas must be a list of numbers"),
    ("lambdas", [[1.0], [2.0]], "lambdas must be a list of numbers"),
    ("lambdas", [None, 2.0], "lambdas must be a list of numbers"),
    ("vectors", [[None, 0.0], [0.0, 1.0]], "vectors must be a 2-D list of 2"),
    ("vectors", [[1.0, 0.0], [0.0, True]], "vectors must be a 2-D list of 2"),
    ("vectors", [[False, 0], [0, 1]], "vectors must be a 2-D list of 2"),
    ("vectors", [[1.0, 0.0], [0.0, "1"]], "vectors must be a 2-D list of 2"),
    ("frequency", "1.5", "frequency must be a number"),
    ("frequency", None, "frequency must be a number"),
    ("frequency", True, "frequency must be a number"),
    ("frequency", [1.5], "frequency must be a number"),
])
def test_modes_json_rejects_malformed_mode_sets(tmp_path, key, value,
                                                reason):
    doc = {"frequency": 1.0, "lambdas": [1.0, 2.0],
           "vectors": [[1.0, 0.0], [0.0, 1.0]]}
    doc[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        fileio.load_modes_json(p)
    assert str(exc.value).startswith(f"{p}: not a mode-set file ({reason}")


def test_snapshot_dir_sorted_by_frequency(tmp_path):
    rng = np.random.default_rng(4)
    # filenames deliberately out of order with the frequencies
    for name, f in (("z.json", 1.0), ("a.json", 3.0), ("m.json", 2.0)):
        modes = solve_cm(random_spd_pair(rng, 4))
        modes = type(modes)(modes.eigenvalues, modes.eigencurrents,
                            modes.rank, frequency=f)
        fileio.save_modes_json(tmp_path / name, modes)
    snaps = fileio.load_snapshot_dir(tmp_path)
    assert [s.frequency for s in snaps] == [1.0, 2.0, 3.0]


def test_traces_round_trip(tmp_path):
    tr = TrackedTrace(0, "T_1u",
                      [TracePoint(1.0, -2.0, 0), TracePoint(2.0, -1.0, 1)],
                      [{"kind": "birth", "frequency": 1.0}])
    p = tmp_path / "traces.json"
    fileio.save_traces_json(p, [tr])
    loaded, avoid = fileio.load_traces_json(p)
    assert avoid == []
    assert len(loaded) == 1
    got = loaded[0]
    assert (got.id, got.irrep) == (0, "T_1u")
    assert [(pt.frequency, pt.lam, pt.mode_index) for pt in got.points] == \
        [(1.0, -2.0, 0), (2.0, -1.0, 1)]
    assert got.events == [{"kind": "birth", "frequency": 1.0}]


def test_modes_json_reads_numbers_beside_boolean_words(tmp_path):
    # "true" in a label sends the loader down its per-entry path
    p = tmp_path / "modes.json"
    p.write_text(json.dumps({"frequency": 2, "lambdas": [1, -0.5],
                             "vectors": [[1, 0.0], [0, 1]],
                             "labels": ["true", "false"]}))
    snap = fileio.load_modes_json(p)
    assert snap.frequency == 2.0 and isinstance(snap.frequency, float)
    assert snap.lambdas.tolist() == [1.0, -0.5]
    assert snap.vectors.dtype == float
    assert snap.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert snap.labels == ("true", "false")


def test_mode_set_without_modes_loads_back(tmp_path):
    p = tmp_path / "modes.json"
    fileio.save_modes_json(p, ModeSet(np.zeros(0), np.zeros((3, 0)), 0,
                                      frequency=1.5))
    snap = fileio.load_modes_json(p)
    assert (snap.frequency, snap.count, snap.vectors) == (1.5, 0, None)
    # and tracks between snapshots that have modes
    rng = np.random.default_rng(4)
    full = [Snapshot(f, [1.0, 2.0], rng.normal(size=(3, 2)), ("A", "A"))
            for f in (1.0, 2.0)]
    traces = track([full[0], snap, full[1]])
    assert [len(tr.points) for tr in traces] == [1, 1, 1, 1]


def test_traces_csv_layout():
    tr = TrackedTrace(3, None, [TracePoint(0.5, 1.25, 2)], [])
    fh = io.StringIO()
    fileio.traces_to_csv([tr], fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "trace_id,irrep,frequency,lambda,mode_index"
    assert lines[1] == "3,,0.5,1.25,2"


def test_action_json_operator_form(tmp_path):
    g = builtin_group("C_4v")
    pts = orbit_points(g, np.array([1.0, 0.3, 0.2]))
    for dof in (3, 1):
        act = action_from_points(g, pts, dof=dof)
        p = tmp_path / f"action{dof}.json"
        fileio.save_action_json(p, act)
        back = fileio.load_action_json(p)
        assert back.group.name == "C_4v"
        assert back.dof == dof
        for d_back, d in zip(dense_operators(back), dense_operators(act)):
            assert np.allclose(d_back, d)
        # points survive so mirror operators outside the group stay
        # constructible
        assert back.points is not None
        assert np.allclose(back.points, act.points)
        # the decoded action writes the same bytes again
        again = tmp_path / "again.json"
        fileio.save_action_json(again, back)
        assert again.read_bytes() == p.read_bytes()


def test_action_json_points_form(tmp_path):
    g = builtin_group("C_2v")
    pts = orbit_points(g, np.array([0.7, 0.2, 0.4]))
    doc = {"group": "C_2v", "points": [list(map(float, q)) for q in pts],
           "dof": 3}
    p = tmp_path / "pts.json"
    p.write_text(json.dumps(doc))
    act = fileio.load_action_json(p)
    assert isinstance(act, GroupAction)
    assert act.dimension == 3 * len(pts)


def test_action_json_validation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"group": "C_4v", "operators": [[[1.0]]]}))
    with pytest.raises(ValueError):
        fileio.load_action_json(p)
    p.write_text(json.dumps({"group": "C_4v"}))
    with pytest.raises(ValueError):
        fileio.load_action_json(p)


def test_solve_save_track_pipeline(tmp_path):
    # files produced by the solver stage feed the tracker stage unchanged
    rng = np.random.default_rng(9)
    base = rng.normal(size=(5, 5))
    for k, f in enumerate((1.0, 1.5, 2.0)):
        x = base + base.T + f * np.eye(5)
        r = np.eye(5)
        modes = solve_cm(ImpedancePair(x, r, frequency=f))
        fileio.save_modes_json(tmp_path / f"s{k}.json", modes)
    snaps = fileio.load_snapshot_dir(tmp_path)
    traces = track(snaps, TrackOptions())
    assert len(traces) == 5
    for tr in traces:
        assert len(tr.points) == 3
        assert np.allclose(np.diff(tr.lambdas), 0.5)


def test_action_json_legacy_sign_flipped_operators(tmp_path):
    # an RWG-style file: scalar unknowns, some with flipped sign, no dof key
    g = builtin_group("C_2v")
    act = action_from_points(g, orbit_points(g, np.array([0.7, 0.2, 0.4])),
                             dof=1)
    flip = np.array([1.0, -1.0, 1.0, -1.0])
    ops = [flip[:, None] * d * flip[None, :] for d in dense_operators(act)]
    p = tmp_path / "rwg.json"
    p.write_text(json.dumps({"group": "C_2v",
                             "operators": [m.tolist() for m in ops]}))
    back = fileio.load_action_json(p)
    assert back.dof == 1 and back.points is None
    for t, d in enumerate(dense_operators(back)):
        assert np.array_equal(d, ops[t])


def test_action_json_malformed_names_the_file(tmp_path):
    p = tmp_path / "odd.json"
    bad_docs = [
        {"group": "C_2v", "operators": 5},
        {"group": "C_2v", "operators": {"a": 1}},
        {"group": "C_2v", "points": [[1.0, 0.0, 0.0]], "dof": None},
        ["C_2v"],
        {"group": 7, "points": []},
    ]
    for doc in bad_docs:
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="odd.json"):
            fileio.load_action_json(p)
    ops = np.eye(4)[None].repeat(4, axis=0)
    ops[2, 0, 1] = 0.5
    p.write_text(json.dumps({"group": "C_2v", "operators": ops.tolist()}))
    with pytest.raises(ValueError, match="odd.json: operator 2 is not"):
        fileio.load_action_json(p)


def test_traces_json_malformed_names_the_file(tmp_path):
    p = tmp_path / "t.json"
    for doc in ({"traces": [{"id": 0}]}, {"traces": 3}, [1, 2]):
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="t.json: not a traces file"):
            fileio.load_traces_json(p)


# Reference implementations the C-backed reader and the streaming writers
# must reproduce bit for bit and byte for byte.

def reference_load_csv(path):
    """csv.reader plus float() per field, blank lines skipped."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if rec:
                rows.append([float(x) for x in rec])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.array(rows)


def reference_modes_json(modes, labels=None):
    doc = {
        "frequency": float(modes.frequency),
        "lambdas": [float(x) for x in modes.eigenvalues],
        "vectors": [[float(x) for x in col] for col in modes.eigencurrents.T],
    }
    names = labels if labels is not None else modes.labels
    if names is not None:
        doc["labels"] = list(names)
    return json.dumps(doc, indent=1) + "\n"


def reference_csv(m):
    fh = io.StringIO(newline="")
    w = csv.writer(fh, lineterminator="\n")
    for row in m:
        w.writerow([repr(float(x)) for x in row])
    return fh.getvalue()


def reference_action_json(action):
    doc = {
        "group": action.group.name,
        "operators": [
            [[float(x) for x in row] for row in d]
            for d in dense_operators(action)
        ],
    }
    if action.points is not None:
        doc["points"] = [[float(x) for x in p] for p in action.points]
        doc["dof"] = action.dof
    return json.dumps(doc, indent=1) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
               float("nan"), float("inf"), float("-inf")]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))


@st.composite
def mode_sets(draw):
    """N >= count >= 0: zero modes, 1x1 and rank < N all occur."""
    n = draw(st.integers(0, 4))
    count = draw(st.integers(0, n))
    lam = draw(st.lists(FLOATS, min_size=count, max_size=count))
    vec = draw(st.lists(FLOATS, min_size=n * count, max_size=n * count))
    names = draw(st.lists(st.text(max_size=4), min_size=count,
                          max_size=count))
    own = draw(st.booleans())
    return ModeSet(np.array(lam, dtype=float),
                   np.array(vec, dtype=float).reshape(n, count), count,
                   frequency=draw(FLOATS),
                   labels=tuple(names) if own else None), names


@settings(max_examples=200, deadline=None)
@given(case=mode_sets(), pass_labels=st.booleans())
@example(case=(ModeSet(np.zeros(0), np.zeros((3, 0)), 0), []),
         pass_labels=False)
@example(case=(ModeSet(np.array([-0.0]), np.array([[5e-324]]), 1,
                       labels=("A_1g",)), ["T_1u"]), pass_labels=False)
@example(case=(ModeSet(np.array([1e308, float("nan")]),
                       np.array([[-1e308, float("inf")],
                                 [float("-inf"), -0.0],
                                 [2.5e-310, 1.0]]), 2), ["E", "\"q\"\n"]),
         pass_labels=True)
def test_modes_json_bytes_match_json_dump(tmp_path_factory, case, pass_labels):
    modes, names = case
    labels = names if pass_labels else None
    p = tmp_path_factory.mktemp("modes") / "modes.json"
    fileio.save_modes_json(p, modes, labels=labels)
    assert p.read_text() == reference_modes_json(modes, labels)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 4), cols=st.integers(0, 4), data=st.data())
def test_csv_writers_match_csv_writer(tmp_path_factory, rows, cols, data):
    vals = data.draw(st.lists(FLOATS, min_size=rows * cols,
                              max_size=rows * cols))
    m = np.array(vals, dtype=float).reshape(rows, cols)
    d = tmp_path_factory.mktemp("csv")
    fileio.save_matrix_csv(d / "m.csv", m)
    fileio.save_vectors_csv(d / "v.csv", m.ravel())
    assert (d / "m.csv").read_text() == reference_csv(m)
    assert (d / "v.csv").read_text() == reference_csv(m.reshape(-1, 1))


@pytest.mark.parametrize("group", ["O_h", "D_4h", "C_2v"])
@pytest.mark.parametrize("dof", [1, 3])
def test_action_json_bytes_match_json_dump(tmp_path, group, dof):
    g = builtin_group(group)
    act = action_from_points(g, orbit_points(g, np.array([0.7, -0.2, 0.4])),
                             dof=dof)
    bare = type(act)(act.group, act.perms, act.blocks)
    for a in (act, bare):
        p = tmp_path / "action.json"
        fileio.save_action_json(p, a)
        assert p.read_text() == reference_action_json(a)


NUMBER = st.one_of(
    st.from_regex(r"[+-]?([0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20})"
                  r"([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity",
                     "-INFINITY", "4.9e-324", "2.5e-324", "1e-400",
                     "1.7976931348623157e308", "1.8e308", "-0"]),
    FLOATS.map(repr))


@st.composite
def csv_texts(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(rows):
        fields = []
        for _ in range(cols):
            field = draw(NUMBER)
            # csv.reader opens a quote only at the very start of a field
            if draw(st.booleans()):
                field = '"' + field + '"'
            else:
                field = draw(st.sampled_from(["", " ", "\t"])) + field
            fields.append(field + draw(st.sampled_from(["", " "])))
        lines.append(",".join(fields))
        lines.extend([""] * draw(st.integers(0, 1)))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_csv_reader_matches_float_parser(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("read") / "m.csv"
    p.write_bytes(text.encode())
    want = reference_load_csv(p)
    got = fileio.load_matrix(p)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("text, expected", [
    ("1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    (" 1 ,\t2\n3 , 4", [[1.0, 2.0], [3.0, 4.0]]),
    ('"1.5","-2e3"\n3,"4"\n', [[1.5, -2000.0], [3.0, 4.0]]),
    ("7\n", [[7.0]]),
    ("1\n2\n3\n", [[1.0], [2.0], [3.0]]),
    ("1,2,3\n", [[1.0, 2.0, 3.0]]),
])
def test_csv_reader_accepts(tmp_path, text, expected):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fileio.load_matrix(p)
    assert got.tolist() == expected
    assert np.array_equal(got, reference_load_csv(p))


@pytest.mark.parametrize("text", [
    "1,2,\n3,4,\n",          # trailing comma
    "1,2\n3\n",               # ragged rows
    "1,2\n3,4\n# note\n",    # no comment syntax
    "#1,2\n3,4\n",
    "",                         # empty
    "\n\n\r\n",                 # blank lines only
    "  \n",                    # whitespace only
    "1_000,2\n3,4\n",         # no digit separators
    "\uff11,2\n",              # ASCII digits only
])
def test_csv_reader_rejects_naming_the_file(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bad.csv: "):
            fileio.load_matrix(p)
        with pytest.raises(ValueError, match="bad.csv: "):
            fileio.load_vectors_csv(p)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3\n", "row 2: expected 2 fields, found 1"),
    ("1,x\n3,4\n", "row 1: field 2 is not a number: 'x'"),
    ("\n1,2\n\n3,4,5\n", "row 2: expected 2 fields, found 3"),
    ("1,2\n\n3,4\n5,y\n", "row 3: field 2 is not a number: 'y'"),
    ("1,2,\n", "row 1: field 3 is not a number: ''"),
])
def test_csv_errors_name_the_row(tmp_path, text, message):
    # rows count matrix rows from 1; blank lines are skipped
    p = tmp_path / "bad.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError) as err:
        fileio.load_matrix(p)
    assert str(err.value) == f"{p}: {message}"


def test_csv_reader_rejects_binary_grid_as_vectors(tmp_path):
    p = tmp_path / "v.cmx"
    fileio.save_matrix_binary(p, np.arange(9.0).reshape(3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="v.cmx: "):
            fileio.load_vectors_csv(p)
    p.write_bytes(b"\xff\xfe1,2\n")
    with pytest.raises(ValueError, match="v.cmx: "):
        fileio.load_matrix(p)


def reference_traces_json(traces, avoidances) -> str:
    doc = {
        "traces": [
            {"id": tr.id, "irrep": tr.irrep,
             "points": [{"frequency": p.frequency, "lambda": p.lam,
                         "mode_index": p.mode_index} for p in tr.points],
             "events": tr.events}
            for tr in traces
        ],
        "avoidances": [
            {"lower_id": s.lower_id, "upper_id": s.upper_id,
             "irrep": s.irrep, "frequency": s.frequency, "gap": s.gap,
             "kind": s.kind}
            for s in avoidances
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


EVENTS = st.sampled_from([
    {"kind": "birth", "frequency": 1.0},
    {"kind": "death", "frequency": float("nan")},
    {"kind": "pole-split", "interval": (1.5, 2.0)},
    {"kind": "pole-split-reversed", "interval": (2.0, float("inf"))},
])


@st.composite
def trace_sets(draw):
    traces = []
    for tid in range(draw(st.integers(0, 3))):
        points = [TracePoint(draw(FLOATS), draw(FLOATS), draw(st.integers(0, 9)))
                  for _ in range(draw(st.integers(0, 4)))]
        irrep = draw(st.one_of(st.none(), st.text(max_size=4)))
        traces.append(TrackedTrace(tid, irrep, points,
                                   draw(st.lists(EVENTS, max_size=3))))
    avoidances = [
        AvoidanceSignature(draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                           draw(st.text(max_size=4)), draw(FLOATS),
                           draw(FLOATS), draw(st.sampled_from(["MICA", "MACA"])))
        for _ in range(draw(st.integers(0, 2)))]
    return traces, avoidances


@settings(max_examples=200, deadline=None)
@given(case=trace_sets())
@example(case=([TrackedTrace(0, "A_1g", [TracePoint(1.0, float("nan"), 0),
                                         TracePoint(2.0, float("-inf"), 1)],
                             [{"kind": "birth", "frequency": 1.0}])],
               [AvoidanceSignature(0, 1, "A_1g", 1.5, float("inf"), "MICA")]))
def test_traces_json_bytes_match_json_dump(tmp_path_factory, case):
    traces, avoidances = case
    p = tmp_path_factory.mktemp("traces") / "traces.json"
    fileio.save_traces_json(p, traces, avoidances)
    assert p.read_text() == reference_traces_json(traces, avoidances)


@settings(max_examples=100, deadline=None)
@given(case=mode_sets())
def test_modes_json_round_trip_any_mode_set(tmp_path_factory, case):
    modes, names = case
    p = tmp_path_factory.mktemp("modes") / "modes.json"
    fileio.save_modes_json(p, modes, labels=names)
    snap = fileio.load_modes_json(p)
    assert np.array_equal(snap.frequency, modes.frequency, equal_nan=True)
    assert np.array_equal(snap.lambdas, modes.eigenvalues, equal_nan=True)
    if modes.count:
        assert np.array_equal(snap.vectors, modes.eigencurrents,
                              equal_nan=True)
    else:
        assert snap.vectors is None
    assert snap.labels == tuple(names)
