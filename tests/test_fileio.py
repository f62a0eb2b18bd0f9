import csv
import io
import json
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modesub import fileio
from modesub.cmsolver import ImpedancePair, ModeSet, solve_cm
from modesub.pointgroup import builtin_group
from modesub.symaction import GroupAction, action_from_points
from modesub.tracker import (AvoidanceSignature, Snapshot, TrackOptions,
                             TrackedTrace, TracePoint, track)

from group_helpers import (BAD_ACTIONS, dense_operators, orbit_points,
                           write_cmx, write_csv, write_operators_action,
                           write_points_action)


def random_spd_pair(rng, n):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    return ImpedancePair(a + a.T, b @ b.T + n * np.eye(n))


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5))
    p = tmp_path / "m.csv"
    write_csv(p, m)
    assert np.array_equal(fileio.load_matrix(p), m)


def test_matrix_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(7, 7))
    p = tmp_path / "m.cmx"
    write_cmx(p, m)
    raw = p.read_bytes()
    assert raw[:4] == fileio.MATRIX_MAGIC
    assert np.array_equal(fileio.load_matrix(p), m)


def test_load_matrix_sniffs_format(tmp_path):
    # same loader handles both encodings, picking by leading magic
    m = np.arange(9.0).reshape(3, 3)
    csv_p, bin_p = tmp_path / "a.txt", tmp_path / "b.txt"
    write_csv(csv_p, m)
    write_cmx(bin_p, m)
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


def test_load_matrix_rejects_binary_grid_of_side_zero(tmp_path):
    p = tmp_path / "z.cmx"
    p.write_bytes(fileio.MATRIX_MAGIC + struct.pack("<I", 0))
    with pytest.raises(ValueError, match=f"^{p}: empty matrix file$"):
        fileio.load_matrix(p)


@pytest.mark.parametrize("tail", [
    struct.pack("<I", 10**6) + bytes(64),       # would ask for 8 TB
    struct.pack("<I", 2**32 - 1) + bytes(64),   # 8 n^2 overflows a read
    struct.pack("<I", 3) + bytes(8 * 9 - 1),    # one byte short
    b"\x03\x00",                                # header cut inside the side
], ids=["side-1e6", "side-2^32-1", "short-body", "short-header"])
def test_load_matrix_checks_binary_header_against_file_size(tmp_path, tail):
    p = tmp_path / "big.cmx"
    p.write_bytes(fileio.MATRIX_MAGIC + tail)
    with pytest.raises(ValueError, match="truncated binary matrix"):
        fileio.load_matrix(p)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_matrix_reads_binary_grid_from_a_pipe(tmp_path):
    # a pipe reports no size, so the grid must be read before it is checked
    m = np.arange(9.0).reshape(3, 3)
    write_cmx(tmp_path / "m.cmx", m)
    r, w = os.pipe()
    try:
        os.write(w, (tmp_path / "m.cmx").read_bytes())
        os.close(w)
        assert np.array_equal(fileio.load_matrix(f"/dev/fd/{r}"), m)
    finally:
        os.close(r)


def load_through_a_pipe(data):
    """load_matrix of `data`, which fits a pipe's buffer, read as /dev/fd/N
    from a pipe."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return fileio.load_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("line", ["{!r}\n", '"{!r}"\r\n'],
                         ids=["plain", "quoted-crlf"])
def test_load_matrix_reads_csv_from_a_pipe(line):
    # the bytes read to sniff the format are part of the matrix, in a file
    # of a few rows and in one of 3000 (33 kB), more than one buffered read
    col = 1.25 + np.arange(3000.0)
    data = "".join(line.format(x) for x in col.tolist()).encode()
    assert np.array_equal(load_through_a_pipe(data), col[:, None])
    few = data[:data.index(b"\n", 10) + 1]
    assert np.array_equal(load_through_a_pipe(few),
                          col[:few.count(b"\n"), None])


def test_vectors_csv_shapes(tmp_path):
    rng = np.random.default_rng(2)
    v = rng.normal(size=(6, 3))
    p = tmp_path / "v.csv"
    write_csv(p, v)
    assert np.array_equal(fileio.load_vectors_csv(p), v)
    single = tmp_path / "one.csv"
    single.write_text("\n".join(str(x) for x in v[:, 0]) + "\n")
    got = fileio.load_vectors_csv(single)
    assert got.shape == (6, 1)
    assert np.array_equal(got[:, 0], v[:, 0])
    binary = tmp_path / "v.cmx"
    write_cmx(binary, np.zeros((3, 3)))
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
    ("labels", 5, "labels must be a list of 2 strings)"),
    ("labels", [None, "A_1"], "labels must be a list of 2 strings)"),
    ("labels", "AB", "labels must be a list of 2 strings)"),
    ("labels", ["A_1"], "labels must be a list of 2 strings)"),
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


#: nesting deeper than json's recursion limit, and json's message about it
DEEP = "[" * 5000 + "]" * 5000
try:
    json.loads(DEEP)
except RecursionError as exc:
    DEEP_MESSAGE = str(exc)


def test_modes_json_that_is_no_json_names_the_file(tmp_path):
    p = tmp_path / "cut.json"
    p.write_text('{"frequency": 1.0, "lambdas": [1.0, ')
    with pytest.raises(ValueError) as exc:
        fileio.load_modes_json(p)
    assert str(exc.value) == (f"{p}: not a mode-set file (Expecting value: "
                              f"line 1 column 37 (char 36))")
    p.write_bytes(b'{"frequency": 1.0, "labels": ["\xe9"]}')
    with pytest.raises(ValueError) as exc:
        fileio.load_modes_json(p)
    assert str(exc.value) == (f"{p}: not a mode-set file ('utf-8' codec "
                              f"can't decode byte 0xe9 in position 31: "
                              f"invalid continuation byte)")
    # orjson reads this nesting but refuses the NaN, so json parses it too
    p.write_text('{"frequency": NaN, "lambdas": ' + DEEP + "}")
    with pytest.raises(ValueError) as exc:
        fileio.load_modes_json(p)
    assert str(exc.value) == f"{p}: not a mode-set file ({DEEP_MESSAGE})"
    with pytest.raises(FileNotFoundError):
        fileio.load_modes_json(tmp_path / "missing.json")


def test_modes_json_reads_integers_beyond_64_bits_as_floats(tmp_path):
    # orjson reads such an integer as the nearest float, and a float is a
    # number; json would give a Python int that no float array holds
    p = tmp_path / "modes.json"
    big = [10**20, -2**63 - 1, 2**64 + 1]
    p.write_text(json.dumps({"frequency": 10**30, "lambdas": big + [2]}))
    snap = fileio.load_modes_json(p)
    assert snap.frequency == 1e30
    assert snap.lambdas.tolist() == [1e20, -2.0**63, 2.0**64, 2.0]


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
    assert json.loads(p.read_text()) == {"traces": [{
        "id": 0, "irrep": "T_1u",
        "points": [{"frequency": 1.0, "lambda": -2.0, "mode_index": 0},
                   {"frequency": 2.0, "lambda": -1.0, "mode_index": 1}],
        "events": [{"kind": "birth", "frequency": 1.0}]}], "avoidances": []}


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
        write_operators_action(p, act)
        back = fileio.load_action_json(p)
        assert back.group.name == "C_4v"
        assert back.dof == dof
        assert np.array_equal(back.perms, act.perms)
        assert np.array_equal(back.blocks, act.blocks)
        # points survive so mirror operators outside the group stay
        # constructible
        assert np.array_equal(back.points, act.points)


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


def test_action_json_that_is_no_json_names_the_file(tmp_path):
    p = tmp_path / "cut.json"
    p.write_text('{"group": "C_2v", "points": [')
    with pytest.raises(ValueError) as exc:
        fileio.load_action_json(p)
    assert str(exc.value) == (f"{p}: malformed action file (Expecting value: "
                              f"line 1 column 30 (char 29))")
    p.write_bytes(b"\xff{}")
    with pytest.raises(ValueError) as exc:
        fileio.load_action_json(p)
    assert str(exc.value) == (f"{p}: malformed action file ('utf-8' codec "
                              f"can't decode byte 0xff in position 0: "
                              f"invalid start byte)")
    p.write_text('{"group": "C_2v", "points": ' + DEEP + "}")
    with pytest.raises(ValueError) as exc:
        fileio.load_action_json(p)
    assert str(exc.value) == f"{p}: malformed action file ({DEEP_MESSAGE})"
    with pytest.raises(FileNotFoundError):
        fileio.load_action_json(tmp_path / "missing.json")


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


@pytest.mark.parametrize("doc, message", BAD_ACTIONS.values(),
                         ids=BAD_ACTIONS)
def test_action_json_error_names_the_file(tmp_path, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        fileio.load_action_json(p)
    assert str(exc.value) == f"{p}: {message}"


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


#: NAN_PAYLOAD is a NaN with low mantissa bits set.  1e-4 and 1e16 bound
#: the magnitudes where repr writes fixed-point digits without an exponent.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_DEAD_BEEF))[0]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
               float("nan"), float("inf"), float("-inf"),
               1e-4, float(np.nextafter(1e-4, 0)), 1e-5, 9.99e-5,
               1e15, 1e16, float(np.nextafter(1e16, 0)), NAN_PAYLOAD]
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
@example(case=(ModeSet(np.array([1e-4, np.nextafter(1e-4, 0), 1e-5, 9.99e-5]),
                       np.array([[1e15, -1e16, np.nextafter(1e16, 0),
                                  NAN_PAYLOAD]]), 4, frequency=1e16), []),
         pass_labels=False)
@example(case=(ModeSet(np.array([-1e-5, 1e15]),
                       np.array([[NAN_PAYLOAD, -9.99e-5],
                                 [np.nextafter(-1e-4, 0), -1e-4]]), 2,
                       frequency=np.nextafter(1e-4, 0)), ["A", "B"]),
         pass_labels=True)
def test_modes_json_bytes_match_json_dump(tmp_path_factory, case, pass_labels):
    modes, names = case
    labels = names if pass_labels else None
    p = tmp_path_factory.mktemp("modes") / "modes.json"
    fileio.save_modes_json(p, modes, labels=labels)
    assert p.read_text() == reference_modes_json(modes, labels)


def test_modes_json_bytes_match_json_dump_on_random_bit_patterns(tmp_path):
    # every exponent, subnormals and NaN payloads, across whole rows
    rng = np.random.default_rng(16)
    n = 200
    bits = rng.integers(0, 2**64, size=(n + 1, n), dtype=np.uint64)
    floats = bits.view(np.float64)
    modes = ModeSet(floats[0], floats[1:], n, frequency=float(floats[0, 0]))
    mag = np.abs(floats)
    assert np.isnan(floats).any() and ((mag > 0) & (mag < 1e-308)).any()
    assert ((mag >= 1e-4) & (mag < 1e16)).sum() > 1000
    p = tmp_path / "modes.json"
    fileio.save_modes_json(p, modes)
    assert p.read_text() == reference_modes_json(modes)


@pytest.mark.parametrize("group", ["O_h", "D_4h", "C_2v"])
@pytest.mark.parametrize("dof", [1, 3])
def test_action_json_bytes_match_json_dump(tmp_path, group, dof):
    # an action read from either form, with points or without, has the
    # operators of the action written: json.dump writes it to the same bytes
    g = builtin_group(group)
    act = action_from_points(g, orbit_points(g, np.array([0.7, -0.2, 0.4])),
                             dof=dof)
    write_points_action(tmp_path / "points.json", act)
    write_operators_action(tmp_path / "dense.json", act)
    write_operators_action(tmp_path / "bare.json",
                           type(act)(act.group, act.perms, act.blocks))
    for name, want in (("points.json", "dense.json"),
                       ("dense.json", "dense.json"),
                       ("bare.json", "bare.json")):
        write_operators_action(tmp_path / "got.json",
                               fileio.load_action_json(tmp_path / name))
        assert ((tmp_path / "got.json").read_bytes()
                == (tmp_path / want).read_bytes())


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


ACCEPTED_CSV = [
    ("1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    (" 1 ,\t2\n3 , 4", [[1.0, 2.0], [3.0, 4.0]]),
    ('"1.5","-2e3"\n3,"4"\n', [[1.5, -2000.0], [3.0, 4.0]]),
    ("7\n", [[7.0]]),
    ("1\n2\n3\n", [[1.0], [2.0], [3.0]]),
    ("1,2,3\n", [[1.0, 2.0, 3.0]]),
]


@pytest.mark.parametrize("text, expected", ACCEPTED_CSV)
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


#: a JSON number, the grammar of a plain CSV field
JSON_NUMBER = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,40})(\.[0-9]{1,20})?"
                  r"([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["-0", "0", "-0.0", "9007199254740993",
                     "18446744073709551617", "-18446744073709551615",
                     "123456789012345678901234567890", "4.9e-324",
                     "2.5e-324", "1e-400", "1e-0", "1.7976931348623158e308",
                     "1.7976931348623159e308", "1e400"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def plain_csv_texts(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    fields = draw(st.lists(JSON_NUMBER, min_size=rows * cols,
                           max_size=rows * cols))
    lines = [",".join(fields[i:i + cols]) for i in range(0, len(fields), cols)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class LoadtxtCalled(Exception):
    pass


def no_loadtxt(*args, **kwargs):
    raise LoadtxtCalled


@settings(max_examples=300, deadline=None)
@given(text=plain_csv_texts())
@example(text="-0")
@example(text="0,-0\n-0.0,1")
@example(text="1e-0,0\n")
@example(text="18446744073709551617\n9007199254740993\n2.5e-324\n")
def test_plain_csv_reads_like_float(tmp_path_factory, text):
    # plain lines are read by orjson alone, unless a field is -0 (orjson's
    # integer 0) or beyond the largest double (which orjson refuses)
    p = tmp_path_factory.mktemp("plain") / "m.csv"
    p.write_bytes(text.encode())
    want = reference_load_csv(p)
    fields = text.replace("\n", ",").strip(",").split(",")
    fast = all(f != "-0" and np.isfinite(float(f)) for f in fields)
    with pytest.MonkeyPatch.context() as mp:
        if fast:
            mp.setattr(np, "loadtxt", no_loadtxt)
        got = fileio.load_matrix(p)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("text, plain", [
    *((text, text in ("7\n", "1\n2\n3\n", "1,2,3\n"))
      for text, _ in ACCEPTED_CSV),
    ("1.5,-2e3\n0,-0.0\n", True),
    ("1e-0,0", True),
    ("nan,1\n", False),
    ("inf,1\n", False),
    ("+1,1\n", False),
    (".5,1\n", False),
    ("1.,1\n", False),
    ("1e400,1\n", False),
    ("01,1\n", False),
    ("1,-0\n", False),
    ("-0,1\n", False),
    ("1,2\n3\n", False),
    ("1,2\r3,4\r", False),
    ("1,2,\n", False),
    ("\n1,2\n", False),
    ("", False),
])
def test_csv_reader_takes_loadtxt_only_off_the_plain_grammar(monkeypatch,
                                                              tmp_path, text,
                                                              plain):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    if plain:
        got = fileio.load_matrix(p)
        assert np.array_equal(got.view(np.int64),
                              reference_load_csv(p).view(np.int64))
        assert np.array_equal(fileio.load_vectors_csv(p), got)
    else:
        with pytest.raises(LoadtxtCalled):
            fileio.load_matrix(p)
        with pytest.raises(LoadtxtCalled):
            fileio.load_vectors_csv(p)


def test_csv_reader_rejects_binary_grid_as_vectors(tmp_path):
    p = tmp_path / "v.cmx"
    write_cmx(p, np.arange(9.0).reshape(3, 3))
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


def reference_load_modes_json(path):
    """json.loads and a float array per field: the frequency, lambdas,
    vectors and labels of a mode set as the json module reads them."""
    with open(path) as fh:
        doc = json.loads(fh.read())
    lam = np.array(doc["lambdas"], dtype=float)
    vectors = doc.get("vectors")
    if vectors == [] and not len(lam):
        vectors = None
    elif vectors is not None:
        vectors = np.array(vectors, dtype=float).T
    labels = doc.get("labels")
    return (float(doc["frequency"]), lam, vectors,
            None if labels is None else tuple(labels))


@st.composite
def long_literals(draw):
    """A decimal float literal of 18 to 40 significant digits, which no
    writer emits, from underflow up to but short of overflow (which sends
    the whole document to json)."""
    digits = draw(st.text("0123456789", min_size=18, max_size=40))
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{digits[0]}.{digits[1:]}e{draw(st.integers(-400, 307))}"


@st.composite
def literal_documents(draw):
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, n))
    rows = [draw(st.lists(long_literals(), min_size=n, max_size=n))
            for _ in range(count)]
    lam = draw(st.lists(long_literals(), min_size=count, max_size=count))
    return ('{"frequency": ' + draw(long_literals()) + ', "lambdas": ['
            + ", ".join(lam) + '], "vectors": ['
            + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]}")


#: 1 + 2**-53 lies halfway between 1 and its upper neighbour, 2**-1075
#: halfway between 0 and the least subnormal; literals on and either side
#: of both
HALFWAY = ("1.00000000000000011102230246251565404236316680908203125",
           "1.000000000000000111022302462515654042363166809082031250001",
           "1.000000000000000111022302462515654042363166809082031249999",
           "2.47032822920623272088284396434110686182e-324",
           "2.47032822920623272088284396434110686183e-324",
           "-4.9406564584124654417656879286822137236505980e-324")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(mode_sets(), literal_documents()))
@example(doc=(ModeSet(np.array([float("nan"), float("inf"), float("-inf")]),
                      np.eye(3), 3, frequency=float("-inf")), ["A", "B", "E"]))
@example(doc=(ModeSet(np.array([-0.0, 5e-324, -2.225073858507201e-308]),
                      np.array([[1e-310, -0.0, 4e-320]]).T @ np.ones((1, 3)),
                      3, frequency=-0.0), ["A"] * 3))
@example(doc=(ModeSet(np.array([np.nextafter(1e-4, 0), 1e-4,
                                np.nextafter(1e-4, 1)]),
                      np.array([[np.nextafter(1e16, 0), 1e16,
                                 np.nextafter(1e16, np.inf)]]), 3,
                      frequency=np.nextafter(-1e-4, 0)), ["A"] * 3))
@example(doc=(ModeSet(np.array([1.5]), np.array([[2.0]]), 1), ["\ud800"]))
@example(doc='{"frequency": 0.1000000000000000055511151231257827021181583, '
             '"lambdas": [' + ", ".join(HALFWAY) + "]}")
@example(doc='{"frequency": 1e400, "lambdas": [-1e400, 1e-400]}')
def test_modes_json_loads_like_json(tmp_path_factory, doc):
    # orjson parses what json would, to the same doubles; what orjson
    # refuses (NaN, Infinity, a lone surrogate, 1e400) json parses instead
    p = tmp_path_factory.mktemp("modes") / "modes.json"
    if isinstance(doc, str):
        p.write_text(doc)
    else:
        fileio.save_modes_json(p, doc[0], labels=doc[1])
    freq, lam, vectors, labels = reference_load_modes_json(p)
    snap = fileio.load_modes_json(p)
    assert same_bits(snap.frequency, freq)
    assert same_bits(snap.lambdas, lam)
    assert (snap.vectors is None if vectors is None
            else same_bits(snap.vectors, vectors))
    assert snap.labels == labels
