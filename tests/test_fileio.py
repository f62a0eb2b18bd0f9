import io
import json

import numpy as np
import pytest

from modesub import fileio
from modesub.cmsolver import ImpedancePair, solve_cm
from modesub.pointgroup import builtin_group
from modesub.symaction import GroupAction, action_from_points, orbit_points
from modesub.tracker import Snapshot, TrackOptions, TrackedTrace, TracePoint, track


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
        for i in range(g.order):
            assert np.allclose(back.operators[i], act.operators[i])
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
    ops = [flip[:, None] * act.operators[t] * flip[None, :]
           for t in range(g.order)]
    p = tmp_path / "rwg.json"
    p.write_text(json.dumps({"group": "C_2v",
                             "operators": [m.tolist() for m in ops]}))
    back = fileio.load_action_json(p)
    assert back.dof == 1 and back.points is None
    for t in range(g.order):
        assert np.array_equal(back.operators[t], ops[t])


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
