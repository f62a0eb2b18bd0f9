import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import modesub
from modesub import fileio
from modesub.cli import main
from modesub.pointgroup import builtin_group
from modesub.symaction import action_from_points, orbit_points, projector

from group_helpers import dense_operators

SPHERE_EXAMPLE = """\
kR_over_pi,t,s,lambda,is_pole_adjacent
0.9,1,1,-0.0257938118601,0
0.9,1,2,14.2623626579,1
1,1,1,-0.318309886184,0
1,1,2,2.82328276741,0
1.1,1,1,-0.678043955329,0
1.1,1,2,1.40054859536,0
"""


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def run_fresh(script, *argv, **env):
    """Stdout lines of `script` run with `argv` in a fresh interpreter, as
    every command runs, on the same package as this process, installed or
    not.  Each keyword sets an environment variable; None unsets it."""
    full = dict(os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(modesub.__file__)))
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    res = subprocess.run([sys.executable, "-c", script, *argv], env=full,
                         capture_output=True, text=True, check=True)
    return res.stdout.splitlines()


def symmetric_problem(tmp_path, group="C_4v"):
    """Write an action file plus X, R matrices whose modes classify exactly.

    The orbit seed sits in the z = 0 plane so the horizontal mirror maps the
    point set to itself and parity stays measurable.
    """
    g = builtin_group(group)
    pts = orbit_points(g, np.array([1.0, 0.3, 0.0]))
    act = action_from_points(g, pts)
    shifts = {"A_1": -3.0, "A_2": -1.0, "B_1": 0.5, "B_2": 2.0}
    if group == "C_4v":
        shifts["E"] = 4.0
    x = sum(shifts[name] * projector(act, name) for name in shifts)
    fileio.save_action_json(tmp_path / "action.json", act)
    fileio.save_matrix_csv(tmp_path / "x.csv", x)
    fileio.save_matrix_csv(tmp_path / "r.csv", np.eye(act.dimension))
    return act, shifts


def test_subduce_example(capsys):
    code, out, err = run(capsys, "subduce", "--from", "O3:t=5,s=TE",
                         "--to", "Oh")
    assert (code, err) == (0, "")
    assert out == "E_g:1 T_1g:2 T_2g:1\n"


def test_chain_example(capsys):
    code, out, _ = run(capsys, "chain", "--from", "O3:t=1,s=TM",
                       "--path", "Oh,D4h,C4v", "--parity", "odd")
    assert code == 0
    assert out == "O_h: T_1u:1\nD_4h: A_2u:1 E_u:1\nC_4v: A_1:1\n"


def test_sphere_example(capsys):
    code, out, _ = run(capsys, "sphere", "--tmax", "1", "--kmin", "0.9",
                       "--kmax", "1.1", "--steps", "3")
    assert code == 0
    assert out == SPHERE_EXAMPLE


def test_sphere_pole_cells_empty(capsys):
    # this abscissa lands on the first TE resonance to the last bit, so the
    # eigenvalue overflows and the cell is written blank rather than as inf
    code, out, _ = run(capsys, "sphere", "--tmax", "1",
                       "--kmin", "1.4302966531242027",
                       "--kmax", "1.4302966531242027", "--steps", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1.43029665312,1,1,,1"
    assert lines[2].startswith("1.43029665312,1,2,-0.011")


def test_tables_text_and_json(capsys):
    code, out, _ = run(capsys, "tables", "--group", "O_h")
    assert code == 0
    assert "8C3" in out and "A_1g" in out and "6s_d" in out
    code, out, _ = run(capsys, "tables", "--group", "O_h", "--json")
    doc = json.loads(out)
    assert doc["order"] == 48
    assert len(doc["irreps"]) == 10


def test_subduce_json(capsys):
    code, out, _ = run(capsys, "subduce", "--from", "O3:t=5,s=TE",
                       "--to", "Oh", "--json")
    doc = json.loads(out)
    assert doc["child_group"] == "O_h"
    assert doc["entries"] == {"E_g": "1", "T_1g": "2", "T_2g": "1"}


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "subduce", "--from", "O3:t=5,s=TE")
    assert code == 1 and "--to" in err
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_data_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "subduce", "--from", "O3:t=5,s=TQ",
                       "--to", "Oh")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "solve", "--x", str(tmp_path / "nope.csv"),
                       "--r", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "m.json"))
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "tables", "--group", "D_6h")
    assert code == 2 and "unknown point group" in err


def test_solve_rejects_nonfinite_matrix(capsys, tmp_path):
    fileio.save_matrix_csv(tmp_path / "x.csv",
                           [[1.0, float("nan")], [float("nan"), 1.0]])
    fileio.save_matrix_csv(tmp_path / "r.csv", np.eye(2))
    code, _, err = run(capsys, "solve", "--x", str(tmp_path / "x.csv"),
                       "--r", str(tmp_path / "r.csv"),
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert err == "error: X has nonfinite entries\n"
    assert not (tmp_path / "m.json").exists()


def test_solve_reports_the_bad_csv_row(capsys, tmp_path):
    (tmp_path / "x.csv").write_text("1,2\n3\n")
    fileio.save_matrix_csv(tmp_path / "r.csv", np.eye(2))
    code, _, err = run(capsys, "solve", "--x", str(tmp_path / "x.csv"),
                       "--r", str(tmp_path / "r.csv"),
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert err == (f"error: {tmp_path / 'x.csv'}: row 2: expected 2 fields, "
                   f"found 1\n")


def test_solve_with_labels(capsys, tmp_path):
    act, shifts = symmetric_problem(tmp_path)
    out_path = tmp_path / "modes.json"
    code, out, _ = run(capsys, "solve", "--x", str(tmp_path / "x.csv"),
                       "--r", str(tmp_path / "r.csv"),
                       "--out", str(out_path),
                       "--action", str(tmp_path / "action.json"),
                       "--frequency", "1.5")
    assert code == 0
    assert out == f"24 modes (rank 24) -> {out_path}\n"
    snap = fileio.load_modes_json(out_path)
    assert snap.frequency == 1.5
    inverse = {v: k for k, v in shifts.items()}
    for lam, lab in zip(snap.lambdas, snap.labels):
        assert lab == inverse[round(float(lam), 6)]


def test_classify_json_with_parity(capsys, tmp_path):
    act, _ = symmetric_problem(tmp_path)
    rng = np.random.default_rng(6)
    vec = projector(act, "B_2") @ rng.normal(size=act.dimension)
    fileio.save_vectors_csv(tmp_path / "v.csv", vec)
    code, out, _ = run(capsys, "classify", "--vectors", str(tmp_path / "v.csv"),
                       "--action", str(tmp_path / "action.json"),
                       "--parity", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["classified"] == "B_2"
    assert doc[0]["dominant"] == "B_2"
    assert "parity" in doc[0]
    code, out, _ = run(capsys, "classify", "--vectors", str(tmp_path / "v.csv"),
                       "--action", str(tmp_path / "action.json"))
    assert code == 0
    assert out.startswith("vector 0: B_2")


def test_track_round_trip_single_snapshot(capsys, tmp_path):
    symmetric_problem(tmp_path)
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    code, _, _ = run(capsys, "solve", "--x", str(tmp_path / "x.csv"),
                     "--r", str(tmp_path / "r.csv"),
                     "--out", str(snapdir / "s0.json"),
                     "--action", str(tmp_path / "action.json"))
    assert code == 0
    out_path = tmp_path / "traces.json"
    code, out, _ = run(capsys, "track", "--snapshots", str(snapdir),
                       "--out", str(out_path))
    assert code == 0
    assert out == f"24 traces, 0 avoidance signatures -> {out_path}\n"
    traces, avoid = fileio.load_traces_json(out_path)
    assert avoid == []
    assert len(traces) == 24
    assert all(len(tr.points) == 1 for tr in traces)


def test_track_csv_export(capsys, tmp_path):
    symmetric_problem(tmp_path, group="C_2v")
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    for k, f in enumerate((1.0, 2.0)):
        run(capsys, "solve", "--x", str(tmp_path / "x.csv"),
            "--r", str(tmp_path / "r.csv"),
            "--out", str(snapdir / f"s{k}.json"),
            "--frequency", str(f))
    csv_path = tmp_path / "traces.csv"
    code, _, _ = run(capsys, "track", "--snapshots", str(snapdir),
                     "--out", str(tmp_path / "t.json"),
                     "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trace_id,irrep,frequency,lambda,mode_index"
    assert len(lines) == 1 + 12 * 2


def test_predict_structure_and_determinism(capsys, tmp_path):
    args = ("predict", "--group", "C_4v", "--parity", "odd",
            "--tmax", "2", "--grid", "120")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["group"] == "C_4v"
    assert len(doc["kr_over_pi"]) == 120
    got = {(tr["source"], tr["label"]) for tr in doc["traces"]}
    assert got == {("t=1,TE", "E:1"), ("t=1,TM", "A_1:1"),
                   ("t=2,TE", "A_2:1 B_1:1 B_2:1"), ("t=2,TM", "E:1")}
    for tr in doc["traces"]:
        assert len(tr["lambda"]) == 120
        assert set(tr["pole_adjacent"]) <= {0, 1}
    for ev in doc["crossings"]:
        assert {"a", "b", "kr_star_over_pi", "shared", "forbidden"} <= set(ev)


def test_predict_svg(capsys, tmp_path):
    svg = tmp_path / "d.svg"
    code, _, _ = run(capsys, "predict", "--group", "O_h", "--tmax", "1",
                     "--grid", "60", "--out", str(tmp_path / "d.json"),
                     "--emit-svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "T_1g" in text


def test_thread_env_defaulting():
    script = (
        "import os, sys\n"
        "sys.argv = ['modesub', 'tables', '--group', 'C_2v']\n"
        "from modesub.cli import entry\n"
        "try:\n"
        "    entry()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print('RESULT', code, os.environ['OMP_NUM_THREADS'],\n"
        "      os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert run_fresh(script, MODESUB_THREADS="3", OMP_NUM_THREADS=None,
                     OPENBLAS_NUM_THREADS=None)[-1] == "RESULT 0 3 3"
    # an explicit setting wins over the package default
    assert run_fresh(script, MODESUB_THREADS="3", OMP_NUM_THREADS="7",
                     OPENBLAS_NUM_THREADS=None)[-1] == "RESULT 0 7 3"


def test_solve_and_classify_load_no_scipy():
    # a fresh interpreter, as every command runs in: the group build and
    # check load neither scipy nor numpy's random and masked-array modules,
    # the solve and classify path must not pay for scipy, and neither does
    # tracking one labelled snapshot
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from modesub import cmsolver, fileio, symaction, tracker\n"
        "from modesub.pointgroup import (builtin_group, builtin_group_names,\n"
        "                                verify_group)\n"
        "assert all(verify_group(builtin_group(n)).ok\n"
        "           for n in builtin_group_names())\n"
        "print('GROUPS', sorted(m for m in sys.modules if m in\n"
        "                       ('numpy.random', 'numpy.ma', 'scipy')))\n"
        "g = builtin_group('O_h')\n"
        "act = symaction.action_from_points(\n"
        "    g, symaction.orbit_points(g, np.array([1.0, 0.6, 0.3])))\n"
        "a = np.random.default_rng(0).normal(size=(act.dimension,) * 2)\n"
        "x = sum(act.apply(t, act.apply(t, a + a.T).T).T\n"
        "        for t in range(g.order))\n"
        "modes = cmsolver.solve_cm(cmsolver.ImpedancePair(\n"
        "    (x + x.T) / 2, np.eye(act.dimension)))\n"
        "labels = cmsolver.classify_modes(modes, act).labels\n"
        "print('SCIPY', sorted(m for m in sys.modules\n"
        "                      if m.partition('.')[0] == 'scipy'))\n"
        "tracker.track([tracker.Snapshot(1.0, modes.eigenvalues,\n"
        "                                modes.eigencurrents, labels)])\n"
        "print('OPTIMIZE', 'scipy.optimize' in sys.modules)\n"
    )
    assert run_fresh(script)[-3:] == ["GROUPS []", "SCIPY []",
                                      "OPTIMIZE False"]


def test_predict_and_sphere_load_no_scipy_optimize(tmp_path):
    # the pole bisection runs on numpy; only scipy.special is needed
    script = (
        "import sys\n"
        "from modesub.cli import main\n"
        "assert main(['predict', '--group', 'O_h', '--tmax', '3',\n"
        "             '--out', sys.argv[1]]) == 0\n"
        "assert main(['sphere', '--tmax', '3', '--kmin', '0.05', '--kmax',\n"
        "             '2', '--steps', '50', '--out', sys.argv[2]]) == 0\n"
        "print('SCIPY', 'scipy.special' in sys.modules,\n"
        "      'scipy.optimize' in sys.modules)\n"
    )
    assert run_fresh(script, str(tmp_path / "p.json"),
                     str(tmp_path / "s.csv")) == ["SCIPY True False"]


def write_labelled_snapshots(snapdir, frequencies):
    """One two-irrep mode-set file per frequency, three modes each."""
    snapdir.mkdir()
    for k, f in enumerate(frequencies):
        (snapdir / f"s{k}.json").write_text(json.dumps(
            {"frequency": f, "lambdas": [f, 1.0 - f, 2.0 * f],
             "vectors": np.eye(3).tolist(), "labels": ["A_1", "A_1", "E"]}))


@pytest.mark.parametrize("flag", ["--no-labels", "--no-enforce-vnw"])
def test_track_loads_scipy_optimize_only_to_assign(tmp_path, flag):
    # a labelled sweep whose irrep counts stay constant pairs modes by
    # eigenvalue rank and loads no scipy.optimize; correlation matching does
    snapdir = tmp_path / "snaps"
    write_labelled_snapshots(snapdir, [0.0, 0.25, 0.5, 0.75, 1.0])
    script = (
        "import sys\n"
        "from modesub.cli import main\n"
        "for extra in ([], [sys.argv[1]]):\n"
        "    assert main(['track', '--snapshots', sys.argv[2],\n"
        "                 '--out', sys.argv[3]] + extra) == 0\n"
        "    print('OPTIMIZE', 'scipy.optimize' in sys.modules)\n"
    )
    lines = run_fresh(script, flag, str(snapdir), str(tmp_path / "traces.json"))
    assert lines[0] == f"3 traces, 1 avoidance signatures -> " \
                       f"{tmp_path / 'traces.json'}"
    assert lines[1::2] == ["OPTIMIZE False", "OPTIMIZE True"]


@pytest.mark.parametrize("frequencies, message", [
    ([1.0, 2.0, 1.0, 3.0], "two snapshots at frequency 1.0"),
    ([0.0, float("nan")], "snapshot frequency nan is not finite"),
])
def test_track_rejects_repeated_or_nonfinite_frequencies(capsys, tmp_path,
                                                         frequencies,
                                                         message):
    snapdir = tmp_path / "snaps"
    write_labelled_snapshots(snapdir, frequencies)
    out_path = tmp_path / "traces.json"
    code, out, err = run(capsys, "track", "--snapshots", str(snapdir),
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_console_script_installed():
    exe = shutil.which("modesub")
    assert exe, "console script missing; install with pip install -e ."
    res = subprocess.run([exe, "sphere", "--tmax", "1", "--kmin", "0.9",
                          "--kmax", "1.1", "--steps", "3"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout == SPHERE_EXAMPLE


def test_internal_errors_are_not_data_errors(capsys, monkeypatch):
    import modesub.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_tables", broken)
    code, out, err = run(capsys, "tables", "--group", "O_h")
    assert code == 2 and out == ""
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback (most recent call last)" in err
    # an irrep name from the command line is still a data error
    code, _, err = run(capsys, "subduce", "--from", "Oh:X_9", "--to", "C4v")
    assert code == 2
    assert err == "error: \"O_h has no irrep named 'X_9'\"\n"


def test_malformed_action_file_is_a_data_error(capsys, tmp_path):
    symmetric_problem(tmp_path)
    fileio.save_vectors_csv(tmp_path / "v.csv", np.ones(24))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": "C_4v", "operators": {"a": 1}}))
    code, _, err = run(capsys, "classify", "--vectors", str(tmp_path / "v.csv"),
                       "--action", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad}: malformed action file")


@pytest.mark.parametrize("fault", ["swapped", "negated"])
def test_action_that_is_no_representation_is_a_data_error(capsys, tmp_path,
                                                          fault):
    act, _ = symmetric_problem(tmp_path)
    ops = dense_operators(act)
    if fault == "swapped":
        # elements 1 and 4 lie in different classes
        ops[1], ops[4] = ops[4], ops[1]
    else:
        ops = [-d for d in ops]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": "C_4v", "dof": 3,
                               "operators": [d.tolist() for d in ops]}))
    fileio.save_vectors_csv(tmp_path / "v.csv", np.ones(act.dimension))
    for args in (["solve", "--x", str(tmp_path / "x.csv"),
                  "--r", str(tmp_path / "r.csv"),
                  "--out", str(tmp_path / "m.json"), "--action", str(bad)],
                 ["classify", "--vectors", str(tmp_path / "v.csv"),
                  "--action", str(bad)]):
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: operators do not represent "
                              f"C_4v: D(")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag, args", [
    ("--kmax", ("sphere", "--tmax", "1", "--kmin", "0.5", "--kmax", "inf",
                "--steps", "3")),
    ("--kmin", ("sphere", "--tmax", "1", "--kmin", "nan", "--kmax", "1.0",
                "--steps", "3")),
    ("--kmax", ("predict", "--group", "O_h", "--tmax", "2", "--kmax", "inf")),
    ("--kmin", ("predict", "--group", "O_h", "--tmax", "2", "--kmin=-inf")),
])
def test_nonfinite_k_range_is_a_data_error(capsys, flag, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite\n"


@pytest.mark.parametrize("args", [
    ("predict", "--group", "O_h", "--tmax", "2", "--kmin", "1", "--kmax", "1"),
    ("predict", "--group", "O_h", "--tmax", "2", "--kmin", "2", "--kmax", "1"),
    ("sphere", "--tmax", "1", "--kmin", "1", "--kmax", "1", "--steps", "3"),
    ("sphere", "--tmax", "1", "--kmin", "2", "--kmax", "1", "--steps", "1"),
])
def test_empty_k_range_is_a_data_error(capsys, args):
    # equal bounds pass only with --steps 1 (test_sphere_pole_cells_empty)
    assert run(capsys, *args) == (2, "", "error: --kmax must be above --kmin\n")


def test_sphere_at_tiny_kr(capsys):
    # the grid's padded pole window lies wholly below the scan floor
    code, out, err = run(capsys, "sphere", "--tmax", "1", "--kmin", "1e-14",
                         "--kmax", "1e-13", "--steps", "2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[:3] for r in rows] == [["1e-14", "1", "1"], ["1e-14", "1", "2"],
                                     ["1e-13", "1", "1"], ["1e-13", "1", "2"]]
    # the overflowing samples are blank and flagged; the rest are finite
    assert [(r[3], r[4]) for r in rows[:2]] == [("", "1"), ("", "1")]
    assert all(r[3] and r[4] == "0" for r in rows[2:])


@pytest.mark.parametrize("key, value", [
    ("vectors", [1.0, 2.0]),
    ("vectors", [[1.0, 0.0], [3.0]]),
    ("lambdas", "12"),
])
def test_malformed_snapshot_is_a_data_error(capsys, tmp_path, key, value):
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    doc = {"frequency": 1.0, "lambdas": [1.0, 2.0],
           "vectors": [[1.0, 0.0], [0.0, 1.0]]}
    doc[key] = value
    (snapdir / "s0.json").write_text(json.dumps(doc))
    out_path = tmp_path / "traces.json"
    code, out, err = run(capsys, "track", "--snapshots", str(snapdir),
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {snapdir / 's0.json'}: not a mode-set "
                          f"file (")
    assert not out_path.exists()


def test_classify_rejects_vectors_of_another_dimension(capsys, tmp_path):
    g = builtin_group("O_h")
    pts = orbit_points(g, np.array([1.0, 0.6, 0.3]))
    (tmp_path / "action.json").write_text(json.dumps(
        {"group": "O_h", "points": pts.tolist(), "dof": 3}))
    fileio.save_vectors_csv(tmp_path / "v.csv", np.ones((5, 2)))
    code, out, err = run(capsys, "classify", "--vectors", str(tmp_path / "v.csv"),
                         "--action", str(tmp_path / "action.json"))
    assert code == 2 and out == ""
    assert err == ("error: vectors have 5 rows, but the O_h action has "
                   "dimension 144\n")


def test_classify_many_vectors(capsys, tmp_path):
    act, _ = symmetric_problem(tmp_path)
    rng = np.random.default_rng(8)
    names = ["A_1", "B_2", "E", "A_2"]
    vecs = np.stack([projector(act, n) @ rng.normal(size=act.dimension)
                     for n in names], axis=1)
    vecs[:, 3] += 0.5 * vecs[:, 0]                 # mixed: no pure irrep
    fileio.save_vectors_csv(tmp_path / "v.csv", vecs)
    code, out, _ = run(capsys, "classify", "--vectors", str(tmp_path / "v.csv"),
                       "--action", str(tmp_path / "action.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert [e["dominant"] for e in doc] == names[:3] + ["A_2"]
    assert [e["classified"] for e in doc] == names[:3] + [None]
