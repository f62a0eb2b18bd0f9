"""File formats shared by the command-line tools.

Matrices travel as dense CSV (one row per line) or as a small binary grid:
the magic bytes ``CMX1``, the side length as a little-endian uint32, then
the entries as row-major little-endian float64.  Mode sets, group actions
and tracked traces travel as JSON.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import struct
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .cmsolver import ModeSet
from .pointgroup import builtin_group
from .symaction import (GroupAction, _dense, action_from_operators,
                        action_from_points)
from .tracker import Snapshot, TracePoint, TrackedTrace

MATRIX_MAGIC = b"CMX1"


def save_matrix_csv(path, m) -> None:
    """One line per row, each entry as repr(float)."""
    with open(path, "w", newline="") as fh:
        for row in np.asarray(m, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def save_matrix_binary(path, m) -> None:
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("binary matrix format holds square matrices only")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<I", m.shape[0]))
        fh.write(m.tobytes())


def load_matrix(path) -> np.ndarray:
    """Load a matrix, sniffing binary grids by their magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(MATRIX_MAGIC))
        if head == MATRIX_MAGIC:
            (n,) = struct.unpack("<I", fh.read(4))
            data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
            if data.size != n * n:
                raise ValueError(f"{path}: truncated binary matrix")
            return data.reshape(n, n).copy()
    return _load_csv(path)


def _load_csv(path) -> np.ndarray:
    """Dense CSV grid, one row per line; a binary grid fails to parse.

    Fields are ASCII floats as float() reads them, without ``_`` separators,
    optionally in double quotes; blank lines are skipped and nothing is a
    comment.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            m = np.loadtxt(path, delimiter=",", ndmin=2, comments=None,
                           quotechar='"')
    except ValueError as exc:
        raise ValueError(f"{path}: {_csv_error(str(exc))}") from None
    if m.size == 0:
        raise ValueError(f"{path}: empty matrix file")
    return m


# numpy.loadtxt's messages; its rows count matrix rows (blank lines skipped),
# from 1 in the first and from 0 in the second
_RAGGED = re.compile(r"the number of columns changed from (\d+) to (\d+) "
                     r"at row (\d+);")
_NOT_FLOAT = re.compile(r"could not convert string (.*) to float64 at row "
                        r"(\d+), column (\d+)\.$", re.DOTALL)


def _csv_error(message: str) -> str:
    """numpy's parse error as ``row R: ...`` with R counted from 1."""
    if m := _RAGGED.match(message):
        return f"row {m[3]}: expected {m[1]} fields, found {m[2]}"
    if m := _NOT_FLOAT.match(message):
        return f"row {int(m[2]) + 1}: field {m[3]} is not a number: {m[1]}"
    return message


def save_vectors_csv(path, vectors) -> None:
    """Write vectors as columns, one coefficient per line."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.ndim != 2:
        raise ValueError("vectors must form a 1-D or 2-D array")
    if v.shape[0] == 1 and np.asarray(vectors).ndim == 1:
        v = v.T
    save_matrix_csv(path, v)


def load_vectors_csv(path) -> np.ndarray:
    """Read one vector per column; a single column yields shape (N, 1)."""
    return np.atleast_2d(_load_csv(path))


def save_modes_json(path, modes: ModeSet, labels=None) -> None:
    """modes.json: {frequency, lambdas, vectors, labels?}; vectors holds one
    row per mode."""
    doc = {
        "frequency": float(modes.frequency),
        "lambdas": np.asarray(modes.eigenvalues, dtype=float),
        "vectors": np.asarray(modes.eigencurrents, dtype=float).T,
    }
    names = labels if labels is not None else modes.labels
    if names is not None:
        doc["labels"] = list(names)
    _save_json(path, doc)


def _save_json(path, doc: dict) -> None:
    """Write doc as json.dump(doc, fh, indent=1) and a newline would.

    Values that are float arrays (an ndarray, or an iterator of them) are
    written one innermost row at a time, so the document is never held as
    one string.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for k, (key, val) in enumerate(doc.items()):
            fh.write(("," if k else "") + "\n " + json.dumps(key) + ": ")
            if isinstance(val, (np.ndarray, Iterator)):
                _write_floats(fh, val, 1)
            else:
                fh.write(json.dumps(val, indent=1).replace("\n", "\n "))
        fh.write("\n}\n")


def _write_floats(fh, a, depth: int) -> None:
    """A float array, or an iterable of them, laid out as a JSON array at
    nesting depth `depth` with indent 1."""
    if isinstance(a, np.ndarray) and a.ndim == 1:
        fh.write(_json_floats(a.tolist(), depth))
        return
    pad = "\n" + " " * (depth + 1)
    fh.write("[")
    empty = True
    for sub in a:
        fh.write(pad if empty else "," + pad)
        _write_floats(fh, sub, depth + 1)
        empty = False
    fh.write("]" if empty else "\n" + " " * depth + "]")


def _json_floats(vals: list, depth: int) -> str:
    """json's indent-1 layout of a list of floats at nesting depth `depth`:
    repr per entry, and NaN/Infinity/-Infinity for nonfinite ones."""
    if not vals:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    body = repr(vals)[1:-1]
    if "n" in body:
        # float reprs spell only "nan" and "inf" with letters besides "e"
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    return ("[" + pad + body.replace(", ", "," + pad) + "\n" + " " * depth
            + "]")


def load_modes_json(path) -> Snapshot:
    """Read a modes.json: `lambdas` a list of numbers, `frequency` a number,
    and optionally `vectors`, a 2-D list of numbers with one row per
    eigenvalue, and `labels`.  Booleans and nulls are no numbers.  A set of
    no modes loads without vectors: its empty `vectors` has no row length."""
    text = Path(path).read_text()
    doc = json.loads(text)
    try:
        lam = _numbers(doc["lambdas"], 1, text,
                       "lambdas must be a list of numbers")
        freq = doc["frequency"]
        if isinstance(freq, bool) or not isinstance(freq, (int, float)):
            raise ValueError("frequency must be a number")
        vectors = doc.get("vectors")
        if vectors == [] and not len(lam):
            vectors = None
        elif vectors is not None:
            rows = (f"vectors must be a 2-D list of {len(lam)} rows, one per "
                    f"eigenvalue")
            vectors = _numbers(vectors, 2, text, rows).T
            if vectors.shape[1] != len(lam):
                raise ValueError(rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a mode-set file ({exc})") from None
    labels = doc.get("labels")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    return Snapshot(float(freq), lam, vectors, labels)


def _numbers(vals, ndim: int, text: str, error: str) -> np.ndarray:
    """A JSON list of numbers (ndim 1), or of equal-length rows of numbers
    (ndim 2), parsed from the JSON `text`, as a float array;
    ValueError(error) for anything else."""
    try:
        a = np.array(vals)
    except ValueError:      # ragged rows
        raise ValueError(error) from None
    if a.ndim != ndim or a.dtype.kind not in "iuf":
        raise ValueError(error)
    # a boolean reads as 0 or 1, and JSON spells one only as true or false;
    # only then are the entries checked one by one
    flat = vals if ndim == 1 else itertools.chain.from_iterable(vals)
    if (((a == 0) | (a == 1)).any() and ("true" in text or "false" in text)
            and any(isinstance(x, bool) for x in flat)):
        raise ValueError(error)
    return a.astype(float, copy=False)


def load_snapshot_dir(directory) -> list:
    """Read every .json mode set under a directory, ordered by frequency."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise ValueError(f"{directory}: no .json snapshots found")
    snaps = [load_modes_json(p) for p in paths]
    snaps.sort(key=lambda s: s.frequency)
    return snaps


def save_traces_json(path, traces, avoidances=()) -> None:
    """Write {"traces": [...], "avoidances": [...]} as json.dump(doc, fh,
    indent=1) and a newline would; the points and avoidances, most of the
    file, go through json's C encoder (see _records)."""
    body = ",".join(
        '\n  {\n   "id": ' + json.dumps(tr.id) + ',\n   "irrep": '
        + json.dumps(tr.irrep) + ',\n   "points": '
        + _records([{"frequency": p.frequency, "lambda": p.lam,
                     "mode_index": p.mode_index} for p in tr.points], 3)
        + ',\n   "events": '
        + json.dumps(tr.events, indent=1).replace("\n", "\n   ") + "\n  }"
        for tr in traces)
    avoid = _records([{"lower_id": s.lower_id, "upper_id": s.upper_id,
                       "irrep": s.irrep, "frequency": s.frequency,
                       "gap": s.gap, "kind": s.kind} for s in avoidances], 1)
    with open(path, "w") as fh:
        fh.write('{\n "traces": [' + body + ("\n ]" if body else "]")
                 + ',\n "avoidances": ' + avoid + "\n}\n")


def _records(rows: list, depth: int) -> str:
    """json.dumps(rows, indent=1) laid out at nesting depth `depth`, for a
    list of non-empty dicts of scalars.

    json.dumps with an indent runs json's pure-Python encoder.  Without one
    it runs the C encoder, whose item separator here is the line break and
    indent of a field; the seams between dicts are then re-indented.  A
    JSON string holds no raw line break, so no seam is inside a value.
    """
    if not rows:
        return "[]"
    field = "\n" + " " * (depth + 2)
    text = json.dumps(rows, separators=("," + field, ": "))
    row = "\n" + " " * (depth + 1)
    return ("[" + row + "{" + field
            + text[2:-2].replace("}," + field + "{",
                                 row + "}," + row + "{" + field)
            + row + "}\n" + " " * depth + "]")


def load_traces_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        traces = []
        for rec in doc["traces"]:
            points = [TracePoint(p["frequency"], p["lambda"], p["mode_index"])
                      for p in rec["points"]]
            traces.append(TrackedTrace(rec["id"], rec["irrep"], points,
                                       list(rec.get("events", []))))
        return traces, doc.get("avoidances", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a traces file ({exc!r})") from None


def traces_to_csv(traces, fh) -> None:
    """One row per (trace, frequency): id, irrep, frequency, lambda,
    mode_index."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["trace_id", "irrep", "frequency", "lambda", "mode_index"])
    for tr in traces:
        for p in tr.points:
            w.writerow([tr.id, tr.irrep if tr.irrep is not None else "",
                        repr(float(p.frequency)), repr(float(p.lam)),
                        p.mode_index])


def save_action_json(path, action: GroupAction) -> None:
    doc = {
        "group": action.group.name,
        # a generator, so only one dense matrix is held at a time
        "operators": (_dense(perm, blocks)
                      for perm, blocks in zip(action.perms, action.blocks)),
    }
    if action.points is not None:
        # kept so loaders can induce mirror operators outside the group
        doc["points"] = np.asarray(action.points, dtype=float)
        doc["dof"] = action.dof
    _save_json(path, doc)


def load_action_json(path) -> GroupAction:
    """Action files name a group plus either per-element operator matrices
    (element order, each a signed block permutation) or a symmetric point set
    with a per-point dof count."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("group"), str):
        raise ValueError(f"{path}: action file lacks a group name")
    group = builtin_group(doc["group"])
    try:
        points = doc.get("points")
        if points is not None:
            points = np.array(points, dtype=float)
        if "operators" in doc:
            # without points the finest blocks decode every signed permutation
            dof = int(doc.get("dof", 3 if points is not None else 1))
            try:
                return action_from_operators(group, doc["operators"], dof,
                                             points)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if points is not None:
            return action_from_points(group, points, dof=int(doc.get("dof", 3)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed action file ({exc!r})") from None
    raise ValueError(f"{path}: action file needs operators or points")
