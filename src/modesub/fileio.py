"""File formats shared by the command-line tools.

Matrices travel as dense CSV (one row per line) or as a small binary grid:
the magic bytes ``CMX1``, the side length as a little-endian uint32, then
the entries as row-major little-endian float64.  Mode sets, group actions
and tracked traces travel as JSON; matrices and actions are only read.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .cmsolver import ModeSet

if TYPE_CHECKING:
    from .symaction import GroupAction
    from .tracker import Snapshot

MATRIX_MAGIC = b"CMX1"


def load_matrix(path) -> np.ndarray:
    """Load a matrix, sniffing binary grids by their magic bytes.

    A binary grid is read to its end and only then checked against its
    side, so a side larger than the file never sizes a read.  The size is
    not taken from stat beforehand: a pipe has none.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MATRIX_MAGIC))
        if head == MATRIX_MAGIC:
            side, body = fh.read(4), fh.read()
            n = int.from_bytes(side, "little")
            if len(side) < 4 or len(body) < 8 * n * n:
                raise ValueError(f"{path}: truncated binary matrix")
            if n == 0:
                raise ValueError(f"{path}: empty matrix file")
            data = np.frombuffer(body, dtype="<f8", count=n * n)
            return data.reshape(n, n).copy()
        return _load_csv(fh, path, head)


def _load_csv(fh, path, head=b"") -> np.ndarray:
    """Dense CSV grid, one row per line, from `fh`, the binary handle of
    `path` with `head` already read; a binary grid fails to parse.

    Fields are ASCII floats as float() reads them, without ``_`` separators,
    optionally in double quotes; blank lines are skipped and nothing is a
    comment.

    A file whose every line is plain, JSON numbers joined by commas and
    nothing else, is parsed one line at a time by orjson, which reads each
    number to the double float() gives: that was checked on orjson 3.8.3,
    and test_plain_csv_reads_like_float guards it.  Any other file, or one
    that holds the token -0, which orjson reads as the integer 0, is parsed
    again from its start by np.loadtxt, so its values and error messages
    are numpy's.  A regular file is streamed and numpy reopens it by name;
    a pipe is read whole, once, and numpy parses the bytes kept.
    """
    # numpy reads a file it opens by name in chunks, and a handle by lines:
    # the two place a decoding error differently
    text = path
    if not fh.seekable():
        fh = io.BytesIO(head + fh.read())
        text = io.TextIOWrapper(fh)     # decoded as open(path) would
    fh.seek(0)
    m = _load_plain_csv(fh)
    if m is not None:
        return m
    fh.seek(0)
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            m = np.loadtxt(text, delimiter=",", ndmin=2, comments=None,
                           quotechar='"')
    except ValueError as exc:
        raise ValueError(f"{path}: {_csv_error(str(exc))}") from None
    if m.size == 0:
        raise ValueError(f"{path}: empty matrix file")
    return m


#: the bytes a plain CSV line holds, and a whole field -0 in one
_PLAIN_BYTES = b"0123456789.eE+-,\n"
_NEGATIVE_ZERO = re.compile(rb"(?<![^,])-0(?![^,\n])")


class _NotPlain(Exception):
    """A CSV line that is not a nonempty list of JSON numbers as wide as the
    first."""


def _load_plain_csv(lines):
    """The matrix of CSV `lines` if every line is plain, else None."""
    import orjson

    width = 0

    def fields(line):
        nonlocal width
        if line.translate(None, _PLAIN_BYTES):
            raise _NotPlain
        row = orjson.loads(b"[" + line + b"]")
        if not row or (width and len(row) != width):
            raise _NotPlain
        width = len(row)
        return row

    try:
        data = np.fromiter(itertools.chain.from_iterable(map(fields, lines)),
                           dtype=float)
    except (_NotPlain, orjson.JSONDecodeError):
        return None
    if not width:
        return None
    # only a zero can have been read from -0: then look for the token
    if (data == 0).any():
        lines.seek(0)
        if any(map(_NEGATIVE_ZERO.search, lines)):
            return None
    return data.reshape(-1, width)


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


def load_vectors_csv(path) -> np.ndarray:
    """Read one vector per column; a single column yields shape (N, 1)."""
    with open(path, "rb") as fh:
        return _load_csv(fh, path)


def save_modes_json(path, modes: ModeSet, labels=None) -> None:
    """modes.json: {frequency, lambdas, vectors, labels?}; vectors holds one
    row per mode.

    The bytes are json.dump(doc, fh, indent=1) and a newline; the arrays are
    written one row at a time, so the document is never held as one string.
    """
    names = labels if labels is not None else modes.labels
    with open(path, "w") as fh:
        fh.write('{\n "frequency": ' + json.dumps(float(modes.frequency))
                 + ',\n "lambdas": ')
        _write_floats(fh, np.asarray(modes.eigenvalues, dtype=float), 1)
        fh.write(',\n "vectors": ')
        _write_floats(fh, np.asarray(modes.eigencurrents, dtype=float).T, 1)
        if names is not None:
            fh.write(',\n "labels": ' + json.dumps(list(names), indent=1)
                     .replace("\n", "\n "))
        fh.write("\n}\n")


def _write_floats(fh, a, depth: int) -> None:
    """A float array laid out as a JSON array at nesting depth `depth` with
    indent 1."""
    if a.ndim == 1:
        fh.write(_json_floats(a, depth))
        return
    pad = "\n" + " " * (depth + 1)
    fh.write("[")
    empty = True
    for sub in a:
        fh.write(pad if empty else "," + pad)
        _write_floats(fh, sub, depth + 1)
        empty = False
    fh.write("]" if empty else "\n" + " " * depth + "]")


def _json_floats(row, depth: int) -> str:
    """json's indent-1 layout of a 1-D float array at nesting depth `depth`:
    repr per entry, and NaN/Infinity/-Infinity for nonfinite ones.

    orjson prints the same shortest round-trip digits as repr, and lays them
    out the same way for 0.0, -0.0 and 1e-4 <= |x| < 1e16.  Elsewhere it
    writes 1e-5 for 1e-05, 1e16 for 1e+16 and null for a nonfinite value, so
    only those entries are rewritten, by json's own float encoder.  orjson
    does not document that layout as stable: it was checked on orjson 3.8.3,
    and test_modes_json_bytes_match_json_dump and its random-bit-pattern
    companion guard it.
    """
    if not len(row):
        return "[]"
    import orjson

    row = np.ascontiguousarray(row)
    text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
    tokens = text[1:-1].decode().split(",")
    mag = np.abs(row)
    (other,) = np.nonzero(~((mag >= 1e-4) & (mag < 1e16)) & (mag != 0))
    for i, tok in zip(other.tolist(),
                      json.dumps(row[other].tolist())[1:-1].split(", ")):
        tokens[i] = tok
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(tokens) + "\n" + " " * depth + "]"


def load_modes_json(path) -> Snapshot:
    """Read a modes.json: `lambdas` a list of numbers, `frequency` a number,
    and optionally `vectors`, a 2-D list of numbers with one row per
    eigenvalue, and `labels`, a list of one string per eigenvalue.  Booleans
    and nulls are no numbers.  A set of no modes loads without vectors: its
    empty `vectors` has no row length.  An integer beyond 64 bits reads as
    the nearest float.

    orjson parses the text; json parses it again only where orjson refuses
    it: NaN, Infinity, a lone surrogate or an exponent that overflows, and
    anything that is no JSON at all, so that json words the error.  orjson
    reads every float literal to the same double as json does: that was
    checked on orjson 3.8.3, and test_modes_json_loads_like_json guards it.
    """
    import orjson

    from .tracker import Snapshot

    try:
        text = Path(path).read_text()
        try:
            doc = orjson.loads(text)
        except orjson.JSONDecodeError:
            doc = _json_loads(text)
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
        labels = doc.get("labels")
        if labels is not None:
            if (not isinstance(labels, list) or len(labels) != len(lam)
                    or not all(isinstance(x, str) for x in labels)):
                raise ValueError(f"labels must be a list of {len(lam)} "
                                 f"strings")
            labels = tuple(labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a mode-set file ({exc})") from None
    return Snapshot(float(freq), lam, vectors, labels)


def _json_loads(text: str):
    """json.loads, with nesting too deep for it a ValueError like any other
    malformed text."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


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


def traces_to_csv(traces, fh) -> None:
    """One row per (trace, frequency): id, irrep, frequency, lambda,
    mode_index."""
    import csv

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["trace_id", "irrep", "frequency", "lambda", "mode_index"])
    for tr in traces:
        for p in tr.points:
            w.writerow([tr.id, tr.irrep if tr.irrep is not None else "",
                        repr(float(p.frequency)), repr(float(p.lam)),
                        p.mode_index])


def load_action_json(path) -> GroupAction:
    """Action files name a group plus either per-element operator matrices
    (element order, each a signed block permutation) or a symmetric point set
    with a per-point dof count.  Every error names the file."""
    from .pointgroup import builtin_group
    from .symaction import action_from_operators, action_from_points

    try:
        with open(path) as fh:
            doc = _json_loads(fh.read())
    except ValueError as exc:       # no JSON, or no UTF-8
        raise ValueError(f"{path}: malformed action file ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("group"), str):
        raise ValueError(f"{path}: action file lacks a group name")
    try:
        group = builtin_group(doc["group"])
        points = doc.get("points")
        if points is not None:
            try:
                points = np.array(points, dtype=float)
            except ValueError:      # ragged, too deep, or not numbers
                raise ValueError("points must be an (N, 3) array of "
                                 "numbers") from None
        if "operators" in doc:
            # without points the finest blocks decode every signed permutation
            dof = _action_dof(doc, 3 if points is not None else 1)
            return action_from_operators(group, doc["operators"], dof, points)
        if points is not None:
            return action_from_points(group, points, dof=_action_dof(doc, 3))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed action file ({exc!r})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path}: action file needs operators or points")


def _action_dof(doc: dict, default: int) -> int:
    """The file's dof, which must be a JSON integer (true is not one)."""
    dof = doc.get("dof", default)
    if type(dof) is not int:
        raise ValueError("dof must be an integer")
    return dof
