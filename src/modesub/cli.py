"""Command-line front end.

Exit codes: 0 on success, 1 on usage errors, 2 on data or validation
errors (``error: ...``) and on internal errors (``internal error: ...`` plus
the traceback).  All numeric output is deterministic for fixed inputs and
flags; kR/pi is the abscissa everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def entry() -> None:
    """Console-script entry point; honors the MODESUB_THREADS cap."""
    cap = os.environ.get("MODESUB_THREADS")
    if cap:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, cap)
    sys.exit(main(sys.argv[1:]))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_source(text: str):
    """'O3:t=3,s=TM' -> (O3IrrepId, None); 'D4h:E_g' -> ('E_g', 'D_4h')."""
    from .pointgroup import TE, TM, O3IrrepId, normalize_group_name

    head, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad source {text!r}: expected GROUP:IRREP or "
                         "O3:t=T,s=TE|TM")
    if head.upper().replace("(", "").replace(")", "") in ("O3", "SO3"):
        fields = {}
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"bad source field {item!r}")
            fields[key.strip().lower()] = val.strip()
        if set(fields) != {"t", "s"}:
            raise ValueError(f"bad source {text!r}: need t= and s=")
        s_map = {"TE": TE, "TM": TM, "1": TE, "2": TM}
        if fields["s"].upper() not in s_map:
            raise ValueError(f"bad polarization {fields['s']!r}")
        return O3IrrepId(int(fields["t"]), s_map[fields["s"].upper()]), None
    return rest, normalize_group_name(head)


def _parity_filter(keep):
    if keep is None:
        return None
    from .subduction import ParityFilter
    return ParityFilter(keep)


def _jsonable(x):
    """Nonfinite floats become null; JSON has no inf."""
    x = float(x)
    return x if math.isfinite(x) else None


def _out_stream(path):
    return open(path, "w", newline="") if path else sys.stdout


# ---------------------------------------------------------------- commands

def cmd_tables(args) -> int:
    from .pointgroup import builtin_group, format_character_table, group_to_json

    group = builtin_group(args.group)
    if args.json:
        print(json.dumps(group_to_json(group), indent=1))
    else:
        print(format_character_table(group))
    return 0


def cmd_subduce(args) -> int:
    from .pointgroup import builtin_group
    from .subduction import subduce

    parent, parent_name = _parse_source(args.source)
    child = builtin_group(args.to)
    parent_group = builtin_group(parent_name) if parent_name else None
    res = subduce(parent, child, parent_group=parent_group,
                  parity=_parity_filter(args.parity))
    if args.json:
        print(json.dumps(res.to_json(), indent=1))
    else:
        print(str(res))
    return 0


def cmd_chain(args) -> int:
    from .subduction import chain_subduce

    parent, parent_name = _parse_source(args.source)
    if parent_name is not None:
        raise ValueError("chain starts from an O(3) source (O3:t=...,s=...)")
    path = tuple(p for p in args.path.split(",") if p)
    results = chain_subduce(parent, path,
                            parity=_parity_filter(args.parity),
                            parity_stage=args.parity_stage)
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=1))
    else:
        for r in results:
            print(f"{r.child_group}: {r}")
    return 0


def _check_k_range(args, samples: int) -> None:
    for flag in ("kmin", "kmax"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag} must be finite")
    if not (args.kmin < args.kmax or samples == 1 and args.kmin == args.kmax):
        raise ValueError("--kmax must be above --kmin")


def cmd_sphere(args) -> int:
    import csv

    import numpy as np

    from .pointgroup import O3IrrepId
    from .sphwave import TE, TM, eigenvalue, sample_trace

    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    _check_k_range(args, args.steps)
    grid = np.linspace(args.kmin, args.kmax, args.steps)
    rows = []
    for t in range(1, args.tmax + 1):
        for s in (TE, TM):
            if args.steps == 1:
                # a lone sample has no window to scan for poles; flag it
                # only when the value itself overflows
                lam = np.array([eigenvalue(O3IrrepId(t, s), grid[0] * np.pi)])
                near = np.array([not math.isfinite(lam[0])])
            else:
                lam, near = sample_trace(O3IrrepId(t, s), grid * np.pi)
            rows.append((t, s, lam, near))
    fh = _out_stream(args.out)
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["kR_over_pi", "t", "s", "lambda", "is_pole_adjacent"])
        for i, k in enumerate(grid):
            for t, s, lam, near in rows:
                val = f"{lam[i]:.12g}" if math.isfinite(lam[i]) else ""
                w.writerow([f"{k:.12g}", t, s, val, int(near[i])])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_predict(args) -> int:
    import numpy as np

    from . import svgplot
    from .tracediagram import build_diagram, find_crossings, predict_avoidances

    if args.grid < 2:
        raise ValueError("--grid needs at least 2 samples")
    _check_k_range(args, args.grid)
    diagram = build_diagram(args.tmax, args.kmin * np.pi, args.kmax * np.pi,
                            args.grid, args.group,
                            parity=_parity_filter(args.parity),
                            parity_stage=args.parity_stage)
    crossings = find_crossings(diagram)
    avoidances = predict_avoidances(diagram, crossings)
    doc = {
        "group": args.group,
        "parity": args.parity,
        "kr_over_pi": [float(x) for x in diagram[0].kr / np.pi] if diagram else [],
        "traces": [{
            "source": str(tr.source),
            "label": str(tr.label),
            "irreps": list(tr.irrep_names()),
            "lambda": [_jsonable(v) for v in tr.lam],
            "pole_adjacent": [int(v) for v in tr.pole_adjacent],
            "poles_kr_over_pi": [float(p / np.pi) for p in tr.poles],
        } for tr in diagram],
        "crossings": [{
            "a": ev.index_a, "b": ev.index_b,
            "source_a": str(ev.source_a), "source_b": str(ev.source_b),
            "kr_star_over_pi": ev.kr_star / math.pi,
            "lambda_star": _jsonable(ev.lam_star),
            "shared": list(ev.shared),
            "forbidden": ev.forbidden,
        } for ev in crossings],
        "avoidances": [{
            "kr_star_over_pi": av.event.kr_star / math.pi,
            "affected": list(av.affected),
            "indentation": str(av.lower_source),
            "peak": str(av.upper_source),
        } for av in avoidances],
    }
    fh = _out_stream(args.out)
    try:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    if args.emit_svg:
        svg = svgplot.diagram_svg(diagram, crossings, avoidances,
                                  title=f"{args.group} "
                                        f"{args.parity or 'unfiltered'}")
        with open(args.emit_svg, "w") as sfh:
            sfh.write(svg)
    return 0


def cmd_solve(args) -> int:
    from .cmsolver import ImpedancePair, classify_modes, solve_cm
    from .fileio import load_action_json, load_matrix, save_modes_json

    x = load_matrix(args.x)
    r = load_matrix(args.r)
    pair = ImpedancePair(x, r, frequency=args.frequency)
    modes = solve_cm(pair, rank_tolerance=args.rank_tolerance)
    labels = None
    if args.action:
        labels = classify_modes(modes, load_action_json(args.action)).labels
    save_modes_json(args.out, modes, labels=labels)
    print(f"{modes.count} modes (rank {modes.rank}) -> {args.out}")
    return 0


def cmd_classify(args) -> int:
    from .fileio import load_action_json, load_matrix, load_vectors_csv
    from .symaction import parity_check, project_columns

    action = load_action_json(args.action)
    vectors = load_vectors_csv(args.vectors)
    weight = load_matrix(args.weight) if args.weight else None
    reports = []
    for k, rep in enumerate(project_columns(vectors, action)):
        entry = {
            "vector": k,
            "dominant": rep.dominant,
            "classified": rep.classified,
            "weights": {n: rep.weights[n] for n in sorted(rep.weights)},
        }
        if args.parity:
            entry["parity"] = parity_check(vectors[:, k], action,
                                           weight=weight)
        reports.append(entry)
    if args.json:
        print(json.dumps(reports, indent=1))
    else:
        for e in reports:
            line = (f"vector {e['vector']}: {e['dominant']} "
                    f"(weight {e['weights'][e['dominant']]:.6g}"
                    f"{'' if e['classified'] else ', mixed'})")
            if "parity" in e:
                line += f" parity {e['parity']:+.6g}"
            print(line)
    return 0


def cmd_track(args) -> int:
    from .fileio import load_snapshot_dir, save_traces_json, traces_to_csv
    from .tracker import (TrackOptions, detect_avoidances, split_at_poles,
                          track)

    snaps = load_snapshot_dir(args.snapshots)
    options = TrackOptions(use_labels=not args.no_labels,
                           enforce_no_crossing=args.enforce_vnw)
    traces = track(snaps, options)
    if args.split_poles:
        pieces = []
        for tr in traces:
            pieces.extend(split_at_poles(tr, args.jump_threshold))
        for i, tr in enumerate(pieces):
            tr.id = i
        traces = pieces
    avoidances = detect_avoidances(traces, args.gap_threshold)
    save_traces_json(args.out, traces, avoidances)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            traces_to_csv(traces, fh)
    print(f"{len(traces)} traces, {len(avoidances)} avoidance signatures "
          f"-> {args.out}")
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="modesub",
                     description="Characteristic-mode symmetry toolkit: "
                                 "character tables, subduction, analytic "
                                 "sphere traces, mode solving, "
                                 "classification and tracking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print a character table")
    p.add_argument("--group", required=True,
                   help="group name (Oh, O, D4h, C4v, C2v)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("subduce", help="decompose one representation on a "
                                       "subgroup")
    p.add_argument("--from", dest="source", required=True,
                   metavar="SRC", help="O3:t=T,s=TE|TM or GROUP:IRREP")
    p.add_argument("--to", required=True, help="target group name")
    p.add_argument("--parity", choices=("odd", "even"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subduce)

    p = sub.add_parser("chain", help="subduce repeatedly along a subgroup "
                                     "chain")
    p.add_argument("--from", dest="source", required=True, metavar="SRC")
    p.add_argument("--path", required=True,
                   help="comma-separated group names, e.g. Oh,D4h,C4v")
    p.add_argument("--parity", choices=("odd", "even"))
    p.add_argument("--parity-stage", help="group whose next hop applies the "
                                          "parity filter (default D4h when "
                                          "on the path)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("sphere", help="sample analytic shell eigenvalues "
                                      "as CSV")
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--kmin", type=float, required=True,
                   help="lower bound, in kR/pi")
    p.add_argument("--kmax", type=float, required=True,
                   help="upper bound, in kR/pi")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("predict", help="label analytic traces, find "
                                       "forbidden crossings and avoidances")
    p.add_argument("--group", required=True)
    p.add_argument("--parity", choices=("odd", "even"))
    p.add_argument("--parity-stage")
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--kmin", type=float, default=0.05, help="in kR/pi")
    p.add_argument("--kmax", type=float, default=2.0, help="in kR/pi")
    p.add_argument("--grid", type=int, default=800)
    p.add_argument("--out", help="JSON output file (default stdout)")
    p.add_argument("--emit-svg", metavar="FILE",
                   help="also write a polyline plot")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("solve", help="solve X I = lambda R I from matrix "
                                     "files")
    p.add_argument("--x", required=True, help="reactance matrix (CSV or "
                                              "binary)")
    p.add_argument("--r", required=True, help="resistance matrix")
    p.add_argument("--out", required=True, help="modes.json path")
    p.add_argument("--frequency", type=float, default=0.0)
    p.add_argument("--rank-tolerance", type=float, default=1e-12)
    p.add_argument("--action", help="action file; adds irrep labels")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="project vectors onto group irreps")
    p.add_argument("--vectors", required=True, help="CSV, one coefficient "
                                                    "per line")
    p.add_argument("--action", required=True, help="action JSON")
    p.add_argument("--parity", action="store_true",
                   help="also report mirror parity at the symmetry plane")
    p.add_argument("--weight", help="weight matrix for the parity ratio")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("track", help="thread mode snapshots into traces")
    p.add_argument("--snapshots", required=True,
                   help="directory of modes.json files")
    p.add_argument("--out", required=True, help="traces.json path")
    p.add_argument("--enforce-vnw", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="pair same-irrep modes by eigenvalue rank, so "
                        "their traces never cross")
    p.add_argument("--gap-threshold", type=float, default=1.0)
    p.add_argument("--no-labels", action="store_true",
                   help="ignore irrep labels in snapshots")
    p.add_argument("--split-poles", action="store_true",
                   help="split traces at eigenvalue poles (renumbers ids)")
    p.add_argument("--jump-threshold", type=float, default=1e3)
    p.add_argument("--csv", help="also export one row per (trace, "
                                 "frequency)")
    p.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if any(getattr(args, name, 1.0) <= 0
           for name in ("rank_tolerance", "gap_threshold", "jump_threshold")):
        print("error: tolerance flags must be positive", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a bug in modesub, not a problem with the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
