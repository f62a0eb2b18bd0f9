"""Benchmark worker: runs modesub's public functions on generated inputs.

The worker is the system under test.  It sets up (imports, plus the group
and action build on cm-sweep-oh), prints one ``{"ready": ...}`` line, then
serves one request per stdin line and answers each with one JSON line on
stdout: a closed loop with a single client.  It times every step itself,
and when tracing is on it records one span around each public call.

Requests: ``{"step": "op", "index": k, "trace": bool}``, ``{"step":
"track", "trace": bool}`` (cm-sweep-oh only) and ``{"step": "finish"}``.
Run by perfbench/run.py; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory spans: name, start, end and parent, kept until the end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, group: str | None = None):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "group": group,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


class SphereSweep:
    """One op samples every (t, s) trace with t = 1..tmax on the grid."""

    MODULES = ("pointgroup", "sphwave")

    def __init__(self, inputs: Path, outputs: Path, tracer: Tracer):
        import numpy as np

        from modesub import pointgroup, sphwave

        self.np, self.sphwave, self.tracer = np, sphwave, tracer
        spec = json.loads((inputs / "sphere.json").read_text())
        self.kr = np.linspace(spec["kr_lo"], spec["kr_hi"], spec["grid"])
        self.waves = [pointgroup.O3IrrepId(t, s)
                      for t in range(1, spec["tmax"] + 1)
                      for s in (pointgroup.TE, pointgroup.TM)]
        self.out = outputs / "samples.npz"

    def op(self, index: int):
        results = []
        for wave in self.waves:
            order = "low_order" if wave.t <= 6 else "high_order"
            with self.tracer.span("sphwave.sample_trace", order):
                results.append(self.sphwave.sample_trace(wave, self.kr))
        return results

    def emit(self, results) -> dict:
        """Hand the samples to the checker; runs outside the timed step."""
        lam = self.np.array([r[0] for r in results])
        mask = self.np.array([r[1] for r in results])
        self.np.savez(self.out, lam=lam, mask=mask)
        return {"sphwave.samples": int(mask.size),
                "sphwave.masked": int(mask.sum()), "path": str(self.out)}


class CmSweepOh:
    """One op solves and classifies one frequency point; `track` threads the
    sweep written so far."""

    MODULES = ("cmsolver", "fileio", "pointgroup", "tracker")

    def __init__(self, inputs: Path, outputs: Path, tracer: Tracer):
        from modesub import cmsolver, fileio, pointgroup, tracker

        self.cmsolver, self.fileio, self.tracker = cmsolver, fileio, tracker
        self.tracer, self.inputs = tracer, inputs
        self.sweep = json.loads((inputs / "sweep.json").read_text())
        self.snaps = outputs / "snaps"
        self.snaps.mkdir(parents=True, exist_ok=True)
        self.traces_out = outputs / "traces.json"
        with tracer.span("pointgroup.builtin_group"):
            pointgroup.builtin_group("O_h")
        with tracer.span("fileio.load_action_json"):
            self.action = fileio.load_action_json(inputs / "action.json")

    def op(self, index: int):
        point = self.sweep[index]
        span, fileio, cmsolver = self.tracer.span, self.fileio, self.cmsolver
        with span("fileio.load_matrix"):
            x = fileio.load_matrix(self.inputs / point["x"])
        with span("fileio.load_matrix"):
            r = fileio.load_matrix(self.inputs / point["r"])
        with span("cmsolver.ImpedancePair"):
            pair = cmsolver.ImpedancePair(x, r, frequency=point["frequency"])
        with span("cmsolver.solve_cm"):
            modes = cmsolver.solve_cm(pair)
        with span("cmsolver.classify_modes"):
            classes = cmsolver.classify_modes(modes, self.action)
        out = self.snaps / f"modes_{index:02d}.json"
        with span("fileio.save_modes_json"):
            fileio.save_modes_json(out, modes, labels=classes.labels)
        return modes, classes, out, [self.inputs / point["x"],
                                     self.inputs / point["r"]]

    def emit(self, results) -> dict:
        modes, classes, out, loaded = results
        return {"cmsolver.modes": modes.count, "cmsolver.rank": modes.rank,
                "cmsolver.clusters": len(classes.clusters),
                "cmsolver.degenerate_clusters":
                    sum(1 for a, b in classes.clusters if b - a > 1),
                "fileio.load_matrix.bytes":
                    sum(p.stat().st_size for p in loaded) / len(loaded),
                "fileio.save_modes_json.bytes": out.stat().st_size,
                "path": str(out)}

    def track(self):
        span, fileio, tracker = self.tracer.span, self.fileio, self.tracker
        with span("fileio.load_snapshot_dir"):
            snaps = fileio.load_snapshot_dir(self.snaps)
        with span("tracker.track"):
            traces = tracker.track(snaps)
        with span("tracker.detect_avoidances"):
            avoidances = tracker.detect_avoidances(traces)
        with span("fileio.save_traces_json"):
            fileio.save_traces_json(self.traces_out, traces, avoidances)
        return traces, avoidances

    def emit_track(self, results) -> dict:
        traces, avoidances = results
        return {"tracker.traces": len(traces),
                "tracker.avoidances": len(avoidances),
                "path": str(self.traces_out)}


class SolveCsvLarge:
    """One op is `modesub solve` without --action on CSV inputs."""

    MODULES = ("cmsolver", "fileio")

    def __init__(self, inputs: Path, outputs: Path, tracer: Tracer):
        from modesub import cmsolver, fileio

        self.cmsolver, self.fileio, self.tracer = cmsolver, fileio, tracer
        self.inputs = [inputs / "x.csv", inputs / "r.csv"]
        self.out = outputs / "modes.json"

    def op(self, index: int):
        span, fileio, cmsolver = self.tracer.span, self.fileio, self.cmsolver
        with span("fileio.load_matrix"):
            x = fileio.load_matrix(self.inputs[0])
        with span("fileio.load_matrix"):
            r = fileio.load_matrix(self.inputs[1])
        with span("cmsolver.ImpedancePair"):
            pair = cmsolver.ImpedancePair(x, r)
        with span("cmsolver.solve_cm"):
            modes = cmsolver.solve_cm(pair)
        with span("fileio.save_modes_json"):
            fileio.save_modes_json(self.out, modes)
        return modes

    def emit(self, modes) -> dict:
        return {"cmsolver.modes": modes.count, "cmsolver.rank": modes.rank,
                "fileio.load_matrix.bytes":
                    sum(p.stat().st_size for p in self.inputs) / 2,
                "fileio.save_modes_json.bytes": self.out.stat().st_size,
                "path": str(self.out)}


WORKLOADS = {"sphere-sweep": SphereSweep, "cm-sweep-oh": CmSweepOh,
             "solve-csv-large": SolveCsvLarge}


def _send(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _timed(tracer: Tracer, root: str, trace: bool, fn):
    """Run one step under a root span; returns (seconds, result, error)."""
    tracer.enabled = trace
    t0 = time.perf_counter()
    try:
        with tracer.span(root):
            result = fn()
    except Exception:                       # a failed op is counted, not fatal
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, result, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--outputs", type=Path, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    tracer = Tracer(bool(args.trace))
    workload = WORKLOADS[args.workload]
    with tracer.span("setup"):
        with tracer.span("import"):
            for name in workload.MODULES:
                importlib.import_module(f"modesub.{name}")
        runner = workload(args.inputs, args.outputs, tracer)
    _send({"ready": True})

    for line in sys.stdin:
        req = json.loads(line)
        step = req["step"]
        if step == "finish":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _send({"peak_rss_mb": peak_kb / 1024.0, "spans": tracer.spans})
            return 0
        if step == "op":
            work, emit = functools.partial(runner.op, req["index"]), runner.emit
        elif step == "track":
            work, emit = runner.track, runner.emit_track
        else:
            raise ValueError(f"unknown step {step!r}")
        seconds, result, error = _timed(tracer, step, req["trace"], work)
        tracer.enabled = False
        counts = emit(result) if error is None else {}
        _send({"seconds": seconds, "error": error, "counts": counts})
    return 0


if __name__ == "__main__":
    sys.exit(main())
