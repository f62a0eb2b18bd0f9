"""Benchmark for modesub's three pipelines; see perfbench/README.md.

    python3 perfbench/run.py --workload cm-sweep-oh --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed, measures set-up over several
fresh worker processes, then drives one worker as a closed loop (one client,
one request at a time) for --seconds of measured work, checking every output
against scipy between requests.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
steps that alternate traced and untraced.  A results file with the run
record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh worker processes whose set-up is timed in a --trace 0 run
SETUP_PROCESSES = 5

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: printed and recorded, but not in the result line.  The median and p90 of
#: the 6-25 ops in a run move with the machine's speed more than ops_per_s,
#: the inverse of their mean, does; fail_ratio is 0 on every workload that
#: passes; sweep_s exists on cm-sweep-oh only.
EXTRA_END_TO_END = {"op_s.p50": "s", "op_s.p90": "s", "fail_ratio": "ratio",
                    "sweep_s": "s"}

SETUP_SPANS = ("import", "pointgroup.builtin_group", "fileio.load_action_json")
WORK_SPANS = ("fileio.load_matrix", "cmsolver.ImpedancePair",
              "cmsolver.solve_cm", "cmsolver.classify_modes",
              "fileio.save_modes_json", "fileio.load_snapshot_dir",
              "tracker.track", "tracker.detect_avoidances",
              "fileio.save_traces_json")
SPHERE_SPANS = ("sphwave.sample_trace", "sphwave.sample_trace.low_order",
                "sphwave.sample_trace.high_order")
COUNTS = {"fileio.load_matrix.bytes": "B", "fileio.save_modes_json.bytes": "B",
          "cmsolver.modes": "count", "cmsolver.rank": "count",
          "cmsolver.clusters": "count", "cmsolver.degenerate_clusters": "count",
          "tracker.traces": "count", "tracker.avoidances": "count"}
SPHERE_COUNTS = {"sphwave.samples": "count", "sphwave.poles": "count",
                 "sphwave.masked_ratio": "ratio", "sphwave.bad_samples": "count"}


def _span_metrics(names) -> dict:
    out = {}
    for name in names:
        out[f"{name}.s"] = "s"
        out[f"{name}.share"] = "ratio"
    return out


PER_LAYER = {**_span_metrics(SETUP_SPANS + WORK_SPANS), **COUNTS,
             "trace_overhead_ratio": "ratio", "trace_coverage_ratio": "ratio"}

#: per-layer metrics of sphere-sweep only, on top of PER_LAYER
SPHERE_LAYER = {**_span_metrics(SPHERE_SPANS), **SPHERE_COUNTS}


class Worker:
    """One worker process, spoken to over its stdin and stdout."""

    def __init__(self, workload, work: Path, trace: bool, env: dict):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--inputs", str(work / "in"), "--outputs", str(work / "out"),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, text=True)
        self._read()                    # the worker's {"ready": true} line
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, doc: dict) -> dict:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """End the process and wait for it, whatever state it is in."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def worker_env(cap: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    return env


def rounds_of(workload: str, sizes: inputs.Sizes) -> list:
    """Steps of one round: a whole sweep on cm-sweep-oh, else one op."""
    if workload == "cm-sweep-oh":
        return [("op", k) for k in range(sizes.points)] + [("track", None)]
    return [("op", 0)]


class Checker:
    """Checks one step's outputs against the oracle; outside any timing."""

    def __init__(self, workload: str, ref):
        self.workload, self.ref = workload, ref
        self.snapshots = {}
        self.eigenvalues = {}       # reference spectra, computed once per point

    def _eigenvalues(self, index: int, x, r):
        if index not in self.eigenvalues:
            self.eigenvalues[index] = oracle.reference_eigenvalues(x, r)
        return self.eigenvalues[index]

    def __call__(self, step: str, index, counts: dict) -> list:
        ref = self.ref
        if self.workload == "sphere-sweep":
            with np.load(counts["path"]) as npz:
                problems, bad, poles = oracle.check_sphere_op(
                    ref.tmax, ref.kr, npz["lam"], npz["mask"])
            counts["sphwave.bad_samples"] = bad
            counts["sphwave.poles"] = poles
            return problems
        if self.workload == "solve-csv-large":
            return oracle.check_solve(counts["path"], ref.x, ref.r,
                                      self._eigenvalues(0, ref.x, ref.r))
        if step == "track":
            paths = [self.snapshots[k] for k in sorted(self.snapshots)]
            return oracle.check_tracks(counts["path"], paths, ref.frequencies)
        x, r = ref.xs[index], ref.rs[index]
        self.snapshots[index] = counts["path"]
        return oracle.check_cm_point(counts["path"], x, r,
                                     self._eigenvalues(index, x, r), ref.dof,
                                     len(x) // (ref.dof * ref.orbit_size))


def self_times(spans: list) -> dict:
    """Per span name (and name.group): calls, self seconds and the phase
    ('setup' or 'work') whose root span contains it.  Self time is the
    duration minus the time covered by child spans."""
    by_id = {s["id"]: s for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats = {}
    for s in spans:
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        phase = "setup" if root["name"] == "setup" else "work"
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        names = [s["name"]] + ([f"{s['name']}.{s['group']}"] if s["group"] else [])
        for name in names:
            st = stats.setdefault(name, {"calls": 0, "self": 0.0,
                                         "total": 0.0, "phase": phase})
            st["calls"] += 1
            st["self"] += own
            st["total"] += s["end"] - s["start"]
    return stats


def layer_metrics(spans, traced_s, untraced_s, counts, workload) -> dict:
    stats = self_times(spans)
    phase_total = {"setup": stats.get("setup", {}).get("total", 0.0),
                   "work": sum(stats[r]["total"] for r in ("op", "track")
                               if r in stats)}
    units = dict(PER_LAYER)
    if workload == "sphere-sweep":
        units.update(SPHERE_LAYER)
    values = {}
    for name, unit in units.items():
        base, _, kind = name.rpartition(".")
        if kind in ("s", "share") and base in stats:
            st = stats[base]
            values[name] = (st["self"] / st["calls"] if kind == "s"
                            else st["self"] / phase_total[st["phase"]])
        elif name in counts:
            values[name] = statistics.fmean(counts[name])
        else:
            values[name] = 0.0
    if workload == "sphere-sweep":
        samples = sum(counts["sphwave.samples"])
        values["sphwave.masked_ratio"] = sum(counts["sphwave.masked"]) / samples
    glue = sum(stats[r]["self"] for r in ("op", "track") if r in stats)
    values["trace_coverage_ratio"] = 1.0 - glue / phase_total["work"]
    values["trace_overhead_ratio"] = (statistics.fmean(traced_s)
                                      / statistics.fmean(untraced_s))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def git_commit(root: Path):
    """HEAD's commit when the tree is a git checkout, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_record(args, cap: int, sizes) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "sizes": asdict(sizes), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": cap, "cpu_count": os.cpu_count(), "blas_threads": cap,
            "git_commit": git_commit(ROOT), "pythonpath": "src"}


def measure(args, sizes, work: Path, ref, env) -> dict:
    """Set-up probes, then the closed loop; returns the raw observations."""
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            probe = Worker(args.workload, work, False, env)
            setup.append(probe.setup_s)
            probe.close()
    worker = Worker(args.workload, work, bool(args.trace), env)
    try:
        setup.append(worker.setup_s)
        check = Checker(args.workload, ref)
        steps = rounds_of(args.workload, sizes)
        obs = {"setup_s": setup, "op_s": [], "traced_op_s": [], "sweep_s": [],
               "step_s": [], "attempted": 0, "failed": 0, "problems": [],
               "counts": {}}
        measured, n_step = 0.0, 0
        for n_round in itertools.count():
            sweep = 0.0
            for step, index in steps:
                # trace runs alternate traced and untraced steps, so that the
                # overhead ratio compares steps run close together in time
                traced = bool(args.trace) and n_step % 2 == 0
                n_step += 1
                reply = worker.request({"step": step, "index": index,
                                        "trace": traced})
                obs["attempted"] += 1
                problems = ([reply["error"]] if reply["error"]
                            else check(step, index, reply["counts"]))
                if problems:
                    obs["failed"] += 1
                    obs["problems"].append(f"{step} {index}: {problems}")
                for key, val in reply["counts"].items():
                    if key != "path":
                        obs["counts"].setdefault(key, []).append(val)
                sweep += reply["seconds"]
                measured += reply["seconds"]
                if not traced:
                    obs["step_s"].append(reply["seconds"])
                if step == "op":
                    obs["traced_op_s" if traced else "op_s"].append(reply["seconds"])
                if n_round and measured >= args.seconds:
                    break           # after the first round, stop mid-sweep
            else:
                if not args.trace:
                    obs["sweep_s"].append(sweep)
            if measured >= args.seconds and n_step >= 1 + bool(args.trace):
                break
        final = worker.request({"step": "finish"})
    finally:
        worker.close()
    obs["peak_rss_mb"] = final["peak_rss_mb"]
    obs["spans"] = final["spans"]
    return obs


def end_to_end(obs: dict, workload: str) -> dict:
    op_s = obs["op_s"]
    values = {"op_s.p50": statistics.median(op_s),
              "op_s.p90": float(np.percentile(op_s, 90)),
              "ops_per_s": len(op_s) / sum(obs["step_s"]),
              "setup_s": statistics.median(obs["setup_s"]),
              "peak_rss_mb": obs["peak_rss_mb"],
              "fail_ratio": obs["failed"] / obs["attempted"]}
    if workload == "cm-sweep-oh":
        values["sweep_s"] = statistics.median(obs["sweep_s"])
    units = {**END_TO_END, **EXTRA_END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the measured ones")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "modesub" / "__init__.py").is_file():
        print(f"run.py: no modesub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sizes = inputs.TINY if args.tiny else inputs.FULL
    cap = len(os.sched_getaffinity(0))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ref = inputs.generate(args.workload, args.seed, sizes, work / "in")
        (work / "out").mkdir(parents=True, exist_ok=True)
        obs = measure(args, sizes, work, ref, worker_env(cap))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(obs["spans"], obs["traced_op_s"], obs["op_s"],
                                obs["counts"], args.workload)
        shown = metrics
    else:
        shown = end_to_end(obs, args.workload)
        metrics = {k: shown[k] for k in END_TO_END}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"record": run_record(args, cap, sizes), "metrics": shown,
           "attempted": obs["attempted"], "failed": obs["failed"],
           "problems": obs["problems"],
           "samples": {k: obs[k] for k in ("setup_s", "op_s", "traced_op_s",
                                           "sweep_s")}}
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(
            json.dumps(obs["spans"]) + "\n")

    for problem in obs["problems"][:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{obs['attempted']} steps, {obs['failed']} failed")
    for name, m in shown.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": obs["failed"] == 0,
                      "attempted": obs["attempted"], "failed": obs["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
