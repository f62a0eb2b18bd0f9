"""Deterministic input generator for the three benchmark workloads.

Every input goes to disk in a format a modesub user supplies: ``CMX1``
binary matrices, CSV matrices and a points-form ``action.json``.  The same
seed always writes byte-identical files.  The generator builds the O_h
symmetry itself (as the 48 signed 3x3 permutation matrices) so that neither
the inputs nor the oracle depend on the package under test.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sphere-sweep", "cm-sweep-oh", "solve-csv-large")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; `FULL` is what the benchmark measures, `TINY` what the
    smoke test runs."""

    tmax: int = 12               # sphere-sweep: orders t = 1..tmax, TE and TM
    grid: int = 4000             # sphere-sweep: samples on [0.05 pi, 2 pi]
    dof: int = 3                 # cm-sweep-oh: field components per point
    points: int = 8              # cm-sweep-oh: frequency points per sweep
    n: int = 1200                # solve-csv-large: matrix side


FULL = Sizes()
TINY = Sizes(tmax=4, grid=200, dof=1, points=3, n=60)

# The kR range `predict` samples by default (--kmin 0.05 --kmax 2.0, in kR/pi).
KR_LO = 0.05 * math.pi
KR_HI = 2.0 * math.pi


@dataclass
class SphereSweep:
    tmax: int
    kr: np.ndarray


def generate_sphere_sweep(sizes: Sizes, out: Path) -> SphereSweep:
    """The fixed `predict --tmax 12 --grid 4000` sampling, as sphere.json."""
    with open(out / "sphere.json", "w") as fh:
        json.dump({"tmax": sizes.tmax, "kr_lo": KR_LO, "kr_hi": KR_HI,
                   "grid": sizes.grid}, fh, indent=1)
        fh.write("\n")
    return SphereSweep(sizes.tmax, np.linspace(KR_LO, KR_HI, sizes.grid))


def oh_matrices() -> list:
    """The 48 elements of O_h: every signed permutation of the axes."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            mats.append(m)
    return mats


def oh_operators(dof: int) -> tuple:
    """Points of one generic O_h orbit and the dense action on fields there.

    Point i is mats[i] @ seed; element g maps point j to point i when
    g @ mats[j] == mats[i], and rotates the per-point vector by g.
    """
    mats = oh_matrices()
    seed = np.array([0.9, 0.5, 0.2])     # distinct nonzero |x|, |y|, |z|: free orbit
    points = np.array([m @ seed for m in mats])
    index = {m.astype(int).tobytes(): i for i, m in enumerate(mats)}
    n = len(mats)
    ops = []
    for g in mats:
        d = np.zeros((dof * n, dof * n))
        for j, mj in enumerate(mats):
            i = index[(g @ mj).astype(int).tobytes()]
            d[dof * i:dof * i + dof, dof * j:dof * j + dof] = g if dof == 3 else 1.0
        ops.append(d)
    return points, ops


def _invariant(ops, m: np.ndarray) -> np.ndarray:
    """Group average of a matrix: commutes with every operator."""
    avg = sum(d @ m @ d.T for d in ops) / len(ops)
    return (avg + avg.T) / 2.0


@dataclass
class CmSweep:
    frequencies: list
    xs: list
    rs: list
    dof: int
    orbit_size: int


@dataclass
class SolveCase:
    x: np.ndarray
    r: np.ndarray


def _write_cmx(path: Path, m: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"CMX1")
        fh.write(struct.pack("<I", m.shape[0]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def _write_csv(path: Path, m: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in m.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def generate_cm_sweep(seed: int, sizes: Sizes, out: Path) -> CmSweep:
    """X(f) = X0 + f X1 and R(f) = R0 + f R1, all O_h-invariant, R positive
    definite; one CMX1 pair per frequency point plus action.json."""
    rng = np.random.default_rng([seed, 1])
    points, ops = oh_operators(sizes.dof)
    n = ops[0].shape[0]
    a0, a1, b0, b1 = (rng.standard_normal((n, n)) for _ in range(4))
    x0 = _invariant(ops, a0 + a0.T)
    x1 = _invariant(ops, a1 + a1.T)
    r0 = _invariant(ops, b0 @ b0.T / n) + np.eye(n)
    r1 = _invariant(ops, b1 @ b1.T / n)
    freqs = np.linspace(0.5, 1.5, sizes.points).tolist()
    xs, rs, manifest = [], [], []
    for k, f in enumerate(freqs):
        x, r = x0 + f * x1, r0 + f * r1
        _write_cmx(out / f"x_{k:02d}.cmx", x)
        _write_cmx(out / f"r_{k:02d}.cmx", r)
        xs.append(x)
        rs.append(r)
        manifest.append({"frequency": f, "x": f"x_{k:02d}.cmx",
                         "r": f"r_{k:02d}.cmx"})
    with open(out / "action.json", "w") as fh:
        json.dump({"group": "O_h", "points": points.tolist(),
                   "dof": sizes.dof}, fh, indent=1)
        fh.write("\n")
    with open(out / "sweep.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return CmSweep(freqs, xs, rs, sizes.dof, len(points))


def generate_solve_case(seed: int, sizes: Sizes, out: Path) -> SolveCase:
    """Symmetric X and full-rank positive definite R as CSV."""
    rng = np.random.default_rng([seed, 2])
    n = sizes.n
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    x = (a + a.T) / 2.0
    r = b @ b.T / n + np.eye(n)
    r = (r + r.T) / 2.0
    _write_csv(out / "x.csv", x)
    _write_csv(out / "r.csv", r)
    return SolveCase(x, r)


def generate(workload: str, seed: int, sizes: Sizes, out: Path):
    """Write the inputs of one workload under `out` and return what the
    oracle needs to check the outputs.  sphere-sweep ignores the seed."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "sphere-sweep":
        return generate_sphere_sweep(sizes, out)
    if workload == "cm-sweep-oh":
        return generate_cm_sweep(seed, sizes, out)
    if workload == "solve-csv-large":
        return generate_solve_case(seed, sizes, out)
    raise ValueError(f"unknown workload {workload!r}")
