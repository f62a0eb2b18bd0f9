"""The generator is a pure function of the seed, down to the bytes."""

from pathlib import Path

import numpy as np
import pytest

import inputs


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload,sizes", [
    ("sphere-sweep", inputs.FULL),
    ("cm-sweep-oh", inputs.FULL),
    ("solve-csv-large", inputs.TINY),
])
def test_same_seed_same_bytes(tmp_path, workload, sizes):
    inputs.generate(workload, 7, sizes, tmp_path / "a")
    inputs.generate(workload, 7, sizes, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a and a == b


@pytest.mark.parametrize("workload", ["cm-sweep-oh", "solve-csv-large"])
def test_other_seed_other_matrices(tmp_path, workload):
    inputs.generate(workload, 7, inputs.TINY, tmp_path / "a")
    inputs.generate(workload, 8, inputs.TINY, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a.keys() == b.keys()
    assert any(a[k] != b[k] for k in a if k.endswith((".csv", ".cmx")))


def test_cm_matrices_are_invariant_and_r_definite(tmp_path):
    sweep = inputs.generate("cm-sweep-oh", 3, inputs.FULL, tmp_path)
    _, ops = inputs.oh_operators(sweep.dof)
    assert len(ops) == 48
    for x, r in zip(sweep.xs[::7], sweep.rs[::7]):
        for d in ops[::5]:
            assert np.abs(d @ x @ d.T - x).max() < 1e-12
            assert np.abs(d @ r @ d.T - r).max() < 1e-12
        assert np.linalg.eigvalsh(r).min() > 0.5
