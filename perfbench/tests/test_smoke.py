"""Each workload runs end to end at tiny sizes and passes its checks; the
oracle itself catches wrong samples and unjustified masks."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sphere-sweep", "cm-sweep-oh",
                                      "solve-csv-large"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = dict(run.PER_LAYER if trace else run.END_TO_END)
    if trace and workload == "sphere-sweep":
        want.update(run.SPHERE_LAYER)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    if trace:
        assert res["metrics"]["trace_coverage_ratio"]["value"] > 0.95
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def _reference_trace(t, s, kr):
    num, den = oracle.riccati(t, s, kr)
    lam = -num / den
    mask = np.zeros(len(kr), dtype=bool)
    for z in oracle.denominator_zeros(t, s, kr):
        i = int(np.searchsorted(kr, z))
        mask[i - 1:i + 1] = True
    return lam, mask


def test_oracle_accepts_reference_and_counts_defects():
    kr = np.linspace(0.5, 6.0, 400)
    lam, mask = _reference_trace(1, oracle.TM, kr)
    bad, poles = oracle.check_sphere_trace(1, oracle.TM, kr, lam, mask)
    assert bad == 0 and poles >= 1

    wrong = lam.copy()
    wrong[10] *= 1.0 + 1e-6            # an unmasked sample off by 1e-6
    wrong[20] = np.nan                 # a nonfinite sample left unmasked
    masked = mask.copy()
    masked[30] = True                  # a mask with no pole nearby
    masked[np.flatnonzero(mask)[0]] = False   # a pole left unflagged
    bad, _ = oracle.check_sphere_trace(1, oracle.TM, kr, wrong, masked)
    assert bad == 4


def test_expected_label_counts_fill_the_space():
    counts = oracle.expected_label_counts(dof=3, orbits=1)
    assert counts["T_1u"] == 27 and counts["E_g"] == 12 and counts["A_1g"] == 3
    assert sum(counts.values()) == 3 * 48
