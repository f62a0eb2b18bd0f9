"""Independent output checks, built on scipy and the generator's own data.

Nothing here imports modesub: every check reads what the program wrote
(JSON files, or the sample arrays the worker hands over) and compares it
with scipy.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

TE, TM = 1, 2

#: sphwave's documented rule: a denominator this small reads as a pole
POLE_DENOMINATOR_TOL = 1e-13

#: relative agreement asked of unmasked sphere samples (the seed's worst
#: correct sample is 1.4e-12 off)
SAMPLE_RTOL = 1e-9

#: relative eigenvalue agreement and absolute R-orthonormality error
EIG_RTOL = 1e-8
ORTHO_TOL = 1e-8

#: irrep dimensions of O_h, from the standard character table
OH_IRREPS = {"A_1g": 1, "A_2g": 1, "E_g": 2, "T_1g": 3, "T_2g": 3,
             "A_1u": 1, "A_2u": 1, "E_u": 2, "T_1u": 3, "T_2u": 3}


def riccati(t: int, s: int, x):
    """Numerator and denominator of the shell eigenvalue -num/den."""
    if s == TE:
        return spherical_yn(t, x), spherical_jn(t, x)
    return (x * spherical_yn(t - 1, x) - t * spherical_yn(t, x),
            x * spherical_jn(t - 1, x) - t * spherical_jn(t, x))


def denominator_zeros(t: int, s: int, xs: np.ndarray) -> list:
    """Zeros of the denominator bracketed by the grid xs, refined by brentq."""
    den = riccati(t, s, xs)[1]
    zeros = []
    for i in np.flatnonzero(den[:-1] * den[1:] <= 0):
        a, b = float(xs[i]), float(xs[i + 1])
        if den[i] == 0:
            zeros.append(a)
        elif den[i + 1] != 0:
            zeros.append(brentq(lambda x: riccati(t, s, x)[1], a, b,
                                xtol=1e-14))
    return zeros


def check_sphere_trace(t: int, s: int, kr: np.ndarray, lam: np.ndarray,
                       mask: np.ndarray) -> tuple:
    """(bad samples, poles) for one sampled trace.

    Unmasked samples must match -y/j from scipy.  A mask is justified by a
    denominator zero within one grid cell, or by |den| below
    POLE_DENOMINATOR_TOL; both samples bracketing a zero must be masked.
    """
    cell = float(kr[1] - kr[0])
    xs = np.concatenate(([max(kr[0] - cell, 1e-12)], kr, [kr[-1] + cell]))
    zeros = denominator_zeros(t, s, xs)
    num, den = riccati(t, s, kr)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = -num / den
    bad = np.zeros(len(kr), dtype=bool)

    free = ~mask
    ok = np.isfinite(lam) & (np.abs(lam - ref) <= SAMPLE_RTOL * np.abs(ref))
    bad |= free & ~ok

    justified = np.abs(den) < POLE_DENOMINATOR_TOL
    for z in zeros:
        justified |= np.abs(kr - z) <= cell * (1 + 1e-9)
        i = int(np.searchsorted(kr, z))
        for k in (i - 1, i):
            if 0 <= k < len(kr) and not mask[k]:
                bad[k] = True
    bad |= mask & ~justified
    return int(bad.sum()), len(zeros)


def check_sphere_op(tmax: int, kr: np.ndarray, lam: np.ndarray,
                    mask: np.ndarray) -> tuple:
    """(problems, bad samples, poles) for one op's lam/mask rows, ordered
    t = 1..tmax with TE before TM."""
    problems, bad_total, pole_total = [], 0, 0
    waves = [(t, s) for t in range(1, tmax + 1) for s in (TE, TM)]
    if lam.shape != (len(waves), len(kr)) or mask.shape != lam.shape:
        return [f"sample shape {lam.shape}, expected "
                f"{(len(waves), len(kr))}"], len(waves) * len(kr), 0
    for row, (t, s) in enumerate(waves):
        bad, n_poles = check_sphere_trace(t, s, kr, lam[row], mask[row])
        pole_total += n_poles
        if bad:
            bad_total += bad
            problems.append(f"t={t} s={'TE' if s == TE else 'TM'}: "
                            f"{bad} bad samples")
    return problems, bad_total, pole_total


def reference_eigenvalues(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return scipy.linalg.eigh(x, r, eigvals_only=True)


def _check_modes(doc: dict, x: np.ndarray, r: np.ndarray,
                 ref: np.ndarray) -> list:
    problems = []
    lam = np.array(doc["lambdas"], dtype=float)
    vec = np.array(doc["vectors"], dtype=float)        # one row per mode
    if lam.shape != (len(x),) or vec.shape != (len(x), len(x)):
        return [f"{len(lam)} modes with vectors {vec.shape} for N={len(x)}"]
    err = float(np.abs(np.sort(lam) - ref).max())
    if err > EIG_RTOL * max(1.0, float(np.abs(ref).max())):
        problems.append(f"eigenvalues off scipy.linalg.eigh by {err:.3e}")
    ortho = float(np.abs(vec @ r @ vec.T - np.eye(len(x))).max())
    if ortho > ORTHO_TOL:
        problems.append(f"R-orthonormality error {ortho:.3e}")
    return problems


def check_solve(path, x: np.ndarray, r: np.ndarray, ref: np.ndarray) -> list:
    """`ref` holds reference_eigenvalues(x, r)."""
    with open(path) as fh:
        return _check_modes(json.load(fh), x, r, ref)


def expected_label_counts(dof: int, orbits: int) -> dict:
    """A generic orbit carries the regular representation dof times, so
    irrep p labels d_p^2 * dof * orbits modes."""
    return {name: d * d * dof * orbits for name, d in OH_IRREPS.items()}


def check_cm_point(path, x, r, ref, dof: int, orbits: int) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    problems = _check_modes(doc, x, r, ref)
    got = Counter(doc.get("labels") or [])
    want = expected_label_counts(dof, orbits)
    if got != Counter(want):
        problems.append(f"irrep label counts {dict(got)}, expected {want}")
    return problems


def check_tracks(path, snapshot_paths: list, frequencies: list) -> list:
    """As many traces as modes, each over the whole sweep with one irrep,
    and no two traces of one irrep crossing."""
    labels = []
    for p in snapshot_paths:
        with open(p) as fh:
            labels.append(json.load(fh)["labels"])
    with open(path) as fh:
        traces = json.load(fh)["traces"]
    problems = []
    if len(traces) != len(labels[0]):
        problems.append(f"{len(traces)} traces for {len(labels[0])} modes")
    by_irrep = {}
    for tr in traces:
        freqs = [p["frequency"] for p in tr["points"]]
        if freqs != frequencies:
            problems.append(f"trace {tr['id']} covers {len(freqs)} of "
                            f"{len(frequencies)} points")
            continue
        seen = {labels[k][p["mode_index"]] for k, p in enumerate(tr["points"])}
        if seen != {tr["irrep"]}:
            problems.append(f"trace {tr['id']} ({tr['irrep']}) passes "
                            f"through {sorted(seen)}")
        by_irrep.setdefault(tr["irrep"], []).append(
            [p["lambda"] for p in tr["points"]])
    for irrep, rows in by_irrep.items():
        lam = np.array(rows)
        order = np.lexsort(lam[:, ::-1].T)
        tol = 1e-9 * max(1.0, float(np.abs(lam).max()))
        if np.any(np.diff(lam[order], axis=0) < -tol):
            problems.append(f"traces of {irrep} cross")
    return problems
