"""Characteristic mode solver: X I = lambda R I for symmetric X, PSD R.

The generalized problem is reduced through a spectral decomposition of R
(never a triangular factorization: R is routinely rank-deficient once a
symmetric structure is meshed, and the eigenbasis gives a clean truncation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symaction import GroupAction, project_columns, projectors

#: relative spectrum cutoff below which R directions are truncated
DEFAULT_RANK_TOLERANCE = 1e-12

#: relative eigenvalue distance binding modes into one degenerate cluster
DEFAULT_CLUSTER_TOLERANCE = 1e-6

SYMMETRY_TOLERANCE = 1e-8
PSD_TOLERANCE = 1e-10


class RIndefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class ImpedancePair:
    """Imaginary and real parts (X, R) of an impedance matrix at one frequency."""

    X: np.ndarray
    R: np.ndarray
    frequency: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        r = np.asarray(self.R, dtype=float)
        if x.shape != r.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("X and R must be square matrices of equal size")
        for name, m in (("X", x), ("R", r)):
            if not np.isfinite(m).all():
                # NaN would slip through the symmetry test below
                raise ValueError(f"{name} has nonfinite entries")
            scale = max(np.abs(m).max(), 1.0)
            if np.abs(m - m.T).max() > SYMMETRY_TOLERANCE * scale:
                raise ValueError(f"{name} is not symmetric within tolerance")
        object.__setattr__(self, "X", _frozen((x + x.T) / 2.0))
        object.__setattr__(self, "R", _frozen((r + r.T) / 2.0))

    @property
    def size(self) -> int:
        return self.X.shape[0]


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModeSet:
    """Eigenvalues ascending with R-orthonormal eigencurrents as columns."""

    eigenvalues: np.ndarray
    eigencurrents: np.ndarray
    rank: int
    frequency: float = 0.0
    labels: tuple | None = None

    def __post_init__(self):
        if self.eigencurrents.shape[1] != len(self.eigenvalues):
            raise ValueError("eigencurrents must have one column per mode")
        if self.labels is not None and len(self.labels) != len(self.eigenvalues):
            raise ValueError("labels must have one entry per mode")

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def residual_norms(self, pair: ImpedancePair) -> np.ndarray:
        """|X I - lambda R I| per mode, relative to |X| |I|."""
        x_scale = max(np.abs(pair.X).max(), 1e-300)
        out = np.empty(self.count)
        for k in range(self.count):
            i_k = self.eigencurrents[:, k]
            res = pair.X @ i_k - self.eigenvalues[k] * (pair.R @ i_k)
            out[k] = np.linalg.norm(res) / (x_scale * np.linalg.norm(i_k))
        return out

    def r_orthonormality_error(self, pair: ImpedancePair) -> float:
        gram = self.eigencurrents.T @ pair.R @ self.eigencurrents
        return float(np.abs(gram - np.eye(self.count)).max())


def solve_cm(pair: ImpedancePair,
             rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> ModeSet:
    """Solve X I = lambda R I on the numerically significant range of R.

    R is spectrally decomposed; eigendirections below
    rank_tolerance * max(eig) are dropped, the problem is transformed to an
    ordinary symmetric one on the retained subspace, and eigencurrents are
    mapped back (R-orthonormal by construction).
    """
    w, u = np.linalg.eigh(pair.R)
    wmax = float(w.max()) if len(w) else 0.0
    if wmax <= 0.0:
        raise RIndefiniteError("R has no positive spectrum")
    if float(w.min()) < -PSD_TOLERANCE * wmax:
        raise RIndefiniteError(
            f"R has a significantly negative eigenvalue ({w.min():.3e} against "
            f"largest {wmax:.3e})")
    keep = w > rank_tolerance * wmax
    rank = int(np.count_nonzero(keep))
    basis = u[:, keep] / np.sqrt(w[keep])
    reduced = basis.T @ pair.X @ basis
    reduced = (reduced + reduced.T) / 2.0
    lam, y = np.linalg.eigh(reduced)
    currents = basis @ y
    return ModeSet(_frozen(lam), _frozen(currents), rank, pair.frequency)


def _cluster_slices(eigenvalues: np.ndarray, tol: float):
    """Contiguous index runs of eigenvalues within relative distance tol."""
    clusters = []
    start = 0
    for i in range(1, len(eigenvalues)):
        if abs(eigenvalues[i] - eigenvalues[i - 1]) > tol * (1.0 + abs(eigenvalues[i])):
            clusters.append((start, i))
            start = i
    if len(eigenvalues):
        clusters.append((start, len(eigenvalues)))
    return clusters


@dataclass(frozen=True)
class ModeClassification:
    labels: tuple               # one irrep name per mode, input order
    weights: tuple              # one {irrep: weight} dict per mode
    clusters: tuple             # (start, stop) index pairs
    parities: tuple | None = None


def classify_modes(modes: ModeSet, action: GroupAction,
                   cluster_tolerance: float = DEFAULT_CLUSTER_TOLERANCE
                   ) -> ModeClassification:
    """Attach irrep labels to a ModeSet using a group action.

    Degenerate modes are classified jointly: their span is projected per
    irrep and the multiplicity of each irrep inside the cluster is read off
    the projected trace.  When the per-mode dominant irreps form that
    multiset, each mode keeps its dominant label.  Otherwise the cluster's
    labels are the traced multiset in character-table order, assigned to its
    modes by position, so the multiset is exact but a label need not match
    its vector.  If the traces do not round to the cluster size, the
    per-mode dominants are used.
    """
    if action.dimension != modes.eigencurrents.shape[0]:
        raise ValueError("action dimension does not match the eigencurrents")
    currents = modes.eigencurrents
    projs = projectors(action)
    reports = project_columns(currents, projs)
    clusters = _cluster_slices(modes.eigenvalues, cluster_tolerance)
    # one orthonormal basis per cluster, side by side, so a single product
    # per irrep gives every cluster's projected trace
    q = np.zeros_like(currents)
    for a, b in clusters:
        q[:, a:b] = np.linalg.qr(currents[:, a:b])[0]
    starts = np.array([a for a, _ in clusters], dtype=int)
    traces = {name: np.add.reduceat(np.sum(q * (p @ q), axis=0), starts)
              for name, p in projs.items()}
    labels = []
    for c, (start, stop) in enumerate(clusters):
        expanded = [name for name, tr in traces.items()
                    for _ in range(int(round(float(tr[c]))))]
        per_mode = [rep.dominant for rep in reports[start:stop]]
        if len(expanded) != stop - start:
            # weight did not split integrally across the cluster; fall back to
            # per-mode dominant labels
            expanded = per_mode
        elif sorted(per_mode) == sorted(expanded):
            expanded = per_mode
        labels.extend(expanded)
    return ModeClassification(tuple(labels), tuple(rep.weights for rep in reports),
                              tuple(clusters))
