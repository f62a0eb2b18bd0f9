"""Characteristic mode solver: X I = lambda R I for symmetric X, PSD R.

The generalized problem is reduced through a spectral decomposition of R
(never a triangular factorization: R is routinely rank-deficient once a
symmetric structure is meshed, and the eigenbasis gives a clean truncation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symaction import GroupAction, irrep_weights

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
        cur = self.eigencurrents
        res = pair.X @ cur - self.eigenvalues * (pair.R @ cur)
        return np.linalg.norm(res, axis=0) / (x_scale * np.linalg.norm(cur, axis=0))

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
    lam = np.asarray(eigenvalues, dtype=float)
    if not len(lam):
        return []
    cuts = np.flatnonzero(np.abs(np.diff(lam)) > tol * (1.0 + np.abs(lam[1:]))) + 1
    bounds = [0, *cuts.tolist(), len(lam)]
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class ModeClassification:
    labels: tuple               # one irrep name per mode, input order
    weights: tuple              # one {irrep: weight} dict per mode
    clusters: tuple             # (start, stop) index pairs
    parities: tuple | None = None


def _cluster_bases(currents: np.ndarray, clusters) -> np.ndarray:
    """Orthonormal basis of each cluster's span, in the cluster's columns;
    one batched QR per cluster size."""
    q = np.empty_like(currents)
    by_size = {}
    for start, stop in clusters:
        by_size.setdefault(stop - start, []).append(start)
    for size, starts in by_size.items():
        cols = np.array(starts)[:, None] + np.arange(size)      # (k, size)
        blocks = np.linalg.qr(currents[:, cols].transpose(1, 0, 2))[0]
        q[:, cols] = blocks.transpose(1, 0, 2)
    return q


def classify_modes(modes: ModeSet, action: GroupAction,
                   cluster_tolerance: float = DEFAULT_CLUSTER_TOLERANCE
                   ) -> ModeClassification:
    """Attach irrep labels to a ModeSet using a group action.

    Everything is read off the action's cached symmetry-adapted basis Q,
    whose column blocks Q_p span the irrep subspaces: Q^T V with the
    eigencurrents V gives each mode's weights |Q_p^T v| / |v| = |P_p v| / |v|
    (`irrep_weights`), and Q^T C with an orthonormal basis C of every
    cluster gives each cluster's projected traces.  A tie in weight goes to
    the irrep that comes first in the character table.

    Degenerate modes are classified jointly: the multiplicity of each irrep
    inside a cluster is its projected trace, rounded.  When the per-mode
    dominant irreps form that multiset, each mode keeps its dominant label.
    Otherwise the cluster's labels are the traced multiset in character-table
    order, assigned to its modes by position, so the multiset is exact but a
    label need not match its vector.  If the traces do not round to the
    cluster size, the per-mode dominants are used.
    """
    if action.dimension != modes.eigencurrents.shape[0]:
        raise ValueError("action dimension does not match the eigencurrents")
    currents = modes.eigencurrents
    weights = irrep_weights(currents, action)           # (irreps, modes)
    clusters = _cluster_slices(modes.eigenvalues, cluster_tolerance)
    norms2 = action.adapted_basis.projected_norms2(
        _cluster_bases(currents, clusters))
    names = [p.name for p in action.group.irreps]
    dominant = [names[i] for i in np.argmax(weights, axis=0).tolist()]
    starts = np.array([a for a, _ in clusters], dtype=int)
    # projected trace of each irrep over each cluster, rounded to a count
    counts = np.rint(np.add.reduceat(norms2, starts, axis=1))
    labels = []
    for (start, stop), count in zip(clusters, counts.astype(int).T.tolist()):
        expanded = [name for name, k in zip(names, count) for _ in range(k)]
        per_mode = dominant[start:stop]
        if len(expanded) != stop - start:
            # weight did not split integrally across the cluster; fall back to
            # per-mode dominant labels
            expanded = per_mode
        elif sorted(per_mode) == sorted(expanded):
            expanded = per_mode
        labels.extend(expanded)
    return ModeClassification(
        tuple(labels),
        tuple(dict(zip(names, col)) for col in weights.T.tolist()),
        tuple(clusters))
