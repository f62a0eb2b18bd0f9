"""Characteristic mode solver: X I = lambda R I for symmetric X, PSD R.

The generalized problem is reduced through a spectral decomposition of R
(never a triangular factorization: R is routinely rank-deficient once a
symmetric structure is meshed, and the eigenbasis gives a clean truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .symaction import GroupAction

#: relative spectrum cutoff below which R directions are truncated
DEFAULT_RANK_TOLERANCE = 1e-12

#: relative eigenvalue distance binding modes into one degenerate cluster
DEFAULT_CLUSTER_TOLERANCE = 1e-6

SYMMETRY_TOLERANCE = 1e-8
PSD_TOLERANCE = 1e-10
#: largest coupling between irrep blocks, relative to |M|_F, of an X or R
#: solved with an action; group-averaged input reads about 1e-8 from rounding
INVARIANCE_TOLERANCE = 1e-6


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
             rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
             action: GroupAction | None = None) -> ModeSet:
    """Solve X I = lambda R I on the numerically significant range of R.

    R is spectrally decomposed; eigendirections below
    rank_tolerance * max(eig) are dropped, the problem is transformed to an
    ordinary symmetric one on the retained subspace, and eigencurrents are
    mapped back (R-orthonormal by construction).

    With an action, X and R must be invariant under it, and the problem is
    solved on Q_p^T X Q_p, Q_p^T R Q_p per column block Q_p of its adapted
    basis, labelling each mode with its block's irrep.  Modes are merged in
    ascending order, ties in character-table order.
    """
    if not 0.0 < rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in (0, 1), not "
                         f"{rank_tolerance}")
    names, qs, xs, rs = (([None], [None], [pair.X], [pair.R]) if action is None
                         else _irrep_blocks(pair, action))
    spectra = [np.linalg.eigh(r) for r in rs]
    spectrum = np.concatenate([w for w, _ in spectra])
    wmax = float(spectrum.max()) if len(spectrum) else 0.0
    if wmax <= 0.0:
        raise RIndefiniteError("R has no positive spectrum")
    if float(spectrum.min()) < -PSD_TOLERANCE * wmax:
        raise RIndefiniteError(
            f"R has a significantly negative eigenvalue ({spectrum.min():.3e} "
            f"against largest {wmax:.3e})")
    lams, currents = [], []
    for q, x, (w, u) in zip(qs, xs, spectra):
        keep = w > rank_tolerance * wmax
        basis = u[:, keep] / np.sqrt(w[keep])
        reduced = basis.T @ x @ basis
        reduced = (reduced + reduced.T) / 2.0
        lam, y = np.linalg.eigh(reduced)
        lams.append(lam)
        currents.append(basis @ y if q is None else q @ (basis @ y))
    if action is None:
        return ModeSet(_frozen(lam), _frozen(currents[0]), len(lam), pair.frequency)
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")
    labels = np.repeat(names, [len(k) for k in lams])[order].tolist()
    return ModeSet(_frozen(lam[order]), _frozen(np.hstack(currents)[:, order]),
                   len(lam), pair.frequency, tuple(labels))


def _irrep_blocks(pair: ImpedancePair, action: GroupAction):
    """Irrep names, nonempty column blocks Q_p of the adapted basis, and
    Q_p^T X Q_p, Q_p^T R Q_p.  As Q is orthonormal, sum_p |M Q_p|^2 -
    |Q_p^T M Q_p|^2 is the squared coupling of M between blocks."""
    if action.dimension != pair.size:
        raise ValueError("action dimension does not match X and R")
    basis = action.adapted_basis
    cuts = zip(action.group.irreps, basis.offsets[:-1], basis.offsets[1:])
    names, qs = zip(*[(p.name, basis.q[:, a:b]) for p, a, b in cuts if b > a])
    blocks = []
    for name in ("X", "R"):
        m = getattr(pair, name)
        mqs = [m @ q for q in qs]
        blocks.append([q.T @ mq for q, mq in zip(qs, mqs)])
        off = sum(np.vdot(mq, mq) - np.vdot(b, b)
                  for mq, b in zip(mqs, blocks[-1]))
        if off > (INVARIANCE_TOLERANCE * np.linalg.norm(m)) ** 2:
            raise ValueError(f"{name} is not invariant under the {action.group.name}"
                             f" action (coupling between irrep blocks "
                             f"{np.sqrt(off) / np.linalg.norm(m):.3e} of |{name}|)")
    return names, qs, *blocks


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


def classify_modes(modes: ModeSet, action: GroupAction,
                   cluster_tolerance: float = DEFAULT_CLUSTER_TOLERANCE
                   ) -> ModeClassification:
    """Attach irrep labels to a ModeSet using a group action.

    A mode's label is its heaviest irrep in `irrep_weights`, a tie going to
    the first in the character table.  In a degenerate cluster that mixes
    irreps a mode may itself be mixed; `solve_cm` with the action gives
    modes whose labels are exact by construction.
    """
    from .symaction import irrep_weights

    if action.dimension != modes.eigencurrents.shape[0]:
        raise ValueError("action dimension does not match the eigencurrents")
    weights = irrep_weights(modes.eigencurrents, action)     # (irreps, modes)
    names = [p.name for p in action.group.irreps]
    return ModeClassification(
        tuple(names[i] for i in np.argmax(weights, axis=0).tolist()),
        tuple(dict(zip(names, col)) for col in weights.T.tolist()),
        tuple(_cluster_slices(modes.eigenvalues, cluster_tolerance)))
