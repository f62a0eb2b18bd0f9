"""Group actions on point-sampled fields and irrep projection.

A field sampled on a symmetric point set transforms by permuting the points
and rotating the per-point vectors, so every group element acts as a signed
block permutation: one point permutation plus one dof x dof block per point.
The action stores only those, O(g N dof) numbers.  Each action caches an
orthonormal symmetry-adapted basis, built on first use, whose column blocks
span the irreps' subspaces; every irrep weight, of a mode or of a user
vector, is read off it.  `projector` keeps the character formula as the
reference the basis is checked against.

Points are matched to their images by a sorted-key pair search in numpy
(`_pairs_within`), so this module loads no scipy, and neither does a
labelled `cmsolver.solve_cm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pointgroup import PLANE_Z, PointGroup

#: weight above which a vector counts as a pure irrep basis function
CLASSIFY_THRESHOLD = 1.0 - 1e-6

#: largest entry a dense operator may hold outside its block pattern
OPERATOR_DECODE_TOL = 1e-12

#: largest error a decoded action may show in B^T B = I and D(S) D(T) = D(ST)
REPRESENTATION_TOL = 1e-10


class PointSetNotSymmetricError(ValueError):
    def __init__(self, group, misses):
        self.misses = misses
        preview = ", ".join(f"(element {e}, point {p})" for e, p in misses[:4])
        more = "" if len(misses) <= 4 else f" and {len(misses) - 4} more"
        super().__init__(
            f"point set is not closed under {group}: no partner for {preview}{more}")


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Orthogonal action of a point group on stacked field samples.

    Element T is a signed block permutation: ``perms[T, i] = j`` means D(T)
    maps the block of point j into the block of point i, rotated by
    ``blocks[T, i]``, so (D(T) v)[i] = blocks[T, i] @ v[j].  Coefficient
    vectors stack the per-point samples point-major; N = dof * n.
    """

    group: PointGroup
    perms: np.ndarray            # (g, n) point permutations, element order
    blocks: np.ndarray           # (g, n, dof, dof) per-point blocks
    points: np.ndarray | None = None

    def __post_init__(self):
        perms = _frozen(self.perms, np.intp)
        blocks = _frozen(self.blocks, float)
        if (perms.ndim != 2 or perms.shape[0] != self.group.order
                or blocks.ndim != 4 or blocks.shape[:2] != perms.shape
                or blocks.shape[2] != blocks.shape[3]):
            raise ValueError("an action needs one point permutation and one "
                             "block per point for every group element")
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "blocks", blocks)
        if self.points is not None:
            points = _frozen(self.points, float)
            if points.shape != (perms.shape[1], 3):
                raise ValueError(f"{perms.shape[1]} blocks per element need "
                                 f"as many (x, y, z) points")
            object.__setattr__(self, "points", points)

    @property
    def dof(self) -> int:
        return self.blocks.shape[-1]

    @property
    def dimension(self) -> int:
        return self.perms.shape[1] * self.dof

    def apply(self, element_index: int, v) -> np.ndarray:
        """D(T) v without forming D(T); v is (N,) or (N, m)."""
        if element_index not in range(self.group.order):
            raise IndexError(f"no element {element_index} in {self.group.name}")
        return _apply(self.perms[element_index], self.blocks[element_index], v)

    @cached_property
    def adapted_basis(self) -> AdaptedBasis:
        """Orthonormal symmetry-adapted basis, built on first access."""
        return _adapted_basis(self)


@dataclass(frozen=True, eq=False)
class AdaptedBasis:
    """Orthonormal basis whose columns offsets[p]:offsets[p + 1] span the
    subspace of the p-th irrep in table order (the range of its projector).
    """

    q: np.ndarray            # (N, N) orthonormal
    offsets: np.ndarray      # (irreps + 1,) column offsets

    def projected_norms2(self, vectors) -> np.ndarray:
        """|P_p v|^2 for every irrep p (rows, table order) and column v."""
        y2 = (self.q.T @ vectors) ** 2
        # reduceat over an empty segment returns a row, not zero
        out = np.zeros((len(self.offsets) - 1, y2.shape[1]))
        full = np.diff(self.offsets) > 0
        out[full] = np.add.reduceat(y2, self.offsets[:-1][full], axis=0)
        return out


def _frozen(a, dtype):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _apply(perm, blocks, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    gathered = v.reshape(len(perm), blocks.shape[-1], -1)[perm]
    return (blocks @ gathered).reshape(v.shape)


#: sort key direction of the pair search; its components are rationally
#: independent, so points that share coordinates, as on a grid, or that lie
#: on a mirror plane or axis still get distinct keys
_KEY_DIRECTION = np.array([1.0, 0.7548776662466927, 0.5698402909980532])


def _pairs_within(a: np.ndarray, b: np.ndarray, tol: float):
    """Every (i, j) with |a[i] - b[j]|_max <= tol, as two index arrays with
    i ascending.

    b is sorted by its key k = b @ u.  |u . d| <= |u|_1 |d|_max, so b[j] can
    only match a[i] within the window |k - a[i] @ u| <= |u|_1 tol, widened
    here for rounding; the exact max-norm test then decides.  The work is
    linear in the number of points plus the candidates in the windows, which
    grows quadratically only when many points share one window.
    """
    u = _KEY_DIRECTION
    norm1 = np.abs(u).sum()
    kb = b @ u
    order = np.argsort(kb, kind="stable")
    keys, ka = kb[order], a @ u
    # a key is off by a few ulps of |u|_1 max|x| at most
    scale = norm1 * max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    half = norm1 * tol * (1 + 1e-9) + 16 * np.spacing(scale)
    lo = np.searchsorted(keys, ka - half, side="left")
    counts = np.maximum(np.searchsorted(keys, ka + half, side="right") - lo, 0)
    starts = np.cumsum(counts) - counts
    i = np.repeat(np.arange(len(a)), counts)
    j = order[np.repeat(lo - starts, counts) + np.arange(counts.sum())]
    hit = np.abs(a[i] - b[j]).max(axis=1) <= tol
    return i[hit], j[hit]


def _permutation(points: np.ndarray, matrix: np.ndarray, tol: float):
    """perm[i] = the lowest j with |matrix @ points[j] - points[i]|_max <= tol,
    or -1 where there is none."""
    n = len(points)
    i, j = _pairs_within(points, points @ matrix.T, tol)
    perm = np.full(n, n, dtype=np.intp)
    np.minimum.at(perm, i, j)
    perm[perm == n] = -1
    return perm


def _induced(points: np.ndarray, matrix: np.ndarray, dof: int, tol: float):
    """Permutation and blocks of one operation on fields sampled at points."""
    block = matrix if dof == 3 else np.ones((1, 1))
    return (_permutation(points, matrix, tol),
            np.broadcast_to(block, (len(points), dof, dof)))


def action_from_points(group: PointGroup, points, dof: int = 3,
                       tol: float = 1e-8) -> GroupAction:
    """Build the action of `group` on fields sampled at `points`.

    Parameters
    ----------
    group : PointGroup
    points : (N, 3) array-like
        Must map onto itself under every group operation (within `tol`),
        with no two points within `tol` of each other.
    dof : int
        1 for scalar samples (pure permutation action), 3 for vector samples
        (signed 3x3-block permutation).
    """
    if dof not in (1, 3):
        raise ValueError("dof must be 1 or 3")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (N, 3) array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    i, j = _pairs_within(pts, pts, tol)
    later = i < j
    if later.any():
        i, j = i[later], j[later]
        raise ValueError(f"points {i[0]} and {j[i == i[0]].min()} coincide "
                         f"within {tol}")
    induced = [_induced(pts, op.matrix, dof, tol) for op in group.elements]
    misses = [(t, int(i)) for t, (perm, _) in enumerate(induced)
              for i in np.flatnonzero(perm < 0)]
    if misses:
        raise PointSetNotSymmetricError(group.name, misses)
    return GroupAction(group, np.stack([p for p, _ in induced]),
                       np.stack([b for _, b in induced]), pts)


def action_from_operators(group: PointGroup, operators, dof: int = 1,
                          points=None) -> GroupAction:
    """Decode dense per-element matrices (element order) into an action.

    Each matrix must be a signed block permutation with dof x dof blocks:
    exactly one nonzero block in every block row and block column, and
    nothing above OPERATOR_DECODE_TOL outside it.  The blocks must be
    orthogonal and the matrices must multiply like the group's elements.
    """
    ops = np.asarray(operators, dtype=float)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise ValueError("operators must be square, equal size")
    if len(ops) != group.order:
        raise ValueError(f"{len(ops)} operators for a group of order "
                         f"{group.order}")
    if dof < 1 or ops.shape[1] % dof:
        raise ValueError(f"operator size {ops.shape[1]} is not a multiple of "
                         f"dof {dof}")
    g, n = len(ops), ops.shape[1] // dof
    tiles = ops.reshape(g, n, dof, n, dof).transpose(0, 1, 3, 2, 4)
    size = np.abs(tiles).max(axis=(3, 4))                    # (g, n, n)
    perms = size.argmax(axis=2)
    picked = (np.arange(g)[:, None], np.arange(n), perms)
    blocks = tiles[picked]
    size[picked] = 0.0
    # an orthogonal block is never zero
    skew = np.abs(np.swapaxes(blocks, -1, -2) @ blocks - np.eye(dof))
    ok = (np.isfinite(ops).all(axis=(1, 2))
          & (size.max(axis=(1, 2), initial=0.0) <= OPERATOR_DECODE_TOL)
          & (skew.max(axis=(1, 2, 3), initial=0.0) <= REPRESENTATION_TOL)
          & (np.sort(perms, axis=1) == np.arange(n)).all(axis=1))
    if not ok.all():
        t = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"operator {t} is not a signed block permutation "
                         f"with orthogonal {dof}x{dof} blocks")
    for s, ps in enumerate(perms):
        # D(S) D(T) permutes by perms[T][ps], with blocks blocks[S] @
        # blocks[T][ps]; it must be D(ST)
        st = group.product_table[s]
        ok = ((perms[:, ps] == perms[st]).all(axis=1)
              & (np.abs(blocks[s] @ blocks[:, ps] - blocks[st])
                 .max(axis=(1, 2, 3), initial=0.0) <= REPRESENTATION_TOL))
        if not ok.all():
            t = int(np.flatnonzero(~ok)[0])
            raise ValueError(f"operators do not represent {group.name}: "
                             f"D({s}) D({t}) is not D({st[t]})")
    return GroupAction(group, perms, blocks, points)


def _characters(group: PointGroup, irreps) -> np.ndarray:
    return np.array([[group.character(p, t) for t in range(group.order)]
                     for p in irreps], dtype=float)


def _scatter(action: GroupAction, coeffs: np.ndarray) -> np.ndarray:
    """sum_T coeffs[T] D(T) as a dense N x N matrix, scattered block by block
    in one pass over the elements."""
    n, dof = action.perms.shape[1], action.dof
    acc = np.zeros((n, n, dof, dof))
    rows = np.arange(n)
    for t in range(action.group.order):
        acc[rows, action.perms[t]] += coeffs[t] * action.blocks[t]
    return acc.transpose(0, 2, 1, 3).reshape(n * dof, n * dof)


#: largest distance of an eigenvalue of sum_p k P_p from its irrep index k
BASIS_INDEX_TOL = 1e-6


def _adapted_basis(action: GroupAction) -> AdaptedBasis:
    """Eigenvectors of M = sum_p k P_p, k the irrep's 1-based table index.

    M is symmetric with eigenvalue k exactly on the p-th irrep's subspace,
    so eigh sorts its eigenvectors into irrep blocks in table order.
    """
    group = action.group
    dims = np.array([p.dimension for p in group.irreps], dtype=float)
    index = np.arange(1, len(group.irreps) + 1)
    row = (index * dims) @ _characters(group, group.irreps) / group.order
    w, q = np.linalg.eigh(_scatter(action, row))
    k = np.rint(w)
    if (np.abs(w - k).max(initial=0.0) > BASIS_INDEX_TOL
            or not np.isin(k, index).all()):
        raise RuntimeError(
            f"the projectors of {group.name} do not split this action into "
            f"irrep subspaces (eigenvalues of sum_p k P_p in "
            f"[{w.min():.6g}, {w.max():.6g}], expected integers 1.."
            f"{len(index)})")
    offsets = np.searchsorted(k, np.arange(1, len(index) + 2), side="left")
    # one cached basis serves every caller
    q.setflags(write=False)
    offsets.setflags(write=False)
    return AdaptedBasis(q, offsets)


def projector(action: GroupAction, irrep_name: str) -> np.ndarray:
    """Character projector (d_p/g) sum_T chi_p(T)* D(T), as a dense matrix."""
    p = action.group.irrep(irrep_name)
    chars = _characters(action.group, [p])[0]
    return (p.dimension / action.group.order) * _scatter(action, chars)


def irrep_weights(vectors, action: GroupAction) -> np.ndarray:
    """|P_p v| / |v| for every irrep p (rows, table order) and column v of
    `vectors`, read off the action's adapted basis."""
    v = np.asarray(vectors, dtype=float)
    if v.shape[0] != action.dimension:
        raise ValueError(f"vectors have {v.shape[0]} rows, but the "
                         f"{action.group.name} action has dimension "
                         f"{action.dimension}")
    norms = np.linalg.norm(v, axis=0)
    if not norms.all():
        raise ValueError("cannot project a zero vector")
    return np.sqrt(action.adapted_basis.projected_norms2(v)) / norms


@dataclass(frozen=True)
class ProjectionReport:
    """Per-irrep weights of one coefficient vector."""

    weights: dict            # irrep name -> |P v| / |v|
    dominant: str

    @property
    def classified(self) -> str | None:
        """Irrep name when the vector is a pure basis function, else None."""
        if self.weights[self.dominant] >= CLASSIFY_THRESHOLD:
            return self.dominant
        return None


def project_columns(vectors, action: GroupAction) -> list:
    """Weigh every column of `vectors` by irrep; a tie in weight goes to the
    irrep that comes first in the character table."""
    names = [p.name for p in action.group.irreps]
    weights = irrep_weights(vectors, action).T.tolist()
    return [ProjectionReport(w, max(w, key=w.__getitem__))
            for w in (dict(zip(names, col)) for col in weights)]


def _plane_element(action: GroupAction):
    """Permutation and blocks of the mirror through z = 0 on the action's
    fields.

    A group member uses its stored element; otherwise the mirror is induced
    from the point set (which must be closed under it).
    """
    idx = action.group.find_element(PLANE_Z)
    if idx is not None:
        return action.perms[idx], action.blocks[idx]
    if action.points is None:
        raise ValueError(
            "plane operation is outside the group and the action has no point "
            "set to induce it from")
    perm, blocks = _induced(action.points, PLANE_Z, action.dof, 1e-8)
    misses = np.flatnonzero(perm < 0)
    if misses.size:
        raise PointSetNotSymmetricError("the plane operation",
                                        [("plane", int(p)) for p in misses])
    return perm, blocks


def parity_check(v, action: GroupAction,
                 weight: np.ndarray | None = None) -> float:
    """Expectation value <v, D(sigma_z) v> of the mirror through z = 0.

    Returns a value in [-1, 1] (after normalizing v); -1 marks a field
    compatible with a PEC plane, +1 its even counterpart.
    """
    v = np.asarray(v, dtype=float)
    dv = _apply(*_plane_element(action), v)
    if weight is None:
        denom = float(v @ v)
        num = float(v @ dv)
    else:
        denom = float(v @ (weight @ v))
        num = float(v @ (weight @ dv))
    if denom == 0:
        raise ValueError("cannot evaluate parity of a zero vector")
    return num / denom
