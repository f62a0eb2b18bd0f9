"""Finite point groups (Schoenflies) and their real character tables.

Groups are built from a small generator set, closed under multiplication,
and partitioned into conjugacy classes which are then matched against the
encoded table data.  Character tables are literal integer data from the
standard crystallographic references; irrep matrices are produced by
per-group rules acting on the 3x3 operation matrices and validated against
the characters at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

#: polarization indices for the vector spherical waves
TE = 1
TM = 2

#: matrix-equality tolerance used for closure, dedup and subgroup tests
MATCH_TOL = 1e-9

_PI = math.pi


def _readonly(a):
    m = np.array(a, dtype=float)
    m.setflags(write=False)
    return m


# mirror through the z = 0 plane: inversion composed with C2 about z
PLANE_Z = _readonly(np.diag([1.0, 1.0, -1.0]))


@dataclass(frozen=True)
class O3IrrepId:
    """Identity of a vector spherical wave irrep: order t and polarization s."""

    t: int
    s: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("order t must be >= 1")
        if self.s not in (TE, TM):
            raise ValueError("polarization s must be 1 (TE) or 2 (TM)")

    @property
    def dimension(self) -> int:
        return 2 * self.t + 1

    @property
    def parity_sign(self) -> int:
        """Sign picked up under improper operations.

        TE waves transform with (-1)^(t+1), TM waves with (-1)^t.
        """
        if self.s == TE:
            return -1 if self.t % 2 == 0 else 1
        return 1 if self.t % 2 == 0 else -1

    def __str__(self):
        return f"t={self.t},{'TE' if self.s == TE else 'TM'}"


@dataclass(frozen=True)
class SymmetryOperation:
    """One orthogonal operation on R^3, classified by its proper part."""

    kind: str            # "proper" or "improper"
    axis: np.ndarray     # unit axis of the proper part (z by convention at angle 0)
    angle: float         # rotation angle of the proper part, in [0, pi]
    matrix: np.ndarray   # the full 3x3 orthogonal matrix

    def __str__(self):
        return f"{self.kind}(angle={self.angle:.4f}, axis={np.round(self.axis, 3)})"


def operation_from_matrix(m) -> SymmetryOperation:
    """Classify a 3x3 orthogonal matrix into a SymmetryOperation."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("operation matrix must be 3x3")
    if np.abs(m @ m.T - np.eye(3)).max() > 1e-10:
        raise ValueError("operation matrix is not orthogonal")
    det = float(np.linalg.det(m))
    kind = "proper" if det > 0 else "improper"
    p = m if det > 0 else -m
    c = (np.trace(p) - 1.0) / 2.0
    theta = math.acos(min(1.0, max(-1.0, c)))
    if theta < 1e-12:
        axis = np.array([0.0, 0.0, 1.0])
    elif theta > _PI - 1e-9:
        # eigenvector of p for eigenvalue +1; sign canonicalized
        w, v = np.linalg.eigh((p + p.T) / 2.0)
        axis = v[:, np.argmax(w)]
        for comp in axis:
            if abs(comp) > 1e-8:
                if comp < 0:
                    axis = -axis
                break
    else:
        axis = np.array([p[2, 1] - p[1, 2], p[0, 2] - p[2, 0], p[1, 0] - p[0, 1]])
        axis = axis / (2.0 * math.sin(theta))
    return SymmetryOperation(kind, _readonly(axis), theta, _readonly(m))


def _axis_kind(op: SymmetryOperation) -> str:
    """Coarse axis classification used to match conjugacy classes."""
    if op.angle < 1e-9:
        return "none"
    a = np.abs(op.axis)
    order = np.sort(a)[::-1]
    if abs(order[0] - 1.0) < 1e-6:
        return "xyz"[int(np.argmax(a))]
    if abs(order[0] - order[1]) < 1e-6 and order[2] < 1e-6:
        return "face"
    if abs(order[0] - order[2]) < 1e-6:
        return "body"
    return "other"


def _element_codes(mats) -> np.ndarray:
    """Codes of a stack (..., 3, 3) of matrices.  Every built-in operation
    is a signed permutation: a matrix whose entries all lie within MATCH_TOL
    of -1, 0 or 1 gets the code sum_k (e_k + 1) 3^k of its rounded entries
    e_k, in [0, 3**9), so two such matrices match within MATCH_TOL exactly
    when their codes are equal.  Any other matrix, non-finite too, gets -1.
    """
    m = np.asarray(mats, dtype=float)
    k = np.clip(np.rint(m), -1.0, 1.0)
    ok = (np.abs(m - k) <= MATCH_TOL).all(axis=(-2, -1))
    codes = (k + 1.0).reshape(*m.shape[:-2], 9) @ 3.0 ** np.arange(9)
    return np.where(ok, codes, -1.0).astype(np.intp)


def _lookup(codes) -> np.ndarray:
    """Code -> index of its first occurrence in `codes`, else -1.  The extra
    last slot stays -1, so the code -1 looks up -1."""
    index = np.full(3 ** 9 + 1, -1, dtype=np.intp)
    _, first = np.unique(codes, return_index=True)
    index[codes[first]] = first
    return index


class UnknownIrrepError(KeyError, ValueError):
    """A lookup of an irrep name the group does not have; a ValueError too,
    because the name usually comes from user input."""


@dataclass(frozen=True)
class ConjugacyClass:
    label: str
    size: int
    representative: SymmetryOperation
    member_indices: tuple


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation row of a character table."""

    name: str
    index: int            # 1-based row position in the encoded table
    dimension: int
    parity: str | None    # "g", "u" or None for groups without inversion
    characters: tuple     # one integer per conjugacy class, in table order
    matrices: np.ndarray | None = None   # (order, d, d) orthogonal, element order


@dataclass(frozen=True, eq=False)
class PointGroup:
    name: str
    order: int
    elements: tuple            # SymmetryOperation, element 0 is the identity
    classes: tuple             # ConjugacyClass, in encoded table order
    irreps: tuple              # Irrep, in encoded table order
    class_of_element: tuple    # element index -> class index
    _index: np.ndarray = field(init=False, repr=False)   # see _lookup

    def __post_init__(self):
        codes = _element_codes(self.element_matrices())
        bad = np.flatnonzero(codes < 0)
        if bad.size:
            raise ValueError(f"{self.name}: element {bad[0]} is not an integer matrix")
        object.__setattr__(self, "_index", _lookup(codes))

    def element_matrices(self) -> np.ndarray:
        """The element matrices as one (order, 3, 3) stack."""
        return np.array([op.matrix for op in self.elements]).reshape(-1, 3, 3)

    @cached_property
    def product_table(self) -> np.ndarray:
        """(order, order) ints: table[i, j] is the index of
        elements[i] @ elements[j], or -1 where that product is no element."""
        mats = self.element_matrices()
        table = self.find_elements(mats[:, None] @ mats[None])
        table.setflags(write=False)
        return table

    def character(self, irrep: Irrep, element_index: int) -> int:
        return irrep.characters[self.class_of_element[element_index]]

    def irrep(self, name: str) -> Irrep:
        for p in self.irreps:
            if p.name == name:
                return p
        raise UnknownIrrepError(f"{self.name} has no irrep named {name!r}")

    def find_element(self, matrix) -> int | None:
        """Index of the element equal to `matrix` within MATCH_TOL, else None."""
        m = np.asarray(matrix, dtype=float)
        i = int(self.find_elements(m)) if m.shape == (3, 3) else -1
        return i if i >= 0 else None

    def find_elements(self, mats) -> np.ndarray:
        """find_element over a (..., 3, 3) stack, with -1 for None."""
        return self._index[_element_codes(mats)]


# ---------------------------------------------------------------------------
# encoded group data
# ---------------------------------------------------------------------------

_C4Z = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
_C3_BODY = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
_C2X = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
_C2Z = [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
_SXZ = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
_INV = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]

# class descriptor: (label, size, det, proper-part angle, allowed axis kinds)
_GROUPS = {
    "O_h": {
        "generators": [_C4Z, _C3_BODY, _INV],
        "classes": [
            ("E", 1, 1, 0.0, {"none"}),
            ("8C3", 8, 1, 2 * _PI / 3, {"body"}),
            ("6C2'", 6, 1, _PI, {"face"}),
            ("6C4", 6, 1, _PI / 2, {"x", "y", "z"}),
            ("3C2", 3, 1, _PI, {"x", "y", "z"}),
            ("i", 1, -1, 0.0, {"none"}),
            ("6S4", 6, -1, _PI / 2, {"x", "y", "z"}),
            ("8S6", 8, -1, 2 * _PI / 3, {"body"}),
            ("3s_h", 3, -1, _PI, {"x", "y", "z"}),
            ("6s_d", 6, -1, _PI, {"face"}),
        ],
        "irreps": [
            ("A_1g", 1, "g", (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
            ("A_2g", 1, "g", (1, 1, -1, -1, 1, 1, -1, 1, 1, -1)),
            ("E_g", 2, "g", (2, -1, 0, 0, 2, 2, 0, -1, 2, 0)),
            ("T_1g", 3, "g", (3, 0, -1, 1, -1, 3, 1, 0, -1, -1)),
            ("T_2g", 3, "g", (3, 0, 1, -1, -1, 3, -1, 0, -1, 1)),
            ("A_1u", 1, "u", (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)),
            ("A_2u", 1, "u", (1, 1, -1, -1, 1, -1, 1, -1, -1, 1)),
            ("E_u", 2, "u", (2, -1, 0, 0, 2, -2, 0, 1, -2, 0)),
            ("T_1u", 3, "u", (3, 0, -1, 1, -1, -3, -1, 0, 1, 1)),
            ("T_2u", 3, "u", (3, 0, 1, -1, -1, -3, 1, 0, 1, -1)),
        ],
    },
    "O": {
        "generators": [_C4Z, _C3_BODY],
        "classes": [
            ("E", 1, 1, 0.0, {"none"}),
            ("8C3", 8, 1, 2 * _PI / 3, {"body"}),
            ("6C2'", 6, 1, _PI, {"face"}),
            ("6C4", 6, 1, _PI / 2, {"x", "y", "z"}),
            ("3C2", 3, 1, _PI, {"x", "y", "z"}),
        ],
        "irreps": [
            ("A_1", 1, None, (1, 1, 1, 1, 1)),
            ("A_2", 1, None, (1, 1, -1, -1, 1)),
            ("E", 2, None, (2, -1, 0, 0, 2)),
            ("T_1", 3, None, (3, 0, -1, 1, -1)),
            ("T_2", 3, None, (3, 0, 1, -1, -1)),
        ],
    },
    "D_4h": {
        "generators": [_C4Z, _C2X, _INV],
        "classes": [
            ("E", 1, 1, 0.0, {"none"}),
            ("2C4", 2, 1, _PI / 2, {"z"}),
            ("C2", 1, 1, _PI, {"z"}),
            ("2C2'", 2, 1, _PI, {"x", "y"}),
            ("2C2''", 2, 1, _PI, {"face"}),
            ("i", 1, -1, 0.0, {"none"}),
            ("2S4", 2, -1, _PI / 2, {"z"}),
            ("s_h", 1, -1, _PI, {"z"}),
            ("2s_v", 2, -1, _PI, {"x", "y"}),
            ("2s_d", 2, -1, _PI, {"face"}),
        ],
        "irreps": [
            ("A_1g", 1, "g", (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
            ("A_2g", 1, "g", (1, 1, 1, -1, -1, 1, 1, 1, -1, -1)),
            ("B_1g", 1, "g", (1, -1, 1, 1, -1, 1, -1, 1, 1, -1)),
            ("B_2g", 1, "g", (1, -1, 1, -1, 1, 1, -1, 1, -1, 1)),
            ("E_g", 2, "g", (2, 0, -2, 0, 0, 2, 0, -2, 0, 0)),
            ("A_1u", 1, "u", (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)),
            ("A_2u", 1, "u", (1, 1, 1, -1, -1, -1, -1, -1, 1, 1)),
            ("B_1u", 1, "u", (1, -1, 1, 1, -1, -1, 1, -1, -1, 1)),
            ("B_2u", 1, "u", (1, -1, 1, -1, 1, -1, 1, -1, 1, -1)),
            ("E_u", 2, "u", (2, 0, -2, 0, 0, -2, 0, 2, 0, 0)),
        ],
    },
    "C_4v": {
        "generators": [_C4Z, _SXZ],
        "classes": [
            ("E", 1, 1, 0.0, {"none"}),
            ("2C4", 2, 1, _PI / 2, {"z"}),
            ("C2", 1, 1, _PI, {"z"}),
            ("2s_v", 2, -1, _PI, {"x", "y"}),
            ("2s_d", 2, -1, _PI, {"face"}),
        ],
        "irreps": [
            ("A_1", 1, None, (1, 1, 1, 1, 1)),
            ("A_2", 1, None, (1, 1, 1, -1, -1)),
            ("B_1", 1, None, (1, -1, 1, 1, -1)),
            ("B_2", 1, None, (1, -1, 1, -1, 1)),
            ("E", 2, None, (2, 0, -2, 0, 0)),
        ],
    },
    "C_2v": {
        "generators": [_C2Z, _SXZ],
        "classes": [
            ("E", 1, 1, 0.0, {"none"}),
            ("C2", 1, 1, _PI, {"z"}),
            ("s_xz", 1, -1, _PI, {"y"}),
            ("s_yz", 1, -1, _PI, {"x"}),
        ],
        "irreps": [
            ("A_1", 1, None, (1, 1, 1, 1)),
            ("A_2", 1, None, (1, 1, -1, -1)),
            ("B_1", 1, None, (1, -1, 1, -1)),
            ("B_2", 1, None, (1, -1, -1, 1)),
        ],
    },
}

_ALIASES = {n.replace("_", "").upper(): n for n in _GROUPS}


def normalize_group_name(name: str) -> str:
    canonical = _ALIASES.get(name.strip().replace("_", "").upper())
    if canonical is None:
        raise ValueError(f"unknown point group {name!r}; "
                         f"built-ins are {', '.join(sorted(_GROUPS))}")
    return canonical


# ---------------------------------------------------------------------------
# irrep matrix rules
# ---------------------------------------------------------------------------

# orthonormal basis of the traceless diagonal quadratic forms, columns in
# (x^2, y^2, z^2) coefficient space; carries the 2-dim irrep of the octahedral
# rotations via the induced axis permutation
_QUAD_BASIS = np.array(
    [[-1.0 / math.sqrt(6.0), 1.0 / math.sqrt(2.0)],
     [-1.0 / math.sqrt(6.0), -1.0 / math.sqrt(2.0)],
     [2.0 / math.sqrt(6.0), 0.0]])


def _perm_part(m):
    p = np.abs(np.round(m))
    if np.abs(p - np.abs(m)).max() > 1e-9:
        raise ValueError("operation is not a signed permutation matrix")
    return p


# Each rule maps the (g, 3, 3) stack of operation matrices to the (g, d, d)
# stack of irrep matrices (copied when stored); the sign helpers return
# (g, 1, 1) stacks.

def _det(m):
    return np.rint(np.linalg.det(m))[:, None, None]


def _perm_parity(m):
    return _det(_perm_part(m))


def _quad_pair(m):
    return _QUAD_BASIS.T @ _perm_part(m) @ _QUAD_BASIS


def _xy_block(m):
    return m[:, :2, :2]


def _xy_det(m):
    return _det(m[:, :2, :2])


def _xy_diagness(m):
    # +1 when the xy block is diagonal, -1 when antidiagonal
    return np.rint(m[:, :1, :1] ** 2 - m[:, :1, 1:2] ** 2)


def _one(m):
    return np.ones((len(m), 1, 1))


_MATRIX_RULES = {
    "O_h": {
        "A_1g": _one,
        "A_2g": _perm_parity,
        "E_g": _quad_pair,
        "T_1g": lambda m: _det(m) * m,
        "T_2g": lambda m: _perm_parity(m) * _det(m) * m,
        "A_1u": _det,
        "A_2u": lambda m: _det(m) * _perm_parity(m),
        "E_u": lambda m: _det(m) * _quad_pair(m),
        "T_1u": lambda m: m,
        "T_2u": lambda m: _perm_parity(m) * m,
    },
    "D_4h": {
        "A_1g": _one,
        "A_2g": _xy_det,
        "B_1g": _xy_diagness,
        "B_2g": lambda m: _xy_det(m) * _xy_diagness(m),
        "E_g": lambda m: _det(m) * _xy_block(m),
        "A_1u": _det,
        "A_2u": lambda m: _det(m) * _xy_det(m),
        "B_1u": lambda m: _det(m) * _xy_diagness(m),
        "B_2u": lambda m: _det(m) * _xy_det(m) * _xy_diagness(m),
        "E_u": _xy_block,
    },
    "C_2v": {
        "A_1": _one,
        "A_2": _xy_det,
        "B_1": lambda m: m[:, :1, :1],
        "B_2": lambda m: m[:, 1:2, 1:2],
    },
}
# O is the rotation subgroup of O_h, and C_4v a subgroup of D_4h; their
# irreps restrict these O_h and D_4h irreps
_MATRIX_RULES["O"] = {n: _MATRIX_RULES["O_h"][m] for n, m in zip(
    ("A_1", "A_2", "E", "T_1", "T_2"), ("A_1g", "A_2g", "E_g", "T_1g", "T_2g"))}
_MATRIX_RULES["C_4v"] = {n: _MATRIX_RULES["D_4h"][m] for n, m in zip(
    ("A_1", "A_2", "B_1", "B_2", "E"), ("A_1g", "A_2g", "B_1g", "B_2g", "E_u"))}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _close_under_product(generators):
    """Element matrices generated by `generators`, and their product table:
    the identity, the generators, then each new product a @ b in the order
    met by passes over the pairs, a from the elements at the start of the
    pass and b from the elements found so far, until the elements close."""
    elems, seen = [], set()

    def add(stack):
        for code, m in zip(_element_codes(stack).tolist(), stack):
            if code not in seen:
                seen.add(code)
                elems.append(m)

    add(np.array([np.eye(3)] + [np.asarray(g, dtype=float) for g in generators]))
    if -1 in seen:
        raise ValueError("generators must be integer matrices")
    while len(elems) <= 256:
        mats = np.array(elems)
        index = _lookup(_element_codes(mats))
        table = index[_element_codes(mats[:, None] @ mats[None])]
        if (table >= 0).all():
            return mats, table
        for a in mats:
            add(a @ np.array(elems))
    raise RuntimeError("generator closure did not terminate")


def _conjugacy_classes(table):
    """Conjugacy classes as sorted index tuples, ordered by first member.
    h e h^-1 is table[table[h, e], inverse[h]]; element 0 is the identity."""
    inverse = np.argmax(table == 0, axis=1)
    first = table[table, inverse[:, None]].min(axis=0)
    return [tuple(np.flatnonzero(first == f).tolist())
            for f in np.flatnonzero(first == np.arange(len(first)))]


def builtin_group(name: str) -> PointGroup:
    """Build one of the built-in groups: O_h, O, D_4h, C_4v, C_2v.

    Elements are generated from the encoded generator set and closed under
    multiplication; conjugacy classes are matched to the encoded table
    columns by operation signature.  The result is validated (see
    verify_group: closure, the character table, and every product of every
    irrep's matrices) before being returned, and cached by canonical name.
    """
    return _build_group(normalize_group_name(name))


@lru_cache(maxsize=None)
def _build_group(canonical: str) -> PointGroup:
    data = _GROUPS[canonical]
    mats, table = _close_under_product(data["generators"])
    ops = [operation_from_matrix(m) for m in mats]   # identity first

    class_objs = [None] * len(data["classes"])
    class_of_element = np.empty(len(ops), dtype=int)
    for members in _conjugacy_classes(table):
        rep = ops[members[0]]
        sig = (int(round(np.linalg.det(rep.matrix))), rep.angle, _axis_kind(rep))
        slot = next((ci for ci, (_, size, det, angle, kinds)
                     in enumerate(data["classes"])
                     if sig[0] == det and abs(sig[1] - angle) < 1e-6
                     and sig[2] in kinds and len(members) == size), None)
        if slot is None or class_objs[slot] is not None:
            raise RuntimeError(
                f"{canonical}: generated class {sig} does not match the encoded table")
        class_objs[slot] = ConjugacyClass(data["classes"][slot][0], len(members),
                                          rep, members)
        class_of_element[list(members)] = slot
    if any(c is None for c in class_objs):
        raise RuntimeError(f"{canonical}: class count mismatch")

    # verify_group checks every rule against the characters
    rules = _MATRIX_RULES[canonical]
    irreps = tuple(Irrep(name, row + 1, dim, par, chars, _readonly(rules[name](mats)))
                   for row, (name, dim, par, chars) in enumerate(data["irreps"]))
    group = PointGroup(canonical, len(ops), tuple(ops), tuple(class_objs),
                       irreps, tuple(class_of_element.tolist()))
    report = verify_group(group)
    if not report.ok:
        raise RuntimeError(f"{canonical} failed validation: {report.violations}")
    return group


# ---------------------------------------------------------------------------
# characters of the full rotation-inversion group restricted to finite groups
# ---------------------------------------------------------------------------

def rotation_character(t: int, theta: float) -> float:
    """Character of the (2t+1)-dim rotation irrep at angle theta."""
    th = math.fmod(theta, 2.0 * _PI)
    if th < 0.0:
        th += 2.0 * _PI
    if min(th, 2.0 * _PI - th) < 1e-6:
        # the closed form is 0/0 here; the cosine sum is exact
        return 1.0 + 2.0 * sum(math.cos(m * th) for m in range(1, t + 1))
    return math.sin((t + 0.5) * th) / math.sin(th / 2.0)


def o3_character(wave: O3IrrepId, op: SymmetryOperation) -> float:
    """Character of a vector spherical wave at a point-group operation.

    Improper operations pick up the wave's parity sign on top of the
    rotation character of the proper part.
    """
    chi = rotation_character(wave.t, op.angle)
    if op.kind == "improper":
        chi *= wave.parity_sign
    return chi


# ---------------------------------------------------------------------------
# validation and export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    group: str
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_group(group: PointGroup) -> ValidationReport:
    """Check the defining invariants of a PointGroup.

    Returns a report listing every violation found (empty list = valid):
    closure, class partition consistency, sum of squared dimensions,
    identity column, row and column orthogonality, and that stored irrep
    matrices trace to the characters and multiply like the group, on all
    order^2 pairs.  The product table is rebuilt from the element matrices,
    not taken from the group's cache.
    """
    bad = []
    g = group.order
    if len(group.elements) != g:
        bad.append("order does not match element count")

    mats = group.element_matrices()
    table = group.find_elements(mats[:, None] @ mats[None])
    open_rows = np.flatnonzero((table < 0).any(axis=1))
    if open_rows.size:
        bad.append(f"closure fails at element pair starting from {open_rows[0]}")

    if sum(c.size for c in group.classes) != g:
        bad.append("class sizes do not sum to the group order")
    for c in group.classes:
        if len(c.member_indices) != c.size:
            bad.append(f"class {c.label}: member count != size")
    if len(group.irreps) != len(group.classes):
        bad.append("irrep count != class count")

    if sum(p.dimension ** 2 for p in group.irreps) != g:
        bad.append("sum of squared dimensions != group order")
    ident_class = group.class_of_element[0]
    for p in group.irreps:
        if p.characters[ident_class] != p.dimension:
            bad.append(f"{p.name}: character at identity != dimension")

    sizes = np.array([c.size for c in group.classes], dtype=float)
    chars = np.array([p.characters for p in group.irreps], dtype=float)
    gram = (chars * sizes) @ chars.T
    if np.abs(gram - g * np.eye(len(group.irreps))).max() > 1e-10:
        bad.append("row orthogonality violated")
    col = chars.T @ chars
    expect = np.diag(g / sizes)
    if np.abs(col - expect).max() > 1e-10:
        bad.append("column orthogonality violated")

    for p in group.irreps:
        if p.matrices is None:
            continue
        gamma = np.asarray(p.matrices)
        off = np.abs(np.trace(gamma, axis1=1, axis2=2)
                     - np.take(p.characters, group.class_of_element)) > 1e-8
        if off.any():
            bad.append(f"{p.name}: matrix trace != character at element "
                       f"{np.argmax(off)}")
        if not open_rows.size and np.abs(
                gamma[:, None] @ gamma[None] - gamma[table]).max() > 1e-8:
            bad.append(f"{p.name}: matrices do not respect the product table")

    return ValidationReport(group.name, tuple(bad))


def group_to_json(group: PointGroup) -> dict:
    """JSON-ready description: classes with sizes and representatives, and
    the character table as a class-by-irrep integer grid."""
    return {
        "name": group.name,
        "order": group.order,
        "classes": [
            {
                "label": c.label,
                "size": c.size,
                "representative": [[float(x) for x in row]
                                   for row in c.representative.matrix],
            }
            for c in group.classes
        ],
        "irreps": [
            {"name": p.name, "index": p.index, "dimension": p.dimension,
             "parity": p.parity}
            for p in group.irreps
        ],
        "character_table": [[int(x) for x in p.characters] for p in group.irreps],
    }


def format_character_table(group: PointGroup) -> str:
    """Aligned text rendering of the character table."""
    labels = [c.label for c in group.classes]
    width = max(len(s) for s in labels + [p.name for p in group.irreps]) + 2
    lines = [f"{group.name} (order {group.order})"]
    lines.append(" " * width + "".join(f"{s:>{width}}" for s in labels))
    for p in group.irreps:
        row = "".join(f"{x:>{width}}" for x in p.characters)
        lines.append(f"{p.name:<{width}}" + row)
    return "\n".join(lines)
