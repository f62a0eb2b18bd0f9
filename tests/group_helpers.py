"""Group constructions and input-file writers that only the tests need."""

import json
import math
import struct
from dataclasses import replace

import numpy as np

from modesub.pointgroup import (_GROUPS, MATCH_TOL, PointGroup, _axis_kind,
                                operation_from_matrix)


def perturbed_character_table(group: PointGroup, irrep_name: str,
                              class_index: int, delta: int) -> PointGroup:
    """Copy of `group` with one character table entry shifted (for validation
    tests); matrices of the touched irrep are dropped since they no longer
    apply."""
    irreps = []
    for p in group.irreps:
        if p.name == irrep_name:
            chars = list(p.characters)
            chars[class_index] += delta
            irreps.append(replace(p, characters=tuple(chars), matrices=None))
        else:
            irreps.append(p)
    return replace(group, irreps=tuple(irreps))


def dense_operators(action) -> list:
    """Every element's N x N matrix, in element order, built by applying the
    action to the identity (+ 0.0 turns any -0.0 into 0.0)."""
    eye = np.eye(action.dimension)
    return [action.apply(t, eye) + 0.0 for t in range(action.group.order)]


def write_points_action(path, action) -> None:
    """The action of a point set as a {group, points, dof} action file."""
    with open(path, "w") as fh:
        json.dump({"group": action.group.name, "points": action.points.tolist(),
                   "dof": action.dof}, fh)


def write_operators_action(path, action) -> None:
    """The action in the legacy dense form: one N x N matrix per element,
    plus its points and dof when it has points."""
    doc = {"group": action.group.name,
           "operators": [d.tolist() for d in dense_operators(action)]}
    if action.points is not None:
        doc.update(points=action.points.tolist(), dof=action.dof)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def write_cmx(path, m) -> None:
    """A square matrix as a CMX1 binary grid."""
    m = np.asarray(m, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"CMX1" + struct.pack("<I", len(m)) + m.tobytes())


# ---------------------------------------------------------------------------
# the element-at-a-time group build, kept as an oracle for builtin_group
# ---------------------------------------------------------------------------

def element_key(matrix) -> tuple | None:
    """Hash key of a 3x3 matrix whose entries are integers within MATCH_TOL
    (the rounded entries), else None, a non-finite entry included."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        return None
    flat = m.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        return None
    key = tuple(map(round, flat))
    if max(abs(x - k) for x, k in zip(flat, key)) > MATCH_TOL:
        return None
    return key


def _close_under_product(generators):
    elems = []
    seen = set()

    def add(m):
        key = element_key(m)
        if key not in seen:
            seen.add(key)
            elems.append(m)
            return True
        return False

    for g in [np.eye(3)] + [np.asarray(g, dtype=float) for g in generators]:
        add(g)
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                changed = add(a @ b) or changed
    return elems


def _conjugacy_classes(elems):
    assigned = [None] * len(elems)
    index = {element_key(e): i for i, e in enumerate(elems)}
    classes = []
    for i in range(len(elems)):
        if assigned[i] is not None:
            continue
        members = {index[element_key(h @ elems[i] @ h.T)] for h in elems}
        for j in members:
            assigned[j] = len(classes)
        classes.append(tuple(sorted(members)))
    return classes


_QUAD_BASIS = np.array(
    [[-1.0 / math.sqrt(6.0), 1.0 / math.sqrt(2.0)],
     [-1.0 / math.sqrt(6.0), -1.0 / math.sqrt(2.0)],
     [2.0 / math.sqrt(6.0), 0.0]])


def _perm_part(m):
    return np.abs(np.round(m))


def _det(m):
    return float(round(np.linalg.det(m)))


def _perm_parity(m):
    return float(round(np.linalg.det(_perm_part(m))))


def _quad_pair(m):
    return _QUAD_BASIS.T @ _perm_part(m) @ _QUAD_BASIS


def _xy_block(m):
    return np.array(m[:2, :2])


def _xy_det(m):
    return float(round(np.linalg.det(m[:2, :2])))


def _xy_diagness(m):
    return float(round(m[0, 0] ** 2 - m[0, 1] ** 2))


def _scalar(fn):
    return lambda m: np.array([[fn(m)]])


_MATRIX_RULES = {
    "O_h": {
        "A_1g": _scalar(lambda m: 1.0),
        "A_2g": _scalar(_perm_parity),
        "E_g": _quad_pair,
        "T_1g": lambda m: _det(m) * np.array(m),
        "T_2g": lambda m: _perm_parity(m) * _det(m) * np.array(m),
        "A_1u": _scalar(_det),
        "A_2u": _scalar(lambda m: _det(m) * _perm_parity(m)),
        "E_u": lambda m: _det(m) * _quad_pair(m),
        "T_1u": lambda m: np.array(m),
        "T_2u": lambda m: _perm_parity(m) * np.array(m),
    },
    "O": {
        "A_1": _scalar(lambda m: 1.0),
        "A_2": _scalar(_perm_parity),
        "E": _quad_pair,
        "T_1": lambda m: np.array(m),
        "T_2": lambda m: _perm_parity(m) * np.array(m),
    },
    "D_4h": {
        "A_1g": _scalar(lambda m: 1.0),
        "A_2g": _scalar(_xy_det),
        "B_1g": _scalar(_xy_diagness),
        "B_2g": _scalar(lambda m: _xy_det(m) * _xy_diagness(m)),
        "E_g": lambda m: _det(m) * _xy_block(m),
        "A_1u": _scalar(_det),
        "A_2u": _scalar(lambda m: _det(m) * _xy_det(m)),
        "B_1u": _scalar(lambda m: _det(m) * _xy_diagness(m)),
        "B_2u": _scalar(lambda m: _det(m) * _xy_det(m) * _xy_diagness(m)),
        "E_u": _xy_block,
    },
    "C_4v": {
        "A_1": _scalar(lambda m: 1.0),
        "A_2": _scalar(_xy_det),
        "B_1": _scalar(_xy_diagness),
        "B_2": _scalar(lambda m: _xy_det(m) * _xy_diagness(m)),
        "E": _xy_block,
    },
    "C_2v": {
        "A_1": _scalar(lambda m: 1.0),
        "A_2": _scalar(_xy_det),
        "B_1": _scalar(lambda m: float(m[0, 0])),
        "B_2": _scalar(lambda m: float(m[1, 1])),
    },
}


def oracle_group(name: str) -> dict:
    """The group build as it was done one element at a time: element
    matrices in closure order, conjugacy classes (member tuples) in encoded
    table order, class_of_element, and each irrep's per-element matrices."""
    data = _GROUPS[name]
    matrices = _close_under_product(data["generators"])
    ops = [operation_from_matrix(m) for m in matrices]
    classes = [None] * len(data["classes"])
    class_of_element = [None] * len(ops)
    for members in _conjugacy_classes([op.matrix for op in ops]):
        rep = ops[members[0]]
        det = int(round(np.linalg.det(rep.matrix)))
        slot = next(ci for ci, (_, size, d, angle, kinds)
                    in enumerate(data["classes"])
                    if d == det and abs(rep.angle - angle) < 1e-6
                    and _axis_kind(rep) in kinds and len(members) == size)
        classes[slot] = members
        for j in members:
            class_of_element[j] = slot
    irreps = {p: [np.asarray(rule(op.matrix), dtype=float) for op in ops]
              for p, rule in _MATRIX_RULES[name].items()}
    return {"matrices": [op.matrix for op in ops], "classes": classes,
            "class_of_element": class_of_element, "irreps": irreps}
