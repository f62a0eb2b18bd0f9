"""Group constructions, reference tables and input-file writers that only
the tests need."""

import json
import math
import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np

from modesub.pointgroup import (_GROUPS, MATCH_TOL, PLANE_Z, O3IrrepId,
                                PointGroup, _axis_kind, builtin_group,
                                operation_from_matrix)
from modesub.subduction import ParityFilter, _plane_slots, subduce


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


def orbit_points(group: PointGroup, seed, tol: float = 1e-8) -> np.ndarray:
    """Orbit of a seed point under the group (deduplicated); always a valid
    point set for action_from_points."""
    seed = np.asarray(seed, dtype=float)
    pts = []
    for op in group.elements:
        q = op.matrix @ seed
        if not any(np.abs(q - p).max() <= tol for p in pts):
            pts.append(q)
    return np.array(pts)


def dense_operators(action) -> list:
    """Every element's N x N matrix, in element order, built by applying the
    action to the identity (+ 0.0 turns any -0.0 into 0.0)."""
    eye = np.eye(action.dimension)
    return [action.apply(t, eye) + 0.0 for t in range(action.group.order)]


#: a C_2v orbit of four points, and action files that must not load: each
#: id maps to the file's document and the message that follows its path
C2V_ORBIT = [[0.7, 0.2, 0.4], [-0.7, -0.2, 0.4], [0.7, -0.2, 0.4],
             [-0.7, 0.2, 0.4]]
BAD_ACTIONS = {
    "ragged-points": ({"group": "C_2v", "points": [[1.0, 0.0, 0.0], [1.0]]},
                      "points must be an (N, 3) array of numbers"),
    "deep-points": ({"group": "C_2v", "points": json.loads("[" * 100
                                                           + "]" * 100)},
                    "points must be an (N, 3) array of numbers"),
    "no-points": ({"group": "C_2v", "points": []},
                  "points must be an (N, 3) array"),
    "dof-0": ({"group": "C_2v", "points": C2V_ORBIT, "dof": 0},
              "dof must be 1 or 3"),
    "dof-2.5": ({"group": "C_2v", "points": C2V_ORBIT, "dof": 2.5},
                "dof must be an integer"),
    "dof-1.5": ({"group": "C_2v", "points": C2V_ORBIT, "dof": 1.5},
                "dof must be an integer"),
    "dof-true": ({"group": "C_2v", "points": C2V_ORBIT, "dof": True},
                 "dof must be an integer"),
    "dof-string": ({"group": "C_2v", "points": C2V_ORBIT, "dof": "1"},
                   "dof must be an integer"),
    "operators-dof-1.5": ({"group": "C_2v", "dof": 1.5,
                           "operators": [np.eye(4).tolist()] * 4},
                          "dof must be an integer"),
    "operators-dof-true": ({"group": "C_2v", "dof": True,
                            "operators": [np.eye(4).tolist()] * 4},
                           "dof must be an integer"),
    "unknown-group": ({"group": "D_6h", "points": C2V_ORBIT},
                      "unknown point group 'D_6h'; built-ins are C_2v, "
                      "C_4v, D_4h, O, O_h"),
}


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


def write_csv(path, m) -> None:
    """A matrix as CSV, one line per row and repr of each entry; a 1-D
    array as one column."""
    m = np.asarray(m, dtype=float)
    with open(path, "w", newline="") as fh:
        for row in m.reshape(len(m), -1):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


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


# ---------------------------------------------------------------------------
# the paper's reference tables, checked by the acceptance tests
# ---------------------------------------------------------------------------

def spherical_to_octahedral_table(tmax: int = 6) -> list:
    """Octahedral content of every vector spherical wave up to tmax.

    One row per (t, s): the subduction of the (2t+1)-dim wave onto O_h.
    """
    oh = builtin_group("O_h")
    rows = []
    for t in range(1, tmax + 1):
        for s in (1, 2):
            wave = O3IrrepId(t, s)
            rows.append((wave, subduce(wave, oh)))
    return rows


def octahedral_chain_table() -> list:
    """Descent of each O_h irrep through D_4h toward C_2v under the odd filter.

    One row per O_h irrep with its D_4h content, the plane-operation matrix
    of each D_4h branch, the branches surviving the odd (PEC-plane) filter,
    and their continuation onto C_4v and C_2v.
    """
    oh = builtin_group("O_h")
    d4h = builtin_group("D_4h")
    c4v = builtin_group("C_4v")
    c2v = builtin_group("C_2v")
    plane_idx = d4h.find_element(PLANE_Z)

    rows = []
    for p in oh.irreps:
        branches = []
        step = subduce(p.name, d4h, parent_group=oh)
        for child_name, mult in step.entries:
            child = d4h.irrep(child_name)
            gamma = np.asarray(child.matrices[plane_idx])
            odd = len(_plane_slots(d4h, child, ParityFilter("odd"))) == child.dimension
            branch = {
                "d4h": child_name,
                "multiplicity": mult,
                "plane_matrix": tuple(tuple(float(x) + 0.0 for x in r) for r in gamma),
                "odd": odd,
                "c4v": None,
                "c2v": None,
            }
            if odd:
                down = subduce(child_name, c4v, parent_group=d4h)
                branch["c4v"] = down.entries
                c2v_content = {}
                for name4, m4 in down.entries:
                    deeper = subduce(name4, c2v, parent_group=c4v)
                    for name2, m2 in deeper.entries:
                        c2v_content[name2] = c2v_content.get(name2, Fraction(0)) \
                            + m4 * m2
                branch["c2v"] = tuple(sorted(c2v_content.items()))
            branches.append(branch)
        rows.append({"oh": p.name, "branches": branches})
    return rows
