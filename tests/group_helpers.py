"""Group constructions that only the tests need."""

from dataclasses import replace

import numpy as np

from modesub.pointgroup import PointGroup


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
