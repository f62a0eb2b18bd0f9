"""Group constructions that only the tests need."""

from dataclasses import replace

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
