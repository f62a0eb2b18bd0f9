from fractions import Fraction

import numpy as np
import pytest

from modesub.pointgroup import (
    MATCH_TOL,
    TE,
    TM,
    O3IrrepId,
    builtin_group,
    builtin_group_names,
)
from modesub.subduction import (
    SLOT_SIGN_TOL,
    STANDARD_CHAIN,
    MissingIrrepMatrixError,
    NotASubgroupError,
    ParityFilter,
    chain_subduce,
    filtered_stage_content,
    octahedral_chain_table,
    spherical_to_octahedral_table,
    subduce,
)

# frozen reference: spherical (t, polarization) content on the octahedral
# group, t = 1..6; multiplicities > 1 appear as :2
SPHERE_TO_OH = [
    ("t=1,TE", "T_1g:1"),
    ("t=1,TM", "T_1u:1"),
    ("t=2,TE", "E_u:1 T_2u:1"),
    ("t=2,TM", "E_g:1 T_2g:1"),
    ("t=3,TE", "A_2g:1 T_1g:1 T_2g:1"),
    ("t=3,TM", "A_2u:1 T_1u:1 T_2u:1"),
    ("t=4,TE", "A_1u:1 E_u:1 T_1u:1 T_2u:1"),
    ("t=4,TM", "A_1g:1 E_g:1 T_1g:1 T_2g:1"),
    ("t=5,TE", "E_g:1 T_1g:2 T_2g:1"),
    ("t=5,TM", "E_u:1 T_1u:2 T_2u:1"),
    ("t=6,TE", "A_1u:1 A_2u:1 E_u:1 T_1u:1 T_2u:2"),
    ("t=6,TM", "A_1g:1 A_2g:1 E_g:1 T_1g:1 T_2g:2"),
]

# frozen reference: every octahedral irrep through the tetragonal chain.
# Each branch: (tetragonal irrep, z-mirror block diagonal, odd?, then the
# C_4v and C_2v content of the surviving odd branches)
OH_CHAIN = {
    "A_1g": [("A_1g", (1.0,), False, None, None)],
    "A_2g": [("B_1g", (1.0,), False, None, None)],
    "E_g": [("A_1g", (1.0,), False, None, None),
            ("B_1g", (1.0,), False, None, None)],
    "T_1g": [("A_2g", (1.0,), False, None, None),
             ("E_g", (-1.0, -1.0), True, "E:1", "B_1:1 B_2:1")],
    "T_2g": [("B_2g", (1.0,), False, None, None),
             ("E_g", (-1.0, -1.0), True, "E:1", "B_1:1 B_2:1")],
    "A_1u": [("A_1u", (-1.0,), True, "A_2:1", "A_2:1")],
    "A_2u": [("B_1u", (-1.0,), True, "B_2:1", "A_2:1")],
    "E_u": [("A_1u", (-1.0,), True, "A_2:1", "A_2:1"),
            ("B_1u", (-1.0,), True, "B_2:1", "A_2:1")],
    "T_1u": [("A_2u", (-1.0,), True, "A_1:1", "A_1:1"),
             ("E_u", (1.0, 1.0), False, None, None)],
    "T_2u": [("B_2u", (-1.0,), True, "B_1:1", "A_1:1"),
             ("E_u", (1.0, 1.0), False, None, None)],
}


def test_sphere_to_octahedral_table():
    got = [(str(w), str(r)) for w, r in spherical_to_octahedral_table(6)]
    assert got == SPHERE_TO_OH


def test_octahedral_chain_table():
    rows = octahedral_chain_table()
    assert [r["oh"] for r in rows] == list(OH_CHAIN)
    for row in rows:
        want = OH_CHAIN[row["oh"]]
        assert len(row["branches"]) == len(want)
        for br, (d4h, diag, odd, c4v, c2v) in zip(row["branches"], want):
            assert br["d4h"] == d4h
            got_diag = tuple(br["plane_matrix"][i][i]
                             for i in range(len(br["plane_matrix"])))
            assert got_diag == diag
            assert br["odd"] == odd
            if odd:
                assert " ".join(f"{n}:{m}" for n, m in br["c4v"]) == c4v
                assert " ".join(f"{n}:{m}" for n, m in br["c2v"]) == c2v
            else:
                assert br["c4v"] is None and br["c2v"] is None


def test_direct_subduction_multiplicity_formula():
    # cross-check one row against the character sum done by hand
    oh = builtin_group("O_h")
    wave = O3IrrepId(5, TE)
    res = subduce(wave, oh)
    assert res.multiplicity("T_1g") == 2
    assert res.multiplicity("E_g") == 1
    assert res.multiplicity("A_1g") == 0
    assert res.total_dimension(oh) == 11


def test_dimension_bookkeeping_to_t12():
    oh = builtin_group("O_h")
    for t in range(1, 13):
        for s in (TE, TM):
            res = subduce(O3IrrepId(t, s), oh)
            assert res.total_dimension(oh) == 2 * t + 1
            assert not res.fractional


def test_parity_complementarity_is_exact():
    # filters act where the tetragonal stage hands down to C_4v; the odd and
    # even halves must rebuild the unfiltered content entry for entry
    path = ("O_h", "D_4h", "C_4v")
    for t in range(1, 9):
        for s in (TE, TM):
            wave = O3IrrepId(t, s)
            full = chain_subduce(wave, path)[-1].as_dict()
            a = chain_subduce(wave, path, parity=ParityFilter("odd"))[-1].as_dict()
            b = chain_subduce(wave, path, parity=ParityFilter("even"))[-1].as_dict()
            names = set(full) | set(a) | set(b)
            for n in names:
                assert (a.get(n, Fraction(0)) + b.get(n, Fraction(0))
                        == full.get(n, Fraction(0)))


def test_spherical_parent_cannot_filter():
    with pytest.raises(MissingIrrepMatrixError):
        subduce(O3IrrepId(1, TM), builtin_group("O_h"),
                parity=ParityFilter("odd"))


def test_named_parent_subduction():
    d4h = builtin_group("D_4h")
    c4v = builtin_group("C_4v")
    res = subduce("E_u", c4v, parent_group=builtin_group("O_h"))
    assert str(res) == "A_2:1 B_2:1"
    res = subduce("E_g", c4v, parent_group=d4h)
    assert str(res) == "E:1"


def test_fractional_split_at_a_diagonal_mirror():
    # the two-fold tetragonal irrep has mixed z-mirror behavior at the
    # x-mirror plane: half its weight is odd there
    d4h = builtin_group("D_4h")
    c4v = builtin_group("C_4v")
    plane = np.diag([1.0, -1.0, 1.0])
    res = subduce("E_g", c4v, parent_group=d4h,
                  parity=ParityFilter("odd", plane=plane))
    assert res.fractional
    assert res.as_dict() == {"E": Fraction(1, 2)}


def test_chain_matches_direct_subduction_when_unfiltered():
    c4v = builtin_group("C_4v")
    for t in (1, 2, 3, 4):
        for s in (TE, TM):
            wave = O3IrrepId(t, s)
            chained = chain_subduce(wave, STANDARD_CHAIN[:3])
            direct = subduce(wave, c4v)
            assert chained[-1].as_dict() == direct.as_dict()


def test_chain_with_odd_filter_t1():
    res = chain_subduce(O3IrrepId(1, TM), ("O_h", "D_4h", "C_4v"),
                        parity=ParityFilter("odd"))
    assert [r.child_group for r in res] == ["O_h", "D_4h", "C_4v"]
    assert str(res[0]) == "T_1u:1"
    assert str(res[1]) == "A_2u:1 E_u:1"
    assert str(res[2]) == "A_1:1"
    res = chain_subduce(O3IrrepId(1, TE), ("O_h", "D_4h", "C_4v"),
                        parity=ParityFilter("even"))
    assert str(res[-1]) == "A_2:1"


def test_chain_filter_to_c2v():
    res = chain_subduce(O3IrrepId(2, TE), STANDARD_CHAIN,
                        parity=ParityFilter("odd"))
    assert res[-1].child_group == "C_2v"
    total = sum(res[-1].as_dict().values(), Fraction(0))
    assert total > 0


def test_filtered_stage_content():
    d4h = builtin_group("D_4h")
    entries = (("A_2u", Fraction(1)), ("E_u", Fraction(1)))
    odd = filtered_stage_content(d4h, entries, ParityFilter("odd"))
    assert odd == (("A_2u", Fraction(1)),)
    even = filtered_stage_content(d4h, entries, ParityFilter("even"))
    assert even == (("E_u", Fraction(1)),)
    # a diagonal mirror sees only half of the two-fold irrep
    half = filtered_stage_content(
        d4h, (("E_g", Fraction(1)),),
        ParityFilter("odd", plane=np.diag([1.0, -1.0, 1.0])))
    assert half == (("E_g", Fraction(1, 2)),)


def test_not_a_subgroup_error():
    with pytest.raises(NotASubgroupError):
        subduce("A_1", builtin_group("D_4h"),
                parent_group=builtin_group("C_4v"))


def test_filter_needs_matrices():
    # a group whose irrep matrices were dropped cannot slice slots
    from modesub.pointgroup import perturbed_character_table
    d4h = builtin_group("D_4h")
    stripped = perturbed_character_table(d4h, "E_u", 0, 0)  # drops matrices
    with pytest.raises(MissingIrrepMatrixError):
        filtered_stage_content(stripped, (("E_u", Fraction(1)),),
                               ParityFilter("odd"))
    # and a plane outside the group is rejected up front
    with pytest.raises(MissingIrrepMatrixError):
        filtered_stage_content(builtin_group("C_4v"),
                               (("A_1", Fraction(1)),), ParityFilter("odd"))


def test_filter_complement():
    f = ParityFilter("odd")
    assert f.sign == -1
    assert f.complement().keep == "even"
    assert f.complement().sign == 1
    with pytest.raises(ValueError):
        ParityFilter("sideways")


def _linear_find(group, matrix):
    for i, op in enumerate(group.elements):
        if np.abs(op.matrix - matrix).max() <= MATCH_TOL:
            return i
    return None


def _reference_subduce(name, parent, child, parity):
    """Named-irrep subduction written as explicit per-element loops.

    Returns (entries, parent dimension), or None when the filter plane is
    not an element of the parent group.
    """
    irrep = parent.irrep(name)
    idx = [_linear_find(parent, op.matrix) for op in child.elements]
    if parity is None:
        chi = [parent.character(irrep, i) for i in idx]
        dim = irrep.dimension
    else:
        plane = _linear_find(parent, parity.plane)
        if plane is None:
            return None
        gamma = irrep.matrices[plane]
        slots = [mu for mu in range(irrep.dimension)
                 if abs(gamma[mu, mu] - parity.sign) <= SLOT_SIGN_TOL]
        chi = [sum(float(irrep.matrices[i][mu, mu]) for mu in slots) for i in idx]
        dim = len(slots)
    entries = []
    for p in child.irreps:
        total = sum(chi[k] * child.character(p, k) for k in range(child.order))
        mult = Fraction(round(total), child.order)
        if mult:
            entries.append((p.name, mult))
    return tuple(entries), Fraction(dim)


def test_named_subduction_matches_per_element_reference():
    groups = [builtin_group(n) for n in builtin_group_names()]
    pairs = [(a, b) for a in groups for b in groups
             if all(_linear_find(a, op.matrix) is not None for op in b.elements)]
    assert len(pairs) == 12
    for parent, child in pairs:
        for p in parent.irreps:
            for parity in (None, ParityFilter("odd"), ParityFilter("even")):
                want = _reference_subduce(p.name, parent, child, parity)
                if want is None:
                    with pytest.raises(MissingIrrepMatrixError):
                        subduce(p.name, child, parent_group=parent, parity=parity)
                    continue
                res = subduce(p.name, child, parent_group=parent, parity=parity)
                assert (res.entries, res.parent_dimension) == want


def test_filter_rejects_a_plane_mixing_basis_slots():
    # the x<->y mirror maps T_1u's x and y slots into each other, so its
    # diagonal there is (0, 0, 1) and no slot filter exists in this basis
    oh = builtin_group("O_h")
    swap_xy = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(np.diagonal(oh.irrep("T_1u").matrices[
        oh.find_element(swap_xy)]), [0.0, 0.0, 1.0])
    for keep in ("odd", "even"):
        with pytest.raises(MissingIrrepMatrixError, match="not \\+-1"):
            filtered_stage_content(oh, (("T_1u", Fraction(1)),),
                                   ParityFilter(keep, plane=swap_xy))
