import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesub.pointgroup import (
    MATCH_TOL,
    TE,
    TM,
    O3IrrepId,
    _element_codes,
    builtin_group,
    format_character_table,
    group_to_json,
    normalize_group_name,
    o3_character,
    operation_from_matrix,
    rotation_character,
    verify_group,
)

from group_helpers import element_key, oracle_group, perturbed_character_table

GROUP_ORDERS = {"O_h": 48, "O": 24, "D_4h": 16, "C_4v": 8, "C_2v": 4}

# class label -> size, per group (encoded order)
CLASS_SIZES = {
    "O_h": {"E": 1, "8C3": 8, "6C2'": 6, "6C4": 6, "3C2": 3, "i": 1,
            "6S4": 6, "8S6": 8, "3s_h": 3, "6s_d": 6},
    "O": {"E": 1, "8C3": 8, "6C2'": 6, "6C4": 6, "3C2": 3},
    "D_4h": {"E": 1, "2C4": 2, "C2": 1, "2C2'": 2, "2C2''": 2, "i": 1,
             "2S4": 2, "s_h": 1, "2s_v": 2, "2s_d": 2},
    "C_4v": {"E": 1, "2C4": 2, "C2": 1, "2s_v": 2, "2s_d": 2},
    "C_2v": {"E": 1, "C2": 1, "s_xz": 1, "s_yz": 1},
}


def test_orders_and_closure():
    for name, order in GROUP_ORDERS.items():
        g = builtin_group(name)
        assert g.order == order
        assert len(g.elements) == order
        mats = [e.matrix for e in g.elements]
        for a in mats[:6]:
            for b in mats[:6]:
                prod = a @ b
                assert any(np.abs(prod - m).max() < MATCH_TOL for m in mats)


def test_class_structure():
    for name, sizes in CLASS_SIZES.items():
        g = builtin_group(name)
        got = {c.label: c.size for c in g.classes}
        assert got == sizes
        assert sum(got.values()) == g.order


def test_identity_column_is_dimension():
    for name in GROUP_ORDERS:
        g = builtin_group(name)
        e_col = [c.label for c in g.classes].index("E")
        for p in g.irreps:
            assert p.characters[e_col] == p.dimension
        assert sum(p.dimension ** 2 for p in g.irreps) == g.order


def test_known_character_rows():
    oh = builtin_group("O_h")
    cols = [c.label for c in oh.classes]
    t1u = oh.irrep("T_1u")
    expect = {"E": 3, "8C3": 0, "6C2'": -1, "6C4": 1, "3C2": -1,
              "i": -3, "6S4": -1, "8S6": 0, "3s_h": 1, "6s_d": 1}
    assert {c: t1u.characters[i] for i, c in enumerate(cols)} == expect
    d4h = builtin_group("D_4h")
    cols = [c.label for c in d4h.classes]
    eu = d4h.irrep("E_u")
    expect = {"E": 2, "2C4": 0, "C2": -2, "2C2'": 0, "2C2''": 0,
              "i": -2, "2S4": 0, "s_h": 2, "2s_v": 0, "2s_d": 0}
    assert {c: eu.characters[i] for i, c in enumerate(cols)} == expect


def test_verify_group_accepts_builtins():
    for name in GROUP_ORDERS:
        report = verify_group(builtin_group(name))
        assert report.ok, report.violations


def test_verify_group_rejects_perturbed_table():
    g = builtin_group("C_4v")
    col = [c.label for c in g.classes].index("2s_v")
    bad = perturbed_character_table(g, "B_1", col, -3)
    report = verify_group(bad)
    assert not report.ok
    assert any("orthogonality" in v for v in report.violations)


def test_operation_from_matrix_round_trip():
    rng = np.random.default_rng(42)
    for g in map(builtin_group, GROUP_ORDERS):
        for e in g.elements:
            op = operation_from_matrix(e.matrix)
            assert op.kind in ("proper", "improper")
            det = np.linalg.det(e.matrix)
            assert op.kind == ("proper" if det > 0 else "improper")
            assert 0.0 <= op.angle <= np.pi + 1e-12
            # axis is a unit vector of the proper part's rotation axis
            p = e.matrix * (1.0 if det > 0 else -1.0)
            if op.angle > 1e-9:
                assert np.abs(p @ op.axis - op.axis).max() < 1e-8
    _ = rng  # seeds kept equal across runs


def test_rotation_character_closed_form_vs_cosine_sum():
    for t in range(7):
        for theta in np.linspace(1e-4, np.pi, 17):
            direct = sum(np.cos(m * theta) for m in range(-t, t + 1))
            assert rotation_character(t, theta) == pytest.approx(direct, abs=1e-9)
    # removable singularities
    for t in range(7):
        assert rotation_character(t, 0.0) == pytest.approx(2 * t + 1)
        assert rotation_character(t, 2 * np.pi) == pytest.approx(2 * t + 1)


def test_o3_character_parity_factor():
    oh = builtin_group("O_h")
    inv = next(e for e in oh.elements
               if np.abs(e.matrix + np.eye(3)).max() < 1e-12)
    for t in range(1, 5):
        chi_te = o3_character(O3IrrepId(t, TE), inv)
        chi_tm = o3_character(O3IrrepId(t, TM), inv)
        assert chi_te == pytest.approx((-1) ** (t + 1) * (2 * t + 1))
        assert chi_tm == pytest.approx((-1) ** t * (2 * t + 1))


def test_irrep_matrices_trace_to_characters():
    for name in GROUP_ORDERS:
        g = builtin_group(name)
        for p in g.irreps:
            for idx, e in enumerate(g.elements):
                chi = p.characters[g.class_of_element[idx]]
                assert np.trace(p.matrices[idx]) == pytest.approx(chi, abs=1e-9)


def test_irrep_matrices_are_homomorphisms():
    rng = np.random.default_rng(5)
    for name in ("O_h", "C_4v"):
        g = builtin_group(name)
        find = {e.matrix.tobytes(): i for i, e in enumerate(g.elements)}

        def index_of(m):
            for i, e in enumerate(g.elements):
                if np.abs(e.matrix - m).max() < MATCH_TOL:
                    return i
            raise AssertionError("product left the group")

        for _ in range(40):
            i, j = rng.integers(0, g.order, 2)
            k = index_of(g.elements[i].matrix @ g.elements[j].matrix)
            for p in g.irreps:
                lhs = p.matrices[i] @ p.matrices[j]
                assert np.abs(lhs - p.matrices[k]).max() < 1e-8
        _ = find


def test_subgroup_containment():
    oh = builtin_group("O_h")
    for name in ("O", "D_4h", "C_4v", "C_2v"):
        assert oh.contains_group(builtin_group(name))
    assert builtin_group("D_4h").contains_group(builtin_group("C_4v"))
    assert not builtin_group("C_4v").contains_group(builtin_group("D_4h"))


def test_name_normalization():
    assert normalize_group_name("Oh") == "O_h"
    assert normalize_group_name("D4h") == "D_4h"
    assert normalize_group_name("c4v") == "C_4v"
    assert normalize_group_name("C_2v") == "C_2v"
    for name in ("OH", "O_H", "O", " d_4H ", "C4V", "c_2_v"):
        assert normalize_group_name(name) in GROUP_ORDERS
    with pytest.raises(ValueError, match="built-ins are C_2v, C_4v, D_4h, O, O_h"):
        normalize_group_name("D_6h")


def test_json_export_and_table_format():
    g = builtin_group("C_2v")
    doc = group_to_json(g)
    assert doc["name"] == "C_2v" and doc["order"] == 4
    assert len(doc["classes"]) == 4
    assert len(doc["character_table"]) == 4
    text = format_character_table(g)
    lines = text.splitlines()
    assert lines[0].startswith("C_2v")
    assert any(line.split()[0] == "B_2" for line in lines[1:])


def _linear_find(group, matrix):
    """Linear tolerance scan over the elements: the oracle for find_element."""
    m = np.asarray(matrix, dtype=float)
    for i, op in enumerate(group.elements):
        if np.abs(op.matrix - m).max() <= MATCH_TOL:
            return i
    return None


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(GROUP_ORDERS)), data=st.data())
def test_find_element_matches_linear_scan(name, data):
    g = builtin_group(name)
    i = data.draw(st.integers(0, g.order - 1))
    kind = data.draw(st.sampled_from(["near", "off", "nan", "inf", "scaled"]))
    m = g.elements[i].matrix.copy()
    noise = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=9,
                                        max_size=9))).reshape(3, 3)
    entry = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    sign = data.draw(st.sampled_from([-1.0, 1.0]))
    if kind == "near":
        m += 1e-10 * noise
    elif kind == "off":
        m[entry] += sign * 1e-6
    elif kind == "nan":
        m[entry] = np.nan
    elif kind == "inf":
        m[entry] = sign * np.inf
    else:
        m *= 255.0
    want = i if kind == "near" else None
    assert _linear_find(g, m) == want
    assert g.find_element(m) == want


def test_find_element_rejects_other_shapes():
    g = builtin_group("C_2v")
    assert g.find_element(np.eye(3)) == 0
    assert g.find_element(np.eye(2)) is None
    assert g.find_element(np.ones(9)) is None


def test_point_group_needs_integer_elements():
    g = builtin_group("C_2v")
    c, s = np.cos(0.3), np.sin(0.3)
    tilted = operation_from_matrix([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="not an integer matrix"):
        replace(g, elements=g.elements[:-1] + (tilted,))


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_build_matches_element_at_a_time_oracle(name):
    g, want = builtin_group(name), oracle_group(name)
    got = [op.matrix for op in g.elements]
    assert len(got) == len(want["matrices"])
    assert all(np.array_equal(a, b) for a, b in zip(got, want["matrices"]))
    assert [c.member_indices for c in g.classes] == want["classes"]
    assert list(g.class_of_element) == want["class_of_element"]
    assert [p.name for p in g.irreps] == list(want["irreps"])
    for p in g.irreps:
        assert p.matrices.shape == (g.order, p.dimension, p.dimension)
        for mine, theirs in zip(p.matrices, want["irreps"][p.name]):
            assert np.array_equal(mine, theirs)
            # same bits, signed zeros included
            assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_product_table_matches_find_element(name):
    g = builtin_group(name)
    table = g.product_table
    assert table.shape == (g.order, g.order)
    assert not table.flags.writeable
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            assert table[i, j] == g.find_element(a.matrix @ b.matrix)


def test_groups_are_cached_by_canonical_name():
    assert builtin_group("Oh") is builtin_group("O_h")
    assert builtin_group(" d4h ") is builtin_group("D_4h")


def test_verify_group_checks_every_irrep_product():
    # transposing one matrix keeps every trace, so only the product check
    # can see it
    for name in ("O_h", "O", "D_4h", "C_4v"):
        g = builtin_group(name)
        p, t = next((p, t) for p in g.irreps for t in range(g.order)
                    if np.abs(p.matrices[t] - p.matrices[t].T).max() > 0.5)
        mats = p.matrices.copy()
        mats[t] = mats[t].T
        bad = replace(g, irreps=tuple(replace(q, matrices=mats) if q is p
                                      else q for q in g.irreps))
        assert verify_group(bad).violations == (
            f"{p.name}: matrices do not respect the product table",)


def _matrix_cases():
    entry = st.integers(-2, 2)
    return st.tuples(
        st.lists(entry, min_size=9, max_size=9),
        st.sampled_from(["exact", "near", "off", "nan", "inf", "-inf",
                         "scaled"]),
        st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        st.integers(0, 8))


def _perturbed(case):
    ints, kind, noise, entry = case
    m = np.array(ints, dtype=float)
    if kind == "near":
        m += 0.9 * MATCH_TOL * np.array(noise)
    elif kind == "off":
        m[entry] += 1e3 * MATCH_TOL * (1.0 + abs(noise[entry]))
    elif kind in ("nan", "inf", "-inf"):
        m[entry] = float(kind)
    elif kind == "scaled":
        m *= 1.0 + noise[entry]
    return m.reshape(3, 3)


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(_matrix_cases(), min_size=1, max_size=6))
def test_element_codes_match_the_element_key(cases):
    mats = np.array([_perturbed(c) for c in cases])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = _element_codes(mats)
        assert np.array_equal(_element_codes(mats[:, None]), codes[:, None])
    keys = [element_key(m) for m in mats]
    for code, key in zip(codes, keys):
        # codes cover the entries of signed permutations: -1, 0 and 1
        assert (code >= 0) == (key is not None and max(map(abs, key)) <= 1)
        assert code < 3 ** 9
    for c1, k1 in zip(codes, keys):
        for c2, k2 in zip(codes, keys):
            if c1 >= 0 and c2 >= 0:
                assert (c1 == c2) == (k1 == k2)
