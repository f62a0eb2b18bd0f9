import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modesub import fileio, symaction
from modesub.cmsolver import ImpedancePair, classify_modes, solve_cm
from modesub.pointgroup import builtin_group
from modesub.symaction import (
    BasisNotIsotypicError,
    GroupAction,
    PointSetNotSymmetricError,
    _pairs_within,
    _permutation,
    action_from_operators,
    action_from_points,
    irrep_matrix_entries,
    orbit_points,
    parity_check,
    plane_operator,
    project,
    projector,
)

from group_helpers import dense_operators

GROUPS = ("O_h", "O", "D_4h", "C_4v", "C_2v")

SEEDS = {"O_h": (1.0, 0.6, 0.3), "O": (1.0, 0.6, 0.3),
         "D_4h": (1.0, 0.4, 0.7), "C_4v": (1.0, 0.4, 0.2),
         "C_2v": (0.8, 0.5, 0.3)}


def make_action(name, dof=3):
    g = builtin_group(name)
    pts = orbit_points(g, np.array(SEEDS[name]))
    return g, action_from_points(g, pts, dof=dof)


def test_orbit_sizes():
    for name in GROUPS:
        g = builtin_group(name)
        pts = orbit_points(g, np.array(SEEDS[name]))
        # generic seed: orbit size equals group order
        assert len(pts) == g.order


def test_operators_are_orthogonal_homomorphisms():
    rng = np.random.default_rng(0)
    for name in GROUPS:
        g, act = make_action(name)
        n = act.dimension
        ops = dense_operators(act)
        for i in range(g.order):
            D = ops[i]
            assert np.abs(D.T @ D - np.eye(n)).max() < 1e-10
        for _ in range(20):
            i, j = rng.integers(0, g.order, 2)
            k = g.find_element(g.elements[i].matrix @ g.elements[j].matrix)
            lhs = ops[i] @ ops[j]
            assert np.abs(lhs - ops[k]).max() < 1e-10


def test_asymmetric_points_rejected_with_offenders():
    g = builtin_group("C_4v")
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # orbit incomplete
    with pytest.raises(PointSetNotSymmetricError) as err:
        action_from_points(g, pts)
    assert err.value.misses
    assert "no partner" in str(err.value)


def test_projector_algebra():
    rng = np.random.default_rng(1)
    for name in GROUPS:
        g, act = make_action(name)
        projs = {p.name: projector(act, p.name) for p in g.irreps}
        n = act.dimension
        total = sum(projs.values())
        assert np.abs(total - np.eye(n)).max() < 1e-8
        for a in g.irreps:
            Pa = projs[a.name]
            assert np.abs(Pa @ Pa - Pa).max() < 1e-8
            for b in g.irreps:
                if a.name != b.name:
                    assert np.abs(Pa @ projs[b.name]).max() < 1e-8
        # random vectors split losslessly
        for _ in range(10):
            v = rng.normal(size=n)
            parts = [projs[p.name] @ v for p in g.irreps]
            assert np.abs(sum(parts) - v).max() < 1e-8


def test_scalar_dof_action():
    g, act = make_action("C_4v", dof=1)
    assert act.dimension == g.order
    # scalar action: every operator is a permutation matrix
    for D in dense_operators(act):
        assert set(np.unique(D)) <= {0.0, 1.0}
        assert (D.sum(axis=0) == 1).all() and (D.sum(axis=1) == 1).all()


def test_corner_pattern_classifies_b2():
    # alternating signs on the four diagonal corners of a square plate
    g = builtin_group("C_4v")
    pts = orbit_points(g, np.array([1.0, 1.0, 0.0]))
    act = action_from_points(g, pts, dof=1)
    v = np.array([np.sign(p[0] * p[1]) for p in pts], dtype=float)
    rep = project(v, act)
    assert rep.classified == "B_2"
    assert rep.weights["B_2"] == pytest.approx(1.0, abs=1e-12)


def test_z_field_parity():
    g = builtin_group("C_4v")
    pts = orbit_points(g, np.array([1.0, 0.4, 0.0]))
    act = action_from_points(g, pts, dof=3)
    n = act.dimension
    vz = np.zeros(n)
    vz[2::3] = 1.0               # pure z components
    assert parity_check(vz, act) == pytest.approx(-1.0)
    vt = np.zeros(n)
    vt[0::3] = 1.0               # tangential (x) components
    assert parity_check(vt, act) == pytest.approx(1.0)
    rep = project(vz, act)
    assert rep.dominant == "A_1"


def test_plane_operator_induced_when_outside_group():
    # the z-mirror is not a C_4v element; with points available it is
    # induced from geometry and squares to the identity
    g = builtin_group("C_4v")
    pts = orbit_points(g, np.array([1.0, 0.4, 0.0]))
    act = action_from_points(g, pts, dof=3)
    S = plane_operator(act)
    n = act.dimension
    assert np.abs(S @ S - np.eye(n)).max() < 1e-10
    # without points there is nothing to induce from
    bare = dataclasses.replace(act, points=None)
    with pytest.raises(ValueError):
        plane_operator(bare)


def test_plane_operator_member_plane():
    g = builtin_group("D_4h")
    pts = orbit_points(g, np.array([1.0, 0.4, 0.7]))
    act = action_from_points(g, pts, dof=3)
    S = plane_operator(act)          # z-mirror is a group member here
    idx = g.find_element(np.diag([1.0, 1.0, -1.0]))
    assert idx is not None
    assert np.abs(S - dense_operators(act)[idx]).max() < 1e-12


def test_irrep_matrix_entries_consistency():
    g, act = make_action("C_4v")
    # transfer operators carve one carrier pair out of the isotypic space:
    # b_mu = (d/g) sum_T rho(T)_mu1 D(T) u transforms columnwise with rho
    rng = np.random.default_rng(4)
    rho = g.irrep("E").matrices
    u = rng.normal(size=act.dimension)
    ops = dense_operators(act)
    cols = []
    for mu in range(2):
        P = sum(rho[i][mu, 0] * ops[i] for i in range(g.order))
        cols.append((2.0 / g.order) * (P @ u))
    basis = np.stack(cols, axis=1)
    basis /= np.linalg.norm(basis[:, 0])
    assert np.abs(basis.T @ basis - np.eye(2)).max() < 1e-10
    for idx in range(g.order):
        D = irrep_matrix_entries(basis, act, idx)
        assert np.abs(D - rho[idx]).max() < 1e-8
        chi = g.character(g.irrep("E"), idx)
        assert np.trace(D) == pytest.approx(chi, abs=1e-6)


def test_irrep_matrix_entries_rejects_mixed_basis():
    g, act = make_action("C_4v")
    rng = np.random.default_rng(9)
    mixed = np.linalg.qr(rng.normal(size=(act.dimension, 2)))[0]
    with pytest.raises(BasisNotIsotypicError):
        irrep_matrix_entries(mixed, act, 1)


def test_project_rejects_zero_vector():
    _, act = make_action("C_2v")
    with pytest.raises(ValueError):
        project(np.zeros(act.dimension), act)


# The seed's dense construction: an O(n^2) loop search and one N x N matrix
# per element.  Kept as the oracle for the signed block permutation form.

def seed_permutation(points, matrix, tol):
    target = points @ matrix.T
    perm = []
    for i in range(len(points)):
        hit = None
        for j in range(len(points)):
            if np.abs(target[j] - points[i]).max() <= tol:
                hit = j
                break
        perm.append(hit)
    return perm


def seed_operator_for(points, matrix, dof, tol):
    perm = seed_permutation(points, matrix, tol)
    misses = [i for i, j in enumerate(perm) if j is None]
    if misses:
        return None, misses
    n = len(points)
    op = np.zeros((dof * n, dof * n))
    for i, j in enumerate(perm):
        if dof == 1:
            op[i, j] = 1.0
        else:
            op[dof * i:dof * i + dof, dof * j:dof * j + dof] = matrix
    return op, []


coordinate = st.floats(0.05, 1.5, allow_nan=False)

# orbit seeds off every symmetry element, on a mirror plane (z = 0 or
# x = y) and on an axis; the last three give short orbits
SEED_LAYOUTS = {
    "generic": lambda x, y, z: (x, y, z),
    "plane": lambda x, y, z: (x, y, 0.0),
    "diagonal plane": lambda x, y, z: (x, x, z),
    "axis": lambda x, y, z: (0.0, 0.0, z),
}


def draw_points(data, g, layout="generic"):
    seeds = data.draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                               min_size=1, max_size=2))
    pts = np.vstack([orbit_points(g, np.array(SEED_LAYOUTS[layout](*s)))
                     for s in seeds])
    gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    assume(gaps[np.triu_indices(len(pts), 1)].min(initial=1.0) > 1e-3)
    return pts


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(GROUPS), dof=st.sampled_from([1, 3]),
       data=st.data())
def test_block_action_matches_dense_oracle(name, dof, data):
    g = builtin_group(name)
    pts = draw_points(data, g)
    act = action_from_points(g, pts, dof=dof)
    v = np.random.default_rng(0).normal(size=(act.dimension, 2))
    ops = dense_operators(act)
    for t, op in enumerate(g.elements):
        dense, misses = seed_operator_for(pts, op.matrix, dof, 1e-8)
        assert misses == []
        assert np.array_equal(ops[t], dense)
        assert np.allclose(act.apply(t, v), dense @ v, rtol=0, atol=1e-12)


def cube_surface(m):
    """Grid points on the surface of [-1, 1]^3, m to an edge; many share a
    coordinate, and for m = 2^k + 1 every coordinate is dyadic."""
    c = np.linspace(-1.0, 1.0, m)
    grid = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3)
    return grid[(np.abs(grid) == 1.0).any(axis=1)]


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(GROUPS),
       layout=st.sampled_from(sorted(SEED_LAYOUTS) + ["cube surface"]),
       jitter=st.sampled_from(["none", "uniform", "+-0.3 tol"]),
       data=st.data())
def test_permutation_search_matches_loop(name, layout, jitter, data):
    g = builtin_group(name)
    if layout == "cube surface":
        pts = cube_surface(data.draw(st.integers(2, 7)))
    else:
        pts = draw_points(data, g, layout)
    tol = 1e-8
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if jitter == "uniform":
        pts = pts + rng.uniform(-0.3 * tol, 0.3 * tol, size=pts.shape)
    elif jitter == "+-0.3 tol":
        pts = pts + rng.choice([-0.3 * tol, 0.3 * tol], size=pts.shape)
    moved = data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))
    pts[moved] += 5 * tol                 # these lose their partners
    matrix = g.elements[data.draw(st.integers(0, g.order - 1))].matrix
    expected = [-1 if j is None else j
                for j in seed_permutation(pts, matrix, tol)]
    assert _permutation(pts, matrix, tol).tolist() == expected


# every sign pattern of a move by exactly tol along one, two or three axes
EXACT_MOVES = [np.array(s, dtype=float)
               for s in np.ndindex(3, 3, 3) if s != (1, 1, 1)]


def test_pair_search_keeps_pairs_exactly_at_the_tolerance():
    # dyadic points and tol, so every move and difference is exact: the
    # moved partners lie at max-norm distance tol, on the sort key's window
    # edge when the move is along all three axes
    tol = 2.0 ** -27
    pts = cube_surface(9)
    for step in EXACT_MOVES:
        moved = pts + (step - 1.0) * tol
        i, j = _pairs_within(pts, moved, tol)
        assert (np.diff(i) >= 0).all()
        brute = np.argwhere(np.abs(pts[:, None] - moved[None]).max(axis=2)
                            <= tol)
        got = np.stack([i, j], axis=1)
        assert np.array_equal(got[np.lexsort((j, i))], brute)
        assert len(brute) >= len(pts)
    g = builtin_group("O_h")
    pts = cube_surface(5)
    rng = np.random.default_rng(3)
    for _ in range(4):
        shifted = pts + (EXACT_MOVES[rng.integers(len(EXACT_MOVES))]
                         - 1.0) * tol * rng.integers(0, 2, size=(len(pts), 1))
        for op in g.elements[::3]:
            expected = [-1 if j is None else j
                        for j in seed_permutation(shifted, op.matrix, tol)]
            assert _permutation(shifted, op.matrix, tol).tolist() == expected


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(GROUPS), data=st.data())
def test_coincident_point_error_names_the_first_pair(name, data):
    g = builtin_group(name)
    tol = 1e-8
    pts = draw_points(data, g)
    # near copies of drawn points, some within tol and some beyond it
    offsets = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    copies = data.draw(st.lists(
        st.tuples(st.integers(0, len(pts) - 1), offsets, offsets, offsets),
        max_size=4))
    extra = [pts[k] + tol * np.array(d) for k, *d in copies]
    pts = np.vstack([pts] + extra)
    pts = pts[data.draw(st.permutations(range(len(pts))))]
    first = next(((i, j) for i in range(len(pts))
                  for j in range(i + 1, len(pts))
                  if np.abs(pts[i] - pts[j]).max() <= tol), None)
    if first is None:
        try:
            action_from_points(g, pts)
        except PointSetNotSymmetricError:
            pass
    else:
        with pytest.raises(ValueError) as exc:
            action_from_points(g, pts)
        i, j = first
        assert str(exc.value) == f"points {i} and {j} coincide within {tol}"


def test_coincident_points_rejected():
    g = builtin_group("C_2v")
    pts = orbit_points(g, np.array(SEEDS["C_2v"]))
    with pytest.raises(ValueError, match="points 1 and 4 coincide"):
        action_from_points(g, np.vstack([pts, pts[1]]))


def test_action_stores_no_dense_matrix():
    g = builtin_group("O_h")
    seeds = [(0.9, 0.5, 0.2), (0.7, 0.4, 0.15), (1.1, 0.3, 0.25),
             (0.6, 0.45, 0.35)]
    pts = np.vstack([orbit_points(g, np.array(s)) for s in seeds])
    act = action_from_points(g, pts, dof=3)
    assert act.dimension == 576
    stored = [a for a in vars(act).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in stored) < 1 << 20


def test_operators_decode_signed_block_permutations():
    g, act = make_action("C_4v", dof=1)
    # an RWG-style basis flips the sign of some unknowns
    flip = np.where(np.arange(act.dimension) % 3 == 0, -1.0, 1.0)
    ops = [flip[:, None] * d * flip[None, :] for d in dense_operators(act)]
    back = action_from_operators(g, ops)
    for t, d in enumerate(dense_operators(back)):
        assert np.array_equal(d, ops[t])
    total = sum(projector(back, p.name) for p in g.irreps)
    assert np.abs(total - np.eye(act.dimension)).max() < 1e-12
    # a dof = 3 action decodes at either block size
    _, act3 = make_action("C_4v")
    ops3 = dense_operators(act3)
    for dof in (1, 3):
        back = action_from_operators(g, ops3, dof)
        assert all(np.array_equal(d, ops3[t])
                   for t, d in enumerate(dense_operators(back)))


def test_operators_that_are_not_block_monomial_rejected():
    g, act = make_action("C_4v", dof=1)
    ops = dense_operators(act)
    mixed = [m.copy() for m in ops]
    mixed[3][0, :] = mixed[3][0, :] + mixed[3][1, :]    # two nonzeros in a row
    with pytest.raises(ValueError, match="operator 3 is not"):
        action_from_operators(g, mixed)
    merged = [m.copy() for m in ops]
    merged[5][1] = merged[5][0]                         # a column used twice
    with pytest.raises(ValueError, match="operator 5 is not"):
        action_from_operators(g, merged)
    noisy = [m.copy() for m in ops]
    noisy[2][0, 1] += 1e-9
    with pytest.raises(ValueError, match="operator 2 is not"):
        action_from_operators(g, noisy)
    with pytest.raises(ValueError, match="not a multiple of dof 3"):
        action_from_operators(g, [m[:7, :7] for m in ops], 3)


@pytest.mark.parametrize("dof", [1, 3])
def test_operators_that_are_no_representation_rejected(dof):
    g, act = make_action("C_4v", dof=dof)
    ops = dense_operators(act)
    assert np.array_equal(action_from_operators(g, ops, dof).perms, act.perms)
    swapped = list(ops)
    swapped[1], swapped[4] = ops[4], ops[1]
    with pytest.raises(ValueError, match="operators do not represent C_4v: "
                                         "D\\(1\\) D\\(1\\) is not D\\(3\\)"):
        action_from_operators(g, swapped, dof)
    with pytest.raises(ValueError, match="operators do not represent C_4v: "
                                         "D\\(0\\) D\\(0\\) is not D\\(0\\)"):
        action_from_operators(g, [-d for d in ops], dof)
    # one point's block negated in one element: still orthogonal, but no
    # longer a homomorphism
    flipped = [d.copy() for d in ops]
    flipped[2][:dof] *= -1.0
    with pytest.raises(ValueError, match="operators do not represent C_4v"):
        action_from_operators(g, flipped, dof)
    scaled = [d.copy() for d in ops]
    scaled[5][:dof] *= 2.0
    with pytest.raises(ValueError, match="operator 5 is not a signed block "
                                         "permutation with orthogonal"):
        action_from_operators(g, scaled, dof)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(GROUPS), dof=st.sampled_from([1, 3]),
       on_axis=st.booleans(), data=st.data())
def test_adapted_basis_spans_the_projectors(name, dof, on_axis, data):
    g = builtin_group(name)
    # a point on the principal axis leaves some irreps without columns
    pts = (orbit_points(g, np.array([0.0, 0.0, 1.0])) if on_axis
           else draw_points(data, g))
    act = action_from_points(g, pts, dof=dof)
    q, offsets = act.adapted_basis.q, act.adapted_basis.offsets
    n = act.dimension
    assert q.shape == (n, n)
    assert offsets[0] == 0 and offsets[-1] == n
    assert len(offsets) == len(g.irreps) + 1
    assert np.abs(q.T @ q - np.eye(n)).max() < 1e-12
    for p, a, b in zip(g.irreps, offsets[:-1], offsets[1:]):
        qp = q[:, a:b]
        assert np.abs(qp @ qp.T - projector(act, p.name)).max() < 1e-12
    v = np.random.default_rng(1).normal(size=(n, 3))
    want = [np.linalg.norm(projector(act, p.name) @ v, axis=0) ** 2
            for p in g.irreps]
    assert np.allclose(act.adapted_basis.projected_norms2(v), want,
                       rtol=0, atol=1e-12)
    if on_axis:
        assert (np.diff(offsets) == 0).any()


def test_adapted_basis_built_once_per_action(monkeypatch, tmp_path):
    calls = []
    build = symaction._adapted_basis
    monkeypatch.setattr(symaction, "_adapted_basis",
                        lambda act: calls.append(act) or build(act))
    g, act = make_action("C_4v")
    fileio.save_action_json(tmp_path / "a.json", act)
    loaded = fileio.load_action_json(tmp_path / "a.json")
    # nothing is built at set-up
    assert "adapted_basis" not in vars(act)
    assert "adapted_basis" not in vars(loaded)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(act.dimension, act.dimension))
    x = sum(act.apply(t, act.apply(t, a + a.T).T).T for t in range(g.order))
    modes = solve_cm(ImpedancePair((x + x.T) / 2, np.eye(act.dimension)))
    first = classify_modes(modes, act)
    second = classify_modes(modes, act)
    assert first == second
    assert calls == [act]
    assert act.adapted_basis is act.adapted_basis
    _, other = make_action("C_4v")
    classify_modes(modes, other)
    assert calls == [act, other]


def test_adapted_basis_rejects_an_action_that_is_no_representation():
    g, act = make_action("C_4v", dof=1)
    # elements 1 and 4 lie in different classes; action_from_operators
    # would reject the swap, so the action is built directly
    sw = [0, 4, 2, 3, 1, *range(5, g.order)]
    bad = GroupAction(g, act.perms[sw], act.blocks[sw])
    with pytest.raises(RuntimeError, match="do not split this action"):
        bad.adapted_basis
    flipped = GroupAction(g, act.perms, -act.blocks)
    with pytest.raises(RuntimeError, match="expected integers 1..5"):
        flipped.adapted_basis
