import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from modesub.cmsolver import (
    ImpedancePair,
    ModeSet,
    RIndefiniteError,
    _cluster_slices,
    classify_modes,
    solve_cm,
)
from modesub.pointgroup import builtin_group
from modesub.symaction import (
    CLASSIFY_THRESHOLD,
    action_from_operators,
    action_from_points,
    orbit_points,
    project_columns,
    projector,
)

from group_helpers import dense_operators


def random_pair(rng, n, frequency=0.0):
    a = rng.normal(size=(n, n))
    x = a + a.T
    b = rng.normal(size=(n, n))
    r = b @ b.T + n * np.eye(n)
    return ImpedancePair(x, r, frequency=frequency)


def test_analytic_two_by_two():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = np.eye(2) * 2.0
    modes = solve_cm(ImpedancePair(x, r))
    assert sorted(modes.eigenvalues) == pytest.approx([-0.5, 0.5])
    assert modes.rank == 2


def test_residual_and_orthonormality_random():
    rng = np.random.default_rng(12)
    worst_res = worst_orth = 0.0
    for _ in range(50):
        pair = random_pair(rng, 20)
        modes = solve_cm(pair)
        worst_res = max(worst_res, modes.residual_norms(pair).max())
        worst_orth = max(worst_orth, modes.r_orthonormality_error(pair))
    assert worst_res < 1e-7
    assert worst_orth < 1e-7


def test_eigenvalues_match_dense_oracle():
    # independent route: eigenvalues of inv(R) X on small well-conditioned
    # instances
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        pair = random_pair(rng, n)
        modes = solve_cm(pair)
        ref = np.sort(np.real(linalg.eigvals(linalg.solve(pair.R, pair.X))))
        got = np.sort(modes.eigenvalues)
        scale = np.maximum(np.abs(ref), 1.0)
        assert (np.abs(got - ref) / scale).max() < 1e-8


def test_scipy_generalized_route_agrees():
    rng = np.random.default_rng(31)
    pair = random_pair(rng, 12)
    modes = solve_cm(pair)
    ref = np.sort(linalg.eigh(pair.X, pair.R, eigvals_only=True))
    assert np.sort(modes.eigenvalues) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_rank_deficient_r_truncates():
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    r = basis @ basis.T                     # rank 2
    a = rng.normal(size=(6, 6))
    x = a + a.T
    modes = solve_cm(ImpedancePair(x, r))
    assert modes.rank == 2
    assert modes.count == 2
    assert modes.eigencurrents.shape == (6, 2)
    pair = ImpedancePair(x, r)
    assert modes.r_orthonormality_error(pair) < 1e-8


def test_indefinite_r_rejected():
    x = np.eye(3)
    r = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(RIndefiniteError):
        solve_cm(ImpedancePair(x, r))


def test_asymmetric_inputs_rejected():
    rng = np.random.default_rng(2)
    bad = rng.normal(size=(4, 4))
    good = np.eye(4)
    with pytest.raises(ValueError):
        ImpedancePair(bad, good)
    with pytest.raises(ValueError):
        ImpedancePair(good, bad)
    with pytest.raises(ValueError):
        ImpedancePair(np.eye(3), np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_inputs_rejected(bad):
    # a symmetric NaN pair passes the symmetry test, so it needs its own check
    m = np.eye(3)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="^X has nonfinite entries$"):
        ImpedancePair(m, np.eye(3))
    with pytest.raises(ValueError, match="^R has nonfinite entries$"):
        ImpedancePair(np.eye(3), m)


def test_tiny_asymmetry_is_symmetrized():
    x = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    pair = ImpedancePair(x, np.eye(2))
    assert np.abs(pair.X - pair.X.T).max() == 0.0


def symmetric_setup():
    g = builtin_group("C_4v")
    pts = orbit_points(g, np.array([1.0, 0.4, 0.0]))
    act = action_from_points(g, pts, dof=3)
    shifts = {"A_1": -3.0, "A_2": -1.0, "B_1": 0.5, "B_2": 2.0, "E": 4.0}
    x = sum(shifts[p.name] * projector(act, p.name) for p in g.irreps)
    return g, act, x, shifts


def test_classification_of_commuting_operator():
    g, act, x, shifts = symmetric_setup()
    n = act.dimension
    pair = ImpedancePair(x, np.eye(n))
    modes = solve_cm(pair)
    cls = classify_modes(modes, act)
    assert len(cls.labels) == modes.count
    # eigenvalue determines the irrep by construction
    for lam, label in zip(modes.eigenvalues, cls.labels):
        matches = [nm for nm, sh in shifts.items()
                   if abs(lam - sh) < 1e-8]
        assert matches == [label]
    # label multiset counts the subspace dimensions
    for p in g.irreps:
        dim = int(round(np.trace(projector(act, p.name))))
        assert cls.labels.count(p.name) == dim


def test_degenerate_cluster_classified_jointly():
    g, act, x, shifts = symmetric_setup()
    n = act.dimension
    modes = solve_cm(ImpedancePair(x, np.eye(n)))
    cls = classify_modes(modes, act)
    e_cluster = [i for i, lam in enumerate(modes.eigenvalues)
                 if abs(lam - shifts["E"]) < 1e-8]
    assert len(e_cluster) % 2 == 0
    assert {cls.labels[i] for i in e_cluster} == {"E"}
    assert any(len(c) > 1 for c in cls.clusters)


def test_classification_stable_under_cluster_remix():
    # rotating eigenvectors inside a degenerate cluster must not change
    # the reported labels
    rng = np.random.default_rng(17)
    g, act, x, shifts = symmetric_setup()
    n = act.dimension
    modes = solve_cm(ImpedancePair(x, np.eye(n)))
    cls = classify_modes(modes, act)
    lam = modes.eigenvalues
    currents = modes.eigencurrents.copy()
    i = 0
    while i < len(lam):
        j = i
        while j + 1 < len(lam) and abs(lam[j + 1] - lam[i]) < 1e-8:
            j += 1
        if j > i:
            q = np.linalg.qr(rng.normal(size=(j - i + 1, j - i + 1)))[0]
            currents[:, i:j + 1] = currents[:, i:j + 1] @ q
        i = j + 1
    remixed = ModeSet(lam, currents, modes.rank, modes.frequency)
    cls2 = classify_modes(remixed, act)
    assert cls2.labels == cls.labels


def test_labels_survive_in_modeset():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    modes = solve_cm(ImpedancePair(x, np.eye(2)))
    tagged = ModeSet(modes.eigenvalues, modes.eigencurrents, modes.rank,
                     modes.frequency, labels=("A", "B"))
    assert tagged.labels == ("A", "B")
    with pytest.raises(ValueError):
        ModeSet(modes.eigenvalues, modes.eigencurrents, modes.rank,
                modes.frequency, labels=("A",))


# The seed's classify_modes, which projects each mode through projectors
# summed from the dense operators (a dict, element index -> N x N); kept as
# the oracle for the version that reads the symmetry-adapted basis.

def seed_projector(group, operators, irrep_name):
    p = group.irrep(irrep_name)
    n = operators[0].shape[0]
    out = np.zeros((n, n))
    for i in range(group.order):
        out += group.character(p, i) * operators[i]
    return (p.dimension / group.order) * out


def seed_project(v, group, projs):
    # the seed rebuilt every projector for every vector; the oracle builds
    # them once (same function, same values) to keep the tests fast
    norm = np.linalg.norm(v)
    weights = {}
    for p in group.irreps:
        comp = projs[p.name] @ v
        weights[p.name] = float(np.linalg.norm(comp) / norm)
    dominant = max(weights, key=lambda k: (weights[k], -group.irrep(k).index))
    return weights, dominant


def seed_classify_modes(modes, group, operators, cluster_tolerance=1e-6):
    projs = {p.name: seed_projector(group, operators, p.name)
             for p in group.irreps}
    labels = [None] * modes.count
    weights = [None] * modes.count
    clusters = _cluster_slices(modes.eigenvalues, cluster_tolerance)
    for start, stop in clusters:
        block = modes.eigencurrents[:, start:stop]
        q, _ = np.linalg.qr(block)
        counts = {}
        for name, p in projs.items():
            n = int(round(float(np.trace(q.T @ p @ q))))
            if n > 0:
                counts[name] = n
        per_mode = []
        for k in range(start, stop):
            weights[k], dominant = seed_project(modes.eigencurrents[:, k],
                                                group, projs)
            per_mode.append(dominant)
        expanded = []
        for p in group.irreps:
            expanded.extend([p.name] * counts.get(p.name, 0))
        if len(expanded) != stop - start:
            expanded = per_mode
        elif sorted(per_mode) == sorted(expanded):
            expanded = per_mode
        for k, name in zip(range(start, stop), expanded):
            labels[k] = name
    return tuple(labels), tuple(weights)


@pytest.mark.parametrize("name, dof, kind", [
    ("O_h", 3, "random"), ("O_h", 3, "forced"), ("O_h", 3, "forced, R = I"),
    ("C_4v", 1, "random"), ("C_4v", 1, "forced"), ("C_4v", 1, "forced, R = I"),
])
def test_classification_matches_seed_oracle(name, dof, kind):
    g = builtin_group(name)
    rng = np.random.default_rng(len(kind) + dof)
    # O_h: one 24-point orbit in a mirror plane (N = 72); C_4v: two generic
    # 8-point orbits (N = 16)
    seeds = [(1.0, 0.5, 0.0)] if name == "O_h" else [(1.0, 0.4, 0.3),
                                                     (0.7, 0.2, 0.5)]
    pts = np.vstack([orbit_points(g, np.array(s)) for s in seeds])
    act = action_from_points(g, pts, dof=dof)
    n = act.dimension
    ops = dict(enumerate(dense_operators(act)))

    def invariant(m):
        avg = sum(d @ m @ d.T for d in ops.values()) / len(ops)
        return (avg + avg.T) / 2.0

    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    x = invariant(a + a.T)
    r = invariant(b @ b.T / n) + np.eye(n)
    if kind != "random":
        # force degenerate clusters that mix irreps: the first two irreps
        # share eigenvalue 0, the rest take levels 0, 1 or 2
        levels = rng.integers(0, 3, size=len(g.irreps)).astype(float)
        levels[:2] = 0.0
        x = sum(lv * projector(act, p.name) for lv, p in zip(levels, g.irreps))
    if kind == "forced, R = I":
        r = np.eye(n)
    modes = solve_cm(ImpedancePair(x, r))
    cls = classify_modes(modes, act)
    labels, weights = seed_classify_modes(modes, g, ops)
    assert cls.labels == labels
    if kind != "random":
        assert any(len({labels[k] for k in range(a, b)}) > 1
                   for a, b in cls.clusters)
    for got, ref in zip(cls.weights, weights):
        assert list(got) == list(ref)
        assert max(abs(got[k] - ref[k]) for k in ref) < 1e-12


# orbit seeds: generic points give free orbits, points on axes and mirror
# planes give short ones, and a lone point on the principal axis leaves most
# irreps without any column at dof 1
ORBIT_SEEDS = {
    "generic": (1.0, 0.4, 0.3),
    "plane": (1.0, 0.5, 0.0),
    "diagonal": (1.0, 1.0, 1.0),
    "axis": (0.0, 0.0, 1.0),
}


def invariant(act, m):
    """Group average of D m D^T, symmetrised, without dense operators."""
    g = act.group.order
    avg = sum(act.apply(t, act.apply(t, m).T).T for t in range(g)) / g
    return (avg + avg.T) / 2.0


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["O_h", "O", "D_4h", "C_4v", "C_2v"]),
       dof=st.sampled_from([1, 3]),
       orbits=st.lists(st.sampled_from(sorted(ORBIT_SEEDS)), min_size=1,
                       max_size=2),
       kind=st.sampled_from(["random", "forced", "forced, R = I"]),
       operators_form=st.booleans(),
       seed=st.integers(0, 2**16))
def test_classification_matches_seed_oracle_on_any_action(
        name, dof, orbits, kind, operators_form, seed):
    g = builtin_group(name)
    rng = np.random.default_rng(seed)
    # scaled orbits never share a point
    pts = np.vstack([(k + 1.0) * orbit_points(g, np.array(ORBIT_SEEDS[o]))
                     for k, o in enumerate(orbits)])
    act = action_from_points(g, pts, dof=dof)
    ops = dict(enumerate(dense_operators(act)))
    if operators_form:
        act = action_from_operators(g, list(ops.values()), dof=dof)
    n = act.dimension
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    x = invariant(act, a + a.T)
    r = invariant(act, b @ b.T / n) + np.eye(n)
    if kind != "random":
        levels = rng.integers(0, 3, size=len(g.irreps)).astype(float)
        levels[:2] = 0.0
        x = sum(lv * projector(act, p.name) for lv, p in zip(levels, g.irreps))
    if kind == "forced, R = I":
        r = np.eye(n)
    modes = solve_cm(ImpedancePair(x, r))
    cls = classify_modes(modes, act)
    labels, weights = seed_classify_modes(modes, g, ops)
    for got, ref in zip(cls.weights, weights):
        assert list(got) == list(ref)
        assert max(abs(got[k] - ref[k]) for k in ref) < 1e-12
    # A mode whose two leading weights tie within rounding (R = I can give
    # exact 1/sqrt(2) splits) has its dominant irrep, and so its cluster's
    # per-mode labels, decided by the last bits in any implementation.  Such
    # a cluster must still get the seed's label multiset.
    for start, stop in cls.clusters:
        tied = any(np.diff(sorted(weights[k].values())[-2:])[0] <= 1e-12
                   for k in range(start, stop))
        if tied:
            assert sorted(cls.labels[start:stop]) == sorted(labels[start:stop])
        else:
            assert cls.labels[start:stop] == labels[start:stop]


def test_classification_with_irreps_without_columns():
    # one 6-point O_h orbit on the axes, dof 1: only A_1g, E_g and T_1u occur
    g = builtin_group("O_h")
    act = action_from_points(g, orbit_points(g, np.array([0.0, 0.0, 1.0])),
                             dof=1)
    sizes = dict(zip([p.name for p in g.irreps],
                     np.diff(act.adapted_basis.offsets)))
    assert {k for k, v in sizes.items() if v} == {"A_1g", "E_g", "T_1u"}
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    modes = solve_cm(ImpedancePair(invariant(act, a + a.T), np.eye(6)))
    cls = classify_modes(modes, act)
    assert sorted(cls.labels) == ["A_1g", "E_g", "E_g", "T_1u", "T_1u", "T_1u"]
    for w in cls.weights:
        assert sum(v > 1e-6 for v in w.values()) == 1
        assert all(w[k] == 0.0 or sizes[k] for k in w)


def seed_residual_norms(modes, pair):
    x_scale = max(np.abs(pair.X).max(), 1e-300)
    out = np.empty(modes.count)
    for k in range(modes.count):
        i_k = modes.eigencurrents[:, k]
        res = pair.X @ i_k - modes.eigenvalues[k] * (pair.R @ i_k)
        out[k] = np.linalg.norm(res) / (x_scale * np.linalg.norm(i_k))
    return out


def test_residual_norms_match_per_mode_loop():
    rng = np.random.default_rng(5)
    for n in (1, 7, 40):
        pair = random_pair(rng, n)
        solved = solve_cm(pair)
        # arbitrary currents give residuals of order one
        arbitrary = ModeSet(rng.normal(size=n), rng.normal(size=(n, n)), n)
        for modes in (solved, arbitrary):
            got = modes.residual_norms(pair)
            ref = seed_residual_norms(modes, pair)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * max(ref.max(), 1.0)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["O_h", "O", "D_4h", "C_4v", "C_2v"]),
       dof=st.sampled_from([1, 3]),
       orbits=st.lists(st.sampled_from(sorted(ORBIT_SEEDS)), min_size=1,
                       max_size=2),
       operators_form=st.booleans(),
       seed=st.integers(0, 2**16))
def test_project_columns_matches_dense_projectors(name, dof, orbits,
                                                  operators_form, seed):
    g = builtin_group(name)
    rng = np.random.default_rng(seed)
    pts = np.vstack([(k + 1.0) * orbit_points(g, np.array(ORBIT_SEEDS[o]))
                     for k, o in enumerate(orbits)])
    act = action_from_points(g, pts, dof=dof)
    ops = dict(enumerate(dense_operators(act)))
    if operators_form:
        act = action_from_operators(g, list(ops.values()), dof=dof)
    projs = {p.name: seed_projector(g, ops, p.name) for p in g.irreps}
    n = act.dimension
    # random vectors, one pure vector per nonempty irrep and a mixture
    pure = [projs[p.name] @ rng.normal(size=n) for p in g.irreps]
    pure = [u for u in pure if np.linalg.norm(u) > 1e-6]
    vectors = np.column_stack([rng.normal(size=(n, 3)), *pure,
                               pure[0] + 0.5 * pure[-1]])
    reports = project_columns(vectors, act)
    assert len(reports) == vectors.shape[1]
    for k, rep in enumerate(reports):
        weights, dominant = seed_project(vectors[:, k], g, projs)
        assert list(rep.weights) == list(weights)
        assert max(abs(rep.weights[p] - weights[p]) for p in weights) < 1e-12
        classified = (dominant if weights[dominant] >= CLASSIFY_THRESHOLD
                      else None)
        assert rep.classified == classified
        top = sorted(weights.values())[-2:]
        if len(top) < 2 or top[1] - top[0] > 1e-12:
            assert rep.dominant == dominant
