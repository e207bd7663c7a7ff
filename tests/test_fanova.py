import dataclasses
import re

import numpy as np
import pytest

from harvana.fanova import (
    decompose,
    load_report,
    pairwise_marginal_table,
    report_from_json,
    report_to_json,
    save_report,
)
from harvana.forest import (Forest, TreeData, encode_config, fit_forest, forest_from_tables,
                            forest_to_json, load_forest, marginal_predict, predict)
from harvana.hyperspace import ParamSpec, SearchSpace, sample, to_unit, write_json

from conftest import make_trial, trials_from_function, unit_space
from test_forest import grid_points, leaf, random_planted_root, split


def brute_force_shares(forest, res: int = 20):
    """ANOVA shares from exhaustive grid enumeration (exact for grid-aligned
    boxes): returns (V, {dim: share}, {(i, j): share})."""
    d = forest.space.dim
    pts = grid_points(res)
    mesh = np.meshgrid(*[pts] * d, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=1)
    from harvana.forest import predict
    G = predict(forest, Z).reshape([res] * d)
    f0 = G.mean()
    V = (G ** 2).mean() - f0 ** 2
    singles, pairs = {}, {}
    for i in range(d):
        axes = tuple(a for a in range(d) if a != i)
        m = G.mean(axis=axes)
        singles[i] = ((m - f0) ** 2).mean() / V if V > 0 else 0.0
    for i in range(d):
        for j in range(i + 1, d):
            axes = tuple(a for a in range(d) if a not in (i, j))
            m2 = G.mean(axis=axes) if axes else G
            mi = G.mean(axis=tuple(a for a in range(d) if a != i))
            mj = G.mean(axis=tuple(a for a in range(d) if a != j))
            fij = m2 - mi[:, None] - mj[None, :] + f0
            pairs[(i, j)] = (fij ** 2).mean() / V if V > 0 else 0.0
    return V, singles, pairs


def permuted_forest(forest: Forest, perm: list[int]) -> Forest:
    """Relabel dims of a fitted forest: dim i becomes perm[i]."""
    space = SearchSpace(params=tuple(
        forest.space.params[perm.index(j)] for j in range(len(perm))))
    inv = np.argsort(perm)
    to = np.append(perm, -1)  # a leaf's split_dim -1 stays -1

    trees = []
    for t in forest.trees:
        trees.append(TreeData(
            nodes=dataclasses.replace(t.nodes, split_dim=to[t.nodes.split_dim]),
            predictions=t.predictions.copy(),
            lo=t.lo[:, inv], hi=t.hi[:, inv],
            cat_masks={perm[dim]: m.copy() for dim, m in t.cat_masks.items()},
            extents=t.extents[:, inv],
            volumes=t.volumes.copy(),
        ))
    return Forest(trees=trees, space=space, response=forest.response,
                  n_trials=forest.n_trials, seed=forest.seed)


def test_single_split_all_variance_on_one_dim():
    space = unit_space(3)
    root = split(1, 0.5, leaf(0.0), leaf(1.0))
    report = decompose(forest_from_tables(space, [root]))
    assert report.individual["x1"] == pytest.approx(1.0, abs=1e-12)
    assert report.individual["x0"] == 0.0
    assert report.individual["x2"] == 0.0
    assert all(v == 0.0 for v in report.pairwise.values())
    assert not report.degenerate


def test_constant_forest_degenerate():
    space = unit_space(2)
    report = decompose(forest_from_tables(space, [leaf(0.4), leaf(0.4)]))
    assert report.degenerate
    assert report.total_variance == 0.0
    assert all(v == 0.0 for v in report.individual.values())


def test_decompose_matches_brute_force_shares():
    space = unit_space(3)
    rng = np.random.default_rng(42)
    forest = forest_from_tables(space, [random_planted_root(rng, 3) for _ in range(6)])
    report, per_tree = decompose(forest, return_per_tree=True)
    # brute-force on each tree separately (per-tree ratios are averaged)
    briefs = []
    for tree in forest.trees:
        single = Forest(trees=[tree], space=space, response="nu", n_trials=0)
        briefs.append(brute_force_shares(single))
    for i, name in enumerate(space.names):
        expected = np.mean([b[1][i] for b in briefs])
        assert report.individual[name] == pytest.approx(expected, abs=1e-6)
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        expected = np.mean([b[2][(i, j)] for b in briefs])
        assert report.pair(space.names[i], space.names[j]) == pytest.approx(expected, abs=1e-6)


def test_categorical_decomposition_matches_enumeration():
    # one categorical dim (3 choices) x one continuous dim, hand-planted tree
    space = SearchSpace(params=(
        ParamSpec("m", "categorical", choices=("a", "b", "c")),
        ParamSpec("x", "continuous", 0.0, 1.0),
    ))
    root = split(0, {0, 2}, split(1, 0.25, leaf(0.1), leaf(0.9)), leaf(0.5))
    forest = forest_from_tables(space, [root])

    res = 20
    pts = grid_points(res)
    G = np.empty((3, res))
    from harvana.forest import predict
    for ci in range(3):
        Z = np.stack([np.full(res, ci, dtype=float), pts], axis=1)
        G[ci] = predict(forest, Z)
    f0 = G.mean()
    V = (G ** 2).mean() - f0 ** 2
    m_cat = G.mean(axis=1)
    m_x = G.mean(axis=0)
    V_cat = ((m_cat - f0) ** 2).mean()
    V_x = ((m_x - f0) ** 2).mean()
    V_pair = (((G - m_cat[:, None] - m_x[None, :] + f0) ** 2)).mean()

    report = decompose(forest)
    assert report.individual["m"] == pytest.approx(V_cat / V, abs=1e-12)
    assert report.individual["x"] == pytest.approx(V_x / V, abs=1e-12)
    assert report.pair("m", "x") == pytest.approx(V_pair / V, abs=1e-12)
    # categorical marginal prediction at each choice (unit coords 0, .5, 1)
    for ci, u in enumerate((0.0, 0.5, 1.0)):
        direct = marginal_predict(forest, ["m"], [u])
        assert direct == pytest.approx(float(G[ci].mean()), abs=1e-12)
    # pairwise table over (cat, cont) matches pointwise marginals
    tu, tv, vals = pairwise_marginal_table(forest, "m", "x", 10)
    for i in (0, 4, 9):
        for j in (0, 5, 9):
            expected = marginal_predict(forest, ["m", "x"], [tu[i], tv[j]])
            assert vals[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("resolution", [20, 21])
@pytest.mark.parametrize("k", [3, 4])
def test_pairwise_table_gives_each_choice_an_equal_share_of_rows(k, resolution):
    # row i shows choice floor((i + 0.5) / resolution * k) at its own
    # coordinate c / (k - 1), on either axis of the table
    space = SearchSpace(params=(
        ParamSpec("m", "categorical", choices=tuple("abcd"[:k])),
        ParamSpec("x", "continuous", 0.0, 1.0),
    ))
    root = split(0, {0, 2}, split(1, 0.25, leaf(0.1), leaf(0.9)), leaf(0.5))
    forest = forest_from_tables(space, [root])
    tu, tx, vals = pairwise_marginal_table(forest, "m", "x", resolution)
    tx2, tu2, vals2 = pairwise_marginal_table(forest, "x", "m", resolution)
    assert np.array_equal(tu2, tu) and np.array_equal(tx2, tx) and np.array_equal(vals2, vals.T)
    choices = np.rint(tu * (k - 1)).astype(int)
    assert np.array_equal(tu, choices / (k - 1))
    assert np.array_equal(choices, np.sort(choices))
    counts = np.bincount(choices, minlength=k)
    assert counts.max() - counts.min() <= 1
    if (k, resolution) == (3, 21):
        assert counts.tolist() == [7, 7, 7]
    for i in range(resolution):
        for j in range(resolution):
            assert vals[i, j] == pytest.approx(
                marginal_predict(forest, ["m", "x"], [tu[i], tx[j]]), abs=1e-12)


def test_shares_nonnegative_and_bounded_per_tree():
    space = unit_space(4)
    trials = trials_from_function(
        space, lambda u: 0.3 * u[0] + 0.4 * u[1] * u[2] + 0.1, 150, seed=8)
    forest = fit_forest(trials, space, n_trees=16, seed=6)
    report, per_tree = decompose(forest, return_per_tree=True)
    assert all(v >= 0.0 for v in report.individual.values())
    assert all(v >= 0.0 for v in report.pairwise.values())
    for V, fu, fp in per_tree:
        assert (fu >= 0.0).all() and (fp >= 0.0).all()
        assert fu.sum() + fp.sum() <= 1.0 + 1e-9


def test_additive_planted_response_shares():
    # nu = 0.7 g(x0) + 0.3 h(x1) with unit-variance g,h plus 8 inert dims;
    # analytic ratio 0.49/0.09 = 5.44; measured band over 10 seeds [6.8, 8.4]
    # (finite depth starves the weaker dim of splits), locked with margin.
    space = unit_space(10)
    rng = np.random.default_rng(0)
    trials = []
    for i in range(500):
        c = sample(space, rng)
        u = to_unit(space, c)
        nu = 0.5 + 0.2 * (0.7 * np.sqrt(2) * np.sin(2 * np.pi * u[0])
                          + 0.3 * np.sqrt(2) * np.cos(2 * np.pi * u[1]))
        trials.append(make_trial(c, float(np.clip(nu, 0, 1)), trial_id=i))
    report = decompose(fit_forest(trials, space, seed=0))
    F1, F2 = report.individual["x0"], report.individual["x1"]
    inert = [report.individual[f"x{i}"] for i in range(2, 10)]
    assert 5.0 <= F1 / F2 <= 10.5
    assert F1 > F2 > max(inert)
    assert sum(inert) <= 0.1
    assert report.pair("x0", "x1") <= 0.05


def test_permutation_equivariance_exact():
    space = unit_space(3)
    trials = trials_from_function(space, lambda u: u[0] * u[1] + 0.2 * u[2], 100, seed=3)
    forest = fit_forest(trials, space, n_trees=8, seed=4)
    report = decompose(forest)
    perm = [2, 0, 1]
    report_p = decompose(permuted_forest(forest, perm))
    for name in space.names:
        assert report_p.individual[name] == report.individual[name]
    for (u, v), w in report.pairwise.items():
        assert report_p.pair(u, v) == w


def test_pairwise_table_constant_forest_flat():
    space = unit_space(2)
    _, _, vals = pairwise_marginal_table(forest_from_tables(space, [leaf(0.3)]), "x0", "x1", 8)
    assert np.allclose(vals, 0.3)


def test_pairwise_table_matches_pointwise_marginal():
    space = unit_space(3)
    rng = np.random.default_rng(19)
    forest = forest_from_tables(space, [random_planted_root(rng, 3) for _ in range(4)])
    tu, tv, vals = pairwise_marginal_table(forest, "x0", "x2", 10)
    for i in [0, 3, 9]:
        for j in [0, 5, 9]:
            direct = marginal_predict(forest, ["x0", "x2"], [tu[i], tv[j]])
            assert vals[i, j] == pytest.approx(direct, abs=1e-12)


def test_pairwise_table_product_surface_interaction():
    # centered product surface (x_u - 1/2)(x_v - 1/2): marginal means vanish
    # analytically, so the grid's interaction variance dominates both marginals
    space = unit_space(2)
    trials = trials_from_function(
        space, lambda u: (u[0] - 0.5) * (u[1] - 0.5) + 0.5, 400, seed=12)
    forest = fit_forest(trials, space, seed=12)
    _, _, vals = pairwise_marginal_table(forest, "x0", "x1", 20)
    f0 = vals.mean()
    mu = vals.mean(axis=1)
    mv = vals.mean(axis=0)
    inter = vals - mu[:, None] - mv[None, :] + f0
    assert (inter ** 2).mean() >= 5 * max(((mu - f0) ** 2).mean(),
                                          ((mv - f0) ** 2).mean())


def test_report_json_round_trip(tmp_path):
    space = unit_space(2)
    report = decompose(forest_from_tables(space, [split(0, 0.25, leaf(0.0), leaf(1.0))]))
    save_report(report, tmp_path / "r.json")
    back = load_report(tmp_path / "r.json")
    assert back == report
    assert report_from_json(report_to_json(report)) == report


def mixed_forest() -> Forest:
    """Fitted forest over continuous, log, integer and categorical params."""
    space = SearchSpace(params=(
        ParamSpec("a", "continuous", 0.0, 1.0),
        ParamSpec("lr", "continuous", 1e-4, 1e-1, prior="log"),
        ParamSpec("k", "integer", 1, 6),
        ParamSpec("mode", "categorical", choices=("x", "y", "z")),
    ))
    trials = trials_from_function(
        space, lambda u: 0.3 * np.sin(4 * u[0]) * u[2] + 0.2 * u[1] + 0.1 * u[3], 80, seed=3)
    return fit_forest(trials, space, n_trees=8, seed=3, min_leaf=1)


def gain_forest(n_trees: int = 16) -> Forest:
    """Fitted forest over a log learning rate and 12 per-source gains, the
    space pipeline.gain_space builds: 'lr' sorts after every 'gain_*', so
    its pairs swap axes by name."""
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 0.005, 0.5, prior="log"),)
                        + tuple(ParamSpec(f"gain_{i}", "continuous", 0.0, 1.0)
                                for i in range(12)))
    trials = trials_from_function(
        space, lambda u: 0.3 * u[1] + 0.4 * u[2] * u[3] + 0.2 * (u[0] - 0.5) ** 2, 100, seed=3)
    return fit_forest(trials, space, n_trees=n_trees, seed=1)


def cat_cat_forest() -> Forest:
    """Fitted forest over two categorical params and one continuous one."""
    space = SearchSpace(params=(
        ParamSpec("m", "categorical", choices=("a", "b", "c")),
        ParamSpec("n", "categorical", choices=("p", "q", "r", "s")),
        ParamSpec("x", "continuous", 0.0, 1.0),
    ))
    trials = trials_from_function(
        space, lambda u: 0.4 * u[0] * u[1] + 0.3 * (u[1] > 0.5) + 0.2 * u[2], 80, seed=5)
    return fit_forest(trials, space, n_trees=8, seed=5, min_leaf=1)


def numeric_forest() -> Forest:
    """Fitted forest over two continuous params, one of them log-scaled."""
    space = SearchSpace(params=(ParamSpec("a", "continuous", 0.0, 1.0),
                                ParamSpec("lr", "continuous", 1e-4, 1e-1, prior="log")))
    trials = trials_from_function(space, lambda u: 0.5 * u[0] * u[1] + 0.2 * u[1], 60, seed=2)
    return fit_forest(trials, space, n_trees=8, seed=2, min_leaf=1)


@pytest.mark.parametrize("make", [numeric_forest, cat_cat_forest, mixed_forest],
                         ids=["numeric", "categorical", "mixed"])
def test_forest_json_round_trip(make, tmp_path):
    # the node tables are stored as strict JSON and the leaf arrays rebuilt:
    # every point prediction, share and table comes back bit for bit
    fr = make()
    write_json(tmp_path / "forest.json", forest_to_json(fr))
    assert "NaN" not in (tmp_path / "forest.json").read_text()
    back = load_forest(tmp_path / "forest.json", fr.space)
    assert back.response == fr.response
    rng = np.random.default_rng(0)
    Z = np.stack([encode_config(fr.space, sample(fr.space, rng)) for _ in range(50)])
    assert np.array_equal(predict(back, Z), predict(fr, Z))
    assert decompose(back) == decompose(fr)
    names = fr.space.names
    for u, v in [(names[0], names[1]), (names[-1], names[0])]:
        for a, b in zip(pairwise_marginal_table(back, u, v, 16),
                        pairwise_marginal_table(fr, u, v, 16)):
            assert np.array_equal(a, b)


def segments(tree: TreeData, space: SearchSpace, dim: int):
    """(unit-space points, lengths): a categorical dim's choices, or the
    midpoints of a numeric dim's leaf-edge segments. Every marginal of the
    tree is constant on each."""
    p = space.params[dim]
    if p.kind == "categorical":
        k = p.n_choices
        return np.arange(k) / max(k - 1, 1), np.full(k, 1.0 / k)
    edges = np.unique(np.concatenate([[0.0, 1.0], tree.lo[:, dim], tree.hi[:, dim]]))
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def reference_variances(tree: TreeData, space: SearchSpace):
    """(V, V_u, V_uv per pair i < j) of one tree from marginal_predict at
    the points of each dim's segments, weighted by the segments' lengths."""
    forest = Forest(trees=[tree], space=space, response="nu", n_trials=0)
    names, d = space.names, space.dim
    f0 = float(tree.predictions @ tree.volumes)
    V = float((tree.predictions ** 2) @ tree.volumes - f0 ** 2)
    segs = [segments(tree, space, dim) for dim in range(d)]
    marg = [np.array([marginal_predict(forest, [names[i]], [t]) for t in segs[i][0]])
            for i in range(d)]
    Vu = np.array([float(segs[i][1] @ (marg[i] - f0) ** 2) for i in range(d)])
    Vuv = []
    for i in range(d):
        for j in range(i + 1, d):
            M = np.array([[marginal_predict(forest, [names[i], names[j]], [s, t])
                           for t in segs[j][0]] for s in segs[i][0]])
            fij = M - marg[i][:, None] - marg[j][None, :] + f0
            Vuv.append(float(segs[i][1] @ fij ** 2 @ segs[j][1]))
    return V, Vu, np.array(Vuv)


@pytest.mark.parametrize("case", [
    "gain_space", "mixed", "cat_cat", "unsplit_dims", "single_leaf", "one_dim", "permuted",
    "zero_width_leaf"])
def test_per_tree_variances_match_segment_marginal_reference(case):
    if case == "gain_space":
        forest = gain_forest()
    elif case == "mixed":
        forest = mixed_forest()
    elif case == "cat_cat":
        forest = cat_cat_forest()
    elif case == "unsplit_dims":
        # x1 and x3 are never split: one segment each
        forest = forest_from_tables(unit_space(4), [
            split(0, 0.3, split(2, 0.6, leaf(0.1), leaf(0.7)), leaf(0.4)),
            split(2, 0.25, leaf(0.9), split(0, 0.5, leaf(0.2), leaf(0.3)))])
    elif case == "single_leaf":
        forest = forest_from_tables(unit_space(3), [leaf(0.4)])
    elif case == "one_dim":
        forest = forest_from_tables(unit_space(1), [split(0, 0.5, leaf(0.0), leaf(1.0))])
    elif case == "permuted":
        forest = permuted_forest(gain_forest(8), [3, 0, 12, 5, 1, 2, 4, 6, 11, 7, 8, 10, 9])
    else:
        # the inner split repeats its parent's threshold: leaf 0.9 spans
        # [0.5, 0.5) on x0, zero width, and must weigh 0, not 0/0
        forest = forest_from_tables(unit_space(2), [
            split(0, 0.5, split(0, 0.5, split(1, 0.4, leaf(0.2), leaf(0.6)), leaf(0.9)),
                  split(1, 0.7, leaf(0.1), leaf(0.8)))])
        assert (forest.trees[0].extents == 0.0).any()
    _, per_tree = decompose(forest, return_per_tree=True)
    for tree, (V, fu, fp) in zip(forest.trees, per_tree):
        V_ref, Vu_ref, Vuv_ref = reference_variances(tree, forest.space)
        assert V == V_ref
        assert np.isfinite(fu).all() and np.isfinite(fp).all()
        # the per-tree variances are the shares times V
        assert np.abs(fu * V - Vu_ref).max() <= 1e-12 * V
        assert len(fp) == len(Vuv_ref)
        if len(fp):
            assert np.abs(fp * V - Vuv_ref).max() <= 1e-12 * V
    if case == "single_leaf":
        assert V == 0.0


def test_dims_a_tree_never_splits_read_exactly_zero():
    space = unit_space(4)
    forest = forest_from_tables(space, [
        split(0, 0.3, split(2, 0.6, leaf(0.1), leaf(0.7)), leaf(0.4)),
        split(2, 0.25, leaf(0.9), split(0, 0.5, leaf(0.2), leaf(0.3)))])
    report, per_tree = decompose(forest, return_per_tree=True)
    for V, fu, fp in per_tree:
        assert fu[1] == 0.0 and fu[3] == 0.0
        # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): all but (0,2) hold x1 or x3
        assert [fp[k] for k in (0, 2, 3, 4, 5)] == [0.0] * 5
    assert report.individual["x1"] == report.individual["x3"] == 0.0
    assert all(w == 0.0 for (u, v), w in report.pairwise.items() if {"x1", "x3"} & {u, v})


def test_decompose_peak_memory_is_per_tree():
    """One decompose of a recovery-size forest (13 dims, 100 trials, 64 trees:
    78 pairs, at most 10 leaf edges per dim) allocates per tree. Its numpy
    peak is about 0.4 MB; a (64 * 78, 10, 10) grid padded across the whole
    forest would be 4 MB for one array alone."""
    import tracemalloc
    forest = gain_forest(n_trees=64)
    tracemalloc.start()
    try:
        decompose(forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("field, value, named", [
    ("degenerate", "false", "degenerate must be a boolean, got 'false'"),
    ("total_variance", True, "total_variance must be a number (float), got True"),
    ("individual", {"x0": True, "x1": 0.0}, "individual['x0'] must be a number (float)"),
    ("params", "x0", "params must be a non-empty list, got 'x0'"),
    ("response", 3, "response must be a string, got 3"),
])
def test_report_value_of_the_wrong_type_is_rejected_not_guessed_at(field, value, named):
    # a share of true was read as 1.0 and degenerate "false" as True
    from harvana.forest import ForestError
    space = unit_space(2)
    doc = report_to_json(decompose(forest_from_tables(space, [split(0, 0.25, leaf(0.0),
                                                                     leaf(1.0))])))
    doc[field] = value
    with pytest.raises(ForestError, match=re.escape(f"r.json: {named}")):
        report_from_json(doc, source="r.json")
