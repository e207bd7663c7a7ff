import dataclasses

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
from harvana.forest import Forest, TreeData, fit_forest, forest_from_tables, marginal_predict
from harvana.hyperspace import ParamSpec, SearchSpace, sample, to_unit

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


def test_marginals_match_add_at_accumulation():
    """The bincount marginals equal the per-corner np.add.at accumulation bit
    for bit on a fitted mixed forest."""
    from harvana.fanova import _dim_grids, _marginal_1d, _marginal_2d
    forest = mixed_forest()
    numeric = [0, 1, 2]
    for tree in forest.trees:
        grids = dict(zip(numeric, _dim_grids(tree, numeric)))
        for u in numeric:
            g = grids[u]
            c = tree.predictions * tree.volumes / tree.extents[:, u]
            D = np.zeros(g.n_segments + 1)
            np.add.at(D, g.a, c)
            np.add.at(D, g.b, -c)
            assert np.array_equal(_marginal_1d(tree, g, u), np.cumsum(D)[: g.n_segments])
            for v in numeric:
                if v == u:
                    continue
                gv = grids[v]
                c2 = tree.predictions * tree.volumes / (tree.extents[:, u] * tree.extents[:, v])
                D2 = np.zeros((g.n_segments + 1, gv.n_segments + 1))
                np.add.at(D2, (g.a, gv.a), c2)
                np.add.at(D2, (g.b, gv.a), -c2)
                np.add.at(D2, (g.a, gv.b), -c2)
                np.add.at(D2, (g.b, gv.b), c2)
                ref = np.cumsum(np.cumsum(D2, axis=0), axis=1)[: g.n_segments, : gv.n_segments]
                assert np.array_equal(_marginal_2d(tree, g, gv, u, v), ref)


def reference_tree_decomposition(tree: TreeData, names):
    """One dim and one pair at a time: np.unique leaf edges, one bincount grid
    per numeric marginal, each pair's on its own (n_a + 1, n_b + 1) grid. The
    reference for the one-pass grids; categorical pieces reuse the module's
    per-leaf paths."""
    from harvana.fanova import _DimGrid, _marginal_1d, _marginal_2d
    d = len(names)
    f0 = float(tree.predictions @ tree.volumes)
    V = float((tree.predictions ** 2) @ tree.volumes - f0 ** 2)
    grids, marginals = [], []
    for dim in range(d):
        if dim in tree.cat_masks:
            n = tree.cat_masks[dim].shape[1]
            g = _DimGrid(n, np.full(n, 1.0 / n), mask=tree.cat_masks[dim])
            marginals.append(_marginal_1d(tree, g, dim))
        else:
            edges = np.unique(np.concatenate([tree.lo[:, dim], tree.hi[:, dim]]))
            g = _DimGrid(len(edges) - 1, np.diff(edges), edges=edges,
                         a=np.searchsorted(edges, tree.lo[:, dim]),
                         b=np.searchsorted(edges, tree.hi[:, dim]))
            c = tree.predictions * tree.volumes / tree.extents[:, dim]
            D = np.bincount(np.concatenate([g.a, g.b]), weights=np.concatenate([c, -c]),
                            minlength=g.n_segments + 1)
            marginals.append(np.cumsum(D)[: g.n_segments])
        grids.append(g)
    Vu = np.array([float(grids[dim].lengths @ (marginals[dim] - f0) ** 2) for dim in range(d)])
    Vuv = {}
    for i in range(d):
        for j in range(i + 1, d):
            a, b = (i, j) if names[i] <= names[j] else (j, i)
            ga, gb = grids[a], grids[b]
            if ga.categorical or gb.categorical:
                M = _marginal_2d(tree, ga, gb, a, b)
            else:
                c = tree.predictions * tree.volumes / (tree.extents[:, a] * tree.extents[:, b])
                shape = (ga.n_segments + 1, gb.n_segments + 1)
                idx = np.concatenate([ga.a * shape[1] + gb.a, ga.b * shape[1] + gb.a,
                                      ga.a * shape[1] + gb.b, ga.b * shape[1] + gb.b])
                D = np.bincount(idx, weights=np.concatenate([c, -c, -c, c]),
                                minlength=shape[0] * shape[1]).reshape(shape)
                M = np.cumsum(np.cumsum(D, axis=0), axis=1)[: ga.n_segments, : gb.n_segments]
            fij = M - marginals[a][:, None] - marginals[b][None, :] + f0
            area = ga.lengths[:, None] * gb.lengths[None, :]
            Vuv[(i, j)] = float((area * fij ** 2).sum())
    return V, Vu, Vuv


@pytest.mark.parametrize("case", [
    "gain_space", "mixed", "unsplit_dims", "single_leaf", "one_dim", "permuted"])
def test_one_pass_pair_grid_equals_per_pair_reference(case):
    from harvana.fanova import _tree_decomposition
    if case == "gain_space":
        forest = gain_forest()
    elif case == "mixed":
        forest = mixed_forest()
    elif case == "unsplit_dims":
        # x1 and x3 are never split: one segment each
        forest = forest_from_tables(unit_space(4), [
            split(0, 0.3, split(2, 0.6, leaf(0.1), leaf(0.7)), leaf(0.4)),
            split(2, 0.25, leaf(0.9), split(0, 0.5, leaf(0.2), leaf(0.3)))])
    elif case == "single_leaf":
        forest = forest_from_tables(unit_space(3), [leaf(0.4)])
    elif case == "one_dim":
        forest = forest_from_tables(unit_space(1), [split(0, 0.5, leaf(0.0), leaf(1.0))])
    else:
        forest = permuted_forest(gain_forest(8), [3, 0, 12, 5, 1, 2, 4, 6, 11, 7, 8, 10, 9])
    names = forest.space.names
    n_pairs = len(names) * (len(names) - 1) // 2
    for tree in forest.trees:
        V, Vu, Vuv = _tree_decomposition(tree, names)
        V_ref, Vu_ref, Vuv_ref = reference_tree_decomposition(tree, names)
        assert V == V_ref
        assert np.array_equal(Vu, Vu_ref)
        assert Vuv == Vuv_ref and len(Vuv) == n_pairs
    if case == "single_leaf":
        assert V == 0.0


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
