import dataclasses
import math
import os

import numpy as np
import pytest

from harvana import forest as forest_mod, hyperspace
from harvana.forest import (
    ForestError,
    NodeTable,
    encode_config,
    fit_forest,
    fit_forests,
    forest_from_tables,
    marginal_predict,
    predict,
    response_value,
)
from harvana.hyperspace import Configuration, ParamSpec, SearchSpace, derive_rng

from conftest import assert_no_children, make_trial, trials_from_function, unit_space


def leaf(pred: float) -> NodeTable:
    return NodeTable(split_dim=np.array([-1]), threshold=np.array([np.nan]), subset=[None],
                     left=np.array([-1]), right=np.array([-1]), value=np.array([pred]))


def split(dim: int, thr, left: NodeTable, right: NodeTable) -> NodeTable:
    """Preorder table of a split node over two subtrees: go left iff z < thr,
    or, when thr is a set of choice indices, iff the choice is in it."""
    cat = isinstance(thr, (set, frozenset))
    k = 1 + len(left.value)  # the right subtree's root

    def shift(children: np.ndarray, by: int) -> np.ndarray:
        return np.where(children >= 0, children + by, -1)

    return NodeTable(
        split_dim=np.concatenate([[dim], left.split_dim, right.split_dim]),
        threshold=np.concatenate([[np.nan if cat else thr], left.threshold, right.threshold]),
        subset=[frozenset(thr) if cat else None] + left.subset + right.subset,
        left=np.concatenate([[1], shift(left.left, 1), shift(right.left, k)]),
        right=np.concatenate([[k], shift(left.right, 1), shift(right.right, k)]),
        value=np.concatenate([[np.nan], left.value, right.value]))


def grid_points(res: int) -> np.ndarray:
    return (np.arange(res) + 0.5) / res


def random_planted_root(rng, d: int, res: int = 20, max_depth: int = 4) -> NodeTable:
    """Random tree whose thresholds sit on the res-grid, so brute-force cell
    averaging is exact."""

    def build(lo, hi, depth):
        splittable = [i for i in range(d) if hi[i] - lo[i] > 1.0 / res + 1e-12]
        if depth >= max_depth or not splittable or rng.uniform() < 0.25:
            return leaf(float(rng.uniform()))
        dim = int(rng.choice(splittable))
        cells = np.arange(round(lo[dim] * res) + 1, round(hi[dim] * res))
        thr = float(rng.choice(cells)) / res
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[dim] = thr
        right_lo[dim] = thr
        return split(dim, thr, build(lo, left_hi, depth + 1), build(right_lo, hi, depth + 1))

    return build(np.zeros(d), np.ones(d), 0)


def brute_force_marginal(forest, fixed_dims, fixed_vals, res: int = 20):
    """Average the forest's point predictions over a res-per-dim grid of all
    completions of the fixed dims (exact when boxes align with the grid)."""
    d = forest.space.dim
    free = [i for i in range(d) if i not in fixed_dims]
    pts = grid_points(res)
    mesh = np.meshgrid(*[pts] * len(free), indexing="ij") if free else []
    n = mesh[0].size if free else 1
    Z = np.zeros((n, d))
    for dim, val in zip(fixed_dims, fixed_vals):
        Z[:, dim] = val
    for ax, dim in enumerate(free):
        Z[:, dim] = mesh[ax].ravel()
    return float(predict(forest, Z).mean())


def test_forced_split_two_trials(unit_space_2d):
    space = SearchSpace(params=(ParamSpec("x", "continuous", 0.0, 1.0),))
    trials = [
        make_trial(Configuration({"x": 0.2}), 0.0, trial_id=0),
        make_trial(Configuration({"x": 0.8}), 1.0, trial_id=1),
    ]
    forest = fit_forest(trials, space, n_trees=1, max_depth=1, min_leaf=1,
                        bootstrap=False, seed=0)
    tree = forest.trees[0]
    assert len(tree.predictions) == 2
    assert sorted(tree.predictions) == [0.0, 1.0]


def test_constant_response_single_leaf():
    space = unit_space(2)
    trials = trials_from_function(space, lambda u: 0.5, 20)
    forest = fit_forest(trials, space, n_trees=8, seed=1)
    for tree in forest.trees:
        assert len(tree.predictions) == 1
        assert tree.predictions[0] == pytest.approx(0.5)


def test_forest_regression_quality():
    space = unit_space(2)
    trials = trials_from_function(space, lambda u: u[0], 200, seed=5)
    forest = fit_forest(trials, space, seed=2)
    rng = np.random.default_rng(0)
    probes = rng.uniform(size=(50, 2))
    err = np.abs(predict(forest, probes) - probes[:, 0])
    assert err.mean() <= 0.05  # oracle: the generating function itself


def test_fewer_than_two_distinct_configs():
    space = unit_space(1)
    c = Configuration({"x0": 0.5})
    with pytest.raises(ForestError, match="distinct"):
        fit_forest([make_trial(c, 0.1, 0), make_trial(c, 0.1, 1)], space)


def test_marginal_all_dims_is_point_prediction():
    rng = np.random.default_rng(11)
    numeric = forest_from_tables(unit_space(3), [random_planted_root(rng, 3) for _ in range(5)])
    # interior points, and the cube's closed edges 0.0 and 1.0
    cases = [(numeric, theta, theta) for theta in (
        [0.31, 0.62, 0.93], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.5])]
    # every choice of a categorical dim (theta = index / (n - 1))
    mixed_space = SearchSpace(params=(
        ParamSpec("mode", "categorical", choices=("a", "b", "c", "d")),
        ParamSpec("x", "continuous", 0.0, 1.0),
    ))
    weight = {"a": 0.1, "b": 0.9, "c": 0.4, "d": 0.6}
    xs = np.random.default_rng(8).uniform(size=120)
    trials = [make_trial(Configuration({"mode": "abcd"[i % 4], "x": float(x)}),
                         weight["abcd"[i % 4]] * x, trial_id=i) for i, x in enumerate(xs)]
    mixed = fit_forest(trials, mixed_space, n_trees=6, min_leaf=2, seed=1)
    cases += [(mixed, [ci / 3, x], [ci, x]) for ci in range(4) for x in (0.0, 0.37, 1.0)]
    for forest, theta, z in cases:
        m = marginal_predict(forest, list(forest.space.names), theta)
        assert m == pytest.approx(float(predict(forest, np.array([z]))[0]), abs=1e-12), theta


def test_marginal_single_leaf_tree():
    space = unit_space(2)
    forest = forest_from_tables(space, [leaf(0.7)])
    assert marginal_predict(forest, ["x0"], [0.3]) == pytest.approx(0.7, abs=1e-15)
    assert marginal_predict(forest, ["x1"], [0.9]) == pytest.approx(0.7, abs=1e-15)


def test_marginal_matches_brute_force_enumeration():
    space = unit_space(3)
    rng = np.random.default_rng(23)
    forest = forest_from_tables(space, [random_planted_root(rng, 3) for _ in range(4)])
    pts = grid_points(20)
    for dim, name in enumerate(space.names):
        for theta in pts[::4]:
            exact = marginal_predict(forest, [name], [theta])
            brute = brute_force_marginal(forest, [dim], [theta])
            assert exact == pytest.approx(brute, abs=1e-9)
    # pairs
    for theta_u, theta_v in [(0.025, 0.975), (0.525, 0.475), (0.125, 0.125)]:
        exact = marginal_predict(forest, ["x0", "x2"], [theta_u, theta_v])
        brute = brute_force_marginal(forest, [0, 2], [theta_u, theta_v])
        assert exact == pytest.approx(brute, abs=1e-9)


def test_marginal_unknown_param():
    space = unit_space(2)
    forest = forest_from_tables(space, [leaf(0.5)])
    with pytest.raises(ForestError, match="unknown param"):
        marginal_predict(forest, ["nope"], [0.5])


def test_fit_deterministic_and_worker_invariant():
    space = unit_space(3)
    trials = trials_from_function(space, lambda u: u[0] * u[1], 120, seed=9)
    f1 = fit_forest(trials, space, n_trees=12, seed=3)
    f2 = fit_forest(trials, space, n_trees=12, seed=3)
    for ta, tb in zip(f1.trees, f2.trees):
        np.testing.assert_array_equal(ta.predictions, tb.predictions)
        np.testing.assert_array_equal(ta.lo, tb.lo)
        np.testing.assert_array_equal(ta.hi, tb.hi)
    # fit + decompose reproducible bit-for-bit
    from harvana.fanova import decompose
    r1, r2 = decompose(f1), decompose(f2)
    assert r1.individual == r2.individual
    assert r1.pairwise == r2.pairwise
    assert r1.total_variance == r2.total_variance


def test_categorical_split_and_boxes():
    space = SearchSpace(params=(
        ParamSpec("mode", "categorical", choices=("a", "b", "c", "d")),
        ParamSpec("x", "continuous", 0.0, 1.0),
    ))
    # response depends only on the categorical: {a,b} -> 0, {c,d} -> 1
    trials = []
    rng = np.random.default_rng(4)
    for i in range(80):
        mode = ("a", "b", "c", "d")[i % 4]
        trials.append(make_trial(
            Configuration({"mode": mode, "x": float(rng.uniform())}),
            0.0 if mode in ("a", "b") else 1.0, trial_id=i))
    forest = fit_forest(trials, space, n_trees=4, seed=0, bootstrap=False)
    for tree in forest.trees:
        mask = tree.cat_masks[0]
        # boxes partition the choice set
        assert (mask.sum(axis=0) >= 1).all()
        total = sum(tree.volumes)
        assert total == pytest.approx(1.0, abs=1e-12)
    probes = [Configuration({"mode": m, "x": 0.5}) for m in ("a", "b", "c", "d")]
    Z = np.stack([encode_config(space, c) for c in probes])
    preds = predict(forest, Z)
    assert preds[0] == pytest.approx(0.0, abs=1e-9)
    assert preds[3] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# split search: the all-dims block search against a one-column reference

def naive_best_numeric_split(z: np.ndarray, y: np.ndarray, min_leaf: int):
    """One column at a time: sort, running sums, best valid SSE split."""
    n = len(y)
    order = np.argsort(z, kind="stable")
    zs, ys = z[order], y[order]
    counts = np.arange(1, n)
    valid = (zs[1:] != zs[:-1]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
    if not valid.any():
        return None
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    ls, lq = csum[:-1], csq[:-1]
    rs, rq = csum[-1] - ls, csq[-1] - lq
    sse = (lq - ls * ls / counts) + (rq - rs * rs / (n - counts))
    sse = np.where(valid, sse, np.inf)
    j = int(np.argmin(sse))
    parent_sse = csq[-1] - csum[-1] ** 2 / n
    return parent_sse - sse[j], 0.5 * (zs[j] + zs[j + 1])


def split_blocks():
    """(Z, y, min_leaf) cases: tied values, constant columns, n == 2*min_leaf
    and min_leaf at and past its limits."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 8))
        Z = rng.uniform(size=(n, m))
        levels = int(rng.integers(1, 6))
        for c in range(m):
            kind = rng.integers(0, 3)
            if kind == 1:  # ties: few distinct values
                Z[:, c] = np.round(Z[:, c] * levels) / levels
            elif kind == 2:  # constant column
                Z[:, c] = Z[0, c]
        y = rng.uniform(size=n) * 10.0 ** rng.integers(-3, 3)
        if rng.uniform() < 0.2:
            y = np.round(y, 1)  # tied responses
        for min_leaf in {1, n // 2, (n + 1) // 2, int(rng.integers(1, n + 1))}:
            yield Z, y, max(1, min_leaf)
    # n == 2 * min_leaf exactly, with one, two and all-tied values
    for Z in (np.array([[0.1], [0.2], [0.3], [0.4]]),
              np.array([[0.1], [0.1], [0.3], [0.3]]),
              np.array([[0.1], [0.1], [0.1], [0.3]]),
              np.array([[0.5], [0.5], [0.5], [0.5]])):
        yield Z, np.array([0.0, 1.0, 0.25, 0.75]), 2


def test_block_split_search_matches_one_column_reference():
    from harvana.forest import _best_numeric_splits
    cases = nones = 0
    for Z, y, min_leaf in split_blocks():
        if len(y) < 2 * min_leaf:  # the build never searches such a node
            continue
        order = np.argsort(Z.T, axis=1, kind="stable")
        got = _best_numeric_splits(np.take_along_axis(Z.T, order, axis=1), y[order], min_leaf)
        assert len(got) == Z.shape[1]
        for c, res in enumerate(got):
            ref = naive_best_numeric_split(Z[:, c], y, min_leaf)
            cases += 1
            if ref is None:
                nones += 1
                assert res is None
            else:
                assert res is not None
                assert res[0] == ref[0] and res[1] == ref[1]
    assert 0 < nones < cases


# ---------------------------------------------------------------------------
# the presorted build against the per-node-argsort build it replaced

def reference_fit(trials, space, response="nu", n_trees=64, max_depth=10, min_leaf=3,
                  feature_frac=5 / 6, seed=0, bootstrap=True):
    """Leaf arrays of the per-node-argsort build: every node sorts its rows
    one drawn numeric column at a time, and leaf boxes are carried down the
    recursion. Same rng stream: bootstrap rows, then dim draws in DFS order."""
    from harvana.forest import _best_categorical_split
    Z = np.stack([encode_config(space, t.config) for t in trials])
    y = np.array([response_value(t, response) for t in trials])
    d = space.dim
    cat = {i: p.n_choices for i, p in enumerate(space.params) if p.kind == "categorical"}
    n_features = min(d, max(1, math.ceil(d * feature_frac)))
    trees = []
    for t in range(n_trees):
        rng = derive_rng(seed, t)
        rows = rng.integers(0, len(y), len(y)) if bootstrap else np.arange(len(y))
        Zb, yb = Z[rows], y[rows]
        leaves = []  # (prediction, lo, hi, {cat dim: choice set})

        def rec(idx, depth, lo, hi, choices):
            ys = yb[idx]
            best = (0.0, None, None)
            if not (depth >= max_depth or len(idx) < 2 * min_leaf or np.ptp(ys) == 0.0):
                dims = rng.choice(d, size=n_features, replace=False) if n_features < d \
                    else np.arange(d)
                for dim in dims:
                    res = (_best_categorical_split(Zb[idx, dim], ys, min_leaf) if dim in cat
                           else naive_best_numeric_split(Zb[idx, dim], ys, min_leaf))
                    if res is not None and res[0] > best[0]:
                        best = (res[0], int(dim), res[1])
            dim, rule = best[1], best[2]
            if dim is None:
                leaves.append((float(ys.mean()), lo, hi, choices))
            elif dim in cat:
                mask = np.isin(Zb[idx, dim].astype(int), list(rule))
                rec(idx[mask], depth + 1, lo, hi, {**choices, dim: choices[dim] & rule})
                rec(idx[~mask], depth + 1, lo, hi, {**choices, dim: choices[dim] - rule})
            else:
                mask = Zb[idx, dim] < rule
                left_hi, right_lo = hi.copy(), lo.copy()
                left_hi[dim] = right_lo[dim] = rule
                rec(idx[mask], depth + 1, lo, left_hi, choices)
                rec(idx[~mask], depth + 1, right_lo, hi, choices)

        rec(np.arange(len(yb)), 0, np.zeros(d), np.ones(d),
            {dim: frozenset(range(k)) for dim, k in cat.items()})
        lo = np.array([leaf[1] for leaf in leaves])
        hi = np.array([leaf[2] for leaf in leaves])
        extents = hi - lo
        cat_masks = {dim: np.array([[c in leaf[3][dim] for c in range(k)] for leaf in leaves])
                     for dim, k in cat.items()}
        for dim, k in cat.items():
            extents[:, dim] = cat_masks[dim].sum(axis=1) / k
        trees.append(dict(predictions=np.array([leaf[0] for leaf in leaves]), lo=lo, hi=hi,
                          extents=extents, volumes=extents.prod(axis=1), cat_masks=cat_masks))
    return trees


def mixed_space() -> SearchSpace:
    return SearchSpace(params=(
        ParamSpec("a", "continuous", 0.0, 1.0),
        ParamSpec("lr", "continuous", 1e-4, 1e-1, prior="log"),
        ParamSpec("k", "integer", 1, 6),
        ParamSpec("mode", "categorical", choices=("x", "y", "z")),
        ParamSpec("b", "continuous", 0.0, 1.0),
        ParamSpec("c", "integer", 0, 3),
    ))


def mixed_trials(n: int = 120, seed: int = 6):
    return trials_from_function(
        mixed_space(), lambda u: 0.2 + 0.3 * np.sin(4 * u[0]) * u[2] + 0.2 * u[3]
        + 0.2 * u[1] * u[4] + 0.1 * u[5], n, seed=seed)


def assert_same_leaves(got, ref) -> None:
    assert len(got.trees) == len(ref)
    for tg, tr in zip(got.trees, ref):
        for name in ("predictions", "lo", "hi", "extents", "volumes"):
            assert np.array_equal(getattr(tg, name), tr[name]), name
        assert sorted(tg.cat_masks) == sorted(tr["cat_masks"])
        for dim in tr["cat_masks"]:
            assert np.array_equal(tg.cat_masks[dim], tr["cat_masks"][dim])


def test_fitted_forest_matches_one_column_search():
    """One fixed fit, leaf arrays compared bit for bit against the
    per-node-argsort build. min_leaf=1 makes near-tied gains between dims
    common, so a parent SSE that rounds one ulp off (an array ** 2 instead of
    the scalar one) changes this forest."""
    fit = dict(n_trees=16, seed=6, min_leaf=1)
    trials = mixed_trials()
    assert_same_leaves(fit_forest(trials, mixed_space(), **fit),
                       reference_fit(trials, mixed_space(), **fit))


def gain_space() -> SearchSpace:
    return SearchSpace(params=(ParamSpec("lr", "continuous", 0.005, 0.5, prior="log"),)
                       + tuple(ParamSpec(f"gain_{i}", "continuous", 0.0, 1.0)
                               for i in range(12)))


def tied_space() -> SearchSpace:
    return SearchSpace(params=tuple(ParamSpec(f"i{j}", "integer", 0, 2) for j in range(4))
                       + (ParamSpec("x", "continuous", 0.0, 1.0),))


@pytest.mark.parametrize("space, trials, fit", [
    (gain_space(), trials_from_function(
        gain_space(), lambda u: 0.3 * u[1] + 0.4 * u[2] * u[3] + 0.2 * (u[0] - 0.5) ** 2,
        100, seed=3), dict(n_trees=16, seed=1)),
    (mixed_space(), mixed_trials(80, seed=2), dict(n_trees=8, seed=2, bootstrap=False)),
    (mixed_space(), mixed_trials(60, seed=4), dict(n_trees=8, seed=4, max_depth=1)),
    # integer columns of three levels: most gaps are ties
    (tied_space(), trials_from_function(
        tied_space(), lambda u: 0.2 * u[0] + 0.3 * u[1] * u[2] + 0.1 * u[3] + 0.05 * u[4],
        90, seed=5), dict(n_trees=12, seed=5, min_leaf=2)),
    # n == 2 * min_leaf: only the middle gap is legal
    (mixed_space(), mixed_trials(8, seed=7), dict(n_trees=8, seed=7, min_leaf=4,
                                                   bootstrap=False)),
], ids=["gain_space", "mixed_no_bootstrap", "mixed_depth_1", "tied_integers", "n_2_min_leaf"])
def test_presorted_build_equals_per_node_argsort_build(space, trials, fit):
    assert_same_leaves(fit_forest(trials, space, **fit), reference_fit(trials, space, **fit))


# ---------------------------------------------------------------------------
# vectorised predict against a per-point walk of the node table

def walk(nodes: NodeTable, z: np.ndarray) -> float:
    i = 0
    while nodes.split_dim[i] >= 0:
        dim, subset = nodes.split_dim[i], nodes.subset[i]
        go_left = int(z[dim]) in subset if subset is not None else z[dim] < nodes.threshold[i]
        i = nodes.left[i] if go_left else nodes.right[i]
    return float(nodes.value[i])


def test_predict_equals_per_point_walk():
    space = mixed_space()
    hand = forest_from_tables(space, [
        split(3, {0, 2}, split(0, 0.25, leaf(0.1), split(5, 1 / 3, leaf(0.2), leaf(0.3))),
              split(2, 0.6, leaf(0.4), split(3, {1}, leaf(0.5), leaf(0.6)))),
        leaf(0.7)])
    fitted = fit_forest(mixed_trials(), space, n_trees=6, seed=6, min_leaf=1)
    rng = np.random.default_rng(3)
    for forest in (hand, fitted):
        Z = rng.uniform(size=(60, space.dim))
        Z[:, 3] = rng.integers(0, 3, len(Z))
        # points on every numeric threshold, and on the cube's edges 0.0 and 1.0
        on = [(tree.nodes.split_dim[i], tree.nodes.threshold[i]) for tree in forest.trees
              for i in np.flatnonzero(tree.nodes.split_dim >= 0) if tree.nodes.subset[i] is None]
        assert on
        for k, (dim, thr) in enumerate(on):
            Z[20 + k % 40, dim] = thr
        Z[:10, [0, 1, 2, 4, 5]] = 1.0
        Z[10:20, [0, 1, 2, 4, 5]] = 0.0
        ref = np.zeros(len(Z))
        for tree in forest.trees:
            ref += np.array([walk(tree.nodes, z) for z in Z])
        assert np.array_equal(predict(forest, Z), ref / forest.n_trees)


@pytest.mark.parametrize("kwargs", [
    dict(n_trees=0), dict(min_leaf=0), dict(min_leaf=-2), dict(max_depth=-1),
    dict(feature_frac=0.0), dict(feature_frac=1.5), dict(feature_frac=float("nan")),
])
def test_fit_rejects_bad_arguments(kwargs):
    with pytest.raises(ForestError, match="need n_trees >= 1"):
        fit_forest(mixed_trials(20), mixed_space(), **kwargs)


def test_fit_accepts_range_edges():
    forest = fit_forest(mixed_trials(20), mixed_space(), n_trees=1, min_leaf=1, max_depth=0,
                        feature_frac=1.0)
    assert len(forest.trees[0].predictions) == 1


# ---------------------------------------------------------------------------
# trees fitted in forked worker processes against the inline fit

def assert_same_forest(got, want) -> None:
    assert got.n_trees == want.n_trees
    for tg, tw in zip(got.trees, want.trees):
        for name in ("split_dim", "threshold", "left", "right", "value"):
            a, b = getattr(tg.nodes, name), getattr(tw.nodes, name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
        assert tg.nodes.subset == tw.nodes.subset
        for name in ("predictions", "lo", "hi", "extents", "volumes"):
            a, b = getattr(tg, name), getattr(tw, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert sorted(tg.cat_masks) == sorted(tw.cat_masks)
        for dim in tw.cat_masks:
            assert np.array_equal(tg.cat_masks[dim], tw.cat_masks[dim])


def spy_processes(monkeypatch, processes) -> set:
    """Make `processes` CPUs look usable; the returned set collects the pid
    of every process that builds a tree in the forest's fork_map."""
    pids = set()

    def spy(fn, items, n=None):
        for pid, tree in hyperspace.fork_map(lambda t: (os.getpid(), fn(t)), items, n):
            pids.add(pid)
            yield tree

    monkeypatch.setattr(hyperspace, "usable_cpus", lambda: processes)
    monkeypatch.setattr(forest_mod, "fork_map", spy)
    return pids


def fit_on(monkeypatch, processes, trials, space, **fit):
    """fit_forest as if `processes` CPUs were usable; also returns the number
    of distinct processes that built its trees."""
    pids = spy_processes(monkeypatch, processes)
    return fit_forest(trials, space, **fit), len(pids)


GAIN_TRIALS = trials_from_function(
    gain_space(), lambda u: 0.3 * u[1] + 0.4 * u[2] * u[3] + 0.2 * (u[0] - 0.5) ** 2, 100, seed=3)


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("space, trials, fit", [
    (gain_space(), GAIN_TRIALS, dict(n_trees=16, seed=1)),
    (mixed_space(), mixed_trials(80, seed=2), dict(n_trees=8, seed=2)),
    (mixed_space(), mixed_trials(80, seed=2), dict(n_trees=8, seed=2, bootstrap=False)),
    (gain_space(), GAIN_TRIALS, dict(n_trees=1, seed=4)),
    (mixed_space(), mixed_trials(60, seed=4), dict(n_trees=3, seed=4, min_leaf=1)),
], ids=["gain_space", "mixed", "mixed_no_bootstrap", "one_tree", "three_trees"])
def test_forked_fit_equals_inline_fit(monkeypatch, space, trials, fit, processes):
    want, inline = fit_on(monkeypatch, 1, trials, space, **fit)
    got, used = fit_on(monkeypatch, processes, trials, space, **fit)
    assert inline == 1 and used == min(fit["n_trees"], processes)
    assert_same_forest(got, want)
    assert_no_children()


def test_forest_worker_that_dies_raises_runtime_error(monkeypatch):
    parent, build = os.getpid(), forest_mod._build_tree

    def die_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return build(*args)

    monkeypatch.setattr(hyperspace, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forest_mod, "_build_tree", die_in_child)
    with pytest.raises(RuntimeError, match="worker process .* died"):
        fit_forest(mixed_trials(40), mixed_space(), n_trees=4)
    assert_no_children()


# ---------------------------------------------------------------------------
# several responses fitted in one fork_map call against one fit per response

FIVE = ["nu", "f1", "per_activity_nu[walk]", "per_activity_nu[run]", "per_activity_nu[still]"]


def with_activities(trials, seed: int = 0):
    """`trials` with three per-activity responses, each its own mix of nu
    and noise."""
    rng = np.random.default_rng(seed)
    return [dataclasses.replace(t, per_activity_nu={
        a: float(np.clip(w * t.nu + (1 - w) * rng.uniform(), 0.0, 1.0))
        for a, w in (("walk", 0.9), ("run", 0.5), ("still", 0.1))}) for t in trials]


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("space, trials, fit", [
    (gain_space(), with_activities(GAIN_TRIALS), dict(n_trees=8, seed=1)),
    (mixed_space(), with_activities(mixed_trials(80, seed=2)), dict(n_trees=6, seed=2)),
    (mixed_space(), with_activities(mixed_trials(80, seed=2)),
     dict(n_trees=6, seed=2, bootstrap=False)),
    (gain_space(), with_activities(GAIN_TRIALS), dict(n_trees=1, seed=4)),
], ids=["gain_space", "mixed", "mixed_no_bootstrap", "one_tree"])
def test_fit_forests_equals_one_fit_forest_per_response(monkeypatch, space, trials, fit,
                                                         processes):
    want = [fit_on(monkeypatch, 1, trials, space, response=r, **fit)[0] for r in FIVE]
    pids = spy_processes(monkeypatch, processes)
    got = fit_forests(trials, space, FIVE, **fit)
    assert len(pids) == processes  # 5 responses give at least 5 items
    assert [f.response for f in got] == FIVE
    for g, w in zip(got, want):
        assert (g.n_trials, g.seed) == (w.n_trials, w.seed)
        assert_same_forest(g, w)
    assert_no_children()


def test_fit_forests_worker_that_dies_raises_runtime_error(monkeypatch):
    parent, build = os.getpid(), forest_mod._build_tree

    def die_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return build(*args)

    monkeypatch.setattr(hyperspace, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forest_mod, "_build_tree", die_in_child)
    with pytest.raises(RuntimeError, match="worker process .* died"):
        fit_forests(with_activities(mixed_trials(40)), mixed_space(), FIVE, n_trees=2)
    assert_no_children()


def test_fit_forests_needs_a_response():
    with pytest.raises(ForestError, match="at least one response"):
        fit_forests(mixed_trials(20), mixed_space(), [])
