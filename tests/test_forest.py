import numpy as np
import pytest

from harvana.forest import (
    ForestError,
    TreeNode,
    encode_config,
    fit_forest,
    forest_from_roots,
    marginal_predict,
    predict,
)
from harvana.hyperspace import Configuration, ParamSpec, SearchSpace

from conftest import make_trial, trials_from_function, unit_space


def leaf(pred: float) -> TreeNode:
    return TreeNode(prediction=pred)


def split(dim: int, thr: float, left: TreeNode, right: TreeNode) -> TreeNode:
    return TreeNode(split_dim=dim, split_value=thr, left=left, right=right)


def grid_points(res: int) -> np.ndarray:
    return (np.arange(res) + 0.5) / res


def random_planted_root(rng, d: int, res: int = 20, max_depth: int = 4) -> TreeNode:
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
    numeric = forest_from_roots(unit_space(3), [random_planted_root(rng, 3) for _ in range(5)])
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
    forest = forest_from_roots(space, [leaf(0.7)])
    assert marginal_predict(forest, ["x0"], [0.3]) == pytest.approx(0.7, abs=1e-15)
    assert marginal_predict(forest, ["x1"], [0.9]) == pytest.approx(0.7, abs=1e-15)


def test_marginal_matches_brute_force_enumeration():
    space = unit_space(3)
    rng = np.random.default_rng(23)
    forest = forest_from_roots(space, [random_planted_root(rng, 3) for _ in range(4)])
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
    forest = forest_from_roots(space, [leaf(0.5)])
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
        got = _best_numeric_splits(Z, y, min_leaf)
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


def test_fitted_forest_matches_one_column_search(monkeypatch):
    """One fixed fit, leaf arrays compared bit for bit against the same fit
    with the one-column reference search. min_leaf=1 makes near-tied gains
    between dims common, so a parent SSE that rounds one ulp off (an array
    ** 2 instead of the scalar one) changes this forest."""
    import harvana.forest as forest_mod
    space = SearchSpace(params=(
        ParamSpec("a", "continuous", 0.0, 1.0),
        ParamSpec("lr", "continuous", 1e-4, 1e-1, prior="log"),
        ParamSpec("k", "integer", 1, 6),
        ParamSpec("mode", "categorical", choices=("x", "y", "z")),
        ParamSpec("b", "continuous", 0.0, 1.0),
        ParamSpec("c", "integer", 0, 3),
    ))
    trials = trials_from_function(
        space, lambda u: 0.2 + 0.3 * np.sin(4 * u[0]) * u[2] + 0.2 * u[3]
        + 0.2 * u[1] * u[4] + 0.1 * u[5], 120, seed=6)
    got = fit_forest(trials, space, n_trees=16, seed=6, min_leaf=1)
    monkeypatch.setattr(forest_mod, "_best_numeric_splits", lambda Zb, y, min_leaf: [
        naive_best_numeric_split(Zb[:, c], y, min_leaf) for c in range(Zb.shape[1])])
    ref = fit_forest(trials, space, n_trees=16, seed=6, min_leaf=1)
    assert len(got.trees) == len(ref.trees)
    for tg, tr in zip(got.trees, ref.trees):
        for name in ("predictions", "lo", "hi"):
            assert np.array_equal(getattr(tg, name), getattr(tr, name))
        assert sorted(tg.cat_masks) == sorted(tr.cat_masks)
        for dim in tr.cat_masks:
            assert np.array_equal(tg.cat_masks[dim], tr.cat_masks[dim])
