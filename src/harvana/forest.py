"""Regression forest over trial logs, with exact leaf-box geometry.

Trees are fitted in feature space: numeric params (continuous/integer) use
their unit-cube coordinate, categorical params their choice index. Each tree
is flattened into its leaf boxes (interval per numeric dim, choice subset per
categorical dim). Those leaf arrays are the one exact-marginal engine: both
:func:`marginal_predict` here and the variance decomposition in
:mod:`harvana.fanova` integrate them under the uniform measure instead of
sampling (the leaf-partition fANOVA of Hutter, Hoos & Leyton-Brown, 2014).
The tree walk in :func:`predict` is kept as the independent point reference.

Split search: a node gathers its numeric candidate dims into one (n, m)
block and finds every column's best SSE split with one stable argsort, two
running sums and one argmin along axis 0. Each column's parent SSE is
computed on scalars, as a one-column search does: an array ``** 2`` can
round one ulp differently from the scalar one and flip a near-tied choice
between dims. Gains are then compared in the node's drawn dim order with a
strict ``>``, and categorical dims keep their own prefix search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hyperspace import Configuration, SearchSpace, Trial, derive_rng, to_unit, validate_space


class ForestError(ValueError):
    pass


@dataclass
class TreeNode:
    """Internal node (split_dim set) or leaf (prediction set)."""
    split_dim: int | None = None
    split_value: float | None = None            # numeric: go left iff z < split_value
    split_subset: frozenset[int] | None = None  # categorical: go left iff index in subset
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    prediction: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class TreeData:
    """A fitted tree plus flattened leaf geometry for fast exact integrals."""
    root: TreeNode
    predictions: np.ndarray              # (L,)
    lo: np.ndarray                       # (L, d) numeric lower edges (cat dims unused)
    hi: np.ndarray                       # (L, d) numeric upper edges
    cat_masks: dict[int, np.ndarray]     # dim -> (L, n_choices) bool
    extents: np.ndarray                  # (L, d) per-dim extent of each leaf box
    volumes: np.ndarray                  # (L,)


@dataclass
class Forest:
    trees: list[TreeData]
    space: SearchSpace
    response: str
    n_trials: int
    seed: int | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def dims(self) -> tuple[str, ...]:
        return self.space.names


def response_value(trial: Trial, response: str) -> float:
    if response == "nu":
        return trial.nu
    if response == "f1":
        return trial.f1
    if response.startswith("per_activity_nu[") and response.endswith("]"):
        return trial.per_activity_nu[response[len("per_activity_nu["):-1]]
    raise ForestError(f"unknown response selector {response!r}")


def encode_config(space: SearchSpace, config: Configuration) -> np.ndarray:
    """Feature vector: unit coordinate for numeric dims, choice index for categorical."""
    return np.array([unit_to_feature(space, i, u) for i, u in enumerate(to_unit(space, config))])


def unit_to_feature(space: SearchSpace, dim: int, u: float) -> float:
    """Map a unit-space coordinate to feature space (cat: snap to choice index)."""
    p = space.params[dim]
    if p.kind == "categorical":
        return float(int(round(u * (p.n_choices - 1))))
    return float(u)


# ---------------------------------------------------------------------------
# fitting

def _best_numeric_splits(Zb: np.ndarray, y: np.ndarray, min_leaf: int) -> list:
    """Per column of the (n, m) block: (gain, threshold) of the best SSE split,
    or None where no threshold between distinct values leaves min_leaf rows
    on each side."""
    n = len(y)
    order = np.argsort(Zb, axis=0, kind="stable")
    zs = np.take_along_axis(Zb, order, axis=0)
    ys = y[order]
    counts = np.arange(1, n)[:, None]
    valid = (zs[1:] != zs[:-1]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    ls, lq = csum[:-1], csq[:-1]
    rs, rq = csum[-1] - ls, csq[-1] - lq
    sse = (lq - ls * ls / counts) + (rq - rs * rs / (n - counts))
    sse = np.where(valid, sse, np.inf)
    best = np.argmin(sse, axis=0)
    out: list = []
    for c, j in enumerate(best.tolist()):
        if not valid[j, c]:  # argmin lands on an invalid row only if all are
            out.append(None)
            continue
        # parent SSE on scalars: an array ** 2 can round one ulp differently
        parent_sse = csq[-1, c] - csum[-1, c] ** 2 / n
        out.append((parent_sse - sse[j, c], 0.5 * (zs[j, c] + zs[j + 1, c])))
    return out


def _best_categorical_split(z: np.ndarray, y: np.ndarray, min_leaf: int):
    """Prefix split over choices ordered by mean response (optimal for SSE)."""
    idx = z.astype(int)
    choices = np.unique(idx)
    if len(choices) < 2:
        return None
    sums = np.array([y[idx == c].sum() for c in choices])
    sqs = np.array([(y[idx == c] ** 2).sum() for c in choices])
    cnts = np.array([(idx == c).sum() for c in choices])
    order = np.argsort(sums / cnts, kind="stable")
    sums, sqs, cnts, choices = sums[order], sqs[order], cnts[order], choices[order]
    n = cnts.sum()
    lc = np.cumsum(cnts)[:-1]
    ls = np.cumsum(sums)[:-1]
    lq = np.cumsum(sqs)[:-1]
    rc, rs, rq = n - lc, sums.sum() - ls, sqs.sum() - lq
    valid = (lc >= min_leaf) & (rc >= min_leaf)
    if not valid.any():
        return None
    sse = (lq - ls * ls / lc) + (rq - rs * rs / rc)
    sse = np.where(valid, sse, np.inf)
    j = int(np.argmin(sse))
    parent_sse = sqs.sum() - sums.sum() ** 2 / n
    gain = parent_sse - sse[j]
    left_choices = frozenset(int(c) for c in choices[: j + 1])
    return gain, left_choices


def _build_tree(Z: np.ndarray, y: np.ndarray, cat_dims: dict[int, int],
                max_depth: int, min_leaf: int, n_features: int,
                rng: np.random.Generator) -> TreeNode:
    d = Z.shape[1]

    def rec(rows: np.ndarray, depth: int) -> TreeNode:
        ys = y[rows]
        node = TreeNode(prediction=float(ys.mean()))
        if depth >= max_depth or len(rows) < 2 * min_leaf or np.ptp(ys) == 0.0:
            return node
        dims = rng.choice(d, size=n_features, replace=False) if n_features < d else np.arange(d)
        num = [int(dim) for dim in dims if dim not in cat_dims]
        found = dict(zip(num, _best_numeric_splits(Z[np.ix_(rows, num)], ys, min_leaf)))
        best = (0.0, None, None)  # gain, dim, payload
        for dim in dims:
            if dim in cat_dims:
                res = _best_categorical_split(Z[rows, dim], ys, min_leaf)
            else:
                res = found[int(dim)]
            if res is not None and res[0] > best[0]:
                best = (res[0], int(dim), res[1])
        if best[1] is None:
            return node
        _, dim, payload = best
        if dim in cat_dims:
            mask = np.isin(Z[rows, dim].astype(int), list(payload))
            node.split_subset = payload
        else:
            mask = Z[rows, dim] < payload
            node.split_value = float(payload)
        node.split_dim = dim
        node.prediction = None
        node.left = rec(rows[mask], depth + 1)
        node.right = rec(rows[~mask], depth + 1)
        return node

    return rec(np.arange(len(y)), 0)


def _collect_leaves(root: TreeNode, space: SearchSpace) -> TreeData:
    d = space.dim
    cat_sizes = {i: p.n_choices for i, p in enumerate(space.params) if p.kind == "categorical"}
    leaves: list[tuple[float, list]] = []  # (prediction, per dim (lo, hi) or choice set)

    def rec(node: TreeNode, box: list):
        if node.is_leaf:
            leaves.append((node.prediction, list(box)))
            return
        dim = node.split_dim
        saved = box[dim]
        if node.split_subset is not None:
            left = set(saved) & set(node.split_subset)
            right = set(saved) - set(node.split_subset)
            box[dim] = left
            rec(node.left, box)
            box[dim] = right
            rec(node.right, box)
        else:
            box[dim] = (saved[0], node.split_value)
            rec(node.left, box)
            box[dim] = (node.split_value, saved[1])
            rec(node.right, box)
        box[dim] = saved

    init: list = [set(range(cat_sizes[i])) if i in cat_sizes else (0.0, 1.0) for i in range(d)]
    rec(root, init)

    L = len(leaves)
    preds = np.array([pred for pred, _ in leaves])
    lo = np.zeros((L, d))
    hi = np.ones((L, d))
    extents = np.ones((L, d))
    cat_masks = {dim: np.zeros((L, n), dtype=bool) for dim, n in cat_sizes.items()}
    for li, (_, box) in enumerate(leaves):
        for dim in range(d):
            if dim in cat_sizes:
                for c in box[dim]:
                    cat_masks[dim][li, c] = True
                extents[li, dim] = len(box[dim]) / cat_sizes[dim]
            else:
                lo[li, dim], hi[li, dim] = box[dim]
                extents[li, dim] = box[dim][1] - box[dim][0]
    return TreeData(root=root, predictions=preds, lo=lo, hi=hi,
                    cat_masks=cat_masks, extents=extents,
                    volumes=extents.prod(axis=1))


def forest_from_roots(space: SearchSpace, roots: Sequence[TreeNode],
                      response: str = "nu") -> Forest:
    """Wrap hand-built trees (e.g. planted splits) in a Forest."""
    trees = [_collect_leaves(r, space) for r in roots]
    return Forest(trees=trees, space=space, response=response, n_trials=0)


def fit_forest(trials: Sequence[Trial], space: SearchSpace, response: str = "nu",
               n_trees: int = 64, max_depth: int = 10, min_leaf: int = 3,
               feature_frac: float = 5 / 6, seed: int = 0,
               bootstrap: bool = True) -> Forest:
    """Fit a regression forest of axis-aligned trees by variance reduction.

    Bootstrap per tree, random feature subset of size ceil(d*feature_frac)
    per node. Deterministic for a fixed seed.
    """
    validate_space(space)
    if len({t.config.key() for t in trials}) < 2:
        raise ForestError("need at least 2 trials with distinct configs")
    Z = np.stack([encode_config(space, t.config) for t in trials])
    y = np.array([response_value(t, response) for t in trials])
    d = space.dim
    cat_dims = {i: p.n_choices for i, p in enumerate(space.params) if p.kind == "categorical"}
    n_features = min(d, max(1, math.ceil(d * feature_frac)))

    def one_tree(t: int) -> TreeData:
        rng = derive_rng(seed, t)
        rows = rng.integers(0, len(y), len(y)) if bootstrap else np.arange(len(y))
        root = _build_tree(Z[rows], y[rows], cat_dims, max_depth, min_leaf, n_features, rng)
        return _collect_leaves(root, space)

    trees = [one_tree(t) for t in range(n_trees)]
    return Forest(trees=trees, space=space, response=response,
                  n_trials=len(trials), seed=seed)


# ---------------------------------------------------------------------------
# prediction

def _tree_point_predict(root: TreeNode, z: np.ndarray) -> float:
    node = root
    while not node.is_leaf:
        if node.split_subset is not None:
            node = node.left if int(z[node.split_dim]) in node.split_subset else node.right
        else:
            node = node.left if z[node.split_dim] < node.split_value else node.right
    return node.prediction


def predict(forest: Forest, Z: np.ndarray) -> np.ndarray:
    """Mean point prediction over trees; Z rows in feature space."""
    Z = np.atleast_2d(Z)
    out = np.zeros(len(Z))
    for tree in forest.trees:
        out += np.array([_tree_point_predict(tree.root, z) for z in Z])
    return out / forest.n_trees


def _leaves_containing(tree: TreeData, dim: int, z: float) -> np.ndarray:
    """Leaves whose box holds feature value z on dim.

    Numeric boxes are half-open [lo, hi) like the walk's z < split_value,
    with the cube's top edge hi == 1.0 closed."""
    if dim in tree.cat_masks:
        return tree.cat_masks[dim][:, int(z)]
    lo, hi = tree.lo[:, dim], tree.hi[:, dim]
    return (lo <= z) & ((z < hi) | (hi == 1.0))


def marginal_predict(forest: Forest, subset: Sequence[str], theta: Sequence[float]) -> float:
    """Forest marginal at unit-space values `theta` for the params in `subset`.

    Exact average over all completions of the free params: per tree, the sum
    over the leaves whose box contains the fixed point of prediction times
    the box's extent along every free dim."""
    if not subset:
        raise ForestError("subset must be non-empty")
    names = list(forest.space.names)
    fixed: dict[int, float] = {}
    for name, u in zip(subset, theta, strict=True):
        if name not in names:
            raise ForestError(f"unknown param {name!r}")
        dim = names.index(name)
        if not (0.0 <= u <= 1.0):
            raise ForestError(f"theta for {name!r} outside unit bounds: {u}")
        fixed[dim] = unit_to_feature(forest.space, dim, u)
    free = [dim for dim in range(forest.space.dim) if dim not in fixed]
    total = 0.0
    for tree in forest.trees:
        inside = np.ones(len(tree.predictions), dtype=bool)
        for dim, z in fixed.items():
            inside &= _leaves_containing(tree, dim, z)
        # extent product over the free dims, not volume / fixed extents: a
        # zero-width box then weighs 0 instead of 0/0
        total += float(tree.predictions[inside] @ tree.extents[inside][:, free].prod(axis=1))
    return total / forest.n_trees
