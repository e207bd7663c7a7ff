"""Regression forest over trial logs, with exact leaf-box geometry.

Trees are fitted in feature space: numeric params (continuous/integer) use
their unit-cube coordinate, categorical params their choice index. A tree is
a flat node table in preorder whose leaves are also kept as boxes (interval
per numeric dim, choice subset per categorical dim). Those leaf arrays are the
one exact-marginal engine: every marginal and variance is integrated from
them under the uniform measure, with no sampling (the leaf-partition fANOVA
of Hutter, Hoos & Leyton-Brown, 2014). A marginal at fixed values sums the
leaves whose boxes hold them (:func:`marginal_predict` here, and
:func:`harvana.fanova.pairwise_marginal_table` on a grid); a variance sums
over pairs of leaves (:func:`harvana.fanova.decompose`). :func:`predict`, a
walk of the node tables for all query points at once, is kept as the
independent point reference. A forest is stored as its node tables
(:func:`forest_to_json`), and :func:`load_forest` rebuilds the leaf arrays.

Split search is presorted (SLIQ; Mehta, Agrawal & Rissanen, 1996): a tree
sorts its sample once per numeric dim with a stable argsort, and children
inherit those orders by stable boolean compression, so ties stay in row
order as a per-node stable argsort leaves them. A node scores only the gaps
that leave min_leaf rows on each side. Parent SSE is computed per dim on
scalars, gains are compared in the node's drawn dim order with a strict
``>``, and categorical dims keep their prefix search on rows in row order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .hyperspace import (Configuration, SearchSpace, Trial, derive_rng, fork_map, to_unit,
                         validate_space)


class ForestError(ValueError):
    pass


@dataclass
class NodeTable:
    """One tree as per-node arrays in preorder: a node, its left subtree, then
    its right subtree. A leaf has split_dim -1 and children -1."""
    split_dim: np.ndarray                  # (N,) int
    threshold: np.ndarray                  # (N,) go left iff z < threshold; nan unless numeric
    subset: list[frozenset[int] | None]    # categorical split: go left iff index in subset
    left: np.ndarray                       # (N,) int
    right: np.ndarray                      # (N,) int
    value: np.ndarray                      # (N,) mean response of the node; a leaf's prediction


@dataclass
class TreeData:
    """A tree's node table plus flattened leaf geometry for fast exact integrals."""
    nodes: NodeTable
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


def activity_of(response: str) -> str | None:
    """The activity a `per_activity_nu[<activity>]` selector names, else None."""
    if response.startswith("per_activity_nu[") and response.endswith("]"):
        return response[len("per_activity_nu["):-1]
    return None


def response_value(trial: Trial, response: str) -> float:
    if response == "nu":
        return trial.nu
    if response == "f1":
        return trial.f1
    activity = activity_of(response)
    if activity is not None:
        return trial.per_activity_nu[activity]
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

def _best_numeric_splits(zs: np.ndarray, ys: np.ndarray, min_leaf: int) -> list:
    """Per row of the presorted (m, n) values zs and responses ys, n >= 2 *
    min_leaf: (gain, threshold) of the best SSE split, or None where no
    threshold between distinct values leaves min_leaf rows on each side."""
    n = zs.shape[1]
    a, b = min_leaf - 1, n - min_leaf  # legal gaps j in [a, b): rows 0..j go left
    counts = np.arange(a + 1, b + 1)
    valid = zs[:, a + 1:b + 1] != zs[:, a:b]
    csum, csq = np.cumsum(ys, axis=1), np.cumsum(ys * ys, axis=1)
    ls, lq = csum[:, a:b], csq[:, a:b]
    rs, rq = csum[:, -1:] - ls, csq[:, -1:] - lq
    sse = (lq - ls * ls / counts) + (rq - rs * rs / (n - counts))
    sse = np.where(valid, sse, np.inf)
    best, at = sse.argmin(axis=1), np.arange(len(sse))
    low = sse[at, best].tolist()
    za, zb = zs[at, a + best].tolist(), zs[at, a + best + 1].tolist()
    tot, sq = csum[:, -1].tolist(), csq[:, -1].tolist()
    # an inf minimum: no legal gap. Parent SSE on floats, as on numpy scalars:
    # an array ** 2 can round one ulp differently and flip a near-tied choice
    return [None if low[c] == math.inf else
            (sq[c] - tot[c] ** 2 / n - low[c], 0.5 * (za[c] + zb[c])) for c in range(len(low))]


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
                rng: np.random.Generator) -> NodeTable:
    n, d = Z.shape
    num = [dim for dim in range(d) if dim not in cat_dims]
    Zt = Z[:, num].T
    ids = np.argsort(Zt, axis=1, kind="stable")
    # the tree's one sort: sample rows, values and responses, sorted per dim
    # and flattened; a node holds (m, n_node) positions into them
    rows_by, z_by, y_by = ids.ravel(), np.take_along_axis(Zt, ids, axis=1).ravel(), y[ids].ravel()
    table: list[list] = []  # per node, the NodeTable fields in order
    # depth first, left child first: the order of the dim draws. A loop, since a
    # recursive closure would keep the tree's arrays until the cycle collector
    # ran. Entry: the node's rows in row order, its parent's positions, which
    # are the node's (None at the root), depth, the node it is right child of.
    stack = [(np.arange(n), np.arange(ids.size).reshape(ids.shape), None, 0, None)]
    while stack:
        rows, pos, keep, depth, parent = stack.pop()
        if parent is not None:
            parent[4] = len(table)
        ys = y[rows]
        # a leaf until it splits; ys.sum() / n is ys.mean() without its wrapper
        table.append(node := [-1, math.nan, None, -1, -1, float(ys.sum() / len(ys))])
        if depth >= max_depth or len(rows) < 2 * min_leaf or ys.max() - ys.min() == 0.0:
            continue
        if keep is not None:  # compressed only for nodes that search
            pos = pos[keep].reshape(len(num), len(rows))
        dims = (rng.choice(d, size=n_features, replace=False) if n_features < d
                else np.arange(d)).tolist()
        # every numeric dim is searched, the drawn ones are read
        found = dict(zip(num, _best_numeric_splits(z_by.take(pos), y_by.take(pos), min_leaf)))
        best = (0.0, None, None)  # gain, dim, payload
        for dim in dims:
            res = (_best_categorical_split(Z[rows, dim], ys, min_leaf) if dim in cat_dims
                   else found[dim])
            if res is not None and res[0] > best[0]:
                best = (res[0], dim, res[1])
        if best[1] is None:
            continue
        _, dim, payload = best
        cat = dim in cat_dims
        side = np.isin(Z[:, dim].astype(int), list(payload)) if cat else Z[:, dim] < payload
        node[:3] = (dim, math.nan, payload) if cat else (dim, float(payload), None)
        node[3] = len(table)  # the left child is next in preorder
        go, mask = side[rows_by.take(pos)], side[rows]
        stack.append((rows[~mask], pos, ~go, depth + 1, node))
        stack.append((rows[mask], pos, go, depth + 1, None))
    split_dim, threshold, subset, left, right, value = zip(*table)
    return NodeTable(np.array(split_dim), np.array(threshold), list(subset),
                     np.array(left), np.array(right), np.array(value))


def _left_choices(nodes: NodeTable, width: int) -> np.ndarray:
    """(N, width) bool: the choice indices each categorical split sends left."""
    goes_left = np.zeros((len(nodes.subset), width), dtype=bool)
    for i, s in enumerate(nodes.subset):
        if s is not None:
            goes_left[i, list(s)] = True
    return goes_left


def _tree_data(nodes: NodeTable, space: SearchSpace) -> TreeData:
    """Leaf boxes of a preorder node table, leaves in preorder. One level at
    a time, every child takes its parent's box and narrows the split dim."""
    N, d = len(nodes.value), space.dim
    cat_sizes = {i: p.n_choices for i, p in enumerate(space.params) if p.kind == "categorical"}
    goes_left = _left_choices(nodes, max(p.n_choices for p in space.params))
    lo, hi = np.zeros((N, d)), np.ones((N, d))
    masks = {dim: np.ones((N, k), dtype=bool) for dim, k in cat_sizes.items()}
    level = np.zeros(1, dtype=int)
    while len(level):
        inner = level[nodes.split_dim[level] >= 0]
        sd, lt, rt = nodes.split_dim[inner], nodes.left[inner], nodes.right[inner]
        for box in (lo, hi, *masks.values()):
            box[lt] = box[rt] = box[inner]
        num = ~np.isnan(nodes.threshold[inner])
        hi[lt[num], sd[num]] = lo[rt[num], sd[num]] = nodes.threshold[inner[num]]
        for dim, k in cat_sizes.items():
            on = sd == dim
            masks[dim][lt[on]] &= goes_left[inner[on], :k]
            masks[dim][rt[on]] &= ~goes_left[inner[on], :k]
        level = np.concatenate([lt, rt])
    leaves = np.flatnonzero(nodes.split_dim < 0)
    lo, hi = lo[leaves], hi[leaves]
    extents = hi - lo
    cat_masks = {dim: m[leaves] for dim, m in masks.items()}
    for dim, k in cat_sizes.items():
        extents[:, dim] = cat_masks[dim].sum(axis=1) / k
    return TreeData(nodes=nodes, predictions=nodes.value[leaves], lo=lo, hi=hi,
                    cat_masks=cat_masks, extents=extents, volumes=extents.prod(axis=1))


def forest_from_tables(space: SearchSpace, tables: Sequence[NodeTable],
                       response: str = "nu") -> Forest:
    """Wrap hand-built node tables (e.g. planted splits) in a Forest."""
    return Forest([_tree_data(t, space) for t in tables], space, response, n_trials=0)


def fit_forest(trials: Sequence[Trial], space: SearchSpace, response: str = "nu",
               n_trees: int = 64, max_depth: int = 10, min_leaf: int = 3,
               feature_frac: float = 5 / 6, seed: int = 0,
               bootstrap: bool = True) -> Forest:
    """The forest of one response: fit_forests with `[response]`."""
    return fit_forests(trials, space, [response], n_trees, max_depth, min_leaf, feature_frac,
                       seed, bootstrap)[0]


def fit_forests(trials: Sequence[Trial], space: SearchSpace, responses: Sequence[str],
                n_trees: int = 64, max_depth: int = 10, min_leaf: int = 3,
                feature_frac: float = 5 / 6, seed: int = 0,
                bootstrap: bool = True) -> list[Forest]:
    """One regression forest of axis-aligned trees per response, fitted by
    variance reduction on the same trials.

    Bootstrap per tree, random feature subset of size ceil(d*feature_frac)
    per node. Deterministic for a fixed seed: tree t of every response draws
    only from derive_rng(seed, t), so a forest does not depend on which
    process (hyperspace.fork_map) fitted which tree, nor on which other
    responses were fitted with it. The trials are encoded once, and the
    trees of all responses share one fork_map call.
    """
    validate_space(space)
    if not responses:
        raise ForestError("need at least one response")
    if not (n_trees >= 1 and min_leaf >= 1 and max_depth >= 0 and 0.0 < feature_frac <= 1.0):
        raise ForestError("need n_trees >= 1, min_leaf >= 1, max_depth >= 0, 0 < feature_frac <= 1;"
                          f" got {n_trees}, {min_leaf}, {max_depth}, {feature_frac}")
    if len({t.config.key() for t in trials}) < 2:
        raise ForestError("need at least 2 trials with distinct configs")
    Z = np.stack([encode_config(space, t.config) for t in trials])
    ys = [np.array([response_value(t, r) for t in trials]) for r in responses]
    d = space.dim
    cat_dims = {i: p.n_choices for i, p in enumerate(space.params) if p.kind == "categorical"}
    n_features = min(d, max(1, math.ceil(d * feature_frac)))

    def one_tree(item: tuple[int, int]) -> TreeData:
        y, t = ys[item[0]], item[1]
        rng = derive_rng(seed, t)
        rows = rng.integers(0, len(y), len(y)) if bootstrap else np.arange(len(y))
        return _tree_data(_build_tree(Z[rows], y[rows], cat_dims, max_depth, min_leaf,
                                      n_features, rng), space)

    # one process per usable CPU, each fitting a contiguous range of
    # (response, tree) items
    trees = list(fork_map(one_tree, [(r, t) for r in range(len(ys)) for t in range(n_trees)]))
    return [Forest(trees=trees[r * n_trees:(r + 1) * n_trees], space=space, response=response,
                   n_trials=len(trials), seed=seed) for r, response in enumerate(responses)]


# ---------------------------------------------------------------------------
# prediction

def predict(forest: Forest, Z: np.ndarray) -> np.ndarray:
    """Mean point prediction over trees; Z rows in feature space. Each node
    table is walked for all rows at once, one level per step."""
    Z = np.atleast_2d(Z)
    width = max(p.n_choices for p in forest.space.params)
    out = np.zeros(len(Z))
    for tree in forest.trees:
        nodes, at = tree.nodes, np.zeros(len(Z), dtype=int)
        goes_left = _left_choices(nodes, width)
        while len(walking := np.flatnonzero(nodes.split_dim[at] >= 0)):
            node = at[walking]
            z, thr = Z[walking, nodes.split_dim[node]], nodes.threshold[node]
            go, cat = z < thr, np.isnan(thr)
            go[cat] = goes_left[node[cat], z[cat].astype(int)]
            at[walking] = np.where(go, nodes.left[node], nodes.right[node])
        out += nodes.value[at]
    return out / forest.n_trees


def _leaves_containing(tree: TreeData, dim: int, z: np.ndarray) -> np.ndarray:
    """(L, len(z)) bool: whether each leaf's box holds each feature value z
    on dim.

    Numeric boxes are half-open [lo, hi) like the walk's z < split_value,
    with the cube's top edge hi == 1.0 closed."""
    if dim in tree.cat_masks:
        return tree.cat_masks[dim][:, z.astype(np.intp)]
    lo, hi = tree.lo[:, dim, None], tree.hi[:, dim, None]
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
            inside &= _leaves_containing(tree, dim, np.array([z]))[:, 0]
        # extent product over the free dims, not volume / fixed extents: a
        # zero-width box then weighs 0 instead of 0/0
        total += float(tree.predictions[inside] @ tree.extents[inside][:, free].prod(axis=1))
    return total / forest.n_trees


# ---------------------------------------------------------------------------
# JSON codec: the node tables are stored, and the leaf arrays rebuilt on load

TABLE_KEYS = ("split_dim", "threshold", "subset", "left", "right", "value")


def forest_to_json(forest: Forest) -> dict:
    """`forest` as strict JSON: per tree, its node table as one list per
    NodeTable field; a NaN threshold (a leaf or a categorical split) is null,
    a categorical subset a sorted list of choice indices."""
    trees = [{"split_dim": t.nodes.split_dim.tolist(),
              "threshold": [None if math.isnan(x) else x for x in t.nodes.threshold.tolist()],
              "subset": [None if s is None else sorted(s) for s in t.nodes.subset],
              "left": t.nodes.left.tolist(), "right": t.nodes.right.tolist(),
              "value": t.nodes.value.tolist()} for t in forest.trees]
    return {"response": forest.response, "params": list(forest.space.names), "trees": trees}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _table_from_json(tree, space: SearchSpace, where: str) -> NodeTable:
    """The node table `tree` holds; ForestError naming `where` and the node
    unless it is a preorder table over `space`."""
    if not isinstance(tree, Mapping):
        raise ForestError(f"{where}: expected an object, got {tree!r}")
    if missing := [k for k in TABLE_KEYS if k not in tree]:
        raise ForestError(f"{where}: missing keys {missing}")
    columns = [tree[k] for k in TABLE_KEYS]
    lengths = [len(c) if isinstance(c, list) else None for c in columns]
    if None in lengths or len(set(lengths)) != 1 or not lengths[0]:
        raise ForestError(f"{where}: {', '.join(TABLE_KEYS)} must be non-empty lists of one "
                          f"length, got lengths {lengths}")
    n = lengths[0]
    for i, (dim, thr, sub, lt, rt, v) in enumerate(zip(*columns)):
        node = f"{where} node {i}"
        if not (all(type(x) is int for x in (dim, lt, rt)) and _finite(v)):
            raise ForestError(f"{node}: split_dim, left and right must be integers and value "
                              f"a finite number, got {dim!r}, {lt!r}, {rt!r}, {v!r}")
        if not -1 <= dim < space.dim:
            raise ForestError(f"{node}: split dim {dim} out of range [-1, {space.dim})")
        if dim == -1:
            if (lt, rt, thr, sub) != (-1, -1, None, None):
                raise ForestError(f"{node}: a leaf has children -1 and no threshold or subset")
            continue
        # preorder: both children come after their parent, so a walk ends
        if not (i < lt < n and i < rt < n):
            raise ForestError(f"{node}: child index ({lt}, {rt}) out of range ({i}, {n})")
        p = space.params[dim]
        if p.kind != "categorical":
            if not (_finite(thr) and sub is None):
                raise ForestError(f"{node}: a split on {p.name!r} needs a finite threshold and "
                                  f"no subset, got {thr!r} and {sub!r}")
        elif not (thr is None and isinstance(sub, list) and sub
                  and all(type(c) is int and 0 <= c < p.n_choices for c in sub)):
            raise ForestError(f"{node}: a split on {p.name!r} needs a non-empty subset of "
                              f"choices in [0, {p.n_choices}) and no threshold, got {sub!r} "
                              f"and {thr!r}")
    split_dim, threshold, subset, left, right, value = columns
    return NodeTable(np.array(split_dim), np.array([math.nan if x is None else float(x)
                                                     for x in threshold]),
                     [None if s is None else frozenset(s) for s in subset],
                     np.array(left), np.array(right), np.array(value, dtype=float))


def forest_from_json(doc, space: SearchSpace, source: str = "forest") -> Forest:
    """The forest `doc` holds over `space`, its leaf arrays rebuilt by
    forest_from_tables. ForestError naming `source` unless every key is
    there, the params are the space's names in order, and every tree is a
    preorder node table over the space."""
    keys = ("response", "params", "trees")
    if not isinstance(doc, Mapping):
        raise ForestError(f"{source}: a forest must be a JSON object")
    if missing := [k for k in keys if k not in doc]:
        raise ForestError(f"{source}: missing keys {missing}")
    if doc["params"] != list(space.names):
        raise ForestError(f"{source}: params {doc['params']!r} are not the space's "
                          f"{list(space.names)}")
    if not (isinstance(doc["trees"], list) and doc["trees"]):
        raise ForestError(f"{source}: trees must be a non-empty list")
    tables = [_table_from_json(tree, space, f"{source}: tree {t}")
              for t, tree in enumerate(doc["trees"])]
    return forest_from_tables(space, tables, str(doc["response"]))


def load_forest(path: str | Path, space: SearchSpace) -> Forest:
    """The forest the JSON file `path` holds (forest_from_json), naming
    `path` in any ForestError."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ForestError(f"{path}: not JSON: {e}") from None
    return forest_from_json(doc, space, source=str(path))
