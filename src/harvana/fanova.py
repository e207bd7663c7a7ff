"""Functional-ANOVA decomposition of a regression forest.

Works exactly on the leaf-box geometry (no sampling): per tree, the total
variance under the uniform measure, every first-order variance share F_u,
and every pairwise share F_{u,v} are computed from piecewise-constant 1-d
and 2-d marginals whose breakpoints are the leaf edges. Shares are averaged
over trees as per-tree ratios, so each tree contributes values in [0, 1].
The decomposition is truncated at order 2.

The numeric dims of one tree are handled in one pass per step: one stable
sort finds every dim's leaf edges, one bincount and one cumsum give every
1-d marginal, and one bincount and two cumsums give every numeric x numeric
pair's 2-d marginal. Each dim or pair owns a block of a zero-padded grid
(S = the tree's largest segment count + 1); bins are disjoint across blocks
and bincount adds in input order, so every block equals its one-at-a-time
result bit for bit. The centred squared 2-d marginal is formed on the padded
grid, and only the final sum runs per pair, over a compact copy of the
pair's own block: numpy's pairwise summation depends on the length and
layout of what it sums, so padding must never enter a sum. Pairs with a
categorical param keep their per-leaf loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .forest import Forest, ForestError, TreeData, unit_to_feature
from .hyperspace import SearchSpace, write_json

EPS = 1e-9


@dataclass
class ImportanceReport:
    response: str
    params: tuple[str, ...]
    total_variance: float
    individual: dict[str, float]
    pairwise: dict[tuple[str, str], float]
    degenerate: bool = False

    def pair(self, u: str, v: str) -> float:
        i, j = self.params.index(u), self.params.index(v)
        key = (u, v) if i < j else (v, u)
        return self.pairwise[key]


class _DimGrid:
    """Segment structure of one dimension of one tree: a numeric dim's
    distinct leaf edges (a, b: each leaf's lo and hi edge index), or a
    categorical dim's choices (mask: each leaf's choice subset)."""

    def __init__(self, n_segments: int, lengths: np.ndarray, edges=None, a=None, b=None,
                 mask=None):
        self.categorical = mask is not None
        self.n_segments = n_segments
        self.lengths = lengths
        self.edges, self.a, self.b, self.mask = edges, a, b, mask

    def segments(self, z: np.ndarray) -> np.ndarray:
        """Segment index containing each feature-space value."""
        if self.categorical:
            return z.astype(np.intp)
        j = np.searchsorted(self.edges, z, side="right") - 1
        return np.clip(j, 0, self.n_segments - 1)


def _dim_grids(tree: TreeData, dims: Sequence[int]) -> list[_DimGrid]:
    """Grids of the given dims of one tree. The numeric dims share one stable
    sort of their leaf edges: the distinct values in order are np.unique's,
    and an edge's rank among them is what searchsorted would return."""
    grids = {}
    num = [dim for dim in dims if dim not in tree.cat_masks]
    if num:
        L = len(tree.predictions)
        X = np.concatenate([tree.lo[:, num], tree.hi[:, num]]).T
        order = np.argsort(X, axis=1, kind="stable")
        xs = np.take_along_axis(X, order, axis=1)
        first = np.ones(xs.shape, dtype=bool)
        first[:, 1:] = xs[:, 1:] != xs[:, :-1]
        rank = np.empty(X.shape, dtype=np.intp)
        np.put_along_axis(rank, order, np.cumsum(first, axis=1) - 1, axis=1)
        for r, dim in enumerate(num):
            edges = xs[r, first[r]]
            grids[dim] = _DimGrid(len(edges) - 1, np.diff(edges), edges=edges,
                                  a=rank[r, :L], b=rank[r, L:])
    for dim in dims:
        if dim in tree.cat_masks:
            mask = tree.cat_masks[dim]
            n = mask.shape[1]
            grids[dim] = _DimGrid(n, np.full(n, 1.0 / n), mask=mask)
    return [grids[dim] for dim in dims]


def _numeric_marginals(tree: TreeData, grids: Sequence[_DimGrid], dims: Sequence[int]) -> np.ndarray:
    """E[f | z_dim in segment] for numeric dims, exact: row r starts with
    dims[r]'s n segments; rows are S long, the largest segment count + 1. One
    bincount adds each dim's +c and -c terms into its own block in the order
    two add.at calls would."""
    S = max(g.n_segments for g in grids) + 1
    c = (tree.predictions * tree.volumes) / tree.extents[:, dims].T
    block = (np.arange(len(dims)) * S)[:, None]
    idx = np.concatenate([block + np.stack([g.a for g in grids]),
                          block + np.stack([g.b for g in grids])], axis=1)
    D = np.bincount(idx.ravel(), weights=np.concatenate([c, -c], axis=1).ravel(),
                    minlength=len(dims) * S).reshape(len(dims), S)
    return np.cumsum(D, axis=1)


def _marginal_1d(tree: TreeData, grid: _DimGrid, dim: int) -> np.ndarray:
    """E[f | z_dim in segment] per segment, exact."""
    if grid.categorical:
        # c = pred * prod of other extents, constant across the covered subset
        return tree.cat_masks[dim].T @ (tree.predictions * tree.volumes / tree.extents[:, dim])
    return _numeric_marginals(tree, [grid], [dim])[0, : grid.n_segments]


def _numeric_pair_grids(tree: TreeData, grids, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """E[f | z_a in seg, z_b in seg] for every numeric pair (a, b), exact.

    Returns a (P, S, S) array: pair p's (n_a, n_b) segment grid sits at
    [p, :n_a, :n_b] and is zero padded to S, the largest segment count + 1.
    One bincount adds every pair's corner terms (a,a)+c, (b,a)-c, (a,b)-c,
    (b,b)+c into the pair's own S x S block, in the order one add.at per
    corner would: bins are disjoint across pairs and bincount adds in input
    order, and zeros after a block leave its prefix sums unchanged."""
    a, b = np.array(pairs).T
    dims = np.unique([a, b])
    S = max(grids[dim].n_segments for dim in dims) + 1
    c = (tree.predictions * tree.volumes) / (tree.extents[:, a] * tree.extents[:, b]).T
    lo = np.stack([grids[dim].a for dim in dims])
    hi = np.stack([grids[dim].b for dim in dims])
    ra, rb = np.searchsorted(dims, a), np.searchsorted(dims, b)
    lo_a, hi_a, lo_b, hi_b = lo[ra], hi[ra], lo[rb], hi[rb]
    block = (np.arange(len(pairs)) * S * S)[:, None, None]
    idx = block + np.stack([lo_a * S + lo_b, hi_a * S + lo_b, lo_a * S + hi_b, hi_a * S + hi_b],
                           axis=1)
    D = np.bincount(idx.ravel(), weights=np.stack([c, -c, -c, c], axis=1).ravel(),
                    minlength=len(pairs) * S * S).reshape(len(pairs), S, S)
    return np.cumsum(np.cumsum(D, axis=1), axis=2)


def _marginal_2d(tree: TreeData, gu: _DimGrid, gv: _DimGrid, du: int, dv: int) -> np.ndarray:
    """E[f | z_u in seg, z_v in seg] on the (gu x gv) segment grid, exact."""
    if not gu.categorical and not gv.categorical:
        M = _numeric_pair_grids(tree, {du: gu, dv: gv}, [(du, dv)])
        return M[0, : gu.n_segments, : gv.n_segments]
    c = tree.predictions * tree.volumes / (tree.extents[:, du] * tree.extents[:, dv])
    if gu.categorical and gv.categorical:
        M = np.zeros((gu.n_segments, gv.n_segments))
        for li in range(len(c)):
            M[np.ix_(gu.mask[li], gv.mask[li])] += c[li]
        return M
    if gv.categorical:
        return _marginal_2d(tree, gv, gu, dv, du).T
    # categorical u x numeric v
    D = np.zeros((gu.n_segments, gv.n_segments + 1))
    for li in range(len(c)):
        rows = gu.mask[li]
        D[rows, gv.a[li]] += c[li]
        D[rows, gv.b[li]] -= c[li]
    return np.cumsum(D, axis=1)[:, : gv.n_segments]


def _tree_decomposition(tree: TreeData, names: Sequence[str]):
    """Returns (V, V_u array, V_uv dict keyed by (i, j) with i < j).

    Each pair is computed with its axes ordered by param name, so the exact
    floating-point result is invariant under column permutations of the
    training space (relabeling permutes the report bit-for-bit)."""
    d = len(names)
    f0 = float(tree.predictions @ tree.volumes)
    V = float((tree.predictions ** 2) @ tree.volumes - f0 ** 2)
    grids = _dim_grids(tree, range(d))
    marginals = {dim: _marginal_1d(tree, g, dim) for dim, g in enumerate(grids) if g.categorical}
    num = [dim for dim, g in enumerate(grids) if not g.categorical]
    if num:
        M1 = _numeric_marginals(tree, [grids[dim] for dim in num], num)
        for r, dim in enumerate(num):
            marginals[dim] = M1[r, : grids[dim].n_segments]
    # one dot per dim on compact arrays: BLAS sums in an order of its own
    Vu = np.array([
        float(grids[dim].lengths @ (marginals[dim] - f0) ** 2) for dim in range(d)
    ])
    Vuv: dict[tuple[int, int], float] = {}
    numeric = []
    for i in range(d):
        for j in range(i + 1, d):
            a, b = (i, j) if names[i] <= names[j] else (j, i)
            if grids[a].categorical or grids[b].categorical:
                M = _marginal_2d(tree, grids[a], grids[b], a, b)
                fij = M - marginals[a][:, None] - marginals[b][None, :] + f0
                area = grids[a].lengths[:, None] * grids[b].lengths[None, :]
                Vuv[(i, j)] = float((area * fij ** 2).sum())
            else:
                numeric.append(((i, j), (a, b)))
    if numeric:
        pairs = [ab for _, ab in numeric]
        M = _numeric_pair_grids(tree, grids, pairs)
        # 1-d marginals and segment lengths, zero padded to the pair grid
        marg = np.zeros((d, M.shape[1]))
        lengths = np.zeros((d, M.shape[1]))
        for dim, g in enumerate(grids):
            if not g.categorical:
                marg[dim, : g.n_segments] = marginals[dim]
                lengths[dim, : g.n_segments] = g.lengths
        a, b = np.array(pairs).T
        fij = M - marg[a][:, :, None] - marg[b][:, None, :] + f0
        E = lengths[a][:, :, None] * lengths[b][:, None, :] * fij ** 2
        # padding must never enter a sum: each pair sums a compact copy of its block
        for p, (key, (u, v)) in enumerate(numeric):
            block = E[p, : grids[u].n_segments, : grids[v].n_segments]
            Vuv[key] = float(np.ascontiguousarray(block).sum())
    return V, Vu, Vuv


def decompose(forest: Forest, return_per_tree: bool = False):
    """Variance decomposition truncated at order 2, per-tree ratios averaged.

    Trees with zero variance contribute zero shares; a forest where every
    tree is constant is reported degenerate with all-zero importances.
    """
    d = forest.space.dim
    names = forest.space.names
    n_pairs = d * (d - 1) // 2
    F_ind = np.zeros(d)
    F_pair = np.zeros(n_pairs)
    Vs = []
    per_tree = []
    for tree in forest.trees:
        V, Vu, Vuv = _tree_decomposition(tree, names)
        Vs.append(V)
        if V > 0.0:
            fu = Vu / V
            fp = np.array([Vuv[k] for k in sorted(Vuv)]) / V if n_pairs else np.zeros(0)
        else:
            fu = np.zeros(d)
            fp = np.zeros(n_pairs)
        F_ind += fu
        F_pair += fp
        if return_per_tree:
            per_tree.append((V, fu, fp))
    n = forest.n_trees
    F_ind = np.clip(F_ind / n, 0.0, None)
    F_pair = np.clip(F_pair / n, 0.0, None)
    pair_keys = [(names[i], names[j]) for i in range(d) for j in range(i + 1, d)]
    report = ImportanceReport(
        response=forest.response,
        params=names,
        total_variance=float(np.mean(Vs)),
        individual={names[i]: float(F_ind[i]) for i in range(d)},
        pairwise={k: float(v) for k, v in zip(pair_keys, F_pair)},
        degenerate=all(v <= 0.0 for v in Vs),
    )
    if return_per_tree:
        return report, per_tree
    return report


def pair_dims(space: SearchSpace, u: str, v: str, resolution: int) -> tuple[int, int]:
    """Dims of the pairwise-table params (u, v); ForestError on bad input."""
    if u == v:
        raise ForestError("pairwise marginal needs two distinct params")
    names = list(space.names)
    for name in (u, v):
        if name not in names:
            raise ForestError(f"unknown param {name!r}")
    if resolution < 1:
        raise ForestError(f"pairwise resolution must be >= 1, got {resolution}")
    return names.index(u), names.index(v)


def pairwise_marginal_table(forest: Forest, u: str, v: str, resolution: int = 20):
    """Marginal surface over params (u, v) on a resolution x resolution grid.

    Returns (theta_u, theta_v, values) with theta at cell centers in unit
    space; values equal marginal_predict evaluated pointwise (the surface is
    piecewise constant, so the segment lookup is exact).
    """
    du, dv = pair_dims(forest.space, u, v, resolution)
    theta = (np.arange(resolution) + 0.5) / resolution
    zu = np.array([unit_to_feature(forest.space, du, t) for t in theta])
    zv = np.array([unit_to_feature(forest.space, dv, t) for t in theta])
    values = np.zeros((resolution, resolution))
    for tree in forest.trees:
        gu, gv = _dim_grids(tree, [du, dv])
        M = _marginal_2d(tree, gu, gv, du, dv)
        values += M[np.ix_(gu.segments(zu), gv.segments(zv))]
    return theta, theta, values / forest.n_trees


# ---------------------------------------------------------------------------
# serialization

def report_to_json(report: ImportanceReport) -> dict:
    return {
        "response": report.response,
        "params": list(report.params),
        "total_variance": report.total_variance,
        "individual": {k: report.individual[k] for k in report.params},
        "pairwise": [[u, v, w] for (u, v), w in report.pairwise.items()],
        "degenerate": report.degenerate,
    }


def report_from_json(doc: Mapping) -> ImportanceReport:
    return ImportanceReport(
        response=doc["response"],
        params=tuple(doc["params"]),
        total_variance=float(doc["total_variance"]),
        individual={k: float(v) for k, v in doc["individual"].items()},
        pairwise={(u, v): float(w) for u, v, w in doc["pairwise"]},
        degenerate=bool(doc["degenerate"]),
    )


def save_report(report: ImportanceReport, path: str | Path) -> None:
    write_json(path, report_to_json(report))


def load_report(path: str | Path) -> ImportanceReport:
    return report_from_json(json.loads(Path(path).read_text()))
