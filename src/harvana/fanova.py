"""Functional-ANOVA decomposition of a regression forest.

Works exactly on the leaf-box geometry (no sampling): per tree, the total
variance under the uniform measure, every first-order variance share F_u,
and every pairwise share F_{u,v} are computed from piecewise-constant 1-d
and 2-d marginals whose breakpoints are the leaf edges. Shares are averaged
over trees as per-tree ratios, so each tree contributes values in [0, 1].
The decomposition is truncated at order 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .forest import Forest, ForestError, TreeData, unit_to_feature

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
    """Per-tree segment structure of one dimension (leaf edges or choices)."""

    def __init__(self, tree: TreeData, dim: int):
        if dim in tree.cat_masks:
            mask = tree.cat_masks[dim]
            n = mask.shape[1]
            self.categorical = True
            self.n_segments = n
            self.lengths = np.full(n, 1.0 / n)
            self.edges = None
            self.mask = mask
        else:
            edges = np.unique(np.concatenate([tree.lo[:, dim], tree.hi[:, dim]]))
            self.categorical = False
            self.edges = edges
            self.n_segments = len(edges) - 1
            self.lengths = np.diff(edges)
            self.a = np.searchsorted(edges, tree.lo[:, dim])
            self.b = np.searchsorted(edges, tree.hi[:, dim])

    def locate(self, value: float) -> int:
        """Segment index containing a feature-space value."""
        if self.categorical:
            return int(value)
        j = int(np.searchsorted(self.edges, value, side="right")) - 1
        return min(max(j, 0), self.n_segments - 1)


def _marginal_1d(tree: TreeData, grid: _DimGrid, dim: int) -> np.ndarray:
    """E[f | z_dim in segment] per segment, exact."""
    c = tree.predictions * tree.volumes / tree.extents[:, dim]
    if grid.categorical:
        # c = pred * prod of other extents, constant across the covered subset
        return tree.cat_masks[dim].T @ c
    # one bincount adds the +c and -c terms in the order two add.at calls would
    D = np.bincount(np.concatenate([grid.a, grid.b]), weights=np.concatenate([c, -c]),
                    minlength=grid.n_segments + 1)
    return np.cumsum(D)[: grid.n_segments]


def _marginal_2d(tree: TreeData, gu: _DimGrid, gv: _DimGrid, du: int, dv: int) -> np.ndarray:
    """E[f | z_u in seg, z_v in seg] on the (gu x gv) segment grid, exact."""
    c = tree.predictions * tree.volumes / (tree.extents[:, du] * tree.extents[:, dv])
    if not gu.categorical and not gv.categorical:
        # corner terms (a,a)+c, (b,a)-c, (a,b)-c, (b,b)+c as raveled indices in
        # one bincount: same summation order as one add.at per corner
        shape = (gu.n_segments + 1, gv.n_segments + 1)
        idx = np.concatenate([gu.a * shape[1] + gv.a, gu.b * shape[1] + gv.a,
                              gu.a * shape[1] + gv.b, gu.b * shape[1] + gv.b])
        D = np.bincount(idx, weights=np.concatenate([c, -c, -c, c]),
                        minlength=shape[0] * shape[1]).reshape(shape)
        return np.cumsum(np.cumsum(D, axis=0), axis=1)[: gu.n_segments, : gv.n_segments]
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
    grids = [_DimGrid(tree, dim) for dim in range(d)]
    marginals = [_marginal_1d(tree, grids[dim], dim) for dim in range(d)]
    Vu = np.array([
        float(grids[dim].lengths @ (marginals[dim] - f0) ** 2) for dim in range(d)
    ])
    Vuv: dict[tuple[int, int], float] = {}
    for i in range(d):
        for j in range(i + 1, d):
            a, b = (i, j) if names[i] <= names[j] else (j, i)
            M = _marginal_2d(tree, grids[a], grids[b], a, b)
            fij = M - marginals[a][:, None] - marginals[b][None, :] + f0
            area = grids[a].lengths[:, None] * grids[b].lengths[None, :]
            Vuv[(i, j)] = float((area * fij ** 2).sum())
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


def pairwise_marginal_table(forest: Forest, u: str, v: str, resolution: int = 20):
    """Marginal surface over params (u, v) on a resolution x resolution grid.

    Returns (theta_u, theta_v, values) with theta at cell centers in unit
    space; values equal marginal_predict evaluated pointwise (the surface is
    piecewise constant, so the segment lookup is exact).
    """
    if u == v:
        raise ForestError("pairwise marginal needs two distinct params")
    names = list(forest.space.names)
    du, dv = names.index(u), names.index(v)
    theta = (np.arange(resolution) + 0.5) / resolution
    values = np.zeros((resolution, resolution))
    for tree in forest.trees:
        gu, gv = _DimGrid(tree, du), _DimGrid(tree, dv)
        M = _marginal_2d(tree, gu, gv, du, dv)
        iu = np.array([gu.locate(unit_to_feature(forest.space, du, t)) for t in theta])
        iv = np.array([gv.locate(unit_to_feature(forest.space, dv, t)) for t in theta])
        values += M[np.ix_(iu, iv)]
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
    Path(path).write_text(json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> ImportanceReport:
    return report_from_json(json.loads(Path(path).read_text()))
