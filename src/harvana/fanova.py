"""Functional-ANOVA decomposition of a regression forest.

Exact on the leaf-box geometry, with no sampling: the leaf-partition fANOVA
of Hutter, Hoos & Leyton-Brown (2014), truncated at order 2. Take one tree
with centred leaf values v_L = pred_L - f0, per-dim extents e_L(j) and
per-dim overlaps o_j(L, L'): the interval overlap of a numeric dim, the
number of shared choices over k of a categorical one. The variance of the
marginal over a dim group G is

    Vc(G) = sum_{L,L'} v_L v_L' prod_{j not in G} e_L(j) e_L'(j) prod_{j in G} o_j(L, L')

with V_u = Vc({u}) and V_uv = Vc({u, v}) - V_u - V_v. With weights
w = a_L a_L', a_L = v_L prod_j e_L(j), and ratios r_j = o_j / (e_L(j) e_L'(j)),
every V_u is one product R @ w over the L^2 leaf pairs and every Vc({u, v})
one entry of the GEMM (R w) R^T. A zero-width leaf has weight 0 and ratio 0.
Dims a tree never splits have ratio 1 and are skipped, so their shares are
exactly 0. A difference of rounded sums can dip below 0, so each per-tree V_u
and V_uv is clamped at 0. The arrays are built in param-name order, so
relabelling the dims permutes the report bit for bit. Shares are averaged
over trees as per-tree ratios, so each tree contributes values in [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .forest import Forest, ForestError, TreeData, _leaves_containing, unit_to_feature
from .hyperspace import SearchSpace, write_json


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


def _overlap(tree: TreeData, dim: int) -> np.ndarray:
    """(L, L) measure of each pair of leaf boxes' overlap along dim."""
    if dim in tree.cat_masks:
        mask = tree.cat_masks[dim].astype(float)
        return mask @ mask.T / mask.shape[1]
    lo, hi = tree.lo[:, dim], tree.hi[:, dim]
    return np.maximum(np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo), 0.0)


def _tree_variances(tree: TreeData, names: Sequence[str]):
    """(V, V_u per dim, V_uv per dim pair i < j in dim order) of one tree."""
    d = len(names)
    f0 = float(tree.predictions @ tree.volumes)
    V = float((tree.predictions ** 2) @ tree.volumes - f0 ** 2)
    Vu, Vuv = np.zeros(d), np.zeros((d, d))
    dims = np.array(sorted(np.flatnonzero((tree.extents < 1.0).any(axis=0)),
                           key=names.__getitem__), dtype=np.intp)
    if len(dims):
        e = tree.extents[:, dims]
        a = (tree.predictions - f0) * e.prod(axis=1)
        w = np.outer(a, a).ravel()
        R = np.zeros((len(dims), len(a), len(a)))
        for r, dim in enumerate(dims):
            ee = np.outer(e[:, r], e[:, r])
            np.divide(_overlap(tree, dim), ee, out=R[r], where=ee > 0.0)
        R = R.reshape(len(dims), -1)
        first = R @ w
        closed = (R * w) @ R.T
        p, q = np.triu_indices(len(dims), 1)
        Vu[dims] = np.maximum(first, 0.0)
        Vuv[dims[p], dims[q]] = Vuv[dims[q], dims[p]] = np.maximum(
            closed[p, q] - first[p] - first[q], 0.0)
    return V, Vu, Vuv[np.triu_indices(d, 1)]


def decompose(forest: Forest, return_per_tree: bool = False):
    """Variance decomposition truncated at order 2, per-tree ratios averaged.

    Trees with zero variance contribute zero shares; a forest where every
    tree is constant is reported degenerate with all-zero importances.
    """
    names = forest.space.names
    per_tree = []
    for tree in forest.trees:
        V, Vu, Vuv = _tree_variances(tree, names)
        # shares are >= 0: each per-tree variance is clamped
        per_tree.append((V, Vu / V, Vuv / V) if V > 0.0
                        else (V, np.zeros_like(Vu), np.zeros_like(Vuv)))
    Vs, fu, fp = zip(*per_tree)
    F_ind, F_pair = np.sum(fu, axis=0) / forest.n_trees, np.sum(fp, axis=0) / forest.n_trees
    pair_keys = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    report = ImportanceReport(
        response=forest.response,
        params=names,
        total_variance=float(np.mean(Vs)),
        individual=dict(zip(names, F_ind.tolist())),
        pairwise=dict(zip(pair_keys, F_pair.tolist())),
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
    space. Each value is marginal_predict's box rule at its cell centre: per
    tree, the leaves holding both coordinates, each weighted by its
    prediction times its extent along every other dim.
    """
    du, dv = pair_dims(forest.space, u, v, resolution)
    theta = (np.arange(resolution) + 0.5) / resolution
    zu = np.array([unit_to_feature(forest.space, du, t) for t in theta])
    zv = np.array([unit_to_feature(forest.space, dv, t) for t in theta])
    free = [dim for dim in range(forest.space.dim) if dim not in (du, dv)]
    values = np.zeros((resolution, resolution))
    for tree in forest.trees:
        c = tree.predictions * tree.extents[:, free].prod(axis=1)
        values += (_leaves_containing(tree, du, zu).T * c) @ _leaves_containing(tree, dv, zv)
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


def _share(source: str, field: str, value) -> float:
    """A share in [0, 1]; ForestError naming source and field otherwise."""
    try:
        share = float(value)
    except (TypeError, ValueError):
        raise ForestError(f"{source}: {field} is not a number: {value!r}") from None
    if not 0.0 <= share <= 1.0:  # NaN fails the comparison too
        raise ForestError(f"{source}: {field} = {share} is not a share in [0, 1]")
    return share


def report_from_json(doc: Mapping, source: str = "report") -> ImportanceReport:
    """The report `doc` holds. ForestError naming `source` and the field
    unless every key is there, each param has one share, each unordered pair
    of params exactly one, every share is in [0, 1], and the total variance
    is finite and >= 0."""
    if not isinstance(doc, Mapping):
        raise ForestError(f"{source}: a report must be a JSON object")
    keys = ("response", "params", "total_variance", "individual", "pairwise", "degenerate")
    if missing := [k for k in keys if k not in doc]:
        raise ForestError(f"{source}: missing keys {missing}")
    params = tuple(doc["params"])
    if set(doc["individual"]) != set(params):
        raise ForestError(f"{source}: individual keys {sorted(doc['individual'])} are not "
                          f"the params {sorted(params)}")
    individual = {k: _share(source, f"individual[{k!r}]", doc["individual"][k]) for k in params}
    index = {name: i for i, name in enumerate(params)}
    pairs = {}
    for entry in doc["pairwise"]:
        if not (isinstance(entry, list) and len(entry) == 3 and entry[0] in params
                and entry[1] in params and entry[0] != entry[1]):
            raise ForestError(f"{source}: pairwise entry {entry!r} is not "
                              "[param, other param, share]")
        u, v = sorted(entry[:2], key=index.__getitem__)
        if (u, v) in pairs:
            raise ForestError(f"{source}: pairwise holds ({u!r}, {v!r}) twice")
        pairs[(u, v)] = _share(source, f"pairwise[{u!r}, {v!r}]", entry[2])
    pair_keys = [(u, v) for i, u in enumerate(params) for v in params[i + 1:]]
    if missing := [k for k in pair_keys if k not in pairs]:
        raise ForestError(f"{source}: pairwise lacks {len(missing)} of {len(pair_keys)} "
                          f"param pairs, first {missing[0]}")
    total = doc["total_variance"]
    if not (isinstance(total, (int, float)) and math.isfinite(total) and total >= 0.0):
        raise ForestError(f"{source}: total_variance {total!r} is not a finite number >= 0")
    return ImportanceReport(
        response=doc["response"],
        params=params,
        total_variance=float(total),
        individual=individual,
        pairwise={k: pairs[k] for k in pair_keys},
        degenerate=bool(doc["degenerate"]),
    )


def save_report(report: ImportanceReport, path: str | Path) -> None:
    write_json(path, report_to_json(report))


def load_report(path: str | Path) -> ImportanceReport:
    return report_from_json(json.loads(Path(path).read_text()), source=str(path))
