"""Data-source level view of a variance decomposition.

Per activity, the hyperparameters tagged with a source are pooled: the
source's raw importance is the sum of its params' individual shares plus the
within-source pairwise shares, normalized across sources to give mu in [0,1).
Cross-source pairwise mass gives interaction degrees. Subset selection seeds
with sources above tau_imp and closes over interactions above tau_int.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .fanova import ImportanceReport
from .forest import activity_of
from .hyperspace import GLOBAL_TAG, SearchSpace, convert_key, write_json

MU_CEILING = 1.0 - 1e-9


class DgpError(ValueError):
    pass


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class SourceImportance:
    activity: str
    mu: dict[str, float]
    degenerate: bool = False


@dataclass
class InteractionDegrees:
    activity: str
    degree: dict[tuple[str, str], float]
    degenerate: bool = False

    def get(self, a: str, b: str) -> float:
        return self.degree.get(_pair_key(a, b), 0.0)


@dataclass
class DgpModel:
    activities: tuple[str, ...]
    sources: tuple[str, ...]
    importances: dict[str, SourceImportance]
    interactions: dict[str, InteractionDegrees]
    subsets: dict[str, frozenset[str]]
    tau_imp: float = 0.0
    tau_int: float = 0.0


def _source_params(space: SearchSpace) -> dict[str, tuple[str, ...]]:
    buckets = {tag: names for tag, names in space.source_map.items() if tag != GLOBAL_TAG}
    if not buckets:
        raise DgpError("source_map is empty: no param is tagged with a data source")
    return buckets


def _activity_from_report(report: ImportanceReport, activity: str | None) -> str:
    if activity is None:
        activity = activity_of(report.response)
    return report.response if activity is None else activity


def source_importance(report: ImportanceReport, space: SearchSpace,
                      activity: str | None = None) -> SourceImportance:
    """Normalized per-source importance shares mu_s for one activity response.

    raw(s) = sum of F_u over the source's params plus within-source F_{u,v};
    params tagged global never contribute. All-zero raw mass is reported
    degenerate instead of dividing by zero.
    """
    buckets = _source_params(space)
    raw: dict[str, float] = {}
    for src, names in buckets.items():
        total = sum(report.individual[n] for n in names)
        names_set = set(names)
        total += sum(w for (u, v), w in report.pairwise.items()
                     if u in names_set and v in names_set)
        raw[src] = total
    denom = sum(raw.values())
    act = _activity_from_report(report, activity)
    if denom <= 0.0:
        return SourceImportance(activity=act, mu={s: 0.0 for s in raw}, degenerate=True)
    mu = {s: min(v / denom, MU_CEILING) for s, v in raw.items()}
    return SourceImportance(activity=act, mu=mu)


def source_interactions(report: ImportanceReport, space: SearchSpace,
                        activity: str | None = None) -> InteractionDegrees:
    """Cross-source pairwise mass as a share of the report's total mass.

    Normalizing by the decomposed order-1 + order-2 mass (not by cross mass
    alone) keeps degrees near zero on additive surfaces instead of inflating
    residual noise to 1, while a lone cross pair that carries everything
    still reaches 1. Zero cross mass yields an empty, flagged map."""
    buckets = _source_params(space)
    of_src = {name: src for src, names in buckets.items() for name in names}
    mass: dict[tuple[str, str], float] = {}
    for (u, v), w in report.pairwise.items():
        su, sv = of_src.get(u), of_src.get(v)
        if su is None or sv is None or su == sv:
            continue
        key = _pair_key(su, sv)
        mass[key] = mass.get(key, 0.0) + w
    act = _activity_from_report(report, activity)
    total = sum(report.individual.values()) + sum(report.pairwise.values())
    if total <= 0.0 or sum(mass.values()) <= 0.0:
        return InteractionDegrees(activity=act, degree={}, degenerate=True)
    degree = {k: min(v / total, MU_CEILING) for k, v in mass.items()}
    return InteractionDegrees(activity=act, degree=degree)


def select_subsets(importances: Mapping[str, SourceImportance],
                   interactions: Mapping[str, InteractionDegrees],
                   tau_imp: float, tau_int: float) -> dict[str, frozenset[str]]:
    """Threshold seed plus interaction closure, per activity.

    Seed = sources with mu >= tau_imp; then any source interacting with a
    selected one at degree >= tau_int is added until fixpoint. Both
    thresholds at zero select every source. An empty seed yields an empty
    subset; the fallback (if any) is the caller's decision.
    """
    for tau in (tau_imp, tau_int):
        if not (0.0 <= tau < 1.0):
            raise DgpError("thresholds must lie in [0, 1)")
    out: dict[str, frozenset[str]] = {}
    for activity, imp in importances.items():
        universe = list(imp.mu)
        selected = {s for s, m in imp.mu.items() if m >= tau_imp}
        inter = interactions.get(activity)
        if selected and inter is not None:
            changed = True
            while changed:
                changed = False
                for cand in universe:
                    if cand in selected:
                        continue
                    if any(inter.get(cand, s) >= tau_int for s in selected):
                        selected.add(cand)
                        changed = True
        out[activity] = frozenset(selected)
    return out


def derive_dgp(reports: Mapping[str, ImportanceReport], space: SearchSpace,
               tau_imp: float, tau_int: float) -> DgpModel:
    """Build the full model from one per-activity importance report."""
    importances = {a: source_importance(r, space, a) for a, r in reports.items()}
    interactions = {a: source_interactions(r, space, a) for a, r in reports.items()}
    subsets = select_subsets(importances, interactions, tau_imp, tau_int)
    return DgpModel(
        activities=tuple(reports),
        sources=tuple(sorted(_source_params(space))),
        importances=importances,
        interactions=interactions,
        subsets=subsets,
        tau_imp=tau_imp,
        tau_int=tau_int,
    )


def agreement(a: DgpModel, b: DgpModel) -> tuple[dict[str, float], float]:
    """Per-activity Jaccard index between the two subset families, plus mean.

    Empty-vs-empty counts as full agreement (1.0)."""
    if set(a.activities) != set(b.activities):
        raise DgpError("models cover different activities")
    if set(a.sources) != set(b.sources):
        raise DgpError("models cover different source universes")
    per = {}
    for y in a.activities:
        sa, sb = a.subsets[y], b.subsets[y]
        union = sa | sb
        per[y] = 1.0 if not union else len(sa & sb) / len(union)
    return per, sum(per.values()) / len(per)


# ---------------------------------------------------------------------------
# serialization

def dgp_to_json(model: DgpModel) -> dict:
    per = {}
    for y in model.activities:
        imp = model.importances.get(y)
        inter = model.interactions.get(y)
        per[y] = {
            "mu": dict(sorted(imp.mu.items())) if imp else {},
            "interactions": [[a, b, d] for (a, b), d in sorted(inter.degree.items())] if inter else [],
            "subset": sorted(model.subsets.get(y, frozenset())),
        }
    return {
        "activities": list(model.activities),
        "sources": list(model.sources),
        "per_activity": per,
        "tau_imp": model.tau_imp,
        "tau_int": model.tau_int,
    }


def dgp_from_json(doc: Mapping) -> DgpModel:
    """Parse a derived or hand-authored (human-expertise) model; subsets are
    required, importances/interactions optional and flagged degenerate when
    absent. Every value is read by convert_key, and a subset must be a list
    of the model's sources: a value of the wrong type raises DgpError."""
    if "activities" not in doc or "per_activity" not in doc:
        raise DgpError("dgp document needs 'activities' and 'per_activity'")
    activities = tuple(convert_key("activities", [""], doc["activities"], DgpError))
    importances = {}
    interactions = {}
    subsets = {}
    for y in activities:
        entry = doc["per_activity"].get(y)
        if entry is None or "subset" not in entry:
            raise DgpError(f"activity {y!r}: missing required 'subset'")
        if not isinstance(entry["subset"], list):  # which may be empty
            raise DgpError(f"activity {y!r}: subset must be a list of sources, "
                           f"got {entry['subset']!r}")
        subsets[y] = frozenset(convert_key(f"activity {y!r}: subset", "", s, DgpError)
                               for s in entry["subset"])
        mu = entry.get("mu") or {}
        importances[y] = SourceImportance(
            activity=y, degenerate=not mu,
            mu={k: convert_key(f"activity {y!r}: mu[{k!r}]", 0.0, v, DgpError)
                for k, v in mu.items()})
        degree = {_pair_key(a, b): convert_key(f"activity {y!r}: interaction {a}-{b}", 0.0,
                                               d, DgpError)
                  for a, b, d in entry.get("interactions", [])}
        interactions[y] = InteractionDegrees(activity=y, degree=degree,
                                             degenerate=not degree)
    named = sorted(set().union(*subsets.values()))
    sources = tuple(convert_key("sources", [""], doc["sources"], DgpError)
                    if doc.get("sources") else named)
    if outside := [s for s in named if s not in sources]:
        raise DgpError(f"subsets name {outside}, which are not among the sources {list(sources)}")
    return DgpModel(activities=activities, sources=sources,
                    importances=importances, interactions=interactions, subsets=subsets,
                    tau_imp=convert_key("tau_imp", 0.0, doc.get("tau_imp", 0.0), DgpError),
                    tau_int=convert_key("tau_int", 0.0, doc.get("tau_int", 0.0), DgpError))


def save_dgp(model: DgpModel, path: str | Path) -> None:
    write_json(path, dgp_to_json(model))


def load_dgp(path: str | Path) -> DgpModel:
    return dgp_from_json(json.loads(Path(path).read_text()))
