import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harvana.dgp import (
    DgpError,
    DgpModel,
    InteractionDegrees,
    SourceImportance,
    agreement,
    dgp_from_json,
    dgp_to_json,
    load_dgp,
    save_dgp,
    select_subsets,
    source_importance,
    source_interactions,
)
from harvana.fanova import ImportanceReport, decompose
from harvana.forest import fit_forest
from harvana.hyperspace import ParamSpec, SearchSpace, sample, to_unit

from conftest import make_trial


def tagged_space():
    return SearchSpace(params=(
        ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),  # global
        ParamSpec("gain_hips_acc", "continuous", 0.0, 1.0, source_tag="hips_acc"),
        ParamSpec("gain_hips_gyr", "continuous", 0.0, 1.0, source_tag="hips_gyr"),
        ParamSpec("gain_hand_acc", "continuous", 0.0, 1.0, source_tag="hand_acc"),
    ))


def report_with(individual, pairwise, params, response="per_activity_nu[walk]"):
    return ImportanceReport(response=response, params=tuple(params),
                            total_variance=1.0, individual=dict(individual),
                            pairwise=dict(pairwise))


def test_single_source_importance_clipped_below_one():
    space = tagged_space()
    rep = report_with(
        {"lr": 0.0, "gain_hips_acc": 0.8, "gain_hips_gyr": 0.0, "gain_hand_acc": 0.0},
        {(u, v): 0.0 for i, u in enumerate(space.names) for v in space.names[i + 1:]},
        space.names)
    imp = source_importance(rep, space)
    assert imp.activity == "walk"
    assert imp.mu["hips_acc"] == pytest.approx(1.0 - 1e-9)
    assert imp.mu["hips_gyr"] == 0.0
    assert not imp.degenerate
    assert all(0.0 <= v < 1.0 for v in imp.mu.values())


def test_two_equal_sources_split_half():
    space = tagged_space()
    rep = report_with(
        {"lr": 0.3, "gain_hips_acc": 0.2, "gain_hips_gyr": 0.2, "gain_hand_acc": 0.0},
        {(u, v): 0.0 for i, u in enumerate(space.names) for v in space.names[i + 1:]},
        space.names)
    imp = source_importance(rep, space)
    assert imp.mu["hips_acc"] == pytest.approx(0.5)
    assert imp.mu["hips_gyr"] == pytest.approx(0.5)
    # global-tagged lr contributes to no source
    assert sum(imp.mu.values()) == pytest.approx(1.0)


def test_importance_degenerate_when_no_mass():
    space = tagged_space()
    rep = report_with(
        {n: 0.0 for n in space.names},
        {(u, v): 0.0 for i, u in enumerate(space.names) for v in space.names[i + 1:]},
        space.names)
    imp = source_importance(rep, space)
    assert imp.degenerate and all(v == 0.0 for v in imp.mu.values())


def test_importance_requires_source_tags():
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),))
    rep = report_with({"lr": 1.0}, {}, ("lr",))
    with pytest.raises(DgpError, match="source_map is empty"):
        source_importance(rep, space)


def test_interactions_single_cross_pair_is_one():
    space = tagged_space()
    pairs = {(u, v): 0.0 for i, u in enumerate(space.names) for v in space.names[i + 1:]}
    pairs[("gain_hips_acc", "gain_hips_gyr")] = 0.4  # the only cross-source mass
    rep = report_with({n: 0.0 for n in space.names}, pairs, space.names)
    inter = source_interactions(rep, space)
    assert inter.get("hips_acc", "hips_gyr") == pytest.approx(1.0 - 1e-9)
    assert inter.get("hips_gyr", "hips_acc") == inter.get("hips_acc", "hips_gyr")


def test_interactions_degenerate_when_no_cross_mass():
    space = tagged_space()
    pairs = {(u, v): 0.0 for i, u in enumerate(space.names) for v in space.names[i + 1:]}
    pairs[("lr", "gain_hips_acc")] = 0.5  # global-source mass never counts
    rep = report_with({n: 0.0 for n in space.names}, pairs, space.names)
    inter = source_interactions(rep, space)
    assert inter.degenerate and inter.degree == {}


def test_additive_surface_has_weak_source_interactions():
    space = tagged_space()
    rng = np.random.default_rng(0)
    trials = []
    for i in range(300):
        c = sample(space, rng)
        u = to_unit(space, c)
        nu = np.clip(0.2 + 0.4 * u[1] + 0.3 * u[2], 0, 1)  # additive, no cross terms
        trials.append(make_trial(c, float(nu), trial_id=i,
                                 per_activity={"walk": float(nu)}))
    forest = fit_forest(trials, space, response="per_activity_nu[walk]", seed=0)
    inter = source_interactions(decompose(forest), space)
    assert all(v <= 0.05 for v in inter.degree.values()) or inter.degenerate


def six_source_space():
    params = [ParamSpec("lr", "continuous", 0.001, 0.1, prior="log")]
    for p in ("hips", "torso", "hand"):
        for m in ("acc", "gyr"):
            params.append(ParamSpec(f"gain_{p}_{m}", "continuous", 0.0, 1.0,
                                    source_tag=f"{p}_{m}"))
    return SearchSpace(params=tuple(params))


def surrogate_trials(space, loss_fn, n, seed=0, activity="walk"):
    """Planted response surface evaluated directly (no learner in the loop)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        c = sample(space, rng)
        nu = float(np.clip(loss_fn(c, rng), 0.0, 1.0))
        out.append(make_trial(c, nu, trial_id=i, per_activity={activity: nu}))
    return out


def test_planted_surrogate_single_source_dominates():
    # only the hips-accelerometer gain moves the per-activity loss
    space = six_source_space()
    trials = surrogate_trials(
        space,
        lambda c, rng: 0.2 + 0.6 * (1.0 - c["gain_hips_acc"]) + rng.normal(0, 0.02),
        200, seed=1)
    forest = fit_forest(trials, space, response="per_activity_nu[walk]", seed=1)
    imp = source_importance(decompose(forest), space)
    assert imp.mu["hips_acc"] >= 0.8
    assert max(v for s, v in imp.mu.items() if s != "hips_acc") < 0.1
    # normalization invariant: the shares sum to 1 up to the [0,1) ceiling clip
    assert 1.0 - 1e-9 <= sum(imp.mu.values()) <= 1.0


def test_planted_interacting_pair_selected_exactly():
    # AND-structured response: loss improves only when both hips gains are up,
    # so both carry importance and a strong cross-source interaction
    space = six_source_space()
    trials = surrogate_trials(
        space,
        lambda c, rng: 0.2 + 0.6 * (1.0 - min(c["gain_hips_acc"], c["gain_hips_gyr"]))
        + rng.normal(0, 0.02),
        300, seed=2, activity="run")
    report = decompose(fit_forest(trials, space, response="per_activity_nu[run]", seed=2))
    imp = {"run": source_importance(report, space, "run")}
    inter = {"run": source_interactions(report, space, "run")}
    subsets = select_subsets(imp, inter, tau_imp=0.3, tau_int=0.2)
    assert subsets["run"] == frozenset(("hips_acc", "hips_gyr"))


def make_model(subsets, activities=("walk", "run"), sources=("a", "b", "c")):
    importances = {y: SourceImportance(y, {s: 0.0 for s in sources}, degenerate=True)
                   for y in activities}
    interactions = {y: InteractionDegrees(y, {}, degenerate=True) for y in activities}
    return DgpModel(activities=tuple(activities), sources=tuple(sources),
                    importances=importances, interactions=interactions,
                    subsets={y: frozenset(s) for y, s in subsets.items()})


def test_select_subsets_zero_thresholds_select_all():
    imp = {"walk": SourceImportance("walk", {"a": 0.5, "b": 0.3, "c": 0.2})}
    inter = {"walk": InteractionDegrees("walk", {})}
    subsets = select_subsets(imp, inter, 0.0, 0.0)
    assert subsets["walk"] == frozenset(("a", "b", "c"))


def test_select_subsets_empty_when_thresholds_exceed_everything():
    imp = {"walk": SourceImportance("walk", {"a": 0.5, "b": 0.3})}
    inter = {"walk": InteractionDegrees("walk", {("a", "b"): 0.4})}
    subsets = select_subsets(imp, inter, 1.0 - 1e-9, 1.0 - 1e-9)
    assert subsets["walk"] == frozenset()


def test_select_subsets_interaction_closure():
    imp = {"walk": SourceImportance("walk", {"a": 0.6, "b": 0.1, "c": 0.05, "d": 0.25})}
    inter = {"walk": InteractionDegrees("walk", {("a", "b"): 0.5, ("b", "c"): 0.3,
                                                 ("c", "d"): 0.01})}
    subsets = select_subsets(imp, inter, 0.4, 0.25)
    # seed {a}; b joins via (a,b)=0.5; c joins via (b,c)=0.3; d stays out
    assert subsets["walk"] == frozenset(("a", "b", "c"))


def test_select_subsets_threshold_validation():
    with pytest.raises(DgpError):
        select_subsets({}, {}, 1.0, 0.0)


def test_select_subsets_order_independent():
    # fixpoint closure is unique: input dict ordering cannot change the result
    mus = {"a": 0.6, "b": 0.1, "c": 0.05, "d": 0.25}
    degrees = {("a", "b"): 0.5, ("b", "c"): 0.3, ("c", "d"): 0.01}
    forward = select_subsets(
        {"y": SourceImportance("y", dict(mus))},
        {"y": InteractionDegrees("y", dict(degrees))}, 0.4, 0.25)
    backward = select_subsets(
        {"y": SourceImportance("y", dict(reversed(list(mus.items()))))},
        {"y": InteractionDegrees("y", dict(reversed(list(degrees.items()))))},
        0.4, 0.25)
    assert forward == backward


@given(st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=4, max_size=4),
       st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=120, deadline=None)
def test_subsets_monotone_in_tau_imp(mus, tau_lo, tau_hi, tau_int):
    tau_lo, tau_hi = sorted((tau_lo, tau_hi))
    srcs = [f"s{i}" for i in range(4)]
    imp = {"y": SourceImportance("y", dict(zip(srcs, mus)))}
    inter = {"y": InteractionDegrees("y", {("s0", "s1"): 0.3, ("s2", "s3"): 0.6})}
    low = select_subsets(imp, inter, tau_lo, tau_int)["y"]
    high = select_subsets(imp, inter, tau_hi, tau_int)["y"]
    assert high <= low


def test_agreement_identical_and_disjoint():
    a = make_model({"walk": {"a", "b"}, "run": {"c"}})
    assert agreement(a, a) == ({"walk": 1.0, "run": 1.0}, 1.0)
    b = make_model({"walk": {"c"}, "run": {"a", "b"}})
    per, mean = agreement(a, b)
    assert per == {"walk": 0.0, "run": 0.0} and mean == 0.0


def test_agreement_partial_overlap():
    a = make_model({"walk": {"a", "b"}, "run": {"a"}})
    b = make_model({"walk": {"b", "c"}, "run": {"a"}})
    per, mean = agreement(a, b)
    assert per["walk"] == pytest.approx(1 / 3)
    assert mean == pytest.approx((1 / 3 + 1.0) / 2)


def test_agreement_empty_vs_empty_is_one():
    a = make_model({"walk": set(), "run": {"a"}})
    b = make_model({"walk": set(), "run": {"a"}})
    per, _ = agreement(a, b)
    assert per["walk"] == 1.0


def test_agreement_universe_mismatch():
    a = make_model({"walk": {"a"}, "run": {"a"}}, sources=("a", "b"))
    b = make_model({"walk": {"a"}, "run": {"a"}}, sources=("a", "z"))
    with pytest.raises(DgpError, match="universes"):
        agreement(a, b)


def test_hexp_subsets_only_round_trip(tmp_path):
    doc = {
        "activities": ["walking", "still"],
        "per_activity": {
            "walking": {"subset": ["hips_acc", "torso_acc"]},
            "still": {"subset": ["hand_acc"]},
        },
    }
    path = tmp_path / "hexp.json"
    path.write_text(json.dumps(doc))
    model = load_dgp(path)
    assert model.subsets["walking"] == frozenset(("hips_acc", "torso_acc"))
    assert model.importances["walking"].degenerate
    save_dgp(model, tmp_path / "back.json")
    assert load_dgp(tmp_path / "back.json").subsets == model.subsets


def test_hexp_missing_subset_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"activities": ["a"], "per_activity": {"a": {"mu": {}}}}))
    with pytest.raises(DgpError, match="subset"):
        load_dgp(path)


def test_bundled_hexp_fixture_parses():
    from importlib import resources
    with resources.files("harvana.data").joinpath("hexp_demo.json").open() as fh:
        model = dgp_from_json(json.load(fh))
    assert model.subsets["walking"] == frozenset(("hips_acc", "torso_acc"))


def test_dgp_json_round_trip():
    imp = {"walk": SourceImportance("walk", {"a": 0.7, "b": 0.3}),
           "run": SourceImportance("run", {"a": 0.1, "b": 0.9})}
    inter = {"walk": InteractionDegrees("walk", {("a", "b"): 0.4}),
             "run": InteractionDegrees("run", {}, degenerate=True)}
    model = DgpModel(activities=("walk", "run"), sources=("a", "b"),
                     importances=imp, interactions=inter,
                     subsets={"walk": frozenset(("a",)), "run": frozenset(("b",))},
                     tau_imp=0.25, tau_int=0.1)
    back = dgp_from_json(dgp_to_json(model))
    assert back.subsets == model.subsets
    assert back.tau_imp == model.tau_imp and back.tau_int == model.tau_int
    for y in model.activities:
        assert back.importances[y].mu == model.importances[y].mu
        assert back.interactions[y].degree == model.interactions[y].degree


@pytest.mark.parametrize("edit, named", [
    ({"subset": "hips_acc"}, "activity 'walking': subset must be a list of sources"),
    ({"subset": ["hips_acc", 7]}, "activity 'walking': subset must be a string, got 7"),
    ({"subset": ["hips_acc", "bag_acc"]}, "subsets name ['bag_acc']"),
    ({"subset": ["hips_acc"], "mu": {"hips_acc": "0.5"}},
     "activity 'walking': mu['hips_acc'] must be a number (float)"),
    ({"subset": ["hips_acc"], "interactions": [["hips_acc", "torso_acc", True]]},
     "activity 'walking': interaction hips_acc-torso_acc must be a number (float)"),
])
def test_dgp_value_of_the_wrong_type_is_rejected_not_guessed_at(edit, named):
    # a string subset was read as the set of its characters, and agreement
    # then printed 0.0
    doc = {"activities": ["walking", "still"],
           "sources": ["hips_acc", "torso_acc"],
           "per_activity": {"walking": edit, "still": {"subset": []}}}
    with pytest.raises(DgpError, match=re.escape(named)):
        dgp_from_json(doc)


def test_dgp_thresholds_and_activities_are_read_by_their_type():
    doc = {"activities": ["walking"], "per_activity": {"walking": {"subset": []}},
           "tau_imp": 1}
    model = dgp_from_json(doc)
    assert model.tau_imp == 1.0 and model.subsets == {"walking": frozenset()}
    for key, value in (("tau_int", "0.2"), ("activities", "walking")):
        with pytest.raises(DgpError, match=re.escape(f"{key} must be ")):
            dgp_from_json({**doc, key: value})
