import json
import math
import os
import re
from collections import Counter

import numpy as np
import pytest

from harvana.explorer import (
    Strategy,
    StrategyError,
    anneal_propose,
    evolution_propose,
    expected_improvement,
    gp_propose,
    hyperband_schedule,
    proposal_rng,
    run,
    tpe_good_count,
    tpe_propose,
)
from harvana.hyperspace import (
    Configuration,
    ParamSpec,
    SearchSpace,
    grid,
    sample,
    to_unit,
)

from conftest import assert_no_children, make_trial, sphere_evaluator, unit_space


def history_from(space, fn, n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        c = sample(space, rng)
        u = to_unit(space, c)
        out.append(make_trial(c, float(np.clip(fn(u), 0, 1)), trial_id=i))
    return out


# ---------------------------------------------------------------------------
# strategy settings

def test_strategy_validation():
    with pytest.raises(StrategyError):
        Strategy("nope")
    with pytest.raises(StrategyError):
        Strategy("hyperband", {"eta": 1})
    with pytest.raises(StrategyError):
        Strategy("tpe", {"gamma": 0.0})
    with pytest.raises(StrategyError, match="gama"):
        Strategy("tpe", {"gama": 0.3})  # a misspelt setting would leave gamma at 0.25
    assert Strategy("tpe").settings["gamma"] == 0.25
    assert Strategy("gp").settings["n_pool"] == 500


@pytest.mark.parametrize("kind, settings, named", [
    ("tpe", {"gamma": "abc"}, "gamma='abc' does not convert"),
    ("tpe", {"gamma": True}, "gamma=True does not convert"),
    ("evolution", {"population_size": 2.5}, "population_size=2.5 does not convert"),
    ("tpe", {"n_candidates": 2.5}, "n_candidates=2.5 does not convert"),
    ("bohb", {"n_min": 2.5}, "n_min=2.5 does not convert"),
    ("grid", {"points_per_dim": "x"}, "points_per_dim='x' does not convert"),
    ("gp", {"n_pool": 0}, "n_pool must be >= 1"),
    ("tpe", {"n_candidates": 0}, "n_candidates must be >= 1"),
    ("evolution", {"population_size": 0}, "population_size must be >= 1"),
])
def test_strategy_rejects_a_bad_setting_value_naming_it(kind, settings, named):
    with pytest.raises(StrategyError, match=re.escape(named)):
        Strategy(kind, settings)


def test_strategy_settings_take_the_type_of_their_default():
    s = Strategy("bohb", {"R": 9.0, "gamma": 1 / 3, "n_min": 5.0}).settings
    assert (s["R"], s["gamma"], s["n_min"]) == (9, 1 / 3, 5)
    assert type(s["R"]) is int and type(s["n_min"]) is int
    assert Strategy("bohb", {"n_min": None}).settings["n_min"] is None
    assert type(Strategy("gp", {"length_scale": 1}).settings["length_scale"]) is float


def test_tpe_good_count():
    assert tpe_good_count(8, 0.25) == 2
    assert tpe_good_count(10, 0.25) == 3


# ---------------------------------------------------------------------------
# hyperband

def test_hyperband_schedule_81_3():
    brackets = hyperband_schedule(81, 3)
    assert [b.s for b in brackets] == [4, 3, 2, 1, 0]
    assert brackets[0].rungs == ((81, 1), (27, 3), (9, 9), (3, 27), (1, 81))
    assert brackets[1].rungs == ((34, 3), (11, 9), (3, 27), (1, 81))
    assert brackets[2].rungs == ((15, 9), (5, 27), (1, 81))
    assert brackets[3].rungs == ((8, 27), (2, 81))
    assert brackets[4].rungs == ((5, 81),)


def test_hyperband_formula_agrees_with_reference():
    # independent successive-halving enumerator as the oracle
    for R, eta in [(27, 3), (16, 2), (64, 4)]:
        s_max = int(math.floor(math.log(R, eta) + 1e-12))
        for bracket in hyperband_schedule(R, eta):
            s = bracket.s
            n = math.ceil((s_max + 1) / (s + 1) * eta ** s)
            r = R / eta ** s
            expected = []
            while True:
                expected.append((max(1, n), r))
                if r >= R:
                    break
                n //= eta
                r *= eta
            assert [c for c, _ in bracket.rungs] == [c for c, _ in expected]
            assert [res for _, res in bracket.rungs] == pytest.approx(
                [res for _, res in expected])


def test_hyperband_r_equals_eta():
    brackets = hyperband_schedule(2, 2)
    assert len(brackets) == 2
    assert brackets[0].rungs == ((2, 1), (1, 2))
    assert brackets[1].rungs == ((2, 2),)


def test_hyperband_eta_one_rejected():
    with pytest.raises(StrategyError):
        hyperband_schedule(81, 1)


def test_hyperband_rung_invariants():
    for b in hyperband_schedule(81, 3):
        counts = [n for n, _ in b.rungs]
        resources = [r for _, r in b.rungs]
        assert counts == sorted(counts, reverse=True)
        assert resources == sorted(resources)


# ---------------------------------------------------------------------------
# run loop

def test_run_random_matches_sample_stream(unit_space_2d):
    ev = sphere_evaluator(unit_space_2d, [0.5, 0.5])
    trials = run(unit_space_2d, Strategy("random"), ev, budget_B=5, seed=42)
    assert len(trials) == 5
    assert [t.trial_id for t in trials] == list(range(5))
    for t, trial in enumerate(trials):
        assert trial.config == sample(unit_space_2d, proposal_rng(42, t))


def test_run_grid_row_major(unit_space_2d):
    ev = sphere_evaluator(unit_space_2d, [0.5, 0.5])
    trials = run(unit_space_2d, Strategy("grid", {"points_per_dim": 3}), ev,
                 budget_B=9, seed=0)
    expected = grid(unit_space_2d, 3)
    assert [t.config for t in trials] == expected


def test_run_deterministic_logs(unit_space_2d, tmp_path):
    ev = sphere_evaluator(unit_space_2d, [0.3, 0.6])
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(unit_space_2d, Strategy("tpe"), ev, budget_B=15, seed=9, out_path=p1)
    run(unit_space_2d, Strategy("tpe"), ev, budget_B=15, seed=9, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_parallel_workers_log_identical(unit_space_2d, tmp_path):
    ev = sphere_evaluator(unit_space_2d, [0.4, 0.2])
    p1, p4 = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
    t1 = run(unit_space_2d, Strategy("random"), ev, budget_B=20, seed=3, out_path=p1)
    t4 = run(unit_space_2d, Strategy("random"), ev, budget_B=20, seed=3, out_path=p4,
             workers=4)
    assert p1.read_bytes() == p4.read_bytes()
    assert t1 == t4


def test_run_monotone_incumbent(unit_space_2d):
    ev = sphere_evaluator(unit_space_2d, [0.2, 0.8])
    trials = run(unit_space_2d, Strategy("anneal"), ev, budget_B=30, seed=1)
    best = np.minimum.accumulate([t.nu for t in trials])
    assert (np.diff(best) <= 0).all()


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("k", [3, 7])
def test_run_evaluator_failure_preserves_partial_log(unit_space_2d, tmp_path, workers, k):
    from harvana.explorer import _trial_seed
    # fail on trial k's seed, not the k-th call: each process counts its own
    # calls. With two workers this process evaluates trials 0-4 and a child
    # 5-9, so k = 3 fails here and k = 7 in the child
    failing = _trial_seed(0, k)

    def flaky(config, budget, seed):
        if seed == failing:
            raise RuntimeError(f"trial {k} failed")
        return make_trial(config, 0.5, trial_id=-1, budget=budget, seed=seed)

    path = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError, match=f"trial {k} failed"):
        run(unit_space_2d, Strategy("random"), flaky, budget_B=10, seed=0,
            out_path=path, workers=workers)
    # the log streams to <path>.partial, renamed only on success
    assert not path.exists()
    lines = path.with_name(path.name + ".partial").read_text().splitlines()
    assert [json.loads(line)["trial_id"] for line in lines] == list(range(k))
    assert_no_children()


@pytest.mark.parametrize("kind", ["random", "tpe"])
@pytest.mark.parametrize("workers", [0, -3])
def test_run_rejects_fewer_than_one_worker(unit_space_2d, tmp_path, kind, workers):
    ev = sphere_evaluator(unit_space_2d, [0.5, 0.5])
    with pytest.raises(StrategyError, match=f"workers must be >= 1, got {workers}"):
        run(unit_space_2d, Strategy(kind), ev, budget_B=4, seed=0,
            out_path=tmp_path / "t.jsonl", workers=workers)
    assert list(tmp_path.iterdir()) == []


def test_batch_run_forks_at_most_one_process_per_trial(unit_space_2d, monkeypatch):
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    ev = sphere_evaluator(unit_space_2d, [0.5, 0.5])
    trials = run(unit_space_2d, Strategy("random"), ev, budget_B=3, seed=0, workers=64)
    # three processes for three trials: this one and two children
    assert len(trials) == 3 and len(forks) == 2
    run(unit_space_2d, Strategy("tpe"), ev, budget_B=3, seed=0, workers=64)
    assert len(forks) == 2  # sequential strategies evaluate here
    assert_no_children()


def test_run_proposals_always_valid():
    space = SearchSpace(params=(
        ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),
        ParamSpec("k", "integer", 3, 9),
        ParamSpec("mode", "categorical", choices=("a", "b")),
    ))
    from harvana.hyperspace import validate_config
    ev = sphere_evaluator(space, [0.5, 0.5, 0.5])
    for kind in ("random", "tpe", "gp", "anneal", "evolution"):
        for t in run(space, Strategy(kind), ev, budget_B=12, seed=5):
            validate_config(space, t.config)
    for kind in ("hyperband", "bohb"):
        strategy = Strategy(kind, {"R": 9, "eta": 3, "n_min": 4} if kind == "bohb"
                            else {"R": 9, "eta": 3})
        for t in run(space, strategy, ev, budget_B=20, seed=5):
            validate_config(space, t.config)


def test_run_hyperband_budget_and_rung_resources(unit_space_2d):
    ev = sphere_evaluator(unit_space_2d, [0.5, 0.5])
    strategy = Strategy("hyperband", {"R": 9, "eta": 3})
    trials = run(unit_space_2d, strategy, ev, budget_B=30, seed=2)
    assert len(trials) == 30
    # first bracket: 9 configs at r=1, 3 at r=3, 1 at r=9
    budgets = [t.budget for t in trials[:13]]
    assert budgets == [1.0] * 9 + [3.0] * 3 + [9.0]
    # second bracket: ceil(3/2*3)=5 at r=3, 1 at r=9
    assert [t.budget for t in trials[13:19]] == [3.0] * 5 + [9.0]


def test_run_bohb_matches_schedule(unit_space_2d):
    ev = sphere_evaluator(unit_space_2d, [0.4, 0.4])
    strategy = Strategy("bohb", {"R": 9, "eta": 3})
    trials = run(unit_space_2d, strategy, ev, budget_B=13, seed=3)
    assert [t.budget for t in trials] == [1.0] * 9 + [3.0] * 3 + [9.0]


def test_bohb_falls_back_to_prior_without_observations(unit_space_2d):
    from harvana.explorer import _propose_mf
    strategy = Strategy("bohb", {"R": 9, "eta": 3})
    rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
    prop = _propose_mf(strategy, unit_space_2d, {}, 3, rng1, strategy.settings)
    assert prop == sample(unit_space_2d, rng2)


def test_bohb_localizes_on_planted_objective():
    space = unit_space(1)

    def evaluator(config, budget, seed):
        u = to_unit(space, config)
        nu = min(1.0, (u[0] - 0.3) ** 2)
        return make_trial(config, float(nu), trial_id=-1, budget=budget, seed=seed)

    strategy = Strategy("bohb", {"R": 9, "eta": 3, "n_min": 4})
    trials = run(space, strategy, evaluator, budget_B=160, seed=2)
    late = [t for t in trials[len(trials) // 2:]]
    frac = np.mean([0.15 <= t.config["x0"] <= 0.45 for t in late])
    assert frac >= 0.6  # proposals concentrate once rungs feed the TPE model


# ---------------------------------------------------------------------------
# TPE

def test_tpe_fallback_small_history(unit_space_2d):
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    history = history_from(unit_space_2d, lambda u: u[0], 1)
    prop = tpe_propose(history, unit_space_2d, 0.25, 24, rng1, n_startup=10)
    assert prop == sample(unit_space_2d, rng2)


def test_tpe_localizes_quadratic():
    space = unit_space(1)
    hits = 0
    for seed in range(100):
        history = history_from(space, lambda u: (u[0] - 0.3) ** 2, 50, seed=seed)
        prop = tpe_propose(history, space, 0.25, 24, np.random.default_rng(seed))
        if 0.15 <= prop["x0"] <= 0.45:
            hits += 1
    assert hits >= 90


# ---------------------------------------------------------------------------
# GP

def test_ei_zero_at_noiseless_incumbent():
    assert expected_improvement(np.array([0.2]), np.array([0.0]), best=0.2)[0] == 0.0
    assert expected_improvement(np.array([0.5]), np.array([0.0]), best=0.2)[0] == 0.0


def test_gp_fallback_below_two_distinct(unit_space_2d):
    c = Configuration({"x0": 0.5, "x1": 0.5})
    history = [make_trial(c, 0.2, 0), make_trial(c, 0.2, 1)]
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    prop = gp_propose(history, unit_space_2d, rng1)
    assert prop == sample(unit_space_2d, rng2)


def test_gp_handles_duplicate_rows(unit_space_2d):
    c1 = Configuration({"x0": 0.2, "x1": 0.2})
    c2 = Configuration({"x0": 0.8, "x1": 0.8})
    history = [make_trial(c1, 0.3, 0), make_trial(c1, 0.3, 1), make_trial(c2, 0.6, 2)]
    prop = gp_propose(history, unit_space_2d, np.random.default_rng(0))
    assert set(prop.values) == {"x0", "x1"}


def test_gp_conditioning_failure_reported(unit_space_2d):
    from harvana.explorer import ConditioningError
    c1 = Configuration({"x0": 0.2, "x1": 0.2})
    c2 = Configuration({"x0": 0.8, "x1": 0.8})
    # singular kernel from duplicates, with a jitter ladder too small to fix it
    history = [make_trial(c1, 0.3, i) for i in range(6)] + [make_trial(c2, 0.6, 6)]
    with pytest.raises(ConditioningError, match="not positive definite"):
        gp_propose(history, unit_space_2d, np.random.default_rng(0),
                   jitter=1e-300, max_jitter=1e-250)


def test_gp_localizes_vee():
    space = unit_space(1)
    pts = np.linspace(0.0, 1.0, 12)
    history = [
        make_trial(Configuration({"x0": float(x)}), min(1.0, abs(x - 0.7)), trial_id=i)
        for i, x in enumerate(pts)
    ]
    hits = 0
    for seed in range(100):
        prop = gp_propose(history, space, np.random.default_rng(seed))
        if 0.6 <= prop["x0"] <= 0.8:
            hits += 1
    assert hits >= 90


# ---------------------------------------------------------------------------
# anneal / evolution

def test_anneal_empty_history_is_prior(unit_space_2d):
    rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
    assert anneal_propose([], unit_space_2d, rng1, t=0) == sample(unit_space_2d, rng2)


def test_anneal_prior_probability_floors():
    space = unit_space(1)
    history = [make_trial(Configuration({"x0": 0.0}), 0.0, 0)]
    prior_picks = 0
    n = 2000
    for seed in range(n):
        rng = np.random.default_rng(seed)
        prop = anneal_propose(history, space, rng, t=10_000, p_min=0.05)
        # at t=10000 sigma is ~0, so perturbation stays at the incumbent 0.0;
        # prior draws are uniform and almost surely > 0.05
        if prop["x0"] > 0.05:
            prior_picks += 1
    assert 0.02 * n <= prior_picks <= 0.08 * n


def test_anneal_perturbation_concentrates():
    space = unit_space(1)
    history = [make_trial(Configuration({"x0": 0.0}), 0.0, 0)]
    t = 98  # sigma0 * 0.97^98 ~ 0.0101
    inside = 0
    total = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        if rng.uniform() < max(0.05, 0.5 * 0.97 ** t):
            continue  # consume the same branch draw the proposal will make
        rng = np.random.default_rng(seed)
        prop = anneal_propose(history, space, rng, t=t)
        total += 1
        if prop["x0"] <= 0.05:
            inside += 1
    assert total > 200
    assert inside / total >= 0.99


def test_evolution_mutates_exactly_one_dim():
    space = SearchSpace(params=(
        ParamSpec("a", "continuous", 0.0, 1.0),
        ParamSpec("k", "integer", 0, 5),
        ParamSpec("m", "categorical", choices=("u", "v", "w")),
    ))
    history = history_from(space, lambda u: u[0], 30, seed=1)
    pop = sorted(history, key=lambda t: (t.nu, t.trial_id))[:20]
    keys = {t.config.key() for t in pop}
    for seed in range(50):
        prop = evolution_propose(history, space, np.random.default_rng(seed), 20)
        diffs = []
        for t in pop:
            d = [n for n in space.names if prop[n] != t.config[n]]
            diffs.append(len(d))
        assert min(diffs) == 1  # exactly one dim away from some population member


def test_evolution_single_dim_space():
    space = unit_space(1)
    history = history_from(space, lambda u: u[0], 5)
    prop = evolution_propose(history, space, np.random.default_rng(2), 20)
    assert all(prop["x0"] != t.config["x0"] for t in history)


def test_evolution_small_history(unit_space_2d):
    history = history_from(unit_space_2d, lambda u: u[0], 2)
    prop = evolution_propose(history, unit_space_2d, np.random.default_rng(0), 20)
    assert set(prop.values) == {"x0", "x1"}


# ---------------------------------------------------------------------------
# encode once: run() keeps one unit row per trial for the model-based rules

def mixed_space():
    return SearchSpace(params=(
        ParamSpec("a", "continuous", 0.0, 1.0),
        ParamSpec("lr", "continuous", 1e-4, 1e-1, prior="log"),
        ParamSpec("k", "integer", 1, 6),
        ParamSpec("m", "categorical", choices=("u", "v", "w")),
    ))


@pytest.mark.parametrize("strategy,budget", [
    (Strategy("tpe"), 60),
    (Strategy("gp"), 40),
    (Strategy("bohb", {"R": 9, "eta": 3, "n_min": 5}), 60),
    (Strategy("anneal"), 60),
    (Strategy("hyperband", {"R": 9, "eta": 3}), 60),
])
def test_run_encodes_each_trial_once(strategy, budget, monkeypatch, tmp_path):
    import harvana.explorer as ex
    space = mixed_space()
    ev = sphere_evaluator(space, [0.3, 0.6, 0.5, 0.0])

    calls = []
    real_to_unit = ex.to_unit

    def counting_to_unit(space, config):
        calls.append(config)
        return real_to_unit(space, config)

    monkeypatch.setattr(ex, "to_unit", counting_to_unit)
    kept = tmp_path / "kept.jsonl"
    trials = run(space, strategy, ev, budget_B=budget, seed=4, out_path=kept)
    # hyperband's proposals are prior samples: nothing reads the unit rows
    assert (0 < len(calls) <= budget) if strategy.kind != "hyperband" else not calls
    # a config is encoded at most once per trial that holds it (a BOHB
    # survivor's config object is shared by its trials at each rung)
    holders = Counter(id(t.config) for t in trials)
    assert all(n <= holders[c] for c, n in Counter(id(c) for c in calls).items())

    # the same run with proposals that see only a bare list of the history
    monkeypatch.setattr(ex, "to_unit", real_to_unit)
    for name in ("tpe_propose", "gp_propose", "anneal_propose"):
        real = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda h, *a, real=real, **k: real(list(h), *a, **k))
    bare = tmp_path / "bare.jsonl"
    run(space, strategy, ev, budget_B=budget, seed=4, out_path=bare)
    assert kept.read_bytes() == bare.read_bytes()


# ---------------------------------------------------------------------------
# History: a run's trials with their unit rows and squared distances

def test_history_rows_and_distances_match_a_full_rebuild():
    from harvana.explorer import History
    space = mixed_space()
    trials = history_from(space, lambda u: float(u.sum()) / 4, 40, seed=3)
    history = History(space)
    for n, trial in enumerate(trials, start=1):
        history.append(trial)
        X = history.rows()
        assert np.array_equal(X, np.stack([to_unit(space, t.config) for t in trials[:n]]))
        assert np.array_equal(history.sq(), ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        assert list(history) == trials[:n] and history[-1] is trial
    # a history read once, as a bare list's is, grows to the same rows and distances
    fresh = History(space, trials)
    assert np.array_equal(fresh.sq(), history.sq()) and np.array_equal(fresh.rows(), X)


@pytest.mark.parametrize("rule", ["tpe", "gp", "anneal"])
def test_bare_list_and_history_propose_the_same(rule):
    from harvana.explorer import History
    space = mixed_space()
    trials = history_from(space, lambda u: float(((u - 0.4) ** 2).sum()), 30, seed=5)
    propose = {
        "tpe": lambda h, rng: tpe_propose(h, space, 0.25, 24, rng),
        "gp": lambda h, rng: gp_propose(h, space, rng),
        "anneal": lambda h, rng: anneal_propose(h, space, rng, t=40, p_min=0.0, p0=0.0),
    }[rule]
    history = History(space)
    for trial in trials:
        history.append(trial)
        for seed in range(3):
            got = propose(history, np.random.default_rng(seed))
            assert got == propose(list(history), np.random.default_rng(seed))


def test_gp_pool_distances_match_broadcast_and_stay_nonnegative():
    from harvana.explorer import _pool_sq_dists
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(60, 13))
    pool = rng.uniform(size=(500, 13))
    pool[::7] = X[rng.integers(0, len(X), len(pool[::7]))]  # rows equal to history rows
    # rows a rounding step away from history rows: unclamped, these go negative
    near = X[rng.integers(0, len(X), len(pool[1::7]))]
    pool[1::7] = near + rng.normal(0.0, 1e-9, near.shape)
    got = _pool_sq_dists(pool, X)
    want = ((pool[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert (want == 0.0).any() and (got >= 0.0).all()


def test_gp_conditioning_failure_raised_from_run():
    from harvana.explorer import ConditioningError
    space = SearchSpace(params=(ParamSpec("m", "categorical", choices=("u", "v")),))
    ev = sphere_evaluator(space, [0.0])
    strategy = Strategy("gp", {"jitter": 1e-300, "max_jitter": 1e-250})
    with pytest.raises(ConditioningError, match="not positive definite"):
        run(space, strategy, ev, budget_B=20, seed=0)
