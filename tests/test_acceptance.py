"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line per criterion (echoed in the terminal summary)."""

import math
import time
from fractions import Fraction
import numpy as np

from harvana import pipeline
from harvana.dgp import (
    DgpModel,
    InteractionDegrees,
    SourceImportance,
    agreement,
    derive_dgp,
)
from harvana.explorer import Strategy, hyperband_schedule, run
from harvana.fanova import decompose
from harvana.forest import Forest, fit_forest, forest_from_tables, marginal_predict, predict
from harvana.hyperspace import ParamSpec, SearchSpace, sample, to_unit
from harvana.learner import ModelConfig, build, run_protocol, stat_features
from harvana.sensors import (
    DataSource,
    Deployment,
    PlantedDgp,
    SensorModel,
    SignalSpec,
    generate,
    meta_segment_partition,
    thermocouple_transfer,
)

from conftest import ACCEPTANCE_LINES, make_trial, unit_space
from test_forest import grid_points, random_planted_root
from test_learner import gradient_check, planted_dataset, truth_dgp
from test_sensors import exact_thermo_mv


def check(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {criterion:02d} [{status}] {name}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_01_fanova_oracle_equivalence():
    t0 = time.monotonic()
    res = 20
    rng = np.random.default_rng(101)
    space = unit_space(3)
    forest = forest_from_tables(
        space, [random_planted_root(rng, 3, res=res, max_depth=5) for _ in range(6)])

    # forest predictions on the full grid once; brute marginals are slice means
    pts = grid_points(res)
    mesh = np.meshgrid(pts, pts, pts, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=1)
    G = predict(forest, Z).reshape(res, res, res)

    worst = 0.0
    n_probes = 0
    probe_rng = np.random.default_rng(7)
    names = space.names
    while n_probes < 1000:
        order = int(probe_rng.integers(1, 4))
        dims = sorted(probe_rng.choice(3, size=order, replace=False).tolist())
        idx = probe_rng.integers(0, res, size=order)
        theta = [(i + 0.5) / res for i in idx]
        exact = marginal_predict(forest, [names[d] for d in dims],
                                 theta)
        slicer = [slice(None)] * 3
        for d, i in zip(dims, idx):
            slicer[d] = int(i)
        brute = float(G[tuple(slicer)].mean())
        worst = max(worst, abs(exact - brute))
        n_probes += 1
    marginal_ok = worst <= 1e-9

    # decompose vs brute-force variance shares, per tree
    worst_share = 0.0
    report, per_tree = decompose(forest, return_per_tree=True)
    for tree, (V, fu, fp) in zip(forest.trees, per_tree):
        single = Forest(trees=[tree], space=space, response="nu", n_trials=0)
        Gt = predict(single, Z).reshape(res, res, res)
        f0 = Gt.mean()
        Vt = (Gt ** 2).mean() - f0 ** 2
        for d in range(3):
            axes = tuple(a for a in range(3) if a != d)
            m = Gt.mean(axis=axes)
            share = ((m - f0) ** 2).mean() / Vt if Vt > 0 else 0.0
            worst_share = max(worst_share, abs(share - fu[d]))
        k = 0
        for i in range(3):
            for j in range(i + 1, 3):
                ax = tuple(a for a in range(3) if a not in (i, j))
                m2 = Gt.mean(axis=ax)
                mi = Gt.mean(axis=tuple(a for a in range(3) if a != i))
                mj = Gt.mean(axis=tuple(a for a in range(3) if a != j))
                fij = m2 - mi[:, None] - mj[None, :] + f0
                share = (fij ** 2).mean() / Vt if Vt > 0 else 0.0
                worst_share = max(worst_share, abs(share - fp[k]))
                k += 1
    shares_ok = worst_share <= 1e-6
    elapsed = time.monotonic() - t0
    check(1, "fANOVA oracle equivalence",
          marginal_ok and shares_ok and elapsed <= 30.0,
          f"marginal err {worst:.2e}, share err {worst_share:.2e}, {elapsed:.1f}s")


def test_criterion_02_importance_recovery():
    space = unit_space(10)
    ok_every_seed = True
    inert_sums = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        trials = []
        for i in range(500):
            c = sample(space, rng)
            u = to_unit(space, c)
            nu = 0.5 + 0.2 * (0.7 * math.sqrt(2) * math.sin(2 * math.pi * u[0])
                              + 0.3 * math.sqrt(2) * math.cos(2 * math.pi * u[1]))
            trials.append(make_trial(c, float(np.clip(nu, 0, 1)), trial_id=i))
        rep = decompose(fit_forest(trials, space, seed=seed))
        F1, F2 = rep.individual["x0"], rep.individual["x1"]
        inert = [rep.individual[f"x{i}"] for i in range(2, 10)]
        inert_sums.append(sum(inert))
        if not (F1 > F2 > max(inert) and sum(inert) <= 0.1):
            ok_every_seed = False
    check(2, "importance recovery (10/10 seeds)", ok_every_seed,
          f"max inert sum {max(inert_sums):.4f}")


def test_criterion_03_decomposition_sanity():
    ok = True
    worst_sum = 0.0
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(2, 5))
        space = SearchSpace(params=tuple(
            [ParamSpec(f"x{i}", "continuous", 0.0, 1.0) for i in range(d - 1)]
            + [ParamSpec("m", "categorical", choices=("a", "b", "c"))]))
        trials = []
        w = rng.uniform(-1, 1, d)
        for i in range(120):
            c = sample(space, rng)
            z = to_unit(space, c)
            nu = float(np.clip(0.5 + 0.3 * math.tanh(w @ z) + 0.05 * rng.normal(), 0, 1))
            trials.append(make_trial(c, nu, trial_id=i))
        forest = fit_forest(trials, space, n_trees=16, seed=seed)
        report, per_tree = decompose(forest, return_per_tree=True)
        if any(v < 0 for v in report.individual.values()):
            ok = False
        if any(v < 0 for v in report.pairwise.values()):
            ok = False
        for V, fu, fp in per_tree:
            total = fu.sum() + fp.sum()
            worst_sum = max(worst_sum, total)
            if total > 1.0 + 1e-9 or (fu < 0).any() or (fp < 0).any():
                ok = False
    # permutation equivariance, exact
    from test_fanova import permuted_forest
    space = unit_space(3)
    from conftest import trials_from_function
    trials = trials_from_function(space, lambda u: u[0] * u[1] + 0.2 * u[2], 100, seed=3)
    forest = fit_forest(trials, space, n_trees=8, seed=4)
    rep = decompose(forest)
    rep_p = decompose(permuted_forest(forest, [2, 0, 1]))
    perm_ok = all(rep_p.individual[n] == rep.individual[n] for n in space.names) and \
        all(rep_p.pair(u, v) == w for (u, v), w in rep.pairwise.items())
    check(3, "decomposition sanity + exact permutation equivariance",
          ok and perm_ok, f"max per-tree order-1+2 sum {worst_sum:.9f}")


def test_criterion_04_hyperband_schedule():
    brackets = hyperband_schedule(81, 3)
    expected = {
        4: ((81, 1), (27, 3), (9, 9), (3, 27), (1, 81)),
        3: ((34, 3), (11, 9), (3, 27), (1, 81)),
        2: ((15, 9), (5, 27), (1, 81)),
        1: ((8, 27), (2, 81)),
        0: ((5, 81),),
    }
    ok = {b.s: b.rungs for b in brackets} == expected
    check(4, "hyperband schedule (R=81, eta=3) exact", ok)


def test_criterion_05_model_based_beats_random():
    space = unit_space(4)
    target = np.array([0.3, 0.7, 0.45, 0.6])

    def evaluator(config, budget, seed):
        u = to_unit(space, config)
        nu = min(1.0, float(((u - target) ** 2).sum()))
        return make_trial(config, nu, trial_id=-1, budget=budget, seed=seed)

    def first_hit(trials, thr=0.05, cap=120):
        for t in trials:
            if t.nu <= thr:
                return t.trial_id + 1
        return cap + 1

    medians = {}
    for kind in ("random", "tpe", "gp"):
        hits = [first_hit(run(space, Strategy(kind), evaluator, 120, seed=s))
                for s in range(20)]
        medians[kind] = float(np.median(hits))
    ok = medians["tpe"] < medians["random"] and medians["gp"] < medians["random"]
    check(5, "TPE and GP beat random (median trials to nu<=0.05, 20 seeds)", ok,
          f"random {medians['random']:.1f}, tpe {medians['tpe']:.1f}, gp {medians['gp']:.1f}")


# ---------------------------------------------------------------------------
# criterion 6: full pipeline recovery on 4 positions x 3 modalities

def _recovery_deployment():
    positions = ("hips", "hand", "torso", "bag")
    modalities = ("acc", "gyr", "mag")
    sources = tuple(DataSource(id=f"{p}_{m}", position=p, modality=m, channels=1)
                    for p in positions for m in modalities)
    return Deployment(sources=sources, sampling_rate=50.0)


def _recovery_planted():
    return PlantedDgp(
        activities=("walk", "run", "still", "cycle"),
        informative={
            "walk": {"hips_acc": SignalSpec(3.0, 1.0)},
            "run": {"hips_acc": SignalSpec(7.0, 1.0), "hips_gyr": SignalSpec(5.0, 1.0)},
            "still": {"torso_acc": SignalSpec(5.0, 1.0)},
            "cycle": {"bag_gyr": SignalSpec(4.0, 1.0)},
        },
        distractor_sigma=0.4, phase_jitter=0.5)


def _recover_subsets(seed: int, budget: int = 100):
    dep = _recovery_deployment()
    planted = _recovery_planted()
    ds = generate(dep, planted, 30, window_len=100,
                  sensor_models=SensorModel(noise_sigma=0.3), seed=seed)
    folds = meta_segment_partition(ds.frames, k=4, meta_len=1, seed=seed)
    space = pipeline.gain_space(dep)
    base = ModelConfig(conv_mode="grouped_modalities", n_conv_blocks=1,
                       kernel_sizes=(9, 9, 9), n_filters=6, stride_fraction=0.5,
                       dropout=0.0, epochs=12, classifier_head="softmax_linear")
    evaluator = pipeline.LearnerEvaluator(ds, folds, base, val_fold=0)
    trials = run(space, Strategy("random"), evaluator, budget, seed=seed,
                 full_budget=float(base.epochs))
    reports = {
        a: decompose(fit_forest(trials, space, response=f"per_activity_nu[{a}]",
                                seed=seed))
        for a in planted.activities
    }
    model = derive_dgp(reports, space, tau_imp=0.2, tau_int=0.2)
    truth = DgpModel(
        activities=planted.activities, sources=tuple(dep.source_ids),
        importances={y: SourceImportance(y, {s: 0.0 for s in dep.source_ids},
                                         degenerate=True) for y in planted.activities},
        interactions={y: InteractionDegrees(y, {}, degenerate=True)
                      for y in planted.activities},
        subsets={y: planted.informative_ids(y) for y in planted.activities})
    _, mean_jaccard = agreement(model, truth)
    return mean_jaccard


def test_criterion_06_planted_dgp_recovery():
    scores = [_recover_subsets(seed) for seed in range(10)]
    mean = float(np.mean(scores))
    check(6, "planted DGP recovery (B=100 random, 10 seeds)", mean >= 0.8,
          f"mean Jaccard {mean:.3f}, per-seed {[round(s, 2) for s in scores]}")


def test_criterion_07_w_dgp_improvement():
    wins = 0
    diffs = []
    for seed in range(10):
        ds, planted = planted_dataset(seed=seed)
        folds = meta_segment_partition(ds.frames, k=3, meta_len=8, seed=seed)
        cfg = ModelConfig(n_conv_blocks=0, dropout=0.0, learning_rate=0.3,
                          epochs=60, classifier_head="softmax_linear",
                          mask_sigma=0.5)
        base = run_protocol(ds, folds, cfg, mode="wo-DGP", seed=seed)
        wdgp = run_protocol(ds, folds, cfg, dgp=truth_dgp(ds, planted),
                            mode="w-DGP", seed=seed)
        diffs.append(wdgp.mean_f1 - base.mean_f1)
        wins += wdgp.mean_f1 > base.mean_f1
    mean_gain = float(np.mean(diffs))
    check(7, "w-DGP beats wo-DGP (paired seeds)", wins >= 9 and mean_gain >= 0.05,
          f"wins {wins}/10, mean gain {mean_gain:+.3f}")


# ---------------------------------------------------------------------------
# criterion 8: neighborhood bias via a 1-NN probe

def _knn_cv_f1(frames, folds, activities):
    X = stat_features(np.stack([f.samples for f in frames]))
    X = (X - X.mean(axis=0)) / (X.std(axis=0) + 1e-9)
    y = np.array([activities.index(f.activity) for f in frames])
    fold_of = np.array([folds.assignment[f.frame_id] for f in frames])
    preds = np.empty(len(frames), dtype=int)
    for k in range(folds.k):
        val = fold_of == k
        tr = ~val
        d2 = ((X[val][:, None, :] - X[tr][None, :, :]) ** 2).sum(axis=2)
        preds[val] = y[tr][d2.argmin(axis=1)]
    K = len(activities)
    conf = np.zeros((K, K), dtype=int)
    np.add.at(conf, (y, preds), 1)
    from harvana.learner import macro_f1_from_confusion
    return macro_f1_from_confusion(conf)


def test_criterion_08_neighborhood_bias_direction():
    wins = 0
    gaps = []
    for seed in range(10):
        dep = Deployment(sources=(
            DataSource("hips_acc", "hips", "acc", 1),
            DataSource("hand_acc", "hand", "acc", 1),
            DataSource("bag_acc", "bag", "acc", 1)), sampling_rate=50.0)
        planted = PlantedDgp(
            activities=("walk", "jog"),
            informative={"walk": {"hips_acc": SignalSpec(3.0, 1.0)},
                         "jog": {"hips_acc": SignalSpec(3.6, 1.0)}},
            distractor_sigma=0.5, phase_jitter=0.5, freq_jitter=0.15,
            amp_jitter=0.3, autocorr=0.9)
        ds = generate(dep, planted, 60, 100, SensorModel(noise_sigma=0.3),
                      seed=seed, stride=0.5)  # 50% overlap
        acts = ("walk", "jog")
        f1_plain = _knn_cv_f1(ds.frames, meta_segment_partition(ds.frames, 5, 1, seed), acts)
        f1_meta = _knn_cv_f1(ds.frames, meta_segment_partition(ds.frames, 5, 20, seed), acts)
        gaps.append(f1_plain - f1_meta)
        wins += f1_plain > f1_meta
    check(8, "neighborhood bias direction (meta_len 1 vs 20)", wins >= 9,
          f"wins {wins}/10, mean gap {np.mean(gaps):+.3f}")


def test_criterion_09_thermocouple_transfer():
    rng = np.random.default_rng(0)
    worst = 0.0
    for T in rng.uniform(0.0, 1820.0, 100):
        exact = float(exact_thermo_mv(Fraction(T)))
        got = thermocouple_transfer(T)
        worst = max(worst, abs(got - exact) / abs(exact))
    zero_ok = thermocouple_transfer(0.0) == 0.0
    check(9, "thermocouple transfer vs extended-precision oracle",
          worst <= 1e-12 and zero_ok, f"worst rel err {worst:.2e}")


def test_criterion_10_gradient_correctness():
    # head (mlp) and one conv block, central differences at 10 random points
    from test_learner import deployment, toy_frames
    dep = deployment(2, channels=3)
    cfg = ModelConfig(n_conv_blocks=0, dropout=0.0, classifier_head="mlp",
                      dense_units=16, activation="tanh", learning_rate=0.1)
    net = build(cfg, dep, ("a", "b", "c"), 40, seed=2)
    frames = toy_frames(n_per_class=4, activities=("a", "b", "c"))
    X = np.stack([f.samples for f in frames])
    y = np.array([("a", "b", "c").index(f.activity) for f in frames])
    err_head = gradient_check(net, X, y, n_probes=10)

    dep1 = deployment(1, channels=2)
    cfg_conv = ModelConfig(n_conv_blocks=1, kernel_sizes=(5, 5, 5), n_filters=3,
                           stride_fraction=0.5, dropout=0.0, activation="tanh",
                           classifier_head="softmax_linear")
    net_conv = build(cfg_conv, dep1, ("a", "b"), window_len=16, seed=4)
    rng = np.random.default_rng(0)
    Xc = rng.normal(size=(6, 2, 16))
    yc = np.array([0, 1, 0, 1, 0, 1])
    err_conv = gradient_check(net_conv, Xc, yc, n_probes=10)
    check(10, "analytic vs finite-difference gradients",
          err_head <= 1e-4 and err_conv <= 1e-4,
          f"head {err_head:.2e}, conv {err_conv:.2e}")


def test_criterion_11_pipeline_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        manifest = pipeline.demo_manifest(out)
        pipeline.run_pipeline(manifest)
        outs.append(out)
    a, b = outs
    compared = 0
    identical = True
    for rel in ["trials.jsonl", "dgp.json", "metrics.json", "folds.json",
                "report/importance.csv", "report/tau_sweep.csv",
                "report/tau_sweep.svg", "report/summary.md"]:
        compared += 1
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            identical = False
    for pa in sorted((a / "reports").glob("*.json")):
        compared += 1
        if pa.read_bytes() != (b / "reports" / pa.name).read_bytes():
            identical = False
    for pa in sorted((a / "report").glob("*.svg")):
        compared += 1
        if pa.read_bytes() != (b / "report" / pa.name).read_bytes():
            identical = False
    check(11, "pipeline byte-determinism (trial logs, reports, SVGs)",
          identical, f"{compared} artifacts compared")


def test_criterion_12_tau_monotonicity():
    # subset sizes over a 6-point tau_imp sweep, planted surrogate responses
    space = pipeline.gain_space(_recovery_deployment())
    rng = np.random.default_rng(5)
    trials = []
    for i in range(300):
        c = sample(space, rng)
        nu_walk = 0.2 + 0.5 * (1.0 - c["gain_hips_acc"]) + rng.normal(0, 0.03)
        nu_run = 0.2 + 0.5 * (1.0 - min(c["gain_hips_acc"], c["gain_hips_gyr"])) \
            + rng.normal(0, 0.03)
        trials.append(make_trial(
            c, float(np.clip((nu_walk + nu_run) / 2, 0, 1)), trial_id=i,
            per_activity={"walk": float(np.clip(nu_walk, 0, 1)),
                          "run": float(np.clip(nu_run, 0, 1))}))
    reports = {
        a: decompose(fit_forest(trials, space, response=f"per_activity_nu[{a}]",
                                seed=0))
        for a in ("walk", "run")
    }
    taus = [0.0, 0.1, 0.2, 0.35, 0.5, 0.75]
    sizes = []
    for tau in taus:
        model = derive_dgp(reports, space, tau, 0.2)
        sizes.append({y: len(model.subsets[y]) for y in model.activities})
    monotone = all(
        all(sizes[i][y] >= sizes[i + 1][y] for y in sizes[i])
        for i in range(len(sizes) - 1))
    at_zero_all = all(n == len(space.source_map) - 1 for n in sizes[0].values())
    check(12, "subset sizes non-increasing in tau_imp (6-point sweep)",
          monotone and at_zero_all,
          f"sizes {[tuple(s.values()) for s in sizes]}")
