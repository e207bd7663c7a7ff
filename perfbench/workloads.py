"""The benchmark's four workloads and their output checks.

Each workload is a closed-loop job with one caller: ``job(seed, clock,
work_dir)`` builds its inputs from ``seed``, calls ``clock.setup_done()`` at
the end of set-up (just before the first explore or train call), runs to its
final answer and returns an :class:`Outcome` holding the output checks. The
program only ever sees the inputs generated here.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from importlib import resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harvana import dgp, explorer, fanova, forest, hyperspace, learner, pipeline, sensors

TAU_IMP = TAU_INT = 0.2


class SetupOnly(Exception):
    """Raised at the end of set-up when a job is run only to time set-up."""


class Clock:
    """Marks where set-up ends inside one job."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.start = time.perf_counter()
        self.setup_end: float | None = None

    def setup_done(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
            if self.setup_only:
                raise SetupOnly


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    jaccard: float | None = None
    f1_gain: float | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ---------------------------------------------------------------------------
# planted inputs

RECOVERY_POSITIONS = ("hips", "hand", "torso", "bag")
PAPER_POSITIONS = ("hips", "hand", "torso", "bag", "chest", "head",
                   "wrist_l", "wrist_r", "thigh_l", "thigh_r", "ankle_l", "ankle_r")
MODALITIES = ("acc", "gyr", "mag")


def deployment(positions, sampling_rate: float) -> sensors.Deployment:
    return sensors.Deployment(
        sources=tuple(sensors.DataSource(f"{p}_{m}", p, m, 1)
                      for p in positions for m in MODALITIES),
        sampling_rate=sampling_rate)


def planted() -> sensors.PlantedDgp:
    spec = sensors.SignalSpec
    return sensors.PlantedDgp(
        activities=("walk", "run", "still", "cycle"),
        informative={
            "walk": {"hips_acc": spec(3.0, 1.0)},
            "run": {"hips_acc": spec(7.0, 1.0), "hips_gyr": spec(5.0, 1.0)},
            "still": {"torso_acc": spec(5.0, 1.0)},
            "cycle": {"bag_gyr": spec(4.0, 1.0)},
        },
        distractor_sigma=0.4, phase_jitter=0.5)


def truth_model(plant: sensors.PlantedDgp, dep: sensors.Deployment) -> dgp.DgpModel:
    ids = dep.source_ids
    return dgp.DgpModel(
        activities=plant.activities, sources=tuple(sorted(ids)),
        importances={y: dgp.SourceImportance(y, {s: 0.0 for s in ids}, degenerate=True)
                     for y in plant.activities},
        interactions={y: dgp.InteractionDegrees(y, {}, degenerate=True)
                      for y in plant.activities},
        subsets={y: plant.informative_ids(y) for y in plant.activities})


def _check_trials(out: Outcome, trials) -> None:
    for t in trials:
        out.check(all(math.isfinite(v) for v in (t.nu, *t.per_activity_nu.values())),
                  f"trial {t.trial_id}: non-finite nu")


def _check_jaccard(out: Outcome, model: dgp.DgpModel, truth: dgp.DgpModel) -> float:
    _, jac = dgp.agreement(model, truth)
    out.check(0.0 <= jac <= 1.0, f"jaccard {jac} outside [0, 1]")
    return jac


# ---------------------------------------------------------------------------
# demo: the bundled manifest through all seven stages

@contextmanager
def _setup_ends_at_explore(clock: Clock):
    """Mark the end of set-up when the pipeline first calls explorer.run."""
    inner = explorer.run

    def run(*args, **kwargs):
        clock.setup_done()
        return inner(*args, **kwargs)

    explorer.run = run
    try:
        yield
    finally:
        explorer.run = inner


def demo_manifest_doc() -> dict:
    with resources.files("harvana.data").joinpath("demo_manifest.json").open() as fh:
        return json.load(fh)


def demo(seed: int, clock: Clock, work_dir: Path) -> Outcome:
    """The bundled manifest with only its seed replaced by the workload seed."""
    root = work_dir / "demo"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    doc = demo_manifest_doc()
    doc["seed"] = seed
    path = root / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    with _setup_ends_at_explore(clock):
        pipeline.run_pipeline(path, force=True, workers=1)
    return check_demo(pipeline.Manifest.load(path))


def _parses(path: Path) -> bool:
    try:
        if path.suffix == ".json":
            json.loads(path.read_text())
        elif path.suffix == ".jsonl":
            lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
            if not lines:
                return False
            for ln in lines:
                json.loads(ln)
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            return len(rows) >= 2
        elif path.suffix == ".svg":
            ET.parse(path)
        else:
            return bool(path.read_text().strip())
    except (OSError, ValueError, ET.ParseError):
        return False
    return True


def check_demo(manifest: pipeline.Manifest) -> Outcome:
    out = Outcome()
    for key in ("data", "space", "folds", "trials", "reports", "dgp", "metrics", "report"):
        target = manifest.path(key)
        files = sorted(p for p in target.rglob("*") if p.is_file()) if target.is_dir() \
            else [target]
        out.check(bool(files) and all(p.exists() for p in files), f"{key}: artifact missing")
        for p in files:
            out.check(_parses(p), f"{p.name}: does not parse")
    out.check((manifest.path("report") / "summary.md").exists(), "summary.md missing")
    _check_trials(out, hyperspace.read_trials(manifest.path("trials")))

    model = dgp.load_dgp(manifest.path("dgp"))
    activities = manifest.doc["generate"]["planted"]["activities"]
    out.check(set(model.subsets) == set(activities), "an activity has no subset")
    results = json.loads(manifest.path("metrics").read_text())["results"]
    for mode in manifest.doc["protocol"]["modes"]:
        f1 = results.get(mode, {}).get("mean_f1", math.nan)
        out.check(0.0 <= f1 <= 1.0, f"{mode}: f1 {f1} outside [0, 1]")
    if {"w-DGP", "wo-DGP"} <= set(results):
        out.f1_gain = results["w-DGP"]["mean_f1"] - results["wo-DGP"]["mean_f1"]

    plant = pipeline.planted_from_json(manifest.doc["generate"]["planted"])
    dep = pipeline.deployment_from_json(manifest.doc["generate"]["deployment"])
    out.jaccard = _check_jaccard(out, model, truth_model(plant, dep))
    return out


# ---------------------------------------------------------------------------
# recovery: one seed of the planted-subset recovery criterion

RECOVERY_MODEL = learner.ModelConfig(
    conv_mode="grouped_modalities", n_conv_blocks=1, kernel_sizes=(9, 9, 9),
    n_filters=6, stride_fraction=0.5, dropout=0.0, epochs=12,
    classifier_head="softmax_linear")


def recovery(seed: int, clock: Clock, work_dir: Path) -> Outcome:
    dep = deployment(RECOVERY_POSITIONS, 50.0)
    plant = planted()
    ds = sensors.generate(dep, plant, 30, window_len=100,
                          sensor_models=sensors.SensorModel(noise_sigma=0.3), seed=seed)
    folds = sensors.meta_segment_partition(ds.frames, k=4, meta_len=1, seed=seed)
    space = pipeline.gain_space(dep)
    evaluator = pipeline.LearnerEvaluator(ds, folds, RECOVERY_MODEL, val_fold=0)
    clock.setup_done()

    trials = explorer.run(space, explorer.Strategy("random"), evaluator, 100, seed=seed,
                          full_budget=float(RECOVERY_MODEL.epochs))
    reports = {a: fanova.decompose(forest.fit_forest(
                   trials, space, response=f"per_activity_nu[{a}]", seed=seed))
               for a in plant.activities}
    model = dgp.derive_dgp(reports, space, TAU_IMP, TAU_INT)

    out = Outcome()
    _check_trials(out, trials)
    out.jaccard = _check_jaccard(out, model, truth_model(plant, dep))
    return out


# ---------------------------------------------------------------------------
# surrogate: explorer proposals and forest/fANOVA, no learner

SURROGATE_SEARCHES = (("gp", 200), ("tpe", 300))
SURROGATE_TREES = 16
SURROGATE_RESOLUTION = 40


class PlantedResponse:
    """Closed-form evaluator: an activity's loss falls as the mean gain of its
    planted sources rises; the learning rate adds a small bowl; every value
    carries seeded Gaussian noise."""

    def __init__(self, space: hyperspace.SearchSpace, truth: dgp.DgpModel):
        self.space = space
        self.subsets = {a: sorted(s) for a, s in truth.subsets.items()}

    def __call__(self, config: hyperspace.Configuration, budget: float,
                 seed: int) -> hyperspace.Trial:
        rng = np.random.default_rng(seed)
        u_lr = hyperspace.to_unit(self.space, config)[self.space.index("lr")]
        per = {}
        for a, srcs in self.subsets.items():
            gain = float(np.mean([config[f"gain_{s}"] for s in srcs]))
            v = 0.1 + 0.7 * (1.0 - gain) + 0.2 * (u_lr - 0.5) ** 2 + rng.normal(0.0, 0.02)
            per[a] = float(np.clip(v, 0.0, 1.0))
        nu = float(np.mean(list(per.values())))
        return hyperspace.Trial(trial_id=-1, config=config, budget=budget, nu=nu,
                                per_activity_nu=per, f1=1.0 - nu, seed=seed)


def surrogate(seed: int, clock: Clock, work_dir: Path) -> Outcome:
    dep = deployment(RECOVERY_POSITIONS, 50.0)
    plant = planted()
    truth = truth_model(plant, dep)
    space = pipeline.gain_space(dep)
    evaluator = PlantedResponse(space, truth)
    clock.setup_done()

    out = Outcome()
    jaccards = []
    for kind, budget in SURROGATE_SEARCHES:
        trials = explorer.run(space, explorer.Strategy(kind), evaluator, budget, seed=seed)
        fit = dict(n_trees=SURROGATE_TREES, seed=seed)
        overall_forest = forest.fit_forest(trials, space, response="nu", **fit)
        overall = fanova.decompose(overall_forest)
        reports = {a: fanova.decompose(forest.fit_forest(
                       trials, space, response=f"per_activity_nu[{a}]", **fit))
                   for a in plant.activities}
        (u, v), _ = max(overall.pairwise.items(), key=lambda kv: kv[1])
        _, _, table = fanova.pairwise_marginal_table(overall_forest, u, v,
                                                     SURROGATE_RESOLUTION)
        out.check(table.shape == (SURROGATE_RESOLUTION,) * 2
                  and bool(np.isfinite(table).all()), f"{kind}: bad marginal table")
        model = dgp.derive_dgp(reports, space, TAU_IMP, TAU_INT)
        _check_trials(out, trials)
        jaccards.append(_check_jaccard(out, model, truth))
    out.jaccard = float(np.mean(jaccards))
    return out


# ---------------------------------------------------------------------------
# paper_scale: the paper's network shape, one epoch per conv mode

PAPER_BATCH = 8
PAPER_FRAMES_PER_ACTIVITY = 8   # 4 activities x 8 = 32 frames: 16 train, 16 eval
PAPER_WINDOW = 6000


def paper_model(conv_mode: str) -> learner.ModelConfig:
    return learner.ModelConfig(
        conv_mode=conv_mode, n_conv_blocks=3, kernel_sizes=(9, 9, 9), n_filters=28,
        stride_fraction=0.5, dropout=0.1, dense_units=64, learning_rate=0.01,
        epochs=1, batch_size=PAPER_BATCH, classifier_head="mlp")


def paper_scale(seed: int, clock: Clock, work_dir: Path) -> Outcome:
    dep = deployment(PAPER_POSITIONS, 100.0)
    plant = planted()
    ds = sensors.generate(dep, plant, PAPER_FRAMES_PER_ACTIVITY, PAPER_WINDOW,
                          sensor_models=sensors.SensorModel(noise_sigma=0.3), seed=seed)
    folds = sensors.meta_segment_partition(ds.frames, k=2, meta_len=1, seed=seed)
    train_frames, eval_frames = folds.split(ds.frames, 0)
    nets = {mode: learner.build(paper_model(mode), dep, plant.activities, PAPER_WINDOW,
                                seed=seed)
            for mode in learner.CONV_MODES}
    clock.setup_done()

    out = Outcome()
    K = len(plant.activities)
    for mode, net in nets.items():
        trained = learner.train(net, train_frames, seed=seed)
        metrics = learner.evaluate(trained, eval_frames)
        out.check(len(trained.loss_trace) == 1
                  and all(math.isfinite(x) for x in trained.loss_trace),
                  f"{mode}: loss trace {trained.loss_trace}")
        out.check(metrics.confusion.shape == (K, K)
                  and int(metrics.confusion.sum()) == len(eval_frames),
                  f"{mode}: predictions do not cover the {len(eval_frames)} eval frames")
    return out


# workload -> (job, kernel-table shapes its traced run times); why each
# workload is here is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "demo": (demo, ("demo.grouped",)),
    "recovery": (recovery, ("recovery.grouped",)),
    "surrogate": (surrogate, ()),
    "paper_scale": (paper_scale, ("paper.grouped", "paper.split_modalities",
                                  "paper.split_channels")),
}
