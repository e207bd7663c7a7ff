"""End-to-end orchestration: generate -> partition -> explore -> analyze ->
dgp -> protocol -> report, driven by a JSON manifest.

Stages are idempotent: each one is skipped when it is done unless
force=True. The rule lives in one place, the `_stage` declaration: each
stage names the manifest path it writes and, if that is a directory, the
file it writes last, and is done when that file exists and carries the
stage's stamp (Manifest.config_hash). Every file is written through
hyperspace.atomic_open, so a crashed stage never passes for done. Every
artifact embeds a provenance block (stage seed plus stamp), stages hand
over through files only, and all outputs are byte-deterministic for a
fixed manifest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import dgp as dgp_mod
from . import explorer, fanova, forest, hyperspace, learner, report, sensors
from .sensors import deployment_from_json

logger = logging.getLogger(__name__)


class ManifestError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON codecs for the pieces a manifest describes (the deployment's live in
# sensors, next to the dataset layout that embeds it)

def _fields(cls, doc: Mapping, where: str, **given):
    """`cls` built from `given` (every field without a default) plus each
    other field `doc` sets, converted to the type of that field's default;
    fields `doc` omits keep the class default. A key `cls` lacks, or a value
    that does not convert, raises ManifestError naming `where.key`."""
    if not isinstance(doc, Mapping):
        raise ManifestError(f"{where}: expected an object, got {doc!r}")
    known = {f.name: f for f in fields(cls)}
    for key, value in doc.items():
        if key not in known:
            raise ManifestError(f"{where}.{key}: unknown key")
        if key in given:
            continue
        f = known[key]
        default = f.default if f.default is not MISSING else f.default_factory()
        given[key] = hyperspace.convert_key(f"{where}.{key}", default, value, ManifestError)
    return cls(**given)


def planted_from_json(doc: Mapping) -> sensors.PlantedDgp:
    informative = {
        activity: {src: _fields(sensors.SignalSpec, spec,
                                f"planted.informative.{activity}.{src}",
                                base_freq=float(spec["base_freq"]))
                   for src, spec in srcs.items()}
        for activity, srcs in doc["informative"].items()
    }
    return _fields(sensors.PlantedDgp, doc, "planted",
                   activities=tuple(doc["activities"]), informative=informative)


def model_config_from_json(doc: Mapping) -> learner.ModelConfig:
    return _fields(learner.ModelConfig, doc, "model")


def gain_space(deployment: sensors.Deployment,
               lr_bounds: tuple[float, float] = (0.005, 0.5)) -> hyperspace.SearchSpace:
    """Per-source input-gain space plus a global log-uniform learning rate."""
    params = [hyperspace.ParamSpec("lr", "continuous", lr_bounds[0], lr_bounds[1],
                                   prior="log")]
    for s in deployment.sources:
        params.append(hyperspace.ParamSpec(f"gain_{s.id}", "continuous", 0.0, 1.0,
                                           source_tag=s.id))
    return hyperspace.SearchSpace(params=tuple(params))


# ---------------------------------------------------------------------------
# the evaluator the explorer drives

class LearnerEvaluator:
    """(Configuration, budget, seed) -> Trial, by training the learner on the
    train split and validating on the held-out fold. Budget is epochs.
    Divergence is a measured worst-case outcome (nu = 1), not a failure."""

    def __init__(self, dataset: sensors.Dataset, folds: sensors.FoldAssignment,
                 base_config: learner.ModelConfig, val_fold: int = 0):
        self.dataset = dataset
        self.base_config = base_config
        self.activities = tuple(dataset.activities)
        self.window_len = dataset.frames[0].samples.shape[1]
        self.train_frames, self.val_frames = folds.split(dataset.frames, val_fold)

    def __call__(self, config: hyperspace.Configuration, budget: float,
                 seed: int) -> hyperspace.Trial:
        cfg = replace(learner.config_from_values(config, self.base_config),
                      epochs=max(1, round(budget)))
        net = learner.build(cfg, self.dataset.deployment, self.activities,
                            self.window_len, seed=seed)
        try:
            trained = learner.train(net, self.train_frames, cfg, seed=seed)
            metrics = learner.evaluate(trained, self.val_frames)
            nu, f1 = metrics.nu, metrics.macro_f1
            per_nu = metrics.per_activity_nu
        except learner.TrainingDiverged as e:
            logger.warning("trial diverged at epoch %d; recording worst-case loss", e.epoch)
            nu, f1 = 1.0, 0.0
            per_nu = {a: 1.0 for a in self.activities}
        return hyperspace.Trial(trial_id=-1, config=config, budget=budget, nu=nu,
                                per_activity_nu=per_nu, f1=f1, seed=seed)


# ---------------------------------------------------------------------------
# manifest

DEFAULT_MANIFEST: dict = {
    "seed": 7,
    "paths": {
        "data": "data",
        "space": "space.json",
        "folds": "folds.json",
        "trials": "trials.jsonl",
        "reports": "reports",
        "dgp": "dgp.json",
        "metrics": "metrics.json",
        "report": "report",
    },
    "generate": {
        "deployment": None,   # deployment_to_json layout
        "planted": None,      # planted_from_json layout
        "sensor": {"noise_sigma": 0.3},
        "frames_per_activity": 20,
        "window_len": 100,
        "stride": None,
        "smooth_window": 1,
        "recordings_per_activity": 1,
    },
    "partition": {"k": 4, "meta_len": 1},
    "explore": {"strategy": "random", "budget": 24, "settings": {},
                "val_fold": 0, "model": {}, "lr_bounds": (0.005, 0.5)},
    "analyze": {"n_trees": 32, "max_depth": 10, "min_leaf": 3},
    "dgp": {"tau_imp": 0.2, "tau_int": 0.2},
    "protocol": {"modes": ["wo-DGP", "w-DGP"], "model": {}, "hexp": None,
                 "include_null": False, "supplement": False,
                 "tau_sweep": [0.0, 0.2, 0.4, 0.6]},
    "report": {"pairwise": [], "resolution": 20},
}


def _merge(base: Mapping, override: Mapping) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, Mapping) and isinstance(out.get(k), Mapping):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


@dataclass
class Manifest:
    doc: dict
    root: Path

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ManifestError(f"manifest not found: {path}")
        # the shape is checked before any stage runs
        if not isinstance(doc, dict):
            raise ManifestError(f"{path}: expected an object, got {doc!r}")
        for key, default in DEFAULT_MANIFEST.items():
            if isinstance(default, Mapping) and not isinstance(doc.get(key, {}), Mapping):
                raise ManifestError(f"{path}: {key} must be an object, got {doc[key]!r}")
        names = [name for name, _ in STAGES]
        stages = doc.get("stages")
        if stages is not None and not (isinstance(stages, list)
                                       and all(s in names for s in stages)):
            raise ManifestError(f"{path}: stages must be null or a list of stage names"
                                f" {names}, got {stages!r}")
        # a misspelt key would leave its default in force: reject it (sections
        # are checked one level deep; the codecs check what lies below)
        unknown = [key for key in doc if key not in DEFAULT_MANIFEST and key != "stages"]
        unknown += [f"{key}.{sub}" for key, section in doc.items()
                    if isinstance(DEFAULT_MANIFEST.get(key), Mapping)
                    for sub in section if sub not in DEFAULT_MANIFEST[key]]
        if unknown:
            raise ManifestError(f"{path}: unknown manifest keys {unknown}")
        for key, value in doc.get("paths", {}).items():
            if not isinstance(value, str):
                raise ManifestError(f"{path}: paths.{key} must be a string, got {value!r}")
        return cls(doc=_merge(DEFAULT_MANIFEST, doc), root=path.parent)

    def path(self, key: str) -> Path:
        return self.root / self.doc["paths"][key]

    def number(self, key: str):
        """The value at dotted `key` (e.g. "analyze.n_trees") read by
        hyperspace.convert as the type of its DEFAULT_MANIFEST default; a
        value that does not convert raises ManifestError naming the key."""
        *sections, name = key.split(".")
        doc, default = self.doc, DEFAULT_MANIFEST
        for section in sections:
            doc, default = doc[section], default[section]
        value, default = doc.get(name), default[name]
        try:
            return hyperspace.convert(default, value)
        except (TypeError, ValueError):
            kind = (f"a list of {len(default)} numbers" if isinstance(default, tuple) else
                    "a non-empty list" if isinstance(default, list) else
                    "a boolean" if isinstance(default, bool) else
                    "an object" if isinstance(default, dict) else
                    f"a number ({type(default).__name__})")
            raise ManifestError(f"{key} must be {kind}, got {value!r}") from None

    @property
    def seed(self) -> int:
        return self.number("seed")

    def stage_seed(self, stage: str) -> int:
        """The seed of `stage`, keyed by its place in STAGES (generate 1)."""
        k = [name for name, _ in STAGES].index(stage) + 1
        return int(hyperspace.derive_rng(self.seed, k).integers(2 ** 31))

    def config_hash(self, stage: str) -> str:
        """The stamp of `stage`: a hash of the seed and the sections of
        `stage` and the stages before it, all its artifacts derive from (no
        stage reads a later section); `paths` and `stages` stay out."""
        names = [name for name, _ in STAGES]
        doc = {key: self.doc[key] for key in ["seed", *names[:names.index(stage) + 1]]}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# What a failing stage raises: harvana's own errors derive from ValueError or
# RuntimeError, the rest are Python's runtime failures. Any other exception,
# such as a class a caller defines to end a run early from a hook, passes
# through run_pipeline as raised.
STAGE_FAILURES = (ValueError, RuntimeError, OSError, ArithmeticError, LookupError,
                  TypeError, AttributeError, MemoryError, AssertionError)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# the steps: each is one function of plain values that both its stage and
# its CLI subcommand call

def generate_dataset(spec: Mapping, out: str | Path, frames_per_activity: int,
                     window_len: int, seed: int, stride: int | float | None,
                     recordings_per_activity: int,
                     provenance: Mapping | None = None) -> sensors.Dataset:
    """Synthesize and write to `out` the dataset a planted spec ("deployment",
    "planted", optional "sensor") describes; `provenance` goes last."""
    if not spec.get("deployment") or not spec.get("planted"):
        raise ManifestError("generate needs 'deployment' and 'planted'")
    sensor = _fields(sensors.SensorModel, spec.get("sensor") or {}, "sensor")
    ds = sensors.generate(deployment_from_json(spec["deployment"]),
                          planted_from_json(spec["planted"]), frames_per_activity,
                          window_len, sensor, seed=seed, stride=stride,
                          recordings_per_activity=recordings_per_activity)
    sensors.write_dataset(ds, out)
    if provenance is not None:
        hyperspace.write_text(Path(out) / "provenance.json",
                              json.dumps(provenance, sort_keys=True) + "\n")
    return ds


def analysis_forests(trials: list[hyperspace.Trial], space: hyperspace.SearchSpace,
                     responses: list[str], n_trees: int, max_depth: int, min_leaf: int,
                     seed: int) -> list[forest.Forest]:
    """The forests fANOVA reads, one per response: full-budget trials only
    (mixed fidelities corrupt the surface)."""
    full = max(t.budget for t in trials)
    return forest.fit_forests([t for t in trials if t.budget == full], space, responses,
                              n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                              seed=seed)


def check_pairs(space: hyperspace.SearchSpace, pairs: list, resolution: int) -> None:
    """ForestError unless each of `pairs` is a list of two distinct params
    of `space` and `resolution` >= 1."""
    if resolution < 1 or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise forest.ForestError("pairwise entries must be [u, v] and resolution must"
                                 f" be >= 1, got {pairs} and {resolution}")
    for u, v in pairs:
        fanova.pair_dims(space, u, v, resolution)


def write_marginal(fr: forest.Forest, u: str, v: str, resolution: int, svg: str | Path,
                   grid_csv: str | Path, provenance: Mapping | None = None) -> None:
    """The marginal response of `fr` over (u, v): heat map and grid CSV."""
    tu, tv, vals = fanova.pairwise_marginal_table(fr, u, v, resolution)
    report.heatmap_svg(vals, svg, u, v, title=f"marginal {fr.response} over ({u}, {v})",
                       provenance=provenance)
    report.pairwise_grid_csv(tu, tv, vals, u, v, grid_csv, provenance)


def activity_reports(patterns: list[str | Path]) -> dict[str, fanova.ImportanceReport]:
    """The per-activity reports among the files `patterns` name, by activity.
    A pattern whose name holds *, ? or [ is a glob, read in sorted order; a
    report of the overall nu names no activity and is skipped."""
    reports = {}
    for pattern in patterns:
        p = Path(pattern)
        paths = sorted(p.parent.glob(p.name)) if any(ch in p.name for ch in "*?[") else [p]
        if not paths:
            raise dgp_mod.DgpError(f"no reports match {str(pattern)!r}")
        for path in paths:
            rep = fanova.load_report(path)
            activity = forest.activity_of(rep.response)
            if activity is not None:
                reports[activity] = rep
    if not reports:
        raise dgp_mod.DgpError(f"no per-activity reports among {[str(p) for p in patterns]}")
    return reports


# ---------------------------------------------------------------------------
# stages

# (name, stage) in run order, one entry per _stage declaration
STAGES: list[tuple[str, Callable[..., Path]]] = []


def _stage(name: str, out_key: str, last: str | None = None):
    """Declare a stage that writes the manifest path `out_key`, next in
    STAGES. It is done when `last`, the file it writes last, exists under
    that path (the path itself when `last` is None) and carries the stage's
    stamp, Manifest.config_hash(name); a done stage is skipped unless
    force=True. The body runs as body(manifest, out, built, seed, prov,
    **kw), given the stage's seed and the provenance its artifacts embed,
    which holds that stamp. `built` is the dict in which the stages of one
    run_pipeline call share the parsed dataset (see run_pipeline); a stage
    called alone gets an empty one."""
    def declare(body: Callable[..., None]) -> Callable[..., Path]:
        @functools.wraps(body)
        def stage(manifest: Manifest, force: bool = False, built: dict | None = None,
                  **kw) -> Path:
            out = manifest.path(out_key)
            done = out / last if last else out
            seed = manifest.stage_seed(name)
            prov = {"seed": seed, "config_hash": manifest.config_hash(name)}
            if not force and done.exists() and prov["config_hash"].encode() in done.read_bytes():
                logger.info("%s: %s up-to-date", name, out)
                return out
            body(manifest, out, {} if built is None else built, seed, prov, **kw)
            logger.info("%s: wrote %s", name, out)
            return out
        STAGES.append((name, stage))
        return stage
    return declare


def _dataset(manifest: Manifest, built: dict) -> sensors.Dataset:
    """The run's dataset: the data CSVs are parsed on first use, and the
    later stages of the run share that parse."""
    if "dataset" not in built:
        gen = manifest.doc["generate"]
        built["dataset"] = sensors.load_frames(
            manifest.path("data"), manifest.number("generate.window_len"), gen.get("stride"),
            manifest.number("generate.smooth_window"))
    return built["dataset"]


def _load_frames(manifest: Manifest,
                 built: dict) -> tuple[sensors.Dataset, sensors.FoldAssignment]:
    return _dataset(manifest, built), sensors.load_folds(manifest.path("folds"))


@_stage("generate", "data", last="provenance.json")
def stage_generate(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict) -> None:
    gen = manifest.doc["generate"]
    generate_dataset(gen, out, manifest.number("generate.frames_per_activity"),
                     manifest.number("generate.window_len"), seed, gen.get("stride"),
                     manifest.number("generate.recordings_per_activity"), prov)


@_stage("partition", "folds")
def stage_partition(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict) -> None:
    frames = _dataset(manifest, built).frames
    folds = sensors.meta_segment_partition(frames, manifest.number("partition.k"),
                                           manifest.number("partition.meta_len"), seed)
    hyperspace.write_json(out, folds.to_json(), prov)


@_stage("explore", "space")
def stage_explore(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict,
                  workers: int | None = None) -> None:
    """Explore the gain space of the deployment. The trial log's format
    stays pure, so the space, written after each complete run with the
    provenance, marks the stage done."""
    exp = manifest.doc["explore"]
    # the manifest's settings are checked before anything is loaded or written
    lr_bounds = manifest.number("explore.lr_bounds")
    strategy = explorer.Strategy(exp["strategy"], manifest.number("explore.settings"))
    if strategy.kind not in explorer.DESIGNS:
        raise explorer.StrategyError(
            f"explore.strategy {strategy.kind!r} is not a design: fANOVA reads the forest "
            "under the uniform measure, and tpe, gp, hyperband and bohb logs crowd where "
            "the search went (mean Jaccard 0.15-0.75 against 0.892 for random); use "
            f"{' or '.join(explorer.DESIGNS)}, or `harvana explore --strategy {strategy.kind}`")
    base = model_config_from_json(exp.get("model") or {})
    budget, val_fold = manifest.number("explore.budget"), manifest.number("explore.val_fold")
    ds, folds = _load_frames(manifest, built)
    space = gain_space(ds.deployment, lr_bounds)
    evaluator = LearnerEvaluator(ds, folds, base, val_fold=val_fold)
    explorer.run(space, strategy, evaluator, budget, seed, out_path=manifest.path("trials"),
                 full_budget=float(base.epochs), workers=workers)
    hyperspace.write_json(out, hyperspace.space_to_json(space), prov)


@_stage("analyze", "reports", last="report_nu.json")
def stage_analyze(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    trials = hyperspace.read_trials(manifest.path("trials"))
    space = hyperspace.load_space(manifest.path("space"))
    # report_nu.json marks the stage done, so it is written last
    responses = [f"per_activity_nu[{a}]"
                 for a in sorted(trials[0].per_activity_nu)] + ["nu"]
    forests = analysis_forests(trials, space, responses, seed=seed, **{
        k: manifest.number(f"analyze.{k}") for k in ("n_trees", "max_depth", "min_leaf")})
    for resp, fr in zip(responses, forests):
        rep = fanova.decompose(fr)
        name = "nu" if resp == "nu" else forest.activity_of(resp)
        if resp == "nu":  # the report stage draws its heat maps from this forest
            hyperspace.write_json(out / "forest_nu.json", forest.forest_to_json(fr), prov)
        report.importance_csv(rep, out / f"report_{name}.csv", prov)
        hyperspace.write_json(out / f"report_{name}.json", fanova.report_to_json(rep), prov)


@_stage("dgp", "dgp")
def stage_dgp(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict) -> None:
    space = hyperspace.load_space(manifest.path("space"))
    reports = activity_reports([manifest.path("reports") / "report_*.json"])
    model = dgp_mod.derive_dgp(reports, space, manifest.number("dgp.tau_imp"),
                               manifest.number("dgp.tau_int"))
    hyperspace.write_json(out, dgp_mod.dgp_to_json(model), prov)


@_stage("protocol", "metrics")
def stage_protocol(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict) -> None:
    proto = manifest.doc["protocol"]
    # the manifest's modes, thresholds and switches are checked before any fit or write
    modes = manifest.number("protocol.modes")
    if unknown := [mode for mode in modes if mode not in learner.MODES]:
        raise ManifestError(f"protocol.modes: unknown modes {unknown}")
    taus, tau_int = manifest.number("protocol.tau_sweep"), manifest.number("dgp.tau_int")
    include_null = manifest.number("protocol.include_null")
    supplement = manifest.number("protocol.supplement")
    ds, folds = _load_frames(manifest, built)
    space = hyperspace.load_space(manifest.path("space"))
    reports = activity_reports([manifest.path("reports") / "report_*.json"])
    config = model_config_from_json(proto.get("model") or {})
    # seed and config are fixed, so runs on the same training frames train the
    # same model: each distinct set trains once, for every mode and threshold
    runs: dict[frozenset | None, learner.ProtocolResult] = {}

    def run(model: dgp_mod.DgpModel | None, mode: str) -> learner.ProtocolResult:
        subsets = learner.training_subsets(model, ds, supplement)
        key = None if subsets is None else frozenset(subsets.items())
        if key not in runs:
            runs[key] = learner.run_protocol(
                ds, folds, config, dgp=model, mode=mode, seed=seed,
                include_null=include_null, supplement=supplement)
        return replace(runs[key], mode=mode)

    results = {}
    for mode in modes:
        model = None
        if mode == "w-DGP":
            model = dgp_mod.load_dgp(manifest.path("dgp"))
        elif mode == "w-HExp":
            if not proto.get("hexp"):
                raise ManifestError("w-HExp mode needs a 'hexp' path")
            model = dgp_mod.load_dgp(manifest.root / proto["hexp"])
        res = run(model, mode)
        results[mode] = res.to_json()
        for fi, m in enumerate(res.per_fold):
            report.confusion_csv(m.labels, m.confusion,
                                 out.parent / f"confusion_{mode}_fold{fi}.csv", prov)
    # tau sweep: f1, the mean size of the subsets trained on and the number
    # of activities that fell back to all sources, per threshold; each runs
    # as w-DGP, so the row at dgp.tau_imp is the w-DGP result
    sweep = []
    for tau in taus:
        model = dgp_mod.derive_dgp(reports, space, tau, tau_int)
        res = run(model, "w-DGP")
        subsets = learner.training_subsets(model, ds, supplement=True)
        sweep.append([tau, res.mean_f1, res.std_f1,
                      float(np.mean([len(s) for s in subsets.values()])),
                      len(learner.fallbacks(model, ds))])
    hyperspace.write_json(out, {"results": results, "tau_sweep": sweep}, prov)


@_stage("report", "report", last="summary.md")
def stage_report(manifest: Manifest, out: Path, built: dict, seed: int, prov: dict) -> None:
    """Render the report bundle from space.json, reports/ and metrics.json;
    nothing here trains or fits. The heat maps come from forest_nu.json, the
    forest whose shares report_nu.json holds."""
    space = hyperspace.load_space(manifest.path("space"))
    # the manifest's report settings are checked before any write
    resolution = manifest.number("report.resolution")
    pairs = manifest.doc["report"].get("pairwise") or []
    check_pairs(space, pairs, resolution)
    out.mkdir(parents=True, exist_ok=True)
    overall = fanova.load_report(manifest.path("reports") / "report_nu.json")
    report.importance_csv(overall, out / "importance.csv", prov)

    # pairwise marginal heat maps for the named (or top) pairs
    if not pairs:
        ranked = sorted(overall.pairwise.items(), key=lambda kv: -kv[1])
        pairs = [k for k, w in ranked[:2] if w > 0]
    if pairs:
        fr = forest.load_forest(manifest.path("reports") / "forest_nu.json", space)
        for u, v in pairs:
            write_marginal(fr, u, v, resolution, out / f"marginal_{u}_{v}.svg",
                           out / f"marginal_{u}_{v}.csv", prov)
    else:
        logger.info("report: no positive pairwise terms, heat maps skipped")

    metrics = json.loads(manifest.path("metrics").read_text())
    rows = metrics["tau_sweep"]
    report.write_csv(out / "tau_sweep.csv",
                     ["tau_imp", "mean_f1", "std_f1", "mean_subset_size", "fallbacks"],
                     rows, prov)
    report.tau_sweep_svg(*list(zip(*rows))[:4], out / "tau_sweep.svg", prov)

    mode_lines = "\n".join(
        f"- {mode}: macro f1 {res['mean_f1']:.4f} +- {res['std_f1']:.4f}"
        for mode, res in sorted(metrics["results"].items()))
    top = sorted(overall.individual.items(), key=lambda kv: -kv[1])[:5]
    imp_lines = "\n".join(f"- {p}: {v:.4f}" for p, v in top)
    sweep_lines = "\n".join(
        f"- tau_imp={r[0]:g}: f1 {r[1]:.4f} +- {r[2]:.4f}, mean subset size {r[3]:.2f}, "
        f"fallbacks {r[4]}"
        for r in rows)
    summary = {
        "Protocol results": mode_lines,
        "Top hyperparameter importances (overall nu)": imp_lines,
        "Threshold sweep": sweep_lines,
    }
    report.summary_markdown(out / "summary.md", summary, prov)


def run_pipeline(manifest_path: str | Path, force: bool = False,
                 workers: int | None = None) -> list[Path]:
    """Run the manifest's stages in order; the first failure aborts with a
    StageError naming the stage (its partial artifacts are left in place).

    The optional manifest field "stages" (a list of stage names) toggles a
    subset on; omitted or null means every stage. `workers` goes to the
    explore stage's explorer.run, which evaluates every trial of its design
    (random or a whole grid) as one batch on that many processes; None means
    one per usable CPU.

    The stages of one call share one `built` dict, in which the data CSVs
    are parsed once for partition, explore and protocol. Nothing in it
    outlives the call; every other handover is a file."""
    manifest = Manifest.load(manifest_path)
    enabled = manifest.doc.get("stages")
    artifacts, built = [], {}
    for name, fn in STAGES:
        if enabled is not None and name not in enabled:
            logger.info("%s: toggled off in manifest", name)
            continue
        try:
            # only exploration runs trials in parallel
            extra = {"workers": workers} if name == "explore" else {}
            artifacts.append(fn(manifest, force, built=built, **extra))
        except STAGE_FAILURES as e:
            raise StageError(name, e) from e
    return artifacts


# ---------------------------------------------------------------------------
# bundled demo

def demo_manifest(out_dir: str | Path) -> Path:
    """Materialize the bundled demo manifest (a small planted deployment that
    the full pipeline runs end to end in seconds)."""
    from importlib import resources

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with resources.files("harvana.data").joinpath("demo_manifest.json").open() as fh:
        doc = json.load(fh)
    path = out / "manifest.json"
    hyperspace.write_json(path, doc)
    return path
