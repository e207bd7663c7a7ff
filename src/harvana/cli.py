"""Command-line interface.

Subcommands: generate, partition, explore, analyze, dgp, train, report,
pipeline. Exit codes: 0 ok, 2 validation error (bad inputs/schemas), 3 stage
failure at runtime.
"""

from __future__ import annotations

import argparse
import json
import logging
from pathlib import Path

import numpy as np

from . import dgp as dgp_mod
from . import explorer, fanova, forest, hyperspace, learner, pipeline, report, sensors

logger = logging.getLogger("harvana")

VALIDATION_ERRORS = (
    hyperspace.SpaceError,
    explorer.StrategyError,
    forest.ForestError,
    dgp_mod.DgpError,
    sensors.SensorError,
    sensors.IngestError,
    learner.ConfigError,
    pipeline.ManifestError,
    json.JSONDecodeError,
    KeyError,
    FileNotFoundError,
)


def _parse_setting(raw: str):
    key, _, value = raw.partition("=")
    if not _:
        raise explorer.StrategyError(f"--set expects key=value, got {raw!r}")
    for conv in (int, float):
        try:
            return key, conv(value)
        except ValueError:
            continue
    return key, value


def _stride_arg(text: str) -> int | float:
    """--stride: an integer literal is samples, a decimal literal a fraction
    of the window in (0, 1]; `1` is one sample and `1.0` the whole window."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        try:
            if 0.0 < float(text) <= 1.0:
                return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a sample count (integer >= 1) nor a fraction of the "
        "window (decimal in (0, 1])")


def cmd_generate(args) -> int:
    ds = pipeline.generate_dataset(json.loads(Path(args.planted).read_text()), args.out,
                                   args.frames, args.window, args.seed, args.stride,
                                   args.recordings)
    print(f"wrote {len(ds.recordings)} recordings, {len(ds.frames)} frames to {args.out}")
    return 0


def cmd_partition(args) -> int:
    ds = sensors.load_frames(args.data, args.window, args.stride, args.smooth_window)
    folds = sensors.meta_segment_partition(ds.frames, args.k, args.meta_len, args.seed)
    hyperspace.write_json(args.out, folds.to_json())
    print(f"wrote {args.out}: {len(folds.assignment)} frames over {args.k} folds")
    return 0


def cmd_explore(args) -> int:
    space = hyperspace.load_space(args.space)
    settings = dict(_parse_setting(s) for s in args.set or [])
    strategy = explorer.Strategy(args.strategy, settings)
    if args.objective == "sphere":
        target = np.full(space.dim, 0.5)

        def evaluator(config, budget, seed):
            u = hyperspace.to_unit(space, config)
            nu = min(1.0, float(((u - target) ** 2).sum()))
            return hyperspace.Trial(trial_id=-1, config=config, budget=budget,
                                    nu=nu, per_activity_nu={}, f1=1.0 - nu, seed=seed)

        full_budget = 1.0
    else:
        if not (args.data and args.folds):
            raise learner.ConfigError("explore needs --data and --folds "
                                      "(or --objective sphere)")
        ds = sensors.load_frames(args.data, args.window, args.stride, args.smooth_window)
        folds = sensors.load_folds(args.folds)
        base = (pipeline.model_config_from_json(json.loads(Path(args.model).read_text()))
                if args.model else learner.ModelConfig())
        evaluator = pipeline.LearnerEvaluator(ds, folds, base, val_fold=args.val_fold)
        full_budget = float(base.epochs)
    trials = explorer.run(space, strategy, evaluator, args.budget, args.seed,
                          out_path=args.out, full_budget=full_budget,
                          workers=args.workers)
    best = min(trials, key=lambda t: t.nu)
    print(f"wrote {len(trials)} trials to {args.out}; best nu {best.nu:.4f} "
          f"(trial {best.trial_id})")
    return 0


def cmd_analyze(args) -> int:
    trials = hyperspace.read_trials(args.trials)
    space = hyperspace.load_space(args.space)
    if args.pairwise:
        # bad pairwise flags fail before anything is fitted or written
        if not args.svg:
            raise forest.ForestError("--pairwise needs --svg OUT")
        pair = [name.strip() for name in args.pairwise.split(",")]
        pipeline.check_pairs(space, [pair], args.resolution)
    fr, = pipeline.analysis_forests(trials, space, [args.response], args.n_trees,
                                    args.max_depth, args.min_leaf, args.seed)
    rep = fanova.decompose(fr)
    if args.out:
        fanova.save_report(rep, args.out)
        print(f"wrote {args.out} (total variance {rep.total_variance:.6g})")
    if args.csv:
        report.importance_csv(rep, args.csv)
        print(f"wrote {args.csv}")
    if args.pairwise:
        grid_csv = args.grid_csv or str(Path(args.svg).with_suffix(".csv"))
        pipeline.write_marginal(fr, *pair, args.resolution, args.svg, grid_csv)
        print(f"wrote {args.svg} and {grid_csv}")
    return 0


def cmd_dgp(args) -> int:
    if args.dgp_cmd == "agree":
        a = dgp_mod.load_dgp(args.a)
        b = dgp_mod.load_dgp(args.b)
        per, mean = dgp_mod.agreement(a, b)
        for y in sorted(per):
            print(f"{y}: {per[y]:.4f}")
        print(f"mean: {mean:.4f}")
        return 0
    if not args.report or not args.space:
        raise dgp_mod.DgpError("dgp needs --report (one or more) and --space")
    model = dgp_mod.derive_dgp(pipeline.activity_reports(args.report),
                               hyperspace.load_space(args.space), args.tau_imp, args.tau_int)
    dgp_mod.save_dgp(model, args.out)
    sizes = {y: len(s) for y, s in sorted(model.subsets.items())}
    print(f"wrote {args.out}; subset sizes {sizes}")
    return 0


def cmd_train(args) -> int:
    ds = sensors.load_frames(args.data, args.window, args.stride, args.smooth_window)
    folds = sensors.load_folds(args.folds)
    cfg = (pipeline.model_config_from_json(json.loads(Path(args.config).read_text()))
           if args.config else learner.ModelConfig())
    model = dgp_mod.load_dgp(args.dgp) if args.dgp else None
    res = learner.run_protocol(ds, folds, cfg, dgp=model, mode=args.mode,
                               seed=args.seed, include_null=args.include_null,
                               supplement=args.augment_supplement)
    doc = {"results": {args.mode: res.to_json()}}
    hyperspace.write_json(args.out, doc)
    csv_base = Path(args.out).with_suffix("")
    for fi, m in enumerate(res.per_fold):
        report.confusion_csv(m.labels, m.confusion, f"{csv_base}_fold{fi}.csv")
    print(f"{args.mode}: macro f1 {res.mean_f1:.4f} +- {res.std_f1:.4f} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    manifest = pipeline.Manifest.load(args.manifest)
    out = pipeline.stage_report(manifest, force=args.force)
    print(f"wrote {out}")
    return 0


def cmd_pipeline(args) -> int:
    if args.demo:
        manifest_path = pipeline.demo_manifest(args.demo)
        print(f"materialized demo manifest at {manifest_path}")
    else:
        if not args.manifest:
            raise pipeline.ManifestError("pipeline needs --manifest or --demo DIR")
        manifest_path = args.manifest
    artifacts = pipeline.run_pipeline(manifest_path, force=args.force,
                                      workers=args.workers)
    for p in artifacts:
        print(f"ok: {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harvana",
        description="hyperparameter-space exploration, forest-ANOVA importance, "
                    "and data-source subset selection for activity recognition")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="synthesize a planted dataset")
    p.add_argument("--planted", required=True, help="JSON with deployment/planted/sensor")
    p.add_argument("--frames", type=int, default=20, help="frames per activity recording")
    p.add_argument("--window", type=int, default=600)
    p.add_argument("--stride", type=_stride_arg, default=None)
    p.add_argument("--recordings", type=int, default=1, help="recordings per activity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("partition", help="meta-segmented fold assignment")
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=600)
    p.add_argument("--stride", type=_stride_arg, default=None)
    p.add_argument("--smooth-window", type=int, default=1,
                   help="moving-average preprocessing window (1 = off)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--meta-len", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("explore", help="run a budgeted exploration strategy")
    p.add_argument("--space", required=True)
    p.add_argument("--strategy", default="random", choices=explorer.STRATEGY_KINDS)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="strategy setting override (repeatable)")
    p.add_argument("--data", help="dataset directory (learner evaluator)")
    p.add_argument("--folds", help="folds.json (learner evaluator)")
    p.add_argument("--model", help="base model config JSON")
    p.add_argument("--val-fold", type=int, default=0)
    p.add_argument("--window", type=int, default=600)
    p.add_argument("--stride", type=_stride_arg, default=None)
    p.add_argument("--smooth-window", type=int, default=1)
    p.add_argument("--objective", choices=["sphere"],
                   help="built-in synthetic objective instead of the learner")
    p.add_argument("--workers", type=int, default=None,
                   help="processes that evaluate each batch of trials, this one "
                        "included (random and grid: every trial; hyperband and bohb: "
                        "each rung; tpe and gp propose one trial at a time, which runs "
                        "here); forked, so each holds the evaluator once; default: one "
                        "per usable CPU")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("analyze", help="forest fANOVA over a trial log")
    p.add_argument("--trials", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--response", default="nu")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="importance table CSV path")
    p.add_argument("--pairwise", metavar="U,V", help="emit a pairwise marginal grid")
    p.add_argument("--resolution", type=int, default=40)
    p.add_argument("--svg", help="heat-map output for --pairwise")
    p.add_argument("--grid-csv", help="grid CSV for --pairwise (default: SVG path .csv)")
    p.add_argument("--n-trees", type=int, default=64)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--min-leaf", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("dgp", help="derive a data-source model, or compare two")
    dgp_sub = p.add_subparsers(dest="dgp_cmd")
    p.add_argument("--report", action="append",
                   help="per-activity report JSON or glob (repeatable)")
    p.add_argument("--space")
    p.add_argument("--tau-imp", type=float, default=0.2)
    p.add_argument("--tau-int", type=float, default=0.2)
    p.add_argument("--out", default="dgp.json")
    agree = dgp_sub.add_parser("agree", help="per-activity Jaccard agreement")
    agree.add_argument("--a", required=True)
    agree.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_dgp)

    p = sub.add_parser("train", help="cross-validated protocol run")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--config", help="model config JSON")
    p.add_argument("--mode", default="wo-DGP", choices=learner.MODES)
    p.add_argument("--dgp", help="dgp.json (required for w-DGP / w-HExp)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=600)
    p.add_argument("--stride", type=_stride_arg, default=None)
    p.add_argument("--smooth-window", type=int, default=1)
    p.add_argument("--include-null", action="store_true")
    p.add_argument("--augment-supplement", action="store_true",
                   help="keep originals and append masked copies")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("report", help="render the report bundle for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage of a manifest")
    p.add_argument("--manifest")
    p.add_argument("--demo", metavar="DIR",
                   help="materialize the bundled demo manifest into DIR and run it")
    p.add_argument("--force", action="store_true")
    p.add_argument("--workers", type=int, default=None,
                   help="processes that evaluate the explore stage's trials, this "
                        "one included (the stage runs random or grid, one batch of "
                        "every trial); default: one per usable CPU")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except pipeline.StageError as e:
        logger.error("%s", e)
        if isinstance(e.cause, VALIDATION_ERRORS):
            return 2
        return 3
    except VALIDATION_ERRORS as e:
        logger.error("%s", e)
        return 2
    except Exception as e:  # runtime failure
        logger.error("%s", e)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
