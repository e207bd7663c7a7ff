"""Metric definitions and the per-layer numbers computed from spans.

``END_TO_END`` and ``PER_LAYER`` list every metric with its unit and, for
the per-layer ones, the end-to-end metric and workload it is predicted to
move. ``BENCHMARK.json`` must list the same names (``run.py`` checks this).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from harvana import learner, pipeline

from spans import END, ERROR, INFO, NAME, PARENT, START, Recorder
import workloads as wl

END_TO_END = (
    ("setup_s", "s", "job start to the first explore or train call: median of the "
                     "run's set-ups, in reference-speed seconds"),
    ("wall_s", "s", "end of set-up to the final answer: median of the run's jobs, "
                    "in reference-speed seconds"),
    ("peak_rss_mb", "MB", "peak resident memory of the workload process"),
)

# workload-level numbers measured with tracing off: printed by the plain run,
# reported as per-layer metrics by the traced run
RUN_LEVEL = ("trials_per_s", "trial_ms.p50", "trial_ms.p90", "train_samples_per_s",
             "jaccard", "f1_gain", "error_rate")
EVALUATORS = ("pipeline.LearnerEvaluator.__call__", "surrogate.PlantedResponse.__call__")
MODES = {"grouped_modalities": "grouped", "split_modalities": "split_modalities",
         "split_channels": "split_channels"}
KERNEL_SHAPES = ("demo.grouped", "recovery.grouped", "paper.grouped",
                 "paper.split_modalities", "paper.split_channels")
STAGES = ("generate", "partition", "explore", "analyze", "dgp", "protocol", "report")

# (name, unit, end-to-end metric it should move, workloads it moves on)
PER_LAYER = [
    ("trials_per_s", "1/s", "wall_s", "demo, recovery, surrogate"),
    ("trial_ms.p50", "ms", "wall_s", "demo, recovery, surrogate"),
    ("trial_ms.p90", "ms", "wall_s", "recovery, surrogate"),
    ("train_samples_per_s", "1/s", "wall_s", "demo, recovery, paper_scale"),
    ("jaccard", "1", "none (quality guard)", "demo, recovery, surrogate"),
    ("f1_gain", "1", "none (quality guard)", "demo"),
    ("error_rate", "1", "none (correctness guard)", "all"),
    ("trace.overhead_s", "s", "none (measurement cost)", "all"),
    ("trace.overhead_frac", "1", "none (measurement cost)", "all"),
    ("trace.spans", "count", "none (measurement cost)", "all"),
    ("trace.span_us", "us", "none (measurement cost)", "all"),
    ("host.speed_factor", "1", "none (reference seconds per raw second)", "all"),
]
PER_LAYER += [(f"pipeline.{s}_s", "s", "wall_s, setup_s", "demo") for s in STAGES]
PER_LAYER += [
    ("sensors.generate_s", "s", "setup_s", "demo, paper_scale"),
    ("sensors.ingest_s", "s", "setup_s, wall_s", "demo"),
    ("sensors.segment_s", "s", "setup_s, wall_s", "demo, paper_scale"),
    ("sensors.partition_s", "s", "setup_s", "demo, paper_scale"),
    ("sensors.ingest_calls", "count", "setup_s, wall_s", "demo"),
    ("sensors.csv_bytes", "bytes", "setup_s, wall_s", "demo"),
    ("hyperspace.read_trials_s", "s", "wall_s", "demo"),
    ("explorer.self_s", "s", "wall_s, trial_ms.p90", "surrogate"),
    ("explorer.propose_ms.p50", "ms", "wall_s, trial_ms.p90", "surrogate"),
    ("explorer.propose_ms.p90", "ms", "wall_s, trial_ms.p90", "surrogate"),
    ("explorer.trials", "count", "wall_s", "demo, recovery, surrogate"),
    ("learner.build_s", "s", "wall_s", "recovery, demo, paper_scale"),
    ("learner.train_s", "s", "wall_s, trials_per_s, train_samples_per_s",
     "recovery, demo, paper_scale"),
    ("learner.evaluate_s", "s", "wall_s, trials_per_s", "recovery, demo, paper_scale"),
    ("learner.mask_augment_s", "s", "wall_s", "demo"),
    ("learner.steps", "count", "wall_s", "recovery, demo, paper_scale"),
    ("learner.step_ms.p50", "ms", "wall_s, train_samples_per_s", "recovery, demo, paper_scale"),
    ("learner.step_ms.p90", "ms", "wall_s, train_samples_per_s", "recovery, demo, paper_scale"),
    ("learner.fwd_ms.p50", "ms", "wall_s, trials_per_s", "recovery, demo, paper_scale"),
    ("learner.diverged", "count", "wall_s, error_rate", "recovery, demo"),
    ("learner.protocol_runs", "count", "wall_s", "demo"),
    ("learner.protocol_unique_frac", "1", "wall_s", "demo"),
]
PER_LAYER += [(f"learner.train_s.{m}", "s", "wall_s, train_samples_per_s", "paper_scale")
              for m in MODES]
PER_LAYER += [
    ("learner.conv_gflop", "GFLOP-computed", "wall_s, peak_rss_mb", "paper_scale"),
    ("learner.conv_gflops", "GFLOP/s", "wall_s, train_samples_per_s", "paper_scale"),
]
for _shape in KERNEL_SHAPES:
    _on = _shape.split(".")[0].replace("paper", "paper_scale")
    PER_LAYER += [
        (f"learner.kernel.{_shape}.fwd_ms", "ms", "wall_s", _on),
        (f"learner.kernel.{_shape}.fwd_bwd_ms", "ms", "wall_s", _on),
        (f"learner.kernel.{_shape}.gflop", "GFLOP-computed", "none (shape fact)", _on),
        (f"learner.kernel.{_shape}.mb_moved", "MB-computed", "none (shape fact)", _on),
        (f"learner.kernel.{_shape}.gflops", "GFLOP/s", "wall_s", _on),
    ]
PER_LAYER += [
    ("forest.fit_s", "s", "wall_s", "surrogate, recovery"),
    ("forest.fit_ms.p50", "ms", "wall_s", "surrogate, recovery"),
    ("forest.fits", "count", "wall_s", "surrogate, recovery, demo"),
    ("forest.fit_unique_frac", "1", "wall_s", "demo"),
    ("forest.leaves", "count", "wall_s", "surrogate, recovery"),
    ("fanova.decompose_s", "s", "wall_s", "surrogate, recovery"),
    ("fanova.decompose_calls", "count", "wall_s", "surrogate, recovery"),
    ("fanova.pairwise_table_s", "s", "wall_s", "surrogate, demo"),
    ("dgp.derive_s", "s", "wall_s (negligible; kept so a regression shows)", "all"),
    ("report.emit_s", "s", "wall_s", "demo"),
    ("report.bytes", "bytes", "wall_s", "demo"),
]
UNITS = {name: unit for name, unit, *_ in END_TO_END + tuple(PER_LAYER)}


# ---------------------------------------------------------------------------
# computed conv cost (from array shapes, not measured)

def conv_cost(net: learner.Network, n: int) -> tuple[float, float, float]:
    """(forward FLOPs, forward+backward FLOPs, forward+backward bytes) of
    the network's conv layers on a batch of n, in float64. Forward is
    2*N*F*C*K*O multiply-adds; backward computes dW and the input gradient at
    the same cost each. Bytes are the compulsory reads and writes of inputs,
    weights, outputs and their gradients."""
    fwd = fwd_bwd = nbytes = 0.0
    for stack in net.stacks:
        L = net.window_len
        for layer in stack:
            W = getattr(layer, "W", None)
            if W is not None:
                F, C, K = W.shape
                O = (L - K) // layer.stride + 1
                f = 2.0 * n * F * C * K * O
                fwd += f
                fwd_bwd += 3.0 * f
                x, w, y = n * C * L, F * C * K, n * F * O
                nbytes += 8.0 * ((x + w + y) + (y + x + w + w + x))
                L = O
            elif type(layer).__name__ == "_MaxPool2":
                L //= 2
    return fwd, fwd_bwd, nbytes


def _train_info(b, result):
    net = b.arguments["network"]
    n = sum(f.activity in net.activities for f in b.arguments["frames"])
    return {"samples": n * len(result.loss_trace), "mode": net.config.conv_mode}


def _fwd_bwd_flops(b, result):
    return conv_cost(b.arguments["self"], len(b.arguments["X"]))[1]


def _fwd_flops(b, result):
    return conv_cost(b.arguments["self"], len(b.arguments["X"]))[0]


def _protocol_key(b, result):
    a = b.arguments
    subsets = None if a.get("dgp") is None else tuple(
        sorted((y, tuple(sorted(s))) for y, s in a["dgp"].subsets.items()))
    return (a.get("mode"), a.get("seed"), repr(a["config"]), len(a["dataset"].frames),
            subsets, a.get("include_null"), a.get("supplement"))


def _forest_info(b, result):
    a = b.arguments
    key = (a.get("response"), a.get("n_trees"), a.get("max_depth"), a.get("min_leaf"),
           a.get("seed"), tuple((t.trial_id, t.nu, t.budget) for t in a["trials"]))
    return {"key": key, "leaves": sum(len(t.predictions) for t in result.trees)}


def _csv_bytes(b, result):
    return sum(p.stat().st_size for p in Path(b.arguments["out_dir"]).glob("*.csv"))


def _file_bytes(b, result):
    path = Path(b.arguments["path"])
    return path.stat().st_size if path.is_file() else 0


PROBE_INFO = {"learner.train": _train_info}


def trace_info(targets) -> dict:
    info = dict(PROBE_INFO)
    info.update({
        "learner.Network.loss_and_grads": _fwd_bwd_flops,
        "learner.Network.logits": _fwd_flops,
        "learner.run_protocol": _protocol_key,
        "forest.fit_forest": _forest_info,
        "sensors.write_dataset": _csv_bytes,
    })
    info.update({t: _file_bytes for t in targets if t.startswith("report.")})
    return info


# ---------------------------------------------------------------------------
# numbers from spans

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _dur(span) -> float:
    return span[END] - span[START]


def run_stats(rec: Recorder, outcomes) -> dict:
    """The run-level numbers: trials, learner throughput, quality, failures."""
    spans = rec.spans
    trial_ms, explore_s = [], 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "explorer.run":
            continue
        explore_s += _dur(s)
        last = s[START]
        for c in spans[i + 1:]:
            if c[START] > s[END]:
                break
            if c[PARENT] == i and c[NAME] in EVALUATORS:
                trial_ms.append((c[END] - last) * 1e3)
                last = c[END]
    train = [s for s in spans if s[NAME] == "learner.train"]
    train_s = sum(_dur(s) for s in train)
    samples = sum(s[INFO]["samples"] for s in train if s[INFO])
    raised = sum(s[ERROR] is not None for s in train)
    attempted = sum(o.attempted for o in outcomes) + len(train)
    failed = sum(o.failed for o in outcomes) + raised
    jac = [o.jaccard for o in outcomes if o.jaccard is not None]
    gain = [o.f1_gain for o in outcomes if o.f1_gain is not None]
    return {
        "trials_per_s": len(trial_ms) / explore_s if explore_s else 0.0,
        "trial_ms.p50": _pct(trial_ms, 50), "trial_ms.p90": _pct(trial_ms, 90),
        "trial_count": len(trial_ms),
        "train_samples_per_s": samples / train_s if train_s else 0.0,
        "jaccard": float(np.mean(jac)) if jac else 0.0,
        "f1_gain": float(np.mean(gain)) if gain else 0.0,
        "error_rate": failed / attempted if attempted else 0.0,
        "attempted": attempted, "failed": failed,
        "problems": [p for o in outcomes for p in o.problems],
    }


def per_layer(rec: Recorder) -> dict[str, float]:
    """Per-module metrics from one traced job."""
    spans = rec.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def total(name):
        return sum(_dur(s) for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    m: dict[str, float] = {f"pipeline.{st}_s": total(f"pipeline.stage_{st}") for st in STAGES}
    m.update({
        "sensors.generate_s": total("sensors.generate"),
        "sensors.ingest_s": total("sensors.ingest_csv"),
        "sensors.segment_s": total("sensors.segment"),
        "sensors.partition_s": total("sensors.meta_segment_partition"),
        "sensors.ingest_calls": count("sensors.ingest_csv"),
        "sensors.csv_bytes": sum(s[INFO] or 0 for s in by_name.get("sensors.write_dataset", ())),
        "hyperspace.read_trials_s": total("hyperspace.read_trials"),
    })

    # explorer: its own time is run time not spent inside the evaluator
    run_idx = {i for i, s in enumerate(spans) if s[NAME] == "explorer.run"}
    evals = [s for s in spans if s[NAME] in EVALUATORS and s[PARENT] in run_idx]
    propose_ms = []
    for i in sorted(run_idx):
        last = spans[i][START]
        for s in evals:
            if s[PARENT] == i:
                propose_ms.append((s[START] - last) * 1e3)
                last = s[END]
    m.update({
        "explorer.self_s": total("explorer.run") - sum(_dur(s) for s in evals),
        "explorer.propose_ms.p50": _pct(propose_ms, 50),
        "explorer.propose_ms.p90": _pct(propose_ms, 90),
        "explorer.trials": len(evals),
    })

    # learner: a step is loss_and_grads plus the sgd_step that follows it
    steps, pending = [], {}
    for s in spans:
        if s[NAME] == "learner.Network.loss_and_grads":
            pending[s[PARENT]] = _dur(s)
        elif s[NAME] == "learner.Network.sgd_step" and s[PARENT] in pending:
            steps.append((pending.pop(s[PARENT]) + _dur(s)) * 1e3)
    train = by_name.get("learner.train", [])
    protocol_keys = [s[INFO] for s in by_name.get("learner.run_protocol", [])]
    conv = by_name.get("learner.Network.loss_and_grads", []) + \
        by_name.get("learner.Network.logits", [])
    conv_flop = sum(s[INFO] or 0.0 for s in conv)
    conv_s = sum(_dur(s) for s in conv)
    m.update({
        "learner.build_s": total("learner.build"),
        "learner.train_s": total("learner.train"),
        "learner.evaluate_s": total("learner.evaluate"),
        "learner.mask_augment_s": total("learner.mask_augment"),
        "learner.steps": len(steps),
        "learner.step_ms.p50": _pct(steps, 50),
        "learner.step_ms.p90": _pct(steps, 90),
        "learner.fwd_ms.p50": _pct([_dur(s) * 1e3 for s in
                                    by_name.get("learner.Network.logits", [])], 50),
        "learner.diverged": sum(s[ERROR] == "TrainingDiverged" for s in train),
        "learner.protocol_runs": len(protocol_keys),
        "learner.protocol_unique_frac":
            len(set(protocol_keys)) / len(protocol_keys) if protocol_keys else 0.0,
        "learner.conv_gflop": conv_flop / 1e9,
        "learner.conv_gflops": conv_flop / 1e9 / conv_s if conv_s else 0.0,
    })
    for mode in MODES:
        m[f"learner.train_s.{mode}"] = sum(
            _dur(s) for s in train if s[INFO] and s[INFO]["mode"] == mode)

    fits = by_name.get("forest.fit_forest", [])
    keys = [s[INFO]["key"] for s in fits if s[INFO]]
    m.update({
        "forest.fit_s": total("forest.fit_forest"),
        "forest.fit_ms.p50": _pct([_dur(s) * 1e3 for s in fits], 50),
        "forest.fits": len(fits),
        "forest.fit_unique_frac": len(set(keys)) / len(keys) if keys else 0.0,
        "forest.leaves": sum(s[INFO]["leaves"] for s in fits if s[INFO]),
        "fanova.decompose_s": total("fanova.decompose"),
        "fanova.decompose_calls": count("fanova.decompose"),
        "fanova.pairwise_table_s": total("fanova.pairwise_marginal_table"),
        "dgp.derive_s": total("dgp.derive_dgp"),
    })

    # report: top-level report.* calls only (write_csv nests inside the others)
    top = [s for s in spans if s[NAME].startswith("report.")
           and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("report."))]
    m["report.emit_s"] = sum(_dur(s) for s in top)
    m["report.bytes"] = sum(s[INFO] or 0 for s in top)
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# kernel table: whole-network forward and forward+backward at fixed shapes

def kernel_network(shape: str) -> tuple[learner.Network, int]:
    """The network and batch size a kernel-table shape names."""
    where, mode = shape.split(".")
    conv_mode = {v: k for k, v in MODES.items()}[mode]
    if where == "demo":
        doc = wl.demo_manifest_doc()
        dep = pipeline.deployment_from_json(doc["generate"]["deployment"])
        cfg = pipeline.model_config_from_json(doc["explore"]["model"])
        acts = doc["generate"]["planted"]["activities"]
        return learner.build(cfg, dep, acts, doc["generate"]["window_len"]), 32
    if where == "recovery":
        dep = wl.deployment(wl.RECOVERY_POSITIONS, 50.0)
        return learner.build(wl.RECOVERY_MODEL, dep, wl.planted().activities, 100), 32
    dep = wl.deployment(wl.PAPER_POSITIONS, 100.0)
    return (learner.build(wl.paper_model(conv_mode), dep, wl.planted().activities,
                          wl.PAPER_WINDOW), wl.PAPER_BATCH)


def kernel_table(shapes, budget_s: float = 1.0, max_reps: int = 25) -> dict[str, float]:
    """Median time of Network.logits and Network.loss_and_grads on a fixed
    random batch, with the conv layers' computed FLOPs and bytes."""
    out = {}
    for shape in shapes:
        net, n = kernel_network(shape)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, net.deployment.n_channels, net.window_len))
        y = np.arange(n) % len(net.activities)
        times = {}
        for label, call in (("fwd_ms", lambda: net.logits(X)),
                            ("fwd_bwd_ms", lambda: net.loss_and_grads(X, y))):
            samples, t_end = [], time.perf_counter() + budget_s
            while not samples or (len(samples) < max_reps and time.perf_counter() < t_end):
                t0 = time.perf_counter()
                call()
                samples.append((time.perf_counter() - t0) * 1e3)
            times[label] = statistics.median(samples)
        _, flop, nbytes = conv_cost(net, n)
        p = f"learner.kernel.{shape}."
        out.update({p + "fwd_ms": times["fwd_ms"], p + "fwd_bwd_ms": times["fwd_bwd_ms"],
                    p + "gflop": flop / 1e9, p + "mb_moved": nbytes / 1e6,
                    p + "gflops": flop / 1e9 / (times["fwd_bwd_ms"] / 1e3)})
    return out
