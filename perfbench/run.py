"""Benchmark of record for harvana.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process against the sources in ``src/`` (no
install step), with BLAS threads capped at the number of usable CPUs and
``workers=1`` throughout. With ``--trace 0`` it repeats the workload's job
for about ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs the job once plain and once with every public harvana
function wrapped in a span, and reports the per-layer metrics, the kernel
table and the tracing overhead. Machine and environment facts are printed
with every result. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Files go under ``.bench_out/`` at the repository root: the per-run result,
and for traced runs the spans (one JSON line each).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# set-up is timed alone at least SETUP_MIN_REPS times, and more (up to
# SETUP_MAX_REPS) while the set-ups so far have taken under SETUP_MIN_S, so
# that the host-speed sampler sees the set-up phase even when one set-up
# takes a tenth of a millisecond
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 5000, 0.3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "harvana").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import workloads as wl

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "nproc": NPROC, "cpu_model": cpu,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "paper_batch": wl.PAPER_BATCH,
    }


def check_benchmark_json(layers) -> None:
    """BENCHMARK.json and this benchmark must name the same metrics and units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    doc = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    if declared != layers.UNITS:
        fail("BENCHMARK.json metrics differ from perfbench/layers.py: "
             f"{sorted(set(declared.items()) ^ set(layers.UNITS.items()))}")


def probe_recorder(run_id: str):
    import layers
    import spans
    import workloads as wl

    rec = spans.Recorder(run_id)
    rec.install(spans.PROBES, layers.PROBE_INFO)
    rec.install_on(layers.EVALUATORS[1], wl.PlantedResponse, "__call__")
    return rec


@dataclass
class Jobs:
    """What the plain jobs of one run measured. Times are raw seconds except
    ref_walls, which are in reference-speed seconds (see hostspeed.py)."""
    setups: list[float]
    setup_factor: float
    walls: list[float]
    ref_walls: list[float]
    outcomes: list
    probe: object


def repeat_job(job, seed: int, seconds: float, time_setup: bool, work_dir: Path,
               run_id: str, host) -> Jobs:
    """Time set-up alone (if time_setup), then run whole jobs until the next
    one would end past `seconds` (at least one)."""
    import workloads as wl

    jobs = Jobs([], 1.0, [], [], [], probe_recorder(run_id))
    t0 = time.perf_counter()
    with jobs.probe:
        while time_setup and len(jobs.setups) < SETUP_MAX_REPS and (
                len(jobs.setups) < SETUP_MIN_REPS or sum(jobs.setups) < SETUP_MIN_S):
            clock = wl.Clock(setup_only=True)
            try:
                job(seed, clock, work_dir)
            except wl.SetupOnly:
                jobs.setups.append(clock.setup_end - clock.start)
            else:
                raise RuntimeError("job finished without marking the end of set-up")
        if time_setup:
            jobs.setup_factor = host.factor(t0, time.perf_counter())
        while True:
            clock = wl.Clock()
            jobs.outcomes.append(job(seed, clock, work_dir))
            end = time.perf_counter()
            jobs.setups.append(clock.setup_end - clock.start)
            jobs.walls.append(end - clock.setup_end)
            jobs.ref_walls.append(jobs.walls[-1] * host.factor(clock.setup_end, end))
            if time.perf_counter() - t0 + statistics.median(jobs.walls) > seconds:
                break
    return jobs


def traced_job(job, seed: int, work_dir: Path, run_id: str, host):
    """One job with every public harvana function wrapped in a span. Returns
    its wall time in reference-speed seconds, the host factor during it, its
    outcome and the recorder."""
    import layers
    import spans
    import workloads as wl

    rec = spans.Recorder(run_id)
    targets = spans.public_targets()
    rec.install(targets, layers.trace_info(targets))
    rec.install_on(layers.EVALUATORS[1], wl.PlantedResponse, "__call__")
    with rec:
        clock = wl.Clock()
        outcome = job(seed, clock, work_dir)
        end = time.perf_counter()
    factor = host.factor(clock.setup_end, end)
    return (end - clock.setup_end) * factor, factor, outcome, rec


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "harvana" / "__init__.py").is_file():
        fail(f"no harvana sources under {ROOT / 'src'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))

    import logging

    import hostspeed
    import layers
    import spans
    import workloads as wl

    # per-trial divergence and empty-subset warnings are counted, not printed
    logging.getLogger("harvana").setLevel(logging.ERROR)
    check_benchmark_json(layers)
    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    job, kernel_shapes = wl.WORKLOADS[args.workload]
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    raw: dict = {}
    try:
        with hostspeed.HostSpeed() as host:
            if args.trace:
                plain = repeat_job(job, args.seed, 0.0, False, work_dir,
                                   run_id + "-plain", host)
                wall_t, factor_t, outcome_t, rec = traced_job(
                    job, args.seed, work_dir, run_id + "-traced", host)
            else:
                plain = repeat_job(job, args.seed, args.seconds, True, work_dir,
                                   run_id + "-plain", host)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stats = layers.run_stats(plain.probe, plain.outcomes)
    if args.trace:
        traced = layers.run_stats(rec, [outcome_t])
        for key in ("attempted", "failed", "problems"):
            stats[key] += traced[key]
        values = layers.per_layer(rec)
        values.update({name: 0.0 for name, *_ in layers.PER_LAYER
                       if name.startswith("learner.kernel.")})
        values.update(layers.kernel_table(kernel_shapes))
        values.update({k: stats[k] for k in layers.RUN_LEVEL})
        overhead = wall_t - plain.ref_walls[0]
        values.update({"trace.overhead_s": overhead,
                       "trace.overhead_frac": overhead / plain.ref_walls[0],
                       "trace.span_us": spans.span_cost() * 1e6,
                       "host.speed_factor": factor_t})
        rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        names = [(name, f"moves {moves} on {on}") for name, _, moves, on
                 in layers.PER_LAYER]
    else:
        values = {
            "setup_s": statistics.median(plain.setups) * plain.setup_factor,
            "wall_s": statistics.median(plain.ref_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = [(name, desc) for name, _, desc in layers.END_TO_END]
        raw = {"setup_s": plain.setups, "wall_s": plain.walls,
               "setup_factor": plain.setup_factor,
               "job_factors": [r / w for r, w in zip(plain.ref_walls, plain.walls)]}
        print(f"jobs {len(plain.walls)}, set-ups timed {len(plain.setups)}, "
              f"trials {stats['trial_count']}; raw seconds: set-up median "
              f"{statistics.median(plain.setups):.6g}, jobs "
              f"{', '.join(f'{w:.4g}' for w in plain.walls)}; host speed factor "
              f"{plain.setup_factor:.4g} in set-up, "
              f"{', '.join(f'{r / w:.4g}' for r, w in zip(plain.ref_walls, plain.walls))} "
              "in the jobs")
        for key in layers.RUN_LEVEL:
            print(f"  {key:<22} {stats[key]:>14.6g} {layers.UNITS[key]:<8} "
                  "(per-layer in the traced run)")

    for name, note in names:
        print(f"  {name:<46} {values[name]:>14.6g} {layers.UNITS[name]:<15} {note}")
    for problem in stats["problems"]:
        print(f"  check failed: {problem}")
    metrics = {name: {"value": float(values[name]), "unit": layers.UNITS[name]}
               for name, _ in names}
    result = {"correct": not stats["problems"], "attempted": stats["attempted"],
              "failed": stats["failed"], "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "raw": raw, **result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
