import json
import os
import re

import pytest

from harvana.cli import main
from harvana import pipeline
from harvana.hyperspace import ParamSpec, SearchSpace, read_trials, save_space

from conftest import assert_no_children


PLANTED_SPEC = {
    "deployment": {
        "sampling_rate": 50.0,
        "sources": [
            {"id": "hips_acc", "position": "hips", "modality": "acc", "channels": 1},
            {"id": "torso_acc", "position": "torso", "modality": "acc", "channels": 1},
            {"id": "hand_acc", "position": "hand", "modality": "acc", "channels": 1},
        ],
    },
    "planted": {
        "activities": ["walk", "still"],
        "informative": {
            "walk": {"hips_acc": {"base_freq": 3.0, "amplitude": 1.0}},
            "still": {"torso_acc": {"base_freq": 6.0, "amplitude": 1.0}},
        },
        "distractor_sigma": 0.4,
    },
    "sensor": {"noise_sigma": 0.2},
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "planted.json").write_text(json.dumps(PLANTED_SPEC))
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_shared") / "demo"
    assert run_cli("pipeline", "--demo", out) == 0
    return out


def test_generate_partition_explore_analyze_dgp_train(workdir):
    data = workdir / "data"
    assert run_cli("generate", "--planted", workdir / "planted.json",
                   "--frames", 16, "--window", 80, "--seed", 3,
                   "--out", data) == 0
    assert (data / "meta.json").exists()

    folds = workdir / "folds.json"
    assert run_cli("partition", "--data", data, "--window", 80, "--k", 4,
                   "--meta-len", 1, "--seed", 1, "--out", folds) == 0

    space = workdir / "space.json"
    dep = pipeline.deployment_from_json(PLANTED_SPEC["deployment"])
    save_space(pipeline.gain_space(dep), space)
    model = workdir / "model.json"
    model.write_text(json.dumps({"n_conv_blocks": 0, "dropout": 0.0, "epochs": 15,
                                 "classifier_head": "softmax_linear"}))
    trials = workdir / "trials.jsonl"
    assert run_cli("explore", "--space", space, "--strategy", "random",
                   "--budget", 24, "--seed", 42, "--out", trials,
                   "--data", data, "--folds", folds, "--window", 80,
                   "--model", model) == 0
    assert len(read_trials(trials)) == 24

    report_json = workdir / "report_walk.json"
    csv = workdir / "report_walk.csv"
    svg = workdir / "marginal.svg"
    assert run_cli("analyze", "--trials", trials, "--space", space,
                   "--response", "per_activity_nu[walk]", "--out", report_json,
                   "--csv", csv,
                   "--pairwise", "gain_hips_acc,gain_torso_acc",
                   "--resolution", 8, "--svg", svg) == 0
    assert report_json.exists() and csv.exists() and svg.exists()
    assert run_cli("analyze", "--trials", trials, "--space", space,
                   "--response", "per_activity_nu[still]",
                   "--out", workdir / "report_still.json") == 0

    dgp_path = workdir / "dgp.json"
    assert run_cli("dgp", "--report", workdir / "report_walk.json",
                   "--report", workdir / "report_still.json",
                   "--space", space, "--tau-imp", 0.2, "--tau-int", 0.2,
                   "--out", dgp_path) == 0
    doc = json.loads(dgp_path.read_text())
    assert set(doc["per_activity"]) == {"walk", "still"}

    assert run_cli("dgp", "agree", "--a", dgp_path, "--b", dgp_path) == 0

    metrics = workdir / "metrics.json"
    assert run_cli("train", "--data", data, "--folds", folds, "--window", 80,
                   "--config", model, "--mode", "w-DGP", "--dgp", dgp_path,
                   "--seed", 3, "--out", metrics) == 0
    out = json.loads(metrics.read_text())
    assert "w-DGP" in out["results"]
    assert (workdir / "metrics_fold0.csv").exists()


def test_explore_sphere_objective(tmp_path):
    space_path = tmp_path / "space.json"
    save_space(SearchSpace(params=(
        ParamSpec("x0", "continuous", 0.0, 1.0),
        ParamSpec("x1", "continuous", 0.0, 1.0))), space_path)
    out = tmp_path / "t.jsonl"
    assert run_cli("explore", "--space", space_path, "--strategy", "tpe",
                   "--budget", 12, "--seed", 0, "--out", out,
                   "--objective", "sphere", "--set", "gamma=0.3",
                   "--set", "n_startup=4") == 0
    assert len(read_trials(out)) == 12


def test_explore_workers_flag(tmp_path):
    space_path = tmp_path / "space.json"
    save_space(SearchSpace(params=(
        ParamSpec("x0", "continuous", 0.0, 1.0),
        ParamSpec("x1", "continuous", 0.0, 1.0))), space_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("explore", "--space", space_path, "--strategy", "random",
                   "--budget", 10, "--seed", 5, "--out", a,
                   "--objective", "sphere") == 0
    assert run_cli("explore", "--space", space_path, "--strategy", "random",
                   "--budget", 10, "--seed", 5, "--out", b,
                   "--objective", "sphere", "--workers", 4) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_explore_fewer_than_one_worker_exits_2(tmp_path, workers, caplog):
    import logging
    space_path = tmp_path / "space.json"
    save_space(SearchSpace(params=(ParamSpec("x0", "continuous", 0.0, 1.0),)), space_path)
    out = tmp_path / "t.jsonl"
    with caplog.at_level(logging.ERROR):
        assert run_cli("explore", "--space", space_path, "--budget", 4, "--out", out,
                       "--objective", "sphere", "--workers", workers) == 2
    assert any(f"workers must be >= 1, got {workers}" in r.getMessage() for r in caplog.records)
    assert not out.exists()


def test_invalid_space_exits_2(tmp_path):
    space_path = tmp_path / "bad_space.json"
    space_path.write_text(json.dumps(
        {"params": [{"name": "lr", "kind": "continuous", "lower": 0.1,
                     "upper": 0.001, "prior": "uniform"}]}))
    out = tmp_path / "t.jsonl"
    assert run_cli("explore", "--space", space_path, "--budget", 3,
                   "--out", out, "--objective", "sphere") == 2


def test_missing_manifest_input_exits_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"seed": 1}))  # no deployment/planted
    assert run_cli("pipeline", "--manifest", manifest) == 2


def test_stage_error_names_failing_stage(tmp_path):
    from harvana.pipeline import StageError, run_pipeline
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"seed": 1}))
    with pytest.raises(StageError, match="stage 'generate' failed"):
        run_pipeline(manifest)


def test_manifest_stage_toggles(demo_run, tmp_path):
    from harvana.pipeline import run_pipeline
    doc = json.loads((demo_run / "manifest.json").read_text())
    doc["stages"] = ["report"]
    manifest = demo_run / "manifest_report_only.json"
    manifest.write_text(json.dumps(doc))
    # config hash differs from the full run, only the report stage executes
    artifacts = run_pipeline(manifest, force=True)
    assert [p.name for p in artifacts] == ["report"]


def test_demo_pipeline_all_artifacts(demo_run):
    for rel in ["data/meta.json", "folds.json", "trials.jsonl",
                "reports/report_nu.json", "dgp.json", "metrics.json",
                "report/summary.md", "report/tau_sweep.csv",
                "report/tau_sweep.svg", "report/importance.csv"]:
        assert (demo_run / rel).exists(), rel


def test_pipeline_rerun_skips_stages(demo_run, caplog):
    import logging
    with caplog.at_level(logging.INFO):
        assert run_cli("pipeline", "--manifest", demo_run / "manifest.json") == 0
    assert sum("up-to-date" in r.message for r in caplog.records) == 7


# the file each stage writes last: it alone marks the stage done
DONE_FILES = {"generate": "data/provenance.json", "partition": "folds.json",
              "explore": "trials.jsonl", "analyze": "reports/report_nu.json",
              "dgp": "dgp.json", "protocol": "metrics.json", "report": "report/summary.md"}


@pytest.fixture(scope="module")
def pristine_demo(tmp_path_factory):
    """A finished demo run that no test writes into."""
    out = tmp_path_factory.mktemp("demo_pristine") / "demo"
    assert run_cli("pipeline", "--demo", out) == 0
    return out


@pytest.mark.parametrize("stage", list(DONE_FILES))
def test_rerun_after_losing_one_done_file_writes_only_that_stage(
        pristine_demo, tmp_path, caplog, stage):
    import logging
    import shutil
    from harvana.pipeline import STAGES, run_pipeline
    root = tmp_path / "demo"
    shutil.copytree(pristine_demo, root)
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    (root / DONE_FILES[stage]).unlink()
    with caplog.at_level(logging.INFO):
        run_pipeline(root / "manifest.json")
    messages = [r.getMessage() for r in caplog.records]
    assert [m.split(":")[0] for m in messages if ": wrote " in m] == [stage]
    assert [m.split(":")[0] for m in messages if m.endswith(" up-to-date")] == [
        name for name, _ in STAGES if name != stage]
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


def test_tau_sweep_csv_format_and_leftmost_all_sources(demo_run):
    lines = (demo_run / "report" / "tau_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("#")  # provenance
    assert lines[1] == "tau_imp,mean_f1,std_f1,mean_subset_size,fallbacks"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    meta = json.loads((demo_run / "data" / "meta.json").read_text())
    n_sources, n_activities = len(meta["sources"]), len(meta["activities"])
    # tau=0 keeps every data source, with no fallback
    assert float(rows[0][3]) == n_sources and rows[0][4] == "0"
    # the size is of the sets trained on: an activity that falls back trains on
    # every source; the selected sources and the fallbacks move monotonically
    fallbacks = [int(r[4]) for r in rows]
    selected = [float(r[3]) * n_activities - n_sources * f for r, f in zip(rows, fallbacks)]
    assert all(a >= b - 1e-9 for a, b in zip(selected, selected[1:]))
    assert all(a <= b for a, b in zip(fallbacks, fallbacks[1:]))
    # the demo's walk subset is empty from tau 0.4 on: it trains on all sources
    assert fallbacks == [0, 0, 1, 1]
    assert [f"{float(r[3]):.4f}" for r in rows[2:]] == ["2.6667", "2.6667"]
    summary = (demo_run / "report" / "summary.md").read_text()
    assert "tau_imp=0.4: f1 0.9430 +- 0.0383, mean subset size 2.67, fallbacks 1" in summary


def test_empty_subset_fallback_is_logged_once_per_trained_family(pristine_demo, tmp_path,
                                                                 caplog):
    # tau 0.4 and 0.6 derive one family, whose walk subset is empty: it trains
    # once, and its fallback is reported once
    import logging
    import shutil
    from harvana.pipeline import Manifest, stage_protocol
    root = tmp_path / "demo"
    shutil.copytree(pristine_demo, root)
    with caplog.at_level(logging.WARNING):
        stage_protocol(Manifest.load(root / "manifest.json"), force=True)
    fell_back = [r.getMessage() for r in caplog.records if "falling back" in r.getMessage()]
    assert fell_back == ["activity 'walk': empty subset, falling back to all sources"]
    assert (root / "metrics.json").read_bytes() == (pristine_demo / "metrics.json").read_bytes()


def test_tau_sweep_trains_each_subset_family_once(tmp_path, monkeypatch):
    from harvana import learner
    from harvana.pipeline import Manifest, stage_report
    runs = []
    run_protocol = learner.run_protocol

    def counting(*args, **kwargs):
        dgp = kwargs["dgp"]
        runs.append((kwargs["mode"], dgp and frozenset(dgp.subsets.items())))
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(learner, "run_protocol", counting)
    out = tmp_path / "demo"
    assert run_cli("pipeline", "--demo", out) == 0
    # the sweep's tau 0 keeps every source and trains what wo-DGP trained,
    # tau 0.2 is the manifest's w-DGP, and 0.4 and 0.6 derive one family
    assert [mode for mode, _ in runs] == ["wo-DGP", "w-DGP", "w-DGP"]
    assert len(set(runs)) == 3
    stage_report(Manifest.load(out / "manifest.json"), force=True)
    assert len(runs) == 3


def test_report_renders_without_data_or_folds(pristine_demo, tmp_path):
    import shutil
    root = tmp_path / "demo"
    shutil.copytree(pristine_demo, root)
    shutil.rmtree(root / "data")
    (root / "folds.json").unlink()
    rendered = ["report/tau_sweep.csv", "report/tau_sweep.svg", "report/summary.md"]
    for rel in rendered:
        (root / rel).unlink()
    assert run_cli("report", "--manifest", root / "manifest.json", "--force") == 0
    for rel in rendered:
        assert (root / rel).read_bytes() == (pristine_demo / rel).read_bytes(), rel


def test_supplement_trains_the_all_sources_family_as_w_dgp(demo_run, tmp_path,
                                                           monkeypatch):
    # supplemented training frames differ from wo-DGP's even where no source
    # is masked, so tau 0 is not served from the wo-DGP result
    from harvana import learner
    from harvana.pipeline import run_pipeline
    runs = []

    def fake(dataset, folds, config, dgp=None, mode="wo-DGP", seed=0,
             include_null=False, supplement=False):
        runs.append((mode, dgp and frozenset(dgp.subsets.items()), supplement))
        return learner.ProtocolResult(mode=mode, per_fold=[], mean_f1=len(runs) / 10,
                                      std_f1=0.0)

    monkeypatch.setattr(learner, "run_protocol", fake)
    manifest = demo_stage_manifest(demo_run, tmp_path, "protocol", "metrics", "metrics.json",
                                   {"protocol": {"supplement": True}})
    run_pipeline(manifest)
    n_sources = len(json.loads((demo_run / "data" / "meta.json").read_text())["sources"])
    assert [mode for mode, _, _ in runs] == ["wo-DGP", "w-DGP", "w-DGP", "w-DGP"]
    assert all(supplement for _, _, supplement in runs)
    assert {len(s) for _, s in runs[2][1]} == {n_sources}
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert [row[1] for row in doc["tau_sweep"]] == [0.3, 0.2, 0.4, 0.4]
    assert {mode: res["mean_f1"] for mode, res in doc["results"].items()} == {
        "wo-DGP": 0.1, "w-DGP": 0.2}


def test_artifacts_embed_provenance(demo_run):
    for rel in ["folds.json", "dgp.json", "metrics.json", "reports/report_nu.json"]:
        doc = json.loads((demo_run / rel).read_text())
        assert set(doc["provenance"]) == {"seed", "config_hash"}, rel
    for rel in ["report/importance.csv", "report/tau_sweep.csv"]:
        first = (demo_run / rel).read_text().splitlines()[0]
        assert first.startswith("#") and "config_hash=" in first, rel
    svg = (demo_run / "report" / "tau_sweep.svg").read_text()
    assert "config_hash=" in svg
    # trial log lines each carry their seed; the log format itself stays pure
    line = json.loads((demo_run / "trials.jsonl").read_text().splitlines()[0])
    assert "seed" in line


def test_report_skips_heatmaps_without_pairwise_mass(tmp_path, caplog):
    out = tmp_path / "demo"
    assert run_cli("pipeline", "--demo", out) == 0
    # zero out the pairwise terms and re-render: heat maps must be skipped
    rep_path = out / "reports" / "report_nu.json"
    doc = json.loads(rep_path.read_text())
    doc["pairwise"] = [[u, v, 0.0] for u, v, _ in doc["pairwise"]]
    rep_path.write_text(json.dumps(doc, sort_keys=True))
    for svg in (out / "report").glob("marginal_*.svg"):
        svg.unlink()
    import logging
    with caplog.at_level(logging.INFO):
        assert run_cli("report", "--manifest", out / "manifest.json", "--force") == 0
    assert not list((out / "report").glob("marginal_*.svg"))
    assert any("heat maps skipped" in r.message for r in caplog.records)


def test_demo_pipeline_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("pipeline", "--demo", a) == 0
    assert run_cli("pipeline", "--demo", b) == 0
    for rel in ["trials.jsonl", "dgp.json", "metrics.json",
                "report/tau_sweep.csv", "report/tau_sweep.svg",
                "report/summary.md"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    svgs_a = sorted((a / "report").glob("marginal_*.svg"))
    svgs_b = sorted((b / "report").glob("marginal_*.svg"))
    assert [p.name for p in svgs_a] == [p.name for p in svgs_b]
    for pa, pb in zip(svgs_a, svgs_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_non_finite_csv_cell_exits_2_naming_stage_file_and_line(tmp_path, caplog):
    from harvana.pipeline import Manifest, StageError, demo_manifest, run_pipeline
    from harvana.sensors import IngestError
    path = demo_manifest(tmp_path / "demo")
    doc = json.loads(path.read_text())
    doc["stages"] = ["generate"]
    path.write_text(json.dumps(doc))
    run_pipeline(path)
    csv_path = sorted(Manifest.load(path).path("data").glob("*.csv"))[0]
    lines = csv_path.read_text().splitlines()
    lines[9] = "inf" + lines[9][lines[9].index(","):]
    csv_path.write_text("\n".join(lines) + "\n")
    doc["stages"] = ["partition"]
    path.write_text(json.dumps(doc))
    named = re.escape(f"{csv_path.name}:10: a value is not finite")
    with pytest.raises(StageError, match=named) as exc:
        run_pipeline(path)
    assert exc.value.stage == "partition" and isinstance(exc.value.cause, IngestError)
    with caplog.at_level("ERROR"):
        assert run_cli("pipeline", "--manifest", path) == 2
    assert any(re.search(r"stage 'partition' failed: .*" + named, r.getMessage())
               for r in caplog.records)


def test_folds_not_covering_frames_names_stage_and_exits_2(tmp_path):
    from harvana.pipeline import Manifest, StageError, demo_manifest, run_pipeline
    path = demo_manifest(tmp_path / "demo")
    doc = json.loads(path.read_text())
    doc["stages"] = ["generate", "partition"]
    path.write_text(json.dumps(doc))
    run_pipeline(path)
    folds_path = Manifest.load(path).path("folds")
    folds = json.loads(folds_path.read_text())
    dropped = sorted(int(i) for i in folds["assignment"])[:2]
    for i in dropped:
        del folds["assignment"][str(i)]
    folds_path.write_text(json.dumps(folds))
    doc["stages"] = ["explore"]
    path.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=r"stage 'explore' failed: .*frame ids "
                       + re.escape(str(dropped))):
        run_pipeline(path)
    assert run_cli("pipeline", "--manifest", path) == 2


def test_stride_integer_is_samples_decimal_is_fraction(workdir):
    data = workdir / "data"
    # 2 activities x 4 non-overlapping windows of 10 samples: 40 samples each
    assert run_cli("generate", "--planted", workdir / "planted.json",
                   "--frames", 4, "--window", 10, "--seed", 3, "--out", data) == 0
    counts = {}
    for stride in ("1", "1.0", "0.5", "5"):
        folds = workdir / f"folds_{stride}.json"
        assert run_cli("partition", "--data", data, "--window", 10, "--stride", stride,
                       "--k", 2, "--meta-len", 1, "--out", folds) == 0
        counts[stride] = len(json.loads(folds.read_text())["assignment"])
    # `1` is one frame per sample offset; `1.0` is the whole window
    assert counts == {"1": 2 * 31, "1.0": 2 * 4, "0.5": 2 * 7, "5": 2 * 7}
    for bad in ("2.5", "0", "-1", "1.5", "half"):
        with pytest.raises(SystemExit) as exc:
            run_cli("partition", "--data", data, "--window", 10, "--stride", bad,
                    "--out", workdir / "bad.json")
        assert exc.value.code == 2


def small_demo(tmp_path, stages):
    """The demo manifest cut to 8 one-epoch trials, with `stages` already run."""
    from harvana.pipeline import Manifest, demo_manifest, run_pipeline
    path = demo_manifest(tmp_path / "demo")
    doc = json.loads(path.read_text())
    doc["explore"]["budget"] = 8
    doc["explore"]["model"]["epochs"] = 1
    doc["stages"] = stages
    path.write_text(json.dumps(doc))
    run_pipeline(path)
    return Manifest.load(path)


def test_crashed_explore_leaves_no_trial_log_and_reruns(tmp_path, monkeypatch):
    from harvana.explorer import _trial_seed
    from harvana.pipeline import LearnerEvaluator, stage_explore
    manifest = small_demo(tmp_path, ["generate", "partition"])
    evaluate, crash = LearnerEvaluator.__call__, True
    # the trials run on forked workers by default, each counting its own
    # calls: fail on trial 5's seed, and count calls in a file every process
    # appends to
    failing, calls = _trial_seed(manifest.stage_seed("explore"), 4), tmp_path / "calls"

    def flaky(self, config, budget, seed):
        with open(calls, "a") as fh:
            fh.write(f"{seed}\n")
        if crash and seed == failing:
            raise RuntimeError("evaluator crashed at trial 5")
        return evaluate(self, config, budget, seed)

    monkeypatch.setattr(LearnerEvaluator, "__call__", flaky)
    with pytest.raises(RuntimeError, match="trial 5"):
        stage_explore(manifest)
    trials = manifest.path("trials")
    assert not trials.exists()
    assert_no_children()
    # the rerun, without force, explores again instead of taking 4 trials as done
    crash, before = False, len(calls.read_text().split())
    stage_explore(manifest)
    assert len(calls.read_text().split()) == before + 8 and len(read_trials(trials)) == 8
    assert [p.name for p in trials.parent.glob("trials.jsonl*")] == ["trials.jsonl"]


def test_data_without_provenance_is_regenerated(tmp_path):
    from harvana.pipeline import Manifest, demo_manifest, stage_generate
    manifest = Manifest.load(demo_manifest(tmp_path / "demo"))
    data = stage_generate(manifest)
    want = {p.name: p.read_bytes() for p in data.iterdir()}
    # a generate killed after meta.json: a CSV cut short, no provenance.json
    (data / "provenance.json").unlink()
    sorted(data.glob("*.csv"))[-1].write_text("")
    stage_generate(manifest)
    assert {p.name: p.read_bytes() for p in data.iterdir()} == want


def test_crashed_analyze_is_not_done(tmp_path, monkeypatch):
    from harvana import fanova
    from harvana.pipeline import stage_analyze
    manifest = small_demo(tmp_path, ["generate", "partition", "explore"])
    decompose, calls = fanova.decompose, []

    def flaky(forest):
        calls.append(len(calls))
        if len(calls) == 2:
            raise RuntimeError("decompose crashed")
        return decompose(forest)

    monkeypatch.setattr(fanova, "decompose", flaky)
    with pytest.raises(RuntimeError, match="decompose crashed"):
        stage_analyze(manifest)
    done = manifest.path("reports") / "report_nu.json"
    assert not done.exists()
    stage_analyze(manifest)
    assert done.exists() and len(calls) == 2 + 4  # every response refitted



def explore_only(tmp_path):
    """The small demo with generate and partition done and only explore left."""
    small_demo(tmp_path, ["generate", "partition"])
    path = tmp_path / "demo" / "manifest.json"
    doc = json.loads(path.read_text())
    doc["stages"] = ["explore"]
    path.write_text(json.dumps(doc))
    return path


def test_runtime_failure_names_its_stage_and_exits_3(tmp_path, monkeypatch, caplog):
    import logging
    from harvana.pipeline import LearnerEvaluator, StageError, run_pipeline
    path = explore_only(tmp_path)

    def crash(self, config, budget, seed):
        raise RuntimeError("evaluator crashed")

    monkeypatch.setattr(LearnerEvaluator, "__call__", crash)
    with pytest.raises(StageError, match="evaluator crashed") as exc:
        run_pipeline(path)
    assert exc.value.stage == "explore" and isinstance(exc.value.cause, RuntimeError)
    with caplog.at_level(logging.ERROR):
        assert run_cli("pipeline", "--manifest", path) == 3
    assert any("stage 'explore' failed: evaluator crashed" in r.getMessage()
               for r in caplog.records)


def test_pipeline_fewer_than_one_worker_exits_2_naming_explore(tmp_path, caplog):
    import logging
    path = explore_only(tmp_path)
    with caplog.at_level(logging.ERROR):
        assert run_cli("pipeline", "--manifest", path, "--workers", 0) == 2
    assert any("stage 'explore' failed: workers must be >= 1, got 0" in r.getMessage()
               for r in caplog.records)
    assert not list((tmp_path / "demo").glob("trials.jsonl*"))


def test_demo_trial_log_is_byte_identical_with_one_and_two_workers(tmp_path):
    from harvana.pipeline import stage_explore
    manifest = small_demo(tmp_path, ["generate", "partition"])
    logs = []
    for workers in (1, 2):
        stage_explore(manifest, force=True, workers=workers)
        logs.append(manifest.path("trials").read_bytes())
    assert logs[0] == logs[1] and len(logs[0].splitlines()) == 8
    assert_no_children()


def sha256_list(root):
    """(relative path, SHA-256) of every file under root, sorted by path."""
    import hashlib
    return sorted((str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
                  for p in root.rglob("*") if p.is_file())


def test_demo_default_workers_write_what_one_worker_writes(tmp_path, monkeypatch):
    from harvana import hyperspace
    # without --workers, one process per usable CPU: two, even on a 1-CPU host
    monkeypatch.setattr(hyperspace, "usable_cpus", lambda: 2)
    default, one = tmp_path / "default", tmp_path / "one"
    assert run_cli("pipeline", "--demo", default) == 0
    assert run_cli("pipeline", "--demo", one, "--workers", 1) == 0
    assert sha256_list(default) == sha256_list(one)
    assert len(sha256_list(one)) == 35 and not list(tmp_path.rglob("*.partial"))
    assert_no_children()


def test_grid_manifest_that_is_not_a_whole_grid_exits_2_naming_explore(demo_run, tmp_path,
                                                                       caplog):
    import logging
    from harvana.explorer import StrategyError
    from harvana.pipeline import StageError, run_pipeline
    # the demo's 7-dim space: 64 trials would be the first half of the 2^7 grid
    manifest = demo_stage_manifest(demo_run, tmp_path, "explore", "trials", "trials.jsonl",
                                   {"explore": {"strategy": "grid"}})
    with pytest.raises(StageError, match="grid budget 64 is not a whole grid") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "explore" and isinstance(exc.value.cause, StrategyError)
    with caplog.at_level(logging.ERROR):
        assert run_cli("pipeline", "--manifest", manifest) == 2
    assert any("stage 'explore' failed: grid budget 64 is not a whole grid: 2 points per "
               "dim make 128 configs" in r.getMessage() for r in caplog.records)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_activity_in_one_meta_segment_exits_2_naming_partition(demo_run, tmp_path, caplog):
    import logging
    from harvana.pipeline import StageError, run_pipeline
    from harvana.sensors import SensorError
    # the demo's one recording of 24 frames per activity, as one segment each:
    # whichever fold holds an activity, its training side would have none
    assert run_cli("partition", "--data", demo_run / "data", "--window", 80, "--k", 2,
                   "--meta-len", 24, "--out", tmp_path / "folds.json") == 2
    assert [p.name for p in tmp_path.iterdir()] == []
    manifest = demo_stage_manifest(demo_run, tmp_path, "partition", "folds", "folds.json",
                                   {"partition": {"k": 2, "meta_len": 24}})
    with pytest.raises(StageError, match="falls in one fold") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "partition" and isinstance(exc.value.cause, SensorError)
    with caplog.at_level(logging.ERROR):
        assert run_cli("pipeline", "--manifest", manifest) == 2
    assert any("stage 'partition' failed: activity 'run' falls in one fold" in r.getMessage()
               for r in caplog.records)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def forest_worker_fault(monkeypatch, fault):
    """Run `fault` in place of every tree build in a forked forest worker."""
    from harvana import forest, hyperspace
    parent, build = os.getpid(), forest._build_tree

    def build_or_fault(*args):
        if os.getpid() != parent:
            fault()
        return build(*args)

    monkeypatch.setattr(hyperspace, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forest, "_build_tree", build_or_fault)


def test_forest_worker_that_dies_exits_3_naming_analyze(demo_run, tmp_path, monkeypatch,
                                                        caplog):
    import logging
    from harvana.pipeline import StageError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, "analyze", "reports", "reports", {})
    forest_worker_fault(monkeypatch, lambda: os._exit(9))
    with pytest.raises(StageError, match=r"worker process \d+ died \(exit code 9\)") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "analyze" and type(exc.value.cause) is RuntimeError
    with caplog.at_level(logging.ERROR):
        assert run_cli("pipeline", "--manifest", manifest) == 3
    assert any("stage 'analyze' failed: worker process" in r.getMessage()
               for r in caplog.records)
    assert not (tmp_path / "reports" / "report_nu.json").exists()
    assert_no_children()


def test_forest_error_in_a_worker_exits_2_naming_analyze(demo_run, tmp_path, monkeypatch,
                                                          caplog):
    import logging
    from harvana.forest import ForestError
    from harvana.pipeline import StageError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, "analyze", "reports", "reports", {})

    def fault():
        raise ForestError("raised in a forest worker")

    forest_worker_fault(monkeypatch, fault)
    with pytest.raises(StageError, match="raised in a forest worker") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "analyze" and type(exc.value.cause) is ForestError
    with caplog.at_level(logging.ERROR):
        assert run_cli("pipeline", "--manifest", manifest) == 2
    assert any("stage 'analyze' failed: raised in a forest worker" in r.getMessage()
               for r in caplog.records)
    assert_no_children()


def test_caller_signal_from_a_hook_passes_through_unwrapped(tmp_path, monkeypatch):
    # a caller may end a run early by raising its own Exception subclass from
    # a hook and catching it by type; only failures are wrapped in StageError
    from harvana.pipeline import LearnerEvaluator, run_pipeline

    class StopEarly(Exception):
        pass

    def stop(self, config, budget, seed):
        raise StopEarly

    path = explore_only(tmp_path)
    monkeypatch.setattr(LearnerEvaluator, "__call__", stop)
    with pytest.raises(StopEarly):
        run_pipeline(path)


@pytest.mark.parametrize("flags", [
    ["--pairwise", "x0,x1"],                                      # no --svg
    ["--pairwise", "x0", "--svg", "m.svg"],                       # one param
    ["--pairwise", "x0,nosuch", "--svg", "m.svg"],                # unknown param
    ["--pairwise", "x1,x1", "--svg", "m.svg"],                    # same param twice
    ["--pairwise", "x0,x1", "--svg", "m.svg", "--resolution", 0],
])
def test_analyze_bad_pairwise_flags_exit_2_before_writing(tmp_path, flags, caplog):
    import logging
    space_path = tmp_path / "space.json"
    save_space(SearchSpace(params=(
        ParamSpec("x0", "continuous", 0.0, 1.0),
        ParamSpec("x1", "continuous", 0.0, 1.0))), space_path)
    trials = tmp_path / "t.jsonl"
    assert run_cli("explore", "--space", space_path, "--budget", 10, "--seed", 1,
                   "--out", trials, "--objective", "sphere") == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    flags = [tmp_path / f if str(f).endswith(".svg") else f for f in flags]
    with caplog.at_level(logging.ERROR):
        assert run_cli("analyze", "--trials", trials, "--space", space_path,
                       "--out", tmp_path / "r.json", "--csv", tmp_path / "r.csv",
                       *flags) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert any("pairwise" in r.getMessage() or "param" in r.getMessage()
               for r in caplog.records)


@pytest.mark.parametrize("pairwise, resolution, message", [
    ([["nosuch", "lr"]], 20, "unknown param 'nosuch'"),
    ([["lr", "gain_hips_acc"]], 0, "resolution must be >= 1"),
])
def test_manifest_bad_report_pairwise_exits_2_naming_report(
        demo_run, tmp_path, pairwise, resolution, message):
    from harvana.forest import ForestError
    from harvana.pipeline import StageError, run_pipeline
    doc = json.loads((demo_run / "manifest.json").read_text())
    # read the shared demo's artifacts, write the report into tmp_path
    doc["paths"] = {k: str(demo_run / v) for k, v in doc["paths"].items()}
    doc["paths"]["report"] = str(tmp_path / "report")
    doc["stages"] = ["report"]
    doc["report"]["pairwise"] = pairwise
    doc["report"]["resolution"] = resolution
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=message) as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "report" and isinstance(exc.value.cause, ForestError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert not (tmp_path / "report" / "summary.md").exists()


def demo_stage_manifest(demo_run, tmp_path, stage: str, out_key: str, out_name: str,
                        edit: dict):
    """A manifest that reads the shared demo's artifacts, runs one stage and
    writes its output under tmp_path; edit maps a section to its overrides."""
    doc = json.loads((demo_run / "manifest.json").read_text())
    doc["paths"] = {k: str(demo_run / v) for k, v in doc["paths"].items()}
    doc["paths"][out_key] = str(tmp_path / out_name)
    doc["stages"] = [stage]
    for section, values in edit.items():
        doc[section].update(values)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize("edit", [
    {"pairwise": [["lr"]]},
    {"pairwise": [["lr", "gain_hips_acc", "gain_torso_acc"]]},
    {"pairwise": [["lr", "gain_hips_acc"], ["nosuch", "lr"]]},
    {"pairwise": [7]},
    {"pairwise": [], "resolution": 0},
], ids=["one_name", "three_names", "unknown_second_pair", "not_a_list",
        "resolution_without_pairs"])
def test_manifest_bad_report_pairs_exit_2_and_write_nothing(demo_run, tmp_path, edit):
    from harvana.pipeline import StageError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, "report", "report", "report",
                                   {"report": edit})
    with pytest.raises(StageError) as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "report"
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("stage, out_key, section, key, value", [
    ("report", "report", "report", "resolution", "abc"),
    ("analyze", "reports", "analyze", "n_trees", "many"),
    ("explore", "trials", "explore", "budget", "ten"),
    # a fractional integer is not truncated
    ("analyze", "reports", "analyze", "n_trees", 2.5),
    ("partition", "folds", "partition", "k", 3.5),
    # a string is read only for a string default
    ("analyze", "reports", "analyze", "n_trees", "20"),
    ("explore", "trials", "explore", "val_fold", "0"),
])
def test_manifest_non_numeric_value_exits_2_naming_stage_and_key(
        demo_run, tmp_path, stage, out_key, section, key, value):
    from harvana.pipeline import ManifestError, StageError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, stage, out_key, out_key,
                                   {section: {key: value}})
    with pytest.raises(StageError, match=f"{section}.{key} must be a number") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == stage and isinstance(exc.value.cause, ManifestError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["manifest.json"]


@pytest.mark.parametrize("stage, out_key, key, value, named", [
    ("protocol", "metrics", "protocol.tau_sweep", [0.0, "x"], "protocol.tau_sweep"),
    ("protocol", "metrics", "protocol.tau_sweep", [], "protocol.tau_sweep"),
    ("protocol", "metrics", "protocol.tau_sweep", 0.2, "protocol.tau_sweep"),
    ("protocol", "metrics", "protocol.model.kernel_sizes", [], "model.kernel_sizes"),
    ("generate", "data", "generate.sensor.noise_sigma", "loud", "sensor.noise_sigma"),
    ("generate", "data", "generate.planted.phase_jitter", "wide", "planted.phase_jitter"),
    # keys the codec's dataclass lacks, and values it would have to guess at
    ("generate", "data", "generate.sensor.noise_sigm", 0.3, "sensor.noise_sigm"),
    ("protocol", "metrics", "protocol.model.epoch", 3, "model.epoch"),
    ("protocol", "metrics", "protocol.model.epochs", "x", "model.epochs"),
    ("protocol", "metrics", "protocol.model.n_filters", "six", "model.n_filters"),
    ("protocol", "metrics", "protocol.model.kernel_sizes", [9, 9.5, 9], "model.kernel_sizes"),
    # a tuple default takes exactly as many values, and a number no string
    ("protocol", "metrics", "protocol.model.kernel_sizes", [9, 9], "model.kernel_sizes"),
    ("protocol", "metrics", "protocol.model.learning_rate", "0.1", "model.learning_rate"),
    ("protocol", "metrics", "protocol.model.source_gains", "loud", "model.source_gains"),
    ("explore", "trials", "explore.model.epochs", 2.5, "model.epochs"),
    ("generate", "data", "generate.sensor", 5, "sensor: expected an object"),
    ("protocol", "metrics", "protocol.model", "x", "model: expected an object"),
    # a boolean is read only for a boolean default, and only from a JSON boolean
    ("protocol", "metrics", "protocol.include_null", "false",
     "protocol.include_null must be a boolean"),
    ("protocol", "metrics", "protocol.supplement", 0, "protocol.supplement must be a boolean"),
    ("analyze", "reports", "analyze.n_trees", True, "analyze.n_trees must be a number"),
    # lr_bounds holds exactly two numbers; settings is an object; modes a list
    ("explore", "trials", "explore.lr_bounds", ["a", 1],
     "explore.lr_bounds must be a list of 2 numbers"),
    ("explore", "trials", "explore.lr_bounds", [0.5],
     "explore.lr_bounds must be a list of 2 numbers"),
    ("explore", "trials", "explore.lr_bounds", "ab",
     "explore.lr_bounds must be a list of 2 numbers"),
    ("explore", "trials", "explore.lr_bounds", [0.005, 0.5, 1],
     "explore.lr_bounds must be a list of 2 numbers"),
    ("explore", "trials", "explore.settings", [1], "explore.settings must be an object"),
    ("explore", "trials", "explore.settings", "x", "explore.settings must be an object"),
    ("protocol", "metrics", "protocol.modes", "wo-DGP",
     "protocol.modes must be a non-empty list"),
])
def test_manifest_non_numeric_nested_value_exits_2_naming_stage_and_key(
        demo_run, tmp_path, stage, out_key, key, value, named):
    from harvana.pipeline import ManifestError, StageError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, stage, out_key, out_key, {})
    doc = json.loads(manifest.read_text())
    *sections, name = key.split(".")
    target = doc
    for section in sections:
        target = target[section]
    target[name] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=re.escape(named)) as exc:
        run_pipeline(manifest)
    assert exc.value.stage == stage and isinstance(exc.value.cause, ManifestError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["manifest.json"]


def test_analyze_n_trees_0_exits_2(demo_run, tmp_path):
    from harvana.forest import ForestError
    from harvana.pipeline import StageError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, "analyze", "reports", "reports",
                                   {"analyze": {"n_trees": 0}})
    with pytest.raises(StageError, match="need n_trees >= 1") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "analyze" and isinstance(exc.value.cause, ForestError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert not list((tmp_path / "reports").glob("report_*"))
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--trials", demo_run / "trials.jsonl",
                   "--space", demo_run / "space.json", "--n-trees", 0, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("config", [{"epoch": 3}, {"epochs": "x"}, {"n_filters": "six"}],
                         ids=["unknown_key", "epochs_not_a_number", "n_filters_not_a_number"])
def test_bad_model_config_file_exits_2(demo_run, tmp_path, config):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(config))
    data = ["--data", demo_run / "data", "--folds", demo_run / "folds.json", "--window", 80]
    assert run_cli("train", *data, "--config", model, "--out", tmp_path / "m.json") == 2
    assert run_cli("explore", *data, "--space", demo_run / "space.json", "--budget", 2,
                   "--model", model, "--out", tmp_path / "t.jsonl") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize("edit, named", [
    ({"analyse": {"n_trees": 8}}, "analyse"),
    ({"explore": {"budgett": 8}}, "explore.budgett"),
    # the sweep's thresholds are read by the protocol stage
    ({"report": {"tau_sweep": [0.0, 0.2]}}, "report.tau_sweep"),
], ids=["top_level", "in_a_section", "moved_key"])
def test_unknown_manifest_key_exits_2(demo_run, tmp_path, edit, named):
    from harvana.pipeline import ManifestError, run_pipeline
    manifest = demo_stage_manifest(demo_run, tmp_path, "dgp", "dgp", "dgp.json", {})
    doc = json.loads(manifest.read_text())
    for section, values in edit.items():
        doc.setdefault(section, {}).update(values)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(named)):
        run_pipeline(manifest)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert run_cli("report", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_unknown_strategy_setting_exits_2(demo_run, tmp_path):
    from harvana.explorer import StrategyError
    from harvana.pipeline import StageError, run_pipeline
    assert run_cli("explore", "--space", demo_run / "space.json", "--strategy", "tpe",
                   "--budget", 4, "--out", tmp_path / "t.jsonl", "--objective", "sphere",
                   "--set", "gama=0.3") == 2
    manifest = demo_stage_manifest(demo_run, tmp_path, "explore", "trials", "trials.jsonl",
                                   {"explore": {"strategy": "tpe", "settings": {"gama": 0.3}}})
    with pytest.raises(StageError, match="gama") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "explore" and isinstance(exc.value.cause, StrategyError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("setting", ["gamma=abc", "n_candidates=2.5", "n_pool=0"])
def test_bad_strategy_setting_value_exits_2_naming_it(tmp_path, setting):
    space = tmp_path / "space.json"
    save_space(SearchSpace(params=(ParamSpec("x0", "continuous", 0.0, 1.0),)), space)
    strategy = {"gamma": "tpe", "n_candidates": "tpe", "n_pool": "gp"}[setting.partition("=")[0]]
    assert run_cli("explore", "--space", space, "--strategy", strategy, "--budget", 4,
                   "--out", tmp_path / "t.jsonl", "--objective", "sphere",
                   "--set", setting) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["space.json"]


@pytest.mark.parametrize("kind", ["anneal", "evolution"])
def test_removed_strategy_exits_2(demo_run, tmp_path, kind, capsys):
    from harvana.explorer import StrategyError
    from harvana.pipeline import StageError, run_pipeline
    with pytest.raises(SystemExit) as exc:
        run_cli("explore", "--space", demo_run / "space.json", "--strategy", kind,
                "--budget", 4, "--out", tmp_path / "t.jsonl", "--objective", "sphere")
    assert exc.value.code == 2 and f"invalid choice: '{kind}'" in capsys.readouterr().err
    manifest = demo_stage_manifest(demo_run, tmp_path, "explore", "trials", "trials.jsonl",
                                   {"explore": {"strategy": kind}})
    with pytest.raises(StageError, match=f"unknown strategy '{kind}'") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "explore" and isinstance(exc.value.cause, StrategyError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def drop_first_pair(doc):
    del doc["pairwise"][0]


def repeat_first_pair(doc):
    doc["pairwise"][1] = doc["pairwise"][0]


def swap_an_individual_key(doc):
    doc["individual"]["gain_nosuch"] = doc["individual"].pop("lr")


@pytest.mark.parametrize("corrupt, named", [
    (lambda doc: doc.pop("pairwise"), "missing keys ['pairwise']"),
    (lambda doc: doc.pop("individual"), "missing keys ['individual']"),
    (swap_an_individual_key, "individual keys"),
    (drop_first_pair, "pairwise lacks 1 of 21 param pairs, first ('lr', 'gain_hips_acc')"),
    (repeat_first_pair, "pairwise holds ('lr', 'gain_hips_acc') twice"),
    (lambda doc: doc["individual"].update(lr=float("nan")),
     "individual['lr'] = nan is not a share in [0, 1]"),
    (lambda doc: doc["pairwise"][0].__setitem__(2, 1.5),
     "pairwise['lr', 'gain_hips_acc'] = 1.5 is not a share in [0, 1]"),
    (lambda doc: doc.update(total_variance=-0.5), "total_variance -0.5 is not a finite"),
    (lambda doc: doc.update(total_variance=float("inf")), "total_variance inf is not a finite"),
], ids=["no_pairwise", "no_individual", "individual_keys", "pair_missing", "pair_twice",
        "nan_share", "share_above_1", "negative_variance", "infinite_variance"])
def test_malformed_report_exits_2_naming_file_and_field(demo_run, tmp_path, caplog, corrupt,
                                                        named):
    import logging
    import shutil
    from harvana.forest import ForestError
    from harvana.pipeline import StageError, run_pipeline
    reports = tmp_path / "reports"
    shutil.copytree(demo_run / "reports", reports)
    bad = reports / "report_run.json"
    doc = json.loads(bad.read_text())
    corrupt(doc)
    bad.write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR):
        assert run_cli("dgp", "--report", reports / "report_*.json",
                       "--space", demo_run / "space.json", "--tau-imp", 0.2, "--tau-int", 0.2,
                       "--out", tmp_path / "dgp.json") == 2
    assert any(f"{bad}: {named}" in r.getMessage() for r in caplog.records)
    manifest = demo_stage_manifest(demo_run, tmp_path, "dgp", "dgp", "dgp.json", {})
    doc = json.loads(manifest.read_text())
    doc["paths"]["reports"] = str(reports)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=re.escape(f"{bad}: {named}")) as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "dgp" and isinstance(exc.value.cause, ForestError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "reports"]


@pytest.mark.parametrize("edit, named", [
    ({"channels": 1.5}, "deployment.sources[0].channels"),
    ({"id": 7}, "deployment.sources[0].id"),
    ({"sampling_rate": "50"}, "deployment.sampling_rate"),
    ({"channels": 0}, "needs channels >= 1"),
    ({"sampling_rate": float("nan")}, "sampling_rate must be finite and > 0"),
])
def test_bad_deployment_value_exits_2_naming_it(demo_run, tmp_path, edit, named):
    from harvana.pipeline import StageError, run_pipeline
    from harvana.sensors import SensorError
    manifest = demo_stage_manifest(demo_run, tmp_path, "generate", "data", "data", {})
    doc = json.loads(manifest.read_text())
    dep = doc["generate"]["deployment"]
    (dep if "sampling_rate" in edit else dep["sources"][0]).update(edit)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=re.escape(named)) as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "generate" and isinstance(exc.value.cause, SensorError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps({k: doc["generate"][k] for k in ("deployment", "planted")}))
    assert run_cli("generate", "--planted", planted, "--out", tmp_path / "out") == 2
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == \
        ["manifest.json", "planted.json"]


@pytest.mark.parametrize("name", ["gain", "offset", "noise_sigma", "drift_per_second"])
def test_non_finite_sensor_value_exits_2_naming_it(demo_run, tmp_path, name):
    from harvana.pipeline import StageError, run_pipeline
    from harvana.sensors import SensorError
    manifest = demo_stage_manifest(demo_run, tmp_path, "generate", "data", "data", {})
    doc = json.loads(manifest.read_text())
    doc["generate"]["sensor"][name] = float("nan")
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=f"sensor {name} must be finite") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "generate" and isinstance(exc.value.cause, SensorError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["manifest.json"]


def test_explore_space_param_the_learner_cannot_take_exits_2_naming_it(demo_run, tmp_path,
                                                                       caplog):
    # n_filters is an integer: a continuous n_f proposes values like 16.7
    space = tmp_path / "space.json"
    save_space(SearchSpace(params=(ParamSpec("n_f", "continuous", 4.0, 8.0),)), space)
    out = tmp_path / "t.jsonl"
    assert run_cli("explore", "--data", demo_run / "data", "--folds", demo_run / "folds.json",
                   "--window", 80, "--space", space, "--budget", 2, "--out", out) == 2
    assert any("hyperparameter n_f=" in r.getMessage() for r in caplog.records)
    assert not out.exists()


def test_cli_explore_crash_leaves_only_the_partial_log(demo_run, tmp_path, monkeypatch):
    from harvana.explorer import _trial_seed
    from harvana.pipeline import LearnerEvaluator
    # fail on the third trial's seed (--seed defaults to 42), not the third
    # call: the trials run on forked workers, each counting its own calls
    evaluate, failing = LearnerEvaluator.__call__, _trial_seed(42, 2)

    def flaky(self, config, budget, seed):
        if seed == failing:
            raise RuntimeError("evaluator crashed at trial 3")
        return evaluate(self, config, budget, seed)

    monkeypatch.setattr(LearnerEvaluator, "__call__", flaky)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"n_conv_blocks": 0, "epochs": 1}))
    out = tmp_path / "t.jsonl"
    assert run_cli("explore", "--data", demo_run / "data", "--folds", demo_run / "folds.json",
                   "--window", 80, "--space", demo_run / "space.json", "--model", model,
                   "--budget", 4, "--out", out) == 3
    assert not out.exists()
    lines = (tmp_path / "t.jsonl.partial").read_text().splitlines()
    assert [json.loads(line)["trial_id"] for line in lines] == [0, 1]
    assert_no_children()


def test_forced_explore_writes_the_edited_lr_bounds_to_the_space(tmp_path, monkeypatch):
    from harvana.hyperspace import load_space
    from harvana.pipeline import LearnerEvaluator, stage_explore
    manifest = small_demo(tmp_path, ["generate", "partition", "explore"])
    old = {key: manifest.path(key).read_bytes() for key in ("space", "trials")}
    manifest.doc["explore"]["lr_bounds"] = [0.02, 0.04]
    # a forced run that crashes leaves the space and the trial log it explored
    with monkeypatch.context() as patch:
        patch.setattr(LearnerEvaluator, "__call__", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            stage_explore(manifest, force=True)
    assert {key: manifest.path(key).read_bytes() for key in old} == old
    stage_explore(manifest, force=True)
    lr = load_space(manifest.path("space"))["lr"]
    assert (lr.lower, lr.upper) == (0.02, 0.04)
    assert all(0.02 <= t.config["lr"] <= 0.04 for t in read_trials(manifest.path("trials")))


def test_source_added_to_the_deployment_gets_a_gain_dim(tmp_path):
    from harvana.hyperspace import load_space
    from harvana.pipeline import stage_explore, stage_generate, stage_partition
    manifest = small_demo(tmp_path, ["generate", "partition", "explore"])
    assert "gain_bag_acc" not in load_space(manifest.path("space")).names
    manifest.doc["generate"]["deployment"]["sources"].append(
        {"id": "bag_acc", "position": "bag", "modality": "acc", "channels": 1})
    for stage in (stage_generate, stage_partition, stage_explore):
        stage(manifest, force=True)
    space = load_space(manifest.path("space"))
    assert space["gain_bag_acc"].source_tag == "bag_acc"
    trials = read_trials(manifest.path("trials"))
    assert len(trials) == 8 and all("gain_bag_acc" in t.config.values for t in trials)


@pytest.mark.parametrize("stride", ["20", True, "abc"])
def test_manifest_bad_stride_exits_2_naming_generate(demo_run, tmp_path, stride):
    from harvana.pipeline import StageError, run_pipeline
    from harvana.sensors import SensorError
    manifest = demo_stage_manifest(demo_run, tmp_path, "generate", "data", "data",
                                   {"generate": {"stride": stride}})
    with pytest.raises(StageError, match="stride") as exc:
        run_pipeline(manifest)
    assert exc.value.stage == "generate" and isinstance(exc.value.cause, SensorError)
    assert run_cli("pipeline", "--manifest", manifest) == 2
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["manifest.json"]


@pytest.mark.parametrize("stage", ["generate", "partition", "dgp", "protocol", "report"])
def test_json_write_cut_short_leaves_no_done_file(pristine_demo, tmp_path, monkeypatch,
                                                  stage):
    # these stages are done once their done-file exists, so a write killed
    # half-way must not leave that file behind
    import shutil
    from pathlib import Path
    from harvana import hyperspace
    from harvana.pipeline import STAGES, Manifest
    root = tmp_path / "demo"
    shutil.copytree(pristine_demo, root)
    done = root / DONE_FILES[stage]
    want = done.read_bytes()
    done.unlink()

    def killed(path, *args, **kwargs):
        # the file atomic_open writes the done-file through takes half of
        # the first text written to it, then fails
        fh = open(path, *args, **kwargs)
        if Path(path).name.startswith(done.name):
            write = fh.write

            def half(text):
                write(text[:len(text) // 2])
                raise OSError("write killed half-way")

            fh.write = half
        return fh

    run_stage = dict(STAGES)[stage]
    manifest = Manifest.load(root / "manifest.json")
    with monkeypatch.context() as patch:
        patch.setattr(hyperspace, "open", killed, raising=False)
        with pytest.raises(OSError, match="half-way"):
            run_stage(manifest)
    assert not done.exists()
    run_stage(manifest)
    assert done.read_bytes() == want


def test_csv_write_cut_short_leaves_no_half_written_position_file(pristine_demo, tmp_path,
                                                                   monkeypatch):
    # generate streams every <position>.csv to a .partial and renames it, so
    # a write killed half-way leaves no truncated data file, and a rerun
    # writes the same bytes
    import csv
    import shutil
    from pathlib import Path
    from harvana.pipeline import Manifest, stage_generate
    root = tmp_path / "demo"
    shutil.copytree(pristine_demo, root)
    data = root / "data"
    want = {p.name: p.read_bytes() for p in data.iterdir()}
    positions = sorted(name for name in want if name.endswith(".csv"))
    assert len(positions) > 1
    shutil.rmtree(data)
    killed_name = positions[1]
    writer = csv.writer

    class Killed:
        # writes the header and one data row of the killed file, then fails
        def __init__(self, fh):
            self.fh, self.writer = fh, writer(fh)

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            if Path(self.fh.name).name.startswith(killed_name):
                self.writer.writerow(next(iter(rows)))
                raise OSError("write killed half-way")
            self.writer.writerows(rows)

    manifest = Manifest.load(root / "manifest.json")
    with monkeypatch.context() as patch:
        patch.setattr(csv, "writer", Killed)
        with pytest.raises(OSError, match="half-way"):
            stage_generate(manifest)
    assert not (data / killed_name).exists()
    assert (data / f"{killed_name}.partial").stat().st_size > 0
    assert not (data / "provenance.json").exists()
    for p in data.glob("*.csv"):
        assert p.read_bytes() == want[p.name], p.name
    stage_generate(manifest)
    assert {p.name: p.read_bytes() for p in data.iterdir()} == want


def test_tau_sweep_row_at_tau_imp_reproduces_w_dgp(demo_run):
    # the sweep runs the protocol stage's seed and settings, so its row at the
    # manifest's tau_imp is the protocol stage's w-DGP result, and its row at
    # tau 0, where every source is kept, is the wo-DGP result
    tau_imp = json.loads((demo_run / "manifest.json").read_text())["dgp"]["tau_imp"]
    metrics = json.loads((demo_run / "metrics.json").read_text())
    lines = (demo_run / "report" / "tau_sweep.csv").read_text().splitlines()[2:]
    assert [r.split(",") for r in lines] == [
        [f"{v:.6g}" for v in row] for row in metrics["tau_sweep"]]
    for tau, mode in [(tau_imp, "w-DGP"), (0.0, "wo-DGP")]:
        row = next(r for r in metrics["tau_sweep"] if r[0] == tau)
        res = metrics["results"][mode]
        assert row[1:3] == [res["mean_f1"], res["std_f1"]], mode


def without_provenance(path):
    doc = json.loads(path.read_text())
    doc.pop("provenance", None)
    return doc


def test_each_subcommand_reproduces_its_stage(demo_run, tmp_path):
    # each subcommand, given the manifest's values, writes what its stage wrote
    from harvana.pipeline import Manifest
    manifest = Manifest.load(demo_run / "manifest.json")
    doc, seed = manifest.doc, manifest.stage_seed
    gen = doc["generate"]
    window = ["--window", gen["window_len"]]

    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps({k: gen[k] for k in ("deployment", "planted", "sensor")}))
    assert run_cli("generate", "--planted", planted, "--frames", gen["frames_per_activity"],
                   *window, "--recordings", gen["recordings_per_activity"],
                   "--seed", seed("generate"), "--out", tmp_path / "data") == 0
    stage_files = {p.name: p.read_bytes() for p in (demo_run / "data").iterdir()}
    del stage_files["provenance.json"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "data").iterdir()} == stage_files

    part = doc["partition"]
    assert run_cli("partition", "--data", demo_run / "data", *window, "--k", part["k"],
                   "--meta-len", part["meta_len"], "--seed", seed("partition"),
                   "--out", tmp_path / "folds.json") == 0
    assert without_provenance(tmp_path / "folds.json") == \
        without_provenance(demo_run / "folds.json")

    ana = doc["analyze"]
    assert run_cli("analyze", "--trials", demo_run / "trials.jsonl",
                   "--space", demo_run / "space.json", "--response", "per_activity_nu[walk]",
                   "--n-trees", ana["n_trees"], "--max-depth", ana["max_depth"],
                   "--min-leaf", ana["min_leaf"], "--seed", seed("analyze"),
                   "--out", tmp_path / "walk.json", "--csv", tmp_path / "walk.csv") == 0
    reports = demo_run / "reports"
    assert without_provenance(tmp_path / "walk.json") == \
        without_provenance(reports / "report_walk.json")
    assert (tmp_path / "walk.csv").read_text().splitlines() == \
        (reports / "report_walk.csv").read_text().splitlines()[1:]

    # the README's glob also matches report_nu.json, which names no activity
    assert run_cli("dgp", "--report", reports / "report_*.json",
                   "--space", demo_run / "space.json", "--tau-imp", doc["dgp"]["tau_imp"],
                   "--tau-int", doc["dgp"]["tau_int"], "--out", tmp_path / "dgp.json") == 0
    assert without_provenance(tmp_path / "dgp.json") == without_provenance(demo_run / "dgp.json")
    assert run_cli("dgp", "agree", "--a", tmp_path / "dgp.json", "--b", demo_run / "dgp.json") == 0

    config = tmp_path / "model.json"
    config.write_text(json.dumps(doc["protocol"]["model"]))
    assert run_cli("train", "--data", demo_run / "data", "--folds", demo_run / "folds.json",
                   *window, "--config", config, "--mode", "w-DGP", "--dgp", demo_run / "dgp.json",
                   "--seed", seed("protocol"), "--out", tmp_path / "metrics.json") == 0
    assert json.loads((tmp_path / "metrics.json").read_text())["results"]["w-DGP"] == \
        json.loads((demo_run / "metrics.json").read_text())["results"]["w-DGP"]


# ---------------------------------------------------------------------------
# what the stages of one run_pipeline call reuse

def files_under(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def count_parses_and_trees(monkeypatch) -> tuple[list, list]:
    """Count sensors.ingest_csv calls and forest trees built; every tree is
    built in this process, where it is counted."""
    from harvana import forest, hyperspace, sensors
    parses, trees = [], []
    ingest, build = sensors.ingest_csv, forest._build_tree
    monkeypatch.setattr(sensors, "ingest_csv", lambda path: parses.append(path) or ingest(path))
    monkeypatch.setattr(forest, "_build_tree", lambda *a: trees.append(1) or build(*a))
    monkeypatch.setattr(hyperspace, "usable_cpus", lambda: 1)
    return parses, trees


def test_one_run_parses_the_data_once_and_fits_each_forest_once(tmp_path, monkeypatch):
    from harvana.pipeline import Manifest, demo_manifest, run_pipeline
    parses, trees = count_parses_and_trees(monkeypatch)
    path = demo_manifest(tmp_path / "demo")
    run_pipeline(path)
    manifest = Manifest.load(path)
    assert list((tmp_path / "demo" / "report").glob("marginal_*.svg"))
    # partition, explore and protocol share one parse, and the report draws
    # its heat maps from analyze's nu forest: no sixth forest
    responses = len(list(manifest.path("reports").glob("report_*.json")))
    assert len(parses) == 1
    assert len(trees) == responses * manifest.number("analyze.n_trees")


def test_report_split_from_analyze_refits_the_same_bytes(pristine_demo, tmp_path, monkeypatch):
    # the same manifest split in two calls by its "stages" toggle: the second
    # call's report refits the nu forest. Each call's manifest differs by its
    # stage list, and so does the manifest hash provenance embeds; the bytes
    # match once that hash is masked. (A report rerun under the very same
    # manifest refits too: see the rerun tests above, which compare bytes
    # unmasked.)
    from harvana.pipeline import STAGES, Manifest, demo_manifest, run_pipeline
    path = demo_manifest(tmp_path / "demo")
    doc = json.loads(path.read_text())
    hashes = [Manifest.load(pristine_demo / "manifest.json").config_hash()]
    _, trees = count_parses_and_trees(monkeypatch)
    for stages in ([name for name, _ in STAGES if name != "report"], ["report"]):
        doc["stages"] = stages
        path.write_text(json.dumps(doc))
        hashes.append(Manifest.load(path).config_hash())
        before = len(trees)
        run_pipeline(path)
    assert len(trees) - before == doc["analyze"]["n_trees"]  # the report's refit

    def masked(root):
        out = {}
        for rel, blob in files_under(root).items():
            for h in hashes:
                blob = blob.replace(h.encode(), b"<hash>")
            out[rel] = blob
        return out

    split, whole = masked(tmp_path / "demo"), masked(pristine_demo)
    del split["manifest.json"], whole["manifest.json"]  # the stage lists differ
    assert len(split) == 34 and any(rel.startswith("report/marginal_") for rel in split)
    for rel in sorted(set(split) | set(whole)):
        assert split.get(rel) == whole.get(rel), rel


def test_second_run_in_one_process_writes_what_a_fresh_process_writes(pristine_demo,
                                                                       tmp_path):
    # pristine_demo ran the demo in this process before; a second run with a
    # new seed must not see anything the first one built
    import subprocess
    import sys
    from pathlib import Path

    import harvana
    from harvana.pipeline import demo_manifest, run_pipeline
    roots = []
    for name in ("here", "fresh"):
        path = demo_manifest(tmp_path / name)
        doc = json.loads(path.read_text())
        doc["seed"] = 8
        path.write_text(json.dumps(doc))
        roots.append(path.parent)
    run_pipeline(roots[0] / "manifest.json")
    env = {**os.environ, "PYTHONPATH": str(Path(harvana.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", "import sys; from harvana.pipeline import "
                    "run_pipeline; run_pipeline(sys.argv[1])", roots[1] / "manifest.json"],
                   env=env, check=True)
    here, fresh = files_under(roots[0]), files_under(roots[1])
    assert len(here) == 35 and here.keys() == fresh.keys()
    for rel in here:
        assert here[rel] == fresh[rel], rel
    assert here["trials.jsonl"] != (pristine_demo / "trials.jsonl").read_bytes()
