import csv
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harvana.learner import mask_augment
from harvana.sensors import (
    NULL_LABEL,
    DataSource,
    Dataset,
    Deployment,
    Frame,
    IngestError,
    PlantedDgp,
    Recording,
    SensorError,
    SensorModel,
    SignalSpec,
    deployment_from_json,
    folds_from_json,
    generate,
    ingest_csv,
    meta_segment_partition,
    moving_average,
    position_columns,
    segment,
    segment_count,
    thermocouple_transfer,
    write_dataset,
)

# exact-rational evaluation of the printed polynomial, frozen to 12 digits
THERMO_FIXTURE = {1820: 13.8135030743, 1000: 4.83263797638, 500: 1.24146173644,
                  100: 0.0331824423413, 1: -0.000240837233648}

COEFF_STRINGS = ["-2.4674601620e-1", "5.9102111169e-3", "-1.4307123430e-6",
                 "2.1509149750e-9", "-3.1757800720e-12", "2.4010367459e-15",
                 "-9.0928148159e-19", "1.3299505137e-22"]


def exact_thermo_mv(T) -> Fraction:
    total = Fraction(0)
    for power, s in enumerate(COEFF_STRINGS, start=1):
        mant, _, exp = s.partition("e")
        c = Fraction(mant) * Fraction(10) ** int(exp)
        total += c * Fraction(T) ** power
    return total * Fraction(10) ** -3


def simple_deployment(n_positions=2, modalities=("acc",), channels=1, fs=100.0):
    positions = ["hips", "hand", "torso", "bag"][:n_positions]
    sources = tuple(DataSource(id=f"{p}_{m}", position=p, modality=m, channels=channels)
                    for p in positions for m in modalities)
    return Deployment(sources=sources, sampling_rate=fs)


def simple_planted(deployment, activities=("walk", "run"), **kw):
    ids = deployment.source_ids
    informative = {
        a: {ids[i % len(ids)]: SignalSpec(base_freq=2.0 + i, amplitude=1.0)}
        for i, a in enumerate(activities)
    }
    return PlantedDgp(activities=tuple(activities), informative=informative, **kw)


# ---------------------------------------------------------------------------
# thermocouple

def test_thermocouple_zero_is_zero():
    assert thermocouple_transfer(0.0) == 0.0


def test_thermocouple_matches_exact_polynomial_fixture():
    for T, expected in THERMO_FIXTURE.items():
        assert thermocouple_transfer(float(T)) == pytest.approx(expected, rel=1e-11)


def test_thermocouple_exact_oracle_dense():
    rng = np.random.default_rng(0)
    for T in rng.uniform(0.0, 1820.0, 100):
        exact = float(exact_thermo_mv(Fraction(T)))
        assert thermocouple_transfer(T) == pytest.approx(exact, rel=1e-12)


def test_thermocouple_range_errors():
    with pytest.raises(SensorError):
        thermocouple_transfer(-1.0)
    with pytest.raises(SensorError):
        thermocouple_transfer(1820.5)


# ---------------------------------------------------------------------------
# generation

def test_generate_pure_sinusoid_when_noiseless():
    dep = simple_deployment()
    planted = PlantedDgp(activities=("walk",),
                         informative={"walk": {"hips_acc": SignalSpec(2.0, 1.0, 0.3)}},
                         distractor_sigma=1.0, phase_jitter=0.0)
    ds = generate(dep, planted, frames_per_activity=3, window_len=200, seed=0)
    rec = ds.recordings[0]
    t = np.arange(600) / 100.0
    expected = np.sin(2 * math.pi * 2.0 * t + 0.3)
    np.testing.assert_allclose(rec.signals[0], expected, atol=1e-12)


def test_generate_deterministic():
    dep = simple_deployment()
    planted = simple_planted(dep)
    models = SensorModel(noise_sigma=0.2, dropout_prob=0.05)
    a = generate(dep, planted, 4, 100, models, seed=9)
    b = generate(dep, planted, 4, 100, models, seed=9)
    for ra, rb in zip(a.recordings, b.recordings):
        np.testing.assert_array_equal(ra.signals, rb.signals)


def test_dropout_gap_fraction_binomial():
    dep = Deployment(sources=(DataSource("s", "hips", "acc", 1),), sampling_rate=100.0)
    planted = PlantedDgp(activities=("walk",),
                         informative={"walk": {"s": SignalSpec(2.0)}})
    model = SensorModel(dropout_prob=0.1)
    ds = generate(dep, planted, frames_per_activity=500, window_len=200,
                  sensor_models=model, seed=3, gap_max_frac=1.0)
    frac = float(np.isnan(ds.recordings[0].signals).mean())
    assert 0.09 <= frac <= 0.11  # 1e5 samples, binomial tail negligible


def test_generate_gap_filter_and_zero_fill():
    dep = simple_deployment(1)
    planted = simple_planted(dep, activities=("walk",))
    model = SensorModel(dropout_prob=0.3)
    ds = generate(dep, planted, 20, 100, model, seed=1, gap_max_frac=0.05)
    assert len(ds.frames) < 20  # heavy dropout removes frames
    for f in ds.frames:
        assert f.gap_fraction <= 0.05
        assert np.isfinite(f.samples).all()


def test_sensor_model_gain_offset_drift():
    dep = Deployment(sources=(DataSource("s", "hips", "acc", 1),), sampling_rate=10.0)
    planted = PlantedDgp(activities=("walk",), informative={"walk": {"s": SignalSpec(1.0, 0.0)}},
                         phase_jitter=0.0)
    model = SensorModel(gain=2.0, offset=1.0, drift_per_second=0.5)
    ds = generate(dep, planted, 1, 20, model, seed=0)
    sig = ds.recordings[0].signals[0]
    t = np.arange(20) / 10.0
    np.testing.assert_allclose(sig, 1.0 + 0.5 * t, atol=1e-12)  # amplitude 0 signal


def test_crosstalk_bursts_are_pooled_activity_sinusoids():
    # with no distractor noise a non-informative channel is the cross-talk
    # alone: per window block, one sinusoid at a pooled activity frequency
    dep = simple_deployment(3)
    planted = simple_planted(dep, distractor_sigma=0.0, crosstalk_amp=0.7)
    ds = generate(dep, planted, 6, 100, seed=2)
    assert planted.pooled_freqs() == (2.0, 3.0)
    torso = dep.channel_slice("torso_acc").start
    for rec in ds.recordings:
        blocks = rec.signals[torso].reshape(6, 100)  # 1 s blocks: bin k is k Hz
        spec = np.abs(np.fft.rfft(blocks, axis=1))
        peak = spec.argmax(axis=1)
        assert set(peak) <= {2, 3}
        np.testing.assert_allclose(spec[np.arange(6), peak], 0.7 * 100 / 2)
        spec[np.arange(6), peak] = 0.0
        np.testing.assert_allclose(spec, 0.0, atol=1e-9)
    quiet = generate(dep, simple_planted(dep, distractor_sigma=0.0), 6, 100, seed=2)
    assert not quiet.recordings[0].signals[torso].any()


def test_generate_applies_the_thermocouple_transfer_per_source():
    # a thermocouple reads degC in [0, 1820]; with no distractor noise the
    # non-informative hand channel is its recording's calibration offset
    dep = simple_deployment(2)
    planted = simple_planted(dep, activities=("walk",), distractor_sigma=0.0,
                             distractor_offset_sigma=300.0)
    thermo = {"hips_acc": SensorModel(), "hand_acc": SensorModel(transfer="thermocouple")}
    hand = dep.channel_slice("hand_acc").start
    warm = generate(dep, planted, 3, 50, seed=2)
    assert warm.recordings[0].signals[hand, 0] > 0.0
    got = generate(dep, planted, 3, 50, thermo, seed=2)
    np.testing.assert_array_equal(got.recordings[0].signals[hand],
                                  thermocouple_transfer(warm.recordings[0].signals[hand]))
    np.testing.assert_array_equal(np.delete(got.recordings[0].signals, hand, axis=0),
                                  np.delete(warm.recordings[0].signals, hand, axis=0))
    # below 0 degC the transfer is undefined, and generate says so
    cold = generate(dep, planted, 3, 50, seed=0)
    assert cold.recordings[0].signals[hand, 0] < 0.0
    with pytest.raises(SensorError, match="outside the 0-1820 degC range"):
        generate(dep, planted, 3, 50, thermo, seed=0)


@pytest.mark.parametrize("amplitude,noise,seed", [
    (1.0, 0.4, 5), (0.9, 0.4, 6), (2.0, 0.9, 7), (0.5, 0.2, 8),
])
def test_informative_beats_distractor_spectral_power(amplitude, noise, seed):
    # holds whenever amplitude > 2 * noise_sigma (periodogram property)
    assert amplitude > 2 * noise
    dep = simple_deployment(2)
    planted = PlantedDgp(
        activities=("walk",),
        informative={"walk": {"hips_acc": SignalSpec(base_freq=5.0,
                                                     amplitude=amplitude)}},
        distractor_sigma=noise, phase_jitter=0.3)
    model = SensorModel(noise_sigma=noise)
    ds = generate(dep, planted, 30, 200, model, seed=seed)
    X = np.stack([f.samples for f in ds.frames])
    spec = np.abs(np.fft.rfft(X, axis=2)) ** 2
    bin5 = round(5.0 * 200 / 100.0)  # base_freq * window / fs
    info = spec[:, 0, bin5].mean()
    distract = spec[:, 1, bin5].mean()
    assert info > distract


# ---------------------------------------------------------------------------
# segmentation

def test_segment_non_overlap_count():
    dep = simple_deployment(1)
    rec = Recording("r", np.zeros((1, 18000)), np.full(18000, "walk", dtype=object))
    ds = Dataset(dep, ("walk",), [rec])
    assert len(segment(ds, 6000, 6000)) == 3


def test_segment_half_overlap_shares_samples():
    dep = simple_deployment(1)
    rec = Recording("r", np.arange(18000, dtype=float).reshape(1, -1),
                    np.full(18000, "walk", dtype=object))
    ds = Dataset(dep, ("walk",), [rec])
    frames = segment(ds, 6000, 3000)
    assert len(frames) == 5
    a, b = frames[0], frames[1]
    np.testing.assert_array_equal(a.samples[0, 3000:], b.samples[0, :3000])


def test_segment_fraction_stride():
    dep = simple_deployment(1)
    rec = Recording("r", np.zeros((1, 1000)), np.full(1000, "walk", dtype=object))
    ds = Dataset(dep, ("walk",), [rec])
    frames = segment(ds, 100, 0.55)
    strides = {frames[i + 1].time_index - frames[i].time_index
               for i in range(len(frames) - 1)}
    assert strides == {round(0.55 * 100)}
    # an integral float > 1 is samples; any other float > 1 is not truncated
    assert segment(ds, 100, 2.0)[1].time_index == 2
    with pytest.raises(SensorError, match="2.5"):
        segment(ds, 100, 2.5)


def test_moving_average_identity_and_smoothing():
    from harvana.sensors import moving_average
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 500))
    np.testing.assert_array_equal(moving_average(x, 1), x)
    smoothed = moving_average(x, 9)
    assert smoothed.var() < x.var() * 0.5  # noise power drops
    const = np.full((1, 100), 3.0)
    np.testing.assert_allclose(moving_average(const, 5)[:, 10:-10], 3.0)


def test_segment_smooth_window_knob():
    dep = simple_deployment(1)
    rng = np.random.default_rng(1)
    rec = Recording("r", rng.normal(size=(1, 400)), np.full(400, "walk", dtype=object))
    ds = Dataset(dep, ("walk",), [rec])
    plain = segment(ds, 100, 100)
    smoothed = segment(ds, 100, 100, smooth_window=7)
    assert len(plain) == len(smoothed)
    assert smoothed[0].samples.var() < plain[0].samples.var()


def test_segment_majority_label_and_null_flag():
    dep = simple_deployment(1)
    labels = np.array(["walk"] * 60 + ["run"] * 40 + ["null"] * 100, dtype=object)
    rec = Recording("r", np.zeros((1, 200)), labels)
    ds = Dataset(dep, ("walk", "run"), [rec])
    frames = segment(ds, 100, 100)
    assert frames[0].activity == "walk"
    assert frames[1].activity is None and frames[1].is_null


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=400),
       st.integers(min_value=400, max_value=2000))
@settings(max_examples=80, deadline=None)
def test_segment_count_formula(window, stride, n):
    stride = min(stride, window)
    dep = simple_deployment(1)
    rec = Recording("r", np.zeros((1, n)), np.full(n, "walk", dtype=object))
    ds = Dataset(dep, ("walk",), [rec])
    frames = segment(ds, window, stride)
    assert len(frames) == segment_count(n, window, stride) == (n - window) // stride + 1


def reference_segment(dataset, window_len, stride_s, gap_max_frac=0.1, smooth_window=1):
    """Segmentation frame by frame, each frame its own copy: a nan_to_num
    copy of the window, an np.unique majority and an isnan().mean() gap."""
    frames, frame_id = [], 0
    for rec in dataset.recordings:
        T = rec.signals.shape[1]
        smoothed = moving_average(rec.signals, smooth_window)
        for start in range(0, T - window_len + 1, stride_s):
            labels, counts = np.unique(rec.labels[start:start + window_len],
                                       return_counts=True)
            majority = str(labels[int(np.argmax(counts))])
            gap = float(np.isnan(rec.signals[:, start:start + window_len]).mean())
            frame_id += 1
            if gap > gap_max_frac:
                continue
            frames.append(Frame(
                frame_id=frame_id - 1,
                activity=None if majority == NULL_LABEL else majority,
                samples=np.nan_to_num(smoothed[:, start:start + window_len], nan=0.0),
                time_index=start, recording=rec.id, gap_fraction=gap))
    return frames


def gapped_dataset():
    """Two 3-channel recordings with window-100 cases: null-majority and
    two-label tie windows, sparse NaN gaps (10 of 300 values) and a dense
    one (up to 60 of 300), and one infinite sample."""
    dep = simple_deployment(1, channels=3)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 600))
    a[1, 310:320] = np.nan
    a[0, 450:510] = np.nan
    labels_a = np.array(["walk"] * 130 + ["null"] * 70 + ["run"] * 50 + ["walk"] * 350,
                        dtype=object)
    b = rng.normal(size=(3, 300))
    b[2, 20] = np.inf
    labels_b = np.array(["run"] * 150 + ["null"] * 150, dtype=object)
    return Dataset(dep, ("walk", "run"), [Recording("a", a, labels_a),
                                          Recording("b", b, labels_b)])


@pytest.mark.parametrize("stride, stride_s, smooth_window", [
    (100, 100, 1), (50, 50, 1), (0.5, 50, 1), (100, 100, 3), (0.5, 50, 3),
])
def test_segment_matches_per_frame_copy_reference(stride, stride_s, smooth_window):
    ds = gapped_dataset()
    got = segment(ds, 100, stride, smooth_window=smooth_window)
    want = reference_segment(ds, 100, stride_s, smooth_window=smooth_window)
    # every case is present: gaps kept and dropped, null frames, both ties
    assert any(0 < f.gap_fraction for f in want)
    assert len(want) < sum((r.signals.shape[1] - 100) // stride_s + 1 for r in ds.recordings)
    assert any(f.is_null for f in want)
    assert any(f.recording == "a" and f.time_index == 200 and f.activity == "run" for f in want)
    assert any(f.recording == "b" and f.time_index == 100 and f.is_null for f in want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.samples, w.samples)
        assert (g.frame_id, g.activity, g.gap_fraction, g.time_index, g.recording) == \
            (w.frame_id, w.activity, w.gap_fraction, w.time_index, w.recording)


def test_segment_frames_are_read_only_views_into_the_recording():
    ds = gapped_dataset()
    rec = ds.recordings[0]
    before = rec.signals.copy()
    frames = [f for f in segment(ds, 100, 50) if f.recording == "a"]
    clean = next(f for f in frames if f.gap_fraction == 0.0)
    assert np.shares_memory(clean.samples, rec.signals)
    with pytest.raises(ValueError, match="read-only"):
        clean.samples[0, 0] = 1.0
    gapped = next(f for f in frames if f.gap_fraction > 0.0)
    assert not np.shares_memory(gapped.samples, rec.signals)
    window = rec.signals[:, gapped.time_index:gapped.time_index + 100]
    assert (gapped.samples[np.isnan(window)] == 0.0).all()
    assert np.isnan(rec.signals).sum() == np.isnan(before).sum() > 0
    # masked frames are the learner's own copies; the recording is untouched
    walk = [f for f in frames if f.activity == "walk"]
    masked = mask_augment(walk, {"walk": frozenset()}, 0.5, seed=0, deployment=ds.deployment)
    assert all(f.samples.flags.writeable for f in masked)
    masked[0].samples[:] = 7.0
    np.testing.assert_array_equal(rec.signals, before)


def test_overlapping_frames_hold_no_copy_of_the_stream():
    dep = simple_deployment(1, channels=12)
    rec = Recording("r", np.random.default_rng(0).normal(size=(12, 100_000)),
                    np.full(100_000, "walk", dtype=object))
    ds = Dataset(dep, ("walk",), [rec])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frames = segment(ds, 1000, 500)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(frames) == 199
    # a copy per frame would hold twice the recording
    assert held < 0.05 * rec.signals.nbytes


# ---------------------------------------------------------------------------
# partitioning

def frames_stub(n, recording="r"):
    return [Frame(frame_id=i, activity="walk", samples=np.zeros((1, 2)),
                  time_index=i * 10, recording=recording) for i in range(n)]


def test_partition_meta_one_balances():
    folds = meta_segment_partition(frames_stub(100), k=10, meta_len=1, seed=0)
    counts = np.bincount(list(folds.assignment.values()), minlength=10)
    assert (counts == 10).all()


def test_partition_runs_stay_together():
    frames = frames_stub(100)
    folds = meta_segment_partition(frames, k=5, meta_len=20, seed=1)
    for start in range(0, 100, 20):
        fold_ids = {folds.assignment[f.frame_id] for f in frames[start:start + 20]}
        assert len(fold_ids) == 1


def test_partition_fewer_runs_than_folds():
    with pytest.raises(SensorError, match="fewer runs than folds"):
        meta_segment_partition(frames_stub(30), k=5, meta_len=30, seed=0)


def test_partition_respects_recording_boundaries():
    frames = frames_stub(25, "a") + [
        Frame(frame_id=25 + i, activity="walk", samples=np.zeros((1, 2)),
              time_index=i * 10, recording="b") for i in range(25)]
    folds = meta_segment_partition(frames, k=2, meta_len=10, seed=3)
    # the 5-frame tails of each recording form their own runs (never merged)
    tail_a = {folds.assignment[i] for i in range(20, 25)}
    tail_b = {folds.assignment[25 + i] for i in range(20, 25)}
    assert len(tail_a) == 1 and len(tail_b) == 1


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=17),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_partition_disjoint_and_exhaustive(k, meta_len, seed):
    frames = frames_stub(120)
    try:
        folds = meta_segment_partition(frames, k=k, meta_len=meta_len, seed=seed)
    except SensorError:
        assert math.ceil(120 / meta_len) < k
        return
    assert set(folds.assignment) == {f.frame_id for f in frames}
    assert set(folds.assignment.values()) <= set(range(k))
    counts = np.bincount(list(folds.assignment.values()), minlength=k)
    assert counts.max() - counts.min() <= meta_len


def test_partition_redraws_until_every_fold_trains_on_every_activity():
    # seed 2101 first deals all eight walk frames to fold 0 (k = 2), which
    # would leave fold 0's training side without walk; the partition redraws
    dep = simple_deployment(1, modalities=("acc", "gyr", "mag"))
    planted = simple_planted(dep, activities=("walk", "run", "still", "cycle"))
    ds = generate(dep, planted, 8, 20, seed=2101)
    folds = meta_segment_partition(ds.frames, k=2, meta_len=1, seed=2101)
    for fold in range(2):
        train, _ = folds.split(ds.frames, fold)
        assert {f.activity for f in train} == set(planted.activities)


def test_partition_refuses_an_activity_held_by_one_run():
    def frame(i, activity, recording):
        return Frame(frame_id=i, activity=activity, samples=np.zeros((1, 2)),
                     time_index=0, recording=recording)

    # a null frame may sit in one fold: only activities need a training side
    folds = meta_segment_partition(frames_stub(20) + [frame(20, None, "n")], k=4,
                                   meta_len=1, seed=0)
    assert len(folds.assignment) == 21
    with pytest.raises(SensorError, match="activity 'run' falls in one fold"):
        meta_segment_partition(frames_stub(20) + [frame(20, "run", "r2")], k=4,
                               meta_len=1, seed=0)


def test_folds_json_round_trip():
    folds = meta_segment_partition(frames_stub(40), k=4, meta_len=5, seed=2)
    back = folds_from_json(json.loads(json.dumps(folds.to_json())))
    assert back == folds


# ---------------------------------------------------------------------------
# on-disk round trip

def test_write_ingest_round_trip(tmp_path):
    dep = simple_deployment(2, modalities=("acc",), channels=3)
    planted = simple_planted(dep)
    ds = generate(dep, planted, 4, 50, SensorModel(noise_sigma=0.1, dropout_prob=0.02),
                  seed=7)
    write_dataset(ds, tmp_path / "data")
    back = ingest_csv(tmp_path / "data")
    assert back.deployment == dep
    assert back.activities == ds.activities
    assert len(back.recordings) == len(ds.recordings)
    for ra, rb in zip(ds.recordings, back.recordings):
        np.testing.assert_allclose(ra.signals, rb.signals, equal_nan=True)
        assert list(ra.labels) == list(rb.labels)
    assert back.deployment.n_channels == 6


def test_ingest_missing_position(tmp_path):
    dep = simple_deployment(2)
    ds = generate(dep, simple_planted(dep), 2, 30, seed=0)
    write_dataset(ds, tmp_path / "data")
    (tmp_path / "data" / "hand.csv").unlink()
    with pytest.raises(IngestError, match="missing position file"):
        ingest_csv(tmp_path / "data")


def test_ingest_ragged_row_names_line(tmp_path):
    dep = simple_deployment(1)
    ds = generate(dep, simple_planted(dep, activities=("walk",)), 2, 30, seed=0)
    write_dataset(ds, tmp_path / "data")
    path = tmp_path / "data" / "hips.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].split(",")[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=r"hips\.csv:6"):
        ingest_csv(tmp_path / "data")


def test_ingest_unknown_label(tmp_path):
    dep = simple_deployment(1)
    ds = generate(dep, simple_planted(dep, activities=("walk",)), 2, 30, seed=0)
    write_dataset(ds, tmp_path / "data")
    path = tmp_path / "data" / "hips.csv"
    text = path.read_text().replace("walk", "flying", 1)
    path.write_text(text)
    with pytest.raises(IngestError, match="unknown label 'flying'"):
        ingest_csv(tmp_path / "data")


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan", "NaN", "abc"])
def test_ingest_rejects_a_cell_that_is_not_a_finite_number(tmp_path, cell):
    # the writer encodes a gap only as an empty cell, so a NaN, an infinity
    # or an overflowing literal is never a gap or a value
    _, data = two_position_data(tmp_path)

    def edit(rows):
        rows[5][1] = cell

    rewrite_csv(data / "hand.csv", edit)
    with pytest.raises(IngestError, match=r"hand\.csv:6: a value is not"):
        ingest_csv(data)


def test_ingest_keeps_empty_cells_as_gaps_beside_finite_values(tmp_path):
    _, data = two_position_data(tmp_path)

    def edit(rows):
        rows[5][0] = ""
        rows[5][1] = "1e300"

    rewrite_csv(data / "hand.csv", edit)
    back = ingest_csv(data)
    signals = np.concatenate([r.signals for r in back.recordings], axis=1)
    gap, value = position_columns(back.deployment, "hand").values()
    assert math.isnan(signals[gap, 4]) and signals[value, 4] == 1e300


def rewrite_csv(path, edit):
    """Apply `edit` to the rows of the CSV at `path` and write them back."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def two_position_data(tmp_path):
    dep = simple_deployment(2, modalities=("acc", "gyr"))
    ds = generate(dep, simple_planted(dep), 3, 30, seed=4)
    write_dataset(ds, tmp_path / "data")
    return ds, tmp_path / "data"


def drop_column(rows):
    for row in rows:
        del row[1]


def rename_column(rows):
    rows[0][1] = "hips_mag_c0"


def duplicate_column(rows):
    rows[0][1] = rows[0][0]


def label_last(rows):
    for row in rows:
        row.insert(0, row.pop())


@pytest.mark.parametrize("edit", [drop_column, rename_column, duplicate_column, label_last],
                         ids=["dropped", "unknown", "duplicated", "label_first"])
def test_ingest_bad_columns_name_the_file(tmp_path, edit):
    # a column missing from meta.json's layout would read 0 in every frame
    _, data = two_position_data(tmp_path)
    rewrite_csv(data / "hips.csv", edit)
    with pytest.raises(IngestError, match=r"hips\.csv: columns"):
        ingest_csv(data)


def relabel_row_7(rows):
    rows[7][-1] = "run" if rows[7][-1] == "walk" else "walk"


def drop_last_row(rows):
    rows.pop()


@pytest.mark.parametrize("edit", [relabel_row_7, drop_last_row], ids=["relabelled", "short"])
def test_ingest_labels_differing_from_first_position_file_name_it(tmp_path, edit):
    _, data = two_position_data(tmp_path)
    rewrite_csv(data / "hand.csv", edit)
    with pytest.raises(IngestError,
                       match=r"hand\.csv: its \d+ rows are not labelled as the \d+ of .*hips\.csv"):
        ingest_csv(data)


def test_ingest_matches_columns_by_name_in_any_order(tmp_path):
    ds, data = two_position_data(tmp_path)

    def swap(rows):
        for row in rows:
            row[0], row[1] = row[1], row[0]

    rewrite_csv(data / "hand.csv", swap)
    back = ingest_csv(data)
    for ra, rb in zip(ds.recordings, back.recordings):
        np.testing.assert_array_equal(ra.signals, rb.signals)


@pytest.mark.parametrize("edit, key", [
    ({"channels": 1.5}, "sources[0].channels"),
    ({"channels": "2"}, "sources[0].channels"),
    ({"id": 5}, "sources[0].id"),
    ({"sampling_rate": "50"}, "deployment.sampling_rate"),
    ({"sampling_rate": True}, "deployment.sampling_rate"),
])
def test_deployment_values_are_not_guessed_at(edit, key):
    doc = {"sampling_rate": 50.0,
           "sources": [{"id": "hips_acc", "position": "hips", "modality": "acc"}]}
    if "sampling_rate" in edit:
        doc.update(edit)
    else:
        doc["sources"][0].update(edit)
    with pytest.raises(SensorError, match=re.escape(key)):
        deployment_from_json(doc)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_deployment_rejects_a_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(SensorError, match="sampling_rate must be finite and > 0"):
        simple_deployment(fs=rate)


@pytest.mark.parametrize("channels", [0, -1])
def test_deployment_rejects_a_source_without_channels(channels):
    with pytest.raises(SensorError, match="'hips_acc' needs channels >= 1"):
        simple_deployment(1, channels=channels)


@pytest.mark.parametrize("name", ["gain", "offset", "noise_sigma", "drift_per_second"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sensor_model_rejects_non_finite_values(name, value):
    with pytest.raises(SensorError, match=f"sensor {name} must be finite"):
        SensorModel(**{name: value})


def test_ingest_shl_preview_shape(tmp_path):
    # 4 positions x 7 modalities at 100 Hz, as the documented layout
    modalities = ("acc", "gyr", "mag", "lacc", "ori", "grav", "pressure")
    dep = simple_deployment(4, modalities=modalities, channels=1)
    planted = simple_planted(dep, activities=("walk", "still"))
    ds = generate(dep, planted, 2, 40, seed=2)
    write_dataset(ds, tmp_path / "shl")
    back = ingest_csv(tmp_path / "shl")
    assert len(back.deployment.positions()) == 4
    assert back.deployment.n_channels == 28
