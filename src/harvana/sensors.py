"""Sensor deployments, synthetic data with planted ground truth, CSV
ingestion, windowed segmentation, and meta-segmented fold assignment.

The synthetic generator plants a per-activity set of informative data
sources: their channels carry a sinusoid (with per-window jitter, optionally
AR(1)-correlated across adjacent windows) while every other channel carries
pure Gaussian noise. Each source is passed through a measurement model
(transfer function, drift, noise, dropout gaps), so recovered importances can
be checked against the planted truth.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .hyperspace import atomic_open, convert_key, derive_rng, write_json

NULL_LABEL = "null"

# Input/output relation of a type-B-style thermocouple over 0..1820 degC,
# returning millivolts; no constant term, so V(0) == 0 exactly.
THERMO_COEFFS = (
    -2.4674601620e-1,
    5.9102111169e-3,
    -1.4307123430e-6,
    2.1509149750e-9,
    -3.1757800720e-12,
    2.4010367459e-15,
    -9.0928148159e-19,
    1.3299505137e-22,
)


class SensorError(ValueError):
    pass


class IngestError(ValueError):
    pass


def thermocouple_transfer(T):
    """Thermocouple output in mV for temperatures in [0, 1820] degC."""
    T = np.asarray(T, dtype=float)
    if np.any(T < 0.0) or np.any(T > 1820.0):
        raise SensorError("temperature outside the 0-1820 degC range")
    acc = np.zeros_like(T)
    for c in reversed(THERMO_COEFFS):
        acc = (acc + c) * T
    out = acc * 1e-3
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DataSource:
    id: str
    position: str
    modality: str
    channels: int = 1


@dataclass(frozen=True)
class Deployment:
    sources: tuple[DataSource, ...]
    sampling_rate: float

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if not (math.isfinite(self.sampling_rate) and self.sampling_rate > 0):
            raise SensorError(f"sampling_rate must be finite and > 0, got {self.sampling_rate!r}")
        if not self.sources:
            raise SensorError("deployment needs >= 1 source")
        seen = set()
        for s in self.sources:
            if s.channels < 1:
                raise SensorError(f"source {s.id!r} needs channels >= 1, got {s.channels!r}")
            if (s.position, s.modality) in seen:
                raise SensorError(f"duplicate (position, modality): {s.position}/{s.modality}")
            seen.add((s.position, s.modality))

    @property
    def n_channels(self) -> int:
        return sum(s.channels for s in self.sources)

    @property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sources)

    def channel_slice(self, source_id: str) -> slice:
        off = 0
        for s in self.sources:
            if s.id == source_id:
                return slice(off, off + s.channels)
            off += s.channels
        raise KeyError(source_id)

    def positions(self) -> tuple[str, ...]:
        out = []
        for s in self.sources:
            if s.position not in out:
                out.append(s.position)
        return tuple(out)


@dataclass(frozen=True)
class SensorModel:
    gain: float = 1.0
    offset: float = 0.0
    noise_sigma: float = 0.0
    drift_per_second: float = 0.0
    dropout_prob: float = 0.0
    transfer: str = "linear"  # linear | thermocouple

    def __post_init__(self):
        for name in ("gain", "offset", "noise_sigma", "drift_per_second"):
            if not math.isfinite(getattr(self, name)):
                raise SensorError(f"sensor {name} must be finite, got {getattr(self, name)!r}")
        if self.noise_sigma < 0 or not (0.0 <= self.dropout_prob < 1.0):
            raise SensorError("noise_sigma >= 0 and dropout_prob in [0,1) required")
        if self.transfer not in ("linear", "thermocouple"):
            raise SensorError(f"unknown transfer {self.transfer!r}")


@dataclass(frozen=True)
class SignalSpec:
    base_freq: float
    amplitude: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class PlantedDgp:
    """Ground truth: which sources are informative for which activity.

    crosstalk_amp > 0 makes non-informative channels carry sinusoid bursts at
    frequencies drawn from the pooled activity signatures (per window block),
    i.e. actively misleading interference rather than plain noise."""
    activities: tuple[str, ...]
    informative: Mapping[str, Mapping[str, SignalSpec]]
    distractor_sigma: float = 1.0
    crosstalk_amp: float = 0.0
    distractor_offset_sigma: float = 0.0  # per-recording DC offset (calibration drift)
    phase_jitter: float = 0.5
    freq_jitter: float = 0.0
    amp_jitter: float = 0.0
    autocorr: float = 0.0  # AR(1) coefficient of per-window jitters

    def __post_init__(self):
        object.__setattr__(self, "activities", tuple(self.activities))
        object.__setattr__(self, "informative",
                           {a: dict(m) for a, m in dict(self.informative).items()})
        for a in self.activities:
            if not self.informative.get(a):
                raise SensorError(f"activity {a!r} has no informative sources")

    def informative_ids(self, activity: str) -> frozenset[str]:
        return frozenset(self.informative[activity])

    def pooled_freqs(self) -> tuple[float, ...]:
        return tuple(sorted({spec.base_freq for specs in self.informative.values()
                             for spec in specs.values()}))


@dataclass
class Recording:
    id: str
    signals: np.ndarray  # (n_channels, n_samples), NaN marks dropout gaps
    labels: np.ndarray   # (n_samples,) str, NULL_LABEL for the null class


@dataclass
class Frame:
    frame_id: int
    activity: str | None  # None for the null class
    samples: np.ndarray   # (n_channels, window_len), read-only: a view into its
                          # recording's stream, or a copy with gaps zero-filled
    time_index: int       # start sample within its recording
    recording: str
    gap_fraction: float = 0.0

    @property
    def is_null(self) -> bool:
        return self.activity is None


@dataclass
class Dataset:
    deployment: Deployment
    activities: tuple[str, ...]
    recordings: list[Recording]
    frames: list[Frame] = field(default_factory=list)


@dataclass
class FoldAssignment:
    k: int
    meta_len: int
    seed: int
    assignment: dict[int, int]  # frame_id -> fold

    def _check_covers(self, frames: Sequence[Frame]) -> None:
        missing = [f.frame_id for f in frames if f.frame_id not in self.assignment]
        if missing:
            raise SensorError(f"fold assignment does not cover {len(missing)} frame(s): "
                              f"frame ids {missing[:10]}{' ...' if len(missing) > 10 else ''}")

    def split(self, frames: Sequence[Frame], fold: int) -> tuple[list[Frame], list[Frame]]:
        self._check_covers(frames)
        train = [f for f in frames if self.assignment[f.frame_id] != fold]
        val = [f for f in frames if self.assignment[f.frame_id] == fold]
        return train, val

    def to_json(self) -> dict:
        return {"k": self.k, "meta_len": self.meta_len, "seed": self.seed,
                "assignment": {str(i): f for i, f in sorted(self.assignment.items())}}


def folds_from_json(doc: Mapping, source: str = "folds") -> FoldAssignment:
    """The fold assignment `doc` holds. Every number is read by convert_key,
    so none is truncated, and each frame's fold must lie in [0, k); a bad
    value raises SensorError naming `source` and the key or frame id."""
    k, meta_len, seed = (convert_key(f"{source}: {key}", 0, doc[key], SensorError)
                         for key in ("k", "meta_len", "seed"))
    assignment = {}
    for frame, fold in doc["assignment"].items():
        if not frame.isdecimal():
            raise SensorError(f"{source}: frame id {frame!r} is not an integer >= 0")
        fold = convert_key(f"{source}: frame {frame}", 0, fold, SensorError)
        if not 0 <= fold < k:
            raise SensorError(f"{source}: frame {frame}: fold {fold} is not in [0, {k})")
        assignment[int(frame)] = fold
    return FoldAssignment(k=k, meta_len=meta_len, seed=seed, assignment=assignment)


def load_folds(path: str | Path) -> FoldAssignment:
    """The fold assignment the JSON file `path` holds (folds_from_json)."""
    return folds_from_json(json.loads(Path(path).read_text()), source=str(path))


# ---------------------------------------------------------------------------
# generation

def _ar1(rng: np.random.Generator, n: int, sigma: float, rho: float) -> np.ndarray:
    if sigma == 0.0 or n == 0:
        return np.zeros(n)
    innov = rng.normal(0.0, sigma, n)
    if rho == 0.0:
        return innov
    out = np.empty(n)
    out[0] = innov[0]
    for i in range(1, n):
        out[i] = rho * out[i - 1] + math.sqrt(1.0 - rho * rho) * innov[i]
    return out


def _apply_sensor_model(x: np.ndarray, model: SensorModel, fs: float,
                        rng: np.random.Generator) -> np.ndarray:
    if model.transfer == "thermocouple":
        y = thermocouple_transfer(x)
    else:
        y = model.gain * x + model.offset
    t = np.arange(x.shape[-1]) / fs
    y = y + model.drift_per_second * t
    if model.noise_sigma > 0:
        y = y + rng.normal(0.0, model.noise_sigma, x.shape)
    if model.dropout_prob > 0:
        y = np.where(rng.uniform(size=x.shape) < model.dropout_prob, np.nan, y)
    return y


def generate(deployment: Deployment, planted: PlantedDgp, frames_per_activity: int,
             window_len: int, sensor_models: Mapping[str, SensorModel] | SensorModel | None = None,
             seed: int = 0, stride: int | float | None = None,
             gap_max_frac: float = 0.1, recordings_per_activity: int = 1) -> Dataset:
    """Synthesize recordings per activity and segment them into frames.

    Informative channels carry the planted sinusoid plus the sensor model's
    noise; every other channel is Gaussian noise at distractor_sigma, plus
    optional cross-talk bursts and a per-recording calibration offset
    (distractor_offset_sigma) that varies between sessions. Deterministic for
    a fixed seed. stride < window_len emits overlapping frames (see
    :func:`segment` for the stride conventions).
    """
    if window_len < 2:
        raise SensorError("window_len must be >= 2")
    fs = deployment.sampling_rate
    stride_s = _resolve_stride(stride, window_len)
    if isinstance(sensor_models, SensorModel) or sensor_models is None:
        default = sensor_models or SensorModel()
        sensor_models = {s.id: default for s in deployment.sources}

    recordings = []
    for ai, activity in enumerate(planted.activities):
        for rep in range(recordings_per_activity):
            T = (frames_per_activity - 1) * stride_s + window_len
            n_blocks = math.ceil(T / window_len)
            rng = derive_rng(seed, ai, rep)
            signals = np.empty((deployment.n_channels, T))
            informative = planted.informative[activity]
            t_axis = np.arange(T) / fs
            block_of = np.minimum(np.arange(T) // window_len, n_blocks - 1)
            for source in deployment.sources:
                sl = deployment.channel_slice(source.id)
                if source.id in informative:
                    spec = informative[source.id]
                    phase_j = _ar1(rng, n_blocks, planted.phase_jitter, planted.autocorr)
                    freq_j = _ar1(rng, n_blocks, planted.freq_jitter, planted.autocorr)
                    amp_j = _ar1(rng, n_blocks, planted.amp_jitter, planted.autocorr)
                    freq = spec.base_freq * (1.0 + freq_j[block_of])
                    amp = np.maximum(spec.amplitude * (1.0 + amp_j[block_of]), 0.0)
                    for ci in range(source.channels):
                        ph = spec.phase + phase_j[block_of] + 0.5 * ci
                        signals[sl.start + ci] = amp * np.sin(2 * math.pi * freq * t_axis + ph)
                else:
                    noise = rng.normal(0.0, planted.distractor_sigma,
                                       (source.channels, T))
                    if planted.crosstalk_amp > 0.0:
                        freqs = np.array(planted.pooled_freqs())
                        for ci in range(source.channels):
                            f_b = freqs[rng.integers(0, len(freqs), n_blocks)]
                            ph_b = rng.uniform(0.0, 2 * math.pi, n_blocks)
                            noise[ci] += planted.crosstalk_amp * np.sin(
                                2 * math.pi * f_b[block_of] * t_axis + ph_b[block_of])
                    if planted.distractor_offset_sigma > 0.0:
                        noise += rng.normal(0.0, planted.distractor_offset_sigma,
                                            (source.channels, 1))
                    signals[sl] = noise
                model_rng = derive_rng(seed, ai, rep, sl.start)
                signals[sl] = _apply_sensor_model(signals[sl], sensor_models[source.id],
                                                  fs, model_rng)
            labels = np.full(T, activity, dtype=object)
            rec_id = f"rec_{activity}" if recordings_per_activity == 1 else f"rec_{activity}_{rep}"
            recordings.append(Recording(id=rec_id, signals=signals, labels=labels))

    ds = Dataset(deployment=deployment, activities=planted.activities,
                 recordings=recordings)
    ds.frames = segment(ds, window_len, stride_s, gap_max_frac=gap_max_frac)
    return ds


def _resolve_stride(stride, window_len: int) -> int:
    """float in (0,1] is a fraction of the window; int >= 1 is samples (an
    integral float > 1 counts as samples; any other float, and any value
    that is not an int or a float, a bool included, is rejected)."""
    if stride is None:
        return window_len
    if isinstance(stride, float) and 0.0 < stride <= 1.0:
        return max(1, round(stride * window_len))
    if isinstance(stride, bool) or not isinstance(stride, (int, float)) \
            or not float(stride).is_integer():
        raise SensorError(f"stride {stride!r} is neither a fraction in (0, 1] "
                          "nor a whole number of samples")
    stride = int(stride)
    if not (0 < stride <= window_len):
        raise SensorError("stride must satisfy 0 < stride <= window_len")
    return stride


def moving_average(signals: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average per channel (the one preprocessing knob);
    window=1 is the identity. Gap markers (NaN) are zero-filled first."""
    if window < 1:
        raise SensorError("smoothing window must be >= 1")
    if window == 1:
        return signals
    kernel = np.full(window, 1.0 / window)
    filled = np.nan_to_num(signals, nan=0.0)
    return np.stack([np.convolve(ch, kernel, mode="same") for ch in filled])


def _window_counts(mask: np.ndarray, starts: np.ndarray, window_len: int) -> np.ndarray:
    """The number of True entries of a (channels, T) mask in each window
    that begins at one of `starts`."""
    cum = np.concatenate(([0], np.cumsum(mask.sum(axis=0))))
    return cum[starts + window_len] - cum[starts]


def segment(dataset: Dataset, window_len: int, stride: int | float | None = None,
            gap_max_frac: float = 0.1, smooth_window: int = 1) -> list[Frame]:
    """Cut every recording into windows starting at 0, stride, 2*stride, ...

    The frame label is the majority label of its samples (ties resolved to
    the alphabetically first label); majority-null frames keep activity=None.
    Trailing partial windows are dropped. Frames whose dropout-gap fraction
    exceeds gap_max_frac are excluded. smooth_window > 1 applies the
    moving-average preprocessing first (gap fractions are still measured on
    the raw stream).

    A frame's samples are a read-only view into its recording's stream (the
    raw signals, or the one smoothed stream per recording), so overlapping
    frames share their samples; only a window holding a gap or another
    non-finite value gets a copy, with gaps zero-filled.
    """
    stride_s = _resolve_stride(stride, window_len)
    frames: list[Frame] = []
    frame_id = 0
    for rec in dataset.recordings:
        n_channels, T = rec.signals.shape
        if window_len > T:
            raise SensorError(f"window {window_len} longer than recording {rec.id} ({T})")
        stream = moving_average(rec.signals, smooth_window).view()
        stream.flags.writeable = False
        starts = np.arange(0, T - window_len + 1, stride_s)
        n_gap = _window_counts(np.isnan(rec.signals), starts, window_len)
        n_bad = _window_counts(~np.isfinite(stream), starts, window_len)
        names, codes = np.unique(rec.labels.astype(str), return_inverse=True)
        ids = range(frame_id, frame_id + len(starts))
        frame_id += len(starts)
        for fid, start, gaps, bad in zip(ids, starts.tolist(), n_gap.tolist(), n_bad.tolist()):
            gap = gaps / (n_channels * window_len)
            if gap > gap_max_frac:
                continue
            majority = str(names[np.bincount(codes[start:start + window_len]).argmax()])
            samples = stream[:, start:start + window_len]
            if bad:
                samples = np.nan_to_num(samples, nan=0.0)
                samples.flags.writeable = False
            frames.append(Frame(
                frame_id=fid,
                activity=None if majority == NULL_LABEL else majority,
                samples=samples,
                time_index=start,
                recording=rec.id,
                gap_fraction=gap,
            ))
    return frames


def load_frames(path: str | Path, window_len: int, stride: int | float | None = None,
                smooth_window: int = 1) -> Dataset:
    """Ingest a dataset directory and segment it; the frames land in
    ``dataset.frames``."""
    ds = ingest_csv(path)
    ds.frames = segment(ds, window_len, stride, smooth_window=smooth_window)
    return ds


def segment_count(n_samples: int, window_len: int, stride: int) -> int:
    return (n_samples - window_len) // stride + 1


PARTITION_ATTEMPTS = 100


def meta_segment_partition(frames: Sequence[Frame], k: int, meta_len: int,
                           seed: int) -> FoldAssignment:
    """Group adjacent frames (per recording) into runs of meta_len, shuffle
    the runs, and deal them to the least-loaded fold (round-robin whenever
    runs are equal-sized, which keeps fold sizes within +-meta_len of
    balance even with short tail runs). meta_len=1 reproduces plain random
    frame-level partitioning. Runs never span recordings.

    Every non-null activity must fall in at least 2 folds, so that every
    fold's training side holds it. The first shuffle draws from
    derive_rng(seed); a shuffle that misses this is redrawn from
    derive_rng(seed, attempt), up to PARTITION_ATTEMPTS shuffles in all, and
    SensorError names the activity if none succeeds."""
    if k < 2:
        raise SensorError("k must be >= 2")
    if meta_len < 1:
        raise SensorError("meta_len must be >= 1")
    runs: list[list[Frame]] = []
    by_rec: dict[str, list[Frame]] = {}
    for f in frames:
        by_rec.setdefault(f.recording, []).append(f)
    for rec_frames in by_rec.values():
        ordered = sorted(rec_frames, key=lambda f: f.time_index)
        for i in range(0, len(ordered), meta_len):
            runs.append(ordered[i:i + meta_len])
    if len(runs) < k:
        raise SensorError(f"fewer runs than folds ({len(runs)} < {k})")
    for attempt in range(PARTITION_ATTEMPTS):
        order = (derive_rng(seed, attempt) if attempt else derive_rng(seed)).permutation(len(runs))
        loads = [0] * k
        assignment: dict[int, int] = {}
        folds_of: dict[str, set[int]] = {}
        for run_idx in order:
            fold = loads.index(min(loads))
            for f in runs[run_idx]:
                assignment[f.frame_id] = fold
                if not f.is_null:
                    folds_of.setdefault(f.activity, set()).add(fold)
            loads[fold] += len(runs[run_idx])
        thin = sorted(a for a, held in folds_of.items() if len(held) < 2)
        if not thin:
            return FoldAssignment(k=k, meta_len=meta_len, seed=seed, assignment=assignment)
    raise SensorError(f"activity {thin[0]!r} falls in one fold in each of {PARTITION_ATTEMPTS} "
                      f"draws (k={k}, meta_len={meta_len}), so that fold's training side "
                      "would have none of it")


# ---------------------------------------------------------------------------
# on-disk layout: meta.json (the deployment's JSON layout plus activities and
# recordings) + one CSV per position

def deployment_from_json(doc: Mapping) -> Deployment:
    """The deployment `doc` describes; a value of the wrong type raises SensorError."""
    sources = []
    for i, s in enumerate(doc["sources"]):
        s = {"channels": DataSource.channels, **s}
        sources.append(DataSource(*(
            convert_key(f"deployment.sources[{i}].{key}", default, s[key], SensorError)
            for key, default in (("id", ""), ("position", ""), ("modality", ""), ("channels", 1)))))
    rate = convert_key("deployment.sampling_rate", 0.0, doc["sampling_rate"], SensorError)
    return Deployment(sources=tuple(sources), sampling_rate=rate)


def deployment_to_json(dep: Deployment) -> dict:
    return {"sampling_rate": dep.sampling_rate,
            "sources": [{"id": s.id, "position": s.position, "modality": s.modality,
                         "channels": s.channels} for s in dep.sources]}


def position_columns(deployment: Deployment, position: str) -> dict[str, int]:
    """The data columns of `<position>.csv`, each name (`<source id>_c<i>`)
    to its channel row, in deployment order; the label column follows them."""
    return {f"{s.id}_c{ci}": deployment.channel_slice(s.id).start + ci
            for s in deployment.sources if s.position == position
            for ci in range(s.channels)}


def write_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dep = dataset.deployment
    meta = {
        **deployment_to_json(dep),
        "activities": list(dataset.activities),
        "recordings": [{"id": r.id, "n_samples": int(r.signals.shape[1])}
                       for r in dataset.recordings],
    }
    write_json(out / "meta.json", meta)
    for position in dep.positions():
        columns = position_columns(dep, position)
        with atomic_open(out / f"{position}.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*columns, "label"])
            for rec in dataset.recordings:
                values = rec.signals[list(columns.values())].T.tolist()
                writer.writerows(["" if math.isnan(v) else repr(v) for v in row] + [str(label)]
                                 for row, label in zip(values, rec.labels))


def ingest_csv(path: str | Path) -> Dataset:
    """Load a dataset directory (meta.json sidecar + per-position CSVs).

    Columns are matched by name, in any order, against position_columns of
    meta.json's deployment, with `label` last; files align by row index and
    carry the first file's labels. An empty cell is a gap (NaN). A missing,
    unknown or duplicated column, a ragged or short row, a differing label or
    a cell that is not a finite number (`nan`, `inf`, `1e400`, text) raises
    IngestError naming the file, and the line for a bad row or cell.
    """
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise IngestError(f"missing sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    dep = deployment_from_json(meta)
    activities = tuple(meta["activities"])

    signals = labels = first = None
    for position in dep.positions():
        fpath = root / f"{position}.csv"
        if not fpath.exists():
            raise IngestError(f"missing position file {fpath}")
        columns = position_columns(dep, position)
        with open(fpath, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            names = header[:-1]
            if header[-1:] != ["label"] or sorted(names) != sorted(columns):
                raise IngestError(f"{fpath}: columns {header} are not {list(columns)} "
                                  "in some order, each once, then 'label'")
            rows, gaps, file_labels = [], [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise IngestError(f"{fpath}:{lineno}: ragged row "
                                      f"({len(row)} fields, expected {len(header)})")
                file_labels.append(row[-1])
                cells = row[:-1]
                gaps.append(cells.count(""))
                try:
                    rows.append([float(v) if v != "" else math.nan for v in cells])
                except ValueError:
                    raise IngestError(f"{fpath}:{lineno}: a value is not a number") from None
        block = np.array(rows, dtype=float).reshape(len(rows), len(names))
        # a gap is only ever an empty cell: any other NaN, and any infinity,
        # was written as text such as 'nan', 'inf' or '1e400'
        bad = np.isinf(block).any(axis=1) | (np.isnan(block).sum(axis=1) != gaps)
        if bad.any():
            raise IngestError(f"{fpath}:{int(bad.argmax()) + 2}: a value is not finite "
                              "(a gap is an empty cell)")
        if signals is None:
            signals = np.empty((dep.n_channels, len(rows)))
            labels, first = file_labels, fpath
        elif file_labels != labels:
            raise IngestError(f"{fpath}: its {len(rows)} rows are not labelled as the "
                              f"{len(labels)} of {first} (positions align by row index)")
        signals[[columns[name] for name in names]] = block.T
    n_rows = len(labels)

    for lineno, lab in enumerate(labels, start=2):
        if lab not in activities and lab != NULL_LABEL and lab != "":
            raise IngestError(f"unknown label {lab!r} at line {lineno}")
    labels_arr = np.array([lab if lab else NULL_LABEL for lab in labels], dtype=object)

    bounds = []
    offset = 0
    for rec_meta in meta.get("recordings", [{"id": "rec_0", "n_samples": n_rows}]):
        n = int(rec_meta["n_samples"])
        bounds.append((rec_meta["id"], offset, offset + n))
        offset += n
    if offset != n_rows:
        raise IngestError(f"recording lengths sum to {offset}, files have {n_rows} rows")
    recordings = [Recording(id=rid, signals=signals[:, a:b], labels=labels_arr[a:b])
                  for rid, a, b in bounds]
    return Dataset(deployment=dep, activities=activities, recordings=recordings)
