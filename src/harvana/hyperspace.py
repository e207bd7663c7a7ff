"""Hyperparameter search spaces, configurations, and trial records.

A :class:`SearchSpace` is a flat, ordered list of parameters, each tagged
with the data source it governs (or ``"global"``). Every other module works
either on :class:`Configuration` objects (values in their native domain) or
on their unit-cube encoding produced by :func:`to_unit`:

* continuous params map affinely (in log domain for ``prior="log"``),
* integer params map affinely and are rounded back on :func:`from_unit`,
* categorical params map to ``choice_index / (n_choices - 1)``.

Per-source input parameters follow the naming convention ``gain_<source_id>``
with ``source_tag`` set to that source id; all architecture-level parameters
are tagged ``"global"``.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

GLOBAL_TAG = "global"

KINDS = ("continuous", "integer", "categorical")
PRIORS = ("uniform", "log")


class SpaceError(ValueError):
    """Raised for invalid spaces, configurations, or transform inputs."""


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...) tuples."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable, items: Iterable, processes: int) -> Iterator:
    """fn(item) for every item, yielded in item order.

    The items are cut into `processes` contiguous ranges, at most one per
    item. This process computes the first range while a forked child computes
    each of the others; fn reaches the children by fork inheritance and is
    never pickled. Each child pickles back its range's results and the
    exception that cut the range short, if one did. That exception is raised
    here, with its own type, after the results before it were yielded, so a
    failing item leaves exactly the ordered prefix behind. A child that dies
    raises RuntimeError. Every child is killed if need be and reaped before
    this generator finishes or is closed.

    Runs inline for one process, without the `fork` start method, or while
    the process runs other threads: a fork copies only the calling thread,
    and a lock another thread held would stay locked in the child."""
    items = list(items)
    processes = min(processes, len(items))
    if (processes <= 1 or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        yield from map(fn, items)
        return
    cuts = [len(items) * p // processes for p in range(processes + 1)]
    # a child would otherwise write out again what is buffered at the fork
    _flush_stdio()
    children = []  # (pid, the read end of its pipe)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            reader = os.fdopen(r, "rb")  # closed by its collection if the fork fails
            try:
                pid = os.fork()
                if pid == 0:
                    _fork_child(fn, items[lo:hi], reader, w)
                children.append((pid, reader))
            finally:
                os.close(w)
        yield from map(fn, items[:cuts[1]])
        while children:
            pid, fh = children[0]
            with fh:
                blob = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0:
                raise RuntimeError(f"worker process {pid} died "
                                   f"({f'signal {-code}' if code < 0 else f'exit code {code}'})")
            results, error = pickle.loads(blob)
            yield from results
            if error is not None:
                raise error
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_child(fn: Callable, items: list, reader, w: int) -> NoReturn:
    """A fork_map child: compute fn over `items`, stopping at the first
    exception, pickle (results, exception) into the pipe `w` and exit without
    running the parent's exit handlers or flushing its files."""
    code = 1
    try:
        reader.close()
        results, error = [], None
        try:
            for item in items:
                results.append(fn(item))
        except Exception as e:
            error = e
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # an exception that does not round-trip goes as its text
            error = RuntimeError(f"{type(error).__name__}: {error}")
        with os.fdopen(w, "wb") as fh:
            pickle.dump((results, error), fh)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        try:
            _flush_stdio()
        finally:
            os._exit(code)


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None or closed
            pass


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    choices: tuple[str, ...] | None = None
    prior: str = "uniform"
    source_tag: str = GLOBAL_TAG

    def check(self) -> None:
        if self.kind not in KINDS:
            raise SpaceError(f"param {self.name!r}: unknown kind {self.kind!r}")
        if self.prior not in PRIORS:
            raise SpaceError(f"param {self.name!r}: unknown prior {self.prior!r}")
        if self.kind == "categorical":
            if not self.choices or len(self.choices) < 2:
                raise SpaceError(f"param {self.name!r}: categorical needs >= 2 choices")
            if self.lower is not None or self.upper is not None:
                raise SpaceError(f"param {self.name!r}: categorical takes no bounds")
            if len(set(self.choices)) != len(self.choices):
                raise SpaceError(f"param {self.name!r}: duplicate choices")
            return
        if self.lower is None or self.upper is None:
            raise SpaceError(f"param {self.name!r}: missing bounds")
        if not (self.lower < self.upper):
            raise SpaceError(f"param {self.name!r}: inverted bounds ({self.lower}, {self.upper})")
        if self.prior == "log" and self.lower <= 0:
            raise SpaceError(f"param {self.name!r}: log prior requires positive lower bound")

    @property
    def n_choices(self) -> int:
        return len(self.choices) if self.choices else 0


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[ParamSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def dim(self) -> int:
        return len(self.params)

    def __getitem__(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def index(self, name: str) -> int:
        for i, p in enumerate(self.params):
            if p.name == name:
                return i
        raise KeyError(name)

    @property
    def source_map(self) -> dict[str, tuple[str, ...]]:
        """source_tag -> param names; buckets partition the param set."""
        out: dict[str, list[str]] = {}
        for p in self.params:
            out.setdefault(p.source_tag, []).append(p.name)
        return {k: tuple(v) for k, v in out.items()}


def validate_space(space: SearchSpace) -> None:
    """Check every param invariant; raise SpaceError naming the first violation."""
    seen: set[str] = set()
    for p in space.params:
        if p.name in seen:
            raise SpaceError(f"duplicate name {p.name!r}")
        seen.add(p.name)
        p.check()


@dataclass(frozen=True)
class Configuration:
    values: Mapping[str, float | int | str]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, name: str):
        return self.values[name]

    def key(self) -> tuple:
        """Hashable identity, used to count distinct configs."""
        return tuple(sorted(self.values.items()))


def validate_config(space: SearchSpace, config: Configuration) -> None:
    if set(config.values) != set(space.names):
        missing = set(space.names) - set(config.values)
        extra = set(config.values) - set(space.names)
        raise SpaceError(f"config/space mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
    for p in space.params:
        v = config[p.name]
        if p.kind == "categorical":
            if v not in p.choices:
                raise SpaceError(f"param {p.name!r}: {v!r} not in choices")
        else:
            if not (p.lower <= v <= p.upper):
                raise SpaceError(f"param {p.name!r}: {v!r} outside [{p.lower}, {p.upper}]")
            if p.kind == "integer" and round(v) != v:
                raise SpaceError(f"param {p.name!r}: {v!r} is not an integer")


def _to_unit_one(p: ParamSpec, v) -> float:
    if p.kind == "categorical":
        return p.choices.index(v) / (p.n_choices - 1)
    if p.prior == "log":
        return math.log(v / p.lower) / math.log(p.upper / p.lower)
    return (v - p.lower) / (p.upper - p.lower)


def _from_unit_one(p: ParamSpec, u: float):
    u = min(1.0, max(0.0, float(u)))
    if p.kind == "categorical":
        return p.choices[int(round(u * (p.n_choices - 1)))]
    if p.prior == "log":
        v = math.exp(math.log(p.lower) + u * math.log(p.upper / p.lower))
    else:
        v = p.lower + u * (p.upper - p.lower)
    if p.kind == "integer":
        return int(min(p.upper, max(p.lower, round(v))))
    return min(p.upper, max(p.lower, v))


def to_unit(space: SearchSpace, config: Configuration) -> np.ndarray:
    """Encode a configuration as a point in [0,1]^d."""
    validate_config(space, config)
    return np.array([_to_unit_one(p, config[p.name]) for p in space.params], dtype=float)


def from_unit(space: SearchSpace, u: Sequence[float]) -> Configuration:
    """Inverse of :func:`to_unit`; integers/categoricals are snapped."""
    u = np.asarray(u, dtype=float)
    if u.shape != (space.dim,):
        raise SpaceError(f"unit vector has shape {u.shape}, expected ({space.dim},)")
    return Configuration({p.name: _from_unit_one(p, u[i]) for i, p in enumerate(space.params)})


def sample(space: SearchSpace, rng_seed: int | np.random.Generator) -> Configuration:
    """Draw one configuration: each param independently from its prior."""
    validate_space(space)
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(int(rng_seed))
    values = {}
    for p in space.params:
        if p.kind == "categorical":
            values[p.name] = p.choices[int(rng.integers(0, p.n_choices))]
        elif p.kind == "integer" and p.prior == "uniform":
            values[p.name] = int(rng.integers(int(p.lower), int(p.upper) + 1))
        else:
            u = float(rng.uniform())
            values[p.name] = _from_unit_one(p, u)
    return Configuration(values)


GRID_CAP_DEFAULT = 10**6


def _axis_grid(p: ParamSpec, m: int) -> list:
    if p.kind == "categorical":
        return list(p.choices)
    if p.prior == "log":
        # exp(log(upper)) can land one ulp past the bound, which to_unit rejects
        pts = np.clip(np.exp(np.linspace(math.log(p.lower), math.log(p.upper), m)),
                      p.lower, p.upper)
    else:
        pts = np.linspace(p.lower, p.upper, m)
    if p.kind == "integer":
        out: list = []
        for v in pts:
            iv = int(min(p.upper, max(p.lower, round(v))))
            if iv not in out:
                out.append(iv)
        return out
    return [float(v) for v in pts]


def grid(space: SearchSpace, points_per_dim: int, cap: int = GRID_CAP_DEFAULT) -> list[Configuration]:
    """Cartesian product of per-dimension grids, row-major (last dim fastest)."""
    validate_space(space)
    if points_per_dim < 2:
        raise SpaceError("points_per_dim must be >= 2")
    axes = [_axis_grid(p, points_per_dim) for p in space.params]
    total = math.prod(len(a) for a in axes)
    if total > cap:
        raise SpaceError(f"grid size {total} exceeds cap {cap}")
    names = space.names
    return [Configuration(dict(zip(names, combo))) for combo in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# serialization

def convert(default, value):
    """`value` as the type of `default`, the rule for every JSON setting:
    never truncated; a bool, a string or an object only for a default of
    its own type, and never for a number; an int or null for a None default;
    per element for a list (which must not be empty) or a tuple (which must
    be as long as the default). Raises TypeError or ValueError."""
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)) or not value \
                or (isinstance(default, tuple) and len(value) != len(default)):
            raise ValueError(value)
        return type(default)(convert(default[0], v) for v in value)
    if default is None:
        return None if value is None else convert(0, value)
    if isinstance(default, (bool, str, dict)) or isinstance(value, (bool, str, dict)):
        if type(value) is not type(default):
            raise ValueError(value)
        return value
    if type(default) is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return type(default)(value)


def convert_key(key: str, default, value, error: type[Exception]):
    """convert(default, value), or `error` naming `key` if it does not convert."""
    try:
        return convert(default, value)
    except (TypeError, ValueError):
        raise error(f"{key}={value!r} does not convert to the type of its default "
                    f"{default!r}") from None


def space_to_json(space: SearchSpace) -> dict:
    out = []
    for p in space.params:
        d = {"name": p.name, "kind": p.kind, "prior": p.prior, "source_tag": p.source_tag}
        if p.kind == "categorical":
            d["choices"] = list(p.choices)
        else:
            d["lower"] = p.lower
            d["upper"] = p.upper
        out.append(d)
    return {"params": out}


def space_from_json(doc: Mapping) -> SearchSpace:
    params = []
    for d in doc["params"]:
        params.append(ParamSpec(
            name=d["name"],
            kind=d["kind"],
            lower=d.get("lower"),
            upper=d.get("upper"),
            choices=tuple(d["choices"]) if d.get("choices") else None,
            prior=d.get("prior", "uniform"),
            source_tag=d.get("source_tag", GLOBAL_TAG),
        ))
    return SearchSpace(params=tuple(params))


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """Open a sibling `<name>.partial` for writing and rename it to `path`
    when the block exits cleanly; a block that raises leaves the partial and
    `path` as they were. Every file the pipeline writes goes through here,
    so a file under its final name is complete."""
    partial = f"{path}.partial"
    with open(partial, "w", newline=newline) as fh:
        yield fh
    os.replace(partial, path)


def write_text(path: str | Path, text: str) -> None:
    """`text` as the file `path`, written through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path: str | Path, doc: Mapping, provenance: Mapping | None = None) -> None:
    """A JSON artifact, written by write_text: indented, key-sorted,
    newline-terminated, with `provenance` (if given) under "provenance"."""
    if provenance is not None:
        doc = {**doc, "provenance": provenance}
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_space(space: SearchSpace, path: str | Path) -> None:
    write_json(path, space_to_json(space))


def load_space(path: str | Path) -> SearchSpace:
    return space_from_json(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Trial:
    trial_id: int
    config: Configuration
    budget: float
    nu: float
    per_activity_nu: Mapping[str, float]
    f1: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "per_activity_nu", dict(self.per_activity_nu))
        for label, v in [("nu", self.nu), ("f1", self.f1), *self.per_activity_nu.items()]:
            if not (0.0 <= v <= 1.0):
                raise SpaceError(f"trial {self.trial_id}: {label}={v} outside [0,1]")
        if self.budget <= 0:
            raise SpaceError(f"trial {self.trial_id}: budget must be positive")

    def to_json(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "config": dict(self.config.values),
            "budget": self.budget,
            "nu": self.nu,
            "per_activity_nu": dict(self.per_activity_nu),
            "f1": self.f1,
            "seed": self.seed,
        }


def trial_from_json(doc: Mapping) -> Trial:
    return Trial(
        trial_id=int(doc["trial_id"]),
        config=Configuration(doc["config"]),
        budget=float(doc["budget"]),
        nu=float(doc["nu"]),
        per_activity_nu={k: float(v) for k, v in doc["per_activity_nu"].items()},
        f1=float(doc["f1"]),
        seed=int(doc["seed"]),
    )


def trial_to_line(trial: Trial) -> str:
    return json.dumps(trial.to_json(), sort_keys=True)


def write_trials(trials: Iterable[Trial], path: str | Path) -> None:
    with atomic_open(path) as fh:
        for t in trials:
            fh.write(trial_to_line(t) + "\n")


def read_trials(path: str | Path) -> list[Trial]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(trial_from_json(json.loads(line)))
    return out


def table1_space() -> SearchSpace:
    """The 8-parameter convolutional tuning space used in the docs and tests
    (all architecture-level, hence tagged global)."""
    return SearchSpace(params=(
        ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),
        ParamSpec("ks1", "integer", 9, 15),
        ParamSpec("ks2", "integer", 9, 15),
        ParamSpec("ks3", "integer", 9, 12),
        ParamSpec("n_f", "integer", 16, 28),
        ParamSpec("s", "continuous", 0.5, 0.6, prior="log"),
        ParamSpec("p_d", "continuous", 0.1, 0.5, prior="log"),
        ParamSpec("n_u", "integer", 64, 2048),
    ))
