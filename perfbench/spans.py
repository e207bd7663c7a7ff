"""Span recorder that wraps harvana's public functions at run time.

No program source changes: :meth:`Recorder.install` replaces each target
function, by module attribute, in every ``harvana`` module namespace (and in
``pipeline.STAGES``) that refers to it; :meth:`Recorder.uninstall` puts the
originals back. A span records its name, start, end, parent span, the type
of exception it raised (if any) and an optional ``info`` value computed from
the call's bound arguments and result. Spans stay in memory until
:meth:`Recorder.write` runs at the end of the benchmark.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

MODULES = ("sensors", "hyperspace", "explorer", "learner", "forest", "fanova",
           "dgp", "report", "pipeline")

# class methods wrapped besides the modules' public functions
METHODS = ("learner.Network.features", "learner.Network.logits",
           "learner.Network.loss_and_grads", "learner.Network.sgd_step",
           "learner.Network.predict_proba", "pipeline.LearnerEvaluator.__call__")

# the boundaries every run records, traced or not: they give trial times,
# learner throughput and divergence counts for microseconds per call
PROBES = ("explorer.run", "learner.train", "pipeline.LearnerEvaluator.__call__")

NAME, START, END, PARENT, ERROR, INFO = range(6)

Info = Callable[[inspect.BoundArguments, object], object]


def _module(short: str):
    return sys.modules[f"harvana.{short}"]


def resolve(target: str):
    """'module.func' or 'module.Class.method' -> (owner, attribute name)."""
    mod, _, rest = target.partition(".")
    owner = _module(mod)
    *classes, attr = rest.split(".")
    for c in classes:
        owner = getattr(owner, c)
    return owner, attr


def public_targets() -> list[str]:
    """Every public function defined in a harvana module, plus METHODS."""
    out = list(METHODS)
    for short in MODULES:
        mod = _module(short)
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append(f"{short}.{name}")
    return sorted(out)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Recorder("span-cost")._wrapper("noop", noop, None)
    times = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / calls


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrapper(self, name: str, fn, info: Info | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self, targets: Iterable[str], info: dict[str, Info] | None = None) -> None:
        for target in targets:
            self.install_on(target, *resolve(target), (info or {}).get(target))

    def install_on(self, name: str, owner, attr: str, info: Info | None = None) -> None:
        original = vars(owner)[attr]
        wrapped = self._wrapper(name, original, info)
        if inspect.isclass(owner):
            self._patch(owner, attr, wrapped)
            return
        # a module function: patch every harvana namespace that imported it
        for short in MODULES:
            ns = _module(short)
            for key, obj in list(vars(ns).items()):
                if obj is original:
                    self._patch(ns, key, wrapped)
        stages = _module("pipeline").STAGES
        for i, entry in enumerate(stages):
            if entry[1] is original:
                stages[i] = (entry[0], wrapped)
                self._undo.append(functools.partial(stages.__setitem__, i, entry))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: run id, name, start, end, parent, self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START] - t0, "end": s[END] - t0, "self": own,
                    "error": s[ERROR]}) + "\n")
