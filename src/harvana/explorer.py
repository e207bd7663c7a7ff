"""Exploration strategies over a search space and the budgeted run loop.

Three families: exhaustive (random, grid), heuristic (evolution, anneal,
hyperband), and sequential model-based (bohb, tpe, gp). All strategies
minimize the overall validation loss nu; f1 is recorded but never optimized.
`run` is a pure function of (space, strategy, evaluator, budget, seed): two
runs with the same arguments produce byte-identical trial logs.

Random and grid fix their configs up front. With `workers > 1` their trials
run on forked processes (hyperspace.fork_map): this one and each child take
a contiguous range of trial ids, every child holds the evaluator once by
fork inheritance, and the results are logged in id order, so the log does
not depend on `workers`. Processes, not threads: the learner's many small
numpy calls hold the GIL, and a thread pool was no faster than one thread.

A run keeps its trials in one History, shared by every proposal rule (one
per rung resource for hyperband and BOHB). It encodes each trial to the unit
cube the first time a proposal reads its rows, and grows the rows' squared
distances, bit-identical to a full rebuild, one row per trial when a GP
reads them; a bare list given to a proposal is wrapped in a fresh History.
The GP's linear algebra stays on one BLAS library: numpy and scipy each load
their own OpenBLAS with its own thread pool, so every LAPACK call is scipy's
and the numpy work between them avoids BLAS GEMMs (the pool cross term is an
einsum), or numpy's still-spinning threads compete with scipy's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Protocol

import numpy as np
from scipy.special import ndtr
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .hyperspace import (
    Configuration,
    SearchSpace,
    Trial,
    atomic_open,
    convert_key,
    derive_rng,
    fork_map,
    from_unit,
    grid,
    sample,
    to_unit,
    trial_to_line,
    validate_space,
)

STRATEGY_KINDS = ("random", "grid", "evolution", "anneal", "hyperband", "bohb", "tpe", "gp")

DEFAULTS: dict[str, dict] = {
    "random": {},
    "grid": {"points_per_dim": None},  # None: smallest m with m^d >= budget
    "evolution": {"population_size": 20},
    "anneal": {"p0": 0.5, "p_min": 0.05, "sigma0": 0.2, "decay": 0.97},
    "hyperband": {"R": 27, "eta": 3},
    "bohb": {"R": 27, "eta": 3, "gamma": 0.25, "n_candidates": 24, "n_min": None},
    "tpe": {"gamma": 0.25, "n_candidates": 24, "n_startup": 10},
    "gp": {"n_pool": 500, "length_scale": 0.2, "jitter": 1e-8, "max_jitter": 1e-4, "n_startup": 2},
}


class StrategyError(ValueError):
    pass


class ConditioningError(RuntimeError):
    """GP kernel matrix not positive definite after max jitter escalation."""


@dataclass(frozen=True)
class Strategy:
    kind: str
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise StrategyError(f"unknown strategy {self.kind!r}")
        defaults = DEFAULTS[self.kind]
        unknown = sorted(set(self.settings) - set(defaults))
        if unknown:
            raise StrategyError(f"unknown {self.kind} settings {unknown}")
        s = dict(defaults)
        for key, value in self.settings.items():
            s[key] = convert_key(f"{self.kind} setting {key}", defaults[key], value, StrategyError)
        object.__setattr__(self, "settings", s)
        if self.kind in ("hyperband", "bohb") and (s["eta"] < 2 or s["R"] < s["eta"]):
            raise StrategyError("hyperband requires R >= eta >= 2")
        if self.kind in ("tpe", "bohb") and not (0.0 < s["gamma"] < 1.0):
            raise StrategyError("TPE gamma must lie in (0,1)")
        if self.kind == "anneal" and not (0.0 < s["decay"] <= 1.0):
            raise StrategyError("anneal decay must lie in (0,1]")
        for key in ("n_candidates", "n_pool", "population_size"):
            if key in s and s[key] < 1:
                raise StrategyError(f"{self.kind} setting {key} must be >= 1")


class Evaluator(Protocol):
    """Deterministic (config, budget, seed) -> Trial callable."""

    def __call__(self, config: Configuration, budget: float, seed: int) -> Trial: ...


@dataclass(frozen=True)
class Bracket:
    s: int
    rungs: tuple[tuple[int, float], ...]  # (n_configs, resource)


def hyperband_schedule(R: float, eta: int) -> list[Bracket]:
    """Successive-halving brackets s_max..0 for max resource R and factor eta."""
    if eta < 2:
        raise StrategyError("eta must be >= 2")
    if R < eta:
        raise StrategyError("R must be >= eta")
    s_max = int(math.floor(math.log(R) / math.log(eta) + 1e-12))
    brackets = []
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) / (s + 1) * eta ** s)
        rungs = []
        i = 0
        while True:
            r = (R * eta ** i) / (eta ** s)  # exact for integer R, eta
            rungs.append((max(1, n), r))
            if r >= R:
                break
            n = n // eta
            i += 1
        brackets.append(Bracket(s=s, rungs=tuple(rungs)))
    return brackets


# ---------------------------------------------------------------------------
# proposal rules

class History(Sequence):
    """A run's trials, append-only. `rows()` encodes each trial with to_unit
    the first time it is read; `sq()` adds one row of squared distances per
    new trial, `((x - X) ** 2).sum(axis=1)`, the same contiguous reduction as
    the full `(X[:, None] - X[None]) ** 2` broadcast, so it is bit-identical
    to a fresh build."""

    def __init__(self, space: SearchSpace, trials: Sequence[Trial] = ()):
        self.space = space
        self.trials = list(trials)
        self._rows = np.empty((0, space.dim))
        self._sq = np.empty((0, 0))

    def __len__(self) -> int:
        return len(self.trials)

    def __getitem__(self, i):
        return self.trials[i]

    def append(self, trial: Trial) -> None:
        self.trials.append(trial)

    def rows(self) -> np.ndarray:
        new = self.trials[len(self._rows):]
        if new:
            self._rows = np.vstack([self._rows] + [to_unit(self.space, t.config) for t in new])
        return self._rows

    def sq(self) -> np.ndarray:
        X = self.rows()
        for i in range(len(self._sq), len(X)):
            row = ((X[i] - X[:i + 1]) ** 2).sum(axis=1)
            self._sq = np.block([[self._sq, row[:-1, None]], [row]])
        return self._sq


def _as_history(history: Sequence[Trial], space: SearchSpace) -> History:
    return history if isinstance(history, History) else History(space, history)


def tpe_propose(history: Sequence[Trial], space: SearchSpace, gamma: float,
                n_candidates: int, rng: np.random.Generator,
                n_startup: int = 10) -> Configuration:
    """Density-ratio proposal: split history at the gamma-quantile of nu,
    draw candidates from the good-set KDE, return the best l(x)/g(x)."""
    n = len(history)
    if n < max(2, n_startup):
        return sample(space, rng)
    history = _as_history(history, space)
    X, y = history.rows(), np.array([t.nu for t in history])
    order = np.argsort(y, kind="stable")
    n_good = min(tpe_good_count(n, gamma), n - 1)
    good, bad = X[order[:n_good]], X[order[n_good:]]

    d = space.dim
    cat = [p.kind == "categorical" for p in space.params]
    sizes = [p.n_choices for p in space.params]

    def bandwidths(vals: np.ndarray) -> np.ndarray:
        # one contiguous row per dim: each std is the per-column reduction
        std = np.ascontiguousarray(vals.T).std(axis=1)
        return np.maximum(0.05, 1.06 * std * len(vals) ** -0.2)

    def cat_probs(vals: np.ndarray, k: int) -> np.ndarray:
        idx = np.rint(vals * (k - 1)).astype(int)
        counts = np.bincount(idx, minlength=k).astype(float)
        return (counts + 1.0) / (len(vals) + k)

    bw_good, bw_bad = bandwidths(good), bandwidths(bad)
    pg = [cat_probs(good[:, j], sizes[j]) if cat[j] else None for j in range(d)]
    pb = [cat_probs(bad[:, j], sizes[j]) if cat[j] else None for j in range(d)]

    def kde_logpdf(pts: np.ndarray, centers: np.ndarray, bw: np.ndarray) -> np.ndarray:
        """Per-dim log KDE of `pts` (n_cand, d) about `centers` (n, d), one
        bandwidth per dim; returns (d, n_cand)."""
        z = (pts.T[:, :, None] - centers.T[:, None, :]) / bw[:, None, None]
        dens = np.exp(-0.5 * z * z).mean(axis=2) / (bw[:, None] * math.sqrt(2 * math.pi))
        return np.log(np.maximum(dens, 1e-300))

    # draw candidates from the good-set model
    cand = np.empty((n_candidates, d))
    for j in range(d):
        if cat[j]:
            idx = rng.choice(sizes[j], size=n_candidates, p=pg[j])
            cand[:, j] = idx / (sizes[j] - 1)
        else:
            centers = good[rng.integers(0, len(good), n_candidates), j]
            cand[:, j] = np.clip(centers + rng.normal(0.0, bw_good[j], n_candidates), 0.0, 1.0)

    # every dim in one pass; the categorical rows are not read
    log_l = kde_logpdf(cand, good, bw_good)
    log_g = kde_logpdf(cand, bad, bw_bad)
    score = np.zeros(n_candidates)
    for j in range(d):
        if cat[j]:
            idx = np.rint(cand[:, j] * (sizes[j] - 1)).astype(int)
            score += np.log(pg[j][idx]) - np.log(pb[j][idx])
        else:
            score += log_l[j]
            score -= log_g[j]
    return from_unit(space, cand[int(np.argmax(score))])


def expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization; zero wherever predicted sigma is zero."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    imp = best - mu
    out = np.zeros_like(mu)
    pos = sigma > 0.0
    z = imp[pos] / sigma[pos]
    out[pos] = imp[pos] * ndtr(z) + sigma[pos] * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return np.maximum(out, 0.0)


def _pool_sq_dists(pool: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared distances of every pool row to every history row as
    |p|^2 + |x|^2 - 2 p.x, clamped at 0. The cross term is an einsum, not
    `@`: a numpy GEMM leaves numpy's BLAS threads spinning into scipy's
    LAPACK calls, and the two libraries' thread pools then fight for the
    same CPUs."""
    pp = np.einsum("ij,ij->i", pool, pool)
    xx = np.einsum("ij,ij->i", X, X)
    return np.maximum(pp[:, None] + xx[None, :] - 2.0 * np.einsum("ij,kj->ik", pool, X), 0.0)


def gp_propose(history: Sequence[Trial], space: SearchSpace, rng: np.random.Generator,
               length_scale: float = 0.2, n_pool: int = 500,
               jitter: float = 1e-8, max_jitter: float = 1e-4,
               n_startup: int = 2) -> Configuration:
    """GP regression on (unit vector -> nu) with an SE kernel; proposes the
    pool candidate maximizing expected improvement over the incumbent.

    It starts once the history holds `max(2, n_startup)` distinct configs.
    The predictive variance comes from one triangular solve (Rasmussen &
    Williams, 2006, Alg. 2.1); every LAPACK call is scipy's."""
    distinct = set()
    for t in history:  # stops at the first max(2, n_startup) distinct configs
        distinct.add(t.config.key())
        if len(distinct) >= max(2, n_startup):
            break
    else:
        return sample(space, rng)
    history = _as_history(history, space)
    X, y = history.rows(), np.array([t.nu for t in history])
    y_mean, y_std = float(y.mean()), float(y.std())
    ys = (y - y_mean) / y_std if y_std > 0 else y - y_mean

    K = np.exp(-0.5 * history.sq() / length_scale ** 2)
    eps = jitter
    while True:
        try:
            chol = cho_factor(K + eps * np.eye(len(X)), lower=True)
            break
        except np.linalg.LinAlgError:
            eps *= 10.0
            if eps > max_jitter:
                raise ConditioningError(
                    f"kernel matrix not positive definite at jitter {max_jitter}")
    alpha = cho_solve(chol, ys)

    pool = rng.uniform(size=(n_pool, space.dim))
    Ks = np.exp(-0.5 * _pool_sq_dists(pool, X) / length_scale ** 2)
    mu = Ks @ alpha
    v = solve_triangular(chol[0], Ks.T, lower=True)
    var = np.maximum(1.0 - np.einsum("ij,ij->j", v, v), 0.0)
    ei = expected_improvement(mu, np.sqrt(var), best=float(ys.min()))
    return from_unit(space, pool[int(np.argmax(ei))])


def anneal_propose(history: Sequence[Trial], space: SearchSpace,
                   rng: np.random.Generator, t: int,
                   p0: float = 0.5, p_min: float = 0.05,
                   sigma0: float = 0.2, decay: float = 0.97) -> Configuration:
    """Prior sample with probability max(p_min, p0*decay^t), otherwise a
    Gaussian perturbation of the incumbent with scale sigma0*decay^t."""
    if not history:
        return sample(space, rng)
    p_prior = max(p_min, p0 * decay ** t)
    if rng.uniform() < p_prior:
        return sample(space, rng)
    best = min(range(len(history)), key=lambda i: (history[i].nu, history[i].trial_id))
    u = _as_history(history, space).rows()[best]
    sigma = sigma0 * decay ** t
    return from_unit(space, np.clip(u + rng.normal(0.0, sigma, space.dim), 0.0, 1.0))


def evolution_propose(history: Sequence[Trial], space: SearchSpace,
                      rng: np.random.Generator, population_size: int = 20) -> Configuration:
    """Uniform parent from the population of best trials; one uniformly chosen
    dimension resampled from its prior (guaranteed to differ from the parent)."""
    if not history:
        return sample(space, rng)
    pop = sorted(history, key=lambda t: (t.nu, t.trial_id))[:population_size]
    parent = pop[int(rng.integers(0, len(pop)))]
    dim = int(rng.integers(0, space.dim))
    p = space.params[dim]
    values = dict(parent.config.values)
    current = values[p.name]
    for _ in range(1000):
        fresh = sample(space, rng)[p.name]
        if fresh != current:
            values[p.name] = fresh
            break
    else:  # single-choice degenerate dim cannot differ
        values[p.name] = current
    return Configuration(values)


# ---------------------------------------------------------------------------
# run loop

def run(space: SearchSpace, strategy: Strategy, evaluator: Evaluator,
        budget_B: int, seed: int, out_path: str | Path | None = None,
        full_budget: float = 1.0, workers: int = 1) -> list[Trial]:
    """Execute a strategy for budget_B evaluator calls; returns the trial log.

    Non-multi-fidelity strategies evaluate at `full_budget` and return exactly
    budget_B trials; hyperband/bohb record every rung evaluation with its rung
    resource in Trial.budget. Each trial is flushed to `<out_path>.partial`
    as it is recorded, renamed to `out_path` when the run completes
    (hyperspace.atomic_open); an evaluator exception aborts the run with the
    ordered prefix in the partial and no `out_path`. Batch strategies (random,
    grid) evaluate on `workers` processes, this one included, each taking a
    contiguous range of trials (hyperspace.fork_map); trials are merged in id
    order, so the log is byte-identical for any number of workers. Sequential
    strategies ignore workers (their proposals depend on every previous
    result), but it must still be >= 1.
    """
    validate_space(space)
    if budget_B < 1:
        raise StrategyError("budget_B must be >= 1")
    if workers < 1:
        raise StrategyError(f"workers must be >= 1, got {workers}")
    trials: list[Trial] = []
    with atomic_open(out_path) if out_path is not None else nullcontext() as log:
        def record(trial: Trial) -> Trial:
            trial = replace(trial, trial_id=len(trials))
            trials.append(trial)
            if log is not None:
                print(trial_to_line(trial), file=log, flush=True)
            return trial

        def evaluate(config: Configuration, budget: float) -> Trial:
            return record(evaluator(config, budget, _trial_seed(seed, len(trials))))

        if strategy.kind in ("hyperband", "bohb"):
            _run_multifidelity(space, strategy, evaluate, budget_B, seed)
        elif strategy.kind in ("random", "grid"):
            configs = _batch_configs(space, strategy, budget_B, seed)
            calls = [(c, full_budget, _trial_seed(seed, i)) for i, c in enumerate(configs)]
            # results come back in id order, so a failure leaves the ordered
            # prefix logged
            for trial in fork_map(lambda call: evaluator(*call), calls, workers):
                record(trial)
        else:
            _run_sequential(space, strategy, evaluate, budget_B, seed, full_budget)
    return trials


def _batch_configs(space, strategy, budget_B, seed) -> list[Configuration]:
    if strategy.kind == "random":
        return [sample(space, proposal_rng(seed, t)) for t in range(budget_B)]
    return _grid_configs(space, strategy, budget_B)


def _trial_seed(seed: int, trial_id: int) -> int:
    return int(derive_rng(seed, 1, trial_id).integers(0, 2 ** 31 - 1))


def proposal_rng(seed: int, t: int) -> np.random.Generator:
    """The per-trial proposal generator run() hands to each strategy."""
    return derive_rng(seed, 0, t)


def tpe_good_count(n: int, gamma: float) -> int:
    """Size of the good set: the gamma-quantile split, ceil(gamma * n)."""
    return math.ceil(gamma * n)


def _grid_configs(space, strategy, budget_B) -> list[Configuration]:
    ppd = strategy.settings["points_per_dim"]
    if ppd is None:
        ppd = 2
        while len(grid(space, ppd)) < budget_B and ppd <= budget_B:
            ppd += 1
    configs = grid(space, ppd)
    if len(configs) < budget_B:
        raise StrategyError(
            f"grid of {len(configs)} configs cannot fill budget {budget_B}")
    return configs[:budget_B]


def _run_sequential(space, strategy, evaluate, budget_B, seed, full_budget):
    s = strategy.settings
    history = History(space)
    for t in range(budget_B):
        rng = proposal_rng(seed, t)
        if strategy.kind == "tpe":
            config = tpe_propose(history, space, s["gamma"], s["n_candidates"],
                                 rng, n_startup=s["n_startup"])
        elif strategy.kind == "gp":
            config = gp_propose(history, space, rng, length_scale=s["length_scale"],
                                n_pool=s["n_pool"], jitter=s["jitter"],
                                max_jitter=s["max_jitter"], n_startup=s["n_startup"])
        elif strategy.kind == "anneal":
            config = anneal_propose(history, space, rng, t, p0=s["p0"],
                                    p_min=s["p_min"], sigma0=s["sigma0"], decay=s["decay"])
        elif strategy.kind == "evolution":
            config = evolution_propose(history, space, rng, population_size=s["population_size"])
        else:  # pragma: no cover
            raise StrategyError(strategy.kind)
        history.append(evaluate(config, full_budget))


def _run_multifidelity(space, strategy, evaluate, budget_B, seed):
    s = strategy.settings
    schedule = hyperband_schedule(s["R"], s["eta"])
    n_min = s.get("n_min")
    if n_min is None:
        n_min = space.dim + 1
    by_resource: dict[float, History] = {}
    calls = 0
    sweep = 0
    while calls < budget_B:
        for bracket in schedule:
            if calls >= budget_B:
                return
            survivors: list[tuple[Configuration, float]] | None = None
            for rung_idx, (n_i, r_i) in enumerate(bracket.rungs):
                if rung_idx == 0:
                    configs = [
                        _propose_mf(strategy, space, by_resource, n_min,
                                    derive_rng(seed, 2, sweep, bracket.s, c), s)
                        for c in range(n_i)
                    ]
                else:
                    configs = [c for c, _ in survivors[:n_i]]
                results = []
                for config in configs:
                    if calls >= budget_B:
                        return
                    trial = evaluate(config, r_i)
                    by_resource.setdefault(r_i, History(space)).append(trial)
                    results.append((config, trial.nu))
                    calls += 1
                results.sort(key=lambda cn: cn[1])
                keep = max(1, len(results) // s["eta"])
                survivors = results[:keep]
        sweep += 1


def _propose_mf(strategy, space, by_resource, n_min, rng, settings):
    if strategy.kind == "hyperband":
        return sample(space, rng)
    # BOHB: TPE fitted on the highest-budget rung with enough observations
    for r in sorted(by_resource, reverse=True):
        if len(by_resource[r]) >= n_min:
            return tpe_propose(by_resource[r], space, settings["gamma"],
                               settings["n_candidates"], rng, n_startup=n_min)
    return sample(space, rng)
