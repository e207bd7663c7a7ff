import multiprocessing
import os

import numpy as np
import pytest

from harvana.hyperspace import Configuration, ParamSpec, SearchSpace, Trial, to_unit

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def unit_space_2d():
    return SearchSpace(params=(
        ParamSpec("x0", "continuous", 0.0, 1.0),
        ParamSpec("x1", "continuous", 0.0, 1.0),
    ))


def unit_space(d: int) -> SearchSpace:
    return SearchSpace(params=tuple(
        ParamSpec(f"x{i}", "continuous", 0.0, 1.0) for i in range(d)))


def make_trial(config: Configuration, nu: float, trial_id: int = 0,
               budget: float = 1.0, f1: float | None = None,
               per_activity: dict | None = None, seed: int = 0) -> Trial:
    return Trial(trial_id=trial_id, config=config, budget=budget, nu=nu,
                 per_activity_nu=per_activity or {},
                 f1=(1.0 - nu) if f1 is None else f1, seed=seed)


def sphere_evaluator(space, target):
    """Planted separable objective nu(x) = min(1, sum((x_i - a_i)^2))."""
    target = np.asarray(target, dtype=float)

    def evaluate(config, budget, seed):
        u = to_unit(space, config)
        nu = min(1.0, float(((u - target) ** 2).sum()))
        return make_trial(config, nu, trial_id=-1, budget=budget, seed=seed)

    return evaluate


def trials_from_function(space, fn, n, seed=0):
    """Random configs evaluated with a synthetic nu = fn(unit vector)."""
    from harvana.hyperspace import sample
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        config = sample(space, rng)
        u = to_unit(space, config)
        out.append(make_trial(config, float(np.clip(fn(u), 0.0, 1.0)), trial_id=i))
    return out


def assert_no_children() -> None:
    """No child process is left running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
