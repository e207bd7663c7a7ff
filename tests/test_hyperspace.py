import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harvana.hyperspace import (
    Configuration,
    ParamSpec,
    SearchSpace,
    SpaceError,
    Trial,
    convert,
    fork_map,
    from_unit,
    grid,
    read_trials,
    sample,
    save_space,
    load_space,
    space_from_json,
    space_to_json,
    table1_space,
    to_unit,
    validate_space,
    write_trials,
)

from conftest import assert_no_children

MIXED = SearchSpace(params=(
    ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),
    ParamSpec("width", "integer", 16, 28),
    ParamSpec("mode", "categorical", choices=("a", "b", "c")),
    ParamSpec("frac", "continuous", 0.0, 1.0),
))


def test_table1_space_is_valid():
    space = table1_space()
    validate_space(space)
    assert space.dim == 8
    assert space["lr"].prior == "log"
    assert space["s"].lower == 0.5 and space["s"].upper == 0.6


def test_inverted_bounds_rejected():
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 0.1, 0.001),))
    with pytest.raises(SpaceError, match="inverted bounds"):
        validate_space(space)


def test_log_prior_requires_positive_lower():
    space = SearchSpace(params=(ParamSpec("p_d", "continuous", 0.0, 0.5, prior="log"),))
    with pytest.raises(SpaceError, match="log prior requires positive lower"):
        validate_space(space)


def test_duplicate_names_rejected():
    space = SearchSpace(params=(
        ParamSpec("a", "continuous", 0.0, 1.0),
        ParamSpec("a", "continuous", 0.0, 2.0),
    ))
    with pytest.raises(SpaceError, match="duplicate name"):
        validate_space(space)


def test_categorical_needs_two_choices():
    with pytest.raises(SpaceError, match="categorical"):
        validate_space(SearchSpace(params=(ParamSpec("m", "categorical", choices=("x",)),)))


def test_to_unit_log_bounds_and_midpoint():
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),))
    assert to_unit(space, Configuration({"lr": 0.001}))[0] == 0.0
    # analytic oracle: log(0.01/0.001) / log(0.1/0.001)
    expected = math.log(0.01 / 0.001) / math.log(0.1 / 0.001)
    got = to_unit(space, Configuration({"lr": 0.01}))[0]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_categorical_last_choice_maps_to_one():
    space = SearchSpace(params=(ParamSpec("m", "categorical", choices=("a", "b", "c")),))
    assert to_unit(space, Configuration({"m": "c"}))[0] == 1.0


def test_round_trip_sampled_configs():
    for seed in range(200):
        c = sample(MIXED, seed)
        c2 = from_unit(MIXED, to_unit(MIXED, c))
        assert c2["width"] == c["width"]
        assert c2["mode"] == c["mode"]
        assert c2["lr"] == pytest.approx(c["lr"], rel=1e-12)
        assert c2["frac"] == pytest.approx(c["frac"], rel=1e-12)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_sample_respects_bounds(seed):
    c = sample(MIXED, seed)
    assert 0.001 <= c["lr"] <= 0.1
    assert 16 <= c["width"] <= 28 and isinstance(c["width"], int)
    assert c["mode"] in ("a", "b", "c")
    assert 0.0 <= c["frac"] <= 1.0


def test_sample_deterministic():
    assert sample(MIXED, 1234).values == sample(MIXED, 1234).values


def test_sample_bounds_hold_over_1e5_draws():
    rng = np.random.default_rng(99)
    for _ in range(100_000):
        c = sample(MIXED, rng)
        assert 0.001 <= c.values["lr"] <= 0.1
        assert 16 <= c.values["width"] <= 28
        assert c.values["mode"] in ("a", "b", "c")
        assert 0.0 <= c.values["frac"] <= 1.0


def test_log_uniform_median():
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),))
    rng = np.random.default_rng(7)
    draws = np.array([sample(space, rng)["lr"] for _ in range(10_000)])
    # analytic median of log-uniform(1e-3, 1e-1) is 1e-2; the band [0.008, 0.0125]
    # holds except with binomial tail probability << 1e-6
    assert 0.008 <= np.median(draws) <= 0.0125


def test_integer_sampling_covers_range():
    space = SearchSpace(params=(ParamSpec("n_f", "integer", 16, 28),))
    rng = np.random.default_rng(3)
    seen = {sample(space, rng)["n_f"] for _ in range(10_000)}
    assert seen == set(range(16, 29))


def test_grid_cartesian_count(unit_space_2d):
    assert len(grid(unit_space_2d, 3)) == 9


def test_grid_log_axis():
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),))
    values = [c["lr"] for c in grid(space, 3)]
    assert values == pytest.approx([0.001, 0.01, 0.1], rel=1e-9)


@pytest.mark.parametrize("m", range(2, 12))
def test_grid_log_axis_stays_inside_its_bounds(m):
    # exp(log(0.1)) is 0.10000000000000002: the axis must not end past upper
    space = SearchSpace(params=(ParamSpec("lr", "continuous", 1e-4, 1e-1, prior="log"),))
    configs = grid(space, m)
    for c in configs:
        to_unit(space, c)
    assert configs[-1]["lr"] == 1e-1


def test_grid_integer_dedup():
    space = SearchSpace(params=(ParamSpec("k", "integer", 9, 12),))
    values = [c["k"] for c in grid(space, 10)]
    assert values == [9, 10, 11, 12]


def test_grid_cap():
    space = SearchSpace(params=tuple(
        ParamSpec(f"x{i}", "continuous", 0.0, 1.0) for i in range(8)))
    with pytest.raises(SpaceError, match="cap"):
        grid(space, 10, cap=10**6)


def test_source_map_partitions_params():
    space = SearchSpace(params=(
        ParamSpec("lr", "continuous", 0.001, 0.1, prior="log"),
        ParamSpec("gain_hips_acc", "continuous", 0.0, 1.0, source_tag="hips_acc"),
        ParamSpec("gain_hand_gyr", "continuous", 0.0, 1.0, source_tag="hand_gyr"),
    ))
    sm = space.source_map
    all_names = [n for bucket in sm.values() for n in bucket]
    assert sorted(all_names) == sorted(space.names)
    assert len(all_names) == len(set(all_names))
    assert sm["global"] == ("lr",)


def test_space_json_round_trip(tmp_path):
    space = table1_space()
    save_space(space, tmp_path / "space.json")
    assert load_space(tmp_path / "space.json") == space
    assert space_from_json(space_to_json(MIXED)) == MIXED


def test_trial_bounds_enforced():
    c = Configuration({"lr": 0.01})
    with pytest.raises(SpaceError, match="outside"):
        Trial(trial_id=0, config=c, budget=1.0, nu=1.5, per_activity_nu={}, f1=0.5, seed=0)
    with pytest.raises(SpaceError, match="budget"):
        Trial(trial_id=0, config=c, budget=0.0, nu=0.5, per_activity_nu={}, f1=0.5, seed=0)


def test_trial_jsonl_round_trip(tmp_path):
    trials = [
        Trial(trial_id=i, config=Configuration({"lr": 0.01 * (i + 1)}), budget=3.0,
              nu=0.1 * i, per_activity_nu={"walk": 0.2, "run": 0.3}, f1=0.9 - 0.1 * i,
              seed=42 + i)
        for i in range(3)
    ]
    path = tmp_path / "trials.jsonl"
    write_trials(trials, path)
    back = read_trials(path)
    assert back == trials
    doc = json.loads(path.read_text().splitlines()[0])
    assert set(doc) == {"trial_id", "config", "budget", "nu", "per_activity_nu", "f1", "seed"}


@pytest.mark.parametrize("default, value, want", [
    (32, 20.0, 20),
    (0.5, 1, 1.0),
    ("relu", "tanh", "tanh"),
    ({}, {"gamma": 0.3}, {"gamma": 0.3}),
    (None, 4, 4),
    ((0.005, 0.5), [0.01, 1], (0.01, 1.0)),
    ([0.0, 0.2], [0.4], [0.4]),
])
def test_convert_reads_a_value_as_the_type_of_its_default(default, value, want):
    got = convert(default, value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("default, value", [
    # a string only for a string default, and a non-string only for a non-string one
    (32, "20"), (0.5, "0.1"), ("relu", 5), (None, "3"),
    ({}, [1]), ({}, "x"), (32, {"n": 1}),
    (32, 2.5), (True, 1), (1, True),
    # a tuple is as long as its default, a list is not empty
    ((0.005, 0.5), [0.5]), ((0.005, 0.5), [0.005, 0.5, 1]), ((0.005, 0.5), "ab"),
    ((0.005, 0.5), ["a", 1]), ([0.0], []), (["wo-DGP"], "wo-DGP"),
])
def test_convert_rejects_what_it_would_have_to_guess_at(default, value):
    with pytest.raises((TypeError, ValueError)):
        convert(default, value)


# ---------------------------------------------------------------------------
# fork_map: an order-preserving map over forked worker processes

def square_and_pid(i):
    return i * i, os.getpid()


@pytest.mark.parametrize("n, processes", [(1, 2), (2, 2), (5, 2), (5, 3), (7, 3), (4, 1)])
def test_fork_map_yields_in_order_one_contiguous_range_per_process(n, processes):
    got = list(fork_map(square_and_pid, range(n), processes))
    assert [v for v, _ in got] == [i * i for i in range(n)]
    pids = [pid for _, pid in got]
    # this process takes the first range; each range runs in one process
    assert pids[0] == os.getpid()
    assert len(set(pids)) == min(n, processes)
    assert [pids[i] for i in range(n) if i == 0 or pids[i] != pids[i - 1]] == list(
        dict.fromkeys(pids))
    assert_no_children()


def test_fork_map_holds_at_most_one_process_per_item():
    assert len({pid for _, pid in fork_map(square_and_pid, range(2), 8)}) == 2
    assert_no_children()


@pytest.mark.parametrize("k", [1, 4], ids=["in_this_process", "in_a_child"])
def test_fork_map_reraises_an_items_error_with_its_type_after_the_prefix(k):
    def fail_at_k(i):
        if i == k:
            raise SpaceError(f"item {i} failed")
        return i

    got = []
    with pytest.raises(SpaceError, match=f"item {k} failed"):
        for v in fork_map(fail_at_k, range(6), 2):
            got.append(v)
    assert got == list(range(k))
    assert_no_children()


def test_fork_map_sends_an_error_that_does_not_pickle_as_its_text():
    class Local(Exception):  # a local class does not pickle
        pass

    def fail(i):
        if i == 3:
            raise Local("no way back")
        return i

    with pytest.raises(RuntimeError, match="Local: no way back"):
        list(fork_map(fail, range(4), 2))
    assert_no_children()


def test_fork_map_child_that_dies_raises_runtime_error():
    parent = os.getpid()

    def die_in_child(i):
        if os.getpid() != parent:
            os._exit(7)
        return i

    with pytest.raises(RuntimeError, match=r"worker process \d+ died \(exit code 7\)"):
        list(fork_map(die_in_child, range(4), 2))
    assert_no_children()


def test_fork_map_closed_early_kills_and_reaps_its_children():
    import time

    def slow(i):
        if i >= 2:
            time.sleep(60)
        return i

    results = fork_map(slow, range(4), 2)
    assert next(results) == 0
    results.close()
    assert_no_children()


def test_fork_map_runs_inline_beside_other_threads():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert {pid for _, pid in fork_map(square_and_pid, range(4), 2)} == {os.getpid()}
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_fork_map_children_never_flush_the_parents_buffered_output():
    # stdout is a pipe here, so the first line sits in the buffer at the fork;
    # a child that flushed it again would print it twice
    script = (
        "from harvana.hyperspace import fork_map\n"
        "print('buffered before the fork')\n"
        "def show(i):\n"
        "    print(f'item {i}')\n"
        "    return i\n"
        "assert list(fork_map(show, range(4), 2)) == [0, 1, 2, 3]\n"
        "print('after')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert Counter(out.splitlines()) == Counter(
        ["buffered before the fork", "item 0", "item 1", "item 2", "item 3", "after"])
