import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from harvana.learner import (
    ConfigError,
    ModelConfig,
    TrainingDiverged,
    build,
    config_from_values,
    evaluate,
    macro_f1_from_confusion,
    mask_augment,
    run_protocol,
    softmax,
    train,
    training_subsets,
    _Conv1d,
)
from harvana import learner
from harvana.dgp import DgpModel, InteractionDegrees, SourceImportance
from harvana.hyperspace import derive_rng
from harvana.sensors import (
    DataSource,
    Deployment,
    Frame,
    PlantedDgp,
    SensorModel,
    SignalSpec,
    generate,
    meta_segment_partition,
)


def deployment(n_sources=2, channels=3):
    mods = ["acc", "gyr", "mag", "lacc"]
    sources = tuple(DataSource(id=f"hips_{mods[i]}", position="hips", modality=mods[i],
                               channels=channels) for i in range(n_sources))
    return Deployment(sources=sources, sampling_rate=50.0)


def toy_frames(n_per_class=20, window=40, separation=2.0, noise=0.2, seed=0,
               n_channels=6, activities=("a", "b")):
    """Linearly separable via the per-channel mean feature."""
    rng = np.random.default_rng(seed)
    frames = []
    fid = 0
    for ci, act in enumerate(activities):
        offset = separation * (ci - (len(activities) - 1) / 2)
        for _ in range(n_per_class):
            samples = offset + rng.normal(0.0, noise, (n_channels, window))
            frames.append(Frame(frame_id=fid, activity=act, samples=samples,
                                time_index=fid * window, recording=f"rec_{act}"))
            fid += 1
    return frames


def stat_config(**kw):
    base = dict(n_conv_blocks=0, dropout=0.0, learning_rate=0.5, epochs=200,
                classifier_head="softmax_linear")
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config mapping and build structure

def test_config_from_values_table1_names():
    cfg = config_from_values({
        "lr": 0.02, "ks1": 11, "ks2": 13, "ks3": 9, "n_f": 20, "s": 0.55,
        "p_d": 0.3, "n_u": 128,
    })
    assert cfg.learning_rate == 0.02
    assert cfg.kernel_sizes == (11, 13, 9)
    assert cfg.n_filters == 20
    assert cfg.stride_fraction == 0.55
    assert cfg.dropout == 0.3
    assert cfg.dense_units == 128
    # no recurrent head is built, so its hyperparameters are not accepted
    for name in ("n_hu1", "n_hu2", "p_in", "p_ou", "p_st"):
        with pytest.raises(ConfigError, match=f"unknown hyperparameter '{name}'"):
            config_from_values({"lr": 0.02, name: 64})


def test_config_from_values_source_gains():
    cfg = config_from_values({"gain_hips_acc": 0.4, "gain_hips_gyr": 1.0})
    assert cfg.source_gains == {"hips_acc": 0.4, "hips_gyr": 1.0}


@pytest.mark.parametrize("name, value", [
    ("n_f", 16.7), ("epochs", 3.9), ("batch_size", 8.5), ("n_u", "64"), ("ks2", 9.5),
    ("lr", "0.1"), ("gain_hips_acc", "1"), ("activation", 1),
])
def test_config_from_values_rejects_values_it_would_have_to_guess_at(name, value):
    with pytest.raises(ConfigError, match=f"hyperparameter {name}={value!r} does not convert"):
        config_from_values({name: value})


def test_config_from_values_converts_whole_numbers_and_ints():
    cfg = config_from_values({"n_f": 16.0, "epochs": 3.0, "ks1": 11.0, "lr": 1,
                              "gain_hips_acc": 1})
    assert (cfg.n_filters, cfg.epochs, cfg.kernel_sizes[0]) == (16, 3, 11)
    assert type(cfg.n_filters) is int and type(cfg.epochs) is int
    assert type(cfg.learning_rate) is float and cfg.source_gains == {"hips_acc": 1.0}


def test_config_unknown_param_rejected():
    with pytest.raises(ConfigError, match="unknown hyperparameter"):
        config_from_values({"bogus": 1})


def test_hybrid_head_is_config_error():
    with pytest.raises(ConfigError, match="recurrent/hybrid"):
        ModelConfig(classifier_head="hybrid_lstm")


def test_split_channels_builds_per_channel_stacks():
    dep = deployment(2, channels=3)
    cfg = ModelConfig(conv_mode="split_channels", n_conv_blocks=1,
                      kernel_sizes=(5, 5, 5), n_filters=4)
    net = build(cfg, dep, ("a", "b"), window_len=40)
    assert len(net.stacks) == 6
    shapes = net.weight_shapes()
    assert shapes["stack0.layer0.p0"] == (4, 1, 5)


def test_grouped_vs_split_modalities_shapes_differ():
    dep = deployment(2, channels=3)
    cfg_g = ModelConfig(conv_mode="grouped_modalities", n_conv_blocks=1,
                        kernel_sizes=(5, 5, 5), n_filters=4)
    cfg_s = ModelConfig(conv_mode="split_modalities", n_conv_blocks=1,
                        kernel_sizes=(5, 5, 5), n_filters=4)
    net_g = build(cfg_g, dep, ("a", "b"), 40, seed=1)
    net_s = build(cfg_s, dep, ("a", "b"), 40, seed=1)
    assert net_g.weight_shapes() != net_s.weight_shapes()
    assert net_g.weight_shapes()["stack0.layer0.p0"] == (4, 6, 5)
    assert net_s.weight_shapes()["stack0.layer0.p0"] == (4, 3, 5)


def test_zero_blocks_feature_dimension():
    dep = deployment(2, channels=3)
    net = build(stat_config(), dep, ("a", "b"), 40)
    assert net.feat_dim == 3 * 6


def test_kernel_larger_than_window_rejected():
    dep = deployment(1, channels=1)
    cfg = ModelConfig(n_conv_blocks=1, kernel_sizes=(50, 9, 9))
    with pytest.raises(ConfigError, match="kernel"):
        build(cfg, dep, ("a", "b"), window_len=40)


# ---------------------------------------------------------------------------
# training

def test_separable_toy_reaches_full_accuracy():
    dep = deployment(2, channels=3)
    frames = toy_frames()
    net = build(stat_config(), dep, ("a", "b"), 40, seed=0)
    trained = train(net, frames, seed=0)
    m = evaluate(trained, frames)
    assert m.nu == 0.0
    assert len(trained.loss_trace) == 200


def test_zero_epochs_keeps_init_weights():
    dep = deployment(2, channels=3)
    net = build(stat_config(epochs=0), dep, ("a", "b"), 40, seed=3)
    before = [p.copy() for p in net.parameters()]
    train(net, toy_frames(), seed=1)
    for b, a in zip(before, net.parameters()):
        np.testing.assert_array_equal(b, a)


def test_high_lr_converges_or_reports_divergence():
    dep = deployment(2, channels=3)
    # huge separation + big lr: either it still trains or it must raise
    frames = toy_frames(separation=50.0, noise=0.01)
    net = build(stat_config(learning_rate=0.1, epochs=100), dep, ("a", "b"), 40, seed=0)
    try:
        trained = train(net, frames, seed=0)
    except TrainingDiverged as e:
        assert e.epoch >= 0
    else:
        assert all(math.isfinite(v) for v in trained.loss_trace)


def test_training_requires_every_activity():
    dep = deployment(2, channels=3)
    frames = [f for f in toy_frames() if f.activity == "a"]
    net = build(stat_config(), dep, ("a", "b"), 40)
    with pytest.raises(ConfigError, match="no training frames"):
        train(net, frames)


def test_training_deterministic():
    dep = deployment(2, channels=3)
    frames = toy_frames(noise=0.8)
    cfg = stat_config(epochs=30, dropout=0.2)
    m1 = evaluate(train(build(cfg, dep, ("a", "b"), 40, seed=5), frames, seed=9), frames)
    m2 = evaluate(train(build(cfg, dep, ("a", "b"), 40, seed=5), frames, seed=9), frames)
    np.testing.assert_array_equal(m1.confusion, m2.confusion)
    assert m1.macro_f1 == m2.macro_f1


# ---------------------------------------------------------------------------
# gradients

def gradient_check(net, X, y, n_probes=10, h=1e-6, seed=0, warmup=3):
    for _ in range(warmup):  # move off the zero-initialized head
        net.loss_and_grads(X, y)
        net.sgd_step(0.1)
    net.loss_and_grads(X, y)
    grads = [g.copy() for g in net.gradients()]
    params = net.parameters()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        pi = int(rng.integers(0, len(params)))
        flat = params[pi].reshape(-1)
        j = int(rng.integers(0, flat.size))
        orig = flat[j]
        flat[j] = orig + h
        lp = net.loss_and_grads(X, y)
        flat[j] = orig - h
        lm = net.loss_and_grads(X, y)
        flat[j] = orig
        num = (lp - lm) / (2 * h)
        ana = grads[pi].reshape(-1)[j]
        denom = max(abs(num), abs(ana), 1e-8)
        worst = max(worst, abs(num - ana) / denom)
    return worst


def test_gradient_check_head():
    dep = deployment(2, channels=3)
    cfg = stat_config(classifier_head="mlp", dense_units=16, activation="tanh")
    net = build(cfg, dep, ("a", "b", "c"), 40, seed=2)
    frames = toy_frames(n_per_class=4, activities=("a", "b", "c"))
    X = np.stack([f.samples for f in frames])
    y = np.array([("a", "b", "c").index(f.activity) for f in frames])
    assert gradient_check(net, X, y) <= 1e-4


def test_gradient_check_conv_block():
    dep = deployment(1, channels=2)
    cfg = ModelConfig(n_conv_blocks=1, kernel_sizes=(5, 5, 5), n_filters=3,
                      stride_fraction=0.5, dropout=0.0, activation="tanh",
                      classifier_head="softmax_linear")
    net = build(cfg, dep, ("a", "b"), window_len=16, seed=4)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 2, 16))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert gradient_check(net, X, y) <= 1e-4


def test_gradient_check_stacked_blocks():
    # three blocks with strides that do not divide the lengths evenly: the
    # conv backward must pad the uncovered tail with zero gradient
    dep = deployment(1, channels=2)
    cfg = ModelConfig(n_conv_blocks=3, kernel_sizes=(7, 5, 3), n_filters=3,
                      stride_fraction=0.5, dropout=0.0, activation="tanh",
                      classifier_head="softmax_linear")
    net = build(cfg, dep, ("a", "b"), window_len=200, seed=5)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 2, 200))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert gradient_check(net, X, y, n_probes=12) <= 1e-4


def test_gradient_check_split_modalities_two_blocks():
    dep = deployment(2, channels=2)  # two modalities -> two conv stacks
    cfg = ModelConfig(conv_mode="split_modalities", n_conv_blocks=2,
                      kernel_sizes=(7, 5, 5), n_filters=3, stride_fraction=0.5,
                      dropout=0.0, activation="tanh", classifier_head="mlp",
                      dense_units=8)
    net = build(cfg, dep, ("a", "b"), window_len=80, seed=6)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 4, 80))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert gradient_check(net, X, y, n_probes=12) <= 1e-4


@pytest.mark.parametrize("n_filters", [1, 3])
def test_gradient_check_split_channels_two_blocks(n_filters):
    # every stack starts with a single-channel conv (the patch kernel); with
    # one filter block 2 is single-channel too, so its input gradient feeds
    # block 1's weights, and with three the dW layout of (F, 1, K) matters
    dep = deployment(1, channels=2)  # one 2-channel source -> two stacks
    cfg = ModelConfig(conv_mode="split_channels", n_conv_blocks=2,
                      kernel_sizes=(5, 3, 3), n_filters=n_filters, stride_fraction=0.5,
                      dropout=0.0, activation="tanh", classifier_head="softmax_linear")
    net = build(cfg, dep, ("a", "b"), window_len=60, seed=7)
    assert [conv.patches for conv in stack_convs(net.stacks[0])] == [True, n_filters == 1]
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 2, 60))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert gradient_check(net, X, y, n_probes=24) <= 1e-4


def naive_conv(x, W, b, stride, dy):
    """Direct loops over (n, f, o, c, k): y, dW, db and dx of a strided conv."""
    N, C, L = x.shape
    F, _, K = W.shape
    O = (L - K) // stride + 1
    y = np.zeros((N, F, O))
    dW = np.zeros_like(W)
    dx = np.zeros_like(x)
    for n in range(N):
        for f in range(F):
            for o in range(O):
                y[n, f, o] = b[f]
                for c in range(C):
                    for k in range(K):
                        t = o * stride + k
                        y[n, f, o] += W[f, c, k] * x[n, c, t]
                        dW[f, c, k] += dy[n, f, o] * x[n, c, t]
                        dx[n, c, t] += dy[n, f, o] * W[f, c, k]
    return y, dW, dy.sum(axis=(0, 2)), dx


CONV_CASES = {
    # (N, C, L, F, K, stride); C > 1 cases have N = 3 so a block can be ragged
    "stride_1": (3, 3, 12, 4, 3, 1),
    "stride_eq_kernel": (3, 3, 12, 4, 3, 3),
    "uncovered_tail": (3, 2, 14, 3, 4, 3),
    "single_channel": (3, 1, 10, 4, 3, 2),
    "kernel_eq_length": (3, 3, 5, 4, 5, 2),
    "single_channel_stride_1": (2, 1, 12, 4, 3, 1),
    "single_channel_kernel_eq_length": (2, 1, 5, 4, 5, 2),
    "single_channel_one_filter": (3, 1, 10, 1, 3, 2),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_kernel_matches_naive_loops(case, monkeypatch):
    N, C, L, F, K, s = CONV_CASES[case]
    O = (L - K) // s + 1
    # C > 1 runs as one block, one sample per block, and blocks of N - 1
    # samples with a ragged last block of one; C = 1 never builds a block
    blockings = {(N,): N, (1,) * N: 1, (N - 1, 1): N - 1} if C > 1 else {None: 1}
    for sizes, n in blockings.items():
        monkeypatch.setattr(learner, "BLOCK", 8 * C * K * O * n)
        rng = np.random.default_rng(0)
        conv = _Conv1d(C, F, K, s, rng)
        conv.b = rng.normal(size=F)
        x = rng.normal(size=(N, C, L))
        if sizes is not None:
            assert tuple(m for _, m, _ in conv._blocks(x)) == sizes
        y = conv.forward(x)
        dy = rng.normal(size=y.shape)
        dx = conv.backward(dy)
        ry, rdW, rdb, rdx = naive_conv(x, conv.W, conv.b, s, dy)
        assert y.shape == ry.shape and dx.shape == x.shape
        for got, want in ((y, ry), (conv.dW, rdW), (conv.db, rdb), (dx, rdx)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        covered = (conv.out_len(L) - 1) * s + K
        if case == "uncovered_tail":
            assert covered < L
        assert not dx[:, :, covered:].any()


def held_arrays(layer) -> dict[str, np.ndarray]:
    """The arrays a layer holds besides its parameters and their gradients."""
    return {name: v for name, v in vars(layer).items()
            if isinstance(v, np.ndarray) and name not in ("W", "b", "dW", "db")}


def test_conv_keeps_only_what_its_backward_reads(monkeypatch):
    rng = np.random.default_rng(0)
    conv = _Conv1d(4, 6, 5, 2, rng)
    x = rng.normal(size=(8, 4, 60))
    dy = rng.normal(size=(8, 6, conv.out_len(60)))
    # the batch is one block: a training forward keeps its input and that block
    conv.forward(x)
    held = held_arrays(conv)
    assert sorted(held) == ["_block", "_x"]
    assert np.shares_memory(held["_x"], x)
    block = held["_block"]
    assert block.shape == (4 * 5, 8 * conv.out_len(60)) and block.nbytes <= learner.BLOCK
    conv.backward(dy)
    assert list(held_arrays(conv)) == ["_x"]  # backward used the block and dropped it
    # a batch that spans blocks streams them in both passes and keeps none
    monkeypatch.setattr(learner, "BLOCK", block.nbytes // 2)
    conv.forward(x)
    assert list(held_arrays(conv)) == ["_x"]
    # one sample whose block alone exceeds BLOCK is not kept either
    monkeypatch.setattr(learner, "BLOCK", block.nbytes // 16)
    conv.forward(x[:1])
    assert list(held_arrays(conv)) == ["_x"]
    # an inference forward keeps nothing, and drops what a training one kept
    monkeypatch.undo()
    conv.forward(x)
    conv.forward(x, keep=False)
    assert held_arrays(conv) == {}


SKIP_CASES = {
    # (conv_mode, n_conv_blocks, n_filters)
    "grouped_1": ("grouped_modalities", 1, 3),
    "grouped_2": ("grouped_modalities", 2, 3),
    "split_modalities_1": ("split_modalities", 1, 3),
    "split_modalities_2": ("split_modalities", 2, 3),
    "split_channels_1": ("split_channels", 1, 3),
    "split_channels_2": ("split_channels", 2, 3),
    # block 2 is single-channel too, and its dx feeds block 1's weights
    "split_channels_2_one_filter": ("split_channels", 2, 1),
}


def skip_case_network(case, activation="tanh"):
    mode, blocks, n_filters = SKIP_CASES[case]
    dep = deployment(2, channels=2)
    cfg = ModelConfig(conv_mode=mode, n_conv_blocks=blocks, kernel_sizes=(5, 3, 3),
                      n_filters=n_filters, stride_fraction=0.5, dropout=0.2,
                      activation=activation, classifier_head="mlp", dense_units=8)
    return build(cfg, dep, ("a", "b"), window_len=60, seed=8)


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_skipped_input_gradient_leaves_parameter_gradients_unchanged(case):
    net, ref = skip_case_network(case), skip_case_network(case)
    for stack in ref.stacks:
        for conv in stack_convs(stack):
            conv.input_grad = True  # the reference computes every dx
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 4, 60))
    y = np.array([0, 1, 0, 1, 0, 1])
    for _ in range(3):  # steps move the zero-initialised head off zero
        for n in (net, ref):
            n.loss_and_grads(X, y, training=True, rng=np.random.default_rng(1))
            n.sgd_step(0.1)
    for got, want in zip(net.gradients(), ref.gradients()):
        np.testing.assert_array_equal(got, want)


def backward_peak(conv, dy):
    """(dx, peak bytes traced) of one conv backward."""
    tracemalloc.start()
    try:
        dx = conv.backward(dy)
        return dx, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_first_conv_of_each_stack_computes_no_input_gradient(case):
    net = skip_case_network(case)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(32, 4, 60))
    net.features(X)
    for stack in net.stacks:
        for b, conv in enumerate(stack_convs(stack)):
            dy = rng.normal(size=(len(X), len(conv.W), conv.out_len(conv._x.shape[2])))
            assert conv.patches or conv._block is not None
            dx, peak = backward_peak(conv, dy)
            if b > 0:
                assert dx.shape == conv._x.shape
                continue
            assert dx is None
            if conv.patches:
                # dW, db and the batch-summed (N, F, K) products only
                assert peak < conv._x.nbytes // 2, peak
            else:
                # both backwards read the block the training forward kept, so
                # skipping saves the dx and its dcols
                conv.input_grad = True
                net.features(X)
                assert conv._block is not None
                _, full_peak = backward_peak(conv, dy)
                assert full_peak - peak >= conv._x.nbytes, (peak, full_peak)


# the kernel-table shapes, scaled down: (positions, window, blocks); each
# position carries one single-channel acc, gyr and mag source
POOL_SHAPES = {
    "demo.grouped": (2, 80, 1, "grouped_modalities"),
    "recovery.grouped": (4, 100, 1, "grouped_modalities"),
    "paper.grouped": (3, 1200, 3, "grouped_modalities"),
    "paper.split_modalities": (3, 1200, 3, "split_modalities"),
    "paper.split_channels": (3, 1200, 3, "split_channels"),
}


def pool_shape_network(shape, activation="relu", n_filters=4, dense_units=8):
    positions, L, blocks, conv_mode = POOL_SHAPES[shape]
    dep = Deployment(sources=tuple(DataSource(f"p{i}_{m}", f"p{i}", m, 1)
                                   for i in range(positions) for m in ("acc", "gyr", "mag")),
                     sampling_rate=50.0)
    cfg = ModelConfig(conv_mode=conv_mode, n_conv_blocks=blocks, kernel_sizes=(9, 9, 9),
                      n_filters=n_filters, stride_fraction=0.5, dropout=0.1,
                      activation=activation, classifier_head="mlp", dense_units=dense_units)
    return build(cfg, dep, ("a", "b", "c"), L, seed=3)


class RefLayer:
    def params(self):
        return []

    def grads(self):
        return []


class RefMaxPool2(RefLayer):
    """The separate max-pool layer that preceded the fused one."""

    def forward(self, x, keep=True):
        L = x.shape[2] - x.shape[2] % 2
        self._in_len = x.shape[2]
        a, b = x[:, :, 0:L:2], x[:, :, 1:L:2]
        left = a >= b
        self._left = left if keep else None
        return np.where(left, a, b)

    def backward(self, dy):
        dx = np.zeros(dy.shape[:2] + (self._in_len,))
        dx[:, :, 0:2 * dy.shape[2]:2] = dy * self._left
        dx[:, :, 1:2 * dy.shape[2]:2] = dy * ~self._left
        return dx


class RefActivation(RefLayer):
    """The separate activation layer that followed it in every conv block."""

    def __init__(self, kind):
        self.kind = kind

    def forward(self, x, keep=True):
        if self.kind == "relu":
            mask = x > 0
            self._mask = mask if keep else None
            return x * mask
        out = np.tanh(x)
        self._out = out if keep else None
        return out

    def backward(self, dy):
        if self.kind == "relu":
            return dy * self._mask
        return dy * (1.0 - self._out ** 2)


def stack_convs(stack):
    return [layer for layer in stack if isinstance(layer, _Conv1d)]


def convs(net):
    return [conv for stack in net.stacks for conv in stack_convs(stack)]


def unfused(net, order):
    """Replace every fused pool-activation layer of `net` by the reference
    layers, as conv, pool, act (order "pool_act") or conv, act, pool."""
    for stack in net.stacks:
        for i in reversed(range(len(stack))):
            if isinstance(stack[i], learner._MaxPool2):
                pool, act = RefMaxPool2(), RefActivation(stack[i].kind)
                stack[i:i + 1] = [pool, act] if order == "pool_act" else [act, pool]
    return net


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
def test_pool_before_activation_matches_activation_before_pool(shape, activation):
    # max-pool commutes with a monotone activation, ties included, so the
    # fused layer's losses, gradients and probabilities over three SGD steps
    # equal those of separate layers in either order, to the bit: the fused
    # relu writes +0.0 where x * (x > 0) wrote -0.0, and a signed zero only
    # ever meets a multiply or a sum with a nonzero term
    nets = [pool_shape_network(shape, activation)]
    nets += [unfused(pool_shape_network(shape, activation), order)
             for order in ("pool_act", "act_pool")]
    dep, L = nets[0].deployment, nets[0].window_len
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, dep.n_channels, L))
    # constant frames make every window of a stack's first conv equal, so
    # every pool pair ties: at zero (relu's kink) and away from it
    X[1] = 0.0
    X[2] = rng.normal(size=(dep.n_channels, 1))
    y = np.array([0, 1, 2, 0, 1, 2])
    for _ in range(3):
        losses = [np.float64(n.loss_and_grads(X, y, training=True, rng=np.random.default_rng(2)))
                  for n in nets]
        grads = [n.gradients() for n in nets]
        for ref_loss, ref_grads in zip(losses[1:], grads[1:]):
            assert losses[0].tobytes() == ref_loss.tobytes()
            assert len(grads[0]) == len(ref_grads)
            for got, want in zip(grads[0], ref_grads):
                assert got.tobytes() == want.tobytes()
        for n in nets:
            n.sgd_step(0.5)
    probs = [n.predict_proba(X).tobytes() for n in nets]
    assert probs[0] == probs[1] == probs[2]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("L", [10, 11])
def test_fused_pool_layer_matches_reference_layers(L, activation):
    # an odd last input sample is dropped and gets zero gradient
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4, L))
    x[0, :, 2:6] = 0.0  # ties at relu's kink
    x[1, 1, 4:8] = 0.7  # ties away from it
    dy = rng.normal(size=(3, 4, L // 2))
    dy[2, 0] = 0.0
    layer = learner._MaxPool2(activation)
    out = layer.forward(x)
    dx = layer.backward(dy)
    for order in ("pool_act", "act_pool"):
        pool, act = RefMaxPool2(), RefActivation(activation)
        layers = [pool, act] if order == "pool_act" else [act, pool]
        h, g = x, dy
        for ref in layers:
            h = ref.forward(h)
        for ref in reversed(layers):
            g = ref.backward(g)
        np.testing.assert_array_equal(out, h)  # -0.0 == +0.0 here
        assert dx.tobytes() == g.tobytes()
    assert dx.shape == x.shape
    if L % 2:
        assert np.signbit(dx[:, :, -1]).sum() == 0 and not dx[:, :, -1].any()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_fused_pool_layer_inference_keeps_nothing(activation):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 9))
    layer = learner._MaxPool2(activation)
    layer.forward(x)
    want = ["_left", "_right"] if activation == "relu" else ["_left", "_out"]
    assert sorted(held_arrays(layer)) == want
    out = layer.forward(x, keep=False)
    assert held_arrays(layer) == {}
    assert out.shape == (2, 3, 4)


def forward_peak(layer, x, keep):
    """(output, peak bytes traced) of one forward."""
    tracemalloc.start()
    try:
        out = layer.forward(x, keep)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_fused_pool_layer_allocations_at_paper_shape(activation):
    # the first conv output of the paper_scale network at batch 8: 28
    # filters over (6000 - 9) // 4 + 1 = 1498 windows
    x = np.random.default_rng(12).normal(size=(8, 28, 1498))
    layer = learner._MaxPool2(activation)
    out, peak = forward_peak(layer, x, keep=False)
    assert peak <= 1.1 * out.nbytes, (peak, out.nbytes)
    out, peak = forward_peak(layer, x, keep=True)
    assert peak <= 1.1 * (out.nbytes + 2 * out.size), (peak, out.nbytes)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_nan_frame_diverges_at_first_epoch(activation):
    frames = toy_frames(n_per_class=6, window=40, n_channels=4, seed=5)
    frames[3].samples[2, 17] = np.nan
    dep = deployment(2, channels=2)
    cfg = ModelConfig(n_conv_blocks=2, kernel_sizes=(5, 3, 3), n_filters=3, dropout=0.0,
                      epochs=3, batch_size=4, activation=activation)
    net = build(cfg, dep, ("a", "b"), 40, seed=2)
    with pytest.raises(TrainingDiverged) as info:
        train(net, frames, seed=1)
    assert info.value.epoch == 0


@pytest.mark.parametrize("mode", learner.CONV_MODES)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_every_stack_is_conv_then_pool_per_block(mode, blocks):
    # perfbench's conv_cost walks each stack by layer: a layer with W is a
    # conv, and the sequence halves at a layer whose class is _MaxPool2
    dep = deployment(2, channels=3)
    cfg = ModelConfig(conv_mode=mode, n_conv_blocks=blocks, kernel_sizes=(5, 3, 3),
                      n_filters=4, stride_fraction=0.5, classifier_head="mlp")
    net = build(cfg, dep, ("a", "b"), 200, seed=1)
    feat_dim = 0
    for stack in net.stacks:
        assert [type(layer) for layer in stack] == [_Conv1d, learner._MaxPool2] * blocks
        L = net.window_len
        for layer in stack:
            if getattr(layer, "W", None) is not None:
                L = (L - layer.W.shape[2]) // layer.stride + 1
            elif type(layer).__name__ == "_MaxPool2":
                L //= 2
        feat_dim += cfg.n_filters * L
    assert feat_dim == net.feat_dim


def rebuild_blocks(net):
    """Make every conv of `net` drop its kept block after forward, so that
    its backward rebuilds the block from the input."""
    for conv in convs(net):
        def forward(x, keep=True, conv=conv, inner=conv.forward):
            y = inner(x, keep)
            conv._block = None
            return y
        conv.forward = forward


@pytest.mark.parametrize("blocking", ["one_block", "one_sample_per_block", "ragged"])
@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
def test_kept_patch_block_matches_rebuilt_block(shape, blocking, monkeypatch):
    # the widest C > 1 conv sees the batch as one block, one sample per
    # block, or N - 1 samples and a ragged block of one, as in CONV_CASES
    net, ref = (pool_shape_network(shape) for _ in range(2))
    rebuild_blocks(ref)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, net.deployment.n_channels, net.window_len))
    y = np.array([0, 1, 2, 0, 1, 2])
    net.features(X)
    widest = max(8 * c._x.shape[1] * c.kernel * c.out_len(c._x.shape[2])
                 for c in convs(net) if not c.patches)
    n = {"one_block": len(X), "one_sample_per_block": 1, "ragged": len(X) - 1}[blocking]
    monkeypatch.setattr(learner, "BLOCK", n * widest)
    for _ in range(3):
        losses = [m.loss_and_grads(X, y, training=True, rng=np.random.default_rng(2))
                  for m in (net, ref)]
        assert losses[0] == losses[1]
        for got, want in zip(net.gradients(), ref.gradients()):
            np.testing.assert_array_equal(got, want)
        for m in (net, ref):
            m.sgd_step(0.5)
    net.features(X)
    kept = [c._block is not None for c in convs(net) if not c.patches]
    assert all(kept) == (blocking == "one_block"), kept


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_logits_keeps_no_layer_state(case, activation):
    net = skip_case_network(case, activation)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 4, 60))
    y = np.array([0, 1, 0, 1, 0, 1])
    for _ in range(3):  # steps move the zero-initialised head off zero
        net.loss_and_grads(X, y, training=True, rng=np.random.default_rng(1))
        net.sgd_step(0.1)
    h = net.features(X)
    for layer in net.head:
        h = layer.forward(h)
    out = net.logits(X)
    np.testing.assert_array_equal(out, h)
    for layer in [*net.head, *(layer for stack in net.stacks for layer in stack)]:
        assert held_arrays(layer) == {}, (type(layer).__name__, sorted(held_arrays(layer)))


def test_logits_peak_memory_at_scaled_paper_split_channels():
    # the paper's split_channels network scaled to 9 channels x 1200: with no
    # layer keeping backward state, the inference forward stays below twice
    # its input
    net = pool_shape_network("paper.split_channels", n_filters=28, dense_units=64)
    X = np.random.default_rng(8).normal(size=(16, net.deployment.n_channels, net.window_len))
    tracemalloc.start()
    try:
        net.logits(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * X.nbytes, (peak, X.nbytes)


# ---------------------------------------------------------------------------
# resident first-layer inputs: a train call of more than one epoch

RESIDENT_CASES = [(mode, blocks) for mode in learner.CONV_MODES for blocks in (0, 1, 2)]


def resident_case(conv_mode, blocks, epochs=3):
    dep = deployment(2, channels=2)
    cfg = ModelConfig(conv_mode=conv_mode, n_conv_blocks=blocks, kernel_sizes=(5, 3, 3),
                      n_filters=3, stride_fraction=0.5, dropout=0.2, learning_rate=0.1,
                      epochs=epochs, batch_size=4, activation="relu",
                      classifier_head="mlp", dense_units=8,
                      source_gains={"hips_acc": 0.7, "hips_gyr": 0.3})
    # 13 frames in batches of 4: the last batch of each epoch is ragged
    frames = toy_frames(n_per_class=7, window=60, n_channels=4, noise=1.0, seed=3)[:13]
    return cfg, frames, build(cfg, dep, ("a", "b"), 60, seed=8)


def per_batch_train(net, frames, cfg, seed):
    """train's loop written out on the stacked frames: loss_and_grads(X[idx])."""
    _, X, y = learner._frames_to_arrays(frames, net.activities)
    rng = derive_rng(seed, 7)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            losses.append(net.loss_and_grads(X[idx], y[idx], training=True, rng=rng))
            net.sgd_step(cfg.learning_rate)
        trace.append(float(np.mean(losses)))
    return trace


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("blocking", ["batch_is_one_block", "batch_spans_blocks"])
@pytest.mark.parametrize("conv_mode,blocks", RESIDENT_CASES)
def test_resident_train_matches_per_batch_loop(conv_mode, blocks, blocking, epochs,
                                               monkeypatch):
    cfg, frames, net = resident_case(conv_mode, blocks, epochs)
    _, _, ref = resident_case(conv_mode, blocks, epochs)
    if blocking == "batch_spans_blocks":
        # 3 samples per block of the first convs: batches of 4 span two
        first = [stack[0] for stack in net.stacks if not stack[0].patches]
        per_sample = max((8 * c.W.shape[1] * c.kernel * c.out_len(60) for c in first), default=1)
        monkeypatch.setattr(learner, "BLOCK", 3 * per_sample)
    calls = []
    resident = learner.Network.resident
    monkeypatch.setattr(learner.Network, "resident",
                        lambda self, X: calls.append(len(X)) or resident(self, X))
    trace = train(net, frames, cfg, seed=4).loss_trace
    # only a train call of more than one epoch builds resident inputs
    assert calls == ([13] if epochs > 1 else [])
    assert trace == per_batch_train(ref, frames, cfg, seed=4)
    for got, want in zip(net.parameters(), ref.parameters()):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("L", [59, 60])
def test_stat_features_of_a_batch_equal_rows_of_the_whole_set(L):
    # the zero-block resident input is stat_features of the whole training
    # set; each row must equal that of the batch alone, rfft included
    X = np.random.default_rng(5).normal(size=(13, 4, L))
    whole = learner.stat_features(X)
    for rows in (np.array([3]), np.array([12, 0, 7, 5]), np.arange(13)[::-2]):
        np.testing.assert_array_equal(whole[rows], learner.stat_features(X[rows]))


def held_at_each_step(net, frames, cfg):
    """The most traced bytes held when a step of one train call starts; the
    frames are allocated before tracing, so they do not count."""
    held = []
    step = net.loss_and_grads

    def traced_step(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return step(*args, **kwargs)

    net.loss_and_grads = traced_step
    tracemalloc.start()
    try:
        train(net, frames, cfg, seed=1)
    finally:
        tracemalloc.stop()
    return max(held)


def test_resident_patches_memory_at_scaled_paper_shape():
    # the paper's grouped network scaled to 9 channels x 1200; the first
    # conv's patches are K*O/L (about K/stride) times the stacked frames
    net = pool_shape_network("paper.grouped", n_filters=28, dense_units=64)
    dep, L = net.deployment, net.window_len
    rng = np.random.default_rng(2)
    frames = [Frame(frame_id=i, activity="abc"[i % 3], samples=rng.normal(size=(dep.n_channels, L)),
                    time_index=i, recording="r") for i in range(24)]
    x_bytes = 24 * dep.n_channels * L * 8
    conv = net.stacks[0][0]
    patch_bytes = conv.kernel * conv.out_len(L) / L * x_bytes
    cfg = replace(net.config, batch_size=8)
    one = held_at_each_step(net, frames, replace(cfg, epochs=1))
    two = held_at_each_step(pool_shape_network("paper.grouped", n_filters=28, dense_units=64),
                            frames, replace(cfg, epochs=2))
    # one epoch holds the stacked frames and a batch's layer state, no patches
    state = one - x_bytes
    assert 0 < state < patch_bytes, (one, x_bytes, patch_bytes)
    # two epochs hold the patches, at most K*O/L times the frames, and no
    # stacked frames beside them; their batch state is no larger
    assert x_bytes < two - state <= patch_bytes, (two, state, patch_bytes)


def test_relu_masks_gradient():
    dep = deployment(1, channels=1)
    cfg = ModelConfig(n_conv_blocks=1, kernel_sizes=(3, 3, 3), n_filters=2,
                      dropout=0.0, activation="relu")
    net = build(cfg, dep, ("a", "b"), window_len=12, seed=1)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 1, 12))
    y = np.array([0, 1, 0, 1])
    assert gradient_check(net, X, y, n_probes=10, seed=1) <= 1e-3  # relu kinks allow slack


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = softmax(rng.normal(size=(50, 7)) * 30)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# evaluation metrics

def test_macro_f1_hand_computed():
    confusion = np.array([[3, 2], [1, 4]])
    f1_a = 2 * (3 / 4 * 3 / 5) / (3 / 4 + 3 / 5)
    f1_b = 2 * (4 / 6 * 4 / 5) / (4 / 6 + 4 / 5)
    assert f1_a == pytest.approx(2 / 3)
    assert f1_b == pytest.approx(8 / 11)
    assert macro_f1_from_confusion(confusion) == pytest.approx((f1_a + f1_b) / 2)
    assert macro_f1_from_confusion(confusion) == pytest.approx(0.697, abs=5e-4)


def test_perfect_predictions():
    dep = deployment(2, channels=3)
    frames = toy_frames()
    trained = train(build(stat_config(), dep, ("a", "b"), 40, seed=0), frames, seed=0)
    m = evaluate(trained, frames)
    assert m.macro_f1 == 1.0 and m.nu == 0.0
    assert all(v == 0.0 for v in m.per_activity_nu.values())


def test_micro_accuracy_identity_and_row_sums():
    dep = deployment(2, channels=3)
    frames = toy_frames(separation=0.3, noise=1.5, seed=4)
    trained = train(build(stat_config(epochs=20), dep, ("a", "b"), 40, seed=0),
                    frames, seed=0)
    m = evaluate(trained, frames)
    acc = np.trace(m.confusion) / m.confusion.sum()
    assert acc + m.nu == pytest.approx(1.0, abs=1e-12)
    counts = {a: sum(1 for f in frames if f.activity == a) for a in ("a", "b")}
    for i, lab in enumerate(m.labels):
        assert m.confusion[i].sum() == counts[lab]


def test_all_one_class_predictor_on_balanced_data():
    # untrained net with zeroed head weights breaks ties to class 0
    dep = deployment(2, channels=3)
    net = build(stat_config(), dep, ("a", "b"), 40, seed=0)
    for p in net.parameters():
        p[:] = 0.0
    m = evaluate(net, toy_frames())
    assert m.nu == pytest.approx(0.5)


def test_evaluate_include_null():
    dep = deployment(1, channels=1)
    frames = [Frame(0, "a", np.ones((1, 8)), 0, "r"),
              Frame(1, None, np.zeros((1, 8)), 8, "r"),
              Frame(2, "b", -np.ones((1, 8)), 16, "r")]
    net = build(stat_config(), dep, ("a", "b"), 8, seed=0)
    m_no = evaluate(net, frames, include_null=False)
    assert m_no.confusion.sum() == 2
    m_yes = evaluate(net, frames, include_null=True)
    assert m_yes.labels == ("a", "b", "null")
    assert m_yes.confusion.sum() == 3
    assert m_yes.confusion[2].sum() == 1  # the null frame lands in the null row


# ---------------------------------------------------------------------------
# masking

def test_mask_all_sources_unchanged():
    dep = deployment(2, channels=3)
    frames = toy_frames(n_per_class=3)
    subsets = {"a": frozenset(dep.source_ids), "b": frozenset(dep.source_ids)}
    masked = mask_augment(frames, subsets, 0.5, seed=0, deployment=dep)
    for f0, f1 in zip(frames, masked):
        np.testing.assert_array_equal(f0.samples, f1.samples)


def test_mask_locality_bitwise():
    dep = deployment(2, channels=3)
    frames = toy_frames(n_per_class=3)
    keep = frozenset(["hips_acc"])
    masked = mask_augment(frames, {"a": keep, "b": keep}, 0.7, seed=1, deployment=dep)
    sl = dep.channel_slice("hips_acc")
    for f0, f1 in zip(frames, masked):
        assert (f0.samples[sl] == f1.samples[sl]).all()
        assert not np.array_equal(f0.samples[3:], f1.samples[3:])


def test_mask_sigma_zero_gives_exact_zeros():
    dep = deployment(2, channels=3)
    frames = toy_frames(n_per_class=2)
    masked = mask_augment(frames, {"a": frozenset(["hips_acc"]),
                                   "b": frozenset(["hips_acc"])},
                          0.0, seed=0, deployment=dep)
    for f in masked:
        assert (f.samples[dep.channel_slice("hips_gyr")] == 0.0).all()


def test_mask_unknown_source_rejected():
    dep = deployment(2, channels=3)
    with pytest.raises(ConfigError, match="unknown sources"):
        mask_augment(toy_frames(n_per_class=1), {"a": {"nope"}, "b": {"nope"}},
                     0.1, 0, dep)


def test_mask_supplement_doubles_labelled_frames():
    dep = deployment(2, channels=3)
    frames = toy_frames(n_per_class=2)
    out = mask_augment(frames, {"a": frozenset(["hips_acc"]), "b": frozenset(["hips_acc"])},
                       0.1, 0, dep, supplement=True)
    assert len(out) == 2 * len(frames)
    assert len({f.frame_id for f in out}) == len(out)


def test_empty_subset_fallback_disabled_scores_chance():
    # every channel replaced by noise: the trained rule carries no label
    # information, so nu averaged over seeds sits at chance 1 - 1/K. A single
    # seed's rule can land far off chance on structured eval data, hence the
    # mean-over-repetitions oracle.
    dep = deployment(2, channels=3)
    eval_frames = toy_frames(n_per_class=100, seed=2)
    nus = []
    for rep in range(40):
        train_frames = toy_frames(n_per_class=20, seed=100 + rep)
        masked = mask_augment(train_frames, {"a": frozenset(), "b": frozenset()},
                              1.0, seed=rep, deployment=dep)
        net = build(stat_config(epochs=25, learning_rate=0.05), dep, ("a", "b"),
                    40, seed=rep)
        nus.append(evaluate(train(net, masked, seed=rep), eval_frames).nu)
    assert abs(np.mean(nus) - 0.5) <= 0.05


# ---------------------------------------------------------------------------
# protocol

def planted_dataset(seed=0, offset_sigma=2.0, frames_per_recording=8, recordings=6):
    """Multi-session planted data: distractor channels carry a per-session
    calibration offset, so models that read them generalize badly to the
    held-out sessions."""
    sources = tuple(DataSource(id=f"{p}_acc", position=p, modality="acc", channels=2)
                    for p in ("hips", "hand", "torso", "bag"))
    dep = Deployment(sources=sources, sampling_rate=50.0)
    planted = PlantedDgp(
        activities=("walk", "run", "still"),
        informative={
            "walk": {"hips_acc": SignalSpec(3.0, 1.0)},
            "run": {"hips_acc": SignalSpec(7.0, 1.0)},
            "still": {"torso_acc": SignalSpec(5.0, 1.0)},
        },
        distractor_sigma=0.5, distractor_offset_sigma=offset_sigma,
        phase_jitter=0.5)
    ds = generate(dep, planted, frames_per_recording, window_len=100,
                  sensor_models=SensorModel(noise_sigma=0.3), seed=seed,
                  recordings_per_activity=recordings)
    return ds, planted


def truth_dgp(ds, planted):
    importances, interactions, subsets = {}, {}, {}
    for y in planted.activities:
        subsets[y] = planted.informative_ids(y)
        importances[y] = SourceImportance(y, {s: 0.0 for s in ds.deployment.source_ids},
                                          degenerate=True)
        interactions[y] = InteractionDegrees(y, {}, degenerate=True)
    return DgpModel(activities=planted.activities,
                    sources=tuple(ds.deployment.source_ids),
                    importances=importances, interactions=interactions,
                    subsets=subsets)


def test_run_protocol_modes_and_masking_noop():
    ds, planted = planted_dataset()
    folds = meta_segment_partition(ds.frames, k=3, meta_len=1, seed=0)
    cfg = stat_config(epochs=30, learning_rate=0.2, mask_sigma=0.5)
    base = run_protocol(ds, folds, cfg, mode="wo-DGP", seed=5)
    assert len(base.per_fold) == 3
    all_dgp = truth_dgp(ds, planted)
    all_dgp = DgpModel(activities=all_dgp.activities, sources=all_dgp.sources,
                       importances=all_dgp.importances, interactions=all_dgp.interactions,
                       subsets={y: frozenset(ds.deployment.source_ids)
                                for y in all_dgp.activities})
    same = run_protocol(ds, folds, cfg, dgp=all_dgp, mode="w-DGP", seed=5)
    assert same.mean_f1 == base.mean_f1  # masking no-op when all sources kept
    for ma, mb in zip(base.per_fold, same.per_fold):
        np.testing.assert_array_equal(ma.confusion, mb.confusion)


def test_training_subsets_none_only_when_masking_changes_nothing():
    ds, planted = planted_dataset()
    truth = truth_dgp(ds, planted)
    everything = frozenset(ds.deployment.source_ids)
    keep_all = replace(truth, subsets={y: everything for y in truth.activities})
    assert training_subsets(None, ds) is None
    assert training_subsets(keep_all, ds) is None
    # supplemented frames differ from the originals even when nothing is masked
    assert training_subsets(keep_all, ds, supplement=True) == \
        {y: everything for y in ds.activities}
    assert training_subsets(truth, ds) == {y: frozenset(s) for y, s in truth.subsets.items()}
    # an empty or missing subset falls back to all sources
    first, *rest = ds.activities
    sparse = replace(truth, subsets={first: frozenset(), rest[0]: truth.subsets[rest[0]]})
    assert training_subsets(sparse, ds) == {
        y: truth.subsets[y] if y == rest[0] else everything for y in ds.activities}


def test_run_protocol_missing_dgp_rejected():
    ds, _ = planted_dataset()
    folds = meta_segment_partition(ds.frames, k=3, meta_len=1, seed=0)
    with pytest.raises(ConfigError, match="requires"):
        run_protocol(ds, folds, stat_config(), mode="w-DGP")


def test_w_dgp_beats_baseline_with_heavy_distractors():
    # paired seeds; folds hold out whole sessions (meta_len = frames/recording)
    wins = 0
    diffs = []
    for seed in range(5):
        ds, planted = planted_dataset(seed=seed)
        folds = meta_segment_partition(ds.frames, k=3, meta_len=8, seed=seed)
        cfg = stat_config(epochs=60, learning_rate=0.3, mask_sigma=0.5)
        base = run_protocol(ds, folds, cfg, mode="wo-DGP", seed=seed)
        wdgp = run_protocol(ds, folds, cfg, dgp=truth_dgp(ds, planted),
                            mode="w-DGP", seed=seed)
        diffs.append(wdgp.mean_f1 - base.mean_f1)
        wins += wdgp.mean_f1 > base.mean_f1
    assert wins == 5
    assert np.mean(diffs) >= 0.05


def test_w_dgp_supplement_mode_also_wins():
    ds, planted = planted_dataset(seed=3)
    folds = meta_segment_partition(ds.frames, k=3, meta_len=8, seed=3)
    cfg = stat_config(epochs=60, learning_rate=0.3, mask_sigma=0.5)
    base = run_protocol(ds, folds, cfg, mode="wo-DGP", seed=3)
    wdgp = run_protocol(ds, folds, cfg, dgp=truth_dgp(ds, planted),
                        mode="w-DGP", seed=3, supplement=True)
    assert wdgp.mean_f1 > base.mean_f1


def test_w_hexp_mode_runs():
    ds, planted = planted_dataset(seed=1)
    folds = meta_segment_partition(ds.frames, k=3, meta_len=8, seed=1)
    cfg = stat_config(epochs=20, learning_rate=0.3, mask_sigma=0.5)
    res = run_protocol(ds, folds, cfg, dgp=truth_dgp(ds, planted),
                       mode="w-HExp", seed=1)
    assert res.mode == "w-HExp" and len(res.per_fold) == 3
