"""Desk-scale multimodal classifier with configurable feature extraction.

Three convolutional modes control channel grouping (early fusion over all
channels, one stack per modality, one stack per channel); zero conv blocks
fall back to hand-crafted statistics (mean, variance, spectral peak per
channel). Training is plain mini-batch gradient descent on cross-entropy (the
differentiable surrogate); the reported losses stay 0/1-based: nu is the
misclassification rate and per-activity nu is 1 - recall.

Masked-sample incorporation (w-DGP / w-HExp) replaces the channels of
unselected sources in the *training* frames with Gaussian draws so the model
learns to ignore them; evaluation frames are never touched.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dgp import DgpModel
from .hyperspace import Configuration, convert_key, derive_rng
from .sensors import NULL_LABEL, Dataset, Deployment, FoldAssignment, Frame

logger = logging.getLogger(__name__)

CONV_MODES = ("grouped_modalities", "split_modalities", "split_channels")
HEADS = ("softmax_linear", "mlp")
MODES = ("wo-DGP", "w-DGP", "w-HExp")


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss diverged to NaN at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelConfig:
    conv_mode: str = "grouped_modalities"
    n_conv_blocks: int = 1
    kernel_sizes: tuple[int, int, int] = (9, 9, 9)
    n_filters: int = 16
    stride_fraction: float = 0.5
    dropout: float = 0.1
    dense_units: int = 64
    learning_rate: float = 0.01
    epochs: int = 20
    batch_size: int = 32
    activation: str = "relu"
    classifier_head: str = "softmax_linear"
    source_gains: Mapping[str, float] = field(default_factory=dict)
    mask_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "source_gains", dict(self.source_gains))
        # three integers, never truncated: (9.5, 9, 9) is an error, not (9, 9, 9)
        object.__setattr__(self, "kernel_sizes",
                           convert_key("kernel_sizes", (0, 0, 0), self.kernel_sizes, ConfigError))
        if self.conv_mode not in CONV_MODES:
            raise ConfigError(f"unknown conv_mode {self.conv_mode!r}")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not (0 <= self.n_conv_blocks <= 3):
            raise ConfigError("n_conv_blocks must be 0..3")
        # values training cannot use: dropout 1.0 scales by 1 / (1 - p), so
        # every trial would record a divergence (nu 1.0) instead of failing
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (math.isfinite(self.mask_sigma) and self.mask_sigma >= 0.0):
            raise ConfigError(f"mask_sigma must be finite and >= 0, got {self.mask_sigma!r}")
        for name in ("n_filters", "dense_units", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if min(self.kernel_sizes) < 1 or self.epochs < 0:
            raise ConfigError(f"kernel sizes must be >= 1 and epochs >= 0, got "
                              f"{self.kernel_sizes} and {self.epochs}")
        if self.classifier_head not in HEADS:
            raise ConfigError(
                f"classifier head {self.classifier_head!r} is not supported: recurrent/"
                "hybrid heads are not implemented; choose 'softmax_linear' or 'mlp'")


_FIELD_MAP = {
    "lr": "learning_rate",
    "n_f": "n_filters",
    "s": "stride_fraction",
    "p_d": "dropout",
    "n_u": "dense_units",
    "conv_mode": "conv_mode",
    "n_conv_blocks": "n_conv_blocks",
    "activation": "activation",
    "head": "classifier_head",
    "classifier_head": "classifier_head",
    "epochs": "epochs",
    "batch_size": "batch_size",
}


def config_from_values(values: Mapping[str, float | int | str] | Configuration,
                       base: ModelConfig | None = None) -> ModelConfig:
    """Map a Configuration onto a ModelConfig.

    Known names map to fields (lr, ks1..ks3, n_f, s, p_d, n_u, ...); params
    named gain_<source_id> become per-source input gains; any other name
    raises ConfigError, as does a value that does not convert to the type
    of the field it sets.
    """
    if isinstance(values, Configuration):
        values = values.values
    cfg = base or ModelConfig()
    updates: dict = {}
    ks = list(cfg.kernel_sizes)
    gains = dict(cfg.source_gains)
    for name, v in values.items():
        key = f"hyperparameter {name}"
        if name in _FIELD_MAP:
            f = _FIELD_MAP[name]
            updates[f] = convert_key(key, getattr(cfg, f), v, ConfigError)
        elif name in ("ks1", "ks2", "ks3"):
            i = int(name[-1]) - 1
            ks[i] = convert_key(key, ks[i], v, ConfigError)
        elif name.startswith("gain_"):
            gains[name[len("gain_"):]] = convert_key(key, 0.0, v, ConfigError)
        else:
            raise ConfigError(f"unknown hyperparameter {name!r}")
    updates["kernel_sizes"] = tuple(ks)
    updates["source_gains"] = gains
    return replace(cfg, **updates)


# ---------------------------------------------------------------------------
# layers

# bytes of one (C*K, n*O) im2col patch block of a C > 1 conv; kernel timings
# stayed within host noise from 256 KB to 4 MB at the recovery and paper shapes
BLOCK = 1 << 20


class _Conv1d:
    """Strided 1-D convolution, W shaped (F, C, K), with one of two BLAS
    kernels chosen by the layer's shape at construction.

    Blocked im2col (C > 1): ``n = max(1, BLOCK // (8 * C * K * O))`` samples
    at a time are copied into a (C*K, n*O) patch block,
    ``block[c*K + k, i*O + o] = x[a + i, c, o*stride + k]``, so the samples
    of a block share one GEMM: forward is ``W.reshape(F, C*K) @ block``
    written into ``y[a:a+n]``, and dW accumulates ``dy_block @ block^T``
    with dy_block the (F, n*O) gradient of the same samples. col2im is K
    strided slice-adds of ``dcols = W.reshape(F, C*K)^T @ dy_block`` into
    ``dx[a:a+n, :, k:k+span:stride]``, where ``span = (O - 1) * stride + 1``
    reaches the O window starts.

    Patch (C == 1, the first layer of every split_channels stack): the
    (N, K, O) patch matrix ``cols[n, k, o] = x[n, 0, o*stride + k]`` is an
    ``as_strided`` view of the input, so forward is one batched GEMM
    ``W.reshape(F, K) @ cols``, dW is ``dy @ cols^T`` summed over the batch,
    and dx is the same K slice-adds of ``dcols = W.reshape(F, K).T @ dy``.
    It stays a view because it copies nothing: its backward peaks below
    half the input's size, and blocks timed no faster at the paper-scale
    split_channels shape.

    Resident input (the first conv of a stack, in a ``train`` call of more
    than one epoch): ``resident(x)`` is built once for the whole training
    set, and ``forward(r, keep, rows)`` runs the batch of samples ``rows``
    from it. At C > 1 it is the (C*K, N, O) patch array
    ``r[c*K + k, i, o] = x[i, c, o*stride + k]``, about K/stride times the
    size of x, and a batch's block is ``np.take(r, rows, axis=1)`` reshaped
    to (C*K, n*O): the same layout and values as the block above, so the
    GEMMs and their results are unchanged. At C == 1 it is x itself, whose
    patch view costs nothing. A one-epoch ``train`` builds each sample's
    patches once either way, and so holds none.

    Input samples past the last window get zero gradient. A forward with
    ``keep=True`` (training) keeps what backward reads: a reference to its
    input and, when the whole batch is one block of at most ``BLOCK`` bytes,
    that block, which backward uses and drops instead of copying it again. A
    batch that spans blocks is streamed again in backward, so the layer never
    holds more than ``BLOCK`` of patches besides a resident input. With
    ``keep=False`` (inference) it keeps nothing.

    With ``input_grad=False`` backward computes db and dW as above and
    returns None, skipping the ``dcols`` GEMMs and the slice-adds. Network
    sets it on the first conv of each stack, whose input is the data. The
    rule is the layer's position, not its shape: with ``n_filters=1`` a
    later block is C = 1 too, and its dx feeds the weights before it.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator, input_grad: bool = True):
        a = math.sqrt(6.0 / (c_in * kernel + c_out))
        self.W = rng.uniform(-a, a, (c_out, c_in, kernel))
        self.b = np.zeros(c_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.stride = stride
        self.kernel = kernel
        self.patches = c_in == 1
        self.input_grad = input_grad

    def out_len(self, L: int) -> int:
        return (L - self.kernel) // self.stride + 1

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """(N, K, O) patch view of a single-channel input; copies nothing."""
        return self._windows(x)[:, 0].transpose(0, 2, 1)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """(N, C, O, K) window view of x; copies nothing."""
        N, C, L = x.shape
        sn, sc, sl = x.strides
        return as_strided(x, (N, C, self.out_len(L), self.kernel),
                          (sn, sc, sl * self.stride, sl), writeable=False)

    def resident(self, x: np.ndarray) -> np.ndarray:
        """The input that ``forward(r, keep, rows)`` reads for samples of x:
        x itself at C == 1, else x's (C*K, N, O) patches."""
        if self.patches:
            return x
        N, C, _ = x.shape
        return self._windows(x).transpose(1, 3, 0, 2).reshape(C * self.kernel, N, -1)

    def _extent(self, x: np.ndarray, rows: np.ndarray | None) -> tuple[int, int]:
        """(samples, output length) of a batch x, or of rows of a resident x."""
        if rows is None:
            return len(x), self.out_len(x.shape[2])
        return len(rows), x.shape[2]

    def _blocks(self, x: np.ndarray, rows: np.ndarray | None = None):
        """Yield (a, n, block): the (C*K, n*O) patch block of x[a:a+n], or,
        given rows, of samples rows[a:a+n] of the resident patches x."""
        F, C, K = self.W.shape
        N, O = self._extent(x, rows)
        n = max(1, BLOCK // (8 * C * K * O))
        if rows is None:
            windows = self._windows(x)
            for a in range(0, N, n):
                block = windows[a:a + n]
                yield a, len(block), block.transpose(1, 3, 0, 2).reshape(C * K, -1)
        else:
            for a in range(0, N, n):
                r = rows[a:a + n]
                yield a, len(r), np.take(x, r, axis=1).reshape(C * K, -1)

    def forward(self, x: np.ndarray, keep: bool = True,
                rows: np.ndarray | None = None) -> np.ndarray:
        if rows is not None and self.patches:
            x, rows = x[rows], None
        self._x, self._rows, self._block = (x, rows, None) if keep else (None, None, None)
        W = self.W.reshape(len(self.W), -1)
        if self.patches:
            y = W @ self._cols(x)
        else:
            N, O = self._extent(x, rows)
            y = np.empty((N, len(W), O))
            for a, n, block in self._blocks(x, rows):
                y[a:a + n] = (W @ block).reshape(len(W), n, -1).transpose(1, 0, 2)
                if keep and n == N and block.nbytes <= BLOCK:
                    self._block = block
        y += self.b[None, :, None]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        x = self._x
        s = self.stride
        span = (dy.shape[2] - 1) * s + 1
        F, C, K = self.W.shape
        W = self.W.reshape(F, -1)
        self.db = dy.sum(axis=(0, 2))
        dx = np.zeros(x.shape) if self.input_grad else None
        if self.patches:
            cols = self._cols(x)
            self.dW = (dy @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.W.shape)
            if dx is not None:
                dcols = W.T @ dy
                for k in range(K):
                    dx[:, 0, k:k + span:s] += dcols[:, k]
            return dx
        dW = np.zeros_like(W)
        blocks = (self._blocks(x, self._rows) if self._block is None
                  else [(0, len(dy), self._block)])
        self._block = None
        for a, n, block in blocks:
            dy_block = dy[a:a + n].transpose(1, 0, 2).reshape(F, -1)
            dW += dy_block @ block.T
            if dx is not None:
                dcols = (W.T @ dy_block).reshape(C, K, n, -1)
                for k in range(K):
                    dx[a:a + n, :, k:k + span:s] += dcols[:, k].transpose(1, 0, 2)
        self.dW = dW.reshape(self.W.shape)
        return dx


class _Activation:
    def __init__(self, kind: str):
        self.kind = kind

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        if self.kind == "relu":
            mask = x > 0
            self._mask = mask if keep else None
            return x * mask
        out = np.tanh(x)
        self._out = out if keep else None
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return dy * self._mask
        return dy * (1.0 - self._out ** 2)


class _MaxPool2:
    """Max-pool of width 2 along the sequence, then the block's activation
    (``kind``, relu or tanh) in place: ``h = max(x[2i], x[2i+1])``, one
    ``np.maximum`` pass over the two strided halves, then ``max(h, 0)`` or
    ``tanh(h)`` written into h. Pooling first is exact because both
    activations are monotone, and the activation then runs on half the
    elements. An odd last input sample is dropped, and gets zero gradient.

    A forward with ``keep=True`` (training) keeps what backward reads: for
    relu the two bool masks "left and alive" and "right and alive", where
    left is ``x[2i] >= x[2i+1]`` and alive is ``h > 0``; for tanh left and
    the output. With ``keep=False`` (inference) it builds no mask and keeps
    nothing. Backward multiplies dy (for tanh, ``dy * (1 - h**2)``) by each
    mask straight into the even and odd slots of one ``np.empty`` gradient.
    """

    def __init__(self, kind: str):
        self.kind = kind

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        L = x.shape[2] - x.shape[2] % 2
        self._in_len = x.shape[2]
        a, b = x[:, :, 0:L:2], x[:, :, 1:L:2]
        h = np.maximum(a, b)
        self._left = self._right = self._out = None
        if self.kind == "relu":
            if keep:
                # both masks in one allocation: as two arrays they left the
                # heap more fragmented, and a paper_scale job's RSS 5 MB higher
                left, alive = np.empty((2,) + h.shape, bool)
                np.greater_equal(a, b, out=left)
                np.greater(h, 0.0, out=alive)
                left &= alive
                # alive and not left, written over alive
                self._left, self._right = left, np.greater(alive, left, out=alive)
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
            if keep:
                self._left, self._out = a >= b, h
        return h

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n = dy.shape[2]
        if self.kind == "relu":
            left, right = self._left, self._right
        else:
            dy = dy * (1.0 - self._out ** 2)
            left, right = self._left, ~self._left
        dx = np.empty(dy.shape[:2] + (self._in_len,))
        np.multiply(dy, left, out=dx[:, :, 0:2 * n:2])
        np.multiply(dy, right, out=dx[:, :, 1:2 * n:2])
        dx[:, :, 2 * n:] = 0.0
        return dx


class _Dense:
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 zero_init: bool = False):
        # the final classifier layer starts at zero so untrained features
        # contribute nothing until gradients say otherwise
        if zero_init:
            self.W = np.zeros((d_in, d_out))
        else:
            a = math.sqrt(6.0 / (d_in + d_out))
            self.W = rng.uniform(-a, a, (d_in, d_out))
        self.b = np.zeros(d_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        return x @ self.W + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.dW = self._x.T @ dy
        self.db = dy.sum(axis=0)
        return dy @ self.W.T


def stat_features(X: np.ndarray) -> np.ndarray:
    """(N, C, L) -> (N, 3C): per-channel mean, variance, spectral peak."""
    N, C, L = X.shape
    mean = X.mean(axis=2)
    var = X.var(axis=2)
    spec = np.abs(np.fft.rfft(X, axis=2))
    peak = spec[:, :, 1:].argmax(axis=2) + 1  # dominant nonzero frequency bin
    peak = peak / (L / 2)
    return np.concatenate([mean, var, peak], axis=1)


@dataclass(frozen=True)
class Resident:
    """A training set's first-layer inputs, from ``Network.resident``, and
    the samples ``rows`` of it that this value stands for. ``R[idx]`` is
    the batch ``rows[idx]``, which ``Network.loss_and_grads`` takes in
    place of ``X[idx]``."""
    inputs: list[np.ndarray]
    rows: np.ndarray

    def __getitem__(self, idx: np.ndarray) -> Resident:
        return Resident(self.inputs, self.rows[idx])

    def __len__(self) -> int:
        return len(self.rows)


class Network:
    """Block graph: per-group conv stacks (or statistical features) feeding a
    softmax head. Weight shapes are determined by conv_mode and the
    deployment's channel layout."""

    def __init__(self, config: ModelConfig, deployment: Deployment,
                 activities: Sequence[str], window_len: int, seed: int = 0):
        self.config = config
        self.deployment = deployment
        self.activities = tuple(activities)
        self.window_len = window_len
        self.seed = seed
        rng = derive_rng(seed)
        C = deployment.n_channels
        self.gain_vector = np.ones(C)
        for sid, g in config.source_gains.items():
            self.gain_vector[deployment.channel_slice(sid)] = g

        self.groups = _channel_groups(config.conv_mode, deployment)
        self.stacks: list[list] = []
        feat_dim = 0
        if config.n_conv_blocks == 0:
            feat_dim = 3 * C
        else:
            for g in self.groups:
                stack = []
                c_in, L = len(g), window_len
                for b in range(config.n_conv_blocks):
                    k = config.kernel_sizes[b]
                    stride = max(1, round(config.stride_fraction * k))
                    if k > L:
                        raise ConfigError(
                            f"kernel {k} of block {b + 1} exceeds sequence length {L}")
                    # the first conv's input is the data: no one reads its dx
                    conv = _Conv1d(c_in, config.n_filters, k, stride, rng,
                                   input_grad=b > 0)
                    stack.extend([conv, _MaxPool2(config.activation)])
                    L = conv.out_len(L) // 2
                    if L < 1:
                        raise ConfigError(f"block {b + 1} pools the sequence away")
                    c_in = config.n_filters
                self.stacks.append(stack)
                feat_dim += c_in * L
        self.feat_dim = feat_dim

        K = len(self.activities)
        self.head: list = []
        if config.classifier_head == "mlp":
            self.head.append(_Dense(feat_dim, int(config.dense_units), rng))
            self.head.append(_Activation(config.activation))
            self.head.append(_Dense(int(config.dense_units), K, rng, zero_init=True))
        else:
            self.head.append(_Dense(feat_dim, K, rng, zero_init=True))

    def _scaled(self, X: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Gather, then scale in place: one (N, C, L) temporary per group."""
        h = X[:, g, :]
        h *= self.gain_vector[g][None, :, None]
        return h

    def resident(self, X: np.ndarray) -> Resident:
        """X's first-layer inputs, built once for a training call that passes
        over X more than once: each stack's gain-scaled group through its
        first conv's ``resident``, or with no conv blocks the statistical
        features, which are per sample."""
        if self.config.n_conv_blocks == 0:
            inputs = [stat_features(X * self.gain_vector[None, :, None])]
        else:
            inputs = [stack[0].resident(self._scaled(X, g))
                      for g, stack in zip(self.groups, self.stacks)]
        return Resident(inputs, np.arange(len(X)))

    def features(self, X: np.ndarray | Resident, keep: bool = True) -> np.ndarray:
        """The head's input, for a batch X or a batch of a Resident. Every
        layer's forward keeps the state its backward reads, or with
        keep=False keeps nothing and drops what it held."""
        resident = isinstance(X, Resident)
        if self.config.n_conv_blocks == 0:
            if resident:
                return X.inputs[0][X.rows]
            return stat_features(X * self.gain_vector[None, :, None])
        outs = []
        for i, (g, stack) in enumerate(zip(self.groups, self.stacks)):
            if resident:
                h = stack[0].forward(X.inputs[i], keep, X.rows)
            else:
                h = stack[0].forward(self._scaled(X, g), keep)
            for layer in stack[1:]:
                h = layer.forward(h, keep)
            outs.append(h.reshape(len(h), -1))
        return np.concatenate(outs, axis=1)

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Inference forward: every layer runs with keep=False."""
        h = self.features(X, keep=False)
        for layer in self.head:
            h = layer.forward(h, keep=False)
        return h

    def loss_and_grads(self, X: np.ndarray | Resident, y_idx: np.ndarray,
                       training: bool = False,
                       rng: np.random.Generator | None = None) -> float:
        """Cross-entropy on a batch; leaves d(loss)/d(param) in every layer."""
        h = self.features(X)
        drop_mask = None
        for i, layer in enumerate(self.head):
            if i == len(self.head) - 1 and training and self.config.dropout > 0.0:
                p = self.config.dropout
                drop_mask = (rng.uniform(size=h.shape) >= p) / (1.0 - p)
                h = h * drop_mask
            h = layer.forward(h)
        probs = softmax(h)
        n = len(y_idx)
        loss = -float(np.log(np.maximum(probs[np.arange(n), y_idx], 1e-300)).mean())

        g = probs.copy()
        g[np.arange(n), y_idx] -= 1.0
        g /= n
        for i in reversed(range(len(self.head))):
            g = self.head[i].backward(g)
            if i == len(self.head) - 1 and drop_mask is not None:
                g = g * drop_mask
        if self.stacks:
            # every stack ends in (n_filters, L), concatenated group-major
            g = g.reshape(n, len(self.stacks), self.config.n_filters, -1)
            for gi, stack in enumerate(self.stacks):
                gg = g[:, gi]
                for layer in reversed(stack):
                    gg = layer.backward(gg)
        return loss

    def weighted(self) -> list[_Conv1d | _Dense]:
        """The layers that hold weights (W, b and their gradients dW, db), in
        update order: each stack's in turn, then the head's."""
        return [layer for layers in (*self.stacks, self.head) for layer in layers
                if isinstance(layer, (_Conv1d, _Dense))]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.weighted() for p in (layer.W, layer.b)]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.weighted() for g in (layer.dW, layer.db)]

    def sgd_step(self, lr: float) -> None:
        for layer in self.weighted():
            layer.W -= lr * layer.dW
            layer.b -= lr * layer.db

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.logits(X))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _channel_groups(conv_mode: str, deployment: Deployment) -> list[np.ndarray]:
    C = deployment.n_channels
    if conv_mode == "grouped_modalities":
        return [np.arange(C)]
    if conv_mode == "split_channels":
        return [np.array([c]) for c in range(C)]
    # split_modalities: all channels sharing a modality, across positions
    by_mod: dict[str, list[int]] = {}
    for s in deployment.sources:
        sl = deployment.channel_slice(s.id)
        by_mod.setdefault(s.modality, []).extend(range(sl.start, sl.stop))
    return [np.array(chs) for chs in by_mod.values()]


def build(config: ModelConfig, deployment: Deployment, activities: Sequence[str],
          window_len: int, seed: int = 0) -> Network:
    """Construct the untrained block graph for a deployment."""
    return Network(config, deployment, activities, window_len, seed=seed)


@dataclass
class TrainedModel:
    config: ModelConfig
    network: Network
    activities: tuple[str, ...]
    seed: int
    loss_trace: list[float]


def _frames_to_arrays(frames: Sequence[Frame], labels: Sequence[str]):
    """(X, y): the stacked samples of the frames whose label (the activity,
    or "null" for a null frame) is among `labels`, and that label's index."""
    usable = [(f.samples, labels.index(label)) for f in frames
              if (label := NULL_LABEL if f.is_null else f.activity) in labels]
    X = np.stack([x for x, _ in usable]) if usable else np.zeros((0, 1, 1))
    return X, np.array([i for _, i in usable], dtype=int)


def train(network: Network, frames: Sequence[Frame], config: ModelConfig | None = None,
          seed: int = 0) -> TrainedModel:
    """Mini-batch gradient descent on cross-entropy for config.epochs.

    Deterministic per seed (fixed shuffle and reduction order). Raises
    TrainingDiverged naming the epoch if the loss goes non-finite. With more
    than one epoch the training set's first-layer inputs are built once
    (``Network.resident``) in place of the stacked frames; the batches and
    their results are the same.
    """
    config = config or network.config
    activities = network.activities
    X, y = _frames_to_arrays(frames, activities)
    present = {activities[i] for i in y}
    missing = set(activities) - present
    if missing:
        raise ConfigError(f"no training frames for activities {sorted(missing)}")
    if int(config.epochs) > 1:
        X = network.resident(X)
    rng = derive_rng(seed, 7)
    trace: list[float] = []
    n = len(y)
    bs = min(config.batch_size, n)
    for epoch in range(int(config.epochs)):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            loss = network.loss_and_grads(X[idx], y[idx], training=True, rng=rng)
            network.sgd_step(config.learning_rate)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise TrainingDiverged(epoch)
        trace.append(epoch_loss)
    return TrainedModel(config=config, network=network, activities=activities,
                        seed=seed, loss_trace=trace)


@dataclass
class Metrics:
    labels: tuple[str, ...]
    confusion: np.ndarray
    macro_f1: float
    nu: float
    per_activity_nu: dict[str, float]
    include_null: bool

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "confusion": self.confusion.tolist(),
            "macro_f1": self.macro_f1,
            "nu": self.nu,
            "per_activity_nu": dict(sorted(self.per_activity_nu.items())),
            "include_null": self.include_null,
        }


def macro_f1_from_confusion(confusion: np.ndarray) -> float:
    """Mean per-class f1; rows are true classes, columns predictions."""
    K = confusion.shape[0]
    f1s = []
    for k in range(K):
        tp = confusion[k, k]
        fn = confusion[k].sum() - tp
        fp = confusion[:, k].sum() - tp
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def evaluate(model: TrainedModel | Network, frames: Sequence[Frame],
             include_null: bool = False) -> Metrics:
    """Argmax predictions, confusion matrix, macro f1, and the 0/1 losses.

    include_null=False drops null-class frames entirely; include_null=True
    keeps them as an extra 'null' row/column (predicted-null never happens
    unless the model was trained with a null class)."""
    network = model.network if isinstance(model, TrainedModel) else model
    activities = list(network.activities)
    labels = list(activities)
    if include_null and NULL_LABEL not in labels:
        labels = labels + [NULL_LABEL]
    X, true_idx = _frames_to_arrays(frames, labels)
    if not len(true_idx):
        raise ConfigError("no frames to evaluate")
    pred_idx = network.predict_proba(X).argmax(axis=1)
    K = len(labels)
    confusion = np.zeros((K, K), dtype=int)
    np.add.at(confusion, (true_idx, pred_idx), 1)
    nu = 1.0 - float((pred_idx == true_idx).mean())
    per_nu = {}
    for i, a in enumerate(activities):
        row = confusion[labels.index(a)]
        per_nu[a] = 1.0 - row[labels.index(a)] / row.sum() if row.sum() else 0.0
    return Metrics(labels=tuple(labels), confusion=confusion,
                   macro_f1=macro_f1_from_confusion(confusion), nu=nu,
                   per_activity_nu=per_nu, include_null=include_null)


# ---------------------------------------------------------------------------
# masked-sample incorporation

def mask_augment(frames: Sequence[Frame], subsets: Mapping[str, frozenset[str] | set[str]],
                 noise_sigma: float, seed: int, deployment: Deployment,
                 supplement: bool = False) -> list[Frame]:
    """Replace channels of unselected sources with Gaussian(0, noise_sigma).

    Channels of selected sources are copied untouched (bitwise equal). With
    supplement=True the originals are kept and masked copies appended (fresh
    frame ids); otherwise masked frames replace the originals."""
    known = set(deployment.source_ids)
    for y, subset in subsets.items():
        unknown = set(subset) - known
        if unknown:
            raise ConfigError(f"subset for {y!r} names unknown sources {sorted(unknown)}")
    out: list[Frame] = []
    next_id = max((f.frame_id for f in frames), default=-1) + 1
    for f in frames:
        if f.activity is None:
            out.append(f)
            continue
        if f.activity not in subsets:
            raise ConfigError(f"no subset entry for activity {f.activity!r}")
        keep = subsets[f.activity]
        samples = f.samples.copy()
        rng = derive_rng(seed, f.frame_id)
        for s in deployment.sources:
            if s.id not in keep:
                sl = deployment.channel_slice(s.id)
                shape = samples[sl].shape
                samples[sl] = rng.normal(0.0, noise_sigma, shape) if noise_sigma > 0 else 0.0
        if supplement:
            out += [f, replace(f, frame_id=next_id, samples=samples)]
            next_id += 1
        else:
            out.append(replace(f, samples=samples))
    return out


@dataclass
class ProtocolResult:
    mode: str
    per_fold: list[Metrics]
    mean_f1: float
    std_f1: float

    def to_json(self) -> dict:
        return {"mode": self.mode, "mean_f1": self.mean_f1, "std_f1": self.std_f1,
                "per_fold": [m.to_json() for m in self.per_fold]}


def fallbacks(dgp: DgpModel | None, dataset: Dataset) -> list[str]:
    """The activities whose subset under `dgp` is empty or missing: they
    train on all sources."""
    return [y for y in dataset.activities if dgp is not None and not dgp.subsets.get(y)]


def training_subsets(dgp: DgpModel | None, dataset: Dataset,
                     supplement: bool = False) -> dict[str, frozenset[str]] | None:
    """The sources each activity's training frames keep under `dgp`, an empty
    or missing subset falling back to all sources; None when masking would
    change no training frame: no model, or every activity keeping every
    source with supplement off."""
    if dgp is None:
        return None
    all_sources = frozenset(dataset.deployment.source_ids)
    fell_back = fallbacks(dgp, dataset)
    subsets = {y: all_sources if y in fell_back else frozenset(dgp.subsets[y])
               for y in dataset.activities}
    return subsets if supplement or set(subsets.values()) != {all_sources} else None


def run_protocol(dataset: Dataset, folds: FoldAssignment, config: ModelConfig,
                 dgp: DgpModel | None = None, mode: str = "wo-DGP", seed: int = 0,
                 include_null: bool = False, supplement: bool = False) -> ProtocolResult:
    """Cross-validated train/evaluate over the fold assignment.

    w-DGP and w-HExp apply mask_augment with the model's training_subsets to
    the training folds only, warning once per activity that falls back."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if mode in ("w-DGP", "w-HExp") and dgp is None:
        raise ConfigError(f"mode {mode} requires a DgpModel")
    frames = dataset.frames
    activities = tuple(dataset.activities)
    dgp = None if mode == "wo-DGP" else dgp
    for y in fallbacks(dgp, dataset):
        logger.warning("activity %r: empty subset, falling back to all sources", y)
    subsets = training_subsets(dgp, dataset, supplement)
    per_fold: list[Metrics] = []
    window_len = frames[0].samples.shape[1]
    for fold in range(folds.k):
        train_frames, val_frames = folds.split(frames, fold)
        if subsets is not None:
            train_frames = mask_augment(train_frames, subsets, config.mask_sigma,
                                        int(derive_rng(seed, 11, fold).integers(2 ** 31)),
                                        dataset.deployment, supplement=supplement)
        network = build(config, dataset.deployment, activities, window_len,
                        seed=int(derive_rng(seed, 12, fold).integers(2 ** 31)))
        trained = train(network, train_frames, config,
                        seed=int(derive_rng(seed, 13, fold).integers(2 ** 31)))
        per_fold.append(evaluate(trained, val_frames, include_null=include_null))
    f1s = np.array([m.macro_f1 for m in per_fold])
    return ProtocolResult(mode=mode, per_fold=per_fold,
                          mean_f1=float(f1s.mean()), std_f1=float(f1s.std()))
