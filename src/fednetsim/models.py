"""Dense softmax classifier: flat parameter vectors, manual backprop, local SGD.

Model parameters live in a single float64 vector (weights then bias per
layer, layers in order), which is the unit every other module works with:
local updates are parameter-vector deltas, aggregation averages them, and
clipping bounds their norm. Evaluation sorts per-example losses before
summing so reported means are exactly invariant to batch order, and a
``(K, P)`` stack of parameter vectors is evaluated in one forward pass.

Local SGD is one function over a stack of K models: ``local_train`` trains
K clients from the same global model in one pass of numpy calls per step,
and a client trained alone is a stack of one. Every product is one BLAS
call per model, so each row of a stack is bit-equal to training that
client alone.

A round loop runs on one OpenBLAS thread (``one_blas_thread``): a product
large enough to start OpenBLAS's thread pool may sum in another order than
on one thread, and the started workers would spin through the rest of the
round.
"""

import ctypes
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from fednetsim.datasets import ExampleSet
from fednetsim.seeding import TAG_INIT_DRAW, TAG_SGD_ORDER, spawn_rng

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of the classifier: layer widths and hidden activation.

    An empty ``hidden_dims`` gives multinomial logistic regression.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    class_count: int = 2
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.class_count)

    def param_count(self) -> int:
        dims = self.layer_dims
        return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


@cache
def _openblas():
    """ctypes handle on the OpenBLAS numpy bundles, or None where it bundles none.

    Looked up on first use, through numpy's own extension module, whose
    symbol lookup also searches the libraries it links.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for name, argtypes, restype in (
            ("get_num_threads", (), ctypes.c_int),
            ("set_num_threads", (ctypes.c_int,), None),
            ("get_corename", (), ctypes.c_char_p),
        ):
            fn = getattr(lib, f"scipy_openblas_{name}64_")
            fn.argtypes, fn.restype = argtypes, restype
    except (AttributeError, OSError):
        return None
    return lib


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None without numpy's bundled OpenBLAS."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def blas_core() -> str | None:
    """The kernel OpenBLAS runs on this CPU (e.g. ``SkylakeX``), or None without it."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()


@contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the previous count.

    Inside, the bits of a product depend on neither the core count nor
    ``OPENBLAS_NUM_THREADS``. Does nothing without numpy's bundled OpenBLAS.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _layer_views(params: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into a ``(K, P)`` stack of flat vectors, one pair per layer.

    The views are ``(K, fan_in, fan_out)`` weights and ``(K, 1, fan_out)``
    biases, so one forward pass runs all K models; one model is a stack of
    one.
    """
    if params.ndim != 2 or params.shape[1] != spec.param_count():
        raise ValueError(
            f"parameter vector length {params.shape} does not match spec ({spec.param_count()})"
        )
    k = len(params)
    dims = spec.layer_dims
    out = []
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = params[:, offset : offset + fan_in * fan_out].reshape(k, fan_in, fan_out)
        offset += fan_in * fan_out
        out.append((w, params[:, None, offset : offset + fan_out]))
        offset += fan_out
    return out


def init_model(spec: ModelSpec, seed: int) -> np.ndarray:
    """Fan-scaled uniform weights, zero biases; deterministic per (spec, seed)."""
    rng = spawn_rng(seed, TAG_INIT_DRAW)
    chunks = []
    dims = spec.layer_dims
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _check_batch(spec: ModelSpec, batch: ExampleSet, context: str):
    if len(batch) == 0:
        raise ValueError(f"empty {context}")
    if batch.x.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dimension {batch.x.shape[1]} does not match input_dim {spec.input_dim}"
        )
    if batch.y.min() < 0 or batch.y.max() >= spec.class_count:
        raise ValueError("labels out of range for class_count")


def _forward(layers, activation: str, x: np.ndarray, buffers=None):
    """Logits plus the input of every layer (x, then each hidden activation).

    ``buffers``, if given, is ``_hidden_buffers`` output, and each hidden
    activation is written into its layer's first buffer.
    """
    h = x
    inputs = []
    for i, (w, b) in enumerate(layers[:-1]):
        inputs.append(h)
        h = np.matmul(h, w, out=None if buffers is None else buffers[i][0])
        h += b
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
    w, b = layers[-1]
    inputs.append(h)
    logits = h @ w
    logits += b
    return logits, inputs


def _hidden_buffers(spec: ModelSpec, k: int, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per hidden layer, two ``(k, rows, width)`` buffers for one SGD step.

    The first holds the activation, and then, once its last read is done,
    the error backpropagated to the layer's output; the second holds the
    activation's derivative (a relu mask or ``1 - tanh^2``). Training
    allocates them once per call and reuses them every step, so a step
    allocates no array of this size, whose fresh pages can fault on every
    step.
    """
    aux = bool if spec.activation == "relu" else np.float64
    return [(np.empty((k, rows, h)), np.empty((k, rows, h), aux)) for h in spec.hidden_dims]


def _backprop(layers, grads, activation: str, x: np.ndarray, y: np.ndarray, buffers):
    """Write each model's gradient of the mean cross-entropy over its (x, y) into ``grads``.

    ``layers`` and ``grads`` are stacked (weight, bias) views of ``(K, P)``
    parameter and gradient stacks, ``x`` is ``(K, rows, input_dim)``, ``y``
    is ``(K, rows)`` and ``buffers`` comes from ``_hidden_buffers``; inputs
    are not validated. The error reaching a hidden layer overwrites that
    layer's activation, after the weight gradient and the derivative have
    read it. Each product is one BLAS call per model, so every model's
    gradient equals its one-model (K=1) result bit for bit.
    """
    dz, inputs = _forward(layers, activation, x, buffers)
    k, rows, classes = dz.shape

    # softmax(logits) - onehot(y), over rows, computed in place
    dz -= dz.max(axis=-1, keepdims=True)
    np.exp(dz, out=dz)
    dz /= dz.sum(axis=-1, keepdims=True)
    dz.reshape(-1)[np.arange(k * rows) * classes + y.ravel()] -= 1.0
    dz /= rows

    for i in range(len(layers) - 1, -1, -1):
        h_in = inputs[i]
        gw, gb = grads[i]
        np.matmul(h_in.swapaxes(-1, -2), dz, out=gw)
        np.add.reduce(dz, axis=-2, keepdims=True, out=gb)
        if i > 0:
            # h_in is the previous layer's activation output: relu(z) > 0
            # exactly where z > 0, and tanh'(z) = 1 - tanh(z)^2.
            aux = buffers[i - 1][1]
            if activation == "relu":
                np.greater(h_in, 0.0, out=aux)
            else:
                np.square(h_in, out=aux)
                np.subtract(1.0, aux, out=aux)
            dz = np.matmul(dz, layers[i][0].swapaxes(-1, -2), out=h_in)
            dz *= aux


def _per_example_losses(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each row of ``(..., rows, classes)`` logits against y."""
    zmax = logits.max(axis=-1)
    lse = zmax + np.log(np.exp(logits - zmax[..., None]).sum(axis=-1))
    return lse - logits[..., np.arange(len(y)), y]


def _mean_loss(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy per model, summed over value-sorted per-example losses."""
    return np.sort(_per_example_losses(logits, y), axis=-1).sum(axis=-1) / len(y)


class EvalResult:
    """Mean loss, accuracy and correct count of one model, or of each model of a stack, on a batch.

    For one model they are a float, a float and an int; for a ``(K, P)``
    stack, arrays of K values. ``mean_loss`` and ``correct`` are each
    computed from the logits on first read and then kept, so a caller pays
    only for what it reads.
    """

    def __init__(self, logits: np.ndarray, y: np.ndarray):
        self._logits = logits
        self._y = y

    @cached_property
    def mean_loss(self) -> float | np.ndarray:
        loss = _mean_loss(self._logits, self._y)
        return loss if loss.ndim else float(loss)

    @cached_property
    def correct(self) -> int | np.ndarray:
        correct = (self._logits.argmax(axis=-1) == self._y).sum(axis=-1)
        return correct if correct.ndim else int(correct)

    @property
    def accuracy(self) -> float | np.ndarray:
        return self.correct / len(self._y)


def forward_eval(params: np.ndarray, spec: ModelSpec, batch: ExampleSet) -> EvalResult:
    """Mean softmax cross-entropy, argmax accuracy and correct count on a batch.

    Ties in the argmax go to the lowest class id. The loss mean is computed
    over value-sorted per-example losses, so permuting the batch cannot
    change the result. The forward pass runs here; the loss and the correct
    count are each computed on first read.

    ``params`` is one ``(P,)`` vector or a ``(K, P)`` stack. One forward
    pass evaluates all K models; each model's product is its own BLAS call,
    so every value equals the one-model result bit for bit.
    """
    _check_batch(spec, batch, "evaluation set")
    logits, _ = _forward(_layer_views(np.atleast_2d(params), spec), spec.activation, batch.x)
    return EvalResult(logits[0] if params.ndim == 1 else logits, batch.y)


def loss_gradient(params: np.ndarray, spec: ModelSpec, batch: ExampleSet) -> np.ndarray:
    """Gradient of the mean cross-entropy over the batch, as a flat vector."""
    _check_batch(spec, batch, "gradient batch")
    stack = params[None, :]
    grad = np.empty(stack.shape)
    _backprop(
        _layer_views(stack, spec),
        _layer_views(grad, spec),
        spec.activation,
        batch.x[None],
        batch.y[None],
        _hidden_buffers(spec, 1, len(batch)),
    )
    return grad[0]


def local_train(
    global_params: np.ndarray,
    spec: ModelSpec,
    shards: Sequence[ExampleSet],
    epochs: int,
    lr: float,
    batch_size: int | None,
    seeds: Sequence[int],
) -> np.ndarray:
    """``(K, P)`` deltas from ``epochs`` of seeded mini-batch SGD, row k from ``shards[k]``.

    Each client starts at the global model and shuffles each epoch from its
    own stream, keyed by its seed; ``batch_size`` of None or <= 0 takes the
    whole shard per step. A client trained alone is a stack of one, and row
    k is the same bits whatever else is in the stack. The shards have one
    length, so a step runs all K models through one pass of numpy calls and
    gathers only its own batch's rows. Inputs are validated before the first
    step; the deltas are the trained stack, the global model subtracted in place.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    k = len(shards)
    if len(seeds) != k:
        raise ValueError(f"{len(seeds)} seeds for {k} shards")
    if epochs == 0:
        return np.zeros((k, *global_params.shape))
    for shard in shards:
        _check_batch(spec, shard, "local dataset")
    n = len(shards[0])
    if any(len(shard) != n for shard in shards):
        raise ValueError("the shards of one stack must have equal length")

    theta = np.tile(global_params, (k, 1))
    layers = _layer_views(theta, spec)
    grad = np.empty_like(theta)
    grads = _layer_views(grad, spec)
    rngs = [spawn_rng(seed, TAG_SGD_ORDER) for seed in seeds]
    # every shard's rows, end to end, so one take per step gathers a batch of all K
    x = np.concatenate([shard.x for shard in shards])
    y = np.concatenate([shard.y for shard in shards])
    first_row = np.arange(0, k * n, n)[:, None]
    step = n if batch_size is None or batch_size <= 0 else min(batch_size, n)
    buffers = {rows: _hidden_buffers(spec, k, rows) for rows in {step, n % step} if rows}
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs]) + first_row
        for start in range(0, n, step):
            batch = order[:, start : start + step]
            yb = np.take(y, batch)
            _backprop(layers, grads, spec.activation, np.take(x, batch, axis=0), yb, buffers[yb.shape[1]])
            grad *= lr
            theta -= grad
    theta -= global_params
    return theta
