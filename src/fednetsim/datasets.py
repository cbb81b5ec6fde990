"""Synthetic data generation, the IDX reader, and non-IID client partitioning.

The client population is built the same way for every experiment: a small
set of k designated clients holds the target class at a fixed fraction
``alpha_t`` of their local data, every other client holds none of it, and
all remaining slots are filled with class proportions drawn from a
Dirichlet distribution with concentration ``alpha_d`` over the non-target
classes. Assignment is without replacement, so no example appears in two
shards.

Real data (the paper's EMNIST) comes as IDX files: ``load_idx`` reads one
of any dimension count, 3-d images or 1-d labels.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from fednetsim.seeding import TAG_PARTITION_DRAW, TAG_SYNTHETIC_DRAW, spawn_rng


class PartitionError(ValueError):
    """Raised when a class pool cannot cover the requested shards."""


@dataclass(frozen=True)
class ExampleSet:
    """A batch of labeled examples: features ``x`` (n, d) and labels ``y`` (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("features must be (n, d) and labels (n,) with matching n")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices) -> "ExampleSet":
        idx = np.asarray(indices, dtype=np.int64)
        return ExampleSet(self.x[idx], self.y[idx])


def _check_labels(y: np.ndarray, class_count: int) -> None:
    if len(y) and (y.min() < 0 or y.max() >= class_count):
        raise ValueError("labels must lie in [0, class_count)")


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of pooled example indices to n disjoint client shards."""

    target_client_ids: tuple[int, ...]
    shards: tuple[np.ndarray, ...]


def synthetic_labels(class_count: int, rows_per_class: int) -> np.ndarray:
    """Labels of a ``gen_synthetic`` set: class c's rows are contiguous, classes in order."""
    return np.repeat(np.arange(class_count, dtype=np.int64), rows_per_class)


def gen_synthetic(
    class_count: int,
    input_dim: int,
    per_class: int,
    eval_per_class: int,
    separation: float,
    seed: int,
    keep=None,
) -> tuple[ExampleSet, ExampleSet]:
    """Gaussian blob classes with unit covariance: training rows and a held-out set.

    Class c is centered at ``separation * u_c`` where the ``u_c`` are rows of
    a seeded orthonormal-ish matrix (exactly orthonormal when
    class_count <= input_dim). ``separation = 0`` makes the classes
    indistinguishable; a few units of separation makes them linearly
    separable with high probability.

    Both sets share the class geometry and differ only in sampled points.
    After the directions, the stream gives, class by class, c's
    ``per_class`` training rows and then its ``eval_per_class`` held-out
    rows. The full training draw has ``class_count * per_class`` rows, those
    of class c at ``c * per_class`` onward (labels ``synthetic_labels``), and
    ``keep`` lists the indices of its rows to return, in that order; None
    keeps them all. Each class block is drawn into one reused buffer, so the
    full draw is never held, and every kept row is bit-equal to its row of
    the full draw. The held-out set is drawn whole, laid out the same way.
    """
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if eval_per_class < 0:
        raise ValueError("eval_per_class must be >= 0")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    pool = class_count * per_class
    keep = np.arange(pool) if keep is None else np.asarray(keep, dtype=np.int64)
    if keep.ndim != 1 or (len(keep) and (keep.min() < 0 or keep.max() >= pool)):
        raise ValueError(f"keep must list training row indices in [0, {pool})")
    rng = spawn_rng(seed, TAG_SYNTHETIC_DRAW)
    if class_count <= input_dim:
        q, _ = np.linalg.qr(rng.standard_normal((input_dim, class_count)))
        directions = q.T
    else:
        raw = rng.standard_normal((class_count, input_dim))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    train_y = keep // per_class
    train_x = np.empty((len(keep), input_dim))
    test_x = np.empty((class_count * eval_per_class, input_dim))
    block = np.empty((per_class, input_dim))
    for c in range(class_count):
        mean = separation * directions[c]
        held_out = test_x[c * eval_per_class : (c + 1) * eval_per_class]
        for x in (block, held_out):
            rng.standard_normal(out=x)
            np.add(mean, x, out=x)
        rows = np.flatnonzero(train_y == c)
        train_x[rows] = block[keep[rows] - c * per_class]
    return ExampleSet(train_x, train_y), ExampleSet(test_x, synthetic_labels(class_count, eval_per_class))


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``; a stable sort gives remainder ties to the lower index."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    remainders = raw - counts
    counts[np.argsort(-remainders, kind="stable")[:short]] += 1
    return counts


def holder_quota(alpha_t: float, local_size: int) -> int:
    """A target holder's target-class examples: ``ceil(alpha_t * local_size)``, in float arithmetic."""
    return math.ceil(alpha_t * local_size)


def partition(
    labels: np.ndarray,
    class_count: int,
    n: int,
    k: int,
    target_class: int,
    alpha_t: float,
    alpha_d: float,
    local_size: int,
    seed: int,
) -> PartitionPlan:
    """Build the non-IID population: k target-class holders, Dirichlet rest.

    The example pool is given by its labels alone and the plan's shards are
    indices into it, so a caller can draw or keep the features of just the
    rows the shards use. Each of the k target clients receives
    ``holder_quota(alpha_t, local_size)`` target-class examples; the
    remainder of its shard, and the entirety of every other client's shard,
    is filled with proportions drawn from Dirichlet(alpha_d) over the
    non-target classes. The pools are one shuffled index list per class,
    consumed front to back; a class that runs out raises
    :class:`PartitionError` naming it.
    """
    if not 0 < alpha_t <= 1:
        raise ValueError("alpha_t must be in (0, 1]")
    if alpha_d <= 0:
        raise ValueError("alpha_d must be > 0")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0 <= target_class < class_count:
        raise ValueError("target_class out of range")
    if local_size < 1:
        raise ValueError("local_size must be >= 1")
    _check_labels(labels, class_count)

    rng = spawn_rng(seed, TAG_PARTITION_DRAW)
    target_ids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    target_id_set = set(target_ids)
    pools = [rng.permutation(np.flatnonzero(labels == c)) for c in range(class_count)]
    cursors = [0] * class_count

    def take(c: int, count: int) -> np.ndarray:
        start = cursors[c]
        if start + count > len(pools[c]):
            raise PartitionError(
                f"class {c} exhausted: requested {count} more examples, only {len(pools[c]) - start} remain"
            )
        cursors[c] = start + count
        return pools[c][start : start + count]

    other_classes = [c for c in range(class_count) if c != target_class]
    if not other_classes:
        raise ValueError("need at least one non-target class")

    target_quota = holder_quota(alpha_t, local_size)
    shards: list[np.ndarray] = []
    for client in range(n):
        parts = []
        fill = local_size
        if client in target_id_set:
            parts.append(take(target_class, target_quota))
            fill -= target_quota
        if fill > 0:
            props = rng.dirichlet(np.full(len(other_classes), alpha_d))
            counts = _largest_remainder_counts(props, fill)
            for c, cnt in zip(other_classes, counts):
                if cnt:
                    parts.append(take(c, int(cnt)))
        shards.append(np.sort(np.concatenate(parts)))

    return PartitionPlan(target_client_ids=tuple(target_ids), shards=tuple(shards))


def load_idx(path, ndim: int) -> np.ndarray:
    """An IDX file of unsigned bytes with ``ndim`` dimensions, as a uint8 array of that shape.

    IDX is big-endian: the magic word ``0x0800 | ndim`` (type 0x08, unsigned
    byte), ``ndim`` 32-bit sizes, then the body. The body's byte count comes
    from the header, so it is checked against the file size rather than
    trusted with an allocation.
    """
    size = 4 * (ndim + 1)
    with open(path, "rb") as fh:
        header = fh.read(size)
        if len(header) < size:
            raise ValueError(f"{path}: truncated IDX header ({len(header)} of {size} bytes)")
        magic, *shape = struct.unpack(f">{ndim + 1}I", header)
        if magic != 0x0800 | ndim:
            raise ValueError(f"{path}: bad magic 0x{magic:08x} for {ndim}-d unsigned-byte IDX")
        nbytes, available = math.prod(shape), os.fstat(fh.fileno()).st_size - size
        if nbytes > available:
            raise ValueError(f"{path}: truncated IDX data (header declares {nbytes} bytes, {available} follow)")
        return np.frombuffer(fh.read(nbytes), dtype=np.uint8).reshape(shape)


def load_idx_dataset(images_path, labels_path, class_count: int) -> ExampleSet:
    """Labeled examples from an IDX image/label file pair, labels checked against ``class_count``."""
    images = load_idx(images_path, 3)
    x = images.reshape(len(images), math.prod(images.shape[1:])).astype(np.float64) / 255.0
    y = load_idx(labels_path, 1).astype(np.int64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("image and label counts differ")
    _check_labels(y, class_count)
    return ExampleSet(x, y)
