"""Synthetic data generation and non-IID client partitioning.

The client population is built the same way for every experiment: a small
set of k designated clients holds the target class at a fixed fraction
``alpha_t`` of their local data, every other client holds none of it, and
all remaining slots are filled with class proportions drawn from a
Dirichlet distribution with concentration ``alpha_d`` over the non-target
classes. Assignment is without replacement, so no example appears in two
shards.
"""

import struct
from dataclasses import dataclass

import numpy as np

from fednetsim.seeding import spawn_rng


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


@dataclass(frozen=True)
class DatasetSource:
    """Pooled examples plus a per-class index used for without-replacement draws."""

    x: np.ndarray
    y: np.ndarray
    class_count: int

    def __post_init__(self):
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return self.x.shape[0]

    def per_class_index(self) -> dict[int, np.ndarray]:
        return {c: np.flatnonzero(self.y == c) for c in range(self.class_count)}

    def subset(self, indices) -> ExampleSet:
        idx = np.asarray(indices, dtype=np.int64)
        return ExampleSet(self.x[idx], self.y[idx])

    def all_examples(self) -> ExampleSet:
        return ExampleSet(self.x, self.y)

    def class_examples(self, c: int) -> ExampleSet:
        return self.subset(np.flatnonzero(self.y == c))


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of pooled example indices to n disjoint client shards."""

    target_client_ids: tuple[int, ...]
    shards: tuple[np.ndarray, ...]


def gen_synthetic(
    class_count: int,
    input_dim: int,
    per_class: int,
    separation: float,
    seed: int,
) -> DatasetSource:
    """Gaussian blob classes with unit covariance.

    Class c is centered at ``separation * u_c`` where the ``u_c`` are rows of
    a seeded orthonormal-ish matrix (exactly orthonormal when
    class_count <= input_dim). ``separation = 0`` makes the classes
    indistinguishable; a few units of separation makes them linearly
    separable with high probability.
    """
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    rng = spawn_rng(seed, 1)
    if class_count <= input_dim:
        q, _ = np.linalg.qr(rng.standard_normal((input_dim, class_count)))
        directions = q.T
    else:
        raw = rng.standard_normal((class_count, input_dim))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    xs = []
    ys = []
    for c in range(class_count):
        mean = separation * directions[c]
        xs.append(mean + rng.standard_normal((per_class, input_dim)))
        ys.append(np.full(per_class, c, dtype=np.int64))
    return DatasetSource(np.concatenate(xs), np.concatenate(ys), class_count)


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``; ties broken by lower index."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    remainders = raw - counts
    order = sorted(range(len(proportions)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


class _ClassPools:
    """Seeded, shuffled per-class index pools consumed front to back."""

    def __init__(self, src: DatasetSource, rng: np.random.Generator):
        self._pools = {}
        self._cursor = {}
        for c, idx in src.per_class_index().items():
            self._pools[c] = rng.permutation(idx)
            self._cursor[c] = 0

    def take(self, c: int, count: int) -> np.ndarray:
        start = self._cursor[c]
        if start + count > len(self._pools[c]):
            raise PartitionError(
                f"class {c} exhausted: requested {count} more examples, "
                f"only {len(self._pools[c]) - start} remain"
            )
        self._cursor[c] = start + count
        return self._pools[c][start : start + count]


def partition(
    src: DatasetSource,
    n: int,
    k: int,
    target_class: int,
    alpha_t: float,
    alpha_d: float,
    local_size: int,
    seed: int,
) -> PartitionPlan:
    """Build the non-IID population: k target-class holders, Dirichlet rest.

    Each of the k target clients receives ``ceil(alpha_t * local_size)``
    target-class examples; the remainder of its shard, and the entirety of
    every other client's shard, is filled with proportions drawn from
    Dirichlet(alpha_d) over the non-target classes. Raises
    :class:`PartitionError` naming the class that ran out if any pool is
    too small, rather than silently substituting.
    """
    if not 0 < alpha_t <= 1:
        raise ValueError("alpha_t must be in (0, 1]")
    if alpha_d <= 0:
        raise ValueError("alpha_d must be > 0")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0 <= target_class < src.class_count:
        raise ValueError("target_class out of range")
    if local_size < 1:
        raise ValueError("local_size must be >= 1")

    rng = spawn_rng(seed, 2)
    target_ids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    target_id_set = set(target_ids)
    pools = _ClassPools(src, rng)
    other_classes = [c for c in range(src.class_count) if c != target_class]
    if not other_classes:
        raise ValueError("need at least one non-target class")

    target_quota = int(np.ceil(alpha_t * local_size))
    shards: list[np.ndarray] = []
    for client in range(n):
        parts = []
        fill = local_size
        if client in target_id_set:
            parts.append(pools.take(target_class, target_quota))
            fill -= target_quota
        if fill > 0:
            props = rng.dirichlet(np.full(len(other_classes), alpha_d))
            counts = _largest_remainder_counts(props, fill)
            for c, cnt in zip(other_classes, counts):
                if cnt:
                    parts.append(pools.take(c, int(cnt)))
        shard = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        shards.append(np.sort(shard))

    return PartitionPlan(target_client_ids=tuple(target_ids), shards=tuple(shards))


# IDX raster format (big-endian): magic 0x00000803 = images, 0x00000801 = labels.
_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx_header(fh, path, fmt: str) -> tuple[int, ...]:
    size = struct.calcsize(fmt)
    header = fh.read(size)
    if len(header) < size:
        raise ValueError(f"{path}: truncated IDX header ({len(header)} of {size} bytes)")
    return struct.unpack(fmt, header)


def load_idx_images(path) -> np.ndarray:
    """Flattened images from an IDX file, pixel values normalized to [0, 1]."""
    with open(path, "rb") as fh:
        magic, count, rows, cols = _read_idx_header(fh, path, ">IIII")
        if magic != _IDX_IMAGES_MAGIC:
            raise ValueError(f"{path}: bad image magic 0x{magic:08x}")
        raw = np.frombuffer(fh.read(count * rows * cols), dtype=np.uint8)
    if raw.size != count * rows * cols:
        raise ValueError(f"{path}: truncated image data")
    return raw.reshape(count, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Label vector from an IDX file."""
    with open(path, "rb") as fh:
        magic, count = _read_idx_header(fh, path, ">II")
        if magic != _IDX_LABELS_MAGIC:
            raise ValueError(f"{path}: bad label magic 0x{magic:08x}")
        raw = np.frombuffer(fh.read(count), dtype=np.uint8)
    if raw.size != count:
        raise ValueError(f"{path}: truncated label data")
    return raw.astype(np.int64)


def load_idx_dataset(images_path, labels_path, class_count: int | None = None) -> DatasetSource:
    """DatasetSource from an IDX image/label file pair."""
    x = load_idx_images(images_path)
    y = load_idx_labels(labels_path)
    if x.shape[0] != y.shape[0]:
        raise ValueError("image and label counts differ")
    if class_count is None:
        class_count = int(y.max()) + 1 if y.size else 0
    return DatasetSource(x, y, class_count)
