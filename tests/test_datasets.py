"""Synthetic generation, non-IID partitioning, and the IDX loader."""

import math
import re
import struct
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednetsim.datasets import (
    ExampleSet,
    PartitionError,
    _largest_remainder_counts,
    gen_synthetic,
    holder_quota,
    load_idx,
    load_idx_dataset,
    partition,
    synthetic_labels,
)
from fednetsim.models import ModelSpec, init_model, local_train
from fednetsim.seeding import TAG_PARTITION_DRAW, TAG_SYNTHETIC_DRAW, spawn_rng

from conftest import accuracy_on


def _pooled_reference(class_count, input_dim, per_class, eval_per_class, separation, seed):
    """The earlier generator: one pooled draw of both sets' rows, then split per class."""
    rng = spawn_rng(seed, TAG_SYNTHETIC_DRAW)
    if class_count <= input_dim:
        q, _ = np.linalg.qr(rng.standard_normal((input_dim, class_count)))
        directions = q.T
    else:
        raw = rng.standard_normal((class_count, input_dim))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rows = per_class + eval_per_class
    xs = [separation * directions[c] + rng.standard_normal((rows, input_dim)) for c in range(class_count)]
    pooled = ExampleSet(np.concatenate(xs), np.repeat(np.arange(class_count, dtype=np.int64), rows))
    by_class = [np.flatnonzero(pooled.y == c) for c in range(class_count)]
    train = pooled.subset(np.concatenate([idx[:per_class] for idx in by_class]))
    held_out = pooled.subset(np.concatenate([idx[per_class:] for idx in by_class]))
    return train, held_out


class TestGenSynthetic:
    def test_counts(self):
        train, held_out = gen_synthetic(2, 5, 100, 30, 1.0, seed=0)
        assert len(train) == 200 and len(held_out) == 60
        for c in (0, 1):
            assert (train.y == c).sum() == 100
            assert (held_out.y == c).sum() == 30

    def test_no_held_out_rows(self):
        train, held_out = gen_synthetic(3, 4, 10, 0, 1.0, seed=0)
        assert len(train) == 30
        assert held_out.x.shape == (0, 4) and held_out.y.shape == (0,)

    def test_deterministic(self):
        a, _ = gen_synthetic(3, 4, 50, 0, 2.0, seed=9)
        b, _ = gen_synthetic(3, 4, 50, 0, 2.0, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c, _ = gen_synthetic(3, 4, 50, 0, 2.0, seed=10)
        assert not np.array_equal(a.x, c.x)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 12),
        st.integers(1, 12),
        st.integers(1, 40),
        st.integers(0, 40),
        st.floats(0.0, 5.0),
        st.integers(0, 2**32),
    )
    @example(3, 8, 1, 1, 1.5, 11)
    @example(8, 3, 1, 1, 1.5, 11)
    def test_equals_pooled_draw_split_per_class(self, classes, dim, per_class, eval_per_class, sep, seed):
        # both direction branches: classes <= dim (QR) and classes > dim (normalized rows)
        new = gen_synthetic(classes, dim, per_class, eval_per_class, sep, seed)
        old = _pooled_reference(classes, dim, per_class, eval_per_class, sep, seed)
        for got, want in zip(new, old):
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 12),
        st.integers(1, 12),
        st.integers(1, 30),
        st.integers(0, 10),
        st.integers(0, 2**32),
        st.data(),
    )
    def test_kept_rows_are_those_rows_of_the_full_draw(self, classes, dim, per_class, eval_per_class, seed, data):
        # any index list: repeats, any order, empty
        keep = data.draw(st.lists(st.integers(0, classes * per_class - 1), max_size=3 * classes * per_class))
        full_train, full_held_out = gen_synthetic(classes, dim, per_class, eval_per_class, 1.5, seed)
        kept, held_out = gen_synthetic(classes, dim, per_class, eval_per_class, 1.5, seed, keep)
        idx = np.array(keep, dtype=np.int64)
        assert kept.x.shape == (len(keep), dim)
        assert kept.x.tobytes() == full_train.x[idx].tobytes()
        assert kept.y.tobytes() == full_train.y[idx].tobytes()
        assert held_out.x.tobytes() == full_held_out.x.tobytes()
        assert held_out.y.tobytes() == full_held_out.y.tobytes()

    def test_full_draw_labels(self):
        train, held_out = gen_synthetic(3, 4, 10, 5, 1.0, seed=0)
        assert np.array_equal(train.y, synthetic_labels(3, 10))
        assert np.array_equal(held_out.y, synthetic_labels(3, 5))

    @pytest.mark.parametrize("keep", [[-1], [30], [[0, 1]]])
    def test_rejects_rows_outside_the_draw(self, keep):
        with pytest.raises(ValueError, match="keep"):
            gen_synthetic(3, 4, 10, 0, 1.0, seed=0, keep=keep)

    def test_zero_separation_is_chance_level(self):
        # train a linear classifier and evaluate on 1000 fresh points from the
        # same (single) blob: accuracy must be indistinguishable from 1/C
        src, _ = gen_synthetic(4, 6, 500, 0, 0.0, seed=3)
        test, _ = gen_synthetic(4, 6, 250, 0, 0.0, seed=4)
        spec = ModelSpec(6, (), 4)
        theta = init_model(spec, 0)
        delta = local_train(theta, spec, [src], 50, 0.5, None, [0])[0]
        acc = accuracy_on(theta + delta, spec, test)
        assert abs(acc - 0.25) < 0.05

    def test_large_separation_is_separable(self):
        # held-out points come from the same draw (same class geometry)
        train, holdout = gen_synthetic(3, 8, 300, 100, 10.0, seed=5)
        spec = ModelSpec(8, (), 3)
        theta = init_model(spec, 1)
        delta = local_train(theta, spec, [train], 200, 0.5, None, [0])[0]
        acc = accuracy_on(theta + delta, spec, holdout)
        assert acc >= 0.99

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 4, 10, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(3, 4, 0, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(3, 4, 10, -1, 1.0, seed=0)


def _largest_remainder_reference(proportions, total):
    # the per-index loop: floors, then one more for each largest remainder,
    # equal remainders to the lower index
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    remainders = raw - counts
    order = sorted(range(len(proportions)), key=lambda i: (-remainders[i], i))
    for i in order[: total - int(counts.sum())]:
        counts[i] += 1
    return counts


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8).filter(any), st.integers(0, 60))
@example([1, 1, 1], 4)
@example([2, 1, 2, 1], 5)
def test_largest_remainder_counts_equal_the_loop(weights, total):
    # small integer weights make exact remainder ties common
    proportions = np.array(weights) / sum(weights)
    counts = _largest_remainder_counts(proportions, total)
    assert counts.tolist() == _largest_remainder_reference(proportions, total).tolist()
    assert int(counts.sum()) == total


def _partition_reference(labels, class_count, n, k, target_class, alpha_t, alpha_d, local_size, seed):
    # the cursor allocator: each client's parts taken front to back from
    # per-class cursors, every take checked against what its pool has left
    rng = spawn_rng(seed, TAG_PARTITION_DRAW)
    target_ids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    pools = [rng.permutation(np.flatnonzero(labels == c)) for c in range(class_count)]
    cursors = [0] * class_count

    def take(c, count):
        start = cursors[c]
        if start + count > len(pools[c]):
            raise PartitionError(
                f"class {c} exhausted: requested {count} more examples, only {len(pools[c]) - start} remain"
            )
        cursors[c] = start + count
        return pools[c][start : start + count]

    other_classes = [c for c in range(class_count) if c != target_class]
    quota = holder_quota(alpha_t, local_size)
    shards = []
    for client in range(n):
        parts = []
        fill = local_size
        if client in target_ids:
            parts.append(take(target_class, quota))
            fill -= quota
        if fill > 0:
            props = rng.dirichlet(np.full(len(other_classes), alpha_d))
            for c, cnt in zip(other_classes, _largest_remainder_counts(props, fill)):
                if cnt:
                    parts.append(take(c, int(cnt)))
        shards.append(np.sort(np.concatenate(parts)))
    return tuple(target_ids), tuple(shards)


def _column_totals(labels, class_count, n, k, target_class, alpha_t, alpha_d, local_size, seed):
    # the rows each class is asked for, replaying the allocator's draws
    # (target ids, class pools, one Dirichlet per client with rows left)
    rng = spawn_rng(seed, TAG_PARTITION_DRAW)
    target_ids = set(rng.choice(n, size=k, replace=False).tolist())
    for c in range(class_count):
        rng.permutation(np.flatnonzero(labels == c))
    other_classes = [c for c in range(class_count) if c != target_class]
    quota = holder_quota(alpha_t, local_size)
    totals = np.zeros(class_count, dtype=np.int64)
    for client in range(n):
        fill = local_size
        if client in target_ids:
            totals[target_class] += quota
            fill -= quota
        if fill > 0:
            props = rng.dirichlet(np.full(len(other_classes), alpha_d))
            totals[other_classes] += _largest_remainder_counts(props, fill)
    return totals


@st.composite
def _partition_inputs(draw):
    classes = draw(st.integers(2, 4))
    n = draw(st.integers(0, 6))
    return dict(
        labels=np.array(draw(st.lists(st.integers(0, classes - 1), max_size=120)), dtype=np.int64),
        class_count=classes,
        n=n,
        k=draw(st.integers(0, n)),
        target_class=draw(st.integers(0, classes - 1)),
        alpha_t=draw(st.sampled_from([1.0]) | st.floats(0.01, 1.0)),
        alpha_d=draw(st.sampled_from([1e-300, 0.05, 1.0, 1e6])),
        local_size=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32)),
    )


def _inputs(labels, n, k, alpha_t, alpha_d, local_size=6, seed=3):
    return dict(
        labels=np.asarray(labels, dtype=np.int64),
        class_count=3,
        n=n,
        k=k,
        target_class=0,
        alpha_t=alpha_t,
        alpha_d=alpha_d,
        local_size=local_size,
        seed=seed,
    )


@settings(deadline=None, max_examples=300)
@given(_partition_inputs())
@example(_inputs(synthetic_labels(3, 40), n=5, k=5, alpha_t=1.0, alpha_d=0.05))  # holders with no fill
@example(_inputs(synthetic_labels(3, 40), n=5, k=0, alpha_t=0.5, alpha_d=1e-300))
@example(_inputs(synthetic_labels(3, 40), n=6, k=6, alpha_t=0.5, alpha_d=1e6))
@example(_inputs(synthetic_labels(3, 5), n=6, k=2, alpha_t=0.5, alpha_d=1.0))  # runs a pool dry
def test_partition_equals_the_cursor_allocator(inputs):
    try:
        expected = _partition_reference(**inputs)
    except PartitionError:
        with pytest.raises(PartitionError) as raised:
            partition(**inputs)
        match = re.fullmatch(r"class (\d+) exhausted: (\d+) examples requested, (\d+) available", str(raised.value))
        assert match, str(raised.value)
        c, demand, available = map(int, match.groups())
        totals = _column_totals(**inputs)
        pool_sizes = np.bincount(inputs["labels"], minlength=inputs["class_count"])
        assert c == np.flatnonzero(totals > pool_sizes)[0]
        assert (demand, available) == (totals[c], pool_sizes[c])
        return
    plan = partition(**inputs)
    assert plan.target_client_ids == expected[0]
    assert len(plan.shards) == len(expected[1])
    for shard, reference in zip(plan.shards, expected[1]):
        assert shard.dtype == reference.dtype
        assert np.array_equal(shard, reference)


class TestPartition:
    def make_labels(self, per_class=600, classes=5):
        return synthetic_labels(classes, per_class)

    def test_target_quota_exact(self):
        labels = self.make_labels()
        plan = partition(labels, 5, n=10, k=3, target_class=0, alpha_t=0.5, alpha_d=1.0, local_size=40, seed=2)
        assert len(plan.target_client_ids) == 3
        for j in range(10):
            count = int((labels[plan.shards[j]] == 0).sum())
            if j in plan.target_client_ids:
                assert count == 20  # ceil(0.5 * 40)
            else:
                assert count == 0

    def test_k_zero_no_target_examples(self):
        labels = self.make_labels()
        plan = partition(labels, 5, n=8, k=0, target_class=2, alpha_t=0.5, alpha_d=1.0, local_size=30, seed=3)
        for shard in plan.shards:
            assert (labels[shard] == 2).sum() == 0

    def test_disjoint_and_exact_sizes(self):
        labels = self.make_labels()
        plan = partition(labels, 5, n=12, k=4, target_class=1, alpha_t=0.7, alpha_d=0.5, local_size=35, seed=4)
        all_idx = np.concatenate(plan.shards)
        assert len(all_idx) == 12 * 35
        assert len(np.unique(all_idx)) == len(all_idx)
        for shard in plan.shards:
            assert len(shard) == 35

    @settings(deadline=None, max_examples=60)
    @given(
        st.data(),
        st.integers(2, 5),
        st.integers(1, 12),
        st.integers(1, 20),
        st.floats(0.01, 1.0),
        st.floats(0.05, 10.0),
        st.integers(0, 2**32),
    )
    def test_disjoint_shards_with_exact_class_counts(
        self, data, classes, n, local_size, alpha_t, alpha_d, seed
    ):
        k = data.draw(st.integers(0, n))
        target_class = data.draw(st.integers(0, classes - 1))
        # every pool can cover every shard, so no class runs out
        labels = synthetic_labels(classes, n * local_size)
        plan = partition(labels, classes, n, k, target_class, alpha_t, alpha_d, local_size, seed=seed)
        assert len(plan.target_client_ids) == k
        assert list(plan.target_client_ids) == sorted(set(plan.target_client_ids))
        assert len(plan.shards) == n
        assert all(len(shard) == local_size for shard in plan.shards)
        rows = np.concatenate(plan.shards)
        assert len(np.unique(rows)) == len(rows)
        quota = math.ceil(alpha_t * local_size)
        for client, shard in enumerate(plan.shards):
            held = int((labels[shard] == target_class).sum())
            assert held == (quota if client in plan.target_client_ids else 0)

    def test_high_concentration_is_near_uniform(self):
        # alpha_d -> inf concentrates the Dirichlet at uniform proportions;
        # with 4 non-target classes every count should sit near local_size/4
        labels = self.make_labels(per_class=2000, classes=5)
        hits = 0
        trials = 100
        for seed in range(trials):
            plan = partition(labels, 5, n=6, k=0, target_class=0, alpha_t=0.5, alpha_d=1e6, local_size=40, seed=seed)
            ok = True
            for shard in plan.shards:
                counts = np.bincount(labels[shard], minlength=5)[1:]
                if np.abs(counts - 10).max() > 2:  # 20% of local_size/4
                    ok = False
            hits += ok
        assert hits >= 99

    def test_determinism(self):
        labels = self.make_labels()
        a = partition(labels, 5, 10, 3, 0, 0.5, 1.0, 40, seed=77)
        b = partition(labels, 5, 10, 3, 0, 0.5, 1.0, 40, seed=77)
        assert a.target_client_ids == b.target_client_ids
        assert all(np.array_equal(x, y) for x, y in zip(a.shards, b.shards))

    def test_exhaustion_error_names_class(self):
        labels = self.make_labels(per_class=50)
        with pytest.raises(PartitionError, match="class 0"):
            partition(labels, 5, n=10, k=8, target_class=0, alpha_t=0.9, alpha_d=1.0, local_size=40, seed=5)

    def test_rejects_bad_arguments(self):
        labels = self.make_labels()
        with pytest.raises(ValueError):
            partition(labels, 5, 10, 11, 0, 0.5, 1.0, 40, seed=0)
        with pytest.raises(ValueError):
            partition(labels, 5, 10, 3, 0, 0.0, 1.0, 40, seed=0)
        with pytest.raises(ValueError):
            partition(labels, 5, 10, 3, 9, 0.5, 1.0, 40, seed=0)

    @pytest.mark.parametrize("bad_label", [-1, 5])
    def test_rejects_out_of_range_label(self, bad_label):
        labels = self.make_labels()
        labels[7] = bad_label
        with pytest.raises(ValueError, match=r"labels must lie in \[0, class_count\)"):
            partition(labels, 5, 10, 3, 0, 0.5, 1.0, 40, seed=0)


IMAGES = partial(load_idx, ndim=3)
LABELS = partial(load_idx, ndim=1)


class TestIdxLoader:
    def write_idx(self, tmp_path, images, labels, stem="data"):
        img_path = tmp_path / f"{stem}_imgs.idx"
        lab_path = tmp_path / f"{stem}_labs.idx"
        count, rows, cols = images.shape
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
            fh.write(images.astype(np.uint8).tobytes())
        with open(lab_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, count))
            fh.write(labels.astype(np.uint8).tobytes())
        return img_path, lab_path

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 4, 3))
        labels = np.array([0, 1, 2, 0, 1, 2, 1])
        img_path, lab_path = self.write_idx(tmp_path, images, labels)
        src = load_idx_dataset(img_path, lab_path, 3)
        assert isinstance(src, ExampleSet)
        assert src.x.shape == (7, 12)
        assert src.x.min() >= 0.0 and src.x.max() <= 1.0
        assert np.array_equal(src.y, labels)
        # pixel 255 maps to 1.0 exactly
        flat = images.reshape(7, 12)
        assert np.allclose(src.x, flat / 255.0)

    @pytest.mark.parametrize("bad_label", [3, 255])
    def test_label_out_of_range_rejected(self, tmp_path, bad_label):
        images = np.zeros((4, 2, 2))
        img_path, lab_path = self.write_idx(tmp_path, images, np.array([0, 1, bad_label, 2]))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, class_count\)"):
            load_idx_dataset(img_path, lab_path, 3)

    def test_bad_magic_rejected(self, tmp_path):
        img_path = tmp_path / "bad.idx"
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000801, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(ValueError, match="magic"):
            load_idx_dataset(img_path, img_path, 3)

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        img_path, _ = self.write_idx(tmp_path, rng.integers(0, 256, (3, 2, 2)), np.array([0, 1, 0]), stem="a")
        _, lab2 = self.write_idx(tmp_path, rng.integers(0, 256, (2, 2, 2)), np.array([0, 1]), stem="b")
        with pytest.raises(ValueError, match="counts differ"):
            load_idx_dataset(img_path, lab2, 3)

    @pytest.mark.parametrize("loader", [IMAGES, LABELS], ids=["load_idx_images", "load_idx_labels"])
    @pytest.mark.parametrize("size", [0, 3, 7])
    def test_truncated_header_rejected(self, tmp_path, loader, size):
        path = tmp_path / "short.idx"
        path.write_bytes(bytes(size))
        with pytest.raises(ValueError, match="truncated IDX header") as exc:
            loader(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "ndim, data",
        [
            (3, struct.pack(">II", 0x00000801, 8) + bytes(8)),
            (1, struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(4)),
            (1, struct.pack(">II", 0x00000D01, 2) + bytes(8)),
        ],
        ids=["labels_read_as_images", "images_read_as_labels", "float_type"],
    )
    def test_magic_must_be_unsigned_bytes_of_ndim(self, tmp_path, ndim, data):
        # one rule, 0x0800 | ndim: the type byte 0x08 and the dimension count
        path = tmp_path / "wrong.idx"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="bad magic") as exc:
            load_idx(path, ndim)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "loader, header",
        [
            (IMAGES, struct.pack(">IIII", 0x00000803, 2**32 - 1, 0xFFFF, 0xFFFF)),
            (IMAGES, struct.pack(">IIII", 0x00000803, 2**20, 2**10, 2**10)),
            (LABELS, struct.pack(">II", 0x00000801, 2**32 - 1)),
        ],
        ids=["image_dims_overflow", "image_body_2**40", "label_body_2**32"],
    )
    def test_forged_body_size_rejected_without_allocating_it(self, tmp_path, loader, header):
        path = tmp_path / "forged.idx"
        path.write_bytes(header + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated .* data") as exc:
                loader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(exc.value)
        assert peak < 2**20

    @pytest.mark.parametrize(
        "loader, header",
        [
            (IMAGES, struct.pack(">IIII", 0x00000803, 2, 2, 2)),
            (LABELS, struct.pack(">II", 0x00000801, 8)),
        ],
        ids=["images", "labels"],
    )
    def test_body_one_byte_short_rejected(self, tmp_path, loader, header):
        path = tmp_path / "short_body.idx"
        path.write_bytes(header + bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            loader(path)
        path.write_bytes(header + bytes(8))
        assert loader(path).size == 8
