"""Synthetic generation, non-IID partitioning, and the IDX loader."""

import struct

import numpy as np
import pytest

from fednetsim.datasets import (
    DatasetSource,
    PartitionError,
    gen_synthetic,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    partition,
)
from fednetsim.models import ModelSpec, forward_eval, init_model, local_train


class TestGenSynthetic:
    def test_counts(self):
        src = gen_synthetic(2, 5, 100, 1.0, seed=0)
        assert len(src) == 200
        assert (src.y == 0).sum() == 100
        assert (src.y == 1).sum() == 100

    def test_deterministic(self):
        a = gen_synthetic(3, 4, 50, 2.0, seed=9)
        b = gen_synthetic(3, 4, 50, 2.0, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = gen_synthetic(3, 4, 50, 2.0, seed=10)
        assert not np.array_equal(a.x, c.x)

    def test_zero_separation_is_chance_level(self):
        # train a linear classifier and evaluate on 1000 fresh points from the
        # same (single) blob: accuracy must be indistinguishable from 1/C
        src = gen_synthetic(4, 6, 500, 0.0, seed=3)
        test = gen_synthetic(4, 6, 250, 0.0, seed=4)
        spec = ModelSpec(6, (), 4)
        theta = init_model(spec, 0)
        delta = local_train(theta, spec, src.all_examples(), 50, 0.5, None, 0)
        acc = forward_eval(theta + delta, spec, test.all_examples()).accuracy
        assert abs(acc - 0.25) < 0.05

    def test_large_separation_is_separable(self):
        # held-out points come from the same draw (same class geometry)
        src = gen_synthetic(3, 8, 400, 10.0, seed=5)
        holdout = np.concatenate([np.flatnonzero(src.y == c)[300:] for c in range(3)])
        trained = np.concatenate([np.flatnonzero(src.y == c)[:300] for c in range(3)])
        spec = ModelSpec(8, (), 3)
        theta = init_model(spec, 1)
        delta = local_train(theta, spec, src.subset(trained), 200, 0.5, None, 0)
        acc = forward_eval(theta + delta, spec, src.subset(holdout)).accuracy
        assert acc >= 0.99

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 4, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(3, 4, 0, 1.0, seed=0)


class TestPartition:
    def make_src(self, per_class=600, classes=5, seed=1):
        return gen_synthetic(classes, 6, per_class, 2.0, seed=seed)

    def test_target_quota_exact(self):
        src = self.make_src()
        plan = partition(src, n=10, k=3, target_class=0, alpha_t=0.5, alpha_d=1.0, local_size=40, seed=2)
        assert len(plan.target_client_ids) == 3
        for j in range(10):
            count = int((src.y[plan.shards[j]] == 0).sum())
            if j in plan.target_client_ids:
                assert count == 20  # ceil(0.5 * 40)
            else:
                assert count == 0

    def test_k_zero_no_target_examples(self):
        src = self.make_src()
        plan = partition(src, n=8, k=0, target_class=2, alpha_t=0.5, alpha_d=1.0, local_size=30, seed=3)
        for shard in plan.shards:
            assert (src.y[shard] == 2).sum() == 0

    def test_disjoint_and_exact_sizes(self):
        src = self.make_src()
        plan = partition(src, n=12, k=4, target_class=1, alpha_t=0.7, alpha_d=0.5, local_size=35, seed=4)
        all_idx = np.concatenate(plan.shards)
        assert len(all_idx) == 12 * 35
        assert len(np.unique(all_idx)) == len(all_idx)
        for shard in plan.shards:
            assert len(shard) == 35

    def test_high_concentration_is_near_uniform(self):
        # alpha_d -> inf concentrates the Dirichlet at uniform proportions;
        # with 4 non-target classes every count should sit near local_size/4
        src = self.make_src(per_class=2000, classes=5)
        hits = 0
        trials = 100
        for seed in range(trials):
            plan = partition(src, n=6, k=0, target_class=0, alpha_t=0.5, alpha_d=1e6, local_size=40, seed=seed)
            ok = True
            for shard in plan.shards:
                counts = np.bincount(src.y[shard], minlength=5)[1:]
                if np.abs(counts - 10).max() > 2:  # 20% of local_size/4
                    ok = False
            hits += ok
        assert hits >= 99

    def test_determinism(self):
        src = self.make_src()
        a = partition(src, 10, 3, 0, 0.5, 1.0, 40, seed=77)
        b = partition(src, 10, 3, 0, 0.5, 1.0, 40, seed=77)
        assert a.target_client_ids == b.target_client_ids
        assert all(np.array_equal(x, y) for x, y in zip(a.shards, b.shards))

    def test_exhaustion_error_names_class(self):
        src = self.make_src(per_class=50)
        with pytest.raises(PartitionError, match="class 0"):
            partition(src, n=10, k=8, target_class=0, alpha_t=0.9, alpha_d=1.0, local_size=40, seed=5)

    def test_rejects_bad_arguments(self):
        src = self.make_src()
        with pytest.raises(ValueError):
            partition(src, 10, 11, 0, 0.5, 1.0, 40, seed=0)
        with pytest.raises(ValueError):
            partition(src, 10, 3, 0, 0.0, 1.0, 40, seed=0)
        with pytest.raises(ValueError):
            partition(src, 10, 3, 9, 0.5, 1.0, 40, seed=0)


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
        src = load_idx_dataset(img_path, lab_path)
        assert isinstance(src, DatasetSource)
        assert src.x.shape == (7, 12)
        assert src.x.min() >= 0.0 and src.x.max() <= 1.0
        assert np.array_equal(src.y, labels)
        assert src.class_count == 3
        # pixel 255 maps to 1.0 exactly
        flat = images.reshape(7, 12)
        assert np.allclose(src.x, flat / 255.0)

    def test_bad_magic_rejected(self, tmp_path):
        img_path = tmp_path / "bad.idx"
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000801, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(ValueError, match="magic"):
            load_idx_dataset(img_path, img_path)

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        img_path, _ = self.write_idx(tmp_path, rng.integers(0, 256, (3, 2, 2)), np.array([0, 1, 0]), stem="a")
        _, lab2 = self.write_idx(tmp_path, rng.integers(0, 256, (2, 2, 2)), np.array([0, 1]), stem="b")
        with pytest.raises(ValueError, match="counts differ"):
            load_idx_dataset(img_path, lab2)

    @pytest.mark.parametrize("loader", [load_idx_images, load_idx_labels])
    @pytest.mark.parametrize("size", [0, 3, 7])
    def test_truncated_header_rejected(self, tmp_path, loader, size):
        path = tmp_path / "short.idx"
        path.write_bytes(bytes(size))
        with pytest.raises(ValueError, match="truncated IDX header") as exc:
            loader(path)
        assert str(path) in str(exc.value)
