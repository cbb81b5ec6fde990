"""Core model: parameter layout, evaluation identities, gradients, local SGD."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fednetsim.models as models
from fednetsim.datasets import ExampleSet
from fednetsim.models import (
    ModelSpec,
    forward_eval,
    init_model,
    local_train,
    loss_gradient,
)
from fednetsim.seeding import spawn_rng


def random_batch(rng, spec, size):
    return ExampleSet(
        rng.standard_normal((size, spec.input_dim)),
        rng.integers(0, spec.class_count, size=size),
    )


def finite_difference(params, spec, batch, h=1e-5):
    """Central-difference gradient of the mean loss; the independent oracle."""
    grad = np.zeros_like(params)
    for i in range(len(params)):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        grad[i] = (
            forward_eval(plus, spec, batch).mean_loss
            - forward_eval(minus, spec, batch).mean_loss
        ) / (2 * h)
    return grad


class TestSpecAndInit:
    def test_param_count_arithmetic(self):
        assert ModelSpec(4, (), 3).param_count() == (4 + 1) * 3
        assert ModelSpec(8, (16,), 5).param_count() == (8 + 1) * 16 + (16 + 1) * 5
        assert ModelSpec(2, (3, 4), 2).param_count() == 3 * 3 + 4 * 4 + 5 * 2

    def test_init_length_and_determinism(self):
        spec = ModelSpec(4, (), 3)
        p = init_model(spec, 123)
        assert p.shape == (15,)
        assert np.array_equal(p, init_model(spec, 123))

    def test_adjacent_seeds_differ(self):
        spec = ModelSpec(6, (5,), 4)
        assert not np.array_equal(init_model(spec, 9), init_model(spec, 10))

    def test_biases_zero_weights_bounded(self):
        spec = ModelSpec(4, (3,), 2)
        p = init_model(spec, 0)
        w1 = p[:12]
        b1 = p[12:15]
        limit1 = math.sqrt(6 / (4 + 3))
        assert np.all(np.abs(w1) <= limit1)
        assert np.all(b1 == 0.0)

    @pytest.mark.parametrize("bad", [dict(input_dim=0), dict(class_count=1), dict(activation="gelu")])
    def test_invalid_spec_rejected(self, bad):
        kwargs = dict(input_dim=4, hidden_dims=(), class_count=3, activation="relu")
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)


class TestForwardEval:
    def test_uniform_logits_loss_is_ln_classcount(self):
        rng = np.random.default_rng(0)
        for class_count in (2, 3, 7):
            spec = ModelSpec(5, (), class_count)
            batch = random_batch(rng, spec, 17)
            res = forward_eval(np.zeros(spec.param_count()), spec, batch)
            assert abs(res.mean_loss - math.log(class_count)) < 1e-12

    def test_saturated_softmax(self):
        spec = ModelSpec(2, (), 3)
        # bias of class 1 dominates all logits by >= 50
        params = np.zeros(9)
        params[7] = 60.0
        batch = ExampleSet(np.zeros((1, 2)), np.array([1]))
        res = forward_eval(params, spec, batch)
        assert res.mean_loss < 1e-9
        assert res.accuracy == 1.0

    def test_binary_logistic_matches_closed_form(self):
        # one example, hand-set weights; loss must equal -ln sigmoid(z1 - z0)
        spec = ModelSpec(2, (), 2)
        params = np.array([0.3, -0.7, -1.1, 0.4, 0.05, -0.2])  # w (2x2) then b (2)
        x = np.array([[0.9, -1.4]])
        w = params[:4].reshape(2, 2)
        b = params[4:]
        z = x[0] @ w + b
        expected = math.log1p(math.exp(z[0] - z[1]))
        res = forward_eval(params, spec, ExampleSet(x, np.array([1])))
        assert abs(res.mean_loss - expected) < 1e-12

    def test_argmax_tie_breaks_to_lowest_class(self):
        spec = ModelSpec(2, (), 3)
        batch = ExampleSet(np.zeros((1, 2)), np.array([0]))
        res = forward_eval(np.zeros(9), spec, batch)  # all logits equal
        assert res.accuracy == 1.0
        batch2 = ExampleSet(np.zeros((1, 2)), np.array([2]))
        assert forward_eval(np.zeros(9), spec, batch2).accuracy == 0.0

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(6, (8,), 4)
        params = init_model(spec, 3) + 0.5 * rng.standard_normal(spec.param_count())
        batch = random_batch(rng, spec, 40)
        base = forward_eval(params, spec, batch)
        for _ in range(5):
            perm = rng.permutation(len(batch))
            shuffled = ExampleSet(batch.x[perm], batch.y[perm])
            res = forward_eval(params, spec, shuffled)
            assert res.mean_loss == base.mean_loss
            assert res.accuracy == base.accuracy

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        spec = ModelSpec(4, (6,), 5)
        for _ in range(20):
            params = rng.standard_normal(spec.param_count()) * 3
            batch = random_batch(rng, spec, 8)
            assert forward_eval(params, spec, batch).mean_loss >= 0.0

    def test_empty_batch_rejected(self):
        spec = ModelSpec(3, (), 2)
        with pytest.raises(ValueError, match="empty evaluation set"):
            forward_eval(np.zeros(8), spec, ExampleSet(np.empty((0, 3)), np.empty(0, dtype=int)))

    def test_dimension_mismatch_rejected(self):
        spec = ModelSpec(3, (), 2)
        with pytest.raises(ValueError):
            forward_eval(np.zeros(8), spec, ExampleSet(np.zeros((2, 4)), np.array([0, 1])))
        with pytest.raises(ValueError):
            forward_eval(np.zeros(9), spec, ExampleSet(np.zeros((2, 3)), np.array([0, 1])))


class TestGradients:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradient_matches_finite_differences(self, activation):
        rng = np.random.default_rng(17)
        for trial in range(25):
            input_dim = int(rng.integers(2, 5))
            hidden = (int(rng.integers(2, 5)),) if rng.random() < 0.5 else ()
            class_count = int(rng.integers(2, 4))
            spec = ModelSpec(input_dim, hidden, class_count, activation)
            if spec.param_count() > 50:
                continue
            params = init_model(spec, trial) + 0.3 * rng.standard_normal(spec.param_count())
            batch = random_batch(rng, spec, int(rng.integers(1, 5)))
            analytic = loss_gradient(params, spec, batch)
            numeric = finite_difference(params, spec, batch)
            rel = np.abs(analytic - numeric) / np.maximum(
                1e-8, np.maximum(np.abs(analytic), np.abs(numeric))
            )
            assert rel.max() < 1e-4


class TestLocalTrain:
    def setup_method(self):
        self.rng = np.random.default_rng(23)
        self.spec = ModelSpec(5, (7,), 3)
        self.params = init_model(self.spec, 1)
        self.shard = random_batch(self.rng, self.spec, 20)

    def test_zero_epochs_zero_delta(self):
        delta = local_train(self.params, self.spec, [self.shard], 0, 0.1, None, [0])[0]
        assert not delta.any()

    def test_vanishing_step_size(self):
        delta = local_train(self.params, self.spec, [self.shard], 1, 1e-30, None, [0])[0]
        assert np.abs(delta).max() < 1e-20

    def test_single_step_equals_lr_times_gradient(self):
        # one epoch, full batch: exactly one SGD step
        delta = local_train(self.params, self.spec, [self.shard], 1, 0.05, None, [0])[0]
        numeric = finite_difference(self.params, self.spec, self.shard)
        rel = np.abs(delta - (-0.05 * numeric)) / np.maximum(1e-8, np.abs(0.05 * numeric))
        assert rel.max() < 1e-4

    def test_deterministic_given_seed(self):
        a = local_train(self.params, self.spec, [self.shard], 3, 0.1, 7, [99])[0]
        b = local_train(self.params, self.spec, [self.shard], 3, 0.1, 7, [99])[0]
        assert np.array_equal(a, b)
        c = local_train(self.params, self.spec, [self.shard], 3, 0.1, 7, [100])[0]
        assert not np.array_equal(a, c)

    def test_empty_shard_rejected(self):
        empty = ExampleSet(np.empty((0, 5)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty local dataset"):
            local_train(self.params, self.spec, [empty], 1, 0.1, None, [0])

    def test_minibatches_cover_shard(self):
        # batch_size 6 over 20 examples: 4 batches per epoch, all examples used
        delta = local_train(self.params, self.spec, [self.shard], 1, 0.1, 6, [5])[0]
        assert delta.any()


def reference_local_train(params, spec, shard, epochs, lr, batch_size, seed):
    """SGD as a loop of validated ``loss_gradient`` calls; the oracle for local_train."""
    rng = spawn_rng(seed, 4)
    n = len(shard)
    step = n if batch_size is None else min(batch_size, n)
    theta = params.copy()
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, step):
            idx = order[start : start + step]
            theta -= lr * loss_gradient(theta, spec, ExampleSet(shard.x[idx], shard.y[idx]))
    return theta - params


def batch_size_of(kind, shard_size):
    """A batch size of the named kind for a shard of ``shard_size`` rows."""
    return {
        "none": None,
        "divisor": 1 if shard_size < 4 else next(d for d in (4, 3, 2, 1) if shard_size % d == 0),
        "non_divisor": shard_size - 1 if shard_size > 2 else None,
        "larger": shard_size + 5,
    }[kind]


class TestLocalTrainMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(
        activation=st.sampled_from(["relu", "tanh"]),
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=2),
        class_count=st.integers(2, 4),
        shard_size=st.integers(1, 17),
        batch=st.sampled_from(["none", "divisor", "non_divisor", "larger"]),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**31),
    )
    def test_bit_equal_to_reference_loop(
        self, activation, hidden, class_count, shard_size, batch, epochs, seed
    ):
        spec = ModelSpec(3, tuple(hidden), class_count, activation)
        rng = np.random.default_rng(seed)
        params = init_model(spec, seed) + 0.1 * rng.standard_normal(spec.param_count())
        shard = random_batch(rng, spec, shard_size)
        batch_size = batch_size_of(batch, shard_size)
        delta = local_train(params, spec, [shard], epochs, 0.2, batch_size, [seed])[0]
        expected = reference_local_train(params, spec, shard, epochs, 0.2, batch_size, seed)
        assert np.array_equal(delta, expected)

    @pytest.mark.parametrize(
        "params_len, x_dim, labels, match",
        [
            (-1, 5, [0, 1, 2], "parameter vector length"),
            (0, 4, [0, 1, 2], "feature dimension"),
            (0, 5, [0, 1, 3], "labels out of range"),
            (0, 5, [-1, 1, 2], "labels out of range"),
        ],
    )
    def test_bad_inputs_raise_before_any_step(self, monkeypatch, params_len, x_dim, labels, match):
        spec = ModelSpec(5, (7,), 3)
        params = np.zeros(spec.param_count() + params_len)
        shard = ExampleSet(np.zeros((3, x_dim)), np.array(labels))
        steps = []
        monkeypatch.setattr(models, "_backprop", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=match):
            local_train(params, spec, [shard], 1, 0.1, 1, [0])
        assert steps == []


class TestLocalTrainStack:
    @settings(deadline=None, max_examples=60)
    @given(
        activation=st.sampled_from(["relu", "tanh"]),
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=2),
        class_count=st.integers(2, 4),
        shard_size=st.integers(1, 17),
        batch=st.sampled_from(["none", "divisor", "non_divisor", "larger"]),
        k=st.integers(1, 6),
        epochs=st.integers(0, 2),
        seed=st.integers(0, 2**31),
    )
    def test_each_row_is_one_client_training(
        self, activation, hidden, class_count, shard_size, batch, k, epochs, seed
    ):
        spec = ModelSpec(3, tuple(hidden), class_count, activation)
        rng = np.random.default_rng(seed)
        params = init_model(spec, seed) + 0.1 * rng.standard_normal(spec.param_count())
        shards = [random_batch(rng, spec, shard_size) for _ in range(k)]
        batch_size = batch_size_of(batch, shard_size)
        seeds = [seed + i for i in range(k)]
        deltas = local_train(params, spec, shards, epochs, 0.2, batch_size, seeds)
        assert deltas.shape == (k, spec.param_count())
        for delta, shard, train_seed in zip(deltas, shards, seeds):
            alone = local_train(params, spec, [shard], epochs, 0.2, batch_size, [train_seed])[0]
            assert delta.tobytes() == alone.tobytes()

    def test_shards_of_one_stack_share_a_length(self):
        spec = ModelSpec(5, (7,), 3)
        rng = np.random.default_rng(3)
        shards = [random_batch(rng, spec, 6), random_batch(rng, spec, 5)]
        with pytest.raises(ValueError, match="equal length"):
            local_train(init_model(spec, 1), spec, shards, 1, 0.1, None, [1, 2])
        with pytest.raises(ValueError, match="1 seeds for 2 shards"):
            local_train(init_model(spec, 1), spec, shards[:1] * 2, 1, 0.1, None, [1])

    def test_peak_memory_is_what_the_steps_must_hold(self):
        # a standard round's stack: 10 clients of 200 rows, batches of 100,
        # 10 -> 64 -> 10 relu; the backpropagated error reuses the
        # activation's buffer, so no second (K, batch, 64) array is held, and
        # each step gathers only its own batch, so no epoch's shuffled copy
        # of the rows is held
        spec = ModelSpec(10, (64,), 10)
        k, rows, batch = 10, 200, 100
        rng = np.random.default_rng(5)
        shards = [random_batch(rng, spec, rows) for _ in range(k)]
        row_bytes = spec.input_dim * 8 + 8  # features and label
        held = (
            k * batch * spec.hidden_dims[0] * (8 + 1)  # one activation and one relu mask
            + k * rows * row_bytes  # the concatenated rows
            + k * batch * row_bytes  # one batch's take, gathered at its step
            + 2 * k * spec.param_count() * 8  # the parameter and gradient stacks
            + k * rows * 8  # the epoch's shuffle order
            + k * batch * spec.class_count * 8  # one step's logits
        )
        tracemalloc.start()
        try:
            local_train(init_model(spec, 5), spec, shards, 2, 0.1, batch, list(range(k)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 128 KiB for the global model and a step's smaller temporaries
        # (its row reductions and label index among them)
        assert peak <= held + 2**17, f"peak {peak} bytes, {peak - held} over the {held} the call must hold"


class TestMeanLossesMatchForwardEval:
    """A stack's ``forward_eval`` values match the one-model loop's, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(
        activation=st.sampled_from(["relu", "tanh"]),
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=2),
        class_count=st.integers(2, 4),
        k=st.integers(1, 12),
        rows=st.integers(1, 17),
        seed=st.integers(0, 2**31),
    )
    def test_bit_equal_to_per_model_loop(self, activation, hidden, class_count, k, rows, seed):
        spec = ModelSpec(3, tuple(hidden), class_count, activation)
        rng = np.random.default_rng(seed)
        stack = init_model(spec, seed) + 0.5 * rng.standard_normal((k, spec.param_count()))
        batch = random_batch(rng, spec, rows)
        res = forward_eval(stack, spec, batch)
        singles = [forward_eval(p, spec, batch) for p in stack]
        assert res.mean_loss.shape == res.correct.shape == (k,)
        assert np.array_equal(res.mean_loss, [r.mean_loss for r in singles])
        assert np.array_equal(res.correct, [r.correct for r in singles])
        assert np.array_equal(res.accuracy, [r.accuracy for r in singles])

    @pytest.mark.parametrize(
        "params_len, x_dim, labels, match",
        [
            (-1, 5, [0, 1, 2], "parameter vector length"),
            (1, 5, [0, 1, 2], "parameter vector length"),
            (0, 4, [0, 1, 2], "feature dimension 4 does not match input_dim 5"),
            (0, 5, [0, 1, 3], "labels out of range"),
            (0, 5, [-1, 1, 2], "labels out of range"),
        ],
    )
    def test_bad_inputs_raise_like_forward_eval(self, params_len, x_dim, labels, match):
        spec = ModelSpec(5, (7,), 3)
        params = np.zeros(spec.param_count() + params_len)
        batch = ExampleSet(np.zeros((3, x_dim)), np.array(labels))
        with pytest.raises(ValueError, match=match):
            forward_eval(params, spec, batch)
        with pytest.raises(ValueError, match=match):
            forward_eval(np.stack([params, params]), spec, batch)

    def test_a_stack_of_one_gives_arrays_and_a_vector_scalars(self):
        spec = ModelSpec(5, (7,), 3)
        params = init_model(spec, 3)
        batch = random_batch(np.random.default_rng(1), spec, 9)
        one = forward_eval(params, spec, batch)
        assert type(one.mean_loss) is float and type(one.correct) is int
        stacked = forward_eval(params[None, :], spec, batch)
        assert stacked.mean_loss.shape == stacked.correct.shape == (1,)
        assert stacked.mean_loss[0] == one.mean_loss and stacked.correct[0] == one.correct


class TestEvalResultIsLazy:
    def test_each_value_is_computed_on_first_read_only(self, monkeypatch):
        spec = ModelSpec(5, (7,), 3)
        batch = random_batch(np.random.default_rng(2), spec, 9)
        params = init_model(spec, 4)
        losses = []
        real = models._per_example_losses
        monkeypatch.setattr(models, "_per_example_losses", lambda *a: losses.append(1) or real(*a))
        res = forward_eval(params, spec, batch)
        assert res.accuracy == res.correct / 9
        assert losses == []
        first = res.mean_loss
        assert res.mean_loss == first
        assert losses == [1]
