import base64
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nncift.cli
import nncift.datasets
import nncift.network

from nncift.datasets import (
    DatasetPair, EmbeddingMatrix, partition, quadrant_index_sets, save_embeddings,
)
from nncift.errors import CoverageError, DataValidationError, FileFormatError, TrainingError
from nncift.influence import InfluenceMatrix, load_influence
from nncift.network import (
    QUADRANTS,
    MlpParams,
    NormStats,
    QuadrantErrors,
    TrainConfig,
    baseline_estimates,
    build_pair_features,
    estimate_pairwise,
    estimate_pointwise,
    estimate_row_blocks,
    init_params,
    load_params,
    mse_by_quadrant,
    save_params,
    train,
)
from nncift.probes import CostLedger
from oracles import (
    estimate_one_column_in_place, forward, forward_batch, loss_and_gradients, mse_by_quadrant_one_mean,
)


def flatten_params(params):
    return np.concatenate([a.reshape(-1) for a in params.arrays()])


def set_flat(params, flat):
    arrays, offset = [], 0
    for arr in params.arrays():
        arrays.append(flat[offset:offset + arr.size].reshape(arr.shape))
        offset += arr.size
    return MlpParams(*arrays)


class TestInit:
    def test_parameter_count_2048_100(self):
        params = init_params(seed=0, in_dim=2048, hidden=100)
        assert params.parameter_count == 205001
        assert params.first_layer_parameter_count == 204900

    def test_parameter_count_8_4(self):
        assert init_params(seed=0, in_dim=8, hidden=4).parameter_count == 41

    def test_deterministic(self):
        a = init_params(seed=5, in_dim=12, hidden=6)
        b = init_params(seed=5, in_dim=12, hidden=6)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_zero_biases_and_weight_bounds(self):
        params = init_params(seed=1, in_dim=20, hidden=10)
        np.testing.assert_array_equal(params.b1, np.zeros(10))
        np.testing.assert_array_equal(params.b2, np.zeros(1))
        assert np.all(np.abs(params.w1) <= math.sqrt(6.0 / 30))
        assert np.all(np.abs(params.w2) <= math.sqrt(6.0 / 11))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(seed=0, in_dim=0, hidden=4)


class TestForward:
    def test_zero_params_give_half(self):
        params = MlpParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                           w2=np.zeros((1, 4)), b2=np.zeros(1))
        assert forward(params, [1.0, -2.0, 3.0]) == 0.5

    def test_hand_computed_logistic_one(self):
        params = MlpParams(w1=np.eye(2), b1=np.zeros(2),
                           w2=np.array([[1.0, 1.0]]), b2=np.zeros(1))
        # relu(1) + relu(-1) = 1; logistic(1)
        assert forward(params, [1.0, -1.0]) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_outputs_strictly_inside_unit_interval(self):
        params = init_params(seed=2, in_dim=8, hidden=5)
        rng = np.random.default_rng(0)
        for x in rng.standard_normal((10000, 8)):
            y = forward(params, x)
            assert 0.0 < y < 1.0

    def test_dim_mismatch(self):
        params = init_params(seed=0, in_dim=4, hidden=2)
        with pytest.raises(ValueError):
            forward(params, [1.0, 2.0])

    def test_logistic_bytes_match_the_masked_formula(self):
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
                 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
        grid = np.concatenate([edges, np.linspace(-50, 50, 10001),
                               np.random.default_rng(0).standard_normal(1000) * 20])
        with np.errstate(over="ignore", invalid="ignore"):
            for z in (grid, grid.reshape(-1, 1)[:1000]):
                assert nncift.network._logistic(z).tobytes() == masked(z).tobytes()


class TestGradients:
    def test_perfect_fit_zero_gradients(self):
        params = MlpParams(w1=np.zeros((3, 2)), b1=np.zeros(3),
                           w2=np.zeros((1, 3)), b2=np.zeros(1))
        x = np.array([[0.3, -0.4]])
        mse, grads = loss_and_gradients(params, x, np.array([0.5]))
        assert mse == 0.0
        for g in grads.arrays():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_empty_batch_rejected(self):
        params = init_params(seed=0, in_dim=2, hidden=2)
        with pytest.raises(ValueError):
            loss_and_gradients(params, np.zeros((0, 2)), np.zeros(0))

    def test_matches_finite_differences(self):
        # central differences, step 1e-4, relative error 1e-4, every
        # component, 20 random small nets
        rng = np.random.default_rng(123)
        step = 1e-4
        for case in range(20):
            in_dim = int(rng.integers(2, 17))
            hidden = int(rng.integers(2, 9))
            batch = int(rng.integers(1, 9))
            params = init_params(seed=case, in_dim=in_dim, hidden=hidden)
            # random biases too, so no gradient component is trivially zero
            params.b1[...] = rng.standard_normal(hidden) * 0.1
            params.b2[...] = rng.standard_normal(1) * 0.1
            x = rng.standard_normal((batch, in_dim))
            targets = rng.random(batch)
            _, grads = loss_and_gradients(params, x, targets)
            analytic = flatten_params(grads)
            flat = flatten_params(params)
            numeric = np.empty_like(flat)
            for k in range(flat.size):
                plus = flat.copy()
                plus[k] += step
                minus = flat.copy()
                minus[k] -= step
                loss_p, _ = loss_and_gradients(set_flat(params, plus), x, targets)
                loss_m, _ = loss_and_gradients(set_flat(params, minus), x, targets)
                numeric[k] = (loss_p - loss_m) / (2 * step)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() < 1e-4, f"case {case}: max rel error {rel.max():.2e}"


class TestNormStats:
    def test_round_trip(self):
        norm = NormStats.fit(np.array([-0.5, 0.0, 1.5]))
        values = np.array([-0.5, 0.25, 1.5])
        np.testing.assert_allclose(norm.denormalize(norm.normalize(values)), values, atol=1e-15)

    def test_normalize_hits_unit_interval(self):
        norm = NormStats.fit(np.array([-1.0, 1.0]))
        out = norm.normalize(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])

    def test_degenerate_maps_to_half(self):
        norm = NormStats.fit(np.array([0.3, 0.3]))
        np.testing.assert_array_equal(norm.normalize(np.array([0.3, 0.3])), [0.5, 0.5])
        np.testing.assert_array_equal(norm.denormalize(np.array([0.1, 0.9])), [0.3, 0.3])

    def test_invalid(self):
        with pytest.raises(ValueError):
            NormStats(min=1.0, max=0.0)


def toy_training_set(count=200, in_dim=6, seed=0, target=0.3):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((count, in_dim))
    targets = np.full(count, target)
    return features, targets


class TestTrain:
    def test_descent_on_constant_target(self):
        features, targets = toy_training_set()
        # constant targets make norm degenerate; vary them slightly
        targets = targets + np.random.default_rng(1).uniform(-0.05, 0.05, targets.shape)
        config = TrainConfig(epochs=20, learning_rate=1e-2, batch_size=32, seed=0, hidden=8)
        result = train(features, np.zeros((1, 0)), targets, config)
        assert len(result.epoch_losses) == 20
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_bitwise_deterministic(self):
        features, targets = toy_training_set(count=100)
        targets = np.random.default_rng(2).random(100)
        config = TrainConfig(epochs=5, batch_size=16, seed=9, hidden=6)
        a = train(features, np.zeros((1, 0)), targets, config)
        b = train(features, np.zeros((1, 0)), targets, config)
        for x, y in zip(a.params.arrays(), b.params.arrays()):
            assert x.tobytes() == y.tobytes()
        assert a.epoch_losses == b.epoch_losses

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            train(np.zeros((0, 4)), np.zeros((1, 0)), np.zeros(0), TrainConfig())

    @pytest.mark.parametrize("learning_rate", [1e200, 1e300, 1e308])
    def test_diverging_network_raises_at_its_first_non_finite_loss(self, learning_rate):
        features = np.random.default_rng(3).standard_normal((40, 6))
        targets = np.random.default_rng(4).random(40)
        config = TrainConfig(epochs=3, learning_rate=learning_rate, batch_size=8, seed=0, hidden=8)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match=(
                r"epoch 1's corner loss is nan; lower train\.learning_rate")):
            train(features, np.zeros((1, 0)), targets, config)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("hidden", True), ("batch_size", "8"), ("learning_rate", float("nan")),
    ])
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: value})

    def test_norm_stats_recorded(self):
        features, _ = toy_training_set(count=50)
        targets = np.linspace(-0.8, 0.9, 50)
        result = train(features, np.zeros((1, 0)), targets, TrainConfig(epochs=1, hidden=4))
        assert result.norm.min == pytest.approx(-0.8)
        assert result.norm.max == pytest.approx(0.9)


class PerArrayAdam:
    """Adam per parameter array, each operation allocating: the flat step's
    reference, with the constants params.json records for the run."""

    def __init__(self, params, config):
        self.config = config.optimizer_metadata()
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]
        self.t = 0

    def step(self, params, grads):
        c = self.config
        self.t += 1
        for k, (arr, g) in enumerate(zip(params.arrays(), grads.arrays())):
            self.m[k] = c["beta1"] * self.m[k] + (1.0 - c["beta1"]) * g
            self.v[k] = c["beta2"] * self.v[k] + (1.0 - c["beta2"]) * g**2
            m_hat = self.m[k] / (1.0 - c["beta1"]**self.t)
            v_hat = self.v[k] / (1.0 - c["beta2"]**self.t)
            arr -= c["learning_rate"] * m_hat / (np.sqrt(v_hat) + c["eps"])


class TestFlatAdam:
    def test_fifty_steps_bitwise_equal_to_the_per_array_step(self):
        config = TrainConfig(learning_rate=1e-3)
        init = init_params(seed=4, in_dim=10, hidden=7)
        flat = flatten_params(init)
        reference = set_flat(init, flat.copy())
        flat_adam = nncift.network._Adam(flat.size, config)
        per_array = PerArrayAdam(reference, config)
        rng = np.random.default_rng(0)
        for _ in range(50):
            # magnitudes from 1e-8 to 1e2, both signs
            grad = rng.choice([-1.0, 1.0], flat.size) * 10.0 ** rng.uniform(-8, 2, flat.size)
            flat_adam.step(flat, grad)
            per_array.step(reference, set_flat(init, grad))
        assert flat.tobytes() == flatten_params(reference).tobytes()
        assert flat_adam.m.tobytes() == np.concatenate([m.reshape(-1) for m in per_array.m]).tobytes()


    @pytest.mark.parametrize("slice_size", [1, 7, 84, 85])
    def test_slices_are_bitwise_the_per_array_step(self, monkeypatch, slice_size):
        # 85 parameters: slices of 7 leave a short last slice, 85 is one slice
        monkeypatch.setattr(nncift.network, "_ADAM_SLICE", slice_size)
        config = TrainConfig(learning_rate=1e-3)
        init = init_params(seed=4, in_dim=10, hidden=7)
        flat = flatten_params(init)
        reference = set_flat(init, flat.copy())
        flat_adam = nncift.network._Adam(flat.size, config)
        per_array = PerArrayAdam(reference, config)
        rng = np.random.default_rng(1)
        for _ in range(30):
            grad = rng.choice([-1.0, 1.0], flat.size) * 10.0 ** rng.uniform(-8, 2, flat.size)
            flat_adam.step(flat, grad.copy())
            per_array.step(reference, set_flat(init, grad))
        assert flat.tobytes() == flatten_params(reference).tobytes()
        assert flat_adam.v.tobytes() == np.concatenate([v.reshape(-1) for v in per_array.v]).tobytes()
        # no scratch the size of the parameters
        assert flat_adam._s1.size == flat_adam._s2.size == min(slice_size, flat.size)


def factored_gradients(params, left, right, rows, cols, targets):
    grads = MlpParams(*(np.zeros_like(a) for a in params.arrays()))
    scratch = (np.empty_like(left), np.empty_like(right), np.empty((len(rows), params.hidden)))
    nncift.network._factored_gradients(params, grads, left, right, np.asarray(rows),
                                       np.asarray(cols), np.asarray(targets), scratch)
    return grads


def dense_train(x, targets, config):
    """train's loop on concatenated pair rows: loss_and_gradients, the flat
    Adam and a full forward for each epoch's loss."""
    norm = NormStats.fit(targets)
    t_norm = norm.normalize(targets)
    init = init_params(config.seed, in_dim=x.shape[1], hidden=config.hidden)
    flat = flatten_params(init)
    params = set_flat(init, flat)
    optimizer = nncift.network._Adam(flat.size, config)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 1))))
    losses = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grads = loss_and_gradients(params, x[batch], t_norm[batch])
            optimizer.step(flat, flatten_params(grads))
        y, _, _ = forward_batch(params, x)
        losses.append(float(np.mean((y.reshape(-1) - t_norm) ** 2)))
    return params, losses


class TestFactoredTraining:
    @pytest.mark.parametrize("cells", [
        [0, 6, 13, 7, 20, 34, 2, 9, 27, 16, 8, 31, 22],  # rows and columns repeat
        [10, 12, 11, 14],  # one row
        [1, 16, 6, 31, 21],  # one column
        [23],  # one cell
    ])
    def test_step_matches_loss_and_gradients_on_pair_rows(self, cells):
        pair = embedding_pair(7, 5, 3, seed=4)
        params = init_params(seed=6, in_dim=6, hidden=9)
        rows, cols = np.divmod(np.array(cells), 5)
        targets = np.random.default_rng(1).random(len(cells))
        x = build_pair_features(pair, range(7), range(5))[cells]
        mse, expected = loss_and_gradients(params, x, targets)
        got = factored_gradients(params, pair.fine_tune.rows.astype(np.float64),
                                 pair.target.rows.astype(np.float64), rows, cols, targets)
        for a, b in zip(got.arrays(), expected.arrays()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [1, 3, 9])
    def test_group_sum_is_add_at_in_row_order(self, size):
        rng = np.random.default_rng(size)
        index = rng.integers(0, size, 40)
        values = rng.standard_normal((40, 5)) * 10.0 ** rng.uniform(-8, 2, (40, 1))
        distinct, inverse = nncift.network._distinct(index, size)
        expected = np.zeros((len(distinct), 5))
        np.add.at(expected, np.searchsorted(distinct, index), values)
        got = nncift.network._group_sum(values, inverse, len(distinct))
        assert got.tobytes() == expected.tobytes()

    def test_pointwise_step_is_the_m_by_1_case(self):
        left = np.random.default_rng(2).standard_normal((30, 4))
        params = init_params(seed=1, in_dim=4, hidden=6)
        rows = np.random.default_rng(3).permutation(30)[:11]
        targets = np.random.default_rng(4).random(11)
        _, expected = loss_and_gradients(params, left[rows], targets)
        got = factored_gradients(params, left, np.zeros((1, 0)), rows, np.zeros(11, np.int64), targets)
        for a, b in zip(got.arrays(), expected.arrays()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m, n, batch_size", [(9, 7, 16), (12, 3, 5), (20, 1, 7)])
    def test_train_matches_the_dense_loop(self, m, n, batch_size):
        pair = embedding_pair(m, n, 4, seed=m)
        targets = np.random.default_rng(n).standard_normal(m * n)
        config = TrainConfig(epochs=5, batch_size=batch_size, learning_rate=1e-2, seed=3, hidden=8)
        result = train(pair.fine_tune.rows, pair.target.rows, targets, config)
        expected, losses = dense_train(build_pair_features(pair, range(m), range(n)), targets, config)
        for a, b in zip(result.params.arrays(), expected.arrays()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.epoch_losses, losses, rtol=0, atol=1e-12)

    def test_pointwise_train_matches_the_dense_loop(self):
        left = np.random.default_rng(5).standard_normal((40, 6))
        targets = np.random.default_rng(6).random(40)
        config = TrainConfig(epochs=4, batch_size=16, learning_rate=1e-2, seed=2, hidden=5)
        result = train(left, np.zeros((1, 0)), targets, config)
        expected, losses = dense_train(left, targets, config)
        for a, b in zip(result.params.arrays(), expected.arrays()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.epoch_losses, losses, rtol=0, atol=1e-12)

    def test_training_holds_four_parameter_vectors_and_fixed_scratch(self):
        # in_dim 1024, hidden 100: 102,601 parameters, 0.8 MB a vector
        rng = np.random.default_rng(0)
        left, right = rng.standard_normal((30, 512)), rng.standard_normal((20, 512))
        config = TrainConfig(epochs=3, hidden=100)
        tracemalloc.start()
        try:
            train(left, right, rng.random(600), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parameters, their gradient and Adam's two moments; besides them
        # the slice scratch, the step buffers and the corner pass's workspace
        vector = (1024 * 100 + 100 + 100 + 1) * np.dtype(np.float64).itemsize
        assert peak <= 4 * vector + 2**21

    def test_misaligned_targets_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            train(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(11), TrainConfig())

    def test_non_finite_targets_rejected(self):
        targets = np.zeros(12)
        targets[5] = np.nan
        with pytest.raises(DataValidationError):
            train(np.zeros((3, 2)), np.zeros((4, 2)), targets, TrainConfig())

    def test_empty_target_side_rejected(self):
        with pytest.raises(TrainingError):
            train(np.zeros((3, 2)), np.zeros((0, 2)), np.zeros(0), TrainConfig())


def embedding_pair(m, n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetPair(
        fine_tune=EmbeddingMatrix(rows=rng.standard_normal((m, dim)).astype(np.float32)),
        target=EmbeddingMatrix(rows=rng.standard_normal((n, dim)).astype(np.float32)),
    )


class TestEstimatePairwise:
    def test_forward_count_is_quadrant_arithmetic(self):
        pair = embedding_pair(100, 100, 4)
        part = partition(pair, 0.05, seed=0)
        params = init_params(seed=0, in_dim=8, hidden=3)
        ledger = CostLedger()
        blocks = [estimate_pairwise(params, pair, *quadrant_index_sets(part, q), ledger)
                  for q in ("Q2", "Q3", "Q4")]
        assert ledger.estimator_forwards == 100 * 100 - 25
        assert ledger.forward_calls == 0
        assert sum(block.valid_count() for block in blocks) == 9975

    def test_zero_cells(self):
        pair = embedding_pair(3, 3, 4)
        params = init_params(seed=0, in_dim=8, hidden=3)
        ledger = CostLedger()
        matrix = estimate_pairwise(params, pair, [], range(3), ledger)
        assert ledger.estimator_forwards == 0
        assert matrix.valid_count() == 0

    def test_deterministic(self):
        pair = embedding_pair(5, 4, 3)
        params = init_params(seed=3, in_dim=6, hidden=4)
        a = estimate_pairwise(params, pair, range(5), range(4), CostLedger())
        b = estimate_pairwise(params, pair, range(5), range(4), CostLedger())
        assert a.to_bytes() == b.to_bytes()

    def test_outputs_in_unit_interval(self):
        pair = embedding_pair(6, 6, 5)
        params = init_params(seed=1, in_dim=10, hidden=4)
        matrix = estimate_pairwise(params, pair, range(6), range(6), CostLedger())
        assert np.all(matrix.values >= 0.0) and np.all(matrix.values <= 1.0)

    def test_dim_mismatch(self):
        pair = embedding_pair(2, 2, 3)
        params = init_params(seed=0, in_dim=5, hidden=2)
        with pytest.raises(ValueError):
            estimate_pairwise(params, pair, [0], [0], CostLedger())

    def test_columns_projected_for_other_parameters_or_columns_rejected(self):
        pair = embedding_pair(4, 4, 3)
        params = init_params(seed=0, in_dim=6, hidden=2)
        other = init_params(seed=1, in_dim=6, hidden=2)
        columns = nncift.network.project_columns(params, pair, 4, [0, 1])
        for net, cols in ((other, [0, 1]), (params, [1, 0]), (params, [0, 1, 2])):
            ledger = CostLedger()
            with pytest.raises(ValueError, match="projected for other parameters or columns"):
                estimate_pairwise(net, pair, range(4), cols, ledger, columns=columns)
            assert ledger.estimator_forwards == 0

    def test_matches_single_forward(self):
        pair = embedding_pair(4, 4, 3)
        params = init_params(seed=2, in_dim=6, hidden=4)
        matrix = estimate_pairwise(params, pair, [1], [2], CostLedger())
        feature = build_pair_features(pair, [1], [2])[0]
        assert matrix.values[1, 2] == pytest.approx(forward(params, feature), rel=1e-6)

    def test_chunked_block_equals_per_cell_forward(self, monkeypatch):
        # 10 cells per chunk: every block below spans several chunks
        monkeypatch.setattr(nncift.network, "_CHUNK_CELLS", 10)
        pair = embedding_pair(13, 9, 3, seed=4)
        params = init_params(seed=5, in_dim=6, hidden=7)
        for rows, cols in (
            (range(13), range(9)),
            ([12, 0, 7, 3, 5], [8, 1, 4]),
            ([2, 9, 11], range(9)),
            (range(13), [6]),
        ):
            ledger = CostLedger()
            matrix = estimate_pairwise(params, pair, rows, cols, ledger)
            assert ledger.estimator_forwards == len(rows) * len(cols)
            assert matrix.valid_count() == len(rows) * len(cols)
            for i in rows:
                for j in cols:
                    feature = np.concatenate([pair.fine_tune.rows[i], pair.target.rows[j]])
                    assert matrix.values[i, j] == np.float32(forward(params, feature))

    def test_builds_no_pair_features(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("training and estimation must not build pair features")

        monkeypatch.setattr(nncift.network, "build_pair_features", refuse)
        monkeypatch.setattr(nncift.cli, "build_pair_features", refuse, raising=False)
        pair = embedding_pair(6, 5, 3)
        params = init_params(seed=1, in_dim=6, hidden=4)
        ledger = CostLedger()
        matrix = estimate_pairwise(params, pair, range(6), range(5), ledger)
        assert matrix.valid_count() == 30
        assert ledger.estimator_forwards == 30

        # a pairwise train-estimate run: the corner is trained on, then every cell estimated
        pair = embedding_pair(30, 20, 4, seed=2)
        config = {"method": "delift_se", "u": 0.2, "v": 0.3, "seed": 1}
        for key, side in (("fine_tune_embeddings", pair.fine_tune), ("target_embeddings", pair.target)):
            save_embeddings(side, tmp_path / f"{key}.emb")
            config[key] = str(tmp_path / f"{key}.emb")
        (tmp_path / "config.json").write_text(json.dumps(config))
        for step in ("valuate", "train-estimate"):
            assert nncift.cli.main([step, "--config", str(tmp_path / "config.json"),
                                    "--out", str(tmp_path / "run")]) == 0
        assert load_influence(tmp_path / "run" / "full.nnk").fully_valid

    def test_factored_block_equals_concatenated_forward(self, monkeypatch):
        # 200 cells per chunk: the 37 x 29 block below spans six chunks
        monkeypatch.setattr(nncift.network, "_CHUNK_CELLS", 200)
        pair = embedding_pair(50, 40, 64, seed=7)
        params = init_params(seed=8, in_dim=128, hidden=100)
        order = np.random.default_rng(9)
        rows = order.permutation(50)[:37]
        cols = order.permutation(40)[:29]
        matrix = estimate_pairwise(params, pair, rows, cols, CostLedger())
        y, _, _ = forward_batch(params, build_pair_features(pair, rows, cols))
        expected = y.reshape(len(rows), len(cols)).astype(np.float32)
        np.testing.assert_array_max_ulp(matrix.values[np.ix_(rows, cols)], expected, maxulp=1)

    def test_peak_memory_is_bounded_by_the_chunk(self):
        hidden = 100
        pair = embedding_pair(400, 300, 256, seed=1)
        params = init_params(seed=2, in_dim=512, hidden=hidden)
        output_bytes = pair.m * pair.n * (np.dtype(np.float32).itemsize + np.dtype(bool).itemsize)
        bound = 4 * nncift.network._CHUNK_CELLS * hidden * 8 + output_bytes
        tracemalloc.start()
        try:
            estimate_pairwise(params, pair, range(400), range(300), CostLedger())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_outputs_do_not_depend_on_the_chunk_size(self, monkeypatch):
        pair = embedding_pair(300, 40, 64, seed=3)
        params = init_params(seed=4, in_dim=128, hidden=100)
        point_params = init_params(seed=5, in_dim=64, hidden=100)
        norm = NormStats(0.0, 1.0)
        order = np.random.default_rng(6)
        blocks = ((range(300), range(40)), (order.permutation(300)[:97], order.permutation(40)[:29]))
        point_rows = order.permutation(300)
        outputs = []
        for chunk in (1, 7, 100, nncift.network._CHUNK_CELLS):
            monkeypatch.setattr(nncift.network, "_CHUNK_CELLS", chunk)
            pairwise = [estimate_pairwise(params, pair, rows, cols, CostLedger()).to_bytes()
                        for rows, cols in blocks]
            pointwise = estimate_pointwise(point_params, pair.fine_tune, point_rows, norm, CostLedger())
            outputs.append((pairwise, pointwise.to_matrix().to_bytes(), pointwise.values))
        for pairwise, point_bytes, point_values in outputs[1:]:
            assert pairwise == outputs[0][0]
            # full.nnk holds the float32 scores; the float64 ones may differ in
            # the last bits, as BLAS sums a row by how many rows share the call
            assert point_bytes == outputs[0][1]
            np.testing.assert_array_max_ulp(point_values, outputs[0][2], maxulp=64)

    @pytest.mark.parametrize("gather", [1, 7, 128, 4096])
    def test_pairwise_outputs_do_not_depend_on_the_gather_size(self, monkeypatch, gather):
        pair = embedding_pair(300, 40, 64, seed=3)
        params = init_params(seed=4, in_dim=128, hidden=100)
        rows = np.random.default_rng(6).permutation(300)[:211]
        expected = estimate_pairwise(params, pair, rows, range(40), CostLedger()).to_bytes()
        monkeypatch.setattr(nncift.network, "_GATHER_ROWS", gather)
        assert estimate_pairwise(params, pair, rows, range(40), CostLedger()).to_bytes() == expected


class TestEstimateRowBlocks:
    @pytest.mark.parametrize("m, n", [(300, 300), (1000, 40), (5, 4000), (40000, 1), (0, 3)])
    def test_blocks_are_whole_gathers_covering_the_rows(self, m, n):
        gather = nncift.network._chunking(n)[1]
        blocks = list(estimate_row_blocks(m, n))
        assert [b.start for b in blocks] == list(range(0, m, blocks[0].stop if blocks else 1))
        assert all((b.stop - b.start) % gather == 0 for b in blocks)
        assert sum(len(range(m)[b]) for b in blocks) == m

    @pytest.mark.parametrize("small", [False, True])
    def test_block_estimates_are_bitwise_the_whole_call(self, monkeypatch, small):
        if small:
            monkeypatch.setattr(nncift.network, "_CHUNK_CELLS", 5)
            monkeypatch.setattr(nncift.network, "_GATHER_ROWS", 3)
            monkeypatch.setattr(nncift.network, "ROW_BLOCK_CELLS", 40)
        else:
            # 126-row blocks pairwise; 2048-row blocks pointwise
            monkeypatch.setattr(nncift.network, "ROW_BLOCK_CELLS", 2048)
        pair = embedding_pair(5000, 300, 16, seed=8)
        params = init_params(seed=9, in_dim=32, hidden=100)
        point_params = init_params(seed=10, in_dim=16, hidden=100)
        norm = NormStats(-1.0, 2.0)
        rows, point_rows = np.arange(301), np.arange(4999)
        whole = estimate_pairwise(params, pair, rows, range(300), CostLedger()).block
        blocks = list(estimate_row_blocks(len(rows), 300))
        assert len(blocks) > 2 and len(rows) % (blocks[0].stop - blocks[0].start)
        streamed = np.concatenate([estimate_pairwise(params, pair, rows[b], range(300),
                                                     CostLedger()).block for b in blocks])
        assert streamed.tobytes() == whole.tobytes()
        whole = estimate_pointwise(point_params, pair.fine_tune, point_rows, norm, CostLedger())
        blocks = list(estimate_row_blocks(len(point_rows), 1))
        assert len(blocks) > 2 and len(point_rows) % (blocks[0].stop - blocks[0].start)
        streamed = np.concatenate([estimate_pointwise(point_params, pair.fine_tune, point_rows[b],
                                                      norm, CostLedger()).values for b in blocks])
        assert streamed.tobytes() == whole.values.tobytes()

    @pytest.mark.parametrize("cols", [1, 13, 2000])
    def test_a_workspace_kept_across_calls_gives_a_fresh_ones_bytes(self, cols):
        # train's corner pass: every row gathered, one workspace kept across epochs
        left = np.random.default_rng(1).standard_normal((150, 6))
        right = np.random.default_rng(2).standard_normal((cols, 6 if cols > 1 else 0))
        params = init_params(seed=3, in_dim=left.shape[1] + right.shape[1], hidden=20)
        every_row, every_col = np.arange(150), np.arange(cols)
        ws = nncift.network._workspace(150, cols, 20)

        def run(ws):
            columns = nncift.network._project(params, right, every_col, ws)
            return nncift.network._estimate_chunks(params, left, every_row, columns, np.empty((150, cols)))

        expected = run(nncift.network._workspace(150, cols, 20))
        for _ in range(2):
            assert run(ws).tobytes() == expected.tobytes()


class TestOneColumnEstimates:
    # 1000 rows fill no 1024-row chunk; 1024 fill one; 2500 fill two and leave a part
    @pytest.mark.parametrize("count", [1, 1000, 1024, 2500])
    def test_pointwise_equals_the_in_place_oracle(self, count):
        emb = EmbeddingMatrix(rows=np.random.default_rng(11).standard_normal((3000, 24))
                              .astype(np.float32))
        params = init_params(seed=12, in_dim=24, hidden=100)
        rows = np.random.default_rng(13).permutation(3000)[:count]
        scores = estimate_pointwise(params, emb, rows, NormStats(0.0, 1.0), CostLedger())
        assert scores.values.tobytes() == estimate_one_column_in_place(params, emb.rows, rows).tobytes()

    @pytest.mark.parametrize("count", [1000, 2500])
    def test_train_corner_pass_equals_the_in_place_oracle(self, count):
        left = np.random.default_rng(14).standard_normal((count, 24))
        params = init_params(seed=15, in_dim=24, hidden=100)
        every_row = np.arange(count)
        columns = nncift.network._project(params, np.zeros((1, 0)), [0],
                                          nncift.network._workspace(count, 1, 100))
        out = nncift.network._estimate_chunks(params, left, every_row, columns, np.empty((count, 1)))[:, 0]
        assert out.tobytes() == estimate_one_column_in_place(params, left, every_row).tobytes()


class TestBuildPairFeatures:
    def test_rows_major_concatenation(self):
        pair = embedding_pair(4, 3, 2)
        features = build_pair_features(pair, [3, 1], [2, 0, 1])
        expected = [np.concatenate([pair.fine_tune.rows[i], pair.target.rows[j]])
                    for i in (3, 1) for j in (2, 0, 1)]
        assert features.dtype == np.float64
        np.testing.assert_array_equal(features, np.array(expected, dtype=np.float64))

    def test_empty_block(self):
        pair = embedding_pair(4, 3, 2)
        assert build_pair_features(pair, [], [0, 1]).shape == (0, 4)


class TestEstimatePointwise:
    def test_identity_norm(self):
        emb = EmbeddingMatrix(rows=np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32))
        params = init_params(seed=0, in_dim=4, hidden=3)
        scores = estimate_pointwise(params, emb, [0, 1], NormStats(0.0, 1.0), CostLedger())
        assert np.all((scores.values > 0) & (scores.values < 1))

    def test_degenerate_norm_maps_to_constant(self):
        emb = EmbeddingMatrix(rows=np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32))
        params = init_params(seed=0, in_dim=4, hidden=3)
        scores = estimate_pointwise(params, emb, [0, 1, 2], NormStats(2.0, 2.0), CostLedger())
        np.testing.assert_array_equal(scores.values, [2.0, 2.0, 2.0])

    def test_forward_count(self):
        emb = EmbeddingMatrix(rows=np.random.default_rng(0).standard_normal((60, 4)).astype(np.float32))
        params = init_params(seed=0, in_dim=4, hidden=3)
        ledger = CostLedger()
        estimate_pointwise(params, emb, range(50), NormStats(0.0, 1.0), ledger)
        assert ledger.estimator_forwards == 50
        assert ledger.forward_calls == 0


def full_matrix(values):
    return InfluenceMatrix.full(np.asarray(values, dtype=np.float32))


class TestMseByQuadrant:
    def make_partition(self, m=4, n=4, u=0.5, seed=0):
        return partition(embedding_pair(m, n, 2), u, seed)

    def test_identical_matrices_zero(self):
        part = self.make_partition()
        values = np.random.default_rng(0).random((4, 4))
        out = mse_by_quadrant(full_matrix(values), full_matrix(values), part)
        assert out == {"Q1": 0.0, "Q2": 0.0, "Q3": 0.0, "Q4": 0.0}

    def test_predict_zero_vs_half(self):
        part = self.make_partition()
        truth = full_matrix(np.full((4, 4), 0.5))
        out = mse_by_quadrant(0.0, truth, part)
        assert all(v == 0.25 for v in out.values())

    def test_uniform_vs_uniform_sixth(self):
        pair = embedding_pair(1000, 1000, 1)
        part = partition(pair, 0.5, seed=0)
        estimates = baseline_estimates("random_uniform", (1000, 1000), seed=1)
        truth = baseline_estimates("random_uniform", (1000, 1000), seed=2)
        out = mse_by_quadrant(estimates, truth, part)
        for v in out.values():
            assert v == pytest.approx(1.0 / 6.0, abs=0.01)

    def test_empty_quadrant_is_nan(self):
        part = partition(embedding_pair(3, 3, 2), 1.0, seed=0)
        values = np.random.default_rng(0).random((3, 3))
        out = mse_by_quadrant(full_matrix(values), full_matrix(values), part)
        assert out["Q1"] == 0.0
        assert math.isnan(out["Q4"])

    def test_missing_cells_rejected(self):
        part = self.make_partition()
        holey = InfluenceMatrix(4, 4, [], [], np.zeros((0, 0), dtype=np.float32))
        with pytest.raises(CoverageError):
            mse_by_quadrant(holey, full_matrix(np.zeros((4, 4))), part)

    def test_truth_missing_a_cell_rejected(self):
        part = self.make_partition()
        holey = InfluenceMatrix(4, 4, [0, 1, 2, 3], [0, 1, 3], np.zeros((4, 3), dtype=np.float32))
        for estimates in (full_matrix(np.zeros((4, 4))), 0.0):
            with pytest.raises(CoverageError):
                mse_by_quadrant(estimates, holey, part)

    def test_a_whole_matrix_out_of_index_order_scores_as_in_order(self):
        part = partition(embedding_pair(30, 20, 1), 0.3, seed=2)
        estimates = baseline_estimates("random_uniform", (30, 20), seed=3)
        truth = baseline_estimates("random_uniform", (30, 20), seed=4)
        rng = np.random.default_rng(5)
        rows, cols = rng.permutation(30), rng.permutation(20)
        shuffled = [InfluenceMatrix(30, 20, rows, cols, matrix.block[np.ix_(rows, cols)])
                    for matrix in (estimates, truth)]
        expected = mse_by_quadrant(estimates, truth, part)
        assert mse_by_quadrant(shuffled[0], truth, part) == expected
        assert mse_by_quadrant(estimates, shuffled[1], part) == expected
        assert mse_by_quadrant(*shuffled, part) == expected


class TestRowBlockedMse:
    @pytest.mark.parametrize("block_cells", [None, 1000, 7])
    def test_within_a_few_ulps_of_one_mean(self, monkeypatch, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(nncift.datasets, "ROW_BLOCK_CELLS", block_cells)
        part = partition(embedding_pair(600, 300, 1), 0.3, seed=2)
        estimates = baseline_estimates("random_uniform", (600, 300), seed=3)
        truth = baseline_estimates("random_uniform", (600, 300), seed=4)
        blocked = mse_by_quadrant(estimates, truth, part)
        expected = mse_by_quadrant_one_mean(estimates, truth, part)
        for quadrant in QUADRANTS:
            np.testing.assert_array_max_ulp(blocked[quadrant], expected[quadrant], maxulp=4)

    def test_one_block_is_bitwise_one_mean(self):
        part = partition(embedding_pair(40, 30, 1), 0.2, seed=1)
        estimates = baseline_estimates("random_uniform", (40, 30), seed=3)
        truth = baseline_estimates("random_uniform", (40, 30), seed=4)
        assert mse_by_quadrant(estimates, truth, part) == mse_by_quadrant_one_mean(
            estimates, truth, part)

    @pytest.mark.parametrize("value", [0.0, 0.375])
    def test_a_constant_scores_as_its_matrix(self, value):
        part = partition(embedding_pair(300, 200, 1), 0.1, seed=1)
        truth = baseline_estimates("random_uniform", (300, 200), seed=4)
        matrix = full_matrix(np.full((300, 200), value))
        assert mse_by_quadrant(value, truth, part) == mse_by_quadrant(matrix, truth, part)


class TestQuadrantErrors:
    @pytest.mark.parametrize("step", [7, 100, 600])  # 600 rows: 7 does not divide, 100 does
    def test_within_a_few_ulps_of_one_mean(self, step):
        part = partition(embedding_pair(600, 300, 1), 0.3, seed=2)
        estimates = baseline_estimates("random_uniform", (600, 300), seed=3)
        truth = baseline_estimates("random_uniform", (600, 300), seed=4)
        errors = QuadrantErrors(part, ("trained", "zero"))
        for start in range(0, 600, step):
            rows = slice(start, start + step)
            errors.add(rows, truth.block[rows], {"trained": estimates.block[rows], "zero": 0.0})
        expected = {"trained": mse_by_quadrant_one_mean(estimates, truth, part),
                    "zero": mse_by_quadrant_one_mean(0.0, truth, part)}
        means = errors.means()
        for name in expected:
            for quadrant in QUADRANTS:
                np.testing.assert_array_max_ulp(means[name][quadrant], expected[name][quadrant],
                                                maxulp=4)

    def test_one_block_is_bitwise_mse_by_quadrant(self):
        part = partition(embedding_pair(40, 30, 1), 0.2, seed=1)
        estimates = baseline_estimates("random_uniform", (40, 30), seed=3)
        truth = baseline_estimates("random_uniform", (40, 30), seed=4)
        errors = QuadrantErrors(part, ("trained", "half"))
        errors.add(slice(0, 40), truth.block, {"trained": estimates.block, "half": 0.5})
        assert errors.means() == {"trained": mse_by_quadrant_one_mean(estimates, truth, part),
                                  "half": mse_by_quadrant_one_mean(0.5, truth, part)}

    def test_the_m_by_1_case_leaves_the_empty_quadrants_nan(self):
        part = partition(embedding_pair(50, 1, 1), 0.2, seed=1)
        part = replace(part, id_t=np.array([0]), ood_t=np.array([], dtype=np.int64))
        estimates = baseline_estimates("random_uniform", (50, 1), seed=3)
        truth = baseline_estimates("random_uniform", (50, 1), seed=4)
        errors = QuadrantErrors(part, ("trained",))
        for rows in (slice(0, 20), slice(20, 50)):
            errors.add(rows, truth.block[rows], {"trained": estimates.block[rows]})
        means = errors.means()["trained"]
        expected = mse_by_quadrant_one_mean(estimates, truth, part)
        assert math.isnan(means["Q2"]) and math.isnan(means["Q4"])
        for quadrant in ("Q1", "Q3"):
            np.testing.assert_array_max_ulp(means[quadrant], expected[quadrant], maxulp=4)


class TestBaselines:
    def test_random_uniform_deterministic(self):
        a = baseline_estimates("random_uniform", (4, 4), seed=7)
        b = baseline_estimates("random_uniform", (4, 4), seed=7)
        assert a.to_bytes() == b.to_bytes()

    @pytest.mark.parametrize("shape, block_cells", [
        ((1000, 250), None),  # 131 rows a block: the last block is short
        ((1000, 250), 500),   # 2 rows a block: every block whole
        ((7, 3), 1),          # a row a block
        ((5, 0), None),
        ((0, 4), None),
    ])
    def test_random_uniform_is_one_draw_bitwise(self, monkeypatch, shape, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(nncift.datasets, "ROW_BLOCK_CELLS", block_cells)
        rng = np.random.Generator(np.random.PCG64(11))
        expected = rng.random(shape).astype(np.float32)
        values = baseline_estimates("random_uniform", shape, seed=11).values
        assert values.shape == shape and values.tobytes() == expected.tobytes()

    def test_random_uniform_mean(self):
        matrix = baseline_estimates("random_uniform", (400, 250), seed=0)
        assert 0.49 <= float(matrix.values.mean()) <= 0.51

    def test_unknown_kind(self):
        # predict_zero is the constant 0.0, scored without a matrix
        for kind in ("oracle", "predict_zero"):
            with pytest.raises(ValueError, match="unknown baseline kind"):
                baseline_estimates(kind, (2, 2))


class TestParamsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        features, _ = toy_training_set(count=40, in_dim=4)
        targets = np.random.default_rng(3).uniform(-1, 1, 40)
        result = train(features, np.zeros((1, 0)), targets, TrainConfig(epochs=2, hidden=3, seed=1))
        path = tmp_path / "params.json"
        save_params(result.params, path, result.norm, seed=1,
                    optimizer=TrainConfig().optimizer_metadata())
        params, norm, meta = load_params(path)
        for a, b in zip(params.arrays(), result.params.arrays()):
            assert a.tobytes() == b.tobytes()
        assert norm.min == result.norm.min and norm.max == result.norm.max
        assert meta["seed"] == 1
        assert meta["parameter_count"] == result.params.parameter_count

    def test_deterministic_bytes(self, tmp_path):
        params = init_params(seed=0, in_dim=3, hidden=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_params(params, a)
        save_params(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_dim_mismatch_rejected(self, tmp_path):
        import json
        params = init_params(seed=0, in_dim=3, hidden=2)
        path = tmp_path / "params.json"
        save_params(params, path)
        doc = json.loads(path.read_text())
        doc["in_dim"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_params(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"in_dim": 2}')
        with pytest.raises(FileFormatError):
            load_params(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("not json")
        with pytest.raises(FileFormatError):
            load_params(path)

    def test_paper_shape_round_trip_bit_exact_and_owned(self, tmp_path):
        params = init_params(seed=5, in_dim=2048, hidden=100)
        params.b1[:] = np.random.default_rng(1).standard_normal(100)
        params.b2[:] = -0.0
        path = tmp_path / "params.json"
        save_params(params, path, NormStats(min=-1.5, max=2.25), seed=5)
        loaded, norm, _ = load_params(path)
        for a, b in zip(loaded.arrays(), params.arrays()):
            assert a.dtype == np.float64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert a.flags.owndata and a.flags.writeable
        assert (norm.min, norm.max) == (-1.5, 2.25)

    def test_file_is_json_with_metadata_at_top_level(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(init_params(seed=0, in_dim=3, hidden=2), path, NormStats(min=0.0, max=1.0),
                    seed=4, optimizer={"name": "adam"})
        doc = json.loads(path.read_text())
        assert doc["norm_stats"] == [0.0, 1.0]
        assert (doc["in_dim"], doc["hidden"], doc["seed"]) == (3, 2, 4)
        assert (doc["parameter_count"], doc["first_layer_parameter_count"]) == (11, 8)
        assert doc["optimizer"] == {"name": "adam"}
        assert doc["w1"]["dtype"] == "<f8" and doc["w1"]["shape"] == [2, 3]
        assert isinstance(doc["w1"]["data"], str)

    def test_weights_are_not_written_as_text(self, tmp_path):
        # Raw float64 in base64 is 4/3 x 8 bytes a weight; decimal text is about 19.
        params = init_params(seed=0, in_dim=2048, hidden=100)
        path = tmp_path / "params.json"
        save_params(params, path, NormStats(min=0.0, max=1.0))
        assert path.stat().st_size <= 1.4 * 8 * params.parameter_count

    @staticmethod
    def _saved_doc(tmp_path):
        path = tmp_path / "params.json"
        save_params(init_params(seed=0, in_dim=3, hidden=2), path, NormStats(min=0.0, max=1.0))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("case", [
        "bad_base64_char", "truncated_data", "f4_dtype", "shape_in_dim_mismatch",
        "bool_shape_entry", "negative_shape_entry", "shape_not_list", "legacy_list_form",
        "data_not_string", "extra_key",
    ])
    def test_malformed_weights_rejected(self, tmp_path, case):
        path, doc = self._saved_doc(tmp_path)
        w1 = doc["w1"]
        if case == "bad_base64_char":
            w1["data"] = "*" + w1["data"][1:]
        elif case == "truncated_data":
            w1["data"] = w1["data"][:-8]  # still valid base64, 6 bytes short
        elif case == "f4_dtype":
            w1["dtype"] = "<f4"
        elif case == "shape_in_dim_mismatch":
            w1["shape"] = [3, 2]
        elif case == "bool_shape_entry":
            doc["b2"]["shape"] = [True]
        elif case == "negative_shape_entry":
            w1["shape"] = [-2, -3]
        elif case == "shape_not_list":
            w1["shape"] = "2x3"
        elif case == "legacy_list_form":
            for name in ("w1", "b1", "w2", "b2"):
                doc[name] = np.zeros(doc[name]["shape"]).tolist()
        elif case == "data_not_string":
            w1["data"] = [0.0] * 6
        elif case == "extra_key":
            w1["order"] = "C"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="params.json"):
            load_params(path)

    @pytest.mark.parametrize("field, value", [
        ("norm_stats", ["a", 1]),
        ("norm_stats", [1, None]),
        ("norm_stats", [2, 1]),
        ("norm_stats", [True, 1]),
        ("norm_stats", [-10**400, 1]),  # past float range: used to raise OverflowError
        ("norm_stats", {"min": 0, "max": 1}),
        ("in_dim", 3.0),
        ("hidden", True),
        ("in_dim", "3"),
        ("hidden", -2),
    ])
    def test_malformed_metadata_rejected(self, tmp_path, field, value):
        path, doc = self._saved_doc(tmp_path)
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="params.json"):
            load_params(path)

    def test_non_finite_weights_stay_a_validation_error(self, tmp_path):
        params = init_params(seed=0, in_dim=3, hidden=2)
        path = tmp_path / "params.json"
        save_params(params, path)
        doc = json.loads(path.read_text())
        bad = params.w1.copy()
        bad[0, 0] = np.nan
        doc["w1"]["data"] = base64.b64encode(bad.astype("<f8").tobytes()).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError):
            load_params(path)
