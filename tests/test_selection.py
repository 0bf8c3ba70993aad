import itertools
import math

import numpy as np
import pytest

import nncift.datasets
from nncift.datasets import exact_ceil
from nncift.errors import CoverageError
from nncift.influence import InfluenceMatrix
from nncift.selection import (
    SelectionResult,
    facility_location_greedy,
    facility_location_value,
    normalize_kernel,
    select,
    topk_pointwise,
    topk_rowmax,
)
from oracles import facility_location_naive


def full(values):
    return InfluenceMatrix.full(np.asarray(values, dtype=np.float32))


def random_kernel(rng, m, n, discrete=False):
    if discrete:
        values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(m, n))
    else:
        values = rng.random((m, n))
    return full(values)


class TestNormalizeKernel:
    def test_affine_example(self):
        out = normalize_kernel(full([[0.0, 1.0], [-1.0, 1.0]]))
        np.testing.assert_array_equal(out.values, np.array([[0.5, 1.0], [0.0, 1.0]], dtype=np.float32))

    def test_constant_maps_to_zeros(self):
        out = normalize_kernel(full([[0.7, 0.7], [0.7, 0.7]]))
        np.testing.assert_array_equal(out.values, np.zeros((2, 2), dtype=np.float32))

    def test_unit_span_unchanged(self):
        values = np.array([[0.0, 0.25], [0.75, 1.0]], dtype=np.float32)
        out = normalize_kernel(full(values))
        np.testing.assert_array_equal(out.values, values)

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-3, 5, (6, 7))
        out = normalize_kernel(full(values))
        assert np.array_equal(
            np.argsort(out.values, axis=None, kind="stable"),
            np.argsort(values.astype(np.float32), axis=None, kind="stable"),
        )

    def test_range_is_unit_interval(self):
        rng = np.random.default_rng(1)
        out = normalize_kernel(full(rng.uniform(-10, 10, (5, 5))))
        assert float(out.values.min()) == 0.0
        assert float(out.values.max()) == 1.0

    def test_in_place_scaling_is_bitwise_the_expression(self):
        values = np.random.default_rng(2).uniform(-3, 5, (40, 30)).astype(np.float32)
        wide = values.astype(np.float64)
        expected = ((wide - wide.min()) / (wide.max() - wide.min())).astype(np.float32)
        assert normalize_kernel(full(values)).block.tobytes() == expected.tobytes()

    def test_partial_mask_rejected(self):
        matrix = InfluenceMatrix(2, 2, [0, 1], [0], np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(CoverageError):
            normalize_kernel(matrix)

    @pytest.mark.parametrize("block_cells", [1, 29, 300])
    def test_row_blocks_are_bitwise_the_whole_expression(self, monkeypatch, block_cells):
        # one row, then about one row and ten rows of 30 a block; 40 rows
        monkeypatch.setattr(nncift.datasets, "ROW_BLOCK_CELLS", block_cells)
        values = np.random.default_rng(5).uniform(-3, 5, (40, 30)).astype(np.float32)
        wide = values.astype(np.float64)
        expected = ((wide - wide.min()) / (wide.max() - wide.min())).astype(np.float32)
        kernel = normalize_kernel(full(values))
        assert kernel.block.dtype == np.float32 and kernel.block.tobytes() == expected.tobytes()


class TestFacilityLocationGreedy:
    def test_budget_one_is_rowsum_argmax(self):
        rng = np.random.default_rng(3)
        kernel = random_kernel(rng, 8, 6)
        result = facility_location_greedy(kernel, 1)
        sums = kernel.values.astype(np.float64).sum(axis=1)
        assert result.indices == [int(np.argmax(sums))]
        assert result.objective_values[0] == pytest.approx(sums.max(), rel=1e-12)

    def test_identity_kernel(self):
        result = facility_location_greedy(full([[1.0, 0.0], [0.0, 1.0]]), 2)
        assert result.indices == [0, 1]
        assert result.objective_values == [1.0, 2.0]

    def test_lazy_equals_naive_100_kernels(self):
        rng = np.random.default_rng(42)
        for case in range(100):
            m = int(rng.integers(1, 31))
            n = int(rng.integers(1, 21))
            budget = int(rng.integers(1, 11))
            kernel = random_kernel(rng, m, n, discrete=bool(case % 3 == 0))
            lazy = facility_location_greedy(kernel, budget)
            naive = facility_location_naive(kernel, budget)
            assert lazy.indices == naive.indices, f"case {case}"
            assert lazy.objective_values == naive.objective_values, f"case {case}"

    def test_lazy_equals_naive_on_wide_kernels(self):
        # the heap starts from row sums; _gain's first pass must give the same bits
        rng = np.random.default_rng(43)
        for n in (1, 7, 129, 250):
            for discrete in (False, True):
                kernel = random_kernel(rng, 40, n, discrete=discrete)
                lazy = facility_location_greedy(kernel, 12)
                naive = facility_location_naive(kernel, 12)
                assert lazy.indices == naive.indices, f"width {n}"
                assert lazy.objective_values == naive.objective_values, f"width {n}"

    @pytest.mark.parametrize("block_cells", [None, 50])
    def test_float32_kernel_picks_as_the_float64_path_and_naive(self, monkeypatch, block_cells):
        # the first gains are float64 row sums taken a row block at a time;
        # the naive rescan widens each row whole
        if block_cells is not None:
            monkeypatch.setattr(nncift.datasets, "ROW_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(44)
        for m, n, discrete in ((60, 1, False), (60, 17, False), (60, 17, True), (33, 250, False)):
            kernel = normalize_kernel(full(rng.standard_normal((m, n))) if not discrete
                                      else random_kernel(rng, m, n, discrete=True))
            lazy = facility_location_greedy(kernel, 15)
            naive = facility_location_naive(kernel, 15)
            assert lazy.indices == naive.indices, (m, n)
            assert lazy.objective_values == naive.objective_values, (m, n)

    def test_greedy_guarantee_against_brute_force(self):
        rng = np.random.default_rng(7)
        bound = 1.0 - 1.0 / math.e
        for case in range(100):
            m = int(rng.integers(2, 13))
            n = int(rng.integers(1, 9))
            budget = int(rng.integers(1, min(4, m) + 1))
            kernel = random_kernel(rng, m, n)
            greedy = facility_location_greedy(kernel, budget)
            values = kernel.values.astype(np.float64)
            opt = max(
                facility_location_value(values, subset)
                for subset in itertools.combinations(range(m), budget)
            )
            assert greedy.objective_values[-1] >= bound * opt - 1e-12, f"case {case}"

    def test_monotone_and_diminishing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kernel = random_kernel(rng, 12, 9)
            result = facility_location_greedy(kernel, 8)
            gains = np.diff([0.0] + result.objective_values)
            assert np.all(gains >= -1e-12)
            assert np.all(np.diff(gains) <= 1e-12)

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError):
            facility_location_greedy(full([[0.5]]), 0)

    def test_budget_exceeding_rows_truncates(self):
        result = facility_location_greedy(full([[1.0, 0.0], [0.0, 1.0]]), 10)
        assert sorted(result.indices) == [0, 1]

    def test_constant_kernel_picks_prefix(self):
        kernel = normalize_kernel(full(np.full((4, 3), 0.6)))
        result = facility_location_greedy(kernel, 3)
        assert result.indices == [0, 1, 2]
        assert result.objective_values == [0.0, 0.0, 0.0]

    def test_tie_break_smallest_index(self):
        kernel = full([[0.5, 0.5], [0.5, 0.5], [0.9, 0.0]])
        result = facility_location_greedy(kernel, 1)
        # rows 0 and 1 both sum to 1.0 > row 2's 0.9; smallest wins
        assert result.indices == [0]

    def test_out_of_range_kernel_rejected(self):
        with pytest.raises(ValueError):
            facility_location_greedy(full([[1.5]]), 1)
        with pytest.raises(ValueError):
            facility_location_greedy(full([[-0.1]]), 1)

    def test_partial_mask_rejected(self):
        matrix = InfluenceMatrix(2, 2, [0, 1], [0], np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(CoverageError):
            facility_location_greedy(matrix, 1)

    def test_affine_invariance_of_selection(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            raw = rng.uniform(-1, 1, (7, 5))
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-5.0, 5.0))
            base = facility_location_greedy(normalize_kernel(full(raw)), 3)
            mapped = facility_location_greedy(normalize_kernel(full(a * raw + b)), 3)
            assert base.indices == mapped.indices


class TestFacilityLocationValue:
    def test_value_of_the_greedy_prefix_is_its_objective(self):
        rng = np.random.default_rng(21)
        for case in range(30):
            m, n = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            kernel = random_kernel(rng, m, n, discrete=bool(case % 3 == 0))
            result = facility_location_greedy(kernel, int(rng.integers(1, m + 1)))
            values = kernel.values.astype(np.float64)
            for k, objective in enumerate(result.objective_values, 1):
                # the greedy adds gains; the value sums column maxima
                assert facility_location_value(values, result.indices[:k]) == pytest.approx(
                    objective, rel=1e-12, abs=1e-12), (case, k)

    def test_equals_the_per_column_brute_force_sum(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            values = rng.random((m, n))
            for size in range(m + 1):
                for subset in itertools.combinations(range(m), size):
                    expected = sum(max((values[i, j] for i in subset), default=0.0)
                                   for j in range(n))
                    assert facility_location_value(values, subset) == pytest.approx(expected)


class TestTopkRowmax:
    def test_example(self):
        matrix = full([[0.1, 0.9], [0.5, 0.2], [0.3, 0.35]])
        result = topk_rowmax(matrix, 2)
        assert result.indices == [0, 1]

    def test_k_zero(self):
        assert topk_rowmax(full([[0.5]]), 0).indices == []

    def test_k_equals_m_sorts_by_score(self):
        matrix = full([[0.1], [0.9], [0.5]])
        result = topk_rowmax(matrix, 3)
        assert result.indices == [1, 2, 0]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            topk_rowmax(full([[0.5]]), 2)

    def test_tie_break(self):
        matrix = full([[0.5, 0.2], [0.1, 0.5], [0.4, 0.0]])
        assert topk_rowmax(matrix, 2).indices == [0, 1]

    def test_objective_is_running_sum(self):
        matrix = full([[0.4], [0.9], [0.6]])
        result = topk_rowmax(matrix, 3)
        assert result.objective_values == pytest.approx([0.9, 1.5, 1.9])

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-2, 2, (6, 4))
        base = topk_rowmax(normalize_kernel(full(raw)), 3)
        mapped = topk_rowmax(normalize_kernel(full(2.5 * raw + 1.0)), 3)
        assert base.indices == mapped.indices


def column(values):
    return full(np.asarray(values)[:, None])


class TestTopkPointwise:
    def test_tie_break_example(self):
        assert topk_pointwise(column([0.2, 0.9, 0.9]), 2).indices == [1, 2]

    def test_all_equal_takes_smallest(self):
        assert topk_pointwise(column([0.5, 0.5, 0.5]), 1).indices == [0]

    def test_k_zero(self):
        assert topk_pointwise(column([0.1, 0.2]), 0).indices == []

    def test_k_exceeds_count(self):
        with pytest.raises(ValueError):
            topk_pointwise(column([0.1, 0.2]), 3)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_is_topk_rowmax_on_m_by_1(self, discrete):
        rng = np.random.default_rng(11)
        for m in (1, 7, 40):
            matrix = random_kernel(rng, m, 1, discrete=discrete)
            for k in sorted({0, 1, m // 2, m}):
                assert topk_pointwise(matrix, k) == topk_rowmax(matrix, k)

    def test_refuses_more_than_one_column(self):
        with pytest.raises(ValueError, match="M x 1"):
            topk_pointwise(full([[0.1, 0.2], [0.3, 0.4]]), 1)


class TestSelect:
    @pytest.mark.parametrize("method", ["delift", "delift_se"])
    def test_facility_location_runs_on_the_matrix_itself(self, method):
        matrix = full(np.random.default_rng(3).uniform(0, 1, (12, 5)))
        assert select(method, matrix, 4) == facility_location_greedy(matrix, 4)

    @pytest.mark.parametrize("method", ["delift", "delift_se"])
    def test_facility_location_refuses_a_matrix_outside_the_unit_interval(self, method):
        matrix = full(np.random.default_rng(3).uniform(-2, 2, (12, 5)))
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            select(method, matrix, 4)

    def test_less_ranks_the_matrix_itself(self):
        matrix = full(np.random.default_rng(4).uniform(-2, 2, (12, 5)))
        assert select("less", matrix, 4) == topk_rowmax(matrix, 4)

    def test_selectit_ranks_its_m_by_1_matrix(self):
        matrix = column(np.random.default_rng(5).uniform(-2, 2, 12))
        assert select("selectit", matrix, 4) == topk_pointwise(matrix, 4)


class TestBudget:
    def test_large_pool(self):
        assert exact_ceil(0.3, 15000) == 4500

    def test_v_zero(self):
        assert exact_ceil(0.0, 100) == 0

    def test_v_one(self):
        assert exact_ceil(1.0, 100) == 100

    def test_no_float_overshoot(self):
        assert exact_ceil(0.07, 100) == 7

    def test_ceiling(self):
        assert exact_ceil(0.3, 40) == 12


class TestSelectionResult:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(indices=[1, 1], objective_values=[0.5, 0.6], budget=2)

    def test_misaligned_objective_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(indices=[1], objective_values=[], budget=1)
