"""Subset selection from an influence kernel or pointwise scores.

Facility location f(S) = sum over columns j of max_{i in S} K[i, j]
rewards covering every target with at least one similar selected
sample. It is monotone submodular, so greedy selection carries the
(1 - 1/e) approximation guarantee. The greedy here is lazy: stale
marginal gains sit in a max-heap and are only recomputed when they
surface, which is equivalent to the naive rescan because gains only
shrink as the selection grows (facility_location_naive in tests/oracles.py
is that rescan).

Ranking selectors (top-k by row maximum, top-k by pointwise score)
cover the methods that order samples instead of covering targets; a
pointwise score set is the M x 1 case of the row maximum.

`select` is the one place that maps a method to its selector.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .datasets import row_blocks
from .errors import CoverageError
from .influence import InfluenceMatrix


# each method's selector, by the label selection.json records
SELECTORS = {"delift": "facility_location", "delift_se": "facility_location",
             "less": "topk_rowmax", "selectit": "topk_pointwise"}


@dataclass(frozen=True)
class SelectionResult:
    """Selected fine-tuning indices in pick order, with the objective
    value after each pick."""

    indices: list[int]
    objective_values: list[float]
    budget: int

    def __post_init__(self):
        if len(self.indices) != len(set(self.indices)):
            raise ValueError("selected indices must be distinct")
        if len(self.indices) != len(self.objective_values):
            raise ValueError("one objective value per pick required")


def normalize_kernel(matrix: InfluenceMatrix) -> InfluenceMatrix:
    """Affinely map all values onto [0, 1], preserving their order.

    A constant matrix maps to all zeros (the declared degenerate rule).
    Facility location needs a kernel in [0, 1]; raw influence values may
    be negative. The pipeline never calls this: `full.nnk` is in [0, 1].

    The float32 kernel is filled a row block at a time, each block widened
    to float64, scaled and narrowed back, so it holds no float64 copy of
    the matrix.
    """
    if not matrix.fully_valid:
        raise CoverageError("kernel normalization requires a fully valid matrix")
    block = matrix.block
    # float32 extremes widen exactly: they are the float64 copy's extremes
    lo, hi = (float(block.min()), float(block.max())) if block.size else (0.0, 0.0)
    if not hi > lo:
        return InfluenceMatrix.full(np.zeros_like(block))
    kernel = np.empty_like(block)
    for rows in row_blocks(*block.shape):
        values = block[rows].astype(np.float64)
        values -= lo
        values /= hi - lo
        kernel[rows] = values
    return InfluenceMatrix.full(kernel)


def _gain(kernel: np.ndarray, row: int, covered: np.ndarray) -> float:
    """Marginal facility-location gain of adding `row` given the current
    per-column best coverage; a float32 row is widened by the float64
    subtraction, so the gain is the float64 kernel's."""
    return float(np.maximum(kernel[row] - covered, 0.0).sum())


def _checked_kernel(matrix: InfluenceMatrix, budget: int) -> np.ndarray:
    """The float32 kernel block, read in place: the greedy widens a row at a time."""
    if budget < 1:
        raise ValueError("facility location needs budget >= 1")
    if not matrix.fully_valid:
        raise CoverageError("facility location requires a fully valid kernel")
    kernel = matrix.block
    if kernel.size and (kernel.min() < 0.0 or kernel.max() > 1.0):
        raise ValueError(f"facility location needs values in [0, 1], got {kernel.min()} to {kernel.max()}")
    return kernel


def facility_location_greedy(matrix: InfluenceMatrix, budget: int) -> SelectionResult:
    """Greedy maximization of f(S) with lazy gain re-evaluation.

    Ties break toward the smallest row index. Returns min(budget, m)
    picks; the objective trace is non-decreasing.
    """
    kernel = _checked_kernel(matrix, budget)
    m = kernel.shape[0]
    covered = np.zeros(kernel.shape[1], dtype=np.float64)
    # heap of (-gain, row); stamps mark the iteration a gain was computed in.
    # With nothing covered a row's gain is its float64 sum, bitwise as _gain
    # gives it; the sums are taken a row block at a time.
    first_gains = []
    for rows in row_blocks(*kernel.shape):
        first_gains += kernel[rows].astype(np.float64).sum(axis=1).tolist()
    heap: list[tuple[float, int]] = [(-gain, i) for i, gain in enumerate(first_gains)]
    heapq.heapify(heap)
    last_eval = [1] * m
    indices: list[int] = []
    objective_values: list[float] = []
    objective = 0.0
    for iteration in range(1, min(budget, m) + 1):
        while True:
            neg_gain, row = heapq.heappop(heap)
            if last_eval[row] == iteration:
                break
            fresh = _gain(kernel, row, covered)
            last_eval[row] = iteration
            heapq.heappush(heap, (-fresh, row))
        objective += -neg_gain
        indices.append(row)
        objective_values.append(objective)
        covered = np.maximum(covered, kernel[row])
    return SelectionResult(indices=indices, objective_values=objective_values, budget=budget)


def facility_location_value(kernel: np.ndarray, subset) -> float:
    """f(S) evaluated directly; the brute-force oracle for tests."""
    subset = list(subset)
    if not subset:
        return 0.0
    return float(kernel[subset].max(axis=0).sum())


def topk_rowmax(matrix: InfluenceMatrix, k: int) -> SelectionResult:
    """Rank rows by their strongest single target match and keep the
    top k; ties toward the smaller index."""
    if not matrix.fully_valid:
        raise CoverageError("row ranking requires a fully valid matrix")
    m = matrix.m
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in [0, {m}], got {k}")
    scores = matrix.block.max(axis=1).astype(np.float64)  # max is exact in float32
    order = np.lexsort((np.arange(m), -scores))
    indices = [int(i) for i in order[:k]]
    running = np.cumsum(scores[order[:k]])
    return SelectionResult(indices=indices, objective_values=[float(v) for v in running], budget=k)


def topk_pointwise(matrix: InfluenceMatrix, k: int) -> SelectionResult:
    """Top k of the M x 1 matrix's scores; ties toward the smaller index."""
    if matrix.n != 1:
        raise ValueError(f"pointwise scores are an M x 1 matrix, got {matrix.n} columns")
    return topk_rowmax(matrix, k)


def select(method: str, matrix: InfluenceMatrix, budget: int) -> SelectionResult:
    """`method`'s selector run on `matrix` at `budget`. Facility location
    takes the matrix as its kernel, so its values must lie in [0, 1]."""
    selector = {"facility_location": facility_location_greedy, "topk_rowmax": topk_rowmax,
                "topk_pointwise": topk_pointwise}[SELECTORS[method]]
    return selector(matrix, budget)
