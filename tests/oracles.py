"""Reference implementations the tests compare the package against.

Each is the slow, direct form of work the package does in blocks: the
network on concatenated pair rows, the one-column estimate without a
workspace, one cosine or one delift cell at a time, the greedy that
rescans every candidate, the corner overlay on a whole matrix and each
quadrant's MSE as one mean. No pipeline step calls them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from nncift.datasets import DatasetPair, quadrant_index_sets
from nncift.errors import CoverageError, DataValidationError
from nncift.influence import InfluenceMatrix, _delift_context, distance_from_logprobs
from nncift.network import QUADRANTS, MlpParams, _chunking, _logistic
from nncift.probes import CostLedger, Provider
from nncift.selection import SelectionResult, _checked_kernel, _gain


def forward_batch(params: MlpParams, x: np.ndarray):
    """The network's outputs, first-layer pre-activations and hidden
    activations for the concatenated input rows x."""
    z1 = x @ params.w1.T + params.b1
    h = np.maximum(z1, 0.0)
    z2 = h @ params.w2.T + params.b2
    y = _logistic(z2)
    return y, z1, h


def forward(params: MlpParams, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != params.in_dim:
        raise ValueError(f"input has {x.shape[0]} features, net expects {params.in_dim}")
    if not np.all(np.isfinite(x)):
        raise DataValidationError("input contains non-finite values")
    y, _, _ = forward_batch(params, x.reshape(1, -1))
    return float(y[0, 0])


def estimate_one_column_in_place(params: MlpParams, left: np.ndarray, rows) -> np.ndarray:
    """The normalized outputs for the one-column (pointwise) inputs
    left[rows]: each gathered chunk of A = left W_lᵀ + b1 has B's zero row
    added and is rectified in place, with no workspace. The oracle for
    the one-column case of `_estimate_chunks`, which forms every chunk in
    its workspace and fills its caller's array."""
    dim = left.shape[1]
    rows = np.asarray(rows, dtype=np.int64)
    b = np.zeros((1, 0)) @ params.w1[:, dim:].T
    step, gather = _chunking(1)
    out = np.empty(len(rows))
    for block in range(0, len(rows), gather):
        a = left[rows[block:block + gather]].astype(np.float64, copy=False) @ params.w1[:, :dim].T
        a += params.b1
        for start in range(0, len(a), step):
            h = a[start:start + step, None, :]
            h = np.add(h, b, out=h)
            np.maximum(h, 0.0, out=h)
            y = _logistic(h.reshape(-1, params.hidden) @ params.w2.T + params.b2)
            out[block + start:block + start + len(y)] = y[:, 0]
    return out


def loss_and_gradients(params: MlpParams, x: np.ndarray, targets: np.ndarray):
    """Batch MSE and its exact analytic gradients.

    Returns (mse, grads) with grads shaped like the parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2-D array")
    if x.shape[0] != targets.shape[0]:
        raise ValueError("batch and targets misaligned")
    batch = x.shape[0]
    y, z1, h = forward_batch(params, x)
    diff = y - targets
    mse = float(np.mean(diff**2))
    # d mse / d z2, through the logistic
    dz2 = (2.0 / batch) * diff * y * (1.0 - y)
    dw2 = dz2.T @ h
    db2 = dz2.sum(axis=0)
    dh = dz2 @ params.w2
    dz1 = dh * (z1 > 0.0)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return mse, MlpParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, exact at the poles: equal vectors give 1.0,
    negated give -1.0 (sqrt(x*x) == x in IEEE-754 double)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    na = float(a @ a)
    nb = float(b @ b)
    if na == 0.0 or nb == 0.0:
        raise DataValidationError("cosine undefined for zero-norm vectors")
    return float(a @ b) / math.sqrt(na * nb)


def delift_pair(
    i: int,
    j: int,
    pair: DatasetPair,
    probe: Provider,
    ledger: CostLedger,
    noctx_cache: dict[int, float] | None = None,
) -> float:
    """How much sample i, used as an in-context example, shrinks the
    distance between the model's prediction and target j's response.

    Positive means the example helps. The context-free term depends only
    on j; passing a cache dict across calls avoids re-probing it. This is
    the per-cell reference for `compute_influence`'s batched delift block.
    """
    i_prompt, i_response = pair.text("fine_tune", i)
    j_prompt, j_response = pair.text("target", j)
    if noctx_cache is not None and j in noctx_cache:
        d_noctx = noctx_cache[j]
    else:
        lp = probe.target_logprobs(j_prompt, j_response, ledger, key=str(j))
        d_noctx = distance_from_logprobs(lp)
        if noctx_cache is not None:
            noctx_cache[j] = d_noctx
    ctx = _delift_context(i_prompt, i_response, j_prompt)
    lp_ctx = probe.target_logprobs(ctx, j_response, ledger, key=f"{i}:{j}")
    d_ctx = distance_from_logprobs(lp_ctx)
    return d_noctx - d_ctx


def facility_location_naive(matrix: InfluenceMatrix, budget: int) -> SelectionResult:
    """Reference greedy that rescans every candidate's gain each step.

    Exists to pin the lazy implementation: both compute gains as _gain
    does (the lazy heap starts from row sums, the same bits while nothing
    is covered), so the index sequences must match exactly.
    """
    kernel = _checked_kernel(matrix, budget)
    m = kernel.shape[0]
    covered = np.zeros(kernel.shape[1], dtype=np.float64)
    chosen: set[int] = set()
    indices: list[int] = []
    objective_values: list[float] = []
    objective = 0.0
    for _ in range(min(budget, m)):
        best_row, best_gain = -1, -1.0
        for row in range(m):
            if row in chosen:
                continue
            gain = _gain(kernel, row, covered)
            if gain > best_gain:
                best_row, best_gain = row, gain
        chosen.add(best_row)
        indices.append(best_row)
        objective += best_gain
        objective_values.append(objective)
        covered = np.maximum(covered, kernel[best_row])
    return SelectionResult(indices=indices, objective_values=objective_values, budget=budget)


def overlay(base: InfluenceMatrix, top: InfluenceMatrix) -> InfluenceMatrix:
    """base with top's block written on top; top's cells must lie inside
    base's block. The whole-matrix form of the corner overlay that
    train-estimate applies a row block at a time."""
    if (top.m, top.n) != (base.m, base.n):
        raise ValueError("shape mismatch in overlay")
    block = base.block.copy()
    block[np.ix_(locate(top.rows, base.rows, base.m),
                 locate(top.cols, base.cols, base.n))] = top.block
    return replace(base, block=block)


def locate(index, own: np.ndarray, size: int) -> np.ndarray:
    """Position of each of `index` within `own`; CoverageError if one is absent."""
    at = np.full(size, -1, dtype=np.int64)
    at[own] = np.arange(len(own))
    found = at[np.asarray(index, dtype=np.int64)]
    if (found < 0).any():
        raise CoverageError(f"index {np.asarray(index)[found < 0][0]} lies outside the block")
    return found


def take(matrix: InfluenceMatrix, rows, cols) -> np.ndarray:
    """The matrix's rows x cols values, row-major in the order given."""
    return matrix.block.take(locate(rows, matrix.rows, matrix.m), 0).take(
        locate(cols, matrix.cols, matrix.n), 1)


def mse_by_quadrant_one_mean(estimates, truth, part):
    """Each quadrant's MSE as one np.mean over its whole float64 copy; NaN
    for an empty quadrant. `estimates` is a matrix or one constant given
    to every cell. The oracle for `mse_by_quadrant`, `QuadrantErrors` and
    mse.json."""
    constant = not isinstance(estimates, InfluenceMatrix)
    out = {}
    for quadrant in QUADRANTS:
        rows, cols = quadrant_index_sets(part, quadrant)
        if len(rows) == 0 or len(cols) == 0:
            out[quadrant] = math.nan
            continue
        predicted = estimates if constant else take(estimates, rows, cols)
        sq = np.subtract(predicted, take(truth, rows, cols), dtype=np.float64)
        np.square(sq, out=sq)
        out[quadrant] = float(np.mean(sq))
    return out
