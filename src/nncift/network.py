"""The trainable influence estimator: a two-layer perceptron.

Architecture: in_dim -> hidden (ReLU) -> 1 (logistic), so estimates are
confined to (0, 1). Training minimizes mean squared error against
influence values observed on the ID x ID corner; targets are affinely
mapped into [0, 1] first and the map travels with the parameters so
estimates and targets stay comparable.

Pairwise inputs are the two embeddings of a cell concatenated, but
neither training nor estimation builds those rows: the first layer
splits into a fine-tune half and a target half, each applied once per
distinct row or column, and a cell only adds its row's and its column's
projections. A training step over B cells that touch |ur| rows and |uc|
columns costs (|ur|+|uc|)·d·H + B·H first-layer multiply-adds instead of
B·2d·H. Pointwise input is the same block with one column and an empty
target half.

Everything here is plain numpy with analytic gradients; the training
loop is deterministic for a fixed seed.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .datasets import (
    ROW_BLOCK_CELLS,
    DatasetPair,
    EmbeddingMatrix,
    QuadrantPartition,
    is_number,
    quadrant_index_sets,
    read_json,
    row_blocks,
)
from .errors import CoverageError, DataValidationError, FileFormatError, TrainingError
from .influence import InfluenceMatrix, PointwiseScores
from .probes import CostLedger

QUADRANTS = ("Q1", "Q2", "Q3", "Q4")
_CHUNK_CELLS = 1024  # estimates per forward batch, bounding its cells x hidden activations
_GATHER_ROWS = 128  # rows of A gathered and projected at once, rounded to whole chunks
_ADAM_SLICE = 1 << 14  # parameters per Adam slice: its two scratch buffers are 128 KB each
_WEIGHTS = ("w1", "b1", "w2", "b2")  # MlpParams.arrays() order, as stored in params.json
_WEIGHT_DTYPE = "<f8"
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's constants, recorded in params.json's optimizer block


@dataclass
class MlpParams:
    w1: np.ndarray  # hidden x in_dim
    b1: np.ndarray  # hidden
    w2: np.ndarray  # 1 x hidden
    b2: np.ndarray  # 1

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        hidden, in_dim = self.w1.shape
        if self.b1.shape != (hidden,) or self.w2.shape != (1, hidden) or self.b2.shape != (1,):
            raise ValueError("parameter shapes are inconsistent")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise DataValidationError("parameters contain non-finite values")

    @property
    def in_dim(self) -> int:
        return int(self.w1.shape[1])

    @property
    def hidden(self) -> int:
        return int(self.w1.shape[0])

    @property
    def parameter_count(self) -> int:
        return self.in_dim * self.hidden + self.hidden + self.hidden + 1

    @property
    def first_layer_parameter_count(self) -> int:
        # The hidden layer alone; reported alongside parameter_count
        # because the two are easy to conflate when quoting model size.
        return self.in_dim * self.hidden + self.hidden

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass(frozen=True)
class NormStats:
    """Affine map between raw influence targets and the unit interval."""

    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise DataValidationError("norm stats must be finite")
        if self.min > self.max:
            raise ValueError("norm min must be <= max")

    @classmethod
    def fit(cls, targets: np.ndarray) -> "NormStats":
        targets = np.asarray(targets, dtype=np.float64)
        if targets.size == 0:
            raise ValueError("cannot fit norm stats to an empty target set")
        return cls(min=float(targets.min()), max=float(targets.max()))

    @property
    def degenerate(self) -> bool:
        return self.min == self.max

    def normalize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if self.degenerate:
            return np.full_like(values, 0.5)
        return (values - self.min) / (self.max - self.min)

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return self.min + values * (self.max - self.min)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-4
    batch_size: int = 256
    seed: int = 0
    hidden: int = 100

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "hidden"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        lr = self.learning_rate
        if not is_number(lr):
            raise TypeError(f"learning_rate must be a finite number, got {lr!r}")
        for name in ("epochs", "batch_size", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")

    def optimizer_metadata(self) -> dict:
        return {
            "name": "adam",
            "learning_rate": self.learning_rate,
            "beta1": _BETA1,
            "beta2": _BETA2,
            "eps": _EPS,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
        }


@dataclass(frozen=True)
class TrainResult:
    params: MlpParams
    epoch_losses: list[float]
    norm: NormStats


def init_params(seed: int, in_dim: int, hidden: int = 100) -> MlpParams:
    """Seeded scaled-uniform (Glorot) initialization, zero biases."""
    if in_dim < 1 or hidden < 1:
        raise ValueError("dims must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    lim1 = math.sqrt(6.0 / (in_dim + hidden))
    lim2 = math.sqrt(6.0 / (hidden + 1))
    return MlpParams(
        w1=rng.uniform(-lim1, lim1, size=(hidden, in_dim)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=(1, hidden)),
        b2=np.zeros(1),
    )


def _logistic(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows: 1/(1+e) for z >= 0, e/(1+e) below it.
    # min(z, -z) rather than -abs(z) keeps a NaN's sign bit as it came in.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class _Adam:
    """Adam over one flat parameter vector, with flat moments. A step
    walks the vector in slices of _ADAM_SLICE, each 14 in-place ufunc
    calls through two slice-sized scratch buffers in the per-array
    formula's operation order, so it rounds exactly as

        m = beta1 m + (1 - beta1) g,   v = beta2 v + (1 - beta2) g**2
        p -= lr (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """

    def __init__(self, size: int, config: TrainConfig):
        self.config = config
        self.m, self.v = np.zeros((2, size))
        self._s1, self._s2 = np.empty((2, min(size, _ADAM_SLICE)))
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        bias1, bias2 = 1.0 - _BETA1**self.t, 1.0 - _BETA2**self.t
        for start in range(0, len(flat), _ADAM_SLICE):
            part = slice(start, start + _ADAM_SLICE)
            m, v, g = self.m[part], self.v[part], grad[part]
            s1, s2 = self._s1[:len(m)], self._s2[:len(m)]
            m *= _BETA1
            np.multiply(g, 1.0 - _BETA1, out=s1)
            m += s1
            v *= _BETA2
            np.square(g, out=s1)
            s1 *= 1.0 - _BETA2
            v += s1
            np.divide(m, bias1, out=s1)
            s1 *= self.config.learning_rate
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += _EPS
            s1 /= s2
            flat[part] -= s1


def _on_flat(like: MlpParams, flat: np.ndarray) -> MlpParams:
    """Parameters shaped like `like` whose arrays are consecutive views of flat."""
    arrays, offset = [], 0
    for arr in like.arrays():
        arrays.append(flat[offset:offset + arr.size].reshape(arr.shape))
        offset += arr.size
    return MlpParams(*arrays)


def _distinct(index: np.ndarray, size: int):
    """The distinct values of index (all below size), ascending, and each
    entry's position among them. The positions are None when rows taken
    at the distinct values already line up with index: when nothing
    repeats (the values are index itself, in its order) or when one value
    fills the batch (its one row broadcasts)."""
    present = np.bincount(index, minlength=size) > 0
    distinct = np.flatnonzero(present)
    if len(distinct) == len(index):
        return index, None
    if len(distinct) == 1:
        return distinct, None
    return distinct, (np.cumsum(present) - 1)[index]


def _group_sum(values: np.ndarray, inverse, groups: int) -> np.ndarray:
    """values' rows summed per group of _distinct, each sum taken in row
    order: np.add.at's exact result, at a fraction of its cost."""
    if groups == 1:
        return values.sum(axis=0, keepdims=True)
    if inverse is None:
        return values
    width = values.shape[1]
    bins = (inverse[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(bins, weights=values.reshape(-1), minlength=groups * width)
    return sums.reshape(groups, width)


def _factored_gradients(params: MlpParams, grads: MlpParams, left: np.ndarray,
                        right: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        targets: np.ndarray, scratch: tuple[np.ndarray, ...]) -> None:
    """Write into grads the exact gradients of the batch MSE over the cells
    (left[rows[k]] | right[cols[k]]), without building those rows; the
    reference on concatenated rows is loss_and_gradients in tests/oracles.py.

    With W1 = [W_f | W_t], each distinct row ur and column uc is
    projected once and z1 = (left[ur] W_fᵀ + b1)[r] + (right[uc] W_tᵀ)[c].
    Backward, dW_f = S_fᵀ left[ur], where S_f sums dz1 over the cells of
    each distinct row; dW_t alike. The rest is plain backpropagation.

    The gathered rows, and the batch's z1, h and then dz1 in turn, are
    written into `scratch` (see train), so the largest arrays of a step
    are not allocated afresh for each step.
    """
    dim = left.shape[1]
    ur, r = _distinct(rows, len(left))
    uc, c = _distinct(cols, len(right))
    left_buf, right_buf, hidden_buf = scratch
    # ur and uc are in range; mode "clip" writes straight into out, where
    # "raise" would fill a temporary copy first
    left_u = np.take(left, ur, axis=0, out=left_buf[:len(ur)], mode="clip")
    right_u = np.take(right, uc, axis=0, out=right_buf[:len(uc)], mode="clip")
    a = left_u @ params.w1[:, :dim].T
    a += params.b1
    b = right_u @ params.w1[:, dim:].T
    h = np.add(a if r is None else a[r], b if c is None else b[c], out=hidden_buf[:len(rows)])
    np.maximum(h, 0.0, out=h)  # z1 rectified in place: h > 0 exactly where z1 > 0
    y = _logistic(h @ params.w2.T + params.b2)
    diff = y - targets.reshape(-1, 1)
    dz2 = (2.0 / len(rows)) * diff * y * (1.0 - y)
    np.matmul(dz2.T, h, out=grads.w2)
    np.sum(dz2, axis=0, out=grads.b2)
    active = h > 0.0
    # the outer product dz2 @ w2, each entry one exact product, written over h
    dz1 = np.multiply(dz2, params.w2, out=h)
    dz1 *= active
    np.sum(dz1, axis=0, out=grads.b1)
    np.matmul(_group_sum(dz1, r, len(ur)).T, left_u, out=grads.w1[:, :dim])
    np.matmul(_group_sum(dz1, c, len(uc)).T, right_u, out=grads.w1[:, dim:])


def check_fits(in_dim: int, config: TrainConfig) -> None:
    """TrainingError if a network on `in_dim` inputs outgrows this machine's
    memory with its float64 values, gradient and two Adam moments."""
    count = in_dim * config.hidden + 2 * config.hidden + 1
    if 32 * count > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise TrainingError(f"train.hidden {config.hidden} gives {count} parameters, whose float64 values, "
                            f"gradient and two Adam moments ({32 * count} bytes) exceed this machine's memory")


def train(left: np.ndarray, right: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> TrainResult:
    """Fit the estimator to the ID corner: targets[k] is the influence of
    cell (k // len(right), k % len(right)) of the left x right block
    (F[id_f] x T[id_t]; pointwise, right is np.zeros((1, 0))).

    Targets are mapped into [0,1] by their observed range before
    training; the map is returned so estimates can be compared and
    inverted consistently. Mini-batch order is seeded; the whole run is
    deterministic for a fixed config. Every step and every epoch's
    corner loss use the factored first layer, so no pair row is built.
    A network whose training state outgrows the machine's memory, or an
    epoch whose corner loss is not finite, raises TrainingError.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if left.ndim != 2 or right.ndim != 2 or len(left) == 0 or len(right) == 0:
        raise TrainingError("empty training set: the ID corner has no cells (u too small)")
    if targets.shape[0] != len(left) * len(right):
        raise ValueError("corner and targets misaligned")
    if not np.all(np.isfinite(targets)):
        raise DataValidationError("targets contain non-finite values")
    in_dim = left.shape[1] + right.shape[1]
    check_fits(in_dim, config)
    norm = NormStats.fit(targets)
    t_norm = norm.normalize(targets)
    init = init_params(config.seed, in_dim=in_dim, hidden=config.hidden)
    flat = np.concatenate([a.reshape(-1) for a in init.arrays()])
    grad = np.zeros_like(flat)
    params, grads = _on_flat(init, flat), _on_flat(init, grad)
    del init  # its arrays live on in flat
    optimizer = _Adam(flat.size, config)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 1))))
    every_row, every_col = np.arange(len(left)), np.arange(len(right))
    corner = np.empty((len(left), len(right)))
    # every step and every epoch's corner pass reuse one set of buffers: fresh
    # ones of this size cost page faults each time once the allocator trims
    # them back to the system
    batch = min(config.batch_size, len(targets))
    scratch = (np.empty_like(left), np.empty_like(right), np.empty((batch, config.hidden)))
    workspace = _workspace(len(left), len(right), config.hidden)
    losses = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(targets.shape[0])
        for start in range(0, len(order), config.batch_size):
            cells = order[start:start + config.batch_size]
            rows, cols = np.divmod(cells, len(right))
            _factored_gradients(params, grads, left, right, rows, cols, t_norm[cells], scratch)
            optimizer.step(flat, grad)
        _estimate_chunks(params, left, every_row, _project(params, right, every_col, workspace), corner)
        losses.append(float(np.mean((corner.reshape(-1) - t_norm) ** 2)))
        if not math.isfinite(losses[-1]):
            raise TrainingError(f"the network diverged: epoch {epoch}'s corner loss is {losses[-1]}; "
                                f"lower train.learning_rate ({config.learning_rate})")
    return TrainResult(params=params, epoch_losses=losses, norm=norm)


def build_pair_features(pair: DatasetPair, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Feature vectors for the rows x cols block in row-major order: the
    two embeddings of each cell concatenated."""
    fi = pair.fine_tune.rows[np.asarray(rows, dtype=np.int64)]
    tj = pair.target.rows[np.asarray(cols, dtype=np.int64)]
    features = np.empty((len(fi), len(tj), fi.shape[1] + tj.shape[1]))
    features[:, :, :fi.shape[1]] = fi[:, None, :]
    features[:, :, fi.shape[1]:] = tj[None, :, :]
    return features.reshape(-1, features.shape[2])


def _chunking(cols: int) -> tuple[int, int]:
    """_estimate_chunks' rows per chunk (about _CHUNK_CELLS cells of whole
    rows) and rows of A gathered and projected at once (whole chunks)."""
    step = max(1, _CHUNK_CELLS // max(1, cols))
    return step, step * max(1, _GATHER_ROWS // step)


def _workspace(rows: int, cols: int, hidden: int) -> np.ndarray:
    """_estimate_chunks' float64 workspace for a rows x cols block: one chunk's activations."""
    return np.empty((min(_chunking(cols)[0], rows), cols, hidden))


class ProjectedColumns(NamedTuple):
    """The column side of an estimate pass, which its row blocks share:
    the columns, their first-layer projection B = right[cols] W_rᵀ and the
    float64 chunk workspace (`_workspace`), reused rather than allocated
    per call, where fresh pages cost faults. It holds for the parameters
    it was built from."""

    params: MlpParams
    cols: np.ndarray
    b: np.ndarray
    ws: np.ndarray


def _project(params: MlpParams, right: np.ndarray, cols, ws: np.ndarray) -> ProjectedColumns:
    cols = np.asarray(cols, dtype=np.int64)
    w_right = params.w1[:, params.in_dim - right.shape[1]:]
    return ProjectedColumns(params, cols, right[cols].astype(np.float64, copy=False) @ w_right.T, ws)


def project_columns(params: MlpParams, pair: DatasetPair, rows: int,
                    cols: Sequence[int]) -> ProjectedColumns:
    """The target side of a pairwise pass over `rows` rows x cols, for
    estimate_pairwise calls that each estimate some of those rows."""
    return _project(params, pair.target.rows, cols, _workspace(rows, len(cols), params.hidden))


def estimate_row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """row_blocks' slices rounded down to whole gathers of _estimate_chunks
    (at least one), so the estimates of the rows in one slice are those of
    a call over every row, chunk for chunk and bit for bit."""
    gather = _chunking(cols)[1]
    step = gather * max(1, ROW_BLOCK_CELLS // max(1, cols) // gather)
    return (slice(start, start + step) for start in range(0, rows, step))


def _estimate_chunks(params: MlpParams, left: np.ndarray, rows: np.ndarray,
                     columns: ProjectedColumns, out: np.ndarray) -> np.ndarray:
    """`out`, a len(rows) x len(cols) array, filled chunk by chunk with the
    network's outputs for every (left[rows[a]], right[cols[b]]) input, in
    the normalized [0,1] target space, where `columns` holds cols and
    right's part (`_project`).

    The first layer is factored: with W1 = [W_l | W_r], the hidden
    pre-activation of (a, b) is A[a] + B[b], where A = left W_lᵀ + b1 and
    B = right W_rᵀ (`_project`), each computed once. No concatenated input
    row is built, and the block costs (M+N)·d·H + M·N·H multiply-adds
    instead of M·N·2d·H. A is gathered and projected in whole chunks, about
    _GATHER_ROWS rows at a time, or one chunk when a chunk holds more rows
    than that, so no rows x dim or rows x hidden array is held. Pointwise
    input is the one-column case: `right` is one row of no features, so B
    is a zero row.

    Every chunk of whole rows (about _CHUNK_CELLS cells) forms its hidden
    activations in one float64 workspace, `columns.ws`: max(_CHUNK_CELLS,
    len(cols)) x hidden, 0.8 MB at 1024 cells and hidden 100. The chunk
    size moves an output by a few float64 ulps at most, as BLAS sums a row
    by how many rows share the call: far below the float32 precision the
    estimates are stored in.
    """
    dim, b = left.shape[1], columns.b
    step, gather = _chunking(len(b))
    for block in range(0, len(rows), gather):
        a = left[rows[block:block + gather]].astype(np.float64, copy=False) @ params.w1[:, :dim].T
        a += params.b1
        for start in range(0, len(a), step):
            h = a[start:start + step, None, :]
            h = np.add(h, b, out=columns.ws[:len(h)])
            np.maximum(h, 0.0, out=h)
            y = _logistic(h.reshape(-1, params.hidden) @ params.w2.T + params.b2)
            out[block + start:block + start + len(h)] = y.reshape(-1, len(b))
    return out


def estimate_pairwise(
    params: MlpParams,
    pair: DatasetPair,
    rows: Sequence[int],
    cols: Sequence[int],
    ledger: CostLedger,
    columns: ProjectedColumns | None = None,
) -> InfluenceMatrix:
    """Estimate the rows x cols block with the tiny network, its first
    layer applied once per row and once per column (`_estimate_chunks`).
    A pass that estimates its rows a block per call passes each call the
    same `columns` (`project_columns`), so the columns' side is built once.

    Charges estimator_forwards, one per cell, and never forward_calls:
    keeping the two meters separate is the whole point of the approach.
    Outputs live in the normalized [0,1] target space.
    """
    dim = pair.fine_tune.dim
    if params.in_dim != 2 * dim:
        raise ValueError(
            f"net expects in_dim {params.in_dim}, pair embeddings give {2 * dim}"
        )
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if columns is None:
        columns = project_columns(params, pair, len(rows), cols)
    elif columns.params is not params or not np.array_equal(columns.cols, cols):
        raise ValueError("columns were projected for other parameters or columns")
    block = _estimate_chunks(params, pair.fine_tune.rows, rows, columns,
                             np.empty((len(rows), len(cols)), dtype=np.float32))
    ledger.add_estimator_forwards(len(rows) * len(cols))
    return InfluenceMatrix(pair.m, pair.n, rows, cols, block)


def estimate_pointwise(
    params: MlpParams,
    embeddings: EmbeddingMatrix,
    indices: Iterable[int],
    norm: NormStats,
    ledger: CostLedger,
) -> PointwiseScores:
    """Estimate pointwise scores, the one-column case of the pairwise
    block; raw (0,1) outputs are mapped back through the stored target
    range so they are comparable with ground-truth scores."""
    if params.in_dim != embeddings.dim:
        raise ValueError(f"net expects in_dim {params.in_dim}, embeddings give {embeddings.dim}")
    indices = np.array([int(i) for i in indices], dtype=np.int64)
    columns = _project(params, np.zeros((1, 0)), [0], _workspace(len(indices), 1, params.hidden))
    outputs = _estimate_chunks(params, embeddings.rows, indices, columns, np.empty((len(indices), 1)))[:, 0]
    ledger.add_estimator_forwards(len(indices))
    return PointwiseScores(m=embeddings.count, indices=indices,
                           values=norm.denormalize(outputs))


def mse_by_quadrant(
    estimates: InfluenceMatrix | float,
    truth: InfluenceMatrix,
    part: QuadrantPartition,
) -> dict[str, float]:
    """Mean squared difference per quadrant; empty quadrants yield NaN.

    `estimates` is a matrix or one constant given to every cell; the
    whole matrix is one QuadrantErrors pass.
    """
    constant = not isinstance(estimates, InfluenceMatrix)
    if not constant and (estimates.m, estimates.n) != (truth.m, truth.n):
        raise ValueError("estimate and truth shapes differ")
    if any(matrix.valid_count() != matrix.m * matrix.n
           for matrix in ([truth] if constant else [truth, estimates])):
        raise CoverageError("mse_by_quadrant needs every cell of each matrix")
    # .values orders a whole matrix stored out of index order
    errors = QuadrantErrors(part, ("estimates",))
    errors.add(slice(0, truth.m), truth.values,
               {"estimates": estimates if constant else estimates.values})
    return errors.means()["estimates"]


# the predictors the truth evaluation scores, in the reports' column order
PREDICTORS = ("trained", "random_uniform", "predict_zero", "corner_mean")


class QuadrantErrors:
    """Squared error per quadrant for several predictors, summed from row
    blocks of the matrix (each row_blocks part of a block's quadrant is
    summed as one array, then added to the quadrant's running sum), so it
    matches one mean over each whole quadrant to a few ulps.
    """

    def __init__(self, part: QuadrantPartition, names: Iterable[str]):
        self._quadrants = []  # (quadrant, row mask over the m rows, columns, cells)
        for quadrant in QUADRANTS:
            rows, cols = quadrant_index_sets(part, quadrant)
            mask = np.zeros(part.m, dtype=bool)
            mask[rows] = True
            self._quadrants.append((quadrant, mask, cols, len(rows) * len(cols)))
        self._sums = {name: dict.fromkeys(QUADRANTS, 0.0) for name in names}

    def add(self, rows: slice, truth: np.ndarray, predictions: dict) -> None:
        """Add the errors on matrix rows `rows`, whose truth is `truth`;
        `predictions` gives each predictor's block there, or one constant."""
        masks = [(quadrant, mask[rows], cols) for quadrant, mask, cols, count in self._quadrants
                 if count]
        for part in row_blocks(*truth.shape):
            cells = [(quadrant, np.ix_(np.flatnonzero(mask[part]), cols))
                     for quadrant, mask, cols in masks]
            for name, predicted in predictions.items():
                if isinstance(predicted, np.ndarray):
                    predicted = predicted[part]
                sq = np.subtract(predicted, truth[part], dtype=np.float64)
                np.square(sq, out=sq)
                for quadrant, at in cells:
                    self._sums[name][quadrant] += float(sq[at].sum())

    def means(self) -> dict[str, dict[str, float]]:
        """Each predictor's mean squared error per quadrant; NaN for an empty one."""
        return {name: {quadrant: sums[quadrant] / count if count else math.nan
                       for quadrant, _, _, count in self._quadrants}
                for name, sums in self._sums.items()}


def uniform_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The next rows x cols uniform draws of rng as float32, drawn a row
    block at a time in the stream order of one rng.random((rows, cols))
    call, so its values are that call's and no float64 copy is held."""
    values = np.empty((rows, cols), dtype=np.float32)
    for block in row_blocks(rows, cols):
        part = values[block]
        part[...] = rng.random(part.shape)
    return values


def baseline_estimates(kind: str, shape: tuple[int, int], seed: int = 0) -> InfluenceMatrix:
    """The "random_uniform" predictor: seeded float32 uniform noise, the
    values of one rng.random((m, n)) call. "predict_zero" is the constant 0.0."""
    if kind != "random_uniform":
        raise ValueError(f"unknown baseline kind {kind!r}")
    m, n = shape
    if m < 0 or n < 0:
        raise ValueError("shape must be nonnegative")
    return InfluenceMatrix.full(uniform_rows(np.random.Generator(np.random.PCG64(seed)), m, n))


def save_params(
    params: MlpParams,
    path: str | Path,
    norm: NormStats | None = None,
    seed: int | None = None,
    optimizer: dict | None = None,
) -> None:
    """Write parameters (and the target-range map) as JSON. Each weight
    array is stored as its raw little-endian float64 bytes in base64, so
    reload is bit-exact; the dims, counts, seed, optimizer and norm_stats
    stay plain JSON at the top level."""
    doc = {
        "in_dim": params.in_dim,
        "hidden": params.hidden,
        "parameter_count": params.parameter_count,
        "first_layer_parameter_count": params.first_layer_parameter_count,
        "seed": seed,
        "optimizer": optimizer or {},
        "norm_stats": [norm.min, norm.max] if norm is not None else None,
    }
    for name, arr in zip(_WEIGHTS, params.arrays()):
        raw = np.ascontiguousarray(arr, dtype=_WEIGHT_DTYPE).tobytes()
        doc[name] = {"dtype": _WEIGHT_DTYPE, "shape": list(arr.shape),
                     "data": base64.b64encode(raw).decode("ascii")}
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _decode_weight(path: Path, name: str, entry, shape: tuple[int, ...]) -> np.ndarray:
    if not isinstance(entry, dict) or entry.keys() != {"dtype", "shape", "data"}:
        raise FileFormatError(f"{path}: {name} must be a {{dtype, shape, data}} object")
    if entry["dtype"] != _WEIGHT_DTYPE:
        raise FileFormatError(f"{path}: {name} dtype must be {_WEIGHT_DTYPE!r}, got {entry['dtype']!r}")
    declared = entry["shape"]
    if declared != list(shape) or any(type(v) is not int for v in declared):
        raise FileFormatError(f"{path}: {name} shape {declared!r} does not match in_dim/hidden "
                              f"{list(shape)}")
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {name} data is not a base64 string: {exc}") from exc
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise FileFormatError(f"{path}: {name} holds {len(raw)} bytes, shape needs {expected}")
    return np.frombuffer(raw, dtype=_WEIGHT_DTYPE).reshape(shape).copy()


def load_params(path: str | Path) -> tuple[MlpParams, NormStats | None, dict]:
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or not {"in_dim", "hidden", *_WEIGHTS} <= doc.keys():
        raise FileFormatError(f"{path}: missing required parameter fields")
    in_dim, hidden = doc["in_dim"], doc["hidden"]
    if not (type(in_dim) is int and type(hidden) is int and in_dim >= 0 and hidden >= 0):
        raise FileFormatError(f"{path}: in_dim and hidden must be non-negative ints, "
                              f"got {in_dim!r}, {hidden!r}")
    shapes = ((hidden, in_dim), (hidden,), (1, hidden), (1,))
    params = MlpParams(*(_decode_weight(path, name, doc[name], shape)
                         for name, shape in zip(_WEIGHTS, shapes)))
    norm = None
    stats = doc.get("norm_stats")
    if stats is not None:
        if not (isinstance(stats, list) and len(stats) == 2
                and all(map(is_number, stats))):
            raise FileFormatError(f"{path}: norm_stats must be a [min, max] pair of numbers")
        try:
            norm = NormStats(min=float(stats[0]), max=float(stats[1]))
        except ValueError as exc:
            raise FileFormatError(f"{path}: norm_stats {stats}: {exc}") from exc
    meta = {k: doc.get(k) for k in ("seed", "optimizer", "parameter_count",
                                    "first_layer_parameter_count")}
    return params, norm, meta
