"""Ground-truth influence values for sample pairs and single samples.

Four valuation methods share this module:

* delift: probe the target's log-probabilities with and without an
  in-context example; the value is how much the example shrinks the
  distance to the target.
* delift_se: cosine similarity of precomputed pair embeddings.
* less: cosine similarity of precomputed gradient features.
* selectit: pointwise certainty score aggregated over rating prompts
  and model scales, weighted by parameter count.

delift and selectit send every probe through `probes.probe_batch`.

Results live in an m x n matrix known on one rows x cols block (the ID
corner, or every cell). It serializes to the NNCIFTB binary format:
magic ``NNCIFTB\\0``, u32 LE m, n, r and c, then r u32 LE row indices,
c u32 LE column indices and the r*c float32 LE block, row-major, rows
and columns in the order the block holds them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datasets import DatasetPair, all_finite, row_blocks
from .errors import (
    DataValidationError,
    FileFormatError,
    PayloadLengthError,
    RecordNotFoundError,
)
from .probes import KIND_LOGPROBS, KIND_MAX_PROBS, CostLedger, Provider, probe_batch

NNK_MAGIC = b"NNCIFTB\x00"
_NNK_HEADER = struct.Struct("<8sIIII")

PAIRWISE_METHODS = ("delift", "delift_se", "less")
POINTWISE_METHODS = ("selectit",)
_POINTWISE_BLOCK = 1024  # indices per selectit batch: bounds the requests and answers held


def _checked_index(index, size: int, axis: str) -> np.ndarray:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= size)):
        raise ValueError(f"{axis} indices must be 1-D and in range [0, {size})")
    if (np.diff(np.sort(index)) == 0).any():  # np.unique imports numpy.ma on first use
        raise ValueError(f"duplicate {axis} index")
    return index


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """An m x n influence matrix known on one rows x cols block:
    `block[a, b]` is cell (rows[a], cols[b]). The indices are distinct and
    kept in the caller's order."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    block: np.ndarray

    def __post_init__(self):
        m, n = int(self.m), int(self.n)
        if min(m, n) < 0:
            raise ValueError(f"shape must be nonnegative, got {m} x {n}")
        rows = _checked_index(self.rows, m, "row")
        cols = _checked_index(self.cols, n, "column")
        block = np.ascontiguousarray(self.block, dtype=np.float32)
        if block.shape != (len(rows), len(cols)):
            raise ValueError(f"block shape {block.shape} != {len(rows)} rows x {len(cols)} cols")
        if not all_finite(block):
            raise DataValidationError("block contains non-finite values")
        for name, value in (("m", m), ("n", n), ("rows", rows), ("cols", cols), ("block", block)):
            object.__setattr__(self, name, value)

    @classmethod
    def full(cls, values: np.ndarray) -> "InfluenceMatrix":
        m, n = np.shape(values)
        return cls(m, n, np.arange(m), np.arange(n), values)

    @property
    def fully_valid(self) -> bool:
        """Whether the block is the whole matrix in index order."""
        return all(len(index) == size and (index == np.arange(size)).all()
                   for index, size in ((self.rows, self.m), (self.cols, self.n)))

    @property
    def values(self) -> np.ndarray:
        """Dense m x n values, 0.0 off the block; the block itself when fully valid."""
        return self.block if self.fully_valid else self._dense(self.block)

    @property
    def mask(self) -> np.ndarray:
        """Dense m x n validity, True on the block."""
        return self._dense(np.True_)

    def _dense(self, fill) -> np.ndarray:
        dense = np.zeros((self.m, self.n), dtype=fill.dtype)
        dense[np.ix_(self.rows, self.cols)] = fill
        dense.flags.writeable = False
        return dense

    def valid_count(self) -> int:
        return int(self.block.size)

    def to_bytes(self) -> bytes:
        return b"".join((*_nnk_head(self.m, self.n, self.rows, self.cols),
                         np.ascontiguousarray(self.block, dtype="<f4")))

    @classmethod
    def from_bytes(cls, raw: bytes, origin: str = "<bytes>") -> "InfluenceMatrix":
        if len(raw) < _NNK_HEADER.size:
            raise PayloadLengthError(f"{origin}: shorter than the {_NNK_HEADER.size}-byte header")
        magic, m, n, r, c = _NNK_HEADER.unpack_from(raw)
        if magic != NNK_MAGIC:
            raise FileFormatError(f"{origin}: bad magic {magic!r}")
        expected = _NNK_HEADER.size + 4 * (r + c + r * c)
        if len(raw) != expected:
            raise PayloadLengthError(f"{origin}: file is {len(raw)} bytes, expected {expected}")
        words = np.frombuffer(raw, dtype="<u4", offset=_NNK_HEADER.size)
        try:
            return cls(m, n, words[:r], words[r:r + c], words[r + c:].view("<f4").reshape(r, c))
        except (ValueError, DataValidationError) as exc:
            kind = FileFormatError if isinstance(exc, ValueError) else DataValidationError
            raise kind(f"{origin}: {exc}") from exc


def _nnk_head(m: int, n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The header and the two index arrays, which precede the block in a .nnk file."""
    return (_NNK_HEADER.pack(NNK_MAGIC, m, n, len(rows), len(cols)),
            rows.astype("<u4"), cols.astype("<u4"))


def save_influence(matrix: InfluenceMatrix, path: str | Path) -> None:
    save_influence_rows(path, matrix.m, matrix.n, matrix.rows, matrix.cols, [matrix.block])


def save_influence_rows(path: str | Path, m: int, n: int, rows, cols,
                        blocks: Iterable[np.ndarray]) -> None:
    """Write the .nnk file of the m x n matrix known on rows x cols, whose
    block arrives as consecutive row blocks, without holding it: the bytes
    save_influence writes for the assembled matrix. The blocks are checked
    as InfluenceMatrix checks its block; a stream that fails part way
    leaves a file load_influence rejects as short."""
    rows, cols = _checked_index(rows, m, "row"), _checked_index(cols, n, "column")
    written = 0
    with open(path, "wb") as handle:
        handle.writelines(_nnk_head(m, n, rows, cols))
        for block in blocks:
            block = np.ascontiguousarray(block, dtype="<f4")
            if block.ndim != 2 or block.shape[1] != len(cols):
                raise ValueError(f"row block shape {block.shape} does not have {len(cols)} columns")
            if not all_finite(block):
                raise DataValidationError("block contains non-finite values")
            handle.write(block)
            written += len(block)
    if written != len(rows):
        raise ValueError(f"row blocks hold {written} rows, expected {len(rows)}")


def load_influence(path: str | Path) -> InfluenceMatrix:
    return InfluenceMatrix.from_bytes(Path(path).read_bytes(), origin=str(path))


@dataclass(frozen=True, eq=False)
class PointwiseScores:
    """Scores for a subset of the m samples on the fine-tuning side."""

    m: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = _checked_index(self.indices, self.m, "sample")
        values = np.asarray(self.values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must be 1-D and aligned")
        if not np.all(np.isfinite(values)):
            raise DataValidationError("scores contain non-finite values")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    def to_matrix(self) -> InfluenceMatrix:
        """The scored indices as a block of the m x 1 matrix, so pointwise
        runs reuse the pairwise artifact format."""
        return InfluenceMatrix(self.m, 1, self.indices, [0], self.values[:, None])


@dataclass(frozen=True)
class ScaleEntry:
    """One valuation model size: label, parameter count, and its probe."""

    label: str
    parameter_count: int
    probe: Provider

    def __post_init__(self):
        if self.parameter_count <= 0:
            raise ValueError("parameter_count must be positive")


def distance_from_logprobs(logprobs: Sequence[float]) -> float:
    """1 minus the length-normalized geometric-mean target probability.

    0 means the model assigns probability 1 to every target token; the
    value approaches 1 as the target becomes unpredictable.
    """
    if len(logprobs) == 0:
        raise ValueError("logprobs must be non-empty")
    if any(lp > 0 for lp in logprobs):
        raise DataValidationError("log-probabilities must be <= 0")
    return 1.0 - math.exp(math.fsum(logprobs) / len(logprobs))


def _delift_context(i_prompt: str, i_response: str, j_prompt: str) -> str:
    return f"{i_prompt}\n{i_response}\n\n{j_prompt}"


def _cosine_block(
    left: np.ndarray, right: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Cosine similarity of every (left[i], right[j]) for i in rows, j in
    cols, as one float32 array filled a row block at a time: each block is
    one normalised float64 Gram product. `cosine` in tests/oracles.py is
    its per-cell oracle.

    A zero-norm vector raises, naming the first cell it leaves undefined
    in row-major order.
    """
    t = right[cols].astype(np.float64)
    t_sq = np.einsum("ij,ij->i", t, t)
    out = np.empty((len(rows), len(cols)), dtype=np.float32)
    for block in row_blocks(len(rows), len(cols)):
        f = left[rows[block]].astype(np.float64)
        f_sq = np.einsum("ij,ij->i", f, f)
        undefined = (f_sq == 0.0)[:, None] | (t_sq == 0.0)[None, :]
        if undefined.any():
            a, b = np.argwhere(undefined)[0]
            raise DataValidationError(
                f"at cell ({rows[block][a]}, {cols[b]}): cosine undefined for zero-norm vectors"
            )
        gram = f @ t.T
        denom = np.outer(f_sq, t_sq)
        np.sqrt(denom, out=denom)
        np.divide(gram, denom, out=out[block])
    return out


def _render_prompt(template: str, prompt_text: str) -> str:
    if "{prompt}" in template:
        return template.replace("{prompt}", prompt_text)
    if not template:
        return prompt_text
    return f"{template}\n{prompt_text}"


def compute_influence(
    method: str,
    rows: Sequence[int],
    cols: Sequence[int],
    pair: DatasetPair | None = None,
    probe: Provider | None = None,
    ledger: CostLedger | None = None,
) -> InfluenceMatrix:
    """Fill exactly the rows x cols block of the m x n influence matrix.

    delift sends the block's probes to `probe` as one batch in the cost
    model's layout: each column's context-free probe ("target j"), then
    every cell's in-context probe ("cell (i, j)") in row-major order, so
    the block is one subtraction. Answers are placed by request index, so
    the block does not depend on the order they arrive in. delift_se and
    less read precomputed inputs, cost zero probe calls, and take the
    whole block as one Gram product.
    """
    if isinstance(cols, DatasetPair):
        # perfbench/run.py still calls the older (method, cells, pair) form,
        # always with every cell of the matrix; drop this once it passes a block
        cells, pair = list(rows), cols
        rows, cols = range(pair.m), range(pair.n)
        if cells != [(i, j) for i in rows for j in cols]:
            raise ValueError("a cell list must hold every cell of the matrix in row-major order")
    if method not in PAIRWISE_METHODS:
        raise ValueError(f"unknown pairwise method {method!r}")
    if method == "delift" and (probe is None or ledger is None):
        raise ValueError("delift requires a probe and a ledger")
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if method == "delift":
        # each column's context-free probe, then each cell's in-context one
        targets = [(j, *pair.text("target", j)) for j in cols.tolist()]
        requests = [(f"target {j}", prompt, response, str(j)) for j, prompt, response in targets]
        for i in rows.tolist():
            i_prompt, i_response = pair.text("fine_tune", i)
            requests += [(f"cell ({i}, {j})", _delift_context(i_prompt, i_response, prompt), response,
                          f"{i}:{j}") for j, prompt, response in targets]
        answers = probe_batch(probe, KIND_LOGPROBS, requests, ledger)
        distances = np.array([distance_from_logprobs(lp) for lp in answers], dtype=np.float64)
        block = distances[:len(cols)] - distances[len(cols):].reshape(len(rows), len(cols))
    elif method == "delift_se":
        block = _cosine_block(pair.fine_tune.rows, pair.target.rows, rows, cols)
    else:
        if pair.fine_tune_gradients is None or pair.target_gradients is None:
            raise RecordNotFoundError("gradient features not loaded for both sides")
        block = _cosine_block(pair.fine_tune_gradients.rows, pair.target_gradients.rows, rows, cols)
    return InfluenceMatrix(pair.m, pair.n, rows, cols, block)


def compute_pointwise(
    method: str,
    indices: Iterable[int],
    prompts: Sequence[str],
    scales: Sequence[ScaleEntry],
    pair: DatasetPair,
    ledger: CostLedger,
) -> PointwiseScores:
    """One certainty score per requested fine-tuning index: per-position max
    next-token probabilities averaged along the response, averaged over
    rating prompts, then combined across model scales proportionally to
    parameter count. Sums use math.fsum, so prompt and scale order cannot
    change a score.

    Each block of _POINTWISE_BLOCK indices builds its (index, prompt)
    requests once and sends them to each scale's probe in turn as one
    `probe_batch`; a failure stops at the first scale that fails. Cost is
    len(indices) * len(prompts) * len(scales) forward calls.
    """
    if method not in POINTWISE_METHODS:
        raise ValueError(f"unknown pointwise method {method!r}")
    if not prompts:
        raise ValueError("at least one prompt template required")
    if not scales:
        raise ValueError("at least one scale entry required")
    index_list = [int(i) for i in indices]
    per, total = len(prompts), sum(entry.parameter_count for entry in scales)
    scores: list[float] = []
    for start in range(0, len(index_list), _POINTWISE_BLOCK):
        block = index_list[start:start + _POINTWISE_BLOCK]
        requests = []
        for i in block:
            prompt_text, response_text = pair.text("fine_tune", i)
            requests += [(f"index {i}", _render_prompt(template, prompt_text), response_text, f"{i}:{p}")
                         for p, template in enumerate(prompts)]
        # per scale, each request's mean over the response's positions
        means = [[math.fsum(probs) / len(probs)
                  for probs in probe_batch(entry.probe, KIND_MAX_PROBS, requests, ledger)]
                 for entry in scales]
        for a in range(len(block)):
            sentence = [math.fsum(m[a * per:(a + 1) * per]) / per for m in means]
            scores.append(math.fsum(entry.parameter_count * s
                                    for entry, s in zip(scales, sentence)) / total)
    return PointwiseScores(pair.m, np.array(index_list, dtype=np.int64), np.array(scores))
