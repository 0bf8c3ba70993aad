"""Ground-truth influence values for sample pairs and single samples.

Four valuation methods share this module:

* delift: probe the target's log-probabilities with and without an
  in-context example; the value is how much the example shrinks the
  distance to the target.
* delift_se: cosine similarity of precomputed pair embeddings.
* less: cosine similarity of precomputed gradient features.
* selectit: pointwise certainty score aggregated over rating prompts
  and model scales, weighted by parameter count.

Partial (quadrant-restricted) results live in a masked matrix that
serializes to the NNCIFTK binary format: magic ``NNCIFTK\\0``, u32 LE m,
u32 LE n, m*n float32 LE values row-major, then ceil(m*n/8) mask bytes
(bit set = cell valid), cells in row-major order, least significant bit
first within each byte.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datasets import DatasetPair
from .errors import (
    DataValidationError,
    FileFormatError,
    NnciftError,
    PayloadLengthError,
    RecordNotFoundError,
)
from .probes import CostLedger, Provider, target_logprobs_batch

NNK_MAGIC = b"NNCIFTK\x00"
_NNK_HEADER = struct.Struct("<8sII")

PAIRWISE_METHODS = ("delift", "delift_se", "less")
POINTWISE_METHODS = ("selectit",)


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """m x n influence values with a per-cell validity mask.

    Invalid cells are stored as 0.0 so serialized bytes depend only on
    the valid content.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float32))
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        if not np.all(np.isfinite(values[mask])):
            raise DataValidationError("valid cells contain non-finite values")
        values = np.where(mask, values, np.float32(0.0))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def full(cls, values: np.ndarray) -> "InfluenceMatrix":
        values = np.asarray(values)
        return cls(values=values, mask=np.ones(values.shape, dtype=bool))

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    @property
    def n(self) -> int:
        return int(self.values.shape[1])

    @property
    def fully_valid(self) -> bool:
        return bool(self.mask.all())

    def valid_count(self) -> int:
        return int(self.mask.sum())

    def overlay(self, other: "InfluenceMatrix") -> "InfluenceMatrix":
        """This matrix with other's valid cells written on top."""
        if other.values.shape != self.values.shape:
            raise ValueError("shape mismatch in overlay")
        return InfluenceMatrix(
            values=np.where(other.mask, other.values, self.values),
            mask=self.mask | other.mask,
        )

    def _nnk_parts(self) -> tuple[bytes, np.ndarray, np.ndarray]:
        """Header, float payload and packed mask, in file order; the
        payload is a view of the values on a little-endian host."""
        header = _NNK_HEADER.pack(NNK_MAGIC, self.m, self.n)
        payload = np.ascontiguousarray(self.values, dtype="<f4")
        return header, payload, np.packbits(self.mask.reshape(-1), bitorder="little")

    def to_bytes(self) -> bytes:
        return b"".join(self._nnk_parts())

    @classmethod
    def from_bytes(cls, raw: bytes, origin: str = "<bytes>") -> "InfluenceMatrix":
        if len(raw) < _NNK_HEADER.size:
            raise PayloadLengthError(f"{origin}: shorter than the 16-byte header")
        magic, m, n = _NNK_HEADER.unpack_from(raw)
        if magic != NNK_MAGIC:
            raise FileFormatError(f"{origin}: bad magic {magic!r}")
        cells = m * n
        value_bytes = cells * 4
        mask_len = (cells + 7) // 8
        expected = _NNK_HEADER.size + value_bytes + mask_len
        if len(raw) != expected:
            raise PayloadLengthError(f"{origin}: file is {len(raw)} bytes, expected {expected}")
        values = np.frombuffer(raw, dtype="<f4", count=cells, offset=_NNK_HEADER.size)
        packed = np.frombuffer(raw, dtype=np.uint8, offset=_NNK_HEADER.size + value_bytes)
        mask = np.unpackbits(packed, count=cells, bitorder="little").astype(bool)
        return cls(values=values.reshape(m, n).copy(), mask=mask.reshape(m, n))

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for part in self._nnk_parts():
            digest.update(part)
        return digest.hexdigest()


def save_influence(matrix: InfluenceMatrix, path: str | Path) -> None:
    with open(path, "wb") as handle:
        for part in matrix._nnk_parts():
            handle.write(part)


def load_influence(path: str | Path) -> InfluenceMatrix:
    path = Path(path)
    return InfluenceMatrix.from_bytes(path.read_bytes(), origin=str(path))


@dataclass(frozen=True, eq=False)
class PointwiseScores:
    """Scores for a subset of the m samples on the fine-tuning side."""

    m: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("indices and values must be 1-D and aligned")
        if len(np.unique(indices)) != len(indices):
            raise ValueError("duplicate indices")
        if indices.size and (indices.min() < 0 or indices.max() >= self.m):
            raise ValueError("index out of range")
        if not np.all(np.isfinite(values)):
            raise DataValidationError("scores contain non-finite values")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    def to_matrix(self) -> InfluenceMatrix:
        """Pack into an m x 1 masked matrix so pointwise runs reuse the
        pairwise artifact format."""
        values = np.zeros((self.m, 1), dtype=np.float32)
        mask = np.zeros((self.m, 1), dtype=bool)
        values[self.indices, 0] = self.values.astype(np.float32)
        mask[self.indices, 0] = True
        return InfluenceMatrix(values=values, mask=mask)

    @classmethod
    def from_matrix(cls, matrix: InfluenceMatrix) -> "PointwiseScores":
        if matrix.n != 1:
            raise ValueError("pointwise matrices must have a single column")
        indices = np.nonzero(matrix.mask[:, 0])[0]
        return cls(
            m=matrix.m,
            indices=indices,
            values=matrix.values[indices, 0].astype(np.float64),
        )


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


def _delift_context(i_prompt: str, i_response: str, j_prompt: str) -> str:
    return f"{i_prompt}\n{i_response}\n\n{j_prompt}"


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


def _cosine_block(
    left: np.ndarray, right: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Cosine similarity of every (left[i], right[j]) for i in rows, j in
    cols, as one normalised Gram product; `cosine` is its per-cell oracle.

    A zero-norm vector raises, naming the first cell it leaves undefined
    in row-major order.
    """
    f = left[rows].astype(np.float64)
    t = right[cols].astype(np.float64)
    f_sq = np.einsum("ij,ij->i", f, f)
    t_sq = np.einsum("ij,ij->i", t, t)
    undefined = (f_sq == 0.0)[:, None] | (t_sq == 0.0)[None, :]
    if undefined.any():
        a, b = np.argwhere(undefined)[0]
        raise DataValidationError(
            f"at cell ({rows[a]}, {cols[b]}): cosine undefined for zero-norm vectors"
        )
    gram = f @ t.T
    denom = np.outer(f_sq, t_sq)
    np.sqrt(denom, out=denom)
    gram /= denom
    return gram


def _render_prompt(template: str, prompt_text: str) -> str:
    if "{prompt}" in template:
        return template.replace("{prompt}", prompt_text)
    if not template:
        return prompt_text
    return f"{template}\n{prompt_text}"


def selectit_point(
    i: int,
    prompts: Sequence[str],
    scales: Sequence[ScaleEntry],
    pair: DatasetPair,
    ledger: CostLedger,
) -> float:
    """Certainty score for sample i: per-position max next-token
    probabilities averaged along the response, averaged over rating
    prompts, then combined across model scales proportionally to
    parameter count. Sums use math.fsum, so prompt and scale order
    cannot change the result."""
    if not prompts:
        raise ValueError("at least one prompt template required")
    if not scales:
        raise ValueError("at least one scale entry required")
    prompt_text, response_text = pair.text("fine_tune", i)
    sentence_scores: list[float] = []
    for entry in scales:
        per_prompt: list[float] = []
        for p, template in enumerate(prompts):
            context = _render_prompt(template, prompt_text)
            probs = entry.probe.token_max_probs(context, response_text, ledger, key=f"{i}:{p}")
            if not probs:
                raise DataValidationError(f"empty token list for sample {i}, prompt {p}")
            per_prompt.append(math.fsum(probs) / len(probs))
        sentence_scores.append(math.fsum(per_prompt) / len(per_prompt))
    weighted = math.fsum(
        entry.parameter_count * s for entry, s in zip(scales, sentence_scores)
    )
    total = sum(entry.parameter_count for entry in scales)
    return weighted / total


def compute_influence(
    method: str,
    rows: Sequence[int],
    cols: Sequence[int],
    pair: DatasetPair | None = None,
    probe: Provider | None = None,
    ledger: CostLedger | None = None,
) -> InfluenceMatrix:
    """Fill exactly the rows x cols block of the m x n influence matrix.

    delift sends the block's probes to `probe` as one batch, ordered as a
    cell-by-cell row-major loop would send them: column j's context-free
    probe just before the first cell that needs it, then each cell's
    in-context probe. Answers are placed by request index, so the block
    does not depend on the order they arrive in. delift_se and less read
    precomputed inputs, cost zero probe calls, and take the whole block
    as one Gram product.
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
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if method == "delift":
        requests: list[tuple[str, str, str, str]] = []
        noctx_at: dict[int, int] = {}
        # each cell's context-free and in-context request index
        noctx_of = np.empty((len(rows), len(cols)), dtype=np.int64)
        ctx_of = np.empty_like(noctx_of)
        for a, i in enumerate(rows.tolist()):
            i_prompt, i_response = pair.text("fine_tune", i)
            for b, j in enumerate(cols.tolist()):
                j_prompt, j_response = pair.text("target", j)
                where = f"cell ({i}, {j})"
                if j not in noctx_at:
                    noctx_at[j] = len(requests)
                    requests.append((where, j_prompt, j_response, str(j)))
                noctx_of[a, b] = noctx_at[j]
                ctx_of[a, b] = len(requests)
                requests.append((where, _delift_context(i_prompt, i_response, j_prompt),
                                 j_response, f"{i}:{j}"))
        answers = target_logprobs_batch(probe, requests, ledger)
        distances = np.array([distance_from_logprobs(lp) for lp in answers], dtype=np.float64)
        block = distances[noctx_of] - distances[ctx_of]
    elif method == "delift_se":
        block = _cosine_block(pair.fine_tune.rows, pair.target.rows, rows, cols)
    else:
        if pair.fine_tune_gradients is None or pair.target_gradients is None:
            raise RecordNotFoundError("gradient features not loaded for both sides")
        block = _cosine_block(pair.fine_tune_gradients.rows, pair.target_gradients.rows, rows, cols)
    values = np.zeros((pair.m, pair.n), dtype=np.float32)
    mask = np.zeros((pair.m, pair.n), dtype=bool)
    values[np.ix_(rows, cols)] = block
    mask[np.ix_(rows, cols)] = True
    return InfluenceMatrix(values=values, mask=mask)


def compute_pointwise(
    method: str,
    indices: Iterable[int],
    prompts: Sequence[str],
    scales: Sequence[ScaleEntry],
    pair: DatasetPair,
    ledger: CostLedger,
) -> PointwiseScores:
    """One score per requested fine-tuning index; cost grows as
    len(indices) * len(prompts) * len(scales) forward calls."""
    if method not in POINTWISE_METHODS:
        raise ValueError(f"unknown pointwise method {method!r}")
    index_list = [int(i) for i in indices]
    scores: list[float] = []
    for i in index_list:
        try:
            scores.append(selectit_point(i, prompts, scales, pair, ledger))
        except NnciftError as exc:
            raise type(exc)(f"at index {i}: {exc}") from exc
    return PointwiseScores(
        m=pair.m,
        indices=np.array(index_list, dtype=np.int64),
        values=np.array(scores, dtype=np.float64),
    )
