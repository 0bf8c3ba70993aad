"""Embedding datasets, their on-disk format, and seeded quadrant partitions.

An embedding matrix is stored as an EMB1 file: bytes 0-7 magic
``NNCIFT1\\0``, bytes 8-11 little-endian uint32 row count, bytes 12-15
little-endian uint32 dim, then ``count * dim`` IEEE-754 float32
little-endian values, row-major.

Rows are opaque vectors; whatever produced them (and from which text) is
upstream of this module.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Literal

import numpy as np

from .errors import ConfigError, DataValidationError, FileFormatError, PayloadLengthError, RecordNotFoundError

EMB1_MAGIC = b"NNCIFT1\x00"
_EMB1_HEADER = struct.Struct("<8sII")

Quadrant = Literal["Q1", "Q2", "Q3", "Q4"]
_PLAIN_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
ROW_BLOCK_CELLS = 1 << 15  # cells per row block of a whole-matrix pass: 256 KB as float64


def row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """Slices of whole rows, about ROW_BLOCK_CELLS cells each, that cover
    range(rows) in order; a pass over them holds one block's scratch."""
    step = max(1, ROW_BLOCK_CELLS // max(1, cols))
    return (slice(start, start + step) for start in range(0, rows, step))


def all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite, with no temporary: min and max
    propagate a NaN, and an infinity is one of the two."""
    return values.size == 0 or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def exact_decimal(value: float | int | str) -> Fraction:
    """The number the caller wrote, read exactly from its decimal text: 0.07
    is 7/100, not the binary float nearest it, and 0.2 equals "0.20".

    The text must be a plain decimal in ASCII digits, optionally signed and
    with an exponent within +-400: no fraction, underscore, space or NaN.
    Anything else, a bool included, raises ValueError.
    """
    text = str(value) if isinstance(value, (int, float, str)) and not isinstance(value, bool) else ""
    if not _PLAIN_DECIMAL.fullmatch(text):
        raise ValueError(f"not a plain decimal: {value!r}")
    # Decimal reads any exponent at once, Fraction in time that grows as
    # 10**|exponent|; no float's repr reaches 400
    if abs(Decimal(text).adjusted()) > 400:
        raise ValueError(f"decimal exponent out of range: {value!r}")
    return Fraction(text)


def exact_ceil(fraction: float | int | str, count: int) -> int:
    """Ceiling of ``fraction * count`` computed on the decimal the caller wrote.

    Binary float products overshoot for inputs like 0.07 * 100
    (7.000000000000001), which would bump the ceiling by one; routing
    through exact_decimal keeps ceil(0.07 * 100) == 7.
    """
    return math.ceil(exact_decimal(fraction) * count)


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Row-major table of fixed-dimension float32 vectors."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float32))
        if rows.ndim != 2:
            raise ValueError(f"embedding rows must be 2-D, got shape {rows.shape}")
        if rows.shape[1] < 1:
            raise ValueError("embedding dim must be >= 1")
        if not all_finite(rows):
            raise DataValidationError("embedding rows contain non-finite values")
        object.__setattr__(self, "rows", rows)

    @property
    def count(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])


@dataclass(frozen=True, eq=False)
class DatasetPair:
    """A fine-tuning pool and the target set that steers selection from it.

    Gradient feature matrices (for gradient-matching valuation) and text
    records keyed by row index (for probe-backed valuation) are optional;
    methods that need them check at use time.
    """

    fine_tune: EmbeddingMatrix
    target: EmbeddingMatrix
    fine_tune_gradients: EmbeddingMatrix | None = None
    target_gradients: EmbeddingMatrix | None = None
    fine_tune_texts: dict[int, tuple[str, str]] | None = None
    target_texts: dict[int, tuple[str, str]] | None = None

    def __post_init__(self):
        if self.fine_tune.dim != self.target.dim:
            raise ValueError(
                f"embedding dims differ: {self.fine_tune.dim} vs {self.target.dim}"
            )
        if self.fine_tune_gradients is not None and self.fine_tune_gradients.count != self.fine_tune.count:
            raise ValueError("fine_tune gradient count does not match fine_tune rows")
        if self.target_gradients is not None and self.target_gradients.count != self.target.count:
            raise ValueError("target gradient count does not match target rows")
        if (
            self.fine_tune_gradients is not None
            and self.target_gradients is not None
            and self.fine_tune_gradients.dim != self.target_gradients.dim
        ):
            raise ValueError("gradient feature dims differ between sides")

    @property
    def m(self) -> int:
        return self.fine_tune.count

    @property
    def n(self) -> int:
        return self.target.count

    def text(self, side: Literal["fine_tune", "target"], idx: int) -> tuple[str, str]:
        records = self.fine_tune_texts if side == "fine_tune" else self.target_texts
        if records is None or idx not in records:
            raise RecordNotFoundError(f"no text record for {side} index {idx}")
        return records[idx]


@dataclass(frozen=True, eq=False)
class QuadrantPartition:
    """Seeded ID/OOD split of both dataset sides.

    Index arrays are sorted; ``id_*`` and ``ood_*`` are disjoint and
    together cover [0, count) on their side.
    """

    id_f: np.ndarray
    ood_f: np.ndarray
    id_t: np.ndarray
    ood_t: np.ndarray

    @property
    def m(self) -> int:
        return len(self.id_f) + len(self.ood_f)

    @property
    def n(self) -> int:
        return len(self.id_t) + len(self.ood_t)


def _fisher_yates(count: int, rng: np.random.Generator) -> np.ndarray:
    """Swap position k with a uniform draw from [0, k], k = count-1 .. 1.

    One `integers` call over the bounds count .. 2 draws what a call per k
    would, so the permutation matches a per-element loop's.
    """
    idx = list(range(count))
    draws = rng.integers(0, np.arange(count, 1, -1)).tolist()
    for k, r in zip(range(count - 1, 0, -1), draws):
        idx[k], idx[r] = idx[r], idx[k]
    return np.array(idx, dtype=np.int64)


def _split_side(count: int, u: float | str, seed: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, side))))
    order = _fisher_yates(count, rng)
    n_id = exact_ceil(u, count)
    return np.sort(order[:n_id]), np.sort(order[n_id:])


def partition(pair: DatasetPair, u: float | str, seed: int) -> QuadrantPartition:
    """Split both sides into ID/OOD index sets, ID taking the first
    ceil(u * count) positions of a seeded Fisher-Yates shuffle."""
    if not 0.0 <= float(exact_decimal(u)) <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    id_f, ood_f = _split_side(pair.m, u, seed, side=0)
    id_t, ood_t = _split_side(pair.n, u, seed, side=1)
    return QuadrantPartition(id_f=id_f, ood_f=ood_f, id_t=id_t, ood_t=ood_t)


def quadrant_index_sets(part: QuadrantPartition, quadrant: Quadrant) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays whose cross product is the quadrant."""
    sets = {
        "Q1": (part.id_f, part.id_t),
        "Q2": (part.id_f, part.ood_t),
        "Q3": (part.ood_f, part.id_t),
        "Q4": (part.ood_f, part.ood_t),
    }
    if quadrant not in sets:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    return sets[quadrant]


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write a matrix to ``path`` as an EMB1 file, whatever its suffix."""
    payload = matrix.rows.astype("<f4", copy=False).tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(_EMB1_HEADER.pack(EMB1_MAGIC, matrix.count, matrix.dim))
        fh.write(payload)


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Load an EMB1 file, reading its payload straight into one float32
    array; FileFormatError naming the file for any other file."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_EMB1_HEADER.size)
        if header[:8] != EMB1_MAGIC:
            raise FileFormatError(f"{path}: bad magic {header[:8]!r}; embeddings are EMB1 files")
        if len(header) < _EMB1_HEADER.size:
            raise PayloadLengthError(f"{path}: file shorter than the 16-byte header")
        _, count, dim = _EMB1_HEADER.unpack(header)
        if dim < 1:
            raise FileFormatError(f"{path}: dim must be >= 1, header says {dim}")
        expected = count * dim * 4
        size = os.fstat(fh.fileno()).st_size - _EMB1_HEADER.size
        # allocate only once the file size matches the header
        if size != expected or fh.readinto(rows := np.empty((count, dim), dtype="<f4")) != size:
            raise PayloadLengthError(f"{path}: payload is {size} bytes, header declares {expected}")
    try:
        return EmbeddingMatrix(rows=rows)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: payload contains non-finite values") from exc


def is_number(value) -> bool:
    """Whether a JSON value is a number: an int or float, not a boolean,
    whose magnitude a float holds; NaN, the infinities and larger ints are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def read_input(name: str, path: str | Path, loader):
    """`loader(path)`, for every file a run reads: an OSError (the file is
    missing, a directory, unreadable) becomes a ConfigError naming `name`
    and the file, so the run exits 2."""
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"{name}: cannot read {path}: {exc.strerror}") from exc


def read_json(path: Path, error: type[Exception] = FileFormatError):
    """The JSON document in a UTF-8 file. Bytes that are not UTF-8, or not
    JSON (an integer of more digits than int() reads, or nesting deeper
    than the recursion limit, included), raise `error` naming the file; an
    OSError passes through to read_input."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def write_json(path: Path, doc) -> None:
    """Write a run's JSON artifact: sorted keys, indent 2, a final newline."""
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def jsonl_records(path: Path) -> Iterator[tuple[str, object]]:
    """Each non-blank line of a UTF-8 JSON-lines file, parsed, with its
    "path:line"; FileFormatError naming the file for bytes that are not
    UTF-8 and naming the line for one that is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise FileFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                yield f"{path}:{lineno}", record
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8: {exc}") from exc


def save_texts(records: dict[int, tuple[str, str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx in sorted(records):
            prompt, response = records[idx]
            fh.write(json.dumps({"idx": idx, "prompt": prompt, "response": response}) + "\n")


def load_texts(path: str | Path) -> dict[int, tuple[str, str]]:
    """Load indexed (prompt, response) records from a JSON-lines file."""
    records: dict[int, tuple[str, str]] = {}
    for where, obj in jsonl_records(Path(path)):
        if not isinstance(obj, dict) or not {"idx", "prompt", "response"} <= obj.keys():
            raise FileFormatError(f"{where}: expected idx/prompt/response object")
        idx, prompt, response = obj["idx"], obj["prompt"], obj["response"]
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
            raise FileFormatError(f"{where}: idx must be a nonnegative integer")
        if not (isinstance(prompt, str) and isinstance(response, str)):
            raise FileFormatError(f"{where}: prompt and response must be strings")
        if not response:  # no probe can score an empty target
            raise FileFormatError(f"{where}: response must be non-empty")
        if idx in records:
            raise FileFormatError(f"{where}: duplicate idx {idx}")
        records[idx] = (prompt, response)
    return records
