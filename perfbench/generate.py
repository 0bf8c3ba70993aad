"""Seeded benchmark inputs: EMB1 embeddings, text JSONL and per-scale
record JSONL files.

Everything written here is a pure function of the workload parameters
and the seed, so the same seed gives byte-identical files. The writers
are the benchmark's own, not the program's, so a change to the program's
save functions cannot change what the program is given.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

EMB1_MAGIC = b"NNCIFT1\x00"
_WORDS = (
    "alpha beta gamma delta model sample answer prompt reason step check value "
    "table graph token write read count sort merge split train learn state rule"
).split()


def unit_rows(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm Gaussian rows as float32, the way scripts/ makes embeddings."""
    rows = rng.normal(size=(count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


def write_emb1(path: Path, rows: np.ndarray) -> None:
    count, dim = rows.shape
    path.write_bytes(
        struct.pack("<8sII", EMB1_MAGIC, count, dim) + rows.astype("<f4").tobytes(order="C")
    )


def _sentence(rng: np.random.Generator, low: int, high: int) -> str:
    count = int(rng.integers(low, high + 1))
    return " ".join(_WORDS[k] for k in rng.integers(0, len(_WORDS), size=count))


def write_texts(path: Path, count: int, rng: np.random.Generator) -> list[int]:
    """Write {"idx","prompt","response"} lines; returns each response's token count."""
    lengths = []
    with open(path, "w", encoding="utf-8") as fh:
        for idx in range(count):
            prompt = _sentence(rng, 6, 12)
            response = _sentence(rng, 4, 10)
            lengths.append(len(response.split()))
            fh.write(json.dumps({"idx": idx, "prompt": prompt, "response": response}) + "\n")
    return lengths


def write_max_prob_records(
    path: Path,
    rows: np.ndarray,
    lengths: list[int],
    prompts: int,
    direction: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """One token_max_probs record per (sample, prompt), keyed "i:p".

    A sample's probabilities follow a hidden linear direction of its
    embedding plus per-token noise, so the estimator has signal to learn.
    """
    signal = 2.0 * (rows.astype(np.float64) @ direction)
    per_record = np.repeat(np.asarray(lengths), prompts)  # records in (i, p) order
    owner = np.repeat(np.arange(len(lengths)).repeat(prompts), per_record)
    noise = rng.normal(scale=0.5, size=int(per_record.sum()))
    probs = np.clip(1.0 / (1.0 + np.exp(-(signal[owner] + noise))), 1e-6, 1.0)
    values = [repr(round(v, 6)) for v in probs.tolist()]
    ends = np.cumsum(per_record).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        start = 0
        for record, end in enumerate(ends):
            i, p = divmod(record, prompts)
            fh.write(f'{{"key": "{i}:{p}", "kind": "token_max_probs", '
                     f'"values": [{", ".join(values[start:end])}]}}\n')
            start = end


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def generate(spec: dict, seed: int, out: Path) -> dict[str, str]:
    """Write the inputs `spec` asks for into `out`; returns {name: path}.

    Each input draws from its own child of the seed, so adding an input
    kind never shifts the values of another.
    """
    out.mkdir(parents=True, exist_ok=True)
    streams = np.random.SeedSequence(seed).spawn(6)
    rng = [np.random.Generator(np.random.PCG64(s)) for s in streams]
    m, n, dim = spec["m"], spec["n"], spec["dim"]
    paths = {"fine_tune_embeddings": out / "fine_tune.emb"}
    fine = unit_rows(m, dim, rng[0])
    write_emb1(paths["fine_tune_embeddings"], fine)
    if n:
        paths["target_embeddings"] = out / "target.emb"
        write_emb1(paths["target_embeddings"], unit_rows(n, dim, rng[1]))
    if spec["method"] in ("delift", "selectit"):
        paths["fine_tune_texts"] = out / "fine_tune_texts.jsonl"
        lengths = write_texts(paths["fine_tune_texts"], m, rng[2])
    if spec["method"] == "delift":
        paths["target_texts"] = out / "target_texts.jsonl"
        write_texts(paths["target_texts"], n, rng[3])
    if spec["method"] == "selectit":
        direction = rng[4].normal(size=dim)
        direction /= np.linalg.norm(direction)
        for s, stream in enumerate(streams[5].spawn(spec["scales"])):
            paths[f"records_{s}"] = out / f"records_scale{s}.jsonl"
            write_max_prob_records(paths[f"records_{s}"], fine, lengths, spec["prompts"],
                                   direction, np.random.Generator(np.random.PCG64(stream)))
    return {name: str(path) for name, path in paths.items()}
