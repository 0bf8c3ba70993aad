import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import generate  # noqa: E402
from nncift.datasets import load_embeddings, load_texts  # noqa: E402
from nncift.probes import FileProvider  # noqa: E402

SELECTIT = {"method": "selectit", "m": 50, "n": 0, "dim": 8, "prompts": 2, "scales": 2}
DELIFT = {"method": "delift", "m": 20, "n": 7, "dim": 4}


def _hashes(paths: dict) -> dict:
    return {name: generate.sha256_file(Path(path)) for name, path in paths.items()}


def test_same_seed_gives_identical_files(tmp_path):
    for spec in (SELECTIT, DELIFT):
        first = generate.generate(spec, 5, tmp_path / spec["method"] / "a")
        second = generate.generate(spec, 5, tmp_path / spec["method"] / "b")
        other = generate.generate(spec, 6, tmp_path / spec["method"] / "c")
        assert _hashes(first) == _hashes(second)
        assert all(_hashes(first)[k] != _hashes(other)[k] for k in first)


def test_inputs_load_with_the_program_readers(tmp_path):
    paths = generate.generate(DELIFT, 1, tmp_path / "delift")
    fine = load_embeddings(paths["fine_tune_embeddings"])
    target = load_embeddings(paths["target_embeddings"])
    assert (fine.count, fine.dim, target.count) == (20, 4, 7)
    assert np.allclose(np.linalg.norm(fine.rows, axis=1), 1.0, atol=1e-6)
    assert sorted(load_texts(paths["target_texts"])) == list(range(7))

    paths = generate.generate(SELECTIT, 1, tmp_path / "selectit")
    texts = load_texts(paths["fine_tune_texts"])
    records = FileProvider(paths["records_1"])
    for i in (0, 49):
        line = [json.loads(x) for x in Path(paths["records_1"]).read_text().splitlines()
                if json.loads(x)["key"] == f"{i}:1"][0]
        assert len(line["values"]) == len(texts[i][1].split())
        assert records._records[("token_max_probs", f"{i}:1")] == line["values"]
    assert not {"target_embeddings", "target_texts"} & set(paths)
