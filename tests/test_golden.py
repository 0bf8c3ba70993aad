"""Golden artifact hashes at the small scale (200 x 80, dim 32).

The four byte-deterministic artifacts of a pipeline run are pinned for
every method, so any rewrite of valuation, training, estimation or
selection that changes their bytes fails here. A deliberate change to
these hashes must be explained where it lands.
"""

import hashlib
import json

import numpy as np
import pytest

from nncift.cli import main
from nncift.datasets import EmbeddingMatrix, save_embeddings

M, N, DIM = 200, 80, 32

GOLDEN = {
    "delift": {
        "q1.nnk": "5be242496dfb4984abece2716c7b033ba3246fc00cbf77b1ef539e7995099b16",
        "full.nnk": "edab94ae77050840510078209a09a541877db0b76a9822a5a7850186278c6fb4",
        "params.json": "969cd1bf451e1baf65a43bbb7a34db021de6cb18bd68c5cc11490456b2f0439f",
        "selection.json": "5bd841dc90483bf99a3d887756758dfdd6fd4438aa3f257d5cbcfa5f147738ce",
    },
    "delift_se": {
        "q1.nnk": "8acf26fc63587a3065782c5ccfbf7a7385bad413f3ef55ef2ae027237437dc76",
        "full.nnk": "dcf89de291642407a61ccf6f2a630b2c8ee061c1b9cbeef879d7bdb7272ce0d2",
        "params.json": "d7602cd4eec0899b1a6907f7239693ed20ac3272e823865f9d6accd437d84bb4",
        "selection.json": "327416d7deeeb515b6ad0bbd0b26d598641a43b121965923c59b7f885517212f",
    },
    "less": {
        "q1.nnk": "5f45d3544c50663dc5989107a1a351c0c438feab3271286f8adc5f87143e44cb",
        "full.nnk": "a29249316fcf7bb8ce4f09516765fb844dd0f2b455e11fb9ea2e1f2708720670",
        "params.json": "35e21ab880244ad18056af45b4b0a5438b9948cac72fd620206f39e6a0d33c79",
        "selection.json": "b048d8b38204f16ebd2ed4cf99c978d301a46f7da28b9c42985269849ed7de4a",
    },
    "selectit": {
        "q1.nnk": "f1ae980bb673097912e2830270f9091f06af254625cde9e46a2469a140dff62c",
        "full.nnk": "96aa38f15e4ff8eaab08a37051e1fdf6806815fab11a9137a6b8da6a63bc61aa",
        "params.json": "125ebc1549a784d2ecafa98cfefe3be73266607a3251d3867f533d251f51f438",
        "selection.json": "9a735f41176fa2cbe7d3534489e80d9e207d0c914a32b87302f350f4081d18c8",
    },
}


def unit_rows(count, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.normal(size=(count, DIM))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(rows.astype(np.float32))


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_small_scale_artifacts_match_golden_hashes(tmp_path, method):
    doc = {"method": method, "u": 0.05, "v": 0.3, "seed": 7}
    inputs = {"fine_tune_embeddings": (M, 1)}
    if method != "selectit":
        inputs["target_embeddings"] = (N, 2)
    if method == "less":
        inputs["fine_tune_gradients"] = (M, 3)
        inputs["target_gradients"] = (N, 4)
    for key, (count, seed) in inputs.items():
        path = tmp_path / f"{key}.emb"
        save_embeddings(unit_rows(count, seed), path)
        doc[key] = str(path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in GOLDEN[method]}
    assert hashes == GOLDEN[method]
