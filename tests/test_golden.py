"""Golden artifact hashes at the small scale (200 x 80, dim 32).

The four byte-deterministic artifacts of a pipeline run are pinned for
every method, so any rewrite of valuation, training, estimation or
selection that changes their bytes fails here. A second table pins the
decoded values and validity of q1.nnk and full.nnk, so a change to the
file layout alone moves the first table but not the second. A third
pins mse.json, the truth evaluation's output. A deliberate change to
these hashes must be explained where it lands.
"""

import hashlib
import json

import numpy as np
import pytest

from nncift.cli import main
from nncift.datasets import EmbeddingMatrix, save_embeddings
from nncift.influence import load_influence

M, N, DIM = 200, 80, 32

GOLDEN = {
    "delift": {
        "q1.nnk": "e454d0c3aabd6ce33ad810df03343ddfc9dced1b2114a4d24afb0a321c26b312",
        "full.nnk": "2c8bb5ef6e4ede02aad88d396a9e747ddfdca7027e46aa0557590927a4f044db",
        "params.json": "969cd1bf451e1baf65a43bbb7a34db021de6cb18bd68c5cc11490456b2f0439f",
        "selection.json": "aa8b431e01008d87cd54dd56849f85369fbf21adba836c29fdf4130e714eeaf0",
    },
    "delift_se": {
        "q1.nnk": "6774536cfcb655be16696f938d85acabf8662584a7521208c7b5d7fe8b035068",
        "full.nnk": "4ed5fd077cc485500fd239abc9cee668e835fb4b2d582ec680cb2688d29aac6d",
        "params.json": "d7602cd4eec0899b1a6907f7239693ed20ac3272e823865f9d6accd437d84bb4",
        "selection.json": "e843fa3edb7dd810443023b5cc3d896d0284d6cb299596fbd3dacadc9043b093",
    },
    "less": {
        "q1.nnk": "60a961e8a11ab90fb5945f40bc9c462e7b505cbf083658872ae3501fa670fc41",
        "full.nnk": "d9ed81cbc2af108390d1133ff391a7ae8fe406c5df208b9f6035a3fa53840c64",
        "params.json": "35e21ab880244ad18056af45b4b0a5438b9948cac72fd620206f39e6a0d33c79",
        "selection.json": "939ecab59a0ce3c79e9525d1594eb2040b1b61bf32c4a7fc5de387d172f64b24",
    },
    "selectit": {
        "q1.nnk": "f3185ea64643734a5616570f3b27207ea31a3a9a78b045650580c4997d269715",
        "full.nnk": "f11c02d7401fc25d6560f30be3ef6dd4197775b735c2a9d083097aaf476a43be",
        "params.json": "125ebc1549a784d2ecafa98cfefe3be73266607a3251d3867f533d251f51f438",
        "selection.json": "ef42845124aad75f121f7f13a3481683631ffc9f45520ea654ad989221bfdccb",
    },
}

# sha256 of the decoded values' bytes then np.packbits(mask): these stay
# put when only the file layout changes, so they pin the values bit for bit.
GOLDEN_VALUES = {
    "delift": {
        "q1.nnk": "c38ec9f88f8e4c058eaa0723ab11fd19ed8c999846a3d0557e0dbef63f522089",
        "full.nnk": "ac126d34517b3d7626e6500af56f79c5d1f998bd7054175c9585c486d91fee64",
    },
    "delift_se": {
        "q1.nnk": "699dc4253f322d0a745bc93824c0f6281a7c8c53fed18f379fdc8866c8596159",
        "full.nnk": "81e2eb343ece3bd8a15255f9816add2c78d2cd5761b6e661219bacdfe9425118",
    },
    "less": {
        "q1.nnk": "12d63f95e58c5ab5de4e270271c028ff2eccbfe8ba2c2adde12d9872859aa318",
        "full.nnk": "1bbee3cd013f302c5ff901037867572d697ebcf758cb97bffd2680785ac6a711",
    },
    "selectit": {
        "q1.nnk": "ea096e068212d49f8abd583d34a50c000499ae14d5072dd3d0dede632fa0e512",
        "full.nnk": "fb045aeb4c82b591f3902c04e36ec94f9f014cd08f63bc7c89ca13d6932935d8",
    },
}

# sha256 of mse.json: the row-blocked quadrant sums and the corner_mean
# predictor are pinned too, so any drift in the evaluation shows here.
GOLDEN_MSE = {
    "delift": "1b14205495e883ad73388d23fb8ceea2c22498dcbb313ff86ad0c48669e81e3b",
    "delift_se": "1e0452cf58b37416bb0ec06c4d958e06bbe9682a0dbe0cb7b35ee87b06a045a4",
    "less": "014cb7a368f36e8ef8e2bdd787b0bd3c790857089b7c3ae01a294b4dbff18fdb",
    "selectit": "6a45ba53aa0d0204e085c544650f732b9dad6a2ae37265c2615ddf19470257e7",
}


def unit_rows(count, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.normal(size=(count, DIM))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(rows.astype(np.float32))


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """One pipeline run per method, shared by the hash tests."""
    runs = {}

    def run(method):
        if method not in runs:
            runs[method] = _run_pipeline(tmp_path_factory.mktemp(method), method)
        return runs[method]

    return run


def _run_pipeline(tmp_path, method):
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
    return out


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_small_scale_artifacts_match_golden_hashes(pipeline_out, method):
    out = pipeline_out(method)
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in GOLDEN[method]}
    assert hashes == GOLDEN[method]


@pytest.mark.parametrize("method", sorted(GOLDEN_VALUES))
def test_small_scale_values_match_golden_hashes(pipeline_out, method):
    out = pipeline_out(method)
    hashes = {}
    for name in GOLDEN_VALUES[method]:
        matrix = load_influence(out / name)
        digest = hashlib.sha256(matrix.values.tobytes())
        digest.update(np.packbits(matrix.mask).tobytes())
        hashes[name] = digest.hexdigest()
    assert hashes == GOLDEN_VALUES[method]


@pytest.mark.parametrize("method", sorted(GOLDEN_MSE))
def test_small_scale_mse_matches_golden_hash(pipeline_out, method):
    raw = (pipeline_out(method) / "mse.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_MSE[method]
