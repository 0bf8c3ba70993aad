"""The benchmark's traced run (`perfbench/run.py --trace 1`) on a tiny pipeline.

`perfbench/spans.py` wraps nncift functions by module attribute name, so
renaming one, or calling it other than through its module global, breaks
the trace. This runs `perfbench/child.py --trace` in a fresh process, as
the benchmark does, and checks that the spans still account for the run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nncift.datasets import EmbeddingMatrix, save_embeddings

ROOT = Path(__file__).resolve().parents[1]


def traced_run(tmp_path, doc):
    """The result document of one traced `nncift pipeline` run of `doc`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    result = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--config", str(config),
         "--out", str(tmp_path / "run"), "--result", str(result),
         "--spawned", str(time.monotonic()), "--trace", str(tmp_path / "trace.jsonl")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def write_embeddings(tmp_path, **counts):
    rng = np.random.default_rng(0)
    for name, count in counts.items():
        save_embeddings(EmbeddingMatrix(rng.normal(size=(count, 8)).astype(np.float32)),
                        tmp_path / f"{name}.emb")


def test_traced_pipeline_accounts_for_its_time(tmp_path):
    write_embeddings(tmp_path, fine=20, target=10)
    doc = traced_run(tmp_path, {
        "method": "delift", "u": 0.1, "seed": 7, "evaluate_truth": True,
        "fine_tune_embeddings": str(tmp_path / "fine.emb"),
        "target_embeddings": str(tmp_path / "target.emb"),
    })
    layers = doc["layers"]
    assert doc["exit_code"] == 0
    assert layers["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-9)
    assert layers["datasets.load_calls"] == 1
    # one synthetic provider serves the corner and the truth pass
    assert layers["probes.builds"] == 1
    # every streamed row block passes through the traced estimate_pairwise
    assert layers["network.estimator_forwards"] == 20 * 10


def test_traced_pointwise_pipeline_accounts_for_its_time(tmp_path):
    # the M x 1 case: compute_pointwise, estimate_pointwise and topk_pointwise
    write_embeddings(tmp_path, fine=20)
    doc = traced_run(tmp_path, {
        "method": "selectit", "u": 0.1, "seed": 7,
        "fine_tune_embeddings": str(tmp_path / "fine.emb"),
    })
    layers = doc["layers"]
    assert doc["exit_code"] == 0
    assert layers["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-9)
    assert layers["network.estimator_forwards"] == 20
