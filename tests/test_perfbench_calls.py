"""The package calls `perfbench/run.py` makes in every run, traced or not,
and the private names `perfbench/tests` reaches, in the forms they are
made (`tests/test_trace.py` covers the names the tracer wraps).
`perfbench/tests` is not part of the tier-1 suite, so this is what fails
when one of these forms is dropped; a benchmark change that stops making
a call takes its check out of here."""

import json

import numpy as np

from nncift.datasets import DatasetPair, EmbeddingMatrix
from nncift.influence import InfluenceMatrix, compute_influence, load_influence, save_influence
from nncift.network import baseline_estimates
from nncift.probes import CostLedger, FileProvider, HttpProvider


class Replica:
    """A probe that is no Provider, like run.py's ServerReplica: one method."""

    def target_logprobs(self, context, target, ledger, key=None):
        ledger.add_forward(1)
        return [-(len(context) % 7) / 10.0, -(len(target) % 5) / 10.0]


def test_run_py_calls_keep_their_forms(tmp_path):
    rng = np.random.default_rng(0)
    m, n = 6, 4
    pair = DatasetPair(
        fine_tune=EmbeddingMatrix(rng.normal(size=(m, 3))),
        target=EmbeddingMatrix(rng.normal(size=(n, 3))),
        fine_tune_texts={i: (f"prompt {i}" * (i + 1), f"response {i}") for i in range(m)},
        target_texts={j: (f"ask {j}", f"answer {j}" * (j + 1)) for j in range(n)},
    )

    # the cell-list form, every cell in row-major order, read as dense values
    cells = [(i, j) for i in range(m) for j in range(n)]
    ledger = CostLedger()
    truth = compute_influence("delift", cells, pair, probe=Replica(), ledger=ledger).values
    block = compute_influence("delift", range(m), range(n), pair, probe=Replica(),
                              ledger=CostLedger()).block
    assert truth.shape == (m, n) and truth.tobytes() == block.tobytes()
    assert ledger.forward_calls == m * n + n

    # a corner read back: its dense values, and its mask's ID rows and columns
    rows, cols = [4, 1], [2]
    corner = InfluenceMatrix(m, n, rows, cols, block[np.ix_(rows, cols)])
    save_influence(corner, tmp_path / "q1.nnk")
    loaded = load_influence(tmp_path / "q1.nnk")
    expected = np.zeros((m, n), dtype=np.float32)
    expected[np.ix_(rows, cols)] = block[np.ix_(rows, cols)]
    assert loaded.values.tobytes() == expected.tobytes()
    assert np.flatnonzero(loaded.mask.any(axis=1)).tolist() == [1, 4]
    assert np.flatnonzero(loaded.mask.any(axis=0)).tolist() == cols

    # the noise baseline is one rng.random(shape) draw, as float32
    noise = baseline_estimates("random_uniform", (m, n), 5).values
    draw = np.random.Generator(np.random.PCG64(5)).random((m, n)).astype(np.float32)
    assert noise.tobytes() == draw.tobytes()


def test_private_names_perfbench_tests_reach(tmp_path, probe_server):
    # test_bench_server.py closes a provider's connections through `_session`, its alias
    ledger = CostLedger()
    provider = HttpProvider(probe_server.url, backoff=0.001, max_in_flight=2)
    assert provider.target_logprobs("ctx 0", "gamma delta", ledger) == [-0.5, -0.25]
    provider._session.close()
    assert ledger.forward_calls == len(probe_server.requests) == 1

    # test_bench_generate.py reads a record file back by (kind, key)
    path = tmp_path / "records_1.jsonl"
    path.write_text(json.dumps({"key": "0:1", "kind": "token_max_probs", "values": [0.5, 0.25]}) + "\n")
    assert FileProvider(path)._records[("token_max_probs", "0:1")] == [0.5, 0.25]
