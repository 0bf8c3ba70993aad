"""The package calls `perfbench/run.py` makes in every run, traced or not,
in the forms it makes them (`tests/test_trace.py` covers the names the
tracer wraps). `perfbench/tests` is not part of the tier-1 suite, so this
is what fails when one of these forms is dropped; a benchmark change that
stops making a call takes its check out of here."""

import numpy as np

from nncift.datasets import DatasetPair, EmbeddingMatrix
from nncift.influence import InfluenceMatrix, compute_influence, load_influence, save_influence
from nncift.network import baseline_estimates
from nncift.probes import CostLedger


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
