import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nncift.datasets
from nncift import influence
from nncift.datasets import DatasetPair, EmbeddingMatrix, partition
from nncift.errors import (
    CoverageError,
    DataValidationError,
    FileFormatError,
    PayloadLengthError,
    RecordNotFoundError,
)
from nncift.influence import (
    InfluenceMatrix,
    PointwiseScores,
    ScaleEntry,
    compute_influence,
    compute_pointwise,
    distance_from_logprobs,
    load_influence,
    save_influence,
    save_influence_rows,
)
from nncift.errors import ProbeError
from nncift.probes import CostLedger, FileProvider, HttpProvider, SyntheticProvider
from oracles import cosine, delift_pair, overlay, take


def matrix_of(rows, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rows=rng.standard_normal((rows, dim)).astype(np.float32))


def text_pair(m, n, dim=3, seed=0, gradients=False):
    rng = np.random.default_rng(seed)
    kwargs = {}
    if gradients:
        kwargs["fine_tune_gradients"] = EmbeddingMatrix(
            rows=rng.standard_normal((m, dim)).astype(np.float32)
        )
        kwargs["target_gradients"] = EmbeddingMatrix(
            rows=rng.standard_normal((n, dim)).astype(np.float32)
        )
    return DatasetPair(
        fine_tune=EmbeddingMatrix(rows=rng.standard_normal((m, dim)).astype(np.float32)),
        target=EmbeddingMatrix(rows=rng.standard_normal((n, dim)).astype(np.float32)),
        fine_tune_texts={i: (f"q{i}", f"answer {i}") for i in range(m)},
        target_texts={j: (f"tq{j}", f"target answer {j}") for j in range(n)},
        **kwargs,
    )


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class UndecodableAfter(SyntheticProvider):
    """Answers like SyntheticProvider for `calls` probes, then raises an
    exception whose constructor takes five arguments."""

    def __init__(self, calls):
        super().__init__(seed=0)
        self.calls = calls

    def _spend(self):
        self.calls -= 1
        if self.calls < 0:
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def target_logprobs(self, context, target, ledger, key=None):
        self._spend()
        return super().target_logprobs(context, target, ledger, key)

    def token_max_probs(self, context, target, ledger, key=None):
        self._spend()
        return super().token_max_probs(context, target, ledger, key)


class Replica:
    """Answers target_logprobs as a server does, without the network."""

    def __init__(self, server):
        self.server = server

    def target_logprobs(self, context, target, ledger, key=None):
        ledger.add_forward(1)
        return self.server.logprobs(context, target)


class TestDistance:
    def test_probability_one_sequence(self):
        assert distance_from_logprobs([0.0, 0.0, 0.0]) == 0.0

    def test_half(self):
        assert distance_from_logprobs([math.log(0.5), math.log(0.5)]) == 0.5

    def test_quarter(self):
        assert distance_from_logprobs([math.log(0.25)]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_from_logprobs([])

    def test_positive_rejected(self):
        with pytest.raises(DataValidationError):
            distance_from_logprobs([0.1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50.0, 0.0), min_size=1, max_size=20))
    def test_range(self, lps):
        assert 0.0 <= distance_from_logprobs(lps) <= 1.0


class TestCosine:
    def test_equal_exact(self):
        v = np.random.default_rng(0).standard_normal(50)
        assert cosine(v, v) == 1.0

    def test_negated_exact(self):
        v = np.random.default_rng(1).standard_normal(50)
        assert cosine(v, -v) == -1.0

    def test_orthogonal_exact(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariance_exact(self):
        v = np.array([1.0, 2.0, 2.0])
        assert cosine(v, 3 * v) == 1.0

    def test_analytic_45_degrees(self):
        s = math.sqrt(2) / 2
        assert cosine([1.0, 0.0], [s, s]) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(DataValidationError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
    def test_symmetry_and_range(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(dim), rng.standard_normal(dim)
        c = cosine(a, b)
        assert c == cosine(b, a)
        assert abs(c) <= 1.0 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
    def test_positive_rescale(self, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine(a * scale, b) == pytest.approx(cosine(a, b), abs=1e-12)


class TestDelift:
    def test_identical_responses_cancel(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [
            {"key": "0", "kind": "target_logprobs", "values": [-0.7, -0.3]},
            {"key": "0:0", "kind": "target_logprobs", "values": [-0.7, -0.3]},
        ])
        pair = text_pair(1, 1)
        value = delift_pair(0, 0, pair, FileProvider(path), CostLedger())
        assert value == 0.0

    def test_helpful_context_positive(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [
            {"key": "1", "kind": "target_logprobs", "values": [math.log(0.5)]},
            {"key": "0:1", "kind": "target_logprobs", "values": [math.log(0.8)]},
        ])
        pair = text_pair(1, 2)
        value = delift_pair(0, 1, pair, FileProvider(path), CostLedger())
        assert value == pytest.approx(0.3, abs=1e-12)

    def test_harmful_context_negative(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [
            {"key": "0", "kind": "target_logprobs", "values": [math.log(0.9)]},
            {"key": "0:0", "kind": "target_logprobs", "values": [math.log(0.1)]},
        ])
        pair = text_pair(1, 1)
        value = delift_pair(0, 0, pair, FileProvider(path), CostLedger())
        assert value == pytest.approx(-0.8, abs=1e-12)

    def test_cache_avoids_reprobing_context_free_term(self):
        pair = text_pair(2, 1)
        provider = SyntheticProvider(seed=0)
        ledger = CostLedger()
        cache = {}
        delift_pair(0, 0, pair, provider, ledger, cache)
        delift_pair(1, 0, pair, provider, ledger, cache)
        # 2 context calls + 1 cached context-free call
        assert ledger.forward_calls == 3

    def test_cache_changes_no_value(self):
        pair = text_pair(10, 5)
        provider = SyntheticProvider(seed=3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            i = int(rng.integers(0, 10))
            j = int(rng.integers(0, 5))
            cached = delift_pair(i, j, pair, provider, CostLedger(), {})
            uncached = delift_pair(i, j, pair, provider, CostLedger(), None)
            assert cached == uncached

    def test_bounded(self):
        pair = text_pair(4, 4)
        provider = SyntheticProvider(seed=1)
        for i in range(4):
            for j in range(4):
                assert abs(delift_pair(i, j, pair, provider, CostLedger())) <= 1.0


class TestCosinePairOps:
    def test_delift_se_identical_rows(self):
        emb = matrix_of(2)
        pair = DatasetPair(fine_tune=emb, target=emb)
        assert compute_influence("delift_se", [0], [0], pair).values[0, 0] == 1.0

    def test_delift_se_analytic(self):
        f = EmbeddingMatrix(rows=np.array([[1.0, 0.0]], dtype=np.float32))
        s = math.sqrt(2) / 2
        t = EmbeddingMatrix(rows=np.array([[s, s]], dtype=np.float32))
        pair = DatasetPair(fine_tune=f, target=t)
        value = compute_influence("delift_se", [0], [0], pair).values[0, 0]
        assert value == pytest.approx(s, abs=1e-7)

    def test_less_pair_poles(self):
        g = np.array([[1.0, 2.0, 2.0], [-1.0, -2.0, -2.0]], dtype=np.float32)
        pair = DatasetPair(
            fine_tune=matrix_of(2),
            target=matrix_of(2, seed=1),
            fine_tune_gradients=EmbeddingMatrix(rows=g),
            target_gradients=EmbeddingMatrix(rows=g * 3),
        )
        values = compute_influence("less", [0], [0, 1], pair).values
        assert values[0, 0] == 1.0
        assert values[0, 1] == -1.0

    def test_less_missing_features(self):
        pair = DatasetPair(fine_tune=matrix_of(2), target=matrix_of(2, seed=1))
        with pytest.raises(RecordNotFoundError):
            compute_influence("less", [0], [0], pair)

    @pytest.mark.parametrize("method", ["delift_se", "less"])
    def test_gram_block_equals_per_cell_cosine(self, method):
        rng = np.random.default_rng(11)
        m, n = 23, 17
        pair = DatasetPair(
            fine_tune=matrix_of(m, dim=9, seed=1),
            target=matrix_of(n, dim=9, seed=2),
            fine_tune_gradients=matrix_of(m, dim=5, seed=3),
            target_gradients=matrix_of(n, dim=5, seed=4),
        )
        left, right = ((pair.fine_tune, pair.target) if method == "delift_se"
                       else (pair.fine_tune_gradients, pair.target_gradients))
        blocks = [
            (range(m), range(n)),
            (sorted(rng.choice(m, 7, replace=False)), sorted(rng.choice(n, 5, replace=False))),
            ([19, 2, 11], [16, 0]),  # unsorted, non-contiguous
            ([], range(n)),
            (range(m), []),
        ]
        for rows, cols in blocks:
            matrix = compute_influence(method, rows, cols, pair)
            expected = np.zeros((m, n), dtype=np.float32)
            mask = np.zeros((m, n), dtype=bool)
            for i in rows:
                for j in cols:
                    expected[i, j] = cosine(left.rows[i], right.rows[j])
                    mask[i, j] = True
            np.testing.assert_array_equal(matrix.mask, mask)
            assert matrix.values.tobytes() == expected.tobytes()


def cosine_block_one_product(left, right, rows, cols):
    """The whole rows x cols block as one normalised float64 Gram product:
    the oracle for the row-blocked `influence._cosine_block`."""
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


class TestRowBlockedCosine:
    @pytest.mark.parametrize("m, n, dim, block_cells", [
        (20, 12, 7, 60),   # 5 rows a block, 4 whole blocks
        (23, 12, 7, 60),   # a last block of 3 rows
        (9, 12, 7, 5),     # fewer cells than one row: a row a block
        (300, 250, 64, None),  # the default block: 131 rows, 3 blocks
        (50, 13, 256, None),   # an se_mid-sized corner: one block
    ])
    def test_equals_the_one_product_oracle_bitwise(self, monkeypatch, m, n, dim, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(nncift.datasets, "ROW_BLOCK_CELLS", block_cells)
        left, right = matrix_of(m, dim=dim, seed=1).rows, matrix_of(n, dim=dim, seed=2).rows
        order = np.random.default_rng(3)
        for rows, cols in (
            (np.arange(m), np.arange(n)),
            (order.permutation(m)[:m - 2], order.permutation(n)[:n - 1]),
        ):
            blocked = influence._cosine_block(left, right, rows, cols)
            expected = cosine_block_one_product(left, right, rows, cols).astype(np.float32)
            assert blocked.dtype == np.float32 and blocked.shape == expected.shape
            assert blocked.tobytes() == expected.tobytes()

    def test_zero_norm_in_a_later_block_names_the_oracles_cell(self, monkeypatch):
        monkeypatch.setattr(nncift.datasets, "ROW_BLOCK_CELLS", 8)  # 2 rows a block
        left, right = matrix_of(7, seed=1).rows.copy(), matrix_of(4, seed=2).rows
        left[5] = 0.0
        rows, cols = np.array([6, 0, 3, 1, 5, 2, 4]), np.arange(4)
        with pytest.raises(DataValidationError) as oracle:
            cosine_block_one_product(left, right, rows, cols)
        with pytest.raises(DataValidationError, match=re.escape(str(oracle.value))):
            influence._cosine_block(left, right, rows, cols)
        assert "(5, 0)" in str(oracle.value)


def selectit_score(prompts, scales, pair, ledger):
    """Sample 0's selectit score."""
    return compute_pointwise("selectit", [0], prompts, scales, pair, ledger).values[0]


def scale_with_records(tmp_path, label, count, records):
    path = tmp_path / f"{label}.jsonl"
    write_records(path, records)
    return ScaleEntry(label=label, parameter_count=count, probe=FileProvider(path))


class TestSelectIt:
    def test_all_ones_scores_one(self, tmp_path):
        entry = scale_with_records(tmp_path, "s", 10, [
            {"key": "0:0", "kind": "token_max_probs", "values": [1.0, 1.0, 1.0]},
        ])
        pair = text_pair(1, 1)
        score = selectit_score(["rate:"], (entry,), pair, CostLedger())
        assert score == 1.0

    def test_two_scale_weighting_exact(self, tmp_path):
        small = scale_with_records(tmp_path, "small", int(1e9), [
            {"key": "0:0", "kind": "token_max_probs", "values": [0.4]},
        ])
        large = scale_with_records(tmp_path, "large", int(3e9), [
            {"key": "0:0", "kind": "token_max_probs", "values": [0.8]},
        ])
        pair = text_pair(1, 1)
        score = selectit_score(["rate:"], (small, large), pair, CostLedger())
        assert score == 0.7

    def test_two_prompt_mean_exact(self, tmp_path):
        entry = scale_with_records(tmp_path, "s", 7, [
            {"key": "0:0", "kind": "token_max_probs", "values": [0.2]},
            {"key": "0:1", "kind": "token_max_probs", "values": [0.6]},
        ])
        pair = text_pair(1, 1)
        score = selectit_score(["a:", "b:"], (entry,), pair, CostLedger())
        assert score == 0.4

    def test_prompt_permutation_invariance(self):
        pair = text_pair(2, 1)
        scales = (
            ScaleEntry("a", 100, SyntheticProvider(seed=1)),
            ScaleEntry("b", 300, SyntheticProvider(seed=2)),
        )
        prompts = ["rate {prompt}", "score {prompt}", "judge {prompt}"]
        a = selectit_score(prompts, scales, pair, CostLedger())
        b = selectit_score(list(reversed(prompts)), scales, pair, CostLedger())
        assert a == b

    def test_scale_permutation_invariance(self):
        pair = text_pair(1, 1)
        e1 = ScaleEntry("a", 123, SyntheticProvider(seed=1))
        e2 = ScaleEntry("b", 456, SyntheticProvider(seed=2))
        e3 = ScaleEntry("c", 789, SyntheticProvider(seed=3))
        a = selectit_score(["p"], (e1, e2, e3), pair, CostLedger())
        b = selectit_score(["p"], (e3, e1, e2), pair, CostLedger())
        assert a == b

    def test_empty_prompts_rejected(self):
        spec = (ScaleEntry("a", 1, SyntheticProvider()),)
        with pytest.raises(ValueError):
            selectit_score([], spec, text_pair(1, 1), CostLedger())

    def test_nonpositive_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            ScaleEntry("a", 0, SyntheticProvider())

    def test_empty_scale_spec_rejected(self):
        with pytest.raises(ValueError, match="scale entry"):
            selectit_score(["p"], (), text_pair(1, 1), CostLedger())


class TestComputeInfluence:
    def test_delift_se_q1_mask_cardinality(self):
        pair = DatasetPair(fine_tune=matrix_of(4, seed=2), target=matrix_of(4, seed=3))
        part = partition(pair, 0.5, seed=0)
        matrix = compute_influence("delift_se", part.id_f, part.id_t, pair)
        assert matrix.valid_count() == 4

    def test_less_orthonormal_features_identity_pattern(self):
        eye = EmbeddingMatrix(rows=np.eye(3, dtype=np.float32))
        pair = DatasetPair(
            fine_tune=matrix_of(3),
            target=matrix_of(3, seed=1),
            fine_tune_gradients=eye,
            target_gradients=eye,
        )
        matrix = compute_influence("less", range(3), range(3), pair)
        np.testing.assert_array_equal(matrix.values, np.eye(3, dtype=np.float32))

    def test_delift_deterministic_bytes(self):
        pair = text_pair(2, 2)

        def run():
            return compute_influence(
                "delift", range(2), range(2), pair, SyntheticProvider(seed=9), CostLedger()
            ).to_bytes()

        assert run() == run()

    def test_delift_call_count_with_cache(self):
        pair = text_pair(2, 3)
        ledger = CostLedger()
        compute_influence("delift", range(2), range(3), pair, SyntheticProvider(seed=0), ledger)
        assert ledger.forward_calls == 2 * 3 + 3

    def test_delift_block_matches_delift_pair(self):
        pair = text_pair(4, 3)
        provider = SyntheticProvider(seed=5)
        matrix = compute_influence("delift", [3, 0, 2], [2, 0], pair, provider, CostLedger())
        for i in (3, 0, 2):
            for j in (2, 0):
                assert matrix.values[i, j] == np.float32(
                    delift_pair(i, j, pair, provider, CostLedger()))
        assert matrix.valid_count() == 6

    @pytest.mark.parametrize("cap", [1, 4])
    def test_http_block_is_independent_of_the_in_flight_cap(self, slow_server, cap):
        slow_server.fail_one_in = 3
        pair = text_pair(5, 4)
        ledger = CostLedger()
        matrix = compute_influence("delift", range(5), range(4), pair,
                                   HttpProvider(slow_server.url, backoff=0, max_in_flight=cap),
                                   ledger)
        replica = compute_influence("delift", range(5), range(4), pair, Replica(slow_server),
                                    CostLedger())
        assert matrix.to_bytes() == replica.to_bytes()
        assert slow_server.failures > 0
        assert ledger.forward_calls == 5 * 4 + 4 + slow_server.failures
        assert ledger.forward_calls == len(slow_server.requests)

    def test_concurrent_probe_error_names_the_lowest_failing_cell(self, slow_server):
        # cells (1, 0) and (2, 1) fail; a sequential loop would stop at (1, 0)
        slow_server.reject = {"q1\nanswer 1\n\ntq0", "q2\nanswer 2\n\ntq1"}
        ledger = CostLedger()
        with pytest.raises(ProbeError, match=r"^at cell \(1, 0\): "):
            compute_influence("delift", range(3), range(2), text_pair(3, 2),
                              HttpProvider(slow_server.url, max_in_flight=4), ledger)
        assert ledger.forward_calls == len(slow_server.requests)

    def test_delift_sends_the_context_free_probes_first_in_column_order(self):
        # the cost model's layout: C context-free probes, then the R x C cells row-major
        sent = []

        class Recording(SyntheticProvider):
            def target_logprobs(self, context, target, ledger, key=None):
                sent.append((context, target, key))
                return super().target_logprobs(context, target, ledger, key)

        pair = text_pair(4, 3)
        ledger = CostLedger()
        compute_influence("delift", [3, 0, 2], [2, 0], pair, Recording(seed=5), ledger)
        assert sent[:2] == [("tq2", "target answer 2", "2"), ("tq0", "target answer 0", "0")]
        assert [key for _, _, key in sent[2:]] == ["3:2", "3:0", "0:2", "0:0", "2:2", "2:0"]
        assert sent[2][0] == "q3\nanswer 3\n\ntq2"
        assert ledger.forward_calls == len(sent) == 3 * 2 + 2

    @pytest.mark.parametrize("cap", [1, 4])
    def test_failing_context_free_probe_is_labelled_with_its_target(self, slow_server, cap):
        # only column 1's context-free probe has the context "tq1"
        slow_server.reject = {"tq1"}
        ledger = CostLedger()
        with pytest.raises(ProbeError, match=r"^at target 1: "):
            compute_influence("delift", range(3), range(2), text_pair(3, 2),
                              HttpProvider(slow_server.url, max_in_flight=cap), ledger)
        assert ledger.forward_calls == len(slow_server.requests)

    def test_block_without_rows_pays_its_context_free_probes(self):
        ledger = CostLedger()
        matrix = compute_influence("delift", [], range(3), text_pair(2, 3), SyntheticProvider(), ledger)
        assert matrix.block.shape == (0, 3)
        assert ledger.forward_calls == 3

    def test_delift_se_zero_probe_calls(self):
        pair = DatasetPair(fine_tune=matrix_of(2), target=matrix_of(2, seed=1))
        ledger = CostLedger()
        compute_influence("delift_se", [0], [0], pair, ledger=ledger)
        assert ledger.forward_calls == 0

    def test_mask_matches_requested_cells(self):
        pair = DatasetPair(fine_tune=matrix_of(5), target=matrix_of(4, seed=1))
        matrix = compute_influence("delift_se", [0, 2, 4], [1, 3], pair)
        assert matrix.valid_count() == 6
        for i in (0, 2, 4):
            for j in (1, 3):
                assert matrix.mask[i, j]

    def test_failing_cell_identified(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        pair = DatasetPair(
            fine_tune=EmbeddingMatrix(rows=rows), target=EmbeddingMatrix(rows=rows[:1])
        )
        with pytest.raises(DataValidationError, match=r"\(1, 0\)"):
            compute_influence("delift_se", [0, 1], [0], pair)

    def test_zero_norm_names_first_cell_in_row_major_order(self):
        unit, zero = [1.0, 0.0], [0.0, 0.0]
        for fine, target, cell in (
            ([unit, unit], [unit, zero], r"\(0, 1\)"),
            ([unit, zero], [zero, unit], r"\(0, 0\)"),
            ([unit, zero], [unit, unit], r"\(1, 0\)"),
        ):
            pair = DatasetPair(
                fine_tune=EmbeddingMatrix(rows=np.array(fine, dtype=np.float32)),
                target=EmbeddingMatrix(rows=np.array(target, dtype=np.float32)),
            )
            with pytest.raises(DataValidationError, match=cell):
                compute_influence("delift_se", [0, 1], [0, 1], pair)

    def test_probe_error_names_the_cell(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [
            {"key": "0", "kind": "target_logprobs", "values": [-0.5]},
            {"key": "0:0", "kind": "target_logprobs", "values": [-0.25]},
        ])
        with pytest.raises(RecordNotFoundError, match=r"at cell \(1, 0\)"):
            compute_influence("delift", [0, 1], [0], text_pair(2, 1), FileProvider(path),
                              CostLedger())

    def test_foreign_probe_error_passes_through_unchanged(self):
        # 2 context-free + 2 context probes answer; the third cell's raises
        ledger = CostLedger()
        with pytest.raises(UnicodeDecodeError) as info:
            compute_influence("delift", range(2), range(2), text_pair(2, 2),
                              UndecodableAfter(calls=4), ledger)
        assert info.value.reason == "invalid start byte"
        assert ledger.forward_calls == 4

    def test_full_matrix_cell_list_form(self):
        # the form perfbench/run.py calls; goes when the benchmark passes blocks
        pair = text_pair(3, 2)
        cells = [(i, j) for i in range(3) for j in range(2)]
        ledger = CostLedger()
        matrix = compute_influence("delift", cells, pair, probe=SyntheticProvider(seed=2),
                                   ledger=ledger)
        block = compute_influence("delift", range(3), range(2), pair, SyntheticProvider(seed=2),
                                  CostLedger())
        assert matrix.to_bytes() == block.to_bytes()
        assert ledger.forward_calls == 3 * 2 + 2
        with pytest.raises(ValueError):
            compute_influence("delift_se", cells[:-1], pair)

    def test_unknown_method(self):
        pair = DatasetPair(fine_tune=matrix_of(1), target=matrix_of(1, seed=1))
        with pytest.raises(ValueError):
            compute_influence("selectit", [0], [0], pair)

    def test_values_in_range(self):
        pair = DatasetPair(fine_tune=matrix_of(6, seed=4), target=matrix_of(5, seed=5))
        matrix = compute_influence("delift_se", range(6), range(5), pair)
        assert np.all(np.abs(matrix.values) <= 1.0)


class TestComputePointwise:
    def make_scales(self):
        return (
            ScaleEntry("a", 100, SyntheticProvider(seed=1)),
            ScaleEntry("b", 300, SyntheticProvider(seed=2)),
        )

    def test_call_count(self):
        pair = text_pair(3, 1)
        ledger = CostLedger()
        scores = compute_pointwise(
            "selectit", [0, 1, 2], ["p1 {prompt}", "p2 {prompt}"],
            self.make_scales(), pair, ledger,
        )
        assert ledger.forward_calls == 3 * 2 * 2
        assert scores.indices.tolist() == [0, 1, 2]

    def test_empty_indices(self):
        pair = text_pair(3, 1)
        ledger = CostLedger()
        scores = compute_pointwise("selectit", [], ["p"], self.make_scales(), pair, ledger)
        assert len(scores.values) == 0
        assert ledger.forward_calls == 0

    def test_deterministic(self):
        pair = text_pair(4, 1)
        a = compute_pointwise("selectit", [0, 2], ["p {prompt}"], self.make_scales(), pair, CostLedger())
        b = compute_pointwise("selectit", [0, 2], ["p {prompt}"], self.make_scales(), pair, CostLedger())
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            compute_pointwise("delift", [0], ["p"], self.make_scales(), text_pair(1, 1), CostLedger())

    def test_foreign_probe_error_passes_through_unchanged(self):
        scales = (ScaleEntry("a", 100, UndecodableAfter(calls=1)),)
        with pytest.raises(UnicodeDecodeError):
            compute_pointwise("selectit", [0, 1], ["p"], scales, text_pair(2, 1), CostLedger())

    def test_blocks_score_as_one_pass(self, monkeypatch):
        pair = text_pair(7, 1)
        whole = compute_pointwise("selectit", range(7), ["p {prompt}", "q {prompt}"],
                                  self.make_scales(), pair, CostLedger())
        monkeypatch.setattr(influence, "_POINTWISE_BLOCK", 3)
        ledger = CostLedger()
        blocked = compute_pointwise("selectit", range(7), ["p {prompt}", "q {prompt}"],
                                    self.make_scales(), pair, ledger)
        assert blocked.values.tobytes() == whole.values.tobytes()
        assert ledger.forward_calls == 7 * 2 * 2

    def test_probe_error_names_the_index_after_the_scales_before_it(self, tmp_path):
        # a block goes to each scale in turn: "small" answers both indices
        # before "large" fails at index 1
        small = scale_with_records(tmp_path, "small", 1, [
            {"key": f"{i}:0", "kind": "token_max_probs", "values": [0.5]} for i in range(2)])
        large = scale_with_records(tmp_path, "large", 3, [
            {"key": "0:0", "kind": "token_max_probs", "values": [0.5]}])
        ledger = CostLedger()
        with pytest.raises(RecordNotFoundError, match=r"^at index 1: "):
            compute_pointwise("selectit", [0, 1], ["p"], (small, large), text_pair(2, 1), ledger)
        assert ledger.forward_calls == 3

    def test_http_corner_runs_over_the_in_flight_cap(self, slow_server):
        slow_server.delay = 0.02
        slow_server.fail_one_in = 3
        pair = text_pair(40, 1)
        corner = partition(pair, 0.25, seed=3).id_f
        prompts = ["rate {prompt}", "score {prompt}"]

        def run(cap):
            scales = tuple(ScaleEntry(label, count, HttpProvider(slow_server.url, backoff=0,
                                                                 max_in_flight=cap))
                           for label, count in (("small", 10**9), ("large", 3 * 10**9)))
            ledger, failures = CostLedger(), slow_server.failures
            scores = compute_pointwise("selectit", corner, prompts, scales, pair, ledger)
            failures = slow_server.failures - failures
            assert ledger.forward_calls == len(corner) * len(prompts) * len(scales) + failures
            assert ledger.failed_forwards == failures
            return scores

        piped = run(2)
        assert slow_server.peak["in_flight"] == 2
        assert slow_server.failures > 0
        assert piped.values.tobytes() == run(1).values.tobytes()


def nnk_bytes(m, n, rows, cols, block):
    """An NNCIFTB file written by hand, field by field."""
    return (b"NNCIFTB\x00" + struct.pack("<IIII", m, n, len(rows), len(cols))
            + np.asarray(rows, dtype="<u4").tobytes() + np.asarray(cols, dtype="<u4").tobytes()
            + np.asarray(block, dtype="<f4").tobytes())


class TestInfluenceMatrixFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for m, n in [(1, 1), (3, 7), (16, 2), (5, 13)]:
            rows = rng.permutation(m)[:int(rng.integers(1, m + 1))]
            cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            block = rng.standard_normal((len(rows), len(cols))).astype(np.float32)
            matrix = InfluenceMatrix(m, n, rows, cols, block)
            path = tmp_path / f"k{m}x{n}.nnk"
            save_influence(matrix, path)
            assert path.read_bytes() == matrix.to_bytes()
            loaded = load_influence(path)
            assert loaded.to_bytes() == matrix.to_bytes()
            np.testing.assert_array_equal(loaded.mask, matrix.mask)

    def test_index_byte_layout(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
        raw = InfluenceMatrix(9, 4, [7, 0, 3], [2, 1], block).to_bytes()
        assert raw[:8] == b"NNCIFTB\x00"
        assert struct.unpack_from("<IIII", raw, 8) == (9, 4, 3, 2)
        assert struct.unpack_from("<5I", raw, 24) == (7, 0, 3, 2, 1)
        assert raw[44:] == block.astype("<f4").tobytes()
        assert len(raw) == 24 + 4 * (3 + 2 + 6)

    def test_unsorted_block_round_trips_in_caller_order(self, tmp_path):
        block = np.arange(6, dtype=np.float32).reshape(3, 2)
        matrix = InfluenceMatrix(5, 4, [4, 0, 2], [3, 1], block)
        path = tmp_path / "u.nnk"
        save_influence(matrix, path)
        loaded = load_influence(path)
        np.testing.assert_array_equal(loaded.rows, [4, 0, 2])
        np.testing.assert_array_equal(loaded.cols, [3, 1])
        assert loaded.block.tobytes() == block.tobytes()
        assert loaded.values[4, 3] == 0.0 and loaded.values[0, 1] == 3.0
        assert not loaded.values[1].any()
        np.testing.assert_array_equal(take(loaded, [0, 4], [1, 3]), [[3.0, 2.0], [1.0, 0.0]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nnk"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 10)
        with pytest.raises(FileFormatError):
            load_influence(path)

    def test_dense_masked_format_rejected(self, tmp_path):
        # the earlier NNCIFTK layout: m, n, m*n float32 values, packed mask
        path = tmp_path / "dense.nnk"
        path.write_bytes(b"NNCIFTK\x00" + struct.pack("<II", 2, 3)
                         + np.ones(6, dtype="<f4").tobytes() + bytes([0b111111]))
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            load_influence(path)

    def test_truncated(self, tmp_path):
        matrix = InfluenceMatrix.full(np.ones((2, 2), dtype=np.float32))
        path = tmp_path / "t.nnk"
        save_influence(matrix, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(PayloadLengthError):
            load_influence(path)

    @pytest.mark.parametrize("raw", [
        b"NNCIFTB\x00" + struct.pack("<III", 1, 1, 1),
        nnk_bytes(3, 3, [0, 1], [2], [[1.0], [2.0]])[:-4],
        nnk_bytes(3, 3, [0, 1], [2], [[1.0], [2.0]]) + b"\x00" * 4,
        nnk_bytes(3, 3, [0, 1], [2], [[1.0], [2.0]])[:-1],
    ], ids=["short_header", "one_value_short", "one_value_long", "one_byte_short"])
    def test_length_mismatch(self, tmp_path, raw):
        path = tmp_path / "len.nnk"
        path.write_bytes(raw)
        with pytest.raises(PayloadLengthError, match=re.escape(str(path))):
            load_influence(path)

    @pytest.mark.parametrize("rows, cols", [
        ([1, 1], [0]), ([0, 3], [0]), ([0], [1, 1]), ([0, 1], [2]),
    ], ids=["duplicate_row", "row_out_of_range", "duplicate_column", "column_out_of_range"])
    def test_bad_indices_rejected(self, tmp_path, rows, cols):
        path = tmp_path / "idx.nnk"
        path.write_bytes(nnk_bytes(3, 2, rows, cols, np.zeros((len(rows), len(cols)))))
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            load_influence(path)

    def test_non_finite_block_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "nan.nnk"
        path.write_bytes(nnk_bytes(2, 2, [1], [0, 1], [[1.0, np.inf]]))
        with pytest.raises(DataValidationError, match=re.escape(str(path))):
            load_influence(path)

    def test_non_finite_valid_cell_rejected(self):
        with pytest.raises(DataValidationError):
            InfluenceMatrix(1, 1, [0], [0], np.array([[np.nan]], dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_the_last_row_rejected(self, bad):
        block = np.random.default_rng(0).random((300, 250)).astype(np.float32)
        block[-1, -1] = bad
        with pytest.raises(DataValidationError, match="^block contains non-finite values$"):
            InfluenceMatrix.full(block)

    def test_empty_matrix(self, tmp_path):
        matrix = InfluenceMatrix(0, 5, [], range(5), np.zeros((0, 5), dtype=np.float32))
        path = tmp_path / "e.nnk"
        save_influence(matrix, path)
        loaded = load_influence(path)
        assert (loaded.m, loaded.n) == (0, 5)

    def test_overlay(self):
        base = InfluenceMatrix.full(np.full((2, 2), 0.5, dtype=np.float32))
        top = InfluenceMatrix(2, 2, [0], [0], np.array([[0.9]], dtype=np.float32))
        merged = overlay(base, top)
        assert merged.fully_valid
        assert merged.values[0, 0] == np.float32(0.9)
        assert merged.values[1, 1] == np.float32(0.5)

    def test_overlay_outside_the_block_rejected(self):
        base = InfluenceMatrix(3, 3, [0, 2], [1], np.zeros((2, 1), dtype=np.float32))
        top = InfluenceMatrix(3, 3, [1], [1], np.ones((1, 1), dtype=np.float32))
        with pytest.raises(CoverageError):
            overlay(base, top)

    @pytest.mark.parametrize("sizes", [[5], [2, 3], [1, 1, 1, 1, 1], [0, 4, 0, 1]])
    def test_streamed_rows_are_the_assembled_file(self, tmp_path, sizes):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((5, 3)).astype(np.float32)
        matrix = InfluenceMatrix(8, 6, [6, 1, 0, 7, 3], [5, 0, 2], block)
        save_influence(matrix, tmp_path / "whole.nnk")
        ends = np.cumsum(sizes)
        save_influence_rows(tmp_path / "rows.nnk", 8, 6, matrix.rows, matrix.cols,
                            (block[end - size:end] for size, end in zip(sizes, ends)))
        assert (tmp_path / "rows.nnk").read_bytes() == (tmp_path / "whole.nnk").read_bytes()

    @pytest.mark.parametrize("blocks, error", [
        ([np.zeros((2, 3)), np.zeros((2, 3))], ValueError),  # 4 rows of 5
        ([np.zeros((5, 2))], ValueError),  # a column short
        ([np.zeros((3, 3)), np.full((2, 3), np.nan)], DataValidationError),
    ])
    def test_streamed_rows_are_checked(self, tmp_path, blocks, error):
        with pytest.raises(error):
            save_influence_rows(tmp_path / "bad.nnk", 8, 6, [6, 1, 0, 7, 3], [5, 0, 2], blocks)
        if (tmp_path / "bad.nnk").exists():
            # what was written is not a matrix: the file reads as short
            with pytest.raises((PayloadLengthError, DataValidationError)):
                load_influence(tmp_path / "bad.nnk")


class TestPointwiseScores:
    def test_to_matrix_is_a_block_of_the_m_by_1_matrix(self):
        matrix = PointwiseScores(m=5, indices=[4, 0, 2], values=[0.1, 0.2, 0.3]).to_matrix()
        assert (matrix.m, matrix.n) == (5, 1)
        np.testing.assert_array_equal(matrix.rows, [4, 0, 2])
        np.testing.assert_array_equal(matrix.cols, [0])
        np.testing.assert_array_equal(matrix.block, np.float32([[0.1], [0.2], [0.3]]))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            PointwiseScores(m=3, indices=[0, 0], values=[0.1, 0.2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PointwiseScores(m=3, indices=[3], values=[0.1])
