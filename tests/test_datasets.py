import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncift.datasets import (
    DatasetPair,
    EmbeddingMatrix,
    QuadrantPartition,
    _fisher_yates,
    exact_ceil,
    load_embeddings,
    load_texts,
    partition,
    quadrant_index_sets,
    save_embeddings,
    save_texts,
)
from nncift.errors import (
    DataValidationError,
    FileFormatError,
    PayloadLengthError,
    RecordNotFoundError,
)


def random_matrix(rng, count, dim):
    return EmbeddingMatrix(rows=rng.standard_normal((count, dim)).astype(np.float32))


def make_pair(m, n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetPair(fine_tune=random_matrix(rng, m, dim), target=random_matrix(rng, n, dim))


class TestExactCeil:
    def test_basic(self):
        assert exact_ceil(0.05, 1000) == 50

    def test_float_product_overshoot_does_not_leak(self):
        # 0.07 * 100 == 7.000000000000001 in binary floats; the ceiling
        # must still be 7.
        assert 0.07 * 100 > 7
        assert exact_ceil(0.07, 100) == 7

    def test_extremes(self):
        assert exact_ceil(0.0, 123) == 0
        assert exact_ceil(1.0, 123) == 123
        assert exact_ceil(1, 123) == 123

    def test_string_fraction(self):
        assert exact_ceil("0.3", 15000) == 4500

    def test_rounds_up(self):
        assert exact_ceil(0.1, 5) == 1
        assert exact_ceil(0.5, 3) == 2


class TestEmbeddingMatrix:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(rows=np.zeros(3, dtype=np.float32))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(rows=np.zeros((2, 0), dtype=np.float32))

    def test_rejects_non_finite(self):
        rows = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(DataValidationError):
            EmbeddingMatrix(rows=rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_the_last_row_rejected(self, bad):
        rows = np.random.default_rng(0).standard_normal((1000, 256)).astype(np.float32)
        rows[-1, -1] = bad
        with pytest.raises(DataValidationError, match="^embedding rows contain non-finite values$"):
            EmbeddingMatrix(rows=rows)

    def test_coerces_to_float32(self):
        m = EmbeddingMatrix(rows=np.eye(2, dtype=np.float64))
        assert m.rows.dtype == np.float32
        assert m.count == 2 and m.dim == 2


class TestEmb1RoundTrip:
    @pytest.mark.parametrize("dim", [1, 3, 1024])
    def test_bit_exact(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        m = random_matrix(rng, 17, dim)
        path = tmp_path / "m.emb"
        save_embeddings(m, path)
        loaded = load_embeddings(path)
        assert loaded.rows.tobytes() == m.rows.tobytes()
        assert (loaded.count, loaded.dim) == (m.count, m.dim)

    def test_empty_matrix_is_header_only(self, tmp_path):
        m = EmbeddingMatrix(rows=np.zeros((0, 1024), dtype=np.float32))
        path = tmp_path / "empty.emb"
        save_embeddings(m, path)
        assert path.stat().st_size == 16
        loaded = load_embeddings(path)
        assert loaded.count == 0 and loaded.dim == 1024

    def test_truncated_payload(self, tmp_path):
        m = random_matrix(np.random.default_rng(0), 2, 3)
        path = tmp_path / "m.emb"
        save_embeddings(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # drop one float
        with pytest.raises(PayloadLengthError):
            load_embeddings(path)

    def test_oversized_payload(self, tmp_path):
        m = random_matrix(np.random.default_rng(0), 2, 3)
        path = tmp_path / "m.emb"
        save_embeddings(m, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(PayloadLengthError):
            load_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            load_embeddings(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"NNCIFT1\x00\x01")
        with pytest.raises(PayloadLengthError):
            load_embeddings(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "m.emb"
        m = random_matrix(np.random.default_rng(0), 1, 2)
        save_embeddings(m, path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataValidationError):
            load_embeddings(path)


def emb1_rows_from_bytes(path):
    """The whole-file decoding: read every byte, slice off the header,
    view the rest as float32 and copy it out."""
    raw = path.read_bytes()
    count, dim = struct.unpack_from("<II", raw, 8)
    return np.frombuffer(raw[16:], dtype="<f4").reshape(count, dim).copy()


class TestEmb1InPlaceLoad:
    def test_rows_equal_the_whole_file_decoding(self, tmp_path):
        rng = np.random.default_rng(11)
        for case in range(20):
            count, dim = int(rng.integers(0, 50)), int(rng.integers(1, 300))
            rows = (rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-30, 30)).astype(np.float32)
            path = tmp_path / f"r{case}.emb"
            save_embeddings(EmbeddingMatrix(rows=rows), path)
            loaded = load_embeddings(path)
            assert loaded.rows.dtype == np.float32 and loaded.rows.flags.writeable
            assert loaded.rows.shape == (count, dim)
            assert loaded.rows.tobytes() == emb1_rows_from_bytes(path).tobytes()

    @pytest.mark.parametrize("edit, error", [
        (lambda raw: raw[:-4], PayloadLengthError),
        (lambda raw: raw[:-1], PayloadLengthError),
        (lambda raw: raw[:16], PayloadLengthError),
        (lambda raw: raw + b"\x00" * 4, PayloadLengthError),
        (lambda raw: raw + b"\x00", PayloadLengthError),
        (lambda raw: raw[:20] + np.array([np.nan], dtype="<f4").tobytes() + raw[24:],
         DataValidationError),
        (lambda raw: raw[:-4] + np.array([-np.inf], dtype="<f4").tobytes(), DataValidationError),
        (lambda raw: raw[:12] + struct.pack("<I", 0) + raw[16:], FileFormatError),
    ], ids=["one_float_short", "one_byte_short", "header_only", "one_float_long",
            "one_byte_long", "nan", "negative_inf", "zero_dim"])
    def test_bad_payload_names_the_path(self, tmp_path, edit, error):
        path = tmp_path / "bad.emb"
        save_embeddings(random_matrix(np.random.default_rng(0), 3, 4), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(error, match=re.escape(str(path))):
            load_embeddings(path)


class TestOtherFormatsRejected:
    @pytest.mark.parametrize("name, content", [
        ("m.jsonl", b'{"idx": 0, "vec": [1.0]}\n'),
        ("m.emb", b"NNCIFT1"),
        ("m.emb", b""),
        ("m.emb", b"WRONGMAG" + b"\x00" * 8),
    ], ids=["json_lines", "shorter_than_the_magic", "empty", "other_magic"])
    def test_non_emb1_file_names_the_file(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: bad magic") + ".*EMB1 files"):
            load_embeddings(path)

    def test_jsonl_suffix_is_written_as_emb1(self, tmp_path):
        m = random_matrix(np.random.default_rng(1), 5, 3)
        path = tmp_path / "m.jsonl"
        save_embeddings(m, path)
        assert path.read_bytes()[:8] == b"NNCIFT1\x00"
        assert load_embeddings(path).rows.tobytes() == m.rows.tobytes()


def test_readme_json_lines_conversion_runs(tmp_path, monkeypatch):
    """README's File formats snippet, run as written, turns JSON-lines rows into EMB1."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split(
        "\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    rows = [[0.5, -1.0, 2.0], [0.25, 0.0, 1e-3], [-3.0, 4.0, 7.5]]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.jsonl").write_text(
        "".join(json.dumps({"idx": i, "vec": rows[i]}) + "\n" for i in (2, 0, 1)))
    exec(snippet, {})
    loaded = load_embeddings(tmp_path / "rows.emb")
    assert loaded.rows.tobytes() == np.array(rows, dtype=np.float32).tobytes()


class TestDatasetPair:
    def test_dim_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            DatasetPair(fine_tune=random_matrix(rng, 2, 3), target=random_matrix(rng, 2, 4))

    def test_gradient_count_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            DatasetPair(
                fine_tune=random_matrix(rng, 2, 3),
                target=random_matrix(rng, 2, 3),
                fine_tune_gradients=random_matrix(rng, 3, 5),
            )

    def test_missing_text_record(self):
        pair = make_pair(2, 2)
        with pytest.raises(RecordNotFoundError):
            pair.text("fine_tune", 0)

    def test_text_lookup(self):
        pair = DatasetPair(
            fine_tune=random_matrix(np.random.default_rng(0), 1, 2),
            target=random_matrix(np.random.default_rng(1), 1, 2),
            fine_tune_texts={0: ("q", "a")},
        )
        assert pair.text("fine_tune", 0) == ("q", "a")


def fisher_yates_loop(count, rng):
    """The per-element shuffle `_fisher_yates` must reproduce draw for draw."""
    idx = np.arange(count, dtype=np.int64)
    for k in range(count - 1, 0, -1):
        r = int(rng.integers(0, k + 1))
        idx[k], idx[r] = idx[r], idx[k]
    return idx


def side_rng(seed, side):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, side))))


def check_partition_invariants(part, m, n, u):
    for ids, oods, count in ((part.id_f, part.ood_f, m), (part.id_t, part.ood_t, n)):
        union = np.concatenate([ids, oods])
        assert sorted(union.tolist()) == list(range(count))
        assert len(set(ids.tolist()) & set(oods.tolist())) == 0
    assert len(part.id_f) == exact_ceil(u, m)
    assert len(part.id_t) == exact_ceil(u, n)


class TestPartition:
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        u=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_coverage_and_sizes(self, m, n, u, seed):
        part = partition(make_pair(m, n, dim=1), u, seed)
        check_partition_invariants(part, m, n, u)

    def test_thousand_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, 30))
            u = float(rng.uniform(0, 1))
            seed = int(rng.integers(0, 2**32))
            part = partition(make_pair(m, n, dim=1), u, seed)
            check_partition_invariants(part, m, n, u)

    @pytest.mark.parametrize("count", [*range(6), 17, 256, 4097, 40_000])
    def test_shuffle_matches_the_per_element_loop(self, count):
        # golden hashes rest on the split, so the batched draws must be the loop's
        for seed in range(3):
            for side in (0, 1):
                np.testing.assert_array_equal(_fisher_yates(count, side_rng(seed, side)),
                                              fisher_yates_loop(count, side_rng(seed, side)))

    def test_deterministic(self):
        pair = make_pair(20, 10)
        a = partition(pair, 0.25, seed=7)
        b = partition(pair, 0.25, seed=7)
        np.testing.assert_array_equal(a.id_f, b.id_f)
        np.testing.assert_array_equal(a.id_t, b.id_t)

    def test_u_one_empties_ood(self):
        part = partition(make_pair(6, 4), 1.0, seed=0)
        assert len(part.ood_f) == 0 and len(part.ood_t) == 0

    def test_u_zero_empties_id(self):
        part = partition(make_pair(6, 4), 0.0, seed=0)
        assert len(part.id_f) == 0 and len(part.id_t) == 0

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            partition(make_pair(2, 2), 1.5, seed=0)

    def test_sides_shuffled_independently(self):
        part = partition(make_pair(30, 30), 0.5, seed=3)
        assert part.id_f.tolist() != part.id_t.tolist()

    def test_id_count_exact_for_u_point_05(self):
        part = partition(make_pair(1000, 100, dim=1), 0.05, seed=0)
        assert len(part.id_f) == 50
        assert len(part.id_t) == 5


def manual_partition(id_f, ood_f, id_t, ood_t):
    return QuadrantPartition(
        id_f=np.array(id_f, dtype=np.int64),
        ood_f=np.array(ood_f, dtype=np.int64),
        id_t=np.array(id_t, dtype=np.int64),
        ood_t=np.array(ood_t, dtype=np.int64),
    )


def quadrant_cells(part, quadrant):
    rows, cols = quadrant_index_sets(part, quadrant)
    return [(int(i), int(j)) for i in rows for j in cols]


class TestQuadrantPairs:
    def test_identity_shuffle_2x2(self):
        part = manual_partition([0], [1], [0], [1])
        assert quadrant_cells(part, "Q1") == [(0, 0)]
        assert quadrant_cells(part, "Q2") == [(0, 1)]
        assert quadrant_cells(part, "Q3") == [(1, 0)]
        assert quadrant_cells(part, "Q4") == [(1, 1)]

    def test_union_covers_grid(self):
        part = partition(make_pair(5, 7), 0.4, seed=1)
        seen = set()
        for q in ("Q1", "Q2", "Q3", "Q4"):
            cells = quadrant_cells(part, q)
            assert cells == sorted(cells)
            assert seen.isdisjoint(cells)
            seen.update(cells)
        assert seen == {(i, j) for i in range(5) for j in range(7)}

    def test_q1_cardinality_formula(self):
        for m, n, u in [(10, 10, 0.3), (7, 13, 0.05), (100, 100, 0.07)]:
            part = partition(make_pair(m, n, dim=1), u, seed=2)
            assert len(quadrant_cells(part, "Q1")) == exact_ceil(u, m) * exact_ceil(u, n)

    def test_u_zero_all_in_q4(self):
        part = partition(make_pair(3, 4), 0.0, seed=0)
        assert len(quadrant_cells(part, "Q4")) == 12
        assert len(quadrant_cells(part, "Q1")) == 0
        assert len(quadrant_cells(part, "Q2")) == 0
        assert len(quadrant_cells(part, "Q3")) == 0

    def test_unknown_quadrant(self):
        part = partition(make_pair(2, 2), 0.5, seed=0)
        with pytest.raises(ValueError):
            quadrant_index_sets(part, "Q5")


class TestTexts:
    def test_round_trip(self, tmp_path):
        records = {0: ("what is 2+2", "4"), 1: ("hi", "hello")}
        path = tmp_path / "texts.jsonl"
        save_texts(records, path)
        assert load_texts(path) == records

    def test_duplicate_idx(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text(
            '{"idx": 0, "prompt": "a", "response": "b"}\n'
            '{"idx": 0, "prompt": "c", "response": "d"}\n'
        )
        with pytest.raises(FileFormatError):
            load_texts(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"idx": 0, "prompt": "a"}\n')
        with pytest.raises(FileFormatError):
            load_texts(path)

    @pytest.mark.parametrize("record, error", [
        ('"idx": 0, "prompt": null, "response": "b"', "prompt and response must be strings"),
        ('"idx": 0, "prompt": "a", "response": 4', "prompt and response must be strings"),
        ('"idx": 0, "prompt": ["a"], "response": "b"', "prompt and response must be strings"),
        ('"idx": true, "prompt": "a", "response": "b"', "idx must be a nonnegative integer"),
        ('"idx": "0", "prompt": "a", "response": "b"', "idx must be a nonnegative integer"),
        ('"idx": 0, "prompt": "a", "response": ""', "response must be non-empty"),
    ])
    def test_field_of_the_wrong_type(self, tmp_path, record, error):
        path = tmp_path / "texts.jsonl"
        path.write_text("{%s}\n" % record)
        with pytest.raises(FileFormatError, match=rf"texts\.jsonl:1: {error}"):
            load_texts(path)
