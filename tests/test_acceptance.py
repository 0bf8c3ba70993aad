"""Acceptance gate: eight standalone checks over the whole toolkit.

Each test prints exactly one pass/fail line (visible even under pytest
capture) and enforces its own runtime budget. Expected values are
either exact identities or oracle results computed here by independent
means (finite differences, brute-force enumeration, direct arithmetic).
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from nncift.cli import main
from nncift.datasets import (
    DatasetPair,
    EmbeddingMatrix,
    exact_ceil,
    load_embeddings,
    partition,
    quadrant_index_sets,
    save_embeddings,
)
from nncift.influence import (
    InfluenceMatrix,
    PointwiseScores,
    ScaleEntry,
    compute_influence,
    compute_pointwise,
    distance_from_logprobs,
)
from nncift.network import (
    TrainConfig,
    estimate_pairwise,
    init_params,
    save_params,
    train,
)
from nncift.probes import CostLedger, FileProvider, SyntheticProvider
from nncift.reporting import build_cost_report, verify_ledger
from nncift.selection import facility_location_greedy, facility_location_value
from oracles import cosine, delift_pair, facility_location_naive, loss_and_gradients


def announce(capsys, number, name, passed, detail):
    with capsys.disabled():
        print(f"[acceptance {number}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def unit_rows(count, dim, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.normal(size=(count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


def synthetic_pair(m, n, dim=8, seed=0, texts=False, gradients=False):
    kwargs = {}
    if texts:
        kwargs["fine_tune_texts"] = {i: (f"q {i}", f"answer {i} text") for i in range(m)}
        kwargs["target_texts"] = {j: (f"tq {j}", f"target answer {j}") for j in range(n)}
    if gradients:
        kwargs["fine_tune_gradients"] = EmbeddingMatrix(unit_rows(m, dim, seed + 10))
        kwargs["target_gradients"] = EmbeddingMatrix(unit_rows(n, dim, seed + 11))
    return DatasetPair(
        fine_tune=EmbeddingMatrix(unit_rows(m, dim, seed)),
        target=EmbeddingMatrix(unit_rows(n, dim, seed + 1)),
        **kwargs,
    )


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_1_gradients_match_finite_differences(capsys):
    started = time.perf_counter()
    step = 1e-4
    worst = 0.0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        in_dim = int(rng.integers(1, 17))
        hidden = int(rng.integers(1, 9))
        params = init_params(seed, in_dim, hidden)
        # nonzero biases so their gradient paths are exercised too
        params.b1 += rng.normal(scale=0.1, size=params.b1.shape)
        params.b2 += rng.normal(scale=0.1, size=params.b2.shape)
        x = rng.normal(size=(5, in_dim))
        targets = rng.random(5)
        _, grads = loss_and_gradients(params, x, targets)
        for array, grad in zip(params.arrays(), grads.arrays()):
            flat = array.reshape(-1)
            flat_grad = grad.reshape(-1)
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + step
                plus, _ = loss_and_gradients(params, x, targets)
                flat[k] = original - step
                minus, _ = loss_and_gradients(params, x, targets)
                flat[k] = original
                numeric = (plus - minus) / (2 * step)
                denom = max(abs(flat_grad[k]), abs(numeric), 1e-8)
                worst = max(worst, abs(flat_grad[k] - numeric) / denom)
    elapsed = time.perf_counter() - started
    passed = worst < 1e-4 and elapsed < 5.0
    announce(capsys, 1, "analytic gradients match central finite differences",
             passed, f"20 nets, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert passed, f"max rel err {worst}, elapsed {elapsed}"


def test_2_greedy_selection_correctness(capsys):
    started = time.perf_counter()
    lazy_matches = True
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(2, 31))
        n = int(rng.integers(1, 21))
        budget = int(rng.integers(1, 11))
        values = rng.random((m, n))
        if seed % 3 == 0:
            values = np.round(values * 4) / 4  # ties on purpose
        kernel = InfluenceMatrix.full(values.astype(np.float32))
        lazy = facility_location_greedy(kernel, budget)
        naive = facility_location_naive(kernel, budget)
        if lazy.indices != naive.indices or lazy.objective_values != naive.objective_values:
            lazy_matches = False

    guarantee_holds = True
    bound = 1.0 - 1.0 / math.e
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        m = int(rng.integers(2, 13))
        n = int(rng.integers(1, 9))
        budget = int(rng.integers(1, min(4, m) + 1))
        values = rng.random((m, n))
        kernel = InfluenceMatrix.full(values.astype(np.float32))
        greedy_value = facility_location_greedy(kernel, budget).objective_values[-1]
        opt = max(
            facility_location_value(kernel.values.astype(np.float64), subset)
            for subset in itertools.combinations(range(m), budget)
        )
        if greedy_value < bound * opt - 1e-12:
            guarantee_holds = False
    elapsed = time.perf_counter() - started
    passed = lazy_matches and guarantee_holds and elapsed < 30.0
    announce(capsys, 2, "lazy greedy == naive greedy and clears (1-1/e)*OPT",
             passed, f"100+100 instances, {elapsed:.1f}s")
    assert passed, f"lazy_matches={lazy_matches} guarantee={guarantee_holds} elapsed={elapsed}"


def test_3_estimator_beats_baselines_at_synthetic_scale(capsys):
    started = time.perf_counter()
    m, n, dim = 2000, 500, 32
    fine = unit_rows(m, dim, seed=101)
    target = unit_rows(n, dim, seed=202)
    pair = DatasetPair(fine_tune=EmbeddingMatrix(fine), target=EmbeddingMatrix(target))

    cosines = fine.astype(np.float64) @ target.astype(np.float64).T
    lo, hi = cosines.min(), cosines.max()
    truth = (cosines - lo) / (hi - lo)  # ground-truth influence in [0, 1]

    noise = np.random.Generator(np.random.PCG64(99)).random((m, n))
    conditions = []
    details = []
    for u in (0.05, 0.1, 0.2):
        part = partition(pair, u, seed=13)
        targets = truth[np.ix_(part.id_f, part.id_t)].reshape(-1)
        result = train(fine[part.id_f], target[part.id_t], targets, TrainConfig(seed=0))

        trained = {}
        zero = {}
        random_mse = {}
        scratch = CostLedger()
        for quadrant in ("Q1", "Q2", "Q3", "Q4"):
            rows, cols = quadrant_index_sets(part, quadrant)
            estimates = estimate_pairwise(result.params, pair, rows, cols, scratch)
            grid = np.ix_(rows, cols)
            raw = result.norm.denormalize(estimates.values[grid].astype(np.float64))
            trained[quadrant] = float(((raw - truth[grid]) ** 2).mean())
            zero[quadrant] = float((truth[grid] ** 2).mean())
            random_mse[quadrant] = float(((noise[grid] - truth[grid]) ** 2).mean())

        ratio = max(trained.values()) / min(trained.values())
        conditions.append(trained["Q4"] < zero["Q4"])
        conditions.append(trained["Q4"] < 0.5 * random_mse["Q4"])
        conditions.append(ratio <= 3.0)
        details.append(
            f"u={u}: Q4 trained {trained['Q4']:.4f} zero {zero['Q4']:.4f} "
            f"random {random_mse['Q4']:.4f} quadrant ratio {ratio:.2f}"
        )
    elapsed = time.perf_counter() - started
    conditions.append(elapsed < 180.0)
    passed = all(conditions)
    announce(capsys, 3, "trained estimator beats both baselines on Q4, evenly across quadrants",
             passed, "; ".join(details) + f"; {elapsed:.0f}s")
    assert passed, details


def test_4_ledger_verification_and_savings(capsys):
    started = time.perf_counter()

    def run_case(method, m, n, u, prompts=1, scales=2):
        ledger = CostLedger()
        if method == "selectit":
            pair = synthetic_pair(m, max(n, 1), texts=True)
            part = partition(pair, u, seed=3)
            prompt_list = [f"rate {k}: {{prompt}}" for k in range(prompts)]
            spec = tuple(
                ScaleEntry(f"s{k}", (k + 1) * 10**9, SyntheticProvider(seed=k))
                for k in range(scales)
            )
            compute_pointwise(method, [int(i) for i in part.id_f], prompt_list, spec, pair, ledger)
        else:
            pair = synthetic_pair(m, n, texts=(method == "delift"), gradients=(method == "less"))
            part = partition(pair, u, seed=3)
            probe = SyntheticProvider(seed=5) if method == "delift" else None
            compute_influence(method, part.id_f, part.id_t, pair, probe=probe, ledger=ledger)
            if method == "less":
                ledger.add_backward(m + n)
        cost = build_cost_report(
            method, m, n, u, ledger.as_dict(),
            prompts=prompts if method == "selectit" else None,
            scales=scales if method == "selectit" else None,
        )
        return verify_ledger(cost)["passed"], ledger

    grid = [
        ("delift", 10, 5, 0.1), ("delift", 20, 10, 0.05), ("delift", 7, 3, 0.5),
        ("delift", 12, 12, 0.25), ("delift", 30, 10, 0.07), ("delift", 9, 4, 1.0),
        ("delift_se", 10, 5, 0.1), ("delift_se", 6, 6, 0.5),
        ("delift_se", 15, 3, 0.2), ("delift_se", 8, 8, 1.0),
        ("less", 10, 5, 0.1), ("less", 14, 7, 0.3),
        ("less", 5, 5, 1.0), ("less", 20, 4, 0.05),
        ("selectit", 10, 0, 0.1), ("selectit", 12, 0, 0.25), ("selectit", 8, 0, 0.5),
        ("selectit", 16, 0, 0.05), ("selectit", 9, 0, 1.0), ("selectit", 11, 0, 0.33),
    ]
    assert len(grid) == 20
    all_exact = all(run_case(*case)[0] for case in grid)

    # a real corner valuation must spend <= 1% of the full-valuation forwards
    _, ledger = run_case("delift", 100, 100, 0.05)
    saved = build_cost_report("delift", 100, 100, 0.05, ledger.as_dict())["savings_ratio"]
    elapsed = time.perf_counter() - started
    passed = all_exact and saved >= 0.99 and elapsed < 60.0
    announce(capsys, 4, "ledger matches predictions on a 20-case grid; corner valuation saves >= 99%",
             passed, f"savings {saved:.4f} at u=0.05, {elapsed:.1f}s")
    assert passed, f"all_exact={all_exact} savings={saved} elapsed={elapsed}"


def test_5_unit_identities_exact(capsys, tmp_path):
    started = time.perf_counter()
    checks = []

    # identical probe responses with and without context: influence 0
    records = tmp_path / "cancel.jsonl"
    write_records(records, [
        {"key": "0", "kind": "target_logprobs", "values": [-0.7, -0.3]},
        {"key": "0:0", "kind": "target_logprobs", "values": [-0.7, -0.3]},
    ])
    pair = synthetic_pair(1, 1, texts=True)
    checks.append(delift_pair(0, 0, pair, FileProvider(records), CostLedger()) == 0.0)

    v = np.random.default_rng(0).standard_normal(32)
    w = np.zeros(32)
    w[0] = 1.0
    orthogonal = np.zeros(32)
    orthogonal[1] = 1.0
    checks.append(cosine(v, v) == 1.0)
    checks.append(cosine(v, -v) == -1.0)
    checks.append(cosine(w, orthogonal) == 0.0)

    checks.append(distance_from_logprobs([0.0, 0.0, 0.0]) == 0.0)

    small = tmp_path / "small.jsonl"
    large = tmp_path / "large.jsonl"
    write_records(small, [{"key": "0:0", "kind": "token_max_probs", "values": [0.4]}])
    write_records(large, [{"key": "0:0", "kind": "token_max_probs", "values": [0.8]}])
    scales = (
        ScaleEntry("small", int(1e9), FileProvider(small)),
        ScaleEntry("large", int(3e9), FileProvider(large)),
    )
    # (1e9*0.4 + 3e9*0.8) / 4e9 is exactly 0.7 in binary64
    checks.append(compute_pointwise("selectit", [0], ["rate:"], scales, pair,
                                    CostLedger()).values[0] == 0.7)

    elapsed = time.perf_counter() - started
    passed = all(checks) and elapsed < 1.0
    announce(capsys, 5, "influence unit identities hold exactly",
             passed, f"{len(checks)} identities, {elapsed:.2f}s")
    assert passed, checks


def test_6_pipeline_byte_determinism(capsys, tmp_path):
    started = time.perf_counter()
    fine = tmp_path / "fine.emb"
    target = tmp_path / "target.emb"
    save_embeddings(EmbeddingMatrix(unit_rows(40, 8, seed=1)), fine)
    save_embeddings(EmbeddingMatrix(unit_rows(30, 8, seed=2)), target)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "method": "delift",
        "u": 0.1,
        "v": 0.3,
        "seed": 5,
        "fine_tune_embeddings": str(fine),
        "target_embeddings": str(target),
    }))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(["pipeline", "--config", str(config), "--out", str(out_a)])
    code_b = main(["pipeline", "--config", str(config), "--out", str(out_b)])
    identical = {
        name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("q1.nnk", "full.nnk", "params.json", "selection.json")
    }
    elapsed = time.perf_counter() - started
    passed = code_a == 0 and code_b == 0 and all(identical.values()) and elapsed < 60.0
    announce(capsys, 6, "two identical pipeline runs produce byte-identical artifacts",
             passed, f"{', '.join(identical)} compared, {elapsed:.1f}s")
    assert passed, identical


def test_7_binary_formats_round_trip(capsys, tmp_path):
    started = time.perf_counter()
    ok = True
    rng = np.random.Generator(np.random.PCG64(7))
    for case in range(12):
        count = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 130))
        rows = (rng.normal(size=(count, dim)) * 100).astype(np.float32)
        path = tmp_path / f"emb{case}.emb"
        save_embeddings(EmbeddingMatrix(rows), path)
        loaded = load_embeddings(path)
        ok &= loaded.rows.tobytes() == rows.tobytes() and loaded.rows.shape == rows.shape

    for case in range(12):
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 25))
        values = rng.normal(size=(m, n)).astype(np.float32)
        # a random row subset x column subset, each in random order
        rows = rng.permutation(m)[:int(rng.integers(0, m + 1))]
        cols = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        if case == 0:
            rows, cols = np.arange(m), np.arange(n)
        if case == 1:
            rows, cols = rows[:0], cols[:0]
        mask = np.zeros((m, n), dtype=bool)
        mask[np.ix_(rows, cols)] = True
        matrix = InfluenceMatrix(m, n, rows, cols, values[np.ix_(rows, cols)])
        raw = matrix.to_bytes()
        loaded = InfluenceMatrix.from_bytes(raw, origin="test")
        ok &= np.array_equal(loaded.mask, mask)
        ok &= loaded.values.tobytes() == np.where(mask, values, np.float32(0.0)).tobytes()
        ok &= loaded.to_bytes() == raw  # includes the index bytes
    elapsed = time.perf_counter() - started
    passed = ok and elapsed < 5.0
    announce(capsys, 7, "embedding and influence files round-trip bit-exactly",
             passed, f"24 shapes, {elapsed:.1f}s")
    assert passed


def test_8_parameter_count_discrepancy_surfaced(capsys, tmp_path):
    params = init_params(0, in_dim=2048, hidden=100)
    full_count = params.parameter_count
    first_layer = params.first_layer_parameter_count
    path = tmp_path / "params.json"
    save_params(params, path)
    doc = json.loads(path.read_text())
    passed = (
        full_count == 205001
        and first_layer == 204900
        and doc["parameter_count"] == 205001
        and doc["first_layer_parameter_count"] == 204900
    )
    announce(capsys, 8, "full parameter count reported beside the first-layer-only count",
             passed, f"total {full_count}, first layer {first_layer}")
    assert passed, (full_count, first_layer)
