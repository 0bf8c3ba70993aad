import json
import math

import numpy as np
import pytest

from nncift.datasets import DatasetPair, EmbeddingMatrix, partition
from nncift.influence import ScaleEntry, compute_influence, compute_pointwise
from nncift.probes import CostLedger, SyntheticProvider
from nncift.reporting import build_cost_report, emit_report, predicted_counts, verify_ledger


class TestPredictedCounts:
    def test_delift_full(self):
        assert predicted_counts("delift", 100, 50) == (5050, 0)

    def test_delift_id_corner(self):
        assert predicted_counts("delift", 100, 50, u=0.1) == (55, 0)

    def test_delift_u_one_is_not_full(self):
        # u=1 prices the same cells as the full valuation
        assert predicted_counts("delift", 10, 10, u=1.0) == predicted_counts("delift", 10, 10)

    def test_delift_se_free(self):
        assert predicted_counts("delift_se", 100, 50) == (0, 0)
        assert predicted_counts("delift_se", 100, 50, u=0.05) == (0, 0)

    def test_less_backwards(self):
        assert predicted_counts("less", 100, 50) == (0, 150)

    def test_selectit_full(self):
        assert predicted_counts("selectit", 100, 0, prompts=3, scales=2) == (600, 0)

    def test_selectit_id_corner(self):
        assert predicted_counts("selectit", 100, 0, u=0.05, prompts=3, scales=2) == (30, 0)

    def test_selectit_missing_extras(self):
        with pytest.raises(ValueError):
            predicted_counts("selectit", 100, 0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            predicted_counts("shapley", 10, 10)


def savings_ratio(method, m, n, u, prompts=None, scales=None):
    """The cost block's savings_ratio when the ledger spent exactly the prediction."""
    forwards, _ = predicted_counts(method, m, n, u, prompts, scales)
    cost = build_cost_report(method, m, n, u, {"forward_calls": forwards},
                             prompts=prompts, scales=scales)
    return cost["savings_ratio"]


class TestSavingsRatio:
    def test_delift_u_005(self):
        s = savings_ratio("delift", 100, 100, 0.05)
        assert s == 1.0 - 30 / 10100
        assert s >= 0.99

    def test_monotone_decreasing_in_u(self):
        values = [savings_ratio("delift", 200, 150, u) for u in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_cost_methods(self):
        assert savings_ratio("delift_se", 100, 100, 0.05) == 0.0
        assert savings_ratio("less", 100, 100, 0.05) == 0.0

    def test_selectit(self):
        s = savings_ratio("selectit", 100, 0, 0.05, prompts=3, scales=2)
        assert s == 1.0 - 30 / 600

    def test_in_unit_interval(self):
        for u in (0.01, 0.3, 0.7, 1.0):
            assert 0.0 <= savings_ratio("delift", 40, 30, u) <= 1.0


def text_pair(m, n, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetPair(
        fine_tune=EmbeddingMatrix(rows=rng.standard_normal((m, dim)).astype(np.float32)),
        target=EmbeddingMatrix(rows=rng.standard_normal((n, dim)).astype(np.float32)),
        fine_tune_texts={i: (f"q{i}", f"answer {i}") for i in range(m)},
        target_texts={j: (f"tq{j}", f"target answer {j}") for j in range(n)},
    )


class TestVerifyLedger:
    def run_delift(self, m, n, u):
        pair = text_pair(m, n)
        part = partition(pair, u, seed=0)
        ledger = CostLedger()
        compute_influence("delift", part.id_f, part.id_t, pair,
                          SyntheticProvider(seed=0), ledger)
        return build_cost_report("delift", m, n, u, ledger.as_dict())

    def test_delift_measured_matches(self):
        report = self.run_delift(100, 50, 0.1)
        assert report["measured_forwards"] == 55
        check = verify_ledger(report)
        assert check["passed"]
        assert check["diff"]["forward_calls"]["delta"] == 0

    def test_stray_call_fails_with_diff(self):
        pair = text_pair(10, 5)
        part = partition(pair, 0.3, seed=0)
        ledger = CostLedger()
        compute_influence("delift", part.id_f, part.id_t, pair,
                          SyntheticProvider(seed=0), ledger)
        ledger.add_forward()  # stray
        report = build_cost_report("delift", 10, 5, 0.3, ledger.as_dict())
        check = verify_ledger(report)
        assert not check["passed"]
        assert check["diff"]["forward_calls"]["delta"] == 1

    def test_less_run(self):
        ledger = CostLedger()
        ledger.add_backward(100 + 50)
        report = build_cost_report("less", 100, 50, 0.05, ledger.as_dict())
        check = verify_ledger(report)
        assert check["passed"]
        assert report["measured_forwards"] == 0
        assert report["measured_backwards"] == 150

    def test_selectit_run(self):
        pair = text_pair(20, 1)
        part = partition(pair, 0.2, seed=1)
        scales = (
            ScaleEntry("a", 100, SyntheticProvider(seed=1)),
            ScaleEntry("b", 300, SyntheticProvider(seed=2)),
        )
        ledger = CostLedger()
        compute_pointwise("selectit", part.id_f, ["p1 {prompt}", "p2 {prompt}", "p3 {prompt}"],
                          scales, pair, ledger)
        report = build_cost_report("selectit", 20, 0, 0.2, ledger.as_dict(),
                                   prompts=3, scales=2)
        assert verify_ledger(report)["passed"]

    def test_twenty_case_grid(self):
        cases = []
        for m, n in ((6, 4), (9, 9), (12, 3), (5, 10), (7, 7)):
            for u in (0.2, 0.5):
                cases.append(("delift", m, n, u))
        for m, n, u in ((8, 4, 0.25), (10, 10, 0.1), (6, 6, 1.0)):
            cases.append(("less", m, n, u))
        for m, u in ((10, 0.3), (15, 0.2)):
            cases.append(("selectit", m, 1, u))
        for m, n, u in ((5, 5, 0.2), (8, 3, 0.5), (4, 9, 0.25),
                        (6, 6, 0.4), (10, 2, 0.1)):
            cases.append(("delift_se", m, n, u))
        assert len(cases) == 20
        for method, m, n, u in cases:
            pair = text_pair(m, n)
            part = partition(pair, u, seed=3)
            ledger = CostLedger()
            prompts = scales = None
            if method == "delift":
                compute_influence("delift", part.id_f, part.id_t, pair,
                                  SyntheticProvider(seed=0), ledger)
            elif method == "less":
                ledger.add_backward(m + n)
            elif method == "selectit":
                spec = (ScaleEntry("a", 7, SyntheticProvider(seed=5)),
                        ScaleEntry("b", 13, SyntheticProvider(seed=6)))
                compute_pointwise("selectit", part.id_f, ["p {prompt}", "q {prompt}"],
                                  spec, pair, ledger)
                prompts, scales = 2, 2
            report = build_cost_report(method, m, n, u, ledger.as_dict(),
                                       prompts=prompts, scales=scales)
            assert verify_ledger(report)["passed"], (method, m, n, u)

    def test_failed_forwards_explain_overshoot(self):
        ledger = CostLedger()
        ledger.add_forward(57)  # 55 predicted + 2 retried attempts
        report = build_cost_report("delift", 100, 50, 0.1, ledger.as_dict())
        assert not verify_ledger(report)["passed"]  # the overshoot is unexplained
        ledger.add_failed_forward(2)
        report = build_cost_report("delift", 100, 50, 0.1, ledger.as_dict())
        check = verify_ledger(report)
        assert check["passed"]
        assert check["diff"]["forward_calls"] == {"predicted": 55, "measured": 57, "failed": 2,
                                                  "delta": 0}

    def test_undershoot_rejected_with_failed_forwards(self):
        ledger = CostLedger()
        ledger.add_forward(54)
        report = build_cost_report("delift", 100, 50, 0.1, ledger.as_dict())
        assert not verify_ledger(report)["passed"]
        ledger.add_forward(2)
        ledger.add_failed_forward(2)  # 56 attempts, 54 answered
        report = build_cost_report("delift", 100, 50, 0.1, ledger.as_dict())
        check = verify_ledger(report)
        assert not check["passed"]
        assert check["diff"]["forward_calls"]["delta"] == -1


def sample_doc(config_hash, dataset, mse=None):
    """A report document shaped the way the pipeline builds one."""
    ledger = CostLedger()
    ledger.add_forward(30)
    ledger.add_estimator_forwards(9970)
    cost = build_cost_report("delift", 100, 100, 0.05, ledger.as_dict())
    selection = {
        "selector": "facility_location",
        "budget": 30,
        "v": 0.3,
        "indices": [3, 1, 4],
        "objective_values": [5.0, 9.0, 12.0],
    }
    return {
        "run_id": config_hash[:12],
        "config_hash": config_hash,
        "method": "delift",
        "dataset": dataset,
        "quadrant_mse": mse,
        "cost": cost,
        "ledger_check": verify_ledger(cost),
        "selection": selection,
        "evaluation": None,
        "metadata": {},
    }


def sample_mse():
    return {
        "trained": {"Q1": 0.01, "Q2": 0.02, "Q3": 0.02, "Q4": 0.03},
        "random_uniform": {"Q1": 0.08, "Q2": 0.09, "Q3": 0.09, "Q4": 0.1},
        "predict_zero": {"Q1": 0.26, "Q2": 0.25, "Q3": 0.27, "Q4": 0.25},
    }


class TestEmitReport:
    def test_writes_json_and_text(self, tmp_path):
        path = emit_report(tmp_path, sample_doc("a" * 64, {"m": 100, "n": 100, "u": 0.05, "v": 0.3},
                                                sample_mse()))
        doc = json.loads(path.read_text())
        assert doc["run_id"] == "a" * 12
        assert doc["cost"]["savings_ratio"] >= 0.99
        assert set(doc["quadrant_mse"]["trained"]) == {"Q1", "Q2", "Q3", "Q4"}
        text = (tmp_path / "report.txt").read_text()
        assert "savings" in text
        assert "Q4" in text

    def test_nan_serialized_as_null(self, tmp_path):
        mse = sample_mse()
        mse["trained"]["Q4"] = math.nan
        path = emit_report(tmp_path, sample_doc("c" * 64, {"m": 1, "n": 1, "u": 1.0, "v": 0.5}, mse))
        doc = json.loads(path.read_text())
        assert doc["quadrant_mse"]["trained"]["Q4"] is None

    def test_deterministic_given_identical_artifacts(self, tmp_path):
        doc = sample_doc("d" * 64, {"m": 100, "n": 100, "u": 0.05, "v": 0.3}, sample_mse())
        a = emit_report(tmp_path / "a", doc)
        b = emit_report(tmp_path / "b", doc)
        assert a.read_bytes() == b.read_bytes()

    def test_no_mse_section(self, tmp_path):
        path = emit_report(tmp_path, sample_doc("e" * 64, {"m": 100, "n": 100, "u": 0.05, "v": 0.3}))
        doc = json.loads(path.read_text())
        assert doc["quadrant_mse"] is None
        assert "not evaluated" in (tmp_path / "report.txt").read_text()

    def test_weighted_costs(self, tmp_path):
        ledger = CostLedger()
        ledger.add_forward(30)
        cost = build_cost_report("delift", 100, 100, 0.05, ledger.as_dict(),
                                 per_call_cost={"forward": 2.0, "backward": 3.0})
        assert cost["weighted"]["measured"] == 60.0
        assert cost["weighted"]["full_valuation"] == 2.0 * 10100
