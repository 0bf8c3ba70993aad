import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_runs_pass_every_check(work, name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "1",
                     "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == run.MIN_RUNS + 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["probes.forwards"] == layers["probes.forwards_predicted"] + (
        layers["probes.server_failures"])
    assert layers["datasets.load_calls"] == 3
    summary = json.loads((work / name / "results.json").read_text())
    assert set(summary["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value in summary["metrics"].values())


def test_a_run_forced_to_fail_counts_in_error_rate(work, monkeypatch, capsys):
    real = run.make_config
    calls = []

    def second_run_broken(spec, seed, inputs, base_url):
        doc = real(spec, seed, inputs, base_url)
        calls.append(1)
        if len(calls) == 1 + 2:  # the setup config, then the second pipeline run
            doc["fine_tune_embeddings"] = str(work / "missing.emb")
        return doc

    monkeypatch.setattr(run, "make_config", second_run_broken)
    assert run.main(["--workload", "se_mid", "--seed", "4", "--seconds", "0.1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    summary = json.loads((work / "se_mid" / "results.json").read_text())
    assert summary["error_rate"] == pytest.approx(1 / 3)
    assert list(summary["problems"]) == ["run1"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "se_mid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
