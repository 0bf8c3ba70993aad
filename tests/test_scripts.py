"""The two scripts under scripts/, run end to end at tiny sizes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_quadrant_mse_experiment(tmp_path):
    out = tmp_path / "mse.json"
    proc = run_script("quadrant_mse_experiment.py", "--m", 40, "--n", 20, "--dim", 4,
                      "--u", 0.2, 0.5, "--epochs", 2, "--out", out)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())["results"]
    assert [r["q1_cells"] for r in results] == [8 * 4, 20 * 10]
    for result in results:
        for predictor in ("trained", "predict_zero", "random_uniform"):
            assert set(result[predictor]) == {"Q1", "Q2", "Q3", "Q4"}
            assert all(math.isfinite(v) for v in result[predictor].values())


@pytest.mark.parametrize("method", ["delift", "delift_se", "less", "selectit"])
def test_run_synthetic_pipeline(tmp_path, method):
    proc = run_script("run_synthetic_pipeline.py", "--method", method, "--m", 30, "--n", 12,
                      "--dim", 4, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["ledger_check"]["passed"] is True
    assert len(report["selection"]["indices"]) == 9
    assert f"run_id {report['run_id']}" in proc.stdout
