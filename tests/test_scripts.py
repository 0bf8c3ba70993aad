"""The scripts under scripts/, run end to end at tiny sizes, and the
README commands that name them."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nncift.influence import load_influence

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def readme_scripts():
    """The script each `python3 scripts/<name>.py` line of README's Scripts block runs."""
    section = (ROOT / "README.md").read_text().split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    return re.findall(r"^python3 scripts/(\S+\.py)", block, flags=re.MULTILINE)


def test_readme_scripts_exist_and_take_help():
    names = readme_scripts()
    assert names
    for name in names:
        assert (ROOT / "scripts" / name).is_file(), name
        proc = run_script(name, "--help")
        assert proc.returncode == 0, proc.stderr


def test_run_synthetic_pipeline_sweep(tmp_path):
    proc = run_script("run_synthetic_pipeline.py", "--method", "delift_se", "--m", 40, "--n", 20,
                      "--dim", 4, "--u", 0.2, 0.5, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    cells = json.loads((tmp_path / "run" / "sweep.json").read_text())["cells"]
    assert [cell["u"] for cell in cells] == [0.2, 0.5]
    # the corner each u pays for: ceil(u * 40) x ceil(u * 20)
    assert [load_influence(Path(cell["out_dir"]) / "q1.nnk").valid_count()
            for cell in cells] == [8 * 4, 20 * 10]
    for cell in cells:
        mse = cell["quadrant_mse"]
        for predictor in ("trained", "random_uniform", "predict_zero", "corner_mean"):
            assert set(mse[predictor]) == {"Q1", "Q2", "Q3", "Q4"}
            assert all(math.isfinite(v) for v in mse[predictor].values())
        assert cell["measured_forwards"] == 0
        assert cell["train_ms"] > 0
        assert f"u {cell['u']} v 0.3: forwards 0 " in proc.stdout


@pytest.mark.parametrize("method", ["delift", "delift_se", "less", "selectit"])
def test_run_synthetic_pipeline(tmp_path, method):
    proc = run_script("run_synthetic_pipeline.py", "--method", method, "--m", 30, "--n", 12,
                      "--dim", 4, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["ledger_check"]["passed"] is True
    assert len(report["selection"]["indices"]) == 9
    assert f"run_id {report['run_id']}" in proc.stdout
