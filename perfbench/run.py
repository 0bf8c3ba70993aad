"""The nncift benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload se_mid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each pipeline run is `nncift pipeline` in a fresh process (child.py), so
every run has its own peak RSS. Inputs are generated from --seed before
any timing. Pipeline runs repeat for --seconds; end-to-end metrics are
medians over them. With --trace 1, one more run records spans around
calls into every nncift module (spans.py) and the per-layer metrics come
from it. Every run is checked; a run that fails a check counts in
`failed`. The last line of standard output is one JSON object. README.md
beside this file explains the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path[:0] = [str(BENCH), str(SRC)]

import generate  # noqa: E402
from mock_server import ServerProcess, token_logprobs  # noqa: E402

# Why each workload exists is in README.md; SMOKE shrinks them for the
# benchmark's tests. BENCHMARK.json lists the workloads that gate changes;
# selectit_file runs by name only, because its time spread across
# invocations on a noisy machine was too wide to gate on (README.md).
WORKLOADS = {
    "se_mid": {"method": "delift_se", "m": 1000, "n": 250, "dim": 256, "u": 0.05, "v": 0.3},
    "delift_http": {"method": "delift", "m": 400, "n": 100, "dim": 32, "u": 0.15, "v": 0.3,
                    "delay_ms": 4.0, "fail_one_in": 50},
    "selectit_file": {"method": "selectit", "m": 40000, "n": 0, "dim": 64, "u": 0.1, "v": 0.3,
                      "prompts": 2, "scales": 2},
}
SMOKE = {
    "se_mid": {"m": 60, "n": 20, "dim": 8, "u": 0.2},
    "delift_http": {"m": 30, "n": 10, "dim": 8, "u": 0.3, "delay_ms": 0.5, "fail_one_in": 5},
    "selectit_file": {"m": 300, "dim": 8, "u": 0.2},
}
HTTP_PROBE = {"provider": "http", "max_in_flight": 2, "retries": 3, "backoff": 0.005,
              "timeout": 30.0}
ARTIFACTS = ("q1.nnk", "full.nnk", "params.json", "selection.json")
MIN_RUNS = 3
SETUP_SAMPLES = 5
LIMIT_S = 150.0  # a workload's processes are stopped this long after it starts
UNACCOUNTED_LIMIT = 0.01  # share of the traced pipeline time spans may leave uncovered

# Metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def exact_ceil(fraction: float, count: int) -> int:
    return math.ceil(Fraction(str(fraction)) * count)


def predicted_forwards(spec: dict) -> int:
    """Closed-form production probe forwards, written independently of the program."""
    m, n, u = spec["m"], spec["n"], spec["u"]
    if spec["method"] == "delift":
        return exact_ceil(u, m) * exact_ceil(u, n) + exact_ceil(u, n)
    if spec["method"] == "selectit":
        return exact_ceil(u, m) * spec["prompts"] * spec["scales"]
    return 0


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "nncift").rglob("*.py")))


def make_config(spec: dict, seed: int, inputs: dict, base_url: str) -> dict:
    doc = {"method": spec["method"], "u": spec["u"], "v": spec["v"], "seed": seed,
           "evaluate_truth": spec["method"] != "delift"}
    for key in ("fine_tune_embeddings", "target_embeddings", "fine_tune_texts", "target_texts"):
        if key in inputs:
            doc[key] = inputs[key]
    if spec["method"] == "delift":
        doc["probe"] = {**HTTP_PROBE, "base_url": base_url}
    if spec["method"] == "selectit":
        doc["probe"] = {"provider": "file", "records": inputs["records_0"]}
        doc["prompts"] = [f"Rubric {p}: rate how useful this sample is.\n{{prompt}}"
                          for p in range(spec["prompts"])]
        doc["scales"] = [{"label": f"scale{s}", "parameter_count": (s + 1) * 1_000_000_000,
                          "probe": {"provider": "file", "records": inputs[f"records_{s}"]}}
                         for s in range(spec["scales"])]
    return doc


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(config: Path, run_dir: Path, deadline: float, setup_only: bool = False,
              trace: bool = False) -> dict:
    """Start child.py and wait for it, at most until `deadline` (time.monotonic());
    returns its result plus the exit code, None if it had to be stopped."""
    result_path = run_dir / ("setup.json" if setup_only else "result.json")
    argv = [sys.executable, str(BENCH / "child.py"), "--config", str(config),
            "--out", str(run_dir / "out"), "--result", str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace", str(run_dir / "trace.jsonl")]
    with open(run_dir / "child.log", "a", encoding="utf-8") as log:
        try:
            proc = subprocess.run(argv + ["--spawned", repr(time.monotonic())], cwd=ROOT,
                                  env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "problems": [f"stopped at the {LIMIT_S:g} s limit"]}
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    result["exit_code"] = proc.returncode
    return result


def run_pipeline(spec: dict, seed: int, inputs: dict, run_dir: Path, deadline: float,
                 trace: bool = False) -> dict:
    """One checked-later pipeline run in run_dir, with a fresh mock server if it probes HTTP."""
    run_dir.mkdir(parents=True)
    http = spec["method"] == "delift"
    server = ServerProcess(spec["delay_ms"], spec["fail_one_in"]) if http else nullcontext()
    with server:
        config = run_dir / "config.json"
        config.write_text(json.dumps(make_config(spec, seed, inputs,
                                                 server.base_url if http else ""), indent=1))
        run = run_child(config, run_dir, deadline, trace=trace)
    run["server"] = server.stats if http else None
    run["dir"] = str(run_dir)
    return run


def _read_json(path: Path):
    return json.loads(path.read_text())


def artifact_hashes(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS if (out / name).exists()}


class ServerReplica:
    """Answers target_logprobs as the mock server does, without the network."""

    def target_logprobs(self, context, target, ledger, key=None):
        ledger.add_forward(1)
        return token_logprobs(context, target)


def _id_sets(out: Path):
    from nncift.influence import load_influence

    q1 = load_influence(out / "q1.nnk")
    return q1.mask.any(axis=1), q1.mask.any(axis=0)


def _quadrant_mse(estimates: np.ndarray, truth: np.ndarray, id_rows, id_cols) -> dict:
    out = {}
    for name, rows, cols in (("Q2", id_rows, ~id_cols), ("Q3", ~id_rows, id_cols),
                             ("Q4", ~id_rows, ~id_cols)):
        if rows.any() and cols.any():
            diff = estimates[np.ix_(rows, cols)] - truth[np.ix_(rows, cols)]
            out[name] = float(np.mean(diff**2))
    return out


def _http_truth_mse(seed: int, inputs: dict, out: Path, id_rows, id_cols) -> dict:
    """mse.json's trained and random_uniform groups for a run without
    evaluate_truth: the truth comes from a replica of the server."""
    from nncift.datasets import DatasetPair, load_embeddings, load_texts
    from nncift.influence import compute_influence, load_influence
    from nncift.network import baseline_estimates
    from nncift.probes import CostLedger

    pair = DatasetPair(
        fine_tune=load_embeddings(inputs["fine_tune_embeddings"]),
        target=load_embeddings(inputs["target_embeddings"]),
        fine_tune_texts=load_texts(inputs["fine_tune_texts"]),
        target_texts=load_texts(inputs["target_texts"]),
    )
    cells = [(i, j) for i in range(pair.m) for j in range(pair.n)]
    truth = compute_influence("delift", cells, pair, probe=ServerReplica(),
                              ledger=CostLedger()).values.astype(np.float64)
    lo, hi = _read_json(out / "params.json")["norm_stats"]
    truth = np.full_like(truth, 0.5) if hi == lo else (truth - lo) / (hi - lo)
    estimates = load_influence(out / "full.nnk").values.astype(np.float64)
    noise = baseline_estimates("random_uniform", truth.shape, seed).values.astype(np.float64)
    return {"trained": _quadrant_mse(estimates, truth, id_rows, id_cols),
            "random_uniform": _quadrant_mse(noise, truth, id_rows, id_cols)}


def ood_mse(spec: dict, seed: int, inputs: dict, out: Path) -> tuple[float, list[str]]:
    """Trained-estimator MSE over the OOD cells, and a problem for each OOD
    group where it does not beat the random_uniform baseline."""
    if spec["method"] == "selectit":
        doc, weights = _read_json(out / "mse.json"), {"ood": 1}
    else:
        id_rows, id_cols = _id_sets(out)
        doc = (_http_truth_mse(seed, inputs, out, id_rows, id_cols) if spec["method"] == "delift"
               else _read_json(out / "mse.json"))
        a, b = int(id_rows.sum()), int(id_cols.sum())
        weights = {"Q2": a * (spec["n"] - b), "Q3": (spec["m"] - a) * b,
                   "Q4": (spec["m"] - a) * (spec["n"] - b)}
    weights = {group: w for group, w in weights.items() if w}
    trained, baseline = doc["trained"], doc["random_uniform"]
    value = sum(weights[g] * trained[g] for g in weights) / sum(weights.values())
    losing = [f"trained MSE not below random_uniform in {g}"
              for g in weights if not trained[g] < baseline[g]]
    return value, losing


def check_run(spec: dict, run: dict) -> list[str]:
    """The checks one run passes on its own; [] means it passed."""
    if run["exit_code"] != 0:
        return run.get("problems") or [f"exit code {run['exit_code']}"]
    out = Path(run["dir"]) / "out"
    report = _read_json(out / "report.json")
    problems = []
    if not report["ledger_check"]["passed"]:
        problems.append("report.json ledger_check did not pass")
    forwards = report["cost"]["measured_forwards"]
    expected = predicted_forwards(spec)
    if run["server"] is not None:
        expected += run["server"]["failures"]
        if forwards != run["server"]["requests"]:
            problems.append(f"ledger forwards {forwards} != server requests "
                            f"{run['server']['requests']}")
    if forwards != expected:
        problems.append(f"ledger forwards {forwards} != predicted {expected}")
    indices = _read_json(out / "selection.json")["indices"]
    budget = exact_ceil(spec["v"], spec["m"])
    if len(indices) != budget or len(set(indices)) != budget:
        problems.append(f"selection has {len(set(indices))} distinct of {len(indices)} "
                        f"indices, budget {budget}")
    run["forwards"] = forwards
    run["estimator_forwards"] = report["cost"]["estimator_forwards"]
    run["hashes"] = artifact_hashes(out)
    return problems


def measure(spec: dict, seed: int, seconds: float, trace: bool, work: Path, inputs: dict,
            deadline: float):
    """Setup samples, then pipeline runs for `seconds`, the traced run included if asked.
    A run stopped at the deadline ends the measurement."""
    config = work / "setup" / "config.json"
    config.parent.mkdir(parents=True)
    config.write_text(json.dumps(make_config(spec, seed, inputs, "http://127.0.0.1:1")))
    setups = [run_child(config, config.parent, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    runs, took = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        runs.append(run_pipeline(spec, seed, inputs, work / f"run{len(runs)}", deadline))
        took.append(time.monotonic() - began)
        if runs[-1]["exit_code"] is None:
            return setups, runs, None
        # Start another run while at least half of it fits, so the window
        # ends at `seconds` on average; leave room for the traced run.
        planned = statistics.median(took) * (1.5 if trace else 0.5)
        if len(runs) >= MIN_RUNS and time.monotonic() - start + planned > seconds:
            break
    traced = None
    if trace:
        traced = run_pipeline(spec, seed, inputs, work / "traced", deadline, trace=True)
    return setups, runs, traced


def layer_report(spec: dict, traced: dict, untraced_pipeline_s: float, mse: float) -> dict:
    """Per-layer metrics: the traced run's spans plus what the server and ledger saw."""
    layers = dict(traced["layers"])
    out = Path(traced["dir"]) / "out"
    ledger = _read_json(out / "ledger.json")
    evaluation = ledger.get("evaluation") or {}
    server = traced["server"] or {}
    layers.update({
        "probes.forwards": float(ledger["forward_calls"]),
        "probes.forwards_predicted": float(predicted_forwards(spec)),
        "probes.retries": float(ledger["forward_calls"] + evaluation.get("forward_calls", 0)
                                - layers["probes.calls"]),
        "probes.server_requests": float(server.get("requests", 0)),
        "probes.server_failures": float(server.get("failures", 0)),
        "probes.in_flight_max": float(server.get("in_flight_max", 0)),
        "network.train_epoch_s": layers["network.train_s"] / traced["epochs"],
        "network.ood_mse": mse,
        "selection.budget": float(_read_json(out / "selection.json")["budget"]),
        "trace.overhead_s": layers["trace.pipeline_s"] - untraced_pipeline_s,
        "src_lines": float(src_lines()),
    })
    return layers


def summarize(spec: dict, seed: int, inputs: dict, setups: list, runs: list, traced) -> dict:
    """Check every run, then reduce the runs that passed to the reported metrics."""
    attempted = runs + ([traced] if traced else [])
    for run in attempted:
        try:
            run["problems"] = check_run(spec, run)
        except (OSError, KeyError, ValueError) as exc:
            run["problems"] = [f"unreadable artifacts: {exc!r}"]
    passed = [run for run in attempted if not run["problems"]]
    reference = passed[0]["hashes"] if passed else None
    for run in passed[1:]:
        differing = [name for name in ARTIFACTS if run["hashes"].get(name) != reference.get(name)]
        if differing:
            run["problems"].append(f"artifacts differ from the first run: {', '.join(differing)}")
    mse, losing = 0.0, []
    if passed:
        try:
            mse, losing = ood_mse(spec, seed, inputs, Path(passed[0]["dir"]) / "out")
        except (OSError, KeyError, ValueError) as exc:
            losing = [f"unreadable MSE inputs: {exc!r}"]
    for run in passed:
        run["problems"] += losing
    layers = {}
    if traced is not None and not traced["problems"]:
        untraced = [run["pipeline_s"] for run in runs if not run["problems"]]
        try:
            layers = layer_report(spec, traced, statistics.median(untraced) if untraced else 0.0,
                                  mse)
        except (OSError, KeyError, ValueError) as exc:
            traced["problems"].append(f"no layer metrics: {exc!r}")
        if layers and (abs(layers["trace.unaccounted_s"])
                       > UNACCOUNTED_LIMIT * layers["trace.pipeline_s"]):
            traced["problems"].append(
                f"spans leave {layers['trace.unaccounted_s']:.4f} s of the pipeline unaccounted")
    good = [run for run in runs if not run["problems"]]
    failed = sum(1 for run in attempted if run["problems"])

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "metrics": {
            "pipeline_s": median([run["pipeline_s"] for run in good]),
            "cells_per_s": median([spec["m"] * (spec["n"] or 1) / run["pipeline_s"]
                                   for run in good]),
            "setup_s": median([run["setup_s"] for run in setups + attempted if "setup_s" in run]),
            "peak_rss_mb": median([run["peak_rss_mb"] for run in good]),
        },
        "layers": layers,
        "samples": {"pipeline": len(good),
                    "setup": sum("setup_s" in run for run in setups + attempted)},
        "ranges": {key: [min(run[key] for run in good), max(run[key] for run in good)]
                   for key in ("pipeline_s", "peak_rss_mb")} if good else {},
        "attempted": len(attempted),
        "failed": failed,
        "error_rate": failed / len(attempted),
        "checked": {
            "probe_forwards": good[0]["forwards"] if good else None,
            "probe_forwards_predicted": predicted_forwards(spec),
            "server_failures": good[0]["server"]["failures"] if good and good[0]["server"] else 0,
            "estimator_mse": mse,
            "estimator_forwards": good[0]["estimator_forwards"] if good else None,
            "src_lines": src_lines(),
        },
        "artifact_hashes": reference,
        "problems": {Path(run["dir"]).name: run["problems"]
                     for run in attempted if run["problems"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    deadline = time.monotonic() + LIMIT_S
    spec = {**WORKLOADS[name], **(SMOKE[name] if smoke else {})}
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = generate.generate(spec, seed, work / "inputs")
    setups, runs, traced = measure(spec, seed, seconds, trace, work, inputs, deadline)
    summary = summarize(spec, seed, inputs, setups, runs, traced)
    summary.update(workload=name, seed=seed, spec=spec, trace=trace,
                   inputs={key: {"path": os.path.relpath(path, ROOT),
                                 "sha256": generate.sha256_file(Path(path))}
                           for key, path in inputs.items()})
    (work / "results.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return summary


def print_summary(summary: dict) -> None:
    checked = summary["checked"]
    print(f"workload {summary['workload']} seed {summary['seed']}: {summary['attempted']} runs, "
          f"{summary['failed']} failed")
    for key, unit in END_TO_END_UNITS.items():
        kind = "setup" if key == "setup_s" else "pipeline"
        line = f"  {key:<16} {summary['metrics'][key]:>12.6g} {unit:<8} median of "
        line += f"{summary['samples'][kind]}"
        if key in summary["ranges"]:
            low, high = summary["ranges"][key]
            line += f", range {low:.6g}..{high:.6g}"
        print(line)
    print(f"  {'error_rate':<16} {summary['error_rate']:>12.6g} {'share':<8} failed / attempted")
    print(f"  {'probe_forwards':<16} {str(checked['probe_forwards']):>12} {'count':<8} checked "
          f"equal to {checked['probe_forwards_predicted']} predicted + "
          f"{checked['server_failures']} answered 503")
    print(f"  {'estimator_mse':<16} {checked['estimator_mse']:>12.6g} {'nmse':<8} OOD cells, "
          f"checked below random_uniform")
    print(f"  counts: src_lines {checked['src_lines']}, "
          f"estimator_forwards {checked['estimator_forwards']}")
    for key, value in summary["layers"].items():
        print(f"  {key:<28} {value:>14.6g} {PER_LAYER_UNITS[key]}")
    for run, problems in summary["problems"].items():
        print(f"  FAILED {run}: {'; '.join(problems)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "nncift" / "cli.py").is_file():
        print(f"error: no nncift sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = ([w["name"] for w in DECLARED["workloads"]] if args.workload == "all"
             else [args.workload])
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_summary(summary)
        values = summary["layers"] if args.trace else summary["metrics"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: {"value": values[key] if values else 0.0, "unit": unit}
                        for key, unit in units.items()})
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
