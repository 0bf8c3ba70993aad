"""Config-driven pipeline runner.

Three individually runnable steps share one run directory and one flat
JSON config:

1. ``valuate``        probe the ID corner, write q1.nnk + ledger.json
2. ``train-estimate`` fit the estimator on that corner and estimate the
                      rest, write params.json + full.nnk (+ mse.json
                      when full ground truth is evaluated)
3. ``select``         pick the fine-tuning subset, write selection.json

``pipeline`` composes the three and emits report.json / report.txt with
a ledger verification verdict; given u_sweep/v_sweep lists it runs one
pipeline per (u, v) cell in a subdirectory each.

Exit codes: 0 success, 2 config error, 3 training error, 4 selection
error, 5 probe error. Anything unmapped exits 1.

Artifacts q1.nnk, full.nnk, params.json, and selection.json are byte
deterministic for a fixed config and seed; ledger.json and the reports
carry wall-clock times and are not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .datasets import (
    DatasetPair,
    EmbeddingMatrix,
    QuadrantPartition,
    exact_ceil,
    exact_decimal,
    is_number,
    load_embeddings,
    load_texts,
    partition,
    read_json,
)
from .errors import (
    ConfigError,
    DataValidationError,
    FileFormatError,
    NnciftError,
    ProbeError,
    RecordNotFoundError,
    SelectionError,
    TrainingError,
)
from .influence import (
    PAIRWISE_METHODS,
    POINTWISE_METHODS,
    InfluenceMatrix,
    ScaleEntry,
    compute_influence,
    compute_pointwise,
    load_influence,
    save_influence,
    save_influence_rows,
)
from .network import (
    PREDICTORS,
    QUADRANTS,
    QuadrantErrors,
    TrainConfig,
    check_fits,
    estimate_pairwise,
    estimate_pointwise,
    estimate_row_blocks,
    project_columns,
    save_params,
    train,
    uniform_rows,
)
from .probes import CostLedger, Provider, build_provider, check_probe_spec
from .reporting import REPORT_JSON, REPORT_TEXT, build_cost_report, emit_report, verify_ledger
from .selection import SELECTORS, select

Q1_FILE = "q1.nnk"
FULL_FILE = "full.nnk"
PARAMS_FILE = "params.json"
MSE_FILE = "mse.json"
SELECTION_FILE = "selection.json"
LEDGER_FILE = "ledger.json"
SWEEP_FILE = "sweep.json"

_TRAIN_KEYS = frozenset(f.name for f in fields(TrainConfig)) - {"seed"}
_SCALE_KEYS = frozenset({"label", "parameter_count", "probe"})
_DEFAULT_PROMPTS = ["Rate the quality of the following instruction sample.\n{prompt}"]
_PATH_KEYS = ("fine_tune_embeddings", "target_embeddings", "fine_tune_gradients",
              "target_gradients", "fine_tune_texts", "target_texts", "out_dir")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: defaults filled, overrides applied.

    The fields are the config document's keys, declared here only.
    ``resolved`` is the JSON-native echo of every field; its canonical
    serialization (minus out_dir, which is where the run lands, not
    what it is) hashes to the run's identity.
    """

    method: str
    u: float | int | str
    v: float | int | str
    seed: int
    fine_tune_embeddings: str
    target_embeddings: str | None
    fine_tune_gradients: str | None
    target_gradients: str | None
    fine_tune_texts: str | None
    target_texts: str | None
    probe: dict
    train: dict
    prompts: list[str]
    scales: list[dict]
    pure_estimates: bool
    evaluate_truth: bool
    per_call_cost: dict | None
    u_sweep: list | None
    v_sweep: list | None
    out_dir: Path

    @property
    def resolved(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["out_dir"] = str(self.out_dir)
        return doc

    @property
    def config_hash(self) -> str:
        material = {k: v for k, v in self.resolved.items() if k != "out_dir"}
        canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def run_id(self) -> str:
        return self.config_hash[:12]

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.train)

    # What the steps share, built on first use: `pipeline` hands one
    # RunConfig to every step, so a run loads, splits and builds once.
    @cached_property
    def pair(self) -> DatasetPair:
        return _load_inputs(self)

    @cached_property
    def part(self) -> QuadrantPartition:
        """The run's ID/OOD split. A pointwise run is the M x 1 case: its one
        score column sits on the ID side, so Q1 is the ID rows, Q3 the OOD
        rows, and Q2 and Q4 are empty."""
        part = partition(self.pair, self.u, self.seed)
        if self.method in POINTWISE_METHODS:
            part = replace(part, id_t=np.array([0]), ood_t=np.array([], dtype=np.int64))
        return part

    @cached_property
    def provider(self) -> Provider:
        return build_provider(self.probe)

    @cached_property
    def scale_spec(self) -> tuple[ScaleEntry, ...]:
        return tuple(
            ScaleEntry(label=str(scale["label"]), parameter_count=int(scale["parameter_count"]),
                       probe=build_provider(spec))
            for scale, spec in zip(self.scales, _scale_probes(self.probe, self.scales))
        )


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


def _check_fraction(name: str, value) -> None:
    try:
        parsed = exact_decimal(value)
    except ValueError as exc:
        raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}") from exc
    if not 0 <= parsed <= 1:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")


def _mapping(name: str, value):
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    return value


def _default_scales(seed: int) -> list[dict]:
    # two synthetic valuation-model sizes; the seeds keep them distinct
    return [
        {"label": "1b", "parameter_count": 1_000_000_000,
         "probe": {"provider": "synthetic", "seed": seed + 1}},
        {"label": "3b", "parameter_count": 3_000_000_000,
         "probe": {"provider": "synthetic", "seed": seed + 2}},
    ]


def _scale_probes(probe: dict, scales: list[dict]) -> list[dict]:
    """Each scale's probe spec: its own keys merged over the run's probe."""
    return [{**probe, **(scale.get("probe") or {})} for scale in scales]


def _probe_kinds(cfg: dict) -> set[str]:
    """The provider kinds a run probes with: delift's probe, or each selectit
    scale's merged probe; delift_se and less never probe."""
    if cfg["method"] == "delift":
        return {cfg["probe"]["provider"]}
    if cfg["method"] in POINTWISE_METHODS:
        return {spec["provider"] for spec in _scale_probes(cfg["probe"], cfg["scales"])}
    return set()


def read_config_file(path: str | Path) -> dict:
    path = Path(path)
    try:
        doc = read_json(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def resolve_config(doc: dict, out_override: str | Path | None = None) -> RunConfig:
    """Validate a flat config document and fill every default.

    Pure: touches no files, so an invalid method fails before any work.
    """
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    # absent fields read as None until a check below fills their default
    cfg = {key: doc.get(key) for key in _CONFIG_KEYS}

    method = cfg["method"]
    known = PAIRWISE_METHODS + POINTWISE_METHODS
    if method not in known:
        raise ConfigError(f"method must be one of {', '.join(known)}, got {method!r}")

    cfg["u"] = doc.get("u", 0.05)
    cfg["v"] = doc.get("v", 0.3)
    _check_fraction("u", cfg["u"])
    _check_fraction("v", cfg["v"])

    seed = cfg["seed"] = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    for key in _PATH_KEYS:
        if not isinstance(cfg[key], (str, type(None))):
            raise ConfigError(f"{key} must be a path string, got {cfg[key]!r}")

    if not cfg["fine_tune_embeddings"]:
        raise ConfigError("fine_tune_embeddings path is required")
    if method in PAIRWISE_METHODS and not cfg["target_embeddings"]:
        raise ConfigError(f"{method} needs target_embeddings")

    if method == "less" and not (cfg["fine_tune_gradients"] and cfg["target_gradients"]):
        raise ConfigError("less needs fine_tune_gradients and target_gradients")

    probe = cfg["probe"] = dict(_mapping("probe", doc.get("probe")) or {"provider": "synthetic"})
    check_probe_spec(probe)
    kind = probe["provider"]
    if kind == "synthetic":
        probe.setdefault("seed", seed)

    cfg["train"] = dict(_mapping("train", doc.get("train")) or {})
    bad = sorted(set(cfg["train"]) - _TRAIN_KEYS)
    if bad:
        raise ConfigError(f"unknown train fields: {', '.join(bad)}")

    prompts = _DEFAULT_PROMPTS if cfg["prompts"] is None else cfg["prompts"]
    if not (isinstance(prompts, list) and prompts and all(isinstance(p, str) and p for p in prompts)):
        raise ConfigError(f"prompts must be a non-empty list of non-empty strings, got {prompts!r}")
    cfg["prompts"] = list(prompts)

    scales = doc.get("scales")
    if scales is None:
        if method in POINTWISE_METHODS and kind != "synthetic":
            raise ConfigError("selectit with a non-synthetic provider needs explicit scales")
        scales = _default_scales(seed)
    if not isinstance(scales, list) or not scales:
        raise ConfigError("scales must be a non-empty list")
    scales = cfg["scales"] = [dict(s) if isinstance(s, dict) else s for s in scales]
    for entry in scales:
        if not isinstance(entry, dict):
            raise ConfigError("each scale must be a mapping")
        bad = sorted(set(entry) - _SCALE_KEYS)
        if bad:
            raise ConfigError(f"unknown scale fields: {', '.join(bad)}")
        if "label" not in entry or "parameter_count" not in entry:
            raise ConfigError("each scale needs a label and a parameter_count")
        _mapping("scale probe", entry.get("probe"))
        count = entry["parameter_count"]
        if not (isinstance(count, int) and is_number(count) and count >= 1):
            raise ConfigError("scale parameter_count must be a positive integer")
    if not is_number(sum(entry["parameter_count"] for entry in scales)):  # selectit divides by it
        raise ConfigError("scales[].parameter_count values must sum to at most the largest float")
    # every spec, used by the method or not: a misspelt option fails the run
    for spec in _scale_probes(probe, scales):
        check_probe_spec(spec)

    kinds = _probe_kinds(cfg)
    if kinds - {"synthetic"}:
        # only the synthetic provider can score generated placeholder text
        if method == "delift" and not (cfg["fine_tune_texts"] and cfg["target_texts"]):
            raise ConfigError("delift with a non-synthetic provider needs text records on both sides")
        if method == "selectit" and not cfg["fine_tune_texts"]:
            raise ConfigError("selectit with a non-synthetic provider needs fine_tune_texts")

    cfg["pure_estimates"] = doc.get("pure_estimates", False)
    if not isinstance(cfg["pure_estimates"], bool):
        raise ConfigError("pure_estimates must be a boolean")
    if cfg["evaluate_truth"] is None:
        # the truth pass over an http provider pays for every cell
        cfg["evaluate_truth"] = "http" not in kinds
    if not isinstance(cfg["evaluate_truth"], bool):
        raise ConfigError("evaluate_truth must be a boolean")

    for key, unit in (_mapping("per_call_cost", cfg["per_call_cost"]) or {}).items():
        if key not in ("forward", "backward"):
            raise ConfigError(f"unknown per_call_cost field {key!r}; expected forward or backward")
        if not (is_number(unit) and unit >= 0):
            raise ConfigError(f"per_call_cost {key} must be a finite number >= 0, got {unit!r}")

    for name in ("u_sweep", "v_sweep"):
        sweep = cfg[name]
        if sweep is None:
            continue
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError(f"{name} must be a non-empty list")
        for value in sweep:
            _check_fraction(name, value)
        # 0.2 and "0.20" name one cell: it would run twice, or into one directory twice
        if len({exact_decimal(value) for value in sweep}) < len(sweep):
            raise ConfigError(f"{name} repeats a value: {sweep!r}")

    cfg["out_dir"] = Path(out_override or doc.get("out_dir") or "nncift-run")
    config = RunConfig(**cfg)
    try:
        config.train_config()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc
    return config


def _generated_texts(count: int, side: str) -> dict[int, tuple[str, str]]:
    return {
        i: (f"{side} prompt {i}", f"placeholder {side} response {i}")
        for i in range(count)
    }


def _read_input(config: RunConfig, key: str, loader):
    path = getattr(config, key)
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read {path}: {exc.strerror}") from exc


def _load_inputs(config: RunConfig) -> DatasetPair:
    fine = _read_input(config, "fine_tune_embeddings", load_embeddings)
    if config.target_embeddings:
        target = _read_input(config, "target_embeddings", load_embeddings)
    else:
        target = EmbeddingMatrix(np.zeros((0, fine.dim), dtype=np.float32))
    kwargs = {}
    if config.method == "less":
        kwargs["fine_tune_gradients"] = _read_input(config, "fine_tune_gradients", load_embeddings)
        kwargs["target_gradients"] = _read_input(config, "target_gradients", load_embeddings)
    sides = {"delift": ("fine_tune", "target"), "selectit": ("fine_tune",)}.get(config.method, ())
    for side, count in zip(sides, (fine.count, target.count)):
        key = f"{side}_texts"
        kwargs[key] = texts = (_read_input(config, key, load_texts) if getattr(config, key)
                               else _generated_texts(count, side))
        # every row may be probed: a missing text must not surface mid-run
        missing = next((i for i in range(count) if i not in texts), None)
        if missing is not None:
            raise FileFormatError(f"{getattr(config, key)}: no record for {side} idx {missing} "
                                  f"of its {count} rows")
    try:
        return DatasetPair(fine_tune=fine, target=target, **kwargs)
    except ValueError as exc:  # the matrices' shapes do not match across files
        keys = ["fine_tune_embeddings", "target_embeddings", *(k for k in kwargs if k.endswith("_gradients"))]
        files = ", ".join(str(getattr(config, key)) for key in keys if getattr(config, key))
        raise DataValidationError(f"{files}: {exc}") from exc


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_ledger(out: Path, config: RunConfig, ledger: CostLedger, evaluation: dict | None = None,
                  training: dict | None = None) -> None:
    doc = {"config_hash": config.config_hash, **ledger.as_dict(), "evaluation": evaluation,
           "training": training}
    _write_json(out / LEDGER_FILE, doc)


def _run_file(path: Path, step: str = "the earlier pipeline step") -> Path:
    """`path`, which `step` writes; ConfigError if it does not exist."""
    if not path.exists():
        raise ConfigError(f"{path} not found; run {step} first")
    return path


def _load_ledger(out: Path, config: RunConfig) -> tuple[dict, CostLedger]:
    """ledger.json's document and the ledger it holds, which `config`'s run must have written."""
    path = out / LEDGER_FILE
    doc = read_json(_run_file(path))
    try:
        ledger = CostLedger.from_dict(doc)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if doc.get("config_hash") != config.config_hash:
        raise ConfigError(f"{path} was produced by a different config; rerun valuate")
    return doc, ledger


def _valuate(
    config: RunConfig, rows: np.ndarray, cols: np.ndarray, ledger: CostLedger
) -> InfluenceMatrix:
    """Ground truth on the rows x cols block (pointwise: on the rows)."""
    if config.method in POINTWISE_METHODS:
        return compute_pointwise(config.method, rows, config.prompts, config.scale_spec,
                                 config.pair, ledger).to_matrix()
    provider = config.provider if config.method == "delift" else None
    return compute_influence(config.method, rows, cols, config.pair, probe=provider, ledger=ledger)


def _run_dir(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the run directory: {exc.strerror}") from exc
    return out


def cmd_valuate(config: RunConfig) -> Path:
    """Step 1: ground-truth influence on the ID corner only. What later
    steps wrote for an earlier run goes first, so none of them reads it."""
    out = _run_dir(config.out_dir)
    for name in (PARAMS_FILE, FULL_FILE, MSE_FILE, SELECTION_FILE, REPORT_JSON, REPORT_TEXT):
        (out / name).unlink(missing_ok=True)
    part = config.part
    # a network that cannot fit is refused here, before the corner is paid for
    width = config.pair.fine_tune.dim * (1 if config.method in POINTWISE_METHODS else 2)
    check_fits(width, config.train_config())
    ledger = CostLedger()
    with ledger.time_phase("valuate"):
        matrix = _valuate(config, part.id_f, part.id_t, ledger)
        if config.method == "less":
            # the features' upstream cost, charged once on ingestion
            ledger.add_backward(config.pair.m + config.pair.n)
    save_influence(matrix, out / Q1_FILE)
    _write_ledger(out, config, ledger)
    print(f"wrote {out / Q1_FILE} ({matrix.valid_count()} valid cells)")
    return out


def cmd_train_estimate(config: RunConfig) -> Path:
    """Step 2: fit on the corner, estimate every cell once, merge.

    Pairwise and pointwise runs take the same path; a pointwise run is
    the M x 1 case (see RunConfig.part). full.nnk holds the network's
    normalised space for pairwise runs and raw scores for pointwise ones;
    the corner's paid-for truth overwrites its estimates unless
    pure_estimates is set. The truth evaluation reuses the same
    estimates, so its ledger meters the truth pass alone.

    After training the step holds one float32 M x N matrix, the truth
    (none without evaluate_truth), and otherwise one row block's scratch:
    the estimates are made a row block at a time, scored against that
    block of the truth, which is normalised in place there, and appended
    to full.nnk.
    """
    out = _run_dir(config.out_dir)
    pair, part = config.pair, config.part
    q1_path = _run_file(out / Q1_FILE, "valuate")
    q1 = load_influence(q1_path)
    _, ledger = _load_ledger(out, config)
    if (q1.m, q1.n) != (part.m, part.n) or not (
            np.array_equal(q1.rows, part.id_f) and np.array_equal(q1.cols, part.id_t)):
        raise ConfigError(f"{q1_path} ({q1.m}x{q1.n}) is not the ID corner of this "
                          f"{part.m}x{part.n} run; stale artifact?")
    # a rerun replaces what this step wrote: its counter, its phases and any
    # earlier run's scores, which must not reach this run's report
    ledger.estimator_forwards = 0
    ledger.wall_ms.pop("train", None)
    ledger.wall_ms.pop("estimate", None)
    (out / MSE_FILE).unlink(missing_ok=True)

    pointwise = config.method in POINTWISE_METHODS
    right = np.zeros((1, 0)) if pointwise else pair.target.rows[part.id_t]
    train_config = config.train_config()
    with ledger.time_phase("train"):
        result = train(pair.fine_tune.rows[part.id_f], right, q1.block, train_config)
    save_params(result.params, out / PARAMS_FILE, result.norm, seed=config.seed,
                optimizer=train_config.optimizer_metadata())
    norm = result.norm

    def normalized(values: np.ndarray) -> np.ndarray:
        return norm.normalize(values).astype(np.float32)

    rows, cols = np.arange(part.m), np.arange(part.n)
    errors = truth = None
    if config.evaluate_truth:
        eval_ledger = CostLedger()
        with eval_ledger.time_phase("evaluate"):
            truth = _valuate(config, rows, cols, eval_ledger).block
        noise = np.random.Generator(np.random.PCG64(config.seed))
        corner_mean = float(np.mean(norm.normalize(q1.block)))
        errors = QuadrantErrors(part, PREDICTORS)
    # ground truth was already paid for; keep it on Q1, in full.nnk's space
    overlay = None if config.pure_estimates else (q1.block if pointwise else normalized(q1.block))
    columns = None if pointwise else project_columns(result.params, pair, part.m, cols)

    def estimated_blocks():
        # one network pass over every cell, the corner included, feeds both
        # full.nnk and the truth evaluation; each block's chunks are those
        # of a whole-matrix call, so its estimates are too
        for block in estimate_row_blocks(part.m, part.n):
            with ledger.time_phase("estimate"):
                if pointwise:
                    estimates = estimate_pointwise(result.params, pair.fine_tune, rows[block],
                                                   norm, ledger).to_matrix().block
                else:
                    estimates = estimate_pairwise(result.params, pair, rows[block], cols,
                                                  ledger, columns).block
            if errors is not None:
                with eval_ledger.time_phase("evaluate"):
                    # normalised in place: a copy would add a block to the step's peak.
                    # The noise is drawn in the stream order of one (m, n) draw;
                    # the constant predictors are scored without a matrix
                    truth[block] = norm.normalize(truth[block])
                    errors.add(block, truth[block], {
                        "trained": normalized(estimates) if pointwise else estimates,
                        "random_uniform": uniform_rows(noise, *estimates.shape),
                        "predict_zero": 0.0,
                        "corner_mean": corner_mean,
                    })
            if overlay is not None:
                on_id = (part.id_f >= block.start) & (part.id_f < block.stop)
                estimates[np.ix_(part.id_f[on_id] - block.start, part.id_t)] = overlay[on_id]
            yield estimates

    save_influence_rows(out / FULL_FILE, part.m, part.n, rows, cols, estimated_blocks())

    evaluation = None
    if errors is not None:
        evaluation = eval_ledger.as_dict()
        # pointwise groups keep their id/ood names
        labels = {"id": "Q1", "ood": "Q3"} if pointwise else {q: q for q in QUADRANTS}
        mse_doc = {"space": "normalized"}
        for name, mse in errors.means().items():
            mse_doc[name] = {label: None if math.isnan(mse[q]) else mse[q]
                             for label, q in labels.items()}
        _write_json(out / MSE_FILE, mse_doc)
    _write_ledger(out, config, ledger, evaluation=evaluation,
                  training={"epoch_losses": result.epoch_losses})
    print(f"wrote {out / FULL_FILE} and {out / PARAMS_FILE}")
    return out


def _check_v(method: str, v_values) -> None:
    """ConfigError if facility location would get v = 0: it needs budget >= 1."""
    if SELECTORS[method] == "facility_location" and any(exact_decimal(v) == 0 for v in v_values):
        raise ConfigError(f"{method} needs v > 0: facility location needs budget >= 1")


def cmd_select(config: RunConfig) -> Path:
    """Step 3: subset selection from the merged influence values, which
    `config`'s run must have made."""
    _check_v(config.method, [config.v])
    out = _run_dir(config.out_dir)
    _load_ledger(out, config)
    full_path = _run_file(out / FULL_FILE, "train-estimate")
    raw = full_path.read_bytes()
    full = InfluenceMatrix.from_bytes(raw, str(full_path))
    if not full.fully_valid:
        raise ConfigError(f"{full_path} holds {full.valid_count()} of the {full.m}x{full.n} "
                          "cells, not the whole matrix; stale artifact?")
    budget = exact_ceil(config.v, full.m)
    try:
        result = select(config.method, full, budget)
    except ValueError as exc:
        raise SelectionError(f"{full_path}: {exc}") from exc
    doc = {
        "method": config.method,
        "selector": SELECTORS[config.method],
        "budget": result.budget,
        "v": config.resolved["v"],
        "indices": list(result.indices),
        "objective_values": list(result.objective_values),
        "seed": config.seed,
        "kernel_hash": hashlib.sha256(raw).hexdigest(),
    }
    _write_json(out / SELECTION_FILE, doc)
    print(f"wrote {out / SELECTION_FILE} ({len(result.indices)} of {full.m} rows)")
    return out


def _emit_final_report(config: RunConfig) -> Path:
    out = config.out_dir
    pair = config.pair
    ledger_doc, _ = _load_ledger(out, config)
    mse_path = out / MSE_FILE
    mse_doc = read_json(mse_path) if mse_path.exists() else None
    cost = build_cost_report(
        config.method,
        pair.m,
        pair.n,
        config.u,
        ledger_doc,
        prompts=len(config.prompts),
        scales=len(config.scales),
        per_call_cost=config.per_call_cost,
    )
    check = verify_ledger(cost)
    doc = {
        "run_id": config.run_id,
        "config_hash": config.config_hash,
        "method": config.method,
        "dataset": {
            "m": pair.m,
            "n": pair.n,
            "u": config.resolved["u"],
            "v": config.resolved["v"],
            "fine_tune_embeddings": config.fine_tune_embeddings,
            "target_embeddings": config.target_embeddings,
        },
        "quadrant_mse": None if mse_doc is None else {k: mse_doc[k] for k in PREDICTORS if k in mse_doc},
        "cost": cost,
        "ledger_check": check,
        "selection": read_json(_run_file(out / SELECTION_FILE)),
        "evaluation": ledger_doc.get("evaluation"),
        "training": ledger_doc.get("training"),
        "metadata": {"config": config.resolved},
    }
    report_path = emit_report(out, doc)
    print(f"report: {report_path} (ledger {'pass' if check['passed'] else 'FAIL'})")
    return report_path


def _sweep_cell(config: RunConfig, u, v) -> RunConfig:
    return resolve_config({**config.resolved, "u": u, "v": v, "u_sweep": None, "v_sweep": None,
                           "out_dir": str(config.out_dir / f"u{u}_v{v}")})


def _run_sweep(config: RunConfig) -> Path:
    u_values = config.u_sweep if config.u_sweep else [config.resolved["u"]]
    v_values = config.v_sweep if config.v_sweep else [config.resolved["v"]]
    _run_dir(config.out_dir)
    cells = []
    for u in u_values:
        for v in v_values:
            cell = _sweep_cell(config, u, v)
            cmd_pipeline(cell)
            report = read_json(_run_file(cell.out_dir / REPORT_JSON))
            cells.append(
                {
                    "u": u,
                    "v": v,
                    "out_dir": cell.resolved["out_dir"],
                    "run_id": report["run_id"],
                    "savings_ratio": report["cost"]["savings_ratio"],
                    "ledger_passed": report["ledger_check"]["passed"],
                    "selected": len(report["selection"]["indices"]),
                    # the cell's point on the cost-quality curve
                    "quadrant_mse": report["quadrant_mse"],
                    "measured_forwards": report["cost"]["measured_forwards"],
                    "train_ms": report["cost"]["wall_ms"]["train"],
                }
            )
    _write_json(config.out_dir / SWEEP_FILE, {"config_hash": config.config_hash, "cells": cells})
    print(f"sweep: {len(cells)} pipeline cells under {config.out_dir}")
    return config.out_dir


def cmd_pipeline(config: RunConfig) -> Path:
    """Steps 1-3 in order, then the cost report, or a (u, v) sweep."""
    # every cell's u and v, before the first cell pays for its probes
    if any(exact_decimal(u) == 0 for u in config.u_sweep or [config.u]):
        raise ConfigError("pipeline runs need u > 0")
    _check_v(config.method, config.v_sweep or [config.v])
    if config.u_sweep or config.v_sweep:
        return _run_sweep(config)
    cmd_valuate(config)
    cmd_train_estimate(config)
    cmd_select(config)
    _emit_final_report(config)
    return config.out_dir


_COMMANDS = {
    "valuate": cmd_valuate,
    "train-estimate": cmd_train_estimate,
    "select": cmd_select,
    "pipeline": cmd_pipeline,
}


def exit_code_for(exc: NnciftError) -> int:
    if isinstance(exc, (ConfigError, FileFormatError, DataValidationError)):
        return 2
    if isinstance(exc, TrainingError):
        return 3
    if isinstance(exc, SelectionError):
        return 4
    if isinstance(exc, (ProbeError, RecordNotFoundError)):
        return 5
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nncift",
        description="influence valuation, estimation, and subset selection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("valuate", "probe ground-truth influence on the ID corner"),
        ("train-estimate", "train the estimator and fill in the rest"),
        ("select", "pick the fine-tuning subset"),
        ("pipeline", "run all three steps and write the report"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the flat JSON run config")
        sub.add_argument("--out", default=None, help="run directory (overrides config out_dir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = read_config_file(args.config)
        config = resolve_config(doc, out_override=args.out)
        _COMMANDS[args.command](config)
    except NnciftError as exc:
        print(f"error [{type(exc).__name__}] {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
