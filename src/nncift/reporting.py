"""Cost prediction, ledger verification, and run reports.

The cost model counts probe calls exactly, under this package's
conventions:

* delift, full valuation: M*N + N forwards (the context-free term is
  cached once per target).
* delift, ID-corner valuation at fraction u: ceil(uM)*ceil(uN) +
  ceil(uN) forwards.
* delift_se: zero probe calls (pair embeddings are ingested).
* less: zero forwards, M+N backwards (the gradient features' upstream
  cost, charged on ingestion).
* selectit: one forward per (sample, prompt, scale); M*P*S full,
  ceil(uM)*P*S for the ID corner.

Counts are abstract per-call units, not FLOPs; an optional per-call
cost pair weights them when model sizes differ. Estimator forwards are
tracked separately from probe forwards on purpose: conflating the two
counters would hide exactly the distinction the savings claim rests on.
"""

from __future__ import annotations

import math
from pathlib import Path

from .datasets import exact_ceil, write_json
from .influence import PAIRWISE_METHODS, POINTWISE_METHODS
from .network import PREDICTORS, QUADRANTS

REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"

_METHODS = PAIRWISE_METHODS + POINTWISE_METHODS


def predicted_counts(
    method: str,
    m: int,
    n: int,
    u: float | str | None = None,
    prompts: int | None = None,
    scales: int | None = None,
) -> tuple[int, int]:
    """Exact (forwards, backwards) a valuation should cost.

    u=None prices the full valuation; a fraction prices the ID-corner
    valuation used to train the estimator.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if m < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    if method == "delift":
        if u is None:
            return m * n + n, 0
        return exact_ceil(u, m) * exact_ceil(u, n) + exact_ceil(u, n), 0
    if method == "delift_se":
        return 0, 0
    if method == "less":
        return 0, m + n
    if prompts is None or scales is None:
        raise ValueError("selectit cost needs prompt and scale counts")
    if u is None:
        return m * prompts * scales, 0
    return exact_ceil(u, m) * prompts * scales, 0


def build_cost_report(
    method: str,
    m: int,
    n: int,
    u: float | str,
    ledger: dict,
    prompts: int | None = None,
    scales: int | None = None,
    per_call_cost: dict | None = None,
) -> dict:
    """The report's cost block: predicted counts next to the counters of a
    ledger document (ledger.json, or CostLedger.as_dict()).

    savings_ratio is 1 minus the fraction of full-valuation forwards spent;
    methods whose full valuation is free (delift_se, less) have nothing to
    save: 0.0 by convention.
    """
    fwd, bwd = predicted_counts(method, m, n, u, prompts, scales)
    full_fwd, _ = predicted_counts(method, m, n, None, prompts, scales)
    measured_fwd = ledger.get("forward_calls", 0)
    measured_bwd = ledger.get("backward_calls", 0)
    cost = {
        "method": method,
        "m": m,
        "n": n,
        "u": float(u),
        "predicted_forwards": fwd,
        "predicted_backwards": bwd,
        "measured_forwards": measured_fwd,
        "measured_backwards": measured_bwd,
        "failed_forwards": ledger.get("failed_forwards", 0),
        "estimator_forwards": ledger.get("estimator_forwards", 0),
        "wall_ms": ledger.get("wall_ms", {}),
        "full_valuation_forwards": full_fwd,
        "savings_ratio": 1.0 - measured_fwd / full_fwd if full_fwd else 0.0,
    }
    if per_call_cost is not None:
        fwd_unit = float(per_call_cost.get("forward", 1.0))
        bwd_unit = float(per_call_cost.get("backward", 1.0))
        cost["weighted"] = {
            "forward_unit_cost": fwd_unit,
            "backward_unit_cost": bwd_unit,
            "full_valuation": full_fwd * fwd_unit,
            "measured": measured_fwd * fwd_unit + measured_bwd * bwd_unit,
        }
    return cost


def verify_ledger(cost: dict) -> dict:
    """Compare a cost block's measured probe counts with its predictions, exactly.

    A forward attempt that got no answer (an http retry) is counted in
    both measured_forwards and failed_forwards, so the answered forwards,
    measured - failed, must equal the prediction for every provider.
    """
    diff = {
        "forward_calls": {
            "predicted": cost["predicted_forwards"],
            "measured": cost["measured_forwards"],
            "failed": cost["failed_forwards"],
            "delta": cost["measured_forwards"] - cost["failed_forwards"]
            - cost["predicted_forwards"],
        },
        "backward_calls": {
            "predicted": cost["predicted_backwards"],
            "measured": cost["measured_backwards"],
            "delta": cost["measured_backwards"] - cost["predicted_backwards"],
        },
    }
    passed = diff["forward_calls"]["delta"] == 0 and diff["backward_calls"]["delta"] == 0
    return {"passed": passed, "diff": diff}


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _format_mse_cell(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "   n/a  "
    return f"{value:8.4f}"


def render_text_report(doc: dict) -> str:
    lines = []
    lines.append(f"run {doc['run_id']}  method {doc['method']}")
    ds = doc["dataset"]
    lines.append(f"dataset: M={ds['m']} N={ds['n']} u={ds['u']} v={ds['v']}")
    lines.append("")
    mse = doc.get("quadrant_mse")
    if mse is not None:
        groups = [q for q in QUADRANTS if q in mse["trained"]]
        groups = groups or sorted(mse["trained"])
        lines.append("MSE                   trained   random     zero   corner")
        for group in groups:
            row = [_format_mse_cell(mse.get(name, {}).get(group)) for name in PREDICTORS]
            lines.append(f"  {group:<4}              " + "  ".join(row))
    else:
        lines.append("quadrant MSE: not evaluated (no full ground truth)")
    losses = (doc.get("training") or {}).get("epoch_losses")
    if losses:
        lines.append(f"training: corner MSE {losses[0]:.6f} -> {losses[-1]:.6f} "
                     f"over {len(losses)} epochs")
    lines.append("")
    cost = doc["cost"]
    lines.append("cost")
    failed = f" ({cost['failed_forwards']} failed)" if cost["failed_forwards"] else ""
    lines.append(
        f"  probe forwards    predicted {cost['predicted_forwards']}  "
        f"measured {cost['measured_forwards']}{failed}"
    )
    lines.append(
        f"  probe backwards   predicted {cost['predicted_backwards']}  "
        f"measured {cost['measured_backwards']}"
    )
    lines.append(f"  estimator forwards          {cost['estimator_forwards']}")
    lines.append(f"  full valuation would cost   {cost['full_valuation_forwards']} forwards")
    lines.append(f"  savings vs full valuation   {100.0 * cost['savings_ratio']:.2f}%")
    lines.append(f"  ledger check                {'pass' if doc['ledger_check']['passed'] else 'FAIL'}")
    lines.append("")
    sel = doc["selection"]
    lines.append(
        f"selection: {len(sel['indices'])} of {ds['m']} rows via {sel['selector']}, "
        f"budget {sel['budget']}"
    )
    if sel["objective_values"]:
        lines.append(f"  final objective {sel['objective_values'][-1]:.6f}")
    return "\n".join(lines) + "\n"


def emit_report(out_dir: str | Path, doc: dict) -> Path:
    """Write the report document to out_dir as report.json and report.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = _json_safe(doc)
    report_path = out_dir / REPORT_JSON
    write_json(report_path, doc)
    (out_dir / REPORT_TEXT).write_text(render_text_report(doc))
    return report_path
