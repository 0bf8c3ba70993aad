#!/usr/bin/env python3
"""Generate a synthetic dataset pair, run the full pipeline on it, and
print where the artifacts landed.

Handy for smoke-testing a method end to end without any real model:
embeddings are seeded unit-norm vectors, probe responses come from the
deterministic synthetic provider, and reruns with the same arguments
are byte-identical.

    python3 scripts/run_synthetic_pipeline.py --method delift --m 200 --n 80 --u 0.05 --v 0.3

Several --u values run them as one u_sweep and print each cell's point on
the cost-quality curve: its probe forwards, savings ratio, training time
and the trained estimator's per-quadrant MSE against corner_mean's. With
delift_se the truth is the cosine kernel, so this is the corner-size
experiment:

    python3 scripts/run_synthetic_pipeline.py --method delift_se --m 2000 --n 500 --dim 32 --u 0.05 0.1 0.2
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from nncift.cli import main as cli_main
from nncift.datasets import EmbeddingMatrix, save_embeddings


def unit_rows(count: int, dim: int, seed: int) -> EmbeddingMatrix:
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.normal(size=(count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(rows.astype(np.float32))


def print_sweep(path: Path) -> None:
    for cell in json.loads(path.read_text())["cells"]:
        mse = cell["quadrant_mse"]
        quality = "" if mse is None else " trained/corner_mean " + " ".join(
            f"{q} {format_mse(value)}/{format_mse(mse['corner_mean'][q])}"
            for q, value in mse["trained"].items())
        print(f"u {cell['u']} v {cell['v']}: forwards {cell['measured_forwards']} "
              f"savings_ratio {cell['savings_ratio']:.4f} train {cell['train_ms']:.0f} ms"
              f"{quality}")


def format_mse(value) -> str:
    return "-" if value is None else f"{value:.5f}"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="delift_se",
                        choices=["delift", "delift_se", "less", "selectit"])
    parser.add_argument("--m", type=int, default=200, help="fine-tuning pool size")
    parser.add_argument("--n", type=int, default=80, help="target set size")
    parser.add_argument("--dim", type=int, default=32, help="embedding dimension")
    parser.add_argument("--u", type=float, nargs="+", default=[0.05],
                        help="ground-truth corner fraction; several run a u_sweep")
    parser.add_argument("--v", type=float, default=0.3, help="selected subset fraction")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("runs/synthetic"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    fine = args.out / "fine_tune.emb"
    save_embeddings(unit_rows(args.m, args.dim, args.seed), fine)
    doc = {
        "method": args.method,
        "u": args.u[0],
        "v": args.v,
        "seed": args.seed,
        "fine_tune_embeddings": str(fine),
    }
    if args.method != "selectit":
        target = args.out / "target.emb"
        save_embeddings(unit_rows(args.n, args.dim, args.seed + 1), target)
        doc["target_embeddings"] = str(target)
    if args.method == "less":
        fine_g = args.out / "fine_tune_gradients.emb"
        target_g = args.out / "target_gradients.emb"
        save_embeddings(unit_rows(args.m, args.dim, args.seed + 2), fine_g)
        save_embeddings(unit_rows(args.n, args.dim, args.seed + 3), target_g)
        doc["fine_tune_gradients"] = str(fine_g)
        doc["target_gradients"] = str(target_g)

    if len(args.u) > 1:
        doc["u_sweep"] = args.u

    config = args.out / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")

    code = cli_main(["pipeline", "--config", str(config), "--out", str(args.out / "run")])
    if code != 0:
        return code
    if len(args.u) > 1:
        print_sweep(args.out / "run" / "sweep.json")
        return 0

    report = json.loads((args.out / "run" / "report.json").read_text())
    cost = report["cost"]
    print(f"run_id {report['run_id']}")
    print(f"selected {len(report['selection']['indices'])} of {args.m} "
          f"via {report['selection']['selector']}")
    print(f"probe forwards {cost['measured_forwards']} "
          f"(full valuation would take {cost['full_valuation_forwards']}); "
          f"savings_ratio {cost['savings_ratio']:.4f}")
    print(f"artifacts in {args.out / 'run'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
