#!/usr/bin/env python3
"""How well does a network trained only on the ID x ID corner predict the
other three quadrants, and how small can that corner be?

Ground truth is a cosine kernel over seeded unit-norm embeddings, mapped
affinely to [0, 1]. For each corner fraction u the script trains on the
Q1 cells, evaluates per-quadrant MSE in raw truth space, and compares
against the two reference predictors (constant zero, seeded uniform
noise). Results print as a table and can be dumped to JSON.

    python3 scripts/quadrant_mse_experiment.py --m 2000 --n 500 --u 0.05 0.1 0.2
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from nncift.datasets import DatasetPair, EmbeddingMatrix, partition, quadrant_index_sets
from nncift.network import TrainConfig, estimate_pairwise, train
from nncift.probes import CostLedger

QUADRANTS = ("Q1", "Q2", "Q3", "Q4")


def unit_rows(count: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.normal(size=(count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


def quadrant_errors(pair, part, params, norm, truth):
    """Per-quadrant MSE of the trained net in raw truth space."""
    ledger = CostLedger()
    out = {}
    for quadrant in QUADRANTS:
        rows, cols = quadrant_index_sets(part, quadrant)
        estimates = estimate_pairwise(params, pair, rows, cols, ledger)
        raw = norm.denormalize(estimates.block.astype(np.float64))
        out[quadrant] = float(((raw - truth[np.ix_(rows, cols)]) ** 2).mean())
    return out


def baseline_errors(truth, part, seed):
    noise = np.random.Generator(np.random.PCG64(seed)).random(truth.shape)
    zero, random_mse = {}, {}
    for quadrant in QUADRANTS:
        rows, cols = quadrant_index_sets(part, quadrant)
        grid = np.ix_([int(i) for i in rows], [int(j) for j in cols])
        zero[quadrant] = float((truth[grid] ** 2).mean())
        random_mse[quadrant] = float(((noise[grid] - truth[grid]) ** 2).mean())
    return zero, random_mse


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=2000)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--u", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--out", type=Path, default=None, help="optional JSON dump path")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fine = unit_rows(args.m, args.dim, args.seed)
    target = unit_rows(args.n, args.dim, args.seed + 1)
    pair = DatasetPair(fine_tune=EmbeddingMatrix(fine), target=EmbeddingMatrix(target))

    cosines = fine.astype(np.float64) @ target.astype(np.float64).T
    lo, hi = cosines.min(), cosines.max()
    truth = (cosines - lo) / (hi - lo)

    results = []
    print(f"{'u':>6}  {'corner':>9}  {'quadrant':>8}  {'trained':>9}  {'zero':>9}  {'random':>9}")
    for u in args.u:
        started = time.perf_counter()
        part = partition(pair, u, seed=args.seed)
        corner = np.ix_(part.id_f, part.id_t)
        q1_cells = len(part.id_f) * len(part.id_t)
        result = train(
            fine[part.id_f],
            target[part.id_t],
            truth[corner].reshape(-1),
            TrainConfig(seed=0, epochs=args.epochs),
        )
        trained = quadrant_errors(pair, part, result.params, result.norm, truth)
        zero, random_mse = baseline_errors(truth, part, seed=99)
        for quadrant in QUADRANTS:
            print(f"{u:>6}  {q1_cells:>9}  {quadrant:>8}  {trained[quadrant]:>9.5f}  "
                  f"{zero[quadrant]:>9.5f}  {random_mse[quadrant]:>9.5f}")
        results.append({
            "u": u,
            "q1_cells": q1_cells,
            "train_seconds": round(time.perf_counter() - started, 2),
            "trained": trained,
            "predict_zero": zero,
            "random_uniform": random_mse,
        })

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "m": args.m, "n": args.n, "dim": args.dim, "seed": args.seed,
            "results": results,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
