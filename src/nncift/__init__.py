"""Influence-function data valuation with a cheap trained estimator.

The pipeline: probe a small ID corner of the pairwise influence matrix,
train a two-layer perceptron on it, estimate the remaining cells for the
cost of tiny-network forwards, then pick a fine-tuning subset by
facility-location greedy or top-k ranking. A ledger counts every probe
call so the savings claim is checkable, not vibes.
"""

__version__ = "0.1.0"
