"""The log-belief floor and the one normalization kernel of the discrete engine.

The engine's Bayes step and its weighted log-geometric-mean merge both
normalize through ``row_normalize``: clamp at the floating floor, then
log-sum-exp normalize. All arithmetic stays in natural-log space so that
products over thousands of rounds never underflow.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = -700.0


class ZeroLikelihoodError(ValueError):
    """Every likelihood underflowed; the model does not support the label."""


def row_normalize(log_rows: np.ndarray, scratch: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Clamp at the floor and log-sum-exp normalize each row of ``log_rows`` in place.

    ``log_rows`` is ``(N, T, M)``; ``peak`` is each row's maximum before
    clamping, and ``scratch`` is a buffer of the rows' shape. Returns, per
    trial, whether the floor fired; the per-trial check and the clamp run
    only if one pass over all rows finds a cell below the floor, or a NaN.
    """
    fired = np.zeros(log_rows.shape[1], dtype=bool)
    if not log_rows.min() >= LOG_FLOOR:  # per-trial reductions are slow on narrow rows
        fired = log_rows.min(axis=(0, 2)) < LOG_FLOOR
        np.maximum(log_rows, LOG_FLOOR, out=log_rows)
    peak = np.maximum(peak, LOG_FLOOR)  # the clamped rows' maximum
    np.exp(np.subtract(log_rows, peak, out=scratch), out=scratch)
    log_rows -= peak + np.log(scratch.sum(axis=-1, keepdims=True))
    return fired
