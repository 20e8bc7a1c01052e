"""The log-belief floor and the one normalization kernel of the discrete engine.

The engine's Bayes step and its weighted log-geometric-mean merge both
normalize through ``row_normalize``: clamp at the floating floor, then
log-sum-exp normalize. All arithmetic stays in natural-log space so that
products over thousands of rounds never underflow. The caller supplies
each row's maximum: the engine takes all of a state's row maxima with one
``np.maximum.reduceat``. The floor's work (the clamp, the clamped maxima
and the per-trial flags) is done only when some cell lies below it.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = -700.0


class ZeroLikelihoodError(ValueError):
    """Every likelihood underflowed; the model does not support the label."""


def row_normalize(log_rows: np.ndarray, scratch: np.ndarray, peak: np.ndarray,
                  clamp_events: np.ndarray | None = None) -> np.ndarray:
    """Clamp at the floor and log-sum-exp normalize each row of ``log_rows`` in place.

    ``log_rows`` is ``(N, T, M)``; ``peak`` is each row's maximum before
    clamping, and ``scratch`` is a buffer of the rows' shape. Returns, per
    trial, whether the floor fired, and adds those flags to
    ``clamp_events``, a ``(T,)`` counter, if one is given. The clamp, the
    clamped maxima and the per-trial check run only if one pass over all
    rows finds a cell below the floor, or a NaN; otherwise every row's
    maximum is at or above the floor already.
    """
    if log_rows.min() >= LOG_FLOOR:  # per-trial reductions are slow on narrow rows
        fired = np.zeros(log_rows.shape[1], dtype=bool)
    else:
        fired = log_rows.min(axis=(0, 2)) < LOG_FLOOR
        np.maximum(log_rows, LOG_FLOOR, out=log_rows)
        peak = np.maximum(peak, LOG_FLOOR)  # the clamped rows' maximum
        if clamp_events is not None:
            clamp_events += fired
    np.exp(np.subtract(log_rows, peak, out=scratch), out=scratch)
    shift = scratch.sum(axis=-1, keepdims=True)
    np.log(shift, out=shift)
    shift += peak
    log_rows -= shift
    return fired
