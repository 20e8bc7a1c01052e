"""Sample-complexity and risk bounds computed from scenario quantities.

All logarithms are natural, matching the KL divergences measured in nats.
Pure functions throughout; thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import instance_support


class InvalidInputsError(ValueError):
    """A bound input is outside its admissible range."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything the sample-complexity bound needs.

    ``likelihood_log_range`` is |log(L/alpha)| from the declared
    likelihood bounds; ``separation_rate`` is the network-wide minimum
    KL advantage of a globally optimal parameter (may be +inf when there
    is nothing to distinguish); ``lambda_max`` is the subdominant
    eigenvalue modulus of the weight matrix.
    """

    n_nodes: int
    n_params: int
    delta: float
    likelihood_log_range: float
    separation_rate: float
    lambda_max: float

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_params < 1:
            raise InvalidInputsError("n_nodes and n_params must be positive")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputsError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.likelihood_log_range > 0.0:
            raise InvalidInputsError("likelihood_log_range must be positive")
        if not self.separation_rate > 0.0:
            raise InvalidInputsError("separation_rate must be positive")
        if not 0.0 <= self.lambda_max < 1.0:
            raise InvalidInputsError(f"lambda_max must lie in [0, 1), got {self.lambda_max!r}")


def sample_complexity_real(inputs: BoundInputs) -> float:
    """The sample-count bound before rounding up to an integer; ``inf`` if it overflows."""
    if math.isinf(inputs.separation_rate):
        return 1.0
    scale = inputs.separation_rate * inputs.separation_rate * (1.0 - inputs.lambda_max)
    if scale == 0.0:
        return math.inf
    return 16.0 * inputs.likelihood_log_range * math.log(
        inputs.n_nodes * inputs.n_params / inputs.delta) / scale


def sample_complexity(inputs: BoundInputs) -> int:
    """Number of per-node samples after which the error probability is below delta.

    Returns 1 when the separation rate is the +inf sentinel (every
    parameter is globally optimal, so there is nothing to distinguish).
    Raises ``InvalidInputsError`` when the bound overflows a float.
    """
    real = sample_complexity_real(inputs)
    if math.isinf(real):
        raise InvalidInputsError(
            f"the sample bound overflows a float at separation rate "
            f"{inputs.separation_rate:.6g} and likelihood log-range "
            f"{inputs.likelihood_log_range:.6g}")
    return max(1, math.ceil(real))


def risk_bound(label_risk_bound: float, covering_radius: float) -> float:
    """Bound on the network-average absolute risk gap from the covering radius."""
    if label_risk_bound < 0 or covering_radius < 0:
        raise InvalidInputsError("risk bound inputs must be nonnegative")
    return label_risk_bound * math.sqrt(covering_radius) / 2.0


def empirical_risk_gap(models, theta_set, optimal_index: int, estimates,
                       risk_fn, mc_samples: int = 2000, seed: int = 0) -> float:
    """Monte Carlo network-average |risk(optimal) - risk(estimate)|.

    ``risk_fn(x, y)`` must be bounded as declared by the caller;
    expectations over labels are exact for the discrete families and the
    optimal and estimated parameters share instance draws node by node.
    This is the first link of ``risk_gap_chain``, on the same draws.
    """
    return risk_gap_chain(models, theta_set, optimal_index, estimates, risk_fn,
                          1.0, mc_samples=mc_samples, seed=seed)["risk_gap"]


def risk_gap_chain(models, theta_set, optimal_index: int, estimates,
                    risk_fn, label_risk_bound: float,
                    mc_samples: int = 2000, seed: int = 0) -> dict:
    """All intermediate quantities of the risk-gap chain, on shared draws.

    Returns the Monte Carlo risk gap plus its successive relaxations: the
    L1-density bound, the total-variation (Pinsker) bound with the
    standard constant, and its Jensen relaxation. Each link of
    gap <= l1 <= pinsker <= jensen holds instance by instance, so the
    weighted estimates preserve the ordering exactly.
    """
    gaps, l1_terms, pinsker_sqrts, kl_means = [], [], [], []
    for model, estimate in zip(models, estimates):
        xs, shares = instance_support(model, mc_samples, seed)
        opt_point = theta_set.points[optimal_index]
        est_point = theta_set.points[int(estimate)]
        risk_opt, risk_est = (model.label_expectation(point, xs, risk_fn) @ shares
                              for point in (opt_point, est_point))
        gaps.append(abs(risk_opt - risk_est))
        l1_terms.append(model.density_l1(opt_point, est_point, xs) @ shares)
        kls = model.kl_between(opt_point[None, :], est_point, xs)[0]
        pinsker_sqrts.append(np.sqrt(2.0 * kls) @ shares)
        kl_means.append(kls @ shares)
    return {
        "risk_gap": float(np.mean(gaps)),
        "l1_bound": float(label_risk_bound * np.mean(l1_terms)),
        "pinsker_bound": float(label_risk_bound * np.mean(pinsker_sqrts)),
        "jensen_bound": float(label_risk_bound * math.sqrt(2.0 * np.mean(kl_means))),
    }
