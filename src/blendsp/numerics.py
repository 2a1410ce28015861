"""Temperature-parameterized soft-max primitives in stable log-domain form.

The temperature t interpolates between a hard max (t = 0) and ever softer
averages; negative t (which arises from negative counting numbers in the
non-convex experimental mode) is supported with min-based stabilization and
carries no convexity guarantees.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eps_log_sum_exp", "gibbs_normalize", "ARGMAX_TOL"]

# absolute tie tolerance for the t = 0 subgradient selection; a fixed value
# keeps zero-temperature runs reproducible
ARGMAX_TOL = 1e-9


def eps_log_sum_exp(values, t: float) -> float:
    """t * log(sum(exp(v / t))), reducing to max(v) at t = 0.

    Stabilized by shifting with the max (t > 0) or min (t < 0) so the
    exponentials never overflow.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("eps_log_sum_exp of an empty table")
    if not np.isfinite(v).all():
        raise ValueError("eps_log_sum_exp requires finite entries")
    if t == 0.0:
        return float(v.max())
    m = float(v.max()) if t > 0 else float(v.min())
    return m + t * float(np.log(np.exp((v - m) / t).sum()))


def gibbs_normalize(values, t: float) -> np.ndarray:
    """Distribution proportional to exp(v / t); uniform over near-maximizers at t = 0.

    For t = 0 the result is the deterministic subgradient selection: uniform
    over entries within ``ARGMAX_TOL`` of the maximum, zero elsewhere.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("gibbs_normalize of an empty table")
    if not np.isfinite(v).all():
        raise ValueError("gibbs_normalize requires finite entries")
    if t == 0.0:
        mask = v >= v.max() - ARGMAX_TOL
        return mask / mask.sum()
    m = v.max() if t > 0 else v.min()
    e = np.exp((v - m) / t)
    return e / e.sum()
