"""Decomposed primal objective, pseudo-moment-matching dual, and exact oracles.

The primal is the sum over samples and regions of per-region soft-max losses
(at temperatures eps * c_r) plus a quadratic weight regularizer.  The dual
evaluates weighted belief entropies plus expected loss minus a quadratic
moment-mismatch penalty; its value is a lower bound on the primal only at
beliefs that agree on their marginals, so reports carry a certification flag
tied to the marginal residual.

The exact_* functions enumerate the full joint label space (guarded to 2^20
joint labels) and serve as independent oracles for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import (
    MessageState,
    belief_vec,
    counting_values,
    residual_vec,
    segmented_lse,
    theta_hat_vec,
)
from .model import RegionGraph, Sample, feature_count, theta_table
from .numerics import eps_log_sum_exp, gibbs_normalize

__all__ = [
    "ObjectiveReport",
    "region_loss",
    "sample_loss",
    "primal_objective",
    "moment_mismatch",
    "dual_objective",
    "duality_report",
    "exact_loss",
    "exact_marginals",
    "exact_map",
]

ENUMERATION_GUARD = 2**20
CERTIFY_RESIDUAL = 1e-6
HARD_MOMENT_TOL = 1e-6


def certifies(residual: float, gap: float, eps: float, cvals: np.ndarray) -> bool:
    """Whether a gap certifies convergence: it is finite, the beliefs are
    consistent (a NaN residual never is), and eps and every counting number
    are positive."""
    return bool(
        residual <= CERTIFY_RESIDUAL and math.isfinite(gap) and eps > 0 and (cvals > 0).all()
    )


@dataclass
class ObjectiveReport:
    primal: float
    dual: float
    gap: float
    marginal_residual: float
    certified: bool
    per_sample_loss: list[float]
    regularizer: float

    def to_text(self) -> str:
        lines = [
            f"primal={self.primal:.17g}",
            f"dual={self.dual:.17g}",
            f"gap={self.gap:.17g}",
            f"marginal_residual={self.marginal_residual:.17g}",
            f"certified={'true' if self.certified else 'false'}",
            f"regularizer={self.regularizer:.17g}",
            "per_sample_loss=" + ",".join(f"{v:.17g}" for v in self.per_sample_loss),
        ]
        return "\n".join(lines)


def entropy_loss_value(bmat: np.ndarray, loss_mat: np.ndarray, t_slot: np.ndarray) -> float:
    """Weighted-entropy plus expected-loss part of the dual, over belief rows."""
    logb = np.where(bmat > 0, np.log(np.where(bmat > 0, bmat, 1.0)), 0.0)
    return float(-(bmat * logb * t_slot).sum() + (bmat * loss_mat).sum())


def moment_penalty(z: np.ndarray, C: float) -> float:
    """Quadratic penalty for C > 0; hard constraints for C = 0 (inf outside)."""
    if C < 0:
        raise ValueError("C must be nonnegative")
    if C == 0.0:
        if z.size and float(np.abs(z).max()) > HARD_MOMENT_TOL:
            return math.inf
        return 0.0
    return float(z @ z) / (2.0 * C)


def region_loss(
    graph: RegionGraph,
    sample: Sample,
    region: int,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
) -> float:
    """Soft-max loss of one region under the message-parameterized potential.

    Equals the negative (eps * c_r)-scaled log-belief of the true label; at
    temperature zero it is the hinge term max(theta_hat) - theta_hat(y_r).
    """
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    compiled = sample.compiled()
    theta = compiled.theta_vec(np.asarray(w, dtype=float), include_loss=True)
    th = theta_hat_vec(layout, theta, state.vec)
    table = th[layout.region_slices[region]]
    y = int(sample.true_labels[region])
    return eps_log_sum_exp(table, eps * cvals[region]) - float(table[y])


def sample_loss(
    graph: RegionGraph,
    sample: Sample,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
) -> float:
    """Sum of region losses for one sample."""
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    compiled = sample.compiled()
    theta = compiled.theta_vec(np.asarray(w, dtype=float), include_loss=True)
    th = theta_hat_vec(layout, theta, state.vec)
    lse = segmented_lse(layout, th, eps * cvals)
    return float(lse.sum() - th[compiled.true_slots].sum())


def primal_objective(
    graph: RegionGraph,
    samples: list[Sample],
    states: list[MessageState],
    w: np.ndarray,
    eps: float,
    counting=None,
    C: float = 0.0,
) -> float:
    """Sum of per-sample region losses plus (C/2) * ||w||^2."""
    w = np.asarray(w, dtype=float)
    total = 0.0
    for sample, state in zip(samples, states):
        total += sample_loss(graph, sample, state, w, eps, counting)
    return total + 0.5 * C * float(w @ w)


def _belief_matrix(graph: RegionGraph, beliefs: list[list[np.ndarray]]) -> np.ndarray:
    layout = graph.layout()
    if not beliefs:
        return np.zeros((0, layout.total))
    rows = []
    for btables in beliefs:
        row = np.concatenate([np.asarray(t, dtype=float) for t in btables])
        if row.size != layout.total:
            raise ValueError("beliefs do not match the graph layout")
        rows.append(row)
    return np.stack(rows)


def moment_mismatch(
    graph: RegionGraph,
    samples: list[Sample],
    beliefs: list[list[np.ndarray]],
    num_features: int | None = None,
) -> np.ndarray:
    """Belief-weighted feature expectations minus empirical features, summed
    over samples in id order."""
    if num_features is None:
        num_features = feature_count(samples)
    bmat = _belief_matrix(graph, beliefs)
    z = np.zeros(num_features)
    for i, sample in enumerate(samples):
        z += sample.compiled().feature_expectation(bmat[i], num_features)
        z -= sample.empirical_features(num_features)
    return z


def dual_objective(
    graph: RegionGraph,
    samples: list[Sample],
    beliefs: list[list[np.ndarray]],
    eps: float,
    counting=None,
    C: float = 0.0,
    num_features: int | None = None,
) -> float:
    """Weighted entropies plus expected loss minus the moment penalty.

    With C = 0 the moment constraints are hard: the value is finite only when
    every mismatch is within tolerance, and -inf otherwise.
    """
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    t_slot = (eps * cvals)[layout.segment]
    bmat = _belief_matrix(graph, beliefs)
    loss_mat = (
        np.stack([s.compiled().loss_vec for s in samples])
        if samples
        else np.zeros((0, layout.total))
    )
    z = moment_mismatch(graph, samples, beliefs, num_features)
    return entropy_loss_value(bmat, loss_mat, t_slot) - moment_penalty(z, C)


def duality_report(
    graph: RegionGraph,
    samples: list[Sample],
    states: list[MessageState],
    w: np.ndarray,
    eps: float,
    counting=None,
    C: float = 0.0,
    num_features: int | None = None,
) -> ObjectiveReport:
    """Primal, dual, gap, and residual at the current weights and messages.

    The gap is a convergence certificate only when the beliefs are marginally
    consistent and eps and all counting numbers are positive; the report is
    marked uncertified otherwise.
    """
    w = np.asarray(w, dtype=float)
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    beliefs = []
    residuals = []
    per_sample = []
    for sample, state in zip(samples, states):
        compiled = sample.compiled()
        theta = compiled.theta_vec(w, include_loss=True)
        bvec = belief_vec(layout, state.vec[None, :], theta[None, :], eps, cvals)[0]
        beliefs.append([bvec[layout.region_slices[r]] for r in range(graph.region_count)])
        residuals.append(residual_vec(layout, bvec))
        th = theta_hat_vec(layout, theta, state.vec)
        lse = segmented_lse(layout, th, eps * cvals)
        per_sample.append(float(lse.sum() - th[compiled.true_slots].sum()))
    reg = 0.5 * C * float(w @ w)
    primal = sum(per_sample) + reg
    dual = dual_objective(graph, samples, beliefs, eps, counting, C, num_features)
    residual = float(np.max(residuals, initial=0.0))  # NaN-propagating
    return ObjectiveReport(
        primal=primal,
        dual=dual,
        gap=primal - dual,
        marginal_residual=residual,
        certified=certifies(residual, primal - dual, eps, cvals),
        per_sample_loss=per_sample,
        regularizer=reg,
    )


# ---------------------------------------------------------------------------
# exact enumeration oracles


def _joint_space(graph: RegionGraph) -> tuple[int, np.ndarray]:
    total = 1
    for c in graph.cardinalities:
        total *= int(c)
        if total > ENUMERATION_GUARD:
            raise ValueError(
                f"joint label space exceeds the enumeration guard ({ENUMERATION_GUARD})"
            )
    strides = np.ones(graph.variable_count, dtype=np.int64)
    for v in range(graph.variable_count - 2, -1, -1):
        strides[v] = strides[v + 1] * graph.cardinalities[v + 1]
    return total, strides


def _region_index_map(
    graph: RegionGraph, region: int, strides: np.ndarray, total: int
) -> np.ndarray:
    reg = graph.regions[region]
    idx = np.arange(total, dtype=np.int64)
    out = np.zeros(total, dtype=np.int64)
    r_strides = reg.strides()
    for j, v in enumerate(reg.variables):
        digit = (idx // strides[v]) % graph.cardinalities[v]
        out += digit * r_strides[j]
    return out


def _joint_scores(
    graph: RegionGraph, sample: Sample, w: np.ndarray, include_loss: bool
) -> tuple[np.ndarray, np.ndarray]:
    total, strides = _joint_space(graph)
    scores = np.zeros(total)
    for r in range(graph.region_count):
        m = _region_index_map(graph, r, strides, total)
        scores += theta_table(sample, r, w, include_loss)[m]
    return scores, strides


def exact_loss(graph: RegionGraph, sample: Sample, w: np.ndarray, eps: float) -> float:
    """Extended log-loss by full enumeration: soft-max of all joint scores
    (loss included) minus the true label's score."""
    w = np.asarray(w, dtype=float)
    scores, strides = _joint_scores(graph, sample, w, include_loss=True)
    assign = sample.true_assignment()
    true_flat = int((assign * strides).sum())
    return eps_log_sum_exp(scores, eps) - float(scores[true_flat])


def exact_marginals(
    graph: RegionGraph, sample: Sample, w: np.ndarray, eps: float, include_loss: bool = True
) -> list[np.ndarray]:
    """Exact region marginals of the joint loss-adjusted Gibbs distribution."""
    w = np.asarray(w, dtype=float)
    scores, strides = _joint_scores(graph, sample, w, include_loss)
    p = gibbs_normalize(scores, eps)
    total = scores.size
    out = []
    for r in range(graph.region_count):
        m = _region_index_map(graph, r, strides, total)
        out.append(np.bincount(m, weights=p, minlength=graph.regions[r].label_count))
    return out


def exact_map(graph: RegionGraph, sample: Sample, w: np.ndarray) -> np.ndarray:
    """Exact maximum-score joint assignment (loss excluded, ties to the
    lowest flat index), as per-variable labels."""
    w = np.asarray(w, dtype=float)
    scores, strides = _joint_scores(graph, sample, w, include_loss=False)
    flat = int(np.argmax(scores))
    labels = np.zeros(graph.variable_count, dtype=np.int64)
    for v in range(graph.variable_count):
        labels[v] = (flat // strides[v]) % graph.cardinalities[v]
    return labels
