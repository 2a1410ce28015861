"""Decomposed primal objective, pseudo-moment-matching dual, and exact oracles.

The primal is the sum over samples and regions of per-region soft-max losses
(at temperatures eps * c_r) plus a quadratic weight regularizer.  The dual
evaluates weighted belief entropies plus expected loss minus a quadratic
moment-mismatch penalty; its value is a lower bound on the primal only at
beliefs that agree on their marginals, so reports carry a certification flag
tied to the marginal residual.

One method, ``BatchObjective.report``, computes primal, dual, gap, residual
and certificate for a whole batch: from the message matrix, the stacked theta
rows (``model.ThetaStack``) and the potentials thetas +
message_potentials(lam) (``inference``), which feed both the per-sample
losses and the belief rows, so the primal and the dual of one report rest on
the same rounding of the potentials.  ``train`` (after every weight step),
the ``gap`` command, ``duality_report``, ``primal_objective`` and
``w_gradient`` all go through it with the same arithmetic: those potentials,
moment mismatch z = sum_i E_i - sum_i emp_i and gradient z + C * w.  The same
messages and weights therefore give the same report, bit for bit, whichever
of them computes it; ``train`` and ``gap`` hand in the potentials,
log-partitions and beliefs they already hold instead of gathering the
messages again.

The exact_* functions enumerate the full joint label space (guarded to 2^20
joint labels) and serve as independent oracles for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import (
    Guarantees,
    MessageState,
    belief_row,
    belief_vec,
    message_potentials,
    region_index,
    residual_rows,
    sweep_plan,
)
from .model import (
    CountingNumbers, GraphLayout, RegionGraph, Sample, ThetaStack, feature_count, theta_table
)
from .numerics import eps_log_sum_exp, gibbs_normalize

__all__ = [
    "ObjectiveReport",
    "region_loss",
    "BatchObjective",
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


def certifies(residual: float, gap: float, guarantees: Guarantees) -> bool:
    """Whether a gap certifies convergence: it is finite, the beliefs are
    consistent (a NaN residual never is), and ``guarantees`` include the
    certificate."""
    return bool(residual <= CERTIFY_RESIDUAL and math.isfinite(gap) and guarantees.certificate)


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


def moment_penalty(z: np.ndarray, C: float) -> float:
    """Quadratic penalty for C > 0; hard constraints for C = 0 (inf outside)."""
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
    A region id outside the graph raises ``ValueError``, a sample without
    true labels ``ModelError``.
    """
    layout = graph.layout()
    region = region_index(layout, region)
    cvals = CountingNumbers.of(graph, counting).values
    stack = sample.compiled()
    th = stack.theta_vec(np.asarray(w, dtype=float)) + message_potentials(layout, state.vec)
    table = th[layout.region_slices[region]]
    return eps_log_sum_exp(table, eps * cvals[region]) - float(th[stack.true_slots[0, region]])


class BatchObjective:
    """The objective of one batch of samples at fixed eps, counting numbers
    and C: the one path that computes primal, dual, gap, residual and
    certificate.  A non-finite eps, and a C that is not finite and at least
    0, are rejected here, before any sweep of ``train`` or ``gap``."""

    def __init__(
        self,
        layout: GraphLayout,
        stack: ThetaStack,
        eps: float,
        cvals: np.ndarray,
        C: float,
        num_features: int,
    ):
        if not math.isfinite(eps):
            raise ValueError("eps must be finite")
        if not 0 <= C < math.inf:
            raise ValueError("C must be nonnegative and finite")
        self.layout, self.stack = layout, stack
        self.eps, self.cvals, self.C = eps, cvals, C
        self.empirical = stack.empirical(num_features)
        terms = sweep_plan(layout).at(eps, cvals)
        self.regions = terms.regions  # their soft-max
        self.guarantees = terms.guarantees
        self.t_slot = self.regions.t[layout.segment]

    def dual(self, bmat: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual at the belief rows ``bmat``, and the moment mismatch z it
        penalizes: summed feature expectations minus summed empirical
        features."""
        z = self.stack.expectations(bmat, self.empirical.size) - self.empirical
        logb = np.where(bmat > 0, np.log(np.where(bmat > 0, bmat, 1.0)), 0.0)
        value = float(-(bmat * logb * self.t_slot).sum() + (bmat * self.stack.loss).sum())
        return value - moment_penalty(z, self.C), z

    def report(
        self,
        lam: np.ndarray,
        thetas: np.ndarray,
        w: np.ndarray,
        potentials: np.ndarray | None = None,
        lse: np.ndarray | None = None,
        bmat: np.ndarray | None = None,
    ) -> tuple[ObjectiveReport, np.ndarray]:
        """The report at the message rows ``lam`` and the weights ``w``, whose
        stacked theta rows (loss included) are ``thetas``, and the moment
        mismatch z: the primal's gradient in the weights is z + C * w.

        The potentials thetas + message_potentials(lam), their region
        log-partitions ``lse`` and the belief rows ``bmat`` (from those
        potentials) are given together or computed here from one pass of the
        region soft-max: ``train`` passes its accepted line-search trial's,
        ``gap`` the engine's.
        """
        layout, eps, cvals = self.layout, self.eps, self.cvals
        n = lam.shape[0]
        if potentials is None:
            potentials = thetas + message_potentials(layout, lam)
            terms = self.regions(potentials)
            lse, bmat = terms.lse, belief_vec(layout, lam, thetas, eps, cvals, terms)
        losses = self.stack.losses(potentials, lse)
        residual = float(residual_rows(layout, bmat).max()) if n else 0.0
        reg = 0.5 * self.C * float(w @ w)
        primal = sum(losses) + reg
        dual, z = self.dual(bmat)
        report = ObjectiveReport(
            primal=primal,
            dual=dual,
            gap=primal - dual,
            marginal_residual=residual,
            certified=certifies(residual, primal - dual, self.guarantees),
            per_sample_loss=losses,
            regularizer=reg,
        )
        return report, z


def report_at(
    graph: RegionGraph,
    samples: list[Sample],
    states: list[MessageState],
    w: np.ndarray,
    eps: float,
    counting=None,
    C: float = 0.0,
    num_features: int | None = None,
) -> tuple[ObjectiveReport, np.ndarray]:
    """``BatchObjective.report`` at the messages of ``states``."""
    w = np.asarray(w, dtype=float)
    if num_features is None:
        num_features = max(feature_count(samples), len(w))
    layout = graph.layout()
    stack = ThetaStack(samples, layout)
    cvals = CountingNumbers.of(graph, counting).values
    objective = BatchObjective(layout, stack, eps, cvals, C, num_features)
    lam = np.stack([st.vec for st in states]) if states else np.zeros((0, layout.message_total))
    return objective.report(lam, stack.rows(w), w)


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
    return report_at(graph, samples, states, w, eps, counting, C)[0].primal


def _at_beliefs(graph: RegionGraph, samples: list[Sample], beliefs, num_features):
    """The theta stack of ``samples``, the belief rows of per-region
    ``beliefs`` tables and the feature count."""
    layout = graph.layout()
    rows = [belief_row(layout, tables) for tables in beliefs]
    bmat = np.stack(rows) if rows else np.zeros((0, layout.total))
    if num_features is None:
        num_features = feature_count(samples)
    return ThetaStack(samples, layout), bmat, num_features


def moment_mismatch(
    graph: RegionGraph,
    samples: list[Sample],
    beliefs: list[list[np.ndarray]],
    num_features: int | None = None,
) -> np.ndarray:
    """Belief-weighted feature expectations minus empirical features, each
    summed over samples in list order."""
    stack, bmat, num_features = _at_beliefs(graph, samples, beliefs, num_features)
    return stack.expectations(bmat, num_features) - stack.empirical(num_features)


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
    stack, bmat, num_features = _at_beliefs(graph, samples, beliefs, num_features)
    cvals = CountingNumbers.of(graph, counting).values
    return BatchObjective(graph.layout(), stack, eps, cvals, C, num_features).dual(bmat)[0]


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
    consistent and the certificate holds (``Guarantees``); the report is
    marked uncertified otherwise.
    """
    return report_at(graph, samples, states, w, eps, counting, C, num_features)[0]


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
