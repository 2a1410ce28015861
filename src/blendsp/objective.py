"""Decomposed primal objective and pseudo-moment-matching dual.

The primal is the sum over samples and regions of per-region soft-max losses
(at temperatures eps * c_r) plus a quadratic weight regularizer.  The dual
evaluates weighted belief entropies plus expected loss minus a quadratic
moment-mismatch penalty; its value is a lower bound on the primal only at
beliefs that agree on their marginals, so reports carry a certification flag
tied to the marginal residual.

``BatchObjective`` builds the batch of every library call, of ``train`` and
of the ``gap`` command, and its ``report`` computes primal, dual, gap,
residual and certificate from the message matrix, the stacked theta rows
(``model.ThetaStack``) and the potentials thetas + message_potentials(lam)
(``inference``), which feed both the per-sample losses and the belief rows,
so the primal and the dual of one report rest on the same rounding of the
potentials.  ``train`` (after every weight step), the ``gap`` command,
``duality_report``, ``primal_objective`` and ``w_gradient`` all report with
the same arithmetic: those potentials, moment mismatch z = sum_i E_i -
sum_i emp_i and gradient z + C * w.  The same messages and weights therefore
give the same report, bit for bit, whichever of them computes it.  Only
``train`` hands in the potentials, log-partitions and beliefs it already
holds, those of its step; every other caller, ``gap`` included, hands in
messages and weights alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inference import (
    Guarantees,
    MessageState,
    _beliefs,
    _sample_inputs,
    belief_row,
    finite_weights,
    message_potentials,
    message_vec,
    region_index,
    residual_rows,
    sweep_plan,
)
from .model import CountingNumbers, ModelError, RegionGraph, Sample, ThetaStack

__all__ = [
    "ObjectiveReport",
    "region_loss",
    "BatchObjective",
    "primal_objective",
    "moment_mismatch",
    "dual_objective",
    "duality_report",
]

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
    The log-partition is the engine's region soft-max, bit for bit the one
    the reports sum.  A region id outside the graph raises ``ValueError``,
    a sample without true labels ``ModelError``.
    """
    region = region_index(graph.layout(), region)
    layout, terms, theta, lam = _sample_inputs(graph, sample, state, w, eps, counting, True)
    th = theta + message_potentials(layout, lam)
    true = sample.compiled().true_slots[0, region]
    return float(terms.regions(th).lse[0, region] - th[0, true])


class BatchObjective:
    """The objective of one batch of samples at fixed eps, counting numbers
    and C: the one code that turns a call's arguments into a batch (counting
    numbers, layout, theta stack, feature count: by default the samples', or
    the length of the weights ``w`` where that is larger), and the one path
    to primal, dual, gap, residual and certificate.  Before any sweep, a
    non-finite eps or a C outside [0, inf) raises ``ValueError`` and a
    ``num_features`` below the samples' count ``ModelError``.  What depends
    on (eps, c) is built on first use, so a batch with ``eps=None``, which
    only takes moments, builds none of it."""

    def __init__(
        self,
        graph: RegionGraph,
        samples: list[Sample],
        eps: float | None,
        counting=None,
        C: float = 0.0,
        num_features: int | None = None,
        w=None,
    ):
        if eps is not None and not math.isfinite(eps):
            raise ValueError("eps must be finite")
        if not 0 <= C < math.inf:
            raise ValueError("C must be nonnegative and finite")
        self.layout = graph.layout()
        self.cvals = CountingNumbers.of(graph, counting).values
        self.stack = ThetaStack(samples, self.layout)
        own = self.stack.feature_count
        if num_features is None:
            num_features = own if w is None else max(own, len(w))
        if num_features < own:
            raise ModelError(f"num_features={num_features} below the samples' {own}")
        self.num_features, self.eps, self.C = num_features, eps, C

    @cached_property
    def empirical(self) -> np.ndarray:
        """The summed empirical features; samples without true labels, as
        prediction's, never build them."""
        return self.stack.empirical(self.num_features)

    @cached_property
    def terms(self):
        """The region soft-max ``regions`` and the ``guarantees`` at (eps, c)."""
        return sweep_plan(self.layout).at(self.eps, self.cvals)

    def weights(self, w, name: str = "w") -> np.ndarray:
        """``w`` as floats; ``ModelError`` unless it has one weight per
        feature, ``ValueError`` unless all are finite (``finite_weights``)."""
        w = np.asarray(w, dtype=float)
        if len(w) != self.num_features:
            raise ModelError(f"{name} has {len(w)} weights for num_features={self.num_features}")
        return finite_weights(w, name)

    def message_rows(self, states: list[MessageState]) -> np.ndarray:
        """The message rows of ``states``, one per sample; ``ValueError``
        for another count of states or a state of another message count."""
        n = self.stack.shape[0]
        if len(states) != n:
            raise ValueError(f"{len(states)} message states for {n} samples")
        rows = [message_vec(self.layout, st, i) for i, st in enumerate(states)]
        return np.array(rows).reshape(n, self.layout.message_total)

    def belief_rows(self, beliefs: list[list[np.ndarray]]) -> np.ndarray:
        """The belief rows of per-sample lists of per-region tables."""
        rows = [belief_row(self.layout, t) for t in beliefs]
        return np.array(rows).reshape(-1, self.layout.total)

    def mismatch(self, bmat: np.ndarray) -> np.ndarray:
        """The moment mismatch z at the belief rows ``bmat``: summed feature
        expectations minus summed empirical features."""
        return self.stack.expectations(bmat, self.num_features) - self.empirical

    def dual(self, bmat: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual at the belief rows ``bmat``, and the moment mismatch z it
        penalizes."""
        z = self.mismatch(bmat)
        logb = np.where(bmat > 0, np.log(np.where(bmat > 0, bmat, 1.0)), 0.0)
        t_slot = self.terms.regions.t[self.layout.segment]
        value = float(-(bmat * logb * t_slot).sum() + (bmat * self.stack.loss).sum())
        return value - moment_penalty(z, self.C), z

    def primal(self, w: np.ndarray, potentials: np.ndarray, lse: np.ndarray):
        """(primal, per-sample losses, 1/2 C w.w, per-sample true sums) at
        the weights ``w`` and potentials with region log-partitions ``lse``:
        each loss sums its log-partitions minus the potentials at the true
        labels, and the primal the losses in list order, then 1/2 C w.w.
        ``report`` logs it; ``learner._line_search`` steps on it."""
        sums = self.stack.true_sums(potentials)
        losses = (lse.sum(axis=1) - sums).tolist()
        reg = 0.5 * self.C * float(w @ w)
        return sum(losses) + reg, losses, reg, sums

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
        potentials) are given together or computed here by
        ``inference._beliefs``: ``train`` passes its weight step's, every
        other caller none.  The primal is ``primal``'s.
        """
        if potentials is None:
            bmat, part, lse = _beliefs(self.layout, lam, thetas, self.eps, self.cvals)
            potentials = thetas + part
        primal, losses, reg, _ = self.primal(w, potentials, lse)
        residual = float(residual_rows(self.layout, bmat).max()) if lam.shape[0] else 0.0
        dual, z = self.dual(bmat)
        report = ObjectiveReport(
            primal=primal,
            dual=dual,
            gap=primal - dual,
            marginal_residual=residual,
            certified=certifies(residual, primal - dual, self.terms.guarantees),
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
    """``BatchObjective.report`` at the messages of ``states``; the feature
    count defaults to the larger of the samples' and ``len(w)``."""
    objective = BatchObjective(graph, samples, eps, counting, C, num_features, w)
    w = objective.weights(w)
    return objective.report(objective.message_rows(states), objective.stack.rows(w), w)


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


def moment_mismatch(
    graph: RegionGraph,
    samples: list[Sample],
    beliefs: list[list[np.ndarray]],
    num_features: int | None = None,
) -> np.ndarray:
    """Belief-weighted feature expectations minus empirical features, each
    summed over samples in list order."""
    objective = BatchObjective(graph, samples, None, num_features=num_features)
    return objective.mismatch(objective.belief_rows(beliefs))


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
    objective = BatchObjective(graph, samples, eps, counting, C, num_features)
    return objective.dual(objective.belief_rows(beliefs))[0]


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

