"""Blended learning and inference: message sweeps interleaved with weight steps.

One outer iteration runs an inference block on every sample followed by a
single gradient step on the weights with Armijo backtracking on the primal
(messages frozen).  By default the inference block is one sweep, then more
sweeps on each sample until its marginal residual is at most KAPPA times the
previous step's gradient norm (and at least ``residual_tol``), up to
KAPPA_CAP sweeps: a weight step is worth little while the beliefs it rests on
are far from consistent, and sweeps are wasted once they are more consistent
than the weights are optimal.  ``sweeps_per_step = N`` runs exactly N sweeps
instead.  The weights may move while beliefs are still marginally
inconsistent; both blocks are exact block descents, so convexity guarantees
the blend converges for eps >= 0 and nonnegative counting numbers, with every
step monotonically decreasing the primal.

Samples are independent: the trainer stores all message vectors as rows of
one matrix and sweeps them together in one set of numpy calls, and
prediction runs every sample through the same batched engine.  Per-row
arithmetic is identical no matter how rows are grouped, and gradient
contributions are reduced in sample-id order, so results are bitwise
independent of the batch.  ``worker_count`` is deprecated and ignored: a
thread pool over row blocks was measured no faster, because a sweep costs
nearly the same at any batch size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .inference import (
    MessageState,
    belief_vec,
    counting_values,
    residual_rows,
    segmented_lse,
    sweep_until_consistent,
    sweep_vec,
    theta_hat_vec,
    theta_rows,
)
from .model import CountingNumbers, RegionGraph, Sample, feature_count
from .objective import ObjectiveReport, certifies, entropy_loss_value, moment_penalty

__all__ = [
    "TrainerConfig",
    "TrainState",
    "IterationRecord",
    "StepResult",
    "PredictResult",
    "w_gradient",
    "w_step",
    "train",
    "predict",
    "predict_all",
]

logger = logging.getLogger(__name__)

# The default inference block sweeps each sample until its residual is at
# most KAPPA times the previous step's gradient norm, KAPPA_CAP sweeps at most.
KAPPA = 0.1
KAPPA_CAP = 10


@dataclass
class TrainerConfig:
    eps: float = 1.0
    C: float = 1.0
    c_scheme: str = "ones"  # ones | bethe | file
    c_values: np.ndarray | None = None
    sweeps_per_step: int | None = None  # None: sweep until consistent (KAPPA)
    max_outer_iters: int = 1000
    primal_rel_tol: float = 1e-8
    residual_tol: float = 1e-6
    grad_norm_tol: float = 1e-6
    eta0: float = 1.0
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backtracks: int = 50
    worker_count: int = 1  # deprecated and ignored; results do not depend on it
    seed: int = 0

    def counting(self, graph: RegionGraph) -> CountingNumbers:
        if self.c_scheme == "ones":
            return CountingNumbers.ones(graph)
        if self.c_scheme == "bethe":
            return CountingNumbers.bethe(graph)
        if self.c_scheme == "file":
            if self.c_values is None:
                raise ValueError("c_scheme 'file' requires c_values")
            if len(self.c_values) != graph.region_count:
                raise ValueError("c_values length does not match the region count")
            return CountingNumbers.from_values(self.c_values)
        raise ValueError(f"unknown counting scheme {self.c_scheme!r}")

    def convex_mode(self, counting: CountingNumbers) -> bool:
        return self.eps >= 0 and bool((counting.values >= 0).all())


@dataclass
class IterationRecord:
    iteration: int
    primal: float
    dual: float
    gap: float
    residual: float
    grad_norm: float
    eta: float
    sweeps: int  # the most sweeps any sample had before the step; not logged

    def format_line(self) -> str:
        return (
            f"{self.iteration} {self.primal:.12g} {self.dual:.12g} {self.gap:.12g} "
            f"{self.residual:.12g} {self.grad_norm:.12g} {self.eta:.12g}"
        )


@dataclass
class TrainState:
    w: np.ndarray
    states: list[MessageState]
    iteration: int = 0
    history: list[float] = field(default_factory=list)
    report: ObjectiveReport | None = None
    converged: bool = False
    stalled: bool = False


@dataclass
class StepResult:
    w: np.ndarray
    eta: float
    stalled: bool
    objective: float


@dataclass
class PredictResult:
    labels: np.ndarray
    residual: float
    sweeps: int
    capped: bool  # stopped at max_sweeps with the residual above its tolerance


def w_gradient(
    graph: RegionGraph,
    samples: list[Sample],
    states: list[MessageState],
    w: np.ndarray,
    eps: float,
    counting=None,
    C: float = 0.0,
    num_features: int | None = None,
) -> np.ndarray:
    """Gradient of the primal in the weights at frozen messages.

    Per feature: belief-weighted feature expectation minus the empirical
    value, summed over samples in id order, plus C * w.
    """
    w = np.asarray(w, dtype=float)
    if num_features is None:
        num_features = max(feature_count(samples), len(w))
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    g = np.zeros(num_features)
    for sample, state in zip(samples, states):
        compiled = sample.compiled()
        theta = compiled.theta_vec(w, include_loss=True)
        bvec = belief_vec(layout, state.vec[None, :], theta[None, :], eps, cvals)[0]
        g += compiled.feature_expectation(bvec, num_features)
        g -= sample.empirical_features(num_features)
    return g + C * w


class _ThetaStack:
    """The theta rows (loss included) of a list of samples as one affine map
    of the weights: every row is built by one bincount over stacked (sample,
    slot) bins, each bin summed in ``CompiledSample.theta_vec``'s order."""

    def __init__(self, compiled, total: int):
        self.shape = (len(compiled), total)
        cat = lambda xs, d: np.concatenate(xs) if xs else np.zeros(0, dtype=d)
        self.bins = cat([i * total + cs.feat_rows for i, cs in enumerate(compiled)], np.int64)
        self.cols = cat([cs.feat_cols for cs in compiled], np.int64)
        self.vals = cat([cs.feat_vals for cs in compiled], float)
        self.loss = (
            np.stack([cs.loss_vec for cs in compiled]) if compiled else np.zeros(self.shape)
        )
        self.true_slots = (
            np.stack([cs.true_slots for cs in compiled])
            if compiled
            else np.zeros((0, 0), dtype=np.int64)
        )

    def rows(self, w: np.ndarray) -> np.ndarray:
        n, total = self.shape
        weights = w.take(self.cols)
        weights *= self.vals
        # bincount without entries returns integers; the loss is added in place
        # to save one (samples, slots) temporary per line-search trial
        out = np.bincount(self.bins, weights, n * total).astype(float, copy=False)
        out = out.reshape(n, total)
        out += self.loss
        return out

    def true_sums(self, th: np.ndarray) -> np.ndarray:
        """Per row, the sum of ``th`` at the sample's true labels."""
        return np.take_along_axis(th, self.true_slots, axis=1).sum(axis=1)


def _line_search(layout, stack, lam_part, t_regions, w, thetas, gradient, C, cfg):
    """Backtracking search at frozen messages from ``w``, whose theta rows
    are ``thetas``.  Returns the step and the theta rows, message-
    parameterized potentials and region log-partitions at the step's w."""
    g = np.asarray(gradient, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("gradient must be finite")

    def objective(w_at, thetas_at):
        th = thetas_at + lam_part
        lse = segmented_lse(layout, th, t_regions)
        total = 0.5 * C * float(w_at @ w_at)
        total += float(lse.sum())
        total -= sum(stack.true_sums(th).tolist())
        return total, (thetas_at, th, lse)

    f0, at_w = objective(w, thetas)
    gg = float(g @ g)
    eta = cfg.eta0
    for _ in range(cfg.max_backtracks + 1):
        w_try = w - eta * g
        f_try, at_try = objective(w_try, stack.rows(w_try))
        if np.isfinite(f_try) and f_try <= f0 - cfg.sufficient_decrease * eta * gg:
            return StepResult(w=w_try, eta=eta, stalled=False, objective=f_try), at_try
        del at_try  # free the rejected trial's rows before the next trial
        eta *= cfg.backtrack
    return StepResult(w=w.copy(), eta=0.0, stalled=True, objective=f0), at_w


def w_step(
    graph: RegionGraph,
    samples: list[Sample],
    states: list[MessageState],
    w: np.ndarray,
    gradient: np.ndarray,
    eps: float,
    counting=None,
    C: float = 0.0,
    config: TrainerConfig | None = None,
) -> StepResult:
    """Backtracking line search along the negative gradient, messages frozen.

    Accepts the largest eta = eta0 * beta^m with sufficient decrease
    f(w - eta g) <= f(w) - sigma * eta * ||g||^2.  Exhausting the backtracks
    keeps w and flags a stall (not fatal); non-finite trial values shrink and
    continue.
    """
    cfg = config or TrainerConfig(eps=eps, C=C)
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    stack = _ThetaStack([s.compiled() for s in samples], layout.total)
    lam = (
        np.stack([st.vec for st in states])
        if states
        else np.zeros((0, layout.message_total))
    )
    lam_part = theta_hat_vec(layout, np.zeros((len(samples), layout.total)), lam)
    w = np.asarray(w, dtype=float)
    step, _ = _line_search(
        layout, stack, lam_part, eps * cvals, w, stack.rows(w), gradient, C, cfg
    )
    return step


def train(
    graph: RegionGraph,
    samples: list[Sample],
    config: TrainerConfig,
    num_features: int | None = None,
    w0: np.ndarray | None = None,
    log_fn=None,
) -> TrainState:
    """Run the blended loop until the primal, residual and gradient criteria
    are all met, or the iteration budget runs out."""
    if config.sweeps_per_step is not None and config.sweeps_per_step < 0:
        raise ValueError("sweeps per step must be at least 0")
    if num_features is None:
        num_features = feature_count(samples)
    samples = sorted(samples, key=lambda s: s.id)
    n = len(samples)
    layout = graph.layout()
    counting = config.counting(graph)
    cvals = counting.values
    t_regions = config.eps * cvals
    eps, C = config.eps, config.C
    if not config.convex_mode(counting):
        logger.warning(
            "non-convex mode (eps or some c_r negative): monotone descent and "
            "gap certification are not guaranteed"
        )
    w = np.zeros(num_features) if w0 is None else np.asarray(w0, dtype=float).copy()
    compiled = [s.compiled() for s in samples]
    empirical = np.zeros(num_features)
    for s in samples:
        empirical += s.empirical_features(num_features)
    t_slot = t_regions[layout.segment]
    stack = _ThetaStack(compiled, layout.total)
    thetas = stack.rows(w)

    lam = np.zeros((n, layout.message_total))
    state = TrainState(w=w, states=[MessageState.from_view(graph, row) for row in lam])

    def expectations(bmat):
        expect = np.zeros(num_features)
        for i, cs in enumerate(compiled):
            expect += cs.feature_expectation(bmat[i], num_features)
        return expect

    prev_primal = None
    grad_norm = np.inf
    for it in range(1, config.max_outer_iters + 1):
        state.iteration = it
        if config.sweeps_per_step is None:
            sweep_vec(layout, lam, thetas, eps, cvals)
            tol = max(config.residual_tol, KAPPA * grad_norm)
            bmat, _, extra = sweep_until_consistent(
                layout, lam, thetas, eps, cvals, KAPPA_CAP - 1, tol
            )
            sweeps = 1 + int(extra.max(initial=0))
        else:
            for _ in range(config.sweeps_per_step):
                sweep_vec(layout, lam, thetas, eps, cvals)
            bmat = belief_vec(layout, lam, thetas, eps, cvals)
            sweeps = config.sweeps_per_step
        lam_part = theta_hat_vec(layout, np.zeros((n, layout.total)), lam)
        g_pre = expectations(bmat) - empirical + C * state.w

        step, (thetas, th, lse) = _line_search(
            layout, stack, lam_part, t_regions, state.w, thetas, g_pre, C, config
        )
        state.stalled = step.stalled
        eta = step.eta
        state.w = step.w

        # post-step diagnostics; the moment mismatch doubles as the gradient
        per_sample = (lse.sum(axis=1) - stack.true_sums(th)).tolist()
        del th, lse  # large; freed before the belief pass allocates its own
        bmat = belief_vec(layout, lam, thetas, eps, cvals)
        residual = float(residual_rows(layout, bmat).max()) if n else 0.0
        reg = 0.5 * C * float(state.w @ state.w)
        primal = sum(per_sample) + reg
        z = expectations(bmat) - empirical
        dual = entropy_loss_value(bmat, stack.loss, t_slot) - moment_penalty(z, C)
        g_post = z + C * state.w
        grad_norm = float(np.linalg.norm(g_post))
        state.report = ObjectiveReport(
            primal=primal,
            dual=dual,
            gap=primal - dual,
            marginal_residual=residual,
            certified=certifies(residual, primal - dual, eps, cvals),
            per_sample_loss=per_sample,
            regularizer=reg,
        )
        state.history.append(primal)
        if log_fn is not None:
            log_fn(
                IterationRecord(
                    iteration=it,
                    primal=primal,
                    dual=dual,
                    gap=primal - dual,
                    residual=residual,
                    grad_norm=grad_norm,
                    eta=eta,
                    sweeps=sweeps,
                )
            )

        rel = (
            0.0
            if prev_primal is None
            else (prev_primal - primal) / max(1.0, abs(prev_primal))
        )
        prev_primal = primal
        if (
            abs(rel) < config.primal_rel_tol
            and residual < config.residual_tol
            and grad_norm < config.grad_norm_tol
        ):
            state.converged = True
            break

        # a stalled weight step with inconsistent beliefs: up to 50 more
        # sweeps, the inference block cannot increase the objective
        if step.stalled and residual > config.residual_tol:
            sweep_until_consistent(layout, lam, thetas, eps, cvals, 50, config.residual_tol)
    return state


def _smallest_containing_region(graph: RegionGraph) -> list[int]:
    """Per variable, the containing region with the fewest variables
    (ties to the lowest region id)."""
    best = [-1] * graph.variable_count
    for reg in graph.regions:
        for v in reg.variables:
            if best[v] < 0 or len(reg.variables) < len(graph.regions[best[v]].variables):
                best[v] = reg.id
    return best


def predict(
    graph: RegionGraph,
    sample: Sample,
    w: np.ndarray,
    eps_infer: float,
    counting=None,
    max_sweeps: int = 100,
    residual_tol: float = 1e-8,
) -> PredictResult:
    """Loss-free inference sweeps followed by per-variable decoding; a batch
    of one through ``predict_all``."""
    return predict_all(graph, [sample], w, eps_infer, counting, max_sweeps, residual_tol)[0]


def predict_all(
    graph: RegionGraph,
    samples: list[Sample],
    w: np.ndarray,
    eps_infer: float,
    counting=None,
    max_sweeps: int = 100,
    residual_tol: float = 1e-8,
) -> list[PredictResult]:
    """Loss-free inference on every sample at once, then per-variable decoding.

    Each variable takes the argmax (ties to the lowest label) of its marginal
    under the belief of its smallest containing region.  The returned
    residual measures how consistent the final beliefs are; a large value
    means the decode rests on disagreeing regions.
    """
    w = np.asarray(w, dtype=float)
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    theta = theta_rows(layout, samples, w, include_loss=False)
    lam = np.zeros((len(samples), layout.message_total))
    b, residual, sweeps = sweep_until_consistent(
        layout, lam, theta, eps_infer, cvals, max_sweeps, residual_tol
    )
    decoders = []
    for v, owner in enumerate(_smallest_containing_region(graph)):
        reg = graph.regions[owner]
        pos = reg.variables.index(v)
        stride = int(reg.strides()[pos])
        card = reg.cardinalities[pos]
        digits = (np.arange(reg.label_count, dtype=np.int64) // stride) % card
        decoders.append((layout.region_slices[owner], digits, card))
    capped = (sweeps == max_sweeps) & (residual > residual_tol)
    results = []
    for i in range(len(samples)):
        labels = np.zeros(graph.variable_count, dtype=np.int64)
        for v, (region_slice, digits, card) in enumerate(decoders):
            marg = np.bincount(digits, weights=b[i, region_slice], minlength=card)
            labels[v] = int(np.argmax(marg))
        results.append(PredictResult(labels, float(residual[i]), int(sweeps[i]), bool(capped[i])))
    return results
