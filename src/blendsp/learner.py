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
step monotonically decreasing the primal.  The block's sweeps, and the
stall-recovery sweeps, are plain block minimizations (omega = 1): a fixed
over-relaxation of 1.6 took 285 iterations on the 3-level ``highorder``
benchmark against 228.  Prediction sweeps over-relaxed, under the guard of
``inference.sweep_until_consistent``.

The weight step takes the step a top-down Armijo scan from ``eta0`` takes.
In convex mode the search first tests one grid step above the previous
step and skips the scan above that test when it fails by more than its
rounding error; where rounding could decide the test it scans from
``eta0`` (``_line_search``).  On ``highorder``, whose steps are 2^-3 or 2^-4,
that is about 2.4 trials per step instead of 4.4, with the same steps.

Samples are independent: the trainer stores all message vectors as rows of
one matrix and sweeps them together in one set of numpy calls, and
prediction runs every sample through the same batched engine.  Per-row
arithmetic is identical no matter how rows are grouped, and gradient
contributions are reduced in sample-id order, so results are bitwise
independent of the batch.  A thread pool over row blocks was measured no
faster.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .inference import (
    MessageState,
    belief_vec,
    counting_values,
    message_potentials,
    sweep_plan,
    sweep_until_consistent,
    sweep_vec,
)
from .model import CountingNumbers, RegionGraph, Sample, ThetaStack, feature_count
from .objective import BatchObjective, ObjectiveReport, report_at

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

# An Armijo test whose margin is within ARMIJO_ULPS * 2^-52 of the summed
# sizes of the two objective values is left to the scan (``_line_search``).
ARMIJO_ULPS = 64


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

    def counting(self, graph: RegionGraph) -> CountingNumbers:
        return CountingNumbers.from_scheme(graph, self.c_scheme, self.c_values)

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
    trials: int  # the step's objective trials; not logged

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
    trials: int  # objective evaluations of the search, f(w) not counted
    backtracks: int | None  # m of eta = eta0 * backtrack^m; None for a stall


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
    value, each summed over samples in list order, plus C * w.
    """
    w = np.asarray(w, dtype=float)
    _, z = report_at(graph, samples, states, w, eps, counting, C, num_features)
    return z + C * w


def _line_search(stack, lam_part, softmax, w, thetas, lse, gradient, C, cfg, prev=None):
    """Backtracking search at frozen messages from ``w``, whose theta rows
    are ``thetas`` and whose potentials thetas + lam_part have the region
    log-partitions ``lse``.  Returns the step and, unless it stalled, the
    accepted trial: its theta rows, message-parameterized potentials and
    Gibbs pass (the region ``softmax``'s, which holds the log-partitions).

    The step is the first eta_m = eta0 * backtrack^m (made by repeated
    ``eta *= backtrack``, m = 0..max_backtracks) whose trial passes the
    Armijo test f(w - eta g) <= f(w) - sigma * eta * g.g, scanned from eta0
    down.  Given ``prev``, the previous step's m, the search first tests
    eta_s, s = max(prev - 1, 0):

    - In convex mode the primal is convex in w at frozen messages, so
      phi(eta) = f(w - eta g) - f(w) + sigma * eta * g.g is convex with
      phi(0) = 0, and phi(eta) / eta is nondecreasing: a fail at eta_s is a
      fail at every larger eta.  When the test fails clearly, the scan
      starts at s + 1, where it would have arrived.
    - A test is clear when |f_try - (f0 - sigma * eta * g.g)| exceeds a
      bound on the rounding error of the two computed values.  Each sums
      1/2 C w.w, the region log-partitions and the negated true-label sums.
      A dot product or numpy's pairwise sum of N terms errs by at most
      about (log2 N + 8) u times the sum of its terms' absolute values
      (u = 2^-53), Python's sum over n samples by n u, and each term
      carries a few roundings of its own size.  With S = 1/2 C w.w +
      sum |lse| + sum over samples of |true sum|, the bound is
      ARMIJO_ULPS * 2^-52 * (S_try + S_0), 128 u per unit of S, which
      covers these counts for the tested and benchmarked corpora.
      Potentials much larger than their log-partitions can make it
      optimistic.
    - Any other outcome scans from eta0 as ``prev=None`` does, reusing the
      trial: at most one trial more than the scan, none computed twice.

    So where rounding could decide the test, as late in a run whose primal
    is flat to 12 digits, the step is the scan's.  Where the bound fails it
    may differ, but every accepted trial passes the computed test.  Only a
    trial that may be accepted keeps its rows: a rejected trial's are freed
    before the next one.
    """
    g = np.asarray(gradient, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("gradient must be finite")

    def value(w_at, th, lse_at):
        """The primal and S, the sum of its terms' absolute values."""
        reg = 0.5 * C * float(w_at @ w_at)
        sums = stack.true_sums(th)
        total = reg + float(lse_at.sum())
        total -= sum(sums.tolist())
        return total, reg + float(np.abs(lse_at).sum()) + float(np.abs(sums).sum())

    f0, size0 = value(w, thetas + lam_part, lse)
    gg = float(g @ g)
    etas = [cfg.eta0]
    for _ in range(cfg.max_backtracks):
        etas.append(etas[-1] * cfg.backtrack)
    trials = 0

    def attempt(m):
        """Trial m, (w, objective, rows) if it passes, else None, and
        whether its test is clear of rounding."""
        nonlocal trials
        trials += 1
        eta = etas[m]
        w_try = w - eta * g
        thetas_try = stack.rows(w_try)
        th = thetas_try + lam_part
        terms = softmax(th)
        f_try, size = value(w_try, th, terms.lse)
        bar = f0 - cfg.sufficient_decrease * eta * gg
        clear = abs(f_try - bar) > ARMIJO_ULPS * 2.0**-52 * (size + size0)  # False for NaN
        passed = np.isfinite(f_try) and f_try <= bar
        return ((w_try, f_try, (thetas_try, th, terms)) if passed else None), clear

    start, known = 0, {}  # the scan's first index, and the trial it reuses
    if prev is not None:
        s = max(prev - 1, 0)
        known[s], clear = attempt(s)
        if known[s] is None and clear:
            start = s + 1  # every larger eta fails too
    for m in range(start, len(etas)):
        found = known[m] if m in known else attempt(m)[0]
        if found is not None:
            w_try, f_try, rows = found
            return StepResult(w_try, etas[m], False, f_try, trials, m), rows
    return StepResult(w.copy(), 0.0, True, f0, trials, None), None


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
    stack = ThetaStack(samples, layout)
    lam = np.stack([st.vec for st in states]) if states else np.zeros((0, layout.message_total))
    lam_part = message_potentials(layout, lam)
    w = np.asarray(w, dtype=float)
    thetas = stack.rows(w)
    softmax = sweep_plan(layout).at(eps, cvals).regions
    lse = softmax(thetas + lam_part).lse
    return _line_search(stack, lam_part, softmax, w, thetas, lse, gradient, C, cfg)[0]


def train(
    graph: RegionGraph,
    samples: list[Sample],
    config: TrainerConfig,
    num_features: int | None = None,
    w0: np.ndarray | None = None,
    log_fn=None,
) -> TrainState:
    """Run the blended loop until the primal, residual and gradient criteria
    are all met, or the iteration budget runs out.  Non-finite tolerances and
    a negative budget raise ``ValueError`` before any sweep."""
    if config.sweeps_per_step is not None and config.sweeps_per_step < 0:
        raise ValueError("sweeps per step must be at least 0")
    if config.max_outer_iters < 0:
        raise ValueError("max_outer_iters must be at least 0")
    if not np.isfinite([config.primal_rel_tol, config.residual_tol, config.grad_norm_tol]).all():
        raise ValueError("tolerances must be finite")
    if num_features is None:
        num_features = feature_count(samples)
    samples = sorted(samples, key=lambda s: s.id)
    n = len(samples)
    layout = graph.layout()
    counting = config.counting(graph)
    cvals = counting.values
    eps, C = config.eps, config.C
    convex = config.convex_mode(counting)
    if not convex:
        logger.warning(
            "non-convex mode (eps or some c_r negative): monotone descent and "
            "gap certification are not guaranteed"
        )
    w = np.zeros(num_features) if w0 is None else np.asarray(w0, dtype=float).copy()
    stack = ThetaStack(samples, layout)
    objective = BatchObjective(layout, stack, eps, cvals, C, num_features)
    thetas = stack.rows(w)

    lam = np.zeros((n, layout.message_total))
    state = TrainState(w=w, states=[MessageState(graph, row) for row in lam])

    prev_primal = None
    grad_norm = np.inf
    prev = None  # the last step's backtrack count, where the primal is convex in w
    for it in range(1, config.max_outer_iters + 1):
        state.iteration = it
        if config.sweeps_per_step is None:
            sweep_vec(layout, lam, thetas, eps, cvals)
            cap, tol = KAPPA_CAP - 1, max(config.residual_tol, KAPPA * grad_norm)
        else:
            for _ in range(config.sweeps_per_step):
                sweep_vec(layout, lam, thetas, eps, cvals)
            cap, tol = 0, 0.0
        block = sweep_until_consistent(layout, lam, thetas, eps, cvals, cap, tol, omega=1.0)
        sweeps = config.sweeps_per_step
        if sweeps is None:
            sweeps = 1 + int(block.sweeps.max(initial=0))
        g_pre = (
            stack.expectations(block.beliefs, num_features) - objective.empirical + C * state.w
        )

        step, trial = _line_search(
            stack, block.message_part, objective.regions, state.w, thetas, block.lse,
            g_pre, C, config, prev,
        )
        state.stalled = step.stalled
        state.w = step.w
        prev = step.backtracks if convex else None

        # post-step diagnostics at the accepted trial's potentials (a stalled
        # step keeps the engine's); the moment mismatch doubles as the gradient
        if trial is None:
            th, lse, bmat = thetas + block.message_part, block.lse, block.beliefs
        else:
            # the beliefs are allocated before the last step's rows are freed
            # (README, Notes: minor faults of library calls)
            bmat = belief_vec(layout, lam, trial[0], eps, cvals, trial[2])
            thetas, th, terms = trial
            lse = terms.lse
            del trial, terms  # free the exponentials while the next block sweeps
        report, z = objective.report(lam, thetas, state.w, th, lse, bmat)
        del block  # free the engine's rows before the next block allocates its own
        state.report = report
        primal, residual = report.primal, report.marginal_residual
        grad_norm = float(np.linalg.norm(z + C * state.w))
        state.history.append(primal)
        if log_fn is not None:
            log_fn(IterationRecord(
                it, primal, report.dual, report.gap, residual, grad_norm, step.eta, sweeps,
                step.trials,
            ))

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
            sweep_until_consistent(
                layout, lam, thetas, eps, cvals, 50, config.residual_tol, omega=1.0
            )
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

    The sweeps are over-relaxed at ``inference.OMEGA`` and guarded by the
    block objective where that guard has a descent guarantee, eps > 0 and
    positive counting numbers (``sweep_until_consistent``); on grids they
    need a fraction of the plain sweeps.  Each variable takes the argmax
    (ties to the lowest label) of its marginal under the belief of its
    smallest containing region.  The returned residual measures how consistent the final beliefs
    are; a large value means the decode rests on disagreeing regions.
    """
    w = np.asarray(w, dtype=float)
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    theta = ThetaStack(samples, layout).rows(w, include_loss=False)
    lam = np.zeros((len(samples), layout.message_total))
    block = sweep_until_consistent(layout, lam, theta, eps_infer, cvals, max_sweeps, residual_tol)
    b, residual, sweeps = block.beliefs, block.residual, block.sweeps
    decoders = []
    for v, owner in enumerate(_smallest_containing_region(graph)):
        reg = graph.regions[owner]
        pos = reg.variables.index(v)
        stride = int(reg.strides()[pos])
        card = reg.cardinalities[pos]
        digits = (np.arange(reg.label_count, dtype=np.int64) // stride) % card
        decoders.append((layout.region_slices[owner], digits, card))
    capped = ~(residual <= residual_tol)  # at the cap, or NaN
    results = []
    for i in range(len(samples)):
        labels = np.zeros(graph.variable_count, dtype=np.int64)
        for v, (region_slice, digits, card) in enumerate(decoders):
            marg = np.bincount(digits, weights=b[i, region_slice], minlength=card)
            labels[v] = int(np.argmax(marg))
        results.append(PredictResult(labels, float(residual[i]), int(sweeps[i]), bool(capped[i])))
    return results
