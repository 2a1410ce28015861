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
inconsistent; both blocks are exact block descents, so where descent holds
(``inference.Guarantees``) convexity guarantees the blend converges, with
every step monotonically decreasing the primal.  The block's sweeps stay
plain block minimizations (see KAPPA_CAP); the 50 stall-recovery sweeps and
prediction take the guarded extrapolation of
``inference.sweep_until_consistent``, which only ever lowers the block
objective.

Where descent holds, the blended iterate x = (w, lambda) is extrapolated
the same way: after every EXTRAPOLATE_EVERY = 5 iterations ``train``
combines the last 6 iterates by ``inference._extrapolate`` (nonlinear
acceleration, Scieur, d'Aspremont and Bach, 2016) and moves to
the point only if its primal is strictly below the current one (the
monotone safeguard of Zhang, O'Donoghue and Boyd, 2020), so the primal
still never rises.  On the benchmark corpora it cuts the weight steps from
228 to 71 on ``highorder`` and from 213 to 119 on ``denoise10``.

The weight step takes the step a top-down Armijo scan from ``eta0`` takes.
Where descent holds the search first tests one grid step above the previous
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

from dataclasses import dataclass, field

import numpy as np

from .inference import (
    MessageState,
    _extrapolate,
    belief_vec,
    message_potentials,
    sweep_until_consistent,
    sweep_vec,
)
from .model import CountingNumbers, RegionGraph, Sample, ThetaStack, _spans
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

# The default inference block sweeps each sample until its residual is at
# most KAPPA times the previous step's gradient norm, KAPPA_CAP sweeps at most:
# one sweep, then an engine call of at most KAPPA_CAP - 1 = 9, below
# inference.EXTRAPOLATE_EVERY, so that the block's sweeps stay plain.  The
# gradient norm is the one after the iteration's extrapolation, when taken.
KAPPA = 0.1
KAPPA_CAP = 10

# K of ``train``'s extrapolation.  On a 6x6 denoising corpus, with K = 10 the
# default block took more weight steps than one sweep per step (51 against
# 47); with K = 5, fewer (50 against 56).
EXTRAPOLATE_EVERY = 5

# An Armijo test whose margin is within ARMIJO_ULPS * 2^-52 of the summed
# sizes of the two objective values is left to the scan (``_line_search``).
ARMIJO_ULPS = 64


@dataclass
class TrainerConfig:
    eps: float = 1.0
    C: float = 1.0
    counting: str | np.ndarray | CountingNumbers | None = None  # CountingNumbers.of
    sweeps_per_step: int | None = None  # None: sweep until consistent (KAPPA)
    max_outer_iters: int = 1000
    primal_rel_tol: float = 1e-8
    residual_tol: float = 1e-6
    grad_norm_tol: float = 1e-6
    eta0: float = 1.0
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backtracks: int = 50

    def check(self) -> None:
        """``ValueError`` for a negative count, a non-finite tolerance or a step out of range."""
        if self.sweeps_per_step is not None and self.sweeps_per_step < 0:
            raise ValueError("sweeps per step must be at least 0")
        for name in ("max_outer_iters", "max_backtracks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if not np.isfinite([self.primal_rel_tol, self.residual_tol, self.grad_norm_tol]).all():
            raise ValueError("tolerances must be finite")
        for name, high in (("eta0", np.inf), ("backtrack", 1), ("sufficient_decrease", 1)):
            if not 0 < getattr(self, name) < high:
                raise ValueError(f"{name} must lie in (0, {high})")


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
    # the extrapolation of (w, lambda) after the step: None if not tried,
    # else whether it was taken; not logged
    extrapolated: bool | None = None

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


def _line_search(objective, lam_part, w, thetas, lse, gradient, cfg, prev=None):
    """Backtracking search on the batch ``objective`` at frozen messages
    from ``w``, whose theta rows are ``thetas`` and whose potentials thetas
    + lam_part have the region log-partitions ``lse``.  Returns the step
    and, unless it stalled, the accepted trial: its theta rows, potentials
    and Gibbs pass (the batch's region soft-max, with the log-partitions).

    The step is the first eta_m = eta0 * backtrack^m (made by repeated
    ``eta *= backtrack``, m = 0..max_backtracks) whose trial passes the
    Armijo test f(w - eta g) <= f(w) - sigma * eta * g.g, scanned from eta0
    down.  Given ``prev``, the previous step's m, the search first tests
    eta_s, s = max(prev - 1, 0):

    - Where descent holds the primal is convex in w at frozen messages, so
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
    stack, softmax, C = objective.stack, objective.terms.regions, objective.C

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
    continue.  A ``config`` (built from the arguments if None) whose eps,
    counting numbers or C are not the arguments' raises ``ValueError``, and
    a ``w`` short of the samples' features or a gradient unlike ``w`` ``ModelError``.
    """
    cfg = config or TrainerConfig(eps=eps, C=C, counting=counting)
    cfg.check()
    objective = BatchObjective(graph, samples, eps, counting, C, w=w)
    if config is not None and (
        (config.eps, config.C) != (objective.eps, objective.C)
        or not np.array_equal(CountingNumbers.of(graph, config.counting).values, objective.cvals)
    ):
        raise ValueError("config's eps, counting numbers or C differ from the arguments")
    w, gradient = objective.weights(w), objective.weights(gradient, "gradient")
    lam = np.array([st.vec for st in states]).reshape(len(states), objective.layout.message_total)
    lam_part = message_potentials(objective.layout, lam)
    thetas = objective.stack.rows(w)
    lse = objective.terms.regions(thetas + lam_part).lse
    return _line_search(objective, lam_part, w, thetas, lse, gradient, cfg)[0]


def train(
    graph: RegionGraph,
    samples: list[Sample],
    config: TrainerConfig,
    num_features: int | None = None,
    w0: np.ndarray | None = None,
    log_fn=None,
) -> TrainState:
    """Run the blended loop until the primal, residual and gradient criteria
    are all met, or the iteration budget runs out; each logged iteration
    includes its extrapolation (module docstring).  A bad config raises
    ``ValueError`` (``TrainerConfig.check``) before any sweep, and weights
    that do not fit the samples' feature ids ``ModelError``."""
    config.check()
    samples = sorted(samples, key=lambda s: s.id)
    eps, C = config.eps, config.C
    objective = BatchObjective(graph, samples, eps, config.counting, C, num_features)
    layout, stack, cvals = objective.layout, objective.stack, objective.cvals
    w = np.zeros(objective.num_features) if w0 is None else objective.weights(w0, "w0").copy()
    thetas = stack.rows(w)

    lam = np.zeros((len(samples), layout.message_total))
    state = TrainState(w=w, states=[MessageState(graph, row) for row in lam])

    # where descent holds, the iterates x = (w, lam) since the last
    # extrapolation as rows of nf + lam.size, ``filled`` of them so far
    nf, filled = objective.num_features, 0
    descent = objective.terms.guarantees.descent
    ring = np.empty((EXTRAPOLATE_EVERY, 1, nf + lam.size)) if descent else None
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
        block = sweep_until_consistent(layout, lam, thetas, eps, cvals, cap, tol)
        sweeps = config.sweeps_per_step
        if sweeps is None:
            sweeps = 1 + int(block.sweeps.max(initial=0))
        g_pre = objective.mismatch(block.beliefs) + C * state.w

        step, trial = _line_search(
            objective, block.message_part, state.w, thetas, block.lse, g_pre, config, prev
        )
        state.stalled = step.stalled
        state.w = step.w
        prev = step.backtracks if descent else None

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
        # free the engine's and the step's rows before the extrapolation and
        # the next block allocate their own
        del block, th, lse, bmat

        extrapolated = None
        if ring is not None:
            x = np.concatenate([state.w, lam.ravel()])[None]
            if filled == len(ring):
                point = _extrapolate(ring, x)[0]
                w_x, lam_x = point[:nf].copy(), point[nf:].reshape(lam.shape)
                thetas_x = stack.rows(w_x)
                report_x, z_x = objective.report(lam_x, thetas_x, w_x)
                extrapolated = report_x.primal < report.primal  # False for NaN
                if extrapolated:
                    state.w, thetas, report, z = w_x, thetas_x, report_x, z_x
                    lam[:] = lam_x  # in place: state.states view its rows
                    x[0] = point
                filled = 0  # the history restarts at the kept iterate
            ring[filled], filled = x, filled + 1
        state.report = report
        primal, residual = report.primal, report.marginal_residual
        grad_norm = float(np.linalg.norm(z + C * state.w))
        state.history.append(primal)
        if log_fn is not None:
            log_fn(IterationRecord(
                it, primal, report.dual, report.gap, residual, grad_norm, step.eta, sweeps,
                step.trials, extrapolated,
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
            sweep_until_consistent(layout, lam, thetas, eps, cvals, 50, config.residual_tol)
    return state


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

    Where the certificate holds (``inference.Guarantees``) the sweeps are
    accelerated by the guarded extrapolation of ``sweep_until_consistent``:
    at the trained weights of the benchmark (seed 1, 200-sweep cap) the test
    samples take 533 sweeps in all instead of 2,000 on ``denoise10``, where
    plain sweeps leave every one at the cap, and 120 instead of 326 on
    ``highorder``.  Each variable takes the argmax
    (ties to the lowest label) of its marginal under the belief of its
    containing region with the fewest variables (ties to the lowest id),
    summed in label order.  The returned residual measures how consistent the
    final beliefs are; a large value means the decode rests on disagreeing
    regions.
    """
    w = np.asarray(w, dtype=float)
    layout = graph.layout()
    cvals = CountingNumbers.of(graph, counting).values
    theta = ThetaStack(samples, layout).rows(w, include_loss=False)
    lam = np.zeros((len(samples), layout.message_total))
    block = sweep_until_consistent(layout, lam, theta, eps_infer, cvals, max_sweeps, residual_tol)
    residual, sweeps = block.residual, block.sweeps
    # each variable's owner: of its (region, variable) pairs, the region
    # with the fewest variables, ties to the lowest id
    region, variable, stride, card = graph._label_pairs
    order = np.lexsort((region, np.bincount(region)[region], variable))
    pick = order[np.searchsorted(variable[order], np.arange(graph.variable_count))]
    owner, stride, card = region[pick], stride[pick], card[pick]
    # every owner slot's (sample, variable, label) bin, labels ascending within a bin
    n, nv, width = len(samples), owner.size, int(card.max(initial=1))
    v = np.repeat(np.arange(nv), layout.sizes[owner])  # the variable of each owner slot
    slots = _spans(layout.offsets[owner], layout.sizes[owner])
    bins = v * width + (slots - layout.offsets[owner][v]) // stride[v] % card[v]
    bins = (np.arange(n)[:, None] * (nv * width) + bins).ravel()
    marg = np.bincount(bins, block.beliefs.take(slots, axis=1).ravel(), n * nv * width)
    # beliefs are nonnegative, so the empty bins past a variable's
    # cardinality never come first among the maxima
    labels = marg.reshape(n, nv, width).argmax(axis=2)
    capped = ~(residual <= residual_tol)  # at the cap, or NaN
    return [
        PredictResult(labels[i], float(residual[i]), int(sweeps[i]), bool(capped[i]))
        for i in range(n)
    ]
