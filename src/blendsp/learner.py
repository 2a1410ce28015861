"""Blended learning and inference: message sweeps interleaved with weight steps.

``train`` builds the batch (``objective.BatchObjective``) and a
``TrainState``, which holds all that one iteration hands to the next: the
weights w, the message rows lam (``states`` views them), the theta rows at
w, the last gradient norm ``grad_norm``, the ``block`` size, the last
step's ``backtracks`` and the extrapolation ``ring``.  It runs ``_iterate``
on them until the stopping test holds or the budget runs out.  One outer
iteration runs an inference block of ``block`` sweeps on every sample
followed by a single gradient step on the weights with Armijo backtracking
on the primal (messages frozen).  By default the block starts at one sweep
and, where descent holds (``inference.Guarantees``), grows by one sweep, up
to KAPPA_CAP, after each step whose marginal residual exceeds KAPPA times
its gradient norm: a weight step is worth little while the beliefs it rests
on are far from consistent.  It never shrinks, so the map the extrapolation
below fits changes at most KAPPA_CAP - 1 times.  Without descent it stays
one sweep (under Bethe numbers two or three per step can cycle where one
converges).  ``sweeps_per_step = N`` runs exactly N sweeps instead.  Every
block is an exact block descent of plain sweeps, so where descent holds
convexity guarantees the blend converges, with every step monotonically
decreasing the primal.  After a stalled weight step whose beliefs are
inconsistent, the next iteration first runs up to 50 recovery sweeps, so
a run that ends on a stalled step returns the messages its report
describes.  The recovery sweeps and prediction take the guarded
extrapolation of ``inference.sweep_until_consistent``, which only ever
lowers the block objective.

Where descent holds, the blended iterate x = (w, lambda) is extrapolated
the same way: after every EXTRAPOLATE_EVERY = 5 iterations ``train``
combines the last 6 iterates by ``inference._extrapolate`` (nonlinear
acceleration, Scieur, d'Aspremont and Bach, 2016) and moves to
the point only if its primal is strictly below the current one (the
monotone safeguard of Zhang, O'Donoghue and Boyd, 2020), so the primal
still never rises.  With the growing block, a default run on the benchmark
corpora takes 51 weight steps on ``highorder`` and 51 on ``denoise10``,
against 228 and 213 before ``train`` extrapolated its iterate.

The weight step takes the step a top-down Armijo scan of the grid ``ETAS``
takes, on the primal the report logs.  It first tests one grid step above
its hint, the previous step where descent holds and eta = 1 elsewhere, and
skips the scan above a test that fails by more than its rounding error
(``_line_search``).  On ``highorder``, whose steps are 2^-3 or 2^-4, that
is 2.6 trials per step instead of 4.6 (seed 1), with the same steps.

Samples are independent: the trainer sweeps the rows of lam together in
one set of numpy calls, and prediction runs every sample through the same
batched engine.  Per-row arithmetic is identical no matter how rows are
grouped, and gradient contributions are reduced in list order, so
results are bitwise independent of the batch.  A thread pool over row
blocks was measured no faster.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .inference import (
    MessageState,
    _beliefs,
    _extrapolate,
    belief_vec,
    message_potentials,
    sweep_until_consistent,
    sweep_vec,
)
from .model import CountingNumbers, RegionGraph, Sample, _spans
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

# The default block grows by one sweep, up to KAPPA_CAP, after each iteration
# whose residual exceeds KAPPA times its gradient norm, both taken after the
# iteration's extrapolation, if taken.
KAPPA = 0.1
KAPPA_CAP = 10

# K of ``train``'s extrapolation.  On a 6x6 denoising corpus, with K = 10 the
# default block took more weight steps than one sweep per step (51 against
# 47); with K = 5, fewer (50 against 56).
EXTRAPOLATE_EVERY = 5

# An Armijo test whose margin is within ARMIJO_ULPS * 2^-52 of the summed
# sizes of the two objective values is left to the scan (``_line_search``).
ARMIJO_ULPS = 64

# The weight step's grid, eta_m = 2^-m for m = 0..50, and the Armijo sigma.
ETAS = tuple(0.5**m for m in range(51))
SUFFICIENT_DECREASE = 1e-4


@dataclass
class TrainerConfig:
    eps: float = 1.0
    C: float = 1.0
    counting: str | np.ndarray | CountingNumbers | None = None  # CountingNumbers.of
    sweeps_per_step: int | None = None  # None: the growing block (KAPPA)
    max_outer_iters: int = 1000
    primal_rel_tol: float = 1e-8
    residual_tol: float = 1e-6
    grad_norm_tol: float = 1e-6

    def check(self) -> None:
        """``ValueError`` for a negative count or a non-finite tolerance."""
        if self.sweeps_per_step is not None and self.sweeps_per_step < 0:
            raise ValueError("sweeps per step must be at least 0")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be at least 0")
        if not np.isfinite([self.primal_rel_tol, self.residual_tol, self.grad_norm_tol]).all():
            raise ValueError("tolerances must be finite")


@dataclass
class IterationRecord:
    iteration: int
    primal: float
    dual: float
    gap: float
    residual: float
    grad_norm: float
    eta: float
    sweeps: int  # the block's sweeps before the step, the same for every sample; not logged
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
    """What one iteration of ``train`` (``_iterate``) hands to the next."""

    w: np.ndarray
    states: list[MessageState]  # views of lam's rows
    lam: np.ndarray  # the message rows, one per sample in list order
    thetas: np.ndarray  # the theta rows at w
    iteration: int = 0
    history: list[float] = field(default_factory=list)  # the logged primals
    report: ObjectiveReport | None = None
    converged: bool = False
    stalled: bool = False
    grad_norm: float = np.inf  # the last gradient norm
    block: int = 1  # the next block's sweeps: sweeps_per_step, or the growing default
    backtracks: int = 0  # the search's hint: the last step's m where descent holds, else 0
    # where descent holds, the iterates x = (w, lam) since the last
    # extrapolation as rows, ``filled`` of them so far; None elsewhere
    ring: np.ndarray | None = None
    filled: int = 0

    def __deepcopy__(self, memo):
        """A copy that shares the graph, its layout and its sweep plan, and
        whose ``states`` view the copy's own ``lam``."""
        fields = {k: copy.deepcopy(v, memo) for k, v in vars(self).items() if k != "states"}
        states = [MessageState(s.graph, row) for s, row in zip(self.states, fields["lam"])]
        return TrainState(states=states, **fields)


@dataclass
class StepResult:
    w: np.ndarray
    eta: float
    stalled: bool
    objective: float
    trials: int  # objective evaluations of the search, f(w) not counted
    backtracks: int | None  # m of eta = ETAS[m] = 2^-m; None for a stall


@dataclass
class PredictResult:
    labels: np.ndarray
    residual: float
    sweeps: int
    capped: bool  # residual above its tolerance or NaN: at max_sweeps, or overflowed


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


def _line_search(objective, lam_part, w, thetas, lse, gradient, prev):
    """Backtracking search on the batch ``objective`` at frozen messages
    from ``w``, whose theta rows are ``thetas`` and whose potentials thetas
    + lam_part have the region log-partitions ``lse``.  Returns the step
    and the rows at its weights: the accepted trial's theta rows, potentials
    and Gibbs pass (the batch's region soft-max, with the log-partitions),
    or on a stall the same three at ``w``.

    The step is the first eta_m = ``ETAS[m]`` whose trial passes the
    Armijo test f(w - eta g) <= f(w) - sigma * eta * g.g, sigma =
    ``SUFFICIENT_DECREASE``, scanned from ``ETAS[0]`` down, on the primal
    the report logs (``BatchObjective.primal``).  The search first tests
    eta_s, s = max(prev - 1, 0), for the hint ``prev``: the previous step's
    m where descent holds, else 0 (``w_step``, after a stall, without
    descent; there eta_s = ``ETAS[0]`` and the search is the scan):

    - Where descent holds the primal is convex in w at frozen messages, so
      phi(eta) = f(w - eta g) - f(w) + sigma * eta * g.g is convex with
      phi(0) = 0, and phi(eta) / eta is nondecreasing: a fail at eta_s is a
      fail at every larger eta.  When the test fails clearly, the scan
      starts at s + 1, where it would have arrived.
    - A test is clear when |f_try - (f0 - sigma * eta * g.g)| exceeds a
      bound on the rounding error of the two computed values.  Each sums,
      per sample, the region log-partitions minus the true-label sum, then
      the samples in list order, then 1/2 C w.w.  A dot product or numpy's
      pairwise sum of N terms errs by at most about (log2 N + 8) u times
      the sum of its terms' absolute values (u = 2^-53), Python's sum over
      n samples by n u, and each term carries a few roundings of its own
      size.  With S = 1/2 C w.w + sum |lse| + sum over samples of |true
      sum|, the bound is ARMIJO_ULPS * 2^-52 * (S_try + S_0), 128 u per
      unit of S, which covers these counts for the tested and benchmarked
      corpora.  Potentials much larger than their log-partitions can make
      it optimistic.
    - Any other outcome scans from ``ETAS[0]``, reusing the trial: at most
      one trial more than the scan, none computed twice.

    So where rounding could decide the test, as late in a run whose primal
    is flat to 12 digits, the step is the scan's.  Where the bound fails it
    may differ, but every accepted trial passes the computed test.  Only a
    trial that may be accepted keeps its rows: a rejected trial's are freed
    before the next one.
    """
    g = np.asarray(gradient, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("gradient must be finite")
    stack, softmax = objective.stack, objective.terms.regions

    def value(w_at, th, lse_at):
        """The primal and S, the sum of its terms' absolute values."""
        total, _, reg, sums = objective.primal(w_at, th, lse_at)
        return total, reg + float(np.abs(lse_at).sum()) + float(np.abs(sums).sum())

    f0, size0 = value(w, thetas + lam_part, lse)
    gg = float(g @ g)
    trials = 0

    def attempt(m):
        """Trial m, (w, objective, rows) if it passes, else None, and
        whether its test is clear of rounding."""
        nonlocal trials
        trials += 1
        eta = ETAS[m]
        w_try = w - eta * g
        thetas_try = stack.rows(w_try)
        th = thetas_try + lam_part
        terms = softmax(th)
        f_try, size = value(w_try, th, terms.lse)
        bar = f0 - SUFFICIENT_DECREASE * eta * gg
        clear = abs(f_try - bar) > ARMIJO_ULPS * 2.0**-52 * (size + size0)  # False for NaN
        passed = np.isfinite(f_try) and f_try <= bar
        return ((w_try, f_try, (thetas_try, th, terms)) if passed else None), clear

    s = max(prev - 1, 0)
    first, clear = attempt(s)
    start = s + 1 if first is None and clear else 0  # every larger eta fails too
    for m in range(start, len(ETAS)):
        found = first if m == s else attempt(m)[0]
        if found is not None:
            w_try, f_try, rows = found
            return StepResult(w_try, ETAS[m], False, f_try, trials, m), rows
    th = thetas + lam_part
    return StepResult(w.copy(), 0.0, True, f0, trials, None), (thetas, th, softmax(th))


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

    Accepts the largest eta in ``ETAS`` with sufficient decrease
    f(w - eta g) <= f(w) - sigma * eta * ||g||^2.  Exhausting the grid keeps
    w and flags a stall (not fatal); non-finite trial values shrink and
    continue.  A ``config``, if given, that fails its ``check`` or whose eps,
    counting numbers or C are not the arguments' raises ``ValueError``, and
    a ``w`` short of the samples' features or a gradient unlike ``w`` ``ModelError``.
    """
    objective = BatchObjective(graph, samples, eps, counting, C, w=w)
    if config is not None:
        config.check()
        if (config.eps, config.C) != (objective.eps, objective.C) or not np.array_equal(
            CountingNumbers.of(graph, config.counting).values, objective.cvals
        ):
            raise ValueError("config's eps, counting numbers or C differ from the arguments")
    w, gradient = objective.weights(w), objective.weights(gradient, "gradient")
    lam_part = message_potentials(objective.layout, objective.message_rows(states))
    thetas = objective.stack.rows(w)
    lse = objective.terms.regions(thetas + lam_part).lse
    return _line_search(objective, lam_part, w, thetas, lse, gradient, 0)[0]


def _iterate(objective: BatchObjective, state: TrainState, config: TrainerConfig):
    """One outer iteration of ``train`` on the batch ``objective``, in place
    on ``state``: the stall recovery after a stalled step, the inference
    block, the weight step, the report, the extrapolation of (w, lambda)
    where descent holds and the stopping test.  Returns the iteration's
    ``IterationRecord``; ``state.report`` describes the messages and
    weights it leaves."""
    layout, eps, cvals, C = objective.layout, objective.eps, objective.cvals, objective.C
    lam, sweeps = state.lam, state.block
    # the last weight step stalled with inconsistent beliefs: up to 50 more
    # sweeps, the inference block cannot increase the objective
    if state.stalled and state.report.marginal_residual > config.residual_tol:
        sweep_until_consistent(layout, lam, state.thetas, eps, cvals, 50, config.residual_tol)
    state.iteration += 1
    for _ in range(sweeps):
        sweep_vec(layout, lam, state.thetas, eps, cvals)
    beliefs, part, lse = _beliefs(layout, lam, state.thetas, eps, cvals)

    step, trial = _line_search(
        objective, part, state.w, state.thetas, lse,
        objective.mismatch(beliefs) + C * state.w, state.backtracks,
    )
    state.stalled, state.w = step.stalled, step.w
    descent = objective.terms.guarantees.descent
    state.backtracks = step.backtracks if descent and not step.stalled else 0

    # post-step diagnostics at the step's potentials (a stalled step's are
    # the block's); the moment mismatch doubles as the gradient.  The
    # beliefs are allocated before the last step's rows are freed (README,
    # Notes: minor faults of library calls)
    bmat = belief_vec(layout, lam, trial[0], eps, cvals, trial[2])
    state.thetas, th, terms = trial
    lse = terms.lse
    del trial, terms  # free the exponentials while the next block sweeps
    report, z = objective.report(lam, state.thetas, state.w, th, lse, bmat)
    # free the block's and the step's rows before the extrapolation and
    # the next block allocate their own
    del beliefs, part, th, lse, bmat

    extrapolated = None
    if state.ring is not None:
        x = np.concatenate([state.w, lam.ravel()])[None]
        if state.filled == len(state.ring):
            point = _extrapolate(state.ring, x)[0]
            w_x, lam_x = point[: state.w.size].copy(), point[state.w.size :].reshape(lam.shape)
            thetas_x = objective.stack.rows(w_x)
            report_x, z_x = objective.report(lam_x, thetas_x, w_x)
            extrapolated = report_x.primal < report.primal  # False for NaN
            if extrapolated:
                state.w, state.thetas, report, z = w_x, thetas_x, report_x, z_x
                lam[:] = lam_x  # in place: state.states view its rows
                x[0] = point
            state.filled = 0  # the history restarts at the kept iterate
        state.ring[state.filled] = x
        state.filled += 1
    state.report = report
    primal, residual = report.primal, report.marginal_residual
    state.grad_norm = float(np.linalg.norm(z + C * state.w))
    if config.sweeps_per_step is None and state.ring is not None:
        if residual > KAPPA * state.grad_norm:
            state.block = min(state.block + 1, KAPPA_CAP)
    last = state.history[-1] if state.history else None
    state.history.append(primal)
    rel = 0.0 if last is None else (last - primal) / max(1.0, abs(last))
    state.converged = (
        abs(rel) < config.primal_rel_tol
        and residual < config.residual_tol
        and state.grad_norm < config.grad_norm_tol
    )
    return IterationRecord(
        state.iteration, primal, report.dual, report.gap, residual, state.grad_norm, step.eta,
        sweeps, step.trials, extrapolated,
    )


def train(
    graph: RegionGraph,
    samples: list[Sample],
    config: TrainerConfig,
    num_features: int | None = None,
    w0: np.ndarray | None = None,
    log_fn=None,
) -> TrainState:
    """The blended loop (module docstring) from ``w0``, zeros by default.  A
    bad config raises ``ValueError`` (``TrainerConfig.check``) before any
    sweep, and weights that do not fit the samples' feature ids ``ModelError``."""
    config.check()
    objective = BatchObjective(graph, samples, config.eps, config.counting, config.C, num_features)
    w = np.zeros(objective.num_features) if w0 is None else objective.weights(w0, "w0").copy()
    lam = np.zeros((len(samples), objective.layout.message_total))
    state = TrainState(w, [MessageState(graph, row) for row in lam], lam, objective.stack.rows(w))
    if config.sweeps_per_step is not None:
        state.block = config.sweeps_per_step
    if objective.terms.guarantees.descent:
        state.ring = np.empty((EXTRAPOLATE_EVERY, 1, w.size + lam.size))
    while state.iteration < config.max_outer_iters and not state.converged:
        record = _iterate(objective, state, config)
        if log_fn is not None:
            log_fn(record)
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
    accelerated by the guarded extrapolation of ``sweep_until_consistent``,
    which measures the samples' residuals after the first sweep, every K-th
    sweep and the cap: at the trained weights of the benchmark (seed 1,
    200-sweep cap) the test samples take 510 sweeps and 71 measurements in
    all on ``denoise10``, where plain sweeps measured after each sweep
    leave every one at the cap (2,000 sweeps), and 120 sweeps and 20
    measurements instead of 326 sweeps on ``highorder``.  Each variable
    takes the argmax (ties to the lowest label) of its marginal under the
    belief of its containing region with the fewest variables (ties to the
    lowest id), summed in label order.  The returned residual measures how
    consistent the final beliefs are; a large value means the decode rests
    on disagreeing regions.
    """
    batch = BatchObjective(graph, samples, eps_infer, counting, w=w)
    layout, cvals = batch.layout, batch.cvals
    theta = batch.stack.rows(batch.weights(w), include_loss=False)
    del batch  # the sweeps need none of the stack's tables: free them first
    lam = np.zeros((len(samples), layout.message_total))
    block = sweep_until_consistent(layout, lam, theta, eps_infer, cvals, max_sweeps, residual_tol)
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
    return [
        PredictResult(row, float(r), int(s), bool(c))
        for row, r, s, c in zip(labels, block.residual, block.sweeps, block.capped)
    ]
