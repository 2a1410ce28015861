"""The batched inference engine: block-coordinate message passing on a region graph.

Each region r with parents owns one message table per parent edge.  Updating
a region sets all of its outgoing tables to the analytic block minimizer of
the decomposed objective, computed from soft-max aggregations over the
parents' label spaces at temperature eps * c_p.  With all counting numbers
equal to one this is the plain 1/(1+|P(r)|) update; general nonnegative
counting numbers weight the aggregation accordingly, and mixed-sign values
(the Bethe scheme) run the same formulas without convergence guarantees.

Messages are only defined up to an additive constant, and the raw sequence
need not stay bounded; every table is therefore mean-centered after each
update, which changes neither beliefs nor objective values.

A sweep updates every region with parents through a level schedule.  Two
region updates conflict when one region is the other's parent or child, or
when they share a parent; only then does one read a message slot the other
writes.  Regions of one level never conflict, so updating each level at once,
in level order, performs exactly the arithmetic of updating its regions one
at a time: the results are bitwise equal to that sequential sweep.  The
levels are colour classes: the regions with parents, in id order, each take
the smallest level no conflicting region already holds (first-fit
colouring), which is 2 levels on a 10x10 or 40x40 grid and 6 on the 3-level
``highorder`` benchmark graph.  Block-coordinate descent converges in any
cyclic order, and the order moves the number of sweeps needed little next to
what the colouring saves per sweep; a caller who wants another order loops
``lambda_update`` over it.  Each level is one set of array calls: gathers of
the parent exponents (projection permutations folded into the indices), one
grouped log-sum-exp over all of the level's edges, the accumulation, a
mean-centring per group of equal-size tables, and one scatter of the new
tables.  The layout caches one plan (``sweep_plan``), whose levels are built
on its first sweep.  This level kernel is the only region update:
``lambda_update`` runs a one-region level, kept on the plan per region,
``mu_message`` reads that level's aggregations, and ``belief_vec``
normalizes the accumulators of the regions with c_r = 0 as one more level.
The plan also holds the tables of ``message_potentials`` and
``residual_rows``.  One builder, ``_prefix_terms``, makes every gather-and-add
table, the levels', the potentials' and the residual's, from per-column term lists.

One kernel, ``SoftMax``, is the package's only tempered log-sum-exp, at
t = eps * c per segment: on the region tables, on each level's projection
groups (c = c_p) and on the accumulators of the regions with c_r = 0 (c =
c_r + sum of parent c).  ``SweepPlan.at`` derives all that depends on (eps,
cvals) once, for the last pair seen.  The kernel's per-segment max, min and
sum come from ``SegmentReduce``, built once per level and once per layout.
Where the tables are narrow and lie in few runs of equal width, as a grid's
2-label pixels and 4-label pairs do, and the batch is large enough, it
reduces a run of width k with k - 1 strided elementwise calls; elsewhere it
calls ``ufunc.reduceat``.  Both give the same bits.

The potentials of theta rows at messages lam are, everywhere in the package,
``theta + message_potentials(layout, lam)``: the message part (incoming minus
outgoing messages per table slot) is gathered on its own and then added to
theta in one step.  The beliefs, the line search's trials and the objective
report all read potentials rounded that one way.  One pass of the region
soft-max over a potentials array gives both its Gibbs beliefs and its region
log-partitions (``_beliefs`` returns the beliefs, the message part and the
log-partitions of message rows), and ``belief_vec`` takes a precomputed
pass.  ``sweep_until_consistent`` returns only what it decides: the beliefs
and residuals of its final rows, their sweeps, which rows are capped, the
extrapolations it took and how often it measured each row.  Where the
certificate holds it measures its active rows (beliefs and residual)
together, and only after the first sweep, at every K-th sweep, where the
guard below computes the beliefs anyway, and at the cap.  At the
benchmark's trained weights ``highorder``'s ``infer`` takes 32 row belief
passes in 120 sweeps and ``denoise10``'s 122 in 510.

``sweep_until_consistent`` accelerates its sweeps by a guarded
extrapolation of each row's recent message rows (``_extrapolate``, a
fixed-order least-squares solve that ``learner.train`` also applies to its
iterate of weights and messages).

The module-level helpers operate on batches: message matrices of shape
(num_samples, message_total) against potential matrices (num_samples,
total).  Samples never interact, so batching is purely an efficiency device;
single-sample operations use the same code path with a batch of one, which
keeps results bitwise independent of how samples are grouped into batches.
"""

from __future__ import annotations

import logging
import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import CountingNumbers, GraphLayout, RegionGraph, Sample

__all__ = [
    "Guarantees",
    "guarantees",
    "MessageState",
    "mu_message",
    "lambda_update",
    "compute_beliefs",
    "marginal_residual",
    "inference_sweep",
]

logger = logging.getLogger(__name__)


def _edge_index(graph: RegionGraph, parent: int, child: int) -> int:
    """The index of edge (parent, child); a missing edge raises ``ValueError``."""
    if (parent, child) not in graph.edges:
        raise ValueError(f"no edge ({parent}, {child}) in the region graph")
    return graph.edges.index((parent, child))


class MessageState:
    """All child-to-parent message tables of one sample, concatenated.

    The table for edge (p, r) lives over the child's labels.  States are
    partitioned per sample: sweeps on different samples never share mutable
    state and may run concurrently.
    """

    def __init__(self, graph: RegionGraph, vec: np.ndarray | None = None):
        """Zero messages, or a view of the message row ``vec``."""
        self.graph = graph
        self.layout = graph.layout()
        self.vec = np.zeros(self.layout.message_total) if vec is None else vec

    def table(self, region: int, parent: int) -> np.ndarray:
        """Message table sent from ``region`` to ``parent`` (a writable view)."""
        return self.vec[self.layout.edge_slices[_edge_index(self.graph, parent, region)]]

    def copy(self) -> "MessageState":
        return MessageState(self.graph, self.vec.copy())


# ---------------------------------------------------------------------------
# batched internals, shared with the objective and learner modules


STRIDED_MIN_WORK = 100  # measured: where a strided max and sum cost what reduceat's do


class SegmentReduce:
    """Per-segment max, min and sum over the last axis of rows whose columns
    form consecutive segments, the i-th from ``starts[i]`` to the next start
    (the last to ``width``): the results of ``ufunc.reduceat(v, starts,
    axis=-1)``, bit for bit (a NaN sum may differ in its sign bit).

    ``reduceat`` costs about as much per segment as a strided elementwise
    call costs per row.  So when every segment is at most 8 wide and batch x
    segments is at least ``STRIDED_MIN_WORK`` times the summed width of the
    runs of equal-width segments, a run of width k is reduced with k - 1
    strided calls (``v[..., j::k]``); otherwise with one ``reduceat``.  The
    strided sum is a0 + (((a1 + a2) + a3) + ...), which is what
    ``np.add.reduceat`` computes: numpy adds the fewer than 8 terms after a
    segment's first one after another (longer tails it sums pairwise).
    """

    def __init__(self, starts: np.ndarray, width: int):
        self.starts = np.asarray(starts, dtype=np.int64)
        bounds = np.concatenate((self.starts, [width]))
        widths = bounds[1:] - bounds[:-1]
        changes = ((widths[1:] != widths[:-1]).nonzero()[0] + 1).tolist()
        cut = [0, *changes, len(widths)] if len(widths) else []
        at, wide = bounds.tolist(), widths.tolist()
        # runs of equal widths: (first column, end column, width, first and end segment)
        self.runs = [(at[s], at[e], wide[s], s, e) for s, e in zip(cut, cut[1:])]
        run_widths = [run[2] for run in self.runs]
        narrow = bool(run_widths) and 1 <= min(run_widths) and max(run_widths) <= 8
        self.min_batch = STRIDED_MIN_WORK * sum(run_widths) / len(wide) if narrow else np.inf

    def _strided(self, v: np.ndarray) -> bool:
        return (v.shape[0] if v.ndim > 1 else 1) >= self.min_batch

    def max(self, v: np.ndarray) -> np.ndarray:
        return self._fold(np.maximum, v)

    def min(self, v: np.ndarray) -> np.ndarray:
        return self._fold(np.minimum, v)

    def _fold(self, ufunc, v: np.ndarray) -> np.ndarray:
        """Per segment, ((a0 op a1) op a2) op ..."""
        if not self._strided(v):
            return ufunc.reduceat(v, self.starts, axis=-1)
        out = np.empty(v.shape[:-1] + (len(self.starts),))
        for a, b, k, s, e in self.runs:
            o = out[..., s:e]
            if k == 1:
                np.copyto(o, v[..., a:b])
            else:
                ufunc(v[..., a:b:k], v[..., a + 1 : b : k], out=o)
                for j in range(2, k):
                    ufunc(o, v[..., a + j : b : k], out=o)
        return out

    def sum(self, v: np.ndarray) -> np.ndarray:
        if not self._strided(v):
            return np.add.reduceat(v, self.starts, axis=-1)
        out = np.empty(v.shape[:-1] + (len(self.starts),))
        for a, b, k, s, e in self.runs:
            o = out[..., s:e]
            if k == 1:
                np.copyto(o, v[..., a:b])
            elif k == 2:
                np.add(v[..., a:b:2], v[..., a + 1 : b : 2], out=o)
            else:
                np.add(v[..., a + 1 : b : k], v[..., a + 2 : b : k], out=o)
                for j in range(3, k):
                    o += v[..., a + j : b : k]
                np.add(v[..., a:b:k], o, out=o)
        return out


# absolute tie tolerance of ``SoftMax``'s zero-temperature segments; a fixed
# value keeps zero-temperature runs reproducible
ARGMAX_TOL = 1e-9


class GibbsPass(NamedTuple):
    """One max, exp and sum pass over table rows (``SoftMax``)."""

    exps: np.ndarray  # exponentials, tie indicators in zero-temperature segments
    sums: np.ndarray  # their per-segment sums
    lse: np.ndarray  # log-partitions t*log(sum(exp(./t))), the max at t = 0

    def beliefs(self, layout) -> np.ndarray:
        """Per-segment Gibbs normalization of the rows."""
        return self.exps / self.sums.take(layout.segment, axis=-1)


class SoftMax:
    """The tempered soft-max of rows whose columns form segments (reduced by
    ``segments``; ``segment`` is each column's) at temperatures t = eps *
    coeff per segment; calling it on rows gives their ``GibbsPass``.

    A zero-temperature segment tie-breaks toward its max (coeff >= 0) or its
    min (coeff < 0), matching the limit of exp(v / (eps * coeff)) as eps
    approaches zero; its log-partition is the max either way.  Every other
    segment is centred on its max (t > 0) or min (t < 0), so its exponentials
    serve both results.
    """

    def __init__(self, segments: SegmentReduce, segment: np.ndarray, eps: float, coeff):
        self.segments, self.segment = segments, segment
        self.t = t = eps * coeff
        use_min = np.where(t == 0, coeff < 0, t < 0)
        self.use_min = use_min if use_min.any() else None
        zero = t[segment] == 0
        self.zero = zero if zero.any() else None
        self.min_col = use_min[segment]
        t_col = np.where(zero, 1.0, t[segment])
        # x / 1.0 is x bit for bit, so unit temperatures skip the division
        self.t_col = None if (t_col == 1.0).all() else t_col

    def __call__(self, v: np.ndarray) -> GibbsPass:
        mx = m = self.segments.max(v)
        if self.use_min is not None:
            m = np.where(self.use_min, self.segments.min(v), mx)
        e = m.take(self.segment, axis=-1)
        if self.zero is not None:
            tie = np.where(self.min_col, v <= e + ARGMAX_TOL, v >= e - ARGMAX_TOL)
        np.subtract(v, e, out=e)
        if self.t_col is not None:
            e /= self.t_col
        if self.zero is not None:
            e[..., self.zero] = 0.0
        np.exp(e, out=e)
        if self.zero is not None:
            np.copyto(e, tie, where=self.zero)
        z = self.segments.sum(e)
        # z >= 1 at t = 0 (the extreme ties with itself), so the log is finite
        return GibbsPass(e, z, np.where(self.t == 0, mx, m + self.t * np.log(z)))


def message_potentials(layout: GraphLayout, lam: np.ndarray) -> np.ndarray:
    """The message part of the potentials: incoming minus outgoing messages
    per table slot, shaped like the theta rows of ``lam``'s message rows.
    The message-parameterized potentials are ``theta + message_potentials``.

    Each slot adds, from zero, its incoming and then its negated outgoing
    messages, in edge order (``SweepPlan.potentials``): one gather-and-add
    per term position, then one gather back into slot order.
    """
    terms, place = sweep_plan(layout).potentials
    out = np.zeros(lam.shape[:-1] + (layout.total,))
    acc = np.zeros_like(out)  # in column order
    _gather_add(acc, np.concatenate((lam, -lam), axis=-1), terms)
    np.take(acc, place, axis=-1, out=out)
    return out


def conflict_levels(layout: GraphLayout) -> list[list[int]]:
    """Split a sweep into levels of mutually non-conflicting regions.

    Two region updates conflict when one region is the other's parent or
    child, or when they share a parent: only then does one read or write a
    message slot the other writes.  The regions with parents, in id order,
    are coloured first-fit: each takes the smallest level that no
    conflicting region placed before it holds (2 levels on a grid).  Regions
    without parents are no-ops and are left out.
    """
    ep, ec = layout.edge_parent.tolist(), layout.edge_child.tolist()
    level: dict[int, int] = {}
    levels: list[list[int]] = []
    for r in layout.regions_with_parents:
        parents = [ep[e] for e in layout.parent_edges[r]]
        near = parents + [ec[e] for e in layout.child_edges[r]]
        near += [ec[e] for p in parents for e in layout.child_edges[p]]
        taken = {level[x] for x in near if x in level}
        lv = level[r] = min(set(range(len(taken) + 1)) - taken)
        if lv == len(levels):
            levels.append([])
        levels[lv].append(r)
    return levels


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _prefix_terms(items, terms, widths):
    """Per term position k, the columns that have a k-th term and its gather
    indices.  ``items`` are sorted by term count, longest first, so the
    columns with a k-th term always form a prefix: (prefix length, indices)."""
    out = []
    for k in range(len(terms[items[0]]) if items else 0):
        members = [i for i in items if len(terms[i]) > k]
        out.append((sum(widths[i] for i in members), _cat([terms[i][k] for i in members])))
    return out


def _gather_add(acc: np.ndarray, src: np.ndarray, terms) -> np.ndarray:
    """Add the gathers ``terms`` (``_prefix_terms``) of ``src`` to ``acc``."""
    for n, idx in terms:
        acc[..., :n] += src.take(idx, axis=-1)
    return acc


class _Level:
    """Gather and scatter indices that update one level's regions at once.

    Columns follow three orders: parent-exponent columns (one parent table
    per edge, edges with the most terms first), accumulator columns (one
    table per region, most terms first: ``acc_regions``) and message columns
    (one table per edge, grouped by table size for the mean-centring).  The
    mu of edge e occupies the columns from ``mu_at[e]`` of ``mu``'s result.
    """

    def __init__(self, layout: GraphLayout, regions: list[int]):
        self.regions = regions
        sizes = layout.sizes.tolist()
        ep, ec = layout.edge_parent.tolist(), layout.edge_child.tolist()
        msg = layout.message_total
        edges = [e for r in regions for e in layout.parent_edges[r]]
        psize = {e: sizes[ep[e]] for e in edges}
        csize = {e: sizes[ec[e]] for e in edges}

        # parent exponents: theta_p, plus the other children's messages into
        # p, minus p's messages to its parents; gathered in the edge's
        # projection-group order, reading the negated copy at msg + slot
        exp_terms = {}
        for e in edges:
            p, perm = ep[e], layout.perm[e]
            exp_terms[e] = [
                layout.lam_in_idx[e2][perm] for e2 in layout.child_edges[p] if e2 != e
            ] + [perm + (msg + layout.edge_offsets[e3]) for e3 in layout.parent_edges[p]]
        by_terms = sorted(edges, key=lambda e: -len(exp_terms[e]))
        self.theta_idx = _cat([layout.perm[e] + layout.offsets[ep[e]] for e in by_terms])
        self.exp_terms = _prefix_terms(by_terms, exp_terms, psize)
        self.negated = any(layout.parent_edges[ep[e]] for e in edges)

        # grouped log-sum-exp: one group per child label of every edge, of
        # the edge's fiber = psize / csize parent labels projecting to it
        mu_off = np.cumsum([0] + [csize[e] for e in by_terms]).tolist()
        fiber = np.repeat([psize[e] // csize[e] for e in by_terms], [csize[e] for e in by_terms])
        self.groups = SegmentReduce(np.cumsum(fiber) - fiber, len(self.theta_idx))
        self.group_of = np.repeat(np.arange(fiber.size), fiber)
        self.group_edge = np.repeat(by_terms, [csize[e] for e in by_terms])
        self.mu_at = mu_at = {e: mu_off[i] for i, e in enumerate(by_terms)}

        # accumulators: theta_r, plus r's children's messages, plus the mus
        # of r's parent edges, read from [messages, mus] at msg + mu slot
        acc_terms = {
            r: [layout.lam_in_idx[e2] for e2 in layout.child_edges[r]]
            + [np.arange(sizes[r]) + (msg + mu_at[e]) for e in layout.parent_edges[r]]
            for r in regions
        }
        self.acc_regions = by_acc = sorted(regions, key=lambda r: -len(acc_terms[r]))
        acc_off = np.cumsum([0] + [sizes[r] for r in by_acc]).tolist()
        acc_at = {r: acc_off[i] for i, r in enumerate(by_acc)}
        # the accumulators are region tables, segmented for ``SoftMax`` by these
        self.starts = np.array(acc_off[:-1], dtype=np.int64)
        self.segment = np.repeat(np.arange(len(by_acc)), np.diff(acc_off))
        self.acc_idx = _cat([np.arange(sizes[r]) + layout.offsets[r] for r in by_acc])
        self.acc_terms = _prefix_terms(by_acc, acc_terms, {r: sizes[r] for r in regions})

        # message tables, grouped by size for the reshape-sum centring
        by_size = sorted(edges, key=lambda e: csize[e])
        self.acc_take = _cat([np.arange(csize[e]) + acc_at[ec[e]] for e in by_size])
        self.mu_take = _cat([np.arange(csize[e]) + mu_at[e] for e in by_size])
        self.write_idx = _cat([np.arange(csize[e]) + layout.edge_offsets[e] for e in by_size])
        self.table_edge = np.repeat(by_size, [csize[e] for e in by_size])
        self.blocks = []
        start = 0
        for n in sorted(set(csize.values())):
            k = sum(1 for e in edges if csize[e] == n)
            self.blocks.append((start, start + k * n, k, n))
            start += k * n

    def mu(self, lam: np.ndarray, theta: np.ndarray, c: "_LevelCoefficients") -> np.ndarray:
        """The soft-max aggregations mu_{p->r} of every edge of the level, at
        temperatures eps * c_p (the max at zero)."""
        src = np.concatenate((lam, -lam), axis=1) if self.negated else lam
        return c.softmax(_gather_add(theta.take(self.theta_idx, axis=1), src, self.exp_terms)).lse

    def accumulate(self, lam: np.ndarray, theta: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Per region, theta_r plus its children's messages plus the mus of
        its parent edges, in accumulator columns."""
        src = np.concatenate((lam, mu), axis=1)
        return _gather_add(theta.take(self.acc_idx, axis=1), src, self.acc_terms)

    def update(self, lam: np.ndarray, theta: np.ndarray, c: "_LevelCoefficients") -> None:
        """Block-minimize the messages of the level's regions, in place: each
        table is c_p / (c_r + sum of parent c) times the accumulator minus its
        mu, mean-centred."""
        mu = self.mu(lam, theta, c)
        tables = c.weight * self.accumulate(lam, theta, mu).take(self.acc_take, axis=1)
        tables -= mu.take(self.mu_take, axis=1)
        for a, b, k, n in self.blocks:
            block = tables[:, a:b].reshape(lam.shape[0], k, n)
            block -= (block.sum(axis=2) / n)[:, :, None]
        idx = self.write_idx
        if c.keep is not None:
            idx, tables = idx[c.keep], tables[:, c.keep]
        lam[:, idx] = tables


class _LevelCoefficients:
    """The counting-number terms of one level at one (eps, cvals)."""

    def __init__(self, level: _Level, terms: "_Terms"):
        coeff = terms.c_edge[level.group_edge]
        self.softmax = SoftMax(level.groups, level.group_of, terms.eps, coeff)
        self.weight = terms.weight[level.table_edge]
        keep = ~terms.skip[level.table_edge]
        self.keep = None if keep.all() else keep


class Guarantees(NamedTuple):
    """Which of the paper's guarantees hold at one (eps, counting numbers)
    on one graph.  ``SweepPlan.at`` derives them (``_Terms``), the one place
    that decides a guarantee from the signs of eps and of the c_r."""

    descent: bool  # eps >= 0 and every c_r >= 0: convex, so descent is monotone
    certificate: bool  # eps > 0 and every c_r > 0: a consistent gap certifies
    bound: bool  # descent, and c fractionally covers every variable: primal >= loss


class _Terms:
    """What a sweep plan derives from one (eps, cvals): the denominators
    c_r + sum of parent c (1 without parents; 0 skips the update), per-edge
    weights c_p / denom and skips, the region soft-max and the
    ``Guarantees``."""

    def __init__(self, plan: "SweepPlan", eps: float, cvals: np.ndarray):
        layout = plan.layout
        ep, ec = layout.edge_parent, layout.edge_child
        self.plan = weakref.proxy(plan)  # the plan caches these terms
        self.eps, self.cvals, self.c_edge = eps, cvals.copy(), cvals[ep]
        denom = np.ones(len(layout.sizes))
        for r in layout.regions_with_parents:
            denom[r] = cvals[r] + cvals[ep[layout.parent_edges[r]]].sum()
        self.denom, self.skip = denom, (denom == 0.0)[ec]
        self.weight = self.c_edge / np.where(denom == 0.0, 1.0, denom)[ec]
        self.regions = SoftMax(plan.segments, layout.segment, eps, cvals)
        descent = bool(eps >= 0 and (cvals >= 0).all())
        covered = np.bincount(layout.pair_variable, cvals[layout.pair_region]) >= 1 - 1e-12
        positive = bool(eps > 0 and (cvals > 0).all())
        self.guarantees = Guarantees(descent, positive, descent and bool(covered.all()))

    @cached_property
    def levels(self) -> list[_LevelCoefficients]:
        """Per-level coefficients; deriving them warns once of each region
        that a zero denominator skips."""
        _warn_skipped(self.plan.sequence, self.denom)
        return [_LevelCoefficients(level, self) for level in self.plan.levels]

    @cached_property
    def zero_count(self):
        """The regions with parents and c_r = 0 as one level, for
        ``belief_vec``: (level, coefficients, the soft-max of its accumulators
        at eps * (c_r + sum of parent c)); None without such regions."""
        layout = self.plan.layout
        regions = [r for r in layout.regions_with_parents if self.cvals[r] == 0.0]
        if not regions:
            return None
        level = _Level(layout, regions)
        acc = SegmentReduce(level.starts, len(level.acc_idx))
        chat = self.denom[level.acc_regions]
        return level, _LevelCoefficients(level, self), SoftMax(acc, level.segment, self.eps, chat)


def _warn_skipped(regions, denom: np.ndarray) -> None:
    for r in regions:
        if denom[r] == 0.0:
            logger.warning(
                "region %d: c_r + sum of parent counting numbers is zero; update skipped", r
            )


class SweepPlan:
    """The level schedule of one sweep over a layout (``conflict_levels``)
    and the gather tables of ``message_potentials`` and ``residual_rows``.

    The levels are built on the first sweep, each table on its kernel's first
    call; ``sequence`` lists the region updates in the order the sweep
    performs them, level by level.  What depends on (eps, cvals) is derived
    by ``at`` and kept for the last pair seen.  The one-region levels of
    ``lambda_update`` and ``mu_message`` are made on demand and kept per
    region.
    """

    def __init__(self, layout: GraphLayout):
        self.layout = weakref.proxy(layout)  # the layout caches the plan
        self._terms = None  # (key, _Terms), replaced whole
        self.one_region: dict[int, _Level] = {}  # region -> the level updating it alone

    @cached_property
    def levels(self) -> list[_Level]:
        return [_Level(self.layout, regions) for regions in conflict_levels(self.layout)]

    @property
    def sequence(self) -> list[int]:
        return [r for level in self.levels for r in level.regions]

    @cached_property
    def segments(self) -> SegmentReduce:
        """Per-region max, min and sum of concatenated table rows."""
        return SegmentReduce(self.layout.starts, self.layout.total)

    def at(self, eps: float, cvals: np.ndarray) -> _Terms:
        """The terms of (eps, cvals), derived once for the last pair seen; a
        non-finite ``eps`` raises ``ValueError``."""
        if not np.isfinite(eps):
            raise ValueError("eps must be finite")
        key = (float(eps), cvals.tobytes())
        if self._terms is None or self._terms[0] != key:
            self._terms = (key, _Terms(self, eps, cvals))
        return self._terms[1]

    @cached_property
    def potentials(self):
        """Gather tables of ``message_potentials``: (terms, place).  A
        region's terms are its incoming messages (child edges, in edge order,
        through the projections), then its negated outgoing ones (parent
        edges, in edge order) read from [lam, -lam].  Columns hold the regions
        by term count, most first; column ``place[s]`` holds table slot s."""
        layout, msg, sizes = self.layout, self.layout.message_total, self.layout.sizes.tolist()
        terms = [
            [layout.lam_in_idx[e] for e in layout.child_edges[r]]
            + [np.arange(n) + (msg + layout.edge_offsets[e]) for e in layout.parent_edges[r]]
            for r, n in enumerate(sizes)
        ]
        regions = sorted(range(len(sizes)), key=lambda r: -len(terms[r]))
        place = np.argsort(_cat([np.arange(sizes[r]) + layout.offsets[r] for r in regions]))
        return _prefix_terms(regions, terms, sizes), place

    @cached_property
    def marginals(self):
        """Gather tables of ``residual_rows``: (terms, child).  A message
        slot's terms are its G parent slots in ascending parent label (its
        edge's ``perm``, row by row; G parent labels per child label).
        Columns hold the edges by G, largest first; column i's child slot
        is ``child[i]``."""
        layout, sizes = self.layout, self.layout.sizes.tolist()
        ep, ec = layout.edge_parent.tolist(), layout.edge_child.tolist()
        terms = [list((perm + layout.offsets[ep[e]]).reshape(sizes[ec[e]], -1).T)
                 for e, perm in enumerate(layout.perm)]
        edges = sorted(range(len(terms)), key=lambda e: -len(terms[e]))
        child = _cat([np.arange(sizes[ec[e]]) + layout.offsets[ec[e]] for e in edges])
        return _prefix_terms(edges, terms, [sizes[r] for r in ec]), child


def sweep_plan(layout: GraphLayout) -> SweepPlan:
    """The layout's sweep plan, made on first use and cached on the layout."""
    if layout.plan_cache is None:
        layout.plan_cache = SweepPlan(layout)
    return layout.plan_cache


def guarantees(graph: RegionGraph, eps: float, counting=None) -> Guarantees:
    """The ``Guarantees`` of ``eps`` and ``counting`` (``CountingNumbers.of``)."""
    return sweep_plan(graph.layout()).at(eps, CountingNumbers.of(graph, counting).values).guarantees


def sweep_vec(
    layout: GraphLayout, lam: np.ndarray, theta: np.ndarray, eps: float, cvals: np.ndarray
) -> None:
    """One sweep of region updates, run level by level; bitwise equal to
    updating the regions of ``sweep_plan(layout).sequence`` one at a time
    (``lambda_update``)."""
    plan = sweep_plan(layout)
    for level, c in zip(plan.levels, plan.at(eps, cvals).levels):
        level.update(lam, theta, c)


def belief_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
    terms: GibbsPass | None = None,
) -> np.ndarray:
    """Concatenated belief table rows at temperatures eps * c_r, from the
    Gibbs pass ``terms`` of the potentials theta + message_potentials(layout,
    lam), which is computed here unless given.

    Regions with c_r = 0 that have parents are degenerate under the direct
    formula (their parameterized potential vanishes at the fixed point); they
    take the equivalent aggregated form at temperature eps * (c_r + sum of
    parent c), which is the continuous limit and agrees with the parents'
    marginals at convergence: the Gibbs normalization of their accumulators
    in a region update (the plan's ``zero_count`` level).
    """
    at = sweep_plan(layout).at(eps, cvals)
    if terms is None:
        terms = at.regions(theta + message_potentials(layout, lam))
    b = terms.beliefs(layout)
    if at.zero_count is not None:
        level, c, softmax = at.zero_count
        acc = level.accumulate(lam, theta, level.mu(lam, theta, c))
        b[:, level.acc_idx] = softmax(acc).beliefs(level)
    return b


def residual_rows(layout: GraphLayout, bvec: np.ndarray) -> np.ndarray:
    """Largest parent-marginal vs child-belief disagreement, per batch row.

    Each parent marginal adds, from zero, its parent beliefs in ascending
    parent label, one gather-and-add of ``SweepPlan.marginals`` per term
    position (``_gather_add``); 0 + b is b, but for -0 becoming +0, which
    the absolute value removes.  A single (batch, G, n) gather summed over
    axis 1 gives the same bits only while numpy keeps that axis apart (it
    sums a folded, contiguous one pairwise), and it held about 0.9 MB more
    at the peak of a ``highorder`` train.
    """
    terms, child = sweep_plan(layout).marginals
    gap = _gather_add(np.zeros((bvec.shape[0], child.size)), bvec, terms)
    gap -= bvec.take(child, axis=1)
    np.abs(gap, out=gap)
    return gap.max(axis=1, initial=0.0)


def _beliefs(layout, lam, theta, eps, cvals):
    """The belief rows of ``lam``, the message part of their potentials and
    the potentials' region log-partitions."""
    part = message_potentials(layout, lam)
    terms = sweep_plan(layout).at(eps, cvals).regions(theta + part)
    return belief_vec(layout, lam, theta, eps, cvals, terms), part, terms.lse


# K of ``sweep_until_consistent``: where the certificate holds, a call
# extrapolates after every K-th sweep.  ``learner.train``'s blocks are plain
# ``sweep_vec`` calls; ``train`` extrapolates its whole iterate instead, with
# the same ``_extrapolate`` and its own K (``learner.EXTRAPOLATE_EVERY``).
EXTRAPOLATE_EVERY = 10


@np.errstate(all="ignore")  # a non-finite row gives a non-finite point
def _extrapolate(ring: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per row, the nonlinear extrapolation (Scieur, d'Aspremont and Bach,
    2016) of the iterates x_0, ..., x_K, of which ``ring`` holds the first K
    and ``lam`` is x_K: with d_i = x_{i+1} - x_i, the weights c that sum to
    one and minimize |sum_i c_i d_i| give sum_i c_i x_{i+1}.  On an affine
    iteration of dimension below K that is the fixed point.

    With c_{K-1} = 1 - sum of the others this is the least-squares problem
    of the K - 1 columns a_i = d_i - d_{K-1} against -d_{K-1}, solved by
    modified Gram-Schmidt in column order and back substitution; the point
    is x_K + sum_{i < K-1} c_i (x_{i+1} - x_K).  A column whose remaining
    norm is at most 1e-12 of its own gets weight 0, so a row that no longer
    moves comes back as x_K.  Only elementwise products and row sums decide
    the weights, in a fixed order: no LAPACK routine and no
    regularization."""
    k, rows = len(ring) - 1, lam.shape[0]  # k columns
    later = [*ring[1:], lam]  # x_1, ..., x_K
    last = lam - ring[-1]  # d_{K-1}
    rhs = -last  # -d_{K-1}, less its projections on the basis so far
    r, t = np.zeros((rows, k, k)), np.zeros((rows, k))
    basis, tmp = np.empty((k, *lam.shape)), np.empty_like(lam)
    for j, q in enumerate(basis):
        np.subtract(later[j], ring[j], out=q)
        q -= last
        own = np.multiply(q, q, out=tmp).sum(axis=1)
        for i in range(j):
            r[:, i, j] = np.multiply(basis[i], q, out=tmp).sum(axis=1)
            q -= np.multiply(basis[i], r[:, i, j, None], out=tmp)
        rest = np.sqrt(np.multiply(q, q, out=tmp).sum(axis=1))
        kept = rest > 1e-12 * np.sqrt(own)
        r[:, j, j] = np.where(kept, rest, 1.0)
        q *= np.where(kept, 1.0 / rest, 0.0)[:, None]
        t[:, j] = np.multiply(q, rhs, out=tmp).sum(axis=1)
        rhs -= np.multiply(q, t[:, j, None], out=tmp)
    c = np.zeros((rows, k))
    for j in reversed(range(k)):
        c[:, j] = (t[:, j] - (r[:, j, j + 1:] * c[:, j + 1:]).sum(axis=1)) / r[:, j, j]
    x = lam.copy()
    for i in range(k):
        x += np.multiply(np.subtract(later[i], lam, out=tmp), c[:, i, None], out=tmp)
    return x


class SweepResult(NamedTuple):
    """What ``sweep_until_consistent`` decides, per row."""

    beliefs: np.ndarray  # at the final messages
    residual: np.ndarray  # of those beliefs
    sweeps: np.ndarray
    capped: np.ndarray  # the residual above tol at the end, or NaN: at the cap, or overflowed
    extrapolations: np.ndarray  # accepted extrapolated points
    measured: np.ndarray  # residual measurements: before any sweep and on the schedule


@np.errstate(all="ignore")  # overflowing rows end with a NaN residual
def sweep_until_consistent(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
    max_sweeps: int,
    tol: float,
) -> SweepResult:
    """Sweep each row of ``lam`` in place until a measured residual is at
    most ``tol`` or it has had ``max_sweeps`` sweeps; return the belief rows
    and residuals at the final messages, per-row sweep counts, which rows
    are capped (their residual is above ``tol`` or NaN: they stopped at the
    cap, or at once on overflowing potentials), the per-row count of
    accepted extrapolations and of residual measurements.  A caller that
    needs the final rows' potentials or objective computes them from
    ``lam``.

    Where the certificate holds (``Guarantees``), each row keeps its last
    K + 1 message rows (K = ``EXTRAPOLATE_EVERY``) and after every K-th
    sweep is moved to their extrapolation (``_extrapolate``) if that
    strictly lowers the block objective the sweeps descend, sum_r lse_r,
    read from that sweep's potentials alone; otherwise it stays where the
    sweep left it.  So no accepted point raises the objective, and a row's
    limit is the one plain sweeps reach.  Elsewhere the sweeps are plain.

    Every row is measured (beliefs and residual) before any sweep, and the
    active rows are measured together after the first sweep, after every
    period-th sweep and at ``max_sweeps``: the period is K where the
    certificate holds, whose guard computes the beliefs anyway, so a row
    may stop up to K - 1 sweeps after the first sweep at which its residual
    is at most ``tol``, and 1 elsewhere.  A row stops only on a measurement.

    Rows still active are swept and measured together, gathered when some
    have stopped.  Per-row arithmetic and schedule do not depend on the
    batch, so each row ends bitwise equal to a batch-of-one run.  A row
    whose potentials overflow ends with a NaN residual, without numpy
    warnings.  A non-finite ``eps``, a negative ``max_sweeps`` or a NaN
    ``tol`` raises ``ValueError`` before any sweep.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be at least 0")
    if np.isnan(tol):
        raise ValueError("tol must not be NaN")
    k, n = EXTRAPOLATE_EVERY, lam.shape[0]
    accelerate = sweep_plan(layout).at(eps, cvals).guarantees.certificate
    period = k if accelerate else 1  # the measured sweeps: the first, each period-th, the cap
    b = belief_vec(layout, lam, theta, eps, cvals)
    residual = residual_rows(layout, b)
    sweeps = np.zeros(n, dtype=np.int64)
    extrapolations = np.zeros(n, dtype=np.int64)
    measured = np.ones(n, dtype=np.int64)
    ring = np.empty((k,) + lam.shape) if accelerate else None  # iterates since the last K-th sweep
    for s in range(max_sweeps):
        rows = np.flatnonzero(residual > tol)
        if rows.size == 0:
            break
        full = rows.size == n
        sub_lam, sub_theta = (lam, theta) if full else (lam[rows], theta[rows])
        if accelerate:
            ring[s % k, rows] = sub_lam
        sweep_vec(layout, sub_lam, sub_theta, eps, cvals)
        sweeps[rows] += 1
        if s == 0 or (s + 1) % period == 0 or s + 1 == max_sweeps:
            if accelerate and s % k == k - 1:
                # beliefs and log-partitions; the message part is dropped at once
                sub_b, sub_lse = _beliefs(layout, sub_lam, sub_theta, eps, cvals)[::2]
                x = _extrapolate(ring if full else ring[:, rows], sub_lam)
                x_b, x_lse = _beliefs(layout, x, sub_theta, eps, cvals)[::2]
                ok = np.flatnonzero(x_lse.sum(axis=1) < sub_lse.sum(axis=1))
                sub_lam[ok], sub_b[ok] = x[ok], x_b[ok]
                del x, x_b  # not held through the next K sweeps
                extrapolations[rows[ok]] += 1
            else:
                sub_b = belief_vec(layout, sub_lam, sub_theta, eps, cvals)
            if full:
                b = sub_b
            else:
                b[rows] = sub_b
            residual[rows] = residual_rows(layout, sub_b)
            measured[rows] += 1
        if not full:
            lam[rows] = sub_lam
    return SweepResult(b, residual, sweeps, ~(residual <= tol), extrapolations, measured)


# ---------------------------------------------------------------------------
# public per-sample operations


def message_vec(layout: GraphLayout, state: MessageState, index: int | None = None):
    """The message row of ``state``, the ``index``-th of a list if given;
    ``ValueError``, naming the index, unless it has the layout's message count."""
    vec, name = state.vec, "message state" if index is None else f"message state {index}"
    if np.shape(vec) != (layout.message_total,):
        raise ValueError(f"{name}: {np.size(vec)} messages for the graph's {layout.message_total}")
    return vec


def finite_weights(w, name: str = "w") -> np.ndarray:
    """``w`` as floats; ``ValueError``, naming ``name`` and the first
    non-finite weight's feature id, unless every weight is finite."""
    w = np.asarray(w, dtype=float)
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(f"{name} is not finite at feature {bad[0]}")
    return w


def _sample_inputs(graph, sample, state, w, eps, counting, include_loss):
    """The layout, the terms at (eps, counting numbers) (``SweepPlan.at``),
    theta row and message row (a view of ``state``'s) of one sample; a
    non-finite ``eps`` or weight raises ``ValueError``."""
    layout = graph.layout()
    terms = sweep_plan(layout).at(eps, CountingNumbers.of(graph, counting).values)
    lam = message_vec(layout, state)[None]
    theta = sample.compiled().theta_vec(finite_weights(w), include_loss)
    return layout, terms, theta[None], lam


def region_index(layout: GraphLayout, region) -> int:
    """``region`` as an int; an id outside the graph raises ``ValueError``."""
    region = int(region)
    if not 0 <= region < len(layout.parent_edges):
        raise ValueError(f"region {region} is not in the region graph")
    return region


def _region_level(layout: GraphLayout, region, terms: _Terms):
    """The level that updates ``region`` alone, its coefficients at the
    ``terms`` of one (eps, cvals) and their denominators c_r + sum of parent
    c; None for a region without parents, whose update is a no-op.  An id
    outside the graph raises ``ValueError``."""
    region = region_index(layout, region)
    if not layout.parent_edges[region]:
        return None
    plan = sweep_plan(layout)
    if region not in plan.one_region:
        plan.one_region[region] = _Level(layout, [region])
    level = plan.one_region[region]
    return level, _LevelCoefficients(level, terms), terms.denom


def mu_message(
    graph: RegionGraph,
    sample: Sample,
    parent: int,
    child: int,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
    include_loss: bool = True,
) -> np.ndarray:
    """Aggregated parent-to-child message over the child's labels, as the
    update of ``child`` computes it."""
    e = _edge_index(graph, parent, child)
    layout, terms, theta, lam = _sample_inputs(graph, sample, state, w, eps, counting, include_loss)
    level, c, _ = _region_level(layout, child, terms)
    start = level.mu_at[e]
    return level.mu(lam, theta, c)[0, start : start + layout.sizes[child]]


def lambda_update(
    graph: RegionGraph,
    sample: Sample,
    region: int,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
    include_loss: bool = True,
) -> MessageState:
    """Block-minimize all messages from ``region`` to its parents, in place,
    on the level kernel.  A loop of it over any order of regions is that
    order's sweep."""
    layout, terms, theta, lam = _sample_inputs(graph, sample, state, w, eps, counting, include_loss)
    one = _region_level(layout, region, terms)
    if one is not None:
        level, c, denom = one
        _warn_skipped(level.regions, denom)
        level.update(lam, theta, c)
    return state


def inference_sweep(
    graph: RegionGraph,
    sample: Sample,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
    include_loss: bool = True,
) -> MessageState:
    """One pass of lambda updates over every region with parents, colour
    class by colour class (see ``conflict_levels``)."""
    layout, terms, theta, lam = _sample_inputs(graph, sample, state, w, eps, counting, include_loss)
    sweep_vec(layout, lam, theta, eps, terms.cvals)
    return state


def compute_beliefs(
    graph: RegionGraph,
    sample: Sample,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
    include_loss: bool = True,
) -> list[np.ndarray]:
    """Per-region belief tables from the current messages."""
    layout, terms, theta, lam = _sample_inputs(graph, sample, state, w, eps, counting, include_loss)
    b = belief_vec(layout, lam, theta, eps, terms.cvals)[0]
    return [b[layout.region_slices[r]] for r in range(graph.region_count)]


def belief_row(layout: GraphLayout, tables) -> np.ndarray:
    """Per-region belief ``tables`` as one concatenated row.  A table count
    other than the region count, or a table that is not a vector over its
    region's labels, raises ``ValueError``."""
    sizes = layout.sizes.tolist()
    if len(tables) != len(sizes):
        raise ValueError(f"{len(tables)} belief tables for {len(sizes)} regions")
    row = np.concatenate(tables, dtype=float) if tables else np.zeros(0)
    if row.ndim != 1 or list(map(len, tables)) != sizes:
        r, shape, n = next(
            (r, np.shape(t), n) for r, (t, n) in enumerate(zip(tables, sizes)) if np.shape(t) != (n,)
        )
        raise ValueError(f"region {r}: belief table of shape {shape}, expected ({n},)")
    return row


def marginal_residual(graph: RegionGraph, beliefs: list[np.ndarray]) -> float:
    """Max over edges and child labels of |parent marginal - child belief|."""
    layout = graph.layout()
    return float(residual_rows(layout, belief_row(layout, beliefs)[None, :])[0])
