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

A sweep updates every region with parents level by level
(``conflict_levels``).  Regions of one level never read a message slot
another writes, so updating each level at once, in level order, performs
exactly the arithmetic of updating its regions one at a time: the results
are bitwise equal to that sequential sweep.  Block-coordinate descent
converges in any cyclic order; a caller who wants another order loops
``lambda_update`` over it.  Each level is one set of array calls on
sample-minor (slots, samples) rows, so every gather copies whole runs of
samples: gathers of the parent exponents (projection permutations folded
into the indices), one grouped log-sum-exp over all of the level's edges,
its groups stored fiber-major so that each group reduction is a few calls
on contiguous blocks (``BlockReduce``), the accumulation, a mean-centring
per group of equal-size tables, stored entry-major, and one scatter of the
new tables.  Every reduction keeps numpy's order for the batch-major rows,
so the results are bitwise those of the per-region reference.  This level
kernel is the only region update: ``sweep_vec`` transposes its rows once
per call, ``sweep_until_consistent`` once per stretch between measurements,
``lambda_update`` runs a one-region level, ``mu_message`` reads that
level's aggregations, and ``belief_vec`` normalizes the accumulators of the
regions with c_r = 0 as one more level.  The layout caches one plan
(``sweep_plan``) of the levels and of the tables of ``message_potentials``
and ``residual_rows``, all made by one builder, ``_prefix_terms``, from
term lists that read one projection and grouping per edge shape
(``SweepPlan.tables``).

One kernel, ``SoftMax``, is the package's only tempered log-sum-exp, at
t = eps * c per segment: on the region tables, on each level's projection
groups (c = c_p) and on the accumulators of the regions with c_r = 0 (c =
c_r + sum of parent c).  ``SweepPlan.at`` derives all that depends on (eps,
cvals) once, for the last pair seen.  The kernel's per-segment max, min and
sum come from ``SegmentReduce`` over batch-major columns, built once per
layout and per zero-count level, and from ``BlockReduce`` over a level's
sample-minor rows, built once per level.

The potentials of theta rows at messages lam are, everywhere in the package,
``theta + message_potentials(layout, lam)``, rounded that one way, and one
pass of the region soft-max over them gives both their Gibbs beliefs and
their region log-partitions (``_beliefs``, ``belief_vec``).

``sweep_until_consistent`` accelerates its sweeps by a guarded
extrapolation of each row's recent message rows (``_extrapolate``, a
fixed-order least-squares solve that ``learner.train`` also applies to its
iterate of weights and messages).

The module-level helpers operate on batches: message matrices of shape
(num_samples, message_total) against potential matrices (num_samples,
total); only the level kernel's internals take them transposed.  Samples
never interact, so batching is purely an efficiency device;
single-sample operations use the same code path with a batch of one, which
keeps results bitwise independent of how samples are grouped into batches.
"""

from __future__ import annotations

import bisect
import logging
import operator
import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import CountingNumbers, GraphLayout, RegionGraph, Sample, _spans
from .softmax import (  # noqa: F401 (ARGMAX_TOL: importable here too)
    ARGMAX_TOL,
    BlockReduce,
    GibbsPass,
    SegmentReduce,
    SoftMax,
    pairwise_sum,
)

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
    e = bisect.bisect_left(graph.edges, (parent, child))  # the edges are sorted
    if e == len(graph.edges) or graph.edges[e] != (parent, child):
        raise ValueError(f"no edge ({parent}, {child}) in the region graph")
    return e


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
        e = _edge_index(self.graph, parent, region)
        return self.vec[self.layout.edge_offsets[e] : self.layout.edge_offsets[e + 1]]

    def copy(self) -> "MessageState":
        return MessageState(self.graph, self.vec.copy())


# ---------------------------------------------------------------------------
# batched internals, shared with the objective and learner modules


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
    conflicting region placed before it holds.  Regions without parents are
    no-ops and are left out.
    """
    ec, first = layout.edge_child.tolist(), layout.child_first.tolist()
    children = [ec[a:b] for a, b in zip(first, first[1:])]
    parent_of, up_first = layout.edge_parent[layout.up].tolist(), layout.up_first.tolist()
    level = [-1] * layout.sizes.size  # -1: not placed yet, which takes no level
    levels: list[list[int]] = []
    for r in layout.regions_with_parents.tolist():
        parents = parent_of[up_first[r] : up_first[r + 1]]
        near = parents + children[r] + [x for p in parents for x in children[p]]
        taken = {level[x] for x in near}
        lv = level[r] = min(set(range(len(taken) + 1)) - taken)
        if lv == len(levels):
            levels.append([])
        levels[lv].append(r)
    return levels


def _term_lists(items: int, *groups):
    """Term lists (``_prefix_terms``) of ``items`` items from groups of terms
    (item, base, start): each item's terms of each group in turn."""
    item, base, start = map(np.concatenate, zip(*(np.broadcast_arrays(*g) for g in groups)))
    order = np.argsort(item, kind="stable")
    count = np.bincount(item, minlength=items)
    return count, np.cumsum(count) - count, base[order], start[order]


def _prefix_terms(index: np.ndarray, width: np.ndarray, lists, items=slice(None)):
    """Gather tables of the term lists (count, first, base, start) of
    ``items``: item j's k-th term, k < count[j], gathers base[i] +
    index[start[i] : start[i] + width[j]] at i = first[j] + k.  Items go by
    term count, most first (a stable sort), so the columns with a k-th term
    form a prefix.  Returns that order and, per k, (prefix width, indices)."""
    count, first, base, start = lists
    order = np.argsort(-count[items], kind="stable")
    count, width = count[items][order], width[order]
    # per column, its item's first term and its place in the item's run
    term, place = np.repeat(first[items][order], width), _spans(np.zeros_like(width), width)
    # the columns with a k-th term end where the items with more than k terms do
    ends = np.cumsum(width)[np.searchsorted(-count, -np.arange(count.max(initial=0))) - 1]
    terms = []
    for k, n in enumerate(ends.tolist()):
        at = term[:n] + k
        terms.append((n, index[start[at] + place[:n]] + base[at]))
    return order, terms


def _gather_add(acc: np.ndarray, src: np.ndarray, terms, axis: int = -1) -> np.ndarray:
    """Add the gathers ``terms`` (``_prefix_terms``) of ``src`` to ``acc``,
    along the last axis or, with ``axis=0``, the first."""
    for n, idx in terms:
        if axis == 0:
            acc[:n] += src.take(idx, axis=0)
        else:
            acc[..., :n] += src.take(idx, axis=-1)
    return acc


class _Level:
    """Gather and scatter indices that update one level's regions at once.

    The kernel runs on sample-minor rows: theta and messages arrive as
    (slots, samples) arrays, and every gather takes whole rows.  Rows follow
    three orders:
    - parent-exponent rows, one parent table per edge, in classes of equal
      term count (most first, so the rows with a k-th term form a prefix)
      and fiber width k; a class stores its S projection groups fiber-major,
      as k blocks of S rows (``BlockReduce``); by edge and child label
      within a block, which is also the order of ``mu``'s rows;
    - accumulator rows, one table per region, most terms first
      (``acc_regions``);
    - message rows, the tables grouped by size, each group of K tables of n
      entries stored entry-major, as n blocks of K rows, for the centring.
    The mu of edge e occupies the rows from ``mu_at[e]`` of ``mu``'s result.
    """

    def __init__(self, plan: "SweepPlan", regions: list[int]):
        self.regions = regions
        layout, sizes, eo = plan.layout, plan.layout.sizes, plan.layout.edge_offsets
        index, perm, _, region_terms, edge_terms = plan.tables
        regions = np.array(regions, dtype=np.int64)
        kids, ups = np.diff(layout.child_first)[regions], np.diff(layout.up_first)[regions]
        # the level's edges: each region's parent edges, in edge order
        edges = layout.up[_spans(layout.up_first[regions], ups)]
        p = layout.edge_parent[edges]
        psize, csize = sizes[p], sizes[layout.edge_child[edges]]

        # parent exponents: theta_p plus the edge's terms, in classes of
        # (term count, most first; fiber width), each edge's in its
        # projection-group order and then each class fiber-major
        count, fiber = edge_terms[0][edges], psize // csize
        order = np.lexsort((fiber, -count))
        _, exp_terms = _prefix_terms(index, psize[order], edge_terms, edges[order])
        by_terms, p, psize, width = edges[order], p[order], psize[order], csize[order]
        count, fiber = count[order], fiber[order]
        first = np.flatnonzero(np.diff(count, prepend=-1) | np.diff(fiber, prepend=-1))
        k, groups = fiber[first], np.add.reduceat(width, first)
        column = np.concatenate(([0], np.cumsum(psize)))  # each edge's first column
        rows = _fiber_major(column[np.append(first, psize.size)], k)
        start = perm[layout.edge_shape[by_terms]]
        self.theta_idx = (np.repeat(layout.offsets[p], psize) + index[_spans(start, psize)])[rows]
        self.exp_terms = [(n, idx[rows[:n]]) for n, idx in exp_terms]
        self.negated = bool(np.diff(layout.up_first)[p].any())

        # grouped log-sum-exp: one group per child label of every edge, of
        # the edge's fiber = psize / csize parent labels projecting to it
        self.groups = BlockReduce(k, groups)
        self.group_of = np.repeat(np.arange(width.sum()), np.repeat(fiber, width))[rows]
        self.group_edge = np.repeat(by_terms, width)
        mu_at = np.empty_like(edges)
        mu_at[order] = np.cumsum(width) - width
        self.mu_at = dict(zip(edges.tolist(), mu_at.tolist()))

        # accumulators: theta_r, plus r's children's messages, plus the mus
        # of r's parent edges: its region terms, the outgoing messages replaced
        # by the mus, read from [messages, mus] at msg + mu slot
        count, first, base, start = region_terms
        base = base.copy()
        base[_spans(first[regions] + kids, ups)] = layout.message_total + mu_at
        order, self.acc_terms = _prefix_terms(index, sizes[regions], (count, first, base, start),
                                              regions)
        by_acc = regions[order]
        self.acc_regions = by_acc.tolist()
        width = sizes[by_acc]
        # the accumulators are region tables, segmented for ``SoftMax`` by these
        self.starts = np.cumsum(width) - width
        self.segment = np.repeat(np.arange(by_acc.size), width)
        self.acc_idx = _spans(layout.offsets[by_acc], width)
        acc_at = np.empty_like(regions)
        acc_at[order] = self.starts

        # message tables, grouped by size, each group entry-major
        by_size = np.argsort(csize, kind="stable")
        width = csize[by_size]
        n, tables = np.unique(width, return_counts=True)
        end = np.cumsum(n * tables)
        rows = _fiber_major(np.append(0, end), n)
        self.acc_take = _spans(np.repeat(acc_at, ups)[by_size], width)[rows]
        self.mu_take = _spans(mu_at[by_size], width)[rows]
        self.write_idx = _spans(eo[edges[by_size]], width)[rows]
        self.table_edge = np.repeat(edges[by_size], width)[rows]
        self.blocks = list(zip((end - n * tables).tolist(), end.tolist(), tables.tolist(), n.tolist()))

    def mu(self, lam: np.ndarray, theta: np.ndarray, c: "_LevelCoefficients") -> np.ndarray:
        """The soft-max aggregations mu_{p->r} of every edge of the level, at
        temperatures eps * c_p (the max at zero), from sample-minor rows."""
        src = np.concatenate((lam, -lam)) if self.negated else lam
        return c.softmax(_gather_add(theta.take(self.theta_idx, axis=0), src, self.exp_terms, 0)).lse

    def accumulate(self, lam: np.ndarray, theta: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Per region, theta_r plus its children's messages plus the mus of
        its parent edges, in accumulator rows."""
        return _gather_add(theta.take(self.acc_idx, axis=0), np.concatenate((lam, mu)),
                           self.acc_terms, 0)

    def update(self, lam: np.ndarray, theta: np.ndarray, c: "_LevelCoefficients") -> None:
        """Block-minimize the messages of the level's regions, in place on
        the sample-minor rows ``lam``: each table is c_p / (c_r + sum of
        parent c) times the accumulator minus its mu, mean-centred in
        ``ndarray.sum``'s order, 0 plus the pairwise sum of its entries."""
        mu = self.mu(lam, theta, c)
        tables = c.weight * self.accumulate(lam, theta, mu).take(self.acc_take, axis=0)
        tables -= mu.take(self.mu_take, axis=0)
        for a, b, k, n in self.blocks:
            block = tables[a:b].reshape(n, k, -1)
            mean = pairwise_sum(block, np.empty(block.shape[1:]))
            mean += 0.0  # ndarray.sum starts from 0: a sum of -0.0 is +0.0
            mean /= n
            block -= mean
        idx = self.write_idx
        if c.keep is not None:
            idx, tables = idx[c.keep], tables[c.keep]
        lam[idx] = tables


def _fiber_major(bounds: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Per run [bounds[i], bounds[i + 1]) of positions, read as rows of
    ``inner[i]`` entries: its positions column after column.  Reordering by
    it stores the j-th entries of all of a run's rows as its j-th block."""
    lengths = np.diff(bounds)
    inner = np.repeat(inner, lengths)
    rows = np.repeat(lengths, lengths) // inner
    place = _spans(np.zeros_like(lengths), lengths)
    return np.repeat(bounds[:-1], lengths) + place % rows * inner + place // rows


class _LevelCoefficients:
    """The counting-number terms of one level at one (eps, cvals)."""

    def __init__(self, level: _Level, terms: "_Terms"):
        coeff = terms.c_edge[level.group_edge]
        self.softmax = SoftMax(level.groups, level.group_of, terms.eps, coeff)
        self.weight = terms.weight[level.table_edge][:, None]
        keep = ~terms.skip[level.table_edge]
        self.keep = None if keep.all() else keep


class Guarantees(NamedTuple):
    """Which of the paper's guarantees hold at one (eps, counting numbers)
    on one graph.  ``SweepPlan.at`` derives them (``_Terms``), the one place
    that decides a guarantee from the signs of eps and of the c_r."""

    descent: bool  # every c_r >= 0: convex, so descent is monotone
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
        c_up, up_first = self.c_edge[layout.up], layout.up_first.tolist()
        for r in layout.regions_with_parents.tolist():  # reduceat and bincount add in other orders
            denom[r] = cvals[r] + c_up[up_first[r] : up_first[r + 1]].sum()
        self.denom, self.skip = denom, (denom == 0.0)[ec]
        self.weight = self.c_edge / np.where(denom == 0.0, 1.0, denom)[ec]
        self.regions = SoftMax(plan.segments, layout.segment, eps, cvals)
        descent = bool((cvals >= 0).all())
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
        regions = [r for r in self.plan.layout.regions_with_parents.tolist() if self.cvals[r] == 0.0]
        if not regions:
            return None
        level = _Level(self.plan, regions)
        acc = SegmentReduce(level.starts, len(level.acc_idx))
        chat = self.denom[level.acc_regions]
        return level, _LevelCoefficients(level, self), SoftMax(acc, level.segment, self.eps, chat)


def _warn_skipped(regions, denom: np.ndarray) -> None:
    for r in regions:
        if denom[r] == 0.0:
            logger.warning("region %d: c_r + sum of parent counting numbers is zero; "
                           "update skipped", r)


def check_eps(eps: float) -> None:
    """``ValueError`` for a non-finite or negative ``eps``."""
    if not np.isfinite(eps):
        raise ValueError("eps must be finite")
    if eps < 0:
        raise ValueError("eps must be nonnegative")


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
        return [_Level(self, regions) for regions in conflict_levels(self.layout)]

    @property
    def sequence(self) -> list[int]:
        return [r for level in self.levels for r in level.regions]

    @cached_property
    def segments(self) -> SegmentReduce:
        """Per-region max, min and sum of concatenated table rows."""
        return SegmentReduce(self.layout.starts, self.layout.total)

    def at(self, eps: float, cvals: np.ndarray) -> _Terms:
        """The terms of (eps, cvals), derived once for the last pair seen; a
        non-finite or negative ``eps`` raises ``ValueError``."""
        check_eps(eps)
        key = (float(eps), cvals.tobytes())
        if self._terms is None or self._terms[0] != key:
            self._terms = (key, _Terms(self, eps, cvals))
        return self._terms[1]

    @cached_property
    def tables(self):
        """(index, perm, columns, region terms, edge terms).  ``index`` holds
        the identity, then per edge shape its projection, ``perm`` and perm
        columns (``perm.reshape(child labels, -1).T``), then per pair (s2, s)
        of the shapes of two edges with one parent the projection of s2 at the
        perm of s; ``perm`` and ``columns`` say where each shape's start.  The
        term lists (``_term_lists``) read [lam, -lam]: a region's, its incoming
        then its negated outgoing messages; an edge's, its parent's other
        incoming then negated outgoing ones, in the edge's projection-group
        order."""
        layout = self.layout
        n, msg, eo = len(layout.shape_proj), layout.message_total, layout.edge_offsets[:-1]
        ep, shape = layout.edge_parent, layout.edge_shape
        kids, ups = np.diff(layout.child_first), np.diff(layout.up_first)
        nsib = kids[ep] - 1
        sib = _spans(layout.child_first[ep], nsib)
        edges = np.arange(ep.size)
        sib += sib >= edges.repeat(nsib)  # each edge's siblings, itself left out
        pairs, pair = np.unique(shape[sib] * n + np.repeat(shape, nsib), return_inverse=True)
        tables = [np.arange(layout.sizes.max(initial=0))]
        for proj, perm in zip(layout.shape_proj, layout.shape_perm):
            tables += [proj, perm, perm.reshape(proj.max() + 1, -1).T.ravel()]
        tables += [layout.shape_proj[k // n][layout.shape_perm[k % n]] for k in pairs.tolist()]
        width = np.array([t.size for t in tables], dtype=np.int64)
        at = np.cumsum(width) - width
        proj, perm, columns = at[1 : 1 + 3 * n].reshape(n, 3).T
        up = layout.up[_spans(layout.up_first[ep], ups[ep])]  # the parents' parent edges
        region_terms = _term_lists(kids.size, (ep, eo, proj[shape]),
                                   (layout.edge_child[layout.up], msg + eo[layout.up], 0))
        edge_terms = _term_lists(ep.size, (edges.repeat(nsib), eo[sib], at[1 + 3 * n + pair]),
                                 (edges.repeat(ups[ep]), msg + eo[up], perm[shape].repeat(ups[ep])))
        return np.concatenate(tables), perm, columns, region_terms, edge_terms

    @cached_property
    def potentials(self):
        """Gather tables of ``message_potentials`` from the region terms
        (``tables``): (terms, place), column ``place[s]`` holding slot s."""
        offsets, sizes = self.layout.offsets, self.layout.sizes
        index, _, _, region_terms, _ = self.tables
        order, terms = _prefix_terms(index, sizes, region_terms)
        return terms, np.argsort(_spans(offsets[order], sizes[order]))

    @cached_property
    def marginals(self):
        """Gather tables of ``residual_rows``: (terms, child).  A message
        slot's terms are its G parent slots in ascending parent label (its
        edge's ``perm``, row by row; G parent labels per child label).
        Columns hold the edges by G, largest first; column i's child slot
        is ``child[i]``."""
        layout, (index, _, columns, _, _) = self.layout, self.tables
        ep, ec, offsets = layout.edge_parent, layout.edge_child, layout.offsets
        n, g = layout.sizes[ec], layout.sizes[ep] // layout.sizes[ec]
        # term j of an edge reads the j-th column of its perm
        column = columns[layout.edge_shape].repeat(g) + _spans(np.zeros_like(g), g) * n.repeat(g)
        lists = g, np.cumsum(g) - g, np.repeat(offsets[ep], g), column
        order, terms = _prefix_terms(index, n, lists)
        return terms, _spans(offsets[ec[order]], n[order])


def sweep_plan(layout: GraphLayout) -> SweepPlan:
    """The layout's sweep plan, made on first use and cached on the layout."""
    if layout.plan_cache is None:
        layout.plan_cache = SweepPlan(layout)
    return layout.plan_cache


def guarantees(graph: RegionGraph, eps: float, counting=None) -> Guarantees:
    """The ``Guarantees`` of ``eps`` and ``counting`` (``CountingNumbers.of``)."""
    return sweep_plan(graph.layout()).at(eps, CountingNumbers.of(graph, counting).values).guarantees


def sweep_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
    sweeps: int = 1,
) -> None:
    """``sweeps`` sweeps of region updates on the batch-major rows ``lam``,
    in place, run level by level on sample-minor copies of ``lam`` and
    ``theta`` made once per call; bitwise equal to updating the regions of
    ``sweep_plan(layout).sequence`` one at a time (``lambda_update``)."""
    plan = sweep_plan(layout)
    lam_t = lam.T.copy()
    _sweep(plan, plan.at(eps, cvals), lam_t, theta.T.copy(), sweeps)
    lam[...] = lam_t.T


def _sweep(plan: SweepPlan, terms: _Terms, lam: np.ndarray, theta: np.ndarray, sweeps: int) -> None:
    """``sweeps`` sweeps of the level kernel on sample-minor rows."""
    for _ in range(sweeps):
        for level, c in zip(plan.levels, terms.levels):
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
        acc = level.accumulate(lam.T, theta.T, level.mu(lam.T, theta.T, c))
        b[:, level.acc_idx] = softmax(acc.T.copy()).beliefs(level)
    return b


def residual_rows(layout: GraphLayout, bvec: np.ndarray) -> np.ndarray:
    """Largest parent-marginal vs child-belief disagreement, per batch row.

    Each parent marginal adds, from zero, its parent beliefs in ascending
    parent label, one gather-and-add of ``SweepPlan.marginals`` per term
    position (``_gather_add``); 0 + b is b, but for -0 becoming +0, which
    the absolute value removes.  A single (batch, G, n) gather summed over
    axis 1 gives the same bits only while numpy keeps that axis apart (it
    sums a folded, contiguous one pairwise), and it raises a train's peak memory.
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
    warnings.  A non-finite or negative ``eps``, a negative ``max_sweeps``
    or a NaN ``tol`` raises ``ValueError`` before any sweep.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be at least 0")
    if np.isnan(tol):
        raise ValueError("tol must not be NaN")
    k, n = EXTRAPOLATE_EVERY, lam.shape[0]
    plan = sweep_plan(layout)
    terms = plan.at(eps, cvals)
    accelerate = terms.guarantees.certificate
    period = k if accelerate else 1  # the measured sweeps: the first, each period-th, the cap
    b = belief_vec(layout, lam, theta, eps, cvals)
    residual = residual_rows(layout, b)
    sweeps = np.zeros(n, dtype=np.int64)
    extrapolations = np.zeros(n, dtype=np.int64)
    measured = np.ones(n, dtype=np.int64)
    ring = np.empty((k,) + lam.shape) if accelerate else None  # iterates since the last K-th sweep
    # the active rows' theta and messages sample-minor between measurements,
    # which read them batch-major and have the peak memory without them
    lam_t = theta_t = None
    for s in range(max_sweeps):
        rows = np.flatnonzero(residual > tol)
        if rows.size == 0:
            break
        full = rows.size == n
        if lam_t is None:
            lam_t = (lam if full else lam[rows]).T.copy()
            theta_t = (theta if full else theta[rows]).T.copy()
        if accelerate:
            ring[s % k, rows] = lam_t.T
        _sweep(plan, terms, lam_t, theta_t, 1)
        sweeps[rows] += 1
        if s == 0 or (s + 1) % period == 0 or s + 1 == max_sweeps:
            sub_lam = lam if full else np.empty((rows.size, lam.shape[1]))
            sub_lam[...] = lam_t.T
            sub_theta, lam_t, theta_t = (theta if full else theta[rows]), None, None
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
    """``region`` as an int; a non-integer id or one outside the graph raises ``ValueError``."""
    try:
        region = operator.index(region)
    except TypeError:
        raise ValueError(f"region id {region!r} is not an integer") from None
    if not 0 <= region < layout.sizes.size:
        raise ValueError(f"region {region} is not in the region graph")
    return region


def _region_level(layout: GraphLayout, region, terms: _Terms):
    """The level that updates ``region`` alone, its coefficients at the
    ``terms`` of one (eps, cvals) and their denominators c_r + sum of parent
    c; None for a region without parents, whose update is a no-op.  An id
    outside the graph raises ``ValueError``."""
    region = region_index(layout, region)
    if layout.up_first[region] == layout.up_first[region + 1]:
        return None
    plan = sweep_plan(layout)
    if region not in plan.one_region:
        plan.one_region[region] = _Level(plan, [region])
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
    return level.mu(lam.T, theta.T, c)[start : start + layout.sizes[child], 0]


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
        level.update(lam.T, theta.T, c)
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
    return np.split(belief_vec(layout, lam, theta, eps, terms.cvals)[0], layout.offsets[1:-1])


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
