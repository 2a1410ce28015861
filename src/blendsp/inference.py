"""Per-sample block-coordinate message passing on a region graph.

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
at a time: the results are bitwise equal to that sequential sweep.  By
default the levels are colour classes: the regions with parents, in id order,
each take the smallest level no conflicting region already holds (first-fit
colouring), which is 2 levels on a 10x10 or 40x40 grid and 6 on the 3-level
``highorder`` benchmark graph.  An explicit order keeps its own sequential
results: a region's level is one more than the largest level of any
conflicting region earlier in the order, which for id order is a wavefront of
19 levels on 10x10 (79 on 40x40).  Block-coordinate descent converges in any
cyclic order, and the order moves the number of sweeps needed little next to
what it saves per sweep.  Each level is one set of array calls: gathers of
the parent exponents (projection permutations folded into the indices), one
grouped log-sum-exp over all of the level's edges, the accumulation, a
mean-centring per group of equal-size tables, and one scatter of the new
tables.  The plan is built on the first sweep and cached on the layout
(``sweep_plan``); ``lambda_update_vec`` remains the per-region update and the
reference the schedule is tested against.

The module-level helpers operate on batches: message matrices of shape
(num_samples, message_total) against potential matrices (num_samples,
total).  Samples never interact, so batching is purely an efficiency device;
single-sample operations use the same code path with a batch of one, which
keeps results bitwise independent of how samples are grouped into batches.
"""

from __future__ import annotations

import logging

import numpy as np

from .model import CountingNumbers, GraphLayout, RegionGraph, Sample
from .numerics import ARGMAX_TOL

__all__ = [
    "MessageState",
    "mu_message",
    "lambda_update",
    "compute_beliefs",
    "marginal_residual",
    "inference_sweep",
]

logger = logging.getLogger(__name__)


def counting_values(counting, graph: RegionGraph) -> np.ndarray:
    if counting is None:
        return np.ones(graph.region_count)
    if isinstance(counting, CountingNumbers):
        return counting.values
    return np.asarray(counting, dtype=float)


class MessageState:
    """All child-to-parent message tables of one sample, concatenated.

    The table for edge (p, r) lives over the child's labels.  States are
    partitioned per sample: sweeps on different samples never share mutable
    state and may run concurrently.
    """

    def __init__(self, graph: RegionGraph):
        self.graph = graph
        self.layout = graph.layout()
        self.vec = np.zeros(self.layout.message_total)

    @classmethod
    def from_view(cls, graph: RegionGraph, vec: np.ndarray) -> "MessageState":
        out = cls.__new__(cls)
        out.graph = graph
        out.layout = graph.layout()
        out.vec = vec
        return out

    def table(self, region: int, parent: int) -> np.ndarray:
        """Message table sent from ``region`` to ``parent`` (a writable view)."""
        e = self.graph.edges.index((parent, region))
        return self.vec[self.layout.edge_slice(e)]

    def copy(self) -> "MessageState":
        return MessageState.from_view(self.graph, self.vec.copy())


# ---------------------------------------------------------------------------
# batched internals, shared with the objective and learner modules


def segmented_lse(layout: GraphLayout, vec: np.ndarray, t_regions: np.ndarray) -> np.ndarray:
    """Per-region t*log(sum(exp(./t))) over concatenated table rows.

    ``vec`` has shape (batch, total); the result is (batch, regions).
    """
    starts = layout.starts
    seg = layout.segment
    m = np.maximum.reduceat(vec, starts, axis=-1)
    use_min = t_regions < 0
    if use_min.any():
        m = np.where(use_min, np.minimum.reduceat(vec, starts, axis=-1), m)
    t_slot = t_regions[seg]
    safe_t = np.where(t_slot != 0, t_slot, 1.0)
    e = m.take(seg, axis=-1)
    np.subtract(vec, e, out=e)
    e /= safe_t
    np.exp(e, out=e)
    if (t_slot == 0).any():
        e = np.where(t_slot == 0, 0.0, e)
    z = np.add.reduceat(e, starts, axis=-1)
    nonzero = t_regions != 0
    out = m.copy()
    out[..., nonzero] += t_regions[nonzero] * np.log(z[..., nonzero])
    return out


def segmented_gibbs(
    layout: GraphLayout, vec: np.ndarray, t_regions: np.ndarray, coeff: np.ndarray
) -> np.ndarray:
    """Per-region Gibbs normalization over concatenated table rows.

    ``coeff`` carries the counting numbers so that zero-temperature regions
    tie-break toward the max (coeff >= 0) or the min (coeff < 0), matching
    the limit of exp(v / (eps * coeff)) as eps approaches zero.
    """
    starts = layout.starts
    seg = layout.segment
    m = np.maximum.reduceat(vec, starts, axis=-1)
    use_min = np.where(t_regions == 0, coeff < 0, t_regions < 0)
    if use_min.any():
        m = np.where(use_min, np.minimum.reduceat(vec, starts, axis=-1), m)
    t_slot = t_regions[seg]
    zero_slot = t_slot == 0
    safe_t = np.where(zero_slot, 1.0, t_slot)
    x = np.where(zero_slot, 0.0, (vec - m[..., seg]) / safe_t)
    e = np.exp(x)
    if zero_slot.any():
        m_slot = m[..., seg]
        tie = np.where(
            use_min[seg], vec <= m_slot + ARGMAX_TOL, vec >= m_slot - ARGMAX_TOL
        )
        e = np.where(zero_slot, tie.astype(float), e)
    z = np.add.reduceat(e, starts, axis=-1)
    return e / z[..., seg]


def theta_hat_vec(layout: GraphLayout, theta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Message-parameterized potentials: theta + incoming - outgoing messages.

    One bincount per row over ``layout.hat_bins``: each slot starts from its
    theta, then adds its incoming and negated outgoing messages in edge order.
    """
    if layout.message_total == 0:
        return theta.copy()

    def row(th, lm):
        weights = np.concatenate((th, lm[layout.in_source], -lm))
        return np.bincount(layout.hat_bins, weights, layout.total)

    if theta.ndim == 1:
        return row(theta, lam)
    out = np.empty_like(theta)
    for i in range(theta.shape[0]):
        out[i] = row(theta[i], lam[i])
    return out


def _group_lse(expo: np.ndarray, edge: int, layout: GraphLayout, t: float) -> np.ndarray:
    """Log-sum-exp (or max) within the projection groups of a parent table.

    ``expo`` is (batch, parent_labels); the result is (batch, child_labels).
    """
    v = expo[:, layout.perm[edge]]
    starts = layout.group_starts[edge]
    if t == 0.0:
        return np.maximum.reduceat(v, starts, axis=1)
    m = (
        np.maximum.reduceat(v, starts, axis=1)
        if t > 0
        else np.minimum.reduceat(v, starts, axis=1)
    )
    z = np.add.reduceat(np.exp((v - m[:, layout.group_of[edge]]) / t), starts, axis=1)
    return m + t * np.log(z)


def _parent_exponent(
    layout: GraphLayout, lam: np.ndarray, theta: np.ndarray, edge: int
) -> np.ndarray:
    """Parent-side table feeding the message on ``edge``: theta_p plus
    messages from the other children minus messages to the grandparents."""
    p = layout.edge_parent[edge]
    expo = theta[:, layout.region_slices[p]].copy()
    for e2 in layout.child_edges[p]:
        if e2 != edge:
            expo += lam[:, layout.lam_in_idx[e2]]
    for e3 in layout.parent_edges[p]:
        expo -= lam[:, layout.edge_slices[e3]]
    return expo


def mu_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    edge: int,
    eps: float,
    cvals: np.ndarray,
) -> np.ndarray:
    expo = _parent_exponent(layout, lam, theta, edge)
    t = eps * cvals[layout.edge_parent[edge]]
    return _group_lse(expo, edge, layout, t)


def lambda_update_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    region: int,
    eps: float,
    cvals: np.ndarray,
) -> None:
    edges = layout.parent_edges[region]
    if not edges:
        return
    denom = cvals[region] + cvals[layout.edge_parent[edges]].sum()
    if denom == 0.0:
        logger.warning(
            "region %d: c_r + sum of parent counting numbers is zero; update skipped",
            region,
        )
        return
    mus = [mu_vec(layout, lam, theta, e, eps, cvals) for e in edges]
    acc = theta[:, layout.region_slices[region]].copy()
    for e2 in layout.child_edges[region]:
        acc += lam[:, layout.lam_in_idx[e2]]
    for mu in mus:
        acc += mu
    for e, mu in zip(edges, mus):
        table = (cvals[layout.edge_parent[e]] / denom) * acc - mu
        table -= table.sum(axis=1, keepdims=True) / table.shape[1]
        lam[:, layout.edge_slices[e]] = table


def conflict_levels(layout: GraphLayout, order=None) -> list[list[int]]:
    """Split a sweep into levels of mutually non-conflicting regions.

    Two region updates conflict when one region is the other's parent or
    child, or when they share a parent: only then does one read or write a
    message slot the other writes.  By default the regions with parents, in
    id order, are coloured first-fit: each takes the smallest level that no
    conflicting region placed before it holds (2 levels on a grid).  Given an
    ``order``, a region's level is one more than the largest level of any
    conflicting update earlier in ``order`` (a region conflicts with itself),
    so running the levels in turn, each all at once, performs the updates of
    ``order`` in an order equivalent to it.  Regions without parents are
    no-ops and are left out.
    """
    ep, ec = layout.edge_parent.tolist(), layout.edge_child.tolist()
    level: dict[int, int] = {}
    levels: list[list[int]] = []
    for r in layout.regions_with_parents if order is None else order:
        r = int(r)
        if not layout.parent_edges[r]:
            continue
        parents = [ep[e] for e in layout.parent_edges[r]]
        near = parents + [ec[e] for e in layout.child_edges[r]]
        near += [ec[e] for p in parents for e in layout.child_edges[p]]
        taken = {level[x] for x in near if x in level}
        if order is None:
            lv = min(set(range(len(taken) + 1)) - taken)
        else:
            lv = 1 + max(taken, default=-1)
        level[r] = lv
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


class _Level:
    """Gather and scatter indices that update one level's regions at once.

    Columns follow three orders: parent-exponent columns (one parent table
    per edge, edges with the most terms first), accumulator columns (one
    table per region, most terms first) and message columns (one table per
    edge, grouped by table size for the mean-centring).
    """

    def __init__(self, layout: GraphLayout, regions: list[int], ranges: dict):
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

        # grouped log-sum-exp: one group per child label of every edge
        col_off = np.cumsum([0] + [psize[e] for e in by_terms]).tolist()
        mu_off = np.cumsum([0] + [csize[e] for e in by_terms]).tolist()
        self.starts = _cat([layout.group_starts[e] + col_off[i] for i, e in enumerate(by_terms)])
        self.group_of = _cat([layout.group_of[e] + mu_off[i] for i, e in enumerate(by_terms)])
        self.column_edge = np.repeat(by_terms, [psize[e] for e in by_terms])
        self.group_edge = np.repeat(by_terms, [csize[e] for e in by_terms])
        mu_at = {e: mu_off[i] for i, e in enumerate(by_terms)}

        # accumulators: theta_r, plus r's children's messages, plus the mus
        # of r's parent edges, read from [messages, mus] at msg + mu slot
        acc_terms = {
            r: [layout.lam_in_idx[e2] for e2 in layout.child_edges[r]]
            + [ranges[sizes[r]] + (msg + mu_at[e]) for e in layout.parent_edges[r]]
            for r in regions
        }
        by_acc = sorted(regions, key=lambda r: -len(acc_terms[r]))
        acc_off = np.cumsum([0] + [sizes[r] for r in by_acc]).tolist()
        acc_at = {r: acc_off[i] for i, r in enumerate(by_acc)}
        self.acc_idx = _cat([ranges[sizes[r]] + layout.offsets[r] for r in by_acc])
        self.acc_terms = _prefix_terms(by_acc, acc_terms, {r: sizes[r] for r in regions})

        # message tables, grouped by size for the reshape-sum centring
        by_size = sorted(edges, key=lambda e: csize[e])
        self.acc_take = _cat([ranges[csize[e]] + acc_at[ec[e]] for e in by_size])
        self.mu_take = _cat([ranges[csize[e]] + mu_at[e] for e in by_size])
        self.write_idx = _cat([ranges[csize[e]] + layout.edge_offsets[e] for e in by_size])
        self.table_edge = np.repeat(by_size, [csize[e] for e in by_size])
        self.blocks = []
        start = 0
        for n in sorted(set(csize.values())):
            k = sum(1 for e in edges if csize[e] == n)
            self.blocks.append((start, start + k * n, k, n))
            start += k * n


class _LevelCoefficients:
    """The counting-number terms of one level at one (eps, cvals)."""

    def __init__(self, level: _Level, t_edge, weight_edge, skip_edge):
        t_col = t_edge[level.column_edge]
        self.t_col = np.where(t_col == 0.0, 1.0, t_col)
        self.t_group = t_edge[level.group_edge]
        use_min = self.t_group < 0
        self.use_min = use_min if use_min.any() else None
        self.max_only = self.t_group == 0
        self.weight = weight_edge[level.table_edge]
        keep = ~skip_edge[level.table_edge]
        self.keep = None if keep.all() else keep


class SweepPlan:
    """The level schedule of one sweep over a layout (``conflict_levels``).

    Depends only on the layout and the order; ``sequence`` lists the region
    updates in the order the sweep performs them, level by level.  The
    counting-number terms are derived from ``cvals`` and cached for the last
    (eps, cvals) seen.
    """

    def __init__(self, layout: GraphLayout, order):
        # the layout's own arrays, not the layout, which caches the plan
        self.edge_parent, self.edge_child = layout.edge_parent, layout.edge_child
        self.parent_edges = layout.parent_edges
        regions_by_level = conflict_levels(layout, order)
        self.sequence = [r for regions in regions_by_level for r in regions]
        ranges = {n: np.arange(n) for n in set(layout.sizes.tolist())}
        self.levels = [_Level(layout, regions, ranges) for regions in regions_by_level]
        self._cached = None  # (key, coefficients, skipped), replaced whole

    def coefficients(self, eps: float, cvals: np.ndarray):
        """Per-level coefficients and the regions skipped for a zero
        denominator c_r + sum of parent c, in sweep order."""
        key = (float(eps), cvals.tobytes())
        cached = self._cached
        if cached is None or cached[0] != key:
            ep, ec = self.edge_parent, self.edge_child
            denom = np.ones(len(self.parent_edges))
            for r in set(self.sequence):
                denom[r] = cvals[r] + cvals[ep[self.parent_edges[r]]].sum()
            zero = denom == 0.0
            weight = cvals[ep] / np.where(zero, 1.0, denom)[ec]
            coeffs = [
                _LevelCoefficients(level, eps * cvals[ep], weight, zero[ec])
                for level in self.levels
            ]
            cached = self._cached = (key, coeffs, [r for r in self.sequence if zero[r]])
        return cached[1], cached[2]

    def run(self, lam: np.ndarray, theta: np.ndarray, eps: float, cvals: np.ndarray) -> None:
        coeffs, skipped = self.coefficients(eps, cvals)
        for r in skipped:
            logger.warning(
                "region %d: c_r + sum of parent counting numbers is zero; update skipped", r
            )
        batch = lam.shape[0]
        for level, c in zip(self.levels, coeffs):
            src = np.concatenate((lam, -lam), axis=1) if level.negated else lam
            v = theta.take(level.theta_idx, axis=1)
            for n, idx in level.exp_terms:
                v[:, :n] += src.take(idx, axis=1)
            mx = m = np.maximum.reduceat(v, level.starts, axis=1)
            if c.use_min is not None:
                m = np.where(c.use_min, np.minimum.reduceat(v, level.starts, axis=1), mx)
            x = (v - m.take(level.group_of, axis=1)) / c.t_col
            z = np.add.reduceat(np.exp(x), level.starts, axis=1)
            mu = np.where(c.max_only, mx, m + c.t_group * np.log(z))

            src = np.concatenate((lam, mu), axis=1)
            acc = theta.take(level.acc_idx, axis=1)
            for n, idx in level.acc_terms:
                acc[:, :n] += src.take(idx, axis=1)

            tables = c.weight * acc.take(level.acc_take, axis=1)
            tables -= mu.take(level.mu_take, axis=1)
            for a, b, k, n in level.blocks:
                block = tables[:, a:b].reshape(batch, k, n)
                block -= (block.sum(axis=2) / n)[:, :, None]
            if c.keep is None:
                lam[:, level.write_idx] = tables
            else:
                lam[:, level.write_idx[c.keep]] = tables[:, c.keep]


def sweep_plan(layout: GraphLayout, order=None) -> SweepPlan:
    """The level schedule of ``order`` (default: the first-fit colouring of
    the regions with parents), built on first use and cached on the layout
    for the last order."""
    key = None if order is None else tuple(int(r) for r in order)
    cached = layout.plan_cache
    if cached is None or cached[0] != key:
        plan = SweepPlan(layout, key)
        layout.plan_cache = cached = (key, plan)
    return cached[1]


def sweep_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
    order=None,
) -> None:
    """One sweep of region updates in ``order``, run level by level; bitwise
    equal to calling ``lambda_update_vec`` on each region of
    ``sweep_plan(layout, order).sequence`` in turn, and for an explicit
    ``order`` to calling it on each region of ``order``.  The default order
    is the first-fit colouring of ``conflict_levels``."""
    sweep_plan(layout, order).run(lam, theta, eps, cvals)


def belief_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
) -> np.ndarray:
    """Concatenated belief table rows at temperatures eps * c_r.

    Regions with c_r = 0 that have parents are degenerate under the direct
    formula (their parameterized potential vanishes at the fixed point); they
    take the equivalent aggregated form at temperature eps * (c_r + sum of
    parent c), which is the continuous limit and agrees with the parents'
    marginals at convergence.
    """
    theta_hat = theta_hat_vec(layout, theta, lam)
    b = segmented_gibbs(layout, theta_hat, eps * cvals, cvals)
    for r in layout.regions_with_parents:
        if cvals[r] != 0.0:
            continue
        edges = layout.parent_edges[r]
        expo = theta[:, layout.region_slices[r]].copy()
        for e2 in layout.child_edges[r]:
            expo += lam[:, layout.lam_in_idx[e2]]
        for e in edges:
            expo += mu_vec(layout, lam, theta, e, eps, cvals)
        chat = cvals[r] + cvals[layout.edge_parent[edges]].sum()
        t = eps * chat
        if t == 0.0:
            if chat < 0:
                bound = expo.min(axis=1, keepdims=True)
                tie = (expo <= bound + ARGMAX_TOL).astype(float)
            else:
                bound = expo.max(axis=1, keepdims=True)
                tie = (expo >= bound - ARGMAX_TOL).astype(float)
            table = tie / tie.sum(axis=1, keepdims=True)
        else:
            m = expo.max(axis=1, keepdims=True) if t > 0 else expo.min(axis=1, keepdims=True)
            e_tab = np.exp((expo - m) / t)
            table = e_tab / e_tab.sum(axis=1, keepdims=True)
        b[:, layout.region_slices[r]] = table
    return b


def residual_rows(layout: GraphLayout, bvec: np.ndarray) -> np.ndarray:
    """Largest parent-marginal vs child-belief disagreement, per batch row."""
    if layout.message_total == 0:
        return np.zeros(bvec.shape[0])
    agg = np.empty((bvec.shape[0], layout.message_total))
    for i, row in enumerate(bvec):
        agg[i] = np.bincount(layout.in_source, row[layout.in_target], layout.message_total)
    return np.abs(agg - bvec[:, layout.out_target]).max(axis=1)


def sweep_until_consistent(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
    max_sweeps: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep each row of ``lam`` in place until its residual is at most
    ``tol`` or it has had ``max_sweeps`` sweeps; return the final belief rows,
    per-row residuals and per-row sweep counts.

    Rows still active are swept together, gathered when some have stopped.
    Per-row arithmetic does not depend on the batch, so each row ends bitwise
    equal to a batch-of-one run.
    """
    b = belief_vec(layout, lam, theta, eps, cvals)
    residual = residual_rows(layout, b)
    sweeps = np.zeros(lam.shape[0], dtype=np.int64)
    for _ in range(max_sweeps):
        rows = np.flatnonzero(residual > tol)
        if rows.size == 0:
            break
        if rows.size == lam.shape[0]:
            sweep_vec(layout, lam, theta, eps, cvals)
            b = belief_vec(layout, lam, theta, eps, cvals)
            residual = residual_rows(layout, b)
        else:
            sub_lam, sub_theta = lam[rows], theta[rows]
            sweep_vec(layout, sub_lam, sub_theta, eps, cvals)
            lam[rows] = sub_lam
            sub_b = belief_vec(layout, sub_lam, sub_theta, eps, cvals)
            b[rows] = sub_b
            residual[rows] = residual_rows(layout, sub_b)
        sweeps[rows] += 1
    return b, residual, sweeps


# ---------------------------------------------------------------------------
# public per-sample operations


def _sample_inputs(graph, sample, state, w, include_loss):
    theta = sample.compiled().theta_vec(np.asarray(w, dtype=float), include_loss)
    return theta[None, :], state.vec[None, :]


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
    """Aggregated parent-to-child message over the child's labels."""
    if (parent, child) not in graph.edges:
        raise ValueError(f"no edge ({parent}, {child}) in the region graph")
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    theta, lam = _sample_inputs(graph, sample, state, w, include_loss)
    e = graph.edges.index((parent, child))
    return mu_vec(layout, lam, theta, e, eps, cvals)[0]


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
    """Block-minimize all messages from ``region`` to its parents, in place."""
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    theta, lam = _sample_inputs(graph, sample, state, w, include_loss)
    lambda_update_vec(layout, lam, theta, region, eps, cvals)
    return state


def inference_sweep(
    graph: RegionGraph,
    sample: Sample,
    state: MessageState,
    w: np.ndarray,
    eps: float,
    counting=None,
    order=None,
    include_loss: bool = True,
) -> MessageState:
    """One pass of lambda updates over ``order`` (default: every region with
    parents once, colour class by colour class; see ``conflict_levels``)."""
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    theta, lam = _sample_inputs(graph, sample, state, w, include_loss)
    sweep_vec(layout, lam, theta, eps, cvals, order)
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
    layout = graph.layout()
    cvals = counting_values(counting, graph)
    theta, lam = _sample_inputs(graph, sample, state, w, include_loss)
    b = belief_vec(layout, lam, theta, eps, cvals)[0]
    return [b[layout.region_slices[r]] for r in range(graph.region_count)]


def marginal_residual(graph: RegionGraph, beliefs: list[np.ndarray]) -> float:
    """Max over edges and child labels of |parent marginal - child belief|."""
    layout = graph.layout()
    bvec = (
        np.concatenate([np.asarray(t, dtype=float) for t in beliefs])
        if beliefs
        else np.zeros(0)
    )
    if bvec.size != layout.total:
        raise ValueError("beliefs do not match the graph layout")
    return float(residual_rows(layout, bvec[None, :])[0])
