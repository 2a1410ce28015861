"""Shared model builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from blendsp import CountingNumbers, Region, RegionGraph, Sample
from blendsp.numerics import ARGMAX_TOL


def chain_graph(n_vars: int, cards=None) -> RegionGraph:
    """Singletons 0..n-1 plus pairwise regions over consecutive variables."""
    cards = cards or [2] * n_vars
    regions = [Region(i, (i,), (cards[i],)) for i in range(n_vars)]
    edges = []
    rid = n_vars
    for i in range(n_vars - 1):
        regions.append(Region(rid, (i, i + 1), (cards[i], cards[i + 1])))
        edges += [(rid, i), (rid, i + 1)]
        rid += 1
    return RegionGraph(regions, edges, n_vars)


def tree_graph(rng: np.random.Generator, n_vars: int) -> RegionGraph:
    """Random spanning tree: singletons plus pairwise regions on tree edges."""
    regions = [Region(i, (i,), (2,)) for i in range(n_vars)]
    edges = []
    rid = n_vars
    for v in range(1, n_vars):
        u = int(rng.integers(0, v))
        a, b = min(u, v), max(u, v)
        regions.append(Region(rid, (a, b), (2, 2)))
        edges += [(rid, a), (rid, b)]
        rid += 1
    return RegionGraph(regions, edges, n_vars)


def loopy_graph(rng: np.random.Generator, n_vars: int, n_pairs: int) -> RegionGraph:
    """Singletons plus random distinct pairwise regions (cycles allowed).
    More pairs than the n_vars * (n_vars - 1) / 2 that exist raise
    ``ValueError``."""
    if n_pairs > n_vars * (n_vars - 1) // 2:
        raise ValueError(f"{n_pairs} distinct pairs of {n_vars} variables requested")
    regions = [Region(i, (i,), (2,)) for i in range(n_vars)]
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = sorted(rng.choice(n_vars, 2, replace=False).tolist())
        pairs.add((a, b))
    edges = []
    rid = n_vars
    for a, b in sorted(pairs):
        regions.append(Region(rid, (a, b), (2, 2)))
        edges += [(rid, a), (rid, b)]
        rid += 1
    return RegionGraph(regions, edges, n_vars)


def random_sample(
    rng: np.random.Generator,
    graph: RegionGraph,
    num_features: int,
    sample_id: int = 0,
    with_loss: bool = True,
) -> Sample:
    """Random feature/loss tables with a consistent random true assignment."""
    assign = rng.integers(0, graph.cardinalities)
    loss, feats, truth = {}, {}, {}
    for reg in graph.regions:
        strides = reg.strides()
        truth[reg.id] = int(
            sum(int(assign[v]) * int(s) for v, s in zip(reg.variables, strides))
        )
        k_count = int(rng.integers(1, min(num_features, 3) + 1))
        k_ids = rng.choice(num_features, size=k_count, replace=False)
        feats[reg.id] = {int(k): rng.normal(size=reg.label_count) for k in k_ids}
        if with_loss and len(reg.variables) == 1:
            table = rng.uniform(0.1, 2.0, reg.label_count)
            table[truth[reg.id]] = 0.0
            loss[reg.id] = table
    return Sample(graph, sample_id, loss, feats, truth)


def random_model(rng: np.random.Generator, max_vars: int = 6, num_features: int = 3):
    """A random loopy model plus one sample; small enough for enumeration."""
    n = int(rng.integers(2, max_vars + 1))
    n_pairs = int(rng.integers(1, n * (n - 1) // 2 + 1))
    graph = loopy_graph(rng, n, n_pairs)
    return graph, random_sample(rng, graph, num_features)


def brute_force_lse(values, t: float) -> float:
    """Independent high-precision log-sum-exp via math.fsum of exact exps."""
    values = [float(v) for v in values]
    if t == 0.0:
        return max(values)
    m = max(values) if t > 0 else min(values)
    return m + t * math.log(math.fsum(math.exp((v - m) / t) for v in values))


def primal_lambda_gradient_fd(graph, sample, state, w, eps, counting, h=1e-6):
    """Central finite differences of the primal in every message entry."""
    from blendsp.objective import primal_objective

    grad = np.zeros_like(state.vec)
    for j in range(state.vec.size):
        old = state.vec[j]
        state.vec[j] = old + h
        fp = primal_objective(graph, [sample], [state], w, eps, counting, 0.0)
        state.vec[j] = old - h
        fm = primal_objective(graph, [sample], [state], w, eps, counting, 0.0)
        state.vec[j] = old
        grad[j] = (fp - fm) / (2 * h)
    return grad


def ones(graph) -> CountingNumbers:
    return CountingNumbers.ones(graph)


def message_links(layout):
    """Per (edge, parent label) in edge order, the parent table slot and the
    message slot it projects to; per message slot, its child table slot."""
    in_slot, in_msg, out_slot = [], [], []
    for e, proj in enumerate(layout.proj):
        p, r = int(layout.edge_parent[e]), int(layout.edge_child[e])
        in_slot += range(layout.offsets[p], layout.offsets[p + 1])
        in_msg += (layout.edge_offsets[e] + proj).tolist()
        out_slot += range(layout.offsets[r], layout.offsets[r + 1])
    return tuple(np.array(x, dtype=np.int64) for x in (in_slot, in_msg, out_slot))


def add_at_message_part(layout, lam):
    """``message_potentials`` by np.add.at: incoming messages added, then
    outgoing ones subtracted, each in edge order."""
    in_slot, in_msg, out_slot = message_links(layout)
    out = np.zeros((lam.shape[0], layout.total))
    rows = np.arange(out.shape[0])[:, None]
    np.add.at(out, (rows, in_slot[None, :]), lam[:, in_msg])
    np.subtract.at(out, (rows, out_slot[None, :]), lam)
    return out


def add_at_residual(layout, bvec):
    """``residual_rows`` by np.add.at: parent marginals summed in ascending
    parent label."""
    in_slot, in_msg, out_slot = message_links(layout)
    agg = np.zeros((bvec.shape[0], layout.message_total))
    rows = np.arange(bvec.shape[0])[:, None]
    np.add.at(agg, (rows, in_msg[None, :]), bvec[:, in_slot])
    return np.abs(agg - bvec[:, out_slot]).max(axis=1, initial=0.0)


def segmented_lse(layout, vec, t_regions):
    """Per-region t*log(sum(exp(./t))) in its own max, exp and sum pass: the
    arithmetic the region ``inference.SoftMax`` must reproduce bit for bit."""
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


def segmented_gibbs(layout, vec, t_regions, coeff):
    """Per-region Gibbs normalization in its own max, exp and sum pass, with
    zero-temperature regions tied toward the max (coeff >= 0) or the min: the
    arithmetic the region ``inference.SoftMax`` must reproduce bit for bit."""
    starts = layout.starts
    seg = layout.segment
    m = np.maximum.reduceat(vec, starts, axis=-1)
    use_min = np.where(t_regions == 0, coeff < 0, t_regions < 0)
    if use_min.any():
        m = np.where(use_min, np.minimum.reduceat(vec, starts, axis=-1), m)
    t_slot = t_regions[seg]
    zero_slot = t_slot == 0
    e = m.take(seg, axis=-1)
    tie = None
    if zero_slot.any():
        tie = np.where(use_min[seg], vec <= e + ARGMAX_TOL, vec >= e - ARGMAX_TOL)
    np.subtract(vec, e, out=e)
    e /= np.where(zero_slot, 1.0, t_slot)
    e[..., zero_slot] = 0.0
    np.exp(e, out=e)
    if tie is not None:
        np.copyto(e, tie, where=zero_slot)
    return e / np.add.reduceat(e, starts, axis=-1).take(seg, axis=-1)


def _group_lse(expo, edge, layout, t):
    """Log-sum-exp (or max) within the projection groups of a parent table.

    ``expo`` is (batch, parent_labels); the result is (batch, child_labels).
    """
    v = expo[:, layout.perm[edge]]
    counts = np.bincount(layout.proj[edge])  # parent labels per child label
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    group_of = np.repeat(np.arange(counts.size), counts)
    if t == 0.0:
        return np.maximum.reduceat(v, starts, axis=1)
    m = (
        np.maximum.reduceat(v, starts, axis=1)
        if t > 0
        else np.minimum.reduceat(v, starts, axis=1)
    )
    z = np.add.reduceat(np.exp((v - m[:, group_of]) / t), starts, axis=1)
    return m + t * np.log(z)


def _parent_exponent(layout, lam, theta, edge):
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


def mu_vec(layout, lam, theta, edge, eps, cvals):
    """The aggregation mu of ``edge`` for a batch of rows, one edge at a time:
    the arithmetic ``inference.mu_message`` must reproduce bit for bit."""
    expo = _parent_exponent(layout, lam, theta, edge)
    t = eps * cvals[layout.edge_parent[edge]]
    return _group_lse(expo, edge, layout, t)


def lambda_update_vec(layout, lam, theta, region, eps, cvals):
    """The update of one region for a batch of rows, one edge at a time: the
    arithmetic of every region update of the level kernel.  A region whose
    c_r + sum of parent c is zero keeps its messages."""
    edges = layout.parent_edges[region]
    if not edges:
        return
    denom = cvals[region] + cvals[layout.edge_parent[edges]].sum()
    if denom == 0.0:
        return
    mus = [mu_vec(layout, lam, theta, e, eps, cvals) for e in edges]
    acc = accumulator(layout, lam, theta, region, mus)
    for e, mu in zip(edges, mus):
        table = (cvals[layout.edge_parent[e]] / denom) * acc - mu
        table -= table.sum(axis=1, keepdims=True) / table.shape[1]
        lam[:, layout.edge_slices[e]] = table


def accumulator(layout, lam, theta, region, mus):
    """theta_r plus the region's children's messages plus ``mus``, the
    aggregations of its parent edges, added in that order."""
    acc = theta[:, layout.region_slices[region]].copy()
    for e2 in layout.child_edges[region]:
        acc += lam[:, layout.lam_in_idx[e2]]
    for mu in mus:
        acc += mu
    return acc


def zero_count_beliefs(layout, lam, theta, eps, cvals, b):
    """Overwrite the tables of ``b`` of the regions with parents and c_r = 0,
    one region at a time: the Gibbs normalization of their ``accumulator``
    at temperature eps * (c_r + sum of parent c), tied toward the max (or the
    min, for a negative sum) at zero temperature."""
    for r in layout.regions_with_parents:
        if cvals[r] != 0.0:
            continue
        edges = layout.parent_edges[r]
        mus = [mu_vec(layout, lam, theta, e, eps, cvals) for e in edges]
        expo = accumulator(layout, lam, theta, r, mus)
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
