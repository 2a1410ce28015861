"""Shared model builders and independent oracles for the test suite: a
plain tempered log-sum-exp and Gibbs normalization, per-region theta tables
from a sample's dicts, exact enumeration of the joint label space,
one-edge-at-a-time and ``np.add.at`` forms of the engine's kernels, and the
layout's and sweep plan's index arrays built edge by edge."""

from __future__ import annotations

import math

import numpy as np

from blendsp import CountingNumbers, ModelError, Region, RegionGraph, Sample
from blendsp.inference import ARGMAX_TOL


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


def label_strides(region: Region) -> np.ndarray:
    """Row-major strides of a region's flat labels: flat = sum(y[j] * stride[j])."""
    s = np.ones(len(region.cardinalities), dtype=np.int64)
    for j in range(len(region.cardinalities) - 2, -1, -1):
        s[j] = s[j + 1] * region.cardinalities[j + 1]
    return s


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
        strides = label_strides(reg)
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


def eps_log_sum_exp(values, t: float) -> float:
    """t * log(sum(exp(v / t))), reducing to max(v) at t = 0.

    Stabilized by shifting with the max (t > 0) or min (t < 0) so the
    exponentials never overflow.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("eps_log_sum_exp of an empty table")
    if not np.isfinite(v).all():
        raise ValueError("eps_log_sum_exp requires finite entries")
    if t == 0.0:
        return float(v.max())
    m = float(v.max()) if t > 0 else float(v.min())
    return m + t * float(np.log(np.exp((v - m) / t).sum()))


def gibbs_normalize(values, t: float) -> np.ndarray:
    """Distribution proportional to exp(v / t); uniform over near-maximizers at t = 0.

    For t = 0 the result is the deterministic subgradient selection: uniform
    over entries within ``ARGMAX_TOL`` of the maximum, zero elsewhere.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("gibbs_normalize of an empty table")
    if not np.isfinite(v).all():
        raise ValueError("gibbs_normalize requires finite entries")
    if t == 0.0:
        mask = v >= v.max() - ARGMAX_TOL
        return mask / mask.sum()
    m = v.max() if t > 0 else v.min()
    e = np.exp((v - m) / t)
    return e / e.sum()


def theta_table(
    sample: Sample, region_id: int, w: np.ndarray, include_loss: bool = True
) -> np.ndarray:
    """Potential table of one region: loss (optional) plus weighted features,
    read from the sample's dict views."""
    size = sample.graph.regions[region_id].label_count
    out = np.zeros(size)
    if include_loss and region_id in sample.loss:
        out += sample.loss[region_id]
    for k, t in sample.features.get(region_id, {}).items():
        if k >= len(w):
            raise ModelError(f"feature id {k} exceeds weight vector length {len(w)}")
        out += w[k] * t
    return out


# ---------------------------------------------------------------------------
# exact enumeration oracles, guarded to 2^20 joint labels

ENUMERATION_GUARD = 2**20


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
    r_strides = label_strides(reg)
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


def edge_proj(layout, e):
    """Edge ``e``'s projection: its shape's."""
    return layout.shape_proj[layout.edge_shape[e]]


def edge_perm(layout, e):
    """Edge ``e``'s grouping of parent labels by projected child label."""
    return layout.shape_perm[layout.edge_shape[e]]


def parent_edges(layout, r) -> list[int]:
    """Region ``r``'s parent edges, read from the layout's CSR arrays."""
    return layout.up[layout.up_first[r] : layout.up_first[r + 1]].tolist()


def child_edges(layout, r) -> list[int]:
    """Region ``r``'s child edges, read from the layout's CSR arrays."""
    return list(range(layout.child_first[r], layout.child_first[r + 1]))


def region_slice(layout, r) -> slice:
    """Region ``r``'s slots in a concatenated table row."""
    return slice(int(layout.offsets[r]), int(layout.offsets[r + 1]))


def edge_slice(layout, e) -> slice:
    """Edge ``e``'s slots in a concatenated message row."""
    return slice(int(layout.edge_offsets[e]), int(layout.edge_offsets[e + 1]))


def message_links(layout):
    """Per (edge, parent label) in edge order, the parent table slot and the
    message slot it projects to; per message slot, its child table slot."""
    in_slot, in_msg, out_slot = [], [], []
    for e in range(layout.edge_shape.size):
        p, r, proj = int(layout.edge_parent[e]), int(layout.edge_child[e]), edge_proj(layout, e)
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
    v = expo[:, edge_perm(layout, edge)]
    counts = np.bincount(edge_proj(layout, edge))  # parent labels per child label
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
    expo = theta[:, region_slice(layout, p)].copy()
    for e2 in child_edges(layout, p):
        if e2 != edge:
            expo += lam[:, layout.edge_offsets[e2] + edge_proj(layout, e2)]
    for e3 in parent_edges(layout, p):
        expo -= lam[:, edge_slice(layout, e3)]
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
    edges = parent_edges(layout, region)
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
        lam[:, edge_slice(layout, e)] = table


def accumulator(layout, lam, theta, region, mus):
    """theta_r plus the region's children's messages plus ``mus``, the
    aggregations of its parent edges, added in that order."""
    acc = theta[:, region_slice(layout, region)].copy()
    for e2 in child_edges(layout, region):
        acc += lam[:, layout.edge_offsets[e2] + edge_proj(layout, e2)]
    for mu in mus:
        acc += mu
    return acc


def zero_count_beliefs(layout, lam, theta, eps, cvals, b):
    """Overwrite the tables of ``b`` of the regions with parents and c_r = 0,
    one region at a time: the Gibbs normalization of their ``accumulator``
    at temperature eps * (c_r + sum of parent c), tied toward the max (or the
    min, for a negative sum) at zero temperature."""
    for r in layout.regions_with_parents.tolist():
        if cvals[r] != 0.0:
            continue
        edges = parent_edges(layout, r)
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
        b[:, region_slice(layout, r)] = table
    return b


# ---------------------------------------------------------------------------
# the layout and sweep plan built edge by edge and region by region: the
# index arrays that the engine builds per edge shape, element for element


def graph_fault(regions: list[Region], edges, variable_count: int) -> str | None:
    """The ``ModelError`` message ``RegionGraph(regions, edges,
    variable_count)`` gives, by loops over the regions and edges in the
    constructor's order of checks, or None for a valid graph."""
    if variable_count < 1:
        return "variable_count must be positive"
    if [r.id for r in regions] != list(range(len(regions))):
        return "region ids must be dense 0-based indices in order"
    seen = set()
    for p, r in edges:
        if not (0 <= p < len(regions) and 0 <= r < len(regions)):
            return f"edge ({p}, {r}) references a missing region"
        if (p, r) in seen:
            return f"duplicate edge ({p}, {r})"
        seen.add((p, r))
    card = {}
    for reg in regions:
        for v, c in zip(reg.variables, reg.cardinalities):
            if not 0 <= v < variable_count:
                return f"region {reg.id}: variable {v} out of range"
            if card.setdefault(v, c) != c:
                return f"variable {v}: inconsistent cardinality across regions"
    for p, r in sorted(seen):
        if not set(regions[r].variables) < set(regions[p].variables):
            return f"edge ({p}, {r}): containment violated"
    missing = sorted(set(range(variable_count)) - card.keys())
    if missing:
        return f"variables not covered by any region: {missing}"
    for reg in regions:
        if reg.label_count > np.iinfo(np.int64).max:
            return f"region {reg.id}: label count beyond 64 bits"
    return None


def edge_projection(graph: RegionGraph, parent: int, child: int) -> np.ndarray:
    """The flat child label of every flat parent label, digit by digit."""
    p, r = graph.regions[parent], graph.regions[child]
    p_strides, r_strides = label_strides(p), label_strides(r)
    idx = np.arange(p.label_count, dtype=np.int64)
    proj = np.zeros(p.label_count, dtype=np.int64)
    for j, v in enumerate(r.variables):
        pos = p.variables.index(v)
        proj += (idx // p_strides[pos]) % p.cardinalities[pos] * r_strides[j]
    return proj


class EdgeLayout:
    """The per-edge index arrays of a graph's layout, one edge at a time:
    projections ``proj``, their stable groupings ``perm``, the absolute
    gather indices ``lam_in_idx`` of a child message at parent labels, the
    edge lists per region and the table slices."""

    def __init__(self, graph: RegionGraph):
        self.sizes = np.array([r.label_count for r in graph.regions], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.edge_parent = np.array([p for p, _ in graph.edges], dtype=np.int64)
        self.edge_child = np.array([r for _, r in graph.edges], dtype=np.int64)
        self.edge_offsets = np.concatenate(([0], np.cumsum(self.sizes[self.edge_child])))
        self.message_total = int(self.edge_offsets[-1])
        self.proj = [edge_projection(graph, p, r) for p, r in graph.edges]
        self.perm = [np.argsort(pr, kind="stable") for pr in self.proj]
        self.lam_in_idx = [self.edge_offsets[e] + pr for e, pr in enumerate(self.proj)]
        self.parent_edges = [[] for _ in graph.regions]
        self.child_edges = [[] for _ in graph.regions]
        for e, (p, r) in enumerate(graph.edges):
            self.parent_edges[r].append(e)
            self.child_edges[p].append(e)
        self.regions_with_parents = [r for r in range(graph.region_count) if self.parent_edges[r]]
        self.region_slices = [
            slice(int(self.offsets[r]), int(self.offsets[r + 1])) for r in range(graph.region_count)
        ]
        self.edge_slices = [
            slice(int(self.edge_offsets[e]), int(self.edge_offsets[e + 1]))
            for e in range(len(graph.edges))
        ]


def colour_levels(layout: EdgeLayout) -> list[list[int]]:
    """``inference.conflict_levels`` on the per-region edge lists: the
    regions with parents, in id order, coloured first-fit by the conflict
    relation (parent, child or shared parent)."""
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


def denominators(layout: EdgeLayout, cvals: np.ndarray) -> np.ndarray:
    """Each region's c_r plus the sum of its parents' c (one ``.sum()`` over
    its parent edges, in edge order), 1 for a region without parents."""
    denom = np.ones(len(layout.sizes))
    for r in layout.regions_with_parents:
        denom[r] = cvals[r] + cvals[layout.edge_parent[layout.parent_edges[r]]].sum()
    return denom


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def prefix_terms(items, terms, widths):
    """Per term position k, (prefix width, gather indices) of the columns
    that have a k-th term; ``items`` sorted by term count, longest first."""
    out = []
    for k in range(len(terms[items[0]]) if items else 0):
        members = [i for i in items if len(terms[i]) > k]
        out.append((sum(widths[i] for i in members), _cat([terms[i][k] for i in members])))
    return out


def level_tables(layout: EdgeLayout, regions: list[int]) -> dict:
    """The gather and scatter indices of the level that updates ``regions``
    at once, built edge by edge (``inference._Level``'s fields), in the
    kernel's sample-minor orders: parent-exponent rows in classes of (term
    count, most first; fiber width k), each class fiber-major (for j < k,
    every group's j-th parent label, by edge and child label), and message
    rows grouped by table size, each group entry-major."""
    sizes = layout.sizes.tolist()
    ep, ec = layout.edge_parent.tolist(), layout.edge_child.tolist()
    msg = layout.message_total
    edges = [e for r in regions for e in layout.parent_edges[r]]
    psize = {e: sizes[ep[e]] for e in edges}
    csize = {e: sizes[ec[e]] for e in edges}
    fiber = {e: psize[e] // csize[e] for e in edges}
    exp_terms = {}
    for e in edges:
        p, perm = ep[e], layout.perm[e]
        exp_terms[e] = [
            layout.lam_in_idx[e2][perm] for e2 in layout.child_edges[p] if e2 != e
        ] + [perm + (msg + layout.edge_offsets[e3]) for e3 in layout.parent_edges[p]]
    by_terms = sorted(edges, key=lambda e: (-len(exp_terms[e]), fiber[e]))
    classes = []  # runs of by_terms with one (term count, fiber width)
    for e in by_terms:
        if classes and (len(exp_terms[classes[-1][0]]), fiber[classes[-1][0]]) == (
                len(exp_terms[e]), fiber[e]):
            classes[-1].append(e)
        else:
            classes.append([e])
    # each exponent row's (edge, place in the edge's projection-group order)
    slots = [(e, label * fiber[e] + j) for cls in classes for j in range(fiber[cls[0]])
             for e in cls for label in range(csize[e])]
    group = {}  # (edge, child label) -> group id, in by_terms order
    for e in by_terms:
        for label in range(csize[e]):
            group[e, label] = len(group)
    out = {
        "theta_idx": np.array([layout.perm[e][i] + layout.offsets[ep[e]] for e, i in slots],
                              dtype=np.int64),
        "negated": any(layout.parent_edges[ep[e]] for e in edges),
        "exp_terms": [],
    }
    for t in range(len(exp_terms[by_terms[0]])):
        n = sum(1 for e, _ in slots if len(exp_terms[e]) > t)
        idx = np.array([exp_terms[e][t][i] for e, i in slots[:n]], dtype=np.int64)
        out["exp_terms"].append((n, idx))
    out["classes"], row = [], 0
    for cls in classes:
        s = sum(csize[e] for e in cls)
        out["classes"].append((row, fiber[cls[0]], s, group[cls[0], 0]))
        row += s * fiber[cls[0]]
    out["group_of"] = np.array([group[e, i // fiber[e]] for e, i in slots], dtype=np.int64)
    out["group_edge"] = np.repeat(by_terms, [csize[e] for e in by_terms])
    out["mu_at"] = mu_at = {e: group[e, 0] for e in by_terms}
    acc_terms = {
        r: [layout.lam_in_idx[e2] for e2 in layout.child_edges[r]]
        + [np.arange(sizes[r]) + (msg + mu_at[e]) for e in layout.parent_edges[r]]
        for r in regions
    }
    out["acc_regions"] = by_acc = sorted(regions, key=lambda r: -len(acc_terms[r]))
    acc_off = np.cumsum([0] + [sizes[r] for r in by_acc]).tolist()
    acc_at = {r: acc_off[i] for i, r in enumerate(by_acc)}
    out["starts"] = np.array(acc_off[:-1], dtype=np.int64)
    out["segment"] = np.repeat(np.arange(len(by_acc)), np.diff(acc_off))
    out["acc_idx"] = _cat([np.arange(sizes[r]) + layout.offsets[r] for r in by_acc])
    out["acc_terms"] = prefix_terms(by_acc, acc_terms, {r: sizes[r] for r in regions})
    by_size = sorted(edges, key=lambda e: csize[e])
    out["blocks"], start, entries = [], 0, []
    for n in sorted(set(csize.values())):
        tables = [e for e in by_size if csize[e] == n]
        out["blocks"].append((start, start + len(tables) * n, len(tables), n))
        start += len(tables) * n
        entries += [(e, i) for i in range(n) for e in tables]
    out["acc_take"] = np.array([acc_at[ec[e]] + i for e, i in entries], dtype=np.int64)
    out["mu_take"] = np.array([mu_at[e] + i for e, i in entries], dtype=np.int64)
    out["write_idx"] = np.array([layout.edge_offsets[e] + i for e, i in entries], dtype=np.int64)
    out["table_edge"] = np.array([e for e, _ in entries], dtype=np.int64)
    return out


def potential_tables(layout: EdgeLayout):
    """``SweepPlan.potentials`` region by region: (terms, place)."""
    msg, sizes = layout.message_total, layout.sizes.tolist()
    terms = [
        [layout.lam_in_idx[e] for e in layout.child_edges[r]]
        + [np.arange(n) + (msg + layout.edge_offsets[e]) for e in layout.parent_edges[r]]
        for r, n in enumerate(sizes)
    ]
    regions = sorted(range(len(sizes)), key=lambda r: -len(terms[r]))
    place = np.argsort(_cat([np.arange(sizes[r]) + layout.offsets[r] for r in regions]))
    return prefix_terms(regions, terms, sizes), place


def marginal_tables(layout: EdgeLayout):
    """``SweepPlan.marginals`` edge by edge: (terms, child)."""
    sizes = layout.sizes.tolist()
    ep, ec = layout.edge_parent.tolist(), layout.edge_child.tolist()
    terms = [list((perm + layout.offsets[ep[e]]).reshape(sizes[ec[e]], -1).T)
             for e, perm in enumerate(layout.perm)]
    edges = sorted(range(len(terms)), key=lambda e: -len(terms[e]))
    child = _cat([np.arange(sizes[ec[e]]) + layout.offsets[ec[e]] for e in edges])
    return prefix_terms(edges, terms, [sizes[r] for r in ec]), child
