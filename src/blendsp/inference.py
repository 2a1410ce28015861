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
    mx = np.maximum.reduceat(vec, starts, axis=-1)
    mn = np.minimum.reduceat(vec, starts, axis=-1)
    m = np.where(t_regions >= 0, mx, mn)
    t_slot = t_regions[seg]
    safe_t = np.where(t_slot != 0, t_slot, 1.0)
    x = (vec - m[..., seg]) / safe_t
    e = np.exp(x)
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
    mx = np.maximum.reduceat(vec, starts, axis=-1)
    mn = np.minimum.reduceat(vec, starts, axis=-1)
    use_min = np.where(t_regions == 0, coeff < 0, t_regions < 0)
    m = np.where(use_min, mn, mx)
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
    """Message-parameterized potentials: theta + incoming - outgoing messages."""
    out = theta.copy()
    if layout.message_total == 0:
        return out
    if out.ndim == 1:
        np.add.at(out, layout.in_target, lam[layout.in_source])
        np.subtract.at(out, layout.out_target, lam)
    else:
        rows = np.arange(out.shape[0])[:, None]
        np.add.at(out, (rows, layout.in_target[None, :]), lam[:, layout.in_source])
        np.subtract.at(out, (rows, layout.out_target[None, :]), lam)
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


def sweep_vec(
    layout: GraphLayout,
    lam: np.ndarray,
    theta: np.ndarray,
    eps: float,
    cvals: np.ndarray,
    order=None,
) -> None:
    regions = order if order is not None else layout.regions_with_parents
    for r in regions:
        lambda_update_vec(layout, lam, theta, r, eps, cvals)


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
    agg = np.zeros((bvec.shape[0], layout.message_total))
    rows = np.arange(bvec.shape[0])[:, None]
    np.add.at(agg, (rows, layout.in_source[None, :]), bvec[:, layout.in_target])
    return np.abs(agg - bvec[:, layout.out_target]).max(axis=1)


def residual_vec(layout: GraphLayout, bvec: np.ndarray) -> float:
    return float(residual_rows(layout, bvec[None, :])[0])


def theta_rows(layout: GraphLayout, samples, w: np.ndarray, include_loss: bool) -> np.ndarray:
    """Potential vectors of the samples stacked as rows, (len(samples), total)."""
    if not samples:
        return np.zeros((0, layout.total))
    return np.stack([s.compiled().theta_vec(w, include_loss) for s in samples])


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
    """One pass of lambda updates over all regions with parents, in id order."""
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
    return residual_vec(layout, bvec)
