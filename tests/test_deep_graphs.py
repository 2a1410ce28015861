"""Three-level region graphs and mixed label cardinalities.

These exercise the grandparent message terms (a parent region that itself
has parents) and non-binary projections, which grid and chain models never
reach.
"""

import numpy as np
import pytest

from blendsp import (
    CountingNumbers,
    MessageState,
    Region,
    RegionGraph,
    Sample,
    compute_beliefs,
    inference_sweep,
    marginal_residual,
    primal_objective,
    w_gradient,
)

from util import exact_loss, exact_marginals, label_strides, ones


def three_level_model(rng, cards):
    """Singletons, two pairs, and a triple on 3 variables; the triple is a
    parent of both pairs and of the middle singleton."""
    n = len(cards)
    regions = [Region(i, (i,), (cards[i],)) for i in range(n)]
    regions.append(Region(3, (0, 1), (cards[0], cards[1])))
    regions.append(Region(4, (1, 2), (cards[1], cards[2])))
    regions.append(Region(5, (0, 1, 2), tuple(cards)))
    edges = [(3, 0), (3, 1), (4, 1), (4, 2), (5, 3), (5, 4), (5, 1)]
    graph = RegionGraph(regions, edges, n)
    assign = np.array([rng.integers(0, c) for c in cards])
    feats, loss, truth = {}, {}, {}
    for reg in graph.regions:
        strides = label_strides(reg)
        truth[reg.id] = int(
            sum(int(assign[v]) * int(s) for v, s in zip(reg.variables, strides))
        )
        ks = rng.choice(4, size=2, replace=False)
        feats[reg.id] = {int(k): rng.normal(size=reg.label_count) for k in ks}
        if len(reg.variables) == 1:
            table = rng.uniform(0.1, 2.0, reg.label_count)
            table[truth[reg.id]] = 0.0
            loss[reg.id] = table
    return graph, Sample(graph, 0, loss, feats, truth)


def test_three_level_upper_bound_and_monotone_sweeps():
    rng = np.random.default_rng(20)
    for _ in range(10):
        cards = [int(c) for c in rng.integers(2, 5, 3)]
        graph, sample = three_level_model(rng, cards)
        w = rng.uniform(-2, 2, 4)
        for eps in (0.0, 0.5, 1.0):
            exact = exact_loss(graph, sample, w, eps)
            state = MessageState(graph)
            prev = primal_objective(graph, [sample], [state], w, eps, ones(graph), 0.0)
            assert prev >= exact - 1e-9
            for _ in range(8):
                inference_sweep(graph, sample, state, w, eps, ones(graph))
                cur = primal_objective(graph, [sample], [state], w, eps, ones(graph), 0.0)
                assert cur <= prev + 1e-10
                prev = cur
            assert prev >= exact - 1e-9


def test_three_level_converges_to_consistent_beliefs():
    rng = np.random.default_rng(21)
    graph, sample = three_level_model(rng, [2, 3, 2])
    w = rng.uniform(-1, 1, 4)
    state = MessageState(graph)
    for _ in range(400):
        inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    beliefs = compute_beliefs(graph, sample, state, w, 1.0, ones(graph))
    for table in beliefs:
        assert abs(table.sum() - 1.0) <= 1e-12
    assert marginal_residual(graph, beliefs) <= 1e-6


def test_three_level_gradient_matches_finite_differences():
    rng = np.random.default_rng(22)
    graph, sample = three_level_model(rng, [3, 2, 4])
    w = rng.uniform(-1, 1, 4)
    state = MessageState(graph)
    for _ in range(3):
        inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    C = 0.4
    g = w_gradient(graph, [sample], [state], w, 1.0, ones(graph), C)
    h = 1e-5
    for k in range(4):
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        fd = (
            primal_objective(graph, [sample], [state], wp, 1.0, ones(graph), C)
            - primal_objective(graph, [sample], [state], wm, 1.0, ones(graph), C)
        ) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_mixed_cardinality_tree_exactness():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        cards = [int(c) for c in rng.integers(2, 5, n)]
        regions = [Region(i, (i,), (cards[i],)) for i in range(n)]
        edges = []
        rid = n
        for v in range(1, n):
            u = int(rng.integers(0, v))
            a, b = min(u, v), max(u, v)
            regions.append(Region(rid, (a, b), (cards[a], cards[b])))
            edges += [(rid, a), (rid, b)]
            rid += 1
        graph = RegionGraph(regions, edges, n)
        assign = np.array([rng.integers(0, c) for c in cards])
        feats, loss, truth = {}, {}, {}
        for reg in graph.regions:
            strides = label_strides(reg)
            truth[reg.id] = int(
                sum(int(assign[v]) * int(s) for v, s in zip(reg.variables, strides))
            )
            feats[reg.id] = {
                int(k): rng.normal(size=reg.label_count)
                for k in rng.choice(3, 2, replace=False)
            }
            if len(reg.variables) == 1:
                table = rng.uniform(0.1, 2.0, reg.label_count)
                table[truth[reg.id]] = 0.0
                loss[reg.id] = table
        sample = Sample(graph, 0, loss, feats, truth)
        w = rng.normal(size=3)
        bethe = CountingNumbers.bethe(graph)
        state = MessageState(graph)
        for _ in range(2 * n + 4):
            inference_sweep(graph, sample, state, w, 1.0, bethe)
        beliefs = compute_beliefs(graph, sample, state, w, 1.0, bethe)
        exact = exact_marginals(graph, sample, w, 1.0)
        for b, m in zip(beliefs, exact):
            np.testing.assert_allclose(b, m, atol=1e-9)
