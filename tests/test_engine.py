"""The batched sweep-until-consistent engine against per-sample loops.

Rows of a batch never interact, so every row of a batched run must equal,
bit for bit, the same sample run alone through the reference loop below.
"""

import numpy as np

from blendsp import (
    CountingNumbers, MessageState, Region, RegionGraph, Sample, compute_beliefs, predict
)
from blendsp.inference import (
    OMEGA,
    belief_vec,
    message_potentials,
    objective_rose,
    residual_rows,
    sweep_plan,
    sweep_until_consistent,
    sweep_vec,
)
from blendsp.learner import predict_all
from blendsp.model import ThetaStack

from test_deep_graphs import three_level_model
from util import loopy_graph, random_sample, tree_graph


def reference_loop(layout, theta, eps, cvals, max_sweeps, tol, omega):
    """One sample at a time: beliefs and residual at the start, then sweep
    at ``omega`` while the residual is above tol and the cap is not reached;
    a sweep that raises the block objective sum_r lse_r by more than rounding
    is redone from the messages before it at omega = 1."""
    lam = np.zeros((1, layout.message_total))
    theta = theta[None, :]
    regions = sweep_plan(layout).at(eps, cvals).regions
    b = belief_vec(layout, lam, theta, eps, cvals)
    lse = regions(theta + message_potentials(layout, lam)).lse
    residual = residual_rows(layout, b)[0]
    sweeps = fallbacks = 0
    while sweeps < max_sweeps and residual > tol:
        before = lam.copy()
        sweep_vec(layout, lam, theta, eps, cvals, omega)
        after = regions(theta + message_potentials(layout, lam)).lse
        if omega != 1.0 and objective_rose(lse, after)[0]:
            lam = before
            sweep_vec(layout, lam, theta, eps, cvals)
            after = regions(theta + message_potentials(layout, lam)).lse
            fallbacks += 1
        lse = after
        sweeps += 1
        b = belief_vec(layout, lam, theta, eps, cvals)
        residual = residual_rows(layout, b)[0]
    return lam[0], b[0], residual, sweeps, fallbacks


def batches(rng):
    """(graph, samples) pairs: random trees, loopy graphs and 3-level graphs."""
    out = []
    for _ in range(3):
        graph = tree_graph(rng, int(rng.integers(3, 8)))
        out.append((graph, [random_sample(rng, graph, 3, i) for i in range(5)]))
        n = int(rng.integers(4, 7))
        graph = loopy_graph(rng, n, int(rng.integers(n, n * (n - 1) // 2 + 1)))
        out.append((graph, [random_sample(rng, graph, 3, i) for i in range(5)]))
        cards = [int(c) for c in rng.integers(2, 5, 3)]
        models = [three_level_model(np.random.default_rng(seed), cards) for seed in range(4)]
        graph = models[0][0]
        # same structure, fresh tables: rebuild each sample on the first graph
        samples = [
            Sample(graph, i, s.loss, s.features, s.true_labels)
            for i, (_, s) in enumerate(models)
        ]
        out.append((graph, samples))
    return out


def test_engine_matches_per_sample_reference_loop():
    rng = np.random.default_rng(41)
    spread = mixed = False
    for graph, samples in batches(rng):
        layout = graph.layout()
        w = rng.uniform(-2, 2, 4)
        bethe = CountingNumbers.bethe(graph).values
        for eps, cvals in ((1.0, np.ones(graph.region_count)), (0.5, bethe)):
            theta = ThetaStack(samples, layout).rows(w)
            for max_sweeps, tol, omega in (
                (0, 1e-8, OMEGA), (3, 1e-8, 1.0), (300, 1e-7, 1.0), (300, 1e-7, OMEGA),
                (40, 1e-7, 1.95),
            ):
                lam = np.zeros((len(samples), layout.message_total))
                res = sweep_until_consistent(
                    layout, lam, theta, eps, cvals, max_sweeps, tol, omega
                )
                b, residual, sweeps = res.beliefs, res.residual, res.sweeps
                part = message_potentials(layout, lam)
                assert res.message_part.tobytes() == part.tobytes()
                lse = sweep_plan(layout).at(eps, cvals).regions(theta + part).lse
                assert res.lse.tobytes() == lse.tobytes()
                for i in range(len(samples)):
                    ref_lam, ref_b, ref_res, ref_sweeps, ref_fallbacks = reference_loop(
                        layout, theta[i], eps, cvals, max_sweeps, tol, omega
                    )
                    assert np.array_equal(lam[i], ref_lam)
                    assert np.array_equal(b[i], ref_b)
                    assert np.array_equal(residual[i], ref_res)
                    assert sweeps[i] == ref_sweeps
                    assert res.fallbacks[i] == ref_fallbacks
                if max_sweeps == 0 or omega == 1.0:
                    assert not res.fallbacks.any()
                if max_sweeps == 0:
                    assert not sweeps.any()
                spread |= len(set(sweeps.tolist())) > 1
                # rows the guard redid next to rows it never redid, in one batch
                mixed |= bool(res.fallbacks.any() and not res.fallbacks.all())
    # some batch had rows that stopped at different sweep counts
    assert spread and mixed


def test_predict_all_matches_per_sample_predict():
    rng = np.random.default_rng(42)
    for graph, samples in batches(rng):
        w = rng.uniform(-2, 2, 4)
        counting = CountingNumbers.ones(graph)
        for max_sweeps in (0, 5, 200):
            batched = predict_all(graph, samples, w, 1.0, counting, max_sweeps, 1e-9)
            for sample, got in zip(samples, batched):
                want = predict(graph, sample, w, 1.0, counting, max_sweeps, 1e-9)
                assert np.array_equal(got.labels, want.labels)
                assert np.array_equal(got.residual, want.residual)
                assert got.sweeps == want.sweeps
                assert got.capped == want.capped
                assert got.capped == (got.sweeps == max_sweeps and got.residual > 1e-9)


def test_predict_decodes_each_variable_under_its_fewest_variable_region():
    # variable 0 lies in region 0 (variables 0 and 1, where 1 has one label)
    # and region 1 (variable 0 alone): both have 4 labels, and region 1, with
    # fewer variables but the higher id, owns it; without sweeps the two
    # regions' beliefs disagree on its label
    graph = RegionGraph(
        [Region(0, (0, 1), (4, 1)), Region(1, (0,), (4,)), Region(2, (0, 2), (4, 2))],
        [(0, 1), (2, 1)],
        3,
    )
    rng = np.random.default_rng(44)
    tables = [([0.0, 0, 3, 0], [0.0, 0, 0, 3]), ([1.0, 0, 0, 0], [0.0, 2, 0, 0])]
    samples = [
        Sample(graph, i, features={0: {1: pair}, 1: {0: single}, 2: {2: rng.normal(size=8)}})
        for i, (single, pair) in enumerate(tables)
    ]
    w = np.array([1.0, 1.0, 1.0])
    results = predict_all(graph, samples, w, 1.0, None, 0)
    for sample, result in zip(samples, results):
        beliefs = compute_beliefs(graph, sample, MessageState(graph), w, 1.0, include_loss=False)
        want = []
        for v in range(graph.variable_count):
            owner = min((len(r.variables), r.id) for r in graph.regions if v in r.variables)[1]
            reg = graph.regions[owner]
            pos = reg.variables.index(v)
            digits = np.arange(reg.label_count) // reg.strides()[pos] % reg.cardinalities[pos]
            want.append(np.argmax(np.bincount(digits, beliefs[owner], reg.cardinalities[pos])))
        assert result.labels.tolist() == want
        # region 0 would have decoded variable 0 otherwise
        assert np.argmax(beliefs[0]) != want[0]
    assert [r.labels[0] for r in results] == [2, 0]


def test_engine_empty_batch():
    rng = np.random.default_rng(43)
    graph = tree_graph(rng, 4)
    layout = graph.layout()
    lam = np.zeros((0, layout.message_total))
    theta = np.zeros((0, layout.total))
    res = sweep_until_consistent(layout, lam, theta, 1.0, np.ones(graph.region_count), 10, 1e-8)
    assert res.beliefs.shape == res.message_part.shape == (0, layout.total)
    assert res.residual.shape == res.sweeps.shape == (0,)
    assert res.lse.shape == (0, graph.region_count)
    assert predict_all(graph, [], np.zeros(3), 1.0) == []
