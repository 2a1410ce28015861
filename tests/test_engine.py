"""The batched sweep-until-consistent engine against per-sample loops.

Rows of a batch never interact, so every row of a batched run must equal,
bit for bit, the same sample run alone through the reference loop below.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import (
    CountingNumbers, MessageState, Region, RegionGraph, Sample, compute_beliefs, predict
)
from blendsp.inference import (
    EXTRAPOLATE_EVERY,
    _extrapolate,
    belief_vec,
    message_potentials,
    residual_rows,
    sweep_plan,
    sweep_until_consistent,
    sweep_vec,
)
from blendsp.learner import predict_all
from blendsp.model import ThetaStack

from test_deep_graphs import three_level_model
from test_relaxation import KINDS, corpus
from util import loopy_graph, random_sample, tree_graph


def reference_loop(layout, theta, eps, cvals, max_sweeps, tol, every_sweep=False):
    """One sample at a time: beliefs and residual at the start, then plain
    sweeps while the last measured residual is above tol and the cap is not
    reached.  Where the certificate holds and the cap is at least K, after
    every K-th sweep the extrapolation of the row's last K + 1 message rows
    replaces it if that strictly lowers its block objective sum_r lse_r.
    The row is measured after every sweep without the certificate, or with
    ``every_sweep``; with it, after its first sweep, at every K-th sweep and
    at the cap."""
    k = EXTRAPOLATE_EVERY
    at = sweep_plan(layout).at(eps, cvals)
    accelerate = max_sweeps >= k and at.guarantees.certificate
    every_sweep = every_sweep or not at.guarantees.certificate
    lam = np.zeros((1, layout.message_total))
    theta = theta[None, :]
    b = belief_vec(layout, lam, theta, eps, cvals)
    residual = residual_rows(layout, b)[0]
    sweeps = extrapolations = 0
    measured = 1
    history = []
    while sweeps < max_sweeps and residual > tol:
        history.append(lam.copy())
        sweep_vec(layout, lam, theta, eps, cvals)
        sweeps += 1
        if accelerate and sweeps % k == 0:
            x = _extrapolate(np.array(history[-k:]), lam)
            objective = [at.regions(theta + message_potentials(layout, m)).lse.sum(axis=1)[0]
                         for m in (x, lam)]
            if objective[0] < objective[1]:
                lam, extrapolations = x, extrapolations + 1
        if every_sweep or sweeps == 1 or sweeps % k == 0 or sweeps == max_sweeps:
            b = belief_vec(layout, lam, theta, eps, cvals)
            residual, measured = residual_rows(layout, b)[0], measured + 1
    return lam[0], b[0], residual, sweeps, extrapolations, measured


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
    spread = mixed = skipped = False
    for graph, samples in batches(rng):
        layout = graph.layout()
        w = rng.uniform(-2, 2, 4)
        bethe = CountingNumbers.bethe(graph).values
        for eps, cvals in ((1.0, np.ones(graph.region_count)), (0.5, bethe)):
            theta = ThetaStack(samples, layout).rows(w)
            certificate = sweep_plan(layout).at(eps, cvals).guarantees.certificate
            for max_sweeps, tol in ((0, 1e-8), (3, 1e-8), (9, 1e-12), (40, 1e-12), (300, 1e-10)):
                lam = np.zeros((len(samples), layout.message_total))
                res = sweep_until_consistent(layout, lam, theta, eps, cvals, max_sweeps, tol)
                b, residual, sweeps = res.beliefs, res.residual, res.sweeps
                for i in range(len(samples)):
                    ref = reference_loop(layout, theta[i], eps, cvals, max_sweeps, tol)
                    ref_lam, ref_b, ref_res, ref_sweeps, ref_extrapolations, ref_measured = ref
                    assert lam[i].tobytes() == ref_lam.tobytes()
                    assert b[i].tobytes() == ref_b.tobytes()
                    assert residual[i].tobytes() == ref_res.tobytes()
                    assert sweeps[i] == ref_sweeps
                    assert res.extrapolations[i] == ref_extrapolations
                    assert res.capped[i] == (not ref_res <= tol)
                    assert res.measured[i] == ref_measured
                if max_sweeps < EXTRAPOLATE_EVERY or not certificate:
                    assert not res.extrapolations.any()
                if max_sweeps == 0:
                    assert not sweeps.any()
                spread |= len(set(sweeps.tolist())) > 1
                # a row that took an extrapolation next to one whose guard
                # rejected one, in one batch
                rejected = res.extrapolations < sweeps // EXTRAPOLATE_EVERY
                mixed |= bool(res.extrapolations.any() and rejected.any())
                if not certificate:
                    assert np.array_equal(res.measured, sweeps + 1)
                skipped |= bool((res.measured < sweeps + 1).any())
    # some batch had rows that stopped at different sweep counts, and some
    # row went unmeasured after some sweeps
    assert spread and mixed and skipped


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(KINDS),
    st.sampled_from(["ones", "random", "zero", "eps0"]),
    st.sampled_from([0, 1, 3, 9, 10, 11, 27, 60]),
    st.sampled_from([1e-3, 1e-6, 1e-10, 0.0, -1.0]),
)
def test_rows_stop_on_a_measured_residual_within_k_sweeps_of_every_sweep_rule(
    seed, kind, counting, max_sweeps, tol
):
    # counting numbers "zero" (one c_r = 0) and "eps0" (eps = 0) lack the
    # certificate, where every sweep is measured as the reference does; at
    # eps > 0 one more row's potentials have overflowed to inf, so its
    # residual is NaN at the start
    k = EXTRAPOLATE_EVERY
    rng = np.random.default_rng(seed)
    graph, samples = corpus(rng, kind)
    layout = graph.layout()
    eps = 0.0 if counting == "eps0" else 1.0
    cvals = np.ones(graph.region_count)
    if counting in ("random", "zero"):
        cvals = rng.uniform(0.2, 3.0, graph.region_count)
    if counting == "zero":
        cvals[int(rng.integers(graph.region_count))] = 0.0
    theta = ThetaStack(samples, layout).rows(rng.uniform(-3, 3, 4))
    overflow = eps > 0
    if overflow:
        theta = np.concatenate((theta, np.full((1, layout.total), np.inf)))
    certificate = sweep_plan(layout).at(eps, cvals).guarantees.certificate
    assert certificate == (counting in ("ones", "random"))
    lam = np.zeros((theta.shape[0], layout.message_total))
    res = sweep_until_consistent(layout, lam, theta, eps, cvals, max_sweeps, tol)
    with np.errstate(all="ignore"):
        b = belief_vec(layout, lam, theta, eps, cvals)
        again = residual_rows(layout, b)
    assert b.tobytes() == res.beliefs.tobytes() and again.tobytes() == res.residual.tobytes()
    if overflow:
        assert res.sweeps[-1] == 0 and np.isnan(res.residual[-1]) and res.capped[-1]
        assert res.measured[-1] == 1
    assert (res.measured <= res.sweeps + 1).all()
    if certificate:
        # measured before any sweep, after the first, at every K-th and at the cap
        for i in range(len(samples)):
            due = [t for t in range(1, res.sweeps[i] + 1)
                   if t == 1 or t % k == 0 or t == max_sweeps]
            assert res.measured[i] == 1 + len(due)
    for i in range(len(samples)):
        ref_lam, ref_b, ref_res, ref_sweeps, _, _ = reference_loop(
            layout, theta[i], eps, cvals, max_sweeps, tol, every_sweep=True
        )
        if not certificate:
            assert lam[i].tobytes() == ref_lam.tobytes()
            assert res.beliefs[i].tobytes() == ref_b.tobytes()
            assert res.residual[i].tobytes() == ref_res.tobytes()
            assert res.sweeps[i] == ref_sweeps and res.measured[i] == ref_sweeps + 1
        if res.capped[i]:
            assert res.sweeps[i] == max_sweeps or np.isnan(res.residual[i])
        else:
            assert res.residual[i] <= tol
            assert ref_sweeps <= res.sweeps[i] < ref_sweeps + k


def test_extrapolation_lands_on_the_fixed_point_of_an_affine_iteration():
    # x <- A x + b in 2 dimensions, A symmetric with eigenvalues 0.8 and -0.6:
    # its K differences span 2 directions, so a combination of K + 1 iterates
    # is the fixed point.  Each of four rows starts one unit along each
    # eigenvector from it (signs differ), and its last iterate misses it by
    # over 5% of that distance; the 1e-10 regularization leaves about 1e-9.
    k = EXTRAPOLATE_EVERY
    rng = np.random.default_rng(46)
    q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    a = q @ np.diag([0.8, -0.6]) @ q.T
    b = rng.normal(size=2)
    fixed = np.linalg.solve(np.eye(2) - a, b)
    x = [fixed + np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) @ q.T]
    for _ in range(k):
        x.append(x[-1] @ a.T + b)
    start = np.abs(x[0] - fixed).max(axis=1)
    assert (np.abs(x[k] - fixed).max(axis=1) > 0.05 * start).all()
    got = _extrapolate(np.array(x[:k]), x[k])
    assert (np.abs(got - fixed).max(axis=1) <= 1e-8 * start).all()


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
    assert res.beliefs.shape == (0, layout.total)
    assert res.residual.shape == res.sweeps.shape == res.capped.shape == (0,)
    assert predict_all(graph, [], np.zeros(3), 1.0) == []
