"""The level-scheduled sweep against the per-region sequential sweep.

A level updates regions whose block updates neither read nor write each
other's message slots, so a level-by-level sweep must equal, bit for bit, a
loop of the per-region reference ``lambda_update_vec`` over the plan's own
``sequence``.  Any other order is a loop of the public ``lambda_update``,
which must equal the reference loop over that order.  The public one-region
operations and the c_r = 0 beliefs run on the same level kernel and are
checked against the per-edge references too.  The
gather kernels of the message potentials and the residual are checked here,
bit for bit, against ``np.add.at`` references.
"""

import gc
import logging
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import (
    CountingNumbers,
    MessageState,
    TrainerConfig,
    compute_beliefs,
    inference,
    inference_sweep,
    lambda_update,
    mu_message,
    train,
)
from blendsp.datagen import build_grid_graph
from blendsp.model import Region, RegionGraph
from blendsp.inference import (
    belief_vec,
    conflict_levels,
    message_potentials,
    residual_rows,
    sweep_plan,
    sweep_vec,
)

from test_deep_graphs import three_level_model
from util import (
    add_at_message_part,
    accumulator,
    add_at_residual,
    chain_graph,
    edge_slice,
    lambda_update_vec,
    loopy_graph,
    mu_vec,
    parent_edges,
    random_sample,
    segmented_gibbs,
    segmented_lse,
    tree_graph,
    zero_count_beliefs,
)


def sequential_sweep(layout, lam, theta, eps, cvals, order=None):
    """The reference: one region update at a time, in ``order`` (default:
    the plan's sequence)."""
    for r in sweep_plan(layout).sequence if order is None else order:
        lambda_update_vec(layout, lam, theta, r, eps, cvals)


def conflicting(graph, a, b):
    return bool(
        a in graph.parents[b]
        or b in graph.parents[a]
        or set(graph.parents[a]) & set(graph.parents[b])
    )


def graphs(rng, rounds=4):
    out = []
    for _ in range(rounds):
        out.append(tree_graph(rng, int(rng.integers(2, 9))))
        n = int(rng.integers(3, 7))
        out.append(loopy_graph(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1))))
        cards = [int(c) for c in rng.integers(2, 5, 3)]
        out.append(three_level_model(rng, cards)[0])
    return out


def counting_sets(rng, graph):
    n = graph.region_count
    partly_zero = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.1, 2.0, n))
    return {
        "ones": np.ones(n),
        "bethe": CountingNumbers.bethe(graph).values,
        "positive": rng.uniform(0.1, 2.0, n),
        "partly_zero": partly_zero,
        # negative parents take the grouped minimum in the log-sum-exp
        "mixed_sign": rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n),
    }


def test_level_sweep_matches_sequential_sweep_bitwise():
    rng = np.random.default_rng(5)
    checked = 0
    for graph in graphs(rng):
        layout = graph.layout()
        for name, cvals in counting_sets(rng, graph).items():
            for eps in (0.0, 1.0):
                for batch in (0, 1, 4):
                    theta = 3.0 * rng.normal(size=(batch, layout.total))
                    start = rng.normal(size=(batch, layout.message_total))
                    got, want = start.copy(), start.copy()
                    for _ in range(3):
                        sweep_vec(layout, got, theta, eps, cvals)
                        sequential_sweep(layout, want, theta, eps, cvals)
                    assert got.tobytes() == want.tobytes(), (name, eps, batch)
                    checked += 1
    assert checked == 12 * 5 * 2 * 3


def wide_graph() -> RegionGraph:
    """A chain of 5 variables of 2, 12, 3, 130 and 2 labels, its 4 pairs,
    and a triple over the last three variables, parent of the last two pairs
    and of singleton 3.  Fibers of 12 and 130 parent labels and child tables
    of 12 to 390 entries; the sweep's first level, singletons 0, 2 and 4,
    has the classes (2 terms, fiber 130) and (1 term, fiber 12), and the
    second, singletons 1 and 3, five classes of 1 and 2 terms."""
    cards = [2, 12, 3, 130, 2]
    regions = [Region(i, (i,), (c,)) for i, c in enumerate(cards)]
    edges = []
    for a in range(4):
        regions.append(Region(5 + a, (a, a + 1), (cards[a], cards[a + 1])))
        edges += [(5 + a, a), (5 + a, a + 1)]
    regions.append(Region(9, (2, 3, 4), tuple(cards[2:])))
    edges += [(9, 7), (9, 8), (9, 3)]
    return RegionGraph(regions, edges, 5)


def test_level_sweep_matches_sequential_sweep_bitwise_on_wide_tables():
    # groups and tables of more than 8 and more than 128 entries, several
    # classes in one level, at batches on both sides of the lane widths
    rng = np.random.default_rng(23)
    graph = wide_graph()
    layout = graph.layout()
    levels = sweep_plan(layout).levels
    assert [level.regions for level in levels[:2]] == [[0, 2, 4], [1, 3]]
    assert [c[1:3] for c in levels[0].groups.classes] == [(130, 5), (12, 5)]
    assert len(levels[1].groups.classes) == 5
    checked = 0
    for name, cvals in counting_sets(rng, graph).items():
        for eps in (0.0, 1.0):
            for batch in (1, 4, 10, 13):
                theta = 3.0 * rng.normal(size=(batch, layout.total))
                theta[::2] = np.round(theta[::2])  # ties and zeros in every other row
                start = rng.normal(size=(batch, layout.message_total))
                got, want = start.copy(), start.copy()
                sweep_vec(layout, got, theta, eps, cvals, 3)
                for _ in range(3):
                    sequential_sweep(layout, want, theta, eps, cvals)
                assert got.tobytes() == want.tobytes(), (name, eps, batch)
                checked += 1
    assert checked == 5 * 2 * 4


def test_lambda_update_loops_over_any_order_match_the_reference_loop_bitwise():
    # another update order is a loop of the public one-region update: id
    # order, a permutation with the regions without parents, and a random
    # order with repeats
    rng = np.random.default_rng(19)
    checked = 0
    for graph in graphs(rng):
        layout = graph.layout()
        n = graph.region_count
        sample = random_sample(rng, graph, 3)
        w = rng.normal(size=3)
        theta = sample.compiled().theta_vec(w)[None, :]
        orders = (
            layout.regions_with_parents,
            rng.permutation(n).tolist(),
            rng.integers(0, n, 2 * n).tolist(),
        )
        for name, cvals in counting_sets(rng, graph).items():
            for eps in (0.0, 1.0):
                for order in orders:
                    start = rng.normal(size=layout.message_total)
                    state = MessageState(graph, start.copy())
                    for r in order:
                        lambda_update(graph, sample, r, state, w, eps, cvals)
                    want = start[None, :].copy()
                    sequential_sweep(layout, want, theta, eps, cvals, order)
                    assert state.vec.tobytes() == want[0].tobytes(), (name, eps, order)
                    checked += 1
    assert checked == 12 * 5 * 2 * 3


def test_levels_hold_no_conflicting_regions_and_keep_their_order():
    # regions of one level never conflict, so any order within each level,
    # level after level, is the sweep's arithmetic bit for bit
    rng = np.random.default_rng(6)
    for graph in graphs(rng):
        layout = graph.layout()
        levels = conflict_levels(layout)
        for level in levels:
            assert not any(conflicting(graph, a, b) for a in level for b in level if a != b)
        cvals = rng.uniform(0.1, 2.0, graph.region_count)
        theta = rng.normal(size=(2, layout.total))
        got = rng.normal(size=(2, layout.message_total))
        want = got.copy()
        sweep_vec(layout, got, theta, 1.0, cvals)
        shuffled = [r for level in levels for r in rng.permutation(level).tolist()]
        sequential_sweep(layout, want, theta, 1.0, cvals, shuffled)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_default_levels_colour_the_conflict_relation_first_fit(seed):
    rng = np.random.default_rng(seed)
    for graph in graphs(rng, rounds=1):
        layout = graph.layout()
        levels = conflict_levels(layout)
        placed = [r for level in levels for r in level]
        assert sorted(placed) == layout.regions_with_parents.tolist()  # each exactly once
        assert sweep_plan(layout).sequence == placed
        level_of = {r: i for i, level in enumerate(levels) for r in level}
        for a in placed:
            near = {level_of[b] for b in placed if b != a and conflicting(graph, a, b)}
            assert level_of[a] not in near  # a proper colouring
            # first fit: every lower level holds a conflicting region with a
            # smaller id, which is why the region could not go there
            for lv in range(level_of[a]):
                assert any(
                    level_of[b] == lv and b < a and conflicting(graph, a, b) for b in placed
                )


def test_repeated_regions_in_an_order_run_sequentially():
    rng = np.random.default_rng(7)
    graph, sample = three_level_model(rng, [2, 3, 2])
    layout = graph.layout()
    w = rng.normal(size=4)
    theta = sample.compiled().theta_vec(w)[None, :]
    order = [1, 0, 1, 3, 1, 4, 3]
    start = rng.normal(size=layout.message_total)
    state = MessageState(graph, start.copy())
    for r in order:
        lambda_update(graph, sample, r, state, w, 1.0)
    want = start[None, :].copy()
    sequential_sweep(layout, want, theta, 1.0, np.ones(graph.region_count), order)
    assert state.vec.tobytes() == want[0].tobytes()


def test_zero_denominator_warns_and_leaves_its_messages(caplog):
    graph = chain_graph(3)  # singletons 0..2, pairs 3=(0,1) and 4=(1,2)
    layout = graph.layout()
    cvals = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])  # c_0 + c_3 = 0
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(2, layout.total))
    start = rng.normal(size=(2, layout.message_total))
    got, want = start.copy(), start.copy()
    with caplog.at_level(logging.WARNING, logger="blendsp.inference"):
        sweep_vec(layout, got, theta, 1.0, cvals)
    warned = [rec.getMessage() for rec in caplog.records]
    assert warned == [
        "region 0: c_r + sum of parent counting numbers is zero; update skipped"
    ]
    sequential_sweep(layout, want, theta, 1.0, cvals)
    assert np.array_equal(got, want)
    skipped = edge_slice(layout, graph.edges.index((3, 0)))
    assert np.array_equal(got[:, skipped], start[:, skipped])
    assert not np.array_equal(got, start)


SKIPPED = "region 0: c_r + sum of parent counting numbers is zero; update skipped"


def test_zero_denominator_warns_once_per_coefficient_derivation(caplog):
    # the warning comes with the coefficients, which a plan derives once per
    # (eps, cvals), not with every sweep
    rng = np.random.default_rng(20)
    graph = chain_graph(3)
    cvals = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])  # c_0 + c_3 = 0
    layout = graph.layout()
    theta = rng.normal(size=(2, layout.total))
    lam = rng.normal(size=(2, layout.message_total))
    with caplog.at_level(logging.WARNING, logger="blendsp.inference"):
        for _ in range(5):
            sweep_vec(layout, lam, theta, 1.0, cvals)
        assert [rec.getMessage() for rec in caplog.records] == [SKIPPED]
        caplog.clear()
        for _ in range(3):
            sweep_vec(layout, lam, theta, 0.5, cvals)  # a new eps: derived once more
        assert [rec.getMessage() for rec in caplog.records] == [SKIPPED]
    caplog.clear()
    config = TrainerConfig(counting=cvals, max_outer_iters=20)
    with caplog.at_level(logging.WARNING, logger="blendsp.inference"):
        fresh = chain_graph(3)
        state = train(fresh, [random_sample(rng, fresh, 2)], config)
    assert state.iteration > 1
    warned = [rec.getMessage() for rec in caplog.records if rec.name == "blendsp.inference"]
    assert warned == [SKIPPED]


def test_soft_maxes_are_derived_once_per_eps_and_counting_numbers(monkeypatch):
    # every soft-max a training run uses, the region tables' and each
    # level's groups', is made once per (eps, cvals), not per sweep or trial
    made = []

    class Counted(inference.SoftMax):
        def __init__(self, segments, *args):
            made.append(segments)
            super().__init__(segments, *args)

    monkeypatch.setattr(inference, "SoftMax", Counted)
    rng = np.random.default_rng(22)
    graph, sample = three_level_model(rng, [2, 3, 2])
    samples = [sample, random_sample(rng, graph, 4, 1)]
    for eps in (1.0, 0.5):
        made.clear()
        state = train(graph, samples, TrainerConfig(eps=eps, max_outer_iters=20, grad_norm_tol=0.0))
        assert state.iteration == 20
        plan = sweep_plan(graph.layout())
        want = [plan.segments] + [level.groups for level in plan.levels]
        assert sorted(map(id, made)) == sorted(map(id, want)), eps


def test_a_dropped_graph_frees_its_plan_without_the_cycle_collector():
    # the plan's derived terms refer back to it weakly: no reference cycle
    # keeps a finished command's plan alive until a collection
    graph = chain_graph(3)
    layout = graph.layout()
    cvals = np.array([0.0, 1.0, 1.0, 1.0, 1.0])  # a zero-count level too
    lam, theta = np.zeros((2, layout.message_total)), np.ones((2, layout.total))
    sweep_vec(layout, lam, theta, 1.0, cvals)
    belief_vec(layout, lam, theta, 1.0, cvals)
    plan = weakref.ref(layout.plan_cache)
    gc.disable()
    try:
        del graph, layout
        assert plan() is None
    finally:
        gc.enable()


def test_graph_without_edges_sweeps_to_a_no_op():
    graph = tree_graph(np.random.default_rng(9), 1)
    layout = graph.layout()
    lam = np.zeros((3, 0))
    sweep_vec(layout, lam, np.ones((3, layout.total)), 1.0, np.ones(1))
    assert conflict_levels(layout) == []


def test_denoise_grids_plan_two_colour_classes():
    for size in (10, 40):
        layout = build_grid_graph(size, size).layout()
        assert layout.plan_cache is None  # built on the first sweep, not with the layout
        plan = sweep_plan(layout)
        assert len(plan.levels) == 2
        assert sweep_plan(layout) is plan


def kernel_graphs(rng):
    """Graphs for the gather kernels: mixed cardinalities, 3 levels, 1-label
    children, and no edges at all."""
    out = graphs(rng, rounds=2)
    out.append(three_level_model(rng, [1, 3, 4])[0])
    out.append(three_level_model(rng, [2, 1, 3])[0])
    # the 9-label pair's edge to the 1-label singleton is the only message
    # slot whose marginal sums 9 beliefs: a (batch, 9, 1) gather summed over
    # axis 1 would be summed pairwise, not in order
    out.append(chain_graph(2, [9, 1]))
    out.append(chain_graph(4, [3, 1, 4, 2]))
    out.append(tree_graph(rng, 1))
    return out


def test_gather_kernels_match_add_at_references():
    rng = np.random.default_rng(10)
    for graph in kernel_graphs(rng):
        layout = graph.layout()
        for batch in (0, 1, 3):
            theta = rng.normal(size=(batch, layout.total))
            lam = rng.normal(size=(batch, layout.message_total))
            lam[:, ::5] = 0.0  # signed zeros: -0.0 in the negated outgoing copy
            part = add_at_message_part(layout, lam)
            assert message_potentials(layout, lam).tobytes() == part.tobytes()
            if batch:
                assert message_potentials(layout, lam[0]).tobytes() == part[0].tobytes()
            assert (theta + message_potentials(layout, lam)).tobytes() == (theta + part).tobytes()
            b = rng.uniform(0.0, 1.0, size=(batch, layout.total))
            assert residual_rows(layout, b).tobytes() == add_at_residual(layout, b).tobytes()
            b = belief_vec(layout, lam, theta, 1.0, np.ones(graph.region_count))
            assert residual_rows(layout, b).tobytes() == add_at_residual(layout, b).tobytes()


def test_beliefs_are_gibbs_of_theta_plus_message_potentials():
    # one potentials convention: theta + message_potentials(lam), bytewise,
    # whether belief_vec gathers the messages itself or is handed their pass,
    # whose log-partitions are those of a separate log-sum-exp pass
    rng = np.random.default_rng(12)
    for graph in graphs(rng):
        layout = graph.layout()
        for name, cvals in counting_sets(rng, graph).items():
            for eps in (1.0, 0.3, 0.0):
                theta = rng.normal(size=(3, layout.total))
                lam = rng.normal(size=(3, layout.message_total))
                potentials = theta + message_potentials(layout, lam)
                terms = sweep_plan(layout).at(eps, cvals).regions(potentials)
                got = belief_vec(layout, lam, theta, eps, cvals)
                assert belief_vec(layout, lam, theta, eps, cvals, terms).tobytes() == got.tobytes()
                lse = segmented_lse(layout, potentials, eps * cvals)
                assert terms.lse.tobytes() == lse.tobytes(), (name, eps)
                if (cvals != 0).all():
                    want = segmented_gibbs(layout, potentials, eps * cvals, cvals)
                    assert got.tobytes() == want.tobytes(), (name, eps)


def kernel_counting_sets(rng, graph):
    """``counting_sets`` plus one with a zero denominator c_r + sum of parent
    c, one with zeros among mixed signs, and all zeros."""
    sets = counting_sets(rng, graph)
    layout = graph.layout()
    n = graph.region_count
    cvals = rng.uniform(0.1, 2.0, n)
    r = layout.regions_with_parents[int(rng.integers(len(layout.regions_with_parents)))]
    cvals[r] = -cvals[layout.edge_parent[parent_edges(layout, r)]].sum()
    sets["zero_denominator"] = cvals
    signed = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
    sets["zero_mixed_sign"] = np.where(rng.random(n) < 0.4, 0.0, signed)
    sets["all_zero"] = np.zeros(n)
    return sets


def test_lambda_update_and_mu_message_match_per_edge_references_bitwise():
    rng = np.random.default_rng(13)
    checked = 0
    for graph in graphs(rng):
        layout = graph.layout()
        sample = random_sample(rng, graph, 4)
        w = rng.normal(size=4)
        theta = sample.compiled().theta_vec(w)[None, :]
        for name, cvals in kernel_counting_sets(rng, graph).items():
            for eps in (0.0, 0.3, 1.0):
                start = rng.normal(size=layout.message_total)
                for r in range(graph.region_count):
                    state = MessageState(graph, start.copy())
                    lambda_update(graph, sample, r, state, w, eps, cvals)
                    want = start[None, :].copy()
                    lambda_update_vec(layout, want, theta, r, eps, cvals)
                    assert state.vec.tobytes() == want[0].tobytes(), (name, eps, r)
                    checked += bool(parent_edges(layout, r))
                state = MessageState(graph, start)
                for e, (p, r) in enumerate(graph.edges):
                    got = mu_message(graph, sample, p, r, state, w, eps, cvals)
                    want = mu_vec(layout, start[None, :], theta, e, eps, cvals)[0]
                    assert got.tobytes() == want.tobytes(), (name, eps, e)
                assert state.vec.tobytes() == start.tobytes()
    assert checked > 12 * 8 * 3 * 4


def test_zero_count_beliefs_normalize_the_level_accumulators():
    # a region with parents and c_r = 0 takes its belief from the accumulator
    # of its update (the per-edge reference's exponent, bit for bit),
    # normalized at temperature eps * (c_r + sum of parent c); only the
    # normalizing sum differs from the reference loop (reduceat against a
    # pairwise .sum)
    rng = np.random.default_rng(14)
    checked = 0
    for graph in graphs(rng):
        layout = graph.layout()
        for name, cvals in kernel_counting_sets(rng, graph).items():
            for eps in (0.0, 0.3, 1.0):
                theta = 3.0 * rng.normal(size=(3, layout.total))
                lam = rng.normal(size=(3, layout.message_total))
                got = belief_vec(layout, lam, theta, eps, cvals)
                potentials = theta + message_potentials(layout, lam)
                direct = segmented_gibbs(layout, potentials, eps * cvals, cvals)
                want = zero_count_beliefs(layout, lam, theta, eps, cvals, direct.copy())
                assert np.abs(got - want).max(initial=0.0) <= 1e-15, (name, eps)
                at = sweep_plan(layout).at(eps, cvals)
                zero = at.zero_count
                if zero is None:
                    assert got.tobytes() == direct.tobytes(), (name, eps)
                    continue
                level, c, _ = zero
                chat = at.denom[level.acc_regions]
                # the kernel takes and gives sample-minor rows
                lam_t, theta_t = lam.T.copy(), theta.T.copy()
                acc = level.accumulate(lam_t, theta_t, level.mu(lam_t, theta_t, c)).T
                for i, r in enumerate(level.acc_regions):
                    edges = parent_edges(layout, r)
                    assert cvals[r] == 0.0 and edges
                    mus = [mu_vec(layout, lam, theta, e, eps, cvals) for e in edges]
                    ref = accumulator(layout, lam, theta, r, mus)
                    cols = slice(level.starts[i], level.starts[i] + layout.sizes[r])
                    assert acc[:, cols].tobytes() == ref.tobytes(), (name, eps, r)
                    assert chat[i] == cvals[r] + cvals[layout.edge_parent[edges]].sum()
                    checked += 1
                others = np.ones(layout.total, dtype=bool)
                others[level.acc_idx] = False
                assert got[:, others].tobytes() == direct[:, others].tobytes()
    assert checked > 100


def test_one_region_operations_leave_the_cached_sweep_plan(monkeypatch):
    rng = np.random.default_rng(15)
    graph = three_level_model(rng, [2, 3, 2])[0]
    layout = graph.layout()
    sample = random_sample(rng, graph, 4)
    w = rng.normal(size=4)
    state = MessageState(graph)
    for cached in (None, "default", "ordered"):
        if cached == "default":
            inference_sweep(graph, sample, state, w, 1.0)
        elif cached == "ordered":
            for r in (4, 0, 3):
                lambda_update(graph, sample, r, state, w, 1.0)
        else:  # the first one-region update makes the plan, uncoloured
            lambda_update(graph, sample, layout.regions_with_parents[0], state, w, 0.5)
            assert "levels" not in vars(layout.plan_cache)
        before = layout.plan_cache
        for r in range(graph.region_count):
            lambda_update(graph, sample, r, state, w, 0.5)
        for p, r in graph.edges:
            mu_message(graph, sample, p, r, state, w, 0.5)
        assert layout.plan_cache is before
        # the plan keeps each one-region level: no level is built again
        with monkeypatch.context() as m:
            m.setattr(inference, "_Level", None)
            for r in range(graph.region_count):
                lambda_update(graph, sample, r, state, w, 0.5)
            for p, r in graph.edges:
                mu_message(graph, sample, p, r, state, w, 0.5)


def test_first_zero_count_beliefs_build_no_colour_levels(monkeypatch):
    rng = np.random.default_rng(21)
    graph, sample = three_level_model(rng, [2, 3, 2])
    layout = graph.layout()
    w = rng.normal(size=4)
    cvals = np.ones(graph.region_count)
    cvals[0] = 0.0  # region 0 has the parent 3

    def no_colouring(layout):
        raise AssertionError("the zero-count level coloured the graph")

    monkeypatch.setattr(inference, "conflict_levels", no_colouring)
    assert layout.plan_cache is None
    beliefs = compute_beliefs(graph, sample, MessageState(graph), w, 1.0, cvals)
    assert layout.plan_cache is not None
    monkeypatch.undo()
    inference_sweep(graph, sample, MessageState(graph), w, 1.0, cvals)  # colours the graph
    assert len(layout.plan_cache.levels) == len(conflict_levels(layout))
    again = compute_beliefs(graph, sample, MessageState(graph), w, 1.0, cvals)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(beliefs, again))
