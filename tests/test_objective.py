import math

import numpy as np
import pytest

from blendsp import (
    CountingNumbers,
    MessageState,
    ModelError,
    Region,
    RegionGraph,
    Sample,
    compute_beliefs,
    dual_objective,
    duality_report,
    inference_sweep,
    moment_mismatch,
    primal_objective,
    region_loss,
)

from blendsp.inference import Guarantees, guarantees, sweep_plan
from blendsp.objective import certifies

from util import (
    brute_force_lse,
    chain_graph,
    edge_slice,
    exact_loss,
    exact_map,
    exact_marginals,
    label_strides,
    loopy_graph,
    ones,
    random_model,
    random_sample,
)


def single_region_model(rng, labels=4, num_features=2):
    graph = RegionGraph([Region(0, (0,), (labels,))], [], 1)
    feats = {0: {k: rng.normal(size=labels) for k in range(num_features)}}
    truth = int(rng.integers(0, labels))
    loss = {0: rng.uniform(0.2, 1.5, labels)}
    loss[0][truth] = 0.0
    return graph, Sample(graph, 0, loss, feats, {0: truth})


def test_single_region_loss_equals_exact_extended_loss():
    rng = np.random.default_rng(0)
    graph, sample = single_region_model(rng)
    w = rng.normal(size=2)
    state = MessageState(graph)
    for eps in (0.0, 0.3, 1.0):
        rl = region_loss(graph, sample, 0, state, w, eps, ones(graph))
        assert rl == pytest.approx(exact_loss(graph, sample, w, eps), abs=1e-12)


def test_region_loss_zero_temperature_hinge_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        graph, sample = single_region_model(rng)
        w = rng.normal(size=2)
        state = MessageState(graph)
        rl = region_loss(graph, sample, 0, state, w, 0.0, ones(graph))
        assert rl >= 0.0


def test_region_loss_equals_negative_scaled_log_belief():
    rng = np.random.default_rng(2)
    graph, sample = random_model(rng)
    w = rng.normal(size=3)
    state = MessageState(graph)
    inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    beliefs = compute_beliefs(graph, sample, state, w, 1.0, ones(graph))
    eps = 1.0
    for r in range(graph.region_count):
        rl = region_loss(graph, sample, r, state, w, eps, ones(graph))
        expected = -eps * 1.0 * math.log(beliefs[r][sample.true_labels[r]])
        assert rl == pytest.approx(expected, abs=1e-10)


def test_region_loss_rejects_unknown_regions_and_samples_without_truth():
    graph = chain_graph(2)  # regions 0, 1 and the pair 2
    sample = Sample(graph, 0, true_labels={0: 1, 1: 0, 2: 2})
    state, w = MessageState(graph), np.zeros(1)
    for region in (3, -1):
        with pytest.raises(ValueError, match=f"^region {region} is not in the region graph$"):
            region_loss(graph, sample, region, state, w, 1.0)
    unlabelled = Sample(graph, 5)
    with pytest.raises(ModelError, match="^sample 5: no true labels$"):
        region_loss(graph, unlabelled, 0, state, w, 1.0)
    assert region_loss(graph, sample, 2, state, w, 1.0) == pytest.approx(math.log(4))


def test_primal_all_zero_tables_is_sum_of_log_label_counts():
    graph = chain_graph(3)
    sample = Sample(graph, 0, true_labels={r: 0 for r in range(graph.region_count)})
    state = MessageState(graph)
    for eps in (0.5, 1.0):
        expected = eps * sum(math.log(reg.label_count) for reg in graph.regions)
        got = primal_objective(graph, [sample], [state], np.zeros(0), eps, ones(graph), 0.0)
        assert got == pytest.approx(expected, abs=1e-12)


def test_primal_upper_bounds_exact_loss():
    rng = np.random.default_rng(3)
    for _ in range(25):
        graph, sample = random_model(rng)
        w = rng.uniform(-2, 2, 3)
        state = MessageState(graph)
        for eps in (0.0, 0.1, 1.0):
            ex = exact_loss(graph, sample, w, eps)
            for sweeps in (0, 5):
                st = MessageState(graph)
                for _ in range(sweeps):
                    inference_sweep(graph, sample, st, w, eps, ones(graph))
                primal = primal_objective(graph, [sample], [st], w, eps, ones(graph), 0.0)
                assert primal >= ex - 1e-9


def test_fractional_cover_upper_bound():
    rng = np.random.default_rng(4)
    for _ in range(15):
        graph, sample = random_model(rng)
        # random nonnegative counting numbers, then scale so every variable
        # is fractionally covered
        c = rng.uniform(0.2, 1.5, graph.region_count)
        cover = np.zeros(graph.variable_count)
        for reg in graph.regions:
            for v in reg.variables:
                cover[v] += c[reg.id]
        c = c / cover.min()
        counting = CountingNumbers.of(graph, c)
        assert guarantees(graph, 1.0, counting).bound
        w = rng.uniform(-2, 2, 3)
        state = MessageState(graph)
        for eps in (0.1, 1.0):
            primal = primal_objective(graph, [sample], [state], w, eps, counting, 0.0)
            assert primal >= exact_loss(graph, sample, w, eps) - 1e-9


def test_primal_invariant_to_message_shifts():
    rng = np.random.default_rng(5)
    graph, sample = random_model(rng)
    w = rng.normal(size=3)
    state = MessageState(graph)
    inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    before = primal_objective(graph, [sample], [state], w, 1.0, ones(graph), 0.5)
    state.vec[edge_slice(graph.layout(), 0)] += 11.0
    after = primal_objective(graph, [sample], [state], w, 1.0, ones(graph), 0.5)
    assert after == pytest.approx(before, abs=1e-10)


def test_single_region_decomposition_is_tight():
    rng = np.random.default_rng(6)
    graph, sample = single_region_model(rng)
    w = rng.normal(size=2)
    state = MessageState(graph)
    primal = primal_objective(graph, [sample], [state], w, 1.0, ones(graph), 0.0)
    assert primal == pytest.approx(exact_loss(graph, sample, w, 1.0), abs=1e-12)


def test_dual_uniform_beliefs_zero_loss():
    graph = chain_graph(2)
    sample = Sample(graph, 0, true_labels={0: 0, 1: 0, 2: 0})
    beliefs = [np.full(reg.label_count, 1.0 / reg.label_count) for reg in graph.regions]
    # no features at all, so the mismatch is empty and C may be anything
    val = dual_objective(graph, [sample], [beliefs], 1.0, ones(graph), 1.0)
    expected = sum(math.log(reg.label_count) for reg in graph.regions)
    assert val == pytest.approx(expected, abs=1e-12)


def test_dual_point_mass_on_truth_is_zero():
    rng = np.random.default_rng(7)
    graph, sample = random_model(rng)
    beliefs = []
    for reg in graph.regions:
        b = np.zeros(reg.label_count)
        b[sample.true_labels[reg.id]] = 1.0
        beliefs.append(b)
    # moments need no eps: the plan's terms at (0.5, ones) stay cached
    terms = sweep_plan(graph.layout()).at(0.5, ones(graph).values)
    z = moment_mismatch(graph, [sample], [beliefs], 3)
    np.testing.assert_allclose(z, 0.0, atol=1e-12)
    assert sweep_plan(graph.layout()).at(0.5, ones(graph).values) is terms
    val = dual_objective(graph, [sample], [beliefs], 1.0, ones(graph), 0.7, 3)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_weak_duality_at_feasible_beliefs():
    # exact marginals are marginally consistent, so the dual value at them is
    # a true lower bound on the primal at any messages
    rng = np.random.default_rng(8)
    for _ in range(10):
        graph, sample = random_model(rng)
        w = rng.uniform(-1, 1, 3)
        feasible = exact_marginals(graph, sample, w, 1.0)
        C = 0.8
        dual = dual_objective(graph, [sample], [feasible], 1.0, ones(graph), C, 3)
        for sweeps in (0, 3, 50):
            state = MessageState(graph)
            for _ in range(sweeps):
                inference_sweep(graph, sample, state, w, 1.0, ones(graph))
            primal = primal_objective(graph, [sample], [state], w, 1.0, ones(graph), C)
            assert dual <= primal + 1e-8


def test_dual_rejects_negative_C():
    graph = chain_graph(2)
    sample = Sample(graph, 0, true_labels={0: 0, 1: 0, 2: 0})
    beliefs = [np.full(reg.label_count, 1.0 / reg.label_count) for reg in graph.regions]
    with pytest.raises(ValueError):
        dual_objective(graph, [sample], [beliefs], 1.0, ones(graph), -1.0)


def test_belief_tables_of_the_wrong_size_are_rejected():
    # region 0 has 4 labels and region 1 has 2: swapped tables keep the total
    graph = RegionGraph([Region(0, (0, 1), (2, 2)), Region(1, (0,), (2,))], [(0, 1)], 2)
    sample = Sample(graph, 0, true_labels={0: 0, 1: 0})
    swapped = [[np.array([0.5, 0.5]), np.full(4, 0.25)]]
    for call in (
        lambda b: moment_mismatch(graph, [sample], b),
        lambda b: dual_objective(graph, [sample], b, 1.0, ones(graph), 0.5),
    ):
        with pytest.raises(ValueError, match="region 0: belief table"):
            call(swapped)
        call([[np.full(4, 0.25), np.array([0.5, 0.5])]])


def test_dual_hard_constraints_at_zero_C():
    rng = np.random.default_rng(9)
    graph, sample = random_model(rng)
    point = []
    for reg in graph.regions:
        b = np.zeros(reg.label_count)
        b[sample.true_labels[reg.id]] = 1.0
        point.append(b)
    assert dual_objective(graph, [sample], [point], 1.0, ones(graph), 0.0, 3) == 0.0
    uniform = [np.full(reg.label_count, 1.0 / reg.label_count) for reg in graph.regions]
    assert dual_objective(graph, [sample], [uniform], 1.0, ones(graph), 0.0, 3) == -math.inf


def test_duality_report_fresh_state_uncertified():
    rng = np.random.default_rng(10)
    graph = loopy_graph(rng, 5, 6)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    report = duality_report(graph, [sample], [MessageState(graph)], w, 1.0, ones(graph), 1.0, 3)
    assert not report.certified
    assert report.marginal_residual > 1e-6
    assert np.isfinite(report.primal) and np.isfinite(report.dual)
    assert report.gap == report.primal - report.dual


def test_duality_report_converged_certified_small_gap():
    rng = np.random.default_rng(11)
    graph, sample = random_model(rng)
    w = rng.uniform(-0.5, 0.5, 3)
    state = MessageState(graph)
    for _ in range(400):
        inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    report = duality_report(graph, [sample], [state], w, 1.0, ones(graph), 1.0, 3)
    assert report.certified
    # with messages at their optimum the gap reduces to the weight
    # suboptimality (1/2C)*||grad||^2 plus a residual-sized term
    assert report.gap >= -1e-8


def test_duality_report_eps_zero_never_certified():
    rng = np.random.default_rng(12)
    graph, sample = random_model(rng)
    state = MessageState(graph)
    for _ in range(200):
        inference_sweep(graph, sample, state, np.zeros(3), 0.0, ones(graph))
    report = duality_report(graph, [sample], [state], np.zeros(3), 0.0, ones(graph), 1.0, 3)
    assert not report.certified


@pytest.mark.parametrize("nan_sample", [0, 1, 2])
def test_duality_report_carries_a_nan_residual_and_never_certifies_it(nan_sample):
    rng = np.random.default_rng(13)
    graph, _ = random_model(rng)
    samples = [random_sample(rng, graph, 3, sample_id=i) for i in range(3)]
    w = rng.uniform(-0.5, 0.5, 3)
    states = []
    for sample in samples:
        state = MessageState(graph)
        for _ in range(400):
            inference_sweep(graph, sample, state, w, 1.0, ones(graph))
        states.append(state)
    assert duality_report(graph, samples, states, w, 1.0, ones(graph), 1.0, 3).certified
    states[nan_sample].vec[0] = np.nan
    report = duality_report(graph, samples, states, w, 1.0, ones(graph), 1.0, 3)
    assert math.isnan(report.marginal_residual)
    assert math.isnan(report.gap)
    assert not report.certified


def test_certificate_needs_a_finite_gap_and_residual():
    holds = Guarantees(descent=True, certificate=True, bound=True)
    assert certifies(1e-7, -1e-9, holds)
    assert not certifies(1e-7, -1e-9, holds._replace(certificate=False))
    assert not certifies(math.nan, 0.0, holds)
    for gap in (math.nan, math.inf, -math.inf):
        assert not certifies(0.0, gap, holds)


def test_single_region_gap_vanishes_at_weight_optimum():
    # one region: messages do not exist, so the gap measures only the
    # suboptimality of w; solve the 1-feature convex problem by golden section
    rng = np.random.default_rng(13)
    graph, sample = single_region_model(rng, labels=3, num_features=1)
    state = MessageState(graph)
    C = 0.9

    def f(w):
        return primal_objective(
            graph, [sample], [state], np.array([w]), 1.0, ones(graph), C
        )

    lo, hi = -20.0, 20.0
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(120):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = f(b)
    w_star = np.array([(lo + hi) / 2])
    report = duality_report(graph, [sample], [state], w_star, 1.0, ones(graph), C, 1)
    assert report.certified  # a single region is trivially consistent
    assert abs(report.gap) <= 1e-8


def test_exact_loss_single_binary_variable():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    sample = Sample(graph, 0, true_labels={0: 0})
    assert exact_loss(graph, sample, np.zeros(0), 1.0) == pytest.approx(math.log(2))


def test_exact_loss_zero_temperature_is_structured_hinge():
    rng = np.random.default_rng(14)
    graph, sample = random_model(rng)
    w = rng.normal(size=3)
    from util import theta_table

    # direct hinge: max over joint labels of total score minus true score
    total, strides = None, None
    n = graph.variable_count
    best = -np.inf
    import itertools

    for assign in itertools.product(*[range(c) for c in graph.cardinalities]):
        score = 0.0
        for reg in graph.regions:
            flat = sum(
                int(assign[v]) * int(s) for v, s in zip(reg.variables, label_strides(reg))
            )
            score += theta_table(sample, reg.id, w, include_loss=True)[flat]
        best = max(best, score)
    truth = sample.true_assignment()
    true_score = 0.0
    for reg in graph.regions:
        flat = sum(int(truth[v]) * int(s) for v, s in zip(reg.variables, label_strides(reg)))
        true_score += theta_table(sample, reg.id, w, include_loss=True)[flat]
    assert exact_loss(graph, sample, w, 0.0) == pytest.approx(best - true_score, abs=1e-10)


def test_exact_loss_three_variable_chain_double_enumeration():
    rng = np.random.default_rng(15)
    graph = chain_graph(3)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    from util import theta_table

    # independent enumeration in a different order with fsum accumulation
    import itertools

    scores = []
    for assign in itertools.product(range(2), repeat=3):
        score = 0.0
        for reg in reversed(graph.regions):
            flat = sum(
                int(assign[v]) * int(s) for v, s in zip(reg.variables, label_strides(reg))
            )
            score += theta_table(sample, reg.id, w, include_loss=True)[flat]
        scores.append(score)
    truth = sample.true_assignment()
    true_idx = int(truth[0]) * 4 + int(truth[1]) * 2 + int(truth[2])
    eps = 0.7
    expected = brute_force_lse(scores, eps) - scores[true_idx]
    assert exact_loss(graph, sample, w, eps) == pytest.approx(expected, abs=1e-10)


def test_exact_loss_monotone_smooth_approximation():
    rng = np.random.default_rng(16)
    for _ in range(10):
        graph, sample = random_model(rng)
        w = rng.uniform(-2, 2, 3)
        hinge = exact_loss(graph, sample, w, 0.0)
        n_labels = float(np.prod([float(c) for c in graph.cardinalities]))
        for eps in (1e-3, 1e-2, 0.1, 1.0):
            val = exact_loss(graph, sample, w, eps)
            assert abs(val - hinge) <= eps * math.log(n_labels) + 1e-12


def test_exact_marginals_symmetric_model():
    graph = chain_graph(2)
    sample = Sample(graph, 0, true_labels={0: 0, 1: 0, 2: 0})
    marg = exact_marginals(graph, sample, np.zeros(0), 1.0, include_loss=False)
    np.testing.assert_allclose(marg[0], [0.5, 0.5])
    np.testing.assert_allclose(marg[2], np.full(4, 0.25))


def test_exact_marginals_factorize_without_coupling():
    rng = np.random.default_rng(17)
    graph = RegionGraph([Region(0, (0,), (2,)), Region(1, (1,), (3,))], [], 2)
    feats = {
        0: {0: rng.normal(size=2)},
        1: {1: rng.normal(size=3)},
    }
    sample = Sample(graph, 0, features=feats, true_labels={0: 0, 1: 0})
    w = rng.normal(size=2)
    marg = exact_marginals(graph, sample, w, 1.0, include_loss=False)
    from util import gibbs_normalize

    np.testing.assert_allclose(marg[0], gibbs_normalize(w[0] * feats[0][0], 1.0), atol=1e-12)
    np.testing.assert_allclose(marg[1], gibbs_normalize(w[1] * feats[1][1], 1.0), atol=1e-12)


def test_exact_map_tie_breaks_to_lowest_index():
    graph = chain_graph(2)
    sample = Sample(graph, 0, true_labels={0: 0, 1: 0, 2: 0})
    np.testing.assert_array_equal(exact_map(graph, sample, np.zeros(0)), [0, 0])


def test_exact_map_dominant_unary():
    rng = np.random.default_rng(18)
    graph = chain_graph(3)
    drawn = random_sample(rng, graph, 2, with_loss=False)
    # rebuilt with a huge unary on variable 1 label 1, weak elsewhere
    feats = {r: dict(fk) for r, fk in drawn.features.items()}
    feats[1][0] = np.array([0.0, 100.0])
    sample = Sample(graph, drawn.id, drawn.loss, feats, drawn.true_labels)
    labels = exact_map(graph, sample, np.ones(2))
    assert labels[1] == 1


def test_exact_map_matches_exhaustive_argmax():
    rng = np.random.default_rng(19)
    for _ in range(10):
        graph, sample = random_model(rng, max_vars=4)
        w = rng.normal(size=3)
        from util import theta_table
        import itertools

        best, best_assign = -np.inf, None
        for assign in itertools.product(*[range(c) for c in graph.cardinalities]):
            score = 0.0
            for reg in graph.regions:
                flat = sum(
                    int(assign[v]) * int(s) for v, s in zip(reg.variables, label_strides(reg))
                )
                score += theta_table(sample, reg.id, w, include_loss=False)[flat]
            if score > best + 1e-12:
                best, best_assign = score, assign
        np.testing.assert_array_equal(exact_map(graph, sample, w), best_assign)


def test_enumeration_guard():
    regions = [Region(i, (i,), (2,)) for i in range(21)]
    graph = RegionGraph(regions, [], 21)
    sample = Sample(graph, 0, true_labels={r: 0 for r in range(21)})
    with pytest.raises(ValueError, match="guard"):
        exact_loss(graph, sample, np.zeros(0), 1.0)
