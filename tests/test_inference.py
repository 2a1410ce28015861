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
    duality_report,
    exact_marginals,
    inference_sweep,
    lambda_update,
    marginal_residual,
    mu_message,
    predict,
    primal_objective,
)
from blendsp.inference import SoftMax, sweep_plan
from blendsp.numerics import ARGMAX_TOL

from util import (
    brute_force_lse,
    chain_graph,
    loopy_graph,
    ones,
    primal_lambda_gradient_fd,
    random_model,
    random_sample,
    segmented_gibbs,
    segmented_lse,
    tree_graph,
)


def pair_model():
    """One pairwise parent over two binary singletons, no features."""
    graph = chain_graph(2)
    sample = Sample(graph, 0, true_labels={0: 0, 1: 0, 2: 0})
    return graph, sample


def test_mu_uniform_theta_gives_log_two():
    graph, sample = pair_model()
    state = MessageState(graph)
    mu = mu_message(graph, sample, 2, 0, state, np.zeros(0), 1.0, ones(graph))
    np.testing.assert_allclose(mu, np.full(2, math.log(2)), atol=1e-12)


def test_mu_zero_temperature_takes_max():
    # parent table (3, 1) with both labels projecting to the same child label
    graph = RegionGraph([Region(0, (0,), (1,)), Region(1, (0, 1), (1, 2))], [(1, 0)], 2)
    sample = Sample(
        graph, 0, features={1: {0: np.array([3.0, 1.0])}}, true_labels={0: 0, 1: 0}
    )
    state = MessageState(graph)
    mu = mu_message(graph, sample, 1, 0, state, np.ones(1), 0.0, ones(graph))
    np.testing.assert_allclose(mu, [3.0])


def test_mu_matches_direct_summation():
    rng = np.random.default_rng(0)
    graph = chain_graph(2)
    sample = random_sample(rng, graph, 2)
    state = MessageState(graph)
    state.vec[:] = rng.normal(size=state.vec.size)
    w = rng.normal(size=2)
    eps = 0.5
    mu = mu_message(graph, sample, 2, 0, state, w, eps, ones(graph))
    from blendsp.model import theta_table

    theta_p = theta_table(sample, 2, w, include_loss=True)
    lam_other = state.table(1, 2)
    lam_to_parent = np.zeros(4)  # parent has no parents
    proj0 = graph.projection(2, 0)
    proj1 = graph.projection(2, 1)
    expo = theta_p + lam_other[proj1] - lam_to_parent
    for y0 in range(2):
        members = expo[proj0 == y0]
        assert mu[y0] == pytest.approx(brute_force_lse(members, eps), abs=1e-12)


def test_lambda_update_single_parent_formula():
    rng = np.random.default_rng(1)
    graph, sample = pair_model()
    sample = random_sample(rng, graph, 2)
    w = rng.normal(size=2)
    state = MessageState(graph)
    state.vec[:] = rng.normal(size=state.vec.size)
    mu = mu_message(graph, sample, 2, 0, state, w, 1.0, ones(graph))
    from blendsp.model import theta_table

    theta_r = theta_table(sample, 0, w, include_loss=True)
    expected = 0.5 * (theta_r - mu)  # singleton has no children
    expected -= expected.mean()
    lambda_update(graph, sample, 0, state, w, 1.0, ones(graph))
    np.testing.assert_allclose(state.table(0, 2), expected, atol=1e-12)


def test_lambda_update_zeroes_primal_gradient():
    rng = np.random.default_rng(2)
    graph = loopy_graph(rng, 4, 4)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    state = MessageState(graph)
    inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    lambda_update(graph, sample, 0, state, w, 1.0, ones(graph))
    grad = primal_lambda_gradient_fd(graph, sample, state, w, 1.0, ones(graph))
    layout = graph.layout()
    for e in layout.parent_edges[0]:
        assert np.abs(grad[layout.edge_slices[e]]).max() <= 1e-8


def test_lambda_update_no_parents_is_noop():
    graph, sample = pair_model()
    state = MessageState(graph)
    state.vec[:] = 0.25
    before = state.vec.copy()
    lambda_update(graph, sample, 2, state, np.zeros(0), 1.0, ones(graph))
    np.testing.assert_array_equal(state.vec, before)


def test_zero_denominator_skips_update(caplog):
    graph, sample = pair_model()
    state = MessageState(graph)
    bad = CountingNumbers.from_values([1.0, 1.0, -1.0])  # c_r + c_parent = 0
    with caplog.at_level("WARNING"):
        lambda_update(graph, sample, 0, state, np.zeros(0), 1.0, bad)
    np.testing.assert_array_equal(state.vec, np.zeros_like(state.vec))
    assert any("skipped" in r.message for r in caplog.records)


def test_beliefs_uniform_for_flat_model():
    graph, sample = pair_model()
    state = MessageState(graph)
    b = compute_beliefs(graph, sample, state, np.zeros(0), 1.0, ones(graph), include_loss=False)
    np.testing.assert_allclose(b[0], [0.5, 0.5])
    np.testing.assert_allclose(b[2], np.full(4, 0.25))


def test_beliefs_point_mass_at_zero_temperature():
    graph = RegionGraph([Region(0, (0,), (3,))], [], 1)
    sample = Sample(
        graph, 0, features={0: {0: np.array([0.0, 2.0, -1.0])}}, true_labels={0: 1}
    )
    state = MessageState(graph)
    b = compute_beliefs(graph, sample, state, np.ones(1), 0.0, ones(graph))
    np.testing.assert_array_equal(b[0], [0.0, 1.0, 0.0])


def test_converged_tree_beliefs_equal_exact_marginals():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        graph = tree_graph(rng, n)
        sample = random_sample(rng, graph, 3)
        w = rng.normal(size=3)
        bethe = CountingNumbers.bethe(graph)
        state = MessageState(graph)
        for _ in range(2 * n + 2):
            inference_sweep(graph, sample, state, w, 1.0, bethe)
        beliefs = compute_beliefs(graph, sample, state, w, 1.0, bethe)
        exact = exact_marginals(graph, sample, w, 1.0)
        for b, m in zip(beliefs, exact):
            np.testing.assert_allclose(b, m, atol=1e-9)
        assert marginal_residual(graph, beliefs) <= 1e-9


def test_marginal_residual_no_edges_is_zero():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    assert marginal_residual(graph, [np.array([0.3, 0.7])]) == 0.0


def test_marginal_residual_hand_value():
    graph, _ = pair_model()
    beliefs = [np.array([0.9, 0.1]), np.array([0.5, 0.5]), np.full(4, 0.25)]
    assert marginal_residual(graph, beliefs) == pytest.approx(0.4)


def test_marginal_residual_rejects_tables_of_the_wrong_size():
    # the right total in the wrong split: a 2-value table for the 4-label
    # region 0 and a 4-value table for the 2-label region 1
    graph = RegionGraph([Region(0, (0, 1), (2, 2)), Region(1, (0,), (2,))], [(0, 1)], 2)
    with pytest.raises(ValueError, match=r"region 0: belief table of shape \(2,\), expected \(4,\)"):
        marginal_residual(graph, [np.array([0.5, 0.5]), np.full(4, 0.25)])
    with pytest.raises(ValueError, match="1 belief tables for 2 regions"):
        marginal_residual(graph, [np.full(6, 1.0 / 6)])
    with pytest.raises(ValueError, match=r"region 0: belief table of shape \(2, 2\)"):
        marginal_residual(graph, [np.full((2, 2), 0.25), np.full((1, 2), 0.5)])
    with pytest.raises(ValueError):
        marginal_residual(graph, [np.full(4, 0.25), np.full((1, 2), 0.5)])
    assert marginal_residual(graph, [np.full(4, 0.25), np.array([0.5, 0.5])]) == 0.0


def test_residual_vanishes_after_convergence_on_loopy_graph():
    rng = np.random.default_rng(4)
    graph = loopy_graph(rng, 5, 6)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    state = MessageState(graph)
    for _ in range(200):
        inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    beliefs = compute_beliefs(graph, sample, state, w, 1.0, ones(graph))
    assert marginal_residual(graph, beliefs) <= 1e-6


def test_sweep_without_edges_is_noop():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    sample = Sample(graph, 0, true_labels={0: 0})
    state = MessageState(graph)
    inference_sweep(graph, sample, state, np.zeros(0), 1.0, ones(graph))
    assert state.vec.size == 0


def test_tree_sweeps_drive_residual_to_zero_monotonically():
    rng = np.random.default_rng(5)
    graph = tree_graph(rng, 7)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    bethe = CountingNumbers.bethe(graph)
    state = MessageState(graph)
    residuals = []
    for _ in range(16):
        inference_sweep(graph, sample, state, w, 1.0, bethe)
        beliefs = compute_beliefs(graph, sample, state, w, 1.0, bethe)
        residuals.append(marginal_residual(graph, beliefs))
    assert residuals[-1] <= 1e-9
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-9


def test_sweep_fixed_point_is_idempotent():
    rng = np.random.default_rng(6)
    graph = loopy_graph(rng, 4, 4)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    state = MessageState(graph)
    for _ in range(300):
        inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    before = state.vec.copy()
    inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    assert np.abs(state.vec - before).max() <= 1e-12


def test_sweeps_never_increase_primal_convex_mode():
    rng = np.random.default_rng(7)
    for trial in range(15):
        graph, sample = random_model(rng)
        k = 3
        w = rng.uniform(-2, 2, k)
        eps = float(rng.choice([0.0, 0.3, 1.0]))
        cvals = rng.choice([0.5, 1.0, 2.0], size=graph.region_count)
        counting = CountingNumbers.from_values(cvals)
        state = MessageState(graph)
        prev = primal_objective(graph, [sample], [state], w, eps, counting, 0.0)
        for _ in range(6):
            inference_sweep(graph, sample, state, w, eps, counting)
            cur = primal_objective(graph, [sample], [state], w, eps, counting, 0.0)
            assert cur <= prev + 1e-10
            prev = cur


def test_belief_and_primal_shift_invariance():
    rng = np.random.default_rng(8)
    graph, sample = random_model(rng)
    w = rng.normal(size=3)
    state = MessageState(graph)
    inference_sweep(graph, sample, state, w, 1.0, ones(graph))
    beliefs = compute_beliefs(graph, sample, state, w, 1.0, ones(graph))
    primal = primal_objective(graph, [sample], [state], w, 1.0, ones(graph), 0.0)
    shifted = state.copy()
    layout = graph.layout()
    shifted.vec[layout.edge_slices[0]] += 3.7
    beliefs2 = compute_beliefs(graph, sample, shifted, w, 1.0, ones(graph))
    primal2 = primal_objective(graph, [sample], [shifted], w, 1.0, ones(graph), 0.0)
    for b1, b2 in zip(beliefs, beliefs2):
        np.testing.assert_allclose(b1, b2, atol=1e-12)
    assert primal2 == pytest.approx(primal, abs=1e-10)


def test_mu_message_requires_edge():
    graph, sample = pair_model()
    state = MessageState(graph)
    with pytest.raises(ValueError, match="no edge"):
        mu_message(graph, sample, 0, 1, state, np.zeros(0), 1.0, ones(graph))


def test_region_ids_outside_the_graph_are_rejected():
    rng = np.random.default_rng(16)
    graph = chain_graph(4)  # 7 regions
    sample = random_sample(rng, graph, 2)
    w = rng.normal(size=2)
    state = MessageState(graph)
    for region in (-4, -1, 7, 99):
        with pytest.raises(ValueError, match=rf"region {region} is not in the region graph"):
            lambda_update(graph, sample, region, state, w, 1.0)
    for parent, child in ((4, 7), (-1, 0), (99, -4)):
        with pytest.raises(ValueError, match=rf"no edge \({parent}, {child}\)"):
            mu_message(graph, sample, parent, child, state, w, 1.0)
    assert not state.vec.any()
    lambda_update(graph, sample, 0, state, w, 1.0)
    assert state.vec.any()


@pytest.mark.parametrize(
    "values", [[1.0, float("nan")] + [1.0] * 7, [1.0, float("inf")] + [1.0] * 7, [1.0] * 8]
)
def test_raw_counting_arrays_are_checked_as_the_file_scheme(values):
    rng = np.random.default_rng(17)
    graph = loopy_graph(rng, 4, 5)  # 9 regions, with cycles
    sample = random_sample(rng, graph, 2)
    w = rng.normal(size=2)
    state = MessageState(graph)
    with pytest.raises(ModelError, match="counting numbers must"):
        predict(graph, sample, w, 1.0, np.array(values))
    with pytest.raises(ModelError, match="counting numbers must"):
        inference_sweep(graph, sample, state, w, 1.0, values)
    with pytest.raises(ModelError, match="counting numbers must"):
        duality_report(graph, [sample], [state], w, 1.0, values, 0.1)
    assert not state.vec.any()


def test_counting_number_objects_are_checked_as_the_file_scheme():
    rng = np.random.default_rng(18)
    graph = chain_graph(3)  # 5 regions
    sample = random_sample(rng, graph, 2)
    w = rng.normal(size=2)
    state = MessageState(graph)
    nine = CountingNumbers.ones(loopy_graph(rng, 4, 5))
    for counting in (CountingNumbers.from_values([float("nan")] * 5), nine):
        with pytest.raises(ModelError, match="counting numbers must"):
            predict(graph, sample, w, 1.0, counting)
        with pytest.raises(ModelError, match="counting numbers must"):
            inference_sweep(graph, sample, state, w, 1.0, counting)
        with pytest.raises(ModelError, match="counting numbers must"):
            duality_report(graph, [sample], [state], w, 1.0, counting, 0.1)
    assert not state.vec.any()


def test_message_tables_shape_and_canonicalization():
    rng = np.random.default_rng(9)
    graph = chain_graph(3)
    sample = random_sample(rng, graph, 2)
    state = MessageState(graph)
    inference_sweep(graph, sample, state, rng.normal(size=2), 1.0, ones(graph))
    for (p, r) in graph.edges:
        table = state.table(r, p)
        assert table.shape == (graph.regions[r].label_count,)
        assert abs(table.mean()) <= 1e-12  # mean-centered after updates


def reference_segmented(layout, vec, t_regions, coeff):
    """segmented_lse and segmented_gibbs centring every region on both its
    max and its min, then picking one."""
    starts, seg = layout.starts, layout.segment
    mx = np.maximum.reduceat(vec, starts, axis=-1)
    mn = np.minimum.reduceat(vec, starts, axis=-1)
    t_slot = t_regions[seg]
    safe_t = np.where(t_slot != 0, t_slot, 1.0)
    m = np.where(t_regions >= 0, mx, mn)
    e = np.where(t_slot == 0, 0.0, np.exp((vec - m[..., seg]) / safe_t))
    z = np.add.reduceat(e, starts, axis=-1)
    lse = m.copy()
    nz = t_regions != 0
    lse[..., nz] += t_regions[nz] * np.log(z[..., nz])
    use_min = np.where(t_regions == 0, coeff < 0, t_regions < 0)
    m = np.where(use_min, mn, mx)
    m_slot = m[..., seg]
    e = np.exp(np.where(t_slot == 0, 0.0, (vec - m_slot) / safe_t))
    tie = np.where(use_min[seg], vec <= m_slot + ARGMAX_TOL, vec >= m_slot - ARGMAX_TOL)
    e = np.where(t_slot == 0, tie.astype(float), e)
    return lse, e / np.add.reduceat(e, starts, axis=-1)[..., seg]


def check_gibbs_pass(layout, vec, eps, coeff):
    """The region soft-max against centring on both extremes, and bytewise
    against the separate log-sum-exp and Gibbs passes it fuses."""
    terms = SoftMax(sweep_plan(layout).segments, layout.segment, eps, coeff)(vec)
    t = eps * coeff
    lse, gibbs = reference_segmented(layout, vec, t, coeff)
    assert np.array_equal(terms.lse, lse)
    assert np.array_equal(terms.beliefs(layout), gibbs)
    assert terms.lse.tobytes() == segmented_lse(layout, vec, t).tobytes()
    assert terms.beliefs(layout).tobytes() == segmented_gibbs(layout, vec, t, coeff).tobytes()


def test_loopy_graph_rejects_more_pairs_than_exist():
    rng = np.random.default_rng(41)
    assert len(loopy_graph(rng, 3, 3).edges) == 6  # every pair
    for n_vars, n_pairs in ((3, 4), (3, 9), (1, 1)):
        with pytest.raises(ValueError, match="distinct pairs"):
            loopy_graph(rng, n_vars, n_pairs)


def test_segmented_lse_and_gibbs_match_reference_bitwise():
    rng = np.random.default_rng(40)
    graph = loopy_graph(rng, 6, 9)
    layout = graph.layout()
    vec = rng.normal(size=(3, layout.total)) * 4.0
    r = graph.region_count
    for coeff in (np.ones(r), np.zeros(r), rng.uniform(0.1, 2.0, r), rng.normal(size=r)):
        for eps in (0.0, 0.5, 1.0):
            check_gibbs_pass(layout, vec, eps, coeff)

    # a zero temperature adds the tie fix-up, a negative counting number the
    # minimum centring
    positive = rng.uniform(0.1, 2.0, r)
    one_zero = positive.copy()
    one_zero[r // 2] = 0.0
    one_negative = positive.copy()
    one_negative[r // 2] = -0.7
    wide = rng.normal(size=(2, layout.total)) * 300.0  # exps underflow
    cases = [
        (vec, positive, 1.0),
        (vec[0], positive, 1.0),  # one row
        (vec[:0], positive, 1.0),  # no rows
        (wide, positive, 0.25),
        (vec, one_zero, 1.0),  # zero temperature
        (wide, one_zero, 1.0),
        (vec, one_negative, 1.0),  # minimum-centred region
        (vec[1], one_negative, 0.5),
        (wide, -positive, 0.0),  # zero temperature, ties toward the minimum
        (vec, positive, 0.0),  # zero temperature everywhere
        (vec, -positive, 1.0),  # negative temperature everywhere
    ]
    for v, coeff, eps in cases:
        check_gibbs_pass(layout, v, eps, coeff)


def test_unit_temperatures_skip_the_division_bitwise():
    # x / 1.0 is x bit for bit: a soft-max whose every column has t = 1
    # skips the division, and its pass equals the divided one
    rng = np.random.default_rng(42)
    graph = loopy_graph(rng, 6, 9)
    layout = graph.layout()
    segments, r = sweep_plan(layout).segments, graph.region_count
    mixed = np.where(np.arange(r) % 2 == 0, 1.0, rng.uniform(0.1, 2.0, r))
    one_zero = np.ones(r)
    one_zero[r // 2] = 0.0  # a zero-temperature segment divides by 1 as well
    wide = rng.normal(size=(3, layout.total)) * 300.0
    vec = rng.normal(size=(3, layout.total)) * 4.0
    for coeff, eps, skips in (
        (np.ones(r), 1.0, True), (np.full(r, 2.0), 0.5, True), (mixed, 1.0, False),
        (one_zero, 1.0, True), (mixed * one_zero, 1.0, False),
    ):
        plain = SoftMax(segments, layout.segment, eps, coeff)
        assert (plain.t_col is None) == skips
        divided = SoftMax(segments, layout.segment, eps, coeff)
        t = divided.t[layout.segment]
        divided.t_col = np.where(t == 0, 1.0, t)
        for v in (vec, wide, vec[0]):
            a, b = plain(v), divided(v)
            for x, y in zip(a, b):
                assert x.tobytes() == y.tobytes()
