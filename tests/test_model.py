import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import (
    CountingNumbers,
    ModelError,
    Region,
    RegionGraph,
    Sample,
    duality_report,
    guarantees,
)

from blendsp.learner import TrainerConfig, predict_all, train
from blendsp.model import ThetaStack

from test_deep_graphs import three_level_model
from util import (chain_graph, graph_fault, label_strides, loopy_graph, random_sample,
                  theta_table, tree_graph)


def test_counting_scheme_resolver():
    graph = chain_graph(3)
    assert CountingNumbers.of(graph, "ones").values.tolist() == [1.0] * 5
    assert CountingNumbers.of(graph, "bethe").values.tolist() == [0.0, -1.0, 0.0, 1.0, 1.0]
    values = [0.5, 1.0, 2.0, 1.0, 1.0]
    assert CountingNumbers.of(graph, values).values.tolist() == values
    model = CountingNumbers.of(graph, CountingNumbers(np.array(values), "model"))
    assert model.values.tolist() == values and model.scheme == "model"
    for bad, message in (
        ([1.0] * 4, "cover exactly"),
        ([[1.0] * 5], "cover exactly"),
        ([1.0, 1.0, float("nan"), 1.0, 1.0], "finite"),
        ([1.0, float("inf"), 1.0, 1.0, 1.0], "finite"),
    ):
        with pytest.raises(ModelError, match=message):
            CountingNumbers.of(graph, bad)
        with pytest.raises(ModelError, match=message):
            CountingNumbers.of(graph, CountingNumbers(np.array(bad), "model"))
    for name in ("twos", "file"):
        with pytest.raises(ValueError, match="unknown counting scheme"):
            CountingNumbers.of(graph, name)


def test_every_counting_form_resolves_the_same_way():
    # None, a scheme name, a CountingNumbers and its values are one input to
    # every library call: bitwise-equal results, and one error for bad values
    rng = np.random.default_rng(41)
    graph = loopy_graph(rng, 4, 4)
    samples = [random_sample(rng, graph, 3, i) for i in range(3)]
    w = rng.normal(size=3)
    n = graph.region_count
    bethe = CountingNumbers.bethe(graph)
    calls = (
        lambda c: train(graph, samples, TrainerConfig(counting=c, max_outer_iters=5)),
        lambda c: predict_all(graph, samples, w, 1.0, c, max_sweeps=20),
        lambda c: duality_report(graph, samples, trained.states, trained.w, 1.0, c, 0.5),
        lambda c: guarantees(graph, 1.0, c),
    )

    def results(counting):
        state, preds, report, verdict = (call(counting) for call in calls)
        return (
            state.w.tobytes(), state.report.to_text(),
            [(p.labels.tobytes(), repr(p.residual), p.sweeps, p.capped) for p in preds],
            report.to_text(), verdict,
        )

    trained = train(graph, samples, TrainerConfig(max_outer_iters=5))
    for forms in (
        (None, "ones", CountingNumbers.ones(graph), np.ones(n)),
        ("bethe", bethe, bethe.values.copy()),
    ):
        first = results(forms[0])
        for counting in forms[1:]:
            assert results(counting) == first
    bad = np.ones(n)
    bad[1] = np.nan
    for call in calls:
        with pytest.raises(ModelError) as caught:
            call(bad)
        assert str(caught.value) == "counting numbers must be finite"


def minimal_model():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    sample = Sample(
        graph,
        0,
        loss={0: np.array([0.0, 1.0])},
        features={0: {0: np.array([0.5, -0.5])}},
        true_labels={0: 0},
    )
    return graph, sample


def test_minimal_model_validates_clean():
    graph, _ = minimal_model()
    assert guarantees(graph, 1.0, CountingNumbers.ones(graph)) == (True, True, True)


def test_containment_violation_is_fatal():
    regions = [Region(0, (0,), (2,)), Region(1, (1,), (2,))]
    with pytest.raises(ModelError, match=r"^edge \(0, 1\): containment violated$"):
        RegionGraph(regions, [(0, 1)], 2)


def test_dangling_edge_is_fatal():
    with pytest.raises(ModelError, match="missing region"):
        RegionGraph([Region(0, (0,), (2,))], [(0, 5)], 1)


def test_uncovered_variable_is_fatal():
    with pytest.raises(ModelError, match=r"^variables not covered by any region: \[1\]$"):
        RegionGraph([Region(0, (0,), (2,))], [], 2)


PAIR = RegionGraph([Region(0, (0, 1), (2, 2)), Region(1, (0,), (2,)), Region(2, (1,), (2,))],
                   [(0, 1)], 2)
MALFORMED = {
    "length mismatch": (lambda: Region(0, (0, 1), (2,)),
                        "region 0: variable/cardinality length mismatch"),
    "no variables": (lambda: Region(0, (), ()), "region 0: empty variable set"),
    "unsorted": (lambda: Region(0, (1, 0), (2, 2)), "region 0: variables must be sorted and unique"),
    "repeated": (lambda: Region(0, (0, 0), (2, 2)), "region 0: variables must be sorted and unique"),
    "no variable count": (lambda: RegionGraph([Region(0, (0,), (2,))], [], 0),
                          "variable_count must be positive"),
    "sparse ids": (lambda: RegionGraph([Region(1, (0,), (2,))], [], 1),
                   "region ids must be dense 0-based indices in order"),
    "duplicate edge": (lambda: RegionGraph(PAIR.regions, [(0, 1), (0, 1)], 2),
                       r"duplicate edge \(0, 1\)"),
    "variable out of range": (lambda: RegionGraph([Region(0, (0, 1), (2, 2))], [], 1),
                              "region 0: variable 1 out of range"),
    "projection off an edge": (lambda: PAIR.projection(1, 2), r"edge \(1, 2\): containment violated"),
    "short truth": (lambda: Sample(PAIR, 3, true_labels={0: 0}),
                    "sample 3: true labels must cover all regions when given"),
    "table size": (lambda: Sample(PAIR, 3, features={1: {0: np.zeros(3)}}),
                   r"sample 3: feature table \(0, 1\) has wrong size"),
    "no truth": (lambda: Sample(PAIR, 3).true_assignment(), "sample 3: no true labels"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_regions_graphs_and_samples_are_named(case):
    build, message = MALFORMED[case]
    with pytest.raises(ModelError, match=f"^{message}$"):
        build()


def test_inconsistent_cardinalities_fatal():
    regions = [Region(0, (0, 1), (2, 3)), Region(1, (1,), (2,))]
    with pytest.raises(ModelError, match="cardinality"):
        RegionGraph(regions, [(0, 1)], 2)


def test_bethe_two_parents_warns_about_bound():
    # chain of 3 variables: middle singleton has 2 parents, Bethe c = -1
    graph = chain_graph(3)
    bethe = CountingNumbers.bethe(graph)
    assert bethe.values[1] == -1.0
    assert guarantees(graph, 1.0, bethe) == (False, False, False)


def test_fractional_cover_flag():
    graph = chain_graph(3)
    assert guarantees(graph, 1.0, CountingNumbers.ones(graph)).bound
    weak = CountingNumbers.of(graph, np.full(graph.region_count, 0.1))
    assert guarantees(graph, 1.0, weak) == (True, True, False)
    # each end variable: 0.5 from its singleton and 0.5 from its pair; the
    # middle one: 0.25 + 0.5 + 0.5
    half = np.array([0.5, 0.25, 0.5, 0.5, 0.5])
    assert guarantees(graph, 1.0, half) == (True, True, True)
    half[1] = 0.0  # still covered, but a zero c_r voids the certificate
    assert guarantees(graph, 1.0, half) == (True, False, True)
    assert guarantees(graph, 0.0, CountingNumbers.ones(graph)) == (True, False, True)


def test_nonzero_loss_at_true_label_rejected():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    message = re.escape("sample 0: loss of the true label must be zero (region 0)")
    with pytest.raises(ModelError, match=f"^{message}$"):
        Sample(graph, 0, loss={0: np.array([0.3, 0.0])}, true_labels={0: 0})


def test_non_finite_tables_rejected():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    with pytest.raises(ModelError, match="loss table for region 0 is not finite"):
        Sample(graph, 0, loss={0: np.array([0.0, np.inf])}, true_labels={0: 0})
    with pytest.raises(ModelError, match=r"feature table \(3, 0\) is not finite"):
        Sample(graph, 0, features={0: {3: np.array([np.nan, 1.0])}}, true_labels={0: 0})


def test_tables_and_labels_for_regions_outside_the_graph_rejected():
    # chain_graph(3) has regions 0..4; region 4 is the pair (1, 2), whose
    # slots -1 would have indexed
    graph = chain_graph(3)
    pair = np.array([0.5, 1.0, 1.5, 2.0])
    for region in (-1, 5, 7):
        with pytest.raises(ModelError, match=rf"sample 3: region {region} is not in the region graph"):
            Sample(graph, 3, loss={region: pair})
        with pytest.raises(ModelError, match=rf"sample 3: region {region} is not in the region graph"):
            Sample(graph, 3, features={region: {0: pair}})
        with pytest.raises(ModelError, match=rf"sample 3: region {region} is not in the region graph"):
            Sample(graph, 3, true_labels={0: 0, 1: 0, 2: 0, 3: 0, region: 0})
    sample = Sample(graph, 3, loss={4: pair}, features={4: {0: pair}})
    assert sample.compiled().loss[0, 10:14].tolist() == pair.tolist()


@pytest.mark.parametrize("region, label", [(0, -1), (0, 2), (4, -1), (4, 4)])
def test_true_labels_outside_the_region_rejected(region, label):
    # label -1 would read the region's last slot, label_count the next region's first
    graph = chain_graph(3)
    truth = {r: 0 for r in range(graph.region_count)}
    truth[region] = label
    message = rf"^sample 3: true label {label} out of range for region {region}$"
    with pytest.raises(ModelError, match=message):
        Sample(graph, 3, true_labels=truth)


def test_overlapping_true_labels_must_agree():
    graph = chain_graph(2)
    # singleton truths say (0, 0) but the pairwise truth says (1, 1)
    with pytest.raises(ModelError, match="^sample 0: regions disagree on true label of variable 0$"):
        Sample(graph, 0, features={}, true_labels={0: 0, 1: 0, 2: 3})


def test_projection_row_major_layout():
    graph = chain_graph(2)
    proj = graph.projection(2, 0)  # pairwise (0,1) onto variable 0
    np.testing.assert_array_equal(proj, [0, 0, 1, 1])
    np.testing.assert_array_equal(graph.projection(2, 1), [0, 1, 0, 1])


def test_theta_zero_weights_equals_loss():
    graph, sample = minimal_model()
    np.testing.assert_array_equal(
        theta_table(sample, 0, np.zeros(1), include_loss=True), sample.loss[0]
    )


def test_theta_no_features_no_loss_is_zero():
    graph = RegionGraph([Region(0, (0,), (3,))], [], 1)
    sample = Sample(graph, 0, true_labels={0: 1})
    np.testing.assert_array_equal(
        theta_table(sample, 0, np.zeros(0), include_loss=False), np.zeros(3)
    )


def test_theta_two_feature_hand_computation():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    f0 = np.array([1.0, -1.0])
    f1 = np.array([0.5, 2.0])
    sample = Sample(graph, 0, features={0: {0: f0, 1: f1}}, true_labels={0: 0})
    w = np.array([1.0, 2.0])
    np.testing.assert_allclose(
        theta_table(sample, 0, w, include_loss=False), 1.0 * f0 + 2.0 * f1
    )


def test_theta_linear_in_weights():
    rng = np.random.default_rng(7)
    graph = loopy_graph(rng, 4, 3)
    sample = random_sample(rng, graph, 3)
    for _ in range(10):
        w1, w2 = rng.normal(size=3), rng.normal(size=3)
        a, b = rng.normal(), rng.normal()
        for r in range(graph.region_count):
            combined = theta_table(sample, r, a * w1 + b * w2, include_loss=False)
            split = a * theta_table(sample, r, w1, include_loss=False) + b * theta_table(
                sample, r, w2, include_loss=False
            )
            np.testing.assert_allclose(combined, split, atol=1e-12)


def test_theta_true_label_equals_weighted_empirical_part():
    rng = np.random.default_rng(8)
    graph = loopy_graph(rng, 4, 3)
    sample = random_sample(rng, graph, 3)
    w = rng.normal(size=3)
    total = 0.0
    for r in range(graph.region_count):
        total += theta_table(sample, r, w, include_loss=True)[sample.true_labels[r]]
    assert total == pytest.approx(float(w @ sample.compiled().empirical(3)), abs=1e-10)


def test_empirical_features_match_definition():
    rng = np.random.default_rng(9)
    graph = loopy_graph(rng, 4, 2)
    sample = random_sample(rng, graph, 3)
    expected = np.zeros(3)
    for r, fk in sample.features.items():
        for k, table in fk.items():
            expected[k] += table[sample.true_labels[r]]
    np.testing.assert_allclose(sample.compiled().empirical(3), expected, atol=1e-12)


def test_true_assignment_roundtrip():
    rng = np.random.default_rng(10)
    graph = loopy_graph(rng, 5, 4)
    sample = random_sample(rng, graph, 2)
    assign = sample.true_assignment()
    for reg in graph.regions:
        flat = sum(
            int(assign[v]) * int(s) for v, s in zip(reg.variables, label_strides(reg))
        )
        assert flat == sample.true_labels[reg.id]


def stack_corpus(rng, kind):
    """A tree, loopy or 3-level graph and 1-4 random samples on it.  Some
    samples lack features, loss or truth; the rest hold their feature tables
    in a shuffled region order."""
    if kind == "tree":
        graph = tree_graph(rng, int(rng.integers(2, 6)))
    elif kind == "loopy":
        n = int(rng.integers(2, 6))
        graph = loopy_graph(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
    else:
        graph, _ = three_level_model(rng, [int(c) for c in rng.integers(2, 4, 3)])
    samples = []
    for i in range(int(rng.integers(1, 5))):
        drawn = random_sample(rng, graph, 4, i)
        order = rng.permutation(list(drawn.features)).tolist()
        feats = {r: drawn.features[r] for r in order}
        missing = rng.integers(0, 4)  # 0: none, 1: features, 2: loss, 3: truth
        samples.append(Sample(
            graph, i,
            {} if missing == 2 else drawn.loss,
            {} if missing == 1 else feats,
            None if missing == 3 else drawn.true_labels,
        ))
    return graph, samples


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["tree", "loopy", "three-level"]))
def test_stacked_tables_are_each_samples_stack_of_one(seed, kind):
    rng = np.random.default_rng(seed)
    graph, samples = stack_corpus(rng, kind)
    layout = graph.layout()
    stack = ThetaStack(samples, layout)
    w = rng.normal(size=4)
    assert ThetaStack([], layout).rows(w).shape == (0, layout.total)
    for include_loss in (True, False):
        rows = stack.rows(w, include_loss)
        assert rows.shape == (len(samples), layout.total)
        for row, sample in zip(rows, samples):
            assert np.array_equal(row, sample.compiled().theta_vec(w, include_loss))
            oracle = [theta_table(sample, r, w, include_loss) for r in range(graph.region_count)]
            np.testing.assert_allclose(row, np.concatenate(oracle), rtol=0, atol=1e-12)

    truthful = [s for s in samples if s.true_labels is not None]
    expected = np.zeros(4)
    for sample in truthful:
        for r, fk in sample.features.items():
            for k, table in fk.items():
                expected[k] += table[sample.true_labels[r]]
    empirical = ThetaStack(truthful, layout).empirical(4)
    np.testing.assert_allclose(empirical, expected, rtol=0, atol=1e-12)
    if len(truthful) < len(samples):
        with pytest.raises(ModelError, match="no true labels"):
            stack.empirical(4)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graph_checks_are_the_loops_in_order(seed):
    # singletons and random regions over 1-5 variables, mostly contained
    # edges, and now and then a missing, uncontained or repeated edge, a
    # variable outside the count, a conflicting cardinality, an uncovered
    # variable or a label count beyond 64 bits: the constructor raises the
    # first fault of ``util.graph_fault``'s loops
    rng = np.random.default_rng(seed)
    n_vars = int(rng.integers(1, 6))
    cards = rng.integers(1, 4, n_vars).tolist()
    scopes = [[v] for v in range(n_vars)]
    scopes += [sorted(rng.choice(n_vars, int(rng.integers(1, min(n_vars, 4) + 1)),
                                 replace=False).tolist()) for _ in range(int(rng.integers(0, 5)))]
    regions = []
    for i, scope in enumerate(scopes):
        if rng.random() < 0.03:
            shift = int(rng.choice([-1, 1]))
            scope = [v + shift for v in scope]
        sizes = [cards[v] if 0 <= v < n_vars else 2 for v in scope]
        if rng.random() < 0.03:
            sizes[0] += 1
        if rng.random() < 0.02:
            sizes = [2**40] * len(sizes)
        regions.append(Region(i, tuple(scope), tuple(sizes)))
    n = len(regions)
    contained = [(p, r) for p in range(n) for r in range(n)
                 if set(regions[r].variables) < set(regions[p].variables)]
    edges = [e for e in contained if rng.random() < 0.6]
    for _ in range(int(rng.choice([0] * 6 + [1, 2]))):  # any pair, contained or not
        edges.append(tuple(rng.integers(0, n, 2).tolist()))
    if rng.random() < 0.05:
        edges.append(tuple(rng.integers(-1, n + 1, 2).tolist()))
    if edges and rng.random() < 0.05:
        edges.append(edges[int(rng.integers(len(edges)))])
    edges = [edges[i] for i in rng.permutation(len(edges))]
    variable_count = n_vars + int(rng.choice([0] * 17 + [-1, 1, -n_vars]))
    want = graph_fault(regions, edges, variable_count)
    if want is not None:
        with pytest.raises(ModelError) as caught:
            RegionGraph(regions, edges, variable_count)
        assert str(caught.value) == want
        return
    graph = RegionGraph(regions, edges, variable_count)
    assert graph.edges == sorted(set(edges))
    assert graph.parents == [[p for p, c in sorted(set(edges)) if c == r] for r in range(n)]
    card = {v: c for reg in regions for v, c in zip(reg.variables, reg.cardinalities)}
    assert graph.cardinalities.tolist() == [card[v] for v in range(variable_count)]
    assert graph.label_counts().tolist() == [reg.label_count for reg in regions]
    _, variable, stride, _ = graph._label_pairs
    assert variable.tolist() == [v for reg in regions for v in reg.variables]
    assert stride.tolist() == [int(s) for reg in regions for s in label_strides(reg)]
