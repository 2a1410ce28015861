import numpy as np
import pytest

from blendsp import (
    CountingNumbers,
    ModelError,
    Region,
    RegionGraph,
    Sample,
    theta_table,
    validate_model,
)

from blendsp.learner import TrainerConfig

from util import chain_graph, loopy_graph, random_sample


def test_counting_scheme_resolver():
    graph = chain_graph(3)
    assert CountingNumbers.from_scheme(graph, "ones").values.tolist() == [1.0] * 5
    assert CountingNumbers.from_scheme(graph, "bethe").values.tolist() == [0.0, -1.0, 0.0, 1.0, 1.0]
    values = [0.5, 1.0, 2.0, 1.0, 1.0]
    assert CountingNumbers.from_scheme(graph, "file", values).values.tolist() == values
    assert TrainerConfig(c_scheme="file", c_values=values).counting(graph).values.tolist() == values
    for bad, message in (
        ([1.0] * 4, "cover exactly"),
        ([[1.0] * 5], "cover exactly"),
        ([1.0, 1.0, float("nan"), 1.0, 1.0], "finite"),
        ([1.0, float("inf"), 1.0, 1.0, 1.0], "finite"),
    ):
        with pytest.raises(ModelError, match=message):
            CountingNumbers.from_scheme(graph, "file", bad)
        with pytest.raises(ModelError, match=message):
            TrainerConfig(c_scheme="file", c_values=bad).counting(graph)
    with pytest.raises(ValueError, match="requires values"):
        CountingNumbers.from_scheme(graph, "file")
    with pytest.raises(ValueError, match="unknown counting scheme"):
        CountingNumbers.from_scheme(graph, "twos")


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
    graph, sample = minimal_model()
    report = validate_model(graph, [sample], CountingNumbers.ones(graph))
    assert report.ok and not report.warnings


def test_containment_violation_is_fatal():
    regions = [Region(0, (0,), (2,)), Region(1, (1,), (2,))]
    graph = RegionGraph(regions, [(0, 1)], 2)
    with pytest.raises(ModelError, match="containment"):
        validate_model(graph, [], None)


def test_dangling_edge_is_fatal():
    with pytest.raises(ModelError, match="missing region"):
        RegionGraph([Region(0, (0,), (2,))], [(0, 5)], 1)


def test_uncovered_variable_is_fatal():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 2)
    with pytest.raises(ModelError, match="not covered"):
        validate_model(graph, [], None)


def test_inconsistent_cardinalities_fatal():
    regions = [Region(0, (0, 1), (2, 3)), Region(1, (1,), (2,))]
    with pytest.raises(ModelError, match="cardinality"):
        RegionGraph(regions, [(0, 1)], 2)


def test_bethe_two_parents_warns_about_bound():
    # chain of 3 variables: middle singleton has 2 parents, Bethe c = -1
    graph = chain_graph(3)
    bethe = CountingNumbers.bethe(graph)
    assert bethe.values[1] == -1.0
    report = validate_model(graph, [], bethe)
    assert report.ok
    assert any("upper bound not guaranteed" in w for w in report.warnings)


def test_fractional_cover_flag():
    graph = chain_graph(3)
    assert CountingNumbers.ones(graph).fractional_cover(graph)
    weak = CountingNumbers.from_values(np.full(graph.region_count, 0.1))
    assert not weak.fractional_cover(graph)
    report = validate_model(graph, [], weak)
    assert any("fractionally cover" in w for w in report.warnings)


def test_nonzero_loss_at_true_label_rejected():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    sample = Sample(graph, 0, loss={0: np.array([0.3, 0.0])}, true_labels={0: 0})
    report = validate_model(graph, [sample], None)
    assert not report.ok
    assert any("true label" in e for e in report.errors)


def test_non_finite_tables_rejected():
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    with pytest.raises(ModelError, match="loss table for region 0 is not finite"):
        Sample(graph, 0, loss={0: np.array([0.0, np.inf])}, true_labels={0: 0})
    with pytest.raises(ModelError, match=r"feature table \(3, 0\) is not finite"):
        Sample(graph, 0, features={0: {3: np.array([np.nan, 1.0])}}, true_labels={0: 0})


def test_overlapping_true_labels_must_agree():
    graph = chain_graph(2)
    # singleton truths say (0, 0) but the pairwise truth says (1, 1)
    sample = Sample(graph, 0, features={}, true_labels={0: 0, 1: 0, 2: 3})
    report = validate_model(graph, [sample], None)
    assert not report.ok


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
    assert total == pytest.approx(float(w @ sample.empirical_features(3)), abs=1e-10)


def test_empirical_features_match_definition():
    rng = np.random.default_rng(9)
    graph = loopy_graph(rng, 4, 2)
    sample = random_sample(rng, graph, 3)
    expected = np.zeros(3)
    for r, fk in sample.features.items():
        for k, table in fk.items():
            expected[k] += table[sample.true_labels[r]]
    np.testing.assert_allclose(sample.empirical_features(3), expected, atol=1e-12)


def test_true_assignment_roundtrip():
    rng = np.random.default_rng(10)
    graph = loopy_graph(rng, 5, 4)
    sample = random_sample(rng, graph, 2)
    assign = sample.true_assignment()
    for reg in graph.regions:
        flat = sum(
            int(assign[v]) * int(s) for v, s in zip(reg.variables, reg.strides())
        )
        assert flat == sample.true_labels[reg.id]
