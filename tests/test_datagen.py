import hashlib
import io

import numpy as np
import pytest

from blendsp import CountingNumbers, guarantees
from blendsp.datagen import (
    DenoiseSpec,
    build_grid_graph,
    cross_pattern,
    make_denoise_dataset,
    pixel_error,
)
from blendsp.fileio import ParsedModel, write_model


def test_grid_one_by_one():
    graph = build_grid_graph(1, 1)
    assert graph.region_count == 1
    assert graph.edges == []
    with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
        build_grid_graph(0, 3)


def test_grid_two_by_two_counts():
    graph = build_grid_graph(2, 2)
    singles = sum(1 for r in graph.regions if len(r.variables) == 1)
    pairs = sum(1 for r in graph.regions if len(r.variables) == 2)
    assert (singles, pairs) == (4, 4)
    assert len(graph.edges) == 8


def test_grid_ten_by_ten_counts():
    graph = build_grid_graph(10, 10)
    singles = sum(1 for r in graph.regions if len(r.variables) == 1)
    pairs = sum(1 for r in graph.regions if len(r.variables) == 2)
    assert (singles, pairs) == (100, 180)


def test_grid_validates_and_bethe_values():
    graph = build_grid_graph(4, 3)  # a structural fault would raise here
    assert guarantees(graph, 1.0, CountingNumbers.ones(graph)) == (True, True, True)
    bethe = CountingNumbers.bethe(graph)
    assert not guarantees(graph, 1.0, bethe).descent
    n = 12
    for r in range(graph.region_count):
        reg = graph.regions[r]
        if len(reg.variables) == 2:
            assert bethe.values[r] == 1.0
        else:
            incident = sum(
                1
                for other in graph.regions
                if len(other.variables) == 2 and reg.variables[0] in other.variables
            )
            assert bethe.values[r] == 1.0 - incident


def test_dataset_counts_and_validation():
    spec = DenoiseSpec(
        width=5, height=4, num_train=3, num_test=2, flip_prob=0.25, seed=1, tying="shared"
    )
    ds = make_denoise_dataset(spec)
    assert len(ds.train) == 3 and len(ds.test) == 2
    assert ds.num_features == 4
    assert guarantees(ds.graph, 1.0, CountingNumbers.ones(ds.graph)) == (True, True, True)


def test_full_tying_one_feature_per_region():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=1, num_test=0, flip_prob=0.2, seed=2, tying="full")
    )
    assert ds.num_features == ds.graph.region_count
    for r in range(ds.graph.region_count):
        assert list(ds.train[0].features[r]) == [r]


def test_exactly_one_noise_model():
    with pytest.raises(ValueError, match="exactly one noise model"):
        DenoiseSpec(width=2, height=2, num_train=1, num_test=1, flip_prob=0.2, gaussian_sigma=0.3)
    with pytest.raises(ValueError, match="exactly one noise model"):
        DenoiseSpec(width=2, height=2, num_train=1, num_test=1)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"width": 0}, "grid dimensions must be positive"),
        ({"num_test": -1}, "sample counts must be nonnegative"),
        ({"tying": "half"}, "tying must be 'shared' or 'full'"),
        ({"flip_prob": 1.5}, r"flip_prob must be in \[0, 1\]"),
        ({"flip_prob": None, "gaussian_sigma": 0.0}, "gaussian_sigma must be positive"),
        ({"base_image": np.zeros((3, 2))}, "base image does not match the grid dimensions"),
        ({"base_image": np.full((2, 3), 2)}, "base image must be binary"),
        ({"flip_prob": None, "gaussian_sigma": float("nan")}, "gaussian_sigma must be finite"),
        ({"flip_prob": None, "gaussian_sigma": float("inf")}, "gaussian_sigma must be finite"),
    ],
)
def test_bad_spec_or_base_image_is_named(change, message):
    fields = dict(width=3, height=2, num_train=1, num_test=1, flip_prob=0.2) | change
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_denoise_dataset(DenoiseSpec(**fields))


def test_noiseless_observations_equal_base():
    base = cross_pattern(4, 4)
    ds = make_denoise_dataset(
        DenoiseSpec(
            width=4, height=4, num_train=2, num_test=1, flip_prob=0.0, seed=3, base_image=base
        )
    )
    v = 2.0 * base.ravel() - 1.0
    for s in ds.train + ds.test:
        for i in range(16):
            np.testing.assert_allclose(s.features[i][0], [v[i], 0.0])
    # every sample's truth is the base image
    for s in ds.train:
        np.testing.assert_array_equal(s.true_assignment(), base.ravel())


def corpus_digest(spec: DenoiseSpec) -> str:
    ds = make_denoise_dataset(spec)
    buf = io.StringIO()
    write_model(ParsedModel(ds.graph, ds.train + ds.test, None, ds.num_features), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_generation_is_deterministic_in_seed():
    spec = DenoiseSpec(width=4, height=4, num_train=3, num_test=2, flip_prob=0.2, seed=42)
    assert corpus_digest(spec) == corpus_digest(spec)


def test_generation_injective_over_seeds():
    digests = {
        corpus_digest(
            DenoiseSpec(width=4, height=4, num_train=2, num_test=1, flip_prob=0.2, seed=seed)
        )
        for seed in range(100)
    }
    assert len(digests) == 100


def test_gaussian_and_bimodal_modes_produce_real_observations():
    # the last base image leaves the bimodal draw one class empty
    uniform = np.zeros((3, 3), dtype=int)
    for kwargs in ({"gaussian_sigma": 0.3}, {"bimodal": True},
                   {"bimodal": True, "base_image": uniform}):
        ds = make_denoise_dataset(
            DenoiseSpec(width=3, height=3, num_train=2, num_test=0, seed=4, **kwargs)
        )
        sample = ds.train[0]
        values = np.array([sample.features[i][0][0] for i in range(9)])
        assert np.isfinite(values).all()
        assert not np.isin(values, (-1.0, 1.0)).all()


def test_pixel_error_cases():
    a = np.zeros(100, dtype=int)
    b = np.ones(100, dtype=int)
    assert pixel_error([a], [a]) == (0, 0.0)
    assert pixel_error([], []) == (0, 0.0)
    count, pct = pixel_error([a], [b])
    assert count == 100 and pct == 100.0
    # one flipped pixel across ten 10x10 test images
    preds = [a.copy() for _ in range(10)]
    preds[3][17] = 1
    count, pct = pixel_error(preds, [a] * 10)
    assert count == 1
    assert pct == pytest.approx(0.1)


def test_pixel_error_dimension_mismatch():
    with pytest.raises(ValueError):
        pixel_error([np.zeros(4)], [np.zeros(5)])
    with pytest.raises(ValueError):
        pixel_error([np.zeros(4)], [])
