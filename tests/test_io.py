import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp.datagen import DenoiseSpec, make_denoise_dataset
from blendsp.fileio import (
    ModelError,
    ParseError,
    ParsedModel,
    parse_bitmap,
    parse_counts,
    parse_labels,
    parse_model,
    parse_weights,
    write_labels,
    write_model,
    write_weights,
)

MINIMAL = """\
BLENDSP 1
REGIONS
0 1 0 2
EDGES
FEATURES
0 0 0.5 -0.5
COUNTS
0 1.0
SAMPLES
SAMPLE 0
LOSS 0 0 1
TRUTH 0
"""


def write_to_text(parsed: ParsedModel) -> str:
    buf = io.StringIO()
    write_model(parsed, buf)
    return buf.getvalue()


def test_parse_minimal_model():
    parsed = parse_model(MINIMAL)
    assert parsed.graph.region_count == 1
    assert parsed.num_features == 1
    assert len(parsed.samples) == 1
    assert parsed.counting is not None and parsed.counting.values[0] == 1.0
    np.testing.assert_array_equal(parsed.samples[0].loss[0], [0.0, 1.0])


def test_duplicate_region_id_names_line():
    text = MINIMAL.replace("0 1 0 2", "0 1 0 2\n0 1 0 2")
    with pytest.raises(ParseError, match="line 4: duplicate region id 0"):
        parse_model(text)


def test_unknown_section_rejected_with_line():
    text = MINIMAL.replace("EDGES", "NONSENSE")
    with pytest.raises(ParseError, match="line 4"):
        parse_model(text)


def test_sections_out_of_order_rejected():
    text = "BLENDSP 1\nEDGES\nREGIONS\n0 1 0 2\n"
    with pytest.raises(ParseError, match="out of order"):
        parse_model(text)


def test_wrong_header_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_model("BOGUS 7\n")


def test_loss_without_truth_rejected():
    text = MINIMAL.replace("TRUTH 0\n", "")
    with pytest.raises(ParseError, match="TRUTH"):
        parse_model(text)


def test_semantic_error_delegated_to_validation():
    text = MINIMAL.replace("LOSS 0 0 1", "LOSS 0 1 1")
    with pytest.raises(ModelError, match="true label"):
        parse_model(text)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("0 0 0.5 -0.5", "0 0 0.5 nan", 6),  # FEATURES
        ("COUNTS\n0 1.0", "COUNTS\n0 inf", 8),
        ("LOSS 0 0 1", "LOSS 0 0 inf", 11),
        ("LOSS 0 0 1", "LOSS 0 0 1\nFEAT 1 0 -inf 2", 12),
        ("LOSS 0 0 1", "LOSS 0 nan 1", 11),  # nan at the true label
    ],
)
def test_non_finite_table_names_its_line(old, new, line):
    text = MINIMAL.replace(old, new)
    with pytest.raises(ParseError, match=f"line {line}: .* must be finite"):
        parse_model(text)


def test_counting_file_is_the_counts_grammar():
    text = "# counting numbers\n1 0.5\n\n0 2  # region 0\n2 -1e-3\n"
    np.testing.assert_array_equal(parse_counts(text, 3), [2.0, 0.5, -1e-3])
    for bad, message in (
        ("0 1\n1 1\n2 1\n3 1\n", "line 4: COUNTS references unknown regions \\[3\\]"),
        ("0 1\n2 1\n", "line 2: COUNTS misses regions \\[1\\]"),
        ("", "line 1: COUNTS misses regions"),
        ("0 1\n1 1 1\n2 1\n", "line 2: count line needs: region value"),
        ("0 1\n1 1\n2 1.5e\n", "line 3: expected real counting number"),
        ("0 1\n1 -inf\n2 1\n", "line 2: counting number values must be finite"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_counts(bad, 3)


def test_model_roundtrip_structural_equality():
    parsed = parse_model(MINIMAL)
    text = write_to_text(parsed)
    again = parse_model(text)
    assert again.num_features == parsed.num_features
    assert again.graph.edges == parsed.graph.edges
    assert [r.variables for r in again.graph.regions] == [
        r.variables for r in parsed.graph.regions
    ]
    np.testing.assert_array_equal(again.samples[0].loss[0], parsed.samples[0].loss[0])
    np.testing.assert_array_equal(
        again.samples[0].features[0][0], parsed.samples[0].features[0][0]
    )
    # canonicalization is idempotent: write(parse(write(parse(f)))) == write(parse(f))
    assert write_to_text(again) == text


def test_denoise_corpus_roundtrip_bitwise():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=2, num_test=1, flip_prob=0.3, seed=4)
    )
    parsed = ParsedModel(ds.graph, ds.train, None, ds.num_features)
    text = write_to_text(parsed)
    again = parse_model(text)
    for s0, s1 in zip(parsed.samples, again.samples):
        for r in s0.features:
            for k in s0.features[r]:
                np.testing.assert_array_equal(s0.features[r][k], s1.features[r][k])
    assert write_to_text(again) == text


def test_shared_feature_tables_are_hoisted():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=3, num_test=0, flip_prob=0.4, seed=1)
    )
    assert any(
        not np.array_equal(ds.train[0].features[0][0], s.features[0][0])
        for s in ds.train[1:]
    )
    text = write_to_text(ParsedModel(ds.graph, ds.train, None, ds.num_features))
    lines = text.splitlines()
    feat_at = lines.index("FEATURES")
    samples_at = lines.index("SAMPLES")
    # the Ising pairwise tables are sample-independent, unaries are not
    assert any(line.startswith("2 ") for line in lines[feat_at:samples_at])
    assert any(line.startswith("FEAT 0 ") for line in lines[samples_at:])


def test_weights_roundtrip_bitwise_third():
    w = np.array([0.0, -1.5, 1.0 / 3.0])
    buf = io.StringIO()
    write_weights(w, buf, {"eps": "1.0", "C": "0.5", "scheme": "ones"})
    text = buf.getvalue()
    assert "0 0\n" in text and "1 -1.5\n" in text
    w2, meta = parse_weights(text)
    assert w2[2] == w[2]  # bitwise equal reload of 1/3
    np.testing.assert_array_equal(w, w2)
    assert meta == {"eps": "1.0", "C": "0.5", "scheme": "ones"}


def test_weights_require_dense_sorted_ids():
    with pytest.raises(ParseError, match="dense"):
        parse_weights("BLENDSP-W 1\n0 1.0\n2 2.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_weight_names_its_line(value):
    with pytest.raises(ParseError, match="line 3: weight values must be finite"):
        parse_weights(f"BLENDSP-W 1\n0 1.0\n1 {value}\n2 2.0\n")


def test_labels_roundtrip():
    labels = {0: np.array([1, 0, 1]), 2: np.array([0, 0, 0])}
    buf = io.StringIO()
    write_labels(labels, buf)
    out = parse_labels(buf.getvalue())
    assert set(out) == {0, 2}
    np.testing.assert_array_equal(out[0], labels[0])


def test_bitmap_parse():
    img = parse_bitmap("101\n010\n")
    np.testing.assert_array_equal(img, [[1, 0, 1], [0, 1, 0]])
    with pytest.raises(ParseError, match="differing"):
        parse_bitmap("10\n1\n")
    with pytest.raises(ParseError, match="0 and 1"):
        parse_bitmap("102\n")


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=300))
def test_parser_never_panics_on_text(text):
    try:
        parse_model(text)
    except (ParseError, ModelError):
        pass


@settings(max_examples=120, deadline=None)
@given(st.binary(max_size=300))
def test_parser_never_panics_on_bytes(data):
    try:
        parse_model(data.decode("utf-8", errors="replace"))
    except (ParseError, ModelError):
        pass
