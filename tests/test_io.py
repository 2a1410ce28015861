import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import Sample
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
from blendsp.model import ThetaStack

from test_deep_graphs import three_level_model
from util import loopy_graph, random_model, random_sample, region_slice, tree_graph

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
    # the sample rejects the table when it is built; the error names its TRUTH line
    text = MINIMAL.replace("LOSS 0 0 1", "LOSS 0 1 1")
    message = re.escape("line 12: sample 0: loss of the true label must be zero (region 0)")
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_model(text)


def test_disagreeing_true_labels_name_the_truth_line():
    # the pair's label 3 is (1, 1), the singletons say (0, 0)
    text = """\
BLENDSP 1
REGIONS
0 1 0 2
1 1 1 2
2 2 0 1 2 2
EDGES
2 0
2 1
SAMPLES
SAMPLE 0
TRUTH 0 0 3
"""
    message = "^line 11: sample 0: regions disagree on true label of variable 0$"
    with pytest.raises(ParseError, match=message):
        parse_model(text)


def test_uncovered_variable_names_the_last_line():
    # region 0 covers variable 1 only, so variable 0 is covered by none
    text = MINIMAL.replace("REGIONS\n0 1 0 2", "REGIONS\n0 1 1 2")
    message = re.escape("line 12: variables not covered by any region: [0]")
    with pytest.raises(ParseError, match=f"^{message}$"):
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


@pytest.mark.parametrize(
    "loss, message",
    [
        ("LOSS 0 0 1 2", "loss table for region 0: expected 2 values, got 3"),
        ("LOSS 0 0", "loss table for region 0: expected 2 values, got 1"),
        ("LOSS 4 0 1", "loss table references unknown region 4"),
        ("LOSS -1 0 1", "loss table references unknown region -1"),
    ],
)
def test_bad_loss_table_names_its_own_line(loss, message):
    # the SAMPLE line is line 10, the LOSS line 13
    text = MINIMAL.replace("LOSS 0 0 1", "FEAT 1 0 1 2\nFEAT 2 0 3 4\n" + loss)
    with pytest.raises(ParseError, match=f"^line 13: {message}$"):
        parse_model(text)


@pytest.mark.parametrize("label", ["-1", "2", "99999999999999999999"])  # the last beyond 64 bits
def test_true_label_out_of_range_names_the_truth_line(label):
    text = MINIMAL.replace("TRUTH 0", f"TRUTH {label}")
    message = f"^line 12: sample 0: true label {label} out of range for region 0$"
    with pytest.raises(ParseError, match=message):
        parse_model(text)


@pytest.mark.parametrize(
    "old, new, line, table",
    [
        ("0 0 0.5 -0.5", "0 0 0.5 -0.5\n0 0 7 7", 7, "(0, 0)"),  # FEATURES
        ("LOSS 0 0 1", "FEAT 1 0 1 0\nFEAT 1 0 7 7\nLOSS 0 0 1", 12, "(1, 0)"),
    ],
)
def test_duplicate_feature_table_names_its_line(old, new, line, table):
    message = re.escape(f"line {line}: duplicate feature table {table}")
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_model(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("LOSS 0 0 1", "LOSS 0 0 1\nLOSS 0 0 2", 12, "duplicate loss table for region 0"),
        ("TRUTH 0", "TRUTH 0\nTRUTH 0", 13, "duplicate TRUTH line"),
        ("TRUTH 0", "TRUTH 0 0", 12, "TRUTH needs one label per region (1)"),
        ("TRUTH 0", "TRUTH", 12, "TRUTH needs one label per region (1)"),
        ("SAMPLE 0\n", "", 10, "sample data before any SAMPLE line"),
        ("TRUTH 0", "TRUTH 0\nSAMPLE 0\nTRUTH 0", 13, "duplicate sample id 0"),
        ("SAMPLE 0", "SAMPLE 0 1", 10, "sample line needs: SAMPLE id"),
        ("SAMPLE 0", "SAMPLE", 10, "sample line needs: SAMPLE id"),
        ("LOSS 0 0 1", "LOSS 0", 11, "loss line needs: LOSS region values..."),
        ("LOSS 0 0 1", "FEAT 1 0\nLOSS 0 0 1", 11, "feat line needs: FEAT feature region values..."),
        ("0 0 0.5 -0.5", "0 0", 6, "feature line needs: feature region values..."),
        ("TRUTH 0", "TRUTHS 0", 12, "unknown sample line 'TRUTHS'"),
        ("TRUTH 0\n", "", 10, "sample has loss tables but no TRUTH line"),
        ("SAMPLE 0", "SAMPLE s0", 10, "expected integer sample id, got 's0'"),
        ("LOSS 0 0 1", "FEAT x 0 1 2\nLOSS 0 0 1", 11, "expected integer feature id, got 'x'"),
        ("LOSS 0 0 1", "FEAT 1 0.0 1 2\nLOSS 0 0 1", 11, "expected integer region id, got '0.0'"),
        ("LOSS 0 0 1", "LOSS r 0 1", 11, "expected integer region id, got 'r'"),
        ("0 0 0.5 -0.5", "1e0 0 0.5 -0.5", 6, "expected integer feature id, got '1e0'"),
        ("0 0 0.5 -0.5", "0 zero 0.5 -0.5", 6, "expected integer region id, got 'zero'"),
        ("TRUTH 0", "TRUTH 0.", 12, "expected integer true label, got '0.'"),
        ("LOSS 0 0 1", "LOSS 0 0 one", 11, "expected real loss value, got 'one'"),
        ("LOSS 0 0 1", "FEAT 1 0 1 2,\nLOSS 0 0 1", 11, "expected real feature value, got '2,'"),
        ("0 0 0.5 -0.5", "0 0 0.5 --0.5", 6, "expected real feature value, got '--0.5'"),
        # two faults: the first line's is reported, whatever its kind
        ("LOSS 0 0 1\nTRUTH 0", "LOSS 0 0 x\nTRUTHS 0", 11, "expected real loss value, got 'x'"),
        ("LOSS 0 0 1\nTRUTH 0", "LOSS 0 0 1 1\nTRUTH z", 11,
         "loss table for region 0: expected 2 values, got 3"),
        ("LOSS 0 0 1\nTRUTH 0", "LOSS 0 0 1\nLOSS 0 0 z", 12, "expected real loss value, got 'z'"),
        ("0 0 0.5 -0.5", "0 0 0.5 x\n0 0", 6, "expected real feature value, got 'x'"),
        ("0 0 0.5 -0.5", "0 0 0.5 -0.5\n0 0 0.5 -0.5", 7, "duplicate feature table (0, 0)"),
        ("0 1.0", "0 1.0 2", 8, "count line needs: region value"),
        ("0 0 0.5 -0.5\nCOUNTS\n0 1.0", "0 0 0.5 x\nCOUNTS\n0", 6,
         "expected real feature value, got 'x'"),
        # the model sections
        ("EDGES", "EDGES 1", 4, "unexpected tokens after section EDGES"),
        ("REGIONS\n", "", 2, "unknown section start '0'"),
        ("0 1 0 2", "0 1 0 2 2", 3, "region 0: expected 2 trailing fields"),
        ("0 1 0 2", "0 1 0 0", 3, "region 0: cardinalities must be >= 1"),
        ("0 1 0 2", "0 1 0 2\n2 1 1 2", 13, "region ids must be dense 0-based indices"),
        (MINIMAL.split("REGIONS\n")[1], "EDGES\nFEATURES\nSAMPLES\n", 5, "model has no regions"),
    ],
)
def test_sample_section_errors_name_their_line(old, new, line, message):
    text = MINIMAL.replace(old, new)
    assert text != MINIMAL
    with pytest.raises(ParseError, match=f"^{re.escape(f'line {line}: {message}')}$"):
        parse_model(text)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("0 0 0.5 -0.5", "-1 0 0.5 -0.5", 6),  # FEATURES
        ("LOSS 0 0 1", "FEAT -1 0 3 -3\nLOSS 0 0 1", 11),
        # the negative id is named before a later line's fault
        ("LOSS 0 0 1\nTRUTH 0", "FEAT -3 0 3 -3\nLOSS 0 0 1\nTRUTH 5", 11),
    ],
)
def test_negative_feature_id_names_its_line(old, new, line):
    # -1 would read the last weight: rows([2.0]) gave [7, -7] for the FEAT line
    feature = new.split()[1] if new.startswith("FEAT") else new.split()[0]
    message = re.escape(f"line {line}: feature id {feature} out of range")
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_model(MINIMAL.replace(old, new))


def test_dict_built_sample_rejects_negative_feature_ids():
    graph = parse_model(MINIMAL).graph
    table = np.array([3.0, -3.0])
    with pytest.raises(ModelError, match=r"^sample 4: feature id -1 out of range$"):
        Sample(graph, 4, features={0: {0: table, -1: table}}, true_labels={0: 0})
    with pytest.raises(ModelError, match=r"^sample 4: feature id -3 out of range$"):
        Sample(graph, 4, loss={0: np.array([0.0, 1.0])}, features={0: {-3: table}},
               true_labels={0: 0})
    # the loss tables carry no feature id
    Sample(graph, 4, loss={0: np.array([0.0, 1.0])}, features={0: {0: table}},
           true_labels={0: 0})


def test_sample_feature_table_overrides_the_global_one():
    parsed = parse_model(MINIMAL.replace("LOSS 0 0 1", "FEAT 0 0 1 2\nLOSS 0 0 1"))
    np.testing.assert_array_equal(parsed.samples[0].features[0][0], [1.0, 2.0])


EDGED = """\
BLENDSP 1
REGIONS
0 1 0 2
1 1 1 2
2 2 0 1 2 2
EDGES
2 0
2 1
FEATURES
0 2 1 0 0 1
SAMPLES
SAMPLE 0
TRUTH 0 0 0
"""


@pytest.mark.parametrize(
    "edge, message",
    [
        ("2 0", "duplicate edge \\(2, 0\\)"),
        ("0 1", "edge \\(0, 1\\): containment violated"),
        ("0 2", "edge \\(0, 2\\): containment violated"),
        ("2 3", "edge \\(2, 3\\) references a missing region"),
        ("-1 0", "edge \\(-1, 0\\) references a missing region"),
        ("2 0 1", "edge line needs: parent child"),
    ],
)
def test_edge_errors_name_the_edge_line(edge, message):
    assert parse_model(EDGED).graph.edges == [(2, 0), (2, 1)]
    text = EDGED.replace("2 1\n", f"2 1\n{edge}\n")
    with pytest.raises(ParseError, match=f"^line 9: {message}$"):
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


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_weights, "BLENDSP-L 1\n0 1.0\n", 1, "expected header 'BLENDSP-W 1'"),
        (parse_weights, "BLENDSP-W 1\n0 1.0\n1 2.0 3.0\n", 3, "weight line needs: id value"),
        (parse_weights, "BLENDSP-W 1\n0 1.0\n0 2.0\n", 3, "duplicate weight for feature 0"),
        (parse_labels, "BLENDSP-W 1\n0 1 0\n", 1, "expected header 'BLENDSP-L 1'"),
        (parse_labels, "BLENDSP-L 1\n0 1 0\n0 0 1\n", 3, "duplicate sample id 0"),
        (parse_bitmap, "# no rows\n\n", 1, "empty bitmap"),
    ],
)
def test_weight_label_and_bitmap_errors_name_their_line(parse, text, line, message):
    with pytest.raises(ParseError, match=f"^{re.escape(f'line {line}: {message}')}$") as err:
        parse(text)
    assert err.value.line_no == line


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


@pytest.mark.parametrize(
    "text",
    ["0\t1\t1\n1\t0\t1\n", " 0 1\t1 \n\t1  0\t 1\n", "011\r\n101\r\n", "0 1 1 # top\r\n\r\n1\t01\n"],
)
def test_bitmap_rows_ignore_tabs_spaces_and_carriage_returns(text):
    np.testing.assert_array_equal(parse_bitmap(text), [[0, 1, 1], [1, 0, 1]])


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("0\t1\n1\t2\n", 2, "bitmap rows may only contain 0 and 1"),
        ("0 1\r\n1\r\n", 2, "bitmap rows have differing lengths"),
        # a bad character in any row is named before a row of another length
        ("01\n1\n\t1 x\n", 3, "bitmap rows may only contain 0 and 1"),
    ],
)
def test_bitmap_errors_keep_their_line_across_whitespace(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
        parse_bitmap(text)


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


# values whose text form must survive a round trip bit for bit
SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1 / 3, 123456789.12345679,
           -6.02214076e+23]


def roundtrip_corpus(rng, kind):
    """A graph and 1-3 dict-built samples on it, some table entries replaced
    by ``SPECIAL`` values; some samples are inference-only."""
    if kind.startswith("denoise"):
        ds = make_denoise_dataset(DenoiseSpec(
            width=int(rng.integers(1, 4)), height=int(rng.integers(2, 4)),
            num_train=int(rng.integers(1, 4)), num_test=0, flip_prob=0.3,
            seed=int(rng.integers(0, 2**31)), tying=kind.split("-")[1],
        ))
        graph, drawn = ds.graph, ds.train
    else:
        if kind == "random":
            graph, _ = random_model(rng)
        elif kind == "tree":
            graph = tree_graph(rng, int(rng.integers(2, 6)))
        elif kind == "loopy":
            n = int(rng.integers(2, 6))
            graph = loopy_graph(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
        else:
            graph, _ = three_level_model(rng, [int(c) for c in rng.integers(2, 4, 3)])
        drawn = [random_sample(rng, graph, 4, i) for i in range(int(rng.integers(1, 4)))]
    samples = []
    for s in drawn:
        loss = {r: t.copy() for r, t in s.loss.items()}
        feats = {r: {k: t.copy() for k, t in fk.items()} for r, fk in s.features.items()}
        truth = s.true_labels
        tables = [(truth[r], t) for r, t in loss.items()]
        tables += [(None, t) for fk in feats.values() for t in fk.values()]
        for true_label, table in tables:
            if rng.random() < 0.3:
                at = int(rng.integers(table.size))
                table[at] = -0.0 if at == true_label else SPECIAL[rng.integers(len(SPECIAL))]
        if rng.random() < 0.2:
            loss, truth = {}, None
        samples.append(Sample(graph, s.id, loss, feats, truth))
    return graph, samples


def reference_stack(samples, layout):
    """The loss matrix and the (bin, feature, value) entries of ``samples``,
    table by table from their dicts in (sample, region, feature) order."""
    loss = np.zeros((len(samples), layout.total))
    bins, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for i, s in enumerate(samples):
        for r, t in s.loss.items():
            loss[i, region_slice(layout, r)] = t
        for r in sorted(s.features):
            slots = np.arange(layout.offsets[r], layout.offsets[r + 1])
            for k in sorted(s.features[r]):
                bins.append(i * layout.total + slots)
                cols.append(np.full(slots.size, k, dtype=np.int64))
                vals.append(np.asarray(s.features[r][k], dtype=float))
    return loss, np.concatenate(bins), np.concatenate(cols), np.concatenate(vals)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_tables(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(same_bits(a[r], b[r]) for r in a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "tree", "loopy", "three-level", "denoise-full",
                        "denoise-shared"]))
def test_parsed_stacks_are_bitwise_the_dict_built_ones(seed, kind):
    rng = np.random.default_rng(seed)
    graph, samples = roundtrip_corpus(rng, kind)
    k = max(4, ThetaStack(samples, graph.layout()).feature_count)
    text = write_to_text(ParsedModel(graph, samples, None, k))
    parsed = parse_model(text)
    assert write_to_text(parsed) == text
    assert [s.id for s in parsed.samples] == [s.id for s in samples]
    for mine, theirs in zip(parsed.samples, samples):
        assert same_tables(mine.loss, theirs.loss)
        assert sorted(mine.features) == sorted(theirs.features)
        assert all(same_tables(dict(sorted(mine.features[r].items())),
                               dict(sorted(theirs.features[r].items())))
                   for r in mine.features)
        assert mine.true_labels == theirs.true_labels
    loss, bins, cols, vals = reference_stack(samples, graph.layout())
    stacks = [ThetaStack(samples, graph.layout()), ThetaStack(parsed.samples, parsed.graph.layout())]
    w = rng.normal(size=k)
    bmat = rng.uniform(size=loss.shape)
    for stack in stacks:
        assert same_bits(stack.loss, loss)
        assert same_bits(stack.bins, bins) and same_bits(stack.cols, cols)
        assert same_bits(stack.vals, vals)
    for a, b in [stacks]:
        assert same_bits(a.bounds, b.bounds)
        for include_loss in (True, False):
            assert same_bits(a.rows(w, include_loss), b.rows(w, include_loss))
        assert same_bits(a.expectations(bmat, k), b.expectations(bmat, k))
        if all(s.true_labels is not None for s in samples):
            truth = [[s.true_labels[r] for r in range(graph.region_count)] for s in samples]
            truth = np.array(truth, dtype=np.int64).reshape(len(samples), -1)
            assert same_bits(a.true_slots, truth + graph.layout().starts)
            assert same_bits(a.true_slots, b.true_slots)
            assert same_bits(a.empirical(k), b.empirical(k))


# every kind of line, with three regions of 2, 3 and 6 labels
ONE_FAULT = """\
BLENDSP 1
REGIONS
0 1 0 2
1 1 1 3
2 2 0 1 2 3
EDGES
2 0
2 1
FEATURES
0 0 0.5 -0.5
1 2 1 0 0 0 1 0
COUNTS
0 1.0
1 0.5
2 1.0
SAMPLES
SAMPLE 0
FEAT 2 1 0.25 0.5 1
LOSS 0 0 1
TRUTH 0 1 1
SAMPLE 1
FEAT 2 0 1 2
LOSS 1 1 0 1
TRUTH 1 1 4
"""
ONE_FAULT_LINES = ONE_FAULT.splitlines()
SECTIONS = ("REGIONS", "EDGES", "FEATURES", "COUNTS", "SAMPLES")


def one_fault_kinds() -> dict[int, str]:
    """Each data line's index and kind: its section, or in SAMPLES its
    keyword."""
    kinds, section = {}, None
    for i, line in enumerate(ONE_FAULT_LINES[1:], start=1):
        head = line.split()[0]
        if head in SECTIONS:
            section = head
        else:
            kinds[i] = head if section == "SAMPLES" else section
    return kinds


# the place of a region token on the lines that name one at their own line
REGION_TOKENS = {"EDGES": [0, 1], "FEATURES": [1], "FEAT": [2], "LOSS": [1]}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_fault_is_named_at_its_line(data):
    # a non-numeric token, a missing or extra token, a nan value, or a table
    # region or edge endpoint that is no region, on one line of a valid model
    assert parse_model(ONE_FAULT).graph.region_count == 3
    kinds = one_fault_kinds()
    fault = data.draw(st.sampled_from(["not a number", "missing", "extra", "nan", "unknown"]))
    if fault == "nan":
        lines = [i for i, k in kinds.items() if k in ("FEATURES", "COUNTS", "FEAT", "LOSS")]
    elif fault == "unknown":
        lines = [i for i, k in kinds.items() if k in REGION_TOKENS]
    else:
        lines = sorted(kinds)
    line = data.draw(st.sampled_from(lines))
    toks = ONE_FAULT_LINES[line].split()
    if fault == "not a number":
        toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(st.sampled_from(["x", "0x1"]))
    elif fault == "missing":
        del toks[data.draw(st.integers(0, len(toks) - 1))]
    elif fault == "extra":
        toks.insert(data.draw(st.integers(1, len(toks))), "0")
    elif fault == "nan":
        toks[-1] = "nan"
    else:
        at = data.draw(st.sampled_from(REGION_TOKENS[kinds[line]]))
        toks[at] = data.draw(st.sampled_from(["3", "-1", "99999999999999999999"]))
    lines = ONE_FAULT_LINES.copy()
    lines[line] = " ".join(toks)
    with pytest.raises(ParseError) as caught:
        parse_model("\n".join(lines) + "\n")
    assert caught.value.line_no == line + 1, str(caught.value)
