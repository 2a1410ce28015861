"""Text file formats for models, weights, labels and bitmaps.

All formats are line-based, whitespace-delimited, with '#' comments running
to the end of the line.  Reals are serialized with 17 significant digits so
that parse(write(x)) reproduces x bit for bit, and writers emit a canonical
ordering, making write-parse-write idempotent.  See FORMAT.md for the
byte-level reference.

Model files ("BLENDSP 1") carry sections in fixed order: REGIONS, EDGES,
FEATURES, COUNTS (optional), SAMPLES.  The top-level FEATURES section holds
feature tables shared by every sample; observation-dependent tables go on
FEAT lines inside each sample block.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .model import (
    CountingNumbers,
    ModelError,
    Region,
    RegionGraph,
    Sample,
    validate_model,
)

__all__ = [
    "ParseError",
    "ParsedModel",
    "parse_model",
    "parse_counts",
    "write_model",
    "parse_weights",
    "write_weights",
    "parse_labels",
    "write_labels",
    "parse_bitmap",
]

MODEL_MAGIC = "BLENDSP 1"
WEIGHTS_MAGIC = "BLENDSP-W 1"
LABELS_MAGIC = "BLENDSP-L 1"

_SECTIONS = ("REGIONS", "EDGES", "FEATURES", "COUNTS", "SAMPLES")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ParsedModel:
    graph: RegionGraph
    samples: list[Sample]
    counting: CountingNumbers | None
    num_features: int


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _lines(stream) -> list[tuple[int, list[str]]]:
    """Tokenized non-empty lines with 1-based line numbers, comments stripped."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    out = []
    for no, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            out.append((no, text.split()))
    return out


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"expected integer {what}, got {tok!r}") from None


def _float(tok: str, no: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(no, f"expected real {what}, got {tok!r}") from None


def _check_finite(tables: list[tuple[int, str, np.ndarray]]) -> None:
    """Raise at the first (line, kind, values) table holding nan or inf; one
    vectorized test over all tables decides whether to look."""
    if tables and not np.isfinite(np.concatenate([vals for _, _, vals in tables])).all():
        for no, kind, vals in tables:
            if not np.isfinite(vals).all():
                raise ParseError(no, f"{kind} values must be finite")


def _count_line(no: int, toks: list[str], counts: dict, tables: list) -> None:
    """One COUNTS line, 'region value', into ``counts``."""
    if len(toks) != 2:
        raise ParseError(no, "count line needs: region value")
    r = _int(toks[0], no, "region id")
    if r in counts:
        raise ParseError(no, f"duplicate counting number for region {r}")
    counts[r] = _float(toks[1], no, "counting number")
    tables.append((no, "counting number", np.array([counts[r]])))


def _count_values(counts: dict, n_regions: int, last_no: int) -> np.ndarray:
    """The counting numbers in region order; every region exactly once."""
    missing = set(range(n_regions)) - set(counts)
    if missing:
        raise ParseError(last_no, f"COUNTS misses regions {sorted(missing)}")
    unknown = set(counts) - set(range(n_regions))
    if unknown:
        raise ParseError(last_no, f"COUNTS references unknown regions {sorted(unknown)}")
    return np.array([counts[r] for r in range(n_regions)])


def parse_counts(stream, region_count: int) -> np.ndarray:
    """Counting-number file: the lines of a model's COUNTS section, one
    'region value' line per region, each value finite."""
    lines = _lines(stream)
    counts: dict[int, float] = {}
    tables: list[tuple[int, str, np.ndarray]] = []
    for no, toks in lines:
        _count_line(no, toks, counts, tables)
    _check_finite(tables)
    return _count_values(counts, region_count, lines[-1][0] if lines else 1)


def parse_model(stream) -> ParsedModel:
    """Parse and validate a model file; raises ParseError or ModelError."""
    lines = _lines(stream)
    if not lines or lines[0][1] != MODEL_MAGIC.split():
        no = lines[0][0] if lines else 1
        raise ParseError(no, f"expected header {MODEL_MAGIC!r}")
    region_rows: dict[int, Region] = {}
    edges: list[tuple[int, int]] = []
    global_feats: list[tuple[int, int, np.ndarray, int]] = []
    counts: dict[int, float] = {}
    sample_rows: list[dict] = []
    tables: list[tuple[int, str, np.ndarray]] = []
    current_sample: dict | None = None
    section = None
    section_rank = -1
    max_feat = -1

    for no, toks in lines[1:]:
        if toks[0] in _SECTIONS:
            if len(toks) != 1:
                raise ParseError(no, f"unexpected tokens after section {toks[0]}")
            rank = _SECTIONS.index(toks[0])
            if rank <= section_rank:
                raise ParseError(no, f"section {toks[0]} out of order")
            section = toks[0]
            section_rank = rank
            continue
        if section is None:
            raise ParseError(no, f"unknown section start {toks[0]!r}")
        if section == "REGIONS":
            if len(toks) < 2:
                raise ParseError(no, "region line needs: id nvars vars... cards...")
            rid = _int(toks[0], no, "region id")
            nv = _int(toks[1], no, "variable count")
            if len(toks) != 2 + 2 * nv:
                raise ParseError(no, f"region {rid}: expected {2 * nv} trailing fields")
            variables = tuple(_int(t, no, "variable") for t in toks[2 : 2 + nv])
            cards = tuple(_int(t, no, "cardinality") for t in toks[2 + nv :])
            if rid in region_rows:
                raise ParseError(no, f"duplicate region id {rid}")
            try:
                region_rows[rid] = Region(rid, variables, cards)
            except ModelError as exc:
                raise ParseError(no, str(exc)) from None
        elif section == "EDGES":
            if len(toks) != 2:
                raise ParseError(no, "edge line needs: parent child")
            edges.append((_int(toks[0], no, "parent"), _int(toks[1], no, "child")))
        elif section == "FEATURES":
            if len(toks) < 3:
                raise ParseError(no, "feature line needs: feature region values...")
            k = _int(toks[0], no, "feature id")
            r = _int(toks[1], no, "region id")
            vals = np.array([_float(t, no, "feature value") for t in toks[2:]])
            global_feats.append((k, r, vals, no))
            tables.append((no, "feature", vals))
            max_feat = max(max_feat, k)
        elif section == "COUNTS":
            _count_line(no, toks, counts, tables)
        elif section == "SAMPLES":
            if toks[0] == "SAMPLE":
                if len(toks) != 2:
                    raise ParseError(no, "sample line needs: SAMPLE id")
                current_sample = {
                    "id": _int(toks[1], no, "sample id"),
                    "loss": {},
                    "feat": [],
                    "truth": None,
                    "line": no,
                }
                sample_rows.append(current_sample)
            elif current_sample is None:
                raise ParseError(no, "sample data before any SAMPLE line")
            elif toks[0] == "LOSS":
                if len(toks) < 3:
                    raise ParseError(no, "loss line needs: LOSS region values...")
                r = _int(toks[1], no, "region id")
                if r in current_sample["loss"]:
                    raise ParseError(no, f"duplicate loss table for region {r}")
                current_sample["loss"][r] = np.array(
                    [_float(t, no, "loss value") for t in toks[2:]]
                )
                tables.append((no, "loss", current_sample["loss"][r]))
            elif toks[0] == "FEAT":
                if len(toks) < 4:
                    raise ParseError(no, "feat line needs: FEAT feature region values...")
                k = _int(toks[1], no, "feature id")
                r = _int(toks[2], no, "region id")
                vals = np.array([_float(t, no, "feature value") for t in toks[3:]])
                current_sample["feat"].append((k, r, vals, no))
                tables.append((no, "feature", vals))
                max_feat = max(max_feat, k)
            elif toks[0] == "TRUTH":
                if current_sample["truth"] is not None:
                    raise ParseError(no, "duplicate TRUTH line")
                current_sample["truth"] = (
                    [_int(t, no, "true label") for t in toks[1:]],
                    no,
                )
            else:
                raise ParseError(no, f"unknown sample line {toks[0]!r}")

    _check_finite(tables)
    n_regions = len(region_rows)
    if n_regions == 0:
        raise ParseError(lines[-1][0], "model has no regions")
    if sorted(region_rows) != list(range(n_regions)):
        raise ParseError(lines[-1][0], "region ids must be dense 0-based indices")
    regions = [region_rows[i] for i in range(n_regions)]
    covered = set()
    for reg in regions:
        covered.update(reg.variables)
    variable_count = (max(covered) + 1) if covered else 0
    try:
        graph = RegionGraph(regions, edges, variable_count)
    except ModelError as exc:
        raise ParseError(lines[-1][0], str(exc)) from None

    def check_table(k, r, vals, no):
        if not (0 <= r < n_regions):
            raise ParseError(no, f"feature table references unknown region {r}")
        if vals.size != regions[r].label_count:
            raise ParseError(
                no,
                f"feature ({k}, {r}): expected {regions[r].label_count} values, "
                f"got {vals.size}",
            )

    for k, r, vals, no in global_feats:
        check_table(k, r, vals, no)

    samples = []
    seen_ids = set()
    for row in sample_rows:
        if row["id"] in seen_ids:
            raise ParseError(row["line"], f"duplicate sample id {row['id']}")
        seen_ids.add(row["id"])
        feats: dict[int, dict[int, np.ndarray]] = {}
        for k, r, vals, no in global_feats:
            feats.setdefault(r, {})[k] = vals.copy()
        for k, r, vals, no in row["feat"]:
            check_table(k, r, vals, no)
            feats.setdefault(r, {})[k] = vals
        for r, vals in row["loss"].items():
            if not (0 <= r < n_regions):
                raise ParseError(row["line"], f"loss table references unknown region {r}")
            if vals.size != regions[r].label_count:
                raise ParseError(
                    row["line"],
                    f"loss table for region {r}: expected {regions[r].label_count} values",
                )
        truth = None
        if row["truth"] is not None:
            labels, no = row["truth"]
            if len(labels) != n_regions:
                raise ParseError(no, f"TRUTH needs one label per region ({n_regions})")
            truth = {r: labels[r] for r in range(n_regions)}
        elif row["loss"]:
            raise ParseError(row["line"], "sample has loss tables but no TRUTH line")
        try:
            samples.append(Sample(graph, row["id"], row["loss"], feats, truth))
        except ModelError as exc:
            raise ParseError(row["line"], str(exc)) from None
    samples.sort(key=lambda s: s.id)

    counting = None
    if counts:
        counting = CountingNumbers.from_values(_count_values(counts, n_regions, lines[-1][0]))

    report = validate_model(graph, samples, counting)
    if not report.ok:
        raise ModelError("; ".join(report.errors))
    return ParsedModel(graph, samples, counting, max_feat + 1)


def write_model(parsed: ParsedModel, stream) -> None:
    """Write a model in canonical order (sorted ids everywhere)."""
    graph = parsed.graph
    out = stream
    out.write(MODEL_MAGIC + "\n")
    out.write("REGIONS\n")
    for reg in graph.regions:
        vars_ = " ".join(str(v) for v in reg.variables)
        cards = " ".join(str(c) for c in reg.cardinalities)
        out.write(f"{reg.id} {len(reg.variables)} {vars_} {cards}\n")
    out.write("EDGES\n")
    for p, r in graph.edges:
        out.write(f"{p} {r}\n")
    # tables identical across all samples are hoisted to the global section
    shared: dict[tuple[int, int], np.ndarray] = {}
    if parsed.samples:
        first = parsed.samples[0]
        for r, fk in first.features.items():
            for k, t in fk.items():
                if all(
                    r in s.features
                    and k in s.features[r]
                    and np.array_equal(s.features[r][k], t)
                    for s in parsed.samples
                ):
                    shared[(k, r)] = t
    out.write("FEATURES\n")
    for (k, r), t in sorted(shared.items()):
        out.write(f"{k} {r} " + " ".join(_fmt(x) for x in t) + "\n")
    if parsed.counting is not None:
        out.write("COUNTS\n")
        for r, c in enumerate(parsed.counting.values):
            out.write(f"{r} {_fmt(c)}\n")
    out.write("SAMPLES\n")
    for s in parsed.samples:
        out.write(f"SAMPLE {s.id}\n")
        for r in sorted(s.features):
            for k in sorted(s.features[r]):
                if (k, r) in shared:
                    continue
                t = s.features[r][k]
                out.write(f"FEAT {k} {r} " + " ".join(_fmt(x) for x in t) + "\n")
        for r in sorted(s.loss):
            out.write(f"LOSS {r} " + " ".join(_fmt(x) for x in s.loss[r]) + "\n")
        if s.true_labels is not None:
            labels = " ".join(str(int(s.true_labels[r])) for r in range(graph.region_count))
            out.write(f"TRUTH {labels}\n")


def parse_weights(stream) -> tuple[np.ndarray, dict[str, str]]:
    """Weights file: 'k value' lines (dense, sorted ids) plus metadata lines."""
    lines = _lines(stream)
    if not lines or lines[0][1] != WEIGHTS_MAGIC.split():
        no = lines[0][0] if lines else 1
        raise ParseError(no, f"expected header {WEIGHTS_MAGIC!r}")
    entries: dict[int, float] = {}
    meta: dict[str, str] = {}
    for no, toks in lines[1:]:
        if "=" in toks[0]:
            key, _, value = " ".join(toks).partition("=")
            meta[key.strip()] = value.strip()
            continue
        if len(toks) != 2:
            raise ParseError(no, "weight line needs: id value")
        k = _int(toks[0], no, "feature id")
        if k in entries:
            raise ParseError(no, f"duplicate weight for feature {k}")
        entries[k] = _float(toks[1], no, "weight")
        if not np.isfinite(entries[k]):
            raise ParseError(no, "weight values must be finite")
    if sorted(entries) != list(range(len(entries))):
        raise ParseError(lines[-1][0], "feature ids must be dense and sorted")
    w = np.array([entries[k] for k in range(len(entries))])
    return w, meta


def write_weights(w: np.ndarray, stream, metadata: dict[str, str] | None = None) -> None:
    stream.write(WEIGHTS_MAGIC + "\n")
    for k, value in enumerate(np.asarray(w, dtype=float)):
        stream.write(f"{k} {_fmt(value)}\n")
    for key, value in (metadata or {}).items():
        stream.write(f"{key}={value}\n")


def parse_labels(stream) -> dict[int, np.ndarray]:
    """Labels file: per line 'sample_id label...'"""
    lines = _lines(stream)
    if not lines or lines[0][1] != LABELS_MAGIC.split():
        no = lines[0][0] if lines else 1
        raise ParseError(no, f"expected header {LABELS_MAGIC!r}")
    out: dict[int, np.ndarray] = {}
    for no, toks in lines[1:]:
        sid = _int(toks[0], no, "sample id")
        if sid in out:
            raise ParseError(no, f"duplicate sample id {sid}")
        out[sid] = np.array([_int(t, no, "label") for t in toks[1:]], dtype=np.int64)
    return out


def write_labels(labels: dict[int, np.ndarray], stream) -> None:
    stream.write(LABELS_MAGIC + "\n")
    for sid in sorted(labels):
        stream.write(f"{sid} " + " ".join(str(int(x)) for x in labels[sid]) + "\n")


def parse_bitmap(stream) -> np.ndarray:
    """Plain text bitmap: rows of 0/1 characters (whitespace ignored)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = []
    for no, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip().replace(" ", "")
        if not text:
            continue
        if not set(text) <= {"0", "1"}:
            raise ParseError(no, "bitmap rows may only contain 0 and 1")
        rows.append((no, [int(ch) for ch in text]))
    if not rows:
        raise ParseError(1, "empty bitmap")
    width = len(rows[0][1])
    for no, row in rows:
        if len(row) != width:
            raise ParseError(no, "bitmap rows have differing lengths")
    return np.array([row for _, row in rows], dtype=np.int64)
