"""Text file formats for models, weights, labels and bitmaps.

All formats are line-based, whitespace-delimited, with '#' comments running
to the end of the line.  Reals are serialized with 17 significant digits so
that parse(write(x)) reproduces x bit for bit, and writers emit a canonical
ordering, making write-parse-write idempotent.  See FORMAT.md for the
byte-level reference.

Model files ("BLENDSP 1") carry sections in fixed order: REGIONS, EDGES,
FEATURES, COUNTS (optional), SAMPLES.  The top-level FEATURES section holds
feature tables shared by every sample; observation-dependent tables go on
FEAT lines inside each sample block.  ``parse_model`` reads the table lines
straight into the samples' columns (``model.TableColumns``): the FEATURES
tables are stored once and referenced by every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FEATURE,
    LOSS,
    SHARED,
    CountingNumbers,
    ModelError,
    Region,
    RegionGraph,
    Sample,
    TableColumns,
    true_label_fault,
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


def _lines(stream):
    """Tokenized non-empty lines with 1-based line numbers, comments
    stripped, one at a time."""
    text = stream if isinstance(stream, str) else stream.read()
    for no, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if toks:
            yield no, toks


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


def _count_line(no: int, toks: list[str], counts: dict) -> None:
    """One COUNTS line, 'region value', into ``counts``: region -> (value, line)."""
    if len(toks) != 2:
        raise ParseError(no, "count line needs: region value")
    r = _int(toks[0], no, "region id")
    if r in counts:
        raise ParseError(no, f"duplicate counting number for region {r}")
    counts[r] = (_float(toks[1], no, "counting number"), no)


def _nonfinite_count(counts: dict) -> tuple[int, str] | None:
    """(line, kind) of the first counting number that is nan or inf."""
    return next(((no, "counting number") for value, no in counts.values()
                 if not np.isfinite(value)), None)


def _count_values(counts: dict, n_regions: int, last_no: int) -> np.ndarray:
    """The counting numbers in region order; every region exactly once."""
    missing = set(range(n_regions)) - set(counts)
    if missing:
        raise ParseError(last_no, f"COUNTS misses regions {sorted(missing)}")
    unknown = set(counts) - set(range(n_regions))
    if unknown:
        raise ParseError(last_no, f"COUNTS references unknown regions {sorted(unknown)}")
    return np.array([counts[r][0] for r in range(n_regions)])


def parse_counts(stream, region_count: int) -> np.ndarray:
    """Counting-number file: the lines of a model's COUNTS section, one
    'region value' line per region, each value finite."""
    counts: dict[int, tuple[float, int]] = {}
    last = 1
    for last, toks in _lines(stream):
        _count_line(last, toks, counts)
    bad = _nonfinite_count(counts)
    if bad is not None:
        raise ParseError(bad[0], f"{bad[1]} values must be finite")
    return _count_values(counts, region_count, last)


TRUTH = 3  # a TRUTH line among the ``_TableLines``; the others are table kinds
_INT64 = np.iinfo(np.int64)


class _TableLines:
    """The table lines of a model file, FEATURES lines and the LOSS, FEAT
    and TRUTH lines of its samples: recorded in one pass (``add``), then
    converted and checked in columns (``convert``, ``nonfinite``) and made
    into the samples (``samples_on``)."""

    def __init__(self):
        self.rows = []  # per line: kind, sample, line number, int and real token counts
        self.int_tokens = []  # feature id and region of each table, labels of each TRUTH line
        self.real_tokens = []  # values of each table
        self.heads = []  # per SAMPLE line: (sample id, line number)

    def add(self, kind: int, no: int, toks: list[str], first: int, reals: int) -> None:
        """A line whose int tokens are toks[first:reals] and real tokens
        toks[reals:], of the latest sample (-1 before the first)."""
        self.rows += (kind, len(self.heads) - 1, no, reals - first, len(toks) - reals)
        self.int_tokens += toks[first:reals]
        self.real_tokens += toks[reals:]

    def convert(self, region_rows: dict, fault: ParseError | None) -> None:
        """Convert the lines to columns.  If a token does not convert, or a
        table names an unknown region, has the wrong width or repeats an
        earlier one, or a later line raised ``fault``, raise the first
        faulty line's fault (``_raise_first_fault``)."""
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 5).T
        self.kind, self.sample, self.line, self.n_int, self.n_real = rows
        self.int_end, self.real_end = np.cumsum(self.n_int), np.cumsum(self.n_real)
        self.table = np.flatnonzero(self.kind != TRUTH)
        kind, sample = self.kind[self.table], self.sample[self.table]
        try:
            self.ints = np.fromiter(map(int, self.int_tokens), np.int64, len(self.int_tokens))
            self.reals = np.fromiter(map(float, self.real_tokens), float, len(self.real_tokens))
        except (ValueError, OverflowError):
            self._raise_first_fault(region_rows, fault)
        self.region = self.ints[self.int_end[self.table] - 1]
        self.feature = np.where(kind == LOSS, -1, self.ints[self.int_end[self.table] - 2])
        # 0 for an unknown region; label counts beyond 64 bits fit no line
        sizes = {r: min(reg.label_count, _INT64.max) for r, reg in region_rows.items()}
        expected = np.array([sizes.get(r, 0) for r in self.region.tolist()], dtype=np.int64)
        # a repeat: of a FEATURES table by (feature, region), and within a
        # sample of a FEAT table by (feature, region) or a LOSS table by region
        group = np.where(kind == LOSS, sample + len(self.heads), sample)
        key = np.stack([group, self.feature, self.region])
        key = key[:, np.lexsort(key[::-1])]
        repeat = (key[:, 1:] == key[:, :-1]).all(axis=0)
        negative = (self.feature < 0) & (kind != LOSS)  # -1 would read the last weight
        if (fault is not None or (expected != self.n_real[self.table]).any() or repeat.any()
                or negative.any()):
            self._raise_first_fault(region_rows, fault)

    def _raise_first_fault(self, region_rows: dict, fault: ParseError | None):
        """The error path of ``convert``: check the lines one by one, as read,
        and raise the first one's fault, else ``fault``.  An int beyond 64
        bits is a fault as a feature id or true label and names an unknown
        region."""
        seen = set()
        ints, reals = iter(self.int_tokens), iter(self.real_tokens)
        for kind, sample, no, n_int, n_real in np.reshape(self.rows, (-1, 5)).tolist():
            toks = [next(ints) for _ in range(n_int)]
            values = [next(reals) for _ in range(n_real)]
            if kind == TRUTH:
                for r, tok in enumerate(toks):
                    if not _INT64.min <= _int(tok, no, "true label") <= _INT64.max:
                        raise ParseError(no, f"sample {self.heads[sample][0]}: true label "
                                         f"{int(tok)} out of range for region {r}")
                continue
            what = "loss" if kind == LOSS else "feature"
            k = -1 if kind == LOSS else _int(toks[0], no, "feature id")
            if not (-1 if kind == LOSS else 0) <= k <= _INT64.max:
                raise ParseError(no, f"feature id {k} out of range")
            r = _int(toks[-1], no, "region id")
            for tok in values:
                _float(tok, no, f"{what} value")
            if r not in region_rows or not _INT64.min <= r <= _INT64.max:
                raise ParseError(no, f"{what} table references unknown region {r}")
            if n_real != region_rows[r].label_count:
                raise ParseError(no, f"{what} table for region {r}: expected "
                                 f"{region_rows[r].label_count} values, got {n_real}")
            key = (kind == LOSS, sample, k, r)
            if key in seen:
                raise ParseError(no, f"duplicate loss table for region {r}" if kind == LOSS
                                 else f"duplicate feature table ({k}, {r})")
            seen.add(key)
        raise fault

    def nonfinite(self) -> tuple[int, str] | None:
        """(line, kind) of the first table holding nan or inf."""
        finite = np.isfinite(self.reals)
        if finite.all():
            return None
        row = np.searchsorted(self.real_end, finite.argmin(), "right")
        return int(self.line[row]), "loss" if self.kind[row] == LOSS else "feature"

    def samples_on(self, graph: RegionGraph) -> tuple[list[Sample], int]:
        """The samples, sorted by id, and the feature count.  Raises the
        fault of the first faulty sample in file order: a repeated id, a
        TRUTH line without one label per region, loss tables without a
        TRUTH line, or true labels that ``true_label_fault`` rejects."""
        n = graph.region_count
        kind, sample, line, ints = self.kind, self.sample, self.line, self.ints
        truth_of = np.full(len(self.heads), -1)
        truth_of[sample[kind == TRUTH]] = np.flatnonzero(kind == TRUTH)
        losses = np.flatnonzero(kind == LOSS)
        has_loss = np.zeros(len(self.heads), dtype=bool)
        has_loss[sample[losses]] = True
        seen: set[int] = set()
        faulty = None
        for i, (sid, no) in enumerate(self.heads):
            t = truth_of[i]
            if sid in seen:
                faulty = i, ParseError(no, f"duplicate sample id {sid}")
            elif t >= 0 and self.n_int[t] != n:
                faulty = i, ParseError(int(line[t]), f"TRUTH needs one label per region ({n})")
            elif t < 0 and has_loss[i]:
                faulty = i, ParseError(no, "sample has loss tables but no TRUTH line")
            if faulty:
                break
            seen.add(sid)
        # the true labels of the samples before the faulty one, checked at once
        with_truth = np.flatnonzero(truth_of[: faulty[0] if faulty else len(self.heads)] >= 0)
        truth_rows = truth_of[with_truth]
        labels = ints[(self.int_end[truth_rows] - n)[:, None] + np.arange(n)]
        labels.flags.writeable = False
        row_of = np.full(len(self.heads), -1)
        row_of[with_truth] = np.arange(with_truth.size)
        losses = losses[row_of[sample[losses]] >= 0]
        found = true_label_fault(graph, [self.heads[i][0] for i in with_truth], labels,
                                 row_of[sample[losses]], ints[self.int_end[losses] - 1],
                                 self.real_end[losses] - self.n_real[losses], self.reals)
        if found is not None:
            raise ParseError(int(line[truth_rows[found[0]]]), found[1])
        if faulty:
            raise faulty[1]

        table = self.table
        columns = TableColumns(kind[table], self.feature, self.region,
                               np.concatenate(([0], self.real_end[table])), self.reals)
        # a sample's own tables follow its SAMPLE line, so they are one run
        heads = np.arange(len(self.heads))
        lo = np.searchsorted(sample[table], heads, "left").tolist()
        hi = np.searchsorted(sample[table], heads, "right").tolist()
        samples = [
            Sample.of_columns(graph, sid, columns, slice(lo[i], hi[i]),
                              labels[row_of[i]] if row_of[i] >= 0 else None)
            for i, (sid, _) in enumerate(self.heads)
        ]
        samples.sort(key=lambda s: s.id)
        return samples, int(columns.feature[columns.kind != LOSS].max(initial=-1)) + 1


def parse_model(stream) -> ParsedModel:
    """Parse and validate a model file; raises ParseError or ModelError.

    REGIONS, EDGES and COUNTS lines are checked as they are read.  The table
    lines (FEATURES, LOSS, FEAT, TRUTH) are recorded in the same pass and
    then converted and checked in columns; the error names the first faulty
    line, with the message that line would raise alone."""
    lines = _lines(stream)
    no, toks = next(lines, (1, None))
    if toks != MODEL_MAGIC.split():
        raise ParseError(no, f"expected header {MODEL_MAGIC!r}")
    region_rows: dict[int, Region] = {}
    edges: set[tuple[int, int]] = set()
    counts: dict[int, tuple[float, int]] = {}
    tables = _TableLines()
    truth_seen = False
    section = None
    section_rank = -1
    fault = None
    try:
        for no, toks in lines:
            head = toks[0]
            if head in _SECTIONS:
                if len(toks) != 1:
                    raise ParseError(no, f"unexpected tokens after section {head}")
                rank = _SECTIONS.index(head)
                if rank <= section_rank:
                    raise ParseError(no, f"section {head} out of order")
                section = head
                section_rank = rank
            elif section is None:
                raise ParseError(no, f"unknown section start {head!r}")
            elif section == "REGIONS":
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
                p, r = _int(toks[0], no, "parent"), _int(toks[1], no, "child")
                if p not in region_rows or r not in region_rows:
                    raise ParseError(no, f"edge ({p}, {r}) references a missing region")
                if (p, r) in edges:
                    raise ParseError(no, f"duplicate edge ({p}, {r})")
                if not set(region_rows[r].variables) < set(region_rows[p].variables):
                    raise ParseError(no, f"edge ({p}, {r}): containment violated")
                edges.add((p, r))
            elif section == "FEATURES":
                if len(toks) < 3:
                    raise ParseError(no, "feature line needs: feature region values...")
                tables.add(SHARED, no, toks, 0, 2)
            elif section == "COUNTS":
                _count_line(no, toks, counts)
            elif head == "SAMPLE":
                if len(toks) != 2:
                    raise ParseError(no, "sample line needs: SAMPLE id")
                tables.heads.append((_int(toks[1], no, "sample id"), no))
                truth_seen = False
            elif not tables.heads:
                raise ParseError(no, "sample data before any SAMPLE line")
            elif head == "LOSS":
                if len(toks) < 3:
                    raise ParseError(no, "loss line needs: LOSS region values...")
                tables.add(LOSS, no, toks, 1, 2)
            elif head == "FEAT":
                if len(toks) < 4:
                    raise ParseError(no, "feat line needs: FEAT feature region values...")
                tables.add(FEATURE, no, toks, 1, 3)
            elif head == "TRUTH":
                if truth_seen:
                    raise ParseError(no, "duplicate TRUTH line")
                truth_seen = True
                tables.add(TRUTH, no, toks, 1, len(toks))
            else:
                raise ParseError(no, f"unknown sample line {head!r}")
    except ParseError as exc:
        fault = exc
    tables.convert(region_rows, fault)
    nonfinite = min(filter(None, (tables.nonfinite(), _nonfinite_count(counts))), default=None)
    if nonfinite is not None:
        raise ParseError(nonfinite[0], f"{nonfinite[1]} values must be finite")
    n_regions = len(region_rows)
    if n_regions == 0:
        raise ParseError(no, "model has no regions")
    if sorted(region_rows) != list(range(n_regions)):
        raise ParseError(no, "region ids must be dense 0-based indices")
    regions = [region_rows[i] for i in range(n_regions)]
    variable_count = max(reg.variables[-1] for reg in regions) + 1
    try:
        graph = RegionGraph(regions, list(edges), variable_count)
    except ModelError as exc:
        raise ParseError(no, str(exc)) from None
    samples, num_features = tables.samples_on(graph)
    counting = None
    if counts:
        values = _count_values(counts, n_regions, no)
        counting = CountingNumbers(values, "model")
    return ParsedModel(graph, samples, counting, num_features)


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
    # tables bitwise identical across all samples (-0.0 is not 0.0) are
    # hoisted to the global section
    shared: dict[tuple[int, int], np.ndarray] = {}
    if parsed.samples:
        first = parsed.samples[0]
        for r, fk in first.features.items():
            for k, t in fk.items():
                if all(
                    r in s.features
                    and k in s.features[r]
                    and s.features[r][k].tobytes() == t.tobytes()
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
    lines = list(_lines(stream))
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
    lines = list(_lines(stream))
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
    rows = [(no, "".join(toks)) for no, toks in _lines(stream)]
    for no, text in rows:
        if not set(text) <= {"0", "1"}:
            raise ParseError(no, "bitmap rows may only contain 0 and 1")
    if not rows:
        raise ParseError(1, "empty bitmap")
    width = len(rows[0][1])
    for no, text in rows:
        if len(text) != width:
            raise ParseError(no, "bitmap rows have differing lengths")
    return np.array([[int(ch) for ch in text] for _, text in rows], dtype=np.int64)
