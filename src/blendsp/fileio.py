"""Text file formats for models, weights, labels and bitmaps.

All formats are line-based, whitespace-delimited, with '#' comments running
to the end of the line.  Reals are serialized with 17 significant digits so
that parse(write(x)) reproduces x bit for bit, and writers emit a canonical
ordering, making write-parse-write idempotent.  See FORMAT.md for the
byte-level reference.

Model files ("BLENDSP 1") carry sections in fixed order: REGIONS, EDGES,
FEATURES, COUNTS (optional), SAMPLES.  The top-level FEATURES section holds
feature tables shared by every sample; observation-dependent tables go on
FEAT lines inside each sample block.  ``parse_model`` reads every line into
columns and checks them as arrays: the regions and edges become the
graph's pair columns (``RegionGraph.of_pairs``), and the table lines the
samples' columns (``model.TableColumns``), with the FEATURES tables stored
once and referenced by every sample.
"""

from __future__ import annotations

import itertools
import re
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
    _spans,
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


_INT64 = np.iinfo(np.int64)

# the kinds of model-file line in ``_ModelLines``: the table kinds of
# ``model.TableColumns`` (FEATURES, FEAT and LOSS lines), then the others
TRUTH, REGION, EDGE, COUNT, SAMPLE, SECTION, BAD = range(3, 10)
# a line's kind by its first token: a section's lines, then SAMPLES' keywords
_BY_SECTION = np.array([REGION, EDGE, SHARED, COUNT, BAD, BAD])  # BAD: before any section
_BY_KEYWORD = np.array([BAD] * 5 + [SAMPLE, LOSS, FEATURE, TRUTH, BAD])
_WORDS = {word: i for i, word in enumerate(_SECTIONS + ("SAMPLE", "LOSS", "FEAT", "TRUTH"))}
# per kind: the fewest and most tokens of a line; its int tokens, a + b * (its
# token count) of them after the first ``skip``; its reals, all tokens after
# them.  SAMPLE and COUNT lines are converted on their own (``_ModelLines``).
_FEWEST = np.array([3, 4, 3, 1, 2, 2, 2, 2, 1, 1])
_MOST = np.array([_INT64.max] * 5 + [2, 2, 2, 1, 0])
_SKIP = np.array([0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
_INTS_A = np.array([2, 2, 1, -1, 0, 0, 0, 0, 0, 0])
_INTS_B = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 0])
_HAS_REALS = np.array([True, True, True] + [False] * 7)


def _ints(tokens: list[str]) -> np.ndarray:
    """``int`` of each token, as an array.  A model's ids, regions and labels
    repeat, so each distinct text is converted once."""
    value = dict.fromkeys(tokens)
    value = dict(zip(value, map(int, value)))
    return np.fromiter(map(value.__getitem__, tokens), np.int64, len(tokens))


class _ModelLines:
    """The lines of a model file in columns, and their checks.

    The text is split into lines and tokens once, and each line gets its
    kind from its section and first token.  The int tokens of the REGIONS,
    EDGES, table and TRUTH lines go through one ``int`` conversion (``_ints``)
    and the table values through one ``float`` conversion, in Python's
    syntax, so the accepted inputs are those of ``int`` and ``float``.  A
    real-valued model's values are mostly distinct, so they are converted
    one by one.  The lines are then checked as arrays: token
    counts, section order, the region lines, repeated ids, the graph
    (``RegionGraph.of_pairs``) and the tables.  ``clean`` is False when a
    check fails; the caller then walks the lines one by one
    (``_raise_first_fault``) to name the first faulty line.  If no line is
    at fault, the file's fault comes later: a value that is not finite, or
    ``graph_fault``.
    """

    def __init__(self, text: str):
        self.clean = False
        self.graph = self.graph_fault = None
        if "#" in text:
            text = re.sub("#[^\n]*", "", text)
        raw = text.split("\n")
        counts = np.fromiter(map(len, map(str.split, raw)), np.int64, len(raw))
        del raw
        tokens = text.split()
        self.line = np.flatnonzero(counts) + 1
        self.last = int(self.line[-1]) if self.line.size else 1
        n = counts[self.line - 1]
        first = np.cumsum(n) - n
        if n[:1].tolist() != [2] or tokens[:2] != MODEL_MAGIC.split():
            return
        self.line, n, first = self.line[1:], n[1:], first[1:]  # after the header
        if not self._classify(tokens, n, first):
            return
        try:
            self._convert(tokens, n, first)
        except OverflowError:  # an int beyond 64 bits, which no line holds but as a region id
            self.graph_fault = "region ids must be dense 0-based indices"
            return
        except ValueError:
            return
        del tokens
        if len(self.counts) < np.count_nonzero(self.kind == COUNT):  # a repeated region
            return
        self._check_graph()
        if self.graph is not None:
            self.clean = self._tables_clean()

    def _classify(self, tokens: list[str], n: np.ndarray, first: np.ndarray) -> bool:
        """Give the lines (``n`` tokens from ``first``) their kinds and
        samples; whether their token counts, the order of the sections, the
        SAMPLE lines and the TRUTH lines are as they must be."""
        heads = map(tokens.__getitem__, first.tolist())
        word = np.fromiter(map(_WORDS.get, heads, itertools.repeat(len(_WORDS))), np.int64, n.size)
        # the section of a line: that of the last section line up to it
        section_line = np.flatnonzero(word < len(_SECTIONS))
        rank = word[section_line]
        at = np.searchsorted(section_line, np.arange(n.size), "right") - 1
        section = np.where(at >= 0, rank[at], -1)
        kind = np.where(section == _SECTIONS.index("SAMPLES"), _BY_KEYWORD[word],
                        _BY_SECTION[section])
        kind[section_line] = SECTION
        self.kind, self.sample = kind, np.cumsum(kind == SAMPLE) - 1
        truth = self.sample[kind == TRUTH]
        in_sample = (kind >= FEATURE) & (kind <= TRUTH)
        return not (((n < _FEWEST[kind]) | (n > _MOST[kind])).any()
                    or (rank[1:] <= np.maximum.accumulate(rank)[:-1]).any()
                    or (self.sample[in_sample] < 0).any() or (truth[1:] == truth[:-1]).any())

    def _convert(self, tokens: list[str], n: np.ndarray, first: np.ndarray) -> None:
        """The token columns: the int tokens and the table values; sample ids
        and counting numbers on their own.  Raises what ``int`` and
        ``float`` raise."""
        kind = self.kind
        self.n_int = _INTS_A[kind] + _INTS_B[kind] * n
        self.n_real = np.where(_HAS_REALS[kind], n - _SKIP[kind] - self.n_int, 0)
        self.int_end, self.real_end = np.cumsum(self.n_int), np.cumsum(self.n_real)
        starts = first + _SKIP[kind]

        def at(positions):
            return list(map(tokens.__getitem__, positions.tolist()))

        def spans(first, width):  # the tokens of the spans, without a list
            mask = np.zeros(len(tokens), dtype=bool)
            mask[_spans(first, width)] = True
            return itertools.compress(tokens, mask)

        reals = spans(starts + self.n_int, self.n_real)
        self.reals = np.fromiter(map(float, reals), float, int(self.n_real.sum()))
        sample, counted = first[kind == SAMPLE], first[kind == COUNT]
        self.heads = list(zip(map(int, at(sample + 1)), self.line[kind == SAMPLE].tolist()))
        self.counts = dict(zip(map(int, at(counted)), zip(
            map(float, at(counted + 1)), self.line[kind == COUNT].tolist())))
        self.ints = _ints(list(spans(starts, self.n_int)))

    def _check_graph(self) -> None:
        """Check the region and edge lines, then build the graph: from the
        regions in id order, if their ids are 0, 1, ... (else the fault is
        ``graph_fault``, or the lines')."""
        rows = np.flatnonzero(self.kind == REGION)
        at = self.int_end[rows] - self.n_int[rows]
        rid, nv, n = self.ints[at], self.ints[at + 1], self.n_int[rows]
        if (n % 2 == 1).any() or (nv != (n - 2) // 2).any() or (nv == 0).any():
            return
        order = np.argsort(rid, kind="stable")  # the regions in id order
        rid, at, nv = rid[order], at[order], nv[order]
        variables, cards = self.ints[_spans(at + 2, nv)], self.ints[_spans(at + 2 + nv, nv)]
        region = np.repeat(np.arange(rows.size), nv)
        if ((variables[1:] <= variables[:-1]) & (region[1:] == region[:-1])).any() or (
                cards < 1).any() or (np.diff(rid) == 0).any():
            return
        if rows.size == 0:
            self.graph_fault = "model has no regions"
        elif (rid != np.arange(rows.size)).any():
            self.graph_fault = "region ids must be dense 0-based indices"
        else:
            edges = self.int_end[self.kind == EDGE] - 2
            try:
                self.graph = RegionGraph.of_pairs(nv, variables, cards, self.ints[edges],
                                                  self.ints[edges + 1], int(variables.max()) + 1)
            except ModelError as exc:
                self.graph_fault = str(exc)

    def _tables_clean(self) -> bool:
        """Whether every table names a region of the graph, has its width,
        has a feature id of at least 0 (-1 would read the last weight), and
        repeats no earlier one: of a FEATURES table by (feature, region),
        and within a sample of a FEAT table by (feature, region) or a LOSS
        table by region."""
        self.table = table = np.flatnonzero(self.kind <= LOSS)
        kind, sample = self.kind[table], self.sample[table]
        self.region = self.ints[self.int_end[table] - 1]
        self.feature = np.where(kind == LOSS, -1, self.ints[self.int_end[table] - 2])
        sizes = self.graph.label_counts()
        known = (self.region >= 0) & (self.region < sizes.size)
        if not known.all() or (sizes[self.region] != self.n_real[table]).any() or (
                (self.feature < 0) & (kind != LOSS)).any():
            return False
        group = np.where(kind == LOSS, sample + len(self.heads), sample)
        key = np.stack([group, self.feature, self.region])
        key = key[:, np.lexsort(key[::-1])]
        return not (key[:, 1:] == key[:, :-1]).all(axis=0).any()

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



def _raise_first_fault(text: str) -> None:
    """The error path of ``parse_model``: check the lines one by one, as
    read, and raise the first faulty line's fault; return if no line is at
    fault by itself.  An int beyond 64 bits is at fault as a variable,
    cardinality, feature id or true label, and names an unknown region in
    a table."""
    lines = _lines(text)
    no, toks = next(lines, (1, None))
    if toks != MODEL_MAGIC.split():
        raise ParseError(no, f"expected header {MODEL_MAGIC!r}")
    region_rows: dict[int, Region] = {}
    edges: set[tuple[int, int]] = set()
    counts: dict[int, tuple[float, int]] = {}
    tables: set[tuple] = set()
    section, section_rank, sample, truth_seen = None, -1, None, False

    def table(no: int, kind: int, ints: list[str], values: list[str]) -> None:
        what = "loss" if kind == LOSS else "feature"
        k = -1 if kind == LOSS else _int(ints[0], no, "feature id")
        if not (-1 if kind == LOSS else 0) <= k <= _INT64.max:
            raise ParseError(no, f"feature id {k} out of range")
        r = _int(ints[-1], no, "region id")
        for tok in values:
            _float(tok, no, f"{what} value")
        if r not in region_rows or not _INT64.min <= r <= _INT64.max:
            raise ParseError(no, f"{what} table references unknown region {r}")
        if len(values) != region_rows[r].label_count:
            raise ParseError(no, f"{what} table for region {r}: expected "
                             f"{region_rows[r].label_count} values, got {len(values)}")
        key = (kind == LOSS, sample, k, r)
        if key in tables:
            raise ParseError(no, f"duplicate loss table for region {r}" if kind == LOSS
                             else f"duplicate feature table ({k}, {r})")
        tables.add(key)

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
            for what, value in (("variable", variables[0]), ("variable", variables[-1]),
                                ("cardinality", max(cards))):
                if not _INT64.min <= value <= _INT64.max:
                    raise ParseError(no, f"region {rid}: {what} {value} out of range")
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
            table(no, SHARED, toks[:2], toks[2:])
        elif section == "COUNTS":
            _count_line(no, toks, counts)
        elif head == "SAMPLE":
            if len(toks) != 2:
                raise ParseError(no, "sample line needs: SAMPLE id")
            sample = _int(toks[1], no, "sample id"), no
            truth_seen = False
        elif sample is None:
            raise ParseError(no, "sample data before any SAMPLE line")
        elif head == "LOSS":
            if len(toks) < 3:
                raise ParseError(no, "loss line needs: LOSS region values...")
            table(no, LOSS, toks[1:2], toks[2:])
        elif head == "FEAT":
            if len(toks) < 4:
                raise ParseError(no, "feat line needs: FEAT feature region values...")
            table(no, FEATURE, toks[1:3], toks[3:])
        elif head == "TRUTH":
            if truth_seen:
                raise ParseError(no, "duplicate TRUTH line")
            truth_seen = True
            for r, tok in enumerate(toks[1:]):
                if not _INT64.min <= _int(tok, no, "true label") <= _INT64.max:
                    raise ParseError(no, f"sample {sample[0]}: true label {int(tok)} "
                                     f"out of range for region {r}")
        else:
            raise ParseError(no, f"unknown sample line {head!r}")


def parse_model(stream) -> ParsedModel:
    """Parse and validate a model file; raises ParseError or ModelError.

    The lines are read into columns and checked as arrays
    (``_ModelLines``); only if a check fails are they walked one by one
    (``_raise_first_fault``), so that the error names the first faulty line,
    with the message that line would raise alone.  The faults after the
    lines' own are then checked in FORMAT.md's order."""
    text = stream if isinstance(stream, str) else stream.read()
    lines = _ModelLines(text)
    if not lines.clean:
        _raise_first_fault(text)
    nonfinite = min(filter(None, (lines.nonfinite(), _nonfinite_count(lines.counts))),
                    default=None)
    if nonfinite is not None:
        raise ParseError(nonfinite[0], f"{nonfinite[1]} values must be finite")
    if lines.graph_fault is not None:
        raise ParseError(lines.last, lines.graph_fault)
    samples, num_features = lines.samples_on(lines.graph)
    counting = None
    if lines.counts:
        values = _count_values(lines.counts, lines.graph.region_count, lines.last)
        counting = CountingNumbers(values, "model")
    return ParsedModel(lines.graph, samples, counting, num_features)


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
