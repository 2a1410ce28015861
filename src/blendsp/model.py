"""Region graphs, counting numbers, per-sample potential tables.

A model is a directed region graph over discrete variables plus, per training
sample, dense loss and feature tables indexed by region labels (``Sample``).
A region's joint label is a single flat index, laid out row-major over the
region's sorted variable list (first variable varies slowest).

A sample's tables are columns, ``TableColumns``: one entry per table (kind,
feature id, region, span of values) over one array of values, which the
samples of a parsed model file share, and its true labels are one int per
region.  Both are checked once, when they are built (``Sample`` for dict
tables, ``fileio.parse_model`` for a file, through one validator,
``true_label_fault``).  The columns have one flat form for computing,
``ThetaStack``: the tables of a list of samples as (sample, slot) entries
against the graph's ``GraphLayout``, from which theta rows, feature
expectations and empirical features are computed.  A single sample's is its
stack of one (``Sample.compiled``).  All structures are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelError",
    "Region",
    "RegionGraph",
    "CountingNumbers",
    "Sample",
]


class ModelError(ValueError):
    """Fatal structural problem in a region graph or its tables."""


@dataclass(frozen=True)
class Region:
    """A subset of variables with a flat joint-label space."""

    id: int
    variables: tuple[int, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.cardinalities):
            raise ModelError(f"region {self.id}: variable/cardinality length mismatch")
        if len(self.variables) == 0:
            raise ModelError(f"region {self.id}: empty variable set")
        if list(self.variables) != sorted(set(self.variables)):
            raise ModelError(f"region {self.id}: variables must be sorted and unique")
        if any(c < 1 for c in self.cardinalities):
            raise ModelError(f"region {self.id}: cardinalities must be >= 1")

    @property
    def label_count(self) -> int:
        return math.prod(self.cardinalities)


class RegionGraph:
    """Regions plus parent->child containment edges.

    Edges are stored sorted by (parent, child) so that the edge order, and
    everything derived from it (message layout, file output), is canonical.
    An edge (p, r) requires vars(r) to be a strict subset of vars(p), and
    every variable must lie in some region: the constructor raises
    ``ModelError`` otherwise.  Since the variable count strictly decreases
    along every edge the graph is automatically a DAG.

    The regions are held as the columns of their (region, variable) pairs
    (``_label_pairs``), over which the graph is checked once, when it is
    built: from ``Region`` objects (the constructor) or from the columns
    (``of_pairs``, whose ``regions`` are made on first access).
    """

    def __init__(self, regions: list[Region], edges: list[tuple[int, int]], variable_count: int):
        if variable_count < 1:
            raise ModelError("variable_count must be positive")
        if [r.id for r in regions] != list(range(len(regions))):
            raise ModelError("region ids must be dense 0-based indices in order")
        sizes = np.array([len(r.variables) for r in regions], dtype=np.int64)
        pairs = [(v, c) for r in regions for v, c in zip(r.variables, r.cardinalities)]
        variables, cards = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        parent, child = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        self._build(sizes, variables, cards, parent, child, variable_count)
        self.regions = list(regions)

    @classmethod
    def of_pairs(cls, sizes, variables, cardinalities, parent, child,
                 variable_count: int) -> "RegionGraph":
        """The graph whose region r has the ``sizes[r]`` variables and
        cardinalities that follow those of the regions before it in
        ``variables`` and ``cardinalities`` (each region valid as ``Region``
        would have it), with the edges (parent[e], child[e]); checked as the
        constructor checks its arguments."""
        if variable_count < 1:
            raise ModelError("variable_count must be positive")
        graph = cls.__new__(cls)
        graph._build(sizes, variables, cardinalities, parent, child, variable_count)
        return graph

    def _build(self, sizes, variables, cards, parent, child, variable_count):
        """Check the regions' pairs and the edges, and keep their columns."""
        n = sizes.size
        self.variable_count = variable_count
        self._first = first = np.concatenate(([0], np.cumsum(sizes)))
        region = np.repeat(np.arange(n), sizes)
        # the first edge, as given, that names a missing region or repeats one
        missing = (np.minimum(parent, child) < 0) | (np.maximum(parent, child) >= n)
        order = np.lexsort((child, parent))  # stable: a repeat sorts after the first
        repeat = np.zeros(order.size, dtype=bool)
        repeat[order[1:]] = (np.diff(parent[order]) == 0) & (np.diff(child[order]) == 0)
        if (missing | repeat).any():
            e = (missing | repeat).argmax()
            p, r = parent[e], child[e]
            raise ModelError(f"edge ({p}, {r}) references a missing region" if missing[e]
                             else f"duplicate edge ({p}, {r})")
        parent, child = parent[order], child[order]
        self.edges = list(zip(parent.tolist(), child.tolist()))
        # the first pair whose variable is out of range or has another
        # cardinality than the variable's first pair
        unique, at, rank = np.unique(variables, return_index=True, return_inverse=True)
        rank = rank.reshape(-1)
        bad = (variables < 0) | (variables >= variable_count) | (cards != cards[at][rank])
        if bad.any():
            j = bad.argmax()
            v = int(variables[j])
            if 0 <= v < variable_count:
                raise ModelError(f"variable {v}: inconsistent cardinality across regions")
            raise ModelError(f"region {region[j]}: variable {v} out of range")
        # each edge's child variables' places among its parent's, which sort
        # by (region, variable) as the pairs do; an edge is contained if it
        # finds them all and its parent has more
        key = region * unique.size + rank
        kids = _spans(first[child], sizes[child])
        edge = np.repeat(np.arange(child.size), sizes[child])
        want = parent[edge] * unique.size + rank[kids]
        place = np.searchsorted(key, want)
        found = key[np.minimum(place, key.size - 1)] == want
        lost = np.bincount(edge[~found], minlength=child.size) > 0
        lost |= sizes[child] >= sizes[parent]
        if lost.any():
            e = lost.argmax()
            raise ModelError(f"edge ({parent[e]}, {child[e]}): containment violated")
        self._edge_places = place - first[parent[edge]]
        if unique.size < variable_count:
            missing = np.setdiff1d(np.arange(variable_count), unique)
            raise ModelError(f"variables not covered by any region: {missing.tolist()}")
        # label counts: a product of more than 62 bits is checked exactly
        counts = np.multiply.reduceat(cards, first[:-1])
        for r in np.flatnonzero(np.multiply.reduceat(cards.astype(float), first[:-1]) > 2.0**62):
            if math.prod(cards[first[r] : first[r + 1]].tolist()) > np.iinfo(np.int64).max:
                raise ModelError(f"region {r}: label count beyond 64 bits")
        counts.flags.writeable = False
        self._label_counts = counts
        # row-major: a pair's stride is the product of the cardinalities after it
        pos = np.arange(variables.size) - first[region]
        prefix = cards.copy()
        for k in range(1, int(sizes.max(initial=0))):
            at = np.flatnonzero(pos == k)
            prefix[at] *= prefix[at - 1]
        self._label_pairs = np.stack([region, variables, counts[region] // prefix, cards])
        self.cardinalities = np.zeros(variable_count, dtype=np.int64)
        self.cardinalities[variables] = cards
        self._projections: dict[tuple, np.ndarray] = {}  # by edge shape
        self._layout = None

    @functools.cached_property
    def regions(self) -> list[Region]:
        """The regions, in id order."""
        _, variables, _, cards = self._label_pairs.tolist()
        first = self._first.tolist()
        return [Region(r, tuple(variables[lo:hi]), tuple(cards[lo:hi]))
                for r, (lo, hi) in enumerate(zip(first, first[1:]))]

    @functools.cached_property
    def parents(self) -> list[list[int]]:
        """Each region's parents, in edge order."""
        parents = [[] for _ in range(self.region_count)]
        for p, r in self.edges:
            parents[r].append(p)
        return parents

    @property
    def region_count(self) -> int:
        return self._first.size - 1

    def label_counts(self) -> np.ndarray:
        """Each region's label count (read-only)."""
        return self._label_counts

    def label_digits(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The variable of every (region, variable) pair, regions in order,
        and, per row of flat region labels ``labels`` (rows x regions), the
        label each pair's region gives its variable."""
        region, variable, stride, card = self._label_pairs
        return variable, labels[:, region] // stride % card

    def _scope(self, r: int) -> tuple[list[int], list[int]]:
        """Region r's variables and cardinalities."""
        _, variables, _, cards = self._label_pairs[:, self._first[r] : self._first[r + 1]].tolist()
        return variables, cards

    def edge_shape(self, parent: int, child: int) -> tuple:
        """The shape of edge (parent, child), on which alone its projection
        depends: the parent's cardinalities and its child variables' places."""
        variables, cards = self._scope(parent)
        return tuple(cards), tuple(map(variables.index, self._scope(child)[0]))

    def projection(self, parent: int, child: int) -> np.ndarray:
        """Map each flat parent label to the flat child label it restricts to.
        The edges of one shape (``edge_shape``) share one read-only array."""
        if not set(self._scope(child)[0]) < set(self._scope(parent)[0]):
            raise ModelError(f"edge ({parent}, {child}): containment violated")
        shape = cards, at = self.edge_shape(parent, child)
        if shape not in self._projections:
            digits = np.indices(cards).reshape(len(cards), -1)  # of every parent label, row-major
            proj = np.ravel_multi_index(tuple(digits[list(at)]), [cards[j] for j in at])
            proj.flags.writeable = False
            self._projections[shape] = proj
        return self._projections[shape]

    def layout(self) -> "GraphLayout":
        if self._layout is None:
            self._layout = GraphLayout(self)
        return self._layout


class GraphLayout:
    """Flattened index arrays for vectorized table operations.

    All region tables of one sample are concatenated into a single vector of
    length ``total``; region r occupies slots [offsets[r], offsets[r+1]).
    Message tables follow in edge order at ``edge_offsets``.  The CSR arrays
    ``child_first``, ``up`` and ``up_first`` are its one adjacency.
    """

    def __init__(self, graph: RegionGraph):
        self.sizes = sizes = graph.label_counts()
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.total = int(self.offsets[-1])
        self.starts = self.offsets[:-1]
        self.segment = np.repeat(np.arange(graph.region_count), sizes)

        edges = graph.edges
        self.edge_parent, self.edge_child = np.array(edges, dtype=np.int64).reshape(-1, 2).T.copy()
        self.edge_offsets = np.concatenate(([0], np.cumsum(sizes[self.edge_child])))
        self.message_total = int(self.edge_offsets[-1])

        # an edge's projection, and its grouping of parent labels by projected
        # child label (``perm``), are those of its shape (``RegionGraph.edge_shape``)
        # as a row of the parent's cardinalities, then the child variables'
        # places (``RegionGraph._edge_places``), each padded with -1; the
        # shapes are numbered in the order of their first edges
        size = np.diff(graph._first)
        parent_size, child_size = size[self.edge_parent], size[self.edge_child]
        width = int(parent_size.max(initial=0))
        rows = np.full((len(edges), 2 * width), -1, dtype=np.int64)
        edge = np.arange(len(edges))
        rows[edge.repeat(parent_size), _spans(0 * parent_size, parent_size)] = (
            graph._label_pairs[3, _spans(graph._first[self.edge_parent], parent_size)])
        rows[edge.repeat(child_size), width + _spans(0 * child_size, child_size)] = (
            graph._edge_places)
        _, first, shape = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        self.edge_shape = np.argsort(order)[shape.reshape(-1)]
        self.shape_proj = [graph.projection(*edges[e]) for e in first[order].tolist()]
        self.shape_perm = [np.argsort(pr, kind="stable") for pr in self.shape_proj]

        # region r's child edges are child_first[r], ..., child_first[r + 1] - 1
        # (edges sort by parent), its parent edges up[up_first[r] : up_first[r + 1]]
        regions = np.arange(graph.region_count + 1)
        self.child_first = np.searchsorted(self.edge_parent, regions)
        self.up = np.argsort(self.edge_child, kind="stable")
        self.up_first = np.searchsorted(self.edge_child[self.up], regions)
        self.regions_with_parents = np.flatnonzero(np.diff(self.up_first))
        # the region and the variable of each (region, variable) pair: the
        # incidence that a fractional cover by counting numbers is summed over
        self.pair_region, self.pair_variable = graph._label_pairs[:2]

        # the engine's sweep plan, made on first use (inference.sweep_plan)
        self.plan_cache = None


@dataclass(frozen=True)
class CountingNumbers:
    """Per-region entropy weights c_r."""

    values: np.ndarray
    scheme: str = "file"

    @classmethod
    def ones(cls, graph: RegionGraph) -> "CountingNumbers":
        return cls(np.ones(graph.region_count), "ones")

    @classmethod
    def bethe(cls, graph: RegionGraph) -> "CountingNumbers":
        c = np.array([1.0 - len(graph.parents[r]) for r in range(graph.region_count)])
        return cls(c, "bethe")

    @classmethod
    def of(cls, graph: RegionGraph, counting=None) -> "CountingNumbers":
        """The counting numbers of None or ``"ones"``, ``"bethe"``, or one finite
        value per region: an array (scheme ``file``) or a ``CountingNumbers`` (its
        scheme kept).  Bad values raise ``ModelError``, other names ``ValueError``."""
        if counting is None or isinstance(counting, str):
            if counting not in (None, "ones", "bethe"):
                raise ValueError(f"unknown counting scheme {counting!r}")
            return cls.bethe(graph) if counting == "bethe" else cls.ones(graph)
        labelled = isinstance(counting, CountingNumbers)
        values = np.asarray(counting.values if labelled else counting, dtype=float)
        if values.shape != (graph.region_count,):
            raise ModelError("counting numbers must cover exactly the model's regions")
        if not np.isfinite(values).all():
            raise ModelError("counting numbers must be finite")
        return cls(values, counting.scheme if labelled else "file")


SHARED, FEATURE, LOSS = 0, 1, 2  # the kinds of table in ``TableColumns``


class TableColumns:
    """Loss and feature tables as columns, one entry per table in input
    order: its kind, feature id (-1 for a loss table), region, and values
    ``values[offsets[j]:offsets[j + 1]]``.  A ``SHARED`` table is a feature
    table of every sample on the columns (a model file's FEATURES section);
    a sample's own ``FEATURE`` table overrides a shared one of the same
    feature and region.  The shared tables come first.  Read-only."""

    def __init__(self, kind, feature, region, offsets, values):
        self.kind, self.feature, self.region = kind, feature, region
        self.offsets, self.values = offsets, values
        for a in (kind, feature, region, offsets, values):
            a.flags.writeable = False
        self.shared = int(np.count_nonzero(kind == SHARED))


def _spans(first: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The indices first[j], ..., first[j] + width[j] - 1 of every span j,
    concatenated."""
    lead = np.cumsum(width) - width
    return np.repeat(first - lead, width) + np.arange(int(width.sum()))


def _label_range_fault(ids, labels, sizes):
    """The first label of ``labels`` (rows x regions, one row per sample of
    ``ids``) outside its region's label range, as (row, message), or None."""
    outside = (labels < 0) | (labels >= sizes)  # -1 would read the region's last slot
    if not outside.any():
        return None
    i, r = np.argwhere(outside)[0]
    return i, f"sample {ids[i]}: true label {labels[i, r]} out of range for region {r}"


def true_label_fault(graph, ids, labels, loss_row, loss_region, loss_first, values):
    """The first fault of the true labels ``labels`` (rows x regions, one row
    per sample of ``ids``), rows in order, as (row, message), or None.  A
    row's faults, in order: a label outside its region's label range;
    regions that disagree on a variable's label; a loss table (row, region,
    first value in ``values``; in table order) that is not zero at the
    true label."""
    fault = _label_range_fault(ids, labels, graph.label_counts())
    rows = len(labels) if fault is None else fault[0]  # rows in range before it
    variables, digits = graph.label_digits(labels[:rows])
    first = np.unique(variables, return_index=True)[1]
    ref = np.zeros(graph.variable_count, dtype=np.int64)
    ref[variables[first]] = first  # each variable's first pair
    disagree = digits != digits[:, ref[variables]]
    checked = loss_row < rows
    at = loss_first[checked] + labels[loss_row[checked], loss_region[checked]]
    nonzero = np.zeros(loss_row.size, dtype=bool)
    nonzero[checked] = values[at] != 0.0
    bad = disagree.any(axis=1)
    bad[loss_row[nonzero]] = True
    if not bad.any():
        return fault
    i = int(bad.argmax())
    if disagree[i].any():
        v = variables[disagree[i].argmax()]
        return i, f"sample {ids[i]}: regions disagree on true label of variable {v}"
    j = np.flatnonzero(nonzero & (loss_row == i))[0]
    return i, f"sample {ids[i]}: loss of the true label must be zero (region {loss_region[j]})"


def _dict_columns(graph, sample_id, loss, features, true_labels):
    """The columns and true-label row of one sample's dict tables, checked."""
    n = graph.region_count
    if true_labels is not None and len(true_labels) != n:
        raise ModelError(f"sample {sample_id}: true labels must cover all regions when given")
    for r in [*loss, *features, *(true_labels or ())]:
        if not 0 <= r < n:  # -1 would index the last region
            raise ModelError(f"sample {sample_id}: region {r} is not in the region graph")
    sizes = graph.label_counts()
    truth = None
    if true_labels is not None:
        truth = np.array([true_labels[r] for r in range(n)], dtype=np.int64)
        fault = _label_range_fault([sample_id], truth[None, :], sizes)
        if fault is not None:
            raise ModelError(fault[1])
    tables = [(LOSS, -1, r, t) for r, t in loss.items()]
    tables += [(FEATURE, k, r, t) for r, fk in features.items() for k, t in fk.items()]
    kind, feature, region, arrays = zip(*tables) if tables else ((),) * 4
    kind, feature, region = (np.array(c, dtype=np.int64) for c in (kind, feature, region))
    negative = feature[(kind == FEATURE) & (feature < 0)]  # -1 would read the last weight
    if negative.size:
        raise ModelError(f"sample {sample_id}: feature id {negative[0]} out of range")
    arrays = [np.asarray(t, dtype=float) for t in arrays]
    width = np.array([a.size if a.ndim == 1 else -1 for a in arrays], dtype=np.int64)

    def name(j):
        if kind[j] == LOSS:
            return f"sample {sample_id}: loss table for region {region[j]}"
        return f"sample {sample_id}: feature table ({feature[j]}, {region[j]})"

    wrong = width != sizes[region]
    if wrong.any():
        raise ModelError(f"{name(wrong.argmax())} has wrong size")
    values = np.concatenate(arrays) if arrays else np.zeros(0)
    offsets = np.concatenate(([0], np.cumsum(width)))
    finite = np.isfinite(values)
    if not finite.all():
        j = np.searchsorted(offsets, finite.argmin(), "right") - 1
        raise ModelError(f"{name(j)} is not finite")
    if truth is not None:
        losses = np.flatnonzero(kind == LOSS)
        fault = true_label_fault(graph, [sample_id], truth[None, :], np.zeros_like(losses),
                                 region[losses], offsets[losses], values)
        if fault is not None:
            raise ModelError(fault[1])
        truth.flags.writeable = False
    return TableColumns(kind, feature, region, offsets, values), truth


class Sample:
    """Per-sample loss tables, feature tables and true labels.

    A sample holds its tables as columns (``TableColumns``), which the
    samples of one model file share, with the file's FEATURES tables stored
    once, and its true labels as one int per region.  ``loss`` maps region
    id to a table over that region's labels (missing regions mean zero
    loss), ``features`` maps region id to {feature id: table}, and
    ``true_labels`` maps region id to the flat index of the observed label,
    or is None for an inference-only sample: all three are read-only views
    of the columns, built on first access.
    """

    def __init__(
        self,
        graph: RegionGraph,
        sample_id: int,
        loss: dict[int, np.ndarray] | None = None,
        features: dict[int, dict[int, np.ndarray]] | None = None,
        true_labels: dict[int, int] | None = None,
    ):
        columns, truth = _dict_columns(graph, sample_id, loss or {}, features or {}, true_labels)
        self._attach(graph, sample_id, columns, slice(0, columns.kind.size), truth)

    @classmethod
    def of_columns(cls, graph: RegionGraph, sample_id: int, columns: TableColumns,
                   own: slice, truth: np.ndarray | None) -> "Sample":
        """A sample whose own tables are ``columns[own]`` and whose true
        labels (one per region, or None) are ``truth``; the caller has
        checked both as ``Sample()`` would."""
        sample = cls.__new__(cls)
        sample._attach(graph, sample_id, columns, own, truth)
        return sample

    def _attach(self, graph, sample_id, columns, own, truth):
        self.graph, self.id = graph, sample_id
        self._columns, self._own, self._truth = columns, own, truth
        self._stack = None

    def _tables(self) -> np.ndarray:
        """The indices of the sample's tables in its columns: the shared
        ones, then its own."""
        return np.r_[0 : self._columns.shared, self._own]

    def _table_columns(self):
        """Kind, feature id and region of the sample's tables, and their
        values, concatenated."""
        c, tables = self._columns, self._tables()
        first = c.offsets[tables]
        values = c.values[_spans(first, c.offsets[tables + 1] - first)]
        return c.kind[tables], c.feature[tables], c.region[tables], values

    def _views(self, kinds):
        """(feature, region, values) of the sample's tables of ``kinds``."""
        c, tables = self._columns, self._tables()
        tables = tables[np.isin(c.kind[tables], kinds)]
        spans = zip(c.offsets[tables].tolist(), c.offsets[tables + 1].tolist())
        for k, r, (lo, hi) in zip(c.feature[tables].tolist(), c.region[tables].tolist(), spans):
            yield k, r, c.values[lo:hi]

    @functools.cached_property
    def loss(self) -> dict[int, np.ndarray]:
        return {r: t for _, r, t in self._views([LOSS])}

    @functools.cached_property
    def features(self) -> dict[int, dict[int, np.ndarray]]:
        out: dict[int, dict[int, np.ndarray]] = {}
        for k, r, t in self._views([SHARED, FEATURE]):
            out.setdefault(r, {})[k] = t
        return out

    @functools.cached_property
    def true_labels(self) -> dict[int, int] | None:
        return None if self._truth is None else dict(enumerate(self._truth.tolist()))

    def true_assignment(self) -> np.ndarray:
        """Per-variable true labels decoded from the per-region indices."""
        require_true_labels([self])
        assign = np.empty(self.graph.variable_count, dtype=np.int64)
        variables, digits = self.graph.label_digits(self._truth[None, :])
        assign[variables] = digits[0]
        return assign

    def compiled(self) -> "ThetaStack":
        """The sample's flat tables: its stack of one, built on first use."""
        if self._stack is None:
            self._stack = ThetaStack([self], self.graph.layout())
        return self._stack


def require_true_labels(samples) -> None:
    """``ModelError`` naming the first of ``samples`` without true labels."""
    for s in samples:
        if s._truth is None:
            raise ModelError(f"sample {s.id}: no true labels")


class ThetaStack:
    """The loss, feature and truth tables of a list of samples, flat against
    the graph layout: the theta rows of the samples as one affine map of the
    weights.  A single sample's is its stack of one (``Sample.compiled``).

    Feature entries (bin, feature, value), bin = sample * total + slot, run in
    (sample, region, feature) order; every theta row is one bincount over
    them, so each row is bitwise equal to the sample's own stack of one.
    Sums over samples (feature expectations, empirical features) are added
    sample by sample in list order."""

    def __init__(self, samples, layout: GraphLayout):
        self.samples, self.layout = samples, layout
        self.shape = (len(samples), layout.total)
        # every table of the samples, shared ones first per sample, and their values
        parts = [s._table_columns() for s in samples]
        owner = np.repeat(np.arange(len(samples)), [p[0].size for p in parts])
        empty = (np.zeros(0, np.int64),) * 3 + (np.zeros(0),)
        kind, feature, region, values = (np.concatenate(c) for c in zip(empty, *parts))
        width = layout.sizes[region]
        first = np.cumsum(width) - width
        slot = owner * layout.total + layout.offsets[region]
        loss = kind == LOSS
        self.loss = np.zeros(self.shape)
        self.loss.reshape(-1)[_spans(slot[loss], width[loss])] = values.take(
            _spans(first[loss], width[loss]))
        # feature tables in (sample, region, feature) order; of a shared
        # table and an own one of the same key the own one, sorted last, stays
        feats = np.flatnonzero(~loss)
        feats = feats[np.lexsort((kind[feats], feature[feats], slot[feats]))]
        last = np.ones(feats.size, dtype=bool)
        key = slot[feats], feature[feats]
        last[:-1] = (key[0][1:] != key[0][:-1]) | (key[1][1:] != key[1][:-1])
        feats = feats[last]
        self.bins = _spans(slot[feats], width[feats])
        self.vals = values.take(_spans(first[feats], width[feats]))
        self.cols = np.repeat(feature[feats], width[feats])
        self.feature_count = int(feature[feats].max(initial=-1)) + 1  # the weights rows() needs
        # sample i's entries are [bounds[i], bounds[i + 1])
        self.bounds = np.searchsorted(self.bins // layout.total, np.arange(len(samples) + 1))

    @functools.cached_property
    def true_slots(self) -> np.ndarray:
        """(samples, regions): each region's slot at the sample's true label."""
        require_true_labels(self.samples)
        labels = np.array([s._truth for s in self.samples], dtype=np.int64)
        return labels.reshape(len(self.samples), self.layout.sizes.size) + self.layout.starts

    def rows(self, w: np.ndarray, include_loss: bool = True) -> np.ndarray:
        """The theta rows at the weights ``w``: the loss (optional) plus the
        weighted feature tables; too few weights raise ``ModelError``."""
        if len(w) < self.feature_count:
            raise ModelError(f"{len(w)} weights for {self.feature_count} features")
        weights = w.take(self.cols)
        weights *= self.vals
        # bincount without entries returns integers; the loss is added in place
        # to save one (samples, slots) temporary per line-search trial
        out = np.bincount(self.bins, weights, self.loss.size).astype(float, copy=False)
        out = out.reshape(self.shape)
        if include_loss:
            out += self.loss
        return out

    def theta_vec(self, w: np.ndarray, include_loss: bool = True) -> np.ndarray:
        """The theta row of a stack of one."""
        (row,) = self.rows(w, include_loss)
        return row

    @functools.cached_property
    def _true_flat(self) -> np.ndarray:
        """``true_slots`` as indices into the flattened rows."""
        return (self.true_slots + self.layout.total * np.arange(self.shape[0])[:, None]).ravel()

    def true_sums(self, th: np.ndarray) -> np.ndarray:
        """Per row, the sum of ``th`` at the sample's true labels."""
        return th.take(self._true_flat).reshape(self.true_slots.shape).sum(axis=1)

    def expectations(self, bmat: np.ndarray, num_features: int) -> np.ndarray:
        """Belief-weighted feature sums of the belief rows ``bmat``, summed
        over samples."""
        # the loop fixes the order of the sum over samples: each sample's
        # expectations are one bincount, added in list order.  One bincount
        # over all samples' entries sums in another order, which moves the
        # iteration count, and its large temporaries made the heap top be
        # trimmed and re-faulted every train iteration
        out = np.zeros(num_features)
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            b = bmat.take(self.bins[lo:hi])
            out += np.bincount(self.cols[lo:hi], self.vals[lo:hi] * b, num_features)
        return out

    def empirical(self, num_features: int) -> np.ndarray:
        """Feature values at the true labels, summed over samples: the
        expectations at one-hot belief rows."""
        onehot = np.zeros(self.shape)
        onehot.put(self._true_flat, 1.0)
        return self.expectations(onehot, num_features)

