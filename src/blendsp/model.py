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

    def strides(self) -> np.ndarray:
        """Row-major strides: flat = sum(y[j] * stride[j])."""
        s = np.ones(len(self.cardinalities), dtype=np.int64)
        for j in range(len(self.cardinalities) - 2, -1, -1):
            s[j] = s[j + 1] * self.cardinalities[j + 1]
        return s


class RegionGraph:
    """Regions plus parent->child containment edges.

    Edges are stored sorted by (parent, child) so that the edge order, and
    everything derived from it (message layout, file output), is canonical.
    An edge (p, r) requires vars(r) to be a strict subset of vars(p), and
    every variable must lie in some region: the constructor raises
    ``ModelError`` otherwise.  Since the variable count strictly decreases
    along every edge the graph is automatically a DAG.
    """

    def __init__(self, regions: list[Region], edges: list[tuple[int, int]], variable_count: int):
        if variable_count < 1:
            raise ModelError("variable_count must be positive")
        ids = [r.id for r in regions]
        if ids != list(range(len(regions))):
            raise ModelError("region ids must be dense 0-based indices in order")
        self.regions = list(regions)
        self.variable_count = variable_count
        n_regions = len(regions)
        seen = set()
        for p, r in edges:
            if not (0 <= p < n_regions and 0 <= r < n_regions):
                raise ModelError(f"edge ({p}, {r}) references a missing region")
            if (p, r) in seen:
                raise ModelError(f"duplicate edge ({p}, {r})")
            seen.add((p, r))
        self.edges = sorted(edges)
        self.parents = [[] for _ in range(n_regions)]
        for p, r in self.edges:
            self.parents[r].append(p)
        # global per-variable cardinalities; conflicting duplicates are fatal
        card = {}
        for reg in self.regions:
            for v, c in zip(reg.variables, reg.cardinalities):
                if not (0 <= v < variable_count):
                    raise ModelError(f"region {reg.id}: variable {v} out of range")
                if card.setdefault(v, c) != c:
                    raise ModelError(f"variable {v}: inconsistent cardinality across regions")
        for p, r in self.edges:
            if not set(self.regions[r].variables) < set(self.regions[p].variables):
                raise ModelError(f"edge ({p}, {r}): containment violated")
        missing = sorted(set(range(variable_count)) - card.keys())
        if missing:
            raise ModelError(f"variables not covered by any region: {missing}")
        self.cardinalities = np.array(
            [card[v] for v in range(variable_count)], dtype=np.int64
        )
        self._projections: dict[tuple[int, int], np.ndarray] = {}
        self._layout = None

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def label_counts(self) -> np.ndarray:
        """Each region's label count (read-only)."""
        return self._label_counts

    @functools.cached_property
    def _label_counts(self) -> np.ndarray:
        counts = np.array([r.label_count for r in self.regions], dtype=np.int64)
        counts.flags.writeable = False
        return counts

    def label_digits(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The variable of every (region, variable) pair, regions in order,
        and, per row of flat region labels ``labels`` (rows x regions), the
        label each pair's region gives its variable."""
        region, variable, stride, card = self._label_pairs
        return variable, labels[:, region] // stride % card

    @functools.cached_property
    def _label_pairs(self) -> np.ndarray:
        pairs = []
        for reg in self.regions:
            stride = reg.label_count
            for v, c in zip(reg.variables, reg.cardinalities):
                stride //= c  # row-major: the first variable varies slowest
                pairs += (reg.id, v, stride, c)
        return np.array(pairs, dtype=np.int64).reshape(-1, 4).T

    def projection(self, parent: int, child: int) -> np.ndarray:
        """Map each flat parent label to the flat child label it restricts to."""
        key = (parent, child)
        if key not in self._projections:
            p, r = self.regions[parent], self.regions[child]
            if not (set(r.variables) < set(p.variables)):
                raise ModelError(f"edge ({parent}, {child}): containment violated")
            p_strides = p.strides()
            r_strides = r.strides()
            idx = np.arange(p.label_count, dtype=np.int64)
            proj = np.zeros(p.label_count, dtype=np.int64)
            for j, v in enumerate(r.variables):
                pos = p.variables.index(v)
                digit = (idx // p_strides[pos]) % p.cardinalities[pos]
                proj += digit * r_strides[j]
            self._projections[key] = proj
        return self._projections[key]

    def layout(self) -> "GraphLayout":
        if self._layout is None:
            self._layout = GraphLayout(self)
        return self._layout


class GraphLayout:
    """Flattened index arrays for vectorized table operations.

    All region tables of one sample are concatenated into a single vector of
    length ``total``; region r occupies slots [offsets[r], offsets[r+1]).
    Message tables are concatenated the same way in edge order.
    """

    def __init__(self, graph: RegionGraph):
        sizes = graph.label_counts()
        self.sizes = sizes
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.total = int(self.offsets[-1])
        self.starts = self.offsets[:-1]
        self.segment = np.repeat(np.arange(graph.region_count), sizes)

        edges = graph.edges
        self.edge_child = np.array([r for _, r in edges], dtype=np.int64)
        self.edge_parent = np.array([p for p, _ in edges], dtype=np.int64)
        esizes = sizes[self.edge_child] if edges else np.zeros(0, dtype=np.int64)
        self.edge_offsets = np.concatenate(([0], np.cumsum(esizes)))
        self.message_total = int(self.edge_offsets[-1])

        self.proj = [graph.projection(p, r) for p, r in edges]
        # per-edge grouping of parent labels by projected child label
        self.perm = [np.argsort(pr, kind="stable") for pr in self.proj]

        self.parent_edges = [[] for _ in range(graph.region_count)]
        self.child_edges = [[] for _ in range(graph.region_count)]
        for e, (p, r) in enumerate(edges):
            self.parent_edges[r].append(e)
            self.child_edges[p].append(e)
        self.regions_with_parents = [
            r for r in range(graph.region_count) if self.parent_edges[r]
        ]
        self.region_slices = [
            slice(int(self.offsets[r]), int(self.offsets[r + 1]))
            for r in range(graph.region_count)
        ]
        self.edge_slices = [
            slice(int(self.edge_offsets[e]), int(self.edge_offsets[e + 1]))
            for e in range(len(edges))
        ]
        # absolute gather indices of a child message evaluated at parent labels
        self.lam_in_idx = [self.edge_offsets[e] + self.proj[e] for e in range(len(edges))]
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
        if self._truth is None:
            raise ModelError(f"sample {self.id}: no true labels")
        assign = np.empty(self.graph.variable_count, dtype=np.int64)
        variables, digits = self.graph.label_digits(self._truth[None, :])
        assign[variables] = digits[0]
        return assign

    def compiled(self) -> "ThetaStack":
        """The sample's flat tables: its stack of one, built on first use."""
        if self._stack is None:
            self._stack = ThetaStack([self], self.graph.layout())
        return self._stack


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
        for s in self.samples:
            if s._truth is None:
                raise ModelError(f"sample {s.id}: no true labels")
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
        # over all samples' entries sums in another order (on highorder it
        # trained in 86 iterations instead of 71), and its large temporaries
        # made the heap top be trimmed and re-faulted every train iteration
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

