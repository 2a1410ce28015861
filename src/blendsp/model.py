"""Region graphs, counting numbers, per-sample potential tables.

A model is a directed region graph over discrete variables plus, per training
sample, dense loss and feature tables indexed by region labels (``Sample``).
A region's joint label is a single flat index, laid out row-major over the
region's sorted variable list (first variable varies slowest).

The tables have one flat form, ``ThetaStack``: the tables of a list of
samples as (sample, slot) entries against the graph's ``GraphLayout``, from
which theta rows, feature expectations and empirical features are computed.
A single sample's is its stack of one (``Sample.compiled``).  All structures
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelError",
    "Region",
    "RegionGraph",
    "CountingNumbers",
    "Sample",
    "ValidationReport",
    "validate_model",
    "theta_table",
    "feature_count",
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

    def unflatten(self, flat: int) -> tuple[int, ...]:
        out = []
        for c in reversed(self.cardinalities):
            out.append(flat % c)
            flat //= c
        return tuple(reversed(out))


class RegionGraph:
    """Regions plus parent->child containment edges.

    Edges are stored sorted by (parent, child) so that the edge order, and
    everything derived from it (message layout, file output), is canonical.
    An edge (p, r) requires vars(r) to be a strict subset of vars(p); since
    the variable count strictly decreases along every edge the graph is
    automatically a DAG.
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
        self.children = [[] for _ in range(n_regions)]
        for p, r in self.edges:
            self.parents[r].append(p)
            self.children[p].append(r)
        # global per-variable cardinalities; conflicting duplicates are fatal
        card = {}
        for reg in self.regions:
            for v, c in zip(reg.variables, reg.cardinalities):
                if not (0 <= v < variable_count):
                    raise ModelError(f"region {reg.id}: variable {v} out of range")
                if card.setdefault(v, c) != c:
                    raise ModelError(f"variable {v}: inconsistent cardinality across regions")
        self.cardinalities = np.array(
            [card.get(v, 0) for v in range(variable_count)], dtype=np.int64
        )
        self._projections: dict[tuple[int, int], np.ndarray] = {}
        self._layout = None

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def label_counts(self) -> np.ndarray:
        return np.array([r.label_count for r in self.regions], dtype=np.int64)

    def check_structure(self) -> None:
        """Raise ModelError on containment or coverage violations."""
        for p, r in self.edges:
            pv, rv = set(self.regions[p].variables), set(self.regions[r].variables)
            if not (rv < pv):
                raise ModelError(f"edge ({p}, {r}): containment violated")
        covered = set()
        for reg in self.regions:
            covered.update(reg.variables)
        missing = set(range(self.variable_count)) - covered
        if missing:
            raise ModelError(f"variables not covered by any region: {sorted(missing)}")

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
    def from_values(cls, values, scheme: str = "file") -> "CountingNumbers":
        return cls(np.asarray(values, dtype=float), scheme)

    @classmethod
    def from_scheme(cls, graph: RegionGraph, scheme: str, values=None) -> "CountingNumbers":
        """The counting numbers of ``ones``, ``bethe`` or ``file`` (then
        ``values``: one finite number per region)."""
        if scheme == "ones":
            return cls.ones(graph)
        if scheme == "bethe":
            return cls.bethe(graph)
        if scheme != "file":
            raise ValueError(f"unknown counting scheme {scheme!r}")
        if values is None:
            raise ValueError("counting scheme 'file' requires values")
        values = np.asarray(values, dtype=float)
        if values.shape != (graph.region_count,):
            raise ModelError("counting numbers must cover exactly the model's regions")
        if not np.isfinite(values).all():
            raise ModelError("counting numbers must be finite")
        return cls(values, "file")

    def fractional_cover(self, graph: RegionGraph) -> bool:
        """True iff every variable i has sum of c_r over regions containing i >= 1."""
        total = np.zeros(graph.variable_count)
        for reg in graph.regions:
            for v in reg.variables:
                total[v] += self.values[reg.id]
        return bool((total >= 1.0 - 1e-12).all())


class Sample:
    """Per-sample loss tables, feature tables and true labels.

    ``loss`` maps region id to a table over that region's labels (missing
    regions mean zero loss).  ``features`` maps region id to {feature id:
    table}.  ``true_labels`` maps region id to the flat index of the observed
    label; it may be omitted for inference-only samples.
    """

    def __init__(
        self,
        graph: RegionGraph,
        sample_id: int,
        loss: dict[int, np.ndarray] | None = None,
        features: dict[int, dict[int, np.ndarray]] | None = None,
        true_labels: dict[int, int] | None = None,
    ):
        self.graph = graph
        self.id = sample_id
        self.loss = {r: np.asarray(t, dtype=float) for r, t in (loss or {}).items()}
        self.features = {
            r: {k: np.asarray(t, dtype=float) for k, t in fk.items()}
            for r, fk in (features or {}).items()
        }
        self.true_labels = dict(true_labels) if true_labels is not None else None
        if self.true_labels is not None and len(self.true_labels) != graph.region_count:
            raise ModelError(
                f"sample {sample_id}: true labels must cover all regions when given"
            )
        sizes = graph.label_counts()
        for r in [*self.loss, *self.features, *(self.true_labels or ())]:
            if not 0 <= r < len(sizes):  # -1 would index the last region
                raise ModelError(f"sample {sample_id}: region {r} is not in the region graph")
        for r, y in (self.true_labels or {}).items():
            if not 0 <= y < sizes[r]:  # -1 would read the region's last slot
                raise ModelError(
                    f"sample {sample_id}: true label {y} out of range for region {r}"
                )
        for r, t in self.loss.items():
            if t.shape != (sizes[r],):
                raise ModelError(f"sample {sample_id}: loss table for region {r} has wrong size")
        for r, fk in self.features.items():
            for k, t in fk.items():
                if t.shape != (sizes[r],):
                    raise ModelError(
                        f"sample {sample_id}: feature table ({k}, {r}) has wrong size"
                    )
        tables = list(self.loss.values())
        tables += [t for fk in self.features.values() for t in fk.values()]
        if tables and not np.isfinite(np.concatenate(tables)).all():
            for r, t in self.loss.items():
                if not np.isfinite(t).all():
                    raise ModelError(f"sample {sample_id}: loss table for region {r} is not finite")
            for r, fk in self.features.items():
                for k, t in fk.items():
                    if not np.isfinite(t).all():
                        raise ModelError(
                            f"sample {sample_id}: feature table ({k}, {r}) is not finite"
                        )
        if self.true_labels is not None:
            self.true_assignment()  # regions that share a variable agree on it
            for r, t in self.loss.items():
                if t[self.true_labels[r]] != 0.0:
                    raise ModelError(
                        f"sample {sample_id}: loss of the true label must be zero (region {r})"
                    )
        self._stack = None

    @property
    def max_feature_id(self) -> int:
        m = -1
        for fk in self.features.values():
            if fk:
                m = max(m, max(fk))
        return m

    def true_assignment(self) -> np.ndarray:
        """Per-variable true labels reconstructed from the per-region indices."""
        if self.true_labels is None:
            raise ModelError(f"sample {self.id}: no true labels")
        assign = np.full(self.graph.variable_count, -1, dtype=np.int64)
        for r, flat in self.true_labels.items():
            reg = self.graph.regions[r]
            for v, y in zip(reg.variables, reg.unflatten(int(flat))):
                if assign[v] >= 0 and assign[v] != y:
                    raise ModelError(
                        f"sample {self.id}: regions disagree on true label of variable {v}"
                    )
                assign[v] = y
        return assign

    def compiled(self) -> "ThetaStack":
        """The sample's flat tables: its stack of one, built on first use."""
        if self._stack is None:
            self._stack = ThetaStack([self], self.graph.layout())
        return self._stack


def _runs(layout: GraphLayout, tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bins, values and widths of ``tables``, (sample, region, values)
    triples: one run of sample * total + slot bins per table, in table order."""
    owners, regions, values = zip(*tables) if tables else ((), (), ())
    regions = np.array(regions, dtype=np.int64)
    widths = layout.sizes[regions]
    first = np.cumsum(widths) - widths  # each table's first entry
    starts = np.array(owners, dtype=np.int64) * layout.total + layout.offsets[regions]
    bins = np.repeat(starts - first, widths) + np.arange(int(widths.sum()))
    return bins, np.concatenate(values) if values else np.zeros(0), widths


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
        loss = [(i, r, t) for i, s in enumerate(samples) for r, t in s.loss.items()]
        slots, values, _ = _runs(layout, loss)
        self.loss = np.zeros(self.shape)
        self.loss.reshape(-1)[slots] = values
        feats = [(i, r, k, t) for i, s in enumerate(samples)
                 for r, fk in sorted(s.features.items()) for k, t in sorted(fk.items())]
        self.bins, self.vals, widths = _runs(layout, [(i, r, t) for i, r, _, t in feats])
        self.cols = np.repeat(np.array([k for _, _, k, _ in feats], dtype=np.int64), widths)
        # sample i's entries are [bounds[i], bounds[i + 1])
        self.bounds = np.searchsorted(self.bins // layout.total, np.arange(len(samples) + 1))

    @functools.cached_property
    def true_slots(self) -> np.ndarray:
        """(samples, regions): each region's slot at the sample's true label."""
        region_count = self.layout.sizes.size
        labels = np.zeros((len(self.samples), region_count), dtype=np.int64)
        for i, s in enumerate(self.samples):
            if s.true_labels is None:
                raise ModelError(f"sample {s.id}: no true labels")
            labels[i] = [s.true_labels[r] for r in range(region_count)]
        return labels + self.layout.starts

    def rows(self, w: np.ndarray, include_loss: bool = True) -> np.ndarray:
        """The theta rows at the weights ``w``: the loss (optional) plus the
        weighted feature tables."""
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

    def true_sums(self, th: np.ndarray) -> np.ndarray:
        """Per row, the sum of ``th`` at the sample's true labels."""
        return np.take_along_axis(th, self.true_slots, axis=1).sum(axis=1)

    def losses(self, th: np.ndarray, lse: np.ndarray) -> list[float]:
        """Per sample, the soft-max loss: region log-partitions ``lse`` of the
        potentials ``th`` minus ``th`` at the true labels."""
        return (lse.sum(axis=1) - self.true_sums(th)).tolist()

    def expectations(self, bmat: np.ndarray, num_features: int) -> np.ndarray:
        """Belief-weighted feature sums of the belief rows ``bmat``, summed
        over samples."""
        # per-sample temporaries: one bincount over all samples' entries was
        # bitwise equal, but its large temporaries made the heap top be
        # trimmed and re-faulted every train iteration (15x the minor faults)
        out = np.zeros(num_features)
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            b = bmat.take(self.bins[lo:hi])
            out += np.bincount(self.cols[lo:hi], self.vals[lo:hi] * b, num_features)
        return out

    def empirical(self, num_features: int) -> np.ndarray:
        """Feature values at the true labels, summed over samples: the
        expectations at one-hot belief rows."""
        onehot = np.zeros(self.shape)
        np.put_along_axis(onehot, self.true_slots, 1.0, axis=1)
        return self.expectations(onehot, num_features)


def feature_count(samples) -> int:
    """Weight-vector length implied by a collection of samples."""
    m = -1
    for s in samples:
        m = max(m, s.max_feature_id)
    return m + 1


def theta_table(
    sample: Sample, region_id: int, w: np.ndarray, include_loss: bool = True
) -> np.ndarray:
    """Potential table of one region: loss (optional) plus weighted features."""
    size = sample.graph.regions[region_id].label_count
    out = np.zeros(size)
    if include_loss and region_id in sample.loss:
        out += sample.loss[region_id]
    for k, t in sample.features.get(region_id, {}).items():
        if k >= len(w):
            raise ModelError(f"feature id {k} exceeds weight vector length {len(w)}")
        out += w[k] * t
    return out


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_model(
    graph: RegionGraph,
    samples: list[Sample],
    counting: CountingNumbers | None = None,
) -> ValidationReport:
    """Check structural invariants and counting numbers.

    Structural violations (containment, coverage) raise ModelError; a
    counting-number array of the wrong length is a report error.
    Counting-number configurations that void the upper-bound guarantee
    (negative c_r, or no fractional cover) are warnings only.  Per-sample
    tables need no check here: ``Sample`` rejects inconsistent ones when it
    is built.
    """
    graph.check_structure()
    report = ValidationReport()
    if counting is not None:
        if len(counting.values) != graph.region_count:
            report.errors.append("counting numbers length mismatch")
        else:
            if (counting.values < 0).any():
                report.warnings.append(
                    "negative counting numbers: upper bound not guaranteed"
                )
            if not counting.fractional_cover(graph):
                report.warnings.append(
                    "counting numbers do not fractionally cover the variables: "
                    "upper bound not guaranteed"
                )
    return report
