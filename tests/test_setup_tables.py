"""The layout and the sweep plan, built per edge shape, against the same
index arrays built edge by edge and region by region (``util.EdgeLayout``,
``util.level_tables``, ``util.potential_tables``, ``util.marginal_tables``),
and the colouring and the denominators read from the layout's CSR arrays
against the same loops over per-region edge lists (``util.colour_levels``,
``util.denominators``)."""

import io
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import MessageState, Region, RegionGraph
from blendsp.fileio import ParsedModel, parse_model, write_model
from blendsp.inference import _Level, _edge_index, conflict_levels, sweep_plan

from test_deep_graphs import three_level_model
from util import (
    EdgeLayout,
    child_edges,
    colour_levels,
    denominators,
    edge_slice,
    level_tables,
    loopy_graph,
    marginal_tables,
    parent_edges,
    potential_tables,
    region_slice,
    tree_graph,
)


def mixed_graph(rng: np.random.Generator) -> RegionGraph:
    """Singletons of 1 to 3 labels plus random regions of 2 to 4 variables,
    with an edge from each region to a random share of the regions whose
    variables it strictly contains: child variables sit at every position
    of their parents, regions have several parents, and parents have
    parents."""
    n = int(rng.integers(2, 6))
    cards = rng.integers(1, 4, n).tolist()
    scopes = {(v,) for v in range(n)}
    for _ in range(int(rng.integers(1, 6))):
        k = int(rng.integers(2, min(n, 4) + 1))
        scopes.add(tuple(sorted(rng.choice(n, k, replace=False).tolist())))
    scopes = sorted(scopes, key=lambda s: (len(s), s))
    regions = [Region(i, s, tuple(cards[v] for v in s)) for i, s in enumerate(scopes)]
    edges = [
        (a, b) for a, b in itertools.permutations(range(len(scopes)), 2)
        if set(scopes[b]) < set(scopes[a]) and rng.random() < 0.7
    ]
    return RegionGraph(regions, edges, n)


def relabelled(rng: np.random.Generator, graph: RegionGraph) -> RegionGraph:
    """``graph`` with every variable's label count drawn from 1 to 4 anew."""
    cards = rng.integers(1, 5, graph.variable_count).tolist()
    regions = [Region(r.id, r.variables, tuple(cards[v] for v in r.variables))
               for r in graph.regions]
    return RegionGraph(regions, graph.edges, graph.variable_count)


def any_graph(kind: str, seed: int) -> RegionGraph:
    rng = np.random.default_rng(seed)
    if kind == "tree":
        return relabelled(rng, tree_graph(rng, int(rng.integers(2, 7))))
    if kind == "loopy":
        n = int(rng.integers(3, 6))
        return relabelled(rng, loopy_graph(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1))))
    if kind == "three-level":
        return three_level_model(rng, rng.integers(1, 5, 3).tolist())[0]
    if kind == "many-parents":
        return many_parents_graph(rng)
    return mixed_graph(rng)


def many_parents_graph(rng: np.random.Generator) -> RegionGraph:
    """Singleton 0 held by 9 to 12 pairs (0, j), each of which also holds
    singleton j, and a triple (0, 1, 2) above the first two pairs: a
    denominator of 10 to 13 terms, which numpy's ``.sum()`` adds pairwise."""
    k = int(rng.integers(9, 13))
    cards = rng.integers(1, 4, k + 1).tolist()
    regions = [Region(v, (v,), (cards[v],)) for v in range(k + 1)]
    edges = []
    for j in range(1, k + 1):
        regions.append(Region(k + j, (0, j), (cards[0], cards[j])))
        edges += [(k + j, 0), (k + j, j)]
    regions.append(Region(2 * k + 1, (0, 1, 2), tuple(cards[:3])))
    edges += [(2 * k + 1, k + 1), (2 * k + 1, k + 2)]
    return RegionGraph(regions, edges, k + 1)


def assert_terms_equal(got, want):
    assert len(got) == len(want)
    for (n, idx), (n_want, idx_want) in zip(got, want):
        assert n == n_want
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, idx_want)


def assert_level_equal(level: _Level, want: dict):
    for name in ("theta_idx", "group_of", "group_edge", "starts", "segment", "acc_idx",
                 "acc_take", "mu_take", "write_idx", "table_edge"):
        got = getattr(level, name)
        assert got.dtype == np.int64, name
        np.testing.assert_array_equal(got, want[name], err_msg=name)
    assert level.groups.classes == want["classes"]
    assert_terms_equal(level.exp_terms, want["exp_terms"])
    assert_terms_equal(level.acc_terms, want["acc_terms"])
    assert level.blocks == want["blocks"]
    assert level.mu_at == want["mu_at"]
    assert level.acc_regions == want["acc_regions"]
    assert level.negated == want["negated"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["tree", "loopy", "three-level", "mixed"]), st.integers(0, 2**32 - 1))
def test_layout_and_plan_match_the_per_edge_builders(kind, seed):
    graph = any_graph(kind, seed)
    layout, want = graph.layout(), EdgeLayout(graph)
    # shape ids number the edges' ``edge_shape``s in order of first occurrence
    shapes: dict[tuple, int] = {}
    assert layout.edge_shape.dtype == np.int64
    assert layout.edge_shape.tolist() == [shapes.setdefault(graph.edge_shape(*e), len(shapes))
                                          for e in graph.edges]
    for e in range(len(graph.edges)):
        proj = layout.shape_proj[layout.edge_shape[e]]
        np.testing.assert_array_equal(proj, want.proj[e])
        np.testing.assert_array_equal(layout.shape_perm[layout.edge_shape[e]], want.perm[e])
        np.testing.assert_array_equal(layout.edge_offsets[e] + proj, want.lam_in_idx[e])
    # the per-region lists, derived from the CSR and offset arrays
    regions, edges = range(graph.region_count), range(len(graph.edges))
    assert [parent_edges(layout, r) for r in regions] == want.parent_edges
    assert [child_edges(layout, r) for r in regions] == want.child_edges
    assert layout.regions_with_parents.dtype == np.int64
    assert layout.regions_with_parents.tolist() == want.regions_with_parents
    assert [region_slice(layout, r) for r in regions] == want.region_slices
    assert [edge_slice(layout, e) for e in edges] == want.edge_slices

    plan = sweep_plan(layout)
    assert [level.regions for level in plan.levels] == conflict_levels(layout)
    for level in plan.levels:
        assert_level_equal(level, level_tables(want, level.regions))
    for r in layout.regions_with_parents.tolist():  # the one-region levels of ``lambda_update``
        assert_level_equal(_Level(plan, [r]), level_tables(want, [r]))
    terms, place = plan.potentials
    want_terms, want_place = potential_tables(want)
    assert_terms_equal(terms, want_terms)
    np.testing.assert_array_equal(place, want_place)
    terms, child = plan.marginals
    want_terms, want_child = marginal_tables(want)
    assert_terms_equal(terms, want_terms)
    np.testing.assert_array_equal(child, want_child)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


SKIPPED = "region %d: c_r + sum of parent counting numbers is zero; update skipped"


def random_counting(rng: np.random.Generator, want: EdgeLayout) -> np.ndarray:
    """Real counting numbers of random scale and sign, about a third of them
    zeros of either sign, and, half the time, one region whose c_r cancels
    its parents' sum exactly (a skipped update)."""
    n = len(want.sizes)
    cvals = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    zero = rng.random(n) < 0.3
    cvals[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    if want.regions_with_parents and rng.random() < 0.5:
        r = int(rng.choice(want.regions_with_parents))
        cvals[r] = -cvals[want.edge_parent[want.parent_edges[r]]].sum()
    return cvals


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["tree", "loopy", "three-level", "mixed", "many-parents"]),
    st.integers(0, 2**32 - 1),
)
def test_levels_and_denominators_match_the_per_region_list_loops(kind, seed):
    # the colouring, the denominators c_r + sum of parent c, the skips and
    # the order of the skip warnings, read from the CSR arrays, are those
    # of the loops over per-region edge lists, bit for bit
    graph = any_graph(kind, seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    layout, want = graph.layout(), EdgeLayout(graph)
    levels = colour_levels(want)
    assert conflict_levels(layout) == levels
    cvals = random_counting(rng, want)
    denom = denominators(want, cvals)
    at = sweep_plan(layout).at(float(rng.choice([0.0, 0.5, 1.0])), cvals)
    assert at.denom.tobytes() == denom.tobytes()
    assert at.skip.tobytes() == (denom == 0.0)[want.edge_child].tobytes()
    zero = [r for r in want.regions_with_parents if cvals[r] == 0.0]
    assert (at.zero_count is None) == (not zero)
    if zero:
        assert at.zero_count[0].regions == zero
    handler = _Messages()
    logger = logging.getLogger("blendsp.inference")
    logger.addHandler(handler)
    try:
        at.levels
    finally:
        logger.removeHandler(handler)
    assert handler.messages == [SKIPPED % r for lv in levels for r in lv if denom[r] == 0.0]


def test_projections_are_shared_per_shape_and_read_only():
    graph = three_level_model(np.random.default_rng(3), [2, 3, 2])[0]
    # (3, 1) and (4, 1) differ in shape: variable 1 is the second of (0, 1)
    # and the first of (1, 2)
    assert graph.edge_shape(3, 1) != graph.edge_shape(4, 1)
    assert graph.projection(3, 0) is not graph.projection(3, 1)
    chain = loopy_graph(np.random.default_rng(1), 4, 4)
    left = [chain.projection(p, r) for p, r in chain.edges if r == chain.regions[p].variables[0]]
    assert len(left) > 1 and all(proj is left[0] for proj in left)
    before = chain.projection(*chain.edges[0]).copy()
    with pytest.raises(ValueError, match="read-only"):
        chain.projection(*chain.edges[0])[0] = 1
    np.testing.assert_array_equal(chain.projection(*chain.edges[0]), before)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_edge_index_finds_every_edge_and_names_a_missing_one(seed):
    graph = mixed_graph(np.random.default_rng(seed))
    for e, (p, r) in enumerate(graph.edges):
        assert _edge_index(graph, p, r) == e
        assert MessageState(graph).table(r, p).size == graph.regions[r].label_count
    present = set(graph.edges)
    n = graph.region_count
    for p, r in itertools.product(range(-1, n + 1), repeat=2):
        if (p, r) not in present:
            with pytest.raises(ValueError, match=rf"^no edge \({p}, {r}\) in the region graph$"):
                _edge_index(graph, p, r)


def assert_layouts_equal(got, want):
    assert sorted(vars(got)) == sorted(vars(want))
    for name, value in vars(want).items():
        mine = getattr(got, name)
        if isinstance(value, list):
            assert len(mine) == len(value), name
            for a, b in zip(mine, value):
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)
        elif isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype, name
            np.testing.assert_array_equal(mine, value, err_msg=name)
        else:
            assert mine == value, name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["tree", "loopy", "three-level", "mixed", "many-parents"]),
       st.integers(0, 2**32 - 1))
def test_written_and_parsed_graphs_are_the_built_ones(kind, seed):
    # a graph read back from its model file (``RegionGraph.of_pairs``) has the
    # constructor-built graph's edges, pairs and every layout array
    graph = any_graph(kind, seed)
    text = io.StringIO()
    write_model(ParsedModel(graph, [], None, 0), text)
    parsed = parse_model(text.getvalue()).graph
    assert parsed.edges == graph.edges
    assert parsed.parents == graph.parents
    assert parsed.regions == graph.regions
    assert parsed.variable_count == graph.variable_count
    for name in ("cardinalities", "_label_pairs", "_edge_places"):
        mine, want = getattr(parsed, name), getattr(graph, name)
        assert mine.dtype == want.dtype == np.int64, name
        np.testing.assert_array_equal(mine, want, err_msg=name)
    assert parsed.label_counts().dtype == np.int64
    np.testing.assert_array_equal(parsed.label_counts(), graph.label_counts())
    assert_layouts_equal(parsed.layout(), graph.layout())
