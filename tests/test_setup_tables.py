"""The layout and the sweep plan, built per edge shape, against the same
index arrays built edge by edge and region by region (``util.EdgeLayout``,
``util.level_tables``, ``util.potential_tables``, ``util.marginal_tables``)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import MessageState, Region, RegionGraph
from blendsp.inference import _Level, _edge_index, conflict_levels, sweep_plan

from test_deep_graphs import three_level_model
from util import (
    EdgeLayout,
    level_tables,
    loopy_graph,
    marginal_tables,
    potential_tables,
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
    return mixed_graph(rng)


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
    np.testing.assert_array_equal(level.groups.starts, want["group_starts"])
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
    for e in range(len(graph.edges)):
        proj = layout.shape_proj[layout.edge_shape[e]]
        np.testing.assert_array_equal(proj, want.proj[e])
        np.testing.assert_array_equal(layout.shape_perm[layout.edge_shape[e]], want.perm[e])
        np.testing.assert_array_equal(layout.edge_offsets[e] + proj, want.lam_in_idx[e])
    for name in ("parent_edges", "child_edges", "regions_with_parents", "region_slices",
                 "edge_slices"):
        assert getattr(layout, name) == getattr(want, name), name

    plan = sweep_plan(layout)
    assert [level.regions for level in plan.levels] == conflict_levels(layout)
    for level in plan.levels:
        assert_level_equal(level, level_tables(want, level.regions))
    for r in layout.regions_with_parents:  # the one-region levels of ``lambda_update``
        assert_level_equal(_Level(plan, [r]), level_tables(want, [r]))
    terms, place = plan.potentials
    want_terms, want_place = potential_tables(want)
    assert_terms_equal(terms, want_terms)
    np.testing.assert_array_equal(place, want_place)
    terms, child = plan.marginals
    want_terms, want_child = marginal_tables(want)
    assert_terms_equal(terms, want_terms)
    np.testing.assert_array_equal(child, want_child)


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
