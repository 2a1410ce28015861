"""Over-relaxed sweeps and their block-objective guard.

``sweep_until_consistent`` writes each message table as old + omega * (new -
old) and redoes at omega = 1 every row whose block objective, sum_r lse_r,
rose across the sweep.  With positive counting numbers a sweep at omega = 1
is exact block descent, so no guarded sweep raises the objective, and the
fixed point is the one plain sweeps reach.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import CountingNumbers, Sample
from blendsp.inference import (
    OMEGA,
    _beliefs,
    objective_rose,
    sweep_until_consistent,
    sweep_vec,
)
from blendsp.model import ThetaStack

from test_deep_graphs import three_level_model
from util import loopy_graph, random_sample, tree_graph

KINDS = ["tree", "loopy", "three-level"]


def corpus(rng, kind):
    """A graph of ``kind`` and three samples on it."""
    if kind == "tree":
        graph = tree_graph(rng, int(rng.integers(3, 9)))
    elif kind == "loopy":
        n = int(rng.integers(4, 8))
        graph = loopy_graph(rng, n, int(rng.integers(n, n * (n - 1) // 2 + 1)))
    else:
        cards = [int(c) for c in rng.integers(2, 5, 3)]
        models = [three_level_model(np.random.default_rng(int(rng.integers(2**32))), cards)
                  for _ in range(3)]
        graph = models[0][0]
        return graph, [Sample(graph, i, s.loss, s.features, s.true_labels)
                       for i, (_, s) in enumerate(models)]
    return graph, [random_sample(rng, graph, 4, i) for i in range(3)]


def inputs(seed, kind, counting):
    """Layout, counting numbers and theta rows of one drawn corpus."""
    rng = np.random.default_rng(seed)
    graph, samples = corpus(rng, kind)
    layout = graph.layout()
    if counting == "ones":
        cvals = np.ones(graph.region_count)
    else:
        cvals = rng.uniform(0.2, 3.0, graph.region_count)
    return layout, cvals, ThetaStack(samples, layout).rows(rng.uniform(-3, 3, 4))


def guarded_sweeps(layout, theta, cvals, omega, count):
    """``count`` guarded sweeps from zero messages, one call each; asserts
    that none raised a row's block objective; returns the fallbacks."""
    lam = np.zeros((theta.shape[0], layout.message_total))
    lse = _beliefs(layout, lam, theta, 1.0, cvals)[2]
    fallbacks = 0
    for _ in range(count):
        res = sweep_until_consistent(layout, lam, theta, 1.0, cvals, 1, 0.0, omega)
        assert not objective_rose(lse, res.lse).any()
        fallbacks += int(res.fallbacks.sum())
        lse = res.lse
    return fallbacks


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(["ones", "random"]))
def test_guarded_sweeps_never_raise_the_block_objective(seed, kind, counting):
    layout, cvals, theta = inputs(seed, kind, counting)
    for omega in (OMEGA, 1.95):
        guarded_sweeps(layout, theta, cvals, omega, 25)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(["ones", "random"]))
def test_relaxed_beliefs_match_plain_sweeps_at_convergence(seed, kind, counting):
    layout, cvals, theta = inputs(seed, kind, counting)
    runs = []
    for omega in (1.0, OMEGA):
        lam = np.zeros((theta.shape[0], layout.message_total))
        runs.append(sweep_until_consistent(layout, lam, theta, 1.0, cvals, 3000, 1e-10, omega))
    plain, relaxed = runs
    assert (plain.residual <= 1e-10).all() and (relaxed.residual <= 1e-10).all()
    np.testing.assert_allclose(relaxed.beliefs, plain.beliefs, rtol=0, atol=1e-8)


def unguarded_rises(layout, theta, cvals, omega, count):
    """Whether ``count`` plain sweeps at ``omega`` raise some row's objective."""
    lam = np.zeros((theta.shape[0], layout.message_total))
    lse, rose = _beliefs(layout, lam, theta, 1.0, cvals)[2], False
    for _ in range(count):
        sweep_vec(layout, lam, theta, 1.0, cvals, omega)
        after = _beliefs(layout, lam, theta, 1.0, cvals)[2]
        rose |= bool(objective_rose(lse, after).any())
        lse = after
    return rose


def test_the_fallback_runs_where_an_unguarded_sweep_would_raise_the_objective():
    for kind in KINDS:
        for counting in ("ones", "random"):
            drawn = [inputs(seed, kind, counting) for seed in range(4)]
            assert sum(guarded_sweeps(lay, th, cv, 1.95, 25) for lay, cv, th in drawn) > 0
            assert any(unguarded_rises(lay, th, cv, 1.95, 25) for lay, cv, th in drawn)


def test_mixed_sign_counting_numbers_run_the_guard_and_finish():
    # Bethe counting numbers are negative on shared singletons: the guard
    # still tests every sweep, with no descent guarantee behind it
    for seed, kind in enumerate(KINDS):
        rng = np.random.default_rng(100 + seed)
        graph, samples = corpus(rng, kind)
        layout = graph.layout()
        cvals = CountingNumbers.bethe(graph).values
        assert (cvals < 0).any()
        theta = ThetaStack(samples, layout).rows(rng.uniform(-3, 3, 4))
        for omega in (OMEGA, 1.95):
            lam = np.zeros((len(samples), layout.message_total))
            res = sweep_until_consistent(layout, lam, theta, 1.0, cvals, 100, 1e-8, omega)
            assert ((res.sweeps == 100) | (res.residual <= 1e-8)).all()
            assert (res.fallbacks <= res.sweeps).all()
            assert np.isfinite(lam).all() and np.isfinite(res.beliefs).all()


def test_default_omega_is_plain_without_the_descent_guarantee():
    # on trees with Bethe numbers over-relaxed sweeps took up to 63 sweeps to
    # a residual of 1e-10 where plain ones took at most 4
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        graph, samples = corpus(rng, "tree")
        layout = graph.layout()
        theta = ThetaStack(samples, layout).rows(rng.uniform(-3, 3, 4))
        for scheme, eps, omega in (("bethe", 1.0, 1.0), ("ones", 0.0, 1.0), ("ones", 1.0, OMEGA)):
            cvals = CountingNumbers.of(graph, scheme).values
            runs = []
            for args in ((), (omega,)):
                lam = np.zeros((len(samples), layout.message_total))
                runs.append(sweep_until_consistent(layout, lam, theta, eps, cvals, 3000, 1e-10,
                                                   *args))
            default, explicit = runs
            assert np.array_equal(default.sweeps, explicit.sweeps)
            assert np.array_equal(default.beliefs, explicit.beliefs)
            if omega == 1.0:
                assert (default.fallbacks == 0).all()
