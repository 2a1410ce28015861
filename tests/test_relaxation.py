"""The engine's guarded extrapolation, against plain sweeps.

Where the certificate holds, ``sweep_until_consistent`` extrapolates each
row's last K + 1 message rows after every K-th sweep (K =
``EXTRAPOLATE_EVERY``) and keeps the extrapolated point only where it
strictly lowers the block objective sum_r lse_r.  Plain sweeps are exact
block descent there, so no call raises the objective beyond rounding, and
the limit is the one plain sweeps reach.  Without the certificate the sweeps
stay plain.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blendsp import CountingNumbers, Sample
from blendsp.cli import main
from blendsp.fileio import parse_model
from blendsp.inference import (
    EXTRAPOLATE_EVERY,
    _beliefs,
    _extrapolate,
    residual_rows,
    sweep_until_consistent,
    sweep_vec,
)
from blendsp.learner import predict_all
from blendsp.model import ThetaStack

from test_cli import gen
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


def rose(prior, after):
    """Per row, whether the block objective rose from the region
    log-partitions ``prior`` to ``after`` by more than rounding: more than 16
    ulps of the row's sum of |lse_r| before."""
    slack = 16 * np.spacing(np.abs(prior).sum(axis=1))
    return after.sum(axis=1) > prior.sum(axis=1) + slack


def guarded_blocks(layout, theta, cvals, count):
    """``count`` engine calls of K sweeps each from zero messages (tol -1, so
    no row stops: each sweeps K times and then meets the guard once), each
    checked against K plain sweeps from the same rows and the extrapolation
    of their iterates.  Asserts that the engine takes that point exactly
    where it is strictly below the plain sweeps' objective, and that no call
    raises a row's objective beyond rounding.  Returns the accepted and the
    rejected points and whether some rejected one lay above the plain
    sweeps' objective by more than rounding: taking it would have raised the
    objective."""
    k = EXTRAPOLATE_EVERY
    lam = np.zeros((theta.shape[0], layout.message_total))
    accepted = rejected = 0
    rises = False
    for _ in range(count):
        lse = _beliefs(layout, lam, theta, 1.0, cvals)[2]
        history, plain = [], lam.copy()
        for _ in range(k):
            history.append(plain.copy())
            sweep_vec(layout, plain, theta, 1.0, cvals)
        x = _extrapolate(np.array(history), plain)
        x_lse = _beliefs(layout, x, theta, 1.0, cvals)[2]
        plain_lse = _beliefs(layout, plain, theta, 1.0, cvals)[2]
        better = x_lse.sum(axis=1) < plain_lse.sum(axis=1)
        res = sweep_until_consistent(layout, lam, theta, 1.0, cvals, k, -1.0)
        assert (res.sweeps == k).all()
        assert np.array_equal(res.extrapolations, better.astype(int))
        assert lam.tobytes() == np.where(better[:, None], x, plain).tobytes()
        assert not rose(lse, res.lse).any()
        accepted += int(better.sum())
        rejected += int((~better).sum())
        rises |= bool(rose(plain_lse, x_lse).any())
    return accepted, rejected, rises


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(["ones", "random"]))
def test_guarded_sweeps_never_raise_the_block_objective(seed, kind, counting):
    layout, cvals, theta = inputs(seed, kind, counting)
    guarded_blocks(layout, theta, cvals, 3)


def plain_loop(layout, theta, eps, cvals, max_sweeps, tol):
    """Plain ``sweep_vec`` sweeps from zero messages, one row at a time, while
    the row's residual is above tol and the cap is not reached: the final
    messages, beliefs, residuals and sweep counts of the rows."""
    rows = []
    for row in theta[:, None, :]:
        lam = np.zeros((1, layout.message_total))
        sweeps, b = 0, _beliefs(layout, lam, row, eps, cvals)[0]
        while sweeps < max_sweeps and residual_rows(layout, b)[0] > tol:
            sweep_vec(layout, lam, row, eps, cvals)
            sweeps, b = sweeps + 1, _beliefs(layout, lam, row, eps, cvals)[0]
        rows.append((lam[0], b[0], residual_rows(layout, b)[0], sweeps))
    return [np.array(column) for column in zip(*rows)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(["ones", "random"]))
@example(seed=55, kind="loopy", counting="random")
def test_extrapolated_beliefs_match_plain_sweeps_at_convergence(seed, kind, counting):
    # rows that plain sweeps bring to 1e-10 within 3,000 sweeps end where the
    # engine does; every row, seed 55's third too (below), stays there under
    # 100 more plain sweeps
    layout, cvals, theta = inputs(seed, kind, counting)
    lam = np.zeros((theta.shape[0], layout.message_total))
    fast = sweep_until_consistent(layout, lam, theta, 1.0, cvals, 1000, 1e-10)
    assert (fast.residual <= 1e-10).all()
    _, plain, residual, _ = plain_loop(layout, theta, 1.0, cvals, 3000, 1e-10)
    done = residual <= 1e-10
    np.testing.assert_allclose(fast.beliefs[done], plain[done], rtol=0, atol=1e-8)
    for _ in range(100):
        sweep_vec(layout, lam, theta, 1.0, cvals)
    b = _beliefs(layout, lam, theta, 1.0, cvals)[0]
    np.testing.assert_allclose(b, fast.beliefs, rtol=0, atol=1e-8)


def test_plain_sweeps_stall_on_seed_55_where_the_extrapolation_converges():
    # the third row's smallest belief falls below 1e-21; plain sweeps leave
    # it at a residual of 1.3e-4 after 3,000 sweeps and 5.2e-5 after 10,000
    # (1.6e-5 after 30,000).  The engine brings the three rows to 1.8e-14,
    # 8.1e-13 and 7.1e-11 in 110, 80 and 151 sweeps, with 5, 6 and 11
    # accepted extrapolations
    layout, cvals, theta = inputs(55, "loopy", "random")
    assert (cvals > 0).all()
    row = theta[2:]
    lam = np.zeros((1, layout.message_total))
    for sweeps in range(1, 10_001):
        sweep_vec(layout, lam, row, 1.0, cvals)
        if sweeps in (3000, 10_000):
            b = _beliefs(layout, lam, row, 1.0, cvals)[0]
            residual = residual_rows(layout, b)[0]
            assert residual == pytest.approx(1.3e-4 if sweeps == 3000 else 5.2e-5, rel=0.02)
    assert b.min() < 1e-21
    lam = np.zeros((3, layout.message_total))
    fast = sweep_until_consistent(layout, lam, theta, 1.0, cvals, 1000, 1e-10)
    assert (fast.residual <= 1e-10).all() and fast.extrapolations[2] > 0


def test_the_guard_rejects_extrapolations_that_would_raise_the_objective():
    # most rejected points tie the plain sweeps' objective within rounding
    # near convergence; on trees and loopy graphs with random counting
    # numbers some lie clearly above it
    rises = False
    for kind in KINDS:
        for counting in ("ones", "random"):
            drawn = [inputs(seed, kind, counting) for seed in range(4)]
            runs = [guarded_blocks(lay, th, cv, 5) for lay, cv, th in drawn]
            assert sum(accepted for accepted, _, _ in runs) > 0
            assert sum(rejected for _, rejected, _ in runs) > 0
            rises |= any(rise for _, _, rise in runs)
    assert rises


def assert_plain_sweeps(scheme, eps):
    """On seeded trees, loopy and 3-level graphs with counting numbers
    ``scheme`` at ``eps``: no extrapolation, and every row's messages,
    beliefs and sweep count bitwise a plain loop's, stopped at the tolerance
    or the cap and finite."""
    for seed, kind in enumerate(KINDS * 2):
        rng = np.random.default_rng(100 + seed)
        graph, samples = corpus(rng, kind)
        layout = graph.layout()
        theta = ThetaStack(samples, layout).rows(rng.uniform(-3, 3, 4))
        cvals = CountingNumbers.of(graph, scheme).values
        if scheme == "bethe":
            assert (cvals < 0).any()
        lam = np.zeros((len(samples), layout.message_total))
        res = sweep_until_consistent(layout, lam, theta, eps, cvals, 100, 1e-8)
        plain_lam, plain_b, residual, sweeps = plain_loop(layout, theta, eps, cvals, 100, 1e-8)
        assert not res.extrapolations.any()
        assert lam.tobytes() == plain_lam.tobytes()
        assert res.beliefs.tobytes() == plain_b.tobytes()
        assert np.array_equal(res.sweeps, sweeps)
        assert ((res.sweeps == 100) | (res.residual <= 1e-8)).all()
        assert np.isfinite(lam).all() and np.isfinite(res.beliefs).all()


def test_mixed_sign_counting_numbers_sweep_plainly_and_finish():
    # Bethe counting numbers are negative on shared singletons, so the
    # certificate fails and the sweeps stay plain
    assert_plain_sweeps("bethe", 1.0)


def test_default_omega_is_plain_without_the_descent_guarantee():
    # eps = 0 has no temperature and no descent guarantee: the engine's
    # default step there is the plain sweep
    assert_plain_sweeps("ones", 0.0)


def test_extrapolation_of_non_finite_or_still_rows_raises_nothing():
    # NaN and inf histories give non-finite points, which the guard rejects,
    # and leave a finite row as it is alone; a row that no longer moves (no
    # column of the least-squares problem is left) comes back as its last
    # iterate; a numpy warning would fail the test
    k, rng = EXTRAPOLATE_EVERY, np.random.default_rng(47)
    ring = np.cumsum(rng.normal(size=(k + 1, 4, 6)), axis=0)
    ring[3, 1, 2], ring[k, 2, 0], ring[:, 3] = np.nan, np.inf, 1.0
    got = _extrapolate(ring[:k], ring[k])
    alone = _extrapolate(ring[:k, :1], ring[k, :1])
    assert got[0].tobytes() == alone[0].tobytes() and np.isfinite(got[0]).all()
    assert not np.isfinite(got[1:3]).all(axis=1).any()
    assert got[3].tobytes() == ring[k, 3].tobytes()


def test_the_engine_leaves_a_still_row_where_it_is():
    # after 400 plain sweeps the third row no longer moves: a sweep gives
    # back its bits.  Its extrapolation is then its last iterate, which does
    # not lower its block objective strictly, so the guard keeps it where it
    # is and counts no extrapolation
    layout, cvals, theta = inputs(0, "loopy", "ones")
    lam = np.zeros((theta.shape[0], layout.message_total))
    for _ in range(400):
        before = lam.copy()
        sweep_vec(layout, lam, theta, 1.0, cvals)
    still = (before == lam).all(axis=1)
    assert still.tolist() == [False, False, True]
    res = sweep_until_consistent(layout, lam, theta, 1.0, cvals, EXTRAPOLATE_EVERY, -1.0)
    assert lam[2].tobytes() == before[2].tobytes() and res.extrapolations[2] == 0


def row_sum(values):
    """numpy's sum of a row of at most 128 floats: left to right from 0 for
    fewer than 8 terms, else 8 running sums (terms i, i + 8, ...) added as
    a tree, then the terms past the last multiple of 8 one by one."""
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    assert len(values) <= 128
    acc = list(values[:8])
    whole = len(values) - len(values) % 8
    for i in range(8, whole, 8):
        acc = [a + v for a, v in zip(acc, values[i:i + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[whole:]:
        total += v
    return total


def reference_extrapolation(ring, last):
    """``_extrapolate`` of one row, as a Python loop over floats: the
    modified Gram-Schmidt least squares, the back substitution and the
    point, in the primitive's order of operations, with numpy's row sums."""
    def dot(a, b):
        return row_sum([x * y for x, y in zip(a, b)])

    k = len(ring)
    later = [*ring[1:], last]
    d_last = [x - y for x, y in zip(last, ring[-1])]
    rhs = [-x for x in d_last]
    r = [[0.0] * (k - 1) for _ in range(k - 1)]
    t, basis = [0.0] * (k - 1), []
    for j in range(k - 1):
        q = [(x - y) - z for x, y, z in zip(later[j], ring[j], d_last)]
        own = dot(q, q)
        for i, qi in enumerate(basis):
            r[i][j] = dot(qi, q)
            q = [x - y * r[i][j] for x, y in zip(q, qi)]
        rest = math.sqrt(dot(q, q))
        kept = rest > 1e-12 * math.sqrt(own)
        r[j][j] = rest if kept else 1.0
        scale = 1.0 / rest if kept else 0.0
        q = [x * scale for x in q]
        t[j] = dot(q, rhs)
        rhs = [x - y * t[j] for x, y in zip(rhs, q)]
        basis.append(q)
    c = [0.0] * (k - 1)
    for j in reversed(range(k - 1)):
        c[j] = (t[j] - dot(r[j][j + 1:], c[j + 1:])) / r[j][j]
    point = list(last)
    for i in range(k - 1):
        point = [p + (x - y) * c[i] for p, x, y in zip(point, later[i], last)]
    return point


def test_extrapolation_bytes_match_a_python_loop():
    # rows of 12 and of 6 messages: a random walk (every column kept), an
    # affine iteration of dimension 2 (columns dropped by the rank test) and
    # a row that stops moving half way
    k = EXTRAPOLATE_EVERY
    for width in (12, 6):
        rng = np.random.default_rng(48 + width)
        ring = np.cumsum(rng.normal(size=(k + 1, 3, width)), axis=0)
        a = rng.normal(size=(2, 2)) * 0.4
        for i in range(k):
            ring[i + 1, 1, :2] = a @ ring[i, 1, :2] + 1.0
            ring[i + 1, 1, 2:] = ring[i, 1, 2:]
        ring[k // 2:, 2] = ring[k // 2, 2]
        got = _extrapolate(ring[:k], ring[k])
        for row in range(3):
            want = reference_extrapolation(ring[:k, row].tolist(), ring[k, row].tolist())
            assert got[row].tobytes() == np.array(want).tobytes()
        assert np.isfinite(got).all() and got[2].tobytes() == ring[k, 2].tobytes()


def test_extrapolation_calls_no_linear_algebra_routine(monkeypatch):
    # every np.linalg function raises, and the primitive and the engine's
    # accelerated sweeps run as before
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    layout, cvals, theta = inputs(5, "three-level", "random")
    k, rng = EXTRAPOLATE_EVERY, np.random.default_rng(49)
    ring = np.cumsum(rng.normal(size=(k + 1, 4, 30)), axis=0)
    before = _extrapolate(ring[:k], ring[k])
    lam = np.zeros((theta.shape[0], layout.message_total))
    plain = sweep_until_consistent(layout, lam, theta, 1.0, cvals, 200, 1e-10)
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name[0].isupper():
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError, match="np.linalg called"):
        np.linalg.solve(np.eye(2), np.ones(2))
    assert _extrapolate(ring[:k], ring[k]).tobytes() == before.tobytes()
    lam = np.zeros((theta.shape[0], layout.message_total))
    res = sweep_until_consistent(layout, lam, theta, 1.0, cvals, 200, 1e-10)
    assert res.extrapolations.any() and res.beliefs.tobytes() == plain.beliefs.tobytes()


def test_overflowing_weights_stop_rows_as_capped_without_warnings(tmp_path, capsys):
    # RuntimeWarnings are errors in this suite, so a numpy warning fails here
    out = gen(tmp_path, "corpus")
    parsed = parse_model((out / "test.bsp").read_text())
    w = np.full(parsed.num_features, 1e308)
    for result in predict_all(parsed.graph, parsed.samples, w, 1.0, None, 200):
        assert np.isnan(result.residual) and result.capped
    weights = tmp_path / "huge.bsw"
    weights.write_text("BLENDSP-W 1\n" + "".join(f"{k} 1e308\n" for k in range(w.size)))
    capsys.readouterr()
    infer = ["infer", "--model", str(out / "test.bsp"), "--weights", str(weights)]
    assert main([*infer, "--out", str(tmp_path / "p.labels")]) == 0
    assert main(["gap", "--model", str(out / "train.bsp"), "--weights", str(weights)]) == 0
    captured = capsys.readouterr()
    assert "capped=2 samples=2" in captured.out and "capped=3 samples=3" in captured.out
    assert captured.err == ""
