"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from blendsp import (
    CountingNumbers,
    MessageState,
    Region,
    RegionGraph,
    Sample,
    TrainerConfig,
    compute_beliefs,
    inference_sweep,
    predict,
    primal_objective,
    region_loss,
    train,
    w_gradient,
)
from blendsp.cli import main as cli_main
from blendsp.datagen import DenoiseSpec, cross_pattern, make_denoise_dataset, pixel_error

from util import (
    eps_log_sum_exp, exact_loss, exact_marginals, loopy_graph, ones, random_sample, tree_graph
)

# the canonical seeded corpora for the end-to-end criteria
CORPUS_5 = dict(width=5, height=5, num_train=10, num_test=10, flip_prob=0.2, seed=8, tying="full")
CORPUS_10 = dict(width=10, height=10, num_train=10, num_test=10, flip_prob=0.2, seed=8, tying="full")
TRAIN_5 = dict(eps=1.0, C=0.3, max_outer_iters=3000, residual_tol=1e-10, grad_norm_tol=1e-7)
TRAIN_10 = dict(eps=1.0, C=0.3, max_outer_iters=1000, residual_tol=1e-8)


def corpus_5():
    return DenoiseSpec(base_image=cross_pattern(5, 5), **CORPUS_5)


def corpus_10():
    return DenoiseSpec(base_image=cross_pattern(10, 10), **CORPUS_10)


def report(number: int, passed: bool, detail: str, started: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({time.time() - started:.1f}s) {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_acceptance_model(rng, max_vars=12):
    n = int(rng.integers(2, max_vars + 1))
    n_pairs = int(rng.integers(1, min(2 * n, n * (n - 1) // 2) + 1))
    graph = loopy_graph(rng, n, n_pairs)
    return graph, random_sample(rng, graph, 3)


def test_criterion_1_upper_bound():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = np.inf
    for _ in range(200):
        graph, sample = random_acceptance_model(rng)
        w = rng.uniform(-2.0, 2.0, 3)
        for eps in (0.0, 0.1, 1.0):
            ex = exact_loss(graph, sample, w, eps)
            state = MessageState(graph)
            margin = primal_objective(graph, [sample], [state], w, eps, ones(graph), 0.0) - ex
            worst = min(worst, margin)
            for _ in range(5):
                inference_sweep(graph, sample, state, w, eps, ones(graph))
            margin = primal_objective(graph, [sample], [state], w, eps, ones(graph), 0.0) - ex
            worst = min(worst, margin)
    report(1, worst >= -1e-9, f"min(decomposed - exact) = {worst:.3e} over 200 models", started)


def test_criterion_2_tree_exactness():
    started = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        graph = tree_graph(rng, n)
        sample = random_sample(rng, graph, 3)
        w = rng.normal(size=3)
        bethe = CountingNumbers.bethe(graph)
        state = MessageState(graph)
        for _ in range(2 * n + 2):
            inference_sweep(graph, sample, state, w, 1.0, bethe)
        beliefs = compute_beliefs(graph, sample, state, w, 1.0, bethe)
        exact = exact_marginals(graph, sample, w, 1.0)
        for b, m in zip(beliefs, exact):
            worst = max(worst, float(np.abs(b - m).max()))
    report(2, worst <= 1e-9, f"max |belief - marginal| = {worst:.3e} over 50 trees", started)


@pytest.fixture(scope="module")
def trained_5x5():
    ds = make_denoise_dataset(corpus_5())
    records = []
    state = train(
        ds.graph,
        ds.train,
        TrainerConfig(**TRAIN_5),
        num_features=ds.num_features,
        log_fn=records.append,
    )
    return ds, state, records


def test_criterion_3_monotone_certified_convergence(trained_5x5):
    started = time.time()
    ds, state, records = trained_5x5
    primals = np.array([r.primal for r in records])
    monotone = bool(((primals[1:] - primals[:-1]) <= 1e-10).all())
    ok = (
        monotone
        and state.converged
        and state.report.certified
        and abs(state.report.gap) <= 1e-4
        and state.report.gap >= -1e-8
    )
    report(
        3,
        ok,
        f"iters={state.iteration} monotone={monotone} certified={state.report.certified} "
        f"gap={state.report.gap:.3e}",
        started,
    )


def test_criterion_4_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    h = 1e-5
    for _ in range(20):
        graph, sample = random_acceptance_model(rng, max_vars=8)
        w = rng.uniform(-1.0, 1.0, 3)
        C = float(rng.uniform(0.1, 1.0))
        state = MessageState(graph)
        for _ in range(int(rng.integers(0, 4))):
            inference_sweep(graph, sample, state, w, 1.0, ones(graph))
        g = w_gradient(graph, [sample], [state], w, 1.0, ones(graph), C)
        for k in range(3):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            fd = (
                primal_objective(graph, [sample], [state], wp, 1.0, ones(graph), C)
                - primal_objective(graph, [sample], [state], wm, 1.0, ones(graph), C)
            ) / (2 * h)
            worst = max(worst, abs(g[k] - fd) / max(1e-12, abs(fd)))
    report(4, worst <= 1e-6, f"max relative gradient error = {worst:.3e}", started)


def test_criterion_5_smooth_approximation():
    started = time.time()
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(1000):
        size = int(rng.integers(1, 12))
        v = rng.uniform(-30, 30, size)
        for eps in (1e-3, 1e-2, 0.1, 1.0):
            if abs(eps_log_sum_exp(v, eps) - v.max()) > eps * math.log(size):
                ok = False
    report(5, ok, "|lse - max| <= eps*log(n) for 1000 random tables x 4 eps", started)


def test_criterion_6_svm_mode_hinge_sign():
    started = time.time()
    rng = np.random.default_rng(106)
    checked = 0
    ok = True
    while checked < 100:
        labels = int(rng.integers(2, 6))
        graph = RegionGraph([Region(0, (0,), (labels,))], [], 1)
        truth = int(rng.integers(0, labels))
        loss_table = rng.uniform(0.0, 1.5, labels)
        loss_table[truth] = 0.0
        feats = {0: {0: rng.normal(size=labels)}}
        if rng.random() < 0.3:
            # engineered equality case: flat potential, true label among the maxima
            feats = {0: {0: np.zeros(labels)}}
            loss_table = np.zeros(labels)
        sample = Sample(graph, 0, {0: loss_table}, feats, {0: truth})
        w = rng.normal(size=1)
        state = MessageState(graph)
        rl = region_loss(graph, sample, 0, state, w, 0.0, ones(graph))
        from util import theta_table

        th = theta_table(sample, 0, w, include_loss=True)
        maximizes = th[truth] == th.max()
        if rl < 0 or (rl == 0.0) != maximizes:
            ok = False
        checked += 1
    report(6, ok, "hinge terms >= 0 with equality iff the true label attains the max", started)


def test_criterion_7_parameter_tying_ordering():
    started = time.time()
    errors = {}
    for tying in ("shared", "full"):
        spec = DenoiseSpec(base_image=cross_pattern(5, 5), **{**CORPUS_5, "tying": tying, "seed": 0})
        ds = make_denoise_dataset(spec)
        cfg = TrainerConfig(eps=1.0, C=0.3, max_outer_iters=2000, residual_tol=1e-8)
        state = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
        preds = [
            predict(ds.graph, s, state.w, 1.0, ones(ds.graph), max_sweeps=100).labels
            for s in ds.test
        ]
        errors[tying], _ = pixel_error(preds, [ds.base_image.ravel()] * len(ds.test))
    report(
        7,
        errors["full"] <= errors["shared"],
        f"test errors: full={errors['full']} shared={errors['shared']}",
        started,
    )


@pytest.fixture(scope="module")
def trained_10x10():
    ds = make_denoise_dataset(corpus_10())
    state = train(ds.graph, ds.train, TrainerConfig(**TRAIN_10), num_features=ds.num_features)
    return ds, state


def test_criterion_8_denoise_end_to_end(trained_10x10):
    started = time.time()
    ds, state = trained_10x10
    preds = [
        predict(ds.graph, s, state.w, 1.0, ones(ds.graph), max_sweeps=200).labels
        for s in ds.test
    ]
    wrong, pct = pixel_error(preds, [ds.base_image.ravel()] * len(ds.test))
    report(8, pct <= 2.0, f"test misclassification {wrong}/1000 pixels = {pct:.2f}%", started)


def test_criterion_9_block_order_independence(trained_5x5):
    started = time.time()
    _, state_1, _ = trained_5x5
    ds = make_denoise_dataset(corpus_5())
    cfg = TrainerConfig(**{**TRAIN_5, "sweeps_per_step": 10})
    state_10 = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
    diff = abs(state_1.report.primal - state_10.report.primal)
    ok = state_1.converged and state_10.converged and diff <= 1e-6
    report(9, ok, f"|primal(sps=1) - primal(sps=10)| = {diff:.3e}", started)


def _cli_train(corpus_dir, weights_path, size_cfg, threads):
    code = cli_main(
        [
            "train",
            "--model", str(corpus_dir / "train.bsp"),
            "--eps", "1", "--C", "0.3",
            "--max-iters", str(size_cfg["max_outer_iters"]),
            "--residual-tol", str(size_cfg["residual_tol"]),
            "--grad-tol", str(size_cfg.get("grad_norm_tol", 1e-6)),
            "--threads", str(threads),
            "--seed", "8",
            "--out", str(weights_path),
        ]
    )
    assert code == 0, "training did not converge"
    return hashlib.sha256(weights_path.read_bytes()).hexdigest()


def test_criterion_10_thread_determinism(tmp_path, capsys):
    started = time.time()
    digests = {}
    for name, corpus, cfg in (("5x5", CORPUS_5, TRAIN_5), ("10x10", CORPUS_10, TRAIN_10)):
        corpus_dir = tmp_path / name
        bitmap = tmp_path / f"base-{name}.txt"
        base = cross_pattern(corpus["width"], corpus["height"])
        bitmap.write_text("\n".join("".join(str(b) for b in row) for row in base) + "\n")
        code = cli_main(
            [
                "gen-denoise",
                "--width", str(corpus["width"]),
                "--height", str(corpus["height"]),
                "--flip-prob", str(corpus["flip_prob"]),
                "--num-train", str(corpus["num_train"]),
                "--num-test", str(corpus["num_test"]),
                "--tying", corpus["tying"],
                "--base-image", str(bitmap),
                "--seed", str(corpus["seed"]),
                "--out", str(corpus_dir),
            ]
        )
        assert code == 0
        for threads in (1, 4):
            digests[(name, threads)] = _cli_train(
                corpus_dir, corpus_dir / f"w{threads}.bsw", cfg, threads
            )
    capsys.readouterr()
    ok = all(digests[(n, 1)] == digests[(n, 4)] for n in ("5x5", "10x10"))
    with capsys.disabled():
        report(10, ok, "weight files byte-identical for --threads 1 vs 4 (both corpora)", started)
