"""Seeded input corpora of the benchmark workloads.

Each function writes ``train.bsp`` and ``test.bsp`` into a directory and
returns the ground truth the output checks need: the per-variable truth of
the test samples, and the raw observations for the high-order corpus.  The
program under test sees only the written model files.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np


def _cross(width: int, height: int) -> np.ndarray:
    """Plus-shaped cross of ones, drawn independently of the program."""
    img = np.zeros((height, width), dtype=np.int64)
    img[height // 2, :] = 1
    img[:, width // 2] = 1
    return img


def _gen_denoise(out: Path, size: int, argv: list[str]) -> np.ndarray:
    """Run ``blendsp gen-denoise`` on a cross base image; return the image."""
    from blendsp.cli import main

    out.mkdir(parents=True, exist_ok=True)
    base = _cross(size, size)
    bitmap = out / "cross.txt"
    bitmap.write_text("".join("".join(map(str, row)) + "\n" for row in base))
    size_flags = ["--width", str(size), "--height", str(size)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["gen-denoise", *size_flags, *argv, "--base-image", str(bitmap), "--out", str(out)]
        )
    if code != 0:
        raise RuntimeError(f"gen-denoise exited {code}")
    return base


def denoise10(out: Path, seed: int) -> dict:
    """The acceptance corpus: 10x10 cross, flip noise 0.2, full tying,
    10 train and 10 test samples, corpus seed 8.

    The corpus does not depend on ``seed``: it is the fixed acceptance
    corpus, and the one operation that fails today fails on it.
    """
    del seed
    base = _gen_denoise(
        out,
        10,
        ["--flip-prob", "0.2", "--num-train", "10", "--num-test", "10",
         "--tying", "full", "--seed", "8"],
    )
    return {"truth": [base.ravel().tolist()] * 10}


def denoise40(out: Path, seed: int) -> dict:
    """The large case: 40x40 cross, shared tying (4 weights), 64 train
    samples with flip noise 0.2 drawn from ``seed``."""
    _gen_denoise(
        out,
        40,
        ["--flip-prob", "0.2", "--num-train", "64", "--num-test", "0",
         "--tying", "shared", "--seed", str(seed)],
    )
    return {"truth": []}


HIGHORDER_SIZE = 6
HIGHORDER_LABELS = 4
HIGHORDER_TRAIN = 4
HIGHORDER_TEST = 4
HIGHORDER_NOISE = 0.3
HIGHORDER_CORPUS_SEED = 1


def _highorder_graph(size: int, labels: int):
    """Pixels, 4-neighbour pairs above them, and 2x2 cells above the pairs."""
    from blendsp import Region, RegionGraph

    regions, edges, pair_id = [], [], {}
    for v in range(size * size):
        regions.append(Region(v, (v,), (labels,)))
    for row in range(size):
        for col in range(size):
            v = row * size + col
            for u in ((v + 1,) if col + 1 < size else ()) + (
                (v + size,) if row + 1 < size else ()
            ):
                rid = len(regions)
                regions.append(Region(rid, (v, u), (labels, labels)))
                pair_id[(v, u)] = rid
                edges += [(rid, v), (rid, u)]
    for row in range(size - 1):
        for col in range(size - 1):
            a = row * size + col
            b, c, d = a + 1, a + size, a + size + 1
            rid = len(regions)
            regions.append(Region(rid, (a, b, c, d), (labels,) * 4))
            edges += [(rid, pair_id[p]) for p in ((a, b), (c, d), (a, c), (b, d))]
    return RegionGraph(regions, edges, size * size)


def _flat(labels: int, values) -> int:
    flat = 0
    for y in values:
        flat = flat * labels + int(y)
    return flat


def highorder(out: Path, seed: int) -> dict:
    """Three-level region graph with 4-label pixels, built through the
    exported Region/RegionGraph/Sample API and written with write_model.

    Shared tying over three features: unary evidence (the observed label),
    Potts agreement on pairs, and all-equal on 2x2 cells.  The truth image
    has four 3x3 quadrants labelled 0..3; each observed pixel is redrawn
    uniformly with probability 0.3, from the fixed corpus seed.  ``seed``
    picks one of the 24 relabellings of the test model.  Every feature and
    the loss are symmetric in the labels, so each relabelling poses the same
    problem and costs the same work, while its files differ.  The train model
    is not relabelled: its sums would run in another order, and train's
    iteration count moved from 223 to 242 across five relabellings.
    """
    from blendsp import Sample
    from blendsp.fileio import ParsedModel, write_model

    size, labels = HIGHORDER_SIZE, HIGHORDER_LABELS
    rng = np.random.default_rng(HIGHORDER_CORPUS_SEED)
    relabel = np.random.default_rng(seed).permutation(labels)
    half = size // 2
    truth = np.empty((size, size), dtype=np.int64)
    truth[:half, :half], truth[:half, half:] = 0, 1
    truth[half:, :half], truth[half:, half:] = 2, 3
    truth = truth.ravel()

    graph = _highorder_graph(size, labels)
    potts = np.array(
        [float(i == j) for i in range(labels) for j in range(labels)]
    )
    grid = np.indices((labels,) * 4).reshape(4, -1)
    all_equal = (grid == grid[0]).all(axis=0).astype(float)

    def make(sample_id: int, obs: np.ndarray, target: np.ndarray):
        features, loss, true_labels = {}, {}, {}
        for reg in graph.regions:
            ys = target[list(reg.variables)]
            true_labels[reg.id] = _flat(labels, ys)
            if len(reg.variables) == 1:
                v = reg.variables[0]
                features[reg.id] = {0: (np.arange(labels) == obs[v]).astype(float)}
                loss[reg.id] = (np.arange(labels) != target[v]).astype(float)
            elif len(reg.variables) == 2:
                features[reg.id] = {1: potts}
            else:
                features[reg.id] = {2: all_equal}
        return Sample(graph, sample_id, loss, features, true_labels)

    def observe():
        noisy = rng.random(truth.size) < HIGHORDER_NOISE
        return np.where(noisy, rng.integers(0, labels, truth.size), truth)

    train_obs = [observe() for _ in range(HIGHORDER_TRAIN)]
    test_obs = [relabel[observe()] for _ in range(HIGHORDER_TEST)]
    test_truth = relabel[truth]
    out.mkdir(parents=True, exist_ok=True)
    for name, observations, target in (("train", train_obs, truth),
                                       ("test", test_obs, test_truth)):
        samples = [make(i, obs, target) for i, obs in enumerate(observations)]
        with open(out / f"{name}.bsp", "w") as fh:
            write_model(ParsedModel(graph, samples, None, 3), fh)
    return {
        "truth": [test_truth.tolist()] * HIGHORDER_TEST,
        "observed": [obs.tolist() for obs in test_obs],
    }
