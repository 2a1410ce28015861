"""Synthetic binary-image denoising benchmarks on 2D grid models.

A width x height grid becomes a region graph with one binary singleton region
per pixel and one pairwise region per 4-neighbor edge (the pairwise regions
are the parents).  Samples corrupt a base image with flip, Gaussian or
bimodal mixture noise; the noisy observation of pixel i enters the unary
features as a signed value v_i = 2 * obs_i - 1, scoring +v_i for label 1 and
-v_i for label 0.  Pairwise features are fixed Ising agreement biases.  The
loss is per-pixel Hamming.  Generation is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Region, RegionGraph, Sample

__all__ = [
    "DenoiseSpec",
    "DenoiseDataset",
    "build_grid_graph",
    "make_denoise_dataset",
    "pixel_error",
    "cross_pattern",
]

# class-conditional mixture-of-Gaussians parameters for bimodal noise:
# (mean, std) pairs with equal mixing weights, per pixel class
BIMODAL_CLASS0 = ((0.08, 0.03), (0.46, 0.03))
BIMODAL_CLASS1 = ((0.55, 0.02), (0.42, 0.10))


@dataclass(frozen=True)
class DenoiseSpec:
    width: int
    height: int
    num_train: int
    num_test: int
    flip_prob: float | None = None
    gaussian_sigma: float | None = None
    bimodal: bool = False
    tying: str = "shared"  # shared | full
    seed: int = 0
    base_image: np.ndarray | None = None  # bit matrix (height, width)

    def __post_init__(self):
        chosen = sum(
            (self.flip_prob is not None, self.gaussian_sigma is not None, self.bimodal)
        )
        if chosen != 1:
            raise ValueError("exactly one noise model must be selected")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.num_train < 0 or self.num_test < 0:
            raise ValueError("sample counts must be nonnegative")
        if self.tying not in ("shared", "full"):
            raise ValueError("tying must be 'shared' or 'full'")
        if self.flip_prob is not None and not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("flip_prob must be in [0, 1]")
        if self.gaussian_sigma is not None and not np.isfinite(self.gaussian_sigma):
            raise ValueError("gaussian_sigma must be finite")
        if self.gaussian_sigma is not None and self.gaussian_sigma <= 0:
            raise ValueError("gaussian_sigma must be positive")


@dataclass
class DenoiseDataset:
    graph: RegionGraph
    train: list[Sample]
    test: list[Sample]
    base_image: np.ndarray
    num_features: int
    spec: DenoiseSpec


def build_grid_graph(width: int, height: int) -> RegionGraph:
    """Grid region graph: binary singletons per pixel, pairwise parents per
    4-neighbor edge."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    n = width * height
    regions = [Region(i, (i,), (2,)) for i in range(n)]
    edges = []
    rid = n
    for row in range(height):
        for col in range(width):
            i = row * width + col
            if col + 1 < width:
                regions.append(Region(rid, (i, i + 1), (2, 2)))
                edges += [(rid, i), (rid, i + 1)]
                rid += 1
            if row + 1 < height:
                j = i + width
                regions.append(Region(rid, (i, j), (2, 2)))
                edges += [(rid, i), (rid, j)]
                rid += 1
    return RegionGraph(regions, edges, n)


def cross_pattern(width: int, height: int) -> np.ndarray:
    """Built-in base image: a plus-shaped cross of ones."""
    img = np.zeros((height, width), dtype=np.int64)
    img[height // 2, :] = 1
    img[:, width // 2] = 1
    return img


# Ising agreement bias over (y_i, y_j) flattened row-major
_AGREE = np.array([1.0, -1.0, -1.0, 1.0])
_AGREE_IND = np.array([1.0, 0.0, 0.0, 1.0])
_DISAGREE_IND = np.array([0.0, 1.0, 1.0, 0.0])


def _observe(base: np.ndarray, spec: DenoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """One noisy observation per pixel, as a real matrix."""
    if spec.flip_prob is not None:
        flips = rng.random(base.shape) < spec.flip_prob
        return np.where(flips, 1 - base, base).astype(float)
    if spec.gaussian_sigma is not None:
        return base + rng.normal(0.0, spec.gaussian_sigma, base.shape)
    obs = np.zeros(base.shape)
    for cls, params in ((0, BIMODAL_CLASS0), (1, BIMODAL_CLASS1)):
        mask = base == cls
        count = int(mask.sum())
        if count == 0:
            continue
        comp = rng.integers(0, 2, count)
        draws = np.empty(count)
        for ci, (mean, std) in enumerate(params):
            sel = comp == ci
            draws[sel] = rng.normal(mean, std, int(sel.sum()))
        obs[mask] = draws
    return obs


def _make_sample(
    graph: RegionGraph,
    sample_id: int,
    base: np.ndarray,
    obs: np.ndarray,
    tying: str,
) -> Sample:
    n = base.size
    v = 2.0 * obs.ravel() - 1.0
    truth_bits = base.ravel()
    features: dict[int, dict[int, np.ndarray]] = {}
    loss: dict[int, np.ndarray] = {}
    truth: dict[int, int] = {}
    for r in range(graph.region_count):
        reg = graph.regions[r]
        if len(reg.variables) == 1:
            i = reg.variables[0]
            y = int(truth_bits[i])
            truth[r] = y
            tbl = np.ones(2)
            tbl[y] = 0.0
            loss[r] = tbl
            if tying == "shared":
                features[r] = {0: np.array([v[i], 0.0]), 1: np.array([0.0, v[i]])}
            else:
                features[r] = {r: np.array([-v[i], v[i]])}
        else:
            i, j = reg.variables
            truth[r] = int(truth_bits[i]) * 2 + int(truth_bits[j])
            if tying == "shared":
                features[r] = {2: _AGREE_IND.copy(), 3: _DISAGREE_IND.copy()}
            else:
                # full tying: the feature id is the region id itself
                features[r] = {r: _AGREE.copy()}
    return Sample(graph, sample_id, loss, features, truth)


def make_denoise_dataset(spec: DenoiseSpec) -> DenoiseDataset:
    """Grid model plus seeded train and test corpora.

    Shared tying emits 4 feature ids in total (2 unary, 2 pairwise); full
    tying emits one id per region.  The draw order is: base image (when not
    provided), then train observations, then test observations.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.base_image is not None:
        base = np.asarray(spec.base_image, dtype=np.int64)
        if base.shape != (spec.height, spec.width):
            raise ValueError("base image does not match the grid dimensions")
        if not np.isin(base, (0, 1)).all():
            raise ValueError("base image must be binary")
    else:
        base = rng.integers(0, 2, (spec.height, spec.width))
    graph = build_grid_graph(spec.width, spec.height)
    train = [
        _make_sample(graph, i, base, _observe(base, spec, rng), spec.tying)
        for i in range(spec.num_train)
    ]
    test = [
        _make_sample(graph, i, base, _observe(base, spec, rng), spec.tying)
        for i in range(spec.num_test)
    ]
    num_features = 4 if spec.tying == "shared" else graph.region_count
    return DenoiseDataset(graph, train, test, base, num_features, spec)


def pixel_error(predicted: list[np.ndarray], truth: list[np.ndarray]) -> tuple[int, float]:
    """Hamming mismatch count and percentage over a batch of label arrays."""
    if len(predicted) != len(truth):
        raise ValueError("prediction/truth batch sizes differ")
    total = 0
    wrong = 0
    for p, t in zip(predicted, truth):
        p = np.asarray(p)
        t = np.asarray(t)
        if p.shape != t.shape:
            raise ValueError("prediction/truth dimensions differ")
        wrong += int((p != t).sum())
        total += p.size
    if total == 0:
        return 0, 0.0
    return wrong, 100.0 * wrong / total
