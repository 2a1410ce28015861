"""The tempered soft-max of segmented rows, and the segment reductions under it.

``SoftMax`` is the package's one tempered log-sum-exp (``inference``'s
module docstring says where it runs).  Its per-segment max, min and sum come
from ``SegmentReduce``, over the columns of batch-major rows, or from
``BlockReduce``, over sample-minor rows that hold the segments fiber-major.
Both give the bytes of ``ufunc.reduceat`` on the batch-major rows.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

STRIDED_MIN_WORK = 100  # measured: where a strided max and sum cost what reduceat's do


class SegmentReduce:
    """Per-segment max, min and sum over the last axis of rows whose columns
    form consecutive segments, the i-th from ``starts[i]`` to the next start
    (the last to ``width``): the results of ``ufunc.reduceat(v, starts,
    axis=-1)``, bit for bit (a NaN sum may differ in its sign bit).

    ``reduceat`` costs about as much per segment as a strided elementwise
    call costs per row.  So when every segment is at most 8 wide and batch x
    segments is at least ``STRIDED_MIN_WORK`` times the summed width of the
    runs of equal-width segments, a run of width k is reduced with k - 1
    strided calls (``v[..., j::k]``); otherwise with one ``reduceat``.  The
    strided sum is a0 + (((a1 + a2) + a3) + ...), which is what
    ``np.add.reduceat`` computes: numpy adds the fewer than 8 terms after a
    segment's first one after another (longer tails it sums pairwise).
    """

    def __init__(self, starts: np.ndarray, width: int):
        self.starts = np.asarray(starts, dtype=np.int64)
        bounds = np.concatenate((self.starts, [width]))
        widths = bounds[1:] - bounds[:-1]
        changes = ((widths[1:] != widths[:-1]).nonzero()[0] + 1).tolist()
        cut = [0, *changes, len(widths)] if len(widths) else []
        at, wide = bounds.tolist(), widths.tolist()
        # runs of equal widths: (first column, end column, width, first and end segment)
        self.runs = [(at[s], at[e], wide[s], s, e) for s, e in zip(cut, cut[1:])]
        run_widths = [run[2] for run in self.runs]
        narrow = bool(run_widths) and 1 <= min(run_widths) and max(run_widths) <= 8
        self.min_batch = STRIDED_MIN_WORK * sum(run_widths) / len(wide) if narrow else np.inf

    def _strided(self, v: np.ndarray) -> bool:
        return (v.shape[0] if v.ndim > 1 else 1) >= self.min_batch

    def max(self, v: np.ndarray) -> np.ndarray:
        return self._fold(np.maximum, v)

    def min(self, v: np.ndarray) -> np.ndarray:
        return self._fold(np.minimum, v)

    def _fold(self, ufunc, v: np.ndarray) -> np.ndarray:
        """Per segment, ((a0 op a1) op a2) op ..."""
        if not self._strided(v):
            return ufunc.reduceat(v, self.starts, axis=-1)
        out = np.empty(v.shape[:-1] + (len(self.starts),))
        for a, b, k, s, e in self.runs:
            o = out[..., s:e]
            if k == 1:
                np.copyto(o, v[..., a:b])
            else:
                ufunc(v[..., a:b:k], v[..., a + 1 : b : k], out=o)
                for j in range(2, k):
                    ufunc(o, v[..., a + j : b : k], out=o)
        return out

    def sum(self, v: np.ndarray) -> np.ndarray:
        if not self._strided(v):
            return np.add.reduceat(v, self.starts, axis=-1)
        out = np.empty(v.shape[:-1] + (len(self.starts),))
        for a, b, k, s, e in self.runs:
            o = out[..., s:e]
            if k == 1:
                np.copyto(o, v[..., a:b])
            elif k == 2:
                np.add(v[..., a:b:2], v[..., a + 1 : b : 2], out=o)
            else:
                np.add(v[..., a + 1 : b : k], v[..., a + 2 : b : k], out=o)
                for j in range(3, k):
                    o += v[..., a + j : b : k]
                np.add(v[..., a:b:k], o, out=o)
        return out

    def shaped(self, a: np.ndarray) -> np.ndarray:
        """Per-segment or per-column values, shaped to broadcast against rows."""
        return a

    def spread(self, g: np.ndarray, segment: np.ndarray) -> np.ndarray:
        """Each column's value of the per-segment ``g``, ``segment`` giving
        each column's segment."""
        return g.take(segment, axis=-1)

    def subtract(self, v: np.ndarray, g: np.ndarray, segment: np.ndarray) -> np.ndarray:
        """``v`` minus each column's value of the per-segment ``g``."""
        e = self.spread(g, segment)
        return np.subtract(v, e, out=e)


# A run of 9 or more values in a row numpy reduces in 8 lanes (its sum
# pairwise, its max and min in SIMD lanes); ``BlockReduce`` replays both
# orders on whole blocks rather than per value.
LANES = 8
PAIRWISE_BLOCK = 128  # numpy's pairwise sum halves longer runs


def pairwise_sum(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the n blocks ``blocks[0], blocks[1], ...``,
    elementwise, into ``out``: under 8 terms added one after another, up to
    128 in 8 lanes that are then added as a tree and followed by the rest,
    longer runs split into halves of a multiple of 8 and summed so."""
    n = len(blocks)
    if n > PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % LANES
        right = pairwise_sum(blocks[half:], np.empty_like(out))
        return np.add(pairwise_sum(blocks[:half], out), right, out=out)
    if n < LANES:
        np.copyto(out, blocks[0]) if n == 1 else np.add(blocks[0], blocks[1], out=out)
        end = min(n, 2)
    else:
        end = n - n % LANES
        r = blocks[:LANES]
        if end > LANES:
            r = r + blocks[LANES : 2 * LANES]
            for i in range(2 * LANES, end, LANES):
                r += blocks[i : i + LANES]
        r = r[0::2] + r[1::2]  # (r0 + r1), (r2 + r3), (r4 + r5), (r6 + r7)
        np.add(r[0] + r[1], r[2] + r[3], out=out)
    for j in range(end, n):
        out += blocks[j]
    return out


def _fold(ufunc, blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's ``ufunc.reduce`` of the blocks elementwise, into ``out``: under
    9 blocks a fold, (b0 op b1) op b2 ...; beyond, 8 lanes that start at
    b0, take 64 blocks at a time as a tree and then 8 at a time, then fold
    high half onto low half down to one lane, then the rest in turn."""
    k = len(blocks)
    if k <= LANES:
        np.copyto(out, blocks[0]) if k == 1 else ufunc(blocks[0], blocks[1], out=out)
        for j in range(2, k):
            ufunc(out, blocks[j], out=out)
        return out
    acc, i = blocks[0][None], 1
    while k - i >= LANES * LANES:
        w = blocks[i : i + LANES * LANES].reshape(LANES, LANES, *blocks.shape[1:])
        w = ufunc(w[0::2], w[1::2])
        w = ufunc(w[0::2], w[1::2])
        acc = ufunc(acc, ufunc(w[0], w[1]))
        i += LANES * LANES
    while k - i >= LANES:
        acc = ufunc(acc, blocks[i : i + LANES])
        i += LANES
    acc = ufunc(acc[4:], acc[:4])
    acc = ufunc(acc[2:], acc[:2])
    ufunc(acc[0], acc[1], out=out)
    for j in range(i, k):
        ufunc(out, blocks[j], out=out)
    return out


@functools.cache
def _lanes_match() -> bool:
    """Whether ``_fold`` gives numpy's contiguous max and min reductions
    here, signed zeros included; their lanes follow the SIMD extensions
    numpy dispatches to.  Checked once, on first need, on 9 to 137 values
    per group."""
    for k in (9, 16, 24, 72, 137):
        # zeros of hashed signs and a few ones, from calls the kernel makes
        # anyway (numpy.random, or new loops, would cost memory)
        bits = np.arange(32 * k) * 40503 % 65536
        v = np.where(bits % 20 == 0, 1.0, 0.0) * np.where(bits // 128 % 2 == 1, -1.0, 1.0)
        v = v.reshape(2, 16 * k)
        blocks = np.ascontiguousarray(v.reshape(2, 16, k).transpose(2, 1, 0))
        for ufunc in (np.maximum, np.minimum):
            want = ufunc.reduceat(v, np.arange(16) * k, axis=-1)
            if _fold(ufunc, blocks, np.empty((16, 2))).T.tobytes() != want.tobytes():
                return False
    return True


class BlockReduce:
    """Per-group max, min and sum over the rows of (rows, samples) arrays
    whose rows hold the groups fiber-major: one class per group width k, of
    S groups, its k * S rows k blocks of S rows, block j the j-th value of
    every group.  The results, (groups, samples), are those of
    ``ufunc.reduceat`` over each group's values in a row of a batch-major
    copy, bit for bit (a NaN may differ in its sign bit): a class is reduced
    with ``_fold`` or ``pairwise_sum`` calls on whole blocks, except a max
    or min of more than 8 values where ``_fold`` is not numpy's order
    (``_lanes_match``), which ``reduceat`` gives on a batch-major copy of
    the class."""

    def __init__(self, widths, counts):
        widths, counts = np.asarray(widths, dtype=np.int64), np.asarray(counts, dtype=np.int64)
        sizes = widths * counts
        self.rows, self.groups = int(sizes.sum()), int(counts.sum())
        at, first = (np.cumsum(sizes) - sizes).tolist(), (np.cumsum(counts) - counts).tolist()
        # per class: first row, width, groups, first group
        self.classes = list(zip(at, widths.tolist(), counts.tolist(), first))

    def _reduce(self, v: np.ndarray, ufunc, blocks_op, lanes=None) -> np.ndarray:
        """Per class, ``blocks_op`` on its blocks or ``ufunc.reduceat``; a
        ``lanes`` check, if given, must pass for more than 8 blocks."""
        out = np.empty((self.groups, v.shape[1]))
        for a, k, s, g in self.classes:
            blocks, o = v[a : a + k * s].reshape(k, s, -1), out[g : g + s]
            if k <= LANES or lanes is None or lanes():
                blocks_op(blocks, o)
            else:
                copy = np.ascontiguousarray(blocks.transpose(2, 1, 0)).reshape(-1, s * k)
                o[...] = ufunc.reduceat(copy, np.arange(0, s * k, k), axis=-1).T
        return out

    def max(self, v: np.ndarray) -> np.ndarray:
        return self._reduce(v, np.maximum, functools.partial(_fold, np.maximum), _lanes_match)

    def min(self, v: np.ndarray) -> np.ndarray:
        return self._reduce(v, np.minimum, functools.partial(_fold, np.minimum), _lanes_match)

    def sum(self, v: np.ndarray) -> np.ndarray:
        return self._reduce(v, np.add, _block_sum)

    def shaped(self, a: np.ndarray) -> np.ndarray:
        return a[:, None]

    def _blocks(self, *arrays):
        """Per class, its rows of each array as (k, S, samples) and its groups."""
        for a, k, s, g in self.classes:
            yield [x[a : a + k * s].reshape(k, s, -1) for x in arrays], slice(g, g + s)

    def spread(self, g: np.ndarray, segment=None) -> np.ndarray:
        """``SegmentReduce.spread``; the classes give each row's group."""
        out = np.empty((self.rows, g.shape[1]))
        for (o,), at in self._blocks(out):
            o[...] = g[at]
        return out

    def subtract(self, v: np.ndarray, g: np.ndarray, segment=None) -> np.ndarray:
        out = np.empty_like(v)
        for (x, o), at in self._blocks(v, out):
            np.subtract(x, g[at], out=o)
        return out


def _block_sum(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """b0 + (the pairwise sum of the rest): ``np.add.reduceat``'s order."""
    if len(blocks) == 1:
        np.copyto(out, blocks[0])
        return out
    return np.add(blocks[0], pairwise_sum(blocks[1:], out), out=out)


# absolute tie tolerance of ``SoftMax``'s zero-temperature segments; a fixed
# value keeps zero-temperature runs reproducible
ARGMAX_TOL = 1e-9


class GibbsPass(NamedTuple):
    """One max, exp and sum pass over table rows (``SoftMax``)."""

    exps: np.ndarray  # exponentials, tie indicators in zero-temperature segments
    sums: np.ndarray  # their per-segment sums
    lse: np.ndarray  # log-partitions t*log(sum(exp(./t))), the max at t = 0

    def beliefs(self, layout) -> np.ndarray:
        """Per-segment Gibbs normalization of the rows."""
        return self.exps / self.sums.take(layout.segment, axis=-1)


class SoftMax:
    """The tempered soft-max of rows whose columns form segments (reduced by
    ``segments``; ``segment`` is each column's) at temperatures t = eps *
    coeff per segment; calling it on rows gives their ``GibbsPass``.

    A zero-temperature segment tie-breaks toward its max (coeff >= 0) or its
    min (coeff < 0), matching the limit of exp(v / (eps * coeff)) as eps
    approaches zero; its log-partition is the max either way.  Every other
    segment is centred on its max (t > 0) or min (t < 0), so its exponentials
    serve both results.
    """

    def __init__(self, segments, segment: np.ndarray, eps: float, coeff):
        self.segments, self.segment = segments, segment
        shaped = segments.shaped  # SegmentReduce's segments are columns, BlockReduce's rows
        t = eps * coeff
        self.t = shaped(t)
        use_min = np.where(t == 0, coeff < 0, t < 0)
        self.use_min = shaped(use_min) if use_min.any() else None
        zero = t[segment] == 0
        self.zero = shaped(zero) if zero.any() else None
        self.min_col = shaped(use_min[segment])
        t_col = np.where(zero, 1.0, t[segment])
        # x / 1.0 and x * 1.0 are x bit for bit, so unit temperatures skip the
        # division and the log-partition's multiply
        self.t_col = None if (t_col == 1.0).all() else shaped(t_col)
        self.t_lse = None if (t == 1.0).all() else self.t
        self.t_zero = shaped(t == 0) if (t == 0).any() else None

    def __call__(self, v: np.ndarray) -> GibbsPass:
        reduce = self.segments
        mx = m = reduce.max(v)
        if self.use_min is not None:
            m = np.where(self.use_min, reduce.min(v), mx)
        if self.zero is not None:
            e = reduce.spread(m, self.segment)
            tie = np.where(self.min_col, v <= e + ARGMAX_TOL, v >= e - ARGMAX_TOL)
            del e
        e = reduce.subtract(v, m, self.segment)
        if self.t_col is not None:
            e /= self.t_col
        if self.zero is not None:
            np.copyto(e, 0.0, where=self.zero)
        np.exp(e, out=e)
        if self.zero is not None:
            np.copyto(e, tie, where=self.zero)
        z = reduce.sum(e)
        # z >= 1 at t = 0 (the extreme ties with itself), so the log is finite
        lse = np.log(z)
        if self.t_lse is not None:
            lse *= self.t_lse
        lse += m
        if self.t_zero is not None:
            lse = np.where(self.t_zero, mx, lse)
        return GibbsPass(e, z, lse)
