"""``SegmentReduce`` against ``np.maximum/minimum/add.reduceat``, bit for bit.

The helper picks its path from the shapes: strided elementwise calls for
narrow tables in few runs at a large enough batch, ``reduceat`` otherwise.
Both paths must give the bytes of ``reduceat``, including signed zeros,
infinities and, for max and min, NaNs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp.datagen import build_grid_graph
from blendsp.inference import SegmentReduce, sweep_plan

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def check(reduce, v):
    starts = reduce.starts
    assert reduce.max(v).tobytes() == np.maximum.reduceat(v, starts, axis=-1).tobytes()
    assert reduce.min(v).tobytes() == np.minimum.reduceat(v, starts, axis=-1).tobytes()
    # a sum's NaN takes the sign of whichever operand the compiled loop puts
    # first, so sums are checked on zeros of both signs and +inf only
    v = np.where(np.isnan(v) | (v == -np.inf), -0.0, v)
    assert reduce.sum(v).tobytes() == np.add.reduceat(v, starts, axis=-1).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sorted", "alternating", "random"]),
    st.sampled_from([1, 4, 10]),
    st.sampled_from([8, 12]),
)
def test_segment_reduce_matches_reduceat_bitwise(seed, order, batch, widest):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    if order == "alternating":
        widths = np.resize(rng.integers(1, widest + 1, 2), n)
    else:
        widths = rng.integers(1, widest + 1, n)
        if order == "sorted":
            widths = np.sort(widths)
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    v = rng.normal(size=(batch, int(widths.sum()))) * 10.0 ** rng.integers(-3, 4)
    special = rng.random(v.shape) < 0.2
    v[special] = rng.choice(SPECIAL, int(special.sum()))
    reduce = SegmentReduce(starts, int(widths.sum()))
    with np.errstate(invalid="ignore"):
        check(reduce, v)  # the path the shapes pick
        check(reduce, v[0])  # one row without a batch axis
        if widths.max() <= 8:
            reduce.min_batch = 0  # the strided path at any batch
            check(reduce, v)
            check(reduce, v[0])


def test_the_shapes_pick_the_path():
    # the 10x10 grid: 2-label pixels and 4-label pairs, in two runs; each
    # level's soft-max groups are 2 wide
    layout = build_grid_graph(10, 10).layout()
    assert [run[2] for run in layout.segments.runs] == [2, 4]
    assert 1 < layout.segments.min_batch <= 10  # a batch of one keeps reduceat
    for level in sweep_plan(layout).levels:
        assert level.groups.min_batch <= 10
        assert level.segments.min_batch <= 10
    # the highorder benchmark layout: 36 4-label pixels, 60 16-label pairs
    # and 25 256-label cells keep reduceat at any batch
    widths = np.repeat([4, 16, 256], [36, 60, 25])
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    assert SegmentReduce(starts, int(widths.sum())).min_batch == np.inf
    # many short runs keep reduceat at batch 10: alternating 2- and 4-wide
    # tables, and random widths 2 to 8
    rng = np.random.default_rng(3)
    for widths in (np.resize([2, 4], 200), rng.integers(2, 9, 200)):
        starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
        assert SegmentReduce(starts, int(widths.sum())).min_batch > 10
