import os

import numpy as np
from hypothesis import given, strategies as st

from pradial.rng import _BLOCK, RngStream, _row_blocks, _run_blocks


def test_reproducible_bit_pattern():
    a = RngStream(123, 4).gen.random(1000)
    b = RngStream(123, 4).gen.random(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).gen.random(100)
    b = RngStream(123, 1).gen.random(100)
    c = RngStream(124, 0).gen.random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_children_distinct_and_deterministic():
    parent = RngStream(7)
    kids = parent.split(5)
    ids = [k.stream_id for k in kids]
    assert len(set(ids)) == 5
    again = RngStream(7).split(5)
    for k1, k2 in zip(kids, again):
        assert k1.stream_id == k2.stream_id
        assert np.array_equal(k1.gen.random(10), k2.gen.random(10))
    # grandchildren do not collide with children
    grand = kids[0].split(5)
    assert not set(g.stream_id for g in grand) & set(ids)


def test_fresh_restarts_sequence():
    s = RngStream(9)
    first = s.gen.random(5)
    again = s.fresh().gen.random(5)
    assert np.array_equal(first, again)


def test_split_streams_look_independent():
    a, b = RngStream(1).split(2)
    x = a.gen.random(20000)
    y = b.gen.random(20000)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.03


@given(rows=st.integers(0, 400), width=st.integers(0, 60),
       cells=st.integers(1, 300))
def test_row_blocks_cut_rows_in_order_within_the_budget(rows, width, cells):
    blocks = _row_blocks(rows, width, cells)
    assert blocks[0].start == 0 and blocks[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    # as many rows as fit in cells, at least one, and fewer only at the end
    step = max(1, cells // max(1, width))
    assert all(size == step for size in sizes[:-1])
    assert 1 <= sizes[-1] <= step or rows == 0
    assert all(size * max(1, width) <= cells or size == 1 for size in sizes)


def test_row_blocks_edges():
    assert _row_blocks(0, 7) == [slice(0, 0)]
    assert _row_blocks(5, 0, 2) == _row_blocks(5, 1, 2)
    assert _row_blocks(3, 10, 4) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert _row_blocks(2 * _BLOCK + 1, 1) == [
        slice(0, _BLOCK), slice(_BLOCK, 2 * _BLOCK),
        slice(2 * _BLOCK, 2 * _BLOCK + 1)]


def test_run_blocks_caps_the_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    for cap, want in [(0, 5), (2, 2), (9, 5)]:
        got = []
        _run_blocks(range(5), lambda mine, buf: got.append(list(mine)), 3,
                    cap)
        assert sorted(got) == sorted([list(range(k, 5, want))
                                      for k in range(want)])
