"""Seedable, splittable random streams.

Streams are keyed by a (seed, stream_id) pair on top of the counter-based
Philox generator, so distinct stream ids give statistically independent
sequences and the same pair always reproduces the same draws.  A single
stream must not be shared between threads; parallel work splits streams.
_row_blocks cuts every row loop of the package into blocks, _cpus counts
the CPUs such work may use and _run_blocks runs the blocks on them.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

# Children of stream s are s*_SPLIT_FANOUT + 1 + i, so the id space forms a
# tree and independently split streams never collide.
_SPLIT_FANOUT = 1 << 20
_BLOCK = 1 << 16  # cells a row block may hold, in every blocked loop


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(rows: int, width: int, cells: int = _BLOCK) -> list[slice]:
    """In-order slices of range(rows) of at most cells cells, width a row
    (0 counts as 1), and at least one row; one empty slice at rows 0."""
    step = max(1, cells // max(1, width))
    return [slice(i, min(i + step, rows)) for i in range(0, rows or 1, step)]


def _run_blocks(blocks, run, scratch: int = 0, cap: int = 0) -> None:
    """run(blocks[k::workers], buf) for each of one worker per CPU, at most
    one per block and at most cap if cap is set, each on a thread of its
    own: worker 0 is the calling thread, so a call of one block starts no
    thread.  buf is the worker's scratch floats, allocated here so that no
    thread's malloc arena keeps them.  No thread outlives the call, and
    the first exception of a worker reaches the caller."""
    workers, failed = min(_cpus(), len(blocks), cap or len(blocks)), []
    bufs = np.empty((workers, scratch))

    def work(k):
        try:
            run(blocks[k::workers], bufs[k])
        except BaseException as exc:  # raised again in the calling thread
            failed.append(exc)

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]


@dataclass
class RngStream:
    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            key = ((int(self.seed) & (2**64 - 1)) << 64) | (int(self.stream_id) & (2**64 - 1))
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def split(self, k: int) -> list["RngStream"]:
        """Derive k unused child streams without consuming this stream."""
        base = self.stream_id * _SPLIT_FANOUT + 1
        return [RngStream(self.seed, base + i) for i in range(k)]

    def fresh(self) -> "RngStream":
        """A copy rewound to the start of the sequence."""
        return RngStream(self.seed, self.stream_id)
