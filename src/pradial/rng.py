"""Seedable, splittable random streams.

Streams are keyed by a (seed, stream_id) pair on top of the counter-based
Philox generator, so distinct stream ids give statistically independent
sequences and the same pair always reproduces the same draws.  A single
stream must not be shared between threads; parallel work splits streams.
_cpus is the count of CPUs that such work may use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# Children of stream s are s*_SPLIT_FANOUT + 1 + i, so the id space forms a
# tree and independently split streams never collide.
_SPLIT_FANOUT = 1 << 20


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
