"""Deterministic, splittable random streams.

Every random draw in the package comes from a Philox counter-based bit
generator keyed by a SHA-256 hash of (seed, context tags).  Tags are
canonicalized with repr, so identical (seed, tags) pairs give bit-identical
streams on any platform, while distinct tags give independent streams.

Stream scheme 2 (``STREAM_SCHEME``): a :class:`Stream` hashes (seed, tags)
once into a 128-bit Philox key, and replicate r reads counter segment r of
that one stream (Salmon et al., SC'11, "Random numbers: as easy as 1, 2,
3").  A segment is a fixed number of 4-word Philox blocks, so
``Stream.uniforms(R, width)`` draws the uniforms of replicates 0..R-1 as one
(R, width) block, and replicate r's draws depend neither on R nor on the
other replicates: a run with more replicates repeats the draws of a shorter
one (the prefix property).  Replicate r's segment starts at Philox counter
``r * ceil(width / 4)``.

``generator(seed, *tags)`` builds a free-running generator through a
``SeedSequence``; it serves draws of unbounded length, such as the
per-replicate fallback stream ``Stream.fallback(r)``.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

import numpy as np

__all__ = ["STREAM_SCHEME", "Stream", "generator"]

STREAM_SCHEME = 2


def _canon(tag) -> str:
    if isinstance(tag, (tuple, list)):
        return "[" + ",".join(_canon(t) for t in tag) + "]"
    if isinstance(tag, (np.integer,)):
        return repr(int(tag))
    if isinstance(tag, (np.floating,)):
        return repr(float(tag))
    return repr(tag)


def _digest(seed: int, tags: tuple) -> bytes:
    return hashlib.sha256(f"{int(seed)}|{_canon(tags)}".encode("utf-8")).digest()


def generator(seed: int, *tags) -> np.random.Generator:
    digest = _digest(seed, tags)
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(words)))


class Stream:
    """The scheme-2 stream of (seed, tags): one Philox key, one counter
    segment per replicate."""

    def __init__(self, seed: int, *tags) -> None:
        self.seed = int(seed)
        self.tags = tags

    @cached_property
    def key(self) -> np.ndarray:
        """The first 16 bytes of SHA-256(seed, tags) as two little-endian words."""
        return np.frombuffer(_digest(self.seed, self.tags)[:16], dtype="<u8").copy()

    def uniforms(self, replicates: int, width: int) -> np.ndarray:
        """(replicates, width) uniforms in [0, 1); row r is replicate r's segment."""
        blocks = -(-int(width) // 4)
        bits = np.random.Philox(key=self.key)
        return np.random.Generator(bits).random((int(replicates), 4 * blocks))[:, :width]

    def fallback(self, r: int) -> np.random.Generator:
        """Replicate r's own free-running stream, keyed by (seed, tags, r), for
        draws that run past the replicate's segment."""
        return generator(self.seed, *self.tags, int(r))
