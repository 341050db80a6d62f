import hashlib

import numpy as np

from sparsefn.streams import STREAM_SCHEME, Stream, generator

TAGS = ("cell", [["d", 100]], "xi")


def test_scheme_2_golden_vector():
    # pins the scheme-2 layout: the key is the first 16 bytes of
    # SHA-256("<seed>|<canonical tags>") as two little-endian words, and
    # replicate r reads the uniforms of its own counter segment
    assert STREAM_SCHEME == 2
    stream = Stream(2024, *TAGS)
    digest = hashlib.sha256(b"2024|['cell',[['d',100]],'xi']").digest()
    assert [int(w) for w in stream.key] == [int.from_bytes(digest[i:i + 8], "little")
                                            for i in (0, 8)]
    assert [int(w) for w in stream.key] == [1576932181827972335, 7579044285742864319]
    u = stream.uniforms(3, 5)
    assert [[x.hex() for x in row] for row in u.tolist()] == [
        ["0x1.375d5214501a5p-1", "0x1.e11e44ad601a0p-6", "0x1.c192cf1e0c620p-2",
         "0x1.67c00ae7cfe40p-7", "0x1.ff3a936712f2cp-3"],
        ["0x1.1850a404e7b44p-1", "0x1.3bdd8724d081cp-3", "0x1.8d9b1cf3368f8p-1",
         "0x1.b8a1d700d8f88p-1", "0x1.a027b6e60ef2cp-2"],
        ["0x1.dc1328b592644p-2", "0x1.63c53ec4cf77fp-1", "0x1.db29faf41f5b6p-2",
         "0x1.949cff1daaec2p-2", "0x1.4b7db77b1d200p-4"],
    ]


def test_replicate_segment_starts_at_its_own_counter():
    # width 5 rounds up to 2 Philox blocks of 4 words: segment r starts at counter 2r
    stream = Stream(7, "segment")
    u = stream.uniforms(4, 5)
    for r in range(4):
        bits = np.random.Philox(key=stream.key, counter=2 * r)
        np.testing.assert_array_equal(u[r], np.random.Generator(bits).random(5))


def test_uniform_blocks_have_the_prefix_property():
    stream = Stream(11, "prefix")
    for width in (1, 4, 7, 130):
        short, long = stream.uniforms(3, width), stream.uniforms(6, width)
        np.testing.assert_array_equal(short, long[:3])


def test_distinct_tags_and_seeds_give_distinct_streams():
    a = Stream(1, *TAGS).uniforms(2, 8)
    assert not np.array_equal(a, Stream(2, *TAGS).uniforms(2, 8))
    assert not np.array_equal(a, Stream(1, "cell", [["d", 101]], "xi").uniforms(2, 8))
    assert not np.array_equal(a, Stream(1, "cell", [["d", 100]], "theta").uniforms(2, 8))


def test_fallback_is_keyed_by_seed_tags_and_replicate():
    stream = Stream(5, *TAGS)
    np.testing.assert_array_equal(stream.fallback(3).random(4),
                                  generator(5, *TAGS, 3).random(4))
    assert not np.array_equal(stream.fallback(3).random(4), stream.fallback(4).random(4))
