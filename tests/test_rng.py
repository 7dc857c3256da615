"""Counter-based RNG: mixing, streams, fan-out.

Oracle: an independent SplitMix64 implementation typed from the published
reference algorithm (state += golden; two xorshift-multiply rounds; final
xorshift).  Its first output from state 0 is the widely published vector
0xE220A8397B1DCDAF, which pins this file's oracle to the outside world, and
``mix64`` must equal the finalizer part of it word for word.
"""
from __future__ import annotations

import numpy as np
import pytest

from trapclock.rng import (
    ENV_FANOUT,
    GOLDEN,
    MASK64,
    TRAJ_FANOUT,
    Stream,
    hash_coords,
    hash_rows,
    hash_words,
    mix64,
    mix64_array,
    unit_from,
    units_from,
)

_M = (1 << 64) - 1


def _oracle_finalizer(z: int) -> int:
    # Reference SplitMix64 output stage, written independently of the package.
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _oracle_chain(seed: int, words) -> int:
    h = seed & _M
    for w in words:
        h = _oracle_finalizer(((h ^ (w & _M)) * 0x9E3779B97F4A7C15 & _M) ^ 0x9E3779B97F4A7C15)
    return h


# ---------------------------------------------------------------------------
# mix64
# ---------------------------------------------------------------------------


def test_mix64_published_anchor():
    # splitmix64 seeded with 0 emits finalizer(0 + GOLDEN) first; the published
    # value of that first output is 0xE220A8397B1DCDAF.
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF


def test_mix64_frozen_vectors():
    assert mix64(0) == 0x0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(_M) == 0xB4D055FCF2CBBD7B


def test_mix64_matches_oracle_on_random_words():
    rng = np.random.default_rng(7)
    for w in rng.integers(0, 1 << 64, size=200, dtype=np.uint64):
        assert mix64(int(w)) == _oracle_finalizer(int(w))


def test_mix64_reduces_mod_2_64():
    assert mix64((1 << 64) + 5) == mix64(5)
    assert mix64(-1) == mix64(_M)


def test_mix64_is_injective_on_sample():
    rng = np.random.default_rng(11)
    words = rng.integers(0, 1 << 64, size=20000, dtype=np.uint64)
    outs = {mix64(int(w)) for w in words[:2000]}
    assert len(outs) == 2000


def test_mix64_avalanche():
    # Flipping one input bit should flip about half the output bits.
    rng = np.random.default_rng(13)
    flips = []
    for _ in range(400):
        w = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        b = int(rng.integers(0, 64))
        flips.append(bin(mix64(w) ^ mix64(w ^ (1 << b))).count("1"))
    flips = np.asarray(flips, dtype=float)
    assert 28.0 < flips.mean() < 36.0
    assert flips.min() >= 10 and flips.max() <= 54


def test_mix64_array_matches_scalar():
    rng = np.random.default_rng(17)
    words = rng.integers(0, 1 << 64, size=1000, dtype=np.uint64)
    vec = mix64_array(words)
    for w, v in zip(words[:100], vec[:100]):
        assert int(v) == mix64(int(w))


# ---------------------------------------------------------------------------
# hash_words / hash_coords
# ---------------------------------------------------------------------------


def test_hash_words_matches_oracle():
    rng = np.random.default_rng(19)
    for _ in range(100):
        seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        words = [int(w) for w in rng.integers(0, 1 << 64, size=3, dtype=np.uint64)]
        assert hash_words(seed, *words) == _oracle_chain(seed, words)


def test_hash_words_order_sensitive():
    assert hash_words(0, 1, 2) != hash_words(0, 2, 1)


def test_hash_words_negative_words_wrap():
    assert hash_words(5, -1) == hash_words(5, _M)
    assert hash_words(5, -3, 7) == hash_words(5, _M - 2, 7)


def test_hash_words_empty_is_seed():
    assert hash_words(12345) == 12345
    assert hash_words(-1) == _M


def test_hash_coords_matches_hash_words_rowwise():
    rng = np.random.default_rng(23)
    coords = rng.integers(-(10**9), 10**9, size=(50, 3), dtype=np.int64)
    out = hash_coords(99, coords)
    assert out.dtype == np.uint64
    for row, h in zip(coords, out):
        assert int(h) == hash_words(99, *(int(c) for c in row))


def test_hash_rows_matches_hash_words_per_seed():
    # per-seed words beside words shared by every seed; seeds and words
    # past 2^63
    seeds = np.array([0, 5, MASK64, 1 << 63], dtype=np.uint64)
    ks = np.array([3, 0, 17, MASK64], dtype=np.uint64)
    out = hash_rows(seeds, TRAJ_FANOUT, ks, 1)
    assert out.dtype == np.uint64
    for s, k, h in zip(seeds.tolist(), ks.tolist(), out.tolist()):
        assert h == hash_words(s, TRAJ_FANOUT, k, 1)


def test_hash_coords_per_row_seeds_match_hash_words():
    # one seed per row, seeds past 2^63 and negative coordinates
    rng = np.random.default_rng(29)
    coords = rng.integers(-(10**9), 10**9, size=(40, 2), dtype=np.int64)
    seeds = rng.integers(0, 2**64, size=40, dtype=np.uint64)
    seeds[:2] = (MASK64, 1 << 63)
    out = hash_coords(seeds, coords)
    for s, row, h in zip(seeds.tolist(), coords.tolist(), out.tolist()):
        assert h == hash_words(s, *row)
    assert out[0] != hash_coords(int(seeds[1]), coords[:1])[0]


def test_hash_coords_accepts_single_point():
    h = hash_coords(7, np.array([3, -4], dtype=np.int64))
    assert h.shape == (1,)
    assert int(h[0]) == hash_words(7, 3, -4)


# ---------------------------------------------------------------------------
# unit_from
# ---------------------------------------------------------------------------


def test_unit_from_extremes_strictly_inside():
    lo = unit_from(0)
    hi = unit_from(_M)
    assert lo == 2.0**-53
    assert hi == 1.0 - 2.0**-53
    assert 0.0 < lo < hi < 1.0


def test_unit_from_midpoint_formula():
    # h >> 12 keeps the top 52 bits; cell k maps to (k + 0.5) * 2^-52, which is
    # exact in float64 for every k (53-bit cells would round the top cell to 1.0).
    h = (1 << 63) | 0xFFF  # low 12 bits must not matter
    assert unit_from(h) == unit_from(1 << 63) == (2.0**51 + 0.5) * 2.0**-52


def test_units_from_matches_scalar():
    rng = np.random.default_rng(29)
    hs = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
    vec = units_from(hs)
    for h, u in zip(hs, vec):
        assert u == unit_from(int(h))


# ---------------------------------------------------------------------------
# Stream
# ---------------------------------------------------------------------------


def test_stream_element_is_hash_of_seed_domain_index():
    s = Stream(seed=42, domain=0xD12EC7)
    for k in (0, 1, 2, 17, 10**6):
        assert s.uniform(k) == unit_from(hash_words(hash_words(42, 0xD12EC7), k))


def test_stream_uniforms_match_scalar_path():
    s = Stream(seed=1, domain=3)
    block = s.uniforms(5, 64)
    assert block.shape == (64,)
    for i, u in enumerate(block):
        assert u == s.uniform(5 + i)


def test_stream_uniformity_ks():
    u = Stream(seed=2024, domain=0x401DD).uniforms(0, 100_000)
    u = np.sort(u)
    n = u.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
    assert ks < 0.01  # 1.36/sqrt(n) ~ 0.0043 at the 5% level
    assert abs(u.mean() - 0.5) < 4 * (1 / np.sqrt(12 * n))


def test_stream_domain_separation():
    a = Stream(seed=9, domain=0xD12EC7).uniforms(0, 10_000)
    b = Stream(seed=9, domain=0x401DD).uniforms(0, 10_000)
    assert not np.any(a == b)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_stream_seed_separation():
    a = Stream(seed=1, domain=5).uniforms(0, 10_000)
    b = Stream(seed=2, domain=5).uniforms(0, 10_000)
    assert not np.any(a == b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_fanout_constants_distinct():
    assert ENV_FANOUT != TRAJ_FANOUT
    seeds = {hash_words(123, ENV_FANOUT, i) for i in range(100)}
    assert len(seeds) == 100
    # replica fan-out: same env, different trajectory index
    t0 = hash_words(next(iter(seeds)), TRAJ_FANOUT, 0)
    t1 = hash_words(next(iter(seeds)), TRAJ_FANOUT, 1)
    assert t0 != t1


def test_stream_is_stateless():
    s = Stream(seed=77, domain=1)
    first = s.uniform(3)
    s.uniforms(0, 1000)
    assert s.uniform(3) == first


@pytest.mark.parametrize("count", [0, 1, 7])
def test_stream_uniforms_lengths(count):
    s = Stream(seed=5, domain=2)
    assert s.uniforms(10, count).shape == (count,)
