"""Counter-based deterministic randomness.

Every random quantity in the lattice simulations is a pure function of 64-bit
integers, so environments are lazy-infinite (no truncation, no stored state)
and trajectories are replayable from their seed alone.

Mixing function
---------------
``mix64`` is the SplitMix64 finalizer: two xor-shift/multiply rounds and a
final xor-shift.  It is a bijection on 64-bit words with full avalanche (every
input bit flips each output bit with probability ~1/2).  Words are chained into
a hash by

    h <- mix64(((h XOR w) * GOLDEN) XOR GOLDEN)

where GOLDEN is the 64-bit golden-ratio constant.  The chain is order
sensitive, so (1, 2) and (2, 1) hash differently.

Uniforms are the top 52 bits of the hash, offset to the cell midpoint:
``u = ((h >> 12) + 0.5) * 2^-52``.  Every step is float64-exact (k + 0.5 is an
odd 53-bit multiple of 1/2, and the 2^-52 scaling is a power of two), so the
result lands strictly inside (0, 1) — taking 53 bits instead would let the top
cell round up to exactly 1.0.  This is the float-exact realization of
"(h + 0.5) / 2^64".

Streams
-------
``Stream(seed, domain)`` is an indexable uniform sequence: element k is a hash
of (seed, domain, k).  Distinct domains give statistically independent
sequences from the same seed, which is how holding times, jump directions, and
discrete marks stay decoupled (consuming more of one never shifts another).

Seed fan-out for experiments:

    env_seed_i    = hash_words(master, ENV_FANOUT, i)
    traj_seed_ij  = hash_words(env_seed_i, TRAJ_FANOUT, j)
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

# fan-out domain tags (arbitrary fixed odd constants)
ENV_FANOUT = 0xE57
TRAJ_FANOUT = 0x7A1

_TO_UNIT = 2.0 ** -52

# the constants of the vectorized hash as uint64 scalars, built once
_U12, _U27, _U30, _U31 = (np.uint64(k) for k in (12, 27, 30, 31))
_UC1, _UC2, _UGOLDEN = np.uint64(_C1), np.uint64(_C2), np.uint64(GOLDEN)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (Python int in [0, 2^64))."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _C1) & MASK64
    z = ((z ^ (z >> 27)) * _C2) & MASK64
    return z ^ (z >> 31)


def hash_words(seed: int, *words: int) -> int:
    """Chain-hash integer words (negatives allowed, taken mod 2^64)."""
    h = seed & MASK64
    for w in words:
        h = mix64(((h ^ (w & MASK64)) * GOLDEN & MASK64) ^ GOLDEN)
    return h


def unit_from(h: int) -> float:
    """Map a 64-bit hash to a uniform strictly inside (0, 1)."""
    return ((h >> 12) + 0.5) * _TO_UNIT


def mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U30)) * _UC1
    z = (z ^ (z >> _U27)) * _UC2
    return z ^ (z >> _U31)


def hash_rows(seeds, *words) -> np.ndarray:
    """hash_words(seed, *words) for each of a uint64 array of seeds; a word
    is one integer for every seed or an array of one integer per seed."""
    h = seeds
    for w in words:
        h = mix64_array(((h ^ np.asarray(w, dtype=np.uint64)) * _UGOLDEN) ^ _UGOLDEN)
    return h


def hash_coords(seed, coords: np.ndarray) -> np.ndarray:
    """Vectorized hash_words(seed, c_1, ..., c_d) over rows of an (m, d) array.

    ``seed`` is one integer for every row, or a uint64 array of one seed per
    row.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    if not isinstance(seed, np.ndarray):
        seed = np.full(coords.shape[0], seed & MASK64, dtype=np.uint64)
    return hash_rows(seed, *coords.view(np.uint64).T)


def units_from(h: np.ndarray) -> np.ndarray:
    return ((h >> _U12).astype(np.float64) + 0.5) * _TO_UNIT


class Stream:
    """Indexable uniform stream: element k is a pure function of (seed, domain, k)."""

    __slots__ = ("base",)

    def __init__(self, seed: int, domain: int):
        self.base = hash_words(seed, domain)

    def uniform(self, k: int) -> float:
        return unit_from(hash_words(self.base, k))

    def uniforms(self, start: int, count: int) -> np.ndarray:
        ks = np.arange(start, start + count, dtype=np.uint64)
        return units_from(hash_rows(np.full(count, self.base, dtype=np.uint64), ks))
