"""A run's per-row generators, built without SeedSequence: every row's
Philox key hashed at once by SeedSequence's own algorithm, and pooled
generators re-keyed for each stack, each equal to `harness.trial_rng`'s.
Importing this module imports numpy.random; importing bjlab does not."""

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's running hash constants mod 2**32: hash call k xors constant k
# and multiplies by constant k + 1.  hashmix calls 0-3 fill the 4-word pool,
# then word s cross-mixes the others with calls 4 + 3s to 6 + 3s.
_MIX = np.multiply.accumulate([0x43B0D7E5] + [0x931E8875] * 16, dtype=np.uint32)[:, None]
_STATE = np.multiply.accumulate([0x8B51F9DD] + [0x58F38DED] * 4, dtype=np.uint32)[:, None]


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """Row k of words hashed with constants k and k + 1 (broadcast)."""
    words = words ^ constants[:-1]
    words *= constants[1:]
    words ^= words >> 16
    return words


def philox_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """(len(indices), 2) uint64 whose row i is
    SeedSequence([seed, indices[i]]).generate_state(2, np.uint64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is wider than 64 bits: with an index it "
                         "overfills SeedSequence's four-word pool")
    indices = np.asarray(indices, np.uint64)
    seed_words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, len(indices)), np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    # an index below 2**32 is one word; the pool then hashes a 0 after it
    pool[len(seed_words)] = indices & 0xFFFFFFFF
    pool[len(seed_words) + 1] = indices >> 32
    pool = _hashmix(pool, _MIX[:5])
    for src in range(4):
        dst = [k for k in range(4) if k != src]
        mixed = pool[dst] * 0xCA01F9DD
        mixed -= _hashmix(pool[src], _MIX[4 + 3 * src:8 + 3 * src]) * 0x4973F715
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hashmix(pool, _STATE).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


class _Key(ISeedSequence):
    """A precomputed key, handed to Philox in place of its hash."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def stack_rngs(keys: np.ndarray, indices: range, pool: list) -> list:
    """The pool's first len(indices) generators (it grows when short), re-keyed
    to the start of the streams of rows `indices`, given every row's key."""
    keys = keys[indices.start:indices.stop]
    # counter 0 and an empty buffer, as in a new Philox
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for rng, key in zip(pool, keys.tolist()):
        state["state"]["key"] = key
        rng.bit_generator.state = state
    pool += [Generator(Philox(_Key(key))) for key in keys[len(pool):]]
    return pool[:len(indices)]
