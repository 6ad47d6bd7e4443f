"""Deterministic random streams for reproducible parallel simulation.

Every piece of randomness in the simulator flows through a stream derived
from a key (master_seed, run_id, task_id, substream). Streams with the same key
produce the same draws no matter which thread or process asks, and in which
order, so runs can be farmed out to workers without changing a single number.

Key contract: a stream is a Philox np.random.Generator whose key is
SeedSequence(entropy=(master_seed, run_id, task_id, substream))
.generate_state(2, np.uint64), with counter 0. derive_stream builds one
stream that way through numpy. stream_keys reproduces numpy's SeedSequence
hash in vectorized uint32 arithmetic, so a simulation computes the keys of a
whole chunk of runs in one call and re-keys a few streams in place (rekey);
the draws are those of derive_stream, bit for bit.

This module holds streams only. A draw is a plain generator call made by
the prior or state it draws from (envs, posteriors), on parameters that
object's constructor has already checked.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

__all__ = [
    "derive_stream",
    "rekey",
    "stream_keys",
    "name_substream",
]


def derive_stream(
    master_seed: int, run_id: int, task_id: int, substream: int = 0
) -> np.random.Generator:
    """Return the Philox generator of a key; the same key always yields the same draws."""
    if master_seed < 0 or run_id < 0 or task_id < 0 or substream < 0:
        raise ValueError("stream key components must be nonnegative")
    seq = np.random.SeedSequence(entropy=(master_seed, run_id, task_id, substream))
    return np.random.Generator(np.random.Philox(seq))


def rekey(stream: np.random.Generator, key) -> None:
    """Re-point a stream in place at the Philox key of another identity (its
    row of stream_keys), with counter 0 and no buffered output; it then draws
    exactly what a fresh derive_stream of that identity draws."""
    stream.bit_generator.state = dict(_FRESH, state={"counter": _ZEROS, "key": key})


_ZEROS = np.zeros(4, dtype=np.uint64)
_FRESH = {
    "bit_generator": "Philox", "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0
}

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> tuple:
    """The uint32 words SeedSequence splits a nonnegative int into, low first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return tuple(words)


def _hashmix(init: int, mult: int):
    """numpy's hashmix over uint32 arrays: each call XORs the running
    constant in, advances it by mult and multiplies by the new value."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> 16)


def _seed_hash(words: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=row).generate_state(2, np.uint64) of each row of
    an (N, L) uint32 entropy matrix with L >= 4, as an (N, 2) uint64 array.

    The 4-word pool takes the first four words, is mixed word into word,
    absorbs any further words, and is hashed out as four uint32 words read
    as two little-endian uint64. The constants depend on L only.
    """
    columns = np.ascontiguousarray(words.T)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(columns[i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for column in columns[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(column))
    hashout = _hashmix(_INIT_B, _MULT_B)
    state = [hashout(word).astype(np.uint64) for word in pool]
    shift = np.uint64(32)
    return np.stack([state[0] | state[1] << shift, state[2] | state[3] << shift], axis=1)


def stream_keys(master_seed: int, run_ids, task_ids, substreams) -> np.ndarray:
    """Philox keys of every (run, task, substream) stream, shape (R, T, S, 2).

    keys[i, j, k] is the key of derive_stream(master_seed, run_ids[i],
    task_ids[j], substreams[k]). Each id is split into words once; keys whose
    ids have the same word counts are hashed together in one call.
    """
    axes = [list(run_ids), list(task_ids), list(substreams)]
    if master_seed < 0 or any(x < 0 for axis in axes for x in axis):
        raise ValueError("stream key components must be nonnegative")
    groups = []
    for axis in axes:
        by_width = {}
        for i, words in enumerate(map(_words, axis)):
            index, rows = by_width.setdefault(len(words), ([], []))
            index.append(i)
            rows.append(words)
        groups.append([(i, np.array(rows, np.uint32)) for i, rows in by_width.values()])
    seed = np.array(_words(master_seed), np.uint32)
    keys = np.empty((*map(len, axes), 2), np.uint64)
    for (ri, rw), (ti, tw), (si, sw) in itertools.product(*groups):
        shape = (len(ri), len(ti), len(si))
        parts = (seed, rw[:, None, None], tw[None, :, None], sw[None, None, :])
        words = np.concatenate([np.broadcast_to(p, shape + p.shape[-1:]) for p in parts], -1)
        keys[np.ix_(ri, ti, si)] = _seed_hash(words.reshape(-1, words.shape[-1])).reshape(
            shape + (2,)
        )
    return keys


def name_substream(name: str) -> int:
    """Stable substream id for a named consumer (e.g. one agent).

    Hash-based so that adding or removing one consumer never shifts another's
    stream. Offset past the small ids the harness reserves for itself.
    """
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return 16 + int.from_bytes(digest, "big")
