"""Deterministic random streams for reproducible parallel simulation.

Every piece of randomness in the simulator flows through an RngStream derived
from a key (master_seed, run_id, task_id, substream). Streams with the same key
produce the same draws no matter which thread or process asks, and in which
order, so runs can be farmed out to workers without changing a single number.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "RngStream",
    "derive_stream",
    "name_substream",
    "sample_gaussian",
    "sample_beta",
    "sample_categorical",
]


class RngStream:
    """A counter-based random stream addressed by (master_seed, run_id, task_id).

    Thin wrapper over a Philox generator keyed by the stream identity. The
    identity fields are kept for introspection.
    """

    __slots__ = ("master_seed", "run_id", "task_id", "substream", "gen")

    def __init__(self, master_seed: int, run_id: int, task_id: int, substream: int = 0):
        if master_seed < 0 or run_id < 0 or task_id < 0 or substream < 0:
            raise ValueError("stream key components must be nonnegative")
        self.master_seed = master_seed
        self.run_id = run_id
        self.task_id = task_id
        self.substream = substream
        seq = np.random.SeedSequence(entropy=(master_seed, run_id, task_id, substream))
        self.gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self) -> str:
        return (
            f"RngStream(master_seed={self.master_seed}, run_id={self.run_id}, "
            f"task_id={self.task_id}, substream={self.substream})"
        )


def derive_stream(master_seed: int, run_id: int, task_id: int, substream: int = 0) -> RngStream:
    """Return the stream for a key; the same key always yields the same draws."""
    return RngStream(master_seed, run_id, task_id, substream)


def name_substream(name: str) -> int:
    """Stable substream id for a named consumer (e.g. one agent).

    Hash-based so that adding or removing one consumer never shifts another's
    stream. Offset past the small ids the harness reserves for itself.
    """
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return 16 + int.from_bytes(digest, "big")


def sample_gaussian(stream: RngStream, mean, variance, size=None):
    """Draw from N(mean, variance); variance 0 returns the mean exactly."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0) or not np.all(np.isfinite(variance)):
        raise ValueError("variance must be finite and >= 0")
    draw = stream.gen.normal(loc=mean, scale=np.sqrt(variance), size=size)
    return float(draw) if np.ndim(draw) == 0 else draw


def sample_beta(stream: RngStream, alpha, beta, size=None):
    """Draw from Beta(alpha, beta); shapes must be strictly positive."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
        raise ValueError("Beta shapes must be > 0")
    draw = stream.gen.beta(alpha, beta, size=size)
    return float(draw) if np.ndim(draw) == 0 else draw


def sample_categorical(stream: RngStream, weights) -> int:
    """Draw an index with the given probabilities (inverse-CDF on one uniform)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")
    u = stream.gen.random()
    # Search the cumulative sum; the final bucket absorbs rounding slack.
    idx = int(np.searchsorted(np.cumsum(w), u * total, side="right"))
    return min(idx, w.size - 1)
