"""Deterministic, splittable random streams.

Every stochastic component (weight init, dropout, donor sampling, attacks,
graph synthesis) pulls from its own named substream so that adding or
reordering one consumer never perturbs another. Streams are Philox
counter-based generators keyed by a 64-bit seed; substream keys are derived
by hashing (parent seed, label), which is stable across platforms and runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def _mix(seed: int, label: str) -> int:
    """(seed, label) hashed to a 64-bit seed; any Python or numpy integer
    seed is taken modulo 2^64."""
    h = hashlib.blake2b(digest_size=8)
    h.update((int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little", signed=False))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RngState:
    """A 64-bit seed naming one deterministic Philox stream."""

    seed: int

    def substream(self, label: str) -> "RngState":
        """Derive an independent child stream identified by `label`."""
        return RngState(seed=_mix(self.seed, label))

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream (same draws every call)."""
        return np.random.Generator(np.random.Philox(key=int(self.seed) & 0xFFFFFFFFFFFFFFFF))


def derive_trial_seed(base_seed: int, variant: str, repeat_index: int) -> int:
    """Stable per-trial seed; independent of how many repeats are requested."""
    return _mix(base_seed, f"trial:{variant}:{repeat_index}")
