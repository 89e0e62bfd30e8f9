"""Seeded randomness: numpy Generators over the Philox bit generator.

Every stream in the package is a plain ``np.random.Generator`` over numpy's
Philox counter-based bit generator (4x64, documented round constants).
``streams(seed, n)`` spawns `n` independent streams from one seed through a
SeedSequence, so a run is reproducible from its root seed alone; equal
seeds give bit-identical streams. ``rng_state`` and ``rng_from_state``
carry a stream's position through a JSON checkpoint. ``Rng(seed)`` is the
one stream of a seed, for callers that need no spawning.
"""

from __future__ import annotations

import numpy as np


def Rng(seed) -> np.random.Generator:
    """The stream of ``seed`` itself, unspawned."""
    return np.random.Generator(np.random.Philox(int(seed)))


def streams(seed, n: int) -> list[np.random.Generator]:
    """`n` independent streams spawned from ``seed``, in a fixed order."""
    return [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(int(seed)).spawn(n)]


def rng_state(gen: np.random.Generator) -> dict:
    """numpy's bit-generator state of ``gen`` with its arrays as lists of
    ints, so it is plain JSON."""
    state = gen.bit_generator.state
    state["state"] = {k: v.tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    return state


def rng_from_state(state: dict) -> np.random.Generator:
    """A stream at ``state``. numpy's setter refuses a malformed state but
    not a buffer position outside [0, 4] (the next draws would read past
    the 4-word buffer) or a cached-word flag other than 0 or 1; both are
    refused here."""
    bits = np.random.Philox(0)
    bits.state = state
    if not 0 <= state["buffer_pos"] <= 4:
        raise ValueError(f"Philox buffer_pos {state['buffer_pos']} lies outside [0, 4]")
    if state["has_uint32"] not in (0, 1):
        raise ValueError(f"Philox has_uint32 {state['has_uint32']} is not 0 or 1")
    return np.random.Generator(bits)
