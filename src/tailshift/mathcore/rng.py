"""Seeded, splittable randomness.

All randomness in the package flows through :class:`Rng`, a thin wrapper
around numpy's Philox counter-based bit generator (4x64, documented round
constants) keyed through a SeedSequence. Equal seeds give bit-identical
streams within a build; ``split()`` derives independent child streams
deterministically, so a run is reproducible from its root seed alone.
"""

from __future__ import annotations

import numpy as np


class Rng:
    def __init__(self, seed=None, _seq: np.random.SeedSequence | None = None):
        if _seq is None:
            if seed is None:
                raise ValueError("Rng requires a seed")
            _seq = np.random.SeedSequence(int(seed))
        self._seq = _seq
        self._gen = np.random.Generator(np.random.Philox(_seq))

    def split(self, n: int = 1) -> list["Rng"]:
        """Derive `n` independent child streams; order of calls matters."""
        return [Rng(_seq=child) for child in self._seq.spawn(n)]

    # -- sampling ------------------------------------------------------------

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def choice(self, a, size=None, replace=True, p=None) -> np.ndarray:
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x) -> np.ndarray:
        return self._gen.permutation(x)

    # -- checkpointing ---------------------------------------------------------

    def get_state(self) -> dict:
        """numpy's bit-generator state with its arrays as lists of ints, so
        it is plain JSON."""
        state = self._gen.bit_generator.state
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        return state

    def set_state(self, state: dict) -> None:
        """Hand ``state`` to numpy's setter, which refuses a malformed one
        but not a buffer position outside [0, 4] (the next draws would read
        past the 4-word buffer) or a cached-word flag other than 0 or 1."""
        bits = np.random.Philox(0)
        bits.state = state
        if not 0 <= state["buffer_pos"] <= 4:
            raise ValueError(f"Philox buffer_pos {state['buffer_pos']} lies outside [0, 4]")
        if state["has_uint32"] not in (0, 1):
            raise ValueError(f"Philox has_uint32 {state['has_uint32']} is not 0 or 1")
        self._gen = np.random.Generator(bits)
