"""Engine-level random number generator.

A single seeded PCG64 stream drives every stochastic operation (weight
init, dropout, augmentation, shuffling), so a fixed seed makes whole
training runs bit-reproducible. The raw generator state round-trips
through 10 little-endian 32-bit words, which is what checkpoints store
as the stream position.
"""

import numpy as np

from .errors import CheckpointError

STATE_WORDS = 10  # 4 words state + 4 words inc + has_uint32 + uinteger


class EngineRng(np.random.Generator):
    """numpy's Generator on ``PCG64(seed)``, with an exactly serializable
    position."""

    def __init__(self, seed: int = 0):
        super().__init__(np.random.PCG64(seed))

    def state_words(self) -> np.ndarray:
        """Current stream position as 10 uint32 words."""
        st = self.bit_generator.state
        words = []
        for value in (st["state"]["state"], st["state"]["inc"]):
            words.extend((value >> (32 * i)) & 0xFFFFFFFF for i in range(4))
        words.append(int(st["has_uint32"]) & 0xFFFFFFFF)
        words.append(int(st["uinteger"]) & 0xFFFFFFFF)
        return np.array(words, dtype=np.uint32)

    def set_state_words(self, words) -> None:
        """Restore the stream position captured by :meth:`state_words`."""
        w = [int(x) for x in np.asarray(words).ravel()]
        if len(w) != STATE_WORDS:
            raise CheckpointError(
                f"rng state must be {STATE_WORDS} words, got {len(w)}"
            )
        st = self.bit_generator.state
        st["state"]["state"] = sum(w[i] << (32 * i) for i in range(4))
        st["state"]["inc"] = sum(w[4 + i] << (32 * i) for i in range(4))
        st["has_uint32"] = w[8]
        st["uinteger"] = w[9]
        self.bit_generator.state = st
