"""Keyed, reproducible random streams.

Every random draw in this package comes from a stream identified by a base
seed plus a tuple key. The same (seed, key) always reproduces the same
sequence, no matter the process, worker count, or the order in which streams
are created, so parallel runs are bit-identical to serial ones. Distinct keys
give statistically independent streams.

The key layout used by the estimators is: the first entry selects the
replicate (0 is reserved for plan-level sampling), the second names the role
within the replicate, and later entries index batches or retries. The role
constants below keep independent components from ever colliding on a key.
"""

import numpy as np

ROLE_PLAN = 0
ROLE_FILTER = 1
ROLE_DATA = 2
ROLE_MLPF = 3
ROLE_SINGLE = 4
ROLE_RETRY = 5
ROLE_REFERENCE = 6
ROLE_SWEEP = 7


class RngStream:
    """A lazily constructed numpy Generator addressed by (seed, key).

    Parameters
    ----------
    seed : int
        Non-negative base seed shared by a whole experiment.
    key : tuple of int, optional
        Path of non-negative integers identifying this stream under the seed.
    """

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed, key=()):
        key = tuple(int(k) for k in key)
        seed = int(seed)
        if seed < 0 or any(k < 0 for k in key):
            raise ValueError("seed and key entries must be non-negative integers")
        self.seed = seed
        self.key = key
        self._gen = None

    @property
    def gen(self):
        """The numpy Generator for this stream (created on first use)."""
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=(self.seed,) + self.key)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def child(self, *ids):
        """A new stream with `ids` appended to this stream's key."""
        return RngStream(self.seed, self.key + ids)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
