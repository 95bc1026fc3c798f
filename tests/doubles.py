"""Test doubles for the sampling oracle and the process pool, and the reference ladder copy seed."""

import numpy as np

from bestarm import SamplingOracle


def copy_seed(seed, k: int) -> np.random.SeedSequence:
    """Seed material of ladder copy k, as numpy's stateless spawn-key derivation
    gives it: the reference that the ladder's block derivation is pinned against."""
    if k < 1:
        raise ValueError(f"copy index must be >= 1, got {k}")
    return np.random.SeedSequence(seed, spawn_key=(k - 1,))


class DeterministicOracle(SamplingOracle):
    """Variance-0 oracle: every reward equals the arm mean.

    The oracle's generator calls for rewards and tallies are swapped for stand-ins that
    return zeros and leave the generator alone, so the double refuses, charges and counts
    exactly as :class:`SamplingOracle` does, and arm picks and shuffles see the same stream.
    """

    def __init__(self, means, seed=0):
        super().__init__(means, seed)
        self._normal = lambda size=None: 0.0 if size is None else np.zeros(size)
        self._binomial = lambda probes, ps: np.zeros_like(probes)

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        super().count_means_below(arm, draws, probes, cutoff)
        return probes if self._means[arm] < cutoff else 0


class SmallPool:
    """Stand-in for ``concurrent.futures.ProcessPoolExecutor`` that starts no process.

    Records each requested ``max_workers`` in ``sizes`` (a test sets a fresh
    list) and fails above 2, so a test of a large worker count can never fork
    that many; maps in-process.
    """

    sizes: list = []

    def __init__(self, max_workers):
        assert max_workers <= 2, f"asked for {max_workers} worker processes"
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))
