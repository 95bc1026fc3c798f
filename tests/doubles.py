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

    Draws are counted exactly as by :class:`SamplingOracle`, and ``rng`` is
    never touched here, so arm picks and shuffles see the same stream.
    """

    def draw(self, arm: int) -> float:
        self._counts[arm] += 1
        return self._means[arm]

    def preview(self, arms, rounds: int) -> np.ndarray:
        if not self.arms.issuperset(arms):
            raise IndexError(f"preview of arms {tuple(arms)} out of range")
        return np.tile([self._means[arm] for arm in arms], (rounds, 1))

    def queue_normals(self, k: int, draws: int, rounds: int = 1) -> None:
        pass

    def queue_tallies(self, arms, draws: int, probes, cutoff: float) -> None:
        pass

    def sample_mean(self, arm: int, draws: int) -> float:
        if draws < 1:
            raise ValueError("draws must be >= 1")
        self._counts[arm] += draws
        return self._means[arm]

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        if draws < 1 or probes < 1:
            raise ValueError("draws and probes must be >= 1")
        self._counts[arm] += draws * probes
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
