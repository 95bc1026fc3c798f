"""Test doubles for the sampling oracle."""

from bestarm import SamplingOracle


class DeterministicOracle(SamplingOracle):
    """Variance-0 oracle: every reward equals the arm mean.

    Draws are counted exactly as by :class:`SamplingOracle`, and ``rng`` is
    never touched here, so arm picks and shuffles see the same stream.
    """

    def draw(self, arm: int) -> float:
        self.counts[arm] += 1
        self._total += 1
        return self._means[arm]

    def queue_normals(self, k: int) -> None:
        pass

    def queue_tallies(self, arms, draws: int, probes, cutoff: float) -> None:
        pass

    def sample_mean(self, arm: int, draws: int) -> float:
        if draws < 1:
            raise ValueError("draws must be >= 1")
        self.counts[arm] += draws
        self._total += draws
        return self._means[arm]

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        if draws < 1 or probes < 1:
            raise ValueError("draws and probes must be >= 1")
        n = draws * probes
        self.counts[arm] += n
        self._total += n
        return probes if self._means[arm] < cutoff else 0
