"""Key-choosing distributions, following the YCSB generators.

The zipfian generator is the Gray et al. rejection-free construction used
by YCSB (``ZipfianGenerator``).
"""

from __future__ import annotations

from typing import Protocol

from repro.sim.random import RandomStream

__all__ = ["KeyChooser", "Uniform", "Zipfian"]


class KeyChooser(Protocol):
    def next_index(self, rng: RandomStream) -> int: ...  # pragma: no cover


class Uniform:
    """Every key equally likely."""

    def __init__(self, item_count: int):
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        self.item_count = item_count

    def next_index(self, rng: RandomStream) -> int:
        return rng.randint(0, self.item_count - 1)


class Zipfian:
    """Gray et al. quantile-function zipfian over [0, item_count)."""

    def __init__(self, item_count: int, theta: float = 0.99):
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        self.item_count = item_count
        self.theta = theta
        self.zetan = self._zeta(item_count, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1 - (2.0 / item_count) ** (1 - theta))
                    / (1 - self.zeta2 / self.zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_index(self, rng: RandomStream) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count
                   * (self.eta * u - self.eta + 1.0) ** self.alpha)
