"""Seeded random streams for reproducible experiments.

Each named stream is an independent ``random.Random`` derived from the master
seed and the stream name, so adding a new consumer (say, a second arrival
process) never perturbs the draws of existing ones — experiments stay
comparable across code changes.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left


class RandomStreams:
    """A family of independent named RNG streams under one master seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng


class ZipfGenerator:
    """Zipf-distributed key indices over ``[0, n)``.

    ``theta = 0`` is uniform; larger values skew toward low indices.  Uses
    the standard inverse-CDF-by-precomputation approach: exact, O(n) setup,
    O(log n) per draw via bisection on the cumulative weights.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self._rng = rng
        weights = [1.0 / (i + 1) ** theta for i in range(n)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift
        self._cumulative = cumulative

    def draw(self) -> int:
        return bisect_left(self._cumulative, self._rng.random())
