"""Metrics primitives: counters, gauges, and HDR-style histograms.

The registry subsumes the ad-hoc accounting that used to live in
:class:`~repro.core.interface.SchedulerCounters` (a bare
:class:`collections.Counter`) and the hand-wired fields of
:class:`~repro.bench.metrics.RunMetrics`: scheduler counters are now thin
wrappers over registry counters, so every experiment table and every
exporter reads from one source of truth.

The histogram is HDR-style (log-linear): values are bucketed into
``sub_buckets`` linear buckets per power of two, giving a bounded relative
error (~1/sub_buckets) at any magnitude with O(1) record cost and no stored
samples — suitable for latency distributions over millions of events.
"""

from __future__ import annotations

import math
from typing import Iterator


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-value-wins instantaneous measurement, with watermarks."""

    __slots__ = ("name", "value", "maximum", "minimum", "_touched")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.maximum = 0.0
        self.minimum = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        if not self._touched:
            self.maximum = self.minimum = value
            self._touched = True
        else:
            if value > self.maximum:
                self.maximum = value
            if value < self.minimum:
                self.minimum = value
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} max={self.maximum}>"


class Histogram:
    """Log-linear (HDR-style) histogram of non-negative values.

    Bucket layout: values in ``[2^k, 2^(k+1))`` are split into
    ``sub_buckets`` equal-width linear buckets; values below 1 land in a
    single underflow bucket.  ``quantile`` returns the upper bound of the
    bucket where the cumulative count crosses, so the reported value is
    within one bucket width (relative error ~ ``1/sub_buckets``) of exact.
    """

    __slots__ = ("name", "sub_buckets", "_buckets", "count", "total", "minimum", "maximum")

    def __init__(self, name: str, sub_buckets: int = 16):
        if sub_buckets < 1:
            raise ValueError("sub_buckets must be >= 1")
        self.name = name
        self.sub_buckets = sub_buckets
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def _index(self, value: float) -> int:
        if value < 1.0:
            return 0
        exponent = int(math.floor(math.log2(value)))
        base = 2.0 ** exponent
        sub = int((value - base) / base * self.sub_buckets)
        if sub >= self.sub_buckets:  # guard float edge at the top of the range
            sub = self.sub_buckets - 1
        return 1 + exponent * self.sub_buckets + sub

    def _upper_bound(self, index: int) -> float:
        if index == 0:
            return 1.0
        index -= 1
        exponent, sub = divmod(index, self.sub_buckets)
        base = 2.0 ** exponent
        return base + (sub + 1) * base / self.sub_buckets

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name} cannot record negative {value}")
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (upper bucket bound at the crossing rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return min(self._upper_bound(index), self.maximum)
        return self.maximum  # pragma: no cover - rank <= count always crosses

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


class MetricsRegistry:
    """Name-indexed registry of counters, gauges, and histograms.

    Instruments are created on first touch (like labels in most metrics
    systems); reads of untouched names return zero without creating.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, sub_buckets: int = 16) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, sub_buckets)
        return histogram

    # -- reads ------------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def counters_dict(self) -> dict[str, int]:
        """All counters as ``{name: value}`` — the legacy ``as_dict`` shape."""
        return {name: c.value for name, c in self._counters.items()}

    def iter_instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def snapshot(self) -> dict[str, dict]:
        """Structured dump of every instrument (for exporters and reports)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {
                name: {"value": g.value, "max": g.maximum, "min": g.minimum}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": h.mean,
                    "min": h.minimum if h.count else 0.0,
                    "max": h.maximum if h.count else 0.0,
                    "p50": h.p50,
                    "p95": h.p95,
                    "p99": h.p99,
                }
                for name, h in sorted(self._histograms.items())
            },
        }
