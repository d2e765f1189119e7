"""Workload specifications.

A workload is a stream of transaction templates drawn from a parameterized
distribution: the mix of read-only vs read-write transactions, transaction
lengths, the read/write balance inside read-write transactions, and the key
popularity skew.  All draws come from named
:class:`~repro.sim.random_streams.RandomStreams`, so two runs with the same
seed execute identical operation sequences regardless of protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.sim.random_streams import RandomStreams, ZipfGenerator


@dataclass(frozen=True)
class OpSpec:
    """One operation template: ``kind`` is ``"r"`` or ``"w"``."""

    kind: str
    key: str


@dataclass(frozen=True)
class TxnSpec:
    """One transaction template."""

    read_only: bool
    ops: tuple[OpSpec, ...]

    @property
    def reads(self) -> int:
        return sum(1 for op in self.ops if op.kind == "r")

    @property
    def writes(self) -> int:
        return sum(1 for op in self.ops if op.kind == "w")


@dataclass
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Attributes:
        n_objects: database size (keys ``o0`` .. ``o{n-1}``).
        ro_fraction: probability a transaction is read-only.
        ro_ops: (min, max) operations in a read-only transaction.
        rw_ops: (min, max) operations in a read-write transaction.
        write_fraction: probability an operation inside a read-write
            transaction is a write (at least one write is forced, matching
            the paper's definition of the class).
        zipf_theta: key-popularity skew (0 = uniform).
        seed: master seed for all streams.
    """

    n_objects: int = 100
    ro_fraction: float = 0.5
    ro_ops: tuple[int, int] = (2, 6)
    rw_ops: tuple[int, int] = (2, 6)
    write_fraction: float = 0.5
    zipf_theta: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ro_fraction <= 1.0:
            raise ValueError("ro_fraction must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.n_objects < 1:
            raise ValueError("n_objects must be >= 1")
        for lo, hi in (self.ro_ops, self.rw_ops):
            if lo < 1 or hi < lo:
                raise ValueError("operation ranges must satisfy 1 <= min <= max")


class WorkloadGenerator:
    """Draws :class:`TxnSpec` templates from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.streams = RandomStreams(spec.seed)
        self._class_rng = self.streams.stream("txn-class")
        self._shape_rng = self.streams.stream("txn-shape")
        self._zipf = ZipfGenerator(
            spec.n_objects, spec.zipf_theta, self.streams.stream("keys")
        )
        # Key strings by index, each formatted on its first draw: building
        # all ``n_objects`` of them up front would make set-up O(n_objects).
        self._keys: dict[int, str] = {}

    def _key(self) -> str:
        index = self._zipf.draw()
        key = self._keys.get(index)
        if key is None:
            key = self._keys[index] = f"o{index}"
        return key

    def _distinct_keys(self, count: int) -> list[str]:
        """Up to ``count`` distinct keys (the Section 3 model allows at most
        one read and one write per object per transaction)."""
        chosen: list[str] = []
        seen: set[str] = set()
        attempts = 0
        while len(chosen) < count and attempts < count * 20:
            key = self._key()
            attempts += 1
            if key not in seen:
                seen.add(key)
                chosen.append(key)
        return chosen

    def next_txn(self) -> TxnSpec:
        spec = self.spec
        if self._class_rng.random() < spec.ro_fraction:
            length = self._shape_rng.randint(*spec.ro_ops)
            keys = self._distinct_keys(length)
            return TxnSpec(True, tuple(OpSpec("r", k) for k in keys))
        length = self._shape_rng.randint(*spec.rw_ops)
        keys = self._distinct_keys(length)
        ops = []
        wrote = False
        for i, key in enumerate(keys):
            is_last = i == len(keys) - 1
            write = self._shape_rng.random() < spec.write_fraction or (is_last and not wrote)
            if write:
                ops.append(OpSpec("w", key))
                wrote = True
            else:
                ops.append(OpSpec("r", key))
        return TxnSpec(False, tuple(ops))

    def transactions(self, count: int) -> Iterator[TxnSpec]:
        for _ in range(count):
            yield self.next_txn()
