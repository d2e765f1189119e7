"""Cooperative operation futures.

The whole library is threadless and deterministic: a scheduler is a state
machine mutated only by explicit calls.  An operation (read/write/commit)
returns an :class:`OpFuture` that is either resolved immediately or parked
until some later scheduler call (a lock release, a pending write clearing)
resolves it.  Drivers — the scripted interleaving driver used in tests and
the discrete-event simulator — subscribe callbacks to learn about resolution.

This is the one concurrency primitive shared by every protocol in the
library, so its semantics are kept deliberately small:

* a future resolves exactly once, either with a value or with an exception;
* callbacks added after resolution fire synchronously;
* ``result()`` never blocks — a pending future raises
  :class:`~repro.errors.FutureNotReady`, because in a cooperative model
  waiting in place can never make progress.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import FutureNotReady


class OpStatus(enum.Enum):
    """Lifecycle states of an :class:`OpFuture`."""

    PENDING = "pending"
    RESOLVED = "resolved"
    FAILED = "failed"


class OpFuture:
    """Single-assignment result of a scheduler operation.

    The label is given either as finished text or as ``str.format`` parts,
    ``OpFuture("r{}[{}]", txn_id, key)``; parts are formatted on the first
    read of :attr:`label`, so the many operations nobody ever describes
    never pay for the string.
    """

    __slots__ = ("_label", "_label_args", "_status", "_value", "_error", "_callbacks")

    def __init__(self, label: str = "", *label_args: Any):
        self._label = label
        self._label_args = label_args
        self._status = OpStatus.PENDING
        self._value: Any = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[[OpFuture], None]] = []

    @property
    def label(self) -> str:
        """Human-readable description ("r1[x]", "commit T3"), used in traces
        and error messages."""
        if self._label_args:
            self._label = self._label.format(*self._label_args)
            self._label_args = ()
        return self._label

    # -- inspection ---------------------------------------------------------

    @property
    def status(self) -> OpStatus:
        return self._status

    @property
    def pending(self) -> bool:
        return self._status is OpStatus.PENDING

    @property
    def done(self) -> bool:
        return self._status is not OpStatus.PENDING

    @property
    def failed(self) -> bool:
        return self._status is OpStatus.FAILED

    @property
    def error(self) -> BaseException | None:
        """The exception the future failed with, or None."""
        return self._error

    def result(self) -> Any:
        """Return the value, re-raising the failure exception if any.

        Raises:
            FutureNotReady: if the operation is still blocked.
        """
        if self._status is OpStatus.PENDING:
            raise FutureNotReady(
                f"operation {self.label or '<unnamed>'} is still blocked; "
                "drive another transaction to unblock it"
            )
        if self._status is OpStatus.FAILED:
            assert self._error is not None
            raise self._error
        return self._value

    # -- resolution (scheduler side) ----------------------------------------

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        self._settle(OpStatus.RESOLVED, value=value)

    def fail(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        self._settle(OpStatus.FAILED, error=error)

    def _settle(
        self, status: OpStatus, value: Any = None, error: BaseException | None = None
    ) -> None:
        if self._status is not OpStatus.PENDING:
            raise RuntimeError(
                f"future {self.label or '<unnamed>'} settled twice "
                f"(was {self._status.value}, now {status.value})"
            )
        self._status = status
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- subscription (driver side) -----------------------------------------

    def add_callback(self, callback: Callable[[OpFuture], None]) -> None:
        """Invoke ``callback(self)`` when the future settles.

        If the future is already settled the callback fires immediately, so
        drivers need no resolved-vs-pending special case.
        """
        if self._status is OpStatus.PENDING:
            self._callbacks.append(callback)
        else:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._status is OpStatus.RESOLVED:
            return f"<OpFuture {self.label} = {self._value!r}>"
        if self._status is OpStatus.FAILED:
            return f"<OpFuture {self.label} ! {self._error!r}>"
        return f"<OpFuture {self.label} pending>"


def resolved(value: Any = None, label: str = "", *label_args: Any) -> OpFuture:
    """Convenience constructor for an already-successful future (label as in
    :class:`OpFuture`)."""
    future = OpFuture(label, *label_args)
    future._status = OpStatus.RESOLVED
    future._value = value
    return future


def failed(error: BaseException, label: str = "") -> OpFuture:
    """Convenience constructor for an already-failed future."""
    future = OpFuture(label)
    future.fail(error)
    return future
