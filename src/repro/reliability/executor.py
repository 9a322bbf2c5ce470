"""The attempt driver: one logical call over many physical attempts.

:class:`ReliableCall` owns the control flow the policies describe —
run an attempt, classify the failure, wait out the backoff on the
simulation kernel, try again, and give up when attempts or the deadline
budget run out.  It is transport-neutral: the caller supplies an
``attempt`` callable that performs one physical try and reports back
through a completion callback, which is exactly the shape of both
``Transport.send`` and a pipe send-plus-timer.  Circuit breakers stay
with the caller: they judge whole logical calls, not attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.reliability.policy import (
    Deadline,
    DeadlineExceededError,
    ReliabilityPolicy,
)

#: attempt(on_done, attempt_no, remaining_budget): perform one physical
#: try and call on_done(result, error) when it concludes.  A later call
#: is a late outcome (a reply to an attempt that already timed out).
AttemptFn = Callable[[Callable[[Any, Optional[Exception]], None], int, Optional[float]], None]
#: final completion callback: (result, error).
DoneFn = Callable[[Any, Optional[Exception]], None]


class ReliableCall:
    """Drives one logical invocation to completion under a policy."""

    def __init__(
        self,
        kernel,
        policy: ReliabilityPolicy,
        attempt: AttemptFn,
        callback: DoneFn,
        on_retry: Optional[Callable[[int, float, Exception], None]] = None,
        describe: str = "call",
    ):
        self._kernel = kernel
        self.policy = policy
        self._attempt = attempt
        self._callback = callback
        self._on_retry = on_retry
        self._describe = describe
        self._deadline: Optional[Deadline] = policy.new_deadline()
        self.attempts_made = 0
        self._finished = False
        self._retry_event = None  # pending backoff timer, if any

    # ------------------------------------------------------------------
    def start(self) -> "ReliableCall":
        if self._deadline is not None:
            self._deadline.start(self._kernel.now)
        self._run_attempt()
        return self

    def complete(self, result: Any, error: Optional[Exception]) -> None:
        """Conclude the call now, whatever attempt or backoff is under
        way — e.g. when a reply to an earlier, timed-out attempt lands.
        Only the first conclusion reaches the callback."""
        if self._finished:
            return
        self._finished = True
        # a concluded call must not leave its backoff timer armed: the
        # cancel releases the kernel's heap slot immediately (E13), so
        # retry-heavy workloads do not accumulate dead timers
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        # drop the caller's closures: they usually reference this call
        # (and the wire), and a cycle would hold large wires until the
        # cyclic collector runs
        callback = self._callback
        self._attempt = self._callback = self._on_retry = None
        callback(result, error)

    def _remaining_budget(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline.remaining(self._kernel.now)

    # ------------------------------------------------------------------
    def _run_attempt(self) -> None:
        self._retry_event = None
        if self._finished:
            return
        budget = self._remaining_budget()
        if budget is not None and budget <= 0:
            self.complete(
                None,
                DeadlineExceededError(
                    f"deadline of {self._deadline.budget}s exhausted before "
                    f"attempt {self.attempts_made + 1} of {self._describe}"
                ),
            )
            return
        attempt_no = self.attempts_made
        self.attempts_made += 1
        concluded = {"done": False}

        def on_done(result: Any, error: Optional[Exception]) -> None:
            if self._finished:
                return
            if concluded["done"]:
                # a late outcome concludes the call unless the retry it
                # is waiting for would only repeat it
                if error is None or not self.policy.retry.retryable(error):
                    self.complete(result, error)
                return
            concluded["done"] = True
            if error is None:
                self.complete(result, None)
            else:
                self._maybe_retry(attempt_no, error)

        try:
            self._attempt(on_done, attempt_no, budget)
        except Exception as exc:  # noqa: BLE001 - attempt boundary
            on_done(None, exc)

    def _maybe_retry(self, attempt_no: int, error: Exception) -> None:
        retry = self.policy.retry
        if self.attempts_made >= retry.max_attempts or not retry.retryable(error):
            self.complete(None, error)
            return
        delay = retry.delay(attempt_no)
        budget = self._remaining_budget()
        if budget is not None and delay >= budget:
            self.complete(
                None,
                DeadlineExceededError(
                    f"deadline of {self._deadline.budget}s leaves no room to "
                    f"retry {self._describe} after {self.attempts_made} "
                    f"attempt(s): {error}"
                ),
            )
            return
        if self._on_retry is not None:
            self._on_retry(self.attempts_made + 1, delay, error)
        self._retry_event = self._kernel.schedule(delay, self._run_attempt)


@dataclass
class OnewayStatus:
    """Live status of one acknowledged one-way send.

    Returned immediately by ``invoke_oneway`` when acks are requested;
    fields fill in as the simulation advances.
    """

    message_id: str
    acked: bool = False
    attempts: int = 0
    acked_at: Optional[float] = None
    error: Optional[Exception] = None
    _listeners: list = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        return self.acked or self.error is not None

    def on_done(self, fn: Callable[["OnewayStatus"], None]) -> None:
        if self.done:
            fn(self)
        else:
            self._listeners.append(fn)

    def _conclude(self) -> None:
        listeners, self._listeners = self._listeners, []
        for fn in listeners:
            fn(self)
