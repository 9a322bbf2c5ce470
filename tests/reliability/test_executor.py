"""Unit tests for the ReliableCall attempt driver on the virtual kernel."""

import pytest

from repro.reliability import (
    BreakerConfig,
    CircuitOpenError,
    DeadlineExceededError,
    OnewayStatus,
    ReliabilityPolicy,
    ReliableCall,
    RetryPolicy,
)
from repro.simnet import Kernel
from repro.transport import TransportTimeoutError


def run_call(kernel, policy, attempt, on_retry=None):
    box = {}

    def callback(result, error):
        box["result"], box["error"] = result, error

    ReliableCall(kernel, policy, attempt, callback, on_retry=on_retry).start()
    kernel.run_until_idle()
    return box


class TestRetryFlow:
    def test_success_first_attempt(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))
        box = run_call(kernel, policy, lambda done, n, b: done("ok", None))
        assert box == {"result": "ok", "error": None}

    def test_retries_until_success(self):
        kernel = Kernel()
        calls = []

        def attempt(done, attempt_no, budget):
            calls.append(attempt_no)
            if attempt_no < 2:
                done(None, ConnectionError("flaky"))
            else:
                done("ok", None)

        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.0)
        )
        box = run_call(kernel, policy, attempt)
        assert box["result"] == "ok"
        assert calls == [0, 1, 2]
        # two backoffs: 0.1 + 0.2
        assert kernel.now == pytest.approx(0.3)

    def test_attempts_exhausted_returns_last_error(self):
        kernel = Kernel()
        boom = ConnectionError("still down")
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))
        box = run_call(kernel, policy, lambda done, n, b: done(None, boom))
        assert box["error"] is boom

    def test_non_retryable_error_fails_immediately(self):
        kernel = Kernel()
        calls = []

        def attempt(done, attempt_no, budget):
            calls.append(attempt_no)
            done(None, ValueError("bad input"))

        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=5, retry_on=(ConnectionError,))
        )
        box = run_call(kernel, policy, attempt)
        assert isinstance(box["error"], ValueError)
        assert calls == [0]

    def test_raising_attempt_is_treated_as_failure(self):
        kernel = Kernel()

        def attempt(done, attempt_no, budget):
            raise ConnectionError("sync boom")

        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=2, jitter=0.0))
        box = run_call(kernel, policy, attempt)
        assert isinstance(box["error"], ConnectionError)

    def test_on_retry_hook_fires_per_retransmit(self):
        kernel = Kernel()
        retries = []
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))
        run_call(
            kernel, policy,
            lambda done, n, b: done(None, ConnectionError("x")),
            on_retry=lambda n, delay, err: retries.append((n, delay)),
        )
        assert [n for n, _ in retries] == [2, 3]


class TestLateOutcomes:
    """An attempt's on_done called again after it concluded: a reply to
    a timed-out attempt, landing while the retry waits out its backoff."""

    def late_outcome_in_backoff(self, outcome):
        kernel = Kernel()
        attempts = []

        def attempt(done, attempt_no, budget):
            attempts.append(attempt_no)
            if attempt_no == 0:
                done(None, TransportTimeoutError("lapsed"))
                kernel.schedule(0.5, done, *outcome)
            else:
                done("retried", None)

        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        )
        return run_call(kernel, policy, attempt), attempts

    def test_late_success_concludes_the_call(self):
        box, attempts = self.late_outcome_in_backoff(("late", None))
        assert box == {"result": "late", "error": None}
        assert attempts == [0]

    def test_late_retryable_error_leaves_the_retry_to_run(self):
        box, attempts = self.late_outcome_in_backoff((None, ConnectionError("busy")))
        assert box == {"result": "retried", "error": None}
        assert attempts == [0, 1]

    def test_late_non_retryable_error_concludes_the_call(self):
        from repro.soap.faults import FaultCode, SoapFault

        fault = SoapFault(FaultCode.SERVER, "refused")
        box, attempts = self.late_outcome_in_backoff((None, fault))
        assert box == {"result": None, "error": fault}
        assert attempts == [0]


class TestDeadline:
    def test_deadline_cuts_off_retry_schedule(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0, jitter=0.0),
            deadline=2.5,
        )
        calls = []

        def attempt(done, attempt_no, budget):
            calls.append(attempt_no)
            done(None, ConnectionError("down"))

        box = run_call(kernel, policy, attempt)
        assert isinstance(box["error"], DeadlineExceededError)
        assert len(calls) < 10
        assert kernel.now <= 2.5

    def test_budget_passed_to_attempts_shrinks(self):
        kernel = Kernel()
        budgets = []
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=1.0, jitter=0.0),
            deadline=10.0,
        )

        def attempt(done, attempt_no, budget):
            budgets.append(budget)
            done(None, ConnectionError("down"))

        run_call(kernel, policy, attempt)
        assert budgets[0] == pytest.approx(10.0)
        assert budgets == sorted(budgets, reverse=True)


class TestBreakerIntegration:
    """The breaker sits in the send pipeline, around the attempt driver:
    it admits a logical call once and learns its outcome once."""

    @staticmethod
    def _world():
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from repro.simnet import FixedLatency, Network
        from repro.uddi import UddiRegistryNode

        class Echo:
            def echo(self, message: str) -> str:
                return message

        net = Network(latency=FixedLatency(0.002))
        registry = UddiRegistryNode(net.add_node("registry"))
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        provider.deploy(Echo(), name="Echo")
        consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
        frames = []
        net.add_delivery_hook(lambda frame: frames.append(frame) or True)
        return net, provider, consumer, provider.local_handle("Echo"), frames

    def test_open_breaker_fails_fast(self):
        net, provider, consumer, handle, frames = self._world()
        config = BreakerConfig(min_calls=2)
        breaker = consumer.client.invocation.breakers.for_endpoint(
            handle.endpoints[0].address, config
        )
        breaker.record_failure()
        breaker.record_failure()
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3), breaker=config)
        with pytest.raises(CircuitOpenError):
            consumer.invoke(handle, "echo", message="x", timeout=0.2, policy=policy)
        assert frames == []  # no frame ever sent
        assert net.kernel.pending == 0

    def test_each_call_feeds_breaker_once(self):
        net, provider, consumer, handle, frames = self._world()
        provider.node.go_down()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            breaker=BreakerConfig(min_calls=3, failure_threshold=0.5),
        )
        breaker = consumer.client.invocation.breakers.for_endpoint(
            handle.endpoints[0].address, policy.breaker
        )
        for calls in (1, 2):
            with pytest.raises(TransportTimeoutError):
                consumer.invoke(handle, "echo", message="x", timeout=0.1, policy=policy)
            # three failed attempts, one failed call
            assert list(breaker._outcomes) == [False] * calls
            assert breaker.state == "closed"
        with pytest.raises(TransportTimeoutError):
            consumer.invoke(handle, "echo", message="x", timeout=0.1, policy=policy)
        assert breaker.state == "open"  # the third failed call tripped it
        assert len(frames) == 9


class TestOnewayStatus:
    def test_starts_pending(self):
        status = OnewayStatus(message_id="urn:uuid:1")
        assert not status.done
        assert not status.acked

    def test_listener_fires_on_conclude(self):
        status = OnewayStatus(message_id="urn:uuid:1")
        seen = []
        status.on_done(seen.append)
        status.acked = True
        status._conclude()
        assert seen == [status]

    def test_listener_fires_immediately_if_already_done(self):
        status = OnewayStatus(message_id="urn:uuid:1")
        status.error = RuntimeError("gone")
        seen = []
        status.on_done(seen.append)
        assert seen == [status]
        assert status.done
