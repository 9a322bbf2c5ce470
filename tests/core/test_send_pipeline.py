"""Rules of the one client send pipeline, across bindings.

Late pipe replies conclude the call once; the circuit breaker judges a
logical call once, however many attempts it took; ``Server.Busy``
answers on pipes are retried under the policy's classification; and an
asynchronous P2PS call with no caller timeout still concludes when a
frame is lost.  A concluded call leaves nothing behind for the cyclic
collector: large wires are freed as soon as the call ends.
"""

import gc

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.events import RecordingListener
from repro.core.invocation import _HttpLeg, _PipeLeg
from repro.observability import metrics as obs_metrics
from repro.reliability import BreakerConfig, ReliabilityPolicy, ReliableCall, RetryPolicy
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


def p2ps_world():
    from repro.p2ps import PeerGroup

    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    net.run()
    consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
    handle = consumer.locate_one("Echo")
    return net, provider, consumer, handle


def http_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    return net, provider, consumer, provider.local_handle("Echo")


def live_pipes(peer):
    return [port for port in peer.node.ports if port.startswith("pipe:")]


def frames_from(net, src, port_prefix):
    sent = []

    def hook(frame):
        if frame.src == src and frame.port.startswith(port_prefix):
            sent.append(frame)
        return True

    net.add_delivery_hook(hook)
    return sent


def drop_first(net, src, port_prefix, count=1):
    dropped = []

    def hook(frame):
        if frame.src == src and frame.port.startswith(port_prefix) and len(dropped) < count:
            dropped.append(frame)
            return False
        return True

    net.add_delivery_hook(hook)
    return dropped


class TestLateReplies:
    def test_reply_landing_in_backoff_completes_call_once(self):
        net, provider, consumer, handle = p2ps_world()
        requests = frames_from(net, "cons", "pipe:")
        held = drop_first(net, "prov", "pipe:")
        # the held reply is re-sent 0.3 s later: after the 0.2 s attempt
        # timer lapsed, inside the 1 s backoff before attempt 2
        net.kernel.schedule(0.3, lambda: net.send(held[0]))
        calls = []
        consumer.invoke_async(
            handle, "echo", {"message": "late"},
            lambda result, error: calls.append((result, error)),
            timeout=0.2,
            policy=ReliabilityPolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
            ),
        )
        net.run()
        assert calls == [("late", None)]
        assert len(requests) == 1  # the backoff was cancelled: no resend
        assert live_pipes(consumer) == []
        assert net.kernel.pending == 0


    def test_late_busy_reply_in_backoff_leaves_the_retry_to_run(self):
        net, provider, consumer, handle = p2ps_world()
        admission = provider.set_admission_control(capacity=1.0, drain_rate=5.0)
        admission.level = admission.capacity + 0.5  # saturated for 0.1 s
        held = drop_first(net, "prov", "pipe:")
        # the Server.Busy answer to attempt 1 lands 0.3 s in: after its
        # 0.2 s timer lapsed, inside the 1 s backoff before attempt 2
        net.kernel.schedule(0.3, lambda: net.send(held[0]))
        calls = []
        consumer.invoke_async(
            handle, "echo", {"message": "b"},
            lambda result, error: calls.append((result, error)),
            timeout=0.2,
            policy=ReliabilityPolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
            ),
        )
        net.run()
        assert calls == [("b", None)]
        assert provider.server.container.requests_shed == 1
        assert live_pipes(consumer) == []


class TestAttemptTimersUnderDeadline:
    """A deadline trims the leg's own attempt timer; it does not replace it."""

    def test_acked_oneway_keeps_its_ack_timer(self):
        net, provider, consumer, handle = p2ps_world()
        drop_first(net, "cons", "pipe:")
        status = consumer.invoke_oneway(
            handle, "echo", {"message": "m"},
            policy=ReliabilityPolicy.assured(deadline=10.0),
        )
        assert status.attempts == 1  # counted as each attempt goes out
        net.run()
        assert status.acked and status.attempts == 2
        assert status.acked_at < 2.0

    def test_pipe_request_keeps_its_attempt_timer(self):
        net, provider, consumer, handle = p2ps_world()
        drop_first(net, "cons", "pipe:")
        calls = []
        consumer.invoke_async(
            handle, "echo", {"message": "m"},
            lambda result, error: calls.append((result, error, net.now)),
            timeout=None,
            policy=ReliabilityPolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
                deadline=100.0,
            ),
        )
        net.run()
        assert [(result, error) for result, error, _ in calls] == [("m", None)]
        assert 30.0 < calls[0][2] < 31.0


class TestLegacyRetries:
    def test_default_retries_leave_acked_oneways_to_the_binding_policy(self):
        from repro.p2ps import PeerGroup

        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        binding = P2psBinding(group, reliability=ReliabilityPolicy.assured())
        consumer = WSPeer(net.add_node("cons"), binding, name="cons")
        consumer.client.invocation.default_retries = 2
        status = consumer.invoke_oneway(consumer.locate_one("Echo"), "echo", message="m")
        net.run()
        assert status is not None and status.acked


class TestBreakerOncePerCall:
    def test_http_success_on_third_attempt_records_one_outcome(self):
        net, provider, consumer, handle = http_world()
        drop_first(net, "cons", "http:", count=2)
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            breaker=BreakerConfig(min_calls=4),
        )
        assert consumer.invoke(handle, "echo", message="x", timeout=0.2, policy=policy) == "x"
        breaker = consumer.client.invocation.breakers.get(handle.endpoints[0].address)
        assert list(breaker._outcomes) == [True]


class TestBusyOnPipes:
    def test_busy_reply_is_retried_until_admitted(self):
        net, provider, consumer, handle = p2ps_world()
        admission = provider.set_admission_control(capacity=1.0, drain_rate=5.0)
        admission.level = admission.capacity + 0.5  # saturated for 0.1 s
        listener = RecordingListener()
        consumer.add_listener(listener)
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.2, jitter=0.0)
        )
        assert consumer.invoke(handle, "echo", message="b", timeout=1.0, policy=policy) == "b"
        assert provider.server.container.requests_shed == 1
        assert len(listener.of_kind("retransmit")) == 1


class TestRetransmitsCounted:
    def test_acked_oneway_retransmit_is_counted(self):
        net, provider, consumer, handle = p2ps_world()
        drop_first(net, "cons", "pipe:")
        before = obs_metrics.default_registry().get("client.retransmits")
        status = consumer.invoke_oneway(
            handle, "echo", {"message": "m"}, policy=ReliabilityPolicy.assured()
        )
        net.run()
        assert status.acked and status.attempts == 2
        assert obs_metrics.default_registry().get("client.retransmits") == before + 1


class TestAsyncPipeCallsConclude:
    def test_lost_request_without_timeout_still_calls_back(self):
        net, provider, consumer, handle = p2ps_world()
        drop_first(net, "cons", "pipe:")
        calls = []
        consumer.invoke_async(
            handle, "echo", {"message": "m"},
            lambda result, error: calls.append((result, error)), timeout=None,
        )
        net.run()
        assert calls == [("m", None)]
        assert live_pipes(consumer) == []


class TestNothingOutlivesTheCall:
    def test_concluded_calls_leave_no_cyclic_garbage(self):
        """Keep-alive HTTP and P2PS calls, with the worlds kept alive:
        the collector must find no call or leg among unreachable
        cycles."""
        worlds = []
        gc.collect()
        gc.disable()
        try:
            for make, keepalive in ((http_world, True), (p2ps_world, False)):
                net, provider, consumer, handle = world = make()
                worlds.append(world)
                if keepalive:
                    consumer.enable_http_keepalive()
                for _ in range(3):
                    assert consumer.invoke(handle, "echo", message="x") == "x"
                net.run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [
                obj for obj in gc.garbage
                if isinstance(obj, (ReliableCall, _HttpLeg, _PipeLeg))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []
