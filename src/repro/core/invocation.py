"""Invocations: the client side of the exchange.

"Although WSPeer allows synchronous discovery and invocation, it is
essentially an asynchronous, event driven system in which components
subscribe to events and are notified when and if responses are returned
from remote services" (§III).  Both invocation classes are async at the
core — ``invoke_async`` with a completion callback — and synchronous
``invoke`` pumps the simulation kernel until the callback fires, exactly
how HTTP's held-open connection behaves.

:class:`HttpInvocation`
    SOAP POST to an ``http://`` (or, with an :class:`HttpgTransport`
    supplied, ``httpg://``) endpoint.
:class:`P2psInvocation`
    The consumer flow of Fig. 5: create a reply pipe, serialise its
    advert into a WS-Addressing ``ReplyTo``, listen, send the request
    down the provider's operation pipe, and complete when the response
    frame lands on the reply pipe.

Both run one send pipeline (:meth:`Invocation._send`): headers, trace
context and wire are built once per logical call, the send and the
outcome are reported once, a :class:`~repro.reliability.ReliableCall`
drives retries under the call's (or the binding's default)
:class:`~repro.reliability.ReliabilityPolicy`, and a binding *leg*
sends each attempt.  Retries reuse the ``wsa:MessageID`` so provider
dedup keeps execution at-most-once; a circuit breaker judges each
logical call once.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.errors import InvocationError
from repro.core.events import EventSource
from repro.observability import metrics as obs_metrics
from repro.core.handle import ServiceHandle
from repro.core.p2psmap import action_for_pipe, epr_from_pipe, pipe_from_epr
from repro.p2ps.peer import Peer
from repro.p2ps.pipes import PipeError
from repro.reliability import (
    CircuitBreakerRegistry,
    CircuitOpenError,
    OnewayStatus,
    ReliabilityPolicy,
    ReliableCall,
    RetryPolicy,
    ack_relates_to,
    is_ack,
    mark_ack_requested,
)
from repro.observability.tracecontext import (
    begin_send as trace_begin_send,
    event_fields as trace_event_fields,
)
from repro.simnet.kernel import SimTimeoutError
from repro.simnet.network import Node
from repro.soap.attachments import MULTIPART_CONTENT_TYPE
from repro.soap.encoding import StructRegistry
from repro.soap.envelope import SoapEnvelope
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.soap.stubs import DynamicStubBuilder
from repro.transport.base import Transport
from repro.transport.http import HttpTransport
from repro.transport.uri import parse_uri_cached
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import (
    MessageAddressingProperties,
    new_message_id,
    request_templates,
)
from repro.wsdl.stubspec import stub_spec_cached

#: Completion callback: (result, error) — exactly one is non-None,
#: except for void results where both may be None.
InvokeCallback = Callable[[Any, Optional[Exception]], None]

#: per-attempt timer of a pipe call that neither the caller's timeout
#: nor a deadline bounds — the synchronous ``invoke`` default — so a
#: call whose request or reply frame is lost still concludes
PIPE_ATTEMPT_TIMEOUT = 30.0
#: per-attempt timer of an acknowledged one-way send
ACK_ATTEMPT_TIMEOUT = 1.0
#: the policy of a call that names none and has no binding default
_ONE_ATTEMPT = ReliabilityPolicy.naive()


class Invocation(EventSource):
    """Base invocation node of the interface tree."""

    def __init__(
        self,
        kernel,
        parent: Optional[EventSource] = None,
        default_policy: Optional[ReliabilityPolicy] = None,
    ):
        super().__init__("invocation", parent)
        self._kernel = kernel
        self.registry = StructRegistry()
        #: binding-supplied reliability defaults; an explicit ``policy=``
        #: argument on any call overrides this.
        self.default_policy = default_policy
        self._breakers: Optional[CircuitBreakerRegistry] = None

    def _now(self) -> float:
        return self._kernel.now

    # -- reliability -------------------------------------------------------
    @property
    def breakers(self) -> CircuitBreakerRegistry:
        """Per-endpoint circuit breakers shared by this node's calls."""
        if self._breakers is None:
            self._breakers = CircuitBreakerRegistry(
                clock=self._now, on_transition=self._on_breaker_transition
            )
        return self._breakers

    def _on_breaker_transition(self, endpoint: str, old: str, new: str) -> None:
        obs_metrics.inc("breaker.transitions." + new)
        self.fire_client(f"circuit-{new}", endpoint=endpoint, previous=old)

    def _effective_policy(
        self, policy: Optional[ReliabilityPolicy]
    ) -> ReliabilityPolicy:
        return policy or self.default_policy or _ONE_ATTEMPT

    # -- the send pipeline -------------------------------------------------
    def _decode(self, payload) -> tuple[Any, Optional[Exception]]:
        """A response wire as the (result, error) that concludes an attempt."""
        try:
            response = SoapEnvelope.from_wire_message(payload or "")
            return extract_rpc_result(response, self.registry), None
        except Exception as exc:  # includes SoapFault
            return None, exc

    def _begin(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        endpoint: EndpointReference,
        leg,
    ):
        """Build the request wire once and report that it is leaving.

        The trace context is captured when the wire is built, so every
        retransmit carries the same span identity; a fresh call (a
        failover hop) mints a sibling span.
        """
        maps = leg.maps
        trace_ctx = trace_begin_send()
        if trace_ctx is not None:
            maps.trace_context = trace_ctx.encoded()
        wire = None if leg.ack else request_templates.render(
            maps, handle.namespace, operation, args, target=endpoint
        )
        if wire is None:
            envelope = build_rpc_request(handle.namespace, operation, args, self.registry)
            maps.apply_to(envelope, target=endpoint)
            if leg.ack:
                mark_ack_requested(envelope)
            # attachments (E16) make this a multipart byte wire
            wire = envelope.to_wire_message()
        fields = {
            "service": handle.name, "operation": operation,
            "endpoint": endpoint.address, "message_id": maps.message_id,
            **trace_event_fields(trace_ctx),
        }
        if not leg.oneway:
            obs_metrics.inc("client.requests")
            self.fire_client("request-sent", **fields)
        else:
            obs_metrics.inc("client.oneway_sent")
            if leg.ack:
                fields["ack_requested"] = True
            self.fire_client("oneway-sent", **fields)
        return wire

    def _send(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        endpoint: EndpointReference,
        open_leg: Callable[[], Any],
        policy: ReliabilityPolicy,
        timeout: Optional[float],
        done: InvokeCallback,
    ) -> None:
        """Run one logical call: breaker, leg, wire, retries, outcome.

        *open_leg* opens the binding leg (resolving the provider and,
        for pipes, creating the reply pipe); each attempt goes out
        through its ``send``, timed by *timeout* or else the leg's
        default, trimmed to the policy's remaining deadline.  *done*
        fires exactly once.
        """
        breaker = None
        if policy.breaker is not None:
            breaker = self.breakers.for_endpoint(endpoint.address, policy.breaker)
            if not breaker.allow():
                done(None, CircuitOpenError(
                    f"circuit open for {endpoint.address}: shedding call "
                    f"(recent failure rate {breaker.failure_rate:.0%})"
                ))
                return
        try:
            leg = open_leg()
        except Exception as exc:  # noqa: BLE001 - resolution/mapping boundary
            if breaker is not None:
                breaker.record_failure()
            done(None, InvocationError(f"cannot reach provider: {exc}"))
            return
        wire = self._begin(handle, operation, args, endpoint, leg)
        maps, started = leg.maps, self._now()
        if timeout is None:
            timeout = leg.default_timeout

        def attempt(on_done, attempt_no: int, budget: Optional[float]) -> None:
            attempt_timeout = timeout
            if budget is not None:
                attempt_timeout = budget if timeout is None else min(timeout, budget)
            leg.send(wire, on_done, attempt_no, attempt_timeout)

        def on_retry(next_attempt: int, delay: float, error: Exception) -> None:
            obs_metrics.inc("client.retransmits")
            self.fire_client(
                "retransmit", service=handle.name, operation=operation,
                attempt=next_attempt, message_id=maps.message_id,
                delay=delay, reason=str(error),
            )

        def finish(result: Any, error: Optional[Exception]) -> None:
            leg.close()
            fields = {
                "service": handle.name, "operation": operation,
                "message_id": maps.message_id, "attempts": call.attempts_made,
            }
            if breaker is not None:
                if error is None:
                    breaker.record_success()
                else:
                    breaker.record_failure()
            # event kinds stay literals: the kind registry sweeps for them
            if error is None and leg.oneway:
                obs_metrics.inc("client.oneway_acked")
                obs_metrics.observe("client.ack_latency", self._now() - started)
                self.fire_client("oneway-acked", **fields)
            elif error is None:
                obs_metrics.inc("client.responses")
                obs_metrics.observe("client.latency", self._now() - started)
                self.fire_client("response-received", **fields)
            elif leg.oneway:
                obs_metrics.inc("client.oneway_failed")
                self.fire_client("oneway-failed", reason=str(error), **fields)
            else:
                obs_metrics.inc("client.failures")
                self.fire_client("invoke-failed", reason=str(error), **fields)
            done(result, error)

        call = ReliableCall(
            self._kernel, policy, attempt, finish, on_retry=on_retry,
            describe=f"{endpoint.address}#{operation}",
        )
        call.start()

    # -- shared ------------------------------------------------------------
    def invoke(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = 30.0,
        policy: Optional[ReliabilityPolicy] = None,
        **kwargs: Any,
    ) -> Any:
        """Synchronous invocation: pump virtual time until completion."""
        all_args = dict(args or {})
        all_args.update(kwargs)
        box: dict[str, Any] = {}

        def callback(result: Any, error: Optional[Exception]) -> None:
            box["result"] = result
            box["error"] = error

        self.invoke_async(handle, operation, all_args, callback, timeout, policy=policy)
        try:
            self._kernel.pump_until(lambda: "result" in box or "error" in box)
        except SimTimeoutError as exc:
            raise InvocationError(f"invocation of {operation!r} never completed") from exc
        if box.get("error") is not None:
            raise box["error"]
        return box.get("result")

    def invoke_oneway(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        policy: Optional[ReliabilityPolicy] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Optional[OnewayStatus]:
        """Notification-style invocation: send and do not wait.

        Default implementation dispatches asynchronously and discards
        the completion; transports with genuinely one-way wires (P2PS
        pipes) override this to skip creating a reply channel at all —
        unless the reliability policy requests acknowledgements, in
        which case an ack pipe is opened and an :class:`OnewayStatus`
        is returned for callers who care whether delivery happened.
        """
        all_args = dict(args or {})
        all_args.update(kwargs)
        self.invoke_async(
            handle, operation, all_args, lambda result, error: None,
            timeout, policy=policy,
        )
        return None

    def create_stub(
        self,
        handle: ServiceHandle,
        timeout: Optional[float] = 30.0,
        policy: Optional[ReliabilityPolicy] = None,
    ) -> Any:
        """Build a dynamic proxy whose methods invoke through this node.

        The WSPeer way: "generating stubs directly to bytes, bypassing
        source generation and compilation" (§IV-A).
        """
        spec = stub_spec_cached(handle.wsdl)

        def invoke_fn(op: str, args: dict[str, Any]) -> Any:
            return self.invoke(handle, op, args, timeout=timeout, policy=policy)

        return DynamicStubBuilder().build(spec, invoke_fn)


class _HttpLeg:
    """The request/response transport leg: one attempt is one
    ``Transport.send`` of the wire, answered on its own exchange."""

    oneway = ack = False
    #: no timer of its own: the transport applies its default
    default_timeout = None

    def __init__(self, transport: Transport, uri, maps, decode):
        self.transport = transport
        self.uri = uri
        self.maps = maps
        self.decode = decode

    def send(self, wire, on_done, attempt_no: int, timeout: Optional[float]) -> None:
        headers = {"SOAPAction": self.maps.action}
        if isinstance(wire, bytes):
            headers["Content-Type"] = MULTIPART_CONTENT_TYPE

        def on_response(body, error: Optional[Exception]) -> None:
            on_done(*(self.decode(body) if error is None else (None, error)))

        self.transport.send(self.uri, wire, headers, on_response, timeout=timeout)

    def close(self) -> None:
        pass


class _PipeLeg:
    """The P2PS leg of Fig. 5.

    Opening it resolves the provider's operation pipe and — unless the
    send is a bare one-way — creates the reply (or, for an acked
    one-way whose *status* it keeps current, the ack) pipe whose advert
    rides in ``ReplyTo``, once per logical call.  Each attempt sends the
    wire down the provider's pipe and arms the attempt timer.  A frame
    on the reply pipe concludes the latest attempt; if that attempt
    already timed out, :class:`ReliableCall` treats it as a late outcome.
    """

    def __init__(
        self,
        invocation: "P2psInvocation",
        endpoint: EndpointReference,
        operation: str,
        message_id: Optional[str] = None,
        reply: Optional[str] = None,
        status: Optional[OnewayStatus] = None,
    ):
        self.peer = peer = invocation.peer
        target = pipe_from_epr(endpoint)
        self.out_pipe = peer.open_output_pipe(target)
        #: "reply" for request/response, "ack" for an acked one-way
        self.oneway = reply != "reply"
        self.ack = reply == "ack"
        self.status = status
        self.default_timeout = ACK_ATTEMPT_TIMEOUT if self.ack else PIPE_ATTEMPT_TIMEOUT
        self.reply_advert = None
        reply_to = None
        if reply is not None:
            pipe, self.reply_advert = peer.create_input_pipe(f"{reply}-{operation}")
            pipe.add_listener(self._on_frame)
            reply_to = epr_from_pipe(self.reply_advert)
        self.maps = MessageAddressingProperties(
            to=endpoint.address,
            action=action_for_pipe(target),
            reply_to=reply_to,
            message_id=message_id if message_id is not None else new_message_id(),
        )
        self.decode = invocation._decode if reply == "reply" else self._read_ack
        what = "ack" if reply == "ack" else "response"
        self.lapsed = f"no {what} from {endpoint.address} for {operation!r}"
        self._pending = None  # on_done of the latest attempt
        self._timer = None

    def send(self, wire, on_done, attempt_no: int, timeout: float) -> None:
        if self.status is not None:
            self.status.attempts = attempt_no + 1
        try:
            self.peer.send_down_pipe(self.out_pipe, wire)
        except PipeError as exc:
            raise InvocationError(str(exc)) from exc
        self._pending = on_done
        self._timer = self.peer.network.kernel.schedule(
            timeout, self._lapse, on_done, attempt_no + 1, timeout
        )

    def _lapse(self, on_done, attempts: int, timeout: float) -> None:
        self._timer = None
        on_done(None, InvocationError(
            f"{self.lapsed} after {attempts} attempt(s) of {timeout}s"
        ))

    def _read_ack(self, payload):
        try:
            frame = SoapEnvelope.from_wire_message(payload)
        except Exception:  # noqa: BLE001 - wire boundary
            return None
        acked = is_ack(frame) and ack_relates_to(frame) == self.maps.message_id
        return (None, None) if acked else None

    def _on_frame(self, payload, meta: dict) -> None:
        outcome = self.decode(payload)
        if outcome is None or self._pending is None:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._pending(*outcome)

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._pending = self._timer = None
        if self.reply_advert is not None:
            self.peer.close_input_pipe(self.reply_advert.pipe_id)


class HttpInvocation(Invocation):
    """SOAP over request/response transports (HTTP and HTTPG)."""

    def __init__(
        self,
        node: Node,
        parent: Optional[EventSource] = None,
        extra_transports: Optional[list[Transport]] = None,
        default_policy: Optional[ReliabilityPolicy] = None,
    ):
        super().__init__(node.network.kernel, parent, default_policy=default_policy)
        self.node = node
        self._transports: dict[str, Transport] = {"http": HttpTransport(node)}
        for transport in extra_transports or []:
            self._transports[transport.scheme] = transport

    def enable_http_keepalive(self, config=None):
        """Switch every poolable transport to persistent pooled
        connections (E11), sharing one pool across schemes.

        One connection cache per *node* — retries and failover hops
        issued through this invocation reuse the same warm connections
        instead of re-handshaking per attempt.  *config* may be a
        :class:`~repro.transport.connection.PoolConfig`, an existing
        pool, or None.  Returns the shared
        :class:`~repro.transport.connection.ConnectionPool`.
        """
        from repro.transport.connection import ConnectionPool

        pool = config if isinstance(config, ConnectionPool) else None
        for transport in self._transports.values():
            if not hasattr(transport, "enable_pooling"):
                continue
            pool = transport.enable_pooling(pool if pool is not None else config)
        if pool is None:
            raise InvocationError(
                f"no poolable transport among {sorted(self._transports)}"
            )
        return pool

    def invoke_async(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        callback: InvokeCallback,
        timeout: Optional[float] = None,
        policy: Optional[ReliabilityPolicy] = None,
        endpoint: Optional[EndpointReference] = None,
        message_id: Optional[str] = None,
    ) -> None:
        if endpoint is None:
            endpoint = self._pick_endpoint(handle)
        if endpoint is None:
            callback(
                None,
                InvocationError(
                    f"service {handle.name!r} has no endpoint for schemes "
                    f"{sorted(self._transports)}"
                ),
            )
            return
        uri = parse_uri_cached(endpoint.address)
        transport = self._transports.get(uri.scheme)
        if transport is None:
            callback(
                None,
                InvocationError(
                    f"no transport for scheme {uri.scheme!r} (endpoint "
                    f"{endpoint.address})"
                ),
            )
            return
        # One MessageID for every attempt; a caller-supplied one extends
        # the dedup guarantee across endpoints — the failover executor
        # keeps one identity per logical call wherever each hop lands.
        maps = MessageAddressingProperties.for_request(endpoint, operation)
        if message_id is not None:
            maps.message_id = message_id
        self._send(
            handle, operation, args, endpoint,
            lambda: _HttpLeg(transport, uri, maps, self._decode),
            self._effective_policy(policy), timeout, callback,
        )

    def _pick_endpoint(self, handle: ServiceHandle) -> Optional[EndpointReference]:
        for scheme in self._transports:
            endpoint = handle.endpoint_for_scheme(scheme)
            if endpoint is not None:
                return endpoint
        return None


class P2psInvocation(Invocation):
    """SOAP over P2PS pipes — the consumer flow of Fig. 5.

    Pipes are one-way and give no delivery signal, so reliability here
    is retransmission: when an attempt's timeout lapses the same
    request (same MessageID) is re-sent after the policy's backoff; the
    provider suppresses duplicate execution and replays its retained
    response, so retries are safe even for non-idempotent operations.
    ``default_retries`` is the legacy knob for the same machinery
    (*n* extra attempts, no backoff) and wins over the binding default
    for request/response calls when set.
    """

    def __init__(
        self,
        peer: Peer,
        parent: Optional[EventSource] = None,
        default_retries: int = 0,
        default_policy: Optional[ReliabilityPolicy] = None,
    ):
        super().__init__(peer.network.kernel, parent, default_policy=default_policy)
        self.peer = peer
        self.default_retries = default_retries

    def _effective_policy(
        self, policy: Optional[ReliabilityPolicy]
    ) -> ReliabilityPolicy:
        if policy is not None or not self.default_retries:
            return super()._effective_policy(policy)
        return ReliabilityPolicy(retry=RetryPolicy(
            max_attempts=1 + self.default_retries, base_delay=0.0, jitter=0.0
        ))

    def invoke_async(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        callback: InvokeCallback,
        timeout: Optional[float] = None,
        policy: Optional[ReliabilityPolicy] = None,
        endpoint: Optional[EndpointReference] = None,
        message_id: Optional[str] = None,
    ) -> None:
        if endpoint is None:
            endpoint = self._endpoint_for_operation(handle, operation)
        if endpoint is None:
            callback(
                None,
                InvocationError(
                    f"service {handle.name!r} has no p2ps pipe for operation {operation!r}"
                ),
            )
            return
        self._send(
            handle, operation, args, endpoint,
            lambda: _PipeLeg(self, endpoint, operation, message_id, "reply"),
            self._effective_policy(policy), timeout, callback,
        )

    def invoke_oneway(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        policy: Optional[ReliabilityPolicy] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Optional[OnewayStatus]:
        """True one-way: no reply pipe is created and no ReplyTo header
        is sent, so the provider does not answer (Fig. 6 short-circuits
        after step 3).

        With an acknowledgement-requesting policy (``policy.ack``), the
        WS-RM-lite handshake runs instead: an ack pipe is opened, the
        request carries ``rm:AckRequested`` and is retransmitted (same
        MessageID) until the provider's ack frame arrives or attempts
        run out; the returned :class:`OnewayStatus` tracks the outcome.
        Acks are opt-in per call or per policy — a bare oneway stays a
        single fire-and-forget frame.
        """
        all_args = dict(args or {})
        all_args.update(kwargs)
        endpoint = self._endpoint_for_operation(handle, operation)
        if endpoint is None:
            raise InvocationError(
                f"service {handle.name!r} has no p2ps pipe for operation {operation!r}"
            )
        policy = super()._effective_policy(policy)  # default_retries is not for one-ways
        if not policy.ack:
            leg = _PipeLeg(self, endpoint, operation)
            wire = self._begin(handle, operation, all_args, endpoint, leg)
            self.peer.send_down_pipe(leg.out_pipe, wire)
            return None
        status = OnewayStatus(message_id=new_message_id())

        def conclude(result: Any, error: Optional[Exception]) -> None:
            if error is None:
                status.acked, status.acked_at = True, self._now()
            else:
                status.error = error
            status._conclude()

        self._send(
            handle, operation, all_args, endpoint,
            lambda: _PipeLeg(self, endpoint, operation, status.message_id, "ack", status),
            policy, timeout, conclude,
        )
        return status

    def _endpoint_for_operation(
        self, handle: ServiceHandle, operation: str
    ) -> Optional[EndpointReference]:
        for endpoint in handle.endpoints:
            if not endpoint.address.startswith("p2ps://"):
                continue
            if endpoint.property_text("PipeName") == operation:
                return endpoint
        return None
