"""ServiceDeployers: make a deployed service addressable on a network.

"On the server side, deploying a service involves taking a code source,
generating a service interface description from it ..., and creating an
addressable endpoint which can be used to connect to the source" (§III).
The container does the first two; deployers do the third:

:class:`HttpServiceDeployer`
    Launches an HTTP server *on first deploy* ("the HTTP server is only
    launched once the application has deployed a service", §IV-A),
    routes ``/services/<Name>`` for SOAP POSTs and
    ``/services/<Name>.wsdl`` for interface retrieval, and supports the
    application-interception option through the container.
:class:`P2psServiceDeployer`
    Creates one input pipe per operation plus the *definition pipe*
    (§IV-B), wires the provider-side request/response flow of Fig. 6,
    and assembles the ServiceAdvertisement for publication.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import DeploymentError
from repro.core.events import EventSource
from repro.core.hosting import DeployedService, LightweightContainer
from repro.core.p2psmap import epr_from_pipe, pipe_from_epr
from repro.observability import metrics as obs_metrics
from repro.p2ps.advertisements import ServiceAdvertisement
from repro.p2ps.peer import Peer
from repro.p2ps.pipes import PipeError, ResolutionError
from repro.reliability import DedupWindow, ack_requested, build_ack
from repro.simnet.network import NetworkError, Node
from repro.soap.attachments import MULTIPART_CONTENT_TYPE
from repro.soap.envelope import SoapEnvelope
from repro.soap.faults import is_transient_fault_element
from repro.transport.http import DEFAULT_HTTP_PORT, HttpRequest, HttpResponse, HttpServer
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageAddressingProperties
from repro.wsa.p2psuri import make_p2ps_uri
from repro.wsdl.model import SOAP_P2PS_TRANSPORT

DEFINITION_PIPE_NAME = "definition"


class ServiceDeployer(EventSource):
    """Base deployer: subclasses open endpoints for deployed services."""

    def __init__(self, container: LightweightContainer, parent: Optional[EventSource] = None):
        super().__init__("deployer", parent)
        self.container = container

    def _now(self) -> float:
        return self.container._now()

    def deploy(self, deployed: DeployedService) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def undeploy(self, deployed: DeployedService) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class HttpServiceDeployer(ServiceDeployer):
    """SOAP-over-HTTP endpoints under ``/services/``."""

    def __init__(
        self,
        node: Node,
        container: LightweightContainer,
        port: int = DEFAULT_HTTP_PORT,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(container, parent)
        self.node = node
        self.port = port
        self.server = HttpServer(node, port)

    def service_path(self, name: str) -> str:
        return f"/services/{name}"

    def endpoint_uri(self, name: str) -> str:
        return f"http://{self.node.id}:{self.port}{self.service_path(name)}"

    def deploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        if not self.server.started:
            self.server.start()  # launched only now — no standing container
            self.fire_deployment("http-server-launched", node=self.node.id, port=self.port)

        def soap_route(request: HttpRequest) -> HttpResponse:
            envelope = SoapEnvelope.from_wire_message(request.body)
            response = self.container.process_request(name, envelope)
            status = 500 if response.is_fault else 200
            wire = response.to_wire_message()
            if isinstance(wire, bytes):
                return HttpResponse(status, wire, {"Content-Type": MULTIPART_CONTENT_TYPE})
            return HttpResponse(status, wire)

        def wsdl_route(request: HttpRequest) -> HttpResponse:
            return HttpResponse(
                200, deployed.wsdl().to_wire(), {"Content-Type": "text/xml"}
            )

        self.server.add_route(self.service_path(name), soap_route)
        self.server.add_route(self.service_path(name) + ".wsdl", wsdl_route)
        deployed.add_endpoint(
            EndpointReference(self.endpoint_uri(name)), port_name=f"{name}HttpPort"
        )
        self.fire_deployment("endpoint-opened", service=name, address=self.endpoint_uri(name))

    def undeploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        self.server.remove_route(self.service_path(name))
        self.server.remove_route(self.service_path(name) + ".wsdl")
        self.fire_deployment("endpoint-closed", service=name)
        if not self.server.routes:
            self.server.stop()
            self.fire_deployment("http-server-stopped", node=self.node.id)


class P2psServiceDeployer(ServiceDeployer):
    """SOAP-over-pipes endpoints: one pipe per operation + definition pipe."""

    #: retained responses for duplicate suppression (per deployer)
    RESPONSE_CACHE_LIMIT = 256

    def __init__(
        self,
        peer: Peer,
        container: LightweightContainer,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(container, parent)
        self.peer = peer
        self.adverts: dict[str, ServiceAdvertisement] = {}
        self._pipe_ids: dict[str, list[str]] = {}
        # message-id -> response wire text: retransmitted requests are
        # answered from here instead of re-executing the operation
        self._response_cache = DedupWindow(
            max_entries=self.RESPONSE_CACHE_LIMIT,
            clock=lambda: peer.network.kernel.now,
        )
        self.duplicates_suppressed = 0

    def deploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        deployed.transport = SOAP_P2PS_TRANSPORT
        pipe_ids: list[str] = []

        for op_name in deployed.service.operation_names:
            _, advert = self.peer.create_input_pipe(
                op_name,
                service_name=name,
                listener=self._make_invoke_listener(deployed),
            )
            pipe_ids.append(advert.pipe_id)
            deployed.add_endpoint(epr_from_pipe(advert), port_name=f"{name}-{op_name}")

        _, def_advert = self.peer.create_input_pipe(
            DEFINITION_PIPE_NAME,
            service_name=name,
            listener=self._make_definition_listener(deployed),
        )
        pipe_ids.append(def_advert.pipe_id)

        advert = ServiceAdvertisement(
            name,
            self.peer.id,
            pipes=[
                self.peer.cache.get(f"pipe:{pid}")  # type: ignore[misc]
                for pid in pipe_ids
            ],
            definition_pipe=DEFINITION_PIPE_NAME,
            attributes={"namespace": deployed.namespace},
        )
        self.adverts[name] = advert
        self._pipe_ids[name] = pipe_ids
        self.fire_deployment(
            "pipes-opened", service=name, pipes=len(pipe_ids),
            address=make_p2ps_uri(self.peer.id, name),
        )

    def undeploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        for pipe_id in self._pipe_ids.pop(name, []):
            self.peer.close_input_pipe(pipe_id)
        self.adverts.pop(name, None)
        self.fire_deployment("pipes-closed", service=name)

    def advert_for(self, name: str) -> ServiceAdvertisement:
        advert = self.adverts.get(name)
        if advert is None:
            raise DeploymentError(f"service {name!r} is not deployed over P2PS")
        return advert

    # ------------------------------------------------------------------
    # provider-side flows (Fig. 6)
    # ------------------------------------------------------------------
    def _remember(self, message_id: str, wire) -> None:
        """Retain *wire* for duplicate suppression, honouring the
        (test-adjustable) ``RESPONSE_CACHE_LIMIT``."""
        self._response_cache.max_entries = self.RESPONSE_CACHE_LIMIT
        self._response_cache.remember(message_id, wire)

    def _send_ack(
        self, deployed: DeployedService, maps: MessageAddressingProperties
    ) -> None:
        """Answer receipt of *maps.message_id* down the sender's ack pipe."""
        ack = build_ack(maps.message_id, maps.reply_to.address)
        try:
            reply_advert = pipe_from_epr(maps.reply_to)
            out_pipe = self.peer.open_output_pipe(reply_advert)
            self.peer.send_down_pipe(out_pipe, ack.to_wire())
        except Exception as exc:  # noqa: BLE001 - ack delivery best-effort
            self.fire_server(
                "ack-undeliverable", service=deployed.name, reason=str(exc)
            )
            return
        self.fire_server(
            "ack-sent", service=deployed.name, message_id=maps.message_id
        )

    def _make_invoke_listener(self, deployed: DeployedService):
        def on_request(payload, meta: dict) -> None:
            # 1. Retrieve SOAP request from pipe.  Garbage from hostile
            # or broken peers must never crash the provider: it is
            # dropped with a server event.  The payload may be text or
            # a multipart byte wire carrying attachments (E16).
            try:
                request = SoapEnvelope.from_wire_message(payload)
            except Exception as exc:  # noqa: BLE001 - wire boundary
                self.fire_server(
                    "malformed-request", service=deployed.name, reason=str(exc)
                )
                return
            try:
                maps = MessageAddressingProperties.extract_from(request)
            except Exception:
                maps = None
            wants_ack = (
                maps is not None
                and maps.message_id is not None
                and maps.reply_to is not None
                and ack_requested(request)
            )
            # retransmission handling: a MessageID seen before is not
            # re-executed; the retained response (or, for ack-requested
            # one-ways, a fresh ack) is re-sent instead — at-most-once
            # execution under client retries
            if maps is not None and maps.message_id in self._response_cache:
                self.duplicates_suppressed += 1
                obs_metrics.inc("server.duplicates_suppressed")
                self.fire_server(
                    "duplicate-suppressed",
                    service=deployed.name,
                    message_id=maps.message_id,
                )
                if wants_ack:
                    self._send_ack(deployed, maps)
                elif maps.reply_to is not None:
                    retained = self._response_cache.get(maps.message_id)
                    if retained is not None:
                        try:
                            reply_advert = pipe_from_epr(maps.reply_to)
                            out_pipe = self.peer.open_output_pipe(reply_advert)
                            self.peer.send_down_pipe(out_pipe, retained)
                        except Exception:  # noqa: BLE001
                            pass
                return
            # WS-RM-lite: acknowledge *receipt* before execution, then
            # treat the request as one-way (the ack is the only return
            # traffic; results are not streamed back)
            if wants_ack:
                self._send_ack(deployed, maps)
                self._remember(maps.message_id, None)
                self.container.process_request(deployed.name, request)
                return
            # 3. Process request
            response = self.container.process_request(deployed.name, request)
            # 2/4. Retrieve the ReplyTo endpoint reference and convert it
            #      to a pipe advertisement; request the return pipe
            if maps is None or maps.reply_to is None:
                return  # one-way invocation: nothing to return
            try:
                reply_advert = pipe_from_epr(maps.reply_to)
                out_pipe = self.peer.open_output_pipe(reply_advert)
            except Exception as exc:  # noqa: BLE001 - engine boundary
                self.fire_server(
                    "reply-undeliverable", service=deployed.name, reason=str(exc)
                )
                return
            # correlate and send the response down the return pipe (5/6)
            reply_maps = MessageAddressingProperties(
                to=maps.reply_to.address,
                action=f"{maps.action}Response" if maps.action else maps.reply_to.address,
                relates_to=maps.message_id,
            )
            reply_maps.apply_to(response)
            # responses with attachments ride the same dedup cache as
            # text: the retained multipart bytes replay byte-identically
            wire = response.to_wire_message()
            if maps.message_id and not (
                response.body_content is not None
                and is_transient_fault_element(response.body_content)
            ):
                # busy/lag answers are provider-state, not results: a
                # retransmission must get a fresh admission (or
                # catch-up) decision, not a cached fault
                self._remember(maps.message_id, wire)
            try:
                self.peer.send_down_pipe(out_pipe, wire)
            except (PipeError, NetworkError) as exc:
                # NetworkError covers the node dying mid-dispatch (a
                # crash injected while processing): the reply is lost
                # on the wire, visibly
                self.fire_server(
                    "reply-undeliverable", service=deployed.name, reason=str(exc)
                )

        return on_request

    def _make_definition_listener(self, deployed: DeployedService):
        def on_definition_request(payload, meta: dict) -> None:
            # definition pipe protocol: a SOAP request whose ReplyTo names
            # the pipe to stream the WSDL text back down
            try:
                request = SoapEnvelope.from_wire_message(payload)
                maps = MessageAddressingProperties.extract_from(request)
            except Exception:
                return
            if maps.reply_to is None:
                return
            try:
                reply_advert = pipe_from_epr(maps.reply_to)
                out_pipe = self.peer.open_output_pipe(reply_advert)
                self.peer.send_down_pipe(out_pipe, deployed.wsdl().to_wire())
            except (ResolutionError, PipeError):
                pass

        return on_definition_request


class HttpgServiceDeployer(ServiceDeployer):
    """Authenticated SOAP endpoints (the Globus HTTPG transport, §IV-A).

    Identical shape to :class:`HttpServiceDeployer` but every request
    must present a CA-verified credential before the container sees it;
    the WSDL route is protected the same way.
    """

    def __init__(
        self,
        node: Node,
        container: LightweightContainer,
        transport,  # HttpgTransport, typed loosely to avoid import cycle
        port: int = 8443,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(container, parent)
        self.node = node
        self.port = port
        self.transport = transport

    def endpoint_uri(self, name: str) -> str:
        return f"httpg://{self.node.id}:{self.port}/services/{name}"

    def deploy(self, deployed: DeployedService) -> None:
        from repro.transport.uri import Uri
        from repro.wsdl.model import SOAP_HTTPG_TRANSPORT

        name = deployed.name
        deployed.transport = SOAP_HTTPG_TRANSPORT

        def soap_handler(body, headers: dict) -> tuple:
            envelope = SoapEnvelope.from_wire_message(body)
            response = self.container.process_request(name, envelope)
            out_headers = {"X-Status": "500"} if response.is_fault else {}
            wire = response.to_wire_message()
            if isinstance(wire, bytes):
                out_headers["Content-Type"] = MULTIPART_CONTENT_TYPE
            return wire, out_headers

        def wsdl_handler(body: str, headers: dict) -> tuple[str, dict]:
            return deployed.wsdl().to_wire(), {"Content-Type": "text/xml"}

        self.transport.listen(Uri.parse(self.endpoint_uri(name)), soap_handler)
        self.transport.listen(Uri.parse(self.endpoint_uri(name) + ".wsdl"), wsdl_handler)
        deployed.add_endpoint(
            EndpointReference(self.endpoint_uri(name)), port_name=f"{name}HttpgPort"
        )
        self.fire_deployment(
            "endpoint-opened", service=name, address=self.endpoint_uri(name),
            authenticated=True,
        )

    def undeploy(self, deployed: DeployedService) -> None:
        from repro.transport.uri import Uri

        name = deployed.name
        self.transport.stop_listening(Uri.parse(self.endpoint_uri(name)))
        self.transport.stop_listening(Uri.parse(self.endpoint_uri(name) + ".wsdl"))
        self.fire_deployment("endpoint-closed", service=name)
