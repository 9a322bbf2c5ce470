"""Wire parity of every client send path, pinned as literal bytes.

Each send path — HTTP POST, HTTPG POST, P2PS request/response, bare
one-way and acknowledged one-way — must put exactly these bytes on the
wire.  Only process-global counters are normalised: ``urn:uuid:repro-<n>``
MessageIDs and ``pipe-<n>`` pipe ids become ``<mid-k>`` / ``<pipe-k>``
in order of first appearance, and peer ids are minted from a fresh
counter per test.
"""

import itertools
import re

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.deployer import HttpgServiceDeployer
from repro.core.invocation import HttpInvocation
from repro.p2ps import PeerGroup, ids
from repro.reliability import ReliabilityPolicy
from repro.simnet import FixedLatency, Network
from repro.transport import CertificateAuthority, HttpgTransport
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


_COUNTERS = (
    (re.compile(r"urn:uuid:repro-\d+"), "mid"),
    (re.compile(r"pipe-\d+"), "pipe"),
)


def normalise(port: str, payload) -> tuple[str, str]:
    text = payload.decode("utf-8") if isinstance(payload, bytes) else payload
    port_and_text = port + "\n" + text
    for pattern, label in _COUNTERS:
        seen: dict[str, str] = {}
        port_and_text = pattern.sub(
            lambda m: seen.setdefault(m.group(0), f"<{label}-{len(seen) + 1}>"),
            port_and_text,
        )
    port, text = port_and_text.split("\n", 1)
    return port, text


def tap(net, src):
    """Record (port, normalised payload) of every frame *src* sends."""
    frames = []

    def hook(frame):
        if frame.src == src:
            frames.append(normalise(frame.port, frame.payload))
        return True

    net.add_delivery_hook(hook)
    return frames


@pytest.fixture(autouse=True)
def _fresh_peer_ids(monkeypatch):
    monkeypatch.setattr(ids, "_peer_counter", itertools.count(1))


def http_frames():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    frames = tap(net, "cons")
    assert consumer.invoke(provider.local_handle("Echo"), "echo", message="hi") == "hi"
    return frames


def httpg_frames():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    ca = CertificateAuthority()
    provider = WSPeer(net.add_node("secure-prov"), StandardBinding(registry.endpoint))
    server = HttpgTransport(provider.node, ca, ca.issue("secure-prov-host"))
    provider.server.register_deployer(
        HttpgServiceDeployer(provider.node, provider.server.container, server)
    )
    provider.deploy(Echo(), name="SecureEcho")
    consumer = WSPeer(net.add_node("secure-cons"), StandardBinding(registry.endpoint))
    consumer.client.register_invocation(
        HttpInvocation(
            consumer.node,
            extra_transports=[HttpgTransport(consumer.node, ca, ca.issue("secure-cons-user"))],
        )
    )
    frames = tap(net, "secure-cons")
    handle = provider.local_handle("SecureEcho")
    assert consumer.invoke(handle, "echo", message="hi") == "hi"
    return frames


def p2ps_world():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    net.run()
    consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
    handle = consumer.locate_one("Echo")
    return net, consumer, handle, tap(net, "cons")


def p2ps_request_frames():
    net, consumer, handle, frames = p2ps_world()
    assert consumer.invoke(handle, "echo", message="hi") == "hi"
    return frames


def bare_oneway_frames():
    net, consumer, handle, frames = p2ps_world()
    assert consumer.invoke_oneway(handle, "echo", message="hi") is None
    net.run()
    return frames


def acked_oneway_frames():
    net, consumer, handle, frames = p2ps_world()
    status = consumer.invoke_oneway(
        handle, "echo", {"message": "hi"}, policy=ReliabilityPolicy.assured()
    )
    net.run()
    assert status.acked and status.attempts == 1
    return frames


_SOAP_OPEN = (
    '<?xml version="1.0" encoding="utf-8"?><soapenv:Envelope '
    'xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" '
    'xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><soapenv:Header>'
)
_WSA = 'xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing"'
_P2PS = 'xmlns:p2ps="http://repro.wspeer/p2ps"'


def _echo_body(service):
    return (
        f'<soapenv:Body><tns:echo xmlns:tns="urn:wspeer:{service}">'
        '<message xsi:type="xsd:string">hi</message></tns:echo>'
        "</soapenv:Body></soapenv:Envelope>"
    )


def _addressing(to, mid):
    return (
        f"<wsa:To {_WSA}>{to}</wsa:To>"
        f"<wsa:Action {_WSA}>{to}#echo</wsa:Action>"
        f"<wsa:MessageID {_WSA}><{mid}></wsa:MessageID>"
    )


def _pipe_props(pipe, name):
    return (
        f"<p2ps:PipeId {_P2PS}><{pipe}></p2ps:PipeId>"
        f"<p2ps:PipeName {_P2PS}>{name}</p2ps:PipeName>"
        f"<p2ps:PipeType {_P2PS}>input</p2ps:PipeType>"
    )


def _reply_to(pipe, name):
    return (
        f"<wsa:ReplyTo {_WSA}><wsa:Address>p2ps://peer-cons-0002</wsa:Address>"
        f"<wsa:ReferenceProperties>{_pipe_props(pipe, name)}"
        "</wsa:ReferenceProperties></wsa:ReplyTo>"
    )


_HTTP_BODY = (
    _SOAP_OPEN + _addressing("http://prov:80/services/Echo", "mid-1")
    + "</soapenv:Header>" + _echo_body("Echo")
)
_HTTPG_BODY = (
    _SOAP_OPEN
    + _addressing("httpg://secure-prov:8443/services/SecureEcho", "mid-1")
    + "</soapenv:Header>" + _echo_body("SecureEcho")
)
_P2PS_TO = "p2ps://peer-prov-0001/Echo"

GOLDEN = {
    "http": [(
        "http:80",
        "POST /services/Echo HTTP/1.1\r\n"
        "SOAPAction: http://prov:80/services/Echo#echo\r\n"
        "Content-Type: text/xml; charset=utf-8\r\n"
        "Host: prov:80\r\n"
        "Content-Length: 726\r\n\r\n" + _HTTP_BODY,
    )],
    "httpg": [(
        "http:8443",
        "POST /services/SecureEcho HTTP/1.1\r\n"
        "SOAPAction: httpg://secure-prov:8443/services/SecureEcho#echo\r\n"
        "X-Globus-Credential: secure-cons-user;2;inf;845dc4f2e0a3a7e07883a854aafe69f9\r\n"
        "Content-Type: text/xml; charset=utf-8\r\n"
        "Content-Length: 764\r\n\r\n" + _HTTPG_BODY,
    )],
    "p2ps_request": [(
        "pipe:<pipe-1>",
        _SOAP_OPEN + _addressing(_P2PS_TO, "mid-1") + _reply_to("pipe-2", "reply-echo")
        + _pipe_props("pipe-1", "echo") + "</soapenv:Header>" + _echo_body("Echo"),
    )],
    "bare_oneway": [(
        "pipe:<pipe-1>",
        _SOAP_OPEN + _addressing(_P2PS_TO, "mid-1")
        + _pipe_props("pipe-1", "echo") + "</soapenv:Header>" + _echo_body("Echo"),
    )],
    "acked_oneway": [(
        "pipe:<pipe-1>",
        _SOAP_OPEN + _addressing(_P2PS_TO, "mid-1") + _reply_to("pipe-2", "ack-echo")
        + _pipe_props("pipe-1", "echo")
        + '<rm:AckRequested xmlns:rm="urn:repro:reliability">1</rm:AckRequested>'
        + "</soapenv:Header>" + _echo_body("Echo"),
    )],
}

CAPTURES = {
    "http": http_frames,
    "httpg": httpg_frames,
    "p2ps_request": p2ps_request_frames,
    "bare_oneway": bare_oneway_frames,
    "acked_oneway": acked_oneway_frames,
}


@pytest.mark.parametrize("path", sorted(CAPTURES))
def test_send_path_wire_bytes(path):
    assert CAPTURES[path]() == GOLDEN[path]
