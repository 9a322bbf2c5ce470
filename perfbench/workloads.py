"""The benchmark's workloads: world set-up, one closed-loop round, and
the state read back after the run has gone quiet.

Every workload drives only the public ``WSPeer`` facade with its
defaults, plus the opt-ins its description names.  Inputs come from the
seed alone.  A round issues calls and waits for them; each call ends in
the tally as completed, failed (by error class) or lost.
"""

from __future__ import annotations

import hashlib
import random
import string
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.caching import clear_all_caches
from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.p2ps import PeerGroup
from repro.reliability import ReliabilityPolicy
from repro.simnet import DropInjector, FixedLatency, Network
from repro.simnet.kernel import SimTimeoutError
from repro.uddi import UddiRegistryNode

#: per-hop link latency of the echo and lossy worlds (seconds, virtual)
LATENCY = 0.001
#: size of the small echo argument
SMALL_BYTES = 64
#: the large echo of ``bulk_stream``
BULK_BYTES = 1024 * 1024
#: calls in flight beside the large echo, and the read window of
#: ``lossy_mixed``; stays under the HTTP server's per-connection queue
#: bound of 32 so no workload turns into a shedding test
WINDOW = 8
#: calls made inside set-up so the process-global caches are warm
WARMUP_CALLS = 20
#: virtual seconds of silence that end a run: longer than the pool's
#: (10 s) and the server's (60 s) idle timeouts, so only leaks remain
QUIET_S = 120.0
#: virtual seconds a bulk round may take before its stragglers count
#: as lost
ROUND_LIMIT_S = 60.0
#: virtual seconds between the starts of two bulk rounds: 9 requests
#: per 50 ms keeps the offered rate (180 req/s) under the HTTP server's
#: per-connection drain rate of 200 req/s, so the round is not a
#: shedding test.  Unpaced, the server answers 503 Busy to about a
#: third of the calls and the client retries them.
BULK_PERIOD_S = 0.05
#: frame-drop probability of ``lossy_mixed`` and ``lossy_p2ps``
DROP_P = 0.05
#: attempts per call on ``lossy_p2ps``.  An attempt is lost when its
#: request or its reply is dropped (1 - 0.95**2, about 0.0975 at
#: ``DROP_P``), so a call exhausts its budget with probability 0.0975
#: to the power of this: about 1e-6 for ``assured()``'s default of 6,
#: which a set of ten 25-second runs (about 200 000 calls) can hit,
#: and about 1e-10 for 10.  The retransmit, ack and dedup work per call
#: is the same either way; only the tail of the retry budget is longer.
LOSSY_ATTEMPTS = 10

_ALPHABET = string.ascii_letters + string.digits


class EchoService:
    def echo(self, message: str) -> str:
        return message


class CounterService:
    """Stateful provider of ``lossy_mixed``; counts its executions so
    the run can check at-most-once delivery of writes."""

    def __init__(self) -> None:
        self.value = 0
        self.executions = 0

    def add(self, amount: int) -> int:
        self.executions += 1
        self.value += amount
        return self.value

    def get(self) -> int:
        return self.value


@dataclass
class Tally:
    """Per-run call accounting and the per-call samples."""

    attempted: int = 0
    completed: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    lost: int = 0
    wall_us: list[float] = field(default_factory=list)
    #: ``wall_us`` rescaled to the reference host speed, filled in by
    #: the measuring loop after each slice of rounds
    ref_us: list[float] = field(default_factory=list)
    virtual_s: list[float] = field(default_factory=list)
    payload_bytes: int = 0
    violations: list[str] = field(default_factory=list)

    def fail(self, error: BaseException) -> None:
        name = type(error).__name__
        self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values()) + self.lost

    def violate(self, message: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(message)


class Pending:
    """Outstanding asynchronous calls of one round.  A callback that
    fires twice is a violation; one that never fires is lost."""

    def __init__(self, tally: Tally, net: Network) -> None:
        self.tally = tally
        self.net = net
        self.open = 0
        self._fired: set[int] = set()
        self._next = 0

    def issue(
        self,
        check: Callable[[Any], Optional[str]],
        payload_bytes: int,
        record_virtual: bool = True,
    ) -> Callable[[Any, Optional[Exception]], None]:
        key = self._next
        self._next += 1
        self.open += 1
        self.tally.attempted += 1
        t_wall, t_virtual = time.perf_counter(), self.net.now
        tally = self.tally

        def callback(result: Any, error: Optional[Exception]) -> None:
            if key in self._fired:
                tally.violate(f"callback of call {key} fired twice")
                return
            self._fired.add(key)
            self.open -= 1
            if error is not None:
                tally.fail(error)
                return
            problem = check(result)
            if problem is not None:
                tally.violate(problem)
                tally.fail(ValueError(problem))
                return
            tally.completed += 1
            # a Counter read carries no argument: its payload is the result
            tally.payload_bytes += payload_bytes or len(str(result))
            tally.wall_us.append((time.perf_counter() - t_wall) * 1e6)
            if record_virtual:
                tally.virtual_s.append(self.net.now - t_virtual)

        return callback

    def settle_lost(self) -> None:
        self.tally.lost += self.open
        self.open = 0


def _text(rng: random.Random, n: int) -> str:
    return "".join(rng.choices(_ALPHABET, k=n))


def _equals(expected: Any) -> Callable[[Any], Optional[str]]:
    def check(result: Any) -> Optional[str]:
        if result != expected:
            return f"echo mismatch: sent {str(expected)[:40]!r}, got {str(result)[:40]!r}"
        return None

    return check


def _counter_check(result: Any) -> Optional[str]:
    return None if isinstance(result, int) else f"Counter returned {result!r}"


def _counter_bytes(args: dict, result: Any) -> int:
    """Application payload of a Counter call: the decimal text of its
    argument and result, as they travel in the SOAP body."""
    return sum(len(str(v)) for v in args.values()) + len(str(result))


def _sync_call(tally: Tally, net: Network, peer: WSPeer, handle, op: str,
               args: dict, expected: Any, payload_bytes: int,
               policy: Optional[ReliabilityPolicy] = None) -> Any:
    """One synchronous facade call, timed and checked.  *expected* None
    accepts any int (the Counter's operations)."""
    tally.attempted += 1
    t_wall, t_virtual = time.perf_counter(), net.now
    try:
        result = peer.invoke(handle, op, args, policy=policy)
    except Exception as exc:  # noqa: BLE001 - every failure is tallied by class
        tally.fail(exc)
        return None
    wall = time.perf_counter() - t_wall
    problem = _counter_check(result) if expected is None else _equals(expected)(result)
    if problem is not None:
        tally.violate(f"{op}: {problem}")
        tally.fail(ValueError(problem))
        return None
    tally.completed += 1
    tally.payload_bytes += payload_bytes or _counter_bytes(args, result)
    tally.wall_us.append(wall * 1e6)
    tally.virtual_s.append(net.now - t_virtual)
    return result


# ----------------------------------------------------------------------
# worlds
# ----------------------------------------------------------------------
@dataclass
class World:
    net: Network
    consumers: list[WSPeer]
    providers: list[WSPeer]
    handles: dict[str, Any]
    services: dict[str, Any] = field(default_factory=dict)
    state: dict[str, Any] = field(default_factory=dict)


def _standard_pair(net: Network, service: Any, name: str) -> tuple[WSPeer, WSPeer, Any]:
    registry = UddiRegistryNode(net.add_node(f"registry-{name}"))
    provider = WSPeer(net.add_node(f"prov-{name}"), StandardBinding(registry.endpoint))
    provider.deploy(service, name=name)
    provider.publish(name)
    consumer = WSPeer(net.add_node(f"cons-{name}"), StandardBinding(registry.endpoint))
    return provider, consumer, consumer.locate_one(name)


def _p2ps_pair(net: Network, service: Any, name: str) -> tuple[WSPeer, WSPeer, Any]:
    group = PeerGroup(f"group-{name}")
    provider = WSPeer(net.add_node(f"pprov-{name}"), P2psBinding(group))
    provider.deploy(service, name=name)
    provider.publish(name)
    consumer = WSPeer(net.add_node(f"pcons-{name}"), P2psBinding(group))
    net.run()  # let the adverts settle
    return provider, consumer, consumer.locate_one(name)


class Workload:
    """One traffic mix.  ``setup`` builds and warms a world; ``round``
    runs one closed-loop step; ``quiesce`` lets the network go quiet."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> World:  # pragma: no cover - abstract
        raise NotImplementedError

    def round(self, world: World, tally: Tally) -> None:  # pragma: no cover
        raise NotImplementedError

    def quiesce(self, world: World, tally: Tally) -> None:
        world.net.run(until=world.net.now + QUIET_S)

    def final_checks(self, world: World, tally: Tally) -> None:
        """Checks that need the whole run (at-most-once, for example)."""


class EchoLoop(Workload):
    """Closed loop, one call in flight: synchronous ``echo`` of a
    64-byte string at 1 ms fixed latency."""

    pair = staticmethod(_standard_pair)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.messages = [_text(self.rng, SMALL_BYTES) for _ in range(256)]
        self._i = 0

    def setup(self) -> World:
        clear_all_caches()
        net = Network(latency=FixedLatency(LATENCY))
        provider, consumer, handle = self.pair(net, EchoService(), "Echo")
        world = World(net, [consumer], [provider], {"echo": handle})
        for i in range(WARMUP_CALLS):
            message = self.messages[i]
            if consumer.invoke(handle, "echo", {"message": message}) != message:
                raise RuntimeError("warm-up echo mismatch")
        return world

    def round(self, world: World, tally: Tally) -> None:
        message = self.messages[self._i % len(self.messages)]
        self._i += 1
        _sync_call(tally, world.net, world.consumers[0], world.handles["echo"],
                   "echo", {"message": message}, message, 2 * len(message))


class EchoHttp(EchoLoop):
    name = "echo_http"


class EchoP2ps(EchoLoop):
    name = "echo_p2ps"
    pair = staticmethod(_p2ps_pair)


class BulkStream(Workload):
    """``enable_streaming`` on both peers, per-byte link cost; each
    round is one 1 MiB echo plus ``WINDOW`` small pipelined async echoes
    on the same pooled connection."""

    name = "bulk_stream"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.big = self.rng.randbytes(BULK_BYTES // 2).hex()
        self.big_digest = hashlib.sha256(self.big.encode()).hexdigest()
        self.small = [_text(self.rng, SMALL_BYTES) for _ in range(256)]
        self._i = 0
        self.last_big: Optional[str] = None

    def setup(self) -> World:
        clear_all_caches()
        net = Network(latency=FixedLatency(0.0005, per_byte=1e-8))
        provider, consumer, handle = _standard_pair(net, EchoService(), "Bulk")
        provider.enable_streaming()
        consumer.enable_streaming()
        world = World(net, [consumer], [provider], {"echo": handle})
        warm = Tally()
        self.round(world, warm)
        if warm.completed != 1 + WINDOW or warm.violations:
            raise RuntimeError(f"warm-up round failed: {warm}")
        return world

    def _big_check(self, result: Any) -> Optional[str]:
        # a full comparison per round; the sha256 of the last payload
        # received is checked once the run is over
        self.last_big = result
        if result != self.big:
            return "bulk payload differs after the round trip"
        return None

    def final_checks(self, world: World, tally: Tally) -> None:
        last = self.last_big
        if last is not None and hashlib.sha256(last.encode()).hexdigest() != self.big_digest:
            tally.violate("bulk payload sha256 differs after the round trip")

    def round(self, world: World, tally: Tally) -> None:
        net, consumer, handle = world.net, world.consumers[0], world.handles["echo"]
        started = net.now
        pending = Pending(tally, net)
        consumer.invoke_async(
            handle, "echo", {"message": self.big},
            pending.issue(self._big_check, 2 * len(self.big), record_virtual=False),
        )
        for _ in range(WINDOW):
            message = self.small[self._i % len(self.small)]
            self._i += 1
            consumer.invoke_async(
                handle, "echo", {"message": message},
                pending.issue(_equals(message), 2 * len(message)),
            )
        try:
            net.kernel.pump_until(lambda: pending.open == 0, timeout=ROUND_LIMIT_S)
        except SimTimeoutError:
            pending.settle_lost()
        if net.now < started + BULK_PERIOD_S:
            net.run(until=started + BULK_PERIOD_S)


class LossyMixed(Workload):
    """5% seeded frame drop; a stateful Counter on both bindings; async
    read windows, acked one-way and synchronous writes, synchronous
    P2PS reads; each round runs to quiescence."""

    name = "lossy_mixed"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.seed = seed

    def setup(self) -> World:
        clear_all_caches()
        net = Network(latency=FixedLatency(LATENCY))
        http_counter, p2ps_counter = CounterService(), CounterService()
        hprov, hcons, hhandle = _standard_pair(net, http_counter, "CounterHttp")
        pprov, pcons, phandle = _p2ps_pair(net, p2ps_counter, "CounterP2ps")
        hcons.enable_http_keepalive()
        world = World(
            net, [hcons, pcons], [hprov, pprov],
            {"http": hhandle, "p2ps": phandle},
            services={"http": http_counter, "p2ps": p2ps_counter},
            state={"writes": {"http": 0, "p2ps": 0}, "confirmed": {"http": 0, "p2ps": 0},
                   "statuses": []},
        )
        for _ in range(WARMUP_CALLS // 2):
            hcons.invoke(hhandle, "get")
            pcons.invoke(phandle, "get")
        DropInjector(net, p=DROP_P, seed=self.seed)
        return world

    def round(self, world: World, tally: Tally) -> None:
        net = world.net
        hcons, pcons = world.consumers
        pending = Pending(tally, net)
        writes, confirmed = world.state["writes"], world.state["confirmed"]

        for _ in range(WINDOW):
            hcons.invoke_async(world.handles["http"], "get", {}, pending.issue(_counter_check, 0))
            pcons.invoke_async(world.handles["p2ps"], "get", {}, pending.issue(_counter_check, 0))

        # acked one-way write on P2PS: settles when acked or errored
        tally.attempted += 1
        writes["p2ps"] += 1
        status = pcons.invoke_oneway(
            world.handles["p2ps"], "add", {"amount": 1}, policy=ReliabilityPolicy.assured()
        )
        world.state["statuses"].append(status)
        # synchronous write on the keep-alive HTTP consumer
        writes["http"] += 1
        if _sync_call(tally, net, hcons, world.handles["http"], "add", {"amount": 1},
                      None, 0) is not None:
            confirmed["http"] += 1
        for _ in range(2):
            _sync_call(tally, net, pcons, world.handles["p2ps"], "get", {}, None, 0)
        net.run(until=net.now + QUIET_S)
        pending.settle_lost()
        self._settle_statuses(world, tally)

    def _settle_statuses(self, world: World, tally: Tally) -> None:
        for status in world.state["statuses"]:
            if status.acked:
                tally.completed += 1
                world.state["confirmed"]["p2ps"] += 1
            elif status.error is not None:
                tally.fail(status.error)
            else:
                tally.lost += 1
        world.state["statuses"] = []

    def final_checks(self, world: World, tally: Tally) -> None:
        for binding, counter in world.services.items():
            issued = world.state["writes"][binding]
            confirmed = world.state["confirmed"][binding]
            if counter.executions > issued:
                tally.violate(
                    f"{binding} Counter executed {counter.executions} writes for "
                    f"{issued} distinct MessageIDs"
                )
            if counter.executions < confirmed:
                tally.violate(
                    f"{binding} Counter executed {counter.executions} writes but "
                    f"{confirmed} were acked or answered"
                )


class LossyP2ps(LossyMixed):
    """The retransmit, ack and dedup-replay paths with no call lost: 5%
    seeded frame drop on one P2PS Counter, every call under
    ``ReliabilityPolicy.assured(attempts=LOSSY_ATTEMPTS)``.  Each round issues
    an acked one-way ``add`` (waited for until acked), a synchronous
    ``add`` and two synchronous
    ``get``, each run to completion before the next is issued."""

    name = "lossy_p2ps"

    def setup(self) -> World:
        clear_all_caches()
        net = Network(latency=FixedLatency(LATENCY))
        counter = CounterService()
        provider, consumer, handle = _p2ps_pair(net, counter, "CounterP2ps")
        world = World(
            net, [consumer], [provider], {"p2ps": handle}, services={"p2ps": counter},
            state={"writes": {"p2ps": 0}, "confirmed": {"p2ps": 0}, "statuses": [],
                   "policy": ReliabilityPolicy.assured(attempts=LOSSY_ATTEMPTS)},
        )
        for _ in range(WARMUP_CALLS):
            consumer.invoke(handle, "get")
        DropInjector(net, p=DROP_P, seed=self.seed)
        return world

    def round(self, world: World, tally: Tally) -> None:
        net, consumer, handle = world.net, world.consumers[0], world.handles["p2ps"]
        policy = world.state["policy"]
        writes, confirmed = world.state["writes"], world.state["confirmed"]
        # acked one-way write, timed from issue to ack
        tally.attempted += 1
        writes["p2ps"] += 1
        t_wall, t_virtual = time.perf_counter(), net.now
        status = consumer.invoke_oneway(handle, "add", {"amount": 1}, policy=policy)
        try:
            net.kernel.pump_until(lambda: status.done, timeout=ROUND_LIMIT_S)
        except SimTimeoutError:
            pass  # counted as lost by _settle_statuses
        if status.acked:
            tally.wall_us.append((time.perf_counter() - t_wall) * 1e6)
            tally.virtual_s.append(net.now - t_virtual)
        world.state["statuses"].append(status)
        self._settle_statuses(world, tally)
        writes["p2ps"] += 1
        if _sync_call(tally, net, consumer, handle, "add", {"amount": 1},
                      None, 0, policy) is not None:
            confirmed["p2ps"] += 1
        for _ in range(2):
            _sync_call(tally, net, consumer, handle, "get", {}, None, 0, policy)


WORKLOADS = {w.name: w for w in (EchoHttp, EchoP2ps, BulkStream, LossyMixed, LossyP2ps)}
