"""Span recording around each layer's public entry points.

The traced run wraps, from outside the program, the functions and
methods through which one layer is entered, under the names its callers
actually bind: module-level functions are replaced in every ``repro``
module that holds them (``from repro.xmlkit import parse`` leaves a
second binding in ``repro.soap.envelope``), methods are replaced on the
class that defines them.  Callbacks handed to the kernel, to a node's
ports, to HTTP routes, to pipe listeners and to the transport/executor
send paths are wrapped too, in a span named after the layer of the
module that defined them, so the code that runs when an event fires is
charged to the layer that wrote it, not to the kernel.

Each span records its name, start, end and parent in flat arrays; a
layer's self time is the time of its spans minus the time of the spans
nested directly inside them.  Nothing here changes what the program
computes: every wrapper calls the original and returns its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Iterable

#: module prefix -> span name for callbacks defined in that module;
#: the first matching prefix wins
CALLBACK_LAYERS = (
    ("repro.core.deployer", "core.host_us"),
    ("repro.core.hosting", "core.host_us"),
    ("repro.core.", "core.invoke_us"),
    ("repro.xmlkit.", "xmlkit.parse_us"),
    ("repro.soap.", "soap.dispatch_us"),
    ("repro.wsa.", "wsa.headers_us"),
    ("repro.transport.", "transport.http_us"),
    ("repro.p2ps.", "p2ps.pipe_us"),
    ("repro.simnet.", "simnet.kernel_us"),
    ("repro.reliability.", "reliability.bookkeeping_us"),
    ("repro.supervision.", "reliability.bookkeeping_us"),
    ("repro.observability.", "observability.hook_us"),
    # the benchmark's own modules, imported by their file names
    ("workloads", "bench.harness_us"),
    ("__main__", "bench.harness_us"),
)
OTHER = "other_us"

# (module, attribute path, span name, option).  An attribute path with a
# dot names a method: "Class.method".  Options: "callbacks" wraps the
# callable arguments; "bytes_in"/"bytes_out" tally xmlkit traffic;
# "hook" counts the call; "generator" times every step of a returned
# iterator.  The extra work an option does runs inside the span, and
# each option's wrapper cost is calibrated on its own.
ENTRY_POINTS = (
    # xmlkit: the codec
    ("repro.xmlkit.parser", "parse", "xmlkit.parse_us", "bytes_in"),
    ("repro.xmlkit.parser", "parse_fragment", "xmlkit.parse_us", "bytes_in"),
    ("repro.xmlkit.stream", "parse_stream", "xmlkit.parse_us", ""),
    ("repro.xmlkit.stream", "FeedParser.feed", "xmlkit.parse_us", "bytes_in"),
    ("repro.xmlkit.stream", "FeedParser.close", "xmlkit.parse_us", ""),
    ("repro.xmlkit.serializer", "serialize", "xmlkit.serialize_us", "bytes_out"),
    ("repro.xmlkit.serializer", "escape_text", "xmlkit.serialize_us", "bytes_out"),
    ("repro.xmlkit.stream", "iter_serialize", "xmlkit.serialize_us", "generator"),
    # soap: envelope and RPC encoding, dispatch
    ("repro.soap.envelope", "SoapEnvelope.from_wire_message", "soap.decode_us", ""),
    ("repro.soap.envelope", "SoapEnvelope.from_wire", "soap.decode_us", ""),
    ("repro.soap.envelope", "SoapEnvelope.from_element", "soap.decode_us", ""),
    ("repro.soap.rpc", "extract_rpc_result", "soap.decode_us", ""),
    ("repro.soap.attachments", "message_from_wire", "soap.decode_us", ""),
    ("repro.soap.envelope", "SoapEnvelope.to_wire_message", "soap.encode_us", ""),
    ("repro.soap.envelope", "SoapEnvelope.to_wire", "soap.encode_us", ""),
    ("repro.soap.envelope", "SoapEnvelope.to_element", "soap.encode_us", ""),
    ("repro.soap.envelope", "WireTemplateCache.render", "soap.encode_us", ""),
    ("repro.soap.rpc", "build_rpc_request", "soap.encode_us", ""),
    ("repro.soap.attachments", "message_to_wire", "soap.encode_us", ""),
    ("repro.soap.attachments", "iter_message_wire", "soap.encode_us", "generator"),
    ("repro.soap.rpc", "RpcDispatcher.dispatch", "soap.dispatch_us", ""),
    ("repro.soap.handlers", "HandlerChain.run", "soap.dispatch_us", "callbacks"),
    # wsa: addressing headers
    ("repro.wsa.headers", "MessageAddressingProperties.for_request", "wsa.headers_us", ""),
    ("repro.wsa.headers", "MessageAddressingProperties.apply_to", "wsa.headers_us", ""),
    ("repro.wsa.headers", "MessageAddressingProperties.extract_from", "wsa.headers_us", ""),
    ("repro.wsa.headers", "RequestTemplateCache.render", "wsa.headers_us", ""),
    ("repro.wsa.headers", "message_id_of", "wsa.headers_us", ""),
    ("repro.wsa.headers", "relates_to_of", "wsa.headers_us", ""),
    ("repro.wsa.headers", "new_message_id", "wsa.headers_us", ""),
    # transport: HTTP framing and connections
    ("repro.transport.uri", "parse_uri_cached", "transport.http_us", ""),
    ("repro.transport.http", "HttpTransport.send", "transport.http_us", "callbacks"),
    ("repro.transport.http", "HttpClient.request_async", "transport.http_us", "callbacks"),
    ("repro.transport.http", "HttpServer.add_route", "transport.http_us", "callbacks"),
    ("repro.transport.connection", "ConnectionPool.lease", "transport.http_us", ""),
    ("repro.transport.connection", "HttpConnection.send", "transport.http_us", "callbacks"),
    # p2ps: pipes
    ("repro.p2ps.peer", "Peer.create_input_pipe", "p2ps.pipe_us", "callbacks"),
    ("repro.p2ps.peer", "Peer.close_input_pipe", "p2ps.pipe_us", ""),
    ("repro.p2ps.peer", "Peer.open_output_pipe", "p2ps.pipe_us", ""),
    ("repro.p2ps.peer", "Peer.send_down_pipe", "p2ps.pipe_us", ""),
    ("repro.p2ps.pipes", "InputPipe.add_listener", "p2ps.pipe_us", "callbacks"),
    # simnet: kernel and delivery fabric
    ("repro.simnet.kernel", "Kernel.schedule", "simnet.kernel_us", "callbacks"),
    ("repro.simnet.kernel", "Kernel.schedule_at", "simnet.kernel_us", "callbacks"),
    ("repro.simnet.kernel", "Kernel.pump_until", "simnet.kernel_us", ""),
    ("repro.simnet.kernel", "Kernel.run", "simnet.kernel_us", ""),
    ("repro.simnet.network", "Network.send", "simnet.kernel_us", ""),
    ("repro.simnet.network", "Node.open_port", "simnet.kernel_us", "callbacks"),
    # core: the facade, the client send path and container dispatch
    ("repro.core.wspeer", "WSPeer.invoke", "core.invoke_us", ""),
    ("repro.core.wspeer", "WSPeer.invoke_async", "core.invoke_us", "callbacks"),
    ("repro.core.wspeer", "WSPeer.invoke_oneway", "core.invoke_us", ""),
    ("repro.core.invocation", "Invocation.invoke", "core.invoke_us", ""),
    ("repro.core.invocation", "Invocation.invoke_oneway", "core.invoke_us", ""),
    ("repro.core.invocation", "HttpInvocation.invoke_async", "core.invoke_us", "callbacks"),
    ("repro.core.invocation", "P2psInvocation.invoke_async", "core.invoke_us", "callbacks"),
    ("repro.core.invocation", "P2psInvocation.invoke_oneway", "core.invoke_us", ""),
    ("repro.core.hosting", "LightweightContainer.process_request", "core.host_us", ""),
    # reliability: retry executor, dedup windows, breakers, acks
    ("repro.reliability.executor", "ReliableCall.__init__", "reliability.bookkeeping_us", "callbacks"),
    ("repro.reliability.executor", "ReliableCall.start", "reliability.bookkeeping_us", ""),
    ("repro.reliability.dedup", "DedupWindow.remember", "reliability.bookkeeping_us", ""),
    ("repro.reliability.dedup", "DedupWindow.get", "reliability.bookkeeping_us", ""),
    ("repro.reliability.dedup", "DedupWindow.seen", "reliability.bookkeeping_us", ""),
    ("repro.reliability.dedup", "DedupWindow.__contains__", "reliability.bookkeeping_us", ""),
    ("repro.reliability.ack", "ack_requested", "reliability.bookkeeping_us", ""),
    ("repro.reliability.ack", "mark_ack_requested", "reliability.bookkeeping_us", ""),
    ("repro.reliability.ack", "build_ack", "reliability.bookkeeping_us", ""),
    ("repro.reliability.ack", "is_ack", "reliability.bookkeeping_us", ""),
    ("repro.reliability.ack", "ack_relates_to", "reliability.bookkeeping_us", ""),
    # observability: metric hooks, event fan-out, trace-context hooks
    ("repro.observability.metrics", "inc", "observability.hook_us", "hook"),
    ("repro.observability.metrics", "observe", "observability.hook_us", "hook"),
    ("repro.observability.metrics", "set_gauge", "observability.hook_us", "hook"),
    ("repro.core.events", "EventSource.fire_client", "observability.hook_us", "hook"),
    ("repro.core.events", "EventSource.fire_server", "observability.hook_us", "hook"),
    ("repro.core.events", "EventSource.fire_deployment", "observability.hook_us", "hook"),
    ("repro.core.events", "EventSource.fire_discovery", "observability.hook_us", "hook"),
    ("repro.core.events", "EventSource.fire_publish", "observability.hook_us", "hook"),
    ("repro.observability.tracecontext", "begin_send", "observability.hook_us", "hook"),
    ("repro.observability.tracecontext", "event_fields", "observability.hook_us", "hook"),
    ("repro.observability.tracecontext", "extract", "observability.hook_us", "hook"),
    ("repro.observability.tracecontext", "propagation_enabled", "observability.hook_us", "hook"),
)


def _layer_of_module(module: str) -> str:
    for prefix, name in CALLBACK_LAYERS:
        if module == prefix.rstrip(".") or module.startswith(prefix):
            return name
    return OTHER


class SpanRecorder:
    """Flat, append-only span store plus the tallies taken at the same
    boundaries (xmlkit bytes, hook calls).

    Spans are recorded per slot: one span name wrapped with one option.
    Self times are reported per span name; the calibrated wrapper cost
    is subtracted per slot, because the options cost different amounts.
    """

    def __init__(self) -> None:
        #: span name and option of each slot
        self.names: list[str] = []
        self.options: list[str] = []
        self._slots: dict[tuple[str, str], int] = {}
        self.slot_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.xml_bytes = 0
        self.hook_calls = 0
        #: code object of a callback -> slot, or -1 for callables that
        #: are never wrapped (the recorder's own wrappers)
        self._callback_ids: dict[Any, int] = {}
        for option in ("", "callbacks"):
            probe = self._traced(lambda: None, self._slot("probe", option))
            self._callback_ids[probe.__code__] = -1
        #: per option: wrapper time charged to a span's parent, and to
        #: the span itself (measured by :meth:`calibrate`)
        self.parent_overhead_ns: dict[str, float] = {}
        self.self_overhead_ns: dict[str, float] = {}

    # -- recording ------------------------------------------------------
    def _slot(self, name: str, option: str = "") -> int:
        sid = self._slots.get((name, option))
        if sid is None:
            sid = self._slots[(name, option)] = len(self.names)
            self.names.append(name)
            self.options.append(option)
        return sid

    def wrap(self, fn: Callable, name: str, option: str = "") -> Callable:
        """A traced stand-in for the entry point *fn*."""
        traced = self._traced(fn, self._slot(name, option))
        functools.update_wrapper(traced, fn)
        return traced

    def _traced(self, fn: Callable, sid: int) -> Callable:
        slot_of, parent, start, end = self.slot_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        option = self.options[sid]

        if not option:
            def traced(*args, **kwargs):
                idx = len(slot_of)
                slot_of.append(sid)
                parent.append(stack[-1])
                end.append(0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()

            return traced

        recorder = self
        wrap_callbacks = option == "callbacks"
        tally = {
            "bytes_in": self._tally_bytes_in,
            "bytes_out": self._tally_bytes_out,
            "hook": self._tally_hook,
        }.get(option)

        def traced(*args, **kwargs):
            idx = len(slot_of)
            slot_of.append(sid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                if wrap_callbacks:
                    args, kwargs = recorder._wrap_callables(args, kwargs)
                result = fn(*args, **kwargs)
                if tally is not None:
                    tally(args, result)
            finally:
                end[idx] = clock()
                stack.pop()
            if option == "generator":
                return recorder._timed_iter(result, sid)
            return result

        return traced

    def _wrap_callables(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        maybe = self._maybe_wrap
        args = tuple([maybe(a) for a in args])
        if kwargs:
            kwargs = {k: maybe(v) for k, v in kwargs.items()}
        return args, kwargs

    def _maybe_wrap(self, value: Any) -> Any:
        """Wrap a plain function or bound method in a span named after
        the layer of its defining module; leave anything else alone."""
        func = getattr(value, "__func__", value)
        code = getattr(func, "__code__", None)
        if code is None:
            return value
        sid = self._callback_ids.get(code)
        if sid is None:
            module = getattr(func, "__module__", "") or ""
            sid = self._callback_ids[code] = self._slot(_layer_of_module(module))
        return value if sid < 0 else self._traced(value, sid)

    def _tally_bytes_in(self, args: tuple, result: Any) -> None:
        data = args[-1] if args else None
        if isinstance(data, (str, bytes, bytearray, memoryview)):
            self.xml_bytes += len(data)

    def _tally_bytes_out(self, args: tuple, result: Any) -> None:
        if isinstance(result, (str, bytes)):
            self.xml_bytes += len(result)

    def _tally_hook(self, args: tuple, result: Any) -> None:
        self.hook_calls += 1

    def _timed_iter(self, iterator: Iterable, sid: int):
        slot_of, parent, start, end = self.slot_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        count_bytes = self.names[sid].startswith("xmlkit.")
        it = iter(iterator)
        while True:
            idx = len(slot_of)
            slot_of.append(sid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                piece = next(it)
                if count_bytes and isinstance(piece, (str, bytes)):
                    self.xml_bytes += len(piece)
            except StopIteration:
                return
            finally:
                end[idx] = clock()
                stack.pop()
            yield piece

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point.  Call once per process, before the
        traced world is built, so that the handlers it registers while
        deploying are wrapped too."""
        for module_name, path, name, option in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, name, option)
            else:
                self._patch_function(getattr(module, path), name, option)

    def _patch_function(self, original: Callable, name: str, option: str) -> None:
        traced = self.wrap(original, name, option)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)

    def _patch_method(self, cls: type, attr: str, name: str, option: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, option))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, option))
        else:
            replacement = self.wrap(raw, name, option)
        setattr(cls, attr, replacement)

    # -- results --------------------------------------------------------
    def clear(self) -> None:
        for arr in (self.slot_of, self.parent, self.start, self.end):
            del arr[:]
        self.xml_bytes = self.hook_calls = 0

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure, for each option, what one wrapper adds to its
        parent's self time and to its own, with a traced no-op called
        from a traced loop; the smallest of *repeats* estimates is kept.
        A generator's steps are plain spans and take the plain cost."""
        outer = self._traced(self._calibration_loop, self._slot("calibration"))

        def callback() -> None:
            pass

        cases = {"": (), "callbacks": (callback,), "bytes_in": ("x" * 64,),
                 "bytes_out": ("x" * 64,), "hook": ()}
        for option, args in cases.items():
            noop = (lambda *a: "x" * 64) if option == "bytes_out" else (lambda *a: None)
            inner = self._traced(noop, self._slot("calibration", option))
            parent_costs, self_costs = [], []
            for _ in range(repeats):
                self.clear()
                outer(noop, args, calls)
                bare = self.end[0] - self.start[0]
                self.clear()
                outer(inner, args, calls)
                inside = sum(self.end[i] - self.start[i] for i in range(1, len(self.end)))
                wrapped = self.end[0] - self.start[0] - inside
                parent_costs.append((wrapped - bare) / calls)
                self_costs.append(inside / calls)
            self.parent_overhead_ns[option] = max(min(parent_costs), 0.0)
            self.self_overhead_ns[option] = min(self_costs)
        self.parent_overhead_ns["generator"] = self.parent_overhead_ns[""]
        self.self_overhead_ns["generator"] = self.self_overhead_ns[""]
        self.clear()

    @staticmethod
    def _calibration_loop(fn: Callable, args: tuple, calls: int) -> None:
        for _ in range(calls):
            fn(*args)

    def self_times_ns(self) -> dict[str, float]:
        """Self time per span name: each span's duration, minus the
        durations of the spans whose parent it is, minus the calibrated
        wrapper cost that each span adds to itself and to its parent."""
        totals = {name: 0.0 for name in self.names}
        charge_self = [self.self_overhead_ns[o] for o in self.options]
        charge_parent = [self.parent_overhead_ns[o] for o in self.options]
        by_slot = [0.0] * len(self.names)
        slot_of, parent, start, end = self.slot_of, self.parent, self.start, self.end
        for i in range(len(slot_of)):
            if not end[i]:
                continue  # still open when the results were read
            sid = slot_of[i]
            duration = end[i] - start[i]
            by_slot[sid] += duration - charge_self[sid]
            p = parent[i]
            if p >= 0:
                by_slot[slot_of[p]] -= duration + charge_parent[sid]
        for sid, total in enumerate(by_slot):
            totals[self.names[sid]] += total
        return totals

    def covered_ns(self) -> int:
        """Wall time inside top-level spans."""
        parent, start, end = self.parent, self.start, self.end
        return sum(
            end[i] - start[i] for i in range(len(parent)) if parent[i] < 0 and end[i]
        )

    def summary(self) -> dict[str, Any]:
        """Self times and tallies of everything recorded so far."""
        return {
            "self_ns": self.self_times_ns(),
            "covered_ns": self.covered_ns(),
            "spans": len(self.slot_of),
            "span_cost_ns": self.parent_overhead_ns[""] + self.self_overhead_ns[""],
            "xml_bytes": self.xml_bytes,
            "hook_calls": self.hook_calls,
        }

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: name, start/end ns, parent index."""
        import json

        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.slot_of)):
                out.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": self.names[self.slot_of[i]],
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                            "parent": self.parent[i],
                        }
                    )
                    + "\n"
                )
