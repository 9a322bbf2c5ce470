"""WSPeer benchmark: wall-clock call cost per workload, rescaled to a
reference host speed, with per-layer self time from a separate traced
run.

Run from the repository root:

    python3 perfbench/run.py --workload echo_http --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Wall-clock times are taken in slices of rounds, each followed by a
reference measurement (``reference.py``), and rescaled to the speed at
which that measurement takes ``REFERENCE_S``; the raw figures are
printed too.
``--trace 1`` first measures a third of ``--seconds`` untraced, then
installs the span recorder, builds a fresh world and measures the rest
traced; it reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints ``"correct": false`` and exits with code 1.
See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from reference import REFERENCE_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: the timed phase is cut into windows of about this many seconds;
#: rates and latency quantiles are taken per window and their median
#: reported, so a short stall of the machine moves one window, not the
#: result.
WINDOW_S = 1.0
#: rounds run in slices of about this many seconds, with one reference
#: measurement (``reference.py``) after each; a slice's times are
#: rescaled by the mean of the measurements on either side of it
SLICE_S = 0.1
#: set-ups timed back to back before the timed phase; ``setup_s`` is
#: their median
SETUPS = 21


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Window:
    """One window of the timed phase.  ``first``/``end`` index the
    tally's per-call samples taken in it."""

    first: int
    end: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    completed: int = 0
    payload_bytes: int = 0


@dataclass
class Phase:
    tally: Any
    windows: list[Window] = field(default_factory=list)
    #: every reference measurement of the phase, in seconds
    references: list[float] = field(default_factory=list)
    events: int = 0
    frames: int = 0

    @property
    def wall_s(self) -> float:
        return sum(w.wall_s for w in self.windows)

    @property
    def ref_s(self) -> float:
        return sum(w.ref_s for w in self.windows)


def _measure(workload, world, seconds: float) -> Phase:
    """Run closed-loop rounds on *world* for *seconds* of wall time, in
    windows of about ``WINDOW_S`` and slices of about ``SLICE_S``, with
    a reference measurement after each slice.  Nothing else runs
    between the rounds of a slice."""
    from repro.caching import reset_cache_stats
    from repro.observability.metrics import reset_default_registry
    from workloads import Tally

    reset_default_registry()
    reset_cache_stats()
    gc.collect()
    tally = Tally()
    phase = Phase(tally)
    kernel, net = world.net.kernel, world.net
    events0, frames0 = kernel.events_fired, net.sent.total()
    clock = time.perf_counter
    before = reference_seconds()
    phase.references.append(before)
    windows = max(1, round(seconds / WINDOW_S))
    for _ in range(windows):
        window = Window(first=len(tally.wall_us))
        done0, bytes0 = tally.completed, tally.payload_bytes
        now = clock()
        end = now + seconds / windows
        while now < end:
            first, start = len(tally.wall_us), now
            while now - start < SLICE_S and now < end:
                workload.round(world, tally)
                now = clock()
            wall = now - start
            after = reference_seconds()
            phase.references.append(after)
            scale = REFERENCE_S / ((before + after) / 2)
            before = after
            tally.ref_us.extend([us * scale for us in tally.wall_us[first:]])
            window.wall_s += wall
            window.ref_s += wall * scale
            now = clock()
        window.end = len(tally.wall_us)
        window.completed = tally.completed - done0
        window.payload_bytes = tally.payload_bytes - bytes0
        phase.windows.append(window)
    phase.events = kernel.events_fired - events0
    phase.frames = net.sent.total() - frames0
    return phase


def _settle(workload, world, tally) -> None:
    """Let the network go quiet, then run the whole-run checks."""
    workload.quiesce(world, tally)
    workload.final_checks(world, tally)


def _timed_setups(workload):
    """``SETUPS`` set-ups back to back, each rescaled by the reference
    measurements on either side of it; returns the last world and the
    rescaled times."""
    times, world = [], None
    before = reference_seconds()
    for _ in range(SETUPS):
        world = None
        gc.collect()
        start = time.perf_counter()
        world = workload.setup()
        wall = time.perf_counter() - start
        after = reference_seconds()
        times.append(wall * REFERENCE_S / ((before + after) / 2))
        before = after
    return world, times


def end_to_end_metrics(phase: Phase, setup_times: list[float]) -> dict[str, Any]:
    tally = phase.tally
    rates, payload, p50, p99 = [], [], [], []
    for window in phase.windows:
        rates.append(window.completed / window.ref_s)
        payload.append(window.payload_bytes / window.ref_s / 1e6)
        times = tally.ref_us[window.first:window.end]
        p50.append(_quantile(times, 0.50))
        p99.append(_quantile(times, 0.99))
    median = statistics.median
    return {
        "calls_per_s": (median(rates), "1/s"),
        "call_p50_us": (median(p50), "us"),
        "call_p99_us": (median(p99), "us"),
        "payload_mb_per_s": (median(payload), "MB/s"),
        "completed_share": (tally.completed / max(tally.attempted, 1), "ratio"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def host_figures(phase: Phase) -> dict[str, Any]:
    """The same phase without rescaling, and the host's speed."""
    tally = phase.tally
    return {
        "wall.calls_per_s": (tally.completed / phase.wall_s, "1/s"),
        "wall.call_p50_us": (_quantile(tally.wall_us, 0.50), "us"),
        "host.reference_ms": (statistics.median(phase.references) * 1e3, "ms"),
    }


def leak_gauges(world) -> dict[str, int]:
    """Resources still held after the run went quiet, read from the
    public surface of each layer."""
    from repro.p2ps.pipes import pipe_port

    open_conns = 0
    live_pipes = 0
    dedup_entries = 0
    for peer in world.consumers + world.providers:
        if peer.http_pool is not None:
            open_conns += peer.http_pool.size
        server = getattr(peer.server.deployer, "server", None)
        if server is not None:
            open_conns += len(server.connections)
        if peer.peer is not None:
            owned = {pipe_port(p) for p in _deployed_pipe_ids(peer)}
            live_pipes += sum(
                1 for port in peer.node.ports if port.startswith("pipe:") and port not in owned
            )
        for name in peer.deployed_services:
            dedup_entries += len(peer.server.container.require(name).dedup)
        # the P2PS deployer's retained-response window has no public
        # accessor; it is read here, never changed
        cache = getattr(peer.server.deployer, "_response_cache", None)
        if cache is not None:
            dedup_entries += len(cache)
    return {
        "pending": world.net.kernel.pending,
        "open_conns": open_conns,
        "live_pipes": live_pipes,
        "dedup_entries": dedup_entries,
    }


def _deployed_pipe_ids(peer) -> list[str]:
    """Pipe ids of the peer's deployed services (operation and
    definition pipes are meant to stay open)."""
    ids = []
    for name in peer.deployed_services:
        advert = peer.server.deployer.advert_for(name)
        ids.extend(pipe.pipe_id for pipe in advert.pipes)
    return ids


def _template_hit_ratio() -> float:
    """Hits over lookups of the SOAP and WS-Addressing template caches,
    from their own counters (reset before the timed phase)."""
    from repro.caching import cache_stats

    hits = lookups = 0
    for name, stats in cache_stats().items():
        if name.endswith("-templates"):
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
    return hits / lookups if lookups else 0.0


def per_layer_metrics(spans, phase: Phase, gauges, untraced: Phase) -> dict[str, Any]:
    from repro.observability.metrics import default_registry

    reg = default_registry()
    tally = phase.tally
    calls = max(tally.completed, 1)
    self_ns = spans["self_ns"]

    def us(name: str) -> float:
        return self_ns.get(name, 0) / 1e3 / calls

    requests = reg.get("client.requests")
    conn_opened = reg.get("transport.http.conn_opened")
    conn_reused = reg.get("transport.http.conn_reused")
    if conn_opened == 0 and conn_reused == 0:
        # per-request HTTP: every request opens its own connection
        conn_opened = reg.get("transport.http.requests_sent")
    streamed_mb = reg.get("transport.http.bytes_streamed") / 1e6
    oneway_acked_sent = reg.get("client.oneway_sent")
    untraced_cps = untraced.tally.completed / untraced.ref_s
    traced_cps = tally.completed / phase.ref_s
    return {
        "xmlkit.parse_us": (us("xmlkit.parse_us"), "us"),
        "xmlkit.serialize_us": (us("xmlkit.serialize_us"), "us"),
        "xmlkit.bytes_per_call": (spans["xml_bytes"] / calls, "bytes"),
        "soap.decode_us": (us("soap.decode_us"), "us"),
        "soap.encode_us": (us("soap.encode_us"), "us"),
        "soap.dispatch_us": (us("soap.dispatch_us"), "us"),
        "soap.template_hit_ratio": (_template_hit_ratio(), "ratio"),
        "wsa.headers_us": (us("wsa.headers_us"), "us"),
        "transport.http_us": (us("transport.http_us"), "us"),
        "transport.stream_us_per_mb": (
            self_ns.get("transport.http_us", 0) / 1e3 / streamed_mb if streamed_mb else 0.0,
            "us/MB",
        ),
        "transport.conn_opened_per_call": (conn_opened / calls, "count"),
        "transport.conn_reuse_ratio": (
            conn_reused / (conn_reused + conn_opened) if conn_reused else 0.0, "ratio"
        ),
        "transport.chunks_per_call": (reg.get("transport.http.chunks_sent") / calls, "count"),
        "transport.conn_closed_failures": (
            tally.failed.get("ConnectionClosedError", 0), "count"
        ),
        "transport.open_conns_after": (gauges["open_conns"], "count"),
        "p2ps.pipe_us": (us("p2ps.pipe_us"), "us"),
        "p2ps.live_pipes_after": (gauges["live_pipes"], "count"),
        "simnet.kernel_us_per_event": (
            self_ns.get("simnet.kernel_us", 0) / 1e3 / max(phase.events, 1), "us"
        ),
        "simnet.events_per_call": (phase.events / calls, "count"),
        "simnet.frames_per_call": (phase.frames / calls, "count"),
        "simnet.pending_after": (gauges["pending"], "count"),
        "virtual_p99_ms": (_quantile(tally.virtual_s, 0.99) * 1e3, "ms_virtual"),
        "core.invoke_us": (us("core.invoke_us"), "us"),
        "core.host_us": (us("core.host_us"), "us"),
        "reliability.bookkeeping_us": (us("reliability.bookkeeping_us"), "us"),
        "reliability.attempts_per_call": (
            1.0 + reg.get("client.retransmits") / requests if requests else 1.0, "count"
        ),
        "reliability.dedup_replays": (reg.get("server.duplicates_suppressed"), "count"),
        "reliability.ack_ratio": (
            reg.get("client.oneway_acked") / oneway_acked_sent if oneway_acked_sent else 0.0,
            "ratio",
        ),
        "reliability.lost_callbacks": (tally.lost, "count"),
        "reliability.dedup_entries_after": (gauges["dedup_entries"], "count"),
        "reliability.failed_share": (tally.failed_total / max(tally.attempted, 1), "ratio"),
        "observability.hook_us": (us("observability.hook_us"), "us"),
        "observability.hooks_per_call": (spans["hook_calls"] / calls, "count"),
        "bench.harness_us": (us("bench.harness_us") + us("other_us"), "us"),
        **host_figures(untraced),
        "trace.calls_per_s": (traced_cps, "1/s"),
        "trace.overhead_ratio": (untraced_cps / traced_cps if traced_cps else 0.0, "x"),
        "trace.covered_share": (spans["covered_ns"] / 1e9 / phase.wall_s, "ratio"),
        "trace.spans_per_call": (spans["spans"] / calls, "count"),
        "trace.span_cost_ns": (spans["span_cost_ns"], "ns"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        spans_path: str = "") -> tuple[dict[str, Any], dict[str, Any], Any]:
    """Run one workload; returns the reported metrics, figures printed
    for information only, and the tally."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    if not trace:
        world, setup_times = _timed_setups(workload)
        phase = _measure(workload, world, seconds)
        _settle(workload, world, phase.tally)
        return end_to_end_metrics(phase, setup_times), host_figures(phase), phase.tally

    from spans import SpanRecorder

    world = workload.setup()
    base = _measure(workload, world, seconds / 3)
    _settle(workload, world, base.tally)
    world = None
    recorder = SpanRecorder()
    recorder.calibrate()
    recorder.install()
    world = workload.setup()
    recorder.clear()
    phase = _measure(workload, world, seconds * 2 / 3)
    if spans_path:
        recorder.write_jsonl(spans_path)
    # self times cover the timed calls only, not the quiet period after
    spans = recorder.summary()
    tally = phase.tally
    _settle(workload, world, tally)
    gauges = leak_gauges(world)
    metrics = per_layer_metrics(spans, phase, gauges, base)
    tally.attempted += base.tally.attempted
    tally.completed += base.tally.completed
    tally.lost += base.tally.lost
    for name, n in base.tally.failed.items():
        tally.failed[name] = tally.failed.get(name, 0) + n
    tally.violations.extend(base.tally.violations)
    return metrics, {}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="", help="write the traced spans as JSON lines here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    metrics, info, tally = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.spans
    )
    correct = not tally.violations
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    for problem in tally.violations:
        print(f"VIOLATION: {problem}")
    if tally.failed or tally.lost:
        print(f"failures by class: {dict(tally.failed)}, lost: {tally.lost}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed_total,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
