"""Host-speed reference: a fixed piece of work, timed between slices of
a workload, so that wall-clock figures can be rescaled to one reference
speed.

The machines this benchmark runs on are shared: the same code runs up
to twice as fast in one second as in the next, because other work
contends for the processor's cores, caches and memory.  The reference
runs none of the program's code, so no change to the program moves it,
and it is built so that its run time follows the host's speed the way
the program's does.  It has two halves of about equal time:

- compute: small objects, dicts, attribute access, string building,
  splitting and encoding, and a pass over a 64 KiB text;
- memory: a pointer chase through a table of 2^19 Python ints (about
  20 MB, far beyond a core's own caches) in one random cycle, the
  access pattern of a garbage-collector pass or of code that walks a
  large heap.

Measured on a 2-CPU Xeon container, in 100 ms slices over 100 s of
``echo_http`` and of ``lossy_p2ps``: when the host ran fast, the compute
half sped up by 1.5x, the memory half by 1.25x and the program by about
1.3x to 1.4x.  Rescaled by the compute half alone, the program read 13%
to 15% slower in fast periods than in slow ones; rescaled by the sum
of both halves, within 3%.

A time measured next to the reference is rescaled by
``REFERENCE_S / measured reference time``: it reads as the time the
same work would take on a host where the reference takes exactly
``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time

#: seconds one reference measurement takes at the reference speed
#: (about the median on a 2-CPU Xeon container)
REFERENCE_S = 0.010
#: tree renders in the compute half
RENDERS = 90
#: steps of the memory half
CHASE_STEPS = 11500

_POOL = [{f"k{j}": f"v{i * j}" for j in range(4)} for i in range(4096)]
_TEXT = "payload & <text> with some words " * 2048


def _cycle(entries: int) -> list[int]:
    """``table[i]`` is the entry after ``i`` in one random cycle through
    all entries, so a chase never settles into a short loop."""
    order = list(range(entries))
    random.Random(0).shuffle(order)
    table = [0] * entries
    for k in range(entries):
        table[order[k - 1]] = order[k]
    return table


_CHASE = _cycle(1 << 19)


class _Node:
    __slots__ = ("tag", "attrs", "children", "text")

    def __init__(self, tag: str, attrs: dict, text: str) -> None:
        self.tag = tag
        self.attrs = attrs
        self.children: list[_Node] = []
        self.text = text

    def render(self, out: list[str]) -> None:
        out.append("<" + self.tag)
        for key, value in self.attrs.items():
            out.append(f' {key}="{value}"')
        out.append(">")
        if self.text:
            out.append(self.text.replace("&", "&amp;"))
        for child in self.children:
            child.render(out)
        out.append("</" + self.tag + ">")


def _compute() -> int:
    total = 0
    for i in range(RENDERS):
        root = _Node("Envelope", _POOL[(i * 97) % 4096], "")
        for j in range(12):
            root.children.append(
                _Node(f"h{j}", _POOL[(i * 31 + j * 7) % 4096], f"text {j} & more")
            )
        out: list[str] = []
        root.render(out)
        total += len("".join(out).encode().decode().split("><"))
    escaped = _TEXT.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return total + len(escaped.encode())


def _chase() -> int:
    table, i = _CHASE, 0
    for _ in range(CHASE_STEPS):
        i = table[i]
    return i


def reference_seconds() -> float:
    """Time one reference measurement on the host as it is now."""
    start = time.perf_counter()
    _compute()
    _chase()
    return time.perf_counter() - start
