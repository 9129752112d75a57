"""Host-speed probe: puts iteration times on one scale across a shared host.

The shared host this benchmark was built on runs identical work up to 2x
slower for seconds to minutes at a time (other tenants on the same cores),
far more than any regression bound. A probe is a fixed piece of this
file's own Python work, so it never changes with the program: it tokenizes
a fixed text with a regular expression, builds a bracket tree of slotted
nodes, numbers its leaves and walks it, the kind of work codegap's layers
do. Timing probes during an iteration gives the host's speed while that
iteration ran, and

    reference seconds = wall seconds * REFERENCE_PROBE_S / mean probe seconds

is the iteration's time on a host where one probe takes REFERENCE_PROBE_S.
A change to the program moves that number in full; a change in host speed
mostly cancels out. Fitting log wall time against log probe time over
iterations of pairs_real and rank_pool gave slopes of 1.03 and 0.94 for
this probe, where a pure arithmetic loop gave 1.35-1.65 and a pointer chase
through a 16 MB table 2.3-2.5: those slow down less than the workload when
the host is busy, so rescaling by them leaves part of the slowdown in.

In a single-process iteration a SIGALRM timer runs a probe every
PROBE_INTERVAL_S inside it, and the probes' own time is subtracted from the
stage walls (see `spent`). When pool workers keep every core busy, a probe
in the parent would mostly wait for a CPU, and a set-up is too short for
more than a few timer probes, so there BRACKET_PROBES probes run right
before and right after the block instead.
"""

from __future__ import annotations

import contextlib
import gc
import re
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.05
BRACKET_PROBES = 8
# one probe's seconds on the fast state of a 2-vCPU Xeon VM under Python 3.11
REFERENCE_PROBE_S = 0.001

_TEXT = "".join(f"def f{i}(a, b):\n    x = g_{i % 13}(a[{i % 7}], (b + {i}) * {i % 5})\n"
                f"    if x: return [x, {{'k{i % 11}': x}}]\n" for i in range(20))
_TOKEN = re.compile(r"\w+|[^\w\s]")
_CLOSER = {"(": ")", "[": "]", "{": "}"}


class _Node:
    __slots__ = ("text", "children", "start", "count", "parent")

    def __init__(self, text: str | None, children: tuple = ()):
        self.text = text
        self.children = children
        self.start = 0
        self.count = 0
        self.parent = None


def _number(node: _Node, at: int) -> int:
    node.start = at
    if node.text is not None:
        node.count = 1
        return 1
    for child in node.children:
        child.parent = node
        node.count += _number(child, at + node.count)
    return node.count


_spent = [0.0]


def spent() -> float:
    """Seconds spent inside timer probes so far in this process."""
    return _spent[0]


def probe() -> float:
    """Run one probe with the collector off; its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        groups: list[list[_Node]] = [[]]
        closers: list[str] = []
        for token in _TOKEN.findall(_TEXT):
            if token in _CLOSER:
                groups.append([_Node(token)])
                closers.append(_CLOSER[token])
            elif closers and token == closers[-1]:
                closers.pop()
                group = groups.pop()
                group.append(_Node(token))
                groups[-1].append(_Node(None, tuple(group)))
            else:
                groups[-1].append(_Node(token))
        root = _Node(None, tuple(groups[0]))
        _number(root, 0)
        stack, leaves = [root], 0
        while stack:
            node = stack.pop()
            leaves += node.text is not None
            stack.extend(node.children)
        if leaves != root.count:
            raise AssertionError("probe tree lost leaves")
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sample:
    """Probe times taken while one iteration ran."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def _fire(self, signum, frame) -> None:
        start = perf_counter()
        self.times.append(probe())
        _spent[0] += perf_counter() - start

    def _bracket(self) -> None:
        self.times.extend(probe() for _ in range(BRACKET_PROBES))

    def scale(self) -> float:
        """Factor from this iteration's wall seconds to reference seconds."""
        return REFERENCE_PROBE_S / statistics.fmean(self.times)


@contextlib.contextmanager
def sampling(during: bool):
    """Probe the host while the block runs, or right before and after it."""
    sample = Sample()
    if not during:
        sample._bracket()
        yield sample
        sample._bracket()
        return
    previous = signal.signal(signal.SIGALRM, sample._fire)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield sample
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not sample.times:
        # an iteration shorter than the interval still gets one probe
        sample._bracket()
