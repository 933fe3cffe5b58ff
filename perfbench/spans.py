"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of the program
with timing wrappers, keeps a span stack in memory and aggregates self
time (span duration minus the part its child spans cover) and call
counts per span name.  :meth:`Tracer.restore` puts every original back.

Spans nest the way the calls do: the disjoint-path verifier inside the
protocol, the protocol (or a Byzantine behaviour wrapping it) inside the
network's run, so each layer's self time excludes the layers it calls.
A call into a layer that is already the innermost open span (a method of
the same layer calling another) is folded into that span.

Coroutines are timed step by step: each resumption of a wrapped
coroutine is one span, so waiting on the event loop is not counted as
work and spans of interleaved coroutines never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span stack, per-name aggregates and the list of patched attributes."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form counters fed by result hooks (commands, stored paths...).
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str) -> Optional[list]:
        stack = self._stack
        if stack and stack[-1][0] == name:
            return None
        frame = [name, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[2]
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _install(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        functools.update_wrapper(wrapper, original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` (a function defined on it)."""
        original = vars(owner)[attr]
        calls = self.calls

        def traced(*args, **kwargs):
            frame = self._open(name)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(frame)
                calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        self._install(owner, attr, traced)

    def wrap_coroutine(
        self,
        owner,
        attr: str,
        name: str,
        on_call: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Time every resumption of coroutines made by ``owner.attr``."""
        original = vars(owner)[attr]
        calls = self.calls

        async def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            calls[name] += 1
            return await _Steps(original(*args, **kwargs), self, name)

        self._install(owner, attr, traced)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class _Steps:
    """Awaitable driving a coroutine, one span per resumption."""

    __slots__ = ("coro", "tracer", "name")

    def __init__(self, coro, tracer: Tracer, name: str) -> None:
        self.coro = coro
        self.tracer = tracer
        self.name = name

    def __await__(self):
        coro, tracer, name = self.coro, self.tracer, self.name
        value, error = None, None
        while True:
            frame = tracer._open(name)
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    tracer._close(frame)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:
                # Whatever the event loop throws in (cancellation
                # included) goes to the wrapped coroutine, which decides
                # whether it propagates: plain ``await`` delegation.
                value, error = None, exc


def instrument(
    tracer: Tracer, on_cluster_broadcast: Optional[Callable[[tuple], None]] = None
) -> None:
    """Wrap the public entry points of every layer the benchmark calls into.

    ``on_cluster_broadcast`` receives the arguments of each
    ``AsyncioCluster.broadcast`` call when it is made (the live
    workload's generator lag).
    """
    from repro.brb.bracha_dolev import BrachaDolevBroadcast
    from repro.brb.optimized.protocol import CrossLayerBrachaDolev
    from repro.network import adversary
    from repro.network.asyncio_runtime import node
    from repro.network.asyncio_runtime.cluster import AsyncioCluster
    from repro.network.simulation import delays
    from repro.network.simulation.network import SimulatedNetwork
    from repro.paths.disjoint import DisjointPathVerifier
    from repro.scenarios import engine
    from repro.scenarios.spec import TopologySpec

    counts = tracer.counts

    def count_commands(commands) -> None:
        counts["optimized.commands"] += len(commands) if commands else 0

    def count_paths(result) -> None:
        counts["disjoint.stored"] += result.stored
        counts["disjoint.satisfied"] += result.newly_satisfied

    tracer.wrap(TopologySpec, "build", "topology")
    tracer.wrap(engine, "build_protocols", "engine.build_protocols")
    tracer.wrap(engine, "freeze_result", "engine.freeze")
    for attr in ("broadcast_at", "run"):
        tracer.wrap(SimulatedNetwork, attr, "simulation")
    for cls in _with_subclasses(delays.DelayModel):
        if "sample_event" in vars(cls):
            tracer.wrap(cls, "sample_event", "delays")
    for attr in ("broadcast", "on_message"):
        tracer.wrap(CrossLayerBrachaDolev, attr, "optimized", count_commands)
        tracer.wrap(BrachaDolevBroadcast, attr, "bracha_dolev")
        for cls in _with_subclasses(adversary.ByzantineBehavior):
            if attr in vars(cls):
                tracer.wrap(cls, attr, "adversary")
    tracer.wrap(DisjointPathVerifier, "add_path", "disjoint", count_paths)
    tracer.wrap(node, "encode_message", "encoding.encode")
    tracer.wrap(node, "decode_message", "encoding.decode")
    tracer.wrap_coroutine(node.AsyncioNode, "handle_message", "asyncio_runtime.on_message")
    tracer.wrap_coroutine(
        AsyncioCluster, "broadcast", "asyncio_runtime.broadcast", on_cluster_broadcast
    )


def _with_subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))
