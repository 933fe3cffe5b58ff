"""The live_loopback workload: an open loop over the asyncio TCP runtime.

One process and one event loop host the whole cluster (the system under
test) and the load generator.  Each broadcast is due at its spec
``start_time_ms`` after the epoch; the generator fires it from a loop
timer without waiting for earlier broadcasts, so a slow system builds a
backlog instead of receiving less load.  Latency is timed from the due
time, which charges a stall to every broadcast queued behind it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import MetricsCollector
from repro.network.asyncio_runtime.cluster import AsyncioCluster
from repro.scenarios import engine, oracle
from repro.scenarios.spec import ScenarioSpec

#: How long to wait, after the last broadcast is due, for every delivery.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class LiveRun:
    """What one live run measured and what its checks found."""

    result: Optional[engine.ScenarioResult] = None
    #: ``time.perf_counter()`` at the start and end of each cluster set-up.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    #: Loop time (s) of the epoch the due times count from.
    epoch: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``time.perf_counter()`` at the start and end of ``cpu_s``.
    cpu_span: Tuple[float, float] = (0.0, 0.0)
    state_peak: int = 0
    #: Per broadcast key: wall ms from its due time to the generator firing it.
    lag_ms: Dict[Tuple[int, int], float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def run_live(spec: ScenarioSpec, *, setups: int) -> LiveRun:
    """Start the cluster ``setups`` times (timing each) and run one of them.

    Half of the set-ups come before the run and half after it, so their
    median does not ride on the host's speed at one moment.
    """
    return asyncio.run(_run(spec, setups))


async def _start_cluster(spec, topology, out: LiveRun) -> AsyncioCluster:
    started = time.perf_counter()
    protocols = engine.build_protocols(spec, topology, {})
    cluster = AsyncioCluster(
        topology, spec.system(), protocols, collector=MetricsCollector()
    )
    await cluster.start()
    out.setups.append((started, time.perf_counter()))
    return cluster


async def _run(spec: ScenarioSpec, setups: int) -> LiveRun:
    out = LiveRun()
    topology = spec.topology.build(spec.seed)
    engine.validate_topology(spec, topology)
    for _ in range(setups - setups // 2 - 1):
        await (await _start_cluster(spec, topology, out)).stop()
    cluster = await _start_cluster(spec, topology, out)

    loop = asyncio.get_running_loop()
    broadcasts = spec.broadcasts()
    fired = loop.create_future()
    tasks: List[asyncio.Task] = []

    def fire(broadcast, payload: bytes) -> None:
        out.lag_ms[broadcast.key] = (
            loop.time() - cluster.epoch
        ) * 1000.0 - broadcast.start_time_ms
        tasks.append(
            asyncio.ensure_future(
                cluster.broadcast(broadcast.source, payload, broadcast.bid)
            )
        )
        if len(tasks) == len(broadcasts):
            fired.set_result(None)

    try:
        cluster.open_epoch()
        out.epoch = cluster.epoch
        cpu, cpu_started = time.process_time(), time.perf_counter()
        for broadcast in broadcasts:
            loop.call_at(
                cluster.epoch + broadcast.start_time_ms / 1000.0,
                fire,
                broadcast,
                spec.payload_for(broadcast),
            )
        await fired
        await asyncio.gather(*tasks)
        await cluster.wait_for_deliveries_of(
            [broadcast.key for broadcast in broadcasts], timeout=DRAIN_TIMEOUT_S
        )
        out.wall_s = loop.time() - cluster.epoch
        out.cpu_s = time.process_time() - cpu
        out.cpu_span = (cpu_started, time.perf_counter())
        cluster.collector.record_time(out.wall_s * 1000.0)
        out.state_peak = max(
            node.protocol.state_size_estimate() for node in cluster.nodes.values()
        )
    finally:
        await cluster.stop()
    for _ in range(setups // 2):
        await (await _start_cluster(spec, topology, out)).stop()

    # Delivery timestamps are wall ms after the epoch and start_time_ms is
    # the due time in the same unit, so freeze_result's latencies are
    # timed from the due time.
    out.result = engine.freeze_result(
        spec,
        topology=topology,
        byzantine={},
        metrics=cluster.collector.snapshot(),
        dropped_messages=cluster.dropped_messages,
    )
    out.problems.extend(
        f"{violation.invariant}: {violation.detail}"
        for violation in oracle.check_result(out.result)
    )
    out.problems.extend(_check_due_time_latency(out))
    return out


def _check_due_time_latency(run: LiveRun) -> List[str]:
    """Each latency must run from the due time, never from the firing time."""
    problems = []
    times = run.result.metrics.delivery_times
    for outcome in run.result.outcomes:
        if outcome.latency_ms is None:
            continue
        last = max(times[(pid, outcome.key)] for pid in run.result.correct_processes)
        lag = run.lag_ms[outcome.key]
        expected = last - outcome.start_time_ms
        if abs(outcome.latency_ms - expected) > 1e-6 or lag < -1.0:
            problems.append(
                f"broadcast {outcome.key}: latency {outcome.latency_ms:.3f} ms is "
                f"not timed from its due time (expected {expected:.3f} ms, "
                f"generator lag {lag:.3f} ms)"
            )
    return problems
