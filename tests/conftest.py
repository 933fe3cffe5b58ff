"""Shared test helpers.

``run_broadcast`` is the workhorse of the integration tests: it builds a
protocol per process of a topology, optionally replaces some processes
with Byzantine behaviours, broadcasts one payload and returns the frozen
run metrics together with the protocol instances for white-box checks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

import pytest

from repro.core.config import SystemConfig
from repro.core.modifications import ModificationSet
from repro.brb.optimized import CrossLayerBrachaDolev
from repro.metrics.collector import RunMetrics
from repro.network.simulation.delays import DelayModel, FixedDelay
from repro.network.simulation.network import SimulatedNetwork
from repro.paths.disjoint import DisjointPathVerifier
from repro.topology.generators import Topology


ProtocolBuilder = Callable[[int, SystemConfig, Iterable[int]], object]


def cross_layer_builder(mods: ModificationSet) -> ProtocolBuilder:
    """A builder producing cross-layer protocol instances with ``mods``."""

    def build(pid: int, config: SystemConfig, neighbors):
        return CrossLayerBrachaDolev(pid, config, neighbors, modifications=mods)

    return build


def run_broadcast(
    topology: Topology,
    config: SystemConfig,
    builder: ProtocolBuilder,
    *,
    source: int = 0,
    payload: bytes = b"test-payload",
    bid: int = 0,
    byzantine: Optional[Dict[int, object]] = None,
    delay_model: Optional[DelayModel] = None,
    seed: int = 1,
    max_events: int = 2_000_000,
) -> Tuple[RunMetrics, Dict[int, object]]:
    """Run one broadcast on a simulated network and return its metrics."""
    byzantine = byzantine or {}
    protocols: Dict[int, object] = {}
    for pid in topology.nodes:
        if pid in byzantine:
            protocols[pid] = byzantine[pid]
        else:
            protocols[pid] = builder(pid, config, sorted(topology.neighbors(pid)))
    network = SimulatedNetwork(
        topology,
        protocols,
        delay_model=delay_model or FixedDelay(10.0),
        seed=seed,
    )
    network.broadcast(source, payload, bid)
    metrics = network.run(max_events=max_events)
    return metrics, protocols


def delivered_payloads(metrics: RunMetrics, key=(0, 0)) -> Dict[int, bytes]:
    """Payloads delivered per process for one broadcast key."""
    return metrics.deliveries_for(key)


@pytest.fixture
def small_system() -> SystemConfig:
    """A 7-process system tolerating one Byzantine fault."""
    return SystemConfig.for_system(7, 1)


@pytest.fixture
def medium_system() -> SystemConfig:
    """A 10-process system tolerating two Byzantine faults."""
    return SystemConfig.for_system(10, 2)


@pytest.fixture
def recorded_paths(monkeypatch) -> list:
    """Every path handed to any ``DisjointPathVerifier.add_path``, in order."""
    recorded = []
    original = DisjointPathVerifier.add_path

    def add_path(self, path):
        recorded.append(path)
        return original(self, path)

    monkeypatch.setattr(DisjointPathVerifier, "add_path", add_path)
    return recorded
