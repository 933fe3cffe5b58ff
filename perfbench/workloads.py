"""The benchmark's four workloads, generated from the ``--seed`` argument.

Every workload is a list of :class:`~repro.scenarios.spec.ScenarioSpec`
cells; the program under test only ever sees these specs.  The same seed
always gives the same specs, so :func:`provenance` (cell count, broadcast
count and a digest of the sorted scenario hashes) identifies the inputs a
run measured.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import List, Tuple

from repro.core.modifications import ModificationSet
from repro.runner.configs import PROTOCOL_CONFIGURATIONS
from repro.scenarios.spec import (
    AdversarySpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

#: Name of the layered Bracha-Dolev reference cell of paper_lattice.
LAYERED_REFERENCE = "bracha_dolev"

#: Byzantine behaviours of byz_mix (every static behaviour except the
#: source-only ``equivocate``).
BYZ_BEHAVIOURS = (
    "mute",
    "forge",
    "truncate_path",
    "drop",
    "send_empty",
    "limited_broadcast",
    "alter_sender",
)

#: Repetitions of every byz_mix cell per run, each on its own seed.
BYZ_REPEATS = 2

#: Offered load of live_loopback, in broadcasts per wall second.  At
#: 10/s one broadcast costs 60-75 ms of CPU, so the loop runs at 60-75%
#: of a core and its median latency doubles when the host slows by a
#: tenth; 5/s keeps it well below saturation.
LIVE_RATE_PER_S = 5


def paper_lattice(seed: int) -> List[ScenarioSpec]:
    """The paper's headline cell (N=31, f=4, k=10, 16 B, fixed 50 ms).

    One cell per entry of ``PROTOCOL_CONFIGURATIONS`` plus the layered
    ``bracha_dolev`` reference (BDopt modifications), all on the same
    graph so their message counts compare.
    """
    base = ScenarioSpec(
        topology=TopologySpec(kind="random_regular", n=31, k=10),
        delay=DelaySpec(kind="fixed", mean_ms=50.0),
        f=4,
        payload_size=16,
        seed=seed,
    )
    cells = [
        replace(base, name=name, modifications=mods)
        for name, mods in PROTOCOL_CONFIGURATIONS.items()
    ]
    cells.append(replace(base, name=LAYERED_REFERENCE, protocol="bracha_dolev"))
    return cells


def sensor_stream(seed: int) -> List[ScenarioSpec]:
    """30 round-robin 1 KiB broadcasts, 5 ms apart, over a 1 Gb/s medium."""
    return [
        ScenarioSpec(
            name="sensor_stream",
            topology=TopologySpec(kind="random_regular", n=20, k=8),
            delay=DelaySpec(kind="uniform", low_ms=10.0, high_ms=100.0),
            modifications=ModificationSet.latency_and_bandwidth_optimized(),
            f=3,
            payload_size=1024,
            shared_bandwidth_bps=1e9,
            seed=seed,
            workload=WorkloadSpec.round_robin(range(20), 30, 5.0),
        )
    ]


def byz_mix(seed: int) -> List[ScenarioSpec]:
    """Seven behaviours x three stacks, two adversaries each (N=10, k=5, f=2).

    The graph is the Harary graph H(5, 10), 5-regular and exactly
    2f+1-connected: on random regular graphs a few seeds multiply the
    ``alter_sender`` traffic several-fold.  Adversary positions decide
    how much a behaviour costs, so every cell draws its own placement
    and delays (cell seeds derive from ``seed``), and each cell runs
    :data:`BYZ_REPEATS` times: the run's totals then average over many
    placements instead of riding on one.
    """
    stacks = (
        ("bdopt", "cross_layer", ModificationSet.dolev_optimized()),
        ("lat_bdw", "cross_layer", ModificationSet.latency_and_bandwidth_optimized()),
        ("layered", "bracha_dolev", ModificationSet.dolev_optimized()),
    )
    grid = [
        (repeat, behaviour, stack)
        for repeat in range(BYZ_REPEATS)
        for behaviour in BYZ_BEHAVIOURS
        for stack in stacks
    ]
    return [
        ScenarioSpec(
            name=f"{behaviour}.{name}.{repeat}",
            topology=TopologySpec(kind="harary", n=10, k=5),
            delay=DelaySpec(kind="uniform", low_ms=10.0, high_ms=100.0),
            protocol=protocol,
            modifications=mods,
            f=2,
            adversaries=(AdversarySpec(behaviour=behaviour, count=2),),
            seed=seed * len(grid) + index,
        )
        for index, (repeat, behaviour, (name, protocol, mods)) in enumerate(grid)
    ]


def live_loopback(seed: int, broadcasts: int) -> ScenarioSpec:
    """Round-robin ``lat_bdw`` broadcasts at 5/s over 127.0.0.1 sockets.

    The graph is the Harary graph H(5, 10), as in byz_mix; the seed
    orders the sources and picks the payloads.  ``start_time_ms`` of each
    broadcast is its due time on the open-loop schedule (the asyncio
    backend maps 1 scenario ms to 1 wall ms).
    """
    sources = list(range(10))
    random.Random(seed).shuffle(sources)
    schedule = WorkloadSpec.round_robin(sources, broadcasts, 1000.0 / LIVE_RATE_PER_S)
    return ScenarioSpec(
        name="live_loopback",
        topology=TopologySpec(kind="harary", n=10, k=5),
        modifications=ModificationSet.latency_and_bandwidth_optimized(),
        f=2,
        payload_size=16,
        seed=seed,
        backend="asyncio",
        workload=WorkloadSpec(
            tuple(
                replace(broadcast, payload_seed=seed * broadcasts + index + 1)
                for index, broadcast in enumerate(schedule.broadcasts)
            )
        ),
    )


#: Workloads that run on the discrete-event simulator.
SIMULATION_WORKLOADS = {
    "paper_lattice": paper_lattice,
    "sensor_stream": sensor_stream,
    "byz_mix": byz_mix,
}

WORKLOAD_NAMES = (*SIMULATION_WORKLOADS, "live_loopback")


def provenance(cells: List[ScenarioSpec]) -> Tuple[int, int, str]:
    """``(cells, broadcasts, digest of the sorted scenario hashes)``."""
    hashes = sorted(spec.scenario_hash() for spec in cells)
    digest = hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()[:16]
    return len(cells), sum(len(spec.broadcasts()) for spec in cells), digest
