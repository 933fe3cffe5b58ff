"""Integration tests: the layered Bracha-Dolev combination (BD and BDopt)."""

from dataclasses import replace

import pytest

from repro.core.config import SystemConfig
from repro.core.modifications import ModificationSet
from repro.brb.bracha_dolev import BrachaDolevBroadcast
from repro.network.adversary import EquivocatingSource, MuteProcess
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec
from repro.scenarios.engine import simulate_scenario
from repro.topology.generators import harary_topology, random_regular_topology

from tests.conftest import run_broadcast


def layered_builder(mods):
    def build(pid, config, neighbors):
        return BrachaDolevBroadcast(pid, config, neighbors, modifications=mods)

    return build


class TestLayeredCombination:
    @pytest.mark.parametrize(
        "mods",
        [ModificationSet.none(), ModificationSet.dolev_optimized()],
        ids=["bd", "bdopt"],
    )
    def test_brb_delivery_on_partially_connected_graph(self, mods):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        metrics, _ = run_broadcast(topo, config, layered_builder(mods))
        delivered = metrics.deliveries_for((0, 0))
        assert set(delivered) == set(range(7))
        assert set(delivered.values()) == {b"test-payload"}

    def test_bdopt_uses_fewer_messages_than_bd(self):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        bd, _ = run_broadcast(topo, config, layered_builder(ModificationSet.none()))
        bdopt, _ = run_broadcast(
            topo, config, layered_builder(ModificationSet.dolev_optimized())
        )
        assert bdopt.message_count < bd.message_count
        assert bdopt.total_bytes < bd.total_bytes

    def test_factory_constructors(self):
        config = SystemConfig.for_system(7, 1)
        bd = BrachaDolevBroadcast.bd(0, config, [1, 2, 3])
        bdopt = BrachaDolevBroadcast.bdopt(0, config, [1, 2, 3])
        assert not bd.modifications.md1_deliver_from_source
        assert bdopt.modifications.md1_deliver_from_source

    def test_mute_byzantine_processes_tolerated(self):
        config = SystemConfig.for_system(10, 2)
        topo = random_regular_topology(10, 5, seed=2)
        mute = [4, 9]
        byzantine = {pid: MuteProcess(pid, sorted(topo.neighbors(pid))) for pid in mute}
        metrics, _ = run_broadcast(
            topo,
            config,
            layered_builder(ModificationSet.dolev_optimized()),
            byzantine=byzantine,
        )
        delivered = metrics.deliveries_for((0, 0))
        assert set(delivered) >= set(topo.nodes) - set(mute)

    def test_equivocating_source_cannot_split_correct_processes(self):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        byzantine = {
            0: EquivocatingSource(0, sorted(topo.neighbors(0)), family="bracha_dolev")
        }
        metrics, _ = run_broadcast(
            topo,
            config,
            layered_builder(ModificationSet.dolev_optimized()),
            byzantine=byzantine,
            source=0,
        )
        payloads = set(metrics.deliveries_for((0, 0)).values())
        assert len(payloads) <= 1

    def test_non_source_broadcasts_also_work(self):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        metrics, _ = run_broadcast(
            topo,
            config,
            layered_builder(ModificationSet.dolev_optimized()),
            source=5,
            payload=b"from-five",
        )
        delivered = metrics.deliveries_for((5, 0))
        assert set(delivered) == set(range(7))
        assert set(delivered.values()) == {b"from-five"}


# (topology, f, payload size, seed) cells on which the cross-layer stack
# with BDopt and no MBD modification must send exactly what the layered
# reference sends.
DIFFERENTIAL_CELLS = [
    (TopologySpec(kind="random_regular", n=8, k=5, min_connectivity=3), 1, 16, 0),
    (TopologySpec(kind="random_regular", n=10, k=5, min_connectivity=5), 2, 1024, 71),
    (TopologySpec(kind="random_regular", n=12, k=5, min_connectivity=5), 2, 16, 4),
    (TopologySpec(kind="random_regular", n=14, k=9, min_connectivity=7), 3, 16, 6),
    (TopologySpec(kind="random_regular", n=20, k=8, min_connectivity=7), 3, 16, 17),
    (TopologySpec(kind="harary", n=10, k=5), 2, 16, 1),
    (TopologySpec(kind="complete", n=10), 3, 16, 2),
]


@pytest.mark.parametrize(
    "topology, f, payload_size, seed",
    DIFFERENTIAL_CELLS,
    ids=[f"{t.kind}-n{t.n}-f{f}-s{seed}" for t, f, _, seed in DIFFERENTIAL_CELLS],
)
def test_cross_layer_bdopt_matches_layered_reference(topology, f, payload_size, seed):
    # Fixed delays: under normal/uniform delays the two stacks draw link
    # delays in different send orders, so their counts legitimately differ.
    spec = ScenarioSpec(
        topology=topology,
        delay=DelaySpec(kind="fixed", mean_ms=50.0),
        protocol="bracha_dolev",
        modifications=ModificationSet.dolev_optimized(),
        f=f,
        payload_size=payload_size,
        seed=seed,
        shared_bandwidth_bps=1e9,
    )
    reference = simulate_scenario(spec)
    candidate = simulate_scenario(replace(spec, protocol="cross_layer"))
    assert reference.all_correct_delivered
    assert candidate.message_count == reference.message_count
    assert candidate.total_bytes == reference.total_bytes
    assert candidate.latency_ms == reference.latency_ms
    assert candidate.delivered_processes == reference.delivered_processes
