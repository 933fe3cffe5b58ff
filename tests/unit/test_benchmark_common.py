"""Unit tests for the benchmark harness helpers in ``benchmarks.common``.

The paper benchmarks build every measurement cell with ``paper_cell`` and
summarize sweeps with ``connectivity_series`` and ``paired_variations``;
these tests pin the Sec. 7.1 cell mapping, the cell layout each helper
hands to ``run_sweep`` and the way results are averaged back per point.
"""

from types import SimpleNamespace

import pytest

import benchmarks.common
from benchmarks.common import (
    ASYNC_DELAY,
    DEFAULT_SCALE,
    PAPER_SCALE,
    SYNC_DELAY,
    connectivity_series,
    current_scale,
    format_latency,
    format_range,
    k_grid_for,
    mean_or_none,
    paired_variations,
    paper_cell,
    sweep_workers,
)
from repro.core.modifications import ModificationSet
from repro.runner.parallel import run_sweep
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, seed_cells
from repro.scenarios.engine import simulate_scenario


class RecordingSweep:
    """Stands in for ``run_sweep``: records each call, answers with ``outcome(cell)``."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.calls = []

    def __call__(self, cells, workers):
        cells = list(cells)
        self.calls.append((cells, workers))
        return [self.outcome(cell) for cell in cells]


class TestPaperCell:
    def test_default_cell_is_the_synchronous_sec71_setting(self):
        cell = paper_cell(16, 7, 2)
        assert cell.topology == TopologySpec(
            kind="random_regular", n=16, k=7, min_connectivity=5
        )
        assert cell.delay == SYNC_DELAY
        assert cell.protocol == "cross_layer"
        assert cell.modifications == ModificationSet.dolev_optimized()
        assert cell.f == 2
        assert cell.payload_size == 16
        assert cell.seed == 0
        assert cell.source == 0
        assert cell.adversaries == ()
        assert cell.shared_bandwidth_bps == 1e9

    def test_required_connectivity_is_capped_by_k(self):
        # 2f+1 = 7 exceeds k = 4, so the graph is only asked to be 4-connected.
        assert paper_cell(12, 4, 3).topology.min_connectivity == 4
        assert paper_cell(12, 9, 3).topology.min_connectivity == 7

    def test_bracha_runs_on_a_complete_graph(self):
        cell = paper_cell(9, 4, 2, protocol="bracha")
        assert cell.topology == TopologySpec(kind="complete", n=9)
        assert cell.protocol == "bracha"

    def test_keyword_overrides_reach_the_spec(self):
        mods = ModificationSet.bandwidth_optimized()
        cell = paper_cell(
            10,
            5,
            2,
            payload_size=1024,
            modifications=mods,
            seed=7,
            protocol="bracha_dolev",
            delay=ASYNC_DELAY,
            name="probe",
        )
        assert cell.name == "probe"
        assert cell.payload_size == 1024
        assert cell.modifications == mods
        assert cell.seed == 7
        assert cell.protocol == "bracha_dolev"
        assert cell.delay == ASYNC_DELAY
        assert cell.topology.kind == "random_regular"

    def test_paper_delay_settings(self):
        assert SYNC_DELAY == DelaySpec(kind="fixed", mean_ms=50.0)
        assert ASYNC_DELAY == DelaySpec(kind="normal", mean_ms=50.0, std_ms=50.0)

    @pytest.mark.parametrize("n, k, f", [(15, 8, 2), (20, 8, 3), (30, 11, 4)])
    def test_scenario_hash_matches_the_spelled_out_spec(self, n, k, f):
        # The Fig. 6 cells were built field by field before paper_cell existed;
        # their cache slots depend on the hash staying the same.
        mods = ModificationSet.bandwidth_optimized()
        spelled_out = ScenarioSpec(
            name=f"fig6-n{n}-k{k}",
            topology=TopologySpec(
                kind="random_regular", n=n, k=k, min_connectivity=min(k, 2 * f + 1)
            ),
            delay=DelaySpec(kind="fixed", mean_ms=50.0),
            modifications=mods,
            f=f,
            payload_size=1024,
            seed=31,
            shared_bandwidth_bps=1e9,
        )
        cell = paper_cell(
            n, k, f, payload_size=1024, modifications=mods, seed=31, name=f"fig6-n{n}-k{k}"
        )
        assert cell == spelled_out
        assert cell.scenario_hash() == spelled_out.scenario_hash()

    @pytest.mark.parametrize("n, k, f, seed", [(12, 5, 2, 0), (16, 7, 2, 3), (20, 8, 3, 1)])
    def test_generated_graph_is_k_regular_and_connected_enough(self, n, k, f, seed):
        cell = paper_cell(n, k, f, seed=seed)
        topology = cell.topology.build(cell.seed)
        assert topology.nodes == tuple(range(n))
        assert all(topology.degree(node) == k for node in topology.nodes)
        assert topology.vertex_connectivity() >= min(k, 2 * f + 1)

    def test_parallel_sweep_matches_inline_runs(self):
        cells = seed_cells(paper_cell(8, 5, 1), 2)
        pooled = run_sweep(cells, workers=2)
        for cell, result in zip(cells, pooled):
            inline = simulate_scenario(cell)
            assert result.message_count == inline.message_count
            assert result.total_bytes == inline.total_bytes
            assert result.latency_ms == inline.latency_ms


class TestConnectivitySeries:
    def test_every_cell_goes_through_one_sweep_in_figure_order(self, monkeypatch):
        sweep = RecordingSweep(lambda cell: SimpleNamespace(latency_ms=1.0, total_bytes=1))
        monkeypatch.setattr(benchmarks.common, "run_sweep", sweep)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        configurations = {
            "BDopt": ModificationSet.dolev_optimized(),
            "bdw": ModificationSet.bandwidth_optimized(),
        }
        connectivity_series(configurations, 20, 3, (8, 12), seed=5, runs=2)

        ((cells, workers),) = sweep.calls
        assert workers == 3
        assert [(c.modifications, c.topology.k, c.seed) for c in cells] == [
            (configurations[name], k, seed)
            for name in configurations
            for k in (8, 12)
            for seed in (5, 6)
        ]
        assert all(c.payload_size == 1024 for c in cells)
        assert all(c.topology.n == 20 and c.f == 3 for c in cells)

    def test_points_average_their_own_seeds(self, monkeypatch):
        outcomes = {
            (8, 0): (100.0, 2000), (8, 1): (None, 4000),
            (12, 0): (None, 1000), (12, 1): (None, 3000),
        }

        def outcome(cell):
            latency, total = outcomes[(cell.topology.k, cell.seed)]
            return SimpleNamespace(latency_ms=latency, total_bytes=total)

        monkeypatch.setattr(benchmarks.common, "run_sweep", RecordingSweep(outcome))
        series = connectivity_series(
            {"BDopt": ModificationSet.dolev_optimized()}, 20, 3, (8, 12), seed=0, runs=2
        )
        assert series == {
            "BDopt": [
                {"k": 8, "latency_ms": 100.0, "kilobytes": 3.0},
                {"k": 12, "latency_ms": None, "kilobytes": 2.0},
            ]
        }


class TestPairedVariations:
    def test_reference_and_candidate_share_topology_and_seeds(self, monkeypatch):
        sweep = RecordingSweep(lambda cell: SimpleNamespace(latency_ms=1.0, total_bytes=1))
        monkeypatch.setattr(benchmarks.common, "run_sweep", sweep)
        reference = paper_cell(
            10,
            5,
            2,
            payload_size=1024,
            modifications=ModificationSet.bdopt_with_mbd1(),
            seed=4,
            delay=ASYNC_DELAY,
            name="table1",
        )
        candidate = ModificationSet.single_mbd(7)
        paired_variations(reference, candidate, grid=[(10, 5, 2), (12, 7, 2)], runs=2)

        ((cells, _),) = sweep.calls
        assert len(cells) == 8
        expected = []
        for n, k, f in [(10, 5, 2), (12, 7, 2)]:
            for mods in (reference.modifications, candidate):
                for seed in (4, 5):
                    expected.append((n, k, f, mods, seed))
        assert [
            (c.topology.n, c.topology.k, c.f, c.modifications, c.seed) for c in cells
        ] == expected
        assert all(c.payload_size == 1024 for c in cells)
        assert all(c.delay == ASYNC_DELAY for c in cells)
        assert all(c.name == "table1" for c in cells)

    def test_one_variation_per_grid_point_in_grid_order(self, monkeypatch):
        def outcome(cell):
            scale = 1 if cell.modifications == ModificationSet.dolev_optimized() else 2
            return SimpleNamespace(latency_ms=10.0 * scale, total_bytes=cell.topology.n * scale)

        monkeypatch.setattr(benchmarks.common, "run_sweep", RecordingSweep(outcome))
        grid = [(12, 7, 2), (10, 5, 2)]
        variations = paired_variations(
            paper_cell(10, 5, 2), ModificationSet.none(), grid=grid, runs=2
        )
        assert [(v.n, v.k, v.f) for v in variations] == grid
        assert all(v.latency_variation_percent == pytest.approx(100.0) for v in variations)
        assert all(v.bytes_variation_percent == pytest.approx(100.0) for v in variations)

    def test_no_paired_latency_gives_no_latency_variation(self, monkeypatch):
        def outcome(cell):
            latency = None if cell.modifications == ModificationSet.none() else 50.0
            return SimpleNamespace(latency_ms=latency, total_bytes=800)

        monkeypatch.setattr(benchmarks.common, "run_sweep", RecordingSweep(outcome))
        (variation,) = paired_variations(
            paper_cell(10, 5, 2), ModificationSet.none(), grid=[(10, 5, 2)], runs=3
        )
        assert variation.latency_variation_percent is None
        assert variation.bytes_variation_percent == pytest.approx(0.0)


class TestFormatting:
    def test_latency_is_rounded_and_right_aligned(self):
        assert format_latency(412.6, 5) == "  413"
        assert format_latency(0.4, 7) == "      0"

    def test_missing_latency_prints_not_available(self):
        assert format_latency(None, 5) == "  n/a"
        assert format_latency(None, 7) == "    n/a"

    def test_range_is_signed_and_bounded(self):
        assert format_range([3.14, -12.0, 0.0]) == "[-12.0, +3.1]"
        assert format_range([]) == "[n/a]"


class TestHelpers:
    def test_mean_or_none_ignores_missing_values(self):
        assert mean_or_none([1.0, None, 3.0]) == pytest.approx(2.0)
        assert mean_or_none([None, None]) is None
        assert mean_or_none([]) is None

    def test_k_grid_keeps_feasible_connectivities(self):
        # k below 2f+1 or at least n is dropped; n*k odd moves k down by one.
        assert k_grid_for(20, 3, (5, 8, 12, 19, 20)) == [8, 12, 19]
        assert k_grid_for(15, 2, (8, 9, 14)) == [8, 14]

    def test_k_grid_moves_up_when_down_is_too_sparse(self):
        # n*k odd and k-1 < 2f+1: the next even-degree k is taken instead.
        assert k_grid_for(11, 2, (5, 6)) == [6]

    def test_sweep_workers_reads_the_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert sweep_workers() == 2
        assert sweep_workers(default=4) == 4
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert sweep_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert sweep_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert sweep_workers() == 2

    def test_current_scale_follows_repro_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() is DEFAULT_SCALE
        monkeypatch.setenv("REPRO_SCALE", "PAPER")
        assert current_scale() is PAPER_SCALE
        monkeypatch.setenv("REPRO_SCALE", "something-else")
        assert current_scale() is DEFAULT_SCALE
