"""Integration tests for the Sec. 7.1 measurement cells, paired sweeps and metric trends."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

import benchmarks.common
from benchmarks.common import ASYNC_DELAY, paired_variations, paper_cell
from repro.core.errors import ConfigurationError
from repro.core.modifications import ModificationSet
from repro.runner.configs import PROTOCOL_CONFIGURATIONS, modification_set_for, protocol_factory
from repro.runner.parallel import run_sweep
from repro.scenarios import AdversarySpec, seed_cells
from repro.scenarios.engine import simulate_scenario


class TestRunner:
    def test_basic_run_delivers_everywhere(self):
        result = simulate_scenario(paper_cell(10, 5, 2, payload_size=64))
        assert result.all_correct_delivered
        assert result.latency_ms is not None and result.latency_ms > 0
        assert result.total_bytes > 0

    def test_deterministic_for_seed(self):
        cell = paper_cell(10, 5, 2, seed=42)
        a = simulate_scenario(cell)
        b = simulate_scenario(cell)
        assert a.total_bytes == b.total_bytes
        assert a.latency_ms == b.latency_ms

    def test_different_seeds_vary_topology(self):
        results = run_sweep(seed_cells(paper_cell(12, 5, 2), 3))
        assert len(results) == 3
        assert len({r.total_bytes for r in results}) >= 2

    def test_byzantine_mute_processes(self):
        cell = replace(paper_cell(10, 5, 2), adversaries=(AdversarySpec("mute", 2),))
        result = simulate_scenario(cell)
        assert len(result.correct_processes) == 8
        assert result.all_correct_delivered

    def test_too_many_byzantine_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(paper_cell(10, 5, 2), adversaries=(AdversarySpec("mute", 3),))

    def test_payload_size_respected(self):
        assert len(paper_cell(7, 4, 1, payload_size=1024).payload()) == 1024
        assert len(paper_cell(7, 4, 1, payload_size=0).payload()) == 0

    def test_asynchronous_setting(self):
        result = simulate_scenario(paper_cell(8, 5, 1, delay=ASYNC_DELAY, seed=5))
        assert result.all_correct_delivered

    def test_bracha_family_uses_complete_graph(self):
        cell = paper_cell(7, 4, 2, protocol="bracha")
        assert cell.topology.kind == "complete"
        assert simulate_scenario(cell).all_correct_delivered

    def test_state_size_metric_exposed(self):
        result = simulate_scenario(paper_cell(8, 5, 1))
        assert result.metrics.peak_state_size > 0


class TestConfigurations:
    def test_named_configurations_cover_all_single_modifications(self):
        for index in range(2, 13):
            assert f"mbd{index}" in PROTOCOL_CONFIGURATIONS

    def test_modification_set_for_names(self):
        assert modification_set_for("BDopt") == ModificationSet.dolev_optimized()
        assert modification_set_for("mbd7") == ModificationSet.single_mbd(7)
        assert modification_set_for("lat & bdw") == (
            ModificationSet.latency_and_bandwidth_optimized()
        )
        assert modification_set_for("bd") == ModificationSet.none()
        assert modification_set_for("all") == ModificationSet.all_enabled()

    def test_modification_set_for_unknown_name(self):
        with pytest.raises(ValueError):
            modification_set_for("nonsense")

    def test_protocol_factory_unknown_family(self):
        with pytest.raises(ValueError):
            protocol_factory("unknown-family")


def _run(mods, seed):
    return simulate_scenario(
        paper_cell(12, 7, 2, payload_size=1024, modifications=mods, seed=seed)
    )


class TestTrends:
    """Coarse-grained checks that the headline effects of the paper hold."""

    def test_mbd1_reduces_network_consumption_by_more_than_90_percent(self):
        reference = _run(ModificationSet.dolev_optimized(), seed=2)
        candidate = _run(ModificationSet.bdopt_with_mbd1(), seed=2)
        reduction = 1 - candidate.total_bytes / reference.total_bytes
        assert reduction > 0.90

    def test_bandwidth_configuration_reduces_bytes_beyond_mbd1(self):
        reference = _run(ModificationSet.bdopt_with_mbd1(), seed=3)
        candidate = _run(ModificationSet.bandwidth_optimized(), seed=3)
        assert candidate.total_bytes < reference.total_bytes

    def test_mbd11_reduces_messages(self):
        reference = _run(ModificationSet.bdopt_with_mbd1(), seed=4)
        candidate = _run(ModificationSet.single_mbd(11), seed=4)
        assert candidate.message_count < reference.message_count

    def test_sweep_produces_points_for_every_grid_entry(self):
        cells = [
            cell
            for n, k, f in [(8, 5, 1), (10, 5, 2)]
            for cell in seed_cells(paper_cell(n, k, f), 2)
        ]
        results = run_sweep(cells)
        assert [(r.spec.topology.n, r.spec.seed) for r in results] == [
            (8, 0), (8, 1), (10, 0), (10, 1),
        ]
        assert all(r.latency_ms is not None for r in results)
        assert all(r.total_bytes > 0 for r in results)

    def test_paired_variations_report_byte_savings(self):
        reference = paper_cell(
            10, 5, 2, payload_size=1024, modifications=ModificationSet.bdopt_with_mbd1()
        )
        variations = paired_variations(
            reference,
            ModificationSet.single_mbd(7),
            grid=[(10, 5, 2)],
            runs=2,
        )
        assert len(variations) == 1
        assert variations[0].bytes_variation_percent < 5.0  # MBD.7 should not cost bytes


def test_paired_variations_drop_a_seed_missing_either_latency(monkeypatch):
    latencies = {
        (0, "ref"): 100.0, (1, "ref"): None, (2, "ref"): 300.0,
        (0, "cand"): 50.0, (1, "cand"): 80.0, (2, "cand"): None,
    }

    def fake_sweep(cells, workers):
        reference_mods = cells[0].modifications
        results = []
        for cell in cells:
            role = "ref" if cell.modifications == reference_mods else "cand"
            results.append(
                SimpleNamespace(
                    latency_ms=latencies[(cell.seed, role)],
                    total_bytes=1000 if role == "ref" else 500,
                )
            )
        return results

    monkeypatch.setattr(benchmarks.common, "run_sweep", fake_sweep)
    (variation,) = paired_variations(
        paper_cell(10, 5, 2),
        ModificationSet.bdopt_with_mbd1(),
        grid=[(10, 5, 2)],
        runs=3,
    )
    # Only seed 0 has both latencies: 50 ms against 100 ms.
    assert variation.latency_variation_percent == pytest.approx(-50.0)
    # Bytes average over every seed.
    assert variation.bytes_variation_percent == pytest.approx(-50.0)
