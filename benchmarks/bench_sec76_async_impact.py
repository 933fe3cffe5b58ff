"""Sec. 7.6 — impact of the modifications on asynchronous networks.

The paper re-runs the per-modification study with 50 ± 50 ms normally
distributed delays and observes that the modifications keep working but
with a slightly smaller impact and a larger spread than in the
synchronous setting (e.g. MBD.11's network-consumption reduction drops
from about -24% to -18%).
"""


from repro.core.modifications import ModificationSet
from repro.metrics.report import median

from benchmarks.common import (
    ASYNC_DELAY,
    SYNC_DELAY,
    current_scale,
    emit,
    emit_header,
    format_range,
    paired_variations,
    paper_cell,
    save_record,
)

SCALE = current_scale()
STUDIED = (7, 8, 9, 11)  # the most impactful modifications for bandwidth


def _variations(index: int, synchronous: bool):
    reference = paper_cell(
        *SCALE.modification_grid[0],
        payload_size=1024,
        delay=SYNC_DELAY if synchronous else ASYNC_DELAY,
        modifications=ModificationSet.bdopt_with_mbd1(),
        seed=61,
    )
    return paired_variations(
        reference,
        ModificationSet.single_mbd(index),
        grid=SCALE.modification_grid,
        runs=SCALE.runs,
    )


def test_sec76_synchronous_vs_asynchronous_impact(benchmark):
    def study():
        table = {}
        for index in STUDIED:
            table[index] = {
                "sync": [v.bytes_variation_percent for v in _variations(index, True)],
                "async": [v.bytes_variation_percent for v in _variations(index, False)],
            }
        return table

    table = benchmark.pedantic(study, rounds=1, iterations=1)

    emit_header(f"Sec. 7.6 — network-consumption impact, sync vs async (scale={SCALE.name})")
    emit(f"{'MBD':>4} | {'synchronous':>20} | {'asynchronous':>20}")
    for index, data in table.items():
        emit(
            f"{index:>4} | {format_range(data['sync']):>20} | {format_range(data['async']):>20}"
        )
    save_record("sec76_async_impact", {"scale": SCALE.name, "table": table})

    # Shape check: the studied modifications keep reducing network
    # consumption (median ≤ ~0) in the asynchronous setting as well.
    for index in STUDIED:
        assert median(table[index]["async"]) < 5.0
