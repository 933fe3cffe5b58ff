"""Shared infrastructure of the benchmark harness.

Every benchmark module reproduces one table or figure of the paper's
evaluation: it builds the Sec. 7.1 measurement cells with
:func:`paper_cell`, runs them through the sweep executor, prints the same
rows or series the paper reports, and writes a JSON record to
``benchmarks/results/``.

Two scales are supported, selected with the ``REPRO_SCALE`` environment
variable:

* ``default`` — a scaled-down grid (N ≤ 20) that runs the full benchmark
  suite in a few minutes on a laptop;
* ``paper`` — the paper's parameters (N up to 50, f up to 10), which takes
  much longer because the unoptimized baseline exchanges tens of
  thousands of messages per broadcast.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.modifications import ModificationSet
from repro.metrics.report import relative_variation_percent
from repro.runner.parallel import run_sweep
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, seed_cells

RESULTS_DIR = Path(__file__).parent / "results"

#: Marker used by every benchmark when printing reproduced rows.
ROW_PREFIX = "[repro]"


@dataclass(frozen=True)
class Scale:
    """Benchmark scale parameters."""

    name: str
    #: (n, k, f) grid for the per-modification studies (Table 1, Figs 7-10).
    modification_grid: Tuple[Tuple[int, int, int], ...]
    #: Parameters of the Fig. 4 study (selected modifications vs k).
    fig4_n: int
    fig4_f: int
    fig4_ks: Tuple[int, ...]
    #: Parameters of the Fig. 5 study (composite configurations vs k).
    fig5_n: int
    fig5_f: int
    fig5_ks: Tuple[int, ...]
    #: N values of the Fig. 6 scaling study.
    fig6_ns: Tuple[int, ...]
    #: N values of the Sec. 7.3 CPU/memory study.
    sec73_ns: Tuple[int, ...]
    #: Number of seeds per experiment point.
    runs: int


DEFAULT_SCALE = Scale(
    name="default",
    modification_grid=((16, 7, 2), (16, 11, 2)),
    fig4_n=20,
    fig4_f=3,
    fig4_ks=(8, 12, 16, 19),
    fig5_n=20,
    fig5_f=3,
    fig5_ks=(8, 12, 16, 19),
    fig6_ns=(15, 20),
    sec73_ns=(10, 15, 20),
    runs=2,
)

PAPER_SCALE = Scale(
    name="paper",
    modification_grid=((30, 11, 4), (30, 20, 4), (50, 21, 9)),
    fig4_n=50,
    fig4_f=9,
    fig4_ks=(20, 25, 30, 35, 40, 45, 49),
    fig5_n=50,
    fig5_f=10,
    fig5_ks=(21, 25, 30, 35, 40, 45, 49),
    fig6_ns=(30, 50),
    sec73_ns=(10, 30, 50),
    runs=5,
)


def current_scale() -> Scale:
    """The scale selected by the ``REPRO_SCALE`` environment variable."""
    if os.environ.get("REPRO_SCALE", "default").lower() == "paper":
        return PAPER_SCALE
    return DEFAULT_SCALE


def sweep_workers(default: int = 2) -> int:
    """Worker count for the parallel sweep executor.

    Controlled by the ``REPRO_WORKERS`` environment variable; the default
    keeps the benchmarks exercising the multiprocessing path (``workers >
    1``) even on small machines.
    """
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", default)))
    except ValueError:
        return default


def mean_or_none(values) -> float:
    """Mean of the non-``None`` values, or ``None`` when there are none."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


#: The paper's synchronous (fixed 50 ms) and asynchronous (Normal(50, 50) ms)
#: link-delay settings.
SYNC_DELAY = DelaySpec(kind="fixed", mean_ms=50.0)
ASYNC_DELAY = DelaySpec(kind="normal", mean_ms=50.0, std_ms=50.0)


def paper_cell(
    n: int,
    k: int,
    f: int,
    *,
    payload_size: int = 16,
    modifications: ModificationSet = ModificationSet.dolev_optimized(),
    seed: int = 0,
    protocol: str = "cross_layer",
    delay: DelaySpec = SYNC_DELAY,
    name: str = "paper-cell",
) -> ScenarioSpec:
    """One Sec. 7.1 measurement cell: a single broadcast from process 0.

    The topology is a random ``k``-regular graph regenerated until it is
    ``min(k, 2f+1)``-connected, except for ``bracha``, which needs a
    complete graph.  Links share the 1 Gb/s medium of the paper's
    single-host ``netem`` testbed.
    """
    if protocol == "bracha":
        topology = TopologySpec(kind="complete", n=n)
    else:
        topology = TopologySpec(
            kind="random_regular", n=n, k=k, min_connectivity=min(k, 2 * f + 1)
        )
    return ScenarioSpec(
        name=name,
        topology=topology,
        delay=delay,
        protocol=protocol,
        modifications=modifications,
        f=f,
        payload_size=payload_size,
        seed=seed,
        shared_bandwidth_bps=1e9,
    )


def connectivity_series(
    configurations: Dict[str, ModificationSet],
    n: int,
    f: int,
    ks: Sequence[int],
    *,
    seed: int,
    runs: int,
) -> Dict[str, List[Dict]]:
    """Mean latency (ms) and network consumption (kB) per configuration and k.

    The 1 KiB-payload connectivity study of Figs. 4 and 5: ``runs`` seeds
    per point, every cell of the figure in one :func:`run_sweep`.
    """
    layout = [(name, k) for name in configurations for k in ks]
    cells = [
        cell
        for name, k in layout
        for cell in seed_cells(
            paper_cell(
                n, k, f, payload_size=1024, modifications=configurations[name], seed=seed
            ),
            runs,
        )
    ]
    results = run_sweep(cells, workers=sweep_workers())
    series: Dict[str, List[Dict]] = {name: [] for name in configurations}
    for index, (name, k) in enumerate(layout):
        point = results[index * runs : (index + 1) * runs]
        series[name].append(
            {
                "k": k,
                "latency_ms": mean_or_none([r.latency_ms for r in point]),
                "kilobytes": mean_or_none([r.total_bytes / 1000.0 for r in point]),
            }
        )
    return series


@dataclass(frozen=True)
class PairedVariation:
    """Relative variation of a candidate vs. a reference on one grid point."""

    n: int
    k: int
    f: int
    latency_variation_percent: Optional[float]
    bytes_variation_percent: float


def paired_variations(
    reference: ScenarioSpec,
    candidate_mods: ModificationSet,
    *,
    grid: Iterable[Tuple[int, int, int]],
    runs: int,
) -> List[PairedVariation]:
    """Compare ``candidate_mods`` against ``reference`` on every ``(n, k, f)``.

    Reference and candidate run on the same topologies and seeds (``runs``
    consecutive seeds from ``reference.seed``); every cell of the grid goes
    through one :func:`run_sweep`.  The variation of the mean bytes and of
    the mean latency is reported per grid point, as Table 1 and Figs. 7–10
    summarize.  A seed whose reference or candidate latency is ``None``
    (some correct process did not deliver) drops out of both latency means.
    """
    grid = list(grid)
    cells: List[ScenarioSpec] = []
    for n, k, f in grid:
        spec = paper_cell(
            n,
            k,
            f,
            payload_size=reference.payload_size,
            modifications=reference.modifications,
            seed=reference.seed,
            protocol=reference.protocol,
            delay=reference.delay,
            name=reference.name,
        )
        cells.extend(seed_cells(spec, runs))
        cells.extend(seed_cells(replace(spec, modifications=candidate_mods), runs))
    results = run_sweep(cells, workers=sweep_workers())

    variations: List[PairedVariation] = []
    for index, (n, k, f) in enumerate(grid):
        start = 2 * runs * index
        ref_results = results[start : start + runs]
        cand_results = results[start + runs : start + 2 * runs]
        ref_lat: List[float] = []
        cand_lat: List[float] = []
        for ref, cand in zip(ref_results, cand_results):
            if ref.latency_ms is not None and cand.latency_ms is not None:
                ref_lat.append(ref.latency_ms)
                cand_lat.append(cand.latency_ms)
        latency_variation = None
        if ref_lat:
            latency_variation = relative_variation_percent(
                sum(cand_lat) / len(cand_lat), sum(ref_lat) / len(ref_lat)
            )
        mean_ref_bytes = sum(r.total_bytes for r in ref_results) / runs
        mean_cand_bytes = sum(r.total_bytes for r in cand_results) / runs
        variations.append(
            PairedVariation(
                n=n,
                k=k,
                f=f,
                latency_variation_percent=latency_variation,
                bytes_variation_percent=relative_variation_percent(
                    mean_cand_bytes, mean_ref_bytes
                ),
            )
        )
    return variations


def emit(line: str) -> None:
    """Print a reproduced table/figure row (always visible under pytest -s)."""
    print(f"{ROW_PREFIX} {line}", file=sys.stderr)


def emit_header(title: str) -> None:
    """Print a section header for one table or figure."""
    emit("")
    emit("=" * 72)
    emit(title)
    emit("=" * 72)


def save_record(name: str, record: Dict) -> Path:
    """Persist a benchmark record under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
    return path


def format_latency(value: Optional[float], width: int) -> str:
    """A latency rounded to the ms and right-aligned, or ``n/a`` for ``None``."""
    if value is None:
        return f"{'n/a':>{width}}"
    return f"{value:>{width}.0f}"


def format_range(values: Sequence[float]) -> str:
    """Render a ``[min, max]`` interval like Table 1."""
    if not values:
        return "[n/a]"
    return f"[{min(values):+.1f}, {max(values):+.1f}]"


def k_grid_for(n: int, f: int, ks: Sequence[int]) -> List[int]:
    """Filter a connectivity grid to feasible values (2f+1 ≤ k < n, n*k even)."""
    feasible = []
    for k in ks:
        if k >= n or k < 2 * f + 1:
            continue
        if (n * k) % 2 != 0:
            k = k - 1 if k - 1 >= 2 * f + 1 else k + 1
            if k >= n or (n * k) % 2 != 0:
                continue
        if k not in feasible:
            feasible.append(k)
    return feasible
