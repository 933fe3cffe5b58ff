"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_lattice --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same work twice, untraced and then with every
layer's public entry points wrapped by :mod:`spans`, checks that both
produced the same counts, and prints the per-layer metrics, including
``trace_overhead`` (traced over untraced time).  The metric names and
units come from ``BENCHMARK.json``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics, on every workload.  Ratios over a workload's cells
are geometric means, so every cell weighs the same and one cell whose
traffic a seed multiplies (``alter_sender`` in byz_mix) cannot swing the
whole figure; a single-cell workload reads its cell's value.

* ``cells_per_s`` - scenario cells completed per wall second, serial, one
  process: one over the geometric mean of each cell's median wall time
  (build to frozen result).  On live_loopback the one cell is the whole
  open-loop run.
* ``msgs_per_bcast`` / ``bytes_per_bcast`` - sent per delivered broadcast.
* ``sim_lat_mean_ms`` / ``sim_lat_max_ms`` - simulated delivery latency,
  mean and maximum over the workload's broadcasts.  On live_loopback: of
  the live spec run on the simulator (fixed 50 ms links), the latency
  model's prediction for the live cell.
* ``wall_lat_p50_ms`` - median wall-clock latency: of a broadcast from
  its due time to delivery at every correct process (live_loopback); of
  a scenario cell from set-up to frozen result (simulation workloads).
* ``cpu_ms_per_bcast`` - process CPU time per delivered broadcast.
* ``ok_frac`` - share of attempted broadcasts that were delivered with
  every check green (``1 - fail_frac``; ``fail_frac`` itself is printed).
* ``setup_s`` - median of repeated cold set-ups: topology generation and
  network/protocol construction of every cell (simulation), cluster
  construction, start and connect (live).
* ``peak_rss_mb`` - peak resident memory of this process.

Every time among the end-to-end metrics (all but live_loopback's
``cells_per_s``, which its schedule fixes) is rescaled by
:mod:`hostspeed` to a host of fixed speed, from probes timed throughout
the run: on a shared machine the raw times drift twofold within
minutes.  The unscaled figures are printed above the JSON line.

Per-layer metrics (``--trace 1``) are totals over one traced pass of the
workload (the traced half of the live broadcasts): ``<layer>.self_s`` is
the layer's span time minus its child spans, ``<layer>.calls`` the
calls into it.  ``simulation`` is ``SimulatedNetwork.run`` and
``broadcast_at`` less the protocol, adversary and delay spans inside.
``collector.*``, ``configs.*`` (paper_lattice only), ``simulation.events``
and the other counts are the program's own and must equal the untraced
pass.  ``trace_overhead`` is traced over untraced wall time (CPU time
per broadcast on live_loopback, whose wall time the schedule fixes).
Layers a workload never calls read 0.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
still says what was measured), 2 on a usage error or when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric_suffix(type_name: str) -> str:
    """``DOLEV[ECHO]`` -> ``DOLEV_ECHO`` (metric names allow no brackets)."""
    return re.sub(r"[^A-Za-z0-9]+", "_", type_name).strip("_")


class Report:
    """Values, attempts, failures and check problems of one run."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []


# ----------------------------------------------------------------------
# Per-layer metrics shared by both kinds of workload
# ----------------------------------------------------------------------
def _collector_metrics(results, declared: List[str]) -> Dict[str, float]:
    """``collector.msgs.<type>`` / ``collector.bytes.<type>`` summed over results."""
    values = {name: 0.0 for name in declared if name.startswith("collector.")}
    for result in results:
        for kind, table in (
            ("msgs", result.metrics.messages_by_type),
            ("bytes", result.metrics.bytes_by_type),
        ):
            for type_name, count in table.items():
                name = f"collector.{kind}.{_metric_suffix(type_name)}"
                if name not in values:
                    name = f"collector.{kind}.other"
                values[name] += count
    return values


def _span_metrics(tracer) -> Dict[str, float]:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    return {
        "topology.build_s": self_s["topology"],
        "engine.build_protocols_s": self_s["engine.build_protocols"],
        "engine.freeze_s": self_s["engine.freeze"],
        "simulation.self_s": self_s["simulation"],
        "delays.self_s": self_s["delays"],
        "delays.calls": calls["delays"],
        "optimized.self_s": self_s["optimized"],
        "optimized.calls": calls["optimized"],
        "optimized.cmds_per_msg": counts["optimized.commands"] / max(calls["optimized"], 1),
        "bracha_dolev.self_s": self_s["bracha_dolev"],
        "bracha_dolev.calls": calls["bracha_dolev"],
        "disjoint.self_s": self_s["disjoint"],
        "disjoint.calls": calls["disjoint"],
        "disjoint.stored_ratio": counts["disjoint.stored"] / max(calls["disjoint"], 1),
        "disjoint.satisfied": counts["disjoint.satisfied"],
        "adversary.self_s": self_s["adversary"],
        "adversary.calls": calls["adversary"],
        "encoding.encode_s": self_s["encoding.encode"],
        "encoding.decode_s": self_s["encoding.decode"],
        "encoding.calls": calls["encoding.encode"] + calls["encoding.decode"],
        "asyncio_runtime.on_message_s": self_s["asyncio_runtime.on_message"],
    }


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def _sim_checks(name: str, first, report: Report) -> None:
    if name == "paper_lattice":
        from workloads import LAYERED_REFERENCE

        by_name = {run.spec.name: run.result for run in first}
        cross, layered = by_name.get("bdopt"), by_name.get(LAYERED_REFERENCE)
        pair = [
            None if r is None else (r.message_count, r.total_bytes)
            for r in (cross, layered)
        ]
        print(f"check: cross_layer bdopt vs layered bracha_dolev msgs/bytes {pair}")
        if pair[0] is None or pair[0] != pair[1]:
            report.problems.append(
                f"differential: cross_layer bdopt {pair[0]} != layered "
                f"bracha_dolev {pair[1]}"
            )


def _sim_end_to_end(name: str, cells, seconds: float, report: Report) -> None:
    import simulate
    from hostspeed import HostSpeed

    with HostSpeed() as host:
        measured = simulate.measure(
            cells, seconds, reference=True, setups=simulate.SETUP_REPEATS
        )
    first = measured.first
    runs = measured.all_runs()
    report.problems.extend(measured.problems)
    report.attempted = sum(run.broadcasts for run in runs)
    report.failed = sum(run.failed for run in runs)
    _sim_checks(name, first, report)

    results = [run.result for run in first if run.result is not None]
    latencies = [lat for r in results for lat in r.broadcast_latencies if lat is not None]
    wall = measured.per_cell(lambda run: host.rescale(run.wall_s, *run.span))
    cpu = measured.per_cell(lambda run: host.rescale(run.cpu_s, *run.span))
    delivering = [
        (run.result, cpu_s)
        for run, cpu_s in zip(first, cpu)
        if run.result is not None and run.result.delivered_broadcast_count
    ]

    def per_bcast(value) -> float:
        """Geometric mean over the delivering cells of ``value`` per delivery."""
        if not delivering:
            return 0.0
        return statistics.geometric_mean(
            value(r, cpu_s) / r.delivered_broadcast_count for r, cpu_s in delivering
        )

    raw_wall = measured.per_cell(lambda run: run.wall_s)
    print(
        f"runs: {len(runs)} cell runs, {len(runs) / len(cells):.2f} passes, "
        f"{sum(r.message_count for r in results)} msgs per pass"
    )
    print(host.summary())
    print(f"unscaled: cells_per_s {1.0 / statistics.geometric_mean(raw_wall):.6g}")
    report.values.update(
        {
            "cells_per_s": 1.0 / statistics.geometric_mean(wall),
            "msgs_per_bcast": per_bcast(lambda r, _: r.message_count),
            "bytes_per_bcast": per_bcast(lambda r, _: r.total_bytes),
            "sim_lat_mean_ms": statistics.fmean(latencies) if latencies else 0.0,
            "sim_lat_max_ms": max(latencies, default=0.0),
            "wall_lat_p50_ms": 1000.0 * statistics.median(wall),
            "cpu_ms_per_bcast": per_bcast(lambda _, cpu_s: 1000.0 * cpu_s),
            "setup_s": statistics.median(
                host.rescale(end - start, start, end) for start, end in measured.setups
            ),
        }
    )


def _sim_traced(name: str, cells, declared: List[str], report: Report) -> None:
    import simulate
    from spans import Tracer, instrument

    untraced = simulate.measure(cells, 0.0, reference=False)
    simulate.clear_topology_cache()
    tracer = Tracer()
    instrument(tracer)
    try:
        traced = simulate.measure(cells, 0.0, reference=False)
    finally:
        tracer.restore()
    runs = untraced.first + traced.first
    report.problems.extend(untraced.problems + traced.problems)
    report.attempted = sum(run.broadcasts for run in runs)
    report.failed = sum(run.failed for run in runs)
    for plain, wrapped in zip(untraced.first, traced.first):
        if plain.counts != wrapped.counts:
            report.problems.append(
                f"{plain.spec.name}: traced counts {wrapped.counts} != untraced "
                f"{plain.counts}"
            )
    print(
        "check: traced msgs/bytes/events/drops equal untraced on "
        f"{sum(p.counts == w.counts for p, w in zip(untraced.first, traced.first))}"
        f"/{len(cells)} cells"
    )
    _sim_checks(name, traced.first, report)

    results = [run.result for run in traced.first if run.result is not None]
    total_msgs = max(sum(r.message_count for r in results), 1)
    byzantine_msgs = sum(
        r.metrics.messages_by_process.get(pid, 0) for r in results for pid, _ in r.byzantine
    )
    values = _span_metrics(tracer)
    values.update(_collector_metrics(results, declared))
    values.update(
        {
            "simulation.events": sum(run.events for run in traced.first),
            "simulation.dropped": sum(r.dropped_messages for r in results),
            "optimized.state_peak": max(
                (r.metrics.peak_state_size for r in results), default=0
            ),
            "adversary.msgs_share": byzantine_msgs / total_msgs,
            "trace_overhead": sum(run.wall_s for run in traced.first)
            / sum(run.wall_s for run in untraced.first),
            # No live cluster runs on a simulation workload.
            "asyncio_runtime.cpu_util": 0.0,
            "asyncio_runtime.lat_p95_ms": 0.0,
            "asyncio_runtime.gen_lag_p95_ms": 0.0,
        }
    )
    if name == "paper_lattice":
        for run in traced.first:
            if run.result is not None:
                prefix = f"configs.{run.spec.name}"
                values[f"{prefix}.msgs"] = run.result.message_count
                values[f"{prefix}.bytes"] = run.result.total_bytes
                values[f"{prefix}.lat_ms"] = run.result.latency_ms or 0.0
    report.values.update(values)


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
def _live_run(spec, setups: int, report: Report):
    import live

    report.attempted += len(spec.broadcasts())
    try:
        run = live.run_live(spec, setups=setups)
    except Exception:  # a failed live run is reported, not raised
        report.failed += len(spec.broadcasts())
        report.problems.append(f"live run failed: {traceback.format_exc(limit=3)}")
        return None
    report.problems.extend(run.problems)
    if run.problems:
        report.failed += len(spec.broadcasts())
    else:
        report.failed += len(spec.broadcasts()) - run.result.delivered_broadcast_count
    return run


def _live_latencies(run) -> List[float]:
    return [lat for lat in run.result.broadcast_latencies if lat is not None] or [0.0]


def _live_end_to_end(spec, report: Report) -> None:
    import simulate
    from hostspeed import HostSpeed
    from repro.scenarios import engine, oracle

    with HostSpeed() as host:
        run = _live_run(spec, simulate.SETUP_REPEATS, report)
    # Read before the simulated twin runs, so it is the live run's peak.
    report.values["peak_rss_mb"] = _peak_rss_mb()
    twin = engine.simulate_scenario(spec.with_backend("simulation"))
    report.problems.extend(
        f"simulated twin: {v.invariant}: {v.detail}" for v in oracle.check_result(twin)
    )
    twin_lat = [lat for lat in twin.broadcast_latencies if lat is not None] or [0.0]
    if run is None:
        return
    delivered = max(run.result.delivered_broadcast_count, 1)
    latencies = []
    for outcome in run.result.outcomes:
        if outcome.latency_ms is not None:
            due = run.epoch + outcome.start_time_ms / 1000.0
            took = outcome.latency_ms / 1000.0
            latencies.append(1000.0 * host.rescale(took, due, due + took))
    print(
        f"runs: 1 live cell, {len(run.result.outcomes)} broadcasts over "
        f"{run.wall_s:.2f} s, generator lag p95 "
        f"{_percentile(list(run.lag_ms.values()), 0.95):.3f} ms, "
        f"{len(run.setups)} cluster set-ups"
    )
    print(host.summary())
    print(
        f"unscaled: wall_lat_p50_ms {statistics.median(_live_latencies(run)):.6g} "
        f"cpu_ms_per_bcast {1000.0 * run.cpu_s / delivered:.6g}"
    )
    report.values.update(
        {
            "cells_per_s": 1.0 / run.wall_s,
            "msgs_per_bcast": run.result.message_count / delivered,
            "bytes_per_bcast": run.result.total_bytes / delivered,
            "sim_lat_mean_ms": statistics.fmean(twin_lat),
            "sim_lat_max_ms": max(twin_lat),
            "wall_lat_p50_ms": statistics.median(latencies or [0.0]),
            "cpu_ms_per_bcast": 1000.0 * host.rescale(run.cpu_s, *run.cpu_span) / delivered,
            "setup_s": statistics.median(
                host.rescale(end - start, start, end) for start, end in run.setups
            ),
        }
    )


def _live_traced(spec, declared: List[str], report: Report) -> None:
    import simulate
    from spans import Tracer, instrument

    untraced = _live_run(spec, 1, report)
    simulate.clear_topology_cache()
    tracer = Tracer()
    called: Dict[Tuple[int, int], float] = {}

    def on_broadcast(args) -> None:
        # AsyncioCluster.broadcast(self, source, payload, bid)
        called[(args[1], args[3])] = asyncio.get_running_loop().time()

    instrument(tracer, on_broadcast)
    try:
        traced = _live_run(spec, 1, report)
    finally:
        tracer.restore()
    if untraced is None or traced is None:
        return
    due_ms = {b.key: b.start_time_ms for b in spec.broadcasts()}
    gen_lag = [
        (at - traced.epoch) * 1000.0 - due_ms[key] for key, at in called.items()
    ]
    delivered = max(traced.result.delivered_broadcast_count, 1)
    values = _span_metrics(tracer)
    values.update(_collector_metrics([traced.result], declared))
    values.update(
        {
            "optimized.state_peak": traced.state_peak,
            # No simulator and no adversary run on the live workload.
            "simulation.events": 0,
            "simulation.dropped": 0,
            "adversary.msgs_share": 0.0,
            "asyncio_runtime.cpu_util": untraced.cpu_s / untraced.wall_s,
            "asyncio_runtime.lat_p95_ms": _percentile(_live_latencies(untraced), 0.95),
            "asyncio_runtime.gen_lag_p95_ms": _percentile(gen_lag or [0.0], 0.95),
            "trace_overhead": (traced.cpu_s / delivered)
            / (untraced.cpu_s / max(untraced.result.delivered_broadcast_count, 1)),
        }
    )
    report.values.update(values)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{workloads.WORKLOAD_NAMES}",
            file=sys.stderr,
        )
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in config[section]}

    report = Report()
    if args.workload == "live_loopback":
        # The offered load fills --seconds; a traced run splits it in two.
        share = 2 if args.trace else 1
        count = int(workloads.LIVE_RATE_PER_S * args.seconds / share)
        spec = workloads.live_loopback(args.seed, count)
        cells = [spec]
    else:
        cells = workloads.SIMULATION_WORKLOADS[args.workload](args.seed)
    n_cells, n_broadcasts, digest = workloads.provenance(cells)
    print(
        f"workload: {args.workload} seed={args.seed} cells={n_cells} "
        f"broadcasts={n_broadcasts} digest={digest} trace={args.trace}"
    )

    if args.workload == "live_loopback":
        if args.trace:
            _live_traced(spec, list(declared), report)
        else:
            _live_end_to_end(spec, report)
    elif args.trace:
        _sim_traced(args.workload, cells, list(declared), report)
    else:
        _sim_end_to_end(args.workload, cells, args.seconds, report)
    if not args.trace:
        report.values.setdefault("peak_rss_mb", _peak_rss_mb())
        report.values["ok_frac"] = 1.0 - report.failed / max(report.attempted, 1)
    print(f"fail_frac: {report.failed / max(report.attempted, 1):.6f} "
          f"({report.failed} of {report.attempted} broadcasts)")

    metrics = {}
    for name, unit in declared.items():
        if name not in report.values and not name.startswith(("configs.", "collector.")):
            report.problems.append(f"metric {name} was not measured")
        value = float(report.values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    for problem in report.problems:
        print(f"problem: {problem}")
    correct = not report.problems and report.failed == 0 and report.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(report.attempted, 1),
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
