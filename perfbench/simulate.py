"""Running and timing simulation cells through the engine's public steps.

Each cell goes ``build_network`` -> ``arm_adaptive`` -> ``broadcast_at``
-> ``run`` -> ``freeze_result``, exactly like
:func:`repro.scenarios.engine.simulate_scenario`, but unrolled so that the
set-up time and the scheduler's event count can be read.  The functions
are looked up on the engine module at call time, so the tracer's
wrappers apply.  One cell per workload also goes through
``simulate_scenario`` itself, and the two results must be equal.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.scenarios import engine, oracle
from repro.scenarios import spec as spec_module
from repro.scenarios.spec import ScenarioSpec

#: Cold set-ups per run; ``setup_s`` is their median.  The host's speed
#: drifts over seconds, so they are spread evenly over the run instead of
#: being taken back to back.
SETUP_REPEATS = 9


@dataclass
class CellRun:
    """One execution of one cell: its counts, times and verdict.

    ``result`` is kept for a cell's first run only; repeats keep what
    must repeat exactly (``counts``), so retained results do not grow the
    heap the later runs allocate in.
    """

    spec: ScenarioSpec
    result: Optional[engine.ScenarioResult] = None
    events: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``time.perf_counter()`` at the start and the end of the run.
    span: Tuple[float, float] = (0.0, 0.0)
    #: Failed broadcasts: all of them on an error or oracle violation.
    failed: int = 0
    #: What must repeat exactly: messages, bytes, events, drops.
    counts: tuple = ()
    problems: List[str] = field(default_factory=list)

    @property
    def broadcasts(self) -> int:
        return len(self.spec.broadcasts())


def run_steps(spec: ScenarioSpec):
    """``(result, executed events)`` of one cell, driven step by step."""
    network, byzantine = engine.build_network(spec)
    adaptive = engine.arm_adaptive(network, spec, byzantine)
    for broadcast in spec.broadcasts():
        network.broadcast_at(
            broadcast.source,
            spec.payload_for(broadcast),
            broadcast.bid,
            broadcast.start_time_ms,
        )
    metrics = network.run(max_events=spec.max_events)
    result = engine.freeze_result(
        spec,
        topology=network.topology,
        byzantine={**byzantine, **adaptive.converted},
        metrics=metrics,
        dropped_messages=network.dropped_messages,
        extra_crashed=tuple(sorted(adaptive.crashed)),
    )
    return result, network.scheduler.executed_events


def run_cell(spec: ScenarioSpec, *, through_engine: bool = False) -> CellRun:
    """Run, time and check one cell; an exception is recorded, not raised.

    ``through_engine`` runs the cell with ``simulate_scenario`` instead of
    the unrolled steps (same work; the event count is then unknown).
    """
    run = CellRun(spec)
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if through_engine:
            run.result = engine.simulate_scenario(spec)
        else:
            run.result, run.events = run_steps(spec)
    except Exception:  # one bad cell must not stop the workload
        run.problems.append(f"{spec.name}: {traceback.format_exc(limit=3)}")
    run.cpu_s = time.process_time() - cpu
    run.span = (wall, time.perf_counter())
    run.wall_s = run.span[1] - wall
    result = run.result
    if result is not None:
        run.problems.extend(
            f"{spec.name}: {violation.invariant}: {violation.detail}"
            for violation in oracle.check_result(result)
        )
        run.counts = (
            result.message_count,
            result.total_bytes,
            run.events,
            result.dropped_messages,
        )
    if result is None or run.problems:
        run.failed = run.broadcasts
    else:
        run.failed = run.broadcasts - result.delivered_broadcast_count
    return run


def clear_topology_cache() -> None:
    """Forget the graphs ``TopologySpec.build`` memoized in this process.

    Set-up measured after this pays what a fresh process pays.
    """
    memo = getattr(spec_module, "_build_topology", None)
    if hasattr(memo, "cache_clear"):
        memo.cache_clear()


def cold_setup(cells: List[ScenarioSpec]) -> Tuple[float, float]:
    """Build every cell's network with an empty topology cache.

    Returns ``time.perf_counter()`` before the first build and after the
    last.
    """
    clear_topology_cache()
    gc.collect()
    started = time.perf_counter()
    for spec in cells:
        engine.build_network(spec)
    return started, time.perf_counter()


@dataclass
class Measurement:
    """All cell runs of one workload measurement."""

    cells: List[ScenarioSpec]
    first: List[CellRun] = field(default_factory=list)
    runs: Dict[int, List[CellRun]] = field(default_factory=dict)
    #: ``(start, end)`` of each cold set-up (:func:`cold_setup`).
    setups: List[Tuple[float, float]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def all_runs(self) -> List[CellRun]:
        return [run for runs in self.runs.values() for run in runs]

    def per_cell(self, value: Callable[[CellRun], float]) -> List[float]:
        """Per cell, the median of ``value`` over its runs (in cell order)."""
        return [
            statistics.median(value(run) for run in self.runs[index])
            for index in range(len(self.cells))
        ]


def measure(
    cells: List[ScenarioSpec], seconds: float, *, reference: bool, setups: int = 0
) -> Measurement:
    """Cycle through ``cells`` for about ``seconds``, at least one full pass.

    With ``reference``, cell 0 first runs through ``simulate_scenario``
    (its time counts as one of cell 0's samples) and must equal the
    unrolled run.  A further cell starts only if its median so far still
    fits in the time left.  ``setups`` cold set-ups (:func:`cold_setup`)
    are taken between cells, evenly over ``seconds``.
    """
    out = Measurement(cells, runs={index: [] for index in range(len(cells))})
    started = time.perf_counter()

    def set_up_when_due() -> None:
        due = len(out.setups) * seconds / max(setups, 1)
        if len(out.setups) < setups and time.perf_counter() - started >= due:
            out.setups.append(cold_setup(cells))

    set_up_when_due()
    if reference:
        engine_run = run_cell(cells[0], through_engine=True)
        out.runs[0].append(engine_run)
    index = 0
    while True:
        cell = index % len(cells)
        run = run_cell(cells[cell])
        if index < len(cells):
            out.first.append(run)
        else:
            run.result = None
            if run.counts != out.first[cell].counts:
                run.problems.append(
                    f"{cells[cell].name}: counts {run.counts} differ from the "
                    f"first run's {out.first[cell].counts}"
                )
        if index == 0 and reference:
            if run.result is None or engine_run.result != run.result:
                out.problems.append(
                    f"{cells[0].name}: unrolled engine steps differ from "
                    "simulate_scenario"
                )
            engine_run.result = None
        out.runs[cell].append(run)
        index += 1
        next_s = statistics.median(r.wall_s for r in out.runs[index % len(cells)] or [run])
        if index >= len(cells) and time.perf_counter() - started + next_s > seconds:
            break
        set_up_when_due()
    while len(out.setups) < setups:
        out.setups.append(cold_setup(cells))
    for run in out.all_runs():
        out.problems.extend(run.problems)
    return out
