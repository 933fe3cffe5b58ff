"""Sweep executors, result cache and protocol configurations.

Scenarios themselves run in :mod:`repro.scenarios.engine`; this package
fans many :class:`~repro.scenarios.ScenarioSpec` cells out over it:

* :class:`~repro.runner.parallel.SweepExecutor` / :func:`run_sweep` —
  serial or process-pool execution, results in cell order;
* :class:`~repro.runner.distributed.DistributedSweepExecutor` — the same
  over TCP-connected worker processes;
* :class:`~repro.runner.cache.ResultCache` — per-cell results keyed by
  scenario hash;
* :mod:`repro.runner.configs` — the paper's named protocol
  configurations and the protocol-family builders.
"""

from repro.runner.cache import CACHE_VERSION, ResultCache, partition_cached
from repro.runner.configs import (
    PROTOCOL_CONFIGURATIONS,
    modification_set_for,
    protocol_factory,
    protocol_family,
)
from repro.runner.distributed import (
    DistributedSweepExecutor,
    launch_local_workers,
    run_distributed_sweep,
    run_worker,
    worker_main,
)
from repro.runner.parallel import StreamedResult, SweepExecutor, run_sweep

__all__ = [
    "SweepExecutor",
    "StreamedResult",
    "run_sweep",
    "DistributedSweepExecutor",
    "run_distributed_sweep",
    "run_worker",
    "launch_local_workers",
    "worker_main",
    "ResultCache",
    "partition_cached",
    "CACHE_VERSION",
    "PROTOCOL_CONFIGURATIONS",
    "modification_set_for",
    "protocol_factory",
    "protocol_family",
]
