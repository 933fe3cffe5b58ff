"""Fuzz farm and CLI tests.

The real protocol keeps the oracle green, so the pivotal tests inject an
instrumented result checker that forges a delivery (the exact craft of
``tests/oracles/test_oracle_unit.py``) into the results of a predicate-
matched subset of cells — the farm must *find* such a cell inside its
budget, *shrink* it to strictly fewer fault events on a topology no
larger, and do both *identically* across two same-seed runs.
"""

import contextlib
import dataclasses
import json

import pytest

from repro.scenarios.oracle import check_result
from repro.scenarios.reduce import fault_event_count
from repro.fuzz.cli import main
from repro.fuzz.corpus import Corpus
from repro.fuzz.farm import FuzzFarm, FuzzReport
from repro.fuzz.sample import stream_fuzz_specs

#: Cell budget inside which seed-0 streams contain lossy cells (the
#: first sampler round already does).
BUDGET = 8


class SimulationMemo:
    """``run_scenario`` that runs each simulation-backend spec once.

    Every farm here streams from seed 0, whose first cell alone sends
    about 1.6 M messages; re-simulating it in each test made this module
    take about 15 minutes.  The simulation backend is deterministic (two
    runs of one spec compare equal), so the memo hands back exactly what
    a re-run would return.  It sits below the farm's own
    :class:`~repro.runner.cache.ResultCache`, so cache hits, cell counts,
    find/shrink and corpus contents are unchanged.  Other backends still
    run every time, and so does every spec inside :meth:`fresh`.
    """

    def __init__(self, results, real_run):
        self._results = results
        self._real_run = real_run
        self._bypass = False

    def run(self, spec):
        if self._bypass or spec.backend != "simulation":
            return self._real_run(spec)
        result = self._results.get(spec)
        if result is None:
            result = self._results[spec] = self._real_run(spec)
        return result

    @contextlib.contextmanager
    def fresh(self):
        """Re-simulate every spec inside the block, bypassing the memo.

        Tests that compare two farm runs run the second one fresh, so a
        run-to-run divergence inside one process (state leaking between
        runs, identity-dependent ordering) still fails them.
        """
        self._bypass = True
        try:
            yield
        finally:
            self._bypass = False


@pytest.fixture(scope="module")
def simulated_results():
    """Simulation results shared by this module's tests, keyed by spec."""
    results = {}
    yield results
    results.clear()


@pytest.fixture(autouse=True)
def simulation_memo(monkeypatch, simulated_results):
    """Route every ``run_scenario`` the farm reaches through the memo."""
    from repro.fuzz import corpus, farm, shrink
    from repro.runner import parallel

    memo = SimulationMemo(simulated_results, parallel.run_scenario)
    for module in (parallel, farm, shrink, corpus):
        monkeypatch.setattr(module, "run_scenario", memo.run)
    return memo


def forge_delivery_when_lossy(result):
    """The forged-delivery craft from the oracle unit tests, keyed on a
    spec predicate so fuzzed streams contain both red and green cells."""
    if result.spec.is_lossy:
        metrics = result.metrics
        forged_key = (1, (1, 99))  # process 1 "delivered" (source=1, bid=99)
        patched = dataclasses.replace(
            metrics,
            delivery_times={**metrics.delivery_times, forged_key: 1.0},
            delivered_payloads={**metrics.delivered_payloads, forged_key: b"x"},
        )
        result = dataclasses.replace(result, metrics=patched)
    return check_result(result)


class TestStream:
    def test_stream_is_seed_deterministic(self):
        def take(count, **kwargs):
            stream = stream_fuzz_specs(**kwargs)
            return [next(stream) for _ in range(count)]

        assert take(40, seed=4) == take(40, seed=4)
        assert take(40, seed=4) != take(40, seed=5)

    def test_stream_crosses_batch_boundaries(self):
        stream = stream_fuzz_specs(seed=0, batch_size=5)
        specs = [next(stream) for _ in range(12)]
        assert len({spec.scenario_hash() for spec in specs}) == 12
        assert {spec.name.split("-r")[-1].split("-")[0] for spec in specs} >= {
            "0",
            "1",
            "2",
        }

    def test_stream_decorates_workloads_and_spreads_backends(self):
        stream = stream_fuzz_specs(
            seed=1, backends=("simulation", "asyncio"), workload_fraction=0.5
        )
        specs = [next(stream) for _ in range(40)]
        assert any(spec.workload is not None for spec in specs)
        assert {spec.backend for spec in specs} == {"simulation", "asyncio"}

    def test_stream_rejects_empty_backends(self):
        with pytest.raises(ValueError, match="at least one backend"):
            next(stream_fuzz_specs(backends=()))

    def test_stream_restacks_rco_cells(self):
        stream = stream_fuzz_specs(seed=1, rco_fraction=0.5)
        specs = [next(stream) for _ in range(40)]
        rco = [spec for spec in specs if spec.protocol == "rco_cross_layer"]
        assert rco, "an rco_fraction of 0.5 must restack some cells"
        assert any(spec.protocol == "cross_layer" for spec in specs)
        # Some RCO cells carry a causally-chained workload, so the
        # cross-source pending-set machinery gets fuzzed too.
        assert any(
            broadcast.successor is not None
            for spec in rco
            if spec.workload is not None
            for broadcast in spec.workload.broadcasts
        )

    def test_zero_rco_fraction_leaves_the_protocol_alone(self):
        stream = stream_fuzz_specs(seed=1, rco_fraction=0.0)
        specs = [next(stream) for _ in range(40)]
        assert all(spec.protocol == "cross_layer" for spec in specs)


class TestFarm:
    def test_run_requires_a_budget(self, tmp_path):
        farm = FuzzFarm(tmp_path / "corpus")
        with pytest.raises(ValueError, match="needs a budget"):
            farm.run()

    def test_green_checker_yields_exit_zero(self, tmp_path):
        farm = FuzzFarm(tmp_path / "corpus", check=lambda result: (), seed=0)
        report = farm.run(max_cells=4)
        assert report.cells_run == 4
        assert report.violation_count == 0
        assert report.exit_code == 0
        assert report.manifest_hash == Corpus(tmp_path / "corpus").manifest_hash()

    def test_injected_violation_is_found_and_shrunk(self, tmp_path):
        """The acceptance criterion: find → shrink, within the budget."""
        farm = FuzzFarm(
            tmp_path / "corpus", check=forge_delivery_when_lossy, seed=0
        )
        report = farm.run(max_cells=BUDGET)
        hashes = report.new_records.get("oracle_violation", [])
        assert hashes, "the budgeted run must find an injected violation"
        assert report.exit_code == 2
        assert report.shrink_steps > 0
        corpus = Corpus(tmp_path / "corpus")
        records = [corpus.load(scenario_hash) for scenario_hash in hashes]
        # At least one offender carried fault machinery the shrinker
        # proved incidental (strictly fewer fault events in the minimum).
        assert any(
            fault_event_count(r.shrunk_spec) < fault_event_count(r.spec)
            for r in records
        )
        for record in records:
            assert record.violations
            assert "no_forgery" in {inv for inv, _ in record.violations}
            assert record.shrunk_spec is not None
            # Strictly fewer fault events, never a larger topology.
            assert fault_event_count(record.shrunk_spec) < fault_event_count(
                record.spec
            ) or fault_event_count(record.spec) == 0
            assert (
                record.shrunk_spec.topology.node_count
                <= record.spec.topology.node_count
            )
            # The minimal reproducer still trips the injected bug.
            assert record.shrunk_spec.is_lossy
            assert record.shrunk_violations
            assert record.regression_stub is not None
            assert "def test_regression_" in record.regression_stub

    def test_same_seed_runs_are_identical(self, tmp_path, simulation_memo):
        """Find + shrink are deterministic: two same-seed farms write
        byte-identical corpora (and therefore equal manifest hashes)."""

        def run(name):
            farm = FuzzFarm(
                tmp_path / name, check=forge_delivery_when_lossy, seed=0
            )
            return farm.run(max_cells=BUDGET)

        first = run("a")
        with simulation_memo.fresh():
            second = run("b")
        assert first.new_records == second.new_records
        assert first.manifest_hash == second.manifest_hash
        corpus_a, corpus_b = Corpus(tmp_path / "a"), Corpus(tmp_path / "b")
        assert corpus_a.hashes() == corpus_b.hashes()
        for scenario_hash in corpus_a.hashes():
            assert corpus_a.path_for(scenario_hash).read_text() == corpus_b.path_for(
                scenario_hash
            ).read_text()

    def test_rediscovery_is_deduplicated(self, tmp_path, simulation_memo):
        corpus_dir = tmp_path / "corpus"
        first = FuzzFarm(
            corpus_dir, check=forge_delivery_when_lossy, seed=0
        ).run(max_cells=BUDGET)
        assert first.new_records.get("oracle_violation")
        with simulation_memo.fresh():
            second = FuzzFarm(
                corpus_dir, check=forge_delivery_when_lossy, seed=0
            ).run(max_cells=BUDGET)
        assert second.new_records.get("oracle_violation", []) == []
        assert second.duplicate_violations == len(
            first.new_records["oracle_violation"]
        )
        assert second.exit_code == 2  # re-discovered violations still fail CI

    def test_cache_is_shared_between_runs(self, tmp_path):
        cache_dir = tmp_path / "cache"
        kwargs = dict(cache_dir=cache_dir, check=lambda result: (), seed=0)
        first = FuzzFarm(tmp_path / "a", **kwargs).run(max_cells=4)
        second = FuzzFarm(tmp_path / "b", **kwargs).run(max_cells=4)
        assert first.cache_hits == 0
        assert second.cache_hits == 4

    def test_near_f_bound_survivors_are_recorded(self, tmp_path):
        farm = FuzzFarm(tmp_path / "corpus", seed=0)
        report = farm.run(max_cells=24)
        hashes = report.new_records.get("near_f_bound", [])
        assert hashes, "seed-0 stream contains f-saturated safe cells"
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in hashes:
            record = corpus.load(scenario_hash)
            assert record.spec.f > 0
            assert record.stats["byzantine"] >= record.spec.f
        assert corpus.validate() == {}

    def test_batched_executor_path_matches_streaming(
        self, tmp_path, simulation_memo
    ):
        class BatchOnlyExecutor:
            """A ``run(cells)``-only executor (the distributed shape)."""

            def __init__(self):
                from repro.runner.parallel import SweepExecutor

                self._inner = SweepExecutor(workers=1)
                self.cache_hits = 0

            def run(self, cells):
                return self._inner.run(cells)

        streamed = FuzzFarm(
            tmp_path / "a", check=forge_delivery_when_lossy, seed=0
        ).run(max_cells=BUDGET)
        with simulation_memo.fresh():
            batched = FuzzFarm(
                tmp_path / "b",
                executor=BatchOnlyExecutor(),
                check=forge_delivery_when_lossy,
                seed=0,
                batch_size=3,
            ).run(max_cells=BUDGET)
        assert batched.cells_run == BUDGET
        assert batched.new_records == streamed.new_records
        assert batched.manifest_hash == streamed.manifest_hash

    def test_no_shrink_records_the_raw_offender(self, tmp_path):
        farm = FuzzFarm(
            tmp_path / "corpus",
            check=forge_delivery_when_lossy,
            seed=0,
            shrink=False,
        )
        report = farm.run(max_cells=BUDGET)
        assert report.exit_code == 2
        assert report.shrink_steps == 0
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in report.new_records["oracle_violation"]:
            record = corpus.load(scenario_hash)
            assert record.shrunk_spec is None
            assert record.regression_stub is None

    def test_report_summary_mentions_everything(self):
        report = FuzzReport(
            cells_run=3,
            cache_hits=1,
            elapsed_s=0.5,
            new_records={"oracle_violation": ["abc"]},
            duplicate_violations=2,
            shrink_steps=4,
            shrink_attempts=9,
            pruned_records=7,
            manifest_hash="deadbeef",
        )
        text = "\n".join(report.summary_lines())
        assert "cells run: 3" in text
        assert "new oracle_violation records: 1" in text
        assert "re-discovered known violations: 2" in text
        assert "4 accepted steps / 9 attempts" in text
        assert "pruned transient records: 7" in text
        assert "deadbeef" in text

    def test_transient_cap_bounds_the_corpus(self, tmp_path):
        capped = FuzzFarm(tmp_path / "capped", seed=0, transient_cap=1)
        report = capped.run(max_cells=24)
        assert report.pruned_records > 0
        categories = [
            record.category for record in Corpus(tmp_path / "capped").records()
        ]
        assert categories.count("near_f_bound") <= 1
        assert categories.count("latency_outlier") <= 1

        unbounded = FuzzFarm(tmp_path / "raw", seed=0, transient_cap=None)
        raw = unbounded.run(max_cells=24)
        assert raw.pruned_records == 0
        raw_count = len(Corpus(tmp_path / "raw").hashes())
        assert raw_count > len(Corpus(tmp_path / "capped").hashes())

    def test_rco_cells_keep_the_farm_green(self, tmp_path):
        farm = FuzzFarm(tmp_path / "corpus", seed=0, rco_fraction=1.0)
        report = farm.run(max_cells=8)
        assert report.cells_run == 8
        assert report.violation_count == 0
        assert report.exit_code == 0


class TestConformanceDivergence:
    @staticmethod
    def _forge(result):
        metrics = result.metrics
        forged_key = (1, (1, 99))
        patched = dataclasses.replace(
            metrics,
            delivery_times={**metrics.delivery_times, forged_key: 1.0},
            delivered_payloads={**metrics.delivered_payloads, forged_key: b"x"},
        )
        return dataclasses.replace(result, metrics=patched)

    def test_unreproducible_divergence_is_recorded_unshrunk(
        self, tmp_path, monkeypatch
    ):
        """The mirror run "diverges", but the conformance evaluator's
        honest baseline re-run is green: the farm must keep the raw
        offender instead of crashing on the failed shrink."""
        from repro.fuzz import farm as farm_module

        real_run = farm_module.run_scenario
        monkeypatch.setattr(
            farm_module, "run_scenario", lambda spec: self._forge(real_run(spec))
        )
        farm = FuzzFarm(
            tmp_path / "corpus",
            check=lambda result: (),
            seed=0,
            conformance_backends=("simulation", "asyncio"),
        )
        report = farm.run(max_cells=2)
        hashes = report.new_records.get("conformance_divergence", [])
        assert hashes, "every mirrored cell diverges under the forge"
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in hashes:
            record = corpus.load(scenario_hash)
            assert record.stats["diverging_backend"] == "asyncio"
            assert record.shrunk_spec is None
            assert record.shrunk_violations == ()

    def test_reproducible_divergence_is_shrunk(self, tmp_path, monkeypatch):
        """When the cross-backend evaluator reproduces the divergence,
        the recorded spec carries a minimized reproducer."""
        from repro.scenarios.oracle import OracleViolation
        from repro.fuzz import farm as farm_module

        real_run = farm_module.run_scenario
        monkeypatch.setattr(
            farm_module, "run_scenario", lambda spec: self._forge(real_run(spec))
        )

        def fake_evaluator(backends, *, mode="auto", overrides=None, run=None):
            assert mode == "safety"

            def evaluate(spec):
                return (
                    OracleViolation(invariant="conformance", detail="fake"),
                )

            return evaluate

        monkeypatch.setattr(farm_module, "conformance_evaluator", fake_evaluator)
        farm = FuzzFarm(
            tmp_path / "corpus",
            check=lambda result: (),
            seed=0,
            conformance_backends=("simulation", "asyncio"),
        )
        report = farm.run(max_cells=2)
        hashes = report.new_records.get("conformance_divergence", [])
        assert hashes
        assert report.shrink_attempts > 0
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in hashes:
            record = corpus.load(scenario_hash)
            assert record.shrunk_spec is not None
            assert ("conformance", "fake") in record.shrunk_violations


class TestCLI:
    def test_fuzz_run_then_corpus_tools(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        assert (
            main(["--corpus-dir", corpus_dir, "--max-cells", "6", "--seed", "0"])
            == 0
        )
        out = capsys.readouterr().out
        assert "cells run: 6" in out
        assert "corpus manifest hash: " in out

        assert main(["--corpus-dir", corpus_dir, "--validate-corpus"]) == 0
        out = capsys.readouterr().out
        assert "corpus OK" in out
        assert "manifest hash: " in out

        assert main(["--corpus-dir", corpus_dir, "--list"]) == 0

    def test_replay_roundtrip_and_missing_hash(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        main(["--corpus-dir", corpus_dir, "--max-cells", "24", "--seed", "0"])
        capsys.readouterr()
        corpus = Corpus(corpus_dir)
        hashes = corpus.hashes()
        assert hashes, "a 24-cell seed-0 run records interesting specs"
        assert main(["--corpus-dir", corpus_dir, "--replay", hashes[0]]) == 0
        assert "oracle green" in capsys.readouterr().out
        assert main(["--corpus-dir", corpus_dir, "--replay", "0" * 64]) == 1

    def test_validate_flags_a_corrupt_record(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / ("c" * 64 + ".json")).write_text(json.dumps({"schema": 99}))
        assert main(["--corpus-dir", str(corpus_dir), "--validate-corpus"]) == 1
        assert "corpus INVALID" in capsys.readouterr().out

    def test_usage_error_without_budget(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--corpus-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_transient_cap_zero_empties_the_transient_tiers(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        code = main(
            [
                "--corpus-dir",
                corpus_dir,
                "--max-cells",
                "24",
                "--seed",
                "0",
                "--transient-cap",
                "0",
                "--rco-fraction",
                "0.0",
            ]
        )
        assert code == 0
        assert "pruned transient records:" in capsys.readouterr().out
        assert Corpus(corpus_dir).hashes() == ()

    def test_negative_transient_cap_disables_pruning(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        code = main(
            [
                "--corpus-dir",
                corpus_dir,
                "--max-cells",
                "24",
                "--seed",
                "0",
                "--transient-cap",
                "-1",
            ]
        )
        assert code == 0
        assert "pruned transient records" not in capsys.readouterr().out
        assert Corpus(corpus_dir).hashes(), "unpruned transients stay recorded"
