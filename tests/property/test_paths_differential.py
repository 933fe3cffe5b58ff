"""Differential tests: the bit-set verifier against its reference copy.

:mod:`paths_reference` holds the list-and-dict implementation verbatim.
Both are fed the same random path streams (ids 0-30, empty paths, small
combination caps so that truncation runs, MD.2 discards mid-stream) and
must agree after every call on the result and on every counter that
reaches ``RunMetrics``.
"""

from hypothesis import given, settings, strategies as st

from paths_reference import ReferencePathStore, ReferenceVerifier
from repro.paths.disjoint import DisjointPathVerifier
from repro.paths.pathset import PathStore, path_to_bits

# A path is an id set (possibly empty); ``as_bits`` picks the encoding
# the production verifier receives, so both input forms are covered.
path_strategy = st.tuples(
    st.frozensets(st.integers(min_value=0, max_value=30), min_size=0, max_size=5),
    st.booleans(),
)
# Narrow paths over few ids overlap often: duplicates, sub- and
# super-paths and large frontiers, so the cap is reached.
dense_path_strategy = st.tuples(
    st.frozensets(st.integers(min_value=0, max_value=11), min_size=0, max_size=3),
    st.booleans(),
)
cap_strategy = st.one_of(st.integers(min_value=1, max_value=8), st.just(4096))
# A step is a path to add, or ``None`` for an MD.2 ``discard_paths``.
step_strategy = st.one_of(path_strategy, dense_path_strategy, st.none())


def _assert_same_state(verifier, reference) -> None:
    assert verifier.best_count == reference.best_count
    assert verifier.satisfied == reference.satisfied
    assert verifier.state_size_estimate() == reference.state_size_estimate()
    assert verifier.stored_path_count == reference.stored_path_count
    assert verifier.stored_combination_count == reference.stored_combination_count
    assert verifier.combination_operations == reference.combination_operations


class TestVerifierMatchesReference:
    @given(
        steps=st.lists(step_strategy, max_size=60),
        required=st.integers(min_value=1, max_value=12),
        cap=cap_strategy,
    )
    @settings(max_examples=300, deadline=None)
    def test_every_call_agrees(self, steps, required, cap):
        verifier = DisjointPathVerifier(required, max_combinations=cap)
        reference = ReferenceVerifier(required, max_combinations=cap)
        for step in steps:
            if step is None:
                verifier.discard_paths()
                reference.discard_paths()
            else:
                nodes, as_bits = step
                path = path_to_bits(nodes) if as_bits else sorted(nodes)
                assert verifier.add_path(path) == reference.add_path(sorted(nodes))
            _assert_same_state(verifier, reference)

    @given(
        paths=st.lists(dense_path_strategy, min_size=20, max_size=80),
        cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncating_streams_agree(self, paths, cap):
        # Never satisfied, so every path reaches the frontier and the
        # capped lists are cut again and again.
        verifier = DisjointPathVerifier(100, max_combinations=cap)
        reference = ReferenceVerifier(100, max_combinations=cap)
        for nodes, _ in paths:
            bits = path_to_bits(nodes)
            assert verifier.add_path(bits) == reference.add_path(nodes)
            _assert_same_state(verifier, reference)
            assert verifier._frontier == [
                reference._frontier[count] for count in sorted(reference._frontier)
            ]


class TestPathStoreMatchesReference:
    @given(steps=st.lists(st.one_of(dense_path_strategy, st.none()), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_every_add_agrees(self, steps):
        store = PathStore()
        reference = ReferencePathStore()
        for step in steps:
            if step is None:
                store.clear()
                reference.clear()
                continue
            nodes, as_bits = step
            if as_bits:
                assert store.add_bits(path_to_bits(nodes)) == reference.add_bits(
                    path_to_bits(nodes)
                )
            else:
                assert store.add(nodes) == reference.add(nodes)
            assert store.paths == reference.paths
            assert store.offered == reference.offered
            assert store.rejected_superpaths == reference.rejected_superpaths
            assert (nodes in store) == (nodes in reference)
            assert store.is_dominated(nodes) == reference.is_dominated(nodes)
