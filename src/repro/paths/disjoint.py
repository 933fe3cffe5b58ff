"""Incremental verification that ``f + 1`` node-disjoint paths were received.

The Dolev layer must decide, every time a new transmission path arrives,
whether the set of received paths now contains ``f + 1`` pairwise
node-disjoint paths.  The decision problem over an arbitrary set of paths
is a set-packing problem; the paper (Sec. 6.6) keeps it tractable in
practice with two ideas that this module implements:

* paths are represented as node bit-sets, and a newly received path is
  combined with the *previously explored combinations* of disjoint paths
  (dynamic programming) instead of recomputing all combinations;
* dominated information is pruned — a path whose node set is a superset
  of an already-received path is ignored, and a combination that uses a
  superset of the nodes of another combination of the same cardinality is
  dropped.

Paths are given to the verifier as their set of *intermediary* processes:
the processes that relayed the content, excluding the content's creator
and the receiving process.  An empty set therefore means the content was
received directly from its creator over the authenticated link; such a
path is disjoint from every other path.  The set is passed either as a
node bit-set (an ``int`` with bit ``i`` set for process ``i``, the form
the protocols build) or as an iterable of process ids.

The frontier of combinations is a list indexed by ``count - 1`` whose
per-count lists are append-only between truncations: a union is only
ever appended, so list order is arrival order, and the cap keeps the
first unions of the fewest nodes (a stable popcount sort, then a cut).

The verifier is *incremental* and *monotonic*: once ``satisfied`` becomes
true it stays true, and adding paths never lowers the best count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.paths.pathset import PathStore, path_to_bits


@dataclass(frozen=True, slots=True)
class PathAddResult:
    """Outcome of feeding one path to the verifier.

    Attributes
    ----------
    stored:
        ``False`` when the path was redundant (already satisfied, already
        seen, or dominated by a previously stored path — the situation
        MBD.10 exploits to stop relaying).
    newly_satisfied:
        ``True`` when this path made the disjoint-path requirement
        satisfied for the first time.
    """

    stored: bool
    newly_satisfied: bool


#: The four possible outcomes, prebuilt: ``add_path`` runs once per
#: received path and the result is immutable, so allocating is waste.
_REDUNDANT = PathAddResult(stored=False, newly_satisfied=False)
_STORED = PathAddResult(stored=True, newly_satisfied=False)
_STORED_SATISFIED = PathAddResult(stored=True, newly_satisfied=True)


class DisjointPathVerifier:
    """Decides whether ``required`` node-disjoint paths have been received.

    Parameters
    ----------
    required:
        The number of pairwise node-disjoint paths needed (``f + 1``).
    max_combinations:
        Safety cap on the number of memoized disjoint-path combinations
        per cardinality.  When the cap is hit the verifier becomes
        conservative: it may detect the disjoint paths later than an
        exhaustive search would, but it never reports a false positive.
    """

    __slots__ = (
        "required",
        "max_combinations",
        "_store",
        "_has_direct",
        "_frontier",
        "_best_indirect",
        "_satisfied",
        "combination_operations",
    )

    def __init__(self, required: int, *, max_combinations: int = 4096) -> None:
        if required < 1:
            raise ValueError("at least one disjoint path must be required")
        self.required = required
        self.max_combinations = max_combinations
        self._store = PathStore()
        self._has_direct = False
        # _frontier[c - 1] = list of node-union bit-sets achievable with c
        # pairwise-disjoint received (non-empty) paths.
        self._frontier: List[List[int]] = []
        self._best_indirect = 0
        self._satisfied = False
        #: Number of combination operations performed (CPU proxy metric).
        self.combination_operations = 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def satisfied(self) -> bool:
        """True once ``required`` pairwise-disjoint paths have been received."""
        return self._satisfied

    @property
    def best_count(self) -> int:
        """Largest number of pairwise-disjoint received paths found so far."""
        return self._best_indirect + (1 if self._has_direct else 0)

    @property
    def has_direct_path(self) -> bool:
        """Whether the content was received directly from its creator."""
        return self._has_direct

    @property
    def stored_path_count(self) -> int:
        """Number of (non-dominated) paths currently stored."""
        return len(self._store) + (1 if self._has_direct else 0)

    @property
    def stored_combination_count(self) -> int:
        """Number of disjoint-path combinations currently memoized."""
        return sum(map(len, self._frontier))

    def state_size_estimate(self) -> int:
        """Rough memory footprint proxy: stored paths plus combinations."""
        return self.stored_path_count + self.stored_combination_count

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_path(self, path: Union[int, Iterable[int]]) -> PathAddResult:
        """Record a received path given by its set of intermediary processes.

        ``path`` is a node bit-set or an iterable of process ids.  Returns
        a :class:`PathAddResult` describing whether the path was stored
        (i.e. was not redundant) and whether it made the requirement
        satisfied for the first time.
        """
        if self._satisfied:
            return _REDUNDANT
        bits = path if type(path) is int else path_to_bits(path)
        if bits == 0:
            if self._has_direct:
                return _REDUNDANT
            self._has_direct = True
            return _STORED_SATISFIED if self._check_satisfied() else _STORED
        if not self._store.add_bits(bits):
            return _REDUNDANT

        # Every candidate comes from the frontier as it was before this
        # path: new_entries[i] holds the unions of i + 1 disjoint paths.
        frontier = self._frontier
        new_entries = [[bits]]
        for unions in frontier:
            self.combination_operations += len(unions)
            new_entries.append([union | bits for union in unions if not union & bits])
        if new_entries[-1]:
            frontier.append([])

        cap = self.max_combinations
        for count, (existing, unions) in enumerate(zip(frontier, new_entries), 1):
            if not unions:
                continue
            for union in unions:
                for other in existing:
                    if other & union == other:
                        break
                else:
                    existing.append(union)
            if len(existing) > cap:
                existing.sort(key=int.bit_count)
                del existing[cap:]
            if count > self._best_indirect:
                self._best_indirect = count
        return _STORED_SATISFIED if self._check_satisfied() else _STORED

    def _check_satisfied(self) -> bool:
        """Return ``True`` when the requirement is met for the first time."""
        if not self._satisfied and self.best_count >= self.required:
            self._satisfied = True
            return True
        return False

    def discard_paths(self) -> None:
        """Drop stored paths and combinations (MD.2, after delivery)."""
        self._store.clear()
        self._frontier.clear()


__all__ = ["DisjointPathVerifier", "PathAddResult"]
