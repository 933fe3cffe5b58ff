"""Reference copy of the disjoint-path verifier and path store.

The classes below are the list-and-dict implementation that the
bit-set verifier in :mod:`repro.paths` replaced, kept verbatim (only
renamed) so the differential property test can check, call by call,
that the production verifier returns the same results and keeps the
same counters.  Nothing outside the tests imports this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.paths.disjoint import PathAddResult
from repro.paths.pathset import bits_to_nodes, path_to_bits

_REDUNDANT = PathAddResult(stored=False, newly_satisfied=False)
_STORED = PathAddResult(stored=True, newly_satisfied=False)
_STORED_SATISFIED = PathAddResult(stored=True, newly_satisfied=True)


class ReferencePathStore:
    """Set of received paths (as node bit-sets) with dominance filtering."""

    def __init__(self) -> None:
        self._paths: List[int] = []
        self._seen_exact: set = set()
        #: Number of paths offered to the store, including rejected ones.
        self.offered = 0
        #: Number of paths rejected because a sub-path was already stored.
        self.rejected_superpaths = 0

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: Iterable[int]) -> bool:
        return path_to_bits(path) in self._seen_exact

    @property
    def paths(self) -> Tuple[int, ...]:
        """The stored paths as bit sets."""
        return tuple(self._paths)

    def node_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """The stored paths as tuples of process identifiers."""
        return tuple(bits_to_nodes(bits) for bits in self._paths)

    def add(self, path: Iterable[int]) -> bool:
        """Add a path; return ``False`` when it is dominated by a stored one.

        A path is dominated when a stored path uses a subset of its nodes
        (MBD.10).  When the new path dominates stored paths, those are
        evicted so the store stays minimal.
        """
        return self.add_bits(path_to_bits(path))

    def add_bits(self, bits: int) -> bool:
        """:meth:`add` for a path already encoded as a node bit-set.

        The disjoint-path verifier computes the bit encoding anyway;
        accepting it directly avoids encoding the same path twice per
        reception.
        """
        self.offered += 1
        if bits in self._seen_exact:
            self.rejected_superpaths += 1
            return False
        for stored in self._paths:
            if stored & bits == stored:  # stored ⊆ new: new path is redundant
                self.rejected_superpaths += 1
                return False
        # Evict stored paths dominated by the new, smaller path.
        self._paths = [stored for stored in self._paths if stored & bits != bits]
        self._paths.append(bits)
        self._seen_exact = {p for p in self._seen_exact if p & bits != bits}
        self._seen_exact.add(bits)
        return True

    def is_dominated(self, path: Iterable[int]) -> bool:
        """Whether a stored path uses a subset of ``path``'s nodes."""
        bits = path_to_bits(path)
        return any(stored & bits == stored for stored in self._paths)

    def clear(self) -> None:
        """Discard every stored path (used by MD.2 after delivery)."""
        self._paths.clear()
        self._seen_exact.clear()


class ReferenceVerifier:
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

    def __init__(self, required: int, *, max_combinations: int = 4096) -> None:
        if required < 1:
            raise ValueError("at least one disjoint path must be required")
        self.required = required
        self.max_combinations = max_combinations
        self._store = ReferencePathStore()
        self._has_direct = False
        # _frontier[c] = list of node-union bit-sets achievable with c
        # pairwise-disjoint received (non-empty) paths.
        self._frontier: Dict[int, List[int]] = {}
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
        return sum(len(unions) for unions in self._frontier.values())

    def state_size_estimate(self) -> int:
        """Rough memory footprint proxy: stored paths plus combinations."""
        return self.stored_path_count + self.stored_combination_count

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_path(self, intermediaries: Iterable[int]) -> PathAddResult:
        """Record a received path given by its set of intermediary processes.

        Returns a :class:`PathAddResult` describing whether the path was
        stored (i.e. was not redundant) and whether it made the
        requirement satisfied for the first time.
        """
        if self._satisfied:
            return _REDUNDANT
        bits = path_to_bits(intermediaries)
        if bits == 0:
            if self._has_direct:
                return _REDUNDANT
            self._has_direct = True
            return _STORED_SATISFIED if self._check_satisfied() else _STORED
        if not self._store.add_bits(bits):
            return _REDUNDANT

        new_entries: Dict[int, List[int]] = {1: [bits]}
        for count in sorted(self._frontier, reverse=True):
            for union in self._frontier[count]:
                self.combination_operations += 1
                if union & bits == 0:
                    new_entries.setdefault(count + 1, []).append(union | bits)

        for count, unions in sorted(new_entries.items()):
            existing = self._frontier.setdefault(count, [])
            for union in unions:
                if not _is_dominated(union, existing):
                    existing.append(union)
            if len(existing) > self.max_combinations:
                existing.sort(key=_popcount)
                del existing[self.max_combinations :]
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


def _popcount(bits: int) -> int:
    return bits.bit_count()


def _is_dominated(union: int, existing: List[int]) -> bool:
    """True when an existing union of the same cardinality uses ⊆ nodes."""
    return any(other & union == other for other in existing)

