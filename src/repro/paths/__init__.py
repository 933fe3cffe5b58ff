"""Disjoint-path bookkeeping used by the Dolev reliable-communication layer.

A process Dolev-delivers a content once it has received it through at
least ``f + 1`` node-disjoint paths (Sec. 4.2).  Deciding this
incrementally as paths arrive is the computational bottleneck of the
protocol; :class:`DisjointPathVerifier` implements the dynamic-programming
combination scheme the paper describes in Sec. 6.6, and
:class:`PathStore` implements the subpath filtering of MBD.10.
Paths are node bit-sets end to end: ``DisjointPathVerifier.add_path``
takes the intermediaries as an ``int`` with bit ``i`` set for process
``i`` (the form the protocols build from the wire path) or as an
iterable of ids, and its frontier of combinations is a list per count
that is only appended to, so the combination cap keeps a deterministic
arrival-ordered prefix of the fewest-node unions.
The :mod:`repro.paths.oracle` module provides an exhaustive reference
implementation used by the property-based tests.
"""

from repro.paths.disjoint import DisjointPathVerifier, PathAddResult
from repro.paths.pathset import PathStore
from repro.paths.oracle import max_disjoint_selection

__all__ = ["DisjointPathVerifier", "PathAddResult", "PathStore", "max_disjoint_selection"]
