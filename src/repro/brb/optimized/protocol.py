"""The cross-layer Bracha-Dolev protocol (the paper's contribution).

The protocol merges the Bracha and Dolev layers of the state-of-the-art
combination so that the MBD.1–12 modifications of Sec. 6 can be applied:

* the *Dolev role* of the protocol disseminates *contents* — (SEND |
  ECHO | READY, creator) pairs of a payload — through the partially
  connected network, accumulating transmission paths and delivering a
  content once ``f + 1`` node-disjoint paths have been received
  (or directly from its creator, MD.1);
* the *Bracha role* counts Dolev-delivered ECHO and READY contents per
  payload value and drives the phase transitions: echo quorum
  ``⌈(N+f+1)/2⌉`` ⇒ own READY, ``f+1`` READYs ⇒ own READY
  (amplification), ``f+1`` ECHOs ⇒ own ECHO (echo amplification,
  required by MBD.2), ``2f+1`` READYs ⇒ BRB-delivery;
* cross-layer modifications change what is put on the wire: payloads are
  replaced by per-neighbor local identifiers after their first
  transmission (MBD.1), SENDs become single-hop (MBD.2), simultaneous
  relays/creations are merged into ECHO_ECHO / READY_ECHO messages
  (MBD.3/4), redundant fields are dropped (MBD.5), and several rules
  suppress messages that are no longer useful (MBD.6–10) or restrict who
  creates messages and to how many neighbors they are sent (MBD.11–12).

The defaults correspond to the *lat. & bdw.* configuration of Sec. 7.4;
pass an explicit :class:`~repro.core.modifications.ModificationSet` to
select any other combination (including the plain *BDopt* baseline).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import SystemConfig
from repro.core.events import Command, SendTo
from repro.core.messages import CrossLayerMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.core.protocol import BroadcastProtocol
from repro.brb.optimized.state import (
    BroadcastSlot,
    ContentRecord,
    PayloadRecord,
    PlannedMessage,
)
from repro.paths.disjoint import DisjointPathVerifier

BroadcastKey = Tuple[int, int]

#: Upper bound on messages queued per (neighbor, unknown local id) (MBD.1).
_MAX_PENDING_PER_LOCAL_ID = 64

#: Shared empty command list returned when a message produced nothing —
#: the common case.  Callers must treat returned command lists as
#: read-only unless they made them (see :meth:`on_message`).
_NO_COMMANDS: List["Command"] = []

#: Local aliases: enum attribute access goes through a descriptor on every
#: lookup, which the per-message paths below cannot afford.
_SEND = MessageType.SEND
_ECHO = MessageType.ECHO
_READY = MessageType.READY
_ECHO_ECHO = MessageType.ECHO_ECHO
_READY_ECHO = MessageType.READY_ECHO


class CrossLayerBrachaDolev(BroadcastProtocol):
    """Byzantine reliable broadcast on partially connected networks.

    Parameters
    ----------
    process_id, config, neighbors:
        See :class:`~repro.core.protocol.BroadcastProtocol`.
    modifications:
        The MD.1–5 / MBD.1–12 toggles.  Defaults to the paper's
        *lat. & bdw.* configuration (MD.1–5 + MBD.1/7/8/9).
    """

    __slots__ = (
        "mods",
        "_slots",
        "_neighbor_local_ids",
        "_pending_local",
        "_local_id_counter",
        "_groups",
        "_deliveries",
        "_can_merge",
        "_process_set",
        "_n",
        "_delivery_quorum",
        "_dpr",
        "_mbd6",
        "_mbd7",
        "_md4",
        "_md5",
        "_md2",
    )

    def __init__(
        self,
        process_id: int,
        config: SystemConfig,
        neighbors: Iterable[int],
        *,
        modifications: Optional[ModificationSet] = None,
    ) -> None:
        super().__init__(process_id, config, neighbors)
        config.require_bracha_resilience()
        self.mods = (
            modifications
            if modifications is not None
            else ModificationSet.latency_and_bandwidth_optimized()
        )
        self._slots: Dict[BroadcastKey, BroadcastSlot] = {}
        # MBD.1: mapping, per neighbor, from the neighbor's local payload id
        # to the ``(record, slot)`` pair it refers to, plus a queue of
        # messages received before the mapping was learnt.  The slot is
        # carried alongside the record instead of as a backref on the
        # record itself, keeping the protocol state acyclic so a finished
        # run is reclaimed by reference counting, not cyclic GC.
        self._neighbor_local_ids: Dict[int, Dict[int, tuple]] = {}
        self._pending_local: Dict[Tuple[int, int], List[CrossLayerMessage]] = {}
        self._local_id_counter = 0
        # Scratch group and delivery lists reused across _process calls
        # (cleared on entry).  _process never re-enters itself and both
        # lists are fully consumed (or copied) before the call returns,
        # so reuse is safe and saves two allocations per received message.
        self._groups: List[tuple] = []
        self._deliveries: List[Command] = []
        # MBD.3/4 merging changes wire construction wholesale; precompute
        # which _finalize path applies.
        self._can_merge = self.mods.mbd3_echo_echo or self.mods.mbd4_ready_echo
        # Hot-path aliases of config-derived values (immutable per run).
        self._process_set = config._process_set
        self._n = config.n
        self._delivery_quorum = config.delivery_quorum
        self._dpr = config.disjoint_paths_required
        # Suppression-rule flags read on every received message
        # (ModificationSet is frozen, so snapshotting them is safe).
        mods = self.mods
        self._mbd6 = mods.mbd6_ignore_echo_after_ready
        self._mbd7 = mods.mbd7_ignore_echo_after_delivery
        self._md4 = mods.md4_ignore_paths_with_delivered
        self._md5 = mods.md5_stop_after_delivery
        self._md2 = mods.md2_empty_path_after_delivery

    # ------------------------------------------------------------------
    # Constructors matching the paper's named configurations
    # ------------------------------------------------------------------
    @classmethod
    def bdopt(cls, process_id: int, config: SystemConfig, neighbors: Iterable[int]):
        """Cross-layer implementation of the *BDopt* baseline (MD.1–5 only)."""
        return cls(
            process_id,
            config,
            neighbors,
            modifications=ModificationSet.dolev_optimized(),
        )

    @classmethod
    def with_all_modifications(
        cls, process_id: int, config: SystemConfig, neighbors: Iterable[int]
    ):
        """Every MD and MBD modification enabled."""
        return cls(
            process_id, config, neighbors, modifications=ModificationSet.all_enabled()
        )

    # ------------------------------------------------------------------
    # Public protocol interface
    # ------------------------------------------------------------------
    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        slot = self._slot(self.process_id, bid)
        record = slot.payload_record(payload)
        groups: List[tuple] = []
        deliveries: List[Command] = []

        # The source's own SEND content is trivially Dolev-delivered.
        send_record = record.content(
            MessageType.SEND, self.process_id, self.config.disjoint_paths_required
        )
        if not send_record.delivered:
            send_record.delivered = True
            send_record.relayed_empty = True
            targets = self._origination_targets(slot, record, MessageType.SEND)
            path: Optional[Tuple[int, ...]] = None if self.mods.mbd2_single_hop_send else ()
            groups.append((targets, MessageType.SEND, self.process_id, record, path, None))
            # The source reacts to its own SEND (Algorithm 1 sends to Π,
            # which includes the sender itself).
            self._bracha_on_send(slot, record, groups, deliveries)
        return self._finalize(groups) + deliveries

    def on_message(self, sender: int, message: CrossLayerMessage) -> List[Command]:
        if type(message) is not CrossLayerMessage and not isinstance(
            message, CrossLayerMessage
        ):
            return []
        # Fast path — the bulk of a run's traffic after MBD.1 announcement:
        # a payload-free message whose local id is already mapped.  Direct
        # indexing with one KeyError handler beats the chained ``.get``
        # calls because the lookups almost always hit; an unknown sender,
        # an unmapped id and a ``None`` id all miss into the handler.
        if message.payload is None:
            local_id = message.local_payload_id
            try:
                record, slot = self._neighbor_local_ids[sender][local_id]
            except KeyError:
                if local_id is None:
                    # Neither payload nor local id: cannot be interpreted.
                    return []
                queue = self._pending_local.setdefault((sender, local_id), [])
                if len(queue) < _MAX_PENDING_PER_LOCAL_ID:
                    queue.append(message)
                return []
            return self._process(sender, message, record, slot)

        source = message.source if message.source is not None else sender
        bid = message.bid if message.bid is not None else 0
        if not self.config.is_process(source):
            return []
        slot = self._slot(source, bid)
        record = slot.payload_record(message.payload)
        if message.local_payload_id is None:
            return self._process(sender, message, record, slot)
        # MBD.1: learn the sender's local id mapping and unblock whatever
        # was queued on it.
        mapping = self._neighbor_local_ids.setdefault(sender, {})
        mapping.setdefault(message.local_payload_id, (record, slot))
        commands = self._process(sender, message, record, slot)
        pending = self._pending_local.pop((sender, message.local_payload_id), None)
        if pending:
            if commands is _NO_COMMANDS:
                # _process returns a shared empty list; never mutate it.
                commands = []
            for queued in pending:
                commands.extend(self._process(sender, queued, record, slot))
        return commands

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def _process(
        self,
        sender: int,
        message: CrossLayerMessage,
        record: PayloadRecord,
        slot: BroadcastSlot,
    ) -> List[Command]:
        mtype = message.mtype
        if mtype is _SEND or mtype is _ECHO or mtype is _READY:
            # Single-content messages skip the decomposition list — the
            # merged ECHO_ECHO / READY_ECHO kinds are the rare case.
            if mtype is _SEND:
                creator = record.source
            else:
                creator = message.creator
                if creator is None:
                    creator = sender
            wire_path = message.path or ()
            process_set = self._process_set
            if creator not in process_set or (
                wire_path
                and (
                    len(wire_path) > self._n
                    or not process_set.issuperset(wire_path)
                )
            ):
                # Forged creator or path referencing unknown processes.
                return _NO_COMMANDS
            # MBD.9 bookkeeping: READYs received with an empty path.
            if mtype is _READY and not wire_path:
                seen = record.neighbor_empty_readys.get(sender)
                if seen is None:
                    seen = record.neighbor_empty_readys[sender] = set()
                seen.add(creator)
                if len(seen) >= self._delivery_quorum:
                    slot.neighbors_bd_delivered.add(sender)
            # Inlined prefix of _handle_content: resolve the content
            # record and apply the cheap suppression rules without a
            # call — the vast majority of received messages stop here
            # (MD.5: the content is delivered and announced).
            ckey = (mtype, creator)
            content = record.contents.get(ckey)
            if content is None:
                content = ContentRecord(verifier=DisjointPathVerifier(self._dpr))
                record.contents[ckey] = content
            if not wire_path:
                content.neighbors_delivered.add(sender)
            if mtype is _ECHO and (
                (self._mbd6 and creator in record.delivered_ready_creators)
                or (self._mbd7 and slot.delivered)
            ):
                return _NO_COMMANDS
            if (
                wire_path
                and self._md4
                and not content.neighbors_delivered.isdisjoint(wire_path)
            ):
                return _NO_COMMANDS
            if (
                content.delivered
                and self._md5
                and (content.relayed_empty or not self._md2)
            ):
                return _NO_COMMANDS
            groups = self._groups
            groups.clear()
            deliveries = self._deliveries
            deliveries.clear()
            self._deliver_content(
                sender,
                slot,
                record,
                mtype,
                creator,
                wire_path,
                content,
                groups,
                deliveries,
            )
        else:
            process_set = self._process_set
            groups = self._groups
            groups.clear()
            deliveries = self._deliveries
            deliveries.clear()
            for kind, creator, wire_path in self._decompose(sender, message, record):
                if creator not in process_set:
                    continue
                if wire_path and (
                    len(wire_path) > self._n
                    or not process_set.issuperset(wire_path)
                ):
                    # Forged path referencing unknown processes or absurd
                    # length.
                    continue
                # MBD.9 bookkeeping: READYs received with an empty path.
                if kind is _READY and not wire_path:
                    seen = record.neighbor_empty_readys.get(sender)
                    if seen is None:
                        seen = record.neighbor_empty_readys[sender] = set()
                    seen.add(creator)
                    if len(seen) >= self._delivery_quorum:
                        slot.neighbors_bd_delivered.add(sender)
                self._handle_content(
                    sender, slot, record, kind, creator, wire_path, groups, deliveries
                )
        if groups:
            commands = self._finalize(groups)
            commands.extend(deliveries)
            return commands
        if deliveries:
            return list(deliveries)
        return _NO_COMMANDS

    def _decompose(
        self, sender: int, message: CrossLayerMessage, record: PayloadRecord
    ) -> List[Tuple[MessageType, int, Tuple[int, ...]]]:
        """Split a wire message into its constituent content receptions."""
        path = message.path
        if path is None:
            path = ()
        mtype = message.mtype
        if mtype is _SEND:
            # A SEND is always created by the source of the broadcast.
            return [(_SEND, record.source, path)]
        creator = message.creator if message.creator is not None else sender
        if mtype is _ECHO:
            return [(_ECHO, creator, path)]
        if mtype is _READY:
            return [(_READY, creator, path)]
        embedded = message.embedded_creator
        if embedded is None:
            return []
        if mtype is _ECHO_ECHO:
            return [
                (_ECHO, creator, path),
                (_ECHO, embedded, path + (creator,)),
            ]
        if mtype is _READY_ECHO:
            return [
                (_READY, creator, path),
                (_ECHO, embedded, path + (creator,)),
            ]
        return []

    def _handle_content(
        self,
        sender: int,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        wire_path: Tuple[int, ...],
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        """Full content reception: suppression prefix plus delivery tail.

        The single-content fast path of :meth:`_process` inlines the
        prefix below and calls :meth:`_deliver_content` directly; this
        method serves the decomposed (merged-kind) receptions.
        """
        mods = self.mods
        ckey = (kind, creator)
        content = record.contents.get(ckey)
        if content is None:
            content = ContentRecord(
                verifier=DisjointPathVerifier(self.config.disjoint_paths_required)
            )
            record.contents[ckey] = content

        if not wire_path:
            # The sender created the content or relayed it after delivering
            # (MD.2); either way it has the content.
            content.neighbors_delivered.add(sender)

        if kind is _ECHO:
            # MBD.6: ignore ECHOs of a process whose READY has been delivered.
            if mods.mbd6_ignore_echo_after_ready and self._ready_delivered(
                record, creator
            ):
                return
            # MBD.7: ignore ECHOs once the broadcast has been BRB-delivered.
            if mods.mbd7_ignore_echo_after_delivery and slot.delivered:
                return
        # MD.4: ignore paths that contain a neighbor that already delivered.
        if (
            wire_path
            and mods.md4_ignore_paths_with_delivered
            and not content.neighbors_delivered.isdisjoint(wire_path)
        ):
            return
        # MD.5: stop relaying a content once delivered and announced (or
        # right after delivery when MD.2's empty-path relay is disabled).
        if (
            content.delivered
            and mods.md5_stop_after_delivery
            and (content.relayed_empty or not mods.md2_empty_path_after_delivery)
        ):
            return

        self._deliver_content(
            sender, slot, record, kind, creator, wire_path, content, groups, deliveries
        )

    def _deliver_content(
        self,
        sender: int,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        wire_path: Tuple[int, ...],
        content: ContentRecord,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        """Path accounting, Dolev relay and Bracha transitions of a content."""
        mods = self.mods
        # The intermediaries as a node bit-set: the wire path and the
        # sender, less the creator and this process (ids were checked
        # against the process set on reception).
        direct = not wire_path and sender == creator
        intermediaries = 0 if direct else 1 << sender
        for node in wire_path:
            intermediaries |= 1 << node
        intermediaries &= ~((1 << creator) | (1 << self.process_id))

        result = content.verifier.add_path(intermediaries)
        newly_delivered = False
        if not content.delivered:
            if (direct and mods.md1_deliver_from_source) or result.newly_satisfied:
                newly_delivered = True
                content.delivered = True
                if kind is _READY:
                    record.delivered_ready_creators.add(creator)
                if mods.md2_empty_path_after_delivery:
                    content.verifier.discard_paths()

        # MBD.2: any ECHO/READY also certifies a path for the SEND content,
        # because in BDopt the relayed (empty-path) SEND would have travelled
        # along the same route as the creator's ECHO.
        send_newly_delivered = False
        if mods.mbd2_single_hop_send and kind is not _SEND:
            send_newly_delivered = self._extract_send_path(
                record, creator, intermediaries, direct
            )

        # Plan the Dolev relay of this content.
        self._plan_relay(
            sender,
            slot,
            record,
            kind,
            creator,
            wire_path,
            content,
            result.stored,
            newly_delivered,
            direct,
            groups,
        )

        # Bracha phase transitions.
        if send_newly_delivered:
            self._bracha_on_send(slot, record, groups, deliveries)
        if newly_delivered:
            if kind is _SEND:
                self._bracha_on_send(slot, record, groups, deliveries)
            elif kind is _ECHO:
                self._bracha_on_echo(slot, record, creator, groups, deliveries)
            elif kind is _READY:
                self._bracha_on_ready(slot, record, creator, groups, deliveries)

    def _extract_send_path(
        self,
        record: PayloadRecord,
        creator: int,
        intermediaries: int,
        direct: bool,
    ) -> bool:
        """MBD.2: feed an extracted SEND path and report new delivery."""
        send_record = record.content(
            MessageType.SEND, record.source, self.config.disjoint_paths_required
        )
        if send_record.delivered:
            return False
        if creator == record.source:
            extracted = intermediaries
            extracted_direct = direct
        else:
            extracted = intermediaries | 1 << creator
            extracted_direct = False
        result = send_record.verifier.add_path(extracted)
        newly = result.newly_satisfied or (
            extracted_direct and self.mods.md1_deliver_from_source
        )
        if newly:
            send_record.delivered = True
            if self.mods.md2_empty_path_after_delivery:
                send_record.verifier.discard_paths()
        return newly

    # ------------------------------------------------------------------
    # Dolev relaying
    # ------------------------------------------------------------------
    def _plan_relay(
        self,
        sender: int,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        wire_path: Tuple[int, ...],
        content,
        path_stored: bool,
        newly_delivered: bool,
        direct: bool,
        groups: List[tuple],
    ) -> None:
        # MBD.2: SEND messages are single-hop and are never relayed.
        if kind is _SEND and self.mods.mbd2_single_hop_send:
            return

        if newly_delivered and self.mods.md2_empty_path_after_delivery:
            # MD.2: announce the delivery once, with an empty path.  The
            # original sender is *not* excluded from the announcement.
            relay_path: Tuple[int, ...] = ()
            content.relayed_empty = True
            targets = self._relay_targets(slot, record, kind, creator, content, (), None)
        else:
            # MBD.10: a dominated path adds no information — do not relay it.
            if (
                self.mods.mbd10_ignore_superpaths
                and not path_stored
                and not direct
                and not newly_delivered
            ):
                return
            relay_path = wire_path + (sender,)
            targets = self._relay_targets(
                slot, record, kind, creator, content, wire_path, sender
            )
        if targets:
            groups.append((targets, kind, creator, record, relay_path, None))

    def _relay_targets(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        content,
        wire_path: Tuple[int, ...],
        sender: Optional[int],
    ) -> List[int]:
        # Allocation-free target selection: instead of building the union
        # of the exclusion sets per relay, each candidate neighbor is
        # checked against the (C-level) memberships directly.
        mods = self.mods
        pid = self.process_id
        nd = content.neighbors_delivered if mods.md3_skip_delivered_neighbors else ()
        bd = slot.neighbors_bd_delivered if mods.mbd9_skip_delivered_neighbors else ()
        rd = (
            record.delivered_ready_creators
            if kind is _ECHO and mods.mbd8_skip_echo_to_ready_neighbors
            else ()
        )
        return [
            q
            for q in self.neighbors
            if q != creator
            and q != pid
            and q != sender
            and q not in wire_path
            and q not in nd
            and q not in bd
            and q not in rd
        ]

    def _origination_targets(
        self, slot: BroadcastSlot, record: PayloadRecord, kind: MessageType
    ) -> List[int]:
        excluded: Set[int] = set()
        if self.mods.mbd9_skip_delivered_neighbors:
            excluded |= slot.neighbors_bd_delivered
        if kind is _ECHO and self.mods.mbd8_skip_echo_to_ready_neighbors:
            excluded |= record.delivered_ready_creators
        targets = [q for q in self.neighbors if q not in excluded]
        if self.mods.mbd12_reduced_fanout:
            limit = self.config.delivery_quorum  # 2f + 1
            if len(targets) > limit:
                targets = self._preferred_targets(record.source, targets, limit)
        return targets

    def _preferred_targets(
        self, source: int, targets: Sequence[int], limit: int
    ) -> List[int]:
        """MBD.12 target selection, preferring MBD.11 role holders if enabled."""
        if not self.mods.mbd11_role_restriction:
            return list(targets)[:limit]
        roles = self.config.echo_generators(source) | self.config.ready_generators(source)
        preferred = [q for q in targets if q in roles]
        others = [q for q in targets if q not in roles]
        return (preferred + others)[:limit]

    # ------------------------------------------------------------------
    # Bracha phase transitions
    # ------------------------------------------------------------------
    def _ready_delivered(self, record: PayloadRecord, creator: int) -> bool:
        return creator in record.delivered_ready_creators

    def _bracha_on_send(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if slot.sent_echo:
            return
        self._create_own_echo(slot, record, groups, deliveries)

    def _bracha_on_echo(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        creator: int,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if creator in record.echo_creators:
            return
        record.echo_creators.add(creator)
        echo_count = len(record.echo_creators)
        wants_ready = (
            not slot.sent_ready and echo_count >= self.config.echo_quorum
        )
        wants_echo = (
            not slot.sent_echo
            and echo_count >= self.config.echo_amplification_threshold
        )
        # When both an ECHO and a READY become possible, only the READY is
        # sent (Sec. 6.2).
        if wants_ready:
            self._create_own_ready(slot, record, groups, deliveries)
        elif wants_echo:
            self._create_own_echo(slot, record, groups, deliveries)

    def _bracha_on_ready(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        creator: int,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if creator not in record.ready_creators:
            record.ready_creators.add(creator)
            # A READY implies its creator's ECHO (Sec. 6.2).
            self._bracha_on_echo(slot, record, creator, groups, deliveries)
        ready_count = len(record.ready_creators)
        if (
            not slot.sent_ready
            and ready_count >= self.config.ready_amplification_threshold
        ):
            self._create_own_ready(slot, record, groups, deliveries)
        if not slot.delivered and ready_count >= self.config.delivery_quorum:
            slot.delivered = True
            deliveries.append(
                self._record_delivery(record.source, record.bid, record.payload)
            )

    def _create_own_echo(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if slot.sent_echo:
            return
        if (
            self.mods.mbd11_role_restriction
            and self.process_id not in self.config.echo_generators(record.source)
        ):
            return
        slot.sent_echo = True
        content = record.content(
            MessageType.ECHO, self.process_id, self.config.disjoint_paths_required
        )
        content.delivered = True
        content.relayed_empty = True
        targets = self._origination_targets(slot, record, MessageType.ECHO)
        groups.append((targets, MessageType.ECHO, self.process_id, record, (), None))
        self._bracha_on_echo(slot, record, self.process_id, groups, deliveries)

    def _create_own_ready(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if slot.sent_ready:
            return
        if (
            self.mods.mbd11_role_restriction
            and self.process_id not in self.config.ready_generators(record.source)
        ):
            return
        slot.sent_ready = True
        # The READY subsumes this process's ECHO (Sec. 6.2): do not send a
        # separate ECHO afterwards.
        slot.sent_echo = True
        content = record.content(
            MessageType.READY, self.process_id, self.config.disjoint_paths_required
        )
        content.delivered = True
        content.relayed_empty = True
        record.delivered_ready_creators.add(self.process_id)
        targets = self._origination_targets(slot, record, MessageType.READY)
        groups.append((targets, MessageType.READY, self.process_id, record, (), None))
        self._bracha_on_ready(slot, record, self.process_id, groups, deliveries)

    # ------------------------------------------------------------------
    # Wire construction, MBD.3/4 merging and MBD.1/5 field selection
    # ------------------------------------------------------------------
    def _finalize(self, groups: List[tuple]) -> List[Command]:
        if not groups:
            return []
        if self._can_merge:
            planned = [
                PlannedMessage(dest, kind, creator, record, path, embedded)
                for dests, kind, creator, record, path, embedded in groups
                for dest in dests
            ]
            if not planned:
                return []
            if len(planned) > 1:
                planned = self._merge_planned(planned)
            make_wire = self._make_wire
            return [SendTo(p.dest, make_wire(p)) for p in planned]

        # Merging disabled (every named configuration but *all enabled*):
        # emit wire messages group-wise.  ``embedded_creator`` is always
        # None here — merged kinds only exist under MBD.3/4 — so the
        # field-selection logic of _make_wire collapses to two wire
        # variants per group (payload announcement vs. local-id only),
        # each built or fetched from the record's cache at most once.
        commands: List[Command] = []
        mods = self.mods
        mbd1 = mods.mbd1_local_payload_ids
        mbd5 = mods.mbd5_optional_fields
        pid = self.process_id
        for dests, kind, creator, record, path, _embedded in groups:
            if not dests:
                continue
            if mbd1:
                local_id = record.my_local_id
                if local_id is None:
                    local_id = self._local_id_counter
                    record.my_local_id = local_id
                    self._local_id_counter += 1
            else:
                local_id = None
            if kind is _SEND or (mbd5 and creator == pid and path == ()):
                # SENDs never carry a creator; a newly created message's
                # creator is implied by the authenticated link (Sec. 6.3).
                creator_field = None
            else:
                creator_field = creator
            wire_cache = record.wire_cache
            announced = record.announced_to
            wire_payload = wire_bare = None
            for dest in dests:
                if mbd1 and dest in announced:
                    wire = wire_bare
                    if wire is None:
                        key = (kind, creator_field, None, False, path)
                        wire = wire_cache.get(key)
                        if wire is None:
                            wire = CrossLayerMessage(
                                mtype=kind,
                                source=None if mbd5 else record.source,
                                bid=None if mbd5 else record.bid,
                                creator=creator_field,
                                embedded_creator=None,
                                payload=None,
                                local_payload_id=local_id,
                                path=path,
                            )
                            wire_cache[key] = wire
                        wire_bare = wire
                else:
                    if mbd1:
                        announced.add(dest)
                    wire = wire_payload
                    if wire is None:
                        key = (kind, creator_field, None, True, path)
                        wire = wire_cache.get(key)
                        if wire is None:
                            source_field = record.source
                            if kind is _SEND and mods.mbd2_single_hop_send and mbd5:
                                source_field = None
                            wire = CrossLayerMessage(
                                mtype=kind,
                                source=source_field,
                                bid=record.bid,
                                creator=creator_field,
                                embedded_creator=None,
                                payload=record.payload,
                                local_payload_id=local_id,
                                path=path,
                            )
                            wire_cache[key] = wire
                        wire_payload = wire
                commands.append(SendTo(dest, wire))
        return commands

    def _merge_planned(self, planned: List[PlannedMessage]) -> List[PlannedMessage]:
        if len(planned) == 1 or not (
            self.mods.mbd3_echo_echo or self.mods.mbd4_ready_echo
        ):
            return planned
        result: List[PlannedMessage] = []
        consumed = [False] * len(planned)
        for i, first in enumerate(planned):
            if consumed[i]:
                continue
            if first.embedded_creator is not None or first.kind is _SEND:
                result.append(first)
                continue
            partner_index = None
            for j in range(i + 1, len(planned)):
                second = planned[j]
                if consumed[j] or second.embedded_creator is not None:
                    continue
                if (
                    second.dest != first.dest
                    or second.record is not first.record
                    or second.path != first.path
                    or second.path is None
                    or second.kind is _SEND
                ):
                    continue
                kinds = {first.kind, second.kind}
                if kinds == {_ECHO, _READY}:
                    if not self.mods.mbd4_ready_echo:
                        continue
                elif kinds == {_ECHO}:
                    if not self.mods.mbd3_echo_echo:
                        continue
                    if first.creator == second.creator:
                        continue
                else:
                    continue
                partner_index = j
                break
            if partner_index is None:
                result.append(first)
                continue
            second = planned[partner_index]
            consumed[partner_index] = True
            if first.kind is _READY or second.kind is _READY:
                outer, inner = (
                    (first, second) if first.kind is _READY else (second, first)
                )
            else:
                # Prefer this process's own (newly created) ECHO as the outer
                # message, mirroring the ECHO_ECHO definition of MBD.3.
                outer, inner = (
                    (first, second)
                    if first.creator == self.process_id
                    else (second, first)
                )
            result.append(
                PlannedMessage(
                    dest=outer.dest,
                    kind=outer.kind,
                    creator=outer.creator,
                    record=outer.record,
                    path=outer.path,
                    embedded_creator=inner.creator,
                )
            )
        return result

    def _make_wire(self, planned: PlannedMessage) -> CrossLayerMessage:
        record = planned.record
        mods = self.mods
        include_payload = True
        local_id: Optional[int] = None
        if mods.mbd1_local_payload_ids:
            if record.my_local_id is None:
                record.my_local_id = self._local_id_counter
                self._local_id_counter += 1
            local_id = record.my_local_id
            if planned.dest in record.announced_to:
                include_payload = False
            else:
                record.announced_to.add(planned.dest)

        source_field: Optional[int] = record.source
        bid_field: Optional[int] = record.bid
        payload_field: Optional[bytes] = record.payload if include_payload else None
        if not include_payload and mods.mbd5_optional_fields:
            source_field = None
            bid_field = None

        creator_field: Optional[int] = planned.creator
        if planned.kind is _SEND:
            creator_field = None
            if mods.mbd2_single_hop_send and mods.mbd5_optional_fields:
                source_field = None
        elif (
            mods.mbd5_optional_fields
            and planned.embedded_creator is None
            and planned.creator == self.process_id
            and planned.path == ()
        ):
            # A newly created message: the authenticated link identifies the
            # creator, so the field can be omitted (Sec. 6.3).
            creator_field = None

        if planned.embedded_creator is None:
            mtype = planned.kind
        elif planned.kind is _READY:
            mtype = _READY_ECHO
        else:
            mtype = _ECHO_ECHO

        # Intern the wire message per payload record: the MBD.1 side
        # effects above (local-id allocation, payload announcement) stay
        # outside the cache, but the resulting frozen message is shared
        # between every destination it is byte-identical for.
        # The key omits fields that are constant per record — the payload,
        # local id (allocated once above), and the source/bid pair, which
        # is a pure function of ``include_payload`` and the message type.
        key = (
            mtype,
            creator_field,
            planned.embedded_creator,
            include_payload,
            planned.path,
        )
        cached = record.wire_cache.get(key)
        if cached is None:
            cached = CrossLayerMessage(
                mtype=mtype,
                source=source_field,
                bid=bid_field,
                creator=creator_field,
                embedded_creator=planned.embedded_creator,
                payload=payload_field,
                local_payload_id=local_id,
                path=planned.path,
            )
            record.wire_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _slot(self, source: int, bid: int) -> BroadcastSlot:
        slot = self._slots.get((source, bid))
        if slot is None:
            slot = BroadcastSlot(source=source, bid=bid)
            self._slots[(source, bid)] = slot
        return slot

    def state_size_estimate(self) -> int:
        """Stored paths, combinations and quorum entries (memory proxy)."""
        slots = sum(slot.state_size_estimate() for slot in self._slots.values())
        pending = sum(len(queue) for queue in self._pending_local.values())
        mappings = sum(len(m) for m in self._neighbor_local_ids.values())
        return slots + pending + mappings


__all__ = ["CrossLayerBrachaDolev"]
