"""Unit tests for the Dolev disseminator and the MD.1–5 optimizations."""


from repro.core.config import SystemConfig
from repro.core.events import RCDeliver
from repro.core.messages import BrachaMessage, DolevMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.brb.dolev import (
    DolevBroadcast,
    DolevDisseminator,
    OptimizedDolevBroadcast,
    content_origin,
)


def content(payload=b"m", source=0, bid=0, creator=None, mtype=MessageType.SEND):
    return BrachaMessage(mtype=mtype, source=source, bid=bid, payload=payload, creator=creator)


class TestContentOrigin:
    def test_send_origin_is_source(self):
        assert content_origin(content(source=4)) == 4

    def test_echo_origin_is_creator(self):
        assert content_origin(content(creator=7, mtype=MessageType.ECHO)) == 7

    def test_raw_bytes_have_no_origin(self):
        assert content_origin(b"raw") is None


class TestPlainDisseminator:
    def test_originate_delivers_locally_and_floods(self):
        d = DolevDisseminator(0, [1, 2, 3], required_paths=2)
        out, delivered = d.originate(content(source=0))
        assert delivered == [content(source=0)]
        assert {s.dest for s in out} == {1, 2, 3}
        assert all(s.message.path == () for s in out)

    def test_originate_twice_is_noop(self):
        d = DolevDisseminator(0, [1], required_paths=1)
        d.originate(content(source=0))
        out, delivered = d.originate(content(source=0))
        assert out == [] and delivered == []

    def test_relay_appends_sender_and_avoids_path_members(self):
        d = DolevDisseminator(5, [1, 2, 3], required_paths=2)
        message = DolevMessage(content=content(source=0), path=(1,))
        out, delivered = d.on_message(2, message)
        assert delivered == []
        # Relays go to neighbors not in path ∪ {sender} ∪ {origin}.
        assert {s.dest for s in out} == {3}
        assert all(s.message.path == (1, 2) for s in out)

    def test_delivery_requires_disjoint_paths(self):
        d = DolevDisseminator(5, [1, 2, 3, 4], required_paths=2)
        c = content(source=0)
        _, delivered = d.on_message(1, DolevMessage(content=c, path=(6,)))
        assert delivered == []
        _, delivered = d.on_message(1, DolevMessage(content=c, path=(7,)))
        assert delivered == []  # same last hop, paths not disjoint
        _, delivered = d.on_message(2, DolevMessage(content=c, path=(8,)))
        assert delivered == [c]
        assert d.has_delivered(c)

    def test_plain_does_not_deliver_directly_from_source(self):
        d = DolevDisseminator(5, [0, 1, 2], required_paths=2, modifications=ModificationSet.none())
        c = content(source=0)
        _, delivered = d.on_message(0, DolevMessage(content=c, path=()))
        assert delivered == []  # only one path so far

    def test_direct_path_plus_one_disjoint_path_delivers(self):
        d = DolevDisseminator(5, [0, 1, 2], required_paths=2, modifications=ModificationSet.none())
        c = content(source=0)
        d.on_message(0, DolevMessage(content=c, path=()))
        _, delivered = d.on_message(1, DolevMessage(content=c, path=(3,)))
        assert delivered == [c]


class TestOptimizedDisseminator:
    def _disseminator(self, **kwargs):
        return DolevDisseminator(
            5,
            [0, 1, 2, 3],
            required_paths=2,
            modifications=ModificationSet.dolev_optimized(),
            **kwargs,
        )

    def test_md1_direct_delivery(self):
        d = self._disseminator()
        c = content(source=0)
        _, delivered = d.on_message(0, DolevMessage(content=c, path=()))
        assert delivered == [c]

    def test_md2_relays_empty_path_after_delivery(self):
        d = self._disseminator()
        c = content(source=0)
        out, _ = d.on_message(0, DolevMessage(content=c, path=()))
        assert out and all(s.message.path == () for s in out)

    def test_md3_skips_neighbors_that_delivered(self):
        d = self._disseminator()
        c = content(source=0)
        # Neighbor 1 announces delivery (empty path); it is not the origin.
        d.on_message(1, DolevMessage(content=c, path=()))
        out, _ = d.on_message(2, DolevMessage(content=c, path=(6,)))
        assert 1 not in {s.dest for s in out}

    def test_md4_ignores_paths_through_delivered_neighbors(self):
        d = self._disseminator()
        c = content(source=0)
        d.on_message(1, DolevMessage(content=c, path=()))  # neighbor 1 delivered
        out, delivered = d.on_message(2, DolevMessage(content=c, path=(1, 6)))
        assert out == [] and delivered == []

    def test_md5_stops_relaying_after_delivery(self):
        d = self._disseminator()
        c = content(source=0)
        d.on_message(0, DolevMessage(content=c, path=()))  # delivered + empty path sent
        out, delivered = d.on_message(2, DolevMessage(content=c, path=(6,)))
        assert out == [] and delivered == []

    def test_forged_path_with_absurd_ids_dropped(self):
        d = self._disseminator()
        c = content(source=0)
        out, delivered = d.on_message(1, DolevMessage(content=c, path=(2 ** 30,)))
        assert out == [] and delivered == []

    def test_extra_exclusions_hook(self):
        d = DolevDisseminator(
            5,
            [0, 1, 2, 3],
            required_paths=2,
            modifications=ModificationSet.dolev_optimized(),
            extra_exclusions=lambda c: {3},
        )
        out, _ = d.on_message(0, DolevMessage(content=content(source=0), path=()))
        assert 3 not in {s.dest for s in out}

    def test_neighbors_that_delivered_accessor(self):
        d = self._disseminator()
        c = content(source=0)
        d.on_message(1, DolevMessage(content=c, path=()))
        assert d.neighbors_that_delivered(c) == frozenset({1})
        assert d.neighbors_that_delivered(content(payload=b"other")) == frozenset()


class TestForgedIdentifiers:
    """Path bit-sets are built only from identifiers that are safe to shift."""

    def test_forged_creator_is_handled_as_an_unknown_origin(self, recorded_paths):
        for creator in (-3, 2 ** 40):
            recorded_paths.clear()
            d = DolevDisseminator(5, [1, 2, 3, 4], required_paths=2)
            c = content(creator=creator, mtype=MessageType.ECHO)
            outcomes = [
                d.on_message(sender, DolevMessage(content=c, path=path))
                for sender, path in ((2, (1,)), (3, ()), (4, (6,)), (1, (2,)))
            ]
            relays = [
                sorted((s.dest, s.message.path) for s in out) for out, _ in outcomes
            ]
            assert relays == [
                [(3, (1, 2)), (4, (1, 2))],
                [(1, (3,)), (2, (3,)), (4, (3,))],
                [(1, (6, 4)), (2, (6, 4)), (3, (6, 4))],
                [(3, (2, 1)), (4, (2, 1))],
            ]
            assert [delivered for _, delivered in outcomes] == [[], [c], [], []]
            # The forged origin never reaches a shift: the verifier saw
            # only the honest intermediaries, as small bit-sets.
            assert recorded_paths == [0b110, 0b1000, 0b1010000, 0b110]
            assert d.state_size_estimate() == 6

    def test_absurd_path_ids_are_dropped_before_encoding(self, recorded_paths):
        d = DolevDisseminator(5, [1, 2, 3], required_paths=2)
        c = content(source=0)
        for path in ((-1,), (2 ** 20,), (1, -1), (2 ** 20, 1)):
            assert d.on_message(2, DolevMessage(content=c, path=path)) == ([], [])
        assert recorded_paths == []


class TestDolevBroadcastProtocol:
    def test_broadcast_delivers_locally(self):
        config = SystemConfig.for_system(5, 1)
        protocol = DolevBroadcast(0, config, [1, 2, 3])
        commands = protocol.broadcast(b"payload", bid=2)
        deliveries = [c for c in commands if isinstance(c, RCDeliver)]
        assert len(deliveries) == 1
        assert deliveries[0].payload == b"payload"
        assert protocol.delivered[(0, 2)] == b"payload"

    def test_optimized_subclass_enables_md(self):
        config = SystemConfig.for_system(5, 1)
        protocol = OptimizedDolevBroadcast(0, config, [1, 2])
        assert protocol.modifications.md1_deliver_from_source
        assert protocol.modifications.md5_stop_after_delivery

    def test_non_dolev_message_ignored(self):
        config = SystemConfig.for_system(5, 1)
        protocol = DolevBroadcast(1, config, [0, 2])
        assert protocol.on_message(0, b"garbage") == []
        assert protocol.on_message(0, DolevMessage(content=b"raw", path=())) == []

    def test_duplicate_delivery_suppressed(self):
        config = SystemConfig.for_system(5, 0)
        protocol = DolevBroadcast(
            1, config, [0, 2], modifications=ModificationSet.dolev_optimized()
        )
        c = content(source=0)
        first = protocol.on_message(0, DolevMessage(content=c, path=()))
        assert any(isinstance(cmd, RCDeliver) for cmd in first)
        second = protocol.on_message(2, DolevMessage(content=c, path=(0,)))
        assert not any(isinstance(cmd, RCDeliver) for cmd in second)
