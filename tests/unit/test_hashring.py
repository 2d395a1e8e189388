"""The one consistent-hash ring, through both of its users.

``repro.net.hashring.HashRing`` is the only ring in the tree; the
session router hashes ``"session:{name}"`` onto broker shards (64
vnodes) and ``RelayRing`` hashes ``"chunk:{c}"`` onto relays (32
vnodes).  Every ring property is checked through both, and the golden
cases pin the exact owners recorded before the two copies were merged,
so no session and no chunk moved.
"""

import threading

import pytest

from repro.devtools.locktrace import checked
from repro.net.hashring import HashRing
from repro.relay.ring import RelayRing
from repro.serve.shard import shard_for

N_KEYS = 512


class _ShardUser:
    """The router's view: session names onto shard names."""

    nodes = ["shard0", "shard1", "shard2", "shard3"]
    keys = [f"session-{i}" for i in range(N_KEYS)]

    @staticmethod
    def ring(nodes):
        return HashRing(nodes, vnodes=64)

    @staticmethod
    def owner(ring, key):
        return ring.owner_of(f"session:{key}")


class _RelayUser:
    """The relay tier's view: frame ids (one per chunk) onto relays."""

    nodes = ["relay0", "relay1", "relay2", "relay3"]
    keys = list(range(N_KEYS))

    @staticmethod
    def ring(nodes):
        return RelayRing(nodes, chunk_frames=1)

    @staticmethod
    def owner(ring, key):
        return ring.owner(key)


@pytest.fixture(params=[_ShardUser, _RelayUser], ids=["shard", "relay"])
def user(request):
    return request.param


def _owners(user, ring):
    return {k: user.owner(ring, k) for k in user.keys}


class TestRingProperties:
    def test_owners_do_not_depend_on_insertion_order(self, user):
        forward = user.ring(user.nodes)
        backward = user.ring(list(reversed(user.nodes)))
        assert _owners(user, forward) == _owners(user, backward)

    def test_every_node_owns_something(self, user):
        assert set(_owners(user, user.ring(user.nodes)).values()) == set(
            user.nodes
        )

    def test_remove_only_moves_the_departed_nodes_keys(self, user):
        ring = user.ring(user.nodes)
        before = _owners(user, ring)
        gone = user.nodes[2]
        ring.remove(gone)
        after = _owners(user, ring)
        for k in user.keys:
            if before[k] != gone:
                assert after[k] == before[k]  # survivors keep theirs
            else:
                assert after[k] != gone
        assert gone not in ring

    def test_add_only_takes_keys_for_the_new_node(self, user):
        ring = user.ring(user.nodes)
        before = _owners(user, ring)
        ring.add("newcomer")
        after = _owners(user, ring)
        moved = [k for k in user.keys if before[k] != after[k]]
        assert all(after[k] == "newcomer" for k in moved)
        # roughly 1/5 of the keyspace, not all of it (modulo hashing
        # would reshuffle ~80%)
        assert 0.05 < len(moved) / len(user.keys) < 0.40
        ring.remove("newcomer")
        assert _owners(user, ring) == before

    def test_lookups_stay_consistent_under_membership_churn(self, user):
        ring = user.ring(user.nodes)
        allowed = set(user.nodes) | {"extra"}
        stop = threading.Event()
        bad: list = []

        def lookups():
            while not stop.is_set():
                for k in user.keys[::7]:
                    owner = user.owner(ring, k)
                    if owner not in allowed:
                        bad.append(owner)

        def churn():
            for _ in range(200):
                ring.remove(user.nodes[3])
                ring.add(user.nodes[3])
                ring.add("extra")
                ring.remove("extra")
            stop.set()

        with checked(patch_channel=False):
            threads = [
                threading.Thread(target=lookups),
                threading.Thread(target=lookups),
                threading.Thread(target=churn),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not bad
        assert ring.names() == tuple(sorted(user.nodes))


class TestRingEdges:
    def test_empty_ring_owns_nothing(self):
        assert HashRing(vnodes=8).owner_of("anything") is None

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_duplicate_add_and_missing_remove_are_noops(self):
        ring = HashRing(["a", "b"], vnodes=8)
        ring.add("a")
        ring.remove("ghost")
        assert len(ring) == 2
        assert ring.names() == ("a", "b")


#: owners recorded at the commit before the rings were merged
#: (``serve/shard.py`` ``_ring_points``/``_owner`` and ``relay/ring.py``)
GOLDEN_SESSIONS = (
    [f"viewer{i:02d}" for i in range(16)]
    + [f"wan{i:02d}" for i in range(4)]
    + [f"pool{i:02d}" for i in range(4)]
    + ["relay0", "relay1", "alice", "bob"]
)
GOLDEN_SHARD_DIGITS = "1330220222100212200212020231"
GOLDEN_RELAY_DIGITS = "".join(
    digit * 16
    for digit in "13330013022332311300332031203121"
)


class TestGoldenOwnership:
    def test_sessions_land_on_the_same_shards_as_before(self):
        shards = [f"shard{i}" for i in range(4)]
        assert [
            shard_for(name, shards) for name in GOLDEN_SESSIONS
        ] == [f"shard{d}" for d in GOLDEN_SHARD_DIGITS]

    def test_frames_land_on_the_same_relays_as_before(self):
        ring = RelayRing([f"relay{i}" for i in range(4)])
        assert [ring.owner(f) for f in range(512)] == [
            f"relay{d}" for d in GOLDEN_RELAY_DIGITS
        ]

    def test_two_relay_ring_chunks_land_as_before(self):
        """The shape every relay scenario and the e2e benchmark use:
        two relays, 16-frame chunks — first 64 chunks."""
        ring = RelayRing(["relay0", "relay1"], chunk_frames=16)
        assert "".join(
            ring.owner(f)[-1] for f in range(0, 1024, 16)
        ) == "1111001001100011100011001100110100011110100010100000010110000101"
