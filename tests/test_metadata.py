"""Tests for metadata structures: layouts, dirents, ACLs, ring, leases."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import Credentials, DirEntry, FileType
from repro.metadata import acl, dirent
from repro.metadata.chash import ConsistentHashRing, file_placement_key
from repro.metadata.layout import (
    DIR_INODE,
    FILE_ACCESS,
    FILE_CONTENT,
    FILE_COUPLED,
    FixedLayout,
)
from repro.metadata.lease import LeaseCache


class TestFixedLayout:
    def test_paper_field_sets_match_table1(self):
        assert DIR_INODE.field_names == ["ctime", "mode", "uid", "gid", "uuid"]
        assert FILE_ACCESS.field_names == ["ctime", "mode", "uid", "gid"]
        assert FILE_CONTENT.field_names == ["mtime", "atime", "size", "bsize", "suuid", "sid"]

    def test_dir_inode_is_256_bytes(self):
        # paper §3.2.2 allocates 256 bytes per d-inode
        assert DIR_INODE.total_size == 256
        assert len(DIR_INODE.pack()) == 256

    def test_access_part_much_smaller_than_coupled(self):
        # the whole point of decoupling: the per-op value is small
        assert FILE_ACCESS.total_size < FILE_COUPLED.total_size / 4

    def test_pack_unpack_roundtrip(self):
        buf = FILE_CONTENT.pack(mtime=1.5, atime=2.5, size=4096, bsize=4096, suuid=77, sid=3)
        got = FILE_CONTENT.unpack(buf)
        assert got == {
            "mtime": 1.5,
            "atime": 2.5,
            "size": 4096,
            "bsize": 4096,
            "suuid": 77,
            "sid": 3,
        }

    def test_field_read_write_in_place(self):
        buf = FILE_ACCESS.pack(ctime=1.0, mode=0o644, uid=10, gid=20)
        buf2 = FILE_ACCESS.write(buf, "mode", 0o600)
        assert FILE_ACCESS.read(buf2, "mode") == 0o600
        assert FILE_ACCESS.read(buf2, "uid") == 10  # neighbours untouched
        assert len(buf2) == len(buf)

    def test_offsets_are_disjoint_and_ordered(self):
        offs = [(FILE_CONTENT.offset(f), FILE_CONTENT.size(f)) for f in FILE_CONTENT.field_names]
        end = 0
        for off, size in offs:
            assert off == end
            end = off + size
        assert end == FILE_CONTENT.packed_size

    def test_encode_decode_field(self):
        raw = FILE_CONTENT.encode_field("size", 123456)
        assert FILE_CONTENT.decode_field("size", raw) == 123456
        assert len(raw) == FILE_CONTENT.size("size")

    def test_record_codec_matches_pack(self):
        values = dict(mtime=1.5, atime=2.5, size=9, bsize=4096, suuid=77, sid=3)
        codec = FILE_CONTENT.record_codec()
        assert codec.pack(*values.values()) == FILE_CONTENT.pack(**values)
        with pytest.raises(ValueError):
            DIR_INODE.record_codec()  # tail-padded to 256 bytes

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            FILE_ACCESS.read(b"\x00" * 3, "mode")

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            FILE_ACCESS.read(FILE_ACCESS.pack(), "nope")
        with pytest.raises(ValueError):
            FixedLayout("bad", [("a", "Q")], total_size=2)

    @given(
        st.floats(0, 2**31, allow_nan=False),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_access_roundtrip_property(self, ctime, mode, uid, gid):
        buf = FILE_ACCESS.pack(ctime=ctime, mode=mode, uid=uid, gid=gid)
        assert FILE_ACCESS.read(buf, "mode") == mode
        assert FILE_ACCESS.read(buf, "uid") == uid
        assert FILE_ACCESS.read(buf, "gid") == gid
        assert FILE_ACCESS.read(buf, "ctime") == ctime


class TestDirent:
    def test_pack_iter_roundtrip(self):
        buf = dirent.pack_entry("file.txt", 42, FileType.FILE)
        buf += dirent.pack_entry("subdir", 43, FileType.DIRECTORY)
        got = dirent.decode(buf)
        assert got == [
            DirEntry("file.txt", 42, FileType.FILE),
            DirEntry("subdir", 43, FileType.DIRECTORY),
        ]

    def test_find_entry(self):
        buf = b"".join(
            dirent.pack_entry(f"f{i}", i, FileType.FILE) for i in range(10)
        )
        assert dirent.find_entry(buf, "f7") == DirEntry("f7", 7, FileType.FILE)
        assert dirent.find_entry(buf, "missing") is None

    def test_remove_entry(self):
        buf = b"".join(dirent.pack_entry(f"f{i}", i, FileType.FILE) for i in range(3))
        buf2, removed = dirent.remove_entry(buf, "f1")
        assert removed
        assert dirent.names(buf2) == ["f0", "f2"]
        buf3, removed = dirent.remove_entry(buf2, "f1")
        assert not removed
        assert buf3 == buf2

    def test_count_and_empty(self):
        assert dirent.count_entries(b"") == 0
        buf = dirent.pack_entry("x", 1, FileType.FILE)
        assert dirent.count_entries(buf) == 1

    def test_unicode_names(self):
        buf = dirent.pack_entry("файл-数据", 9, FileType.FILE)
        assert dirent.names(buf) == ["файл-数据"]

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            dirent.pack_entry("", 1, FileType.FILE)

    @given(st.lists(st.text(alphabet="abcXYZ09_-.", min_size=1, max_size=20), unique=True, max_size=30))
    def test_roundtrip_property(self, names_list):
        buf = b"".join(dirent.pack_entry(n, i, FileType.FILE) for i, n in enumerate(names_list))
        assert dirent.names(buf) == names_list


class TestAcl:
    def test_root_always_allowed(self):
        assert acl.may_access(0o000, 1, 1, Credentials(0, 0), acl.R_OK | acl.W_OK)

    def test_owner_bits(self):
        cred = Credentials(10, 20)
        assert acl.may_access(0o700, 10, 99, cred, acl.R_OK | acl.W_OK | acl.X_OK)
        assert not acl.may_access(0o070, 10, 99, cred, acl.R_OK)  # owner class wins

    def test_group_bits(self):
        cred = Credentials(10, 20)
        assert acl.may_access(0o070, 99, 20, cred, acl.R_OK | acl.W_OK | acl.X_OK)
        assert not acl.may_access(0o007, 99, 20, cred, acl.R_OK)

    def test_other_bits(self):
        cred = Credentials(10, 20)
        assert acl.may_access(0o005, 99, 99, cred, acl.R_OK | acl.X_OK)
        assert not acl.may_access(0o005, 99, 99, cred, acl.W_OK)

    def test_ancestor_exec_chain(self):
        cred = Credentials(10, 20)
        ok = [(0o755, 0, 0), (0o711, 99, 99)]
        assert acl.check_ancestor_exec(ok, cred)
        blocked = ok + [(0o700, 99, 99)]
        assert not acl.check_ancestor_exec(blocked, cred)


class TestConsistentHash:
    def test_lookup_deterministic(self):
        r1, r2 = ConsistentHashRing(), ConsistentHashRing()
        for n in ["a", "b", "c"]:
            r1.add_node(n)
            r2.add_node(n)
        keys = [f"key{i}".encode() for i in range(100)]
        assert [r1.lookup(k) for k in keys] == [r2.lookup(k) for k in keys]

    def test_balance_reasonable(self):
        ring = ConsistentHashRing(vnodes=128)
        for i in range(8):
            ring.add_node(f"fms{i}")
        from collections import Counter

        counts = Counter(ring.lookup(f"k{i}".encode()) for i in range(8000))
        assert len(counts) == 8
        assert min(counts.values()) > 8000 / 8 * 0.5
        assert max(counts.values()) < 8000 / 8 * 1.8

    def test_remove_node_only_moves_its_keys(self):
        ring = ConsistentHashRing()
        for n in ["a", "b", "c", "d"]:
            ring.add_node(n)
        keys = [f"key{i}".encode() for i in range(500)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove_node("c")
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] != "c":
                assert after[k] == before[k]
            else:
                assert after[k] != "c"

    def test_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing().lookup(b"k")

    def test_duplicate_and_missing_nodes(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(ValueError):
            ring.remove_node("zz")

    def test_placement_key_distinct_per_parent(self):
        # same file name in different directories must hash independently
        assert file_placement_key(1, "data") != file_placement_key(2, "data")
        assert file_placement_key(1, "a") != file_placement_key(1, "b")


class TestRingMemoLRU:
    """The process-wide ring memo is a bounded LRU: membership churn
    (replication and elasticity runs flip through many node sets) must not
    grow it without bound, and re-touching a hot membership must refresh
    its recency so churn evicts cold entries first."""

    def test_memo_bounded_under_membership_churn(self):
        from repro.metadata import chash

        hot = ConsistentHashRing(vnodes=8)
        hot.add_node("hot0")
        hot.add_node("hot1")
        want = {k: hot.lookup(k) for k in (f"k{i}".encode() for i in range(20))}
        for i in range(chash._RING_MEMO_MAX + 50):
            churn = ConsistentHashRing(vnodes=8)
            churn.add_node(f"churn{i}")
        assert len(chash._RING_MEMO) <= chash._RING_MEMO_MAX
        # lookups stay correct whether or not the memo kept the membership
        again = ConsistentHashRing(vnodes=8)
        again.add_node("hot0")
        again.add_node("hot1")
        assert {k: again.lookup(k) for k in want} == want
        assert len(chash._RING_MEMO) <= chash._RING_MEMO_MAX

    def test_memo_hit_refreshes_recency(self):
        from repro.metadata import chash

        chash._RING_MEMO.clear()
        cap = chash._RING_MEMO_MAX
        for i in range(cap):
            r = ConsistentHashRing(vnodes=4)
            r.add_node(f"m{i}")
        assert len(chash._RING_MEMO) == cap
        # a memo hit (identical membership) must move m0 to the tail ...
        touched = ConsistentHashRing(vnodes=4)
        touched.add_node("m0")
        assert len(chash._RING_MEMO) == cap  # hit, not an insert
        # ... so the next eviction claims the coldest entry, m1, not m0
        fresh = ConsistentHashRing(vnodes=4)
        fresh.add_node("fresh")
        def key(n):
            return (frozenset({n}), 4)

        assert key("m0") in chash._RING_MEMO
        assert key("m1") not in chash._RING_MEMO
        assert len(chash._RING_MEMO) <= cap

    def test_identical_memberships_share_ring_storage(self):
        a = ConsistentHashRing(vnodes=16)
        b = ConsistentHashRing(vnodes=16)
        for n in ("x", "y", "z"):
            a.add_node(n)
            b.add_node(n)
        assert a._ring is b._ring  # memoized tuple, not a rebuilt copy
        assert a._points is b._points


class TestLeaseCache:
    def test_hit_within_lease(self):
        c = LeaseCache(lease_seconds=30)
        c.put("k", "v", now_us=0)
        assert c.get("k", now_us=29_999_999) == "v"
        assert c.hits == 1

    def test_expires_exactly_at_lease(self):
        c = LeaseCache(lease_seconds=30)
        c.put("k", "v", now_us=0)
        assert c.get("k", now_us=30_000_000) is None
        assert c.expirations == 1

    def test_miss_unknown(self):
        c = LeaseCache()
        assert c.get("nope", 0) is None
        assert c.misses == 1

    def test_lru_eviction(self):
        c = LeaseCache(capacity=2)
        c.put("a", 1, 0)
        c.put("b", 2, 0)
        c.get("a", 1)  # touch a
        c.put("c", 3, 0)  # evicts b
        assert c.get("b", 1) is None
        assert c.get("a", 1) == 1
        assert c.get("c", 1) == 3

    def test_invalidate_prefix(self):
        c = LeaseCache()
        for p in ["/a", "/a/b", "/a/bb", "/ax", "/z"]:
            c.put(p, p, 0)
        assert c.invalidate_prefix("/a/") == 2
        assert c.get("/a", 1) == "/a"
        assert c.get("/a/b", 1) is None
        assert c.get("/ax", 1) == "/ax"

    def test_put_refreshes_lease(self):
        c = LeaseCache(lease_seconds=1)
        c.put("k", "v1", now_us=0)
        c.put("k", "v2", now_us=900_000)
        assert c.get("k", now_us=1_500_000) == "v2"

    def test_hit_rate(self):
        c = LeaseCache()
        c.put("k", 1, 0)
        c.get("k", 1)
        c.get("x", 1)
        assert c.hit_rate == 0.5

    def test_full_cache_evicts_expired_before_live_lru(self):
        c = LeaseCache(lease_seconds=1, capacity=3)
        c.put("dead", 1, now_us=0)
        c.put("live-old", 2, now_us=2_000_000)
        c.put("live-new", 3, now_us=2_000_001)
        # "dead" has expired by now: it must be the eviction victim even
        # though "live-old" is the LRU entry
        c.put("fresh", 4, now_us=2_000_002)
        assert len(c) == 3
        assert c.expirations == 1
        assert c.get("live-old", 2_000_003) == 2
        assert c.get("fresh", 2_000_003) == 4
        assert c.get("dead", 2_000_003) is None

    def test_renewed_entry_not_evicted_as_expired(self):
        c = LeaseCache(lease_seconds=1, capacity=2)
        c.put("a", 1, now_us=0)
        assert c.renew("a", 900_000)
        c.put("b", 2, now_us=1_500_000)
        # "a" was renewed at 0.9 s: still live at 1.5 s despite the stale
        # heap tuple from its original insertion
        c.put("c", 3, now_us=1_600_000)  # over capacity: LRU evicts "a"...
        assert c.expirations == 0
        assert c.get("b", 1_600_001) == 2
        assert c.get("c", 1_600_001) == 3

    def test_invalidate_prefix_is_sublinear_at_64k_entries(self):
        c = LeaseCache(capacity=1 << 17)
        n = 1 << 16
        for i in range(n):
            c.put(f"/dirs/d{i:05d}/sub", i, 0)
        c.invalidate_prefix("/warmup-none/")  # absorbs the one-time sort
        c.prefix_scan_steps = 0
        removed = c.invalidate_prefix("/dirs/d00512/")
        assert removed == 1
        # O(log n + hits), not O(n): a full scan would be 65536 steps
        assert c.prefix_scan_steps <= 8
        assert len(c) == n - 1

    def test_prefix_index_survives_rename_bursts(self):
        c = LeaseCache()
        for p in ["/a/x", "/a/y", "/b/x", "/c/x"]:
            c.put(p, p, 0)
        # d-rename sequence: invalidate + invalidate_prefix, repeatedly
        c.invalidate("/a/x")
        assert c.invalidate_prefix("/a/") == 1
        c.put("/a2/x", 1, 0)  # new key after the index was built
        assert c.invalidate_prefix("/a2/") == 1
        assert c.invalidate_prefix("/b/") == 1
        assert c.get("/c/x", 1) == "/c/x"
