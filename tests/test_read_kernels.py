"""The metadata read kernels against references built from public KV calls.

The DMS resolves a path with one kernel (``_resolve``): it probes the
store without metering, unpacks each ancestor's (mode, uid, gid) in one
go and charges every level through one ``Meter.charge_many``.  The FMS
read handlers (``op_getattr``, ``op_open``, ``op_access``,
``op_read_meta``, ``op_readdir``) read the store's dict directly, and
``dirent.decode`` decodes a dirent list in one pass.  Each must be
indistinguishable from the code it replaced, which issued one metered
store call per record.  That code is kept here, written only against the
public store API (``get``/``write_at``/``put``), and every test runs the
same operations on a kernel server and a reference server and compares
what either leaves behind: results, exception type and arguments, the
store's records, the meter's op and byte counts (and their key order) and
its virtual time to the bit, the handler counters, and the charges a
trace sink or a metrics registry saw.
"""

import random
import struct

import pytest

from repro.common import pathutil
from repro.common.errors import CorruptDirents, FSError, NoEntry, PermissionDenied
from repro.common.types import Credentials, DirEntry, FileType, ROOT_CRED
from repro.core.dms import DirectoryMetadataServer, _ekey, _ikey
from repro.core.fms import FileMetadataServer, fkey
from repro.core.multidms import DirectoryShardServer
from repro.kv.meter import Meter
from repro.metadata import dirent
from repro.metadata.acl import X_OK, may_access
from repro.metadata.layout import DIR_INODE, FILE_ACCESS, FILE_CONTENT, FILE_COUPLED
from repro.obs.metrics import MetricsRegistry
from repro.sim.costmodel import CostModel, KVCostPolicy

USER = Credentials(uid=1000, gid=100)
GROUP = Credentials(uid=3000, gid=100)  # USER's group
OTHER = Credentials(uid=2000, gid=200)
DEPTH = 8


# -- reference DMS walk and read handlers (one store.get per record) -------------------


def ref_resolve(dms, path, cred, fetch=True):
    """The ancestor walk plus the target load as separate metered gets."""
    ancestors = pathutil.ancestors(path)
    dms.counters.inc("acl.walk_levels", len(ancestors))
    for anc in ancestors:
        buf = dms.store.get(_ikey(anc))
        if buf is None:
            raise NoEntry(anc)
        mode = DIR_INODE.read(buf, "mode")
        uid = DIR_INODE.read(buf, "uid")
        gid = DIR_INODE.read(buf, "gid")
        if not may_access(mode, uid, gid, cred, X_OK):
            raise PermissionDenied(anc)
    if not fetch:
        return None
    buf = dms.store.get(_ikey(path))
    if buf is None:
        raise NoEntry(path)
    return buf, dms._meta[path]


def ref_lookup(dms, path, cred):
    path = pathutil.normalize(path)
    buf, (mode, uid, gid, uuid) = ref_resolve(dms, path, cred)
    return {"path": path, "uuid": uuid, "mode": mode, "uid": uid, "gid": gid,
            "ctime": DIR_INODE.read(buf, "ctime")}


def ref_dms_readdir(dms, path, cred):
    path = pathutil.normalize(path)
    _, (_, _, _, uuid) = ref_resolve(dms, path, cred)
    return uuid, dms.store.get(_ekey(uuid)) or b""


class _RefWalk:
    """Routes every walking handler (mkdir, rmdir, setattr, rename, the
    deferred batch) through the reference walk."""

    _resolve = ref_resolve


class RefDMS(_RefWalk, DirectoryMetadataServer):
    pass


class RefShard(_RefWalk, DirectoryShardServer):
    pass


# -- reference FMS read handlers ---------------------------------------------------------


def _ref_load(fms, key, name):
    if fms.decoupled:
        a = fms.store.get(b"A:" + key)
        if a is None:
            raise NoEntry(name)
        return a, fms.store.get(b"C:" + key)
    buf = fms._get_coupled(key)
    if buf is None:
        raise NoEntry(name)
    return fms._split_coupled(buf)


def ref_getattr(fms, dir_uuid, name):
    a, c = _ref_load(fms, fkey(dir_uuid, name), name)
    out = FILE_ACCESS.unpack(a)
    out.update(FILE_CONTENT.unpack(c))
    return out


def ref_open(fms, dir_uuid, name, cred, want):
    a, c = _ref_load(fms, fkey(dir_uuid, name), name)
    mode = FILE_ACCESS.read(a, "mode")
    if not may_access(mode, FILE_ACCESS.read(a, "uid"), FILE_ACCESS.read(a, "gid"),
                      cred, want):
        raise PermissionDenied(name)
    return {"uuid": FILE_CONTENT.read(c, "suuid"), "mode": mode,
            "size": FILE_CONTENT.read(c, "size")}


def ref_access(fms, dir_uuid, name, cred, want):
    key = fkey(dir_uuid, name)
    if fms.decoupled:
        a = fms.store.get(b"A:" + key)
        if a is None:
            raise NoEntry(name)
    else:
        a, _ = _ref_load(fms, key, name)
    return may_access(FILE_ACCESS.read(a, "mode"), FILE_ACCESS.read(a, "uid"),
                      FILE_ACCESS.read(a, "gid"), cred, want)


def ref_read_meta(fms, dir_uuid, name, now_s):
    key = fkey(dir_uuid, name)
    if fms.decoupled:
        ckey = b"C:" + key
        c = fms.store.get(ckey)
        if c is None:
            raise NoEntry(name)
        fms.store.write_at(ckey, FILE_CONTENT.offset("atime"),
                           FILE_CONTENT.encode_field("atime", now_s))
        return {"uuid": FILE_CONTENT.read(c, "suuid"),
                "bsize": FILE_CONTENT.read(c, "bsize"),
                "size": FILE_CONTENT.read(c, "size")}
    buf = fms._get_coupled(key)
    if buf is None:
        raise NoEntry(name)
    buf = FILE_COUPLED.write(buf, "atime", now_s)
    fms._put_coupled(key, buf)
    return {"uuid": FILE_COUPLED.read(buf, "suuid"),
            "bsize": FILE_COUPLED.read(buf, "bsize"),
            "size": FILE_COUPLED.read(buf, "size")}


def ref_fms_readdir(fms, dir_uuid):
    return fms.store.get(b"E:" + dir_uuid.to_bytes(8, "big")) or b""


def ref_decode(buf):
    """The generator decoder the one-pass ``decode`` replaced."""
    off = 0
    while off < len(buf):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off:off + nlen].decode("utf-8")
        off += nlen
        uuid, ftype = struct.unpack_from("<QB", buf, off)
        off += 9
        yield DirEntry(name, uuid, FileType(ftype))


# -- harness -----------------------------------------------------------------------------


class Recorder:
    """A meter trace sink that keeps every charge it is shown."""

    def __init__(self):
        self.charges = []

    def kv(self, op, nbytes, cost_us):
        self.charges.append((op, nbytes, cost_us.hex()))


def _meter(hook):
    meter = Meter(KVCostPolicy(CostModel()))
    if hook == "trace":
        meter.trace = Recorder()
    elif hook == "registry":
        meter.bind_registry(MetricsRegistry())
    return meter


class Pair:
    """A kernel server and a reference server driven with the same calls."""

    def __init__(self, kernel, ref, hook=None):
        self.kernel, self.ref = kernel, ref
        for server in (kernel, ref):
            server.attach_meter(_meter(hook))

    def call(self, kernel_op, ref_op=None):
        """Run ``kernel_op`` on the kernel and ``ref_op`` (default: the same
        callable) on the reference; both must end the same way."""
        outs = []
        for server, op in ((self.kernel, kernel_op), (self.ref, ref_op or kernel_op)):
            try:
                outs.append(("ok", op(server)))
            except (FSError, ValueError) as e:
                outs.append((type(e).__name__, e.args))
        assert outs[0] == outs[1]
        self.check()
        return outs[0]

    def check(self):
        k, r = self.kernel, self.ref
        assert records(k.store) == records(r.store)
        km, rm = k.meter, r.meter
        assert km.op_counts == rm.op_counts
        assert list(km.op_counts) == list(rm.op_counts)
        assert km.byte_counts == rm.byte_counts
        assert list(km.byte_counts) == list(rm.byte_counts)
        assert km.total_us.hex() == rm.total_us.hex()
        assert dict(k.counters.values) == dict(r.counters.values)
        if km.trace is not None:
            assert km.trace.charges == rm.trace.charges
        if km._registry is not None:
            assert (km._registry.snapshot()["counters"]
                    == rm._registry.snapshot()["counters"])


def records(store):
    """A store's records, read without charging its meter."""
    meter = store.meter
    store.meter = Meter()
    try:
        return list(store.items())
    finally:
        store.meter = meter


def chain(depth):
    """``/d1/d2/.../d<depth>`` (``/`` for depth 0)."""
    return "/" + "/".join(f"d{i}" for i in range(1, depth + 1))


def dms_pair(backend="btree", hook=None, tmp_path=None, shard=False):
    servers = []
    for side in ("kernel", "ref"):
        wal = str(tmp_path / f"{side}.wal") if tmp_path is not None else None
        if shard:
            cls = DirectoryShardServer if side == "kernel" else RefShard
            servers.append(cls(0, backend=backend, has_root=True, wal_path=wal))
        else:
            cls = DirectoryMetadataServer if side == "kernel" else RefDMS
            servers.append(cls(backend=backend, wal_path=wal))
    p = Pair(*servers, hook=hook)
    # under the root-owned root, a user-owned chain (0o755) and a sibling
    # closed to others (0o750) at every level
    for depth in range(1, DEPTH + 1):
        for path, mode in ((chain(depth), 0o755), (chain(depth) + "x", 0o750)):
            p.call(lambda s: s.op_mkdir(path, mode, ROOT_CRED, float(depth)))
            p.call(lambda s: s.op_setattr(path, ROOT_CRED, 0.5, uid=USER.uid,
                                          gid=USER.gid))
    return p


def lookup(p, path, cred):
    return p.call(lambda s: s.op_lookup(path, cred), lambda s: ref_lookup(s, path, cred))


def readdir(p, path, cred):
    return p.call(lambda s: s.op_readdir(path, cred),
                  lambda s: ref_dms_readdir(s, path, cred))


DMS_MODES = [
    pytest.param(dict(backend="btree"), id="btree"),
    pytest.param(dict(backend="hash"), id="hash"),
    pytest.param(dict(backend="btree", hook="trace"), id="btree-trace"),
    pytest.param(dict(backend="hash", hook="registry"), id="hash-registry"),
    pytest.param(dict(backend="btree", shard=True), id="shard"),
]
CREDS = [pytest.param(ROOT_CRED, id="root"), pytest.param(USER, id="user"),
         pytest.param(GROUP, id="group"), pytest.param(OTHER, id="other")]


# -- DMS ---------------------------------------------------------------------------------


@pytest.mark.parametrize("mode", DMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
class TestResolve:
    def test_lookup_and_readdir_at_every_depth(self, mode, cred):
        p = dms_pair(**mode)
        for depth in range(DEPTH + 1):
            assert lookup(p, chain(depth), cred)[0] == "ok"
            readdir(p, chain(depth), cred)
            p.call(lambda s, d=depth: s.op_stat(chain(d), cred),
                   lambda s, d=depth: ref_lookup(s, chain(d), cred))

    def test_missing_ancestor_at_every_level(self, mode, cred):
        p = dms_pair(**mode)
        for level in range(1, DEPTH + 1):
            # the walk fails at the first ancestor that does not exist
            comps = ([f"d{i}" for i in range(1, level)] + ["gone"]
                     + [f"d{i}" for i in range(level + 1, DEPTH + 1)] + ["leaf"])
            missing = "/" + "/".join(comps[:level])
            path = "/" + "/".join(comps)
            assert lookup(p, path, cred) == ("NoEntry", (f"NoEntry: {missing}",))
            readdir(p, path, cred)

    def test_missing_target(self, mode, cred):
        p = dms_pair(**mode)
        for depth in range(DEPTH):
            assert lookup(p, chain(depth).rstrip("/") + "/nope", cred)[0] == "NoEntry"

    def test_permission_denied_at_every_level(self, mode, cred):
        for level in range(DEPTH + 1):
            p = dms_pair(**mode)
            # 0o701 closes one level to its group: root:0 owns "/",
            # USER:100 every other level
            closed = chain(level)
            p.call(lambda s: s.op_setattr(closed, ROOT_CRED, 9.0, mode=0o701))
            out = lookup(p, chain(DEPTH) + "/leaf", cred)
            if cred == GROUP and level > 0:
                assert out == ("PermissionDenied", (f"PermissionDenied: {closed}",))
            else:
                assert out[0] == "NoEntry"
            # the 0o750 siblings deny only others
            out = lookup(p, chain(max(level, 1)) + "x/in", cred)
            assert out[0] == ("PermissionDenied" if cred == OTHER else "NoEntry")

    def test_mutations_walk_the_same(self, mode, cred):
        p = dms_pair(**mode)
        leaf = chain(DEPTH)
        p.call(lambda s: s.op_setattr(leaf, cred, 3.0, mode=0o711))
        p.call(lambda s: s.op_setattr(leaf, cred, 3.5, uid=7, gid=8))
        p.call(lambda s: s.op_mkdir(leaf + "/new", 0o755, cred, 4.0))
        p.call(lambda s: s.op_rename(leaf + "/new", chain(3) + "/moved", cred))
        p.call(lambda s: s.op_rename(chain(2) + "x", chain(5) + "/moved2", cred))
        p.call(lambda s: s.op_rmdir(chain(3) + "/moved", cred))
        p.call(lambda s: s.op_rmdir(chain(4), cred))  # not empty
        p.call(lambda s: s.op_apply_batch((
            ("mkdir", chain(6) + "/b1", 0o755, cred, 5.0, (1 << 48) | 900),
            ("mkdir", chain(6) + "/b2", 0o755, cred, 5.0, (1 << 48) | 901),
            ("mkdir", chain(6) + "/b1/c", 0o755, cred, 5.0, (1 << 48) | 902),
            ("mkdir", "/gone/b3", 0o755, cred, 5.0, (1 << 48) | 903),
            ("dsetattr", chain(6) + "/b2", cred, 6.0, 0o700, None, None),
        )))


@pytest.mark.parametrize("backend", ["btree", "hash"])
def test_wal_attached_store(tmp_path, backend):
    p = dms_pair(backend=backend, tmp_path=tmp_path)
    for depth in range(DEPTH + 1):
        lookup(p, chain(depth), USER)
    lookup(p, chain(4) + "/nope/x", USER)
    p.call(lambda s: s.op_mkdir(chain(DEPTH) + "/w", 0o755, USER, 2.0))
    for server in (p.kernel, p.ref):
        server.store.close()
    assert ((tmp_path / "kernel.wal").read_bytes()
            == (tmp_path / "ref.wal").read_bytes())


@pytest.mark.parametrize("cred", CREDS)
@pytest.mark.parametrize("level", range(DEPTH + 1))
def test_malformed_dinode_raises_the_layout_error(level, cred):
    p = dms_pair(hook="trace")
    bad = chain(level)
    for server in (p.kernel, p.ref):
        server.store.put(_ikey(bad), server.store.get(_ikey(bad))[:-1])
    error = ("ValueError", ("dir_inode: buffer is 255 bytes, expected 256",))
    # a malformed ancestor raises before any permission check ...
    assert lookup(p, chain(DEPTH) + "/leaf", cred) == error
    # ... a malformed target wherever its record is decoded
    assert lookup(p, bad, cred) == error
    assert readdir(p, bad, cred)[0] == "ok"


def test_randomized_lookups_match():
    rng = random.Random(13)
    p = dms_pair(backend="btree", hook="trace")
    names = [chain(d) for d in range(DEPTH + 1)] + [chain(d) + "x" for d in range(1, 9)]
    for _ in range(300):
        path = rng.choice(names)
        if rng.random() < 0.3:
            path = path.rstrip("/") + "/" + rng.choice(["d1", "zz", "d3x"])
        cred = rng.choice([ROOT_CRED, USER, GROUP, OTHER])
        if rng.random() < 0.5:
            lookup(p, path, cred)
        else:
            readdir(p, path, cred)


# -- FMS ---------------------------------------------------------------------------------


FMS_MODES = [
    pytest.param(dict(decoupled=True), id="decoupled"),
    pytest.param(dict(decoupled=False), id="coupled"),
    pytest.param(dict(decoupled=True, hook="trace"), id="decoupled-trace"),
    pytest.param(dict(decoupled=False, hook="trace"), id="coupled-trace"),
    pytest.param(dict(decoupled=True, hook="registry"), id="registry"),
]


def fms_pair(decoupled=True, hook=None, tmp_path=None):
    servers = []
    for side in ("kernel", "ref"):
        wal = str(tmp_path / f"{side}.wal") if tmp_path is not None else None
        servers.append(FileMetadataServer(sid=2, decoupled=decoupled, cost=CostModel(),
                                          wal_path=wal))
    p = Pair(*servers, hook=hook)
    p.call(lambda s: s.op_create(5, "a", 0o640, USER, 1.0))
    p.call(lambda s: s.op_create(5, "файл", 0o600, OTHER, 2.0, 8192))
    p.call(lambda s: s.op_create(9, "b", 0o755, ROOT_CRED, 3.0))
    p.call(lambda s: s.op_truncate(5, "a", 12345, 4.0))
    return p


def fms_reads(p, dir_uuid, name, cred):
    p.call(lambda s: s.op_getattr(dir_uuid, name),
           lambda s: ref_getattr(s, dir_uuid, name))
    for want in (1, 2, 4, 6):
        p.call(lambda s: s.op_open(dir_uuid, name, cred, want),
               lambda s: ref_open(s, dir_uuid, name, cred, want))
        p.call(lambda s: s.op_access(dir_uuid, name, cred, want),
               lambda s: ref_access(s, dir_uuid, name, cred, want))
    p.call(lambda s: s.op_read_meta(dir_uuid, name, 7.25),
           lambda s: ref_read_meta(s, dir_uuid, name, 7.25))
    p.call(lambda s: s.op_readdir(dir_uuid), lambda s: ref_fms_readdir(s, dir_uuid))


@pytest.mark.parametrize("mode", FMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
def test_fms_reads_match(mode, cred):
    p = fms_pair(**mode)
    for dir_uuid, name in ((5, "a"), (5, "файл"), (9, "b"), (5, "nope"), (77, "a")):
        fms_reads(p, dir_uuid, name, cred)


@pytest.mark.parametrize("decoupled", [True, False])
def test_fms_reads_with_wal_match(tmp_path, decoupled):
    p = fms_pair(decoupled=decoupled, tmp_path=tmp_path)
    fms_reads(p, 5, "a", USER)
    fms_reads(p, 5, "nope", USER)
    for server in (p.kernel, p.ref):
        server.store.close()
    assert ((tmp_path / "kernel.wal").read_bytes()
            == (tmp_path / "ref.wal").read_bytes())


@pytest.mark.parametrize("decoupled", [True, False])
def test_fms_missing_file_errors_carry_the_name(decoupled):
    fms = FileMetadataServer(sid=1, decoupled=decoupled)
    ops = [lambda: fms.op_getattr(5, "nope"),
           lambda: fms.op_open(5, "nope", USER, 4),
           lambda: fms.op_access(5, "nope", USER, 4),
           lambda: fms.op_read_meta(5, "nope", 1.0),
           lambda: fms.op_write_meta(5, "nope", 10, 1.0),
           lambda: fms.op_truncate(5, "nope", 0, 1.0),
           lambda: fms.op_setattr(5, "nope", USER, 1.0, mode=0o600),
           lambda: fms.op_remove(5, "nope", USER),
           lambda: fms.op_export_remove(5, "nope", USER)]
    for op in ops:
        with pytest.raises(NoEntry) as err:
            op()
        assert err.value.args == ("NoEntry: nope",)


# -- dirent decoder -------------------------------------------------------------------------


def _dirent_list(rng, n):
    names = ["x", "файл-数据", "a" * 300, "é", "sub"]
    return b"".join(
        dirent.pack_entry(rng.choice(names) + str(i), rng.getrandbits(64),
                          rng.choice(list(FileType)))
        for i in range(n))


def test_decode_matches_the_generator_decoder():
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 40):
        buf = _dirent_list(rng, n)
        got = dirent.decode(buf)
        assert got == list(ref_decode(buf))
        assert all(type(e.ftype) is FileType for e in got)


def test_decode_rejects_every_truncation():
    buf = _dirent_list(random.Random(6), 4)
    ends = {0}
    for e in dirent.decode(buf):
        ends.add(max(ends) + 2 + len(e.name.encode()) + 9)
    for cut in range(len(buf)):
        if cut in ends:
            assert len(dirent.decode(buf[:cut])) == sorted(ends).index(cut)
            continue
        with pytest.raises(CorruptDirents) as err:
            dirent.decode(buf[:cut])
        assert isinstance(err.value, FSError)
        assert "corrupt dirent list" in str(err.value)


@pytest.mark.parametrize("bad", [
    pytest.param(b"\x02\x00\xff\xfe" + bytes(8) + b"\x01", id="not-utf8"),
    pytest.param(b"\x01\x00a" + bytes(8) + b"\x09", id="unknown-type"),
    pytest.param(b"\x05", id="half-a-length"),
])
def test_decode_rejects_malformed_entries(bad):
    good = dirent.pack_entry("ok", 1, FileType.FILE)
    with pytest.raises(CorruptDirents, match=f"entry at byte {len(good)} "):
        dirent.decode(good + bad)
