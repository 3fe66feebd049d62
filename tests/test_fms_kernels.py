"""The FMS create kernels against a reference built from public KV calls.

``FileMetadataServer.op_create`` and ``op_create_batch`` read and write the
store's dict directly and charge the meter in one go.  They must be
indistinguishable from the handlers they replaced, which issued one store
call per record.  Those handlers are kept here, written only against the
public store API (``get``/``put``/``put_pair``/``append``/``multi_get``/
``multi_put``), and every test runs the same operations on a kernel FMS
and a reference FMS and compares what either leaves behind: the store's
records (bytes and insertion order), the meter's op and byte counts and
its virtual time to the bit, the handler counters, the live-file count,
the uuid allocator, the results, and for WAL-attached stores the log.
"""

import random

import pytest

from repro.common.errors import Exists, InvalidArgument
from repro.common.types import S_IFREG, Credentials, FileType
from repro.common.uuidgen import uuid_fid
from repro.core.fms import _APPLIED, _REPAIR, FileMetadataServer, fkey
from repro.kv.meter import Meter
from repro.kv.wal import OP_PUT, WriteAheadLog, encode_record
from repro.metadata import dirent
from repro.metadata.layout import FILE_ACCESS, FILE_CONTENT, FILE_COUPLED
from repro.obs.metrics import MetricsRegistry
from repro.sim.costmodel import CostModel, KVCostPolicy

_FID_KEY = b"M:fid_ceiling"
CRED = Credentials(uid=1000, gid=100)


# -- reference handlers (one public store call per record) ---------------------------


def _ref_reserve(fms, fid):
    ceiling = fms.store.get(_FID_KEY)
    if ceiling is None or fid > int.from_bytes(ceiling, "big"):
        fms.store.put(_FID_KEY, (fid + fms.FID_RESERVE).to_bytes(8, "big"))


def _ref_parts(fms, mode, cred, now_s, bsize, uuid):
    fmode = S_IFREG | (mode & 0o7777)
    a = FILE_ACCESS.pack(ctime=now_s, mode=fmode, uid=cred.uid, gid=cred.gid)
    c = FILE_CONTENT.pack(mtime=now_s, atime=now_s, size=0, bsize=bsize,
                          suuid=uuid, sid=fms.sid)
    return a, c


def _ref_coupled(a, c):
    return FILE_COUPLED.pack(index_blob=b"", **FILE_ACCESS.unpack(a),
                             **FILE_CONTENT.unpack(c))


def ref_create(fms, dir_uuid, name, mode, cred, now_s, bsize=4096):
    if fms.track_touches:
        fms.touches.setdefault("create", set()).update(("access", "dirent"))
    fms.counters.inc("files.created")
    store = fms.store
    key = fkey(dir_uuid, name)
    if store.get((b"A:" if fms.decoupled else b"F:") + key) is not None:
        raise Exists(name)
    uuid = fms.alloc.allocate()
    _ref_reserve(fms, uuid_fid(uuid))
    a, c = _ref_parts(fms, mode, cred, now_s, bsize, uuid)
    if fms.decoupled:
        store.put_pair(b"A:" + key, a, b"C:" + key, c)
    else:
        buf = _ref_coupled(a, c)
        fms.meter.charge_us(fms.cost.serialize_us(len(buf)), "serialize")
        store.put(b"F:" + key, buf)
    store.append(b"E:" + dir_uuid.to_bytes(8, "big"),
                 dirent.pack_entry(name, uuid, FileType.FILE))
    fms._nfiles += 1
    return uuid


def ref_create_batch(fms, entries):
    if fms.track_touches:
        fms.touches.setdefault("create", set()).update(("access", "dirent"))
    fms.counters.inc("batch.records", len(entries))
    store = fms.store
    prefix = b"A:" if fms.decoupled else b"F:"
    keys = [fkey(e[0], e[1]) for e in entries]
    probes = store.multi_get([prefix + k for k in keys])
    fresh, uuids, exists, seen, repairs = [], [None] * len(entries), [], set(), 0
    for i, (entry, probe) in enumerate(zip(entries, probes)):
        if probe is not None:
            verdict, uuid = fms._probe_verdict(entry, keys[i],
                                               entry[0].to_bytes(8, "big"), probe)
            if verdict == _APPLIED:
                uuids[i] = uuid
            elif verdict == _REPAIR:
                seen.add(keys[i])
                fresh.append(i)
                repairs += 1
            else:
                exists.append(entry[1])
        elif keys[i] in seen:
            exists.append(entry[1])
        else:
            seen.add(keys[i])
            fresh.append(i)
    if not fresh:
        return {"uuids": uuids, "exists": exists}
    new_uuids = [fms.alloc.allocate() for _ in fresh]
    _ref_reserve(fms, uuid_fid(new_uuids[-1]))
    fms.counters.inc("files.created", len(fresh))
    fms.counters.inc("batch.creates", len(fresh))
    pairs, dirents = [], {}
    for i, uuid in zip(fresh, new_uuids):
        dir_uuid, name, mode, cred, now_s, bsize = entries[i]
        uuids[i] = uuid
        a, c = _ref_parts(fms, mode, cred, now_s, bsize, uuid)
        if fms.decoupled:
            pairs += [(b"A:" + keys[i], a), (b"C:" + keys[i], c)]
        else:
            buf = _ref_coupled(a, c)
            fms.meter.charge_us(fms.cost.serialize_us(len(buf)), "serialize")
            pairs.append((b"F:" + keys[i], buf))
        dirents.setdefault(dir_uuid, []).append(
            dirent.pack_entry(name, uuid, FileType.FILE))
    store.multi_put(pairs)
    for dir_uuid, packed in dirents.items():
        store.append(b"E:" + dir_uuid.to_bytes(8, "big"), b"".join(packed))
    fms._nfiles += len(fresh) - repairs
    return {"uuids": uuids, "exists": exists}


# -- harness -----------------------------------------------------------------------------


class Pair:
    """A kernel FMS and a reference FMS driven with the same operations."""

    def __init__(self, tmp_path=None, decoupled=True, track_touches=False,
                 registry=False, sid=3):
        cost = CostModel()
        self.servers = []
        for side in ("kernel", "ref"):
            wal = str(tmp_path / f"{side}.wal") if tmp_path is not None else None
            fms = FileMetadataServer(sid=sid, decoupled=decoupled, cost=cost,
                                     track_touches=track_touches, wal_path=wal)
            meter = Meter(KVCostPolicy(cost))
            if registry:
                meter.bind_registry(MetricsRegistry())
            fms.attach_meter(meter)
            self.servers.append(fms)
        self.kernel, self.ref = self.servers

    def create(self, *args):
        return self._both(lambda f: f.op_create(*args),
                          lambda f: ref_create(f, *args))

    def batch(self, entries):
        return self._both(lambda f: f.op_create_batch(entries),
                          lambda f: ref_create_batch(f, entries))

    def each(self, fn):
        for fms in self.servers:
            fn(fms)

    def _both(self, kernel_op, ref_op):
        outs = []
        for fms, op in ((self.kernel, kernel_op), (self.ref, ref_op)):
            try:
                outs.append(("ok", op(fms)))
            except Exists as e:
                outs.append(("Exists", str(e)))
        assert outs[0] == outs[1]
        self.check()
        return outs[0]

    def check(self):
        k, r = self.kernel, self.ref
        assert list(k.store._data.items()) == list(r.store._data.items())
        assert k.meter.op_counts == r.meter.op_counts
        assert list(k.meter.op_counts) == list(r.meter.op_counts)
        assert k.meter.byte_counts == r.meter.byte_counts
        assert k.meter.total_us.hex() == r.meter.total_us.hex()
        assert dict(k.counters.values) == dict(r.counters.values)
        assert k._nfiles == r._nfiles == k._count_files_unmetered()
        assert k.alloc._next_fid == r.alloc._next_fid
        assert k.touches == r.touches
        if k.meter._registry is not None:
            assert (k.meter._registry.snapshot()["counters"]
                    == r.meter._registry.snapshot()["counters"])


def _entries(names, dir_uuid=5, now_s=1.0, cred=CRED):
    return tuple((dir_uuid, n, 0o644, cred, now_s, 4096) for n in names)


MODES = [
    pytest.param(dict(decoupled=True), id="decoupled"),
    pytest.param(dict(decoupled=False), id="coupled"),
    pytest.param(dict(decoupled=True, track_touches=True), id="touches"),
    pytest.param(dict(decoupled=True, registry=True), id="registry"),
    pytest.param(dict(decoupled=False, registry=True), id="coupled-registry"),
]


# -- op_create ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
class TestCreateKernel:
    def test_fresh_creates(self, mode):
        p = Pair(**mode)
        assert p.create(5, "a", 0o644, CRED, 1.0)[0] == "ok"
        p.create(5, "b", 0o600, CRED, 2.5, 8192)
        p.create(7, "файл-数据", 0o7777, Credentials(0, 0), 3.0)

    def test_duplicate_name_raises_exists(self, mode):
        p = Pair(**mode)
        p.create(5, "a", 0o644, CRED, 1.0)
        assert p.create(5, "a", 0o644, CRED, 2.0)[0] == "Exists"
        p.create(6, "a", 0o644, CRED, 2.0)  # same name, other directory

    def test_creates_across_the_fid_reserve(self, mode):
        p = Pair(**mode)
        n = FileMetadataServer.FID_RESERVE + 2
        for i in range(n):
            p.create(i % 7, f"f{i}", 0o644, CRED, float(i))
        # fid 1 reserved up to 1025; fid 1026 bumped it once more
        assert int.from_bytes(p.kernel.store._data[_FID_KEY], "big") == n + 1024


# -- op_create_batch ---------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
class TestCreateBatchKernel:
    def test_batch_with_in_batch_duplicates(self, mode):
        p = Pair(**mode)
        entries = _entries(["a", "b", "a", "c"]) + _entries(["a", "z"], dir_uuid=9)
        out = p.batch(entries)[1]
        assert out["exists"] == ["a"]
        assert out["uuids"][2] is None

    def test_empty_and_single_entry_batches(self, mode):
        p = Pair(**mode)
        p.batch(())
        p.batch(_entries(["only"]))

    def test_replayed_batch_is_applied_once(self, mode):
        p = Pair(**mode)
        entries = _entries(["a", "b", "c"])
        first = p.batch(entries)[1]
        again = p.batch(entries)[1]  # a retried flush: every entry _APPLIED
        assert again == first

    def test_replay_repairs_a_lost_dirent(self, mode):
        p = Pair(**mode)
        entries = _entries(["a", "b"])
        p.batch(entries)
        p.each(lambda f: f.store._data.pop(b"E:" + (5).to_bytes(8, "big")))
        p.batch(entries + _entries(["c"]))

    def test_conflict_and_fresh_mixed(self, mode):
        p = Pair(**mode)
        p.batch(_entries(["a"], now_s=1.0))
        out = p.batch(_entries(["a", "b"], now_s=2.0))[1]
        assert out["exists"] == ["a"]

    def test_batches_across_the_fid_reserve(self, mode):
        p = Pair(**mode)
        for k in range(3):
            names = [f"f{k}-{i}" for i in range(500)]
            p.batch(_entries(names, dir_uuid=k, now_s=float(k)))


def test_repair_mid_batch_keeps_entry_order():
    """A remnant (access part without content part, ``_REPAIR``) between
    replayed entries is re-created in entry order, counted once."""
    p = Pair(decoupled=True)
    entries = _entries(["a", "b", "c"])
    p.batch(entries)
    p.each(lambda f: f.store._data.pop(b"C:" + fkey(5, "b")))
    out = p.batch(entries + _entries(["e"]))[1]
    assert out["exists"] == []
    assert p.kernel.counters.get("batch.deduped") == 2


def test_torn_wal_tail_repair_matches(tmp_path):
    """A crash tears the batch's log inside the last content part: after
    replay that file has its access part only, and the retried flush
    re-creates it (``_REPAIR``) and restores the dirents identically."""
    p = Pair(tmp_path, decoupled=True)
    entries = _entries(["a", "b", "c", "d"])
    p.batch(entries)
    ekey = b"E:" + (5).to_bytes(8, "big")
    dirent_record = len(encode_record(OP_PUT, ekey, p.kernel.store._data[ekey]))
    p.each(lambda f: f.crash(torn_tail_bytes=dirent_record + 5))
    p.each(lambda f: f.restart())
    p.check()
    assert b"A:" + fkey(5, "d") in p.kernel.store._data
    assert b"C:" + fkey(5, "d") not in p.kernel.store._data
    out = p.batch(entries)[1]
    assert out["exists"] == [] and None not in out["uuids"]
    assert p.kernel.counters.get("batch.deduped") == 3


def test_wal_records_and_replay_match(tmp_path):
    p = Pair(tmp_path, decoupled=True)
    for i in range(FileMetadataServer.FID_RESERVE + 3):
        p.create(i % 5, f"f{i}", 0o644, CRED, float(i))
    p.create(1, "f1", 0o644, CRED, 9.0)  # Exists: nothing logged
    p.batch(_entries(["x", "y", "x"]) + _entries(["w"], dir_uuid=2))
    p.batch(_entries(["x", "y"]))  # replay
    k_wal, r_wal = p.kernel.store._wal, p.ref.store._wal
    assert k_wal.commits == r_wal.commits
    p.each(lambda f: f.store.close())
    kernel_log = list(WriteAheadLog.replay(str(tmp_path / "kernel.wal")))
    ref_log = list(WriteAheadLog.replay(str(tmp_path / "ref.wal")))
    assert kernel_log == ref_log
    # ceiling first, then access, content, dirent for a fresh create
    assert [k[:2] for _, k, _ in kernel_log[:4]] == [b"M:", b"A:", b"C:", b"E:"]
    restarted = FileMetadataServer(sid=3, wal_path=str(tmp_path / "kernel.wal"))
    assert restarted._nfiles == p.kernel._nfiles


def test_coupled_wal_replay_matches(tmp_path):
    p = Pair(tmp_path, decoupled=False)
    for i in range(20):
        p.create(i % 3, f"f{i}", 0o640, CRED, float(i))
    p.batch(_entries(["b0", "b1", "b0"]))
    p.each(lambda f: f.store.close())
    assert (list(WriteAheadLog.replay(str(tmp_path / "kernel.wal")))
            == list(WriteAheadLog.replay(str(tmp_path / "ref.wal"))))


def test_randomized_create_streams_match():
    rng = random.Random(20261017)
    for decoupled in (True, False):
        p = Pair(decoupled=decoupled)
        for step in range(300):
            names = [f"n{rng.randrange(60)}" for _ in range(rng.randrange(1, 6))]
            if rng.random() < 0.5:
                p.create(rng.randrange(4), names[0], 0o644, CRED, float(step))
            else:
                p.batch(_entries(names, dir_uuid=rng.randrange(4), now_s=float(step)))


# -- bad names ---------------------------------------------------------------------------


BAD_NAMES = [pytest.param("", id="empty"), pytest.param("x" * 65536, id="too-long"),
             pytest.param("é" * 32768, id="too-long-utf8")]


def _state(fms):
    return (list(fms.store._data.items()), fms._nfiles, fms.alloc._next_fid,
            dict(fms.meter.op_counts), fms.meter.total_us)


@pytest.mark.parametrize("decoupled", [True, False])
@pytest.mark.parametrize("name", BAD_NAMES)
def test_bad_name_create_changes_nothing(name, decoupled):
    fms = FileMetadataServer(sid=1, decoupled=decoupled)
    fms.attach_meter(Meter(KVCostPolicy(CostModel())))
    fms.op_create(5, "ok", 0o644, CRED, 1.0)
    before = _state(fms)
    with pytest.raises(InvalidArgument):
        fms.op_create(5, name, 0o644, CRED, 2.0)
    assert _state(fms) == before


@pytest.mark.parametrize("decoupled", [True, False])
@pytest.mark.parametrize("name", BAD_NAMES)
def test_bad_name_batch_changes_nothing(name, decoupled):
    fms = FileMetadataServer(sid=1, decoupled=decoupled)
    fms.attach_meter(Meter(KVCostPolicy(CostModel())))
    fms.op_create_batch(_entries(["ok"]))
    before = _state(fms)
    with pytest.raises(InvalidArgument):
        fms.op_create_batch(_entries(["a", name, "b"]))
    assert _state(fms) == before


def test_longest_name_is_accepted():
    fms = FileMetadataServer(sid=1)
    name = "y" * 65535
    uuid = fms.op_create(5, name, 0o644, CRED, 1.0)
    buf = fms.op_readdir(5)
    assert [(e.name, e.uuid) for e in dirent.decode(buf)] == [(name, uuid)]
