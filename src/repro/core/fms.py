"""File Metadata Server (paper §3.1, §3.3).

Each FMS stores the file inodes that consistent-hash to it.  A file is
keyed by ``directory_uuid + file_name`` — the same key used on the hash
ring — so a file create touches exactly one FMS and never depends on
other file or directory records (flattened directory tree).

Decoupled mode (LocoFS-DF, the paper's design) stores two small
fixed-length values per file:

* ``A:<fkey>`` -> ``FILE_ACCESS``  (ctime, mode, uid, gid)
* ``C:<fkey>`` -> ``FILE_CONTENT`` (mtime, atime, size, bsize, suuid, sid)

and updates individual fields in place (no (de)serialization, §3.3.3).
Coupled mode (LocoFS-CF, the Fig. 11 ablation) stores one big
``FILE_COUPLED`` value per file and pays a serialization charge on every
read and write, the way a whole-inode-per-value system (IndexFS) does.

The dirents of the directory's files that live on this FMS are
concatenated under ``E:<directory_uuid>`` (backward dirent organization).
"""

from __future__ import annotations

import contextlib
import os
import struct

from repro.common.errors import (
    CorruptDirents,
    Exists,
    FSError,
    InvalidArgument,
    NoEntry,
    PermissionDenied,
)
from repro.common.stats import Counters
from repro.common.types import Credentials, FileType, S_IFREG
from repro.common.uuidgen import FID_BITS, FID_MASK, UuidAllocator
from repro.kv import HashStore
from repro.kv.meter import Meter
from repro.kv.wal import OP_PUT, WriteAheadLog
from repro.metadata import dirent
from repro.metadata.acl import may_access
from repro.metadata.layout import FILE_ACCESS, FILE_CONTENT, FILE_COUPLED, field_writes
from repro.sim.costmodel import CostModel

_A = b"A:"
_C = b"C:"
_F = b"F:"
_E = b"E:"
_FID_KEY = b"M:fid_ceiling"
_FID_KLEN = len(_FID_KEY)
_FID_PUT = _FID_KLEN + 8  # a ceiling put: the key and its u64 value
_FTYPE_FILE = int(FileType.FILE)
_MAX_NAME = dirent.MAX_NAME_BYTES
_ACCESS_SIZE = FILE_ACCESS.total_size
_CONTENT_SIZE = FILE_CONTENT.total_size
#: the bytes an access + content put charges beyond the two file keys
_PAIR_PUT_BYTES = 2 * len(_A) + _ACCESS_SIZE + _CONTENT_SIZE

# whole-record codecs: the file layouts carry no tail padding, so one
# Struct.pack per part is byte-identical to ``FixedLayout.pack``
_pack_access = FILE_ACCESS.record_codec().pack
_pack_content = FILE_CONTENT.record_codec().pack
_pack_coupled = FILE_COUPLED.record_codec().pack
_unpack_access = FILE_ACCESS.record_codec().unpack
_unpack_content = FILE_CONTENT.record_codec().unpack
_unpack_coupled = FILE_COUPLED.record_codec().unpack
_ATIME = FILE_CONTENT.offset("atime")
_ATIME_END = _ATIME + FILE_CONTENT.size("atime")
_MODE_OFF = FILE_ACCESS.offset("mode")
_UID_OFF = FILE_ACCESS.offset("uid")
_GID_OFF = FILE_ACCESS.offset("gid")
_SIZE_OFF = FILE_CONTENT.offset("size")
_pack_f64 = struct.Struct("<d").pack
_pack_u64 = struct.Struct("<Q").pack

#: verdicts for a create-batch probe hit (see ``_probe_verdict``)
_APPLIED = 0   # replay of an already-durable create: return its uuid
_REPAIR = 1    # torn WAL tail left a partial create: re-apply as fresh
_CONFLICT = 2  # a different file of the same name exists


def _bad_name(raw: bytes) -> str:
    return f"file name must be 1 to {_MAX_NAME} UTF-8 bytes, got {len(raw)}"


def fkey(dir_uuid: int, name: str) -> bytes:
    return dir_uuid.to_bytes(8, "big") + name.encode("utf-8")


def _removed(content: bytes) -> dict:
    """What a remove reports of the file it removed."""
    _, _, size, _, suuid, _ = _unpack_content(content)
    return {"uuid": suuid, "size": size}


class FileMetadataServer:
    """Handler object for one FMS node."""

    #: how many uuids are reserved per durable allocator checkpoint
    FID_RESERVE = 1024

    def __init__(
        self,
        sid: int,
        decoupled: bool = True,
        cost: CostModel | None = None,
        track_touches: bool = False,
        wal_path: str | None = None,
    ):
        self.sid = sid
        self.decoupled = decoupled
        self.cost = cost or CostModel()
        self.store = HashStore(wal_path=wal_path)
        self.meter = self.store.meter
        self.alloc = UuidAllocator(sid=sid)
        self.track_touches = track_touches
        self.touches: dict[str, set[str]] = {}
        #: decoupled-vs-coupled telemetry (in-place field writes vs whole-value
        #: rewrites); mirrored into a registry as ``fms<i>.*`` when a run opts in
        self.counters = Counters()
        ceiling = self.store.get(_FID_KEY)
        if ceiling is not None:
            # restart: skip the durably reserved id range
            self.alloc._next_fid = int.from_bytes(ceiling, "big") + 1
        #: live file count, maintained by the mutating ops — serves
        #: :meth:`num_files_fast` without the metered O(N) store scan
        self._nfiles = self._count_files_unmetered()

    def _count_files_unmetered(self) -> int:
        """File count straight off the backing dict — no meter charges
        (bench/recovery bookkeeping, not a simulated operation)."""
        prefix = _A if self.decoupled else _F
        return sum(1 for k in self.store._data if k.startswith(prefix))

    @contextlib.contextmanager
    def group_commit(self):
        """Group-commit scope for batched RPCs (one WAL fsync per batch).

        Counts every scope (``wal.group_commit``) and, when a WAL is
        attached, the durable commit boundaries it produced (``wal.fsync``
        — each boundary is exactly one fsync when the log runs in sync
        mode), so the amortization claim is auditable from the metrics
        dump: batched creates show ``wal.fsync`` ≪ ``batch.records``.
        """
        self.counters.inc("wal.group_commit")
        wal = getattr(self.store, "_wal", None)
        before = wal.commits if wal is not None else 0
        try:
            with self.store.group():
                yield
        finally:
            if wal is not None:
                self.counters.inc("wal.fsync", wal.commits - before)

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    # -- crash/recovery (repro.sim.faults hooks) ----------------------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        """The FMS process dies: volatile state is lost, only the WAL
        survives — optionally with ``torn_tail_bytes`` chopped off, a
        crash that interrupted the physical write-out of a group commit.
        Without a WAL the namespace is honestly gone on restart.
        """
        store = self.store
        wal = getattr(store, "_wal", None)
        self._wal_path = wal.path if wal is not None else None
        # closing flushes buffered log records: in this simulation a record
        # handed to the OS counts as durable (the torn tail models the rest)
        store.close()
        if self._wal_path is not None and torn_tail_bytes:
            WriteAheadLog.tear_tail(self._wal_path, torn_tail_bytes)
        self.store = HashStore()
        self.store.meter = self.meter
        self._nfiles = 0

    def restart(self) -> int:
        """Rebuild the store by WAL replay; returns the replayed byte
        count, which the fault layer converts into recovery latency
        (``CostModel.recovery_us``) before the server serves again."""
        path = getattr(self, "_wal_path", None)
        nbytes = os.path.getsize(path) if path and os.path.exists(path) else 0
        self.store = HashStore(wal_path=path)
        self.store.meter = self.meter
        ceiling = self.store.get(_FID_KEY)
        if ceiling is not None:
            # never reuse ids from the durably reserved range
            self.alloc._next_fid = int.from_bytes(ceiling, "big") + 1
        self._nfiles = self._count_files_unmetered()
        return nbytes

    def bind_metrics(self, registry, prefix: str) -> None:
        self.counters.bind(registry, prefix)

    def _touch(self, op: str, *parts: str) -> None:
        if self.track_touches:
            self.touches.setdefault(op, set()).update(parts)

    # -- coupled-mode helpers (LocoFS-CF ablation) --------------------------------
    def _get_coupled(self, key: bytes) -> bytes | None:
        buf = self.store.get(_F + key)
        if buf is not None:
            # whole-value deserialization on every read (§2.2.2)
            self.meter.charge_us(self.cost.serialize_us(len(buf)), "deserialize")
        return buf

    def _put_coupled(self, key: bytes, buf: bytes) -> None:
        self.meter.charge_us(self.cost.serialize_us(len(buf)), "serialize")
        self.store.put(_F + key, buf)

    # -- lookup helpers ----------------------------------------------------------------
    def _load(self, key: bytes, name: str) -> tuple[bytes, bytes]:
        """Return (access_buf, content_buf) or raise ``NoEntry(name)``.

        Decoupled, it reads the store's dict and charges what a ``get`` of
        each part would (access, then content) in one ``charge_many``.
        """
        if self.decoupled:
            store = self.store
            akey = _A + key
            a = store._data.get(akey)
            if a is None:
                store._charge("get", len(akey))
                raise NoEntry(name)
            c = store._data.get(_C + key)
            assert c is not None, "access part exists without content part"
            klen = len(akey)
            store._meter.charge_many((("get", klen + len(a)), ("get", klen + len(c))))
            return a, c
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        return self._split_coupled(buf)

    @staticmethod
    def _split_coupled(buf: bytes) -> tuple[bytes, bytes]:
        fields = FILE_COUPLED.unpack(buf)
        a = FILE_ACCESS.pack(
            ctime=fields["ctime"], mode=fields["mode"], uid=fields["uid"], gid=fields["gid"]
        )
        c = FILE_CONTENT.pack(
            mtime=fields["mtime"],
            atime=fields["atime"],
            size=fields["size"],
            bsize=fields["bsize"],
            suuid=fields["suuid"],
            sid=fields["sid"],
        )
        return a, c

    @staticmethod
    def _check_owner(a: bytes, cred: Credentials, path_hint: str = "") -> None:
        if not cred.is_root:
            if len(a) != _ACCESS_SIZE:
                FILE_ACCESS.unpack(a)  # raises the layout's size error
            if cred.uid != _unpack_access(a)[2]:
                raise PermissionDenied(path_hint)

    # -- operations (Table 1 rows) ---------------------------------------------------
    def _reserve(self, last_fid: int) -> tuple[int, bytes | None]:
        """The uuid-ceiling check a create makes before using fids up to
        ``last_fid``: the byte count its ceiling ``get`` is charged, and
        the new ceiling to ``put`` when ``last_fid`` passes the durable
        reservation (``None`` otherwise)."""
        ceiling = self.store._data.get(_FID_KEY)
        if ceiling is None:
            return _FID_KLEN, (last_fid + self.FID_RESERVE).to_bytes(8, "big")
        if last_fid <= int.from_bytes(ceiling, "big"):
            return _FID_KLEN + len(ceiling), None
        return _FID_KLEN + len(ceiling), (last_fid + self.FID_RESERVE).to_bytes(8, "big")

    def op_create(
        self, dir_uuid: int, name: str, mode: int, cred: Credentials, now_s: float,
        bsize: int = 4096,
    ) -> int:
        """Create a file inode + its backward dirent.  Touches Access + Dirent.

        A single-pass kernel over the store's dict.  The name is checked
        and encoded and every key built once; a bad name is rejected before
        anything is read, and a duplicate is charged only its probe.  The
        charges are exactly those of the store calls a create stands for —
        probe ``get``, ceiling ``get`` (+ ``put`` on a bump), ``put`` of
        each inode part, the dirent append's ``get`` + ``put`` — in that
        order, so virtual time is bit-identical to issuing the calls one by
        one.  The dict (and the WAL, one record each: ceiling, inode
        part(s), dirent) is written after the charges.
        """
        raw = name.encode()
        if not raw or len(raw) > _MAX_NAME:
            raise InvalidArgument(_bad_name(raw))
        if self.track_touches:
            self._touch("create", "access", "dirent")
        self.counters.inc("files.created")
        store = self.store
        data = store._data
        dkey = dir_uuid.to_bytes(8, "big")
        key = dkey + raw  # == fkey(dir_uuid, name)
        decoupled = self.decoupled
        pkey = (_A if decoupled else _F) + key
        klen = len(pkey)
        probe = data.get(pkey)
        if probe is not None:
            store._charge("get", klen + len(probe))
            raise Exists(name)
        alloc = self.alloc
        fid = alloc._next_fid
        if fid > FID_MASK:
            raise ValueError(f"fid out of range: {fid}")
        uuid = (alloc.sid << FID_BITS) | fid
        cget, reserved = self._reserve(fid)
        ekey = _E + dkey
        cur = data.get(ekey)
        ent = dirent.pack_encoded(raw, uuid, _FTYPE_FILE)
        if cur is None:
            eget = len(ekey)
        else:
            eget = len(ekey) + len(cur)
            ent = cur + ent
        eput = len(ekey) + len(ent)
        fmode = S_IFREG | (mode & 0o7777)
        meter = store._meter
        if decoupled:
            # positional packs, field order per Table 1: ctime/mode/uid/gid
            # and mtime/atime/size/bsize/suuid/sid
            inode = _pack_access(now_s, fmode, cred.uid, cred.gid)
            content = _pack_content(now_s, now_s, 0, bsize, uuid, self.sid)
            if reserved is None:
                meter.charge_many((("get", klen), ("get", cget),
                                   ("put", klen + _ACCESS_SIZE),
                                   ("put", klen + _CONTENT_SIZE),
                                   ("get", eget), ("put", eput)))
            else:
                meter.charge_many((("get", klen), ("get", cget), ("put", _FID_PUT),
                                   ("put", klen + _ACCESS_SIZE),
                                   ("put", klen + _CONTENT_SIZE),
                                   ("get", eget), ("put", eput)))
        else:
            inode = _pack_coupled(now_s, fmode, cred.uid, cred.gid,
                                  now_s, now_s, 0, bsize, uuid, self.sid, b"")
            content = None
            if reserved is None:
                meter.charge_many((("get", klen), ("get", cget)))
            else:
                meter.charge_many((("get", klen), ("get", cget), ("put", _FID_PUT)))
            # whole-value serialization before the put (§2.2.2)
            self.meter.charge_us(self.cost.serialize_us(len(inode)), "serialize")
            meter.charge_many((("put", klen + len(inode)), ("get", eget), ("put", eput)))
        wal = store._wal
        if wal is not None:
            if reserved is not None:
                wal.append_put(_FID_KEY, reserved)
            wal.append_put(pkey, inode)
            if content is not None:
                wal.append_put(_C + key, content)
            wal.append_put(ekey, ent)
        if reserved is not None:
            data[_FID_KEY] = reserved
        data[pkey] = inode
        if content is not None:
            data[_C + key] = content
        data[ekey] = ent
        alloc._next_fid = fid + 1
        self._nfiles += 1
        return uuid

    def op_create_batch(self, entries: tuple) -> dict:
        """Create many files in one request (the LocoFS-B flush path).

        ``entries`` is a sequence of ``(dir_uuid, name, mode, cred, now_s,
        bsize)`` tuples — the same arguments as :meth:`op_create`.  The
        existence probes run as one ``multi_get``, the uuid ceiling is
        reserved once, the inode parts land in one ``multi_put``, and the
        backward dirents are coalesced into one append per directory — the
        group-commit amortization that makes batched creates cheap.

        Like :meth:`op_create` it is a kernel over the store's dict: one
        pass validates every name and builds the keys and probes, a second
        classifies the probes and packs the fresh records, and then the
        charges of those store calls go out in their order (``multi_get``,
        ceiling, ``multi_put``, one dirent append per directory) before
        the dict and the WAL are written.  A bad name rejects the whole
        batch before anything is charged or written.

        Name conflicts do not abort the batch: conflicting entries are
        skipped and reported in ``"exists"``; their ``"uuids"`` slot is
        ``None``.  (The write-behind client surfaces the first conflict as
        :class:`Exists` at the flush boundary — see DESIGN.md.)

        Retried flushes are exactly-once.  A probe hit whose stored access
        part is byte-identical to what this entry would write (same ctime/
        mode/uid/gid — the content fingerprint of *this* create, since the
        client reuses the original entry tuple on retry) is a replay of an
        already-applied create, not a conflict: the entry is deduplicated,
        its original uuid returned, and its dirent verified (and repaired
        if a torn WAL tail lost it).  Genuine duplicates — a different
        create of the same name — have a different fingerprint and still
        report ``"exists"``.
        """
        store = self.store
        data = store._data
        decoupled = self.decoupled
        prefix = _A if decoupled else _F
        rows: list[tuple[bytes, bytes, bytes, bytes | None]] = []  # key, raw name, dkey, probe
        probe_bytes = 0
        # a flush usually targets a handful of directories; memoize the
        # dir-uuid encoding instead of re-packing it per entry
        dkey_of: dict[int, bytes] = {}
        for e in entries:
            raw = e[1].encode()
            if not raw or len(raw) > _MAX_NAME:
                raise InvalidArgument(_bad_name(raw))
            du = e[0]
            dkey = dkey_of.get(du)
            if dkey is None:
                dkey = dkey_of[du] = du.to_bytes(8, "big")
            key = dkey + raw
            pkey = prefix + key
            probe = data.get(pkey)
            probe_bytes += len(pkey) if probe is None else len(pkey) + len(probe)
            rows.append((key, raw, dkey, probe))
        if self.track_touches:
            self._touch("create", "access", "dirent")
        n = len(entries)
        self.counters.inc("batch.records", n)
        meter = store._meter
        if n:
            meter.charge("multi_get", probe_bytes)
            meter.charge_repeat("batch_record", n - 1)
        uuids: list[int | None] = []
        exists: list[str] = []
        seen: set[bytes] = set()
        repairs = 0  # torn-tail redos: their access part is already counted
        alloc = self.alloc
        fid = start = alloc._next_fid
        sid = self.sid
        sid_part = alloc.sid << FID_BITS
        pairs: list[tuple[bytes, bytes]] = []
        put_bytes = 0
        serialize_us: list[float] = []
        dirents: dict[bytes, list[bytes]] = {}
        for entry, (key, raw, dkey, probe) in zip(entries, rows):
            if probe is not None:
                verdict, uuid = self._probe_verdict(entry, key, dkey, probe)
                if verdict != _REPAIR:
                    uuids.append(uuid)
                    if verdict == _CONFLICT:
                        exists.append(entry[1])
                    continue
                repairs += 1
            elif key in seen:
                uuids.append(None)
                exists.append(entry[1])
                continue
            seen.add(key)
            _, _, mode, cred, now_s, bsize = entry
            uuid = sid_part | fid
            fid += 1
            uuids.append(uuid)
            fmode = S_IFREG | (mode & 0o7777)
            if decoupled:
                pairs.append((_A + key, _pack_access(now_s, fmode, cred.uid, cred.gid)))
                pairs.append((_C + key, _pack_content(now_s, now_s, 0, bsize, uuid, sid)))
                put_bytes += 2 * len(key) + _PAIR_PUT_BYTES
            else:
                buf = _pack_coupled(now_s, fmode, cred.uid, cred.gid,
                                    now_s, now_s, 0, bsize, uuid, sid, b"")
                serialize_us.append(self.cost.serialize_us(len(buf)))
                pairs.append((_F + key, buf))
                put_bytes += len(_F) + len(key) + len(buf)
            ents = dirents.get(dkey)
            if ents is None:
                dirents[dkey] = ents = []
            ents.append(dirent.pack_encoded(raw, uuid, _FTYPE_FILE))
        nfresh = fid - start
        if not nfresh:
            return {"uuids": uuids, "exists": exists}
        if fid - 1 > FID_MASK:
            raise ValueError(f"fid out of range: {fid - 1}")
        cget, reserved = self._reserve(fid - 1)
        writes: list[tuple[bytes, bytes]] = []
        dirent_charges: list[tuple[str, int]] = []
        for dkey, packed in dirents.items():
            ekey = _E + dkey
            cur = data.get(ekey)
            new = b"".join(packed)
            if cur is None:
                dirent_charges.append(("get", len(ekey)))
            else:
                dirent_charges.append(("get", len(ekey) + len(cur)))
                new = cur + new
            dirent_charges.append(("put", len(ekey) + len(new)))
            writes.append((ekey, new))
        if reserved is None:
            meter.charge("get", cget)
        else:
            meter.charge_many((("get", cget), ("put", _FID_PUT)))
        for us in serialize_us:  # coupled mode: whole-value serialization
            self.meter.charge_us(us, "serialize")
        meter.charge("multi_put", put_bytes)
        meter.charge_repeat("batch_record", len(pairs) - 1)
        meter.charge_many(dirent_charges)
        wal = store._wal
        if wal is not None:
            if reserved is not None:
                wal.append_put(_FID_KEY, reserved)
            wal.append_many((OP_PUT, k, v) for k, v in pairs)
            for k, v in writes:
                wal.append_put(k, v)
        if reserved is not None:
            data[_FID_KEY] = reserved
        data.update(pairs)
        data.update(writes)
        alloc._next_fid = fid
        self.counters.inc("files.created", nfresh)
        self.counters.inc("batch.creates", nfresh)
        self._nfiles += nfresh - repairs
        return {"uuids": uuids, "exists": exists}

    def _probe_verdict(self, entry: tuple, key: bytes, dkey: bytes,
                       probe: bytes) -> tuple[int, int | None]:
        """Classify a create-batch probe hit: replay, torn remnant, or conflict.

        A retried flush re-sends the original entry tuples, so an entry's
        access-part bytes (ctime/mode/uid/gid) are a content fingerprint:
        if the stored access part matches exactly, the stored file *is*
        this create, already applied by the attempt whose response was
        lost.  A different fingerprint is a genuine name conflict (any
        other create carries a different virtual-time ctime).
        """
        dir_uuid, name, mode, cred, now_s, bsize = entry
        fmode = S_IFREG | (mode & 0o7777)
        if self.decoupled:
            if probe != _pack_access(now_s, fmode, cred.uid, cred.gid):
                return _CONFLICT, None
            c = self.store.get(_C + key)
            if c is None:
                # the crash tore the WAL between this entry's access and
                # content parts: the create never fully applied — redo it
                return _REPAIR, None
            uuid = FILE_CONTENT.read(c, "suuid")
        else:
            if (FILE_COUPLED.read(probe, "ctime") != now_s
                    or FILE_COUPLED.read(probe, "mode") != fmode
                    or FILE_COUPLED.read(probe, "uid") != cred.uid
                    or FILE_COUPLED.read(probe, "gid") != cred.gid):
                return _CONFLICT, None
            uuid = FILE_COUPLED.read(probe, "suuid")
        # the dirent append lands after the inode parts in the WAL, so a
        # torn tail can leave the inode without its dirent — repair it
        ekey = _E + dkey
        buf = self.store.get(ekey) or b""
        if not any(e.name == name for e in dirent.decode(buf)):
            self.store.append(ekey, dirent.pack_entry(name, uuid, FileType.FILE))
        self.counters.inc("batch.deduped")
        return _APPLIED, uuid

    # The read handlers below are kernels over the store's dict: each
    # charges exactly the gets (and puts) of the store calls it stands for,
    # in their order and before it returns or raises, and unpacks a part
    # with one whole-record codec call.
    def op_getattr(self, dir_uuid: int, name: str) -> dict:
        """stat on a file reads both parts (Table 1: getattr touches all)."""
        if self.track_touches:
            self._touch("getattr", "access", "content")
        a, c = self._load(fkey(dir_uuid, name), name)
        ctime, mode, uid, gid = _unpack_access(a)
        mtime, atime, size, bsize, suuid, sid = _unpack_content(c)
        return {"ctime": ctime, "mode": mode, "uid": uid, "gid": gid,
                "mtime": mtime, "atime": atime, "size": size, "bsize": bsize,
                "suuid": suuid, "sid": sid}

    def op_open(self, dir_uuid: int, name: str, cred: Credentials, want: int) -> dict:
        """open checks the access part (content read is optional in Table 1)."""
        if self.track_touches:
            self._touch("open", "access")
        a, c = self._load(fkey(dir_uuid, name), name)
        _, mode, uid, gid = _unpack_access(a)
        if not may_access(mode, uid, gid, cred, want):
            raise PermissionDenied(name)
        _, _, size, _, suuid, _ = _unpack_content(c)
        return {"uuid": suuid, "mode": mode, "size": size}

    def op_access(self, dir_uuid: int, name: str, cred: Credentials, want: int) -> bool:
        """access(2): touches only the access part."""
        if self.track_touches:
            self._touch("access", "access")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            store = self.store
            akey = _A + key
            a = store._data.get(akey)
            if a is None:
                store._charge("get", len(akey))
                raise NoEntry(name)
            store._charge("get", len(akey) + len(a))
        else:
            a, _ = self._load(key, name)
        _, mode, uid, gid = _unpack_access(a)
        return may_access(mode, uid, gid, cred, want)

    # The write handlers below are kernels too: each charges the gets,
    # puts and deletes of the store calls it stands for (an in-place field
    # write is a ``write_at``: a get and a put of the whole record) in
    # their order and before it returns or raises, writes the WAL records
    # those calls would log, and builds a rewritten record in one pack.
    def op_setattr(self, dir_uuid: int, name: str, cred: Credentials, now_s: float,
                   mode: int | None = None, uid: int | None = None,
                   gid: int | None = None) -> None:
        """chmod/chown: touches only the access part (Table 1).

        Decoupled, the access part is rewritten in place, one ``write_at``
        per given field (mode, uid, gid) and one for ctime, no
        (de)serialization (§3.3.3).
        """
        if self.track_touches:
            self._touch("chmod" if mode is not None else "chown", "access")
        self.counters.inc("setattr.inplace" if self.decoupled else "setattr.rewrite")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            store = self.store
            akey = _A + key
            a = store._data.get(akey)
            if a is None:
                store._charge("get", len(akey))
                raise NoEntry(name)
            n = len(akey) + len(a)
            if len(a) != _ACCESS_SIZE:
                store._charge("get", n)
                FILE_ACCESS.unpack(a)  # raises the layout's size error
            _, omode, ouid, ogid = _unpack_access(a)
            if not cred.is_root and cred.uid != ouid:
                store._charge("get", n)
                raise PermissionDenied(name)
            new = _pack_access(
                now_s,
                omode if mode is None else (omode & ~0o7777) | (mode & 0o7777),
                ouid if uid is None else uid,
                ogid if gid is None else gid)
            writes = 1 + (mode is not None) + (uid is not None) + (gid is not None)
            store._meter.charge_many((("get", n),) + (("get", n), ("put", n)) * writes)
            if store._wal is not None:
                # the records the per-field writes log: one per given field
                # (mode, uid, gid), then the ctime write's, which is ``new``
                given = [(off, new[off:off + 4]) for off, v in
                         ((_MODE_OFF, mode), (_UID_OFF, uid), (_GID_OFF, gid))
                         if v is not None]
                for step in field_writes(a, given):
                    store._wal.append_put(akey, step)
                store._wal.append_put(akey, new)
            store._data[akey] = new
        else:
            buf = self._get_coupled(key)
            if buf is None:
                raise NoEntry(name)
            a, _ = self._split_coupled(buf)
            self._check_owner(a, cred, name)
            if mode is not None:
                old = FILE_COUPLED.read(buf, "mode")
                buf = FILE_COUPLED.write(buf, "mode", (old & ~0o7777) | (mode & 0o7777))
            if uid is not None:
                buf = FILE_COUPLED.write(buf, "uid", uid)
            if gid is not None:
                buf = FILE_COUPLED.write(buf, "gid", gid)
            buf = FILE_COUPLED.write(buf, "ctime", now_s)
            self._put_coupled(key, buf)

    def op_truncate(self, dir_uuid: int, name: str, size: int, now_s: float) -> None:
        """truncate: touches only the content part (Table 1)."""
        if self.track_touches:
            self._touch("truncate", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            self._write_size_mtime(key, name, size, now_s, grow_only=False)
        else:
            buf = self._get_coupled(key)
            if buf is None:
                raise NoEntry(name)
            buf = FILE_COUPLED.write(buf, "size", size)
            buf = FILE_COUPLED.write(buf, "mtime", now_s)
            self._put_coupled(key, buf)

    def op_write_meta(self, dir_uuid: int, name: str, end_offset: int, now_s: float) -> dict:
        """Metadata side of a write: extend size, bump mtime (content part).

        Returns what the client needs to place data blocks: uuid and bsize
        (§3.3.2 — blocks are addressed by uuid + blk_num, there is no
        per-block index to update).
        """
        if self.track_touches:
            self._touch("write", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            c, size = self._write_size_mtime(key, name, end_offset, now_s, grow_only=True)
            _, _, _, bsize, suuid, _ = _unpack_content(c)
            return {"uuid": suuid, "bsize": bsize, "size": size}
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        size = max(FILE_COUPLED.read(buf, "size"), end_offset)
        buf = FILE_COUPLED.write(buf, "size", size)
        buf = FILE_COUPLED.write(buf, "mtime", now_s)
        self._put_coupled(key, buf)
        return {"uuid": FILE_COUPLED.read(buf, "suuid"),
                "bsize": FILE_COUPLED.read(buf, "bsize"), "size": size}

    def _write_size_mtime(self, key: bytes, name: str, size: int, now_s: float,
                          grow_only: bool) -> tuple[bytes, int]:
        """The decoupled truncate / write_meta kernel: the content part's
        ``get``, an in-place size write (with ``grow_only``, only when it
        extends the file), then the mtime write.  Returns the content part
        as read and the file's size afterwards."""
        store = self.store
        ckey = _C + key
        c = store._data.get(ckey)
        if c is None:
            store._charge("get", len(ckey))
            raise NoEntry(name)
        n = len(ckey) + len(c)
        old = _unpack_content(c)[2] if grow_only else -1
        if size <= old:
            size = old
            sized = None
            new = _pack_f64(now_s) + c[8:]
            store._meter.charge_many((("get", n), ("get", n), ("put", n)))
        else:
            sized = c[:_SIZE_OFF] + _pack_u64(size) + c[_SIZE_OFF + 8:]
            new = _pack_f64(now_s) + sized[8:]
            store._meter.charge_many((("get", n), ("get", n), ("put", n),
                                      ("get", n), ("put", n)))
        wal = store._wal
        if wal is not None:
            if sized is not None:
                wal.append_put(ckey, sized)
            wal.append_put(ckey, new)
        store._data[ckey] = new
        return c, size

    def op_read_meta(self, dir_uuid: int, name: str, now_s: float) -> dict:
        """Metadata side of a read: atime bump + size/uuid (content part).

        Decoupled, the charges are the content part's ``get`` and then the
        in-place atime ``write_at`` (its ``get`` + ``put``).
        """
        if self.track_touches:
            self._touch("read", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            store = self.store
            ckey = _C + key
            c = store._data.get(ckey)
            if c is None:
                store._charge("get", len(ckey))
                raise NoEntry(name)
            n = len(ckey) + len(c)
            store._meter.charge_many((("get", n), ("get", n), ("put", n)))
            new = c[:_ATIME] + FILE_CONTENT.encode_field("atime", now_s) + c[_ATIME_END:]
            if store._wal is not None:
                store._wal.append_put(ckey, new)
            store._data[ckey] = new
            _, _, size, bsize, suuid, _ = _unpack_content(c)
            return {"uuid": suuid, "bsize": bsize, "size": size}
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        buf = FILE_COUPLED.write(buf, "atime", now_s)
        self._put_coupled(key, buf)
        _, _, _, _, _, _, size, bsize, suuid, _, _ = _unpack_coupled(buf)
        return {"uuid": suuid, "bsize": bsize, "size": size}

    def op_remove(self, dir_uuid: int, name: str, cred: Credentials) -> dict:
        """unlink: touches access + content + dirent (Table 1 'remove')."""
        if self.track_touches:
            self._touch("remove", "access", "content", "dirent")
        charges: list[tuple[str, int]] = []
        try:
            _, c = self._detach(dir_uuid, name, cred, charges)
        finally:
            self.store._meter.charge_many(charges)
        return _removed(c)

    def op_exists(self, dir_uuid: int, name: str) -> bool:
        """Cheap existence probe (used by the client's rename path)."""
        key = fkey(dir_uuid, name)
        return self.store.get((_A if self.decoupled else _F) + key) is not None

    # -- directory support ------------------------------------------------------------
    def op_readdir(self, dir_uuid: int) -> bytes:
        """The dirents of this directory's files that live on this FMS."""
        if self.track_touches:
            self._touch("readdir", "dirent")
        store = self.store
        ekey = _E + dir_uuid.to_bytes(8, "big")
        buf = store._data.get(ekey)
        store._charge("get", len(ekey) + (len(buf) if buf is not None else 0))
        return buf or b""

    def op_has_files(self, dir_uuid: int) -> bool:
        """rmdir support: does this FMS hold any file of the directory?"""
        buf = self.store.get(_E + dir_uuid.to_bytes(8, "big")) or b""
        return dirent.count_entries(buf) > 0

    # -- f-rename support (§3.4.2) -------------------------------------------------------
    def op_export_remove(self, dir_uuid: int, name: str, cred: Credentials) -> dict:
        """First half of a cross-FMS f-rename: detach and return the inode.

        The file's uuid is preserved, so its data blocks never move.
        """
        if self.track_touches:
            self._touch("rename", "access", "content", "dirent")
        charges: list[tuple[str, int]] = []
        try:
            a, c = self._detach(dir_uuid, name, cred, charges)
        finally:
            self.store._meter.charge_many(charges)
        return {"access": a, "content": c}

    def op_import(self, dir_uuid: int, name: str, access: bytes, content: bytes) -> None:
        """Second half of a cross-FMS f-rename."""
        if self.track_touches:
            self._touch("rename", "access", "content", "dirent")
        charges: list[tuple[str, int]] = []
        try:
            self._attach(dir_uuid, name, access, content, charges)
        finally:
            self.store._meter.charge_many(charges)

    def op_rename_local(self, sdir_uuid: int, sname: str, ddir_uuid: int,
                        dname: str, cred: Credentials) -> dict:
        """Same-server f-rename in one request (the LocoFS-A flush path).

        Applies the sequence the synchronous client drives over the wire —
        remove the destination if present, detach the source, attach it
        under the new key — so a deferred rename leaves the identical
        state, charged as those three requests' store calls in one
        ``charge_many``.  A missing source fails the rename before the
        destination is touched: the source is checked with an unmetered
        probe, so a rename to a fresh name pays nothing for it, and the
        failure is charged the destination's probe and the source's.
        Returns the replaced destination's ``{"uuid", "size"}`` (or
        ``None``) so the flushing client can delete its data blocks, just
        as the sync path does.
        """
        track = self.track_touches
        if track:
            self._touch("remove", "access", "content", "dirent")
        store = self.store
        charges: list[tuple[str, int]] = []
        try:
            prefix = _A if self.decoupled else _F
            skey = prefix + fkey(sdir_uuid, sname)
            if skey not in store._data:
                if track:
                    self._touch("rename", "access", "content", "dirent")
                dkey = prefix + fkey(ddir_uuid, dname)
                dval = store._data.get(dkey)
                charges.append(("get", len(dkey) if dval is None else len(dkey) + len(dval)))
                charges.append(("get", len(skey)))
                raise NoEntry(sname)
            try:
                replaced = _removed(self._detach(ddir_uuid, dname, cred, charges)[1])
            except NoEntry:
                replaced = None
            if track:
                self._touch("rename", "access", "content", "dirent")
            a, c = self._detach(sdir_uuid, sname, cred, charges)
            self._attach(ddir_uuid, dname, a, c, charges)
        finally:
            store._meter.charge_many(charges)
        return {"replaced": replaced}

    # The detach and attach kernels append the charges of the store calls
    # they stand for to ``charges`` and write the WAL and the dict as they
    # go; the handler charges the list once, in a ``finally``, so whatever
    # ran before a raise is charged, in order.  Coupled mode charges its
    # whole-value (de)serialization at once, so it sends the queued
    # charges first.
    def _detach(self, dir_uuid: int, name: str, cred: Credentials,
                charges: list) -> tuple[bytes, bytes]:
        """Unlink file ``name`` and return its (access, content) parts.

        Charges: a get of each inode part (coupled: the record and its
        deserialization), the owner check, a delete of each part, then the
        dirent list's get and put.  The dirent list is spliced before
        anything is deleted, so a corrupt list raises ``CorruptDirents``
        (charged the list's get) with the file still in place.
        """
        store = self.store
        data = store._data
        wal = store._wal
        dkey = dir_uuid.to_bytes(8, "big")
        key = dkey + name.encode()
        if self.decoupled:
            akey = _A + key
            a = data.get(akey)
            if a is None:
                charges.append(("get", len(akey)))
                raise NoEntry(name)
            ckey = _C + key
            c = data.get(ckey)
            assert c is not None, "access part exists without content part"
            klen = len(akey)
            charges += (("get", klen + len(a)), ("get", klen + len(c)))
            self._check_owner(a, cred, name)
            dead = (akey, ckey)
        else:
            store._meter.charge_many(charges)
            charges.clear()
            buf = self._get_coupled(key)
            if buf is None:
                raise NoEntry(name)
            a, c = self._split_coupled(buf)
            self._check_owner(a, cred, name)
            dead = (_F + key,)
        ekey = _E + dkey
        cur = data.get(ekey)
        eget = ("get", len(ekey) if cur is None else len(ekey) + len(cur))
        try:
            new, _ = dirent.remove_entry(cur or b"", name)
        except CorruptDirents:
            charges.append(eget)
            raise
        for k in dead:
            charges.append(("delete", len(k)))
            if wal is not None:
                wal.append_delete(k)
            del data[k]
        charges += (eget, ("put", len(ekey) + len(new)))
        if wal is not None:
            wal.append_put(ekey, new)
        data[ekey] = new
        self._nfiles -= 1
        return a, c

    def _attach(self, dir_uuid: int, name: str, a: bytes, c: bytes,
                charges: list) -> None:
        """Link inode parts ``a``/``c`` as file ``name``.

        Charges: a probe get of the name (``Exists`` if taken), a put of
        each part (coupled: the serialization and the record's put), then
        the dirent append's get and put.
        """
        store = self.store
        data = store._data
        wal = store._wal
        dkey = dir_uuid.to_bytes(8, "big")
        key = dkey + name.encode()
        if self.decoupled:
            akey = _A + key
            probe = data.get(akey)
            charges.append(("get", len(akey) if probe is None else len(akey) + len(probe)))
            if probe is not None:
                raise Exists(name)
            ckey = _C + key
            charges += (("put", len(akey) + len(a)), ("put", len(ckey) + len(c)))
            if wal is not None:
                wal.append_put(akey, a)
                wal.append_put(ckey, c)
            data[akey] = a
            data[ckey] = c
        else:
            store._meter.charge_many(charges)
            charges.clear()
            if store.get(_F + key) is not None:
                raise Exists(name)
            self._put_coupled(key, FILE_COUPLED.pack(
                index_blob=b"", **FILE_ACCESS.unpack(a), **FILE_CONTENT.unpack(c)))
        ent = dirent.pack_entry(name, FILE_CONTENT.read(c, "suuid"), FileType.FILE)
        ekey = _E + dkey
        cur = data.get(ekey)
        new = ent if cur is None else cur + ent
        charges += (("get", len(ekey) if cur is None else len(ekey) + len(cur)),
                    ("put", len(ekey) + len(new)))
        if wal is not None:
            wal.append_put(ekey, new)
        data[ekey] = new
        self._nfiles += 1

    # -- mixed batched apply (LocoFS-A write-behind flush) -------------------------------
    def op_apply_batch(self, entries: tuple) -> list:
        """Apply a mixed sequence of deferred metadata updates in order.

        Each entry is a tagged tuple whose tail matches the corresponding
        single-op signature:

        * ``("create", dir_uuid, name, mode, cred, now_s, bsize)``
        * ``("setattr", dir_uuid, name, cred, now_s, mode, uid, gid)``
        * ``("unlink", dir_uuid, name, cred)``
        * ``("unlink_opt", dir_uuid, name, cred)`` — remove-if-exists, the
          annihilation form (a deferred create cancelled by a later unlink
          still has to clear any durable same-name file)
        * ``("rename_local", sdir_uuid, sname, ddir_uuid, dname, cred)``

        Results are positional: ``{"uuid": n}`` or ``{"err": "Exists",
        "arg": name}`` for creates, ``{"ok": True}`` for setattr,
        ``{"removed": {...} | None}`` for the unlink forms,
        ``{"replaced": ...}`` for renames, and ``{"err": type, "arg": msg}``
        for any entry that failed.  A failing entry never aborts the batch
        — the client sorts deferred errors out at the flush boundary.

        The client queue preserves per-key dependency order, so entries
        must apply in sequence — except *contiguous* runs of creates,
        which are safe to hand to :meth:`op_create_batch` for its full
        amortization (multi_get probes, one uuid ceiling, one multi_put,
        coalesced dirent appends) and exactly-once replay handling.  The
        engine runs the whole request under :meth:`group_commit`, so the
        mixed batch is still one WAL fsync.
        """
        n = len(entries)
        results: list = [None] * n
        creates = 0
        i = 0
        while i < n:
            e = entries[i]
            kind = e[0]
            if kind == "create":
                j = i + 1
                while j < n and entries[j][0] == "create":
                    j += 1
                out = self.op_create_batch(tuple(en[1:] for en in entries[i:j]))
                for k, uuid in enumerate(out["uuids"]):
                    if uuid is None:
                        results[i + k] = {"err": "Exists", "arg": entries[i + k][2]}
                    else:
                        results[i + k] = {"uuid": uuid}
                creates += j - i
                i = j
                continue
            try:
                if kind == "setattr":
                    self.op_setattr(e[1], e[2], e[3], e[4],
                                    mode=e[5], uid=e[6], gid=e[7])
                    results[i] = {"ok": True}
                elif kind == "unlink":
                    results[i] = {"removed": self.op_remove(e[1], e[2], e[3])}
                elif kind == "unlink_opt":
                    try:
                        removed = self.op_remove(e[1], e[2], e[3])
                    except NoEntry:
                        removed = None
                    results[i] = {"removed": removed}
                elif kind == "rename_local":
                    results[i] = self.op_rename_local(e[1], e[2], e[3], e[4], e[5])
                else:
                    raise InvalidArgument(f"unknown batched op {kind!r}")
            except FSError as err:
                results[i] = {"err": type(err).__name__, "arg": str(err)}
            i += 1
        # op_create_batch counted its own records
        self.counters.inc("batch.records", n - creates)
        return results

    # -- introspection --------------------------------------------------------------------
    def num_files(self) -> int:
        prefix = _A if self.decoupled else _F
        return sum(1 for k, _ in self.store.items() if k.startswith(prefix))

    def num_files_fast(self) -> int:
        """O(1) file count from the maintained counter.

        Charge-free and scan-free, so large-namespace benchmarks can
        verify a build without a metered O(N) sweep; agrees with
        :meth:`num_files` whenever the server is up (it is recomputed
        from the store on restart).
        """
        return self._nfiles
