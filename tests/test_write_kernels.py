"""The write-path kernels against references built from public KV calls.

LocoFS-A's write-behind path runs on single-pass kernels: the FMS
mutation handlers (``op_setattr``, ``op_truncate``, ``op_write_meta`` and
one detach/attach pair behind ``op_remove``, ``op_export_remove``,
``op_import`` and ``op_rename_local``), the DMS ``_mkdir`` probe and
in-place attribute writes, a dirent remover that splices the entry out of
the list, the lookup-cache node's handlers, and the async client's warm
path, which skips generator frames that would yield nothing.  Each must be
indistinguishable from the code it replaced, which issued one metered
store call (or one generator) per step.  That code is kept here, written
only against the public store API (``get``/``put``/``delete``/``write_at``/
``append``/``put_pair``), and every test drives a kernel object and a
reference object with the same calls and compares what either leaves
behind: results, exception type and arguments, the store's records and
their order, the meter's op and byte counts (and their key order) and its
virtual time to the bit, the handler counters, the charges a trace sink or
a metrics registry saw, the WAL bytes and the live-file count.
"""

import itertools
import random

import pytest

from repro.common import pathutil
from repro.common.config import BatchConfig, CacheConfig, ClusterConfig, LookupCacheConfig
from repro.common.errors import (
    CorruptDirents,
    Exists,
    FSError,
    InvalidArgument,
    NoEntry,
    NotEmpty,
    PermissionDenied,
)
from repro.common.types import Credentials, FileType, ROOT_CRED, S_IFDIR
from repro.core import fs as fs_module
from repro.core.asyncclient import AsyncLocoClient
from repro.core.dms import DirectoryMetadataServer, _ekey, _ikey
from repro.core.fms import FileMetadataServer, fkey
from repro.core.fs import LocoFS
from repro.core.lookupcache import LookupCacheServer, dir_cache_key, file_cache_key
from repro.core.multidms import DirectoryShardServer
from repro.kv.wal import OP_PUT, WriteAheadLog
from repro.metadata import dirent
from repro.metadata.acl import W_OK, X_OK, may_access
from repro.metadata.layout import DIR_INODE, FILE_ACCESS, FILE_CONTENT, FILE_COUPLED
from repro.sim.rpc import Batch, Mark, Parallel, Rpc
from test_read_kernels import Pair, _ref_load, ref_resolve

USER = Credentials(uid=1000, gid=100)
OTHER = Credentials(uid=2000, gid=200)
CREDS = [pytest.param(ROOT_CRED, id="root"), pytest.param(USER, id="owner"),
         pytest.param(OTHER, id="other")]


# -- the dirent remover the splice replaced ---------------------------------------------


def ref_remove_entry(buf, name):
    """Decode every entry, drop the first match, pack the rest again."""
    out = bytearray()
    removed = False
    for e in dirent.decode(buf):
        if not removed and e.name == name:
            removed = True
            continue
        out += dirent.pack_entry(e.name, e.uuid, e.ftype)
    return bytes(out), removed


# -- reference FMS write handlers (one store call per step) ------------------------------


class RefFMS(FileMetadataServer):
    def op_setattr(self, dir_uuid, name, cred, now_s, mode=None, uid=None, gid=None):
        self._touch("chmod" if mode is not None else "chown", "access")
        self.counters.inc("setattr.inplace" if self.decoupled else "setattr.rewrite")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            akey = b"A:" + key
            a = self.store.get(akey)
            if a is None:
                raise NoEntry(name)
            if not cred.is_root and cred.uid != FILE_ACCESS.read(a, "uid"):
                raise PermissionDenied(name)
            if mode is not None:
                new_mode = (FILE_ACCESS.read(a, "mode") & ~0o7777) | (mode & 0o7777)
                self.store.write_at(akey, FILE_ACCESS.offset("mode"),
                                    FILE_ACCESS.encode_field("mode", new_mode))
            if uid is not None:
                self.store.write_at(akey, FILE_ACCESS.offset("uid"),
                                    FILE_ACCESS.encode_field("uid", uid))
            if gid is not None:
                self.store.write_at(akey, FILE_ACCESS.offset("gid"),
                                    FILE_ACCESS.encode_field("gid", gid))
            self.store.write_at(akey, FILE_ACCESS.offset("ctime"),
                                FILE_ACCESS.encode_field("ctime", now_s))
            return
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        a, _ = self._split_coupled(buf)
        if not cred.is_root and cred.uid != FILE_ACCESS.read(a, "uid"):
            raise PermissionDenied(name)
        if mode is not None:
            old = FILE_COUPLED.read(buf, "mode")
            buf = FILE_COUPLED.write(buf, "mode", (old & ~0o7777) | (mode & 0o7777))
        if uid is not None:
            buf = FILE_COUPLED.write(buf, "uid", uid)
        if gid is not None:
            buf = FILE_COUPLED.write(buf, "gid", gid)
        buf = FILE_COUPLED.write(buf, "ctime", now_s)
        self._put_coupled(key, buf)

    def op_truncate(self, dir_uuid, name, size, now_s):
        self._touch("truncate", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            ckey = b"C:" + key
            if self.store.get(ckey) is None:
                raise NoEntry(name)
            self.store.write_at(ckey, FILE_CONTENT.offset("size"),
                                FILE_CONTENT.encode_field("size", size))
            self.store.write_at(ckey, FILE_CONTENT.offset("mtime"),
                                FILE_CONTENT.encode_field("mtime", now_s))
            return
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        buf = FILE_COUPLED.write(buf, "size", size)
        buf = FILE_COUPLED.write(buf, "mtime", now_s)
        self._put_coupled(key, buf)

    def op_write_meta(self, dir_uuid, name, end_offset, now_s):
        self._touch("write", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            ckey = b"C:" + key
            c = self.store.get(ckey)
            if c is None:
                raise NoEntry(name)
            size = FILE_CONTENT.read(c, "size")
            if end_offset > size:
                self.store.write_at(ckey, FILE_CONTENT.offset("size"),
                                    FILE_CONTENT.encode_field("size", end_offset))
                size = end_offset
            self.store.write_at(ckey, FILE_CONTENT.offset("mtime"),
                                FILE_CONTENT.encode_field("mtime", now_s))
            return {"uuid": FILE_CONTENT.read(c, "suuid"),
                    "bsize": FILE_CONTENT.read(c, "bsize"), "size": size}
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        size = max(FILE_COUPLED.read(buf, "size"), end_offset)
        buf = FILE_COUPLED.write(buf, "size", size)
        buf = FILE_COUPLED.write(buf, "mtime", now_s)
        self._put_coupled(key, buf)
        return {"uuid": FILE_COUPLED.read(buf, "suuid"),
                "bsize": FILE_COUPLED.read(buf, "bsize"), "size": size}

    def _ref_detach(self, dir_uuid, name, cred):
        key = fkey(dir_uuid, name)
        a, c = _ref_load(self, key, name)
        if not cred.is_root and cred.uid != FILE_ACCESS.read(a, "uid"):
            raise PermissionDenied(name)
        # the dirent list is decoded before anything is deleted; a corrupt
        # list is charged its read and leaves the file in place
        ekey = b"E:" + dir_uuid.to_bytes(8, "big")
        try:
            newbuf, _ = ref_remove_entry(self.store.peek(ekey) or b"", name)
        except CorruptDirents:
            self.store.get(ekey)
            raise
        if self.decoupled:
            self.store.delete(b"A:" + key)
            self.store.delete(b"C:" + key)
        else:
            self.store.delete(b"F:" + key)
        self.store.get(ekey)
        self.store.put(ekey, newbuf)
        self._nfiles -= 1
        return a, c

    def op_remove(self, dir_uuid, name, cred):
        self._touch("remove", "access", "content", "dirent")
        _, c = self._ref_detach(dir_uuid, name, cred)
        return {"uuid": FILE_CONTENT.read(c, "suuid"), "size": FILE_CONTENT.read(c, "size")}

    def op_export_remove(self, dir_uuid, name, cred):
        self._touch("rename", "access", "content", "dirent")
        a, c = self._ref_detach(dir_uuid, name, cred)
        return {"access": a, "content": c}

    def op_import(self, dir_uuid, name, access, content):
        self._touch("rename", "access", "content", "dirent")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            if self.store.get(b"A:" + key) is not None:
                raise Exists(name)
            self.store.put_pair(b"A:" + key, access, b"C:" + key, content)
        else:
            if self.store.get(b"F:" + key) is not None:
                raise Exists(name)
            self._put_coupled(key, FILE_COUPLED.pack(
                index_blob=b"", **FILE_ACCESS.unpack(access), **FILE_CONTENT.unpack(content)))
        uuid = FILE_CONTENT.read(content, "suuid")
        self.store.append(b"E:" + dir_uuid.to_bytes(8, "big"),
                          dirent.pack_entry(name, uuid, FileType.FILE))
        self._nfiles += 1

    def op_rename_local(self, sdir_uuid, sname, ddir_uuid, dname, cred):
        prefix = b"A:" if self.decoupled else b"F:"
        if self.store.peek(prefix + fkey(sdir_uuid, sname)) is None:
            # a missing source fails before the destination is touched
            self._touch("remove", "access", "content", "dirent")
            self._touch("rename", "access", "content", "dirent")
            self.store.get(prefix + fkey(ddir_uuid, dname))
            self.store.get(prefix + fkey(sdir_uuid, sname))
            raise NoEntry(sname)
        try:
            replaced = self.op_remove(ddir_uuid, dname, cred)
        except NoEntry:
            replaced = None
        inode = self.op_export_remove(sdir_uuid, sname, cred)
        self.op_import(ddir_uuid, dname, inode["access"], inode["content"])
        return {"replaced": replaced}


class WritePair(Pair):
    """:class:`Pair` that also compares the live-file count and touches."""

    def check(self):
        super().check()
        k, r = self.kernel, self.ref
        if hasattr(k, "_nfiles"):
            assert k._nfiles == r._nfiles
        if hasattr(k, "touches"):
            assert k.touches == r.touches

    def wal_bytes_match(self, tmp_path):
        for server in (self.kernel, self.ref):
            server.store.close()
        assert ((tmp_path / "kernel.wal").read_bytes()
                == (tmp_path / "ref.wal").read_bytes())


FMS_MODES = [
    pytest.param(dict(decoupled=True), id="decoupled"),
    pytest.param(dict(decoupled=False), id="coupled"),
    pytest.param(dict(decoupled=True, hook="trace"), id="decoupled-trace"),
    pytest.param(dict(decoupled=False, hook="trace"), id="coupled-trace"),
    pytest.param(dict(decoupled=True, hook="registry"), id="registry"),
]


def fms_pair(decoupled=True, hook=None, tmp_path=None):
    servers = []
    for side, cls in (("kernel", FileMetadataServer), ("ref", RefFMS)):
        wal = str(tmp_path / f"{side}.wal") if tmp_path is not None else None
        servers.append(cls(sid=2, decoupled=decoupled, track_touches=True, wal_path=wal))
    p = WritePair(*servers, hook=hook)
    p.call(lambda s: s.op_create(5, "a", 0o640, USER, 1.0))
    p.call(lambda s: s.op_create(5, "файл", 0o600, OTHER, 2.0, 8192))
    p.call(lambda s: s.op_create(9, "b", 0o755, ROOT_CRED, 3.0))
    p.call(lambda s: s.op_create(9, "c", 0o644, USER, 3.5))
    p.call(lambda s: s.op_truncate(5, "a", 12345, 4.0))
    return p


@pytest.mark.parametrize("mode", FMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
def test_setattr_every_field_combination(mode, cred):
    p = fms_pair(**mode)
    t = 10.0
    for fmode, uid, gid in itertools.product((None, 0o4711), (None, 7), (None, 8)):
        t += 1.0
        for dir_uuid, name in ((5, "a"), (5, "файл"), (5, "nope")):
            p.call(lambda s: s.op_setattr(dir_uuid, name, cred, t, mode=fmode, uid=uid,
                                          gid=gid))
    assert p.call(lambda s: s.op_setattr(5, "nope", cred, t, mode=0o600)) == (
        "NoEntry", ("NoEntry: nope",))


@pytest.mark.parametrize("mode", FMS_MODES)
def test_truncate_and_write_meta(mode):
    p = fms_pair(**mode)
    for size in (0, 7, 1 << 40):
        p.call(lambda s: s.op_truncate(5, "a", size, 5.0 + size))
    for end in (0, 100, 50, 1 << 20, 1 << 20):
        p.call(lambda s: s.op_write_meta(9, "b", end, 6.0))
    for op in (lambda s: s.op_truncate(5, "nope", 3, 1.0),
               lambda s: s.op_write_meta(77, "a", 3, 1.0)):
        assert p.call(op)[0] == "NoEntry"


@pytest.mark.parametrize("mode", FMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
def test_remove_export_and_import(mode, cred):
    p = fms_pair(**mode)
    p.call(lambda s: s.op_remove(5, "a", cred))
    p.call(lambda s: s.op_remove(5, "a", cred))  # gone (or still there: EPERM)
    out = p.call(lambda s: s.op_export_remove(9, "c", cred))
    if out[0] == "ok":
        inode = out[1]
        p.call(lambda s: s.op_import(5, "moved", inode["access"], inode["content"]))
        p.call(lambda s: s.op_import(9, "b", inode["access"], inode["content"]))  # Exists
        p.call(lambda s: s.op_import(77, "new-dir", inode["access"], inode["content"]))
    p.call(lambda s: s.op_remove(9, "b", cred))
    p.call(lambda s: s.op_export_remove(9, "b", cred))


@pytest.mark.parametrize("mode", FMS_MODES)
def test_missing_or_corrupt_dirent_list(mode):
    p = fms_pair(**mode)
    ekey5, ekey9 = b"E:" + (5).to_bytes(8, "big"), b"E:" + (9).to_bytes(8, "big")
    p.call(lambda s: s.store.delete(ekey5))
    p.call(lambda s: s.op_remove(5, "a", ROOT_CRED))  # writes an empty list back
    p.call(lambda s: s.store.put(ekey9, s.store.get(ekey9)[:-3]))
    out = p.call(lambda s: s.op_remove(9, "b", ROOT_CRED))
    assert out[0] == "CorruptDirents"
    assert p.call(lambda s: s.op_rename_local(9, "c", 5, "x", ROOT_CRED))[0] == "CorruptDirents"
    p.call(lambda s: s.op_rename_local(5, "файл", 9, "y", ROOT_CRED))


@pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
def test_corrupt_dirent_list_leaves_the_file_in_place(decoupled, tmp_path):
    """A truncated ``E:`` list fails unlink, export and local rename before
    any inode part is deleted: the file still stats, the live-file count
    agrees with a store scan, and the WAL holds no delete."""
    fms = FileMetadataServer(sid=2, decoupled=decoupled,
                             wal_path=str(tmp_path / "fms.wal"))
    fms.op_create(9, "b", 0o644, USER, 1.0)
    fms.op_create(9, "c", 0o644, USER, 2.0)
    ekey = b"E:" + (9).to_bytes(8, "big")
    fms.store.put(ekey, fms.store.get(ekey)[:-3])
    before = fms.op_getattr(9, "b")
    for op in (lambda: fms.op_remove(9, "b", ROOT_CRED),
               lambda: fms.op_export_remove(9, "b", ROOT_CRED),
               lambda: fms.op_rename_local(9, "b", 9, "z", ROOT_CRED)):
        with pytest.raises(CorruptDirents):
            op()
        assert fms.op_getattr(9, "b") == before
        assert fms.num_files_fast() == fms.num_files() == 2
    fms.store.close()
    records = list(WriteAheadLog.replay(str(tmp_path / "fms.wal")))
    assert records and all(op == OP_PUT for op, _, _ in records)


RENAMES = [
    pytest.param((5, "a", 5, "a2"), id="same-dir"),
    pytest.param((5, "a", 9, "z"), id="cross-dir"),
    pytest.param((5, "a", 9, "b"), id="over-existing"),
    pytest.param((5, "a", 5, "файл"), id="over-foreign"),
    pytest.param((5, "gone", 9, "b"), id="missing-source-existing-destination"),
    pytest.param((5, "gone", 9, "z"), id="missing-source-fresh-destination"),
    pytest.param((9, "c", 9, "c"), id="onto-itself"),
]


@pytest.mark.parametrize("mode", FMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
@pytest.mark.parametrize("rename", RENAMES)
def test_rename_local(mode, cred, rename):
    p = fms_pair(**mode)
    sdir, sname, ddir, dname = rename
    p.call(lambda s: s.op_rename_local(sdir, sname, ddir, dname, cred))
    for dir_uuid in (5, 9):
        p.call(lambda s: s.op_readdir(dir_uuid))


def test_rename_local_keeps_the_destination_when_the_source_is_missing():
    fms = FileMetadataServer(sid=1)
    fms.op_create(5, "dst", 0o644, USER, 1.0)
    with pytest.raises(NoEntry) as err:
        fms.op_rename_local(5, "missing", 5, "dst", USER)
    assert err.value.args == ("NoEntry: missing",)
    assert fms.op_getattr(5, "dst")["ctime"] == 1.0
    assert [e.name for e in dirent.decode(fms.op_readdir(5))] == ["dst"]
    assert fms.num_files_fast() == fms.num_files() == 1


BATCHES = [
    (("setattr", 5, "a", USER, 20.0, 0o600, None, None),
     ("setattr", 5, "a", USER, 21.0, None, 3, 4),
     ("create", 5, "n1", 0o644, USER, 22.0, 4096),
     ("create", 5, "n2", 0o644, USER, 22.5, 4096),
     ("unlink", 5, "n1", USER),
     ("unlink_opt", 5, "n1", USER),
     ("rename_local", 5, "n2", 9, "b", USER),
     ("rename_local", 5, "gone", 9, "c", USER),
     ("rename_local", 9, "c", 5, "a", USER),
     ("setattr", 5, "missing", USER, 23.0, 0o600, None, None),
     ("unlink", 9, "nope", OTHER),
     ("create", 5, "a", 0o644, USER, 24.0, 4096),
     ("bogus", 5, "x")),
    (("rename_local", 5, "a", 5, "a", USER),
     ("setattr", 5, "файл", OTHER, 30.0, None, None, 9),
     ("unlink", 5, "файл", OTHER),
     ("rename_local", 9, "b", 9, "c", ROOT_CRED)),
]


@pytest.mark.parametrize("mode", FMS_MODES)
@pytest.mark.parametrize("batch", range(len(BATCHES)))
def test_apply_batch_mixes(mode, batch):
    p = fms_pair(**mode)
    p.call(lambda s: s.op_apply_batch(BATCHES[batch]))
    for dir_uuid in (5, 9):
        p.call(lambda s: s.op_readdir(dir_uuid))


@pytest.mark.parametrize("decoupled", [True, False])
def test_fms_writes_with_wal_match(tmp_path, decoupled):
    p = fms_pair(decoupled=decoupled, tmp_path=tmp_path)
    for fmode, uid, gid in itertools.product((None, 0o600), (None, 7), (None, 8)):
        p.call(lambda s: s.op_setattr(5, "a", ROOT_CRED, 9.0, mode=fmode, uid=uid, gid=gid))
    p.call(lambda s: s.op_truncate(5, "a", 3, 9.5))
    p.call(lambda s: s.op_write_meta(5, "a", 2, 9.75))
    p.call(lambda s: s.op_write_meta(5, "a", 20, 9.8))
    with_group = [("rename_local", 5, "a", 9, "b", ROOT_CRED),
                  ("rename_local", 9, "c", 5, "c2", ROOT_CRED)]
    for server in (p.kernel, p.ref):
        with server.group_commit():
            server.op_apply_batch(tuple(with_group))
    p.check()
    inode = p.call(lambda s: s.op_export_remove(5, "файл", ROOT_CRED))[1]
    p.call(lambda s: s.op_import(9, "f2", inode["access"], inode["content"]))
    p.call(lambda s: s.op_remove(9, "f2", ROOT_CRED))
    p.wal_bytes_match(tmp_path)


def test_randomized_fms_writes_match():
    rng = random.Random(21)
    p = fms_pair(hook="trace")
    names = ["a", "b", "c", "файл", "n", "zz"]
    t = 40.0
    for _ in range(400):
        t += 0.5
        d, name = rng.choice((5, 9)), rng.choice(names)
        cred = rng.choice((ROOT_CRED, USER, OTHER))
        kind = rng.randrange(6)
        if kind == 0:
            p.call(lambda s: s.op_create(d, name, 0o644, cred, t))
        elif kind == 1:
            fmode, uid = rng.choice((None, 0o600)), rng.choice((None, 1000))
            p.call(lambda s: s.op_setattr(d, name, cred, t, mode=fmode, uid=uid))
        elif kind == 2:
            p.call(lambda s: s.op_remove(d, name, cred))
        elif kind == 3:
            dst = rng.choice(names)
            d2 = rng.choice((5, 9))
            p.call(lambda s: s.op_rename_local(d, name, d2, dst, cred))
        elif kind == 4:
            end = rng.randrange(5000)
            p.call(lambda s: s.op_write_meta(d, name, end, t))
        else:
            size = rng.randrange(5000)
            p.call(lambda s: s.op_truncate(d, name, size, t))


# -- reference DMS handlers ------------------------------------------------------------


class _RefDirWrites:
    """The per-call DMS write bodies: a metered ``get`` probe in mkdir, one
    ``write_at`` per attribute, and the decode-and-repack dirent remover."""

    _resolve = ref_resolve

    def _mkdir(self, path, mode, cred, now_s, uuid=None, walked=None):
        self._touch("mkdir", "dir", "dirent")
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        if walked is None:
            self._resolve(path, cred, fetch=False)
        elif parent not in walked:
            self._resolve(path, cred, fetch=False)
            walked.update(pathutil.ancestors(path))
        pmeta = self._meta.get(parent)
        if pmeta is None:
            raise NoEntry(parent)
        pmode, puid, pgid, puuid = pmeta
        if not may_access(pmode, puid, pgid, cred, W_OK | X_OK):
            raise PermissionDenied(parent)
        if self.store.get(_ikey(path)) is not None:
            if uuid is not None and self._meta.get(path, (0, 0, 0, -1))[3] == uuid:
                return uuid
            raise Exists(path)
        if uuid is None:
            uuid = self._allocate_uuid()
        dmode = S_IFDIR | (mode & 0o7777)
        buf = DIR_INODE.pack(ctime=now_s, mode=dmode, uid=cred.uid, gid=cred.gid, uuid=uuid)
        self.store.put(_ikey(path), buf)
        self.store.put(_ekey(uuid), b"")
        self.store.append(_ekey(puuid), dirent.pack_entry(name, uuid, FileType.DIRECTORY))
        self._meta[path] = (dmode, cred.uid, cred.gid, uuid)
        return uuid

    def _ref_write_attrs(self, path, key, omode, ouid, ogid, uuid, now_s, mode, uid, gid):
        if mode is not None:
            omode = (omode & ~0o7777) | (mode & 0o7777)
            self.store.write_at(key, DIR_INODE.offset("mode"), DIR_INODE.encode_field("mode", omode))
        if uid is not None:
            ouid = uid
            self.store.write_at(key, DIR_INODE.offset("uid"), DIR_INODE.encode_field("uid", uid))
        if gid is not None:
            ogid = gid
            self.store.write_at(key, DIR_INODE.offset("gid"), DIR_INODE.encode_field("gid", gid))
        self.store.write_at(key, DIR_INODE.offset("ctime"), DIR_INODE.encode_field("ctime", now_s))
        self._meta[path] = (omode, ouid, ogid, uuid)

    def op_setattr(self, path, cred, now_s, mode=None, uid=None, gid=None):
        self._touch("chmod_dir" if mode is not None else "chown_dir", "dir")
        path = pathutil.normalize(path)
        _, (omode, ouid, ogid, uuid) = self._resolve(path, cred)
        if not cred.is_root and cred.uid != ouid:
            raise PermissionDenied(path)
        self._ref_write_attrs(path, _ikey(path), omode, ouid, ogid, uuid, now_s, mode, uid, gid)

    def op_shard_setattr(self, path, cred, now_s, mode=None, uid=None, gid=None):
        path = pathutil.normalize(path)
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        omode, ouid = DIR_INODE.read(buf, "mode"), DIR_INODE.read(buf, "uid")
        ogid, uuid = DIR_INODE.read(buf, "gid"), DIR_INODE.read(buf, "uuid")
        if not cred.is_root and cred.uid != ouid:
            raise PermissionDenied(path)
        self._ref_write_attrs(path, _ikey(path), omode, ouid, ogid, uuid, now_s, mode, uid, gid)

    def op_rmdir(self, path, cred):
        self._touch("rmdir", "dir", "dirent")
        path = pathutil.normalize(path)
        _, (_, _, _, uuid) = self._resolve(path, cred)
        parent, name = pathutil.split(path)
        pmeta = self._meta[parent]
        if not may_access(pmeta[0], pmeta[1], pmeta[2], cred, W_OK | X_OK):
            raise PermissionDenied(parent)
        if dirent.count_entries(self.store.get(_ekey(uuid)) or b"") > 0:
            raise NotEmpty(path)
        self.store.delete(_ikey(path))
        self.store.delete(_ekey(uuid))
        newbuf, _ = ref_remove_entry(self.store.get(_ekey(pmeta[3])) or b"", name)
        self.store.put(_ekey(pmeta[3]), newbuf)
        del self._meta[path]
        return uuid

    def op_rename(self, old, new, cred):
        self._touch("rename_dir", "dir", "dirent")
        old, new = pathutil.normalize(old), pathutil.normalize(new)
        if old == "/" or new == "/":
            raise InvalidArgument(old, "cannot rename root")
        if old == new:
            return 0
        if pathutil.is_ancestor(old, new):
            raise InvalidArgument(new, "cannot move a directory into itself")
        self._resolve(old, cred, fetch=False)
        self._resolve(new, cred, fetch=False)
        buf = self.store.get(_ikey(old))
        if buf is None:
            raise NoEntry(old)
        uuid = self._meta[old][3]
        if self.store.get(_ikey(new)) is not None:
            raise Exists(new)
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        npmeta = self._meta.get(new_parent)
        if npmeta is None:
            raise NoEntry(new_parent)
        self.store.delete(_ikey(old))
        self.store.put(_ikey(new), buf)
        moved = self.store.move_prefix(b"I:" + pathutil.dir_key_prefix(old).encode(),
                                       b"I:" + pathutil.dir_key_prefix(new).encode())
        opmeta = self._meta[old_parent]
        pbuf, _ = ref_remove_entry(self.store.get(_ekey(opmeta[3])) or b"", old_name)
        self.store.put(_ekey(opmeta[3]), pbuf)
        self.store.append(_ekey(npmeta[3]), dirent.pack_entry(new_name, uuid, FileType.DIRECTORY))
        self._meta[new] = self._meta.pop(old)
        old_prefix = pathutil.dir_key_prefix(old)
        for q in [q for q in self._meta if q.startswith(old_prefix)]:
            self._meta[pathutil.dir_key_prefix(new) + q[len(old_prefix):]] = self._meta.pop(q)
        self.counters.inc("rename.dirs_moved", moved + 1)
        return moved


class RefDMS(_RefDirWrites, DirectoryMetadataServer):
    pass


class RefShard(_RefDirWrites, DirectoryShardServer):
    pass


DMS_MODES = [
    pytest.param(dict(backend="btree"), id="btree"),
    pytest.param(dict(backend="hash"), id="hash"),
    pytest.param(dict(backend="btree", hook="trace"), id="btree-trace"),
    pytest.param(dict(backend="hash", hook="registry"), id="hash-registry"),
]


def dms_pair(backend="btree", hook=None, tmp_path=None, shard=False):
    servers = []
    for side in ("kernel", "ref"):
        wal = str(tmp_path / f"{side}.wal") if tmp_path is not None else None
        if shard:
            cls = DirectoryShardServer if side == "kernel" else RefShard
            servers.append(cls(0, backend=backend, has_root=True, wal_path=wal))
        else:
            cls = DirectoryMetadataServer if side == "kernel" else RefDMS
            servers.append(cls(backend=backend, track_touches=True, wal_path=wal))
    p = WritePair(*servers, hook=hook)
    for path in ("/u", "/u/a", "/u/a/b", "/u/c", "/v"):
        p.call(lambda s: s.op_mkdir(path, 0o755, ROOT_CRED, 1.0))
    p.call(lambda s: s.op_setattr("/u", ROOT_CRED, 1.5, uid=USER.uid, gid=USER.gid))
    p.call(lambda s: s.op_setattr("/u/a", ROOT_CRED, 1.5, uid=USER.uid, gid=USER.gid))
    return p


@pytest.mark.parametrize("mode", DMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
def test_dms_setattr_every_field_combination(mode, cred):
    p = dms_pair(**mode)
    t = 2.0
    for fmode, uid, gid in itertools.product((None, 0o4711), (None, 7), (None, 8)):
        t += 1.0
        for path in ("/u/a", "/v", "/u/nope", "/"):
            p.call(lambda s: s.op_setattr(path, cred, t, mode=fmode, uid=uid, gid=gid))


@pytest.mark.parametrize("mode", DMS_MODES)
@pytest.mark.parametrize("cred", CREDS)
def test_dms_mkdir_rmdir_rename(mode, cred):
    p = dms_pair(**mode)
    p.call(lambda s: s.op_mkdir("/u/a/new", 0o700, cred, 3.0))
    p.call(lambda s: s.op_mkdir("/u/a/new", 0o700, cred, 3.0))  # Exists
    p.call(lambda s: s.op_mkdir("/gone/x", 0o700, cred, 3.0))
    p.call(lambda s: s.op_mkdir("/", 0o700, cred, 3.0))
    p.call(lambda s: s.op_rename("/u/c", "/v/c2", cred))
    p.call(lambda s: s.op_rename("/u/a", "/v/a2", cred))
    p.call(lambda s: s.op_rename("/v/missing", "/v/a3", cred))
    p.call(lambda s: s.op_rmdir("/v/c2", cred))
    p.call(lambda s: s.op_rmdir("/v/a2", cred))  # not empty
    p.call(lambda s: s.op_rmdir("/v/a2/b", cred))
    for path in ("/", "/u", "/v", "/v/a2"):
        p.call(lambda s: s.op_readdir(path, ROOT_CRED))


@pytest.mark.parametrize("mode", DMS_MODES)
def test_dms_batch_with_uuid_replay(mode):
    p = dms_pair(**mode)
    batch = (("mkdir", "/u/a/d1", 0o755, USER, 5.0, (1 << 48) | 900),
             ("mkdir", "/u/a/d1/e", 0o755, USER, 5.0, (1 << 48) | 901),
             ("dsetattr", "/u/a/d1", USER, 6.0, 0o700, None, None),
             ("dsetattr", "/u/a/d1", OTHER, 6.5, None, 1, 1),
             ("mkdir", "/v/x", 0o755, OTHER, 7.0, (1 << 48) | 902),
             ("dsetattr", "/nope", USER, 8.0, 0o700, None, None))
    p.call(lambda s: s.op_apply_batch(batch))
    # a retried flush replays the same client-reserved uuids
    p.call(lambda s: s.op_apply_batch(batch[:2]))
    p.call(lambda s: s.op_apply_batch(
        (("mkdir", "/u/a/d1", 0o755, USER, 9.0, (1 << 48) | 999),)))


@pytest.mark.parametrize("cred", CREDS)
def test_shard_setattr(cred):
    p = dms_pair(shard=True, hook="trace")
    for fmode, uid, gid in itertools.product((None, 0o711), (None, 7), (None, 8)):
        for path in ("/u/a", "/nope"):
            p.call(lambda s: s.op_shard_setattr(path, cred, 4.0, fmode, uid, gid))


@pytest.mark.parametrize("backend", ["btree", "hash"])
def test_dms_writes_with_wal_match(tmp_path, backend):
    p = dms_pair(backend=backend, tmp_path=tmp_path)
    for fmode, uid, gid in itertools.product((None, 0o700), (None, 7), (None, 8)):
        p.call(lambda s: s.op_setattr("/u/a", ROOT_CRED, 3.0, mode=fmode, uid=uid, gid=gid))
    p.call(lambda s: s.op_rename("/u/c", "/v/c", ROOT_CRED))
    p.call(lambda s: s.op_rmdir("/v/c", ROOT_CRED))
    p.call(lambda s: s.op_apply_batch((("mkdir", "/v/m", 0o755, ROOT_CRED, 4.0, 77),
                                       ("dsetattr", "/v/m", ROOT_CRED, 5.0, 0o700, 1, 2))))
    p.wal_bytes_match(tmp_path)


def test_dms_setattr_on_a_malformed_record_raises_the_layout_error():
    dms = DirectoryMetadataServer()
    dms.op_mkdir("/d", 0o755, ROOT_CRED, 1.0)
    dms.store.put(_ikey("/d"), dms.store.get(_ikey("/d"))[:-1])
    with pytest.raises(ValueError, match="dir_inode: buffer is 255 bytes"):
        dms.op_setattr("/d", ROOT_CRED, 2.0, mode=0o700)


# -- the splicing dirent remover ---------------------------------------------------------


def _dirents(rng, n):
    names = ["x", "файл-数据", "a" * 300, "é", "sub", "x"]
    return b"".join(dirent.pack_entry(rng.choice(names) + str(i % 3), rng.getrandbits(64),
                                      rng.choice(list(FileType)))
                    for i in range(n))


def _both(buf, name):
    outs = []
    for fn in (dirent.remove_entry, ref_remove_entry):
        try:
            outs.append(("ok", fn(buf, name)))
        except CorruptDirents as e:
            outs.append(("CorruptDirents", e.args))
    assert outs[0] == outs[1], (buf, name)
    return outs[0]


def test_remove_entry_matches_decode_and_repack():
    rng = random.Random(8)
    for n in (0, 1, 2, 5, 30):
        buf = _dirents(rng, n)
        names = {e.name for e in dirent.decode(buf)} | {"absent", ""}
        for name in sorted(names):
            out = _both(buf, name)
            assert out[0] == "ok"


def test_remove_entry_on_every_truncation():
    buf = _dirents(random.Random(9), 5)
    names = [e.name for e in dirent.decode(buf)] + ["absent"]
    for cut in range(len(buf)):
        for name in names:
            _both(buf[:cut], name)


@pytest.mark.parametrize("bad", [
    pytest.param(b"\x02\x00\xff\xfe" + bytes(8) + b"\x01", id="not-utf8"),
    pytest.param(b"\x01\x00a" + bytes(8) + b"\x09", id="unknown-type"),
    pytest.param(b"\x05", id="half-a-length"),
    pytest.param(b"\x09\x00abc", id="name-past-the-end"),
])
@pytest.mark.parametrize("at", range(3))
def test_remove_entry_rejects_malformed_entries_where_decode_does(bad, at):
    good = [dirent.pack_entry(n, i, FileType.FILE) for i, n in enumerate(("p", "q", "r"))]
    buf = b"".join(good[:at]) + bad + b"".join(good[at:])
    with pytest.raises(CorruptDirents):
        dirent.decode(buf)
    for name in ("p", "q", "r", "absent"):
        assert _both(buf, name)[0] == "CorruptDirents"


def test_remove_entry_keeps_the_other_entries_bytes():
    entries = [dirent.pack_entry(n, i, FileType.FILE) for i, n in enumerate("abcab")]
    buf = b"".join(entries)
    assert dirent.remove_entry(buf, "b") == (entries[0] + b"".join(entries[2:]), True)
    assert dirent.remove_entry(buf, "z") == (buf, False)


# -- lookup-cache node -------------------------------------------------------------------


class RefCache(LookupCacheServer):
    """The per-call cache handlers: a metered ``get`` per probe, a
    ``delete`` per eviction or invalidation, a ``put`` per fill."""

    def _lookup(self, key):
        value = self.store.get(key)
        self.counters.inc("misses" if value is None else "hits")
        return value

    def _admit(self, key, value, issued_at):
        stale_floor = self._invalidated_at.get(key)
        if key.startswith(b"D:"):
            epoch = self._dir_epoch
            if stale_floor is None or epoch > stale_floor:
                stale_floor = epoch if epoch else None
        if stale_floor is not None and issued_at <= stale_floor:
            self.counters.inc("fills_rejected")
            self.store.meter.charge("get", len(key))
            return False
        if key not in self.store._data and len(self.store._data) >= self.capacity:
            self.store.delete(next(iter(self.store._data)))
            self.counters.inc("evictions")
        self.store.put(key, value)
        self.counters.inc("fills")
        return True

    def op_getattr(self, fms, dir_uuid, name):
        value = self._lookup(file_cache_key(fms, dir_uuid, name))
        if value is None:
            return None
        out = FILE_ACCESS.unpack(value[:20])
        out.update(FILE_CONTENT.unpack(value[20:]))
        return out

    def op_open(self, fms, dir_uuid, name, cred, want):
        value = self._lookup(file_cache_key(fms, dir_uuid, name))
        if value is None:
            return None
        a, c = value[:20], value[20:]
        mode = FILE_ACCESS.read(a, "mode")
        if not may_access(mode, FILE_ACCESS.read(a, "uid"), FILE_ACCESS.read(a, "gid"),
                          cred, want):
            raise PermissionDenied(name)
        return {"uuid": FILE_CONTENT.read(c, "suuid"), "mode": mode,
                "size": FILE_CONTENT.read(c, "size")}

    def op_access(self, fms, dir_uuid, name, cred, want):
        value = self._lookup(file_cache_key(fms, dir_uuid, name))
        if value is None:
            return None
        a = value[:20]
        return may_access(FILE_ACCESS.read(a, "mode"), FILE_ACCESS.read(a, "uid"),
                          FILE_ACCESS.read(a, "gid"), cred, want)

    def op_invalidate(self, file_keys, paths, now):
        dropped = 0
        inval = self._invalidated_at
        keys = ([file_cache_key(*k) for k in file_keys]
                + [dir_cache_key(p) for p in paths])
        for key in keys:
            inval[key] = max(now, inval.pop(key, 0.0))
            dropped += self.store.delete(key)
        n = len(inval) - 4 * self.capacity
        if n > 0:
            for key in list(inval)[:n]:
                del inval[key]
        self.counters.inc("invalidations", len(file_keys) + len(paths))
        return dropped


def _parts(mode, uid, size):
    return (FILE_ACCESS.pack(ctime=1.0, mode=mode, uid=uid, gid=100),
            FILE_CONTENT.pack(mtime=2.0, atime=3.0, size=size, bsize=4096, suuid=size + 1,
                              sid=0))


@pytest.mark.parametrize("hook", [None, "trace", "registry"])
def test_cache_handlers_match(hook):
    p = WritePair(LookupCacheServer(capacity=3), RefCache(capacity=3), hook=hook)
    rng = random.Random(4)
    names = ["a", "b", "c", "d", "e"]
    t = 0.0
    for _ in range(400):
        t += 1.0
        name = rng.choice(names)
        kind = rng.randrange(7)
        cred = rng.choice((ROOT_CRED, USER, OTHER))
        if kind == 0:
            a, c = _parts(0o100640, rng.choice((USER.uid, OTHER.uid)), rng.randrange(99))
            issued = t - rng.choice((0.5, 3.0))
            p.call(lambda s: s.op_fill_file("fms0", 5, name, a, c, issued))
        elif kind == 1:
            p.call(lambda s: s.op_getattr("fms0", 5, name))
        elif kind == 2:
            want = rng.choice((2, 4, 6))
            p.call(lambda s: s.op_open("fms0", 5, name, cred, want))
        elif kind == 3:
            want = rng.choice((1, 4))
            p.call(lambda s: s.op_access("fms0", 5, name, cred, want))
        elif kind == 4:
            fkeys = tuple(("fms0", 5, n) for n in rng.sample(names, rng.randrange(3)))
            paths = tuple(f"/{n}" for n in rng.sample(names, rng.randrange(2)))
            p.call(lambda s: s.op_invalidate(fkeys, paths, t - 1.0))
        elif kind == 5:
            info = {"ctime": 1.0, "mode": S_IFDIR | 0o755, "uid": 0, "gid": 0, "uuid": 7}
            p.call(lambda s: s.op_fill_lookup(f"/{name}", info, cred, t - 0.5))
        else:
            p.call(lambda s: s.op_lookup(f"/{name}", cred))


@pytest.mark.parametrize("length", [0, 12, 19, 20, 21, 59, 61])
def test_wrong_length_cache_entry_raises_the_layout_error(length):
    p = WritePair(LookupCacheServer(), RefCache(), hook="trace")
    key = file_cache_key("fms0", 5, "x")
    a, c = _parts(0o100644, USER.uid, 7)
    p.call(lambda s: s.store.put(key, (a + c + bytes(8))[:length]))
    out = p.call(lambda s: s.op_getattr("fms0", 5, "x"))
    assert out[0] == "ValueError"
    assert p.call(lambda s: s.op_open("fms0", 5, "x", ROOT_CRED, 4))[0] == "ValueError"
    p.call(lambda s: s.op_access("fms0", 5, "x", USER, 4))
    assert p.kernel.counters.get("hits") == 3


def test_re_invalidated_floor_survives_the_bound():
    """A hot key invalidated again moves to the tail of the stale floors, so
    trimming the 4x-capacity bound cannot drop its newest floor and let a
    fill read before that invalidation in."""
    cache = LookupCacheServer(capacity=2)
    a, c = _parts(0o100644, 0, 0)
    cache.op_invalidate((("fms0", 1, "hot"),), (), 1.0)
    for i in range(7):
        cache.op_invalidate((("fms0", 1, f"k{i}"),), (), 2.0 + i)
    cache.op_invalidate((("fms0", 1, "hot"),), (), 100.0)
    cache.op_invalidate((("fms0", 1, "late"),), (), 101.0)
    assert len(cache._invalidated_at) == 8
    assert cache.op_fill_file("fms0", 1, "hot", a, c, issued_at=99.0) is False
    assert cache.counters.get("fills_rejected") == 1
    assert cache.op_fill_file("fms0", 1, "hot", a, c, issued_at=100.5) is True


# -- the async client's warm path ----------------------------------------------------------


class GeneratorRoute(AsyncLocoClient):
    """Takes every generator the warm path skips: the stale and barrier
    generators on every op, the enqueue's generator tail, and the
    directory resolution as the one generator it was, probe included."""

    def _stale_due(self):
        return True

    def _barrier_due(self):
        return True

    def _enq_fms(self, *args, **kwargs):
        super()._enq_fms(*args, **kwargs)
        return True

    def _dir_cached(self, path):
        return None

    def _g_file_barrier(self, path):
        yield from self._g_flush_stale()
        if not self._dirty:
            return
        parent, name = pathutil.split_fast(path)
        info = yield from self._g_dir(parent)
        yield from self._g_flush_key(info["uuid"], name)

    def _g_dir_fetch(self, path):
        observed = self._obs_detailed
        if self.cache_enabled:
            hit = self.dcache.get(path, self.now_us)
            if hit is not None:
                if observed:
                    yield Mark("client.cache.hit", {"path": path})
                return hit
        if path in self._dms_dirty:
            yield from self._g_flush_dms("read")
        info = yield Rpc(self._cache_node, "lookup", (path, self.cred))
        if info is None:
            t_issue = self.now_us
            info = yield Rpc("dms", "lookup", (path, self.cred))
            yield Rpc(self._cache_node, "fill_lookup", (path, info, self.cred, t_issue))
        if self.cache_enabled:
            self.dcache.put(path, info, self.now_us)
            if observed:
                yield Mark("client.cache.miss", {"path": path})
        return info


def _describe(cmd):
    if isinstance(cmd, Rpc):
        return ("rpc", cmd.server, cmd.method, repr(cmd.args), repr(cmd.kwargs),
                cmd.send_bytes, cmd.recv_bytes)
    if isinstance(cmd, (Batch, Parallel)):
        return (type(cmd).__name__, getattr(cmd, "server", None),
                tuple(_describe(r) for r in cmd.rpcs))
    return (type(cmd).__name__, repr(getattr(cmd, "name", None)))


def _recorded(gen, log):
    """Pass ``gen``'s commands through, logging each and what came back."""
    value, exc = None, None
    while True:
        try:
            cmd = gen.throw(exc) if exc is not None else gen.send(value)
        except StopIteration as stop:
            return stop.value
        log.append(_describe(cmd))
        try:
            value, exc = (yield cmd), None
        except Exception as e:  # noqa: BLE001 - handed back to the client
            value, exc = None, e
        log.append(("->", type(exc).__name__ if exc is not None else repr(value)))


SCRIPT = [
    ("mkdir", "/d"), ("mkdir", "/e"), ("create", "/d/f1"), ("create", "/d/f2"),
    ("create", "/e/g"), ("stat", "/d/f1"), ("chmod", "/d/f1", 0o600),
    ("chown", "/d/f1", 7, 8), ("chmod", "/d/f1", 0o640), ("access", "/d/f2", 4),
    ("open", "/d/f2"), ("unlink", "/d/f2"), ("create", "/d/f2"),
    ("rename", "/d/f1", "/d/f3"), ("rename", "/d/f3", "/e/f3"),
    ("rename", "/missing", "/e/g"), ("mkdir", "/d/sub"), ("create", "/d/sub/x"),
    ("stat", "/d/sub/x"), ("chmod", "/d/sub", 0o700), ("readdir", "/d"),
    ("stat", "/e/f3"), ("open", "/e/g"), ("access", "/e", 1), ("unlink", "/e/nope"),
    ("rmdir", "/d/sub"), ("stat_dir", "/d"), ("rename", "/d/sub", "/e/sub2"),
    ("access", "/d/f2", 2), ("stat", "/e/g"), ("flush",),
    # a directory queue that ages while no file key is dirty
    ("mkdir", "/q"), ("stat", "/e/g"), ("access", "/e/g", 4), ("open", "/e/g"),
    ("stat", "/e/g"), ("create", "/q/z"), ("stat", "/q/z"), ("flush",),
]


def _run_script(client):
    out = []
    for op in SCRIPT * 3:
        try:
            out.append(repr(getattr(client, op[0])(*op[1:])))
        except FSError as e:
            out.append(type(e).__name__)
    return out


@pytest.mark.parametrize("engine_kind", ["direct", "event"])
@pytest.mark.parametrize("servers", [1, 3])
@pytest.mark.parametrize("max_age_us", [8.0, 150.0])
@pytest.mark.parametrize("observed", [False, True])
def test_warm_path_issues_the_generator_route_commands(monkeypatch, engine_kind, servers,
                                                       max_age_us, observed):
    runs = []
    for cls in (AsyncLocoClient, GeneratorRoute):
        monkeypatch.setattr(fs_module, "AsyncLocoClient", cls)
        system = LocoFS(ClusterConfig(
            num_metadata_servers=servers,
            cache=CacheConfig(lease_seconds=0.0004),
            batch=BatchConfig(enabled=True, all_ops=True, max_ops=4, max_age_us=max_age_us),
            lookup_cache=LookupCacheConfig(enabled=True, capacity=6)), engine_kind=engine_kind)
        if observed:
            from repro.obs import MetricsRegistry
            system.attach_observability(metrics=MetricsRegistry())
        client = system.client()
        assert type(client) is cls
        log = []
        run = client._run
        client._run = lambda gen, run=run, log=log: run(_recorded(gen, log))
        results = _run_script(client)
        cache = system.lookup_cache
        runs.append((results, log, system.engine.now,
                     (client.dcache.hits, client.dcache.misses, client.dcache.expirations),
                     dict(cache.counters.values), client.annihilations, client.coalesced,
                     [f._nfiles for f in system.fms]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2:] == runs[1][2:]
    assert runs[0][3][2] > 0  # the lease expired on the way
