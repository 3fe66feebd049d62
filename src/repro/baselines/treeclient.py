"""Generic client for the baseline (traditional directory-tree) systems.

Implements the shared FS contract on top of :class:`TreePartitionServer`
partitions and a :class:`~repro.baselines.placement.PlacementBase` policy.
The structural costs the paper attributes to traditional designs fall out
here: path resolution *walks* components (one lookup RPC per uncached
ancestor — Fig. 2's long locating latency), a create whose inode and
parent dirent land on different servers needs two dependent RPCs, readdir
fans out to every partition that may hold entries, and a directory rename
exports and re-imports the whole subtree.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator

from repro.common import pathutil
from repro.common.errors import (
    Exists,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotEmpty,
    PermissionDenied,
)
from repro.common.types import Credentials, DirEntry, FileType, ROOT_CRED, StatResult
from repro.fsbase import FSClientBase
from repro.metadata import dirent as de
from repro.metadata.acl import R_OK, W_OK, X_OK, may_access
from repro.metadata.lease import LeaseCache
from repro.sim.rpc import Parallel, Rpc

from .codec import decode_inode, is_dir_inode
from .placement import PlacementBase


class TreeFSClient(FSClientBase):
    """One logical client of a baseline deployment."""

    def __init__(
        self,
        engine,
        placement: PlacementBase,
        block_placement,
        cred: Credentials = ROOT_CRED,
        lease_seconds: float = 30.0,
        cache_capacity: int = 65536,
        cache_file_attrs: bool = False,
        block_size: int = 4096,
        lock_rpc: bool = False,
        revalidate_stats: bool = False,
    ):
        super().__init__(engine, cred)
        self.placement = placement
        self.block_placement = block_placement
        self.dcache: LeaseCache[dict] = LeaseCache(lease_seconds, cache_capacity)
        self.cache_file_attrs = cache_file_attrs
        self.fcache: LeaseCache[dict] = LeaseCache(lease_seconds, cache_capacity)
        self.block_size = block_size
        #: Lustre-style distributed locking: every namespace mutation is
        #: preceded by a lock-enqueue round trip to the target MDS
        self.lock_rpc = lock_rpc
        #: close-to-open / stateless consistency: stats revalidate with the
        #: server even when the attrs are cached (Lustre, Gluster, IndexFS);
        #: CephFS capabilities allow serving stats from the client cache
        self.revalidate_stats = revalidate_stats

    def _g_lock(self, server: str, path: str) -> Generator:
        if self.lock_rpc:
            yield Rpc(server, "lock", (path,))

    # -- path resolution (component walk + lease cache) -----------------------------
    def _g_resolve_dir(self, path: str) -> Generator:
        """Resolve a directory inode, walking (and caching) each component."""
        path = pathutil.normalize(path)
        chain = pathutil.ancestors(path) + [path]
        infos: list[dict] = []
        for p in chain:
            info = self.dcache.get(p, self.now_us)
            if info is None:
                info = yield Rpc(self.placement.inode_server(p), "lookup", (p,))
                if not is_dir_inode(info):
                    raise NotADirectory(p)
                self.dcache.put(p, info, self.now_us)
            infos.append(info)
        for p, info in zip(chain[:-1], infos[:-1]):
            if not may_access(info["mode"], info["uid"], info["gid"], self.cred, X_OK):
                raise PermissionDenied(p)
        return infos[-1]

    def _check_write(self, info: dict, path: str) -> None:
        if not may_access(info["mode"], info["uid"], info["gid"], self.cred, W_OK | X_OK):
            raise PermissionDenied(path)

    # -- directories -------------------------------------------------------------------
    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        pinfo = yield from self._g_resolve_dir(parent)
        self._check_write(pinfo, parent)
        si = self.placement.inode_server(path)
        sd = self.placement.dirent_server(parent, name)
        yield from self._g_lock(si, path)
        if si == sd:
            uuid = yield Rpc(si, "mkdir_local", (path, mode, self.cred, now))
        else:
            # the cross-server dependency traditional trees suffer from
            uuid = yield Rpc(si, "put_dir_inode", (path, mode, self.cred, now))
            yield Rpc(sd, "link", (parent, name, int(FileType.DIRECTORY), uuid))
        self._prime_dir_cache(path, mode, uuid, now)
        return uuid

    def _prime_dir_cache(self, path: str, mode: int, uuid: int, now: float) -> None:
        self.dcache.put(path, {
            "kind": int(FileType.DIRECTORY), "mode": 0o040000 | (mode & 0o7777),
            "uid": self.cred.uid, "gid": self.cred.gid, "uuid": uuid,
            "ctime": now, "mtime": now, "atime": now, "size": 0, "bsize": 4096,
        }, self.now_us)

    def _g_rmdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        if path == "/":
            raise InvalidArgument(path, "cannot remove root")
        parent, name = pathutil.split(path)
        pinfo = yield from self._g_resolve_dir(parent)
        self._check_write(pinfo, parent)
        yield from self._g_resolve_dir(path)  # must exist and be a directory
        servers = self.placement.readdir_servers(path)
        counts = yield Parallel([Rpc(s, "count_children", (path,)) for s in servers])
        if sum(counts) > 0:
            raise NotEmpty(path)
        yield Rpc(self.placement.inode_server(path), "delete_dir_inode", (path,))
        cleanup = [s for s in servers if s != self.placement.inode_server(path)]
        if cleanup:
            yield Parallel([Rpc(s, "delete_dirent_list", (path,)) for s in cleanup])
        yield Rpc(self.placement.dirent_server(parent, name), "unlink_dirent", (parent, name))
        self.dcache.invalidate(path)

    def _g_readdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        info = yield from self._g_resolve_dir(path)
        if not may_access(info["mode"], info["uid"], info["gid"], self.cred, R_OK):
            raise PermissionDenied(path)
        bufs = yield Parallel(
            [Rpc(s, "readdir", (path,)) for s in self.placement.readdir_servers(path)]
        )
        seen: dict[str, DirEntry] = {}
        for buf in bufs:
            for e in de.decode(buf):
                seen.setdefault(e.name, e)
        return sorted(seen.values(), key=lambda e: e.name)

    def _g_stat_dir(self, path: str) -> Generator:
        info = yield from self._g_resolve_dir(path)
        if self.revalidate_stats:
            si = self.placement.inode_server(path)
            yield from self._g_lock(si, path)  # glimpse/CTO revalidation
            info = yield Rpc(si, "getattr", (path,))
        return self._stat_from(info)

    # -- files --------------------------------------------------------------------------
    def _g_create(self, path: str, mode: int = 0o644) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        parent, name = pathutil.split(path)
        if not name:
            raise Exists(path)
        pinfo = yield from self._g_resolve_dir(parent)
        self._check_write(pinfo, parent)
        si = self.placement.inode_server(path)
        sd = self.placement.dirent_server(parent, name)
        yield from self._g_lock(si, path)
        if si == sd:
            uuid = yield Rpc(si, "create_local", (path, mode, self.cred, now, self.block_size))
        else:
            uuid = yield Rpc(si, "put_file_inode", (path, mode, self.cred, now, self.block_size))
            yield Rpc(sd, "link", (parent, name, int(FileType.FILE), uuid))
        if self.cache_file_attrs:
            self.fcache.put(path, {
                "kind": int(FileType.FILE), "mode": 0o100000 | (mode & 0o7777),
                "uid": self.cred.uid, "gid": self.cred.gid, "uuid": uuid,
                "ctime": now, "mtime": now, "atime": now, "size": 0,
                "bsize": self.block_size,
            }, self.now_us)
        return uuid

    def _g_getattr_any(self, path: str) -> Generator:
        """getattr that works for files and directories alike."""
        path = pathutil.normalize(path)
        if path == "/":
            return (yield from self._g_resolve_dir(path))
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        if self.cache_file_attrs and not self.revalidate_stats:
            hit = self.fcache.get(path, self.now_us)
            if hit is not None:
                return hit
        si = self.placement.inode_server(path)
        yield from self._g_lock(si, path)
        attrs = yield Rpc(si, "getattr", (path,))
        if self.cache_file_attrs and not is_dir_inode(attrs):
            self.fcache.put(path, attrs, self.now_us)
        return attrs

    @staticmethod
    def _stat_from(attrs: dict) -> StatResult:
        return StatResult(
            st_mode=attrs["mode"], st_uid=attrs["uid"], st_gid=attrs["gid"],
            st_size=attrs["size"] if "size" in attrs else 0,
            st_ctime=attrs["ctime"], st_mtime=attrs["mtime"], st_atime=attrs["atime"],
            st_blksize=attrs.get("bsize", 4096), st_uuid=attrs["uuid"],
        )

    def _g_stat(self, path: str) -> Generator:
        attrs = yield from self._g_getattr_any(path)
        return self._stat_from(attrs)

    def _g_stat_file(self, path: str) -> Generator:
        attrs = yield from self._g_getattr_any(path)
        if is_dir_inode(attrs):
            raise IsADirectory(path)
        return self._stat_from(attrs)

    def _g_open(self, path: str, want: int = R_OK) -> Generator:
        path = pathutil.normalize(path)
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        yield from self._g_lock(self.placement.inode_server(path), path)
        handle = yield Rpc(self.placement.inode_server(path), "open",
                           (path, self.cred, want))
        handle["path"] = path
        return handle

    def _g_access(self, path: str, want: int = R_OK) -> Generator:
        path = pathutil.normalize(path)
        if path == "/":
            info = yield from self._g_resolve_dir(path)
            return may_access(info["mode"], info["uid"], info["gid"], self.cred, want)
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        yield from self._g_lock(self.placement.inode_server(path), path)
        return (yield Rpc(self.placement.inode_server(path), "access",
                          (path, self.cred, want)))

    def _g_unlink(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        parent, name = pathutil.split(path)
        pinfo = yield from self._g_resolve_dir(parent)
        self._check_write(pinfo, parent)
        si = self.placement.inode_server(path)
        sd = self.placement.dirent_server(parent, name)
        yield from self._g_lock(si, path)
        if si == sd:
            removed = yield Rpc(si, "remove_file", (path, self.cred, True))
        else:
            removed = yield Rpc(si, "remove_file", (path, self.cred, False))
            yield Rpc(sd, "unlink_dirent", (parent, name))
        self.fcache.invalidate(path)
        if removed["size"] > 0:
            yield Parallel([Rpc(n, "delete_file", (removed["uuid"],))
                            for n in self.block_placement.names])

    def _g_chmod(self, path: str, mode: int) -> Generator:
        yield from self._g_setattr(path, mode=mode)

    def _g_chown(self, path: str, uid: int, gid: int) -> Generator:
        yield from self._g_setattr(path, uid=uid, gid=gid)

    def _g_setattr(self, path: str, **fields) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        if path != "/":
            parent, _ = pathutil.split(path)
            yield from self._g_resolve_dir(parent)
        yield from self._g_lock(self.placement.inode_server(path), path)
        yield Rpc(self.placement.inode_server(path), "setattr",
                  (path, self.cred, now), fields)
        self.dcache.invalidate(path)
        self.fcache.invalidate(path)

    def _g_truncate(self, path: str, size: int) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        yield from self._g_lock(self.placement.inode_server(path), path)
        yield Rpc(self.placement.inode_server(path), "truncate", (path, size, now))
        self.fcache.invalidate(path)

    # -- data path -----------------------------------------------------------------------
    def _g_write(self, path: str, offset: int, data: bytes) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        si = self.placement.inode_server(path)
        if self.cache_file_attrs:
            # CephFS: acquire write capabilities from the MDS first
            yield Rpc(si, "lock", (path,))
        meta = yield Rpc(si, "write_meta", (path, offset + len(data), now))
        self.fcache.invalidate(path)
        uuid, bsize = meta["uuid"], meta["bsize"]
        if self.lock_rpc:
            # Lustre: DLM extent lock on the object before writing
            yield Rpc(self.block_placement.locate(uuid, offset // bsize),
                      "lock", (uuid,))
        rpcs = []
        pos = 0
        while pos < len(data):
            blk = (offset + pos) // bsize
            blk_off = (offset + pos) % bsize
            n = min(bsize - blk_off, len(data) - pos)
            chunk = data[pos : pos + n]
            server = self.block_placement.locate(uuid, blk)
            if n == bsize:
                rpcs.append(Rpc(server, "put_block", (uuid, blk, chunk), send_bytes=n))
            elif blk_off == 0 and offset + pos + n >= meta["size"]:
                # partial block at EOF: nothing beyond it, write directly
                rpcs.append(Rpc(server, "put_block", (uuid, blk, chunk), send_bytes=n))
            else:
                old = yield Rpc(server, "get_block", (uuid, blk), recv_bytes=bsize)
                buf = bytearray(old.ljust(blk_off + n, b"\x00"))
                buf[blk_off : blk_off + n] = chunk
                rpcs.append(Rpc(server, "put_block", (uuid, blk, bytes(buf)),
                                send_bytes=len(buf)))
            pos += n
        if rpcs:
            yield Parallel(rpcs)
        return len(data)

    def _g_read(self, path: str, offset: int, length: int) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        si = self.placement.inode_server(path)
        if self.cache_file_attrs:
            # CephFS: acquire read capabilities from the MDS
            yield Rpc(si, "lock", (path,))
        meta = yield Rpc(si, "read_meta", (path, now))
        uuid, bsize, size = meta["uuid"], meta["bsize"], meta["size"]
        if offset >= size:
            return b""
        if self.lock_rpc:
            # Lustre: PR extent lock on the object before reading
            yield Rpc(self.block_placement.locate(uuid, offset // bsize),
                      "lock", (uuid,))
        length = min(length, size - offset)
        first = offset // bsize
        last = (offset + length - 1) // bsize
        blocks = yield Parallel(
            [Rpc(self.block_placement.locate(uuid, blk), "get_block", (uuid, blk),
                 recv_bytes=bsize) for blk in range(first, last + 1)]
        )
        out = bytearray()
        for i, blk in enumerate(range(first, last + 1)):
            chunk = blocks[i].ljust(bsize, b"\x00") if blk < last else blocks[i]
            out += chunk
        start = offset - first * bsize
        result = bytes(out[start : start + length])
        return result.ljust(length, b"\x00") if len(result) < length else result

    # -- rename -----------------------------------------------------------------------------
    def _g_rename(self, old: str, new: str) -> Generator:
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        sp = yield from self._g_resolve_dir(old_parent)
        dp = yield from self._g_resolve_dir(new_parent)
        self._check_write(sp, old_parent)
        self._check_write(dp, new_parent)
        attrs = yield Rpc(self.placement.inode_server(old), "getattr", (old,))
        if is_dir_inode(attrs):
            yield from self._g_rename_dir(old, new, attrs)
        else:
            yield from self._g_rename_file(old, new, attrs)

    def _g_rename_file(self, old: str, new: str, attrs: dict) -> Generator:
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        dst_exists = yield Rpc(self.placement.inode_server(new), "exists", (new,))
        if dst_exists:
            dst_attrs = yield Rpc(self.placement.inode_server(new), "getattr", (new,))
            if is_dir_inode(dst_attrs):
                # POSIX: renaming a file over a directory is EISDIR
                raise IsADirectory(new)
            yield from self._g_unlink(new)
        raw = yield Rpc(self.placement.inode_server(old), "delete_inode_raw", (old,))
        yield Rpc(self.placement.dirent_server(old_parent, old_name), "unlink_dirent",
                  (old_parent, old_name))
        yield Rpc(self.placement.inode_server(new), "put_inode_raw", (new, raw))
        yield Rpc(self.placement.dirent_server(new_parent, new_name), "link",
                  (new_parent, new_name, int(FileType.FILE), attrs["uuid"]))
        self.fcache.invalidate(old)
        self.fcache.invalidate(new)

    def _g_rename_dir(self, old: str, new: str, attrs: dict) -> Generator:
        if pathutil.is_ancestor(old, new):
            raise InvalidArgument(new, "cannot move a directory into itself")
        dst_exists = yield Rpc(self.placement.inode_server(new), "exists", (new,))
        if dst_exists:
            raise Exists(new)
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        exports = yield Parallel(
            [Rpc(s, "export_subtree", (old,)) for s in self.placement.all_servers()]
        )
        records = [r for batch in exports for r in batch]
        imports: dict[str, list] = defaultdict(list)
        dmerge: dict[str, bytes] = {}
        for kind, p, raw in records:
            np = new + p[len(old):]
            if kind == "I":
                imports[self.placement.inode_server(np)].append(("I", np, raw))
            else:
                dmerge[np] = dmerge.get(np, b"") + raw
        for np, buf in dmerge.items():
            imports[self.placement.dirent_home(np)].append(("D", np, buf))
        if imports:
            yield Parallel([Rpc(s, "import_records", (recs,))
                            for s, recs in imports.items()])
        yield Rpc(self.placement.dirent_server(old_parent, old_name), "unlink_dirent",
                  (old_parent, old_name))
        yield Rpc(self.placement.dirent_server(new_parent, new_name), "link",
                  (new_parent, new_name, int(FileType.DIRECTORY), attrs["uuid"]))
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))
        self.fcache.invalidate_prefix(pathutil.dir_key_prefix(old))

    @property
    def cache_stats(self) -> dict:
        return {"dir_hits": self.dcache.hits, "dir_misses": self.dcache.misses,
                "file_hits": self.fcache.hits, "file_misses": self.fcache.misses}


class GlusterClient(TreeFSClient):
    """GlusterFS-like client: directories replicated on every brick."""

    def _g_open(self, path: str, want: int = 4) -> Generator:
        # DHT lookup-everywhere: an uncached file is located by asking
        # every brick before the open proceeds
        path = pathutil.normalize(path)
        parent, _ = pathutil.split(path)
        yield from self._g_resolve_dir(parent)
        yield Parallel([Rpc(b, "exists", (path,))
                        for b in self.placement.all_servers()])
        handle = yield Rpc(self.placement.inode_server(path), "open",
                           (path, self.cred, want))
        handle["path"] = path
        return handle

    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        pinfo = yield from self._g_resolve_dir(parent)
        self._check_write(pinfo, parent)
        bricks = self.placement.all_servers()
        # DHT mkdir is multi-phase and synchronized on every brick — the
        # reason Gluster has the worst mkdir latency in the paper (§4.2.1):
        # (1) lookup everywhere to check for an existing entry,
        exists = yield Parallel([Rpc(b, "exists", (path,)) for b in bricks])
        if any(exists):
            raise Exists(path)
        # (2) mkdir on the first (hashed) brick, replicas everywhere else,
        uuid = yield Rpc(bricks[0], "mkdir_local", (path, mode, self.cred, now))
        if len(bricks) > 1:
            yield Parallel([Rpc(b, "mkdir_replica", (path, mode, self.cred, now, uuid))
                            for b in bricks[1:]])
        # (3) write the DHT layout xattrs on every brick.
        yield Parallel([Rpc(b, "set_layout", (path,)) for b in bricks])
        self._prime_dir_cache(path, mode, uuid, now)
        return uuid

    def _g_rmdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        if path == "/":
            raise InvalidArgument(path, "cannot remove root")
        parent, name = pathutil.split(path)
        pinfo = yield from self._g_resolve_dir(parent)
        self._check_write(pinfo, parent)
        yield from self._g_resolve_dir(path)
        bricks = self.placement.all_servers()
        counts = yield Parallel([Rpc(b, "count_children", (path,)) for b in bricks])
        if any(c > 0 for c in counts):
            raise NotEmpty(path)
        yield Parallel([Rpc(b, "rmdir_local", (path,)) for b in bricks])
        self.dcache.invalidate(path)

    def _g_rename_dir(self, old: str, new: str, attrs: dict) -> Generator:
        """Hash-based DHT d-rename: every descendant *file* rehashes.

        Directories are replicated, so their records rebroadcast to every
        brick; each file's inode and dirent move to the brick of its new
        (parent, name) hash.  This full re-shuffle is the rename weakness
        of hash distribution the paper discusses (§3.4).
        """
        if pathutil.is_ancestor(old, new):
            raise InvalidArgument(new, "cannot move a directory into itself")
        dst_exists = yield Rpc(self.placement.inode_server(new), "exists", (new,))
        if dst_exists:
            raise Exists(new)
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        bricks = self.placement.all_servers()
        exports = yield Parallel([Rpc(b, "export_subtree", (old,)) for b in bricks])
        dir_inodes: dict[str, bytes] = {}
        file_inodes: dict[str, bytes] = {}
        entries: dict[str, dict[str, DirEntry]] = defaultdict(dict)  # dir -> name -> entry
        for batch in exports:
            for kind, p, raw in batch:
                np = new + p[len(old):]
                if kind == "I":
                    if is_dir_inode(decode_inode(raw)):
                        dir_inodes.setdefault(np, raw)
                    else:
                        file_inodes[np] = raw
                else:
                    for e in de.decode(raw):
                        entries[np].setdefault(e.name, e)
        imports: dict[str, list] = defaultdict(list)
        for np, raw in dir_inodes.items():
            dlists: dict[str, bytes] = {b: b"" for b in bricks}
            for e in entries.get(np, {}).values():
                child = pathutil.join(np, e.name)
                if e.is_dir:
                    for b in bricks:
                        dlists[b] += de.pack_entry(e.name, e.uuid, e.ftype)
                else:
                    b = self.placement.inode_server(child)
                    dlists[b] += de.pack_entry(e.name, e.uuid, e.ftype)
            for b in bricks:
                imports[b].append(("I", np, raw))
                imports[b].append(("D", np, dlists[b]))
        for np, raw in file_inodes.items():
            imports[self.placement.inode_server(np)].append(("I", np, raw))
        yield Parallel([Rpc(b, "import_records", (recs,)) for b, recs in imports.items()])
        yield Parallel([Rpc(b, "unlink_dirent", (old_parent, old_name)) for b in bricks])
        yield Parallel([Rpc(b, "link", (new_parent, new_name, int(FileType.DIRECTORY),
                                        attrs["uuid"])) for b in bricks])
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))
        self.fcache.invalidate_prefix(pathutil.dir_key_prefix(old))
