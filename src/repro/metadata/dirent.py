"""Directory-entry codec (paper §3.2.1).

In the flattened directory tree, a directory's entries are not stored as
directory data blocks.  Instead, each metadata server keeps — per
directory — one concatenated value holding the dirents of the children
*it* is responsible for: the DMS concatenates a directory's
sub-directories, and each FMS concatenates the directory's files that hash
to it.  The value is keyed by ``directory_uuid``.

Entry wire format: ``[u16 name_len][name utf-8][u64 uuid][u8 type]``.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.common.types import DirEntry, FileType

_HEAD = struct.Struct("<H")
_TAIL = struct.Struct("<QB")

#: longest encoded name an entry can hold (its length prefix is a u16)
MAX_NAME_BYTES = 65535


def pack_entry(name: str, uuid: int, ftype: FileType) -> bytes:
    raw = name.encode("utf-8")
    if not raw or len(raw) > MAX_NAME_BYTES:
        raise ValueError(f"bad dirent name: {name!r}")
    return pack_encoded(raw, uuid, int(ftype))


def pack_encoded(raw: bytes, uuid: int, ftype: int) -> bytes:
    """:func:`pack_entry` for a name the caller already encoded and
    checked against :data:`MAX_NAME_BYTES` (the FMS create kernels)."""
    return _HEAD.pack(len(raw)) + raw + _TAIL.pack(uuid, ftype)


def iter_entries(buf: bytes) -> Iterator[DirEntry]:
    off = 0
    n = len(buf)
    while off < n:
        (nlen,) = _HEAD.unpack_from(buf, off)
        off += _HEAD.size
        name = buf[off : off + nlen].decode("utf-8")
        off += nlen
        uuid, ftype = _TAIL.unpack_from(buf, off)
        off += _TAIL.size
        yield DirEntry(name, uuid, FileType(ftype))


def find_entry(buf: bytes, name: str) -> DirEntry | None:
    for e in iter_entries(buf):
        if e.name == name:
            return e
    return None


def remove_entry(buf: bytes, name: str) -> tuple[bytes, bool]:
    """Return (new_buf, removed)."""
    out = bytearray()
    removed = False
    for e in iter_entries(buf):
        if not removed and e.name == name:
            removed = True
            continue
        out += pack_entry(e.name, e.uuid, e.ftype)
    return bytes(out), removed


def count_entries(buf: bytes) -> int:
    return sum(1 for _ in iter_entries(buf))


def names(buf: bytes) -> list[str]:
    return [e.name for e in iter_entries(buf)]
