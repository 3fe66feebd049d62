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

from repro.common.errors import CorruptDirents
from repro.common.types import DirEntry, FileType

_HEAD = struct.Struct("<H")
_TAIL = struct.Struct("<QB")
_HEAD_SIZE = _HEAD.size
_TAIL_SIZE = _TAIL.size
_unpack_tail = _TAIL.unpack_from
#: type tag -> member, so decoding skips the enum constructor per entry
_FTYPES = {int(t): t for t in FileType}

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


def decode(buf: bytes) -> list[DirEntry]:
    """Every entry of a dirent list, in one pass.

    Each entry is bounds-checked before it is read: an entry that runs past
    the end of ``buf``, a name that is not UTF-8, or an unknown type tag
    raises :class:`~repro.common.errors.CorruptDirents` naming the byte
    offset where decoding stopped.
    """
    out: list[DirEntry] = []
    append = out.append
    n = len(buf)
    off = 0
    while off < n:
        start = off + _HEAD_SIZE
        if start > n:
            raise _corrupt(off, n)
        end = start + (buf[off] | buf[off + 1] << 8)  # the u16 name length
        nxt = end + _TAIL_SIZE
        if nxt > n:
            raise _corrupt(off, n)
        uuid, tag = _unpack_tail(buf, end)
        try:
            append(DirEntry(buf[start:end].decode("utf-8"), uuid, _FTYPES[tag]))
        except (UnicodeDecodeError, KeyError):
            raise _corrupt(off, n) from None
        off = nxt
    return out


def _corrupt(off: int, n: int) -> CorruptDirents:
    return CorruptDirents(f"corrupt dirent list: entry at byte {off} of {n}")


def find_entry(buf: bytes, name: str) -> DirEntry | None:
    for e in decode(buf):
        if e.name == name:
            return e
    return None


def remove_entry(buf: bytes, name: str) -> tuple[bytes, bool]:
    """Return (new_buf, removed): ``buf`` without the first entry named
    ``name``.

    One scan that splices the match out as ``buf[:off] + buf[nxt:]``; the
    other entries keep their bytes.  Every entry, the ones after the match
    included, is checked as :func:`decode` checks it, so a corrupt list
    raises :class:`~repro.common.errors.CorruptDirents` at the same offset.
    """
    raw = name.encode("utf-8")
    n = len(buf)
    off = 0
    cut = -1
    cut_end = 0
    while off < n:
        start = off + _HEAD_SIZE
        if start > n:
            raise _corrupt(off, n)
        end = start + (buf[off] | buf[off + 1] << 8)  # the u16 name length
        nxt = end + _TAIL_SIZE
        if nxt > n or buf[end + 8] not in _FTYPES:
            raise _corrupt(off, n)
        entry_name = buf[start:end]
        try:
            entry_name.decode("utf-8")
        except UnicodeDecodeError:
            raise _corrupt(off, n) from None
        if cut < 0 and entry_name == raw:
            cut, cut_end = off, nxt
        off = nxt
    if cut < 0:
        return buf, False
    return buf[:cut] + buf[cut_end:], True


def count_entries(buf: bytes) -> int:
    return len(decode(buf))


def names(buf: bytes) -> list[str]:
    return [e.name for e in decode(buf)]
