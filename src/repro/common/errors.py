"""File-system error hierarchy.

Every system in this repository (LocoFS and the baselines) raises the same
exception types so that the shared semantics test-suite and the benchmark
harness can treat them uniformly.  The numeric ``errno`` values mirror the
POSIX codes so callers can translate to real OS errors if desired.
"""

from __future__ import annotations

import errno


class FSError(Exception):
    """Base class for all file-system level errors."""

    errno: int = -1

    def __init__(self, path: str = "", msg: str = ""):
        self.path = path
        super().__init__(msg or f"{type(self).__name__}: {path}")


class NoEntry(FSError):
    """Path (or one of its components) does not exist (ENOENT)."""

    errno = errno.ENOENT


class Exists(FSError):
    """Target already exists (EEXIST)."""

    errno = errno.EEXIST


class NotADirectory(FSError):
    """A path component that must be a directory is a file (ENOTDIR)."""

    errno = errno.ENOTDIR


class IsADirectory(FSError):
    """A file operation was applied to a directory (EISDIR)."""

    errno = errno.EISDIR


class NotEmpty(FSError):
    """Directory removal attempted on a non-empty directory (ENOTEMPTY)."""

    errno = errno.ENOTEMPTY


class PermissionDenied(FSError):
    """ACL check failed for the caller (EACCES)."""

    errno = errno.EACCES


class InvalidArgument(FSError):
    """Malformed path or unsupported argument (EINVAL)."""

    errno = errno.EINVAL


class CrossDevice(FSError):
    """Rename across incompatible namespaces (EXDEV)."""

    errno = errno.EXDEV


class CorruptDirents(FSError):
    """A stored dirent list does not decode: an entry runs past the end of
    the value, its name is not UTF-8, or its type tag is unknown (EIO).

    ``path`` carries a short description of where decoding stopped.
    """

    errno = errno.EIO


class StaleHandle(FSError):
    """A cached handle or lease is no longer valid (ESTALE)."""

    errno = errno.ESTALE


class NotLeader(FSError):
    """A replicated-log mutation was sent to a non-leader replica.

    ``path`` carries the replica's *hint* about the current leader (the
    server name it last acked an append from), or ``""`` when the replica
    has no hint — the client then runs leader discovery (DESIGN §13).
    """

    errno = errno.EREMCHG if hasattr(errno, "EREMCHG") else errno.ESTALE


class QuorumFailed(FSError):
    """Fewer than ``k`` branches of a :class:`~repro.sim.rpc.Quorum`
    fan-out succeeded (EHOSTUNREACH).

    Raised in the issuing generator once enough branches have failed that
    the quorum is unreachable.  ``path`` carries a short description of
    the round (method + vote count) for diagnostics.
    """

    errno = errno.EHOSTUNREACH


class ServerDown(FSError):
    """An RPC timed out against a crashed or unreachable server (EHOSTDOWN).

    Raised by the engines after ``CostModel.timeout_us`` elapses with no
    response and the retry policy is exhausted.  ``path`` carries the
    server name rather than a file path — by the time the client gives up
    it is the *server*, not the namespace, that is the story.
    """

    errno = errno.EHOSTDOWN
