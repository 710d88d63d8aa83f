"""In-memory Unix-like filesystem for the runtime (paper §5.3).

The LFI runtime mediates all file access: it "first checks the arguments
for correctness — for example, the runtime can disallow all access to
certain directories".  This VFS is the host-filesystem substitute: an
in-memory tree with a path-prefix access policy.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..errors import VfsError as _VfsError

__all__ = ["Vfs", "FileHandle", "Pipe", "PipeEnd",
           "O_RDONLY", "O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC",
           "O_APPEND", "SEEK_SET", "SEEK_CUR", "SEEK_END"]

O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2



@dataclass
class _File:
    data: bytearray = field(default_factory=bytearray)


@dataclass
class _Dir:
    entries: Dict[str, Union["_Dir", _File]] = field(default_factory=dict)


def _split(path: str) -> List[str]:
    parts = [p for p in path.split("/") if p and p != "."]
    out: List[str] = []
    for part in parts:
        if part == "..":
            if out:
                out.pop()
        else:
            out.append(part)
    return out


def normalize(path: str) -> str:
    return "/" + "/".join(_split(path))


class Vfs:
    """A process-shared in-memory filesystem with a deny-prefix policy."""

    def __init__(self):
        self.root = _Dir()
        self.denied_prefixes: List[str] = []

    # -- policy -------------------------------------------------------------

    def deny(self, prefix: str) -> None:
        """Disallow all access under ``prefix`` (runtime argument checks)."""
        self.denied_prefixes.append(normalize(prefix))

    def _check_policy(self, path: str) -> None:
        norm = normalize(path)
        for prefix in self.denied_prefixes:
            if norm == prefix or norm.startswith(prefix.rstrip("/") + "/"):
                raise _VfsError(errno.EACCES, path)

    # -- tree ---------------------------------------------------------------

    def _walk(self, path: str) -> Union[_Dir, _File]:
        node: Union[_Dir, _File] = self.root
        for part in _split(path):
            if not isinstance(node, _Dir) or part not in node.entries:
                raise _VfsError(errno.ENOENT, path)
            node = node.entries[part]
        return node

    def _parent_of(self, path: str) -> Tuple[_Dir, str]:
        parts = _split(path)
        if not parts:
            raise _VfsError(errno.EINVAL, path)
        node = self.root
        for part in parts[:-1]:
            if part not in node.entries:
                raise _VfsError(errno.ENOENT, path)
            child = node.entries[part]
            if not isinstance(child, _Dir):
                raise _VfsError(errno.ENOTDIR, path)
            node = child
        return node, parts[-1]

    def mkdir(self, path: str, parents: bool = False) -> None:
        self._check_policy(path)
        if parents:
            node = self.root
            for part in _split(path):
                child = node.entries.get(part)
                if child is None:
                    child = _Dir()
                    node.entries[part] = child
                if not isinstance(child, _Dir):
                    raise _VfsError(errno.ENOTDIR, path)
                node = child
            return
        parent, name = self._parent_of(path)
        if name in parent.entries:
            raise _VfsError(errno.EEXIST, path)
        parent.entries[name] = _Dir()

    def write_file(self, path: str, data: bytes) -> None:
        """Create or replace a file (host-side convenience)."""
        self._check_policy(path)
        parent, name = self._parent_of(path)
        existing = parent.entries.get(name)
        if isinstance(existing, _Dir):
            raise _VfsError(errno.EISDIR, path)
        parent.entries[name] = _File(bytearray(data))

    def unlink(self, path: str) -> None:
        self._check_policy(path)
        parent, name = self._parent_of(path)
        if name not in parent.entries:
            raise _VfsError(errno.ENOENT, path)
        if isinstance(parent.entries[name], _Dir):
            raise _VfsError(errno.EISDIR, path)
        del parent.entries[name]

    # -- open files ------------------------------------------------------------

    def open(self, path: str, flags: int) -> "FileHandle":
        self._check_policy(path)
        accmode = flags & 0o3
        try:
            node = self._walk(path)
        except _VfsError:
            if not flags & O_CREAT:
                raise
            parent, name = self._parent_of(path)
            node = _File()
            parent.entries[name] = node
        if isinstance(node, _Dir):
            raise _VfsError(errno.EISDIR, path)
        if flags & O_TRUNC and accmode != O_RDONLY:
            node.data.clear()
        return FileHandle(node, accmode, append=bool(flags & O_APPEND),
                          path=normalize(path))

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable snapshot of the whole tree plus the deny policy."""
        return {"tree": _encode(self.root),
                "denied": list(self.denied_prefixes)}

    def load_state(self, state: dict) -> None:
        """Replace the tree and policy with a :meth:`state_dict` snapshot."""
        self.root = _decode(state["tree"])
        self.denied_prefixes = list(state["denied"])


# Module-level, not closures in the methods: a recursive closure refers to
# itself, and each call would leave that cycle to the collector.
def _encode(node: _Dir) -> dict:
    return {name: (bytes(child.data) if isinstance(child, _File)
                   else _encode(child))
            for name, child in sorted(node.entries.items())}


def _decode(entries: dict) -> _Dir:
    node = _Dir()
    for name, child in entries.items():
        node.entries[name] = (_File(bytearray(child))
                              if isinstance(child, (bytes, bytearray))
                              else _decode(child))
    return node


class FileHandle:
    """An open file description: a file plus an offset and access mode."""

    def __init__(self, node: _File, accmode: int, append: bool = False,
                 path: str = ""):
        self._node = node
        self.accmode = accmode
        self.append = append
        self.offset = 0
        #: Normalized path the handle was opened at; checkpoints re-open
        #: the description by path against the restored tree.
        self.path = path

    @property
    def readable(self) -> bool:
        return self.accmode in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return self.accmode in (O_WRONLY, O_RDWR)

    def read(self, count: int) -> bytes:
        if not self.readable:
            raise _VfsError(errno.EBADF)
        data = bytes(self._node.data[self.offset:self.offset + count])
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if not self.writable:
            raise _VfsError(errno.EBADF)
        if self.append:
            self.offset = len(self._node.data)
        end = self.offset + len(data)
        if end > len(self._node.data):
            self._node.data.extend(b"\x00" * (end - len(self._node.data)))
        self._node.data[self.offset:end] = data
        self.offset = end
        return len(data)

    def seek(self, offset: int, whence: int) -> int:
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self.offset + offset
        elif whence == SEEK_END:
            new = len(self._node.data) + offset
        else:
            raise _VfsError(errno.EINVAL)
        if new < 0:
            raise _VfsError(errno.EINVAL)
        self.offset = new
        return new

    @property
    def size(self) -> int:
        return len(self._node.data)


class Pipe:
    """A byte pipe with a bounded buffer, used by the pipe runtime call."""

    CAPACITY = 64 * 1024

    def __init__(self):
        self.buffer = bytearray()
        self.read_open = True
        self.write_open = True

    def read_end(self) -> "PipeEnd":
        return PipeEnd(self, reading=True)

    def write_end(self) -> "PipeEnd":
        return PipeEnd(self, reading=False)


class PipeEnd:
    """One end of a pipe, presented with the FileHandle interface.

    An end can be referenced from several fd tables at once (``fork``
    copies the parent's table), so it is reference counted: the underlying
    pipe direction closes only when the *last* referent drops.
    """

    def __init__(self, pipe: Pipe, reading: bool):
        self.pipe = pipe
        self.reading = reading
        self.refs = 1

    def retain(self) -> "PipeEnd":
        """Add a reference (a new fd table now shares this description)."""
        self.refs += 1
        return self

    @property
    def readable(self) -> bool:
        return self.reading

    def read(self, count: int) -> Optional[bytes]:
        """Bytes, b"" on EOF, or None if the caller must block."""
        if not self.reading:
            raise _VfsError(errno.EBADF)
        if self.pipe.buffer:
            data = bytes(self.pipe.buffer[:count])
            del self.pipe.buffer[:count]
            return data
        if not self.pipe.write_open:
            return b""
        return None  # would block

    def write(self, data: bytes) -> Optional[int]:
        """Bytes written, or None if the caller must block (buffer full)."""
        if self.reading:
            raise _VfsError(errno.EBADF)
        if not self.pipe.read_open:
            raise _VfsError(errno.EPIPE)
        if len(self.pipe.buffer) + len(data) > Pipe.CAPACITY:
            return None
        self.pipe.buffer.extend(data)
        return len(data)

    def close(self) -> None:
        """Drop one reference; close the pipe direction on the last one."""
        if self.refs > 0:
            self.refs -= 1
        if self.refs:
            return
        if self.reading:
            self.pipe.read_open = False
        else:
            self.pipe.write_open = False
