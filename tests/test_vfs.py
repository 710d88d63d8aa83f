"""VFS unit tests: files, directories, policy, handles, pipes."""

import errno

import pytest

from repro.errors import VfsError
from repro.runtime.vfs import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    Pipe,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    Vfs,
    normalize,
)


@pytest.fixture
def vfs():
    fs = Vfs()
    fs.mkdir("/tmp")
    fs.mkdir("/etc")
    fs.write_file("/etc/passwd", b"root:x:0:0\n")
    return fs


def read_file(vfs, path):
    return vfs.open(path, O_RDONLY).read(1 << 16)


def tree(vfs):
    return vfs.state_dict()["tree"]


class TestTree:
    def test_normalize(self):
        assert normalize("a/b/../c//d/.") == "/a/c/d"
        assert normalize("/") == "/"

    def test_write_read(self, vfs):
        vfs.write_file("/tmp/a.txt", b"hello")
        assert read_file(vfs, "/tmp/a.txt") == b"hello"

    def test_missing_file(self, vfs):
        with pytest.raises(VfsError) as exc:
            read_file(vfs, "/nope")
        assert exc.value.err == errno.ENOENT

    def test_mkdir_and_listdir(self, vfs):
        vfs.mkdir("/tmp/sub")
        vfs.write_file("/tmp/sub/x", b"1")
        assert list(tree(vfs)["tmp"]["sub"]) == ["x"]
        assert "sub" in tree(vfs)["tmp"]

    def test_mkdir_parents(self, vfs):
        vfs.mkdir("/a/b/c", parents=True)
        assert tree(vfs)["a"]["b"]["c"] == {}

    def test_mkdir_existing(self, vfs):
        with pytest.raises(VfsError) as exc:
            vfs.mkdir("/tmp")
        assert exc.value.err == errno.EEXIST

    def test_unlink(self, vfs):
        vfs.write_file("/tmp/x", b"1")
        vfs.unlink("/tmp/x")
        assert "x" not in tree(vfs)["tmp"]

    def test_unlink_directory_fails(self, vfs):
        with pytest.raises(VfsError) as exc:
            vfs.unlink("/tmp")
        assert exc.value.err == errno.EISDIR


class TestPolicy:
    def test_denied_prefix(self, vfs):
        """Paper §5.3: the runtime can disallow access to directories."""
        vfs.deny("/etc")
        with pytest.raises(VfsError) as exc:
            vfs.open("/etc/passwd", O_RDONLY)
        assert exc.value.err == errno.EACCES

    def test_denied_exact_and_nested(self, vfs):
        vfs.deny("/etc")
        with pytest.raises(VfsError):
            vfs.write_file("/etc/shadow", b"")
        vfs.write_file("/tmp/ok", b"fine")  # other paths unaffected

    def test_prefix_is_path_component(self, vfs):
        vfs.mkdir("/etcetera")
        vfs.deny("/etc")
        vfs.write_file("/etcetera/file", b"ok")  # /etcetera != /etc/*


class TestHandles:
    def test_open_read(self, vfs):
        h = vfs.open("/etc/passwd", O_RDONLY)
        assert h.read(4) == b"root"
        assert h.read(100) == b":x:0:0\n"
        assert h.read(10) == b""

    def test_open_create_write(self, vfs):
        h = vfs.open("/tmp/new", O_WRONLY | O_CREAT)
        assert h.write(b"data") == 4
        assert read_file(vfs, "/tmp/new") == b"data"

    def test_open_missing_without_creat(self, vfs):
        with pytest.raises(VfsError):
            vfs.open("/tmp/none", O_RDONLY)

    def test_truncate(self, vfs):
        vfs.write_file("/tmp/t", b"longdata")
        vfs.open("/tmp/t", O_WRONLY | O_TRUNC)
        assert read_file(vfs, "/tmp/t") == b""

    def test_append(self, vfs):
        vfs.write_file("/tmp/log", b"a")
        h = vfs.open("/tmp/log", O_WRONLY | O_APPEND)
        h.write(b"b")
        h.write(b"c")
        assert read_file(vfs, "/tmp/log") == b"abc"

    def test_read_on_writeonly(self, vfs):
        h = vfs.open("/tmp/w", O_WRONLY | O_CREAT)
        with pytest.raises(VfsError):
            h.read(1)

    def test_seek(self, vfs):
        vfs.write_file("/tmp/s", b"0123456789")
        h = vfs.open("/tmp/s", O_RDWR)
        assert h.seek(4, SEEK_SET) == 4
        assert h.read(2) == b"45"
        assert h.seek(-2, SEEK_CUR) == 4
        assert h.seek(-1, SEEK_END) == 9
        assert h.read(5) == b"9"

    def test_sparse_write(self, vfs):
        h = vfs.open("/tmp/sparse", O_RDWR | O_CREAT)
        h.seek(4, SEEK_SET)
        h.write(b"x")
        assert read_file(vfs, "/tmp/sparse") == b"\x00\x00\x00\x00x"


class TestPipe:
    def test_write_then_read(self):
        pipe = Pipe()
        r, w = pipe.read_end(), pipe.write_end()
        assert w.write(b"hello") == 5
        assert r.read(3) == b"hel"
        assert r.read(10) == b"lo"

    def test_read_empty_blocks(self):
        pipe = Pipe()
        assert pipe.read_end().read(1) is None

    def test_read_after_writer_closed_is_eof(self):
        pipe = Pipe()
        r, w = pipe.read_end(), pipe.write_end()
        w.write(b"x")
        w.close()
        assert r.read(10) == b"x"
        assert r.read(10) == b""

    def test_write_after_reader_closed_epipe(self):
        pipe = Pipe()
        r, w = pipe.read_end(), pipe.write_end()
        r.close()
        with pytest.raises(VfsError) as exc:
            w.write(b"x")
        assert exc.value.err == errno.EPIPE

    def test_write_full_blocks(self):
        pipe = Pipe()
        w = pipe.write_end()
        assert w.write(b"x" * Pipe.CAPACITY) == Pipe.CAPACITY
        assert w.write(b"y") is None

    def test_wrong_direction(self):
        pipe = Pipe()
        with pytest.raises(VfsError):
            pipe.read_end().write(b"x")
        with pytest.raises(VfsError):
            pipe.write_end().read(1)
