"""The consolidated exception hierarchy (repro.errors, DESIGN.md §5)."""

import errno
import warnings

import pytest

from repro.errors import (
    AsmSyntaxError,
    AssembleError,
    Deadlock,
    EncodeError,
    ElfError,
    GuardError,
    LoadError,
    ReproError,
    RewriteError,
    RuntimeError_,
    VerificationError,
    VfsError,
)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc in (VerificationError, GuardError, RewriteError, ElfError,
                    LoadError, RuntimeError_, Deadlock, VfsError,
                    AsmSyntaxError, EncodeError, AssembleError):
            assert issubclass(exc, ReproError)

    def test_builtin_compatibility_preserved(self):
        """Pre-consolidation callers caught builtin bases; they still can."""
        assert issubclass(GuardError, ValueError)
        assert issubclass(RewriteError, ValueError)
        assert issubclass(ElfError, ValueError)
        for exc in (AsmSyntaxError, EncodeError, AssembleError):
            assert exc.__mro__[1] is ValueError
        assert issubclass(VfsError, OSError)
        assert issubclass(Deadlock, RuntimeError_)

    def test_vfs_error_carries_errno(self):
        exc = VfsError(errno.ENOENT, "/missing")
        assert exc.err == errno.ENOENT
        assert exc.errno == errno.ENOENT
        assert exc.filename == "/missing"

    def test_one_except_catches_the_whole_reproduction(self):
        with pytest.raises(ReproError):
            raise RewriteError("any layer")
        with pytest.raises(ReproError):
            raise VfsError(errno.EACCES, "/denied")


OLD_HOMES = [
    ("repro.core.verifier", "VerificationError"),
    ("repro.core.guards", "GuardError"),
    ("repro.core.rewriter", "RewriteError"),
    ("repro.elf.format", "ElfError"),
    ("repro.runtime.loader", "LoadError"),
    ("repro.runtime.runtime", "RuntimeError_"),
    ("repro.runtime.runtime", "Deadlock"),
    ("repro.runtime.vfs", "VfsError"),
    ("repro.arm64.parser", "AsmSyntaxError"),
    ("repro.arm64.encoder", "EncodeError"),
    ("repro.arm64.assembler", "AssembleError"),
]


class TestRemovedReexports:
    """The one-release import shims from the old module homes are gone."""

    @pytest.mark.parametrize("module_name,name", OLD_HOMES,
                             ids=[f"{m}.{n}" for m, n in OLD_HOMES])
    def test_old_import_location_removed(self, module_name, name):
        import importlib

        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError):
            getattr(module, name)

    def test_package_roots_reexport_silently(self):
        """The package-level re-exports are canonical, not deprecated."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import RewriteError as a  # noqa: F401
            from repro.elf import ElfError as b  # noqa: F401
            from repro.runtime import VfsError as c  # noqa: F401
            from repro import ReproError as d  # noqa: F401
            from repro.arm64 import EncodeError as e  # noqa: F401
