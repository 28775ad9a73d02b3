"""Build and load the compiled LZ'78 kernel, ``_kernel.c``.

The library holds the feed loop and the rollback of
:class:`~lz78lab.parsing.StreamParser` (``lz78_feed``,
``lz78_truncate``), and the rule loop of
:func:`~lz78lab.parsing.certify` (``lz78_certify``), which shares no code
with the feed loop.  A library that lacks any of the three loads as None.

:func:`load` runs when :mod:`lz78lab.parsing` is imported.  It compiles the
C source with ``gcc -O2 -shared -fPIC`` (or ``cc``) into a cache keyed by the
SHA-256 of the source and the flags: the package's ``__pycache__/``, or a
private folder under ``tempfile.gettempdir()`` when that is not writable.
Later imports only open the cached library with :mod:`ctypes`.  The build
runs at import rather than at the first parse, so no parse, and no timing
of one, ever includes it.  A build writes a temporary file and renames it
into place, so a concurrent import never opens a half-written library.  A
build into the package's cache deletes the libraries that earlier sources
left there; the temp-dir folder, which other checkouts may share, is never
pruned.  Without a compiler, or when the build or the load fails,
:func:`load` returns None, and the parser and certify fall back to their
pure-Python loops.  The loader never writes to stdout or stderr: the compiler's output
is captured and dropped.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from contextlib import suppress
from pathlib import Path

# CPython's own SHA-256: hashlib's would load OpenSSL, about 3.6 MB of
# resident memory for one digest per import
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_kernel.c")
PACKAGE_CACHE = Path(__file__).parent / "__pycache__"
FLAGS = ("-O2", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 60


class State(ctypes.Structure):
    """``lz78_state`` of ``_kernel.c``, field for field."""

    _fields_ = [("child", ctypes.c_void_p), ("starts", ctypes.c_void_p),
                ("preds", ctypes.c_void_p), ("node_cap", ctypes.c_int64),
                ("nodes", ctypes.c_int64), ("cur", ctypes.c_int64),
                ("pos", ctypes.c_int64), ("block_start", ctypes.c_int64)]


def compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def cache_dir() -> Path | None:
    """The package's ``__pycache__/`` when it is writable, else a folder under
    the temp dir that only this user can write, else None."""
    with suppress(OSError):
        PACKAGE_CACHE.mkdir(exist_ok=True)
    if os.access(PACKAGE_CACHE, os.W_OK):
        return PACKAGE_CACHE
    if not hasattr(os, "getuid"):
        return None
    try:
        private = Path(tempfile.gettempdir()) / f"lz78lab-{os.getuid()}"
        private.mkdir(mode=0o700, exist_ok=True)
        st = private.stat()
    except OSError:
        return None
    return private if st.st_uid == os.getuid() and not st.st_mode & 0o022 else None


def library_name(source: bytes) -> str:
    key = sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    return f"_kernel-{key}.so"


def load():
    """The kernel library with its signatures set, or None when it cannot be
    built or opened; never raises."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    folder = cache_dir()
    if folder is None:
        return None
    path = folder / library_name(source)
    lib = _open(path) if path.is_file() else None
    if lib is None and _build(source, path):
        lib = _open(path)
        if folder == PACKAGE_CACHE:
            _prune(path)
    return lib


def _build(source: bytes, path: Path) -> bool:
    import subprocess                  # imported by a build only

    cc = compiler()
    if cc is None:
        return False
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, "-x", "c", "-"], input=source,
                              capture_output=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with suppress(OSError):
            os.unlink(tmp)


def _prune(keep: Path) -> None:
    """Delete the package cache's libraries other than ``keep``: builds of
    earlier sources.  The shared temp-dir folder is never pruned, since
    checkouts of different sources may take turns to use it."""
    with suppress(OSError):
        for old in keep.parent.glob("_kernel-*.so"):
            if old != keep:
                with suppress(OSError):
                    old.unlink()


def _open(path: Path):
    try:
        # PyDLL keeps the GIL through a call: no other thread can touch the
        # parser's buffers while the kernel writes them
        lib = ctypes.PyDLL(str(path))
        feed, truncate = lib.lz78_feed, lib.lz78_truncate
        certify = lib.lz78_certify
    except (OSError, AttributeError):
        return None
    feed.argtypes = (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64)
    feed.restype = ctypes.c_int64
    truncate.argtypes = (ctypes.c_void_p, ctypes.c_int64)
    truncate.restype = None
    certify.argtypes = (ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                        ctypes.c_int64, ctypes.c_void_p)
    certify.restype = ctypes.c_int64
    return lib
