"""Build and load the compiled LZ'78 kernel, ``_kernel.c``.

The extension module holds the feed loop and the rollback of
:class:`~lz78lab.parsing.StreamParser` (``lz78_feed``,
``lz78_truncate``), the rule loop of :func:`~lz78lab.parsing.certify`
over a word's table of runs (``lz78_certify``), which shares no code with
the feed loop, and numpy's seeded PCG64 byte stream that every seeded draw
reads, the de Bruijn tie-breaks included (``lz78_pcg64_bytes``, behind
``words._stream``).  Each is a ``METH_FASTCALL`` function of the module
``lz78lab._kernel`` that takes the objects its C routine reads and checks
them before the routine reads or writes memory: the parser's state (its four
int64 counters) and arrays as writable buffers of the right item size and
shape, the letters as ``bytes`` in range, certify's runs as a list of
``bytes`` that hold their spans and its claim as int64 buffers, and the
seed entropy as a uint32 buffer; ``lz78_pcg64_bytes`` returns its bytes.
``lz78_state`` is declared in ``_kernel.c`` only: the binding fills one on
the stack.  A source without the binding at its end, whose library has no
``PyInit__kernel``, loads as None.

:func:`load` runs when :mod:`lz78lab.parsing` is imported.  It compiles the
C source with ``gcc -O2 -shared -fPIC`` (or ``cc``) and the interpreter's
headers (``-isystem``, sysconfig's include folder) into a cache, under a
name keyed by the SHA-256 of the source, the flags and the interpreter's
extension suffix, which names its ABI: the package's ``__pycache__/``, or a
private folder under ``tempfile.gettempdir()`` when that is not writable.
Later imports only open the cached module with
:class:`importlib.machinery.ExtensionFileLoader`.  The build runs at import
rather than at the first parse, so no parse, and no timing of one, ever
includes it.  A build writes a temporary file and renames it into place, so
a concurrent import never opens a half-written library.  A build into the
package's cache deletes the libraries that earlier sources left there for
the same ABI, and the untagged ones of the ctypes binding that came before;
another interpreter's builds stay, and the temp-dir folder, which other
checkouts may share, is never pruned.  Without a compiler or the
interpreter's headers, or when the build or the load fails, :func:`load`
returns None, the parser and certify fall back to their pure-Python loops,
and the seeded stream to numpy's bit generator, which gives the same bytes.
The loader never writes to stdout or stderr: the compiler's output is
captured and dropped.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import suppress
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
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
SUFFIX = EXTENSION_SUFFIXES[0]         # names the ABI: ".cpython-311-x86_64-linux-gnu.so"
MODULE = "lz78lab._kernel"             # the name that PyInit__kernel is looked up by
BUILD_TIMEOUT_S = 60


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


def library_name(source: bytes, suffix: str = SUFFIX) -> str:
    key = sha256(source + " ".join(FLAGS).encode() + suffix.encode()).hexdigest()[:16]
    return f"_kernel-{key}{suffix}"


def load():
    """The kernel's extension module, or None when it cannot be built or
    opened; never raises."""
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
    import sysconfig

    cc = compiler()
    if cc is None:
        return False
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-isystem", sysconfig.get_path("include"),
                               "-o", tmp, "-x", "c", "-"], input=source,
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
    """Delete the package cache's libraries that are not ``keep`` but are of
    its ABI, or untagged ``.so`` files of the ctypes binding: builds of
    earlier sources.  Another interpreter's builds stay, since interpreters
    of two versions may share one checkout, and the shared temp-dir folder
    is never pruned, since checkouts of different sources may take turns to
    use it."""
    with suppress(OSError):
        for old in keep.parent.glob("_kernel-*"):
            # the name after the 16-digit key
            if old != keep and old.name[len("_kernel-") + 16:] in (SUFFIX, ".so"):
                with suppress(OSError):
                    old.unlink()


def _open(path: Path):
    """The extension module at ``path`` as ``lz78lab._kernel``, or None."""
    loader = ExtensionFileLoader(MODULE, str(path))
    try:
        module = loader.create_module(ModuleSpec(MODULE, loader, origin=str(path)))
        loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module
