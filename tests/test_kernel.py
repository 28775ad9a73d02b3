"""The loader of the compiled parse kernel, and the fallback without it."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest

import lz78lab
from lz78lab import kernel, parsing, words
from lz78lab.cli import main
from lz78lab.construction import REGULAR, Segment
from lz78lab.errors import ParameterError
from lz78lab.words import Table, random_unit, random_word

from conftest import KERNEL, KERNEL_LOADED, PARSERS, parser_mode

CATASTROPHE_K8 = ["catastrophe", "--k", "8", "--format", "json"]

# runs a CLI command in a fresh interpreter whose loader finds no compiler and
# an empty cache, once the import has bound no kernel
WITHOUT_KERNEL = """
import sys
import tempfile
from pathlib import Path
from lz78lab import kernel
kernel.compiler = lambda: None
kernel.cache_dir = lambda: Path(sys.argv[1])
for name in [m for m in sys.modules if m.startswith("lz78lab") and m != "lz78lab.kernel"]:
    del sys.modules[name]
from lz78lab import parsing
from lz78lab.cli import main
if parsing._KERNEL is not None:
    sys.exit(99)
sys.exit(main(sys.argv[2:]))
"""


def cli_output(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def real_library(tmp_path) -> bytes:
    """The bytes of a good kernel library, built in a scratch cache."""
    folder = tmp_path / "good"
    folder.mkdir()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "cache_dir", lambda: folder)
        assert kernel.load() is not None
    return (folder / kernel.library_name(kernel.SOURCE.read_bytes())).read_bytes()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    folder = tmp_path / "cache"
    folder.mkdir()
    monkeypatch.setattr(kernel, "cache_dir", lambda: folder)
    return folder


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_without_a_compiler_the_python_parser_prints_the_same_bytes(tmp_path):
    code, out, err = cli_output(CATASTROPHE_K8)
    env = dict(os.environ, PYTHONPATH=str(Path(lz78lab.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", WITHOUT_KERNEL, str(tmp_path),
                           *CATASTROPHE_K8], env=env, capture_output=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")
    assert err == ""
    assert list(tmp_path.iterdir()) == []


def test_no_compiler_and_an_empty_cache_load_nothing(cache, monkeypatch, capfd):
    monkeypatch.setattr(kernel, "compiler", lambda: None)
    assert kernel.load() is None
    assert list(cache.iterdir()) == []
    assert capfd.readouterr() == ("", "")


def test_a_failing_compiler_falls_back_silently(cache, tmp_path, monkeypatch, capfd):
    fake = tmp_path / "gcc"
    fake.write_text("#!/bin/sh\necho compiling\necho broken >&2\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setattr(kernel, "compiler", lambda: str(fake))
    assert kernel.load() is None
    monkeypatch.setattr(kernel, "compiler", lambda: str(tmp_path / "missing-gcc"))
    assert kernel.load() is None
    assert list(cache.iterdir()) == []   # no temporary file is left behind
    assert capfd.readouterr() == ("", "")


# an extension suffix of another interpreter than this one
OTHER_ABI = next(suffix for suffix in (".cpython-310-x86_64-linux-gnu.so",
                                       ".cpython-311-x86_64-linux-gnu.so")
                 if suffix != kernel.SUFFIX)


def test_each_interpreter_abi_gets_its_own_library_name():
    source = kernel.SOURCE.read_bytes()
    names = {suffix: kernel.library_name(source, suffix)
             for suffix in (kernel.SUFFIX, OTHER_ABI)}
    assert names[kernel.SUFFIX] == kernel.library_name(source)
    assert len(set(names.values())) == 2
    for suffix, name in names.items():
        assert name.startswith("_kernel-") and name.endswith(suffix)
        assert len(name) == len("_kernel-") + 16 + len(suffix)


def test_missing_python_headers_fall_back_silently(cache, tmp_path, monkeypatch, capfd):
    """Without the interpreter's C headers the extension cannot build:
    load() gives None, prints nothing and leaves no file behind."""
    import sysconfig

    if kernel.compiler() is None:
        pytest.skip("no C compiler")
    empty = tmp_path / "include"
    empty.mkdir()
    get_path = sysconfig.get_path
    monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kwargs: (
        str(empty) if name == "include" else get_path(name, *args, **kwargs)))
    assert kernel.load() is None
    assert list(cache.iterdir()) == []
    assert capfd.readouterr() == ("", "")


def test_an_edited_source_gets_a_new_cache_key(cache, tmp_path, monkeypatch, capfd):
    source = kernel.SOURCE.read_bytes()
    edited = source + b"/* edited */\n"
    assert kernel.library_name(source) == kernel.library_name(bytes(source))
    assert kernel.library_name(edited) != kernel.library_name(source)
    copy = tmp_path / "_kernel.c"
    copy.write_bytes(edited)
    monkeypatch.setattr(kernel, "SOURCE", copy)
    if kernel.compiler() is None:
        pytest.skip("no C compiler")
    assert kernel.load() is not None
    assert [p.name for p in cache.iterdir()] == [kernel.library_name(edited)]
    assert capfd.readouterr() == ("", "")


def test_a_truncated_cached_library_is_rebuilt_or_skipped(cache, tmp_path, monkeypatch,
                                                          capfd):
    if kernel.compiler() is None:
        pytest.skip("no C compiler")
    good = real_library(tmp_path)
    path = cache / kernel.library_name(kernel.SOURCE.read_bytes())
    path.write_bytes(good[:100])
    assert kernel.load() is not None     # rebuilt in place
    assert path.read_bytes() == good
    other = tmp_path / "other"
    other.mkdir()
    (other / path.name).write_bytes(good[:100])
    monkeypatch.setattr(kernel, "cache_dir", lambda: other)
    monkeypatch.setattr(kernel, "compiler", lambda: None)
    assert kernel.load() is None         # skipped, without raising
    assert capfd.readouterr() == ("", "")


def test_a_build_prunes_stale_libraries_from_the_package_cache_only(tmp_path, monkeypatch,
                                                                   capfd):
    if kernel.compiler() is None:
        pytest.skip("no C compiler")
    package, temp = tmp_path / "package", tmp_path / "temp"
    # an earlier source's build for this interpreter, an untagged one of the
    # ctypes binding, another build's temporary file, and an earlier source's
    # build for another interpreter, which may share the checkout
    stale = ["_kernel-0123456789abcdef" + kernel.SUFFIX, "_kernel-0123456789abcdef.so",
             "_kernel-0123456789abcdefXYZ.tmp", "_kernel-0123456789abcdef" + OTHER_ABI]
    for folder in (package, temp):
        folder.mkdir()
        for name in stale:
            (folder / name).write_bytes(b"stale")
    current = kernel.library_name(kernel.SOURCE.read_bytes())
    monkeypatch.setattr(kernel, "PACKAGE_CACHE", package)
    assert kernel.cache_dir() == package
    assert kernel.load() is not None
    assert sorted(p.name for p in package.iterdir()) == sorted([current, *stale[2:]])
    monkeypatch.setattr(kernel, "cache_dir", lambda: temp)
    assert kernel.load() is not None
    assert sorted(p.name for p in temp.iterdir()) == sorted([current, *stale])
    assert capfd.readouterr() == ("", "")


def test_an_unwritable_package_caches_in_a_private_temp_folder(tmp_path, monkeypatch):
    package_cache = Path(kernel.__file__).parent / "__pycache__"
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        False if Path(path) == package_cache else access(path, mode)))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    private = tmp_path / f"lz78lab-{os.getuid()}"
    assert kernel.cache_dir() == private
    assert private.stat().st_mode & 0o777 == 0o700
    private.chmod(0o770)                 # a folder others may write is not used
    assert kernel.cache_dir() is None


def test_a_library_without_the_rule_2_check_loads_as_none(cache, tmp_path, monkeypatch,
                                                          capfd):
    """A kernel source from before lz78_certify builds, but its library is
    not used: certify would have no compiled rule loop to call."""
    if kernel.compiler() is None:
        pytest.skip("no C compiler")
    source = kernel.SOURCE.read_bytes()
    old = tmp_path / "_kernel.c"
    old.write_bytes(source[:source.index(b"/* The rules of certify")])
    monkeypatch.setattr(kernel, "SOURCE", old)
    assert kernel.load() is None
    assert [p.name for p in cache.iterdir()] == [kernel.library_name(old.read_bytes())]
    assert capfd.readouterr() == ("", "")


def test_a_library_without_the_seeded_stream_loads_as_none(cache, tmp_path, monkeypatch,
                                                            capfd):
    """A kernel source from before lz78_pcg64_bytes builds, but its library
    is not used: the seeded draws would have no compiled stream to call."""
    if kernel.compiler() is None:
        pytest.skip("no C compiler")
    source = kernel.SOURCE.read_bytes()
    old = tmp_path / "_kernel.c"
    old.write_bytes(source[:source.index(b"/* numpy's SeedSequence")])
    monkeypatch.setattr(kernel, "SOURCE", old)
    assert kernel.load() is None
    assert [p.name for p in cache.iterdir()] == [kernel.library_name(old.read_bytes())]
    assert capfd.readouterr() == ("", "")


def parser_state(sp) -> tuple:
    """The parser's counters (nodes, cur, pos, block_start) and its arrays."""
    return tuple(sp._state), bytes(sp._child), bytes(sp._starts), bytes(sp._preds)


def parser_args(sp) -> list:
    """The parser's objects as lz78_feed takes them: state, child, starts, preds."""
    return [sp._state, sp._child, sp._starts, sp._preds]


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_lz78_feed_refuses_a_non_bytes_word_or_a_bad_range_before_reading():
    """The binding checks the letters' type and the range i <= n within them
    before the routine reads a letter or the state: the parser is unchanged."""
    sp = parsing.StreamParser()
    sp.feed(b"0110")
    before, args = parser_state(sp), parser_args(sp)
    for word in (bytearray(b"0101"), memoryview(b"0101"), "0101", None):
        with pytest.raises(TypeError, match="bytes"):
            KERNEL.lz78_feed(*args, word, 0, 4)
    for i, n in ((-1, 2), (3, 2), (0, 5), (5, 5), (0, -1), (2**40, 2**41)):
        with pytest.raises(ValueError, match="range"):
            KERNEL.lz78_feed(*args, b"0101", i, n)
    for extra in ((b"0101", 0), (b"0101", 0, 4, 0)):
        with pytest.raises(TypeError, match="7 arguments"):
            KERNEL.lz78_feed(*args, *extra)
    with pytest.raises(TypeError):
        KERNEL.lz78_feed(*args, b"0101", 0.0, 4)
    with pytest.raises(OverflowError):
        KERNEL.lz78_feed(*args, b"0101", 0, 2**64)
    assert parser_state(sp) == before
    # the edges of the range are fed, and an empty one changes nothing
    assert KERNEL.lz78_feed(*args, b"0101", 4, 4) == 4
    assert parser_state(sp) == before
    assert KERNEL.lz78_feed(*args, b"0101", 0, 4) == 4
    assert sp.position == 8


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_lz78_truncate_refuses_to_keep_more_blocks_than_there_are():
    sp = parsing.StreamParser()
    sp.feed(b"0100011")                # 0|1|00|01|1: four blocks
    before = parser_state(sp)
    args = [sp._state, sp._child, sp._preds]
    for kept in (-1, 5, 2**40):
        with pytest.raises(ValueError, match="of 4 blocks"):
            KERNEL.lz78_truncate(*args, kept)
    with pytest.raises(TypeError, match="4 arguments"):
        KERNEL.lz78_truncate(*args)
    assert parser_state(sp) == before
    KERNEL.lz78_truncate(*args, 4)     # all kept: the in-progress block goes
    assert list(sp.starts) == [0, 1, 2, 4] and sp._state[1] == 0
    KERNEL.lz78_truncate(*args, 0)
    assert list(sp.starts) == [] and not any(sp.child)


def int64s(*values) -> memoryview:
    return memoryview(array("q", values))


def wrong_buffers(item_size: int) -> list:
    """Buffers that an array of ``item_size``-byte integers is not: another
    item size, a float format of the same size, raw bytes, and an int."""
    other = {4: "q", 8: "i"}[item_size]
    return [memoryview(bytearray(64)).cast(other),
            memoryview(bytearray(64)).cast({4: "f", 8: "d"}[item_size]),
            bytearray(64), 12345]


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_the_parser_bindings_check_each_buffer_before_touching_memory():
    """lz78_feed and lz78_truncate refuse, before they read or write, an int
    or a buffer of another item size or format where an array goes, a
    read-only buffer where they write, arrays of unequal capacity, and a
    state whose node count is outside 1 to the capacity or whose current
    node is not below it.  The parser's counters and arrays stay unchanged."""
    sp = parsing.StreamParser()
    sp.feed(b"0100011")                # 0|1|00|01|1: four blocks, cur at node 2
    before = parser_state(sp)
    state, child, starts, preds = parser_args(sp)
    cap = len(starts)
    feed = lambda st, c, s, q: KERNEL.lz78_feed(st, c, s, q, b"0101", 0, 4)
    truncate = lambda st, c, s, q: KERNEL.lz78_truncate(st, c, q, 2)
    refused = 0
    for call in (feed, truncate):
        args = [state, child, starts, preds]
        positions = (0, 1, 3) if call is truncate else (0, 1, 2, 3)
        for k in positions:
            for wrong in [*wrong_buffers(4 if k == 1 else 8),
                          bytes(args[k].nbytes),                   # read-only
                          args[k].toreadonly()]:
                with pytest.raises(TypeError, match="buffer"):
                    call(*args[:k], wrong, *args[k + 1:])
                refused += 1
        # unequal lengths: the child slots not twice the block entries, the
        # preds not as many as the starts, the state not 4 counters
        for k, wrong in ((1, child[:-2]), (1, child[:2 * cap - 1]), (3, preds[:-1]),
                         (0, state[:3]), (0, int64s(1, 0, 0, 0, 0))):
            with pytest.raises(ValueError, match="4 counters"):
                call(*args[:k], wrong, *args[k + 1:])
            refused += 1
        # counters: no node, more nodes than the capacity, cur at or past nodes
        for counters in ((0, 0, 7, 7), (-1, 0, 7, 7), (cap + 1, 0, 7, 7), (2**40, 0, 7, 7),
                         (5, 5, 7, 7), (5, 9, 7, 7), (5, -1, 7, 7)):
            with pytest.raises(ValueError, match="nodes"):
                call(int64s(*counters), child, starts, preds)
            refused += 1
        assert parser_state(sp) == before
    assert refused == 2 * 5 + 3 * 6 + 4 * 6 + 2 * 7
    # a state of exactly the capacity is taken: the feed walks 0 and 01 in
    # the trie and stops at the letter that would make a new node
    full = int64s(cap, 0, 7, 7)
    assert KERNEL.lz78_feed(full, child, starts, preds, b"0101", 0, 4) == 2
    assert list(full) == [cap, 4, 9, 7]
    assert parser_state(sp) == before


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_lz78_certify_checks_the_runs_and_bounds_before_reading():
    """lz78_certify takes the runs as a list of bytes, and refuses bounds
    that do not start at 0, that decrease or that do not bound every run, a
    run shorter than its span, preds not as many as the starts, and buffers
    that are not int64."""
    runs, bounds = [b"0100", b"011000011"], int64s(0, 4, 13)
    starts, preds = int64s(*STARTS), int64s(*PREDS)
    assert KERNEL.lz78_certify(runs, bounds, starts, preds) == 4 * 7
    # the spans end short of their runs' ends: a run may hold more letters
    assert KERNEL.lz78_certify([b"0100xx", b"011000011xx"], bounds, starts, preds) == 4 * 7
    assert KERNEL.lz78_certify([], int64s(0), int64s(), int64s()) == 0
    for wrong_runs in ((b"0100", b"011000011"), [b"0100", bytearray(b"011000011")],
                       [b"0100", "011000011"]):
        with pytest.raises(TypeError, match="runs as"):
            KERNEL.lz78_certify(wrong_runs, bounds, starts, preds)
    # a run shorter than its span, and bounds that decrease, at the first
    # run or a later one, or that do not start at 0 or bound every run
    for wrong_runs, wrong_bounds in (([b"0100", b"01100001"], bounds),
                                     ([b"010", b"011000011"], bounds),
                                     (runs, int64s(0, 5, 4)), (runs, int64s(0, -4, 13)),
                                     (runs, int64s(0, 4, -2**63)), (runs, int64s(1, 4, 13)),
                                     (runs, int64s(-1, 4, 13)), (runs, int64s(0, 4, 13, 13)),
                                     (runs, int64s(0, 13))):
        with pytest.raises(ValueError, match="bound"):
            KERNEL.lz78_certify(wrong_runs, wrong_bounds, starts, preds)
    with pytest.raises(ValueError, match="preds"):
        KERNEL.lz78_certify(runs, bounds, starts, preds[:-1])
    for k in range(3):
        args = [bounds, starts, preds]
        for wrong in wrong_buffers(8):
            args[k] = wrong
            with pytest.raises(TypeError, match="buffer"):
                KERNEL.lz78_certify(runs, *args)
    with pytest.raises(TypeError, match="4 arguments"):
        KERNEL.lz78_certify(runs, bounds, starts)


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_lz78_pcg64_bytes_refuses_a_negative_length():
    at = array("I", [29, 1])
    assert KERNEL.lz78_pcg64_bytes(at, 0) == b""
    assert KERNEL.lz78_pcg64_bytes(at, 13) == words._stream([29, 1], 13)
    assert KERNEL.lz78_pcg64_bytes(memoryview(at).toreadonly(), 13) == words._stream([29, 1], 13)
    for n in (-1, -2**40):
        with pytest.raises(ValueError, match=">= 0"):
            KERNEL.lz78_pcg64_bytes(at, n)
    # entropy that is not uint32: signed, of another size, a float, raw bytes
    for entropy in (array("i", [29, 1]), array("Q", [29, 1]), array("f", [29, 1]),
                    bytes(8), 29):
        with pytest.raises(TypeError, match="unsigned 32-bit"):
            KERNEL.lz78_pcg64_bytes(entropy, 8)
    with pytest.raises(TypeError, match="2 arguments"):
        KERNEL.lz78_pcg64_bytes(at)


def numpy_generator(entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def test_seeded_draws_are_numpys_bit_for_bit(mode):
    """random_word's letters and random_unit's double are those of numpy's
    Generator on SeedSequence(entropy), in both modes.  The entropies hold
    0, values of 2^32 and above and of 2^64 and above, and lists of more than
    4 uint32 words, which SeedSequence mixes in after its 4-word pool."""
    rng = random.Random(2525)
    values = (lambda: 0, lambda: rng.randrange(16), lambda: rng.randrange(1 << 32),
              lambda: rng.randrange(1 << 32, 1 << 64), lambda: rng.randrange(1 << 64, 1 << 96))
    lengths = (0, 1, 7, 8, 9)
    seen = set()
    for trial in range(5000):
        entropy = [rng.choice(values)() for _ in range(rng.randrange(1, 7))]
        length = lengths[trial] if trial < len(lengths) else rng.randrange(3001)
        want = numpy_generator(entropy).integers(0, 2, size=length, dtype=np.uint8)
        assert random_word(entropy, length) == (want + ord("0")).tobytes(), entropy
        assert random_unit(entropy) == numpy_generator(entropy).random(), entropy
        # a value of 2^32 and above is 2 uint32 words, of 2^64 and above 3
        uint32_words = [max(1, -(-v.bit_length() // 32)) for v in entropy]
        seen.update(uint32_words)
        seen.add(sum(uint32_words) > 4)
    assert seen >= {1, 2, 3, True, False}


def test_the_stream_splits_entropy_values_at_the_uint32_edges(mode):
    # 0 and 2^32 - 1 are one uint32 word, 2^32 two and 2^64 + 5 three, alone
    # and beside another value; the bytes are numpy's bit generator's
    for value, count in ((0, 1), (2**32 - 1, 1), (2**32, 2), (2**64 + 5, 3)):
        assert len(words._entropy_words([value])) == count
        for entropy in ([value], [value, 7], [3, value]):
            bits = np.random.PCG64(np.random.SeedSequence(entropy))
            assert words._stream(entropy, 37) == bits.random_raw(5).astype("<u8").tobytes()[:37]
            # an iterator is read once, for the words and for numpy alike
            assert words._stream(iter(entropy), 37) == words._stream(entropy, 37)


def test_a_negative_entropy_or_length_is_refused_before_drawing(monkeypatch):
    class NoKernel:
        def __getattr__(self, name):
            raise AssertionError(f"the kernel's {name} was called")

    def no_numpy(seed):
        raise AssertionError("numpy's bit generator was seeded")

    monkeypatch.setattr(np.random, "PCG64", no_numpy)
    for kernel_lib in (NoKernel(), None):
        monkeypatch.setattr(parsing, "_KERNEL", kernel_lib)
        for draw in (lambda: random_word([3, -1], 5), lambda: random_word([3], -1),
                     lambda: random_unit([-2**40]), lambda: random_unit([0, 1, 2, 3, -5])):
            with pytest.raises(ParameterError, match=">= 0"):
                draw()


# runs CLI commands in a fresh interpreter, then prints whether numpy.random
# was imported
SEEDED_COMMANDS = """
import contextlib
import io
import sys
from lz78lab import parsing
from lz78lab.cli import main
if parsing._KERNEL is None:
    sys.exit(99)
for argv in (["catastrophe", "--k", "8", "--seed", "1", "--format", "json"],
             ["debruijn", "--k", "10", "--seed", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv):
            sys.exit(1)
print("numpy.random" in sys.modules)
"""


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_seeded_de_bruijn_words_leave_numpy_random_unloaded():
    """With the kernel, the de Bruijn tie-breaks are drawn from the kernel's
    stream like every other seeded draw, so a nonzero seed imports no
    numpy.random."""
    env = dict(os.environ, PYTHONPATH=str(Path(lz78lab.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", SEEDED_COMMANDS], env=env,
                          capture_output=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"False\n", b"")


def rule_codes(data, starts, preds):
    """The code of certify's rule loop for a claim on ``data``, a word or a
    segment table, from every form: the kernel's lz78_certify, when it
    loaded, and parsing._certify_py.  A word is the table of one run."""
    table = data if isinstance(data, Table) else Table(data)
    args = (table.sources(), table.bounds, array("q", starts), array("q", preds))
    codes = [parsing._certify_py(*args)]
    if KERNEL_LOADED:
        codes.append(KERNEL.lz78_certify(*args))
    return codes


def cut_into_runs(data: bytes, cuts) -> Table:
    """``data`` as a segment table whose runs end at the positions ``cuts``,
    the first run the front (empty when a cut is at 0).  Each segment's
    source carries two letters past its length, which no read may reach."""
    bounds = [0, *cuts, len(data)]
    front, *rest = (data[a:b] for a, b in zip(bounds, bounds[1:]))
    return Table(front, [Segment(REGULAR, len(run), 0, run + b"10") for run in rest])


# 0|1|00|01|10|000|11
WORD = b"0100011000011"
STARTS, PREDS = [0, 1, 2, 4, 6, 8, 11], [-1, -1, 0, 0, 1, 2, 1]
DUP = parsing.parse(b"0001010100011")
# (word, starts, preds, the code of the first broken rule)
RULE_CLAIMS = [
    (WORD, STARTS, PREDS, 4 * 7),                               # the parse
    (b"", [], [], 0),                                           # the empty parse
    (DUP.data, DUP.starts, DUP.preds, 4 * 6 + 3),               # its last block repeats
    # rule 1: block 0 not at 0, an empty block, a block past the word (which
    # breaks rule 2 as well), a last block at the word's end
    (WORD, [1, 1, 2, 4, 6, 8, 11], PREDS, 4 * 0 + 1),
    (WORD, [0, 1, 1, 4, 6, 8, 11], PREDS, 4 * 1 + 1),
    (WORD, [0, 1, 2, 4, 6, 8, 14], PREDS, 4 * 5 + 1),
    (WORD[:11], STARTS, PREDS, 4 * 6 + 1),
    # rule 2: a pred that is not -1 or earlier, a wrong length, and the
    # letters: block 2's head (pred 0), block 5's last head letter, block 6's
    (WORD, STARTS, [-1, -1, 0, 3, 1, 2, 1], 4 * 3 + 2),
    (WORD, STARTS, [-1, -1, 0, -2, 1, 2, 1], 4 * 3 + 2),
    (WORD, STARTS, [-1, -1, 0, 100, 1, 2, 1], 4 * 3 + 2),
    (WORD, STARTS, [-1, -5, 0, 0, 1, 2, 1], 4 * 1 + 2),        # a one-letter block
    (WORD, STARTS, [-1, -1, 0, 0, -1, 2, 1], 4 * 4 + 2),
    (WORD, STARTS, [-1, -1, 0, 0, 1, 0, 1], 4 * 5 + 2),
    (b"0110011000011", STARTS, PREDS, 4 * 2 + 2),
    (b"0100011001011", STARTS, PREDS, 4 * 5 + 2),
    (b"0100011000001", STARTS, PREDS, 4 * 6 + 2),
    (b"0110011001011", STARTS, PREDS, 4 * 2 + 2),               # the first of two
    # rule 3: "0" twice, though a later block is empty; block 2's last
    # letter flipped makes it block 3, before block 5's head differs
    (b"0001", [0, 1, 2], [-1, -1, 1], 4 * 1 + 3),
    (b"0101011000011", STARTS, PREDS, 4 * 3 + 3),
    (b"00011", [0, 1, 2, 4, 4], [-1, -1, 1, -1, -1], 4 * 1 + 3),
]


def test_certify_rule_loop_gives_the_same_code_in_both_forms():
    """4 i + rule for the first block i, in word order, that breaks a rule,
    else 4 count; rule 3 at the last block is the trailing duplicate.  The
    word is read as a table of one run."""
    assert (parsing.parse(WORD).starts, parsing.parse(WORD).preds) == (STARTS, PREDS)
    assert DUP.last_is_duplicate and DUP.block_count == 7
    for data, starts, preds, code in RULE_CLAIMS:
        assert rule_codes(data, starts, preds) == [code] * len(PARSERS), (data, starts)


def test_certify_rule_loop_reads_a_table_of_runs_as_its_word():
    """Cut into runs anywhere (one letter a run, an empty front, random
    cuts), each claim gets the code of its word in one run, in both forms:
    the compares split at run ends, and no read passes a run's length."""
    rng = random.Random(7)
    tables = 0
    for data, starts, preds, code in RULE_CLAIMS:
        n = len(data)
        cut_sets = [list(range(n + 1)), [0], list(range(1, n))]
        cut_sets += [sorted(rng.sample(range(n + 1), rng.randint(0, n + 1))) for _ in range(8)]
        for cuts in cut_sets:
            table = cut_into_runs(data, cuts)
            assert table[:] == data
            assert rule_codes(table, starts, preds) == [code] * len(PARSERS), (data, cuts)
            tables += 1
    assert tables == 11 * len(RULE_CLAIMS)


def test_certify_rule_2_mismatch_past_a_run_end():
    """Block 5, 000 at 8, extends block 2, 00 at 2.  With letter 9 flipped,
    its head differs from block 2's letters only past the run end at 9 (at 3
    on the pred's side): the first compare of each agrees, the second does
    not, and both forms name block 5 and rule 2.  Unflipped, the same runs
    certify."""
    flipped = b"0100011001011"
    for cuts in ([9], [3], [3, 9], [2, 9], [8, 9, 10], [3, 4, 9]):
        want = [4 * 5 + 2] * len(PARSERS)
        assert rule_codes(cut_into_runs(flipped, cuts), STARTS, PREDS) == want, cuts
        assert rule_codes(cut_into_runs(WORD, cuts), STARTS, PREDS) == [4 * 7] * len(PARSERS)


def test_node_ids_past_int32_raise_a_clear_error(monkeypatch):
    assert parsing.MAX_NODES == np.iinfo(np.int32).max + 1
    monkeypatch.setattr(parsing, "MAX_NODES", 64)
    rng = random.Random(3)
    word = bytes(rng.choice(b"01") for _ in range(2000))
    for mode in PARSERS:
        with parser_mode(mode):
            sp = parsing.StreamParser()
            sp.feed(word[:50])
            with pytest.raises(ParameterError, match="int32"):
                sp.feed(word[50:])
        # the parser's position counts the letters it parsed, and only those,
        # and it keeps the blocks that the feed wrote into its full arrays
        # before it stopped
        assert len(sp.starts) == 63
        assert 50 < sp.position < len(word) and sp.block_start <= sp.position
        full = parsing.parse(word[:sp.position])
        assert list(sp.starts) == full.starts[:63] and list(sp.preds) == full.preds[:63]
