"""The loader of the compiled parse kernel, and the fallback without it."""

import contextlib
import ctypes
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
from lz78lab import kernel, parsing
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
    stale = ["_kernel-0123456789abcdef.so", "_kernel-0123456789abcdefXYZ.tmp"]
    for folder in (package, temp):
        folder.mkdir()
        for name in stale:
            (folder / name).write_bytes(b"stale")
    current = kernel.library_name(kernel.SOURCE.read_bytes())
    monkeypatch.setattr(kernel, "PACKAGE_CACHE", package)
    assert kernel.cache_dir() == package
    assert kernel.load() is not None
    # another build's temporary file is not a library, and stays
    assert sorted(p.name for p in package.iterdir()) == sorted([current, stale[1]])
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
    runs, bounds, nruns = table.sources(), table.bounds, len(table.bounds) - 1
    s, q = (np.array(c, dtype=np.int64) for c in (starts, preds))
    count = len(s)
    codes = [parsing._certify_py(runs, bounds, nruns, memoryview(s), memoryview(q), count,
                                 bytearray(2 * count))]
    if KERNEL_LOADED:
        seen = np.zeros(2 * count, dtype=np.uint8)
        at = array("Q", (ctypes.cast(run, ctypes.c_void_p).value for run in runs))
        codes.append(KERNEL.lz78_certify(at.buffer_info()[0], bounds.buffer_info()[0], nruns,
                                         s.ctypes.data, q.ctypes.data, count,
                                         seen.ctypes.data))
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
