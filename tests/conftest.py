import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lz78lab import (Word, construct_general, construct_toy, derive_params, parse, parsing,
                     sample_family, verify_general, verify_toy)
from lz78lab.construction import GADGET, REGULAR
from lz78lab.words import Table

from oracles import naive_kgram_census

KERNEL = parsing._KERNEL
KERNEL_LOADED = KERNEL is not None
# the modes the parser runs in: the compiled kernel, when it loaded, and the
# pure-Python loops that stand in for it without a compiler
PARSERS = ("kernel", "python") if KERNEL_LOADED else ("python",)


@contextmanager
def parser_mode(mode: str):
    """Runs the parser and certify in ``mode``, also inside another mode:
    "python" binds ``parsing._KERNEL`` to None, as an import without the
    kernel would, and "kernel" binds it to the loaded kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parsing, "_KERNEL", None if mode == "python" else KERNEL)
        yield


@pytest.fixture(params=PARSERS)
def mode(request):
    """A test that takes it runs once in each mode of ``PARSERS``."""
    with parser_mode(request.param):
        yield request.param


@pytest.fixture
def python_parser(monkeypatch):
    """The parser and certify run their pure-Python loops for the test."""
    monkeypatch.setattr(parsing, "_KERNEL", None)


def fuzz_word(seed: int, trial: int, max_len: int) -> bytes:
    """Deterministic random word, length log-uniform in [1, max_len]."""
    ss = np.random.SeedSequence([seed, trial])
    rng = np.random.Generator(np.random.PCG64(ss))
    length = max(1, int(round(max_len ** rng.random())))
    return (rng.integers(0, 2, size=length, dtype=np.uint8) + ord("0")).tobytes()


def forced_base(length: int, seed: int) -> Word:
    """A word starting with 1: the front letter 0 then locks the parsing of
    0*pref(x) onto the block boundaries, forcing the insertion loop to run."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    bits = (rng.integers(0, 2, size=length, dtype=np.uint8) + ord("0")).tobytes()
    return Word(b"1" + bits[1:])


@pytest.fixture(scope="session")
def toy12():
    t0 = time.perf_counter()
    cw = construct_toy(12, 3.0, seed=0)
    report = verify_toy(cw)
    return {"cw": cw, "report": report, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def toy12_alternates():
    t0 = time.perf_counter()
    alts = [(seed, construct_toy(12, 3.0, seed=seed)) for seed in range(1, 6)]
    return {"alts": alts, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def gadget_suite():
    out = {}
    t0 = time.perf_counter()
    for k in (9, 11, 13):
        cw = construct_toy(k, 3.0, seed=0)
        out[k] = (cw, verify_toy(cw))
    return {"suite": out, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def general20():
    out = {}
    t0 = time.perf_counter()
    for l in (1 << 9, 1 << 10):
        params = derive_params(1 << 20, l, gamma=10.0)
        family = sample_family(params, seed=0)
        cw = construct_general(family)
        out[l] = (params, family, cw, verify_general(cw))
    return {"runs": out, "elapsed": time.perf_counter() - t0}


def assert_is_parse_of_0w(red, word: bytes):
    """A construction's handed-over parse ``red`` equals a fresh parse of 0w:
    its data is a segment table, not a copy of the letters, and the table's
    letters are 0w."""
    fresh = parse(b"0" + word)
    assert isinstance(red.data, Table) and red.data[:] == fresh.data
    assert (list(red.starts), list(red.preds), red.last_is_duplicate) == (
        fresh.starts, fresh.preds, fresh.last_is_duplicate)


def assert_segments_tile(cw):
    """The segments, placed at ``cw.segment_starts()``, lie end to end from
    letter 0 to the end of the word, each as long as its ``length``."""
    starts = cw.segment_starts()
    ends = starts[1:] + [len(cw.word)]
    assert starts[:1] == [0]
    assert [b - a for a, b in zip(starts, ends)] == [seg.length for seg in cw.segments]


def regular_letters(cw) -> bytes:
    """The letters of the regular segments of ``cw``, in word order, cut at
    ``cw.segment_starts()``: the word without its gadgets and padding."""
    starts = cw.segment_starts()
    data = cw.word.data
    return b"".join(data[a:a + seg.length] for a, seg in zip(starts, cw.segments)
                    if seg.kind == REGULAR)


def segment_tags(segments, chains) -> list:
    """Each segment's place in its chain, read off the chain records: t for
    regular t, whose length is q + 1 + t; (offset, ordinal) for a gadget,
    which is at its chain's chosen offset, the ordinal counting the chain's
    gadgets in word order; None for padding.  A regular cut short by
    ``infinite.build_prefix`` gets no true index."""
    tags, gadgets = [], {}
    for seg in segments:
        if seg.kind == REGULAR:
            tags.append(seg.length - chains[seg.chain].q - 1)
        elif seg.kind == GADGET:
            c = gadgets[seg.chain] = gadgets.get(seg.chain, -1) + 1
            tags.append((chains[seg.chain].chosen_i, c))
        else:
            tags.append(None)
    return tags


def assert_star_census(word, k: int) -> None:
    """Every u with |u| <= k occurs 2^(k - |u|) times in the cyclic de Bruijn
    word of order k whose linear form is ``word``: the occurrences that start
    in its first 2^k letters, counted over ``word[:2^k + |u| - 1]``."""
    text = word.to_text()
    for u in range(1, k + 1):
        census = naive_kgram_census(text[:(1 << k) + u - 1], u)
        counts = set(census.values())
        assert len(census) == 1 << u, f"k={k}: {len(census)} of the {1 << u} words of size {u}"
        assert counts == {1 << (k - u)}, f"k={k}: the words of size {u} occur {counts} times"


def criterion(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}")
