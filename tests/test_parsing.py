import hashlib
import math
import random
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lz78lab import (ConstructionError, LzCode, MalformedCodeError, ParameterError,
                     Word, build_prefix, comp_ratio, construct_general, construct_toy, decode,
                     derive_params, dict_size, encode, parse, parsing, pref, sample_family,
                     tree_stats, words as words_mod)
from lz78lab.construction import REGULAR, Segment
from lz78lab.parsing import FIRST_NODES, StreamParser, certify, ratio_from_counts
from lz78lab.toy import construct_from_base
from lz78lab.words import SLICE, Table, as_bits, random_word

from conftest import KERNEL_LOADED, PARSERS, forced_base, fuzz_word, parser_mode
from oracles import naive_letters, naive_parse

# the equivalence tests below run in each mode of conftest.PARSERS (CI fails
# when the compiled kernel is not loaded, so they never pass on the fallback
# alone)

words = st.text(alphabet="01", max_size=400)


def blocks_of(text):
    return [b.decode() for b in parse(text).blocks()]


def test_parse_reference_example():
    assert blocks_of("00010110100001") == ["0", "00", "1", "01", "10", "100", "001"]
    p = parse("00010110100001")
    assert p.dict_size == 7
    assert not p.last_is_duplicate


def test_parse_empty():
    p = parse("")
    assert p.block_count == 0
    assert p.dict_size == 0


def test_parse_hand_simulated_example():
    # confirmed against the naive set-based parser
    expected = ["0", "00", "1", "01", "010", "001", "1"]
    assert naive_parse("0001010100011") == expected
    assert blocks_of("0001010100011") == expected
    p = parse("0001010100011")
    assert p.last_is_duplicate
    assert p.dict_size == 6


@settings(deadline=None)
@given(words)
def test_parse_matches_naive_oracle(text):
    assert blocks_of(text) == naive_parse(text)


@settings(deadline=None)
@given(words)
def test_partition_and_prefix_closure(text):
    p = parse(text)
    assert b"".join(p.blocks()) == text.encode()
    dictionary = set(p.blocks()[:p.dict_size])
    assert len(dictionary) == p.dict_size
    for b in dictionary:
        assert b[:-1] in dictionary or b[:-1] == b""
    # all blocks but the last are pairwise distinct
    blocks = p.blocks()
    assert len(set(blocks[:-1])) == max(0, len(blocks) - 1)


@settings(deadline=None)
@given(words)
def test_parse_deterministic(text):
    assert parse(text) == parse(text)


def test_parse_holds_the_callers_letters(mode):
    data = b"0001010100011"
    assert parse(data).data is data
    word = Word(data)
    assert parse(word).data is word.data
    for w in ("0110", bytearray(b"0110")):
        p = parse(w)
        assert type(p.data) is bytes and p.data == as_bits(w)
    # the empty word, one letter, trailing duplicates and block-boundary ends
    endings = set()
    for text in ("", "0", "1", "010", "01011", "0101", "00010110100001", "0001010100011"):
        p = parse(text)
        assert type(p.starts) is list and type(p.preds) is list
        blocks = naive_parse(text)
        assert [b.decode() for b in p.blocks()] == blocks
        index = {b: i for i, b in enumerate(blocks[:p.dict_size])}
        assert p.preds == [index.get(b[:-1], -1) for b in blocks]
        assert p.last_is_duplicate == (blocks[-1] in blocks[:-1] if blocks else False)
        endings.add(p.last_is_duplicate)
    assert endings == {False, True}


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_parse_peak_memory_per_letter():
    # the parse keeps the caller's letters, and as_bits checks them a slice
    # at a time: the peak is the parser's block arrays and the block lists
    # for the 1,034 blocks of this 1w (about 0.2 bytes a letter), where a
    # check of the whole word at once made it above 1
    data = b"1" + construct_toy(10).word.data
    tracemalloc.start()
    try:
        p = parse(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * len(data), f"{peak / len(data):.2f} bytes per letter"
    assert p.data is data


def test_a_feed_keeps_no_copy_of_the_letters(mode):
    # the letters stay with the caller: a feed only walks the trie, so all it
    # allocates is the parser's doubled arrays, 24 bytes a node for the 1,034
    # blocks of this 1w (0.09 bytes a letter), and for a buffer that is not
    # bytes one copied slice of SLICE letters at a time; a copy of the
    # letters would add 1.0 byte a letter
    data = b"1" + construct_toy(10).word.data
    for letters, scratch in ((data, 0), (bytearray(data), SLICE),
                             (memoryview(bytearray(data)), SLICE)):
        sp = StreamParser()
        tracemalloc.start()
        try:
            sp.feed(letters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - scratch < 0.1 * len(data), \
            f"{type(letters).__name__}: {(peak - scratch) / len(data):.3f} bytes per letter"
        assert sp.position == len(data)


def test_a_feed_in_slices_keeps_its_blocks(mode):
    # a buffer that is not bytes is fed a slice at a time; blocks that span
    # slices, and the arrays doubling mid-slice, give the parse of the bytes
    data = b"1" + construct_toy(7).word.data
    want = parse(data)
    for letters in (bytearray(data), memoryview(bytearray(data))[:]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parsing, "SLICE", 7)
            sp = StreamParser()
            assert sp.feed(letters) == 0
        assert sp.position == len(data)
        got = sp.finish(letters)
        assert (got.data, list(got.starts), list(got.preds), got.last_is_duplicate) == (
            want.data, want.starts, want.preds, want.last_is_duplicate)


@pytest.mark.parametrize("at", [0, 4_000_000 - 3, 5 * SLICE - 1, 5 * SLICE])
def test_a_bad_letter_deep_in_a_long_word_is_named_at_its_offset(at):
    # the letters are checked a slice at a time, and the offset is found
    # inside the slice that fails, also at the slice bounds; another bad
    # letter and a repeat of the first one after it leave the offset as it was
    word = bytearray(b"01" * 2_000_000)
    word[at] = ord("2")
    word[at + 1:at + 2] = b"x"
    if at + 2 < len(word):
        word[at + 2] = ord("2")
    for w in (bytes(word), bytearray(word), word.decode("ascii")):
        with pytest.raises(ParameterError) as err:
            as_bits(w)
        assert str(err.value) == f"invalid letter at offset {at}: '2'"
    with pytest.raises(ParameterError, match=f"^invalid letter at offset {at + 1}: 'é'$"):
        as_bits(word.decode("ascii")[:at] + "0é" + "1" * 9)
    assert as_bits(b"01" * 2_000_000) == b"01" * 2_000_000


@pytest.mark.parametrize("front", [b"0", b"1"])
def test_dict_size_feeds_the_pieces_in_turn(mode, front):
    # dict_size(a, w) is the dictionary size of the parse of aw, also for the
    # empty word and for words whose blocks grow the trie past its first
    # arrays, while a and w are fed in turn and aw is never built
    toy = construct_toy(8).word
    for w in (b"", b"0", b"1", "0110", Word(b"0001010100011"), toy,
              random_word([3], 5 * FIRST_NODES), b"01" * (3 * FIRST_NODES)):
        data = as_bits(w)
        assert dict_size(front, w) == parse(front + data).dict_size
        assert dict_size(w) == parse(data).dict_size
    assert dict_size() == dict_size(b"") == 0
    assert dict_size(b"00", b"0", b"1", b"1") == parse(b"00011").dict_size == 3
    with pytest.raises(ParameterError, match="offset 1"):
        dict_size(front, "0a")


def test_block_count_length_bound_exhaustive():
    # sum of block lengths is at most k(k+1)/2 since block i has length <= i
    for n in range(1, 13):
        for v in range(1 << n):
            text = format(v, f"0{n}b")
            p = parse(text)
            k = p.block_count
            assert k * (k + 1) // 2 >= n
            assert p.dict_size >= math.isqrt(n)


# --- the parse certificate: it must accept the parse and reject any other ---

# certify runs its rules as the kernel's lz78_certify when the kernel is
# loaded, else as parsing._certify_py, its oracle; every certify test below
# runs both forms, the modes of conftest.PARSERS, through certify_both


def certify_in(form, data, starts, preds, dup):
    with parser_mode(form):
        try:
            return certify(data, starts, preds, dup)
        except ConstructionError as err:
            return err


def outcome(result):
    """What the two forms must agree on: the accepted parse, or the error's
    message and diagnostics."""
    if isinstance(result, ConstructionError):
        return str(result), tuple(result.diagnostics.items())
    return result.data[:], tuple(result.starts), tuple(result.preds), result.last_is_duplicate


def certify_both(data, starts, preds, dup):
    """certify in every form; the forms must agree.  Returns the accepted
    parse, or raises the error."""
    results = [certify_in(form, data, starts, preds, dup) for form in PARSERS]
    assert len({outcome(r) for r in results}) == 1, results
    if isinstance(results[0], ConstructionError):
        raise results[0]
    assert results[0].starts is starts and results[0].preds is preds
    return results[0]


def claim(p):
    """A parse as certify takes it, with copies of the lists to tamper with."""
    return p.data, list(p.starts), list(p.preds), p.last_is_duplicate


def split_last_letter(data, starts, preds, dup, b):
    """Block b cut before its last letter, both pieces given their honest
    preds: the head is block preds[b], the tail a single letter."""
    q = preds[b]
    head_pred = preds[q] if q >= 0 else -1
    end = starts[b + 1] if b + 1 < len(starts) else len(data)
    shifted = [p + (p > b) for p in preds]
    return (data, starts[:b + 1] + [end - 1] + starts[b + 1:],
            shifted[:b] + [head_pred, -1] + shifted[b + 1:], dup)


def merged(data, starts, preds, dup, b):
    """Blocks b and b + 1 claimed as one, with block b's pred."""
    shifted = [p - (p > b) for p in preds]
    return data, starts[:b + 1] + starts[b + 2:], shifted[:b + 1] + shifted[b + 2:], dup


def certify_fails(data, starts, preds, dup):
    with pytest.raises(ConstructionError) as info:
        certify_both(data, starts, preds, dup)
    return info.value


@pytest.fixture(scope="module")
def claimed_words():
    """Short-block random words and long-block prefix words, ending in a
    duplicate block or not."""
    rng = random.Random(4242)
    texts = ["".join(rng.choice("01") for _ in range(3000)) for _ in range(3)]
    x = "".join(rng.choice("01") for _ in range(60))
    texts += [pref(x).to_text(), "0" + pref(x).to_text(), pref(x).to_text() + x[:7]]
    parses = [parse(t) for t in texts]
    assert {p.last_is_duplicate for p in parses} == {True, False}
    return parses


def test_certify_accepts_the_parse(claimed_words):
    for p in claimed_words:
        data, starts, preds, dup = claim(p)
        assert certify_both(data, starts, preds, dup) == p
        assert (starts, preds) == (p.starts, p.preds)     # nothing consumed
    assert certify_both(b"", [], [], False) == parse(b"")


@settings(deadline=None)
@given(words)
def test_certify_accepts_parse_of_any_word(text):
    p = parse(text)
    assert certify_both(*claim(p)) == p


@pytest.mark.parametrize("shift", [-1, 1])
def test_certify_rejects_a_shifted_boundary(claimed_words, shift):
    for p in claimed_words:
        for b in (1, p.block_count // 2, p.block_count - 1):
            data, starts, preds, dup = claim(p)
            starts[b] += shift
            certify_fails(data, starts, preds, dup)


def test_certify_rejects_merged_and_split_blocks(claimed_words):
    for p in claimed_words:
        last = p.block_count - 1
        for b in (0, last // 2, last - 1):
            err = certify_fails(*merged(*claim(p), b))
            assert err.diagnostics["block"] == b
        for b in (last // 2, last):
            if p.block_length(b) > 1:
                err = certify_fails(*split_last_letter(*claim(p), b))
                assert "repeat" in str(err)


def test_certify_rejects_a_wrong_pred(claimed_words):
    same_length = 0
    for p in claimed_words:
        lengths = [p.block_length(i) for i in range(p.block_count)]
        for b in (p.block_count // 3, p.block_count - 1):
            q = p.preds[b]
            # an earlier block as long as the true pred: only the letters differ
            twins = [j for j in range(b) if j != q and lengths[j] == lengths[b] - 1]
            same_length += bool(twins)
            for wrong in twins[:1] + [q + 1 if q + 1 < b else q - 1]:
                data, starts, preds, dup = claim(p)
                preds[b] = wrong
                err = certify_fails(data, starts, preds, dup)
                assert err.diagnostics["block"] == b
    assert same_length


def test_certify_rejects_a_pred_not_before_its_block(claimed_words):
    for p in claimed_words:
        b = p.block_count // 2
        for wrong in (b, b + 1, -2):
            data, starts, preds, dup = claim(p)
            preds[b] = wrong
            err = certify_fails(data, starts, preds, dup)
            assert err.diagnostics["block"] == b
            assert "neither -1 nor an earlier block" in str(err)


def test_certify_rejects_a_repeated_block():
    # "0001" parses as 0|00|1; 0|0|01 keeps every pred honest but repeats "0"
    assert parse("0001").starts == [0, 1, 3]
    err = certify_fails(b"0001", [0, 1, 2], [-1, -1, 1], False)
    assert err.diagnostics["block"] == 1
    assert "repeats an earlier block" in str(err)
    # one-letter blocks with honest preds: the first block to repeat is named,
    # whichever letter its group has
    for data, first in ((b"1100", 1), (b"1001", 2), (b"0110", 2), (b"10110", 2)):
        err = certify_fails(data, list(range(len(data))), [-1] * len(data), False)
        assert err.diagnostics["block"] == first
        assert "repeats an earlier block" in str(err)


def test_certify_rejects_a_wrong_duplicate_flag(claimed_words):
    for p in claimed_words:
        data, starts, preds, dup = claim(p)
        err = certify_fails(data, starts, preds, not dup)
        assert err.diagnostics["block"] == p.block_count - 1
    assert certify_fails(b"", [], [], True)


def test_certify_rejects_a_first_block_not_at_zero(claimed_words):
    for p in claimed_words:
        data, starts, preds, dup = claim(p)
        starts[0] = 1
        assert certify_fails(data, starts, preds, dup).diagnostics["block"] == 0
        # every block honest, but the first letter left out of them
        rest = parse(data[1:])
        err = certify_fails(data, [s + 1 for s in rest.starts], rest.preds,
                            rest.last_is_duplicate)
        assert "does not start at 0" in str(err)
    certify_fails(b"01", [], [], False)
    certify_fails(b"01", [0, 1], [-1], False)
    certify_fails(b"", [0], [-1], False)


def test_certify_names_the_first_faulty_block_in_word_order():
    # block 1 repeats block 0 and block 3 is empty: block 1 is named
    err = certify_fails(b"00011", [0, 1, 2, 4, 4], [-1, -1, 1, -1, -1], False)
    assert str(err) == "block 1 of the claimed parse repeats an earlier block"
    assert err.diagnostics == {"block": 1, "start": 1}
    # block 1 ends past the word, and block 2 after it is empty
    err = certify_fails(b"0001", [0, 1, 5, 3], [-1, 0, -1, -1], False)
    assert str(err) == "block 1 of the claimed parse is empty or ends past the word"
    assert err.diagnostics == {"block": 1, "start": 1}


def test_certify_allocates_under_4_bytes_a_block(mode):
    # the claim is the finished parser's int64 memoryviews, read in place, and
    # the letters are read where the segment table's runs hold them: certify
    # allocates the rule-3 table, 2 bytes a block, and for the kernel the
    # address of each of the 1,034 runs, 3.2 bytes a block in all, where a
    # copy of the 534,062 letters of 0w would add 22 bytes a block
    cw = construct_toy(10)
    count = cw.red.block_count
    tracemalloc.start()
    try:
        red = cw.certified_red()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert red == cw.red
    assert peak < 4 * count, f"{peak / count:.2f} bytes per block"


def flip(data, at: int) -> bytes:
    """The letters of ``data``, a word or a segment table, with letter at flipped."""
    return data[:at] + (b"1" if data[at:at + 1] == b"0" else b"0") + data[at + 1:]


@pytest.fixture(scope="module")
def toy8_red():
    return construct_toy(8, 3.0, seed=0).red


def naive_claim(data: bytes):
    """The parse of data (a word, or a segment table whose letters are
    joined) as certify takes it, from oracles.naive_parse."""
    blocks = naive_parse(data[:].decode())
    index, starts, preds, at = {"": -1}, [], [], 0
    for i, b in enumerate(blocks):
        starts.append(at)
        preds.append(index[b[:-1]])
        index.setdefault(b, i)
        at += len(b)
    return starts, preds, bool(blocks) and index[blocks[-1]] != len(blocks) - 1


def judged(data, starts, preds, dup):
    """certify_both's error, or None; certify accepts exactly the claim of
    the naive parse."""
    try:
        certify_both(data, starts, preds, dup)
    except ConstructionError as err:
        assert (list(starts), list(preds), dup) != naive_claim(data)
        return err
    assert (list(starts), list(preds), dup) == naive_claim(data)
    return None


def test_certify_forms_agree_on_tampered_claims(toy8_red):
    """Flipped letters, preds swapped between blocks of equal length and
    shifted boundaries, on random words and a constructed 0w: both forms
    accept, or both raise the same error at the same block, and they accept
    exactly the naive parse."""
    rng = random.Random(1616)
    parses = [parse(fuzz_word(16, t, 3000)) for t in range(12)] + [toy8_red]
    letter_rejects = 0
    for p in parses:
        count = p.block_count
        lengths = [p.block_length(i) for i in range(count)]
        by_length = {}
        for i, n in enumerate(lengths):
            by_length.setdefault(n, []).append(i)
        for b in rng.sample(range(count), min(count, 6)):
            start, end = p.block_bounds(b)
            # the first letter, the letter before the last, the last, any
            for at in {start, max(start, end - 2), end - 1, rng.randrange(start, end)}:
                data, starts, preds, dup = claim(p)
                err = judged(flip(data, at), starts, preds, dup)
                letter_rejects += "minus its last letter is not block" in str(err)
            twins = [j for j in by_length[lengths[b]] if p.preds[j] != p.preds[b]]
            if twins:
                data, starts, preds, dup = claim(p)
                j = rng.choice(twins)
                preds[b], preds[j] = preds[j], preds[b]
                assert judged(data, starts, preds, dup)
            if b:
                for shift in (-1, 1):
                    data, starts, preds, dup = claim(p)
                    starts[b] += shift
                    assert judged(data, starts, preds, dup)
    assert letter_rejects > 50


def test_certify_forms_reject_a_letter_under_a_pred_0_block():
    """Block 0 is one letter; a later block that extends it has pred 0, and
    flipping its first letter breaks rule 2 at that block alone."""
    p = parse(fuzz_word(16, 99, 3000))
    b = p.preds.index(0)
    data, starts, preds, dup = claim(p)
    err = certify_fails(flip(data, starts[b]), starts, preds, dup)
    assert err.diagnostics["block"] == b
    assert "minus its last letter is not block 0" in str(err)


def test_a_flipped_letter_in_the_last_long_block_of_a_toy_0w():
    red = construct_toy(9, 3.0, seed=0).red
    count = len(red.starts)
    longest = max(red.block_length(i) for i in range(count))
    b = max(i for i in range(count) if red.block_length(i) == longest)
    start, end = red.block_bounds(b)
    assert end - start > 64
    for at in (start, (start + end) // 2, end - 2):
        results = [certify_in(form, flip(red.data, at), red.starts, red.preds,
                              red.last_is_duplicate) for form in PARSERS]
        for err in results:
            assert isinstance(err, ConstructionError)
            assert err.diagnostics == {"block": b, "start": start}
            assert str(err) == (f"block {b} of the claimed parse minus its last "
                                f"letter is not block {red.preds[b]}")


def containers(values):
    a = np.array(list(values), dtype=np.int64)
    return [list(values), array("q", values), a, np.repeat(a, 2)[::2]]


def test_certify_takes_lists_arrays_and_numpy_claims(toy8_red):
    """A claim's starts and preds as lists, array('q'), numpy int64 and a
    non-contiguous numpy view: every container, in every form, gives the
    result of the lists."""
    p = parse(fuzz_word(16, 7, 3000))
    b = p.block_count // 2
    data = p.data
    claims = [claim(p), claim(toy8_red),
              (flip(data, p.block_bounds(b)[1] - 2), list(p.starts), list(p.preds),
               p.last_is_duplicate),
              (data, list(p.starts), p.preds[:b] + [p.preds[b] + 1] + p.preds[b + 1:],
               p.last_is_duplicate)]
    for data, starts, preds, dup in claims:
        want = {outcome(certify_in(form, data, starts, preds, dup)) for form in PARSERS}
        assert len(want) == 1
        for s, q in zip(containers(starts), containers(preds)):
            got = {outcome(certify_in(form, data, s, q, dup)) for form in PARSERS}
            assert got == want
    assert not containers([1, 2, 3])[3].flags.c_contiguous


# --- the segment table: its reader, and certify through it ---

# the first 16 hex digits of the SHA-256 of 0w as the constructions built it
# on one bytearray tape, before the segment table replaced the tape: the
# forced-gadget toy builds (base length, seed, k), construct_general at
# n = 2^16, l = 64 (seeds 0 and 1 hold offset-0 chains), and build_prefix at
# 250,000 letters, whose cut ends mid-chain
TAPES = {
    ("forced", 90, 2, 6): "7e71132b50d7b144",
    ("forced", 120, 7, 7): "6a9ad056d85c94d6",
    ("forced", 70, 3, 6): "84582026b1138772",
    ("forced", 200, 11, 7): "c43e4420a5230dcf",
    ("general", 0): "f2ad57f93e2f28e5",
    ("general", 1): "195e2d474f751d2a",
    ("general", 2): "cd50699e6cdb4fd6",
    ("prefix", 250_000): "c5b7514d92c69af0",
}


def build(name):
    if name[0] == "forced":
        return construct_from_base(forced_base(name[1], name[2]), name[3], 3.0)
    if name[0] == "general":
        return construct_general(sample_family(derive_params(1 << 16, 64), name[1]))
    return build_prefix(256, 0.1, name[1], 0)


def test_the_reader_gives_the_tapes_letters(mode, monkeypatch):
    """Built in each parser mode, every table's letters, read whole and
    over random ranges that straddle segment ends, are the naive join of its
    segments' letters, and 0w is the old tape's, byte for byte.  A read
    yields its letters SLICE at a time from its start, the last slice
    shorter, as ``bytes``."""
    rng = random.Random(35)
    gadgets = 0
    for name, digest in TAPES.items():
        cw = build(name)
        gadgets += sum(seg.kind != REGULAR for seg in cw.segments)
        for front in (b"0", b"1", b""):
            table = cw.letters(front)
            want = naive_letters(front, cw.segments)
            assert b"".join(table.slices()) == table[:] == want and len(table) == len(want)
        assert hashlib.sha256(cw.letters(b"0")[:]).hexdigest()[:16] == digest, name
        assert cw.word.data == want and cw.n == len(want)
        with monkeypatch.context() as mp:
            mp.setattr(words_mod, "SLICE", 64)
            starts = cw.segment_starts()
            table, want = cw.letters(b"0"), b"0" + want
            for _ in range(40):
                end = 1 + starts[rng.randrange(1, len(starts))]   # a segment end in 0w
                a = rng.randint(max(0, end - 300), end - 1)
                b = rng.randint(end + 1, min(len(want), end + 300))
                pieces = list(table.slices(a, b))
                assert b"".join(pieces) == want[a:b] == table[a:b]
                assert all(type(p) is bytes for p in pieces)
                assert [len(p) for p in pieces[:-1]] == [64] * (len(pieces) - 1)
    assert gadgets > 100


@pytest.fixture(scope="module")
def constructions():
    return {name: build(name) for name in TAPES} | {("toy", k): construct_toy(k)
                                                     for k in (5, 8, 10)}


def test_certify_accepts_every_constructions_parse_of_0w(constructions):
    """Both forms accept each construction's parse of 0w through its segment
    table, and return it over that table."""
    for name, cw in constructions.items():
        red = cw.red
        for form in PARSERS:
            got = certify_in(form, cw.letters(b"0"), red.starts, red.preds,
                             red.last_is_duplicate)
            assert not isinstance(got, ConstructionError), (name, form, got)
            assert got == red and got.data == cw.letters(b"0")


def cut_into_runs(data: bytes, rng) -> Table:
    """``data`` as a segment table cut at random, the first run the front
    (empty when the first cut is at 0); each source carries letters past its
    length, which no read may reach."""
    cuts = sorted(rng.sample(range(len(data) + 1), rng.randint(0, min(len(data) + 1, 60))))
    bounds = [0, *cuts, len(data)]
    front, *rest = (data[a:b] for a, b in zip(bounds, bounds[1:]))
    return Table(front, [Segment(REGULAR, len(run), 0, run + b"1") for run in rest])


def test_certify_of_a_table_is_certify_of_its_word(claimed_words):
    """The honest claim and tampered ones (a flipped letter, a shifted start,
    a pred swapped with a block of equal length), on each word as one run,
    the old certify's input, and cut into runs at random: every form gives
    one outcome, the same block and rule named in both forms."""
    rng = random.Random(3535)
    rejected = set()
    for p in claimed_words:
        count = p.block_count
        for _ in range(20):
            data, starts, preds, dup = claim(p)
            b = rng.randrange(1, count)
            kind = rng.choice(("honest", "letter", "start", "pred"))
            if kind == "letter":
                data = flip(data, rng.randrange(*p.block_bounds(b)))
            elif kind == "start":
                starts[b] += rng.choice((-1, 1))
            elif kind == "pred":
                twins = [j for j in range(count)
                         if p.block_length(j) == p.block_length(b) and p.preds[j] != preds[b]]
                if twins:
                    preds[b] = p.preds[rng.choice(twins)]
            want = {outcome(certify_in(form, data, starts, preds, dup)) for form in PARSERS}
            assert len(want) == 1
            for table in (Table(data), cut_into_runs(data, rng)):
                got = {outcome(certify_in(form, table, starts, preds, dup)) for form in PARSERS}
                assert got == want, kind
            rejected |= {msg.split(" of the claimed parse ")[1][:12]
                         for msg, *_ in want if isinstance(msg, str)}
    assert len(rejected) >= 3, rejected


def test_encode_reference_example():
    code = encode(parse("00010110100001"))
    assert code.entries == [(-1, 0), (0, 0), (-1, 1), (0, 1), (2, 0), (4, 0), (1, 1)]


def test_encode_single_letter():
    assert encode(parse("0")).entries == [(-1, 0)]


def test_encode_trailing_duplicate():
    # final duplicate block "1" encodes like any block: empty predecessor, letter 1
    code = encode(parse("0001010100011"))
    assert code.entries == [(-1, 0), (0, 0), (-1, 1), (0, 1), (3, 0), (1, 1), (-1, 1)]


def test_decode_reference_example():
    code = LzCode([(-1, 0), (0, 0), (-1, 1), (0, 1), (2, 0), (4, 0), (1, 1)])
    assert decode(code).to_text() == "00010110100001"


def test_decode_empty():
    assert decode(LzCode([])).to_text() == ""


def test_decode_rejects_forward_reference():
    with pytest.raises(MalformedCodeError):
        decode(LzCode([(-1, 0), (5, 1)]))
    with pytest.raises(MalformedCodeError):
        decode(LzCode([(0, 0)]))


def test_decode_rejects_non_int_entries():
    # bool is an int subclass, so True would otherwise decode as the letter 1
    for entries in ([(-1, True)], [(-1, 0), (False, 1)], [(-1, 1.0)], [(-1, 0), (0.0, 1)]):
        with pytest.raises(MalformedCodeError):
            decode(LzCode(entries))


@settings(deadline=None)
@given(words)
def test_round_trip_identity(text):
    assert decode(encode(parse(text))).to_text() == text


def test_round_trip_seeded_fuzz():
    rng = random.Random(20240)
    for _ in range(300):
        text = "".join(rng.choice("01") for _ in range(rng.randrange(1, 2000)))
        assert decode(encode(parse(text))).to_text() == text


def test_comp_ratio_values():
    assert comp_ratio("00010110100001") == pytest.approx(7 * math.log2(7) / 14)
    assert comp_ratio("00010110100001") == pytest.approx(1.4037, abs=1e-4)
    assert comp_ratio("0") == 0.0
    with pytest.raises(ParameterError):
        comp_ratio("")
    with pytest.raises(ParameterError, match="offset 1"):
        comp_ratio("0a1")


def test_comp_ratio_of_prefix_word():
    # pref(x) for |x| = s parses into s blocks of total length s(s+1)/2
    s = 4107
    value = ratio_from_counts(s, s * (s + 1) // 2)
    assert value == pytest.approx(0.00585, abs=5e-5)
    small = pref("0110100110010110").data  # s = 16
    assert comp_ratio(small) == ratio_from_counts(16, 16 * 17 // 2)


def test_tree_stats_reference():
    stats = tree_stats(parse("00010110100001"))
    assert stats.vertex_count == 8
    assert stats.max_depth == 3
    assert stats.depth_histogram == {0: 1, 1: 2, 2: 3, 3: 2}


def test_tree_stats_empty_and_path():
    assert tree_stats(parse("")).vertex_count == 1
    x = "01101001100101101001011001101001"  # any word: pref gives a single path
    stats = tree_stats(parse(pref(x)))
    assert stats.vertex_count == len(x) + 1
    assert stats.max_depth == len(x)
    assert all(c == 1 for c in stats.depth_histogram.values())


def assert_same_state(sp, fresh, content):
    """Two parsers hold the same public state and the same trie, slot for
    slot, whichever modes fed them."""
    assert sp.position == fresh.position == len(content)
    assert sp.starts == fresh.starts
    assert sp.preds == fresh.preds
    assert sp.block_start == fresh.block_start
    assert sp.child == fresh.child


def fed_at_once(content: bytes, mode: str):
    with parser_mode(mode):
        sp = StreamParser()
        sp.feed(content)
    return sp


def assert_fed_alike(sp, content: bytes):
    """``sp`` holds the state of a parser fed ``content`` at once, in each mode."""
    for mode in PARSERS:
        assert_same_state(sp, fed_at_once(content, mode), content)


def parse_with(text: str):
    sp = StreamParser()
    sp.feed(text.encode())
    return sp.finish(text.encode())


def test_stream_parser_rollback_matches_fresh_parse():
    # rollback to arbitrary positions, splice in new content, and compare the
    # final state against a parser fed the edited word in one shot
    for mode in PARSERS:
        rng = random.Random(1234)
        for _ in range(60):
            sp = StreamParser()
            content = bytearray()
            with parser_mode(mode):
                for _ in range(rng.randrange(1, 6)):
                    piece = bytes(rng.choice(b"01") for _ in range(rng.randrange(1, 400)))
                    if content and rng.random() < 0.7:
                        pos = rng.randrange(len(content) + 1)
                        removed = sp.rollback(pos)
                        assert removed == range(sp.position, len(content))
                        assert sp.position <= pos
                        content[pos:pos] = piece
                        sp.feed(content[sp.position:])
                    else:
                        sp.feed(piece)
                        content += piece
            assert_fed_alike(sp, bytes(content))


def test_rollback_returns_the_positions_of_the_removed_letters(mode):
    # after random feeds, rollback(pos) returns range(boundary, old end): the
    # boundary is the new position, a block start at or before pos, and the
    # length is the count of letters removed; the parser then holds the
    # parse of the letters kept
    rng = random.Random(2121)
    for _ in range(40):
        content = bytes(rng.choice(b"01") for _ in range(rng.randrange(1, 3000)))
        sp = StreamParser()
        at = 0
        while at < len(content):
            step = rng.randrange(1, 400)
            sp.feed(content[at:at + step])
            at += step
        for _ in range(3):
            end, pos = sp.position, rng.randrange(sp.position + 1)
            r = sp.rollback(pos)
            assert type(r) is range and r.step == 1
            assert r.start == sp.position == sp.block_start and sp.position <= pos
            assert r.stop == end and len(r) == end - sp.position
            assert_fed_alike(sp, content[:sp.position])
            sp.feed(content[sp.position:end])
        assert_fed_alike(sp, content[:end])


def two_tier_words(rng, count):
    """Random words, pref(x) and a.pref(x): blocks of 8 letters, of 9, and far longer."""
    out = []
    for trial in range(count):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(1, 70)))
        kind = trial % 3
        if kind == 0:
            out.append("".join(rng.choice("01") for _ in range(rng.randrange(0, 3000))))
        elif kind == 1:
            out.append(pref(x).to_text())
        else:
            out.append(rng.choice("01") + pref(x).to_text())
    return out


def test_two_tier_parse_matches_naive_oracle():
    for mode in PARSERS:
        rng = random.Random(808)
        lengths = set()
        with parser_mode(mode):
            for text in two_tier_words(rng, 450):
                p = parse_with(text)
                blocks = naive_parse(text)
                assert [b.decode() for b in p.blocks()] == blocks
                # each predecessor is the block minus its last letter (or the root)
                index = {b: i for i, b in enumerate(blocks[:p.dict_size])}
                assert list(p.preds) == [index.get(b[:-1], -1) for b in blocks]
                assert decode(encode(p)).to_text() == text
                lengths.update(len(b) for b in blocks)
        assert {8, 8 + 1} <= lengths
        assert max(lengths) > 4 * 8


def test_feeding_in_pieces_and_after_reset_equals_one_shot():
    for mode in PARSERS:
        rng = random.Random(909)
        for text in two_tier_words(rng, 150):
            content = text.encode()
            sp = StreamParser()
            with parser_mode(mode):
                at = 0
                while at < len(content):
                    step = rng.randrange(1, 3 * 8)
                    sp.feed(content[at:at + step])
                    at += step
            assert_fed_alike(sp, content)
            sp.reset()
            with parser_mode(mode):
                sp.feed(content[::-1])
            assert_fed_alike(sp, content[::-1])


def test_tail_pred_of_in_progress_duplicates():
    # a word ending inside a duplicate of a short or long block, fed in pieces:
    # closed_blocks closes it with the pred of the block it repeats
    for mode in PARSERS:
        rng = random.Random(1010)
        x = "".join(rng.choice("01") for _ in range(40))
        base = pref(x).to_text()
        for cut in range(1, len(x) + 1):
            text = base + x[:cut]
            with parser_mode(mode):
                sp = StreamParser()
                sp.feed(text[:len(base) + cut // 2].encode())
                sp.feed(text[len(base) + cut // 2:].encode())
                fresh = fed_at_once(text.encode(), mode)
                expected = naive_parse(text).index(x[:cut - 1]) if cut > 1 else -1
                for parser in (sp, fresh):
                    starts, preds, dup = parser.closed_blocks()
                    assert dup and starts[-1] == parser.block_start
                    assert preds[-1] == expected
                assert parse_with(text).preds[-1] == expected
                assert parse(text).preds[-1] == expected


def finished_as_lists(p):
    return p.data, list(p.starts), list(p.preds), p.last_is_duplicate


def closed_as_lists(sp):
    starts, preds, dup = sp.closed_blocks()
    return list(starts), list(preds), dup


def test_closed_blocks_leaves_the_parser_as_it_was(mode):
    # fuzz words, and one that outgrows FIRST_NODES, fed in pieces that end at
    # block boundaries and mid-block: after each piece, and on the empty
    # parser, the closed blocks are the parse of the letters so far, and once
    # feeding goes on the parser holds the state of one that was never asked
    rng = random.Random(2727)
    words = [fuzz_word(27, trial, 2000) for trial in range(40)]
    words.append(random_word([27], 30 * FIRST_NODES))
    assert len(parse(words[-1]).starts) > FIRST_NODES
    closings = set()
    for word in words:
        asked, never = StreamParser(), StreamParser()
        whole = parse(word)
        bounds = set(whole.starts)     # the letters fed so far end on a block boundary
        if not whole.last_is_duplicate:
            bounds.add(len(word))
        cuts = sorted({*rng.sample(whole.starts, min(len(whole.starts), 20)), len(word),
                       *(rng.randrange(len(word)) for _ in range(20))})
        at = 0
        for cut in cuts + [None]:
            p = parse(word[:at])
            assert closed_as_lists(asked) == (p.starts, p.preds, p.last_is_duplicate)
            closings.add((at in bounds, p.last_is_duplicate))
            if cut is None:
                break
            asked.feed(word[at:cut])
            never.feed(word[at:cut])
            at = cut
            assert_same_state(asked, never, word[:at])
        assert finished_as_lists(asked.finish(word)) == finished_as_lists(never.finish(word))
    # the empty parser and block boundaries close nothing; mid-block, a duplicate
    assert closings == {(True, False), (False, True)}


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_kernel_parser_matches_python_parser_seeded():
    from lz78lab import construct_toy

    def same(text):
        kernel, python = fed_at_once(text, "kernel"), fed_at_once(text, "python")
        assert_same_state(kernel, python, text)
        assert closed_as_lists(kernel) == closed_as_lists(python)
        assert finished_as_lists(kernel.finish(text)) == finished_as_lists(python.finish(text))

    # fuzz-short words, 1 to 2,000 letters, behind both front letters
    for trial in range(400):
        word = fuzz_word(14, trial, 2000)
        for front in (b"0", b"1"):
            same(front + word)
    # pref(x): the ascending prefixes of x, joined, so blocks grow by one
    rng = random.Random(1414)
    for length in (1, 2, 9, 40, 300):
        same(pref("".join(rng.choice("01") for _ in range(length))).data)
    # the 0w of catastrophe --k 8 (its defaults: gamma 3, seed 0)
    same(b"0" + construct_toy(8, 3.0, seed=0).word.data)


@pytest.mark.skipif(not KERNEL_LOADED, reason="the compiled kernel did not load")
def test_modes_mixed_mid_stream_match_the_kernel_alone():
    # feed, rollback and reset calls on one parser, each call in a mode drawn
    # at random, against the same calls on a parser the kernel alone runs;
    # the words outgrow FIRST_NODES, so Python steps double the child array
    rng = random.Random(1818)
    python_grows = 0
    for _ in range(30):
        mixed, alone = StreamParser(), StreamParser()
        content = bytearray()
        for _ in range(rng.randrange(1, 16)):
            mode, call = rng.choice(PARSERS), rng.random()
            if call < 0.1:
                mixed.reset()
                alone.reset()
                content.clear()
            elif content and call < 0.4:
                pos = rng.randrange(len(content) + 1)
                with parser_mode(mode):
                    removed = mixed.rollback(pos)
                with parser_mode("kernel"):
                    assert alone.rollback(pos) == removed
                del content[mixed.position:]
            else:
                x = "".join(rng.choice("01") for _ in range(rng.randrange(1, 60)))
                piece = (pref(x).data if call < 0.55 else
                         bytes(rng.choice(b"01") for _ in range(rng.randrange(1, 6000))))
                cap = mixed._state.node_cap
                with parser_mode(mode):
                    mixed.feed(piece)
                python_grows += mode == "python" and mixed._state.node_cap > cap
                with parser_mode("kernel"):
                    alone.feed(piece)
                content += piece
            assert_same_state(mixed, alone, content)
        p = mixed.finish(content)
        assert p.data == content
        assert [b.decode() for b in p.blocks()] == naive_parse(content.decode())
    assert python_grows


def test_a_finished_parse_and_a_held_view_survive_the_parsers_reuse(mode):
    # finish hands copies of its blocks over and reset allocates fresh arrays,
    # so the parse is not written over when the parser runs on; the arrays never
    # resize, so a view of them does not stop a feed or a rollback (the view
    # itself is valid only until the next one)
    rng = random.Random(1919)
    first, second = (bytes(rng.choice(b"01") for _ in range(30 * FIRST_NODES))
                     for _ in range(2))
    starts, preds, dup = naive_claim(first)
    assert len(starts) > FIRST_NODES
    sp = StreamParser()
    sp.feed(first)
    p = sp.finish(first)
    sp.feed(second[:len(second) // 2])
    held = np.asarray(sp.starts)
    sp.feed(second[len(second) // 2:])
    assert sp._state.node_cap > FIRST_NODES
    sp.rollback(len(second) // 4)
    sp.feed(second[sp.position:])
    assert list(sp.starts) == naive_claim(second)[0][:len(sp.starts)]
    sp.reset()
    del sp, held
    assert (list(p.starts), list(p.preds), p.last_is_duplicate) == (starts, preds, dup)


def test_a_finished_parse_holds_exactly_its_blocks(mode):
    # the parser's arrays double as they fill; the parse that finish hands
    # over keeps none of their slack, one int64 entry a block in each buffer
    word = random_word([7], 40 * FIRST_NODES)
    assert parse(word).block_count > 2 * FIRST_NODES
    for letters in (b"", b"0", word, b"1" + word):
        sp = StreamParser()
        sp.feed(letters)
        p = sp.finish(letters)
        assert p.data is letters
        assert p.block_count == parse(letters).block_count
        for blocks in (p.starts, p.preds):
            assert blocks.format == "q"
            assert memoryview(blocks.obj).nbytes == 8 * p.block_count


def assert_spares_are_empty():
    """Every kept spare parser is as a fresh one: its arrays never grew, and
    no node, child slot, letter or in-progress block is left in it."""
    for sp in parsing._SPARES:
        st_ = sp._state
        assert st_.node_cap == FIRST_NODES
        assert (st_.nodes, st_.cur, st_.pos, st_.block_start) == (1, 0, 0, 0)
        assert not any(sp._child)


def test_spare_parsers_give_the_oracles_parse(mode):
    # fuzz-short words behind both front letters, each parse and dict_size
    # run on the spare the last one left; every 50 words a parse and a
    # dict_size whose arrays grow, so their parsers are dropped, not kept
    grown = random_word([25], 20 * FIRST_NODES)
    for trial in range(2000):
        word = fuzz_word(25, trial, 2000)
        for front in (b"0", b"1"):
            blocks = naive_parse((front + word).decode())
            p = parse(front + word)
            assert [b.decode() for b in p.blocks()] == blocks
            assert p.dict_size == dict_size(front, word) == len(set(blocks))
        if trial % 50 == 0:
            spares = len(parsing._SPARES)
            assert parse(grown).block_count > FIRST_NODES
            assert dict_size(b"1", grown) > FIRST_NODES
            assert len(parsing._SPARES) == max(spares - 2, 0)
            assert_spares_are_empty()
    assert parsing._SPARES
    assert_spares_are_empty()


def test_a_parse_that_raises_keeps_no_spare(mode, monkeypatch):
    # with MAX_NODES at FIRST_NODES a spare's arrays cannot grow, so a long
    # word raises mid-feed, the spare's trie full; the next parse is right
    monkeypatch.setattr(parsing, "MAX_NODES", FIRST_NODES)
    long = random_word([26], 20 * FIRST_NODES)
    for fails in (lambda: parse(long), lambda: dict_size(b"1", long)):
        parse(b"0101")
        spares = len(parsing._SPARES)
        assert spares
        with pytest.raises(ParameterError, match="int32"):
            fails()
        assert len(parsing._SPARES) == spares - 1
        assert_spares_are_empty()
    for trial in range(20):
        word = fuzz_word(26, trial, 2000)
        assert blocks_of(word) == naive_parse(word.decode())
        assert dict_size(word) == len(set(naive_parse(word.decode())))
    assert_spares_are_empty()


def test_threads_never_share_a_spare_parser(mode):
    # more threads than cores, switching every microsecond, each parsing its
    # own words; a parser taken by two threads at once would mix their tries
    items = [(t, fuzz_word(27, t, 600)) for t in range(600)]
    want = {t: (parse(w).starts, dict_size(b"1", w)) for t, w in items}
    got, errors = {}, []

    def work(share):
        try:
            for t, w in share:
                got[t] = (parse(w).starts, dict_size(b"1", w))
        except Exception as exc:       # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(items[i::6],)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert got == want
    assert_spares_are_empty()


@st.composite
def edit_scripts(draw):
    """A word with long blocks, then edits: (position fraction, inserted piece)."""
    x = draw(st.text(alphabet="01", min_size=1, max_size=40))
    head = draw(st.text(alphabet="01", max_size=30))
    edits = draw(st.lists(st.tuples(st.floats(0, 1), st.text(alphabet="01", max_size=60)),
                          max_size=6))
    return (head + pref(x).to_text()).encode(), edits


@settings(deadline=None, max_examples=150)
@given(edit_scripts())
def test_rollback_and_refeed_property(script):
    word, edits = script
    for mode in PARSERS:
        sp = fed_at_once(word, mode)
        content = bytearray(word)
        with parser_mode(mode):
            for frac, piece in edits:
                pos = int(frac * len(content))
                removed = sp.rollback(pos)
                assert removed == range(sp.position, len(content))
                assert sp.position <= pos
                content[pos:pos] = piece.encode()
                sp.feed(content[sp.position:])
        assert_fed_alike(sp, bytes(content))


def test_word_type():
    w = Word.from_text("0101\n")
    assert w.to_text() == "0101"
    assert len(w) == 4
    assert w[1] == 1 and w[0] == 0
    assert w[1:3] == Word("10")
    with pytest.raises(IndexError):
        w[10]
    with pytest.raises(ParameterError) as exc:
        Word("01012")
    assert "offset 4" in str(exc.value)
    with pytest.raises(AttributeError):
        w.data = b"1"


def test_packed_round_trip():
    from lz78lab import pack_word, unpack_word
    rng = random.Random(5)
    for length in (0, 1, 7, 8, 9, 63, 64, 65, 1000):
        text = "".join(rng.choice("01") for _ in range(length))
        blob = pack_word(text)
        assert blob[:4] == b"LZCW"
        assert unpack_word(blob).to_text() == text


@settings(deadline=None)
@given(words)
def test_packed_round_trip_property(text):
    from lz78lab import pack_word, unpack_word
    assert unpack_word(pack_word(text)).to_text() == text


@st.composite
def packed_blobs(draw):
    """A packed header with arbitrary payload bytes: the declared length is
    mostly one the payload could hold, with its padding bits left random."""
    payload = draw(st.binary(max_size=40))
    fits = st.integers(max(0, 8 * len(payload) - 7), 8 * len(payload))
    n = draw(st.one_of(fits, st.integers(0, 2 ** 64 - 1)))
    return b"LZCW" + n.to_bytes(8, "little") + payload


@settings(deadline=None, max_examples=300)
@given(packed_blobs())
def test_packed_blob_that_decodes_repacks_to_itself(blob):
    from lz78lab import pack_word, unpack_word
    try:
        w = unpack_word(blob)
    except ParameterError:
        return
    assert pack_word(w) == blob


@settings(deadline=None)
@given(words, st.booleans())
def test_word_file_round_trip_property(text, packed):
    import tempfile
    from pathlib import Path

    from lz78lab import read_word_file, write_word_file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w"
        write_word_file(path, text, packed=packed)
        assert read_word_file(path).to_text() == text


def test_packed_rejects_malformed_blobs():
    from lz78lab import pack_word, unpack_word
    truncated = pack_word("1" * 100)[:14]     # declares 100 letters, carries 16
    trailing = pack_word("1" * 10) + b"junk"
    padded = pack_word("1" * 10)
    padded = padded[:-1] + bytes([padded[-1] | 0x80])   # a bit after the 10th letter
    assert padded != pack_word("1" * 10)
    for blob in (truncated, trailing, padded, b"LZCW\x00"):
        with pytest.raises(ParameterError):
            unpack_word(blob)
