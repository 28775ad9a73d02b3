import dataclasses
import sys
import tracemalloc
from array import array
from functools import partial

import numpy as np
import pytest

from lz78lab import (ParameterError, construct_general, construction, derive_params,
                     dict_size, parse, pref, sample_family, tree_stats, verify_toy)
from lz78lab.construction import (GADGET, REGULAR, ConstructedWord, _edge_slices, build_chain,
                                  front_census)
from lz78lab.parsing import StreamParser
from lz78lab import toy
from lz78lab.words import Table
from lz78lab.toy import _toy_gadget, construct_from_base, construct_toy

from conftest import (assert_is_parse_of_0w, assert_segments_tile, forced_base,
                      regular_letters, segment_starts, segment_tags)
from oracles import naive_classify, naive_gadget_loop, naive_parse


def test_gadget_shapes():
    x = b"0110"
    assert _toy_gadget(x, 0, 0) == b"1"
    assert _toy_gadget(x, 0, 3) == b"1000"
    assert _toy_gadget(x, 2, 0) == b"010"      # x[:2] + flipped x[2]
    assert _toy_gadget(x, 2, 2) == b"01011"
    # fixed-offset gadgets form a prefix chain
    for c in range(4):
        assert _toy_gadget(x, 2, c + 1).startswith(_toy_gadget(x, 2, c))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        construct_toy(4)
    with pytest.raises(ParameterError):
        construct_toy(6, gamma=2.5)
    with pytest.raises(ParameterError):
        construct_toy(6, reparse="psychic")


@pytest.mark.parametrize("k", [5, 6, 7])
def test_small_orders_no_gadgets_reconstruct(k):
    cw = construct_toy(k)
    s = (1 << k) + k - 1
    assert cw.chains[0].regular_count == s
    assert len(cw.word) >= s * (s + 1) // 2
    # segment lengths tile the word
    assert sum(seg.length for seg in cw.segments) == len(cw.word)
    # stripping gadgets recovers the prefix concatenation of the base word
    assert regular_letters(cw) == pref(cw.source).data


@pytest.mark.parametrize("k", [5, 6])
def test_verify_small_orders(k):
    cw = construct_toy(k)
    rep = verify_toy(cw)
    assert rep.green_units_ok
    assert rep.upper_bound_ok
    assert rep.violations_ok
    assert rep.dic_w == rep.s + rep.gadget_count
    assert rep.dic_aw > rep.dic_w


def test_size_bounds():
    cw = construct_toy(6)
    s = cw.chains[0].regular_count
    n = len(cw.word)
    gadget_len = sum(seg.length for seg in cw.segments if seg.kind == GADGET)
    assert n == s * (s + 1) // 2 + gadget_len
    # worst case: s/2 gadgets of size gamma*k+1+c
    cap = s * (s + 1) // 2 + sum(cw.meta["window"] + 1 + c for c in range(s // 2))
    assert n <= cap


def test_no_trigger_outputs_plain_prefix_word():
    cw = construct_toy(6)
    if cw.chains[0].chosen_i is None:
        assert cw.word == pref(cw.source)
        assert all(seg.kind == REGULAR for seg in cw.segments)
        stats = tree_stats(parse(cw.word.data))
        assert stats.max_depth == cw.chains[0].regular_count
        assert stats.vertex_count == cw.chains[0].regular_count + 1


def test_forced_loop_checkpoint_equals_scratch():
    x = forced_base(90, 2)
    a = construct_from_base(x, 6, 3.0)
    b = construct_from_base(x, 6, 3.0, scratch=True)
    assert a.word == b.word
    assert a.segments == b.segments
    assert a.chains == b.chains
    assert a.chains[0].chosen_i == 0
    assert a.chains[0].gadget_count > 0


def test_segment_starts_tile_a_word_with_gadgets():
    cw = construct_from_base(forced_base(90, 2), 6, 3.0)
    assert cw.chains[0].gadget_count > 0
    assert_segments_tile(cw)


def test_forced_loop_invariants():
    x = forced_base(120, 7)
    cw = construct_from_base(x, 7, 3.0)
    s = len(x)
    assert cw.chains[0].chosen_i == 0
    assert regular_letters(cw) == pref(x).data
    # every gadget sits immediately before a regular block in the second half
    tags = segment_tags(cw.segments, cw.chains)
    for at, seg in enumerate(cw.segments):
        if seg.kind == GADGET:
            nxt = cw.segments[at + 1]
            assert nxt.kind == REGULAR
            assert tags[at + 1] >= s // 2
    # at most one gadget per regular block
    for prev, cur in zip(cw.segments, cw.segments[1:]):
        assert not (prev.kind == GADGET and cur.kind == GADGET)
    # termination bookkeeping: insertions stayed below the guard
    assert cw.chains[0].gadget_count <= s


@pytest.mark.parametrize("length,seed,k", [(90, 2, 6), (120, 7, 7), (70, 3, 6),
                                           (200, 11, 7)])
def test_initial_census_matches_interval_oracle(length, seed, k):
    x = forced_base(length, seed)
    cw = construct_from_base(x, k, 3.0)
    text = pref(x).to_text()
    violated = {}
    for cls in naive_classify(naive_parse(text), naive_parse("0" + text)):
        if cls[0] == "offset" and cls[1] <= cw.meta["window"]:
            violated.setdefault(cls[1], set()).add(cls[2])
    assert cw.chains[0].initial_violations == {i: len(g) for i, g in violated.items()}


def test_forced_loop_reports_unit_breakdown_honestly():
    # a base word starting with 1 is outside the construction's contract:
    # its offset-0 gadget "1" collides with the first regular block, so the
    # plain parsing no longer follows the intended units and the verifier
    # must say so rather than report a clean run
    x = forced_base(90, 2)
    rep = verify_toy(construct_from_base(x, 6, 3.0))
    assert not rep.green_units_ok
    assert rep.violations == {}


@pytest.mark.parametrize("length,seed,k", [(90, 2, 6), (200, 11, 7), (60, 5, 6),
                                           (150, 9, 7)])
def test_front_census_counts_regular_segments_only(length, seed, k):
    # on these bases some red blocks of 0w lie inside a gadget, and the
    # census must leave them out
    cw = construct_from_base(forced_base(length, seed), k, 3.0)
    text = cw.word.to_text()
    bounds = segment_starts(cw.segments) + [len(text)]
    segment_words = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    violated, in_gadget = {}, 0
    for cls in naive_classify(segment_words, naive_parse("0" + text)):
        if cls[0] != "offset":
            continue
        if cw.segments[cls[2]].kind == REGULAR:
            violated.setdefault(cls[1], set()).add(cls[2])
        else:
            in_gadget += 1
    assert in_gadget > 0
    _, counts, _ = front_census(cw, parse(cw.word.data), parse(b"0" + cw.word.data).starts)
    assert counts[0] == {i: len(g) for i, g in violated.items()}


def test_edge_slices_cover_every_block_once(monkeypatch):
    monkeypatch.setattr(construction, "CENSUS_SLICE", 3)
    for n in range(10):
        starts = list(range(0, 10 * n, 10))
        for firsts, end in ((starts, 10 * n), (starts + [10 * n], 10 * n + 4)):
            for given in (firsts, memoryview(array("q", firsts))):
                slices = list(_edge_slices(given, end))
                assert slices and all(len(edges) <= 4 for edges in slices)
                assert all(a[-1] == b[0] for a, b in zip(slices, slices[1:]))
                edges = [int(e) for edges in slices for e in edges[1:]]
                assert [int(slices[0][0])] + edges == firsts + [end]


@pytest.mark.parametrize("census_slice", [1, 2, 7])
def test_censuses_add_up_over_slices_of_blocks(monkeypatch, census_slice):
    # the gadget loop's census and front_census place the red blocks a slice
    # at a time: with slices of a few blocks, the counts added up over the
    # slices are those of one slice, for the checkpoint and scratch loops,
    # chaos gadgets and red blocks inside gadgets included, and so are both
    # fronts' reports, the parse of 1w fed in two pieces included
    def builds():
        for length, seed, k in ((90, 2, 6), (200, 11, 7), (150, 9, 7)):
            for scratch in (False, True):
                yield construct_from_base(forced_base(length, seed), k, 3.0, scratch)
        for seed in range(4):
            parser, table = StreamParser(), Table(b"0")
            record = build_chain(parser, table, 0, forced_base(70, seed), 0,
                                 window=12, gadgets=_chaos_gadgets(seed),
                                 include_tail=True)
            yield table[:], record

    def censuses(built):
        return [(front_census(cw, parse(cw.word), parse(front + cw.word.data).starts),
                 verify_toy(cw, front))
                for cw in built if isinstance(cw, ConstructedWord)
                for front in (b"0", b"1")]

    want = list(builds())
    assert sum(cw.chains[0].gadget_count for cw in want[:6]) > 0
    want_censuses = censuses(want)
    monkeypatch.setattr(construction, "CENSUS_SLICE", census_slice)
    got = list(builds())
    for a, b in zip(got, want):
        if isinstance(a, ConstructedWord):
            assert (a.word, a.segments, a.chains) == (b.word, b.segments, b.chains)
            assert_is_parse_of_0w(a.red, b.word.data)
        else:
            assert a == b
    assert censuses(got) == want_censuses


def test_front_census_scratch_does_not_grow_with_the_blocks(toy12):
    # front_census places the red blocks CENSUS_SLICE at a time into one
    # (chain, offset) tally as wide as the longest regular segment, so its
    # scratch is sized by a slice and by the segments: about 1.4 MB for the
    # 208,682 red blocks of the k = 12 toy word, and 0.5 MB for a general
    # word whose 130,452-letter padding is far longer than its regulars
    # (n = 2^18, l = 2^8, 4 chains).  Placing the blocks all at once took 52
    # bytes a block, 10.9 MB, and a tally as wide as the padding 4.5 MB
    toy = toy12["cw"]
    assert toy.red.block_count > 12 * construction.CENSUS_SLICE
    params = derive_params(1 << 18, 256)
    general = construct_general(sample_family(params, seed=0))
    assert len(general.chains) == 4 and general.segments[-1].length == 130452
    for cw in (toy, general):
        green = parse(cw.word)
        tracemalloc.start()
        try:
            units_ok, counts, _ = front_census(cw, green, cw.red.starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert units_ok and counts[0]
        assert peak < 2 * 2 ** 20, f"{peak / 2 ** 20:.2f} MB"


def test_one_front_variant_never_builds_1w(toy12):
    # the front 1 and the word are fed to one parser in turn, so no copy of
    # the letters is made: a joined copy of 1w took 1.12 bytes a letter
    cw = toy12["cw"]
    tracemalloc.start()
    try:
        report = verify_toy(cw, "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.dic_aw == parse(b"1" + cw.word.data).dict_size
    assert peak < 0.5 * len(cw.word), f"{peak / len(cw.word):.2f} bytes a letter"


def test_catastrophe_memory_is_bounded_by_the_dictionary():
    """construct_toy(12), verify_toy and dict_size of 1w, the work of
    catastrophe --k 12, traced: no copy of the 8,435,778 letters of w is made,
    so the peak is the parse of 0w (208,682 blocks) and what its arrays hold
    while they double, 8.0 MB, 0.95 bytes a letter.  The tape and its copy
    handed over as red.data, or the word joined again, held at least 2 bytes
    a letter, 2.67 in all."""
    tracemalloc.start()
    try:
        cw = construct_toy(12)
        report = verify_toy(cw)
        dic_1w = dict_size(cw.letters(b"1"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.n, report.dic_aw, dic_1w) == (8_435_778, 208_682, 4_108)
    assert peak < 1.2 * report.n, f"{peak / report.n:.2f} bytes a letter"


def _chaos_gadgets(seed):
    """``build_chain``'s ``gadgets`` for deterministic but structure-free
    gadgets, whatever the offset: exercises the insertion loop under content
    with no helpful parsing properties at all."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC4A05])))

    def make(c):
        length = 1 + int(rng.integers(1, 8)) + c % 5
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        return (bits + ord("0")).tobytes()

    return lambda i0: make


def test_insertion_loop_checkpoint_equals_scratch_under_chaos():
    # the rollback path must match full re-parsing no matter what bytes the
    # gadgets hold; chaos gadgets also force plenty of failed insertions.
    # A checkpoint pass feeds only as far as its next target, so a rollback
    # from short of the chain's end shows a pass that stopped early
    from lz78lab.construction import build_chain
    from lz78lab.parsing import StreamParser

    class RecordingParser(StreamParser):
        __slots__ = ("rollback_from",)

        def rollback(self, pos):
            self.rollback_from.append(self.position)
            return super().rollback(pos)

    early = rollbacks = 0
    for seed in range(12):
        x = forced_base(70, seed)
        results = []
        for scratch in (True, False):     # checkpoint last: read below
            parser, table = RecordingParser(), Table(b"0")
            parser.rollback_from = []
            segments = table.segments
            record = build_chain(parser, table, 0, x, 0, window=12,
                                 gadgets=_chaos_gadgets(seed), include_tail=True,
                                 scratch=scratch)
            assert parser.position == len(table)
            results.append((table[:], list(segments), record))
        assert results[0] == results[1], f"seed {seed}"
        # before gadget j went in, the chain ended short of its final end by
        # the gadgets j, j + 1, ... inserted from then on
        # gadget c is the chain's c-th in word order: its length is that of make(c)
        gadgets = [seg for seg in segments if seg.kind == GADGET]
        make = _chaos_gadgets(seed)(None)
        assert [seg.length for seg in gadgets] == [len(make(c)) for c in range(len(gadgets))]
        assert len(parser.rollback_from) == len(gadgets)
        for j, fed in enumerate(parser.rollback_from):
            chain_end = len(table) - sum(seg.length for seg in gadgets[j:])
            assert fed <= chain_end
            early += fed < chain_end
        rollbacks += len(gadgets)
    assert early > 0, f"none of {rollbacks} passes stopped before the chain's end"


@pytest.mark.parametrize("scratch", [False, True])
def test_gadgets_are_asked_once_per_hot_chain_on_its_whole_feed(scratch):
    # build_chain asks for a chain's gadgets right after the census picks the
    # hot offset: the whole chain fed and no rollback yet
    from lz78lab.construction import build_chain
    from lz78lab.parsing import StreamParser

    class CountingParser(StreamParser):
        __slots__ = ("rollbacks",)

        def rollback(self, pos):
            self.rollbacks += 1
            return super().rollback(pos)

    asked_chains = 0
    for seed in range(12):
        x = forced_base(70, seed)
        fed = b"0" + b"".join(x.data[:t] for t in range(1, len(x) + 1))
        for gadgets in (_chaos_gadgets(seed), lambda i: partial(_toy_gadget, x.data, i)):
            parser, table = CountingParser(), Table(b"0")
            parser.rollbacks = 0
            calls = []

            def asked(i0):
                whole = table[:] == fed and parser.position == len(fed)
                calls.append((i0, whole, parser.rollbacks))
                return gadgets(i0)

            record = build_chain(parser, table, 0, x, 0, window=12, gadgets=asked,
                                 include_tail=True, scratch=scratch)
            want = [] if record.chosen_i is None else [(record.chosen_i, True, 0)]
            assert calls == want, f"seed {seed}"
            assert bool(calls) == (record.gadget_count > 0)
            asked_chains += bool(calls)
    assert asked_chains >= 12


@pytest.mark.parametrize("scratch", [False, True])
def test_build_chain_lays_its_chain_out_once(mode, scratch):
    # the chain is laid out from the table's bounds before its first gadget;
    # each insertion shifts the regulars from its target on, so no gadget
    # reads the table's positions again
    reads = []

    class CountingTable(Table):
        __slots__ = ()

        @property
        def bounds(self):
            # the table's own methods read its bounds too; count build_chain's
            reads.append(sys._getframe(1).f_code.co_name)
            return Table.bounds.__get__(self)

        @bounds.setter
        def bounds(self, value):
            Table.bounds.__set__(self, value)

    gadgets = 0
    for length, seed in [(90, 2), (120, 7), (70, 3), (200, 11)]:
        x = forced_base(length, seed)
        parser, table = StreamParser(), CountingTable(b"0")
        reads.clear()
        record = build_chain(parser, table, 0, x, 0, window=12,
                             gadgets=lambda i: partial(_toy_gadget, x.data, i),
                             include_tail=True, scratch=scratch)
        assert record.gadget_count > 1 and reads.count("build_chain") == 1, (length, seed)
        assert list(table.bounds) == list(Table(b"0", table.segments).bounds)
        gadgets += record.gadget_count
    assert gadgets > 8


def _oracle_segments(data: bytes, segments, chains) -> list:
    out, pos = [], 0
    for seg, tag in zip(segments, segment_tags(segments, chains)):
        out.append((seg.kind, data[pos:pos + seg.length].decode(), tag))
        pos += seg.length
    return out


@pytest.mark.parametrize("length,seed,k", [(90, 2, 6), (120, 7, 7), (70, 3, 6),
                                           (200, 11, 7), (60, 5, 6), (150, 9, 7)])
def test_forced_loop_matches_naive_gadget_loop(length, seed, k):
    x = forced_base(length, seed)
    cw = construct_from_base(x, k, 3.0)
    segments, i0, count, d = naive_gadget_loop(
        x.to_text(), "0", cw.meta["window"], lambda i, c: _toy_gadget(x.data, i, c).decode())
    assert _oracle_segments(cw.word.data, cw.segments, cw.chains) == segments
    chain = cw.chains[0]
    assert (chain.chosen_i, chain.gadget_count, chain.final_d) == (i0, count, d)


def test_chaos_loop_matches_naive_gadget_loop():
    from lz78lab.construction import build_chain
    from lz78lab.parsing import StreamParser

    for seed in range(12):
        x = forced_base(70, seed)
        parser, table = StreamParser(), Table(b"0")
        record = build_chain(parser, table, 0, x, 0, window=12,
                             gadgets=_chaos_gadgets(seed), include_tail=True)
        chaos = _chaos_gadgets(seed)(None)
        expected = naive_gadget_loop(x.to_text(), "0", 12,
                                     lambda i, c: chaos(c).decode())
        got = (_oracle_segments(table[1:], table.segments, [record]), record.chosen_i,
               record.gadget_count, record.final_d)
        assert got == expected, f"seed {seed}"


def test_one_front_variant_same_letter_is_verify():
    cw = construct_toy(5)
    assert verify_toy(cw, "0") == verify_toy(cw)
    other = verify_toy(cw, "1")
    assert other.front == "1"
    # prepending the other letter to a plain prefix word stays compressible
    if cw.chains[0].chosen_i is None:
        assert other.dic_aw <= 3 * (cw.chains[0].regular_count + 1)


@pytest.mark.parametrize("length,seed,k", [(90, 2, 6), (60, 5, 6)])
def test_one_front_variant_censuses_every_block_of_1w(monkeypatch, length, seed, k):
    # 1w of these bases ends in a trailing duplicate, which the parser holds
    # as its in-progress block: the census must read it too
    cw = construct_from_base(forced_base(length, seed), k, 3.0)
    want = parse(b"1" + cw.word.data)
    assert want.last_is_duplicate
    censused = []

    def spy(cw, green, red_starts):
        censused.append(list(red_starts))
        return front_census(cw, green, red_starts)

    monkeypatch.setattr(toy, "front_census", spy)
    assert verify_toy(cw, "1").dic_aw == want.dict_size
    assert censused == [list(want.starts)]


def test_one_front_variant_rejects_words():
    with pytest.raises(ParameterError):
        verify_toy(construct_toy(5), "01")


@pytest.mark.parametrize("k", [5, 6, 7, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("a", ["0", "1"])
def test_toy_census_matches_interval_oracle(k, seed, a):
    cw = construct_toy(k, seed=seed)
    rep = verify_toy(cw, a)
    assert rep.green_units_ok
    text = cw.word.to_text()
    violated = {}
    for cls in naive_classify(naive_parse(text), naive_parse(a + text)):
        if (cls[0] == "offset" and cls[1] <= cw.meta["window"]
                and cw.segments[cls[2]].kind == REGULAR):
            violated.setdefault(cls[1], set()).add(cls[2])
    assert rep.violations == {i: len(g) for i, g in violated.items()}


@pytest.mark.parametrize("scratch", [False, True])
@pytest.mark.parametrize("length,seed,k", [(90, 2, 6), (120, 7, 7), (70, 3, 6),
                                           (200, 11, 7)])
def test_forced_loop_hands_over_the_parse_of_0w(length, seed, k, scratch):
    cw = construct_from_base(forced_base(length, seed), k, 3.0, scratch=scratch)
    assert cw.chains[0].gadget_count > 0
    assert_is_parse_of_0w(cw.red, cw.word.data)


@pytest.mark.parametrize("length,seed,k", [(90, 2, 6), (120, 7, 7), (70, 3, 6),
                                           (200, 11, 7), (60, 5, 6), (150, 9, 7)])
def test_scratch_passes_reparse_the_whole_tape(monkeypatch, length, seed, k):
    # the oracle does no lazy feeding: after the first pass, which feeds the
    # front letter and the chain, each gadget is followed by one pass over the
    # whole segment table from position 0, longer than the last by that
    # gadget.  A pass is a run of feeds, a slice each, each from where the
    # last one stopped: (its start, the letters it fed, the table's length)
    feed, build = StreamParser.feed, toy.build_chain
    feeds, tables = [], []

    def recording_feed(self, data):
        if tables:
            if feeds and sum(feeds[-1][:2]) == self.position:
                feeds[-1][1] += len(data)
            else:
                feeds.append([self.position, len(data), len(tables[0])])
        return feed(self, data)

    def recording_build(parser, table, *args, **kwargs):
        tables.append(table)
        record = build(parser, table, *args, **kwargs)
        tables.clear()
        return record

    monkeypatch.setattr(StreamParser, "feed", recording_feed)
    monkeypatch.setattr(toy, "build_chain", recording_build)
    x = forced_base(length, seed)
    cw = construct_from_base(x, k, 3.0, scratch=True)
    count = cw.chains[0].gadget_count
    # gadget c is the chain's c-th in word order, and at offset i0 it has
    # i0 + 1 + c letters
    gadgets = [seg for seg in cw.segments if seg.kind == GADGET]
    assert count > 0 and len(gadgets) == count
    i0 = cw.chains[0].chosen_i
    assert [seg.length for seg in gadgets] == [i0 + 1 + c for c in range(count)]
    chain = len(x) * (len(x) + 1) // 2
    whole = [1 + chain + sum(seg.length for seg in gadgets[:j]) for j in range(1, count + 1)]
    assert feeds == [[0, 1 + chain, 1 + chain]] + [[0, n, n] for n in whole]


@pytest.mark.parametrize("reparse", ["checkpoint", "scratch"])
def test_construct_toy_hands_over_the_parse_of_0w(reparse):
    for k in (5, 8):
        cw = construct_toy(k, reparse=reparse)
        assert_is_parse_of_0w(cw.red, cw.word.data)


@pytest.mark.parametrize("scratch", [False, True])
def test_chaos_loop_hands_over_the_parse_of_0w(scratch):
    from lz78lab.construction import build_chain
    from lz78lab.parsing import StreamParser

    for seed in range(12):
        parser, table = StreamParser(), Table(b"0")
        build_chain(parser, table, 0, forced_base(70, seed), 0, window=12,
                    gadgets=_chaos_gadgets(seed), include_tail=True, scratch=scratch)
        red = parser.finish(table)
        assert red.data is table
        assert_is_parse_of_0w(red, table[1:])


def test_verify_toy_certifies_without_consuming_the_parse():
    cw = construct_from_base(forced_base(120, 7), 7, 3.0)
    red = cw.red
    starts, preds = list(red.starts), list(red.preds)
    assert verify_toy(cw) == verify_toy(cw)
    assert cw.red is red
    assert (list(red.starts), list(red.preds)) == (starts, preds)


def flip_first(letters: bytes) -> bytes:
    return (b"1" if letters[:1] == b"0" else b"0") + letters[1:]


def test_verify_toy_rejects_a_tampered_parse_of_0w():
    from lz78lab import ConstructionError
    cw = construct_toy(7)
    good, report = cw.red, verify_toy(cw)
    starts = list(good.starts)
    starts[len(starts) // 2] += 1
    preds = list(good.preds)
    preds[-1] = len(preds) - 1
    other = parse(b"0" + cw.word.data[::-1])
    for bad in (good._replace(starts=starts),
                good._replace(preds=preds),
                good._replace(last_is_duplicate=not good.last_is_duplicate),
                other):
        cw.red = bad
        with pytest.raises(ConstructionError):
            verify_toy(cw)
        # the front 1 is parsed afresh, whatever the construction handed over
        assert verify_toy(cw, "1").dic_aw == parse(b"1" + cw.word.data).dict_size
    cw.red = good
    assert verify_toy(cw) == report
    # red holds no letters: certify reads 0w through the segments, so a
    # segment whose letters differ from those red was parsed over is caught
    segments = list(cw.segments)
    mid = segments[len(segments) // 2]
    segments[len(segments) // 2] = mid._replace(source=flip_first(mid.source[:mid.length]))
    # a new table, or new segments over the same front, as the benchmark's check tampers
    for bad in (dataclasses.replace(cw, table=Table(b"0", segments)),
                dataclasses.replace(cw, segments=segments)):
        assert bad.table == Table(b"0", segments) and bad.red is cw.red
        with pytest.raises(ConstructionError):
            verify_toy(bad)
