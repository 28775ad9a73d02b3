import dataclasses
import math
import random

import pytest

from lz78lab import (ConstructionError, ParameterError, SamplingError, Word,
                     check_p1, check_p2, construct_general, derive_params,
                     parse, sample_family, save_family, verify_general)
from lz78lab import construction
from lz78lab.construction import GADGET, PADDING, REGULAR, front_census
import lz78lab.general as general_mod
from lz78lab.infinite import build_prefix
from lz78lab import parsing
from lz78lab.parsing import StreamParser
from lz78lab.words import Table

from conftest import (assert_is_parse_of_0w, assert_segments_tile, regular_letters,
                      segment_starts, segment_tags)
from oracles import naive_classify, naive_parse, naive_resync_word


def test_derive_params_at_the_square_root_boundary():
    p = derive_params(1 << 20, 1 << 10, gamma=10.0)
    assert p.p == 0.0
    assert p.k == 5.0
    assert p.m == 100.0
    assert p.family_count == 1


def test_derive_params_mid_range():
    p = derive_params(1 << 24, 1 << 9, gamma=10.0)
    assert p.p == 6.0
    assert p.k == 4.5
    assert p.m == 90.0
    assert p.family_count == 64
    assert not p.in_theorem_range  # desk-scale n sits below the asymptotic window


def test_derive_params_errors():
    with pytest.raises(ParameterError):
        derive_params(1 << 20, 1 << 11)     # l > sqrt(n)
    with pytest.raises(ParameterError):
        derive_params(1 << 20, 8)           # too small for the gadget shapes
    with pytest.raises(ParameterError):
        derive_params(1 << 20, 1 << 9, gamma=0)


def test_derive_params_rejects_m_too_small_for_p2():
    # P2 needs family_count * (l - m_int + 1) distinct m-grams out of 2^m_int
    p = derive_params(1 << 14, 64, gamma=1.34)
    assert (p.m_int, p.family_count * (64 - p.m_int + 1)) == (8, 228)
    with pytest.raises(ParameterError, match="P2"):
        derive_params(1 << 14, 64, gamma=1.25)    # m_int 7: 232 > 128


def test_derive_params_exact_rounds_n_down():
    p = derive_params((1 << 20) + 12345, 1 << 9, gamma=10.0, exact=True)
    assert p.n == 1 << 20
    assert p.p == 2.0


def test_check_p1_planted_counterexample():
    l, k = 512, 4.5
    assert not check_p1(b"0" * l, k, l)          # occ("00") = l-1 > k*l/4
    # alternating word, k=2: occ("01") = l/2 equals the bound k*l/4 exactly
    assert check_p1(b"01" * (l // 2), 2.0, l)
    # a heavier skew fails already at depth 1: occ("0") = 3l/4 > k*l/2 for k=1
    assert not check_p1(b"0001" * (l // 4), 1.0, l)


def test_check_p1_length_mismatch():
    with pytest.raises(ParameterError):
        check_p1(b"0101", 2.0, 8)


def test_check_p2_duplicate_words_fail():
    w = Word("0110100110010110")
    assert not check_p2([w, w], 4)
    assert check_p2([Word("00011"), Word("11100")], 3)
    assert not check_p2([Word("010101")], 2)  # repeated factor inside one word
    assert not check_p2([Word("00000")], 3)   # repeated factor at several positions


def test_sample_family_deterministic():
    params = derive_params(1 << 14, 64, gamma=10.0)
    fam1 = sample_family(params, seed=1)
    fam2 = sample_family(params, seed=1)
    assert [w.data for w in fam1.words] == [w.data for w in fam2.words]
    assert fam1.retries == fam2.retries
    assert fam1.words[0].data[0] == ord("1")
    assert len(fam1.words) == params.family_count
    # accepted families satisfy the properties by construction; re-check
    assert all(check_p1(w, params.k, params.l) for w in fam1.words)
    assert check_p2(fam1.words, params.m_int)


def test_sample_family_retry_cap(monkeypatch):
    params = derive_params(1 << 14, 64, gamma=10.0)
    monkeypatch.setattr(general_mod, "check_p1", lambda *a, **k: False)
    with pytest.raises(SamplingError) as exc:
        sample_family(params, seed=1)
    assert "fails P1" in exc.value.diagnostics["last_failure"]


@pytest.fixture(scope="module")
def small_build():
    params = derive_params(1 << 14, 64, gamma=10.0)
    family = sample_family(params, seed=1)
    cw = construct_general(family)
    return params, family, cw


def test_construct_exact_length_and_padding(small_build):
    params, family, cw = small_build
    assert len(cw.word) == params.n
    assert cw.segments[-1].kind == PADDING
    pad = cw.segments[-1].length
    assert cw.word.data[-pad:] == b"0" * pad
    assert cw.meta["w_prime"] + pad == params.n


def test_segment_starts_tile_the_padded_word(small_build):
    assert_segments_tile(small_build[2])


def test_front_census_unit_check(small_build):
    # one green block per unit segment, then further blocks only from the
    # padding's start on
    params, family, cw = small_build
    green, red = parse(cw.word.data), cw.certified_red()
    *units, pad_start = segment_starts(cw.segments)
    assert cw.segments[-1].kind == PADDING and cw.segments[-1].length > 1

    def units_ok(starts):
        return front_census(cw, green._replace(starts=starts), red.starts)[0]

    assert units_ok(green.starts)
    assert units_ok(units)
    assert units_ok(units + [pad_start, pad_start + 1])
    assert not units_ok(units[:-1])                    # fewer blocks than units
    assert not units_ok(units + [pad_start + 1])       # starts inside the padding
    assert not units_ok(units[:-1] + [units[-1] + 1, pad_start])


def test_construct_prepad_length_floor(small_build):
    # chains alone cover at least (n/l^2) * (l-m+1)(l+m)/2 letters, i.e.
    # about half the target even before gadgets
    params, family, cw = small_build
    m, l = params.m_int, params.l
    floor = params.n / l ** 2 * (l - m + 1) * (l + m) / 2
    assert cw.meta["w_prime"] >= floor


def test_construct_strips_to_chained_prefixes(small_build):
    params, family, cw = small_build
    expected = b"".join(chain.source.data[:i] for chain in cw.chains
                        for i in range(chain.q + 1, len(chain.source) + 1))
    assert regular_letters(cw) == expected


def test_chain_synchronization(small_build):
    params = derive_params(1 << 16, 64)
    seed3 = construct_general(sample_family(params, seed=3))
    # chains 1 and 5 start past x[0..1] and x[0..6]: the shorter prefixes are
    # chain 0's offset-0 gadget words, not prefixes of chain 0's word
    assert [seed3.chains[j].q for j in (1, 5)] == [2, 7]
    gadgets = {seed3.word.data[s:s + seg.length]
               for s, seg in zip(segment_starts(seed3.segments), seed3.segments)
               if seg.kind == GADGET and seg.chain == 0}
    for j in (1, 5):
        x = seed3.chains[j].source.data
        assert {x[:t + 1] for t in range(seed3.chains[j].q)} <= gadgets
    for cw in (small_build[2], seed3):
        green = parse(cw.word.data)
        starts = segment_starts(cw.segments)
        # every unit segment is one green block
        units = [s for s, seg in zip(starts, cw.segments) if seg.kind != PADDING]
        assert green.starts[:len(units)] == units
        # the first green block of each chain is x^j[0..q]
        for chain in cw.chains:
            gi = units.index(chain.start)
            assert green.block_bytes(gi) == chain.source.data[:chain.q + 1]


def test_first_chain_resync_word_is_zero(small_build):
    params, family, cw = small_build
    first = cw.chains[0]
    if first.gadget_count and first.chosen_i == 0:
        assert first.resync_word == b"0"


def test_gadget_placement(small_build):
    params, family, cw = small_build
    tags = segment_tags(cw.segments, cw.chains)
    for at, seg in enumerate(cw.segments):
        if seg.kind != GADGET:
            continue
        nxt = cw.segments[at + 1]
        assert nxt.kind == REGULAR
        chain = cw.chains[nxt.chain]
        # gadgets go in front of blocks past the half of the chain
        assert tags[at + 1] > chain.regular_count // 2 - 1


def test_verify_general_flags(small_build):
    params, family, cw = small_build
    rep = verify_general(cw)
    assert rep.sync_ok
    assert rep.upper_bound_ok
    assert rep.pair_trade_off_ok
    assert rep.violation_caps_ok
    assert rep.dic_aw > rep.dic_w
    assert rep.catastrophe_factor == rep.dic_aw / rep.dic_w
    assert len(rep.per_chain_red_blocks) == len(cw.chains)


def test_verify_general_per_chain_checks_fail_on_the_counts(monkeypatch, small_build):
    # the two checks per chain j as the theorem states them: no offset i up to
    # the window holds more violations than the cap, and no two offsets hold
    # more than s_j between them; chain 0's counts are set by hand
    params, family, cw = small_build
    cap = params.l / 2 + 2 * params.m + 1 + 2 * params.k * math.sqrt(params.l)
    s0 = cw.chains[0].regular_count
    census = general_mod.front_census

    def flags(chain0):
        def patched(*args):
            units_ok, counts, chain_red = census(*args)
            return units_ok, {**counts, 0: chain0}, chain_red

        monkeypatch.setattr(general_mod, "front_census", patched)
        rep = verify_general(cw)
        return rep.violation_caps_ok, rep.pair_trade_off_ok

    over = math.floor(cap) + 1
    assert flags({params.window: over})[0] is False
    assert flags({params.window + 1: over})[0] is True
    half = s0 // 2
    assert flags({0: 1, 3: half, 7: s0 + 1 - half}) == (True, False)
    assert flags({0: 1, 3: half, 7: s0 - half}) == (True, True)
    assert flags({5: s0}) == (True, True)


@pytest.mark.parametrize("reparse", ["checkpoint", "scratch"])
def test_construct_general_hands_over_the_parse_of_0w(small_build, reparse):
    _, family, cw = small_build
    if reparse == "scratch":
        cw = construct_general(family, reparse=reparse)
    assert sum(c.gadget_count for c in cw.chains) > 0
    assert_is_parse_of_0w(cw.red, cw.word.data)


def test_verify_general_rejects_a_tampered_parse_of_0w(small_build):
    params, family, cw = small_build
    good = cw.red
    report = verify_general(cw)
    assert verify_general(cw) == report
    assert cw.red is good
    starts = list(good.starts)
    starts[len(starts) // 3] -= 1
    preds = list(good.preds)
    preds[len(preds) // 2] = -1
    try:
        for bad in (good._replace(starts=starts),
                    good._replace(preds=preds)):
            cw.red = bad
            with pytest.raises(ConstructionError):
                verify_general(cw)
    finally:
        cw.red = good
    assert verify_general(cw) == report
    # red holds no letters: certify reads 0w through the segments, so a word
    # whose last letter differs from the one red was parsed over is caught
    pad = cw.segments[-1]
    assert pad.kind == PADDING
    bad = dataclasses.replace(cw, table=Table(b"0", cw.segments[:-1] + [
        pad._replace(source=b"0" * (pad.length - 1) + b"1")]))
    with pytest.raises(ConstructionError):
        verify_general(bad)


def test_per_chain_violations_match_interval_oracle(small_build):
    params, family, cw = small_build
    assert sum(c.gadget_count for c in cw.chains) > 0
    text = cw.word.to_text()
    bounds = segment_starts(cw.segments) + [len(text)]
    segment_words = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    red_blocks = naive_parse("0" + text)
    violated = {c.index: {} for c in cw.chains}
    for cls in naive_classify(segment_words, red_blocks):
        if cls[0] != "offset":
            continue
        seg = cw.segments[cls[2]]
        if seg.kind == REGULAR:
            violated[seg.chain].setdefault(cls[1], set()).add(cls[2])
    red_per_chain = {c.index: 0 for c in cw.chains}
    lo = -1                     # first letter of each red block, in w
    for block in red_blocks:
        for c in cw.chains:
            if c.start <= lo < c.start + c.length:
                red_per_chain[c.index] += 1
        lo += len(block)
    _, counts, chain_red = front_census(cw, parse(cw.word.data),
                                        parse(b"0" + cw.word.data).starts)
    assert counts == {c: {i: len(g) for i, g in per.items()}
                      for c, per in violated.items()}
    assert chain_red == red_per_chain


def _assert_same_build(cw, other):
    assert other.word == cw.word
    assert other.segments == cw.segments
    # whole records: resync_word, initial_violations, chosen_i, final_d,
    # start and length included
    assert other.chains == cw.chains
    assert other.red == cw.red


def test_scratch_oracle_matches_checkpoint(small_build):
    _, family, cw = small_build
    _assert_same_build(cw, construct_general(family, reparse="scratch"))


def test_scratch_oracle_matches_checkpoint_multi_chain():
    # each chain after the first starts behind a fully fed previous chain
    params = derive_params(1 << 18, 256)
    family = sample_family(params, seed=0)
    cw = construct_general(family)
    assert len(cw.chains) == 4
    assert sum(c.gadget_count for c in cw.chains) == 16
    _assert_same_build(cw, construct_general(family, reparse="scratch"))


def test_scratch_oracle_matches_checkpoint_on_later_offset_0_chains():
    # chains after the first resolve their resynchronization word u from the
    # blocks of the earlier chains as well as their own
    params = derive_params(1 << 16, 64)
    family = sample_family(params, seed=0)
    cw = construct_general(family)
    assert [(c.chosen_i, c.resync_word) for c in cw.chains[8:10]] == [
        (0, b"110"), (0, b"0001")]
    _assert_same_build(cw, construct_general(family, reparse="scratch"))


def test_censuses_add_up_over_slices_spanning_chains(monkeypatch):
    # with census slices of a few red blocks, slices end inside chains and
    # gadgets and span chain bounds; the builds and the per-chain counts
    # added up over them are those of one slice
    params = derive_params(1 << 16, 64)
    family = sample_family(params, seed=0)
    want = construct_general(family)
    want_census = front_census(want, parse(want.word), want.red.starts)
    assert len(want.chains) > 8 and sum(c.gadget_count for c in want.chains) > 0
    monkeypatch.setattr(construction, "CENSUS_SLICE", 5)
    got = construct_general(family)
    _assert_same_build(want, got)
    assert front_census(got, parse(got.word), got.red.starts) == want_census
    assert verify_general(got) == verify_general(want)


@pytest.fixture
def resolved(monkeypatch):
    """Each offset-0 resolve of the builds a test runs, checked against
    :func:`naive_resync_word` on the parser as the resolver saw it: a list
    of (chain, resolved word, oracle word, parser mode)."""
    seen, tables = [], []
    resolve, build = general_mod._resync_word, general_mod.build_chain

    def building(parser, table, *args, **kw):
        tables.append(table)           # the oracle reads the blocks off it
        return build(parser, table, *args, **kw)

    def checked(parser, green_words, x, m_int, h_red, chain_index):
        word = resolve(parser, green_words, x, m_int, h_red, chain_index)
        table = tables[-1]
        # the oracle's blocks come from the starts and the segment table,
        # never the trie
        starts = list(parser.starts)
        ends = starts[1:] + [parser.block_start]
        blocks = [table[a:b] for a, b in zip(starts, ends)]
        seen.append((chain_index, word, naive_resync_word(
            blocks, ends, green_words, x, m_int, h_red),
                     "python" if parsing._KERNEL is None else "kernel"))
        return word

    monkeypatch.setattr(general_mod, "build_chain", building)
    monkeypatch.setattr(general_mod, "_resync_word", checked)
    return seen


def test_resync_word_matches_the_oracle_on_every_offset_0_chain(mode, resolved):
    # later chains resolve 3- and 4-letter words among ~10^5 earlier blocks
    build_prefix(256, 0.1, 4_000_000, 0)
    params = derive_params(1 << 16, 64)
    construct_general(sample_family(params, seed=0))
    assert [(c, word) for c, word, _, _ in resolved] == [
        (0, b"0"), (1, b"00"), (11, b"100"), (31, b"0010"),
        (0, b"0"), (8, b"110"), (9, b"0001")]
    assert all(word == want and seen == mode for _, word, want, seen in resolved)


@pytest.mark.parametrize("reparse", ["checkpoint", "scratch"])
def test_each_hot_chain_asks_for_its_gadgets_once_on_its_whole_feed(
        monkeypatch, mode, reparse):
    # the offset-0 resolve reads the parser's blocks, so the gadgets of a
    # chain are asked for with the whole chain in the segment table and fed,
    # and before any rollback
    rollbacks = []
    rollback = StreamParser.rollback

    def counting(self, pos):
        rollbacks.append(pos)
        return rollback(self, pos)

    build = general_mod.build_chain
    seen = []

    def checked(parser, table, chain_index, source, q, *, gadgets, **kw):
        fed = b"".join(source.data[:t] for t in range(q + 1, len(source) + 1))
        start, before, calls = len(table), len(rollbacks), []

        def asked(i0):
            whole = table[start:] == fed and parser.position == len(table)
            calls.append((i0, whole, len(rollbacks) - before))
            return gadgets(i0)

        record = build(parser, table, chain_index, source, q, gadgets=asked, **kw)
        seen.append((record.chosen_i, calls))
        return record

    monkeypatch.setattr(StreamParser, "rollback", counting)
    monkeypatch.setattr(general_mod, "build_chain", checked)
    params = derive_params(1 << 16, 64)
    cw = construct_general(sample_family(params, seed=0), reparse=reparse)
    assert seen == [(i, [] if i is None else [(i, True, 0)]) for i, _ in seen]
    assert [j for j, (_, calls) in enumerate(seen) if calls] == [0, 8, 9]
    assert [c.resync_word for c in cw.chains if c.chosen_i == 0] == [b"0", b"110", b"0001"]


def test_resync_word_selection_rule(mode):
    # blocks 0 | 1 | 00 | 01 | 000 | 001 | 10 | 11 of the front parsing,
    # ending at letters 1, 2, 4, 6, 9, 12, 14 and 16
    parser, tape = StreamParser(), b"0" b"1" b"00" b"01" b"000" b"001" b"10" b"11"
    parser.feed(tape)

    def resolve(green_words, x, m_int, h_red):
        return general_mod._resync_word(parser, green_words, x, m_int, h_red, 7)

    green = {b"1", b"01"}
    # 0, 00 and 001 prefix x; 000 is least but longer than 10 and 11
    assert resolve(green, b"0011", 3, 16) == b"10"
    assert resolve(green, b"0100", 3, 16) == b"00"       # 00 no longer prefixes x
    assert resolve(green | {b"10"}, b"0011", 3, 16) == b"11"
    assert resolve(green, b"0011", 3, 13) == b"000"      # 10 and 11 end after 13
    with pytest.raises(ConstructionError) as info:
        resolve(green, b"0011", 2, 13)                   # 000 is longer than 2
    assert info.value.diagnostics == {"chain": 7, "m": 2, "half_point": 13}


def test_resync_word_matches_the_oracle_on_random_parses(mode):
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        size = rng.randint(1, rng.choice((20, 400)))
        tape = bytes(rng.choice(b"01") for _ in range(size))
        parser = StreamParser()
        parser.feed(tape)
        starts = list(parser.starts)
        ends = starts[1:] + [parser.block_start]
        blocks = [tape[a:b] for a, b in zip(starts, ends)]
        share = rng.random()
        green = {b for b in blocks if rng.random() < share}
        x = bytes(rng.choice(b"01") for _ in range(rng.randint(1, 8)))
        m_int = rng.randint(1, 6)
        # anywhere, inside a block too; half the time in the block in progress
        h_red = rng.randint(rng.choice((0, parser.block_start)), len(tape))
        want = naive_resync_word(blocks, ends, green, x, m_int, h_red)
        try:
            got = general_mod._resync_word(parser, green, x, m_int, h_red, 0)
        except ConstructionError:
            got = None
        assert got == want, (tape, green, x, m_int, h_red)
        outcomes.add(None if got is None else len(got))
    assert outcomes >= {None, 1, 2, 3}


def test_resync_word_raise_leaves_the_parser_growable(mode):
    parser, tape = StreamParser(), b"0"
    parser.feed(tape)
    with pytest.raises(ConstructionError) as info:
        general_mod._resync_word(parser, set(), b"0110", 4, 1, 3)
    assert info.value.diagnostics == {"chain": 3, "m": 4, "half_point": 1}
    # the traceback in info keeps the resolver's frame alive, with its views
    # of the parser's arrays; the parser must still feed
    tape += b"1" * 64 + b"01" * 64
    parser.feed(tape[parser.position:])
    assert parser.position == len(tape) == 1 + 192
    with pytest.raises(ConstructionError):
        general_mod._resync_word(StreamParser(), set(), b"1", 4, 0, 5)


def test_add_chain_rejects_a_first_fresh_prefix_beyond_its_bound():
    x = Word.from_text("1011" * 16)
    parser, table = StreamParser(), Table(b"0")
    parser.feed(b"0")
    green_words = {x.data[:1], x.data[:2], x.data[:3]}
    with pytest.raises(ConstructionError) as info:
        general_mod._add_chain(parser, table, green_words, 0, x, q_max=2,
                               m_int=8, window=8)
    assert info.value.diagnostics["q"] == 3
    assert parser.position == len(table) == 1 and table.segments == []


def test_construct_general_letters_fed_per_output_letter(monkeypatch, small_build):
    # after each insertion the loop feeds only up to its next target; feeding
    # the whole rest of the chain every time costs 1.56 letters per output
    # letter here, the lazy loop 1.28
    fed = []

    class CountingParser(StreamParser):
        __slots__ = ()

        def feed(self, data):
            fed.append(len(data))
            return super().feed(data)

    monkeypatch.setattr(general_mod, "StreamParser", CountingParser)
    params, family, cw = small_build
    assert construct_general(family).word == cw.word
    assert sum(c.gadget_count for c in cw.chains) > 0
    assert sum(fed) / params.n < 1.42


def test_general_gadget_shapes():
    x = b"10110100" * 8   # l = 64
    def make(i, c):
        return general_mod._chain_gadget(x, 6, b"0", i, c)

    g0 = make(0, 0)
    assert g0 == b"0"
    assert make(0, 3) == b"0111"     # u + first-letter repeats
    g = make(2, 0)
    assert g == x[:6] + bytes([x[6] ^ 1])          # m' = max(2, 6) = 6
    g = make(9, 4)
    assert g == x[:9] + bytes([x[9] ^ 1]) + x[:4]  # m' = 9, pad from x[0..m-1]
    g = make(2, 8)
    assert g == x[:6] + bytes([x[6] ^ 1]) + x[:6] + b"11"


def test_family_failure_names_the_first_broken_rule(small_build):
    params, family, _ = small_build
    words = [w.data for w in family.words]
    assert len(words) == params.family_count == 4

    def failure(ws):
        return general_mod._family_failure([Word(w) for w in ws], params)

    assert failure(words) is None
    assert failure([b"0" * 64] + words[1:]) == "family word 0 fails P1"
    assert failure(words[:2] + [words[1], words[3]]) == "the family fails P2"
    complement = words[0].translate(bytes.maketrans(b"01", b"10"))  # keeps P1 and P2
    assert failure([complement] + words[1:]) == "the first family word does not start with 1"


def test_family_file_keeps_exact(tmp_path):
    params = derive_params(20000, 64, gamma=10.0, exact=True)
    assert params.exact and params.n == 1 << 14
    family = sample_family(params, seed=1)
    path = tmp_path / "family.txt"
    save_family(family, path)
    assert " exact=True " in path.read_text().splitlines()[0]


def test_construct_rejects_bad_mode(small_build):
    _, family, _ = small_build
    with pytest.raises(ParameterError):
        construct_general(family, reparse="guess")


def test_catastrophe_factor_grows_with_chain_size():
    # at a fixed chain count (n/l^2) the front-letter penalty grows with l;
    # soft trend, checked at frozen seeds
    factors = []
    for n, l in [(1 << 16, 1 << 7), (1 << 18, 1 << 8), (1 << 20, 1 << 9)]:
        params = derive_params(n, l, gamma=10.0)
        family = sample_family(params, seed=0)
        rep = verify_general(construct_general(family))
        factors.append(rep.catastrophe_factor)
    assert factors[0] < factors[1] < factors[2]
