import bisect
import math
import random
import sys
import tracemalloc

import pytest

from lz78lab import (ParameterError, build_prefix, comp_ratio, parse, pref,
                     ratio_curve, schedule, tail_separation)
from lz78lab import infinite, words
from lz78lab.infinite import _fresh_factors, _m_grams, prefix_ratios
from lz78lab.parsing import MAX_NODES

from conftest import assert_is_parse_of_0w, assert_segments_tile
from oracles import worst_case_word


def test_schedule_levels_double():
    sched = schedule(256, 0.1, 3)
    assert [lv.l for lv in sched.levels] == [256, 512, 1024]
    assert sched.levels[0].p >= 1
    ps = [lv.p for lv in sched.levels]
    assert ps == sorted(ps)
    # counts sum to the cumulative 2^p floor
    cum = 0
    for lv in sched.levels:
        cum += lv.count
        assert cum == int(2 ** lv.p)


def test_schedule_formula_substitution():
    # at l = (9*gamma*t)^2 the level parameter is t - 2*log2(l)
    gamma, t = 0.25, 16
    l = int((9 * gamma * t) ** 2)
    p = math.sqrt(l) / (9 * gamma) - 2 * math.log2(l)
    assert p == pytest.approx(t - 2 * math.log2(l))


def test_schedule_growth_report():
    sched = schedule(256, 0.1, 2)
    f0, f1 = (int(2 ** lv.p) for lv in sched.levels)
    # |F_1| ~ |F_0|^sqrt(2) only asymptotically; just report the trend here
    assert f1 > f0


def test_schedule_rejects_infeasible_l0():
    with pytest.raises(ParameterError) as exc:
        schedule(1024, 10.0, 1)   # p_0 far below 1 at this scale
    assert "level 0" in str(exc.value)
    with pytest.raises(ParameterError):
        schedule(256, 0.1, 0)
    # refused before math.log2(l) or math.sqrt(l) sees a non-positive l
    for l0 in (0, -4, 15):
        with pytest.raises(ParameterError, match="l0 must be >= 16"):
            schedule(l0, 0.1, 1)


def test_schedule_out_of_theorem_flag():
    sched = schedule(256, 0.1, 2)
    assert not sched.in_theorem_range
    assert any("gamma" in note for note in sched.notes)


def test_build_prefix_budget_guard(monkeypatch):
    # each refused before a word is drawn: l0 below 16, an infeasible level 0,
    # a budget below one level-0 chain and one past the parser's node ids
    def no_draw(*args, **kwargs):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(infinite, "_sample_level_word", no_draw)
    for l0, gamma, budget, match in (
            (8, 0.1, 100_000, "l0 must be >= 16"),
            (1024, 10.0, 1_000_000, "level 0 is infeasible"),
            (256, 0.1, 1000, "cannot cover one full level-0 chain"),
            (256, 0.1, 256 * 257 // 2 - 1, "cannot cover one full level-0 chain"),
            (256, 0.1, MAX_NODES - 1, "for the parser's node ids")):
        with pytest.raises(ParameterError, match=match):
            build_prefix(l0, gamma, budget, seed=0)


@pytest.fixture(scope="module")
def two_level():
    cw = build_prefix(256, 0.1, 250_000, seed=3)
    return cw.meta["schedule"], cw


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_prefix_emits_the_whole_budget(seed):
    # the 74 level-0 chains lay fewer letters than their regular blocks'
    # count * l(l+1)/2 = 2,434,304, a chain that starts at x[0..q] laying
    # q(q+1)/2 fewer, so this budget takes a level-1 word
    cw = build_prefix(256, 0.08, 2_434_304, seed)
    assert len(cw.word) == 2_434_304
    assert cw.meta["words_per_level"] == {0: 74, 1: 1}
    assert cw.meta["generated"] > 2_434_304


def test_build_prefix_words_are_prefixes_of_one_word(two_level):
    _, longest = two_level
    for budget in (40_000, 99_000, 150_000):
        cw = build_prefix(256, 0.1, budget, seed=3)
        assert longest.word.data.startswith(cw.word.data), budget


def test_build_prefix_schedule_lists_the_levels_reached(two_level):
    # 99,000 letters fit in level 0's three chains: level 1 is not listed
    short = build_prefix(256, 0.1, 99_000, seed=0)
    assert short.meta["words_per_level"] == {0: 3}
    assert short.meta["schedule"] == schedule(256, 0.1, 1)
    sched, cw = two_level
    assert sorted(cw.meta["words_per_level"]) == [0, 1]
    assert sched == schedule(256, 0.1, 2)


def test_a_re_feed_holds_no_copy_of_the_tape(mode, monkeypatch):
    """No construction holds its word: the gadget loop feeds and re-feeds
    the segment table a slice at a time.  With slices of 512 letters, each
    read of the table by the loop and by the cut yields slices of at most 512
    letters, the longest read spans 32,897, and while a read runs, what the
    reader allocated since it began and still holds stays at most 2,430
    bytes, under 4 slices and 1 KB: the slice it yields and the run pieces,
    each with a bytes header, it was joined from.  A joined copy of the
    read, or a slice of a tape, would hold all its letters."""
    monkeypatch.setattr(words, "SLICE", 512)
    reader = [tracemalloc.Filter(True, words.__file__)]
    slices, reads = words.Table.slices, []

    def held():
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(reader).traces)

    def traced_slices(self, a=0, b=None):
        caller = sys._getframe(1).f_code.co_name
        if caller not in ("advance", "build_prefix"):
            yield from slices(self, a, b)
            return
        base, read = held(), []
        reads.append(read)
        for piece in slices(self, a, b):
            read.append((len(piece), held() - base))
            yield piece

    monkeypatch.setattr(words.Table, "slices", traced_slices)
    tracemalloc.start()
    try:
        build_prefix(256, 0.1, 33_000, seed=0)
    finally:
        tracemalloc.stop()
    assert len(reads) > 10
    assert max(sum(n for n, _ in read) for read in reads) > 16 * 2048
    pieces = [piece for read in reads for piece in read]
    assert all(n <= 512 and size < 4 * 512 + 1024 for n, size in pieces), max(pieces)


def test_build_prefix_reaches_level_one(two_level):
    sched, cw = two_level
    assert len(cw.word) == 250_000
    assert cw.meta["words_per_level"].get(1, 0) >= 1
    assert sum(seg.length for seg in cw.segments) == len(cw.word)


def test_build_prefix_sync_offsets_bounded(two_level):
    sched, cw = two_level
    per_level = cw.meta["words_per_level"]
    level_of = []
    for lv_index in sorted(per_level):
        level_of += [lv_index] * per_level[lv_index]
    for chain, lv_index in zip(cw.chains, level_of):
        assert chain.q <= sched.levels[lv_index].m_eff
        assert len(chain.source) == sched.levels[lv_index].l


def test_build_prefix_chain_green_budget(two_level):
    # a level-i chain parses into at most 3*l_i/2 green blocks
    sched, cw = two_level
    per_level = cw.meta["words_per_level"]
    level_of = []
    for lv_index in sorted(per_level):
        level_of += [lv_index] * per_level[lv_index]
    green = parse(cw.word.data)
    import bisect
    for chain, lv_index in zip(cw.chains, level_of):
        if chain.start + chain.length > len(cw.word):
            continue  # the budget cut this chain short
        lo = bisect.bisect_left(green.starts, chain.start)
        hi = bisect.bisect_left(green.starts, chain.start + chain.length)
        assert hi - lo <= 3 * sched.levels[lv_index].l / 2


def test_build_prefix_budget_covering_level_zero_only():
    # degenerate case: the output is a chained construction at (l0, p0),
    # with no padding anywhere
    cw = build_prefix(256, 0.1, 50_000, seed=3)
    assert cw.meta["words_per_level"] == {0: 2}
    assert all(seg.kind != "padding" for seg in cw.segments)
    assert all(len(chain.source) == 256 for chain in cw.chains)


def test_build_prefix_hands_over_the_parse_of_0w():
    # three budgets: one that ends inside a block of 0w, one that ends on a
    # block boundary, and one equal to the generated length
    generated = build_prefix(256, 0.1, 40_000, seed=3).meta["generated"]
    whole = build_prefix(256, 0.1, generated, seed=3)
    starts = whole.red.starts
    j = next(i for i in range(bisect.bisect(starts, 45_000), len(starts))
             if starts[i + 1] - starts[i] > 1)
    cases = {"inside": starts[j], "boundary": starts[j] - 1, "generated": generated}
    for name, budget in cases.items():
        cw = build_prefix(256, 0.1, budget, seed=3)
        assert len(cw.word) == budget == len(cw.red.data) - 1, name
        assert cw.meta["generated"] == generated, name
        assert_is_parse_of_0w(cw.red, cw.word.data)
        if name != "generated":
            # a cut block is a prefix of a block, so it is in the dictionary
            assert cw.red.last_is_duplicate == (name == "inside"), name
        stride = budget // 97
        assert prefix_ratios(cw.certified_red(), stride) == ratio_curve(
            b"0" + cw.word.data, stride), name


def test_build_prefix_segments_tile_the_cut_word():
    # one budget that ends on a segment bound, one that cuts the segment after it
    generated = build_prefix(256, 0.1, 40_000, seed=3).meta["generated"]
    whole = build_prefix(256, 0.1, generated, seed=3)
    assert_segments_tile(whole)
    starts = whole.segment_starts()
    j = bisect.bisect(starts, 45_000)
    assert whole.segments[j].length > 1
    for budget, kept in ((starts[j], j), (starts[j] + 1, j + 1)):
        cw = build_prefix(256, 0.1, budget, seed=3)
        assert len(cw.word) == budget
        assert_segments_tile(cw)
        assert len(cw.segments) == kept
        assert cw.segments[:j] == whole.segments[:j]


def test_cross_level_factor_uniqueness(two_level):
    sched, cw = two_level
    per_level = cw.meta["words_per_level"]
    level_of = []
    for lv_index in sorted(per_level):
        level_of += [lv_index] * per_level[lv_index]
    words = [(lv, chain.source.data) for chain, lv in zip(cw.chains, level_of)]
    for li, (lv, data) in enumerate(words):
        m = sched.levels[lv].m_eff
        grams = {data[i:i + m] for i in range(len(data) - m + 1)}
        assert len(grams) == len(data) - m + 1
        for lj, (lv2, other) in enumerate(words):
            if lj == li or lv2 > lv:
                continue
            assert not any(g in other for g in grams)


@pytest.mark.parametrize("m", [4, 8])
def test_fresh_factors_match_definition(m):
    rng = random.Random(m)

    def bits(lo, hi):
        return "".join(rng.choice("01") for _ in range(rng.randrange(lo, hi))).encode()

    outcomes = []
    for _ in range(300):
        corpus = [bits(m, 24) for _ in range(rng.randrange(0, 4))]
        data = bits(m, 3 * m)
        grams = [data[i:i + m] for i in range(len(data) - m + 1)]
        fresh = (len(set(grams)) == len(grams)
                 and not any(g in word for g in grams for word in corpus))
        assert _fresh_factors(data, m, _m_grams(corpus, m)) == fresh
        outcomes.append(fresh)
    assert 30 < sum(outcomes) < 270


def test_tail_separation_two_levels(two_level):
    sched, cw = two_level
    stride = len(cw.word) // 200
    plain = ratio_curve(cw.word, stride)
    front = ratio_curve(b"0" + cw.word.data, stride)
    separated, tail_plain, tail_front = tail_separation(plain, front)
    assert separated
    assert tail_front > 2 * tail_plain


def test_ratio_curve_consistency():
    rng = random.Random(4)
    text = "".join(rng.choice("01") for _ in range(4000))
    curve = ratio_curve(text.encode(), 13)
    points = random.Random(5).sample(curve, 100)
    for n, value in points:
        assert value == pytest.approx(comp_ratio(text[:n]), abs=1e-12)
    assert curve[-1][0] == 4000
    # a word whose last block duplicates an earlier one: the final point
    # counts the dictionary, not the blocks
    x = "".join(rng.choice("01") for _ in range(60))
    word = pref(x).to_text() + x[:3]
    assert parse(word).dict_size < parse(word).block_count
    curve = ratio_curve(word.encode(), 7)
    assert curve[-1] == (len(word), pytest.approx(comp_ratio(word), abs=1e-12))


def test_ratio_curve_stride_validation():
    with pytest.raises(ParameterError):
        ratio_curve(b"01", 0)
    with pytest.raises(ParameterError):
        ratio_curve(b"", 1)
    for bad in (b"0120", b"abc"):
        with pytest.raises(ParameterError, match="invalid letter"):
            ratio_curve(bad, 1)
    assert ratio_curve(b"0", 1) == [(1, 0.0)]


def test_ratio_curve_worst_case_scale():
    # the maximally incompressible word keeps comp near 1
    curve = ratio_curve(worst_case_word(10), 512)
    assert curve[-1][1] > 0.8


def test_ratio_curve_prefix_word_decreases():
    rng = random.Random(9)
    x = "".join(rng.choice("01") for _ in range(300))
    curve = ratio_curve(pref(x), 500)
    values = [v for _, v in curve]
    assert values[-1] < values[len(values) // 2] < values[len(values) // 4]
