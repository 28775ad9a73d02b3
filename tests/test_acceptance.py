"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from collections import defaultdict

import numpy as np

from lz78lab import (align, build_prefix, de_bruijn, decode, encode, parse, pref,
                     ratio_curve, tail_separation, violation_table,
                     check_p1, check_p2)

from conftest import assert_star_census, criterion, fuzz_word
from oracles import worst_case_word

FRONT_BOUND = 3.0  # universal front-letter constant: dic(aw) <= 3*sqrt(|w|*dic(w))


def test_criterion_1_footnote_reproduction(toy12, toy12_alternates):
    cw, rep = toy12["cw"], toy12["report"]
    elapsed = toy12["elapsed"] + toy12_alternates["elapsed"]

    s = (1 << 12) + 11
    assert rep.s == s == 4107
    assert abs(rep.n - 8.4e6) <= 0.05 * 8.4e6
    assert rep.gadget_count <= s // 2
    assert 4107 <= rep.dic_w <= 4107 + rep.gadget_count
    assert rep.dic_aw > 200_000
    assert rep.green_units_ok

    alt_sizes = []
    for seed, alt in toy12_alternates["alts"]:
        size = alt.red.dict_size
        alt_sizes.append(size)
        assert size >= 10 ** 5, f"seed {seed}: dic(0w) = {size}"
    assert elapsed <= 60, f"criterion 1 took {elapsed:.1f}s"

    criterion(1, True,
              f"|w|={rep.n}, dic(w)={rep.dic_w}, dic(0w)={rep.dic_aw}, "
              f"alternates min dic(0w)={min(alt_sizes)}, {elapsed:.1f}s")


def test_criterion_2_universal_front_bound(toy12, toy12_alternates, gadget_suite):
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for trial in range(10_000):
        data = fuzz_word(20260808, trial, 10_000)
        dw = parse(data).dict_size
        base = math.sqrt(len(data) * dw)
        for letter in (b"0", b"1"):
            daw = parse(letter + data).dict_size
            worst = max(worst, daw / base)
            if daw > FRONT_BOUND * base:
                violations += 1

    # constructed words from criteria 1 and 5, both front letters; these sit
    # near the extremal end of the bound, so track their ratios separately
    constructed = [toy12["cw"]] + [cw for _, cw in toy12_alternates["alts"]] + \
        [cw for cw, _ in gadget_suite["suite"].values()]
    constructed_worst = 0.0
    for cw in constructed:
        data = cw.word.data
        dw = parse(data).dict_size
        base = math.sqrt(len(data) * dw)
        for letter in (b"0", b"1"):
            if letter == b"0":
                daw = cw.red.dict_size
            else:
                daw = parse(letter + data).dict_size
            constructed_worst = max(constructed_worst, daw / base)
            worst = max(worst, daw / base)
            if daw > FRONT_BOUND * base:
                violations += 1

    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed <= 60, f"criterion 2 took {elapsed:.1f}s"
    criterion(2, True,
              f"0 violations over 10^4 random words x 2 letters + "
              f"{len(constructed)} constructed words; max ratio "
              f"{worst:.3f} (bound 3), constructed max {constructed_worst:.3f} "
              f"(near-extremal floor 1/35={1 / 35:.4f}), {elapsed:.1f}s")


def test_criterion_3_star_census():
    t0 = time.perf_counter()
    for k in range(3, 15):
        assert_star_census(de_bruijn(k, require_prefix="01").word, k)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30, f"criterion 3 took {elapsed:.1f}s"
    criterion(3, True, f"full census exact for k=3..14, {elapsed:.1f}s")


def test_criterion_4_extremal_words():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([44])))
    for _ in range(100):
        length = max(1, int(round(3000 ** rng.random())))
        x = (rng.integers(0, 2, size=length, dtype=np.uint8) + ord("0")).tobytes()
        p = parse(pref(x))
        assert p.dict_size == length
        assert not p.last_is_duplicate
        assert [p.block_bytes(i) for i in range(p.block_count)] == \
            [x[:i + 1] for i in range(length)]

    for n in range(1, 13):
        w = worst_case_word(n)
        assert len(w) == (n - 1) * 2 ** (n + 1) + 2
        p = parse(w)
        assert p.dict_size == 2 ** (n + 1) - 2
    elapsed = time.perf_counter() - t0
    criterion(4, True,
              f"100 prefix words parse into their prefixes; worst-case words "
              f"exact for n<=12, {elapsed:.1f}s")


def test_criterion_5_gadget_construction_suite(gadget_suite):
    t0 = time.perf_counter()
    details = []
    for k, (cw, rep) in gadget_suite["suite"].items():
        s = rep.s
        # (a) near-optimal compression of the constructed word
        assert rep.dic_w <= 3 * math.sqrt(2 / 5) * math.sqrt(rep.n), f"k={k}"
        assert rep.upper_bound_ok
        # (b) violation cap for every offset in the gadget window
        bound_b = s / 2 + (1 + cw.meta["gamma"]) * k + 1
        assert rep.violations_ok
        assert all(c <= bound_b for c in rep.violations.values()), f"k={k}"
        # (c) pairwise violation trade-off over all offsets of pref(x)
        ap = align(pref(cw.source), "0")
        table = violation_table(ap)
        top2 = sorted(table.values())[-2:]
        assert sum(top2) <= s, f"k={k}: {'+'.join(map(str, top2))} > {s}"
        assert sum(1 for c in table.values() if 2 * c > s) <= 1
        details.append(f"k={k}: dic(w)={rep.dic_w}, dic(0w)={rep.dic_aw}, "
                       f"max viol {max(rep.violations.values())}")
    elapsed = gadget_suite["elapsed"] + time.perf_counter() - t0
    assert elapsed <= 300, f"criterion 5 took {elapsed:.1f}s"
    criterion(5, True, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_chained_suite(general20):
    details = []
    for l, (params, family, cw, rep) in general20["runs"].items():
        assert family.retries <= 64, f"l={l}: sampling needed {family.retries} redraws"
        # exact property re-verification on the accepted family
        assert all(check_p1(w, params.k, params.l) for w in family.words)
        assert check_p2(family.words, params.m_int)
        # compression bound with 5% slack for parameter rounding
        bound = (3 + math.sqrt(3)) / 2 * params.n / params.l
        assert rep.dic_w <= 1.05 * bound, f"l={l}: {rep.dic_w} > {1.05 * bound:.0f}"
        # soft target: the front letter costs at least a factor 3
        assert rep.catastrophe_factor >= 3, f"l={l}: factor {rep.catastrophe_factor:.2f}"
        assert rep.sync_ok and rep.pair_trade_off_ok
        details.append(
            f"l=2^{int(math.log2(l))}: retries={family.retries}, "
            f"dic(w)={rep.dic_w}<={bound:.0f}, factor={rep.catastrophe_factor:.2f}, "
            f"scaled front speed {rep.front_speed_scaled:.3f} (1/54={1 / 54:.4f})")
    criterion(6, True, "; ".join(details) + f", {general20['elapsed']:.1f}s")


def test_criterion_7_structural_fuzz():
    t0 = time.perf_counter()
    for trial in range(10_000):
        data = fuzz_word(777, trial, 10_000)
        p = parse(data)
        # partition
        assert b"".join(p.blocks()) == data
        # prefix closure of the dictionary
        dictionary = set(p.blocks()[:p.dict_size])
        for b in dictionary:
            assert len(b) == 1 or b[:-1] in dictionary
        # round trip
        assert decode(encode(p)).data == data
        # factor census inequality against the tree size
        vertices = p.dict_size + 1
        factors = defaultdict(set)
        for bi in range(p.block_count):
            block = p.block_bytes(bi)
            for i in range(1, len(block) + 1):
                add = factors[i].add
                for a in range(len(block) - i + 1):
                    add(block[a:a + i])
        for i, seen in factors.items():
            assert len(seen) <= vertices - i
        # alignment tiling
        letter = b"01"[trial % 2:trial % 2 + 1]
        ap = align(data, letter)
        assert b"".join(ap.red.blocks()) == letter + data
    elapsed = time.perf_counter() - t0
    criterion(7, True, f"10^4 words: round trip, partition, prefix closure, "
                       f"census inequality, tiling all clean, {elapsed:.1f}s")


def test_criterion_8_tail_separation():
    t0 = time.perf_counter()
    cw = build_prefix(256, 0.1, 250_000, seed=3)
    assert not cw.meta["schedule"].in_theorem_range  # demo scale is explicitly flagged
    assert cw.meta["words_per_level"].get(1, 0) >= 1, "second level not reached"
    stride = len(cw.word) // 256
    plain = ratio_curve(cw.word, stride)
    front = ratio_curve(b"0" + cw.word.data, stride)
    separated, tail_plain, tail_front = tail_separation(plain, front)
    elapsed = time.perf_counter() - t0
    assert separated, f"tails overlap: {tail_plain:.4f} vs {tail_front:.4f}"
    criterion(8, True,
              f"2-level prefix (out-of-range flags on): last-quartile max "
              f"comp(w)={tail_plain:.4f} < min comp(0w)={tail_front:.4f}, "
              f"{elapsed:.1f}s")
