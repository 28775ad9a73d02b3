import random

import pytest

from lz78lab import ParameterError, align, parse, pref, violation_table
from lz78lab.alignment import alignment_report, classify, locate

from oracles import naive_classify, naive_locate, naive_parse


def classes_of(ap):
    return [(c.kind, c.offset, c.green_index) for c in ap.classes]


def test_reference_alignment():
    ap = align("001010100011", "0")
    assert [b.decode() for b in ap.green.blocks()] == ["0", "01", "010", "1", "00", "011"]
    assert [b.decode() for b in ap.red.blocks()] == ["0", "00", "1", "01", "010", "001", "1"]
    assert classes_of(ap) == [
        ("first", None, None),
        ("junction", None, None),
        ("offset", 1, 1),
        ("offset", 0, 2),
        ("junction", None, None),
        ("junction", None, None),
        ("offset", 2, 5),
    ]


def test_single_letter_word():
    ap = align("0", "1")
    assert [b.decode() for b in ap.red.blocks()] == ["1", "0"]
    assert classes_of(ap) == [("first", None, None), ("offset", 0, 0)]


def test_align_errors():
    with pytest.raises(ParameterError):
        align("", "0")
    with pytest.raises(ParameterError):
        align("01", "01")


def test_classification_matches_interval_oracle():
    rng = random.Random(23)
    for _ in range(120):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 300)))
        for a in "01":
            ap = align(w, a)
            expected = naive_classify(naive_parse(w), naive_parse(a + w))
            got = [(c.kind,) if c.kind != "offset" else (c.kind, c.offset, c.green_index)
                   for c in ap.classes]
            assert got == expected


def _random_spans(rng, n):
    """Ascending, disjoint spans in w[:n], at least one, some touching and
    some with gaps."""
    spans, at = [], min(n - 1, rng.choice([0, 0, 1, 2]))
    while at < n:
        end = min(n, at + rng.randrange(1, 8))
        spans.append((at, end))
        at = end + rng.choice([0, 0, 1, 3])
    return spans


def test_locate_over_spans_with_gaps_matches_a_scan():
    rng = random.Random(41)
    seen = set()
    for _ in range(400):
        n = rng.randrange(1, 60)
        spans = _random_spans(rng, n)
        cuts = sorted(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
        red = list(zip([0, *cuts], [*cuts, n + 1]))      # tiles aw
        index, offset, inside = locate([a for a, _ in spans], [b for _, b in spans],
                                       [a for a, _ in red], [b for _, b in red])
        for r, (a, b) in enumerate(red):
            k, off, ok = naive_locate(spans, a, b)
            assert (index[r], inside[r]) == (k, ok), (spans, red, r)
            if k >= 0:
                assert offset[r] == off
                end = spans[k][1]
                seen.add("first letter" if off == 0 else
                         "in a gap" if a - 1 >= end else "later letter")
                if b - 1 == end:
                    seen.add("ends on the last letter")
            else:
                seen.add("red block 0" if a == 0 else "before the first span")
    assert seen >= {"red block 0", "before the first span", "in a gap", "first letter",
                    "later letter", "ends on the last letter"}


def test_locate_over_tiling_blocks_agrees_with_the_scan_and_classify():
    rng = random.Random(43)
    for _ in range(120):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 200)))
        green, red = parse(w), parse(rng.choice("01") + w)
        ends = [*green.starts[1:], len(w)]
        red_ends = [*red.starts[1:], len(w) + 1]
        index, offset, inside = locate(green.starts, ends, red.starts, red_ends)
        spans = list(zip(green.starts, ends))
        want = []
        for r, (a, b) in enumerate(zip(red.starts, red_ends)):
            k, off, ok = naive_locate(spans, a, b)
            assert (index[r], inside[r]) == (k, ok) and (k < 0 or offset[r] == off)
            want.append(("first",) if k < 0 else ("offset", off, k) if ok else ("junction",))
        assert [(c.kind,) if c.kind != "offset" else (c.kind, c.offset, c.green_index)
                for c in classify(green, red)] == want


def test_length_accounting_and_tiling():
    rng = random.Random(31)
    for _ in range(80):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 400)))
        a = rng.choice("01")
        ap = align(w, a)
        red_lengths = [ap.red.block_length(i) for i in range(ap.red.block_count)]
        assert sum(red_lengths) == len(w) + 1
        # both parses tile their words, so the red blocks over each green
        # block tile it too
        assert b"".join(ap.green.blocks()).decode() == w
        assert b"".join(ap.red.blocks()).decode() == a + w


def test_violation_table_reference():
    ap = align("001010100011", "0")
    table = violation_table(ap)
    assert table.counts == {0: 1, 1: 1, 2: 1}
    assert ap.green.block_count == 6


def test_violation_table_single_letter():
    assert violation_table(align("0", "1")).counts == {0: 1}


def test_violation_trade_off_on_prefix_words():
    # for w = pref(x): counts of any two offsets sum to at most |x|,
    # hence at most one offset exceeds half
    rng = random.Random(41)
    for _ in range(30):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(2, 120)))
        for a in "01":
            table = violation_table(align(pref(x), a))
            s = len(x)
            assert sum(sorted(table.counts.values())[-2:]) <= s
            assert sum(1 for c in table.counts.values() if 2 * c > s) <= 1


def test_alignment_report_schema():
    report = alignment_report(align("001010100011", "0"))
    assert report["schema"] == 1
    assert set(report) == {"schema", "green", "red", "classes", "violations"}
    assert report["violations"] == {"0": 1, "1": 1, "2": 1}
    assert report["classes"][0] == {"kind": "first"}
    assert report["classes"][2] == {"kind": "offset", "i": 1, "green": 1}


def test_classification_exhaustive_and_exclusive():
    rng = random.Random(57)
    for _ in range(60):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 200)))
        ap = align(w, rng.choice("01"))
        assert len(ap.classes) == ap.red.block_count
        assert ap.classes[0].kind == "first"
        assert sum(1 for c in ap.classes if c.kind == "first") == 1
        for c in ap.classes[1:]:
            assert c.kind in ("junction", "offset")
