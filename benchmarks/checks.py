"""Output checks computed apart from lz78lab.

Nothing here imports the package under test.  Each check returns a list of
failure messages; an empty list means the output passed.  The parser below is
a plain set of block strings searched by bisection, so it shares no code and
no data layout with the trie parser it checks.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def naive_parse(data: bytes) -> list[int]:
    """LZ'78 block starts of ``data``.

    The dictionary is prefix-closed, so "data[pos:pos+L] is a known block" is
    monotone in L and the longest match is found by bisection.
    """
    seen = set()
    starts = []
    pos, n, longest = 0, len(data), 0
    while pos < n:
        lo, hi = 0, min(longest, n - pos)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if data[pos:pos + mid] in seen:
                lo = mid
            else:
                hi = mid - 1
        starts.append(pos)
        if pos + lo >= n:          # the remainder repeats a known block
            break
        seen.add(data[pos:pos + lo + 1])
        longest = max(longest, lo + 1)
        pos += lo + 1
    return starts


def check_lz78_parse(data: bytes, starts: list[int]) -> list[str]:
    """Every block minus its last letter is an earlier block (or empty), and
    no block but the last repeats an earlier one.  These two rules define the
    LZ'78 parsing uniquely."""
    if not data:
        return [] if not starts else ["blocks given for the empty word"]
    if not starts or starts[0] != 0:
        return ["the first block does not start at 0"]
    seen = {b""}
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(data)
        if not start < end <= len(data):
            return [f"block {i} has bounds [{start}, {end}) in a word of {len(data)}"]
        block = data[start:end]
        if block[:-1] not in seen:
            return [f"block {i} at {start} minus its last letter is no earlier block"]
        if block in seen and end != len(data):
            return [f"block {i} at {start} repeats an earlier block"]
        seen.add(block)
    return []


def last_repeats(data: bytes, starts: list[int]) -> bool:
    """Whether the final block of a checked parse repeats an earlier one."""
    last = data[starts[-1]:]
    return any(data[s:e] == last for s, e in zip(starts, starts[1:])
               if e - s == len(last))


def checked_parse(data: bytes) -> tuple[list[int], int]:
    """Block starts and dictionary size of a parse that passed the check."""
    starts = naive_parse(data)
    failures = check_lz78_parse(data, starts)
    if failures:
        raise ValueError(f"the reference parser broke the LZ'78 rules: {failures[0]}")
    return starts, len(starts) - last_repeats(data, starts)


def check_dic(reported: int, recounted: int, what: str) -> list[str]:
    if reported != recounted:
        return [f"{what}: reported {reported}, recounted {recounted}"]
    return []


def gram_counts(data: bytes, length: int) -> Counter:
    return Counter(data[i:i + length] for i in range(len(data) - length + 1))


def check_de_bruijn(x: bytes, k: int) -> list[str]:
    if len(x) != (1 << k) + k - 1:
        return [f"de Bruijn word of order {k} has length {len(x)}"]
    counts = gram_counts(x, k)
    if len(counts) != 1 << k or max(counts.values()) != 1:
        return [f"some {k}-gram of x occurs more than once"]
    return []


def prefix_chain(x: bytes, first: int = 0) -> bytes:
    """x[:first+1] x[:first+2] ... x, the ascending prefixes of x."""
    return b"".join(x[:t] for t in range(first + 1, len(x) + 1))


def check_p1(x: bytes, k: float, l: int) -> list[str]:
    """Every u with |u| <= k occurs at most k*l/2^|u| times in x."""
    if len(x) != l:
        return [f"word of length {len(x)} where l={l}"]
    for length in range(1, int(k) + 1):
        top = max(gram_counts(x, length).values())
        if top > k * l / (1 << length):
            return [f"a {length}-gram occurs {top} times, above {k * l / (1 << length):g}"]
    return []


def check_p2(words: list[bytes], m: int) -> list[str]:
    """No m-gram occurs twice across the whole family."""
    counts = Counter()
    for w in words:
        counts.update(gram_counts(w, m))
    repeated = sum(1 for c in counts.values() if c > 1)
    return [f"{repeated} {m}-grams occur more than once"] if repeated else []


def check_fresh(words: list[bytes], ms: list[int]) -> list[str]:
    """Word j's m_j-grams are distinct and occur in no earlier word."""
    for j, (w, m) in enumerate(zip(words, ms)):
        grams = gram_counts(w, m)
        if any(c > 1 for c in grams.values()):
            return [f"word {j} repeats one of its own {m}-grams"]
        earlier = set()
        for v in words[:j]:
            earlier.update(gram_counts(v, m))
        if not earlier.isdisjoint(grams):
            return [f"word {j} shares a {m}-gram with an earlier word"]
    return []


def segments_of_kind(data: bytes, segments, kind: str) -> dict[int, bytes]:
    """Concatenation of the segments of one kind, per chain."""
    out: dict[int, bytearray] = {}
    pos = 0
    for seg in segments:
        if seg.kind == kind:
            out.setdefault(seg.chain, bytearray()).extend(data[pos:pos + seg.length])
        pos += seg.length
    if pos != len(data):
        raise ValueError(f"segments cover {pos} letters of a word of {len(data)}")
    return {c: bytes(v) for c, v in out.items()}


def segment_starts(segments) -> list[int]:
    starts, acc = [], 0
    for seg in segments:
        starts.append(acc)
        acc += seg.length
    return starts


def front_bound_ok(n: int, dic_w: int, dic_aw: int) -> bool:
    return dic_aw <= 3 * math.sqrt(n * dic_w)


def ratio(dic: int, n: int) -> float:
    return 0.0 if dic <= 1 else dic * math.log2(dic) / n


def ratio_curve(data: bytes, stride: int) -> list[tuple[int, float]]:
    """Compression ratio of each stride-th prefix, from a checked parse: the
    dictionary of a prefix is the set of blocks that end inside it."""
    starts, dic = checked_parse(data)
    # a final block that repeats an earlier one never joins the dictionary
    ends = np.array((starts[1:] + [len(data)])[:dic], dtype=np.int64)
    points = list(range(stride, len(data) + 1, stride))
    if not points or points[-1] != len(data):
        points.append(len(data))
    completed = np.searchsorted(ends, points, side="right")
    return [(n, ratio(int(k), n)) for n, k in zip(points, completed)]


def tail(curve, cut: float) -> list[float]:
    return [c for n, c in curve if n >= cut]


def fuzz_length(seed: int, trial: int, max_len: int) -> int:
    """Trial length, log-uniform in [1, max_len]: PCG64 on SeedSequence
    [seed, trial, 0xF], as ``lz78lab bound-fuzz`` documents it."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial, 0xF])))
    return max(1, int(round(max_len ** rng.random())))


def fuzz_word(seed: int, trial: int, max_len: int) -> bytes:
    """Trial word: PCG64 on SeedSequence [seed, trial], uniform letters."""
    length = fuzz_length(seed, trial, max_len)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))
    return (rng.integers(0, 2, size=length, dtype=np.uint8) + ord("0")).tobytes()
