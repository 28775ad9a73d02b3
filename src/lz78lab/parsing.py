"""LZ'78 parsing: the unique left-to-right block partition of a word.

Each block extends a previously seen block by one letter.  The dictionary is
the set of distinct blocks; only the final block may duplicate an earlier one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .errors import MalformedCodeError, ParameterError
from .words import Word, as_bits


class StreamParser:
    """Incremental LZ'78 parser over an append-only letter stream.

    The trie is a flat dict keyed by ``(node << 1) | letter``; node ``t``
    corresponds to completed block ``t - 1`` (the root is node 0).  Supports
    rolling the parse back to an earlier position, which is what makes the
    adaptive constructions affordable: after an insertion only the suffix is
    re-parsed, never the whole word.
    """

    __slots__ = ("buf", "trie", "node", "next_id", "starts", "keys", "preds",
                 "block_start")

    def __init__(self):
        self.buf = bytearray()
        self.trie = {}
        self.node = 0          # trie node of the in-progress block
        self.next_id = 1
        self.starts = []       # start position of each completed block
        self.keys = []         # trie key added by each completed block
        self.preds = []        # predecessor block index (-1 for the root)
        self.block_start = 0   # start position of the in-progress block

    def reset(self) -> None:
        self.buf.clear()
        self.trie.clear()
        self.node = 0
        self.next_id = 1
        self.starts.clear()
        self.keys.clear()
        self.preds.clear()
        self.block_start = 0

    @property
    def position(self) -> int:
        return len(self.buf)

    @property
    def completed(self) -> int:
        return len(self.starts)

    def in_progress(self) -> bool:
        return self.node != 0

    def feed(self, data) -> int:
        """Consume letters; returns the index of the first newly completed block."""
        first_new = len(self.starts)
        base = len(self.buf)
        self.buf.extend(data)
        trie = self.trie
        get = trie.get
        node = self.node
        nxt = self.next_id
        starts = self.starts
        keys = self.keys
        preds = self.preds
        append_start = starts.append
        append_key = keys.append
        append_pred = preds.append
        bstart = self.block_start
        for pos, ch in enumerate(data, base + 1):
            key = (node << 1) | (ch & 1)
            child = get(key)
            if child is None:
                trie[key] = nxt
                nxt += 1
                append_start(bstart)
                append_key(key)
                append_pred(node - 1)
                bstart = pos
                node = 0
            else:
                node = child
        self.node = node
        self.next_id = nxt
        self.block_start = bstart
        return first_new

    def block_end(self, b: int) -> int:
        return self.starts[b + 1] if b + 1 < len(self.starts) else self.block_start

    def rollback(self, pos: int) -> bytes:
        """Rewind to the last block boundary at or before ``pos``.

        Returns the removed letters (from that boundary to the current end);
        the caller re-feeds them, edited, to continue.
        """
        starts = self.starts
        n = len(starts)
        kept = bisect_right(starts, pos)
        while kept > 0:
            end = starts[kept] if kept < n else self.block_start
            if end <= pos:
                break
            kept -= 1
        boundary = (starts[kept] if kept < n else self.block_start)
        removed = bytes(self.buf[boundary:])
        del self.buf[boundary:]
        trie = self.trie
        for key in self.keys[kept:]:
            del trie[key]
        del starts[kept:]
        del self.keys[kept:]
        del self.preds[kept:]
        self.next_id = kept + 1
        self.node = 0
        self.block_start = boundary
        return removed

    def tail_pred(self) -> int:
        """Predecessor block index for the in-progress (duplicate) block."""
        node = 0
        get = self.trie.get
        for ch in self.buf[self.block_start:len(self.buf) - 1]:
            node = get((node << 1) | (ch & 1))
        return node - 1


@dataclass(frozen=True)
class Parsing:
    """The LZ-parsing of one word: ordered blocks plus the dictionary trie.

    ``starts`` covers every block including a possible trailing duplicate;
    ``preds[i]`` is the block index of block i minus its last letter (-1 when
    that prefix is the empty word).
    """

    data: bytes
    starts: list[int]
    preds: list[int]
    last_is_duplicate: bool

    @property
    def block_count(self) -> int:
        return len(self.starts)

    @property
    def dict_size(self) -> int:
        return len(self.starts) - (1 if self.last_is_duplicate else 0)

    def block_bounds(self, i: int) -> tuple[int, int]:
        start = self.starts[i]
        end = self.starts[i + 1] if i + 1 < len(self.starts) else len(self.data)
        return start, end

    def block_length(self, i: int) -> int:
        start, end = self.block_bounds(i)
        return end - start

    def block_bytes(self, i: int) -> bytes:
        start, end = self.block_bounds(i)
        return self.data[start:end]

    def blocks(self) -> list[bytes]:
        return [self.block_bytes(i) for i in range(len(self.starts))]

    def dictionary(self) -> set[bytes]:
        n = self.dict_size
        return {self.block_bytes(i) for i in range(n)}


def parse(w) -> Parsing:
    """Compute the unique LZ-parsing (empty word allowed)."""
    data = as_bits(w)
    sp = StreamParser()
    sp.feed(data)
    starts = list(sp.starts)
    preds = list(sp.preds)
    dup = sp.in_progress()
    if dup:
        starts.append(sp.block_start)
        preds.append(sp.tail_pred())
    return Parsing(data=data, starts=starts, preds=preds, last_is_duplicate=dup)


@dataclass(frozen=True)
class LzCode:
    """Pointer encoding of a parsing: one (predecessor, letter) pair per block.

    Predecessor -1 stands for the empty word.
    """

    entries: list[tuple[int, int]]

    def to_json_obj(self):
        return [{"pred": p, "letter": a} for p, a in self.entries]

    @classmethod
    def from_json_obj(cls, obj) -> "LzCode":
        return cls([(e["pred"], e["letter"]) for e in obj])


def encode(p: Parsing) -> LzCode:
    """Encode each block as (index of its predecessor block, last letter)."""
    entries = []
    data = p.data
    for i in range(p.block_count):
        start, end = p.block_bounds(i)
        entries.append((p.preds[i], data[end - 1] & 1))
    return LzCode(entries)


def decode(code: LzCode) -> Word:
    """Inverse of ``encode(parse(w))``; rejects forward references."""
    entries = code.entries
    lengths = []
    out = bytearray()
    for i, (pred, letter) in enumerate(entries):
        if type(pred) is not int or type(letter) is not int:
            raise MalformedCodeError(f"entry {i} is not a pair of ints: {(pred, letter)}")
        if pred >= i:
            raise MalformedCodeError(
                f"entry {i} references block {pred}, which does not exist yet")
        if pred < -1 or letter not in (0, 1):
            raise MalformedCodeError(f"entry {i} is malformed: {(pred, letter)}")
        length = 1 if pred == -1 else lengths[pred] + 1
        lengths.append(length)
        # rebuild the block by walking predecessor links, letters come out reversed
        letters = bytearray(length)
        j, at = length - 1, i
        while at != -1:
            letters[j] = 48 + entries[at][1]
            at = entries[at][0]
            j -= 1
        out.extend(letters)
    return Word(bytes(out))


def comp_ratio(w) -> float:
    """Compression ratio k*log2(k)/|w| with k the dictionary size."""
    data = as_bits(w)
    if not data:
        raise ParameterError("compression ratio is undefined for the empty word")
    k = parse(data).dict_size
    return ratio_from_counts(k, len(data))


def ratio_from_counts(dict_size: int, length: int) -> float:
    if dict_size <= 1:
        return 0.0
    return dict_size * math.log2(dict_size) / length


def factor_census(p: Parsing, i: int) -> int:
    """Number of distinct length-i factors occurring inside the blocks."""
    if i < 1:
        raise ParameterError("factor length must be >= 1")
    data = p.data
    seen = set()
    add = seen.add
    for b in range(p.block_count):
        start, end = p.block_bounds(b)
        for a in range(start, end - i + 1):
            add(data[a:a + i])
    return len(seen)


@dataclass(frozen=True)
class TreeStats:
    vertex_count: int
    depth_histogram: dict[int, int]
    max_depth: int


def tree_stats(p: Parsing) -> TreeStats:
    """Statistics of the parsing tree; a vertex's depth is its block's length."""
    hist = Counter({0: 1})
    max_depth = 0
    for i in range(p.dict_size):
        depth = p.block_length(i)
        hist[depth] += 1
        if depth > max_depth:
            max_depth = depth
    return TreeStats(vertex_count=p.dict_size + 1,
                     depth_histogram=dict(hist),
                     max_depth=max_depth)
