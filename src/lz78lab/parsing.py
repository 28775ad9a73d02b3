"""LZ'78 parsing: the unique left-to-right block partition of a word.

Each block extends a previously seen block by one letter.  The dictionary is
the set of distinct blocks; only the final block may duplicate an earlier one.

``StreamParser`` is the incremental parser that :func:`parse` and the
constructions feed.  It is one of two classes with the same surface and the
same results:

- :class:`KernelStreamParser` runs the feed loop of the compiled kernel
  ``_kernel.c`` over a flat int32 child array, one trie node per block.
  :mod:`lz78lab.kernel` builds the kernel when this module is imported, and
  ``StreamParser`` is this class whenever the kernel loads.
- :class:`PyStreamParser` is pure Python.  It keeps the dictionary in two
  tiers: blocks of at most ``TRIE_DEPTH`` letters in a list trie walked
  letter by letter, longer blocks in a dict keyed by their bytes and found by
  galloping over hashed prefixes.  It is the fallback when no compiler is
  present, and the reference the kernel is tested against.

:func:`certify` checks a claimed parse against the definition and uses no
parser code, so it checks either class independently.  Its rules run in
numpy, but for rule 2's letter comparison: the kernel's
``lz78_first_mismatch``, which shares no code with the feed loop, or without
the kernel a Python loop, which the tests also run as its oracle.
"""

from __future__ import annotations

import ctypes
import math
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import kernel
from .errors import ConstructionError, MalformedCodeError, ParameterError
from .words import Word, as_bits


# Blocks of at most this many letters live in the list trie; longer ones are
# found by probing the dict of long blocks (see PyStreamParser).
TRIE_DEPTH = 8


class PyStreamParser:
    """Incremental LZ'78 parser over an append-only letter stream.

    The dictionary has two tiers.  A block of at most ``TRIE_DEPTH`` letters
    is a node of a trie held in two child lists, ``c0`` and ``c1``: node
    ``t`` is completed block ``t - 1`` (the root is node 0), and
    ``c0[t]``/``c1[t]`` is its child by letter 0/1, or 0 for none.  A longer
    block is a key of ``long_blocks``, its bytes mapped to its block index.
    Every block, the in-progress one included, is walked from its start:
    letter by letter down the trie, and once that reaches depth
    ``TRIE_DEPTH``, on in ``long_blocks``.  The blocks longer than
    ``TRIE_DEPTH`` are closed under taking prefixes longer than
    ``TRIE_DEPTH`` (the dictionary is prefix-closed), so the longest one that
    prefixes the rest of the stream is found by galloping from the previous
    long match length and bisecting.  A long block then costs a few hashed
    slices instead of one lookup per letter.

    Supports rolling the parse back to an earlier position, which is what
    makes the adaptive constructions affordable: after an insertion only the
    suffix is re-parsed, never the whole word.  Blocks, trie nodes and
    ``long_blocks`` entries are all created in block order, and a rollback
    removes a suffix of them: it unlinks each removed short block from its
    trie parent and pops the removed long blocks off the end of
    ``long_blocks``, without hashing their bytes.
    """

    __slots__ = ("buf", "c0", "c1", "long_blocks", "starts", "preds", "block_start")

    def __init__(self):
        self.buf = bytearray()
        self.c0 = [0]          # child by letter 0 of each trie node
        self.c1 = [0]          # child by letter 1 of each trie node
        self.long_blocks = {}  # bytes of each block longer than TRIE_DEPTH -> index
        self.starts = []       # start position of each completed block
        self.preds = []        # predecessor block index (-1 for the root)
        self.block_start = 0   # start position of the in-progress block

    def reset(self) -> None:
        self.buf.clear()
        self.c0[:] = self.c1[:] = [0]
        self.long_blocks.clear()
        self.starts.clear()
        self.preds.clear()
        self.block_start = 0

    @property
    def position(self) -> int:
        return len(self.buf)

    def in_progress(self) -> bool:
        return self.block_start != len(self.buf)

    def feed(self, data) -> int:
        """Consume letters; returns the index of the first newly completed block.

        ``data`` holds the letters as the bytes ``b"0"`` and ``b"1"``.  A call
        walks the in-progress block again from its start, so feed long pieces
        rather than single letters.
        """
        starts = self.starts
        preds = self.preds
        c0 = self.c0
        c1 = self.c1
        kids = [c0, c1] * 128          # kids[letter] is the child list of letter & 1
        get = self.long_blocks.get
        first_new = len(starts)
        buf = self.buf
        origin = self.block_start
        text = bytes(buf[origin:]) + data   # the in-progress block, then the new letters
        buf.extend(data)
        n = len(text)
        view = memoryview(text)
        bs = j = node = 0              # block start in text, next letter, trie node
        guess = TRIE_DEPTH + 1
        while True:
            for j, ch in enumerate(view[j:], j):
                child = kids[ch][node]
                if child:
                    node = child
                elif j - bs < TRIE_DEPTH:
                    kids[ch][node] = len(c0)
                    c0.append(0)
                    c1.append(0)
                    starts.append(origin + bs)
                    preds.append(node - 1)
                    bs = j + 1
                    node = 0
                else:
                    break              # the match goes on in the long tier
            else:
                break
            # text[bs:bs+lo] is block lo_id; find the longest block it extends to
            lo, lo_id = TRIE_DEPTH, node - 1
            hi = n - bs + 1            # lengths >= hi are out of reach
            t, step = (guess if guess > lo else lo + 1), 1
            while hi - lo > 1:
                if not lo < t < hi:
                    t = (lo + hi) // 2
                idx = get(text[bs:bs + t])
                if idx is None:
                    hi, t = t, t - step
                else:
                    lo, lo_id, t = t, idx, t + step
                step <<= 1
            if bs + lo == n:
                break                  # the rest of the stream is a known block
            guess = lo
            self.long_blocks[text[bs:bs + lo + 1]] = len(starts)
            c0.append(0)
            c1.append(0)
            starts.append(origin + bs)
            preds.append(lo_id)
            bs = j = bs + lo + 1
            node = 0
        self.block_start = origin + bs
        return first_new

    def rollback(self, pos: int) -> bytes:
        """Rewind to the last block boundary at or before ``pos``.

        Returns the removed letters (from that boundary to the current end);
        the caller re-feeds them, edited, to continue.
        """
        starts = self.starts
        preds = self.preds
        buf = self.buf
        kept = bisect_right(starts, pos)   # blocks that start at or before pos
        boundary = starts[kept] if kept < len(starts) else self.block_start
        if boundary > pos and kept:        # block kept - 1 ends after pos
            kept -= 1
            boundary = starts[kept]
        kids = [self.c0, self.c1] * 128
        long_count = 0
        for start, end, pred in zip(starts[kept:], starts[kept + 1:] + [self.block_start],
                                    preds[kept:]):
            if end - start > TRIE_DEPTH:
                long_count += 1
            else:
                kids[buf[end - 1]][pred + 1] = 0
        # the removed long blocks are the last entries of long_blocks
        popitem = self.long_blocks.popitem
        for _ in range(long_count):
            popitem()
        removed = bytes(buf[boundary:])
        del buf[boundary:]
        del starts[kept:], preds[kept:]
        del self.c0[kept + 1:], self.c1[kept + 1:]
        self.block_start = boundary
        return removed

    def finish(self) -> "Parsing":
        """The parse of the letters fed so far, the in-progress block as its
        trailing duplicate.  The block lists are handed over, not copied, and
        the parser is left empty, as after :meth:`reset`."""
        dup = self.in_progress()
        if dup:
            self.preds.append(self.tail_pred())
            self.starts.append(self.block_start)
        starts, preds = self.starts, self.preds
        self.starts, self.preds = [], []
        self.long_blocks.clear()       # freed before the letters are copied
        data = bytes(self.buf)
        self.reset()
        return Parsing(data=data, starts=starts, preds=preds, last_is_duplicate=dup)

    def tail_pred(self) -> int:
        """Predecessor block index for the in-progress (duplicate) block."""
        head = bytes(self.buf[self.block_start:-1])
        if len(head) > TRIE_DEPTH:
            return self.long_blocks[head]
        kids = [self.c0, self.c1] * 128
        node = 0
        for ch in head:
            node = kids[ch][node]
        return node - 1


_KERNEL = kernel.load()
MAX_NODES = 2 ** 31                # trie nodes the kernel can number: ids are int32
FIRST_NODES = 1024                 # nodes a fresh child array holds; it doubles when full
NEW_BLOCKS = 256                   # blocks one kernel call hands back at most


class KernelStreamParser:
    """Incremental LZ'78 parser whose feed loop is the compiled kernel.

    The surface and the results are those of :class:`PyStreamParser`.  The
    dictionary is a full binary trie in one flat int32 child array, one node
    per block: node ``t`` is completed block ``t - 1`` (the root is node 0),
    and ``child[2t + a]`` is its child by letter ``a``, or 0 for none.  The
    node of the in-progress block carries across calls, so no feed walks a
    block twice and feeding in pieces costs what feeding at once does.
    ``starts`` and ``preds`` are ``array('q')``, 8 bytes a block.

    A rollback unlinks each removed block's node from its parent's child
    slot, then truncates the node count and the block arrays.
    """

    __slots__ = ("buf", "starts", "preds", "_state", "_ref", "_child", "_new")

    def __init__(self):
        self.buf = bytearray()
        self.starts = array("q")     # start position of each completed block
        self.preds = array("q")      # predecessor block index (-1 for the root)
        # the starts, then the preds, of the blocks one kernel call completes,
        # drained into starts and preds after the call
        self._new = array("q", bytes(16 * NEW_BLOCKS))
        new = self._new.buffer_info()[0]
        st = self._state = kernel.State(new_starts=new, new_preds=new + 8 * NEW_BLOCKS,
                                        new_cap=NEW_BLOCKS)
        self._ref = ctypes.addressof(st)
        self.reset()

    def reset(self) -> None:
        self.buf.clear()
        del self.starts[:], self.preds[:]
        cap = min(FIRST_NODES, MAX_NODES)
        self._child = (ctypes.c_int32 * (2 * cap))()
        st = self._state
        st.child = ctypes.addressof(self._child)
        st.node_cap, st.nodes = cap, 1
        st.cur = st.pos = st.block_start = 0

    @property
    def position(self) -> int:
        return len(self.buf)

    @property
    def block_start(self) -> int:
        """Start position of the in-progress block."""
        return self._state.block_start

    @property
    def child(self) -> list[int]:
        """The child slots of the nodes in use, two per node."""
        return self._child[:2 * self._state.nodes]

    def in_progress(self) -> bool:
        return self._state.cur != 0

    def feed(self, data) -> int:
        """Consume letters; returns the index of the first newly completed block.

        ``data`` holds the letters as the bytes ``b"0"`` and ``b"1"``.
        """
        starts = self.starts
        first_new = len(starts)
        if type(data) is not bytes:
            data = bytes(data)
        self.buf += data
        st = self._state
        feed = _KERNEL.lz78_feed
        n = len(data)
        i = 0
        while True:
            i = feed(self._ref, data, i, n)
            count = st.new_count
            if count:
                new = self._new
                starts += new[:count]
                self.preds += new[NEW_BLOCKS:NEW_BLOCKS + count]
                st.new_count = 0
            if i == n:
                return first_new
            if st.nodes == st.node_cap:
                self._grow()

    def _grow(self) -> None:
        """Double the child array; the node ids must stay int32."""
        st = self._state
        if st.node_cap >= MAX_NODES:
            del self.buf[st.pos:]      # the letters not parsed are not kept
            raise ParameterError(
                f"the parse needs more than {MAX_NODES} dictionary nodes, "
                "beyond the parse kernel's int32 node ids")
        cap = min(2 * st.node_cap, MAX_NODES)
        child = (ctypes.c_int32 * (2 * cap))()
        ctypes.memmove(child, self._child, 8 * st.nodes)
        self._child = child
        st.child = ctypes.addressof(child)
        st.node_cap = cap

    def rollback(self, pos: int) -> bytes:
        """Rewind to the last block boundary at or before ``pos``.

        Returns the removed letters (from that boundary to the current end);
        the caller re-feeds them, edited, to continue.
        """
        starts = self.starts
        st = self._state
        kept = bisect_right(starts, pos)   # blocks that start at or before pos
        boundary = starts[kept] if kept < len(starts) else st.block_start
        if boundary > pos and kept:        # block kept - 1 ends after pos
            kept -= 1
            boundary = starts[kept]
        _KERNEL.lz78_truncate(self._ref, self.preds.buffer_info()[0], kept)
        removed = bytes(self.buf[boundary:])
        del self.buf[boundary:]
        del starts[kept:], self.preds[kept:]
        st.pos = st.block_start = boundary
        return removed

    def finish(self) -> "Parsing":
        """The parse of the letters fed so far, the in-progress block as its
        trailing duplicate.  The block arrays are handed over, not copied, and
        the parser is left empty, as after :meth:`reset`."""
        dup = self.in_progress()
        if dup:
            self.preds.append(self.tail_pred())
            self.starts.append(self.block_start)
        starts, preds, buf = self.starts, self.preds, self.buf
        self.starts, self.preds, self.buf = array("q"), array("q"), bytearray()
        self.reset()                   # frees the trie before the letters are copied
        return Parsing(data=bytes(buf), starts=starts, preds=preds, last_is_duplicate=dup)

    def tail_pred(self) -> int:
        """Predecessor block index for the in-progress (duplicate) block."""
        cur = self._state.cur          # the in-progress block repeats block cur - 1
        return self.preds[cur - 1] if cur else -1


StreamParser = KernelStreamParser if _KERNEL is not None else PyStreamParser


@dataclass(frozen=True)
class Parsing:
    """The LZ-parsing of one word: ordered blocks plus the dictionary trie.

    ``starts`` covers every block including a possible trailing duplicate;
    ``preds[i]`` is the block index of block i minus its last letter (-1 when
    that prefix is the empty word).  :func:`parse` hands them out as lists;
    :meth:`StreamParser.finish` hands over its parser's own, ``array('q')``
    from the kernel parser, so a construction's ``ConstructedWord.red`` holds
    8 bytes a block where a list of ints takes about 36.
    """

    data: bytes
    starts: Sequence[int]
    preds: Sequence[int]
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
    sp = StreamParser()
    sp.feed(as_bits(w))
    p = sp.finish()
    if type(p.starts) is array:        # the kernel's arrays, as the lists parse hands out
        p = Parsing(p.data, p.starts.tolist(), p.preds.tolist(), p.last_is_duplicate)
    return p


def certify(data: bytes, starts, preds, last_is_duplicate: bool) -> Parsing:
    """Accept a claimed parse of ``data`` exactly when it is the LZ'78 parse.

    The claim is read as :class:`Parsing` holds a parse, and checked against
    the definition (Ziv and Lempel 1978) rather than recomputed:

    1. the blocks tile ``data``: ``starts[0] == 0`` and the starts strictly
       increase below ``len(data)``;
    2. block i minus its last letter is block ``preds[i] < i``, or empty
       when ``preds[i] == -1``;
    3. no block but the last repeats an earlier one;
    4. ``last_is_duplicate`` says whether the last one does.

    Greedy matching follows, because the dictionary is prefix-closed: a
    dictionary word longer than block i minus its last letter that prefixed
    the rest of the word would have block i as a prefix, so block i would
    repeat an earlier block.  Given rule 2, two blocks are equal exactly when
    their (pred, last letter) pairs are, so rule 3 is checked on integer keys.
    Returns the accepted parse, sharing the given lists; raises
    ``ConstructionError`` naming the first block that breaks a rule.  Uses
    no parser code, so it checks the parser independently.  Rule 2's letters
    are compared by the kernel's ``lz78_first_mismatch`` when the kernel is
    loaded, else by a Python loop; both stop at the same block, so the result
    and the error are the same either way.
    """
    data = as_bits(data)
    count = len(starts)
    if len(preds) != count:
        raise ConstructionError(f"the parse claims {count} starts but {len(preds)} preds")
    if not count:
        if data or last_is_duplicate:
            raise ConstructionError("the parse claims no blocks for a non-empty word"
                                    if data else "the empty word has no duplicate block")
        return Parsing(data=data, starts=starts, preds=preds, last_is_duplicate=False)

    def bad(i, rule) -> ConstructionError:
        return ConstructionError(f"block {i} of the claimed parse {rule}",
                                 {"block": int(i), "start": int(starts[i])})

    if starts[0] != 0:
        raise bad(0, "does not start at 0")
    # zero-copy views of array('q') claims, contiguous int64 for the kernel
    first = np.ascontiguousarray(starts, dtype=np.int64)
    length = np.diff(first, append=len(data))
    short = np.flatnonzero(length < 1)
    if short.size:
        raise bad(short[0], "is empty or ends past the word")
    # rule 2: limit is the first block whose pred is out of range, whose
    # length is not its pred's plus one, or whose letters differ from it
    pred = np.ascontiguousarray(preds, dtype=np.int64)
    known = (pred >= -1) & (pred < np.arange(count))
    base = np.where(known & (pred >= 0), length[np.clip(pred, 0, count - 1)], 0)
    wrong = np.flatnonzero(~known | (length != base + 1))
    limit = int(wrong[0]) if wrong.size else count
    # the blocks below limit tile data and are one letter longer than their
    # preds, so the kernel's compares stay in bounds
    if _KERNEL is not None:
        limit = _KERNEL.lz78_first_mismatch(data, len(data), first.ctypes.data,
                                            pred.ctypes.data, count, limit)
    else:
        ends = chain(islice(starts, 1, None), (len(data),))
        for i, a, b, q in zip(range(limit), starts, ends, preds):
            if q >= 0 and data[a:b - 1] != data[starts[q]:starts[q + 1]]:
                limit = i
                break
    # rule 3: again is the first block below limit whose (pred, last letter)
    # pair repeats.  Below limit the keys lie in [0, 2 * limit), so a count
    # finds the blocks that share a key, and only those are sorted
    letters = np.frombuffer(data, dtype=np.uint8)[first[:limit] + length[:limit] - 1] & 1
    keys = 2 * (pred[:limit] + 1) + letters
    shared = np.flatnonzero(np.bincount(keys)[keys] > 1)
    order = shared[np.argsort(keys[shared], kind="stable")]
    repeat = order[1:][keys[order[1:]] == keys[order[:-1]]]
    again = int(repeat.min()) if repeat.size else count
    if again < min(limit, count - 1):
        raise bad(again, "repeats an earlier block")
    if limit < count:
        q = preds[limit]
        if not known[limit]:
            raise bad(limit, f"has pred {q}, which is neither -1 nor an earlier block")
        raise bad(limit, f"minus its last letter is not block {q}" if q >= 0
                  else "has pred -1 but is longer than one letter")
    dup = again == count - 1
    if bool(last_is_duplicate) != dup:
        raise bad(count - 1, "repeats an earlier block, but is not claimed to" if dup
                  else "is claimed to repeat an earlier block, but is new")
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
    blocks = [b""]                     # blocks[j + 1] is block j, blocks[0] empty
    for i, (pred, letter) in enumerate(code.entries):
        if type(pred) is not int or type(letter) is not int:
            raise MalformedCodeError(f"entry {i} is not a pair of ints: {(pred, letter)}")
        if pred >= i:
            raise MalformedCodeError(
                f"entry {i} references block {pred}, which does not exist yet")
        if pred < -1 or letter not in (0, 1):
            raise MalformedCodeError(f"entry {i} is malformed: {(pred, letter)}")
        blocks.append(blocks[pred + 1] + (b"1" if letter else b"0"))
    return Word(b"".join(blocks))


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
