"""LZ'78 parsing: the unique left-to-right block partition of a word.

Each block extends a previously seen block by one letter.  The dictionary is
the set of distinct blocks; only the final block may duplicate an earlier one.

:class:`StreamParser` is the incremental parser that :func:`parse` and the
constructions feed.  It holds the dictionary and the blocks, never the
letters: those stay with the caller, and :func:`parse` returns its blocks as
lists over the caller's own bytes.  Its feed loop and its rollback
are the compiled kernel ``_kernel.c``, which :mod:`lz78lab.kernel` builds
when this module is imported.  When the kernel did not load (``_KERNEL`` is
None), the same methods run :func:`_feed_py` and :func:`_truncate_py`, line
for line transliterations of the kernel's ``lz78_feed`` and ``lz78_truncate``
over the same state and the same arrays; they are the fallback without a
compiler, and the tests run both modes, also on one parser.

:func:`certify` checks a claimed parse against the definition and uses no
parser code, so it checks either mode independently.  Its rules are one
loop over the blocks in word order: the kernel's ``lz78_certify``, which
shares no code with the feed loop, or without the kernel
:func:`_certify_py`, its line for line transliteration, which the tests
also run as its oracle.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ConstructionError, MalformedCodeError, ParameterError
from .words import Word, as_bits


_KERNEL = kernel.load()
MAX_NODES = 2 ** 31                # trie nodes the parser can number: ids are int32
FIRST_NODES = 1024                 # nodes fresh arrays hold; they double when full


class StreamParser:
    """Incremental LZ'78 parser: it keeps the dictionary, its caller the letters.

    The dictionary is a full binary trie in one flat int32 child array, one
    node per block: node ``t`` is completed block ``t - 1`` (the root is node
    0), and ``child[2t + a]`` is its child by letter ``a``, or 0 for none.
    The feed loop writes block ``t - 1``'s start and pred in place, at index
    ``t - 1`` of two int64 arrays of as many nodes, so the block count is the
    node count minus one.  The node of the in-progress block carries across
    calls, so no feed walks a block twice and feeding in pieces costs what
    feeding at once does.  A feed only walks the trie; ``position`` counts the letters.

    Supports rolling the parse back to an earlier position, which is what
    makes the adaptive constructions affordable: after an insertion only the
    suffix is re-parsed, never the whole word.  A rollback unlinks each
    removed block's node from its parent's child slot, then truncates the
    node count.
    """

    __slots__ = ("_state", "_ref", "_child", "_starts", "_preds")

    def __init__(self):
        st = self._state = kernel.State()
        self._ref = ctypes.addressof(st)
        self.reset()

    def reset(self) -> None:
        """Empty the parser into fresh arrays; the views that :attr:`starts`
        and :attr:`preds` gave out keep reading the old ones."""
        self._allocate(min(FIRST_NODES, MAX_NODES))
        st = self._state
        st.nodes = 1
        st.cur = st.pos = st.block_start = 0

    def _allocate(self, cap: int) -> None:
        """Point the state at fresh zeroed arrays of ``cap`` nodes."""
        self._child = (ctypes.c_int32 * (2 * cap))()
        self._starts, self._preds = (ctypes.c_int64 * cap)(), (ctypes.c_int64 * cap)()
        st = self._state
        st.child, st.starts, st.preds = map(ctypes.addressof,
                                            (self._child, self._starts, self._preds))
        st.node_cap = cap

    @property
    def starts(self) -> memoryview:
        """Start position of each completed block: a zero-copy view, valid until
        the next feed or rollback, which may write over it or leave it stale."""
        return _view(self._starts, "q")[:self._state.nodes - 1]

    @property
    def preds(self) -> memoryview:
        """Predecessor block of each completed block (-1 for the root), a view as ``starts``."""
        return _view(self._preds, "q")[:self._state.nodes - 1]

    @property
    def position(self) -> int:
        return self._state.pos

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
        first_new = self._state.nodes - 1
        if type(data) is not bytes:
            data = bytes(data)
        if _KERNEL is not None:
            feed, ref = _KERNEL.lz78_feed, self._ref
        else:
            feed, ref = _feed_py, self
        n = len(data)
        i = feed(ref, data, 0, n)
        while i < n:
            self._grow()
            i = feed(ref, data, i, n)
        return first_new

    def _grow(self) -> None:
        """Double the arrays; the node ids must stay int32."""
        st = self._state
        if st.node_cap >= MAX_NODES:
            raise ParameterError(
                f"the parse needs more than {MAX_NODES} dictionary nodes, "
                "beyond the parser's int32 node ids")
        old = self._child, self._starts, self._preds
        self._allocate(min(2 * st.node_cap, MAX_NODES))
        # 8 bytes a node in each: two int32 child slots, or one int64 entry
        for new, kept in zip((self._child, self._starts, self._preds), old):
            ctypes.memmove(new, kept, 8 * st.nodes)

    def rollback(self, pos: int) -> range:
        """Rewind to the last block boundary at or before ``pos``.

        Returns the positions of the removed letters, from that boundary to
        the old end; the caller feeds its letters from there on, edited, to
        continue.
        """
        starts = self.starts
        st = self._state
        kept = bisect_right(starts, pos)   # blocks that start at or before pos
        boundary = starts[kept] if kept < len(starts) else st.block_start
        if boundary > pos and kept:        # block kept - 1 ends after pos
            kept -= 1
            boundary = starts[kept]
        if _KERNEL is not None:
            _KERNEL.lz78_truncate(self._ref, kept)
        else:
            _truncate_py(self, kept)
        removed = range(boundary, st.pos)
        st.pos = st.block_start = boundary
        return removed

    def finish(self, data) -> "Parsing":
        """The parse of ``data``, the letters fed so far (kept as ``bytes``, a
        copy unless they are), the in-progress block as its trailing duplicate.
        The blocks are handed over as exact-size int64 copies, so none of the
        doubled arrays' slack outlives the parser, left empty as by :meth:`reset`."""
        count, dup = _close_duplicate(self)
        starts, preds = (memoryview(_view(array, "q")[:count].tobytes()).cast("q")
                         for array in (self._starts, self._preds))
        self.reset()                   # frees the trie before the letters are copied
        return Parsing(data=bytes(data), starts=starts, preds=preds, last_is_duplicate=dup)

    def tail_pred(self) -> int:
        """Predecessor block index for the in-progress (duplicate) block."""
        cur = self._state.cur          # the in-progress block repeats block cur - 1
        return self._preds[cur - 1] if cur else -1


def _view(array, fmt: str) -> memoryview:
    """A ctypes array as a memoryview whose items are Python ints."""
    return memoryview(array).cast("B").cast(fmt)


def _feed_py(sp: StreamParser, data: bytes, i: int, n: int) -> int:
    """``lz78_feed`` of ``_kernel.c`` in Python, over ``sp``'s state and
    arrays: feeds ``data[i:n]``, stops early when the arrays are full, and
    returns the index of the first letter not consumed."""
    s = sp._state
    child = _view(sp._child, "i")
    starts, preds = _view(sp._starts, "q"), _view(sp._preds, "q")
    nodes, cur, block_start = s.nodes, s.cur, s.block_start
    node_cap = s.node_cap
    base = s.pos - i                   # position of data[0]
    for i, letter in enumerate(memoryview(data)[i:n], i):
        slot = 2 * cur + (letter & 1)
        if nxt := child[slot]:
            cur = nxt
            continue
        if nodes == node_cap:
            break
        child[slot] = nodes
        starts[nodes - 1] = block_start
        preds[nodes - 1] = cur - 1
        nodes += 1
        block_start = base + i + 1
        cur = 0
    else:
        i = n
    s.nodes, s.cur, s.block_start = nodes, cur, block_start
    s.pos = base + i
    return i


def _truncate_py(sp: StreamParser, kept: int) -> None:
    """``lz78_truncate`` of ``_kernel.c`` in Python: drops the blocks from
    block ``kept`` on, unlinking each one's node from its parent's slot."""
    s = sp._state
    child = _view(sp._child, "i")
    preds = sp._preds
    for t in range(s.nodes - 1, kept, -1):
        slot = 2 * (preds[t - 1] + 1)
        child[slot + (child[slot + 1] == t)] = 0
    s.nodes = kept + 1
    s.cur = 0


def _close_duplicate(sp: StreamParser) -> tuple[int, bool]:
    """Close ``sp``'s in-progress block as the trailing duplicate, written at
    index ``nodes - 1``, which a later feed writes over.  Returns the block
    count with it, and whether there was one."""
    st = sp._state
    count, dup = st.nodes - 1, st.cur != 0
    if dup:
        sp._starts[count] = st.block_start
        sp._preds[count] = sp.tail_pred()
    return count + dup, dup


@dataclass(frozen=True)
class Parsing:
    """The LZ-parsing of one word: its blocks in order, each a start and a pred.

    ``starts`` covers every block including a possible trailing duplicate;
    ``preds[i]`` is the block index of block i minus its last letter (-1 when
    that prefix is the empty word), so the preds encode the dictionary trie.
    :func:`parse` hands out lists over the caller's bytes;
    :meth:`StreamParser.finish` hands over exact-size int64 copies of its
    parser's block arrays over its caller's letters, so a construction's
    ``ConstructedWord.red`` holds 8 bytes a block, not a list's 36.
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
    """Compute the unique LZ-parsing (empty word allowed).  Its ``data`` is the
    caller's validated letters, not a copy: ``w`` itself for ``bytes`` and
    ``w.data`` for a ``Word``.  ``starts`` and ``preds`` are lists."""
    data = as_bits(w)
    sp = StreamParser()
    sp.feed(data)
    count, dup = _close_duplicate(sp)
    starts, preds = sp._starts, sp._preds
    del sp                             # frees the trie before the lists are built
    return Parsing(data=data, starts=starts[:count], preds=preds[:count],
                   last_is_duplicate=dup)


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
    ``ConstructionError`` naming the first block, in word order, that breaks
    a rule.  Uses no parser code, so it checks the parser independently.
    Rules 1 to 3 are one pass over the blocks, the kernel's ``lz78_certify``
    or without it :func:`_certify_py`, so either mode gives the same result.
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

    # zero-copy views of int64 claims, as a finished parser's, contiguous for the kernel
    first, pred = (np.ascontiguousarray(c, dtype=np.int64) for c in (starts, preds))
    seen = np.zeros(2 * count, dtype=np.uint8)
    if _KERNEL is not None:
        code = _KERNEL.lz78_certify(data, len(data), first.ctypes.data, pred.ctypes.data,
                                    count, seen.ctypes.data)
    else:
        code = _certify_py(data, len(data), memoryview(first), memoryview(pred), count,
                           memoryview(seen))
    block, rule = divmod(code, 4)
    dup = code == 4 * count - 1        # rule 3 at the last block: the trailing duplicate
    if block == count or dup:
        if bool(last_is_duplicate) == dup:
            return Parsing(data=data, starts=starts, preds=preds, last_is_duplicate=dup)
        block, reason = count - 1, ("repeats an earlier block, but is not claimed to" if dup
                                    else "is claimed to repeat an earlier block, but is new")
    elif rule == 1:                    # block 0 breaks it first when starts[0] != 0
        reason = "does not start at 0" if starts[0] != 0 else "is empty or ends past the word"
    elif rule == 3:
        reason = "repeats an earlier block"
    elif not -1 <= (q := preds[block]) < block:
        reason = f"has pred {q}, which is neither -1 nor an earlier block"
    else:
        reason = (f"minus its last letter is not block {q}" if q >= 0
                  else "has pred -1 but is longer than one letter")
    raise ConstructionError(f"block {block} of the claimed parse {reason}",
                            {"block": int(block), "start": int(starts[block])})


def _certify_py(data: bytes, n: int, starts, preds, count: int, seen) -> int:
    """``lz78_certify`` of ``_kernel.c`` in Python, over the same arguments:
    returns 4 i + rule for the first block i that breaks a rule of
    :func:`certify`, else 4 count."""
    for i in range(count):
        a, b, q = starts[i], starts[i + 1] if i + 1 < count else n, preds[i]
        if (i == 0 and a != 0) or b <= a or b > n:
            return 4 * i + 1
        if (q < -1 or q >= i or b - a != (0 if q < 0 else starts[q + 1] - starts[q]) + 1
                or (q >= 0 and data[a:b - 1] != data[starts[q]:starts[q] + b - a - 1])):
            return 4 * i + 2
        key = 2 * (q + 1) + (data[b - 1] & 1)
        if seen[key]:
            return 4 * i + 3
        seen[key] = 1
    return 4 * count


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
        """The code that :meth:`to_json_obj` wrote; :func:`decode` checks the values."""
        if type(obj) is not list:
            raise MalformedCodeError(f"the code must be a list, not {type(obj).__name__}")
        for i, e in enumerate(obj):
            if type(e) is not dict or not e.keys() >= {"pred", "letter"}:
                raise MalformedCodeError(f"entry {i} is not a pred/letter object: {e!r:.40}")
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
