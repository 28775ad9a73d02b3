"""LZ'78 parsing: the unique left-to-right block partition of a word.

Each block extends a previously seen block by one letter.  The dictionary is
the set of distinct blocks; only the final block may duplicate an earlier one.

:class:`StreamParser` is the incremental parser that :func:`parse` and the
constructions feed.  It holds the dictionary and the blocks, never the
letters: those stay with the caller, as ``bytes`` or as the runs of a
:class:`~lz78lab.words.Table`, which is fed a slice at a time.  The parse
of the letters fed so far is its completed blocks plus the in-progress block
closed as the trailing duplicate, and one method closes it,
:meth:`StreamParser.closed_blocks`, for :func:`parse` (lists over the
caller's own letters), :meth:`StreamParser.finish` and the censuses of the
constructions.  Its feed loop and its rollback
are the compiled kernel ``_kernel.c``, which :mod:`lz78lab.kernel` builds
when this module is imported.  When the kernel did not load (``_KERNEL`` is
None), the same methods run :func:`_feed_py` and :func:`_truncate_py`, line
for line transliterations of the kernel's ``lz78_feed`` and ``lz78_truncate``
over the same state and the same arrays; they are the fallback without a
compiler, and the tests run both modes, also on one parser.

:func:`certify` checks a claimed parse against the definition and uses no
parser code, so it checks either mode independently.  Its rules are one
loop over the blocks in word order, over the word's table of runs (a plain
word is one run): the kernel's ``lz78_certify``, which shares no code with
the feed loop, or without the kernel :func:`_certify_py`, its line for line
transliteration, which the tests also run as its oracle.
"""

from __future__ import annotations

import ctypes
import math
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import ConstructionError, MalformedCodeError, ParameterError
from .words import SLICE, Table, Word, as_bits


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
        self._bind(cap)

    def _bind(self, cap: int) -> None:
        """Point the state at the parser's arrays, of ``cap`` nodes."""
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
    def child(self) -> memoryview:
        """The child slots of the nodes in use, two per node, a view as ``starts``."""
        return _view(self._child, "i")[:2 * self._state.nodes]

    def feed(self, data) -> int:
        """Consume letters; returns the index of the first newly completed block.

        ``data`` holds the letters as the bytes ``b"0"`` and ``b"1"``: ``bytes``
        are read in place, and any other buffer (a ``bytearray``, a
        ``memoryview``) is copied ``words.SLICE`` letters at a time.
        """
        first_new = self._state.nodes - 1
        if _KERNEL is not None:
            feed, ref = _KERNEL.lz78_feed, self._ref
        else:
            feed, ref = _feed_py, self
        if type(data) is bytes:
            pieces = (data,)
        else:
            view = memoryview(data)
            pieces = (bytes(view[lo:lo + SLICE]) for lo in range(0, len(view), SLICE))
        for piece in pieces:
            n = len(piece)
            i = feed(ref, piece, 0, n)
            while i < n:
                self._grow()
                i = feed(ref, piece, i, n)
            del piece                  # before the next slice is copied
        return first_new

    def _grow(self) -> None:
        """Double the arrays one at a time, each old one dropped once it is
        copied, so no more than one is held twice; the node ids must stay
        int32."""
        st = self._state
        if st.node_cap >= MAX_NODES:
            raise ParameterError(
                f"the parse needs more than {MAX_NODES} dictionary nodes, "
                "beyond the parser's int32 node ids")
        cap = min(2 * st.node_cap, MAX_NODES)
        for name in ("_child", "_starts", "_preds"):
            old = getattr(self, name)
            new = (old._type_ * (old._length_ // st.node_cap * cap))()
            # 8 bytes a node in each: two int32 child slots, or one int64 entry
            ctypes.memmove(new, old, 8 * st.nodes)
            setattr(self, name, new)
            del old, new
        self._bind(cap)

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

    def closed_blocks(self) -> tuple[memoryview, memoryview, bool]:
        """The starts and preds of the parse of the letters fed so far, and
        whether its last block is a duplicate: the completed blocks, then the
        in-progress block, if any, closed as the trailing duplicate.  That one
        is written at index ``nodes - 1``, the slot of the next completed
        block, so the state is unchanged and feeding may go on.  Views, valid
        as long as those of :attr:`starts`."""
        st = self._state
        count, cur = st.nodes - 1, st.cur
        starts, preds = _view(self._starts, "q"), _view(self._preds, "q")
        if cur:                        # the in-progress block repeats block cur - 1
            starts[count], preds[count] = st.block_start, preds[cur - 1]
            count += 1
        return starts[:count], preds[:count], cur != 0

    def finish(self, data) -> "Parsing":
        """The parse of ``data``, the letters fed so far as the caller holds
        them (``bytes`` or a :class:`~lz78lab.words.Table`, not copied), as
        :meth:`closed_blocks` closes it.  The blocks are handed over as
        exact-size int64 copies, so none of the doubled arrays' slack
        outlives the parser, left empty as by :meth:`reset`.  The child array
        is dropped first and each block array once it is copied, so the
        doubled arrays and the copies are never all held at once."""
        starts, preds, dup = self.closed_blocks()
        count = len(starts)
        del starts, preds              # views: they would keep the arrays alive
        self._child = None
        blocks = []
        for name in ("_starts", "_preds"):
            blocks.append(memoryview(_view(getattr(self, name), "q")[:count].tobytes()).cast("q"))
            setattr(self, name, None)
        self.reset()
        return Parsing(data, *blocks, dup)


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


class Parsing(NamedTuple):
    """The LZ-parsing of one word: its blocks in order, each a start and a pred.

    ``starts`` covers every block including a possible trailing duplicate;
    ``preds[i]`` is the block index of block i minus its last letter (-1 when
    that prefix is the empty word), so the preds encode the dictionary trie.
    ``data`` is the parsed word as its caller holds it: ``bytes``, or a
    :class:`~lz78lab.words.Table` of runs for a constructed word, whose
    letters are never joined.  Both are read from
    :meth:`StreamParser.closed_blocks`: :func:`parse` hands them out as
    lists; :meth:`StreamParser.finish` hands over exact-size int64 copies,
    so a construction's ``ConstructedWord.red`` holds 8 bytes a block, not a
    list's 36.  A named tuple built positionally, so a
    short parse pays a tuple's set-up, not a dataclass's per-field one.
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


def parse(w) -> Parsing:
    """Compute the unique LZ-parsing (empty word allowed).  Its ``data`` is the
    caller's validated letters, not a copy: ``w`` itself for ``bytes`` and
    for a :class:`~lz78lab.words.Table`, which is fed a slice at a time, and
    ``w.data`` for a ``Word``.  ``starts`` and ``preds`` are lists."""
    sp = _spare()
    if isinstance(w, Table):
        data = w
        for piece in w.slices():
            sp.feed(piece)
    else:
        data = as_bits(w)
        sp.feed(data)
    starts, preds, dup = sp.closed_blocks()
    if sp._state.node_cap != FIRST_NODES:
        sp = None                      # frees a grown trie before the lists are built
    p = Parsing(data, starts.tolist(), preds.tolist(), dup)
    if sp is not None:
        _keep(sp)                      # only once its arrays are read
    return p


# parsers whose arrays never grew, emptied, for the next parse or dict_size:
# a fresh parser's set-up, a State and three zeroed arrays, is a quarter of a
# short word's parse.  list pop and append are atomic under the GIL, so
# threads never share one
_SPARES: list[StreamParser] = []


def _spare() -> StreamParser:
    try:
        return _SPARES.pop()           # no test first: another thread may pop between
    except IndexError:
        return StreamParser()


def _keep(sp: StreamParser) -> None:
    """Empty ``sp`` and keep it as a spare, unless its arrays grew: then it
    is dropped, so a long parse's arrays do not outlive it.  Every used
    slot is unlinked, as a rollback to the start would, so all are 0 again.
    A parser whose feed raised never gets here."""
    st = sp._state
    if st.node_cap != FIRST_NODES:
        return
    if _KERNEL is not None:
        _KERNEL.lz78_truncate(sp._ref, 0)
    else:
        _truncate_py(sp, 0)
    st.pos = st.block_start = 0
    _SPARES.append(sp)


def certify(data, starts, preds, last_is_duplicate: bool) -> Parsing:
    """Accept a claimed parse of ``data`` exactly when it is the LZ'78 parse.

    ``data`` is a word, or a :class:`~lz78lab.words.Table` whose runs are
    read where they lie: a plain word is checked as a table of one run.

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
    Returns the accepted parse over ``data`` (its letters checked when it
    is not a table), sharing the given lists; raises ``ConstructionError``
    naming the first block, in word order, that breaks a rule.  Uses no
    parser code, so it checks the parser independently.  Rules 1 to 3 are
    one pass over the blocks, the kernel's ``lz78_certify`` or without it
    :func:`_certify_py`, so either mode gives the same result.
    """
    if isinstance(data, Table):
        table = data
    else:
        data = as_bits(data)
        table = Table(data)
    count = len(starts)
    if len(preds) != count:
        raise ConstructionError(f"the parse claims {count} starts but {len(preds)} preds")
    if not count:
        if len(table) or last_is_duplicate:
            raise ConstructionError("the parse claims no blocks for a non-empty word"
                                    if len(table) else "the empty word has no duplicate block")
        return Parsing(data, starts, preds, False)

    # zero-copy views of int64 claims, as a finished parser's, contiguous for the kernel
    first, pred = (np.ascontiguousarray(c, dtype=np.int64) for c in (starts, preds))
    seen = np.zeros(2 * count, dtype=np.uint8)
    runs, nruns = table.sources(), len(table.bounds) - 1
    if _KERNEL is not None:
        at = _addresses(runs)
        code = _KERNEL.lz78_certify(at.buffer_info()[0], table.bounds.buffer_info()[0], nruns,
                                    first.ctypes.data, pred.ctypes.data, count,
                                    seen.ctypes.data)
    else:
        code = _certify_py(runs, table.bounds, nruns, memoryview(first), memoryview(pred),
                           count, memoryview(seen))
    block, rule = divmod(code, 4)
    dup = code == 4 * count - 1        # rule 3 at the last block: the trailing duplicate
    if block == count or dup:
        if bool(last_is_duplicate) == dup:
            return Parsing(data, starts, preds, dup)
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


def _addresses(runs) -> array:
    """The address of each run's letters, read in place (``runs`` keeps them
    alive), looked up once for each stretch of runs over equal words, which
    hold the same letters: the regulars of a chain share its x."""
    at = array("Q")
    for run, stretch in groupby(runs):
        at.extend(repeat(ctypes.cast(run, ctypes.c_void_p).value, len(list(stretch))))
    return at


def _certify_py(runs, bounds, nruns: int, starts, preds, count: int, seen) -> int:
    """``lz78_certify`` of ``_kernel.c`` in Python, over the same arguments,
    ``runs`` the runs' words: returns 4 i + rule for the first block i that
    breaks a rule of :func:`certify`, else 4 count.  ``bisect_right`` over
    the first ``nruns`` bounds is the kernel's ``lz78_run``."""
    n, r = bounds[nruns], 0
    for i in range(count):
        a, b, q = starts[i], starts[i + 1] if i + 1 < count else n, preds[i]
        if (i == 0 and a != 0) or b <= a or b > n:
            return 4 * i + 1
        if q < -1 or q >= i or b - a != (0 if q < 0 else starts[q + 1] - starts[q]) + 1:
            return 4 * i + 2
        while bounds[r + 1] <= a:
            r += 1
        if q >= 0 and not _same_py(runs, bounds, r, a, bisect_right(bounds, starts[q], 0, nruns) - 1,
                                   starts[q], b - a - 1):
            return 4 * i + 2
        while bounds[r + 1] < b:
            r += 1
        key = 2 * (q + 1) + (runs[r][b - 1 - bounds[r]] & 1)
        if seen[key]:
            return 4 * i + 3
        seen[key] = 1
    return 4 * count


def _same_py(runs, bounds, ra: int, a: int, rc: int, c: int, length: int) -> bool:
    """``lz78_same`` of ``_kernel.c``: whether the ``length`` letters from
    position a, in run ra or later, equal those from c, in run rc or later,
    compared up to the nearer run end at a time."""
    while length > 0:
        while bounds[ra + 1] <= a:
            ra += 1
        while bounds[rc + 1] <= c:
            rc += 1
        m = min(length, bounds[ra + 1] - a, bounds[rc + 1] - c)
        if (runs[ra][a - bounds[ra]:a - bounds[ra] + m]
                != runs[rc][c - bounds[rc]:c - bounds[rc] + m]):
            return False
        a, c, length = a + m, c + m, length - m
    return True


class LzCode(NamedTuple):
    """Pointer encoding of a parsing: one (predecessor, letter) pair per block.

    Predecessor -1 stands for the empty word.
    """

    entries: list[tuple[int, int]]

    def to_json_obj(self):
        return [{"pred": p, "letter": a} for p, a in self.entries]


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


def dict_size(*pieces) -> int:
    """The dictionary size of the parse of the pieces' concatenation, each
    piece a Word / str / bytes or a :class:`~lz78lab.words.Table` as
    :func:`parse` takes.  They are fed to one parser in turn, a table a slice
    at a time, so the concatenation is never built: the front-lettered
    ``dict_size(b"1", w)`` holds no copy of w."""
    sp = _spare()
    for piece in pieces:
        for part in piece.slices() if isinstance(piece, Table) else (as_bits(piece),):
            sp.feed(part)
    count = sp._state.nodes - 1        # the completed blocks; a trailing duplicate is not new
    _keep(sp)
    return count


def comp_ratio(w) -> float:
    """Compression ratio k*log2(k)/|w| with k the dictionary size."""
    w = Word(w)                        # the one check: dict_size takes a Word as it is
    if not len(w):
        raise ParameterError("compression ratio is undefined for the empty word")
    return ratio_from_counts(dict_size(w), len(w))


def ratio_from_counts(dict_size: int, length: int) -> float:
    if dict_size <= 1:
        return 0.0
    return dict_size * math.log2(dict_size) / length


class TreeStats(NamedTuple):
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
    return TreeStats(p.dict_size + 1, dict(hist), max_depth)
