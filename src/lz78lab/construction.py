"""Shared engine for the adaptive gadget constructions.

Both constructions walk the same loop: lay down a chain of regular blocks,
the prefixes x[0..q], ..., x of a base word x, census the offset-i violations
of the front-lettered parsing, and while some offset index has too many
violations, insert gadgets ahead of the violated blocks.  The toy chain starts
at q = 0; a general chain starts at its first prefix that is not yet a block
of the plain parsing, which ``general._add_chain`` finds.  The loop's only
bookkeeping is the list of regulars violated at the chosen offset, in word
order, whose d-th entry is the next target.  A construction owns its word
0w as one ``bytearray`` tape, and the parser holds only the parse of it.
Every insertion edits the tape mid-stream, in place, so the parsing is
rolled back to the last block boundary before the edit, and the rest of the
chain is fed again from the tape only as far as the census needs to fix the
next target; the pass that ends the loop feeds to the chain's end (a
from-scratch mode, which re-parses the whole tape and takes a full census
each pass, is the correctness oracle).

Every position in a constructed word comes from one place, :func:`_layout`,
which turns a run of segments (a whole word or one chain) into its segment
bounds; the gadget loop (once a chain, then shifting the regulars after
each gadget), the verifiers' census, the chained construction's green words
and the infinite construction's cut all read it.  :func:`_census` is the one
count of the red blocks inside a regular, a slice of blocks at a time, over
block starts and the position that ends the last block, and over the spans
of the regulars alone: the gadget loop reads it over the parser's blocks,
at the chain's end as :meth:`~lz78lab.parsing.StreamParser.closed_blocks`
closes them, and :func:`front_census`, the census of a finished word that
both verifiers (``toy.verify_toy``, ``general.verify_general``) read,
over the block starts of a parse of aw.  Their parse of 0w is the
construction's own: :meth:`ConstructedWord.from_parser` hands the parser's
blocks over the tape's letters as ``ConstructedWord.red``, and the verifiers
certify them against the LZ'78 definition (:func:`~lz78lab.parsing.certify`)
instead of parsing 0w again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .alignment import locate, offset_counts
from .errors import ConstructionError
from .parsing import Parsing, StreamParser, certify
from .words import Word

CENSUS_SLICE = 1 << 14            # red blocks a census places at once
REGULAR, GADGET, PADDING = "regular", "gadget", "padding"   # the segment kinds


@dataclass
class Segment:
    kind: str                     # regular | gadget | padding
    length: int
    chain: int
    reg_index: int | None = None  # for regulars: the index in the chain
    gadget_i: int | None = None
    gadget_c: int | None = None


@dataclass
class ChainRecord:
    index: int
    source: Word
    q: int                        # first regular block of the chain is x[0..q]
    regular_count: int
    chosen_i: int | None
    gadget_count: int
    final_d: int | None
    start: int                    # position of the chain inside the word
    length: int
    initial_violations: dict[int, int] = field(default_factory=dict)
    resync_word: bytes | None = None


@dataclass
class ConstructedWord:
    word: Word
    red: Parsing = field(repr=False)  # the construction's own parse of 0w, unchecked
    segments: list[Segment]
    chains: list[ChainRecord]
    gamma: float
    meta: dict = field(default_factory=dict)

    @property
    def source(self) -> Word:
        """The first chain's base word."""
        return self.chains[0].source

    @classmethod
    def from_parser(cls, parser: StreamParser, tape: bytearray,
                    segments: list[Segment], chains: list[ChainRecord], gamma: float,
                    meta: dict) -> "ConstructedWord":
        """The word w after the front letter 0 of ``tape``, with ``parser``'s
        parse of the tape as ``red``, its blocks exact-size copies of the
        parser's block arrays.  The parser and the tape are left empty."""
        red = parser.finish(tape)
        tape.clear()                  # red.data holds the letters now
        return cls(word=Word(red.data[1:]), red=red, segments=segments,
                   chains=chains, gamma=gamma, meta=meta)

    def certified_red(self) -> Parsing:
        """``red`` once it is shown to be the LZ'78 parse of 0w: its letters
        are 0w, and :func:`~lz78lab.parsing.certify` accepts its blocks.
        Raises ``ConstructionError`` otherwise; ``red`` is left as it is."""
        red, data = self.red, self.word.data
        if not (len(red.data) == len(data) + 1 and red.data.startswith(b"0")
                and red.data.endswith(data)):
            raise ConstructionError("the construction's parse is not a parse of 0w")
        return certify(red.data, red.starts, red.preds, red.last_is_duplicate)

    def segment_starts(self) -> list[int]:
        return _layout(self.segments)[:-1].tolist()


def front_census(cw: ConstructedWord, green: Parsing, red_starts):
    """The one census of a constructed word w, over the parsing of w (green)
    and the block starts ``red_starts`` of a parsing of aw, which both
    verifiers read.  Returns whether the green parse follows the segments,
    the offset-i violations per chain, {chain: {offset: count}}, counting the
    red blocks that lie inside one regular segment, and the red blocks per
    chain, those whose first letter lies in the chain.

    The green parse follows the segments when it has one block per unit
    (regular or gadget) segment and any further blocks lie in the padding:
    the units come first, then at most one padding segment, so the green
    starts must be the segment bounds up to the padding's start."""
    bounds = _layout(cw.segments)
    units = sum(seg.kind != PADDING for seg in cw.segments)
    head = list(green.starts[:units + 1])
    units_ok = head == bounds[:max(len(head), units)].tolist()

    # one (chain, offset) tally, as wide as the longest regular segment: the
    # offsets inside a regular are all below it, so the window drops none, and
    # the padding, which may be far longer, sets no width
    regular = np.fromiter((seg.kind == REGULAR for seg in cw.segments), bool, len(cw.segments))
    starts, ends = bounds[:-1][regular], bounds[1:][regular]
    chain = np.fromiter((seg.chain for seg in cw.segments), np.int64, len(cw.segments))[regular]
    width = int((ends - starts).max(initial=0))
    tally = np.zeros(len(cw.chains) * width, dtype=np.int64)
    for index, offset in _census(red_starts, len(cw.word) + 1, starts, ends, width):
        np.add.at(tally, chain[index] * width + offset, 1)
    counts, chain_red = {}, {}
    for c in cw.chains:
        row = tally[c.index * width:(c.index + 1) * width]
        hit = np.flatnonzero(row)
        counts[c.index] = dict(zip(hit.tolist(), row[hit].tolist()))
        # letter p of aw is letter p - 1 of w
        chain_red[c.index] = (bisect_left(red_starts, c.start + c.length + 1)
                              - bisect_left(red_starts, c.start + 1))
    return units_ok, counts, chain_red


def build_chain(parser: StreamParser, tape: bytearray, segments: list[Segment],
                chain_index: int, source: Word, q: int, *, window: int, gadgets,
                include_tail: bool, scratch: bool = False) -> ChainRecord:
    """Append the chain of the prefixes x[0..q], ..., x of ``source`` x as
    regular blocks to ``tape``, and run its gadget-insertion loop.

    ``tape`` must hold the front letter plus all previous chains, all fed to
    ``parser``; on return it holds the whole chain, gadgets included, all
    fed.  Violations are counted against the chain's regular blocks only, for
    offsets in [0, window].

    Every pass is one ``advance(end)``, a feed up to letter ``end`` and a
    census of the blocks it completed.  The first advances the whole chain,
    to pick the hot offset i0; ``gadgets(i0)`` is called then, once, and
    returns ``make``, where ``make(c)`` is the chain's gadget c.  Each gadget
    goes into the tape in place, the parsing is rolled back to the insertion
    point, and the tape after it is advanced lazily, a doubling number of
    regulars at a time, only until the census holds d + 1 violations at i0:
    completed blocks never change, so those fix the next pass exactly.  Only
    the pass that ends the loop feeds to the chain's end.  With ``scratch``
    every pass is the first run again after ``parser.reset()``.
    """
    x = source.data
    s = len(x) - q
    chain_start = len(tape) - 1
    seg_lo = len(segments)
    segments.extend(Segment(REGULAR, q + 1 + t, chain_index, reg_index=t)
                    for t in range(s))
    for t in range(s):
        tape += x[:q + 1 + t]
    # the regulars' spans in w, laid out once; a gadget opens a gap before its
    # target, so each insertion shifts the spans from the target on
    bounds = _layout(segments[seg_lo:], chain_start)
    starts, ends = bounds[:-1], bounds[1:].copy()

    def advance(end: int):
        """Feed the tape up to letter ``end`` of aw; returns the regular
        indices and offsets of the newly completed red blocks that lie inside
        one of the chain's regulars, at an offset up to ``window``, with the
        in-progress block, closed as the trailing duplicate, once the whole
        tape is fed and ``include_tail``."""
        # a view, so only feed copies the letters; it is gone before the tape grows
        first = parser.feed(memoryview(tape)[parser.position:end])
        if include_tail and parser.position == len(tape):
            blocks, stop = parser.closed_blocks()[0], parser.position
        else:
            blocks, stop = parser.starts, parser.block_start
        return tuple(map(np.concatenate, zip(*_census(blocks[first:], stop,
                                                      starts, ends, window))))

    regs, offsets = advance(len(tape))
    record = ChainRecord(index=chain_index, source=source, q=q, regular_count=s,
                         chosen_i=None, gadget_count=0, final_d=None,
                         start=chain_start, length=len(tape) - 1 - chain_start,
                         initial_violations=offset_counts(offsets))

    hot = [i for i, v in record.initial_violations.items() if 2 * v > s]
    if not hot:
        return record
    if len(hot) > 1:
        raise ConstructionError(
            "two offset indices exceed half the regular blocks, which the "
            "violation trade-off rules out",
            {"chain": chain_index, "indices": hot})
    i0 = hot[0]
    make = gadgets(i0)

    d = s // 2 + 1
    c = 0
    # ascending: red blocks and the chain's regulars both run in word order,
    # and two red blocks never start at the same letter
    violated = regs[offsets == i0].tolist()
    while True:
        if c and target in violated:   # the last gadget left its target violated
            d += 1
        if len(violated) < d:
            break
        # targets strictly increase from regular s // 2 on, so this cannot
        # fire; it is the loop's termination guard
        if c >= s:
            raise ConstructionError(
                "gadget insertions exceeded the regular block count",
                {"chain": chain_index, "i": i0, "inserted": c, "d": d})
        target = violated[d - 1]
        insert_at = 1 + int(starts[target])
        gadget = make(c)
        tape[insert_at:insert_at] = gadget
        starts[target:] += len(gadget)
        ends[target:] += len(gadget)
        # the c earlier gadgets all lie before earlier, so smaller, targets
        segments.insert(seg_lo + target + c,
                        Segment(GADGET, len(gadget), chain_index,
                                gadget_i=i0, gadget_c=c))
        c += 1

        if scratch:
            parser.reset()
            regs, offsets = advance(len(tape))
            violated = regs[offsets == i0].tolist()
            continue

        parser.rollback(insert_at)
        # The rollback keeps every block that ends at or before insert_at, so
        # the d - 1 violations before the target, whose regulars all end
        # there, carry over.  No other kept block is a violation, and the
        # first re-fed block ends after insert_at (the dictionary is
        # prefix-closed), so only the newly completed blocks need a census.
        violated = violated[:d - 1]
        hi, step = target, 1            # only regulars follow the target
        while len(violated) <= d and parser.position < len(tape):
            regs, offsets = advance(1 + int(ends[min(hi, s - 1)]))
            violated += regs[offsets == i0].tolist()
            hi += step
            step *= 2

    record.chosen_i = i0
    record.gadget_count = c
    record.final_d = d
    record.length = len(tape) - 1 - chain_start
    return record


def _layout(segments: list[Segment], start: int = 0):
    """The one map from segments to positions: the run of ``segments`` (a
    whole word, or one chain) laid from letter ``start`` of the word.  Returns
    its segment bounds, segment k spanning ``bounds[k]`` to ``bounds[k + 1]``."""
    lengths = np.fromiter((seg.length for seg in segments), np.int64, len(segments))
    return start + np.concatenate(([0], np.cumsum(lengths)))


def _census(blocks, end: int, starts, ends, window: int):
    """The one census: for each slice of the red blocks that ``blocks`` begin,
    the last one ending at ``end`` (:func:`_edge_slices`), the indices into the
    regular spans ``starts`` to ``ends`` and the offsets of those red blocks
    that lie inside one regular, at an offset up to ``window``, in word order."""
    for edges in _edge_slices(blocks, end):
        index, offset, inside = locate(starts, ends, edges[:-1], edges[1:])
        hit = inside & (offset <= window)
        yield index[hit], offset[hit]


def _edge_slices(starts, end: int):
    """The blocks that ``starts`` begin, the last one ending at ``end``, as
    int64 arrays of their edges, CENSUS_SLICE blocks at most: each slice ends
    on the edge that begins the next.  There is always a slice, without a
    block when there is no block."""
    n = len(starts)
    for lo in range(0, max(n, 1), CENSUS_SLICE):
        edges = np.asarray(starts[lo:lo + CENSUS_SLICE + 1], dtype=np.int64)
        if lo + CENSUS_SLICE >= n:
            edges = np.append(edges, end)
        yield edges
