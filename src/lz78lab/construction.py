"""Shared engine for the adaptive gadget constructions.

Both constructions walk the same loop: lay down a chain of regular blocks,
the prefixes x[0..q], ..., x of a base word x, census the offset-i violations
of the front-lettered parsing, and while some offset index has too many
violations, insert gadgets ahead of the violated blocks.  The toy chain starts
at q = 0; a general chain starts at its first prefix that is not yet a block
of the plain parsing, which ``general._add_chain`` finds.  The loop's only
bookkeeping is the list of regulars violated at the chosen offset, in word
order, whose d-th entry is the next target.  No construction holds its
word.  It holds the segment table of 0w, a :class:`~lz78lab.words.Table`:
the front letter, then each :class:`Segment`, whose letters are the first
``length`` letters of its ``source`` (the chain's base word x for a
regular, the gadget's own letters, zeros for the padding), and the parser
holds only the parse.  Every pass feeds the parser from the table a slice at
a time.  An insertion puts a gadget segment into the table mid-stream, so
the parsing is rolled back to the last block boundary before it, and the
rest of the chain is fed again only as far as the census needs to fix the
next target; the pass that ends the loop feeds to the chain's end (a
from-scratch mode, which re-parses the whole table and takes a full census
each pass, is the correctness oracle).  The word w itself is joined only on
request (:attr:`ConstructedWord.word`): the verifiers, certify and ``--out``
read the table.

The segment table is the constructed word's one record
(:attr:`ConstructedWord.table`): its run bounds, less one, are the segment
positions in w that the gadget loop (once a chain, then shifting the
regulars after each gadget) and the verifiers' census read, and the
infinite construction cuts it in place (:meth:`~lz78lab.words.Table.cut`).
:func:`_census` is the one count of the red blocks inside a regular, a
slice of blocks at a time, over block starts and the position that ends
the last block, and over the spans of the regulars alone: the gadget loop
reads it over the parser's blocks, at the chain's end as
:meth:`~lz78lab.parsing.StreamParser.closed_blocks` closes them, and
:func:`front_census`, the census of a finished word that both verifiers
(``toy.verify_toy``, ``general.verify_general``) read, over the block
starts of a parse of aw.  Their parse of 0w is the construction's own:
:meth:`ConstructedWord.from_parser` hands the parser's blocks over as
``ConstructedWord.red``, over the table itself, and the verifiers certify
them against the LZ'78 definition, through that table
(:func:`~lz78lab.parsing.certify`), instead of parsing 0w again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .alignment import locate, offset_counts
from .errors import ConstructionError
from .parsing import Parsing, StreamParser, certify
from .words import Table, Word

CENSUS_SLICE = 1 << 14            # red blocks a census places at once
REGULAR, GADGET, PADDING = "regular", "gadget", "padding"   # the segment kinds


# A run of a constructed word.  Regular t of a chain has length q + 1 + t;
# gadget c is the chain's c-th gadget in word order, at offset ``chosen_i``.
class Segment(NamedTuple):
    kind: str                     # regular | gadget | padding
    length: int
    chain: int                    # the chain's index; -1 for padding
    source: bytes                 # its letters are source[:length]: x, the gadget, or zeros


# A chain as built: its length and counts ignore infinite.build_prefix's cut.
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


@dataclass(init=False)
class ConstructedWord:
    table: Table = field(repr=False)  # the segment table of 0w, as the construction fed it
    red: Parsing = field(repr=False)  # the construction's own parse of 0w, unchecked
    chains: list[ChainRecord]
    meta: dict

    def __init__(self, table: Table, red: Parsing, chains: list[ChainRecord], meta: dict,
                 segments: list[Segment] | None = None):
        """``segments``, when given, replace those of ``table`` in a new table
        with the same front, so ``dataclasses.replace(cw, segments=...)`` is
        the word those segments lay out, with ``cw``'s parse as ``red``."""
        self.table = table if segments is None else Table(table.front, segments)
        self.red, self.chains, self.meta = red, chains, meta

    @property
    def n(self) -> int:
        """The length of w."""
        return len(self.table) - 1

    @property
    def segments(self) -> list[Segment]:
        return self.table.segments

    @property
    def source(self) -> Word:
        """The first chain's base word."""
        return self.chains[0].source

    @property
    def word(self) -> Word:
        """w, joined from the segments at each call: a copy of all its
        letters, which no report reads."""
        return Word(self.table[1:])

    def letters(self, front: bytes = b"") -> Table:
        """The segment table of ``front`` followed by w: ``table`` itself for
        the front 0, a new table over the same segments otherwise."""
        return self.table if front == b"0" else Table(front, self.segments)

    @classmethod
    def from_parser(cls, parser: StreamParser, table: Table, chains: list[ChainRecord],
                    meta: dict) -> "ConstructedWord":
        """The word w whose 0w is ``table``, with ``parser``'s parse of 0w as
        ``red``: its blocks, exact-size copies of the parser's block arrays,
        over the table.  The parser is left empty."""
        return cls(table, parser.finish(table), chains, meta)

    def certified_red(self) -> Parsing:
        """``red`` once :func:`~lz78lab.parsing.certify` shows it to be the
        LZ'78 parse of 0w, read through ``table``: the accepted parse, over
        that table.  Raises ``ConstructionError`` otherwise; ``red`` is left
        as it is."""
        red = self.red
        return certify(self.table, red.starts, red.preds, red.last_is_duplicate)


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
    bounds = np.array(cw.table.bounds[1:]) - 1     # letter p of 0w is letter p - 1 of w
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
    for index, offset in _census(red_starts, cw.n + 1, starts, ends, width):
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


def build_chain(parser: StreamParser, table: Table, chain_index: int, source: Word,
                q: int, *, window: int, gadgets, include_tail: bool,
                scratch: bool = False) -> ChainRecord:
    """Append the chain of the prefixes x[0..q], ..., x of ``source`` x as
    regular segments to ``table``, the segment table of 0w, and run its
    gadget-insertion loop.

    ``table`` must hold the front letter plus all previous chains, of which
    ``parser`` has been fed a prefix; on return it holds the whole chain,
    gadgets included, all fed.  Violations are counted against the chain's regular blocks only, for
    offsets in [0, window].

    Every pass is one ``advance(end)``, a feed from the table up to letter
    ``end`` and a census of the blocks it completed.  The first advances the
    whole chain, to pick the hot offset i0; ``gadgets(i0)`` is called then,
    once, and returns ``make``, where ``make(c)`` is the chain's gadget c.
    Each gadget goes into the table as a segment, the parsing is rolled back
    to the insertion point, and the table after it is advanced lazily, a
    doubling number of regulars at a time, only until the census holds d + 1
    violations at i0: completed blocks never change, so those fix the next
    pass exactly.  Only the pass that ends the loop feeds to the chain's end.
    With ``scratch`` every pass is the first run again after
    ``parser.reset()``.
    """
    x = source.data
    s = len(x) - q
    chain_start = len(table) - 1      # letter p of w is letter p + 1 of 0w
    seg_lo = len(table.segments)
    table.extend(Segment(REGULAR, q + 1 + t, chain_index, x) for t in range(s))
    # the regulars' spans in w, the census's working copy of the table's
    # bounds, read once; a gadget opens a gap before its target, so each
    # insertion shifts the spans from the target on
    bounds = np.array(table.bounds[seg_lo + 1:]) - 1
    starts, ends = bounds[:-1], bounds[1:].copy()

    def advance(end: int):
        """Feed the table up to letter ``end`` of 0w; returns the regular
        indices and offsets of the newly completed red blocks that lie inside
        one of the chain's regulars, at an offset up to ``window``, with the
        in-progress block, closed as the trailing duplicate, once the whole
        table is fed and ``include_tail``."""
        first = len(parser.starts)
        for piece in table.slices(parser.position, end):
            parser.feed(piece)
        if include_tail and parser.position == len(table):
            blocks, stop = parser.closed_blocks()[0], parser.position
        else:
            blocks, stop = parser.starts, parser.block_start
        return tuple(map(np.concatenate, zip(*_census(blocks[first:], stop,
                                                      starts, ends, window))))

    regs, offsets = advance(len(table))
    record = ChainRecord(index=chain_index, source=source, q=q, regular_count=s,
                         chosen_i=None, gadget_count=0, final_d=None,
                         start=chain_start, length=len(table) - 1 - chain_start,
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
        # the c earlier gadgets all lie before earlier, so smaller, targets
        table.insert(seg_lo + target + c, Segment(GADGET, len(gadget), chain_index, gadget))
        starts[target:] += len(gadget)
        ends[target:] += len(gadget)
        c += 1

        if scratch:
            parser.reset()
            regs, offsets = advance(len(table))
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
        while len(violated) <= d and parser.position < len(table):
            regs, offsets = advance(1 + int(ends[min(hi, s - 1)]))
            violated += regs[offsets == i0].tolist()
            hi += step
            step *= 2

    record.chosen_i = i0
    record.gadget_count = c
    record.final_d = d
    record.length = len(table) - 1 - chain_start
    return record


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
