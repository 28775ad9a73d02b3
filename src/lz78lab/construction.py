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
bounds and regular indices; the gadget loop, the verifiers' census, the
chained construction's green words and the infinite construction's cut all
read it.  :func:`front_census` is the one census of a finished word: both
verifiers, ``toy.one_front_variant`` and ``general.verify_general``, take the
unit check and the per-chain violation counts from it.  Its parse of 0w is
the construction's own: :meth:`ConstructedWord.from_parser` hands the
parser's blocks over the tape's letters as ``ConstructedWord.red``, and the
verifiers certify them against the LZ'78 definition
(:func:`~lz78lab.parsing.certify`) instead of parsing 0w again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import GADGET, PADDING, REGULAR, locate, offset_counts
from .errors import ConstructionError
from .parsing import Parsing, StreamParser, certify
from .words import Word

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
        return _layout(self.segments)[0][:-1].tolist()

    def without_gadgets(self) -> bytes:
        """The word with gadget (and padding) segments removed."""
        bounds, regular = _layout(self.segments)
        bounds = bounds.tolist()
        data = self.word.data
        return b"".join(data[a:b] for a, b, r in zip(bounds, bounds[1:], regular.tolist())
                        if r >= 0)


def front_census(cw: ConstructedWord, green: Parsing, red: Parsing):
    """The one census of a constructed word w, over the parsings of w (green)
    and of aw (red), which both verifiers read.  Returns whether the green
    parse follows the segments, the offset-i violations per chain, {chain:
    {offset: count}}, counting the red blocks that lie inside one regular
    segment, and the red blocks per chain.

    The green parse follows the segments when it has one block per unit
    (regular or gadget) segment and any further blocks lie in the padding:
    the units come first, then at most one padding segment, so the green
    starts must be the segment bounds up to the padding's start."""
    bounds, regular = _layout(cw.segments)
    units = sum(seg.kind != PADDING for seg in cw.segments)
    head = list(green.starts[:units + 1])
    units_ok = head == bounds[:max(len(head), units)].tolist()

    red_starts = np.asarray(red.starts, dtype=np.int64)
    red_ends = np.append(red_starts[1:], len(red.data))
    index, offset, inside = locate(bounds[:-1], len(cw.word), red_starts, red_ends)
    # a red block belongs to the chain of the segment holding its first
    # letter; aw's first block lies before every segment, the padding in none
    chain = np.where(index >= 0,
                     np.array([seg.chain for seg in cw.segments])[index], -1)
    hit = inside & (regular[index] >= 0)
    per_chain = np.bincount(chain[chain >= 0], minlength=len(cw.chains))
    counts = {c.index: offset_counts(offset[hit & (chain == c.index)])
              for c in cw.chains}
    chain_red = {c.index: int(per_chain[c.index]) for c in cw.chains}
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

    The chain is fed whole once, for the census that picks the hot offset i0.
    Then ``gadgets(i0)`` is called, once, while the parser still holds that
    whole feed; it returns ``make``, and ``make(c)`` is the chain's gadget c.
    After that, each gadget goes into the tape in place, the parsing is rolled
    back to the insertion point, and the tape after it is fed lazily, a
    doubling number of segments at a time, only until the census holds d + 1
    violations at i0: completed blocks never change, so those fix the next
    pass exactly.  Only the pass that ends the loop feeds to the chain's end.
    With ``scratch`` every pass parses the whole tape afresh and takes a full
    census instead.
    """
    x = source.data
    s = len(x) - q
    chain_start = len(tape) - 1
    seg_lo = len(segments)
    segments.extend(Segment(REGULAR, q + 1 + t, chain_index, reg_index=t)
                    for t in range(s))
    letters = b"".join(x[:q + 1 + t] for t in range(s))
    first_new = parser.feed(letters)
    tape += letters
    del letters                     # the tape holds them now

    bounds, regular = _layout(segments[seg_lo:], chain_start)
    regs, offsets = _census(parser, bounds, regular, first_new, include_tail)
    record = ChainRecord(index=chain_index, source=source, q=q, regular_count=s,
                         chosen_i=None, gadget_count=0, final_d=None,
                         start=chain_start, length=len(tape) - 1 - chain_start,
                         initial_violations=offset_counts(offsets[offsets <= window]))

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

    def advance(end: int) -> list[int]:
        """Feed the tape up to letter ``end`` of aw; returns the regulars that
        the newly completed red blocks violate at i0."""
        # a view, so only feed copies the letters; it is gone before the tape grows
        first = parser.feed(memoryview(tape)[parser.position:end])
        regs, offsets = _census(parser, bounds, regular, first,
                                include_tail and parser.position == len(tape))
        return regs[offsets == i0].tolist()

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
        at = int(np.flatnonzero(regular == target)[0])
        insert_at = 1 + int(bounds[at])
        gadget = make(c)
        tape[insert_at:insert_at] = gadget
        segments.insert(seg_lo + at,
                        Segment(GADGET, len(gadget), chain_index,
                                gadget_i=i0, gadget_c=c))
        c += 1
        bounds, regular = _layout(segments[seg_lo:], chain_start)

        if scratch:
            parser.reset()
            parser.feed(tape)
            regs, offsets = _census(parser, bounds, regular, first_new, include_tail)
            violated = regs[offsets == i0].tolist()
            continue

        parser.rollback(insert_at)
        # The rollback keeps every block that ends at or before insert_at, so
        # the d - 1 violations before the target, whose regulars all end
        # there, carry over.  No other kept block is a violation, and the
        # first re-fed block ends after insert_at (the dictionary is
        # prefix-closed), so only the newly completed blocks need a census.
        violated = violated[:d - 1]
        hi, step = at + 1, 1            # the target is now segment at + 1
        while len(violated) <= d and parser.position < len(tape):
            violated += advance(1 + int(bounds[min(hi + 1, len(bounds) - 1)]))
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
    its segment bounds, segment k spanning ``bounds[k]`` to ``bounds[k + 1]``,
    and each segment's regular index, -1 for a gadget or the padding."""
    lengths = np.fromiter((seg.length for seg in segments), np.int64, len(segments))
    regular = np.fromiter((seg.reg_index if seg.kind == REGULAR else -1
                           for seg in segments), np.int64, len(segments))
    bounds = start + np.concatenate(([0], np.cumsum(lengths)))
    return bounds, regular


def _census(parser: StreamParser, bounds, regular, from_block: int,
            include_tail: bool):
    """The red blocks from ``from_block`` on that lie inside one regular block
    of the chain laid out by :func:`_layout`, with the in-progress block when
    ``include_tail``.  Returns their regular indices and offsets, in word
    order."""
    tail = [parser.block_start]
    if include_tail and parser.in_progress():
        tail.append(parser.position)
    blocks = np.append(parser.starts[from_block:], tail)
    index, offset, inside = locate(bounds[:-1], int(bounds[-1]), blocks[:-1], blocks[1:])
    reg = regular[index]
    hit = inside & (reg >= 0)
    return reg[hit], offset[hit]
