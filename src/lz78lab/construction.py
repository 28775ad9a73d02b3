"""Shared engine for the adaptive gadget constructions.

Both constructions walk the same loop: lay down a chain of regular blocks,
census the offset-i violations of the front-lettered parsing, and while some
offset index has too many violations, insert gadgets ahead of the violated
blocks.  Every insertion edits the word mid-stream, so the parsing is rolled
back to the last block boundary before the edit and only the suffix is fed
again (a from-scratch mode exists as the correctness oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import GADGET, PADDING, REGULAR, locate, offset_counts
from .errors import ConstructionError
from .parsing import Parsing, StreamParser
from .words import Word

@dataclass
class Segment:
    kind: str                     # regular | gadget | padding
    length: int
    chain: int
    reg_index: int | None = None  # for regulars: the prefix length minus one
    gadget_i: int | None = None
    gadget_c: int | None = None


@dataclass
class ChainRecord:
    index: int
    source: Word
    q: int                        # first green block of the chain is x[0..q]
    q_formula: int | None
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
    segments: list[Segment]
    chains: list[ChainRecord]
    gamma: float
    front: str
    meta: dict = field(default_factory=dict)

    # single-chain conveniences for the explicit construction
    @property
    def chosen_i(self) -> int | None:
        return self.chains[0].chosen_i

    @property
    def counters(self) -> tuple[int, int | None]:
        return self.chains[0].gadget_count, self.chains[0].final_d

    @property
    def source(self) -> Word:
        return self.chains[0].source

    def segment_starts(self) -> list[int]:
        starts, acc = [], 0
        for seg in self.segments:
            starts.append(acc)
            acc += seg.length
        return starts

    def green_meta(self) -> list[str]:
        """Per-segment kind tags; aligned with the green blocks whenever the
        word has no padding and the unit structure holds."""
        return [seg.kind for seg in self.segments]

    def without_gadgets(self) -> bytes:
        """The word with gadget (and padding) segments removed."""
        out = bytearray()
        pos = 0
        data = self.word.data
        for seg in self.segments:
            if seg.kind == REGULAR:
                out += data[pos:pos + seg.length]
            pos += seg.length
        return bytes(out)


def _green_units_ok(cw: ConstructedWord, green: Parsing) -> bool:
    """Whether the green parse follows the segments: one block per unit
    (regular or gadget) segment, and any further blocks inside the padding."""
    seg_starts = cw.segment_starts()
    units = [s for s, seg in zip(seg_starts, cw.segments) if seg.kind != PADDING]
    if green.starts[:len(units)] != units:
        return False
    # whatever follows the units must lie in the padding
    if len(green.starts) > len(units):
        pad_start = units[-1] + cw.segments[len(units) - 1].length if units else 0
        if green.starts[len(units)] != pad_start:
            return False
    return True


def build_chain(parser: StreamParser, segments: list[Segment], chain_index: int,
                source: Word, q: int, regulars: list[bytes], *, window: int,
                factory, include_tail: bool, scratch: bool = False,
                q_formula: int | None = None) -> ChainRecord:
    """Append one chain and run its gadget-insertion loop.

    ``parser`` must already hold the front letter plus all previous chains.
    ``regulars`` are the chain's regular blocks in order; violations are
    counted against them only, for offsets in [0, window].
    """
    s = len(regulars)
    chain_start = parser.position - 1
    seg_lo = len(segments)
    for t, reg in enumerate(regulars):
        segments.append(Segment(REGULAR, len(reg), chain_index, reg_index=t))
    first_new = parser.feed(b"".join(regulars))

    blocks, regs, offsets = _census(parser, segments, seg_lo, chain_start,
                                    first_new, include_tail)
    record = ChainRecord(index=chain_index, source=source, q=q, q_formula=q_formula,
                         regular_count=s, chosen_i=None, gadget_count=0,
                         final_d=None, start=chain_start,
                         length=parser.position - 1 - chain_start,
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

    # cause[t] = red block index witnessing the i0-violation of regular t
    cause = [-1] * s
    count = 0
    d = s // 2 + 1
    c = 0
    cap = s
    while True:
        at_i0 = offsets == i0
        for b, t in zip(blocks[at_i0].tolist(), regs[at_i0].tolist()):
            if cause[t] == -1:
                cause[t] = b
                count += 1
        if c and cause[target] != -1:   # the last gadget left its target violated
            d += 1
        if count < d:
            break
        if c >= cap:
            raise ConstructionError(
                "gadget insertions exceeded the regular block count",
                {"chain": chain_index, "i": i0, "inserted": c, "d": d,
                 "violations": count})
        target = _nth_violated(cause, d)
        gadget = factory.make(i0, c)
        target_seg = seg_lo + _chain_seg_offset(segments, seg_lo, target)
        insert_at = 1 + chain_start + sum(seg.length
                                          for seg in segments[seg_lo:target_seg])

        if scratch:
            whole = bytes(parser.buf[:insert_at]) + gadget + bytes(parser.buf[insert_at:])
            parser.reset()
            kept = 0
            parser.feed(whole)
        else:
            removed = parser.rollback(insert_at)
            kept = parser.completed
            cut = insert_at - parser.position
            parser.feed(removed[:cut] + gadget + removed[cut:])

        segments.insert(target_seg,
                        Segment(GADGET, len(gadget), chain_index,
                                gadget_i=i0, gadget_c=c))
        c += 1
        for t in range(s):
            if cause[t] >= kept:
                cause[t] = -1
                count -= 1
        blocks, regs, offsets = _census(parser, segments, seg_lo, chain_start,
                                        kept, include_tail)

    record.chosen_i = i0
    record.gadget_count = c
    record.final_d = d
    record.length = parser.position - 1 - chain_start
    return record


def _chain_seg_offset(segments: list[Segment], seg_lo: int, reg_index: int) -> int:
    """Offset (within the chain's segments) of the regular block ``reg_index``."""
    for off in range(len(segments) - seg_lo):
        seg = segments[seg_lo + off]
        if seg.kind == REGULAR and seg.reg_index == reg_index:
            return off
    raise AssertionError(f"regular block {reg_index} not found")


def _census(parser: StreamParser, segments: list[Segment], seg_lo: int,
            chain_start: int, from_block: int, include_tail: bool):
    """The red blocks from ``from_block`` on that lie inside one regular block
    of the chain made of ``segments[seg_lo:]``, which starts at letter
    ``chain_start`` of the word.  Returns arrays of their block indices,
    regular indices and offsets; the in-progress block, if included, has
    index ``parser.completed``."""
    chain = segments[seg_lo:]
    lengths = np.fromiter((seg.length for seg in chain), np.int64, len(chain))
    regular = np.fromiter((seg.reg_index if seg.kind == REGULAR else -1
                           for seg in chain), np.int64, len(chain))
    bounds = parser.starts[from_block:] + [parser.block_start]
    if include_tail and parser.in_progress():
        bounds.append(parser.position)
    index, offset, inside = locate(chain_start + np.cumsum(lengths) - lengths,
                                   parser.position - 1, bounds[:-1], bounds[1:])
    reg = regular[index]
    hit = inside & (reg >= 0)
    blocks = np.arange(from_block, from_block + len(bounds) - 1)
    return blocks[hit], reg[hit], offset[hit]


def _nth_violated(cause, d) -> int:
    seen = 0
    for t, v in enumerate(cause):
        if v != -1:
            seen += 1
            if seen == d:
                return t
    raise AssertionError("fewer violated blocks than the loop counter requires")
