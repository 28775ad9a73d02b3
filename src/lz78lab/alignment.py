"""Red/green block alignment: the parsing of aw laid over the parsing of w.

Aligning on the right (the copy of w inside aw matches w), every red block is
either the single first block (the prepended letter), a junction spanning two
or more green blocks, or an offset-i block contained in one green block.

:func:`locate` answers "which green span holds this red block, and at what
offset?" for a whole run of red blocks at once.  The classification and the
violation table here use it over the tiling blocks of a plain parsing of w;
``construction`` uses it over the regular blocks of a constructed word only,
in its one census, which the gadget loop and
:func:`~lz78lab.construction.front_census`, read by both verifiers, share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .parsing import Parsing, parse
from .words import as_bits

class RedClass(NamedTuple):
    kind: str                    # "first" | "junction" | "offset"
    offset: int | None = None    # for offset blocks: start position in the green block
    green_index: int | None = None

    def to_json_obj(self):
        if self.kind == "offset":
            return {"kind": "offset", "i": self.offset, "green": self.green_index}
        return {"kind": self.kind}


@dataclass(frozen=True)
class AlignedParsing:
    green: Parsing
    red: Parsing
    classes: list[RedClass]


def align(w, a) -> AlignedParsing:
    """Parse w and aw and classify every red block under right alignment."""
    data = as_bits(w)
    if not data:
        raise ParameterError("alignment needs a non-empty word")
    letter_bits = as_bits(a)
    if len(letter_bits) != 1:
        raise ParameterError("the prepended letter must be a single letter")
    green = parse(data)
    red = parse(letter_bits + data)
    return AlignedParsing(green=green, red=red, classes=classify(green, red))


def locate(green_starts, green_ends, red_starts, red_ends):
    """Place red blocks of aw over green spans of w.

    ``green_starts`` and ``green_ends`` bound ascending, disjoint spans of w,
    which need not tile it and are at least one when there are red blocks;
    ``red_starts`` and ``red_ends`` bound non-empty red blocks in aw, so
    letter p of aw is letter p - 1 of w.  Returns three arrays, one entry per
    red block: the index of the last span starting at or before the red
    block's first letter in w (-1 when that letter lies before the first
    span, as for aw's first block), the offset of that letter from the span's
    start, and whether the red block lies inside the span; one that starts
    in a gap never does.  Every array is sized by a block count.
    """
    import numpy as np

    green = np.asarray(green_starts, dtype=np.int64)
    lo = np.asarray(red_starts, dtype=np.int64) - 1
    index = np.searchsorted(green, lo, side="right") - 1
    held = index >= 0
    at = np.where(held, index, 0)
    # a red block that starts in a gap is non-empty, so it ends past the gap
    inside = held & (np.asarray(red_ends, dtype=np.int64) - 1
                     <= np.asarray(green_ends, dtype=np.int64)[at])
    return index, lo - green[at], inside


def offset_counts(offsets) -> dict[int, int]:
    """Number of red blocks at each offset.  Two red blocks never start at the
    same letter, so for blocks inside distinct green blocks this is also the
    number of green blocks violated at each offset."""
    import numpy as np

    values, counts = np.unique(offsets, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def classify(green: Parsing, red: Parsing) -> list[RedClass]:
    """Per-red-block tags; positions in aw map to w by subtracting one."""
    import numpy as np

    red_starts = np.asarray(red.starts, dtype=np.int64)
    index, offset, inside = locate(green.starts, [*green.starts[1:], len(green.data)],
                                   red_starts, np.append(red_starts[1:], len(red.data)))
    classes = []
    for gi, off, ok in zip(index.tolist(), offset.tolist(), inside.tolist()):
        if gi < 0:
            classes.append(RedClass("first"))
        elif ok:
            classes.append(RedClass("offset", off, gi))
        else:
            classes.append(RedClass("junction"))
    return classes


def violation_table(ap: AlignedParsing) -> dict[int, int]:
    """{i: the number of green blocks containing an offset-i red block}."""
    return offset_counts([c.offset for c in ap.classes if c.kind == "offset"])


def alignment_report(ap: AlignedParsing) -> dict:
    """JSON-ready report: blocks of both parsings, classes, violation counts."""
    return {
        "schema": 1,
        "green": [list(ap.green.block_bounds(i)) for i in range(ap.green.block_count)],
        "red": [list(ap.red.block_bounds(i)) for i in range(ap.red.block_count)],
        "classes": [c.to_json_obj() for c in ap.classes],
        "violations": {str(i): c for i, c in sorted(violation_table(ap).items())},
    }
