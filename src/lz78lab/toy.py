"""The explicit weak-catastrophe construction over a de Bruijn word.

Starting from the prefix concatenation of a de Bruijn word beginning "01",
gadgets are inserted ahead of over-violated regular blocks until no offset
index in [0, gamma*k] is violated in more than half the regular blocks.  The
resulting word compresses near-optimally while the front-lettered copy parses
into far more blocks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

from .construction import ConstructedWord, build_chain, front_census
from .errors import ParameterError
from .generators import de_bruijn
from .parsing import StreamParser, parse
from .words import Table, Word, as_bits


def _toy_gadget(x: bytes, i: int, c: int) -> bytes:
    """Gadget c of offset i for the explicit construction: "1" then zeroes
    for offset 0; for i > 0 the length-i prefix of x, the flipped next
    letter, then ones.  For a fixed offset they form a chain of one-letter
    extensions, and none of them is a prefix of x."""
    if i == 0:
        return b"1" + b"0" * c
    return x[:i] + bytes([x[i] ^ 1]) + b"1" * c


def construct_toy(k: int, gamma: float = 3.0, seed: int = 0,
                  reparse: str = "checkpoint") -> ConstructedWord:
    """Run the gadget algorithm on the canonical order-k de Bruijn word.

    ``seed`` varies the Eulerian tie-breaking of the underlying de Bruijn
    word; ``reparse`` selects the checkpointed re-parse or the from-scratch
    oracle ("scratch").
    """
    if not 5 <= k <= 16:
        raise ParameterError("k must be in [5, 16] so the gadget window and the word fit")
    if not math.isfinite(gamma) or gamma < 3:
        raise ParameterError("gamma must be finite and >= 3")
    if reparse not in ("checkpoint", "scratch"):
        raise ParameterError(f"unknown reparse mode {reparse!r}")
    x = de_bruijn(k, require_prefix="01", seed=seed).word
    cw = construct_from_base(x, k, gamma, scratch=(reparse == "scratch"))
    cw.meta["seed"] = seed
    return cw


def construct_from_base(x: Word, k: int, gamma: float,
                        scratch: bool = False) -> ConstructedWord:
    """The gadget algorithm itself, on an arbitrary base word (tests use this
    to force insertions; the public entry point keeps the de Bruijn contract).
    The order ``k`` sets the window gamma*k."""
    reach = gamma * k
    # compared before int(): a huge gamma makes gamma*k infinite
    if reach >= len(x) - 1:
        raise ParameterError("gamma*k must stay below the number of regular blocks")
    window = int(reach)
    parser, table = StreamParser(), Table(b"0")
    record = build_chain(parser, table, 0, x, 0, window=window,
                         gadgets=lambda i: partial(_toy_gadget, x.data, i),
                         include_tail=True, scratch=scratch)
    return ConstructedWord.from_parser(parser, table, [record],
                                       {"k": k, "gamma": gamma, "window": window})


@dataclass(frozen=True)
class ToyReport:
    n: int
    s: int
    k: int
    gamma: float
    front: str
    dic_w: int
    dic_aw: int
    chosen_i: int | None
    gadget_count: int
    violations: dict[int, int]
    upper_bound_ok: bool          # dic_w <= 3*sqrt(2/5)*sqrt(n)
    violations_ok: bool           # every i <= gamma*k within s/2 + (1+gamma)k + 1
    front_ratio: float            # dic_aw / n^(3/4), reported as measured
    green_units_ok: bool          # green parse boundaries match the segments

    def to_json_obj(self) -> dict:
        return {"schema": 1, **asdict(self), f"dic_{self.front}w": self.dic_aw,
                "violations": {str(i): c for i, c in self.violations.items()}}


def verify_toy(cw: ConstructedWord, front="0") -> ToyReport:
    """Independent verification pass: parses w afresh, and the word with the
    letter ``front`` prepended: for the front 0, the construction's own parse,
    certified (``cw.certified_red``) instead of parsed again; for 1, a fresh
    parse.  Both parses read the segment table a slice at a time, so neither
    w nor 1w is ever built.  Both are re-censused with
    :func:`~lz78lab.construction.front_census`, whose counts at offsets up to
    the window make the report."""
    front = as_bits(front)
    if len(front) != 1:
        raise ParameterError("front must be a single letter")
    green = parse(cw.letters())
    if front == b"0":
        red = cw.certified_red()
        red_starts, dic_aw = red.starts, red.dict_size
    else:
        sp = StreamParser()
        for piece in cw.letters(front).slices():
            sp.feed(piece)
        red_starts, _, dup = sp.closed_blocks()
        dic_aw = len(red_starts) - dup
    units_ok, counts, _ = front_census(cw, green, red_starts)

    chain = cw.chains[0]
    s = chain.regular_count
    k, gamma = cw.meta["k"], cw.meta["gamma"]
    bound_b = s / 2 + (1 + gamma) * k + 1
    if units_ok:
        violations = {i: c for i, c in counts[chain.index].items()
                      if i <= cw.meta["window"]}
        violations_ok = all(c <= bound_b for c in violations.values())
    else:
        # the per-unit violation census is meaningless if the green parse
        # drifted from the intended segments
        violations = {}
        violations_ok = False

    n = cw.n
    return ToyReport(
        n=n, s=s, k=k, gamma=gamma, front=front.decode(),
        dic_w=green.dict_size, dic_aw=dic_aw,
        chosen_i=chain.chosen_i, gadget_count=chain.gadget_count,
        violations=violations,
        upper_bound_ok=green.dict_size <= 3 * math.sqrt(2 / 5) * math.sqrt(n),
        violations_ok=violations_ok,
        front_ratio=dic_aw / n ** 0.75,
        green_units_ok=units_ok,
    )
