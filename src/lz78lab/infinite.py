"""Finite-prefix approximation of the level-structured infinite construction.

Levels of doubling word length are generated on demand: each level samples a
family under its own local census property plus cross-level factor uniqueness,
and contributes one chain per word, built exactly like the chained
construction.  Compression-ratio curves of growing prefixes stand in for the
limit values, which are out of reach at desk scale.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

from .construction import ConstructedWord, Segment, _layout
from .errors import ParameterError, SamplingError
from .general import RETRY_CAP, _add_chain, _grams, check_p1
from .parsing import MAX_NODES, Parsing, StreamParser, parse, ratio_from_counts
from .words import Word, random_word


@dataclass(frozen=True)
class LevelParams:
    index: int
    l: int
    p: float
    k: float
    m_eff: int            # factor size actually used for the uniqueness census
    count: int            # number of words this level contributes
    window: int


@dataclass(frozen=True)
class Schedule:
    l0: int
    gamma: float
    levels: list[LevelParams]
    in_theorem_range: bool
    notes: tuple[str, ...] = ()


def schedule(l0: int, gamma: float, levels: int) -> Schedule:
    """Per-level parameters l_i = l0*2^i, p_i = sqrt(l_i)/(9*gamma) - 2*log2(l_i).

    Rejects l0 below 16, the floor the chained construction puts on l, and
    schedules whose first level is empty (p_0 < 1) or whose counts fail to
    increase, naming the failing level.
    """
    if levels < 1:
        raise ParameterError("need at least one level")
    if not math.isfinite(gamma) or gamma <= 0:
        raise ParameterError("gamma must be finite and positive")
    if l0 < 16:
        raise ParameterError("l0 must be >= 16")
    out = []
    notes = []
    prev_p = None
    prev_cum = 0
    total_letters = 0
    for i in range(levels):
        l = l0 * (1 << i)
        p = math.sqrt(l) / (9 * gamma) - 2 * math.log2(l)
        if i == 0 and p < 1:
            raise ParameterError(
                f"level 0 is infeasible: p_0 = {p:.3f} < 1 for l0={l0}, gamma={gamma}")
        if prev_p is not None and p <= prev_p:
            raise ParameterError(f"level {i} does not grow: p_{i} = {p:.3f} <= "
                                 f"p_{i - 1} = {prev_p:.3f}")
        if p >= 1024:                  # 2 ** p would overflow a float
            raise ParameterError(f"level {i} is too large: p_{i} = {p:.3g} >= 1024")
        cum = int(2 ** p)
        count = cum - prev_cum
        if count <= 0:
            raise ParameterError(f"level {i} is empty after rounding")
        k = math.log2(l) / 2
        window = int(2 * k * math.sqrt(l))
        total_letters += count * l
        m_floor = math.ceil(2 * math.log2(max(total_letters, 4))) + 2
        m_eff = max(math.ceil(gamma * p), m_floor)
        if max(window, m_eff) > l - 2:
            raise ParameterError(
                f"level {i} cannot host its gadgets: "
                f"max(window={window}, m={m_eff}) > l-2={l - 2}")
        if m_eff > gamma * p:
            notes.append(f"level {i}: factor-uniqueness size raised to {m_eff} "
                         f"(formula value {gamma * p:.2f} too small at this scale)")
        out.append(LevelParams(index=i, l=l, p=p, k=k, m_eff=m_eff, count=count,
                               window=window))
        prev_p, prev_cum = p, cum
    if gamma < 10:
        notes.append("gamma below 10: outside the asymptotic regime")
    return Schedule(l0=l0, gamma=gamma, levels=out,
                    in_theorem_range=not notes, notes=tuple(notes))


def schedule_for_budget(l0: int, gamma: float, budget: int) -> Schedule:
    """The schedule of the fewest levels that can hold ``budget`` letters, a
    level holding count * l(l+1)/2: the regular blocks of its count chains,
    as in the one-chain floor of :func:`build_prefix`.

    The search ends by 15 levels, where :func:`schedule` raises at the
    latest: p_0 >= 1 forces p_14 above the bound of 1024 it puts on p.
    """
    for levels in itertools.count(1):
        sched = schedule(l0, gamma, levels)
        capacity = sum(lv.count * lv.l * (lv.l + 1) // 2 for lv in sched.levels)
        if capacity >= budget:
            return sched


def _sample_level_word(seed: int, level: LevelParams, index: int,
                       corpus_grams: set[bytes], require_leading_one: bool) -> Word:
    for attempt in range(RETRY_CAP):
        data = random_word([seed, level.index, index, attempt], level.l)
        if require_leading_one and data[0] != ord("1"):
            continue
        if not check_p1(data, level.k, level.l):
            continue
        if not _fresh_factors(data, level.m_eff, corpus_grams):
            continue
        return Word(data)
    raise SamplingError(
        f"level {level.index} word {index} failed {RETRY_CAP} draws",
        {"level": level.index, "index": index, "l": level.l, "m": level.m_eff})


def _m_grams(words, m: int) -> set[bytes]:
    return {g for w in words for g in _grams(w, m)}


def _fresh_factors(data: bytes, m: int, corpus_grams: set[bytes]) -> bool:
    """All m-grams of ``data`` unique within it and absent from the corpus,
    given as the set of its words' m-grams."""
    grams = _grams(data, m)
    unique = set(grams)
    return len(unique) == len(grams) and unique.isdisjoint(corpus_grams)


def build_prefix(sched: Schedule, budget_n: int, seed: int) -> ConstructedWord:
    """Emit the first budget_n letters of the level construction.

    Words are sampled on demand; generation stops once the budget is covered
    and the final chain is truncated.  The tape is cut and the parser rolled
    back to the truncation point, so ``red`` is the parse of 0w for the
    emitted prefix w.
    """
    l0 = sched.l0
    if budget_n < l0 * (l0 + 1) // 2:
        raise ParameterError(
            f"budget {budget_n} cannot cover one full level-0 chain "
            f"(~{l0 * (l0 + 1) // 2} letters)")
    if budget_n > MAX_NODES - 2:
        raise ParameterError(f"budget must be <= {MAX_NODES - 2} "
                             "for the parser's node ids")
    parser, tape = StreamParser(), bytearray(b"0")
    parser.feed(tape)
    segments: list[Segment] = []
    green_words: set[bytes] = set()
    corpus: list[bytes] = []
    corpus_grams: set[bytes] = set()
    grams_m = None
    chains = []
    words_per_level: dict[int, int] = {}
    for level in sched.levels:
        if len(tape) - 1 >= budget_n:
            break
        if level.m_eff != grams_m:
            grams_m = level.m_eff
            corpus_grams = _m_grams(corpus, grams_m)
        for widx in range(level.count):
            xw = _sample_level_word(seed, level, widx, corpus_grams,
                                    require_leading_one=not chains)
            chains.append(_add_chain(parser, tape, segments, green_words, len(chains),
                                     xw, q_max=level.m_eff, m_int=level.m_eff,
                                     window=level.window))
            words_per_level[level.index] = words_per_level.get(level.index, 0) + 1
            corpus.append(xw.data)
            corpus_grams |= _m_grams([xw.data], grams_m)
            if len(tape) - 1 >= budget_n:
                break

    full_len = len(tape) - 1
    # cut the tape and its parse back to the prefix: the blocks are then those of 0w
    del tape[budget_n + 1:]
    parser.rollback(budget_n + 1)
    parser.feed(memoryview(tape)[parser.position:])   # a view: feed copies once
    return ConstructedWord.from_parser(
        parser, tape, _truncate_segments(segments, budget_n), chains, sched.gamma,
        {"schedule": sched, "seed": seed, "budget": budget_n,
         "generated": full_len, "words_per_level": words_per_level})


def _truncate_segments(segments: list[Segment], budget: int) -> list[Segment]:
    """The segments that start before letter ``budget``, the last one cut
    short to end there."""
    bounds = _layout(segments)[0].tolist()
    kept = bisect_left(bounds, budget, hi=len(segments))
    out = segments[:kept]
    if kept and bounds[kept] > budget:
        out[-1] = replace(out[-1], length=budget - bounds[kept - 1])
    return out


def ratio_curve(w, stride: int) -> list[tuple[int, float]]:
    """compression ratio of each sampled prefix, from one parse of the word
    (see :func:`prefix_ratios`)."""
    return prefix_ratios(parse(w), stride)


def prefix_ratios(p: Parsing, stride: int) -> list[tuple[int, float]]:
    """compression ratio of every ``stride``-th prefix of the parsed word, and
    of the whole word, read off the parse's blocks.

    The dictionary of a prefix is the word's blocks that end inside it, except
    a duplicate final block: a partial final block always duplicates an
    earlier one.
    """
    if stride < 1:
        raise ParameterError("stride must be >= 1")
    total = len(p.data)
    if not total:
        raise ParameterError("the ratio curve needs a non-empty word")
    sizes = list(range(stride, total + 1, stride))
    if not sizes or sizes[-1] != total:
        sizes.append(total)
    # the blocks that end by letter n: those followed by a block starting by
    # then, and the last block once n covers the word
    return [(n, ratio_from_counts(
                min(bisect_right(p.starts, n) - 1 + (n == total), p.dict_size), n))
            for n in sizes]


def tail_separation(plain_curve, front_curve):
    """Compare the last-quartile ratio ranges of the two curves.

    Returns (holds, max_plain, min_front).
    """
    cut = 0.75 * plain_curve[-1][0]
    plain_tail = [c for n, c in plain_curve if n >= cut]
    front_tail = [c for n, c in front_curve if n >= cut]
    if not plain_tail or not front_tail:
        raise ParameterError("curves have no points in the tail quartile")
    return max(plain_tail) < min(front_tail), max(plain_tail), min(front_tail)
