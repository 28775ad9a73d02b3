"""Chained construction with tunable compression speed.

A sampled family of pseudo-de-Bruijn words (properties P1/P2) is turned into
a word of length exactly n: one chain of ascending prefixes per family word,
gadgets inserted per chain as needed, zero padding at the end.  The plain
word compresses to O(n/l) blocks while the front-lettered copy parses into
far more.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import partial

from .construction import (PADDING, ChainRecord, ConstructedWord, Segment, build_chain,
                           front_census)
from .errors import ConstructionError, ParameterError, SamplingError
from .generators import _gram_counts
from .parsing import MAX_NODES, StreamParser, parse
from .words import Table, Word, as_bits, random_word


@dataclass(frozen=True)
class Params:
    n: int
    l: int
    gamma: float
    p: float                  # log2(n / l^2); 2^ceil(p) chains
    k: float                  # (log2 l) / 2
    m: float                  # max(gamma*p, gamma*log2 l)
    m_int: int
    family_count: int
    window: int               # gadget offsets [0, floor(2*k*sqrt(l))]
    in_theorem_range: bool
    notes: tuple[str, ...] = ()
    exact: bool = False       # n rounded down to l^2 * 2^floor(p)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "l": self.l, "gamma": self.gamma, "p": self.p,
                "k": self.k, "m": self.m, "family_count": self.family_count,
                "window": self.window, "in_theorem_range": self.in_theorem_range,
                "notes": list(self.notes)}


def derive_params(n: int, l: int, gamma: float = 10.0, exact: bool = False) -> Params:
    """Derive the chained-construction parameters from (n, l, gamma).

    Structural impossibilities raise; running below the asymptotic window
    (small n) is allowed but flagged via ``in_theorem_range``.
    """
    if not math.isfinite(gamma) or gamma <= 0:
        raise ParameterError("gamma must be finite and positive")
    if l < 16:
        raise ParameterError("l must be >= 16")
    if n < l:
        raise ParameterError("n must be at least l")
    if n > MAX_NODES - 2:
        raise ParameterError(f"n must be <= {MAX_NODES - 2} "
                             "for the parser's node ids")
    p = math.log2(n / (l * l))
    if p < -1e-9:
        raise ParameterError(f"l={l} exceeds sqrt(n): the chain count 2^p would be < 1")
    p = max(p, 0.0)
    if exact:
        n = l * l * (1 << int(p))
        p = float(int(p))
    k = math.log2(l) / 2
    m = max(gamma * p, gamma * math.log2(l))
    window = int(2 * k * math.sqrt(l))
    # compared before int(): a huge gamma makes m infinite
    if max(window, m) >= l - 1:
        raise ParameterError(
            f"l={l} is too small for the gadget shapes at gamma={gamma:g} "
            f"(need max(window={window}, m={m:.6g}) <= l-2)")
    m_int = max(1, int(m))
    family_count = 1 << math.ceil(p - 1e-9)
    # P2: the family's m-grams are distinct, and only 2^m_int of them exist
    if family_count * (l - m_int + 1) > 1 << m_int:
        raise ParameterError(
            f"gamma={gamma:g} gives m={m_int}: P2 needs "
            f"{family_count * (l - m_int + 1)} distinct {m_int}-grams, "
            f"but only {1 << m_int} exist")
    notes = []
    if l < (9 * gamma * math.log2(n)) ** 2:
        notes.append(f"l below the asymptotic window floor (9*gamma*log n)^2 = "
                     f"{(9 * gamma * math.log2(n)) ** 2:.3g}")
    if m > math.sqrt(l) / 9:
        notes.append("m exceeds sqrt(l)/9")
    if p > math.sqrt(l):
        notes.append("p exceeds sqrt(l)")
    return Params(n=n, l=l, gamma=gamma, p=p, k=k, m=m, m_int=m_int,
                  family_count=family_count, window=window,
                  in_theorem_range=not notes, notes=tuple(notes), exact=exact)


def check_p1(x, k: float, l: int) -> bool:
    """Exact census: every u with |u| <= k occurs at most k*l/2^|u| times."""
    data = as_bits(x)
    if len(data) != l:
        raise ParameterError(f"word length {len(data)} != l={l}")
    for length in range(1, int(k) + 1):
        if _gram_counts(data, length).max() > k * l / (1 << length):
            return False
    return True


def _grams(data: bytes, m: int) -> list[bytes]:
    """The factors of size m of ``data``, in order of position."""
    return [data[i:i + m] for i in range(len(data) - m + 1)]


def check_p2(words, m_int: int) -> bool:
    """Every factor of size m occurs at most once across the whole family."""
    grams = [g for w in words for g in _grams(as_bits(w), m_int)]
    return len(set(grams)) == len(grams)


@dataclass
class Family:
    """An accepted sample: 2^p words of length l under P1 and P2, the first
    starting with 1.  Each chain's q comes from ``_add_chain`` alone."""

    words: list[Word]
    params: Params
    seed: int
    retries: int


RETRY_CAP = 64


def _family_failure(words: list[Word], params: Params) -> str | None:
    """The first family rule ``words`` break, or None: each word passes P1,
    the first word starts with 1, the family passes P2."""
    for j, w in enumerate(words):
        if not check_p1(w, params.k, params.l):
            return f"family word {j} fails P1"
    if words[0].data[:1] != b"1":
        return "the first family word does not start with 1"
    if not check_p2(words, params.m_int):
        return "the family fails P2"
    return None


def sample_family(params: Params, seed: int) -> Family:
    """Rejection-sample a family that :func:`_family_failure` accepts; the
    whole family is redrawn on any failure, the last kept as ``last_failure``."""
    last_failure = None
    for attempt in range(RETRY_CAP):
        words = [Word(random_word([seed, attempt, j], params.l))
                 for j in range(params.family_count)]
        last_failure = _family_failure(words, params)
        if last_failure is None:
            return Family(words=words, params=params, seed=seed, retries=attempt)
    raise SamplingError(
        f"family sampling failed {RETRY_CAP} times",
        {"n": params.n, "l": params.l, "gamma": params.gamma, "seed": seed,
         "last_failure": last_failure})


def _chain_gadget(x: bytes, m: int, u: bytes | None, i: int, c: int) -> bytes:
    """Gadget c of offset i for a chain of word x: offset i > 0 replays the
    violated prefix up to max(i, m), flips one letter, then pads from
    x[0..m-1] followed by ones; offset 0 repeats x's first letter after the
    resynchronization word u of :func:`_resync_word`."""
    if i == 0:
        return u + x[:1] * c
    mp = max(i, m)
    if mp >= len(x):
        raise ConstructionError("gadget head does not fit inside the chain word",
                                {"i": i, "m": m, "l": len(x)})
    return x[:mp] + bytes([x[mp] ^ 1]) + (x[:m] + b"1" * c)[:c]


def _resync_word(parser: StreamParser, green_words: set[bytes], x: bytes,
                 m_int: int, h_red: int, chain_index: int) -> bytes:
    """The resynchronization word u of an offset-0 chain.

    u is the shortest, then the least in byte order, of the blocks the
    parser has completed that end by ``h_red``, have at most ``m_int``
    letters, are not in ``green_words`` and are not a prefix of x; raises
    ``ConstructionError`` when there is none.  The plain parsing's words are
    ``green_words`` and the chain's regulars x[0..q], ..., x; the shorter
    prefixes of x are in ``green_words``, so a block is plain exactly when it
    is in ``green_words`` or prefixes x.  Node t of the parser's trie is
    block t - 1, and a node's children are later blocks, so a walk of the
    trie level by level, child 0 before child 1, meets the blocks in that
    order and prunes the blocks that end after ``h_red`` with their
    subtrees."""
    child = parser.child
    # block t - 1 ends where block t starts, the last completed block where
    # the block in progress starts: the first ``count`` blocks end by h_red
    count = bisect_right(parser.starts, h_red) - 1 + (parser.block_start <= h_red)
    level = [(0, b"")]                 # the root, the empty word
    for _ in range(m_int):
        level = [(t, word + letter) for node, word in level
                 for t, letter in zip(child[2 * node:2 * node + 2], (b"0", b"1"))
                 if 0 < t <= count]
        for _, word in level:
            if word not in green_words and not x.startswith(word):
                return word
    raise ConstructionError(
        "no resynchronization word of size <= m exists in the front "
        "parsing but outside the plain parsing",
        {"chain": chain_index, "m": m_int, "half_point": h_red})


def _add_chain(parser: StreamParser, table: Table, green_words: set[bytes],
               chain_index: int, xw: Word, *, q_max: int, m_int: int, window: int,
               scratch: bool = False) -> ChainRecord:
    """The one chain set-up of the chained and the infinite construction.

    Finds q, the first prefix x[0..q] of the chain word x that is not yet a
    block of the plain parsing (its words are ``green_words``), and raises
    when q exceeds ``q_max``.  Then lays the chain of the prefixes x[0..q],
    ..., x with :func:`~lz78lab.construction.build_chain`, runs its gadget
    loop with :func:`_chain_gadget`, u from :func:`_resync_word` at a hot
    offset 0, and adds the chain's unit words, read from ``table``, the
    segment table of 0w, to ``green_words`` for later chains."""
    xb = xw.data
    l = len(xb)
    q = 0
    while q < l and xb[:q + 1] in green_words:
        q += 1
    if q > q_max:
        raise ConstructionError(
            "the chain word's first fresh prefix lies beyond its bound",
            {"chain": chain_index, "q": q, "bound": q_max})
    h_red = len(table) + sum(t + 1 for t in range(q, l // 2 + 1))
    u = None

    def gadgets(i0: int):
        nonlocal u
        if i0 == 0:
            u = _resync_word(parser, green_words, xb, m_int, h_red, chain_index)
        return partial(_chain_gadget, xb, m_int, u, i0)

    seg_lo = len(table.segments)
    record = build_chain(parser, table, chain_index, xw, q, window=window,
                         gadgets=gadgets, include_tail=False, scratch=scratch)
    record.resync_word = u
    green_words.update(seg.source[:seg.length] for seg in table.segments[seg_lo:])
    return record


def construct_general(family: Family, reparse: str = "checkpoint") -> ConstructedWord:
    """Build the length-n word of the family's parameters: per-word chains,
    per-chain gadget loops, zero padding to exactly n letters."""
    params = family.params
    if reparse not in ("checkpoint", "scratch"):
        raise ParameterError(f"unknown reparse mode {reparse!r}")
    parser, table = StreamParser(), Table(b"0")
    green_words: set[bytes] = set()
    chains = [_add_chain(parser, table, green_words, j, xw, q_max=params.l // 2,
                         m_int=params.m_int, window=params.window,
                         scratch=reparse == "scratch")
              for j, xw in enumerate(family.words)]

    w_prime = len(table) - 1
    if w_prime > params.n:
        raise ConstructionError(
            "construction overflowed the target length, which the size bound "
            "rules out", {"w_prime": w_prime, "n": params.n})
    pad = params.n - w_prime
    if pad:
        table.extend([Segment(PADDING, pad, -1, b"0" * pad)])
        for piece in table.slices(parser.position):
            parser.feed(piece)
    cw = ConstructedWord.from_parser(
        parser, table, chains,
        {"params": params, "seed": family.seed, "w_prime": w_prime})
    assert cw.n == params.n
    return cw


@dataclass(frozen=True)
class GeneralReport:
    n: int
    l: int
    gamma: float
    p: float
    dic_w: int
    dic_aw: int
    w_prime: int
    chains: int
    gadget_counts: list[int]
    chosen_i: list[int | None]
    upper_bound_ok: bool              # dic_w <= (3+sqrt(3))/2 * n/l
    upper_bound: float
    violation_caps_ok: bool           # per-chain cap over the gadget window
    pair_trade_off_ok: bool           # per-chain top-two violation sums <= s_j
    sync_ok: bool                     # green parse boundaries match the segments
    catastrophe_factor: float         # dic_aw / dic_w
    front_speed_scaled: float         # dic_aw * sqrt(l) / n
    per_chain_red_blocks: list[int]
    per_chain_red_target: float       # l^(3/2)/54

    def to_json_obj(self) -> dict:
        return {"schema": 1, **asdict(self)}


def verify_general(cw: ConstructedWord) -> GeneralReport:
    """A fresh parse of w, the construction's parse of 0w certified
    (``cw.certified_red``) instead of parsed again, their
    :func:`~lz78lab.construction.front_census`, and all the per-chain checks."""
    params: Params = cw.meta["params"]
    green = parse(cw.letters())
    red = cw.certified_red()
    sync_ok, counts, chain_red = front_census(cw, green, red.starts)
    cap = params.l / 2 + 2 * params.m + 1 + 2 * params.k * math.sqrt(params.l)
    caps_ok = all(c <= cap for per_i in counts.values()
                  for i, c in per_i.items() if i <= params.window)
    # a lone offset counts at most s_j: a regular holds one red block per offset
    pairs_ok = all(sum(sorted(counts[c.index].values())[-2:]) <= c.regular_count
                   for c in cw.chains)

    bound = (3 + math.sqrt(3)) / 2 * params.n / params.l
    return GeneralReport(
        n=params.n, l=params.l, gamma=params.gamma, p=params.p,
        dic_w=green.dict_size, dic_aw=red.dict_size,
        w_prime=cw.meta["w_prime"],
        chains=len(cw.chains),
        gadget_counts=[c.gadget_count for c in cw.chains],
        chosen_i=[c.chosen_i for c in cw.chains],
        upper_bound=bound,
        upper_bound_ok=green.dict_size <= bound,
        violation_caps_ok=caps_ok,
        pair_trade_off_ok=pairs_ok,
        sync_ok=sync_ok,
        catastrophe_factor=red.dict_size / green.dict_size,
        front_speed_scaled=red.dict_size * math.sqrt(params.l) / params.n,
        per_chain_red_blocks=[chain_red[c.index] for c in cw.chains],
        per_chain_red_target=params.l ** 1.5 / 54,
    )


def save_family(family: Family, path) -> None:
    """Write the family as text: a header line, then one word a line.  The
    file is an export (``family-sample --out``); no command reads it back."""
    p = family.params
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# lz78lab-family schema=1 n={p.n} l={p.l} gamma={p.gamma} "
                 f"p={p.p} k={p.k} m={p.m} exact={p.exact} seed={family.seed} "
                 f"retries={family.retries}\n")
        for w in family.words:
            fh.write(w.to_text() + "\n")
