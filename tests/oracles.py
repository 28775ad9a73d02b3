"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: set-based greedy parsing, quadratic
scans, interval arithmetic over explicit lists.  None of it shares code with
the package paths it checks.  :func:`worst_case_word` is a test input, not
an oracle: no command builds that word, so it lives here, as plain strings.
"""


def naive_parse(text: str) -> list[str]:
    """Greedy set-based parsing straight from the definition."""
    seen = set()
    blocks = []
    current = ""
    for ch in text:
        current += ch
        if current not in seen:
            seen.add(current)
            blocks.append(current)
            current = ""
    if current:
        blocks.append(current)  # trailing duplicate
    return blocks


def naive_occurrences(w: str, u: str) -> int:
    return sum(1 for i in range(len(w) - len(u) + 1) if w[i:i + len(u)] == u)


def naive_kgram_census(w: str, k: int) -> dict[str, int]:
    out = {}
    for i in range(len(w) - k + 1):
        g = w[i:i + k]
        out[g] = out.get(g, 0) + 1
    return out


def naive_classify(green_blocks: list[str], red_blocks: list[str]):
    """Classify red blocks by explicit interval overlap, 0-based green indices."""
    gspans = []
    pos = 0
    for b in green_blocks:
        gspans.append((pos, pos + len(b) - 1))
        pos += len(b)
    out = []
    rpos = 0
    for b in red_blocks:
        lo, hi = rpos - 1, rpos + len(b) - 2  # w coordinates
        rpos += len(b)
        if lo < 0:
            out.append(("first",))
            continue
        touched = [gi for gi, (gs, ge) in enumerate(gspans)
                   if not (hi < gs or lo > ge)]
        if len(touched) == 1:
            gi = touched[0]
            out.append(("offset", lo - gspans[gi][0], gi))
        else:
            out.append(("junction",))
    return out


def naive_locate(spans, a: int, b: int):
    """The red block of aw from letter a to b over ascending, disjoint spans
    of w, by a scan: the last span starting at or before its first letter in
    w (or -1), the offset there (or None), and whether it lies inside."""
    k = max((k for k, (start, _) in enumerate(spans) if start <= a - 1), default=-1)
    if k < 0:
        return -1, None, False
    start, end = spans[k]
    return k, a - 1 - start, all(start <= p < end for p in range(a - 1, b - 1))


def worst_case_word(n: int) -> str:
    """All words of size 1 to n concatenated in length-lexicographic order."""
    return "".join(format(v, f"0{size}b") for size in range(1, n + 1)
                   for v in range(1 << size))


def random_bits(rng, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def naive_rotation(circuits, k: int, prefix: str):
    """The first de Bruijn word that starts with ``prefix``, by a scan:
    circuit by circuit, then rotation r = 0, 1, ... of each, the word being
    ``text[r:] + text[:r]`` followed by its first k - 1 letters again; None
    when no rotation of any circuit starts with ``prefix``."""
    for text in circuits:
        for r in range(len(text)):
            rotated = text[r:] + text[:r]
            word = rotated + rotated[:k - 1]
            if word.startswith(prefix):
                return word
    return None


def naive_gadget_loop(x: str, front: str, window: int, make):
    """The gadget loop from its definition, over the prefix chain of x.

    Every pass re-parses front + word with :func:`naive_parse` and classifies
    the red blocks against the segments with :func:`naive_classify`.  The hot
    offset i0 is the one offset in [0, window] violated in more than half the
    regular blocks; while at least d regulars are violated at i0, the gadget
    ``make(i0, c)`` goes in front of the d-th of them, and d grows by one
    whenever the previous target is still violated.  Segments are
    ``("regular", text, t)`` or ``("gadget", text, (i0, c))``.  Returns the
    segments, i0 (None when no offset is hot), the gadget count and the
    final d.
    """
    segments = [("regular", x[:t + 1], t) for t in range(len(x))]
    s = len(x)

    def violated_at():
        out = {}
        red = naive_parse(front + "".join(seg[1] for seg in segments))
        for cls in naive_classify([seg[1] for seg in segments], red):
            if cls[0] == "offset" and segments[cls[2]][0] == "regular":
                out.setdefault(cls[1], set()).add(segments[cls[2]][2])
        return out

    hot = [i for i, regs in violated_at().items() if i <= window and 2 * len(regs) > s]
    if not hot:
        return segments, None, 0, None
    assert len(hot) == 1, "two hot offsets"
    i0 = hot[0]
    d, c, target = s // 2 + 1, 0, None
    while True:
        violated = sorted(violated_at().get(i0, ()))
        if c and target in violated:
            d += 1
        if len(violated) < d:
            return segments, i0, c, d
        assert c < s, "more gadgets than regular blocks"
        target = violated[d - 1]
        at = segments.index(("regular", x[:target + 1], target))
        segments.insert(at, ("gadget", make(i0, c), (i0, c)))
        c += 1


def naive_resync_word(blocks, ends, green_words, x, m, h_red):
    """The resynchronization word from its definition: the shortest, then
    the least, of the front parsing's blocks that end by ``h_red``, have at
    most ``m`` letters, are not in ``green_words`` and do not prefix x; None
    when no block qualifies."""
    candidates = {b for b, end in zip(blocks, ends)
                  if end <= h_red and len(b) <= m
                  and b not in green_words and not x.startswith(b)}
    return min(candidates, key=lambda b: (len(b), b), default=None)


def naive_letters(front: bytes, segments) -> bytes:
    """The letters of a segment table from its definition: the front, then
    the first ``length`` letters of each segment's ``source``, joined."""
    return b"".join([front] + [seg.source[:seg.length] for seg in segments])
