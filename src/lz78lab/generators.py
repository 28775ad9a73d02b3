"""Structured word generators: de Bruijn sequences and the prefix
concatenation pref(x)."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .words import Word, as_bits, random_word


@dataclass(frozen=True)
class DeBruijnWord:
    """A de Bruijn word of order k: length 2^k + k - 1, every k-gram once."""

    word: Word


def _eulerian_cycle(k: int, seed: int) -> bytes:
    """Edge labels of an Eulerian circuit on the (k-1)-bit shift graph, as
    the letters b"0"/b"1".

    Deterministic for fixed (k, seed); seed permutes the per-vertex order in
    which the two outgoing edges are tried, which picks a different circuit:
    vertex v tries letter ``random_word([seed, k], nverts)[v] & 1`` first.
    Hierholzer's walk keeps its stack as an ``array`` of vertices and a
    ``bytearray`` of the letters that entered them, about ten bytes per edge.
    """
    nverts = 1 << (k - 1)
    mask = nverts - 1
    prefs = random_word([seed, k], nverts) if seed else bytes(nverts)
    tried = bytearray(nverts)
    stack = array("l", [0])
    letters = bytearray(b"-")      # the start vertex is entered by no edge
    out = bytearray()
    while stack:
        v = stack[-1]
        t = tried[v]
        if t < 2:
            tried[v] = t + 1
            a = t ^ (prefs[v] & 1)
            stack.append(((v << 1) | a) & mask)
            letters.append(48 + a)
        else:
            stack.pop()
            out.append(letters.pop())
    del out[-1]                    # the start vertex's placeholder
    out.reverse()
    return bytes(out)


def de_bruijn(k: int, require_prefix=None, seed: int = 0) -> DeBruijnWord:
    """Generate a de Bruijn word of order k (length 2^k + k - 1).

    The circuit is rotated so that ``require_prefix`` leads, at the first
    match of one ``find`` over the circuit read cyclically; any prefix of
    length <= k is always realizable.  Deterministic for fixed (k, prefix, seed).
    """
    # about ten bytes per letter: `debruijn --k 22` peaks at 73 MB, k = 24 at 205 MB
    if not 1 <= k <= 24:
        raise ParameterError("order k must be in [1, 24]")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, not {seed}")
    n = 1 << k
    prefix = as_bits(require_prefix) if require_prefix is not None else b""
    if len(prefix) > n + k - 1:
        raise ParameterError(
            f"prefix of length {len(prefix)} cannot occur in a word of length {n + k - 1}")
    for attempt_seed in _seed_ladder(seed):
        text = _eulerian_cycle(k, attempt_seed)
        # rotation r's word is cyclic[r:r + n + k - 1]
        cyclic = text + text + text[:k - 1]
        at = cyclic.find(prefix)
        if 0 <= at < n:
            return DeBruijnWord(Word(cyclic[at:at + n + k - 1]))
    raise ParameterError(
        f"no generated de Bruijn word of order {k} starts with the requested prefix")


def _seed_ladder(seed: int):
    yield seed
    # long prefixes may miss one particular circuit; retry eight nearby
    # tie-breaks
    for i in range(1, 9):
        yield (seed or 1) * 1000003 + i


def _gram_counts(data: bytes, length: int) -> np.ndarray:
    """Occurrence count of every length-``length`` value (linear, overlapping)."""
    bits = np.frombuffer(data, dtype=np.uint8) & 1
    n = len(bits) - length + 1
    if n <= 0:
        return np.zeros(1 << length, dtype=np.int64)
    vals = np.zeros(n, dtype=np.int64)
    for j in range(length):
        vals = (vals << 1) | bits[j:j + n]
    return np.bincount(vals, minlength=1 << length)


def pref(x) -> Word:
    """Concatenation of all prefixes of x in ascending length."""
    data = as_bits(x)
    return Word(b"".join(data[:i] for i in range(1, len(data) + 1)))
