"""Binary words: immutable bit sequences with text and packed I/O.

A word is stored as one ASCII byte ('0'/'1') per letter.  The compiled
kernel walks the parse trie by the low bit of each byte, and certify's rule
loop compares blocks with ``memcmp`` on the bytes, so neither converts the
word; the pure-Python fallbacks walk the same int32 child array by the same
low bit and compare the same byte slices.  A constructed word is never held
as one buffer: a :class:`Table` names, run by run, the words its letters
are read from, and :meth:`Table.slices` yields them a slice at a time.  The
dense 64-bit packed layout is used only as an on-disk format for large
artifacts (see :func:`pack_word` / :func:`unpack_word`).
"""

from __future__ import annotations

import operator
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .errors import ParameterError

PACKED_MAGIC = b"LZCW"


SLICE = 1 << 14                    # letters a pass over a whole word copies at once


def as_bits(w) -> bytes:
    """Coerce a Word / str / bytes into validated ASCII '0'/'1' bytes.

    ``bytes`` come back as they are, not copied.  The letters are checked
    SLICE at a time, so the check allocates two buffers of at most SLICE
    bytes, whatever the word's length; a word that fits in one is checked in
    place, by one ``translate``."""
    if type(w) is bytes:
        data = w
    elif isinstance(w, Word):
        return w.data
    elif isinstance(w, str):
        # one "?" per non-ASCII character keeps the offsets, and fails below
        data = w.encode("ascii", "replace")
    elif isinstance(w, (bytes, bytearray, memoryview)):
        data = bytes(w)
    else:
        raise TypeError(f"cannot interpret {type(w).__name__} as a binary word")
    if len(data) > SLICE or data.translate(None, b"01"):
        for lo in range(0, len(data), SLICE):
            piece = data[lo:lo + SLICE]
            if rest := piece.translate(None, b"01"):
                # the first letter left is the first bad one, and no earlier
                # copy of it is in the piece
                bad = lo + piece.index(rest[0])
                letter = w[bad] if isinstance(w, str) else chr(data[bad])
                raise ParameterError(f"invalid letter at offset {bad}: {letter!r}")
    return data


def random_word(entropy, length: int) -> bytes:
    """``length`` uniform letters from PCG64 on ``SeedSequence(entropy)``, the
    one seeded letter draw: published entropy lists reproduce their words.

    numpy's ``Generator.integers(0, 2, dtype=uint8)`` defines the letters, and
    the tests hold both modes to it.  numpy takes one byte of the stream per
    letter by Lemire's method with range 2, which rejects no byte and yields
    ``(2 * byte) >> 8``, so letter i is the top bit of :func:`_stream` byte i."""
    length = operator.index(length)
    if length < 0:
        raise ParameterError(f"word length must be >= 0, not {length}")
    return _stream(entropy, length).translate(_TOP_BIT)


def random_unit(entropy) -> float:
    """The first ``Generator.random()`` of PCG64 on ``SeedSequence(entropy)``, a
    double in [0, 1).  numpy's Generator defines it, and the tests hold both
    modes to it: the top 53 bits of the stream's first next64 times 2^-53."""
    return (int.from_bytes(_stream(entropy, 8), "little") >> 11) * 2.0 ** -53


_TOP_BIT = bytes(ord("0") + (byte >> 7) for byte in range(256))   # stream byte -> letter


def _stream(entropy, count: int) -> bytes:
    """The first ``count`` bytes of PCG64's next64 stream on
    ``SeedSequence(entropy)``, each next64 little-endian: the one source of
    every seeded draw, the de Bruijn tie-breaks included.  The kernel's
    ``lz78_pcg64_bytes`` gives them when it loaded, numpy's bit generator
    without it."""
    entropy = list(entropy)            # read once: an iterator has no second pass
    words = _entropy_words(entropy)
    # the kernel that lz78lab.parsing bound, read at each draw: the parsing
    # module imports this one, and the tests unbind it there
    lib = sys.modules[f"{__package__}.parsing"]._KERNEL
    if lib is None:
        import numpy as np

        bits = np.random.PCG64(np.random.SeedSequence(entropy))
        return bits.random_raw(-(-count // 8)).astype("<u8").tobytes()[:count]
    return lib.lz78_pcg64_bytes(words, count)


def _entropy_words(entropy) -> array:
    """The uint32 words that ``SeedSequence`` makes of ``entropy``, a list:
    each value's 32-bit words, low word first, and one 0 for 0."""
    try:
        return array("I", entropy)     # each value one uint32 word, the common case
    except OverflowError:              # a negative value, or one of two words or more
        pass
    words = array("I")
    for value in map(operator.index, entropy):
        if value < 0:
            raise ParameterError(f"seed entropy must be >= 0, not {list(entropy)}")
        while True:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
            if not value:
                break
    return words


class Word:
    """An immutable finite binary word."""

    __slots__ = ("data",)

    def __init__(self, data):
        object.__setattr__(self, "data", as_bits(data))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        return cls(text.strip("\n"))

    def to_text(self) -> str:
        return self.data.decode("ascii")

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.data[i])
        return self.data[i] & 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        if len(self.data) <= 40:
            return f"Word({self.to_text()!r})"
        return f"Word({self.data[:20].decode()!r}... len={len(self.data)})"


class Table:
    """A word held as a table of runs whose letters live in other words: the
    letters of ``front``, then those of each segment, the first ``length``
    letters of its ``source`` (any object with those two fields, as
    :class:`~lz78lab.construction.Segment`).  Run 0 is the front, run r > 0
    is segment r - 1, and run r spans ``bounds[r]`` to ``bounds[r + 1]``, an
    int64 ``array``, 8 bytes a run, which the kernel reads in place.  The
    table keeps its own list of the segments, which a construction grows
    through :meth:`extend` and :meth:`insert` and cuts short with
    :meth:`cut`; a plain word is the one-run table ``Table(data)``."""

    __slots__ = ("front", "segments", "bounds")

    def __init__(self, front: bytes, segments=()):
        self.front, self.segments, self.bounds = front, [], array("q", [0, len(front)])
        self.extend(segments)

    def __len__(self) -> int:
        return self.bounds[-1]

    def __eq__(self, other) -> bool:
        """Tables are equal when their fronts and segments are."""
        return (isinstance(other, Table) and self.front == other.front
                and self.segments == other.segments)

    __hash__ = None                # the segments may grow

    def sources(self) -> list[bytes]:
        """The word each run's letters begin."""
        return [self.front, *map(operator.attrgetter("source"), self.segments)]

    def extend(self, segments) -> None:
        """Append ``segments``, each refused as :meth:`insert` refuses one."""
        segments = list(map(_held, segments))
        self.segments += segments
        end = self.bounds.pop()
        self.bounds.extend(accumulate(map(operator.attrgetter("length"), segments), initial=end))

    def insert(self, k: int, segment) -> None:
        """Put ``segment`` before segment k, shifting the bounds of the runs
        after it.  A segment whose ``source`` does not hold its ``length``
        letters is refused with ``ParameterError``: its run would be read
        past the source's end."""
        self.segments.insert(k, _held(segment))
        bounds = self.bounds
        bounds[k + 2:] = array("q", [b + segment.length for b in bounds[k + 1:]])

    def cut(self, n: int) -> None:
        """Keep the first ``n`` letters, n at least the front's length: the
        segments that start at or after letter n go, and the last one kept,
        a named tuple as :class:`~lz78lab.construction.Segment`, is cut
        short to end there."""
        runs = bisect_left(self.bounds, n, lo=1)   # the front and the runs that start before n
        del self.segments[runs - 1:], self.bounds[runs + 1:]
        if self.bounds[runs] > n:
            self.segments[-1] = self.segments[-1]._replace(length=n - self.bounds[runs - 1])
            self.bounds[runs] = n

    def slices(self, a: int = 0, b: int | None = None):
        """The letters of positions [a, b) (b is the end by default) as
        ``bytes``, SLICE at a time from a, the last slice shorter: a slice
        joins the pieces of the runs it spans, so its cuts do not depend on
        the runs."""
        b = len(self) if b is None else b
        bounds, segments = self.bounds, self.segments
        while a < b:
            stop = min(a + SLICE, b)
            # the runs of letters a and stop - 1; those between are whole
            r, last = bisect_right(bounds, a) - 1, bisect_right(bounds, stop - 1) - 1
            head = segments[r - 1].source if r else self.front
            if r == last:
                yield head[a - bounds[r]:stop - bounds[r]]
            else:
                yield b"".join([head[a - bounds[r]:bounds[r + 1] - bounds[r]],
                                *[seg.source[:seg.length] for seg in segments[r:last - 1]],
                                segments[last - 1].source[:stop - bounds[last]]])
            a = stop

    def __getitem__(self, i: slice) -> bytes:
        """The letters of a slice (step 1), joined."""
        a, b, _ = i.indices(len(self))
        return b"".join(self.slices(a, b))


def _held(segment):
    """``segment``, unless its source does not hold its length."""
    if not 0 <= segment.length <= len(segment.source):
        raise ParameterError(f"a segment of {segment.length} letters cannot be read "
                             f"from a source of {len(segment.source)}")
    return segment


def pack_word(bits) -> bytes:
    """Serialize to the packed format: magic, u64 little-endian bit length,
    then the bits packed little-endian within each byte."""
    data = as_bits(bits)
    return PACKED_MAGIC + len(data).to_bytes(8, "little") + _packed(data)


def _packed(data: bytes) -> bytes:
    """The letters' bits, packed little-endian within each byte."""
    import numpy as np

    return np.packbits(np.frombuffer(data, dtype=np.uint8) & 1, bitorder="little").tobytes()


def unpack_word(blob: bytes) -> Word:
    import numpy as np

    if blob[:4] != PACKED_MAGIC:
        raise ParameterError("not a packed word: bad magic")
    if len(blob) < 12:
        raise ParameterError(f"packed word header is cut short: {len(blob)} bytes, "
                             "not the 12 of the magic and the 8-byte length")
    n = int.from_bytes(blob[4:12], "little")
    payload = np.frombuffer(blob[12:], dtype=np.uint8)
    if len(payload) != (n + 7) // 8:
        raise ParameterError(f"packed word declares {n} letters but carries "
                             f"{len(payload)} payload bytes")
    if n % 8 and payload[-1] >> (n % 8):
        raise ParameterError(f"packed word sets padding bits after its {n} letters")
    bits = np.unpackbits(payload, bitorder="little", count=n)
    return Word((bits + ord("0")).astype(np.uint8).tobytes())


def read_word_file(path) -> Word:
    """Read a word from a file; packed and text formats are auto-detected."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == PACKED_MAGIC:
        return unpack_word(blob)
    return Word(blob.rstrip(b"\n"))


def write_word_file(path, bits, packed: bool = False) -> None:
    """Write a word, or a :class:`Table` a slice at a time, never joined: a
    packed slice, SLICE letters, a multiple of 8, packs to the bytes it
    holds in the packing of the whole word."""
    if isinstance(bits, Table):
        n, pieces = len(bits), bits.slices()
    else:
        data = as_bits(bits)
        n, pieces = len(data), (data,)
    with open(path, "wb") as fh:
        if packed:
            fh.write(PACKED_MAGIC + n.to_bytes(8, "little"))
        for piece in pieces:
            fh.write(_packed(piece) if packed else piece)
        if not packed:
            fh.write(b"\n")
