"""Binary words: immutable bit sequences with text and packed I/O.

A word is stored as one ASCII byte ('0'/'1') per letter.  The compiled
kernel walks the parse trie by the low bit of each byte, and certify's rule
loop compares blocks with ``memcmp`` on the bytes, so neither converts the
word; the pure-Python fallbacks walk the same int32 child array by the same
low bit and compare the same byte slices.  The dense 64-bit packed layout is
used only as an on-disk format for large artifacts (see :func:`pack_word` /
:func:`unpack_word`).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

PACKED_MAGIC = b"LZCW"


def as_bits(w) -> bytes:
    """Coerce a Word / str / bytes into validated ASCII '0'/'1' bytes."""
    if isinstance(w, Word):
        return w.data
    if isinstance(w, str):
        # one "?" per non-ASCII character keeps the offsets, and fails below
        data = w.encode("ascii", "replace")
    elif isinstance(w, (bytes, bytearray, memoryview)):
        data = bytes(w)
    else:
        raise TypeError(f"cannot interpret {type(w).__name__} as a binary word")
    if data.translate(None, b"01"):
        bad = next(i for i, ch in enumerate(data) if ch not in b"01")
        letter = w[bad] if isinstance(w, str) else chr(data[bad])
        raise ParameterError(f"invalid letter at offset {bad}: {letter!r}")
    return data


def random_word(entropy, length: int) -> bytes:
    """``length`` uniform letters from PCG64 on ``SeedSequence(entropy)``, the
    one seeded letter draw: published entropy lists reproduce their words."""
    if any(e < 0 for e in entropy):
        raise ParameterError(f"seed entropy must be >= 0, not {list(entropy)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return (rng.integers(0, 2, size=length, dtype=np.uint8) + ord("0")).tobytes()


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

    def __add__(self, other) -> "Word":
        return Word(self.data + as_bits(other))

    def __repr__(self) -> str:
        if len(self.data) <= 40:
            return f"Word({self.to_text()!r})"
        return f"Word({self.data[:20].decode()!r}... len={len(self.data)})"


def pack_word(bits) -> bytes:
    """Serialize to the packed format: magic, u64 little-endian bit length,
    then the bits packed little-endian within each byte."""
    data = as_bits(bits)
    arr = np.frombuffer(data, dtype=np.uint8) & 1
    payload = np.packbits(arr, bitorder="little").tobytes()
    return PACKED_MAGIC + len(data).to_bytes(8, "little") + payload


def unpack_word(blob: bytes) -> Word:
    if blob[:4] != PACKED_MAGIC:
        raise ParameterError("not a packed word: bad magic")
    n = int.from_bytes(blob[4:12], "little")
    payload = np.frombuffer(blob[12:], dtype=np.uint8)
    if len(blob) < 12 or len(payload) != (n + 7) // 8:
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
    data = as_bits(bits)
    with open(path, "wb") as fh:
        if packed:
            fh.write(pack_word(data))
        else:
            fh.write(data)
            fh.write(b"\n")
