"""Group backends with exact arithmetic and canonical byte keys.

Three backends are provided: Thompson's group F (reduced tree pairs),
free groups F_k (reduced words), and the lattices Z^d (coordinate vectors).
Every element has a canonical byte key, injective on group elements within
a backend, so key equality is group equality and keys can be used directly
as hash-map keys and in on-disk checkpoints.

Key format (version 1, stable): one backend tag byte followed by the payload.

  0x46 'F'  leaf count (u16 BE), then domain-tree and range-tree tokens
            (preorder, 1=caret 0=leaf), packed MSB-first into bytes.
  0x57 'W'  one byte per reduced-word letter: (generator index << 1) | inv.
  0x5A 'Z'  dimension (u8), then each coordinate as a zigzag LEB128 varint.
"""
from __future__ import annotations

import abc
from collections.abc import Mapping
from typing import NamedTuple

from . import kernel, treepair
from .errors import UsageError

_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class GeneratorLetter(NamedTuple):
    """One letter of a word: generator `index`, possibly inverted."""

    index: int
    inverted: bool = False


class Word(NamedTuple):
    """A finite (possibly empty) string of generator letters."""

    letters: tuple[GeneratorLetter, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse e.g. "ABa" -- uppercase is a generator, lowercase its inverse."""
        letters = []
        for ch in text:
            if ch in " \t":
                continue
            up = ch.upper()
            if up not in _UPPER:
                raise UsageError(f"cannot parse generator letter {ch!r}")
            letters.append(GeneratorLetter(_UPPER.index(up), ch.islower()))
        return cls(tuple(letters))


class CanonicalElement(NamedTuple):
    """A group element: its backend and its canonical key."""

    backend: "GroupBackend"
    key: bytes

    def __repr__(self):
        return f"<{self.backend.name} element {self.key.hex()}>"


class GroupBackend(abc.ABC):
    """Exact group arithmetic on canonical byte keys."""

    name: str
    alphabet_size: int

    @abc.abstractmethod
    def identity_key(self) -> bytes: ...

    @abc.abstractmethod
    def generator_key(self, letter: GeneratorLetter) -> bytes: ...

    @abc.abstractmethod
    def multiply_keys(self, a: bytes, b: bytes) -> bytes: ...

    @abc.abstractmethod
    def invert_key(self, a: bytes) -> bytes: ...

    def check_key(self, key: bytes) -> bytes:
        """The key, refused with ValueError unless it is canonical.  The
        default runs invert_key, which for free groups and Z^d refuses every
        key that multiply_keys cannot make."""
        self.invert_key(key)
        return key

    # the ladder's batched loops and level store: apply_left and
    # load_entries return a Level (tgf.treepair's, or for F the compiled
    # kernel's).  The defaults are the pure loops, composing with
    # multiply_keys, and the pure loader, checking each key with check_key

    def apply_left(self, factors: list[bytes], vec: Mapping[bytes, int]) -> Mapping[bytes, int]:
        """Multiset product (sum of factors) . vec, multiplying on the left."""
        return treepair.apply_left(
            factors, vec, compose=self.multiply_keys, identity=self.identity_key()
        )

    def inner(self, words: list[bytes], vec: Mapping[bytes, int]) -> list[int]:
        """For each word w, the sum over keys x of vec of vec[x] * vec[w*x]."""
        return treepair.inner(words, vec, compose=self.multiply_keys)

    def load_entries(self, body, count: int) -> Mapping[bytes, int]:
        """The level that a checkpoint body of `count` entries holds, refused
        as treepair.read_entries refuses it or at its first key that
        check_key refuses."""
        return treepair.Level(
            (self.check_key(key), coeff) for key, coeff in treepair.read_entries(body, count)
        )

    def element_from_word(self, word: Word) -> CanonicalElement:
        key = self.identity_key()
        for letter in word.letters:
            if not 0 <= letter.index < self.alphabet_size:
                raise UsageError(
                    f"letter index {letter.index} out of range for {self.name}"
                )
            g = self.generator_key(letter)
            key = self.multiply_keys(key, g)
        return CanonicalElement(self, key)


# -- Thompson's group F ------------------------------------------------------

# Generator A maps [0,1/2]->[0,1/4], [1/2,3/4]->[1/4,1/2], [3/4,1]->[1/2,1];
# B is the identity on [0,1/2] and a half-scale copy of A on [1/2,1].
_A_KEY = treepair.pack_key(bytes([1, 0, 1, 0, 0]), bytes([1, 1, 0, 0, 0]))
_B_KEY = treepair.pack_key(
    bytes([1, 0, 1, 0, 1, 0, 0]), bytes([1, 0, 1, 1, 0, 0, 0])
)


class ThompsonF(GroupBackend):
    """Thompson's group F with standard generators A, B.

    Products compose maps with the right factor acting first; under this
    convention both defining relations [AB^-1, A^-1BA] and [AB^-1, A^-2BA^2]
    hold (exercised in the test suite against an interval-map oracle).
    """

    name = "thompson_f"
    alphabet_size = 2

    def identity_key(self) -> bytes:
        return kernel.IDENTITY_KEY

    def generator_key(self, letter: GeneratorLetter) -> bytes:
        key = _A_KEY if letter.index == 0 else _B_KEY
        return kernel.invert_key(key) if letter.inverted else key

    def multiply_keys(self, a: bytes, b: bytes) -> bytes:
        return kernel.compose_keys(a, b)

    def invert_key(self, a: bytes) -> bytes:
        return kernel.invert_key(a)

    def check_key(self, key: bytes) -> bytes:
        """The key, refused with TreePairError (a ValueError) if it is
        malformed or its tree pair is not reduced: the pure reference of the
        check that both kernels' load_entries run."""
        return treepair.check_key(key)

    def apply_left(self, factors: list[bytes], vec: Mapping[bytes, int]) -> Mapping[bytes, int]:
        return kernel.apply_left(factors, vec)

    def inner(self, words: list[bytes], vec: Mapping[bytes, int]) -> list[int]:
        return kernel.inner(words, vec)

    def load_entries(self, body, count: int) -> Mapping[bytes, int]:
        return kernel.load_entries(body, count)


# -- free groups -------------------------------------------------------------

_FREE_TAG = 0x57


class FreeGroup(GroupBackend):
    """Free group on `rank` generators; canonical form is the reduced word."""

    name = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= 100:
            raise UsageError("free-group rank must be in 1..100")
        self.rank = rank
        self.alphabet_size = rank
        self.name = f"free_{rank}"

    def identity_key(self) -> bytes:
        return bytes([_FREE_TAG])

    def generator_key(self, letter: GeneratorLetter) -> bytes:
        return bytes([_FREE_TAG, letter.index << 1 | letter.inverted])

    def _letters(self, key: bytes) -> bytes:
        """The letters of key; a key of another tag, one with a letter index
        >= rank or one that is not freely reduced (which multiply_keys never
        makes) raises ValueError."""
        if key[:1] != bytes([_FREE_TAG]):
            raise ValueError(f"not a {self.name} key")
        word = key[1:]
        prev = None
        for letter in word:
            if letter >> 1 >= self.rank:
                raise ValueError(f"letter index {letter >> 1} out of range for {self.name}")
            if letter ^ 1 == prev:
                raise ValueError(f"{self.name} key is not freely reduced")
            prev = letter
        return word

    def multiply_keys(self, a: bytes, b: bytes) -> bytes:
        word = bytearray(a[1:])
        for letter in b[1:]:
            if word and word[-1] == letter ^ 1:
                word.pop()
            else:
                word.append(letter)
        return bytes([_FREE_TAG]) + bytes(word)

    def invert_key(self, a: bytes) -> bytes:
        return bytes([_FREE_TAG]) + bytes(letter ^ 1 for letter in reversed(self._letters(a)))


# -- lattices Z^d ------------------------------------------------------------

_LATTICE_TAG = 0x5A


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n) << 1) - 1


def _unzigzag(z: int) -> int:
    return (z >> 1) if z % 2 == 0 else -((z + 1) >> 1)


def _varint(z: int) -> bytes:
    out = bytearray()
    while True:
        byte = z & 0x7F
        z >>= 7
        if z:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class Lattice(GroupBackend):
    """The free abelian group Z^d with the standard basis as generators."""

    name = "lattice"

    def __init__(self, dim: int):
        if not 1 <= dim <= 255:
            raise UsageError("lattice dimension must be in 1..255")
        self.dim = dim
        self.alphabet_size = dim
        self.name = f"lattice_{dim}"

    def _encode(self, coords) -> bytes:
        out = bytearray([_LATTICE_TAG, self.dim])
        for c in coords:
            out += _varint(_zigzag(c))
        return bytes(out)

    def decode_payload(self, key: bytes) -> tuple[int, ...]:
        """The coordinates of key; a key of another tag or dimension, a
        truncated one, one with an overlong varint (which _encode never
        writes) or one with trailing bytes raises ValueError."""
        if key[:2] != bytes([_LATTICE_TAG, self.dim]):
            raise ValueError(f"not a Z^{self.dim} key")
        coords = []
        i = 2
        for _ in range(self.dim):
            z = shift = 0
            while True:
                if i == len(key):
                    raise ValueError(f"truncated Z^{self.dim} key")
                byte = key[i]
                i += 1
                z |= (byte & 0x7F) << shift
                shift += 7
                if not byte & 0x80:
                    if byte == 0 and shift > 7:
                        raise ValueError(f"overlong varint in a Z^{self.dim} key")
                    break
            coords.append(_unzigzag(z))
        if i != len(key):
            raise ValueError(f"trailing bytes after a Z^{self.dim} key")
        return tuple(coords)

    def identity_key(self) -> bytes:
        return self._encode([0] * self.dim)

    def generator_key(self, letter: GeneratorLetter) -> bytes:
        coords = [0] * self.dim
        coords[letter.index] = -1 if letter.inverted else 1
        return self._encode(coords)

    def multiply_keys(self, a: bytes, b: bytes) -> bytes:
        va, vb = self.decode_payload(a), self.decode_payload(b)
        return self._encode([x + y for x, y in zip(va, vb)])

    def invert_key(self, a: bytes) -> bytes:
        return self._encode([-x for x in self.decode_payload(a)])
