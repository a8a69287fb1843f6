"""Reduced tree-pair arithmetic for Thompson's group F (pure-Python kernel).

An element of F is stored as a pair of finite rooted binary trees with the
same number of leaves: the domain tree cuts [0,1] into dyadic intervals, the
range tree does the same, and the element is the PL homeomorphism carrying
the i-th domain interval affinely onto the i-th range interval.  A tree is a
token string in preorder, one byte per node: 1 = caret (internal node),
0 = leaf.  A tree with L leaves has 2L-1 tokens.

A pair is *reduced* when no index i exists such that leaves i, i+1 are
siblings in both trees at once; reduced pairs are in bijection with group
elements, which makes the packed byte key (see pack_key) a canonical form.

Multiplication convention: compose(a, b) is the element whose underlying map
is x -> a(b(x)), i.e. the right factor acts first.  Under this convention
A = x0 and B = x1 (the standard generators) satisfy the two defining
relations of F; see tests/test_groups.py.

This module is the reference implementation.  tgf._treepair is a
hand-written C extension with identical semantics (same keys, same errors,
same insertion order from apply_left, same sums from inner), selected at
import by tgf.kernel.  Both kernels hold a ladder level in a Level: keys
to counts in insertion order, with get, len, iteration over the keys and
items(), and the per-level passes subtract_scaled, squared_two_norm,
coefficient_sum and dump_entries as methods.  The Level here is a dict
with those methods, and the loops here take any mapping of keys to ints
and any factors.  The C kernel's is a compact store of canonical keys
(check_key), and its loops walk only that store (tgf.kernel).
"""
from __future__ import annotations

import functools
import struct
from typing import Iterator

from .errors import TreePairError

LEAF = 0
CARET = 1

KEY_TAG = 0x46  # ASCII 'F'

IDENTITY_TREE = bytes([LEAF])
_LEAF, _CARET = bytes([LEAF]), bytes([CARET])

# maps the digits of a binary numeral to tree tokens
_TOKENS = bytes.maketrans(b"01", bytes([LEAF, CARET]))


def leaf_count(tree: bytes) -> int:
    return (len(tree) + 1) // 2


def validate_tree(tree: bytes) -> None:
    """Check that `tree` is a complete preorder token string."""
    need = 1
    for i, tok in enumerate(tree):
        if need == 0:
            raise TreePairError("trailing tokens after complete tree")
        if tok == CARET:
            need += 1
        elif tok == LEAF:
            need -= 1
        else:
            raise TreePairError(f"bad token {tok} at {i}")
    if need != 0:
        raise TreePairError("truncated tree")


def subtree_end(tree: bytes, i: int) -> int:
    """Index one past the subtree whose root is at token index i."""
    need = 1
    while need:
        if tree[i] == CARET:
            need += 1
        else:
            need -= 1
        i += 1
    return i


def _leaf_expansions(t1: bytes, t2: bytes) -> tuple[list[bytes], list[bytes]]:
    """Common-refinement bookkeeping for two trees.

    Walks t1 and t2 in lockstep as subdivisions of the same interval and
    returns, for each leaf of t1 (resp. t2), the subtree of the common
    refinement hanging below it.  A leaf that survives unchanged gets the
    single-leaf tree.
    """
    ext1: list[bytes] = []
    ext2: list[bytes] = []
    leaf = IDENTITY_TREE
    i1 = i2 = 0
    # the walk is preorder in both trees at once, so its stack of subtree
    # pairs still to visit is just their count: a caret in both trees
    # splits one pair into two, anything else finishes one
    pending = 1
    while pending:
        tok1, tok2 = t1[i1], t2[i2]
        if tok1 == CARET and tok2 == CARET:
            i1 += 1
            i2 += 1
            pending += 1
            continue
        pending -= 1
        if tok1 == LEAF and tok2 == LEAF:
            ext1.append(leaf)
            ext2.append(leaf)
            i1 += 1
            i2 += 1
        elif tok1 == LEAF:
            j2 = subtree_end(t2, i2)
            sub = t2[i2:j2]
            ext1.append(sub)
            ext2.extend([leaf] * leaf_count(sub))
            i1, i2 = i1 + 1, j2
        else:
            j1 = subtree_end(t1, i1)
            sub = t1[i1:j1]
            ext1.extend([leaf] * leaf_count(sub))
            ext2.append(sub)
            i1, i2 = j1, i2 + 1
    return ext1, ext2


def _attach(tree: bytes, exts: list[bytes]) -> bytes:
    """Replace leaf i of `tree` by the subtree exts[i]."""
    out = bytearray()
    li = 0
    for tok in tree:
        if tok == CARET:
            out.append(CARET)
        else:
            out += exts[li]
            li += 1
    return bytes(out)


def reduce_pair(domain: bytes, range_: bytes) -> tuple[bytes, bytes]:
    """Cancel carets common to both trees until the pair is reduced.

    A preorder tree is the runs 1^k 0, one per leaf, where k counts the
    carets whose leftmost leaf it is.  Leaves i and i+1 hang from one caret
    exactly when leaf i opens a caret (k_i >= 1) and leaf i+1 opens none.
    Cancelling a caret common to both trees drops leaf i+1 and one caret of
    leaf i, which can only expose a new common caret between leaf i and its
    neighbours; so one right-to-left pass over the leaves, with a stack of
    (domain, range) opening counts, reaches the reduced pair."""
    if leaf_count(domain) != leaf_count(range_):
        raise TreePairError("leaf counts differ")
    stack: list[tuple[int, int]] = []
    for d, r in zip(reversed(domain.split(_LEAF)[:-1]), reversed(range_.split(_LEAF)[:-1])):
        d, r = len(d), len(r)
        while d and r and stack and stack[-1] == (0, 0):
            stack.pop()
            d -= 1
            r -= 1
        stack.append((d, r))
    if len(stack) == leaf_count(domain):
        return domain, range_
    stack.reverse()
    return (b"".join([_CARET * d + _LEAF for d, _ in stack]),
            b"".join([_CARET * r + _LEAF for _, r in stack]))


def compose_trees(
    da: bytes, ra: bytes, db: bytes, rb: bytes
) -> tuple[bytes, bytes]:
    """Reduced tree pair of a*b where b acts first; inputs need not be reduced."""
    ext_rb, ext_da = _leaf_expansions(rb, da)
    domain = _attach(db, ext_rb)
    range_ = _attach(ra, ext_da)
    return reduce_pair(domain, range_)


# -- canonical byte keys ----------------------------------------------------
#
# key = 0x46, leaf count L (u16 big endian), then the 2*(2L-1) tokens of the
# domain tree followed by the range tree, packed MSB-first into bytes.

def pack_key(domain: bytes, range_: bytes) -> bytes:
    nl = leaf_count(domain)
    if nl > 0xFFFF:
        raise TreePairError("tree too large for key format")
    bits = domain + range_
    packed = bytearray(struct.pack(">BH", KEY_TAG, nl))
    acc = 0
    fill = 0
    for tok in bits:
        acc = (acc << 1) | tok
        fill += 1
        if fill == 8:
            packed.append(acc)
            acc = fill = 0
    if fill:
        packed.append(acc << (8 - fill))
    return bytes(packed)


# the batched loops compose each key with several factors or words in a row
@functools.lru_cache(maxsize=16)
def unpack_key(key: bytes) -> tuple[bytes, bytes]:
    """Domain and range trees of a key; a malformed key raises TreePairError."""
    if len(key) < 3 or key[0] != KEY_TAG:
        raise TreePairError("not a tree-pair key")
    nl = struct.unpack(">H", key[1:3])[0]
    if nl < 1:
        raise TreePairError("tree-pair key has leaf count 0")
    ntok = 2 * nl - 1
    if len(key) != 3 + (2 * ntok + 7) // 8:
        raise TreePairError("tree-pair key length does not match its leaf count")
    numeral = format(int.from_bytes(key[3:], "big"), "b").zfill(8 * (len(key) - 3))
    bits = numeral.encode().translate(_TOKENS)
    if any(bits[2 * ntok :]):
        raise TreePairError("tree-pair key has nonzero padding bits")
    dom, rng = bits[:ntok], bits[ntok : 2 * ntok]
    try:
        validate_tree(dom)
        validate_tree(rng)
    except TreePairError:
        raise TreePairError("tree-pair key does not hold two complete trees")
    return dom, rng


IDENTITY_KEY = pack_key(IDENTITY_TREE, IDENTITY_TREE)


def check_key(key: bytes) -> bytes:
    """The key, refused with TreePairError unless it is canonical: a
    malformed one (unpack_key) or one whose pair is not reduced."""
    dom, rng = unpack_key(key)
    if reduce_pair(dom, rng) != (dom, rng):
        raise TreePairError("tree-pair key is not reduced")
    return key


def compose_keys(a: bytes, b: bytes) -> bytes:
    """Canonical key of the product a*b (right factor acts first)."""
    da, ra = unpack_key(a)
    db, rb = unpack_key(b)
    if a == IDENTITY_KEY:
        return b
    if b == IDENTITY_KEY:
        return a
    return pack_key(*compose_trees(da, ra, db, rb))


def invert_key(a: bytes) -> bytes:
    da, ra = unpack_key(a)
    return pack_key(ra, da)


def apply_left(
    factors: list[bytes],
    vec: dict[bytes, int],
    *,
    compose=compose_keys,
    identity: bytes = IDENTITY_KEY,
) -> Level:
    """Multiset product (sum of factors) . vec, multiplying on the left, as
    a new Level.

    For each key of vec in order, the identity factors' contribution is
    added first, then the products with the other factors in their order;
    the compiled kernel reproduces this insertion order exactly.  Other
    backends pass their own `compose` and `identity` (GroupBackend).
    """
    plain = [g for g in factors if g != identity]
    n_identity = len(factors) - len(plain)
    out = Level()
    get = out.get
    for key, c in vec.items():
        if n_identity:
            out[key] = get(key, 0) + n_identity * c
        for g in plain:
            k2 = compose(g, key)
            out[k2] = get(k2, 0) + c
    return out


def inner(
    words: list[bytes],
    vec: dict[bytes, int],
    *,
    compose=compose_keys,
) -> list[int]:
    """For each word w, the sum over keys x of vec of vec[x] * vec[w*x].

    That is <w.h, h> for the group-ring element h held in vec.  Other
    backends pass their own `compose` (GroupBackend)."""
    sums = [0] * len(words)
    get = vec.get
    for key, c in vec.items():
        for i, w in enumerate(words):
            sums[i] += c * get(compose(w, key), 0)
    return sums


# -- level store --------------------------------------------------------------
#
# The checkpoint body of a level: per entry in key order, key length u16,
# key bytes, sign u8 (0 positive), magnitude length u32 (all little endian),
# then the magnitude big endian.

class Level(dict):
    """One ladder level: a dict of keys to counts whose methods are the
    per-level passes, the reference for those of the compiled Level."""

    def subtract_scaled(self, sub, factor: int) -> None:
        """self -= factor * sub, dropping keys that reach 0; a coefficient
        that would go negative raises ValueError (the ladder's cancellation
        check)."""
        get = self.get
        for key, c in sub.items():
            left = get(key, 0) - factor * c
            if left < 0:
                raise ValueError("negative coefficient: subtraction did not cancel")
            if left:
                self[key] = left
            else:
                self.pop(key, None)

    def squared_two_norm(self) -> int:
        return sum(c * c for c in self.values())

    def coefficient_sum(self) -> int:
        return sum(self.values())

    def dump_entries(self) -> bytes:
        """The checkpoint body of the level, sorted by key."""
        buf = bytearray()
        for key in sorted(self):
            coeff = self[key]
            mag = abs(coeff)
            mag_bytes = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
            buf += struct.pack("<H", len(key))
            buf += key
            buf += struct.pack("<BI", coeff < 0, len(mag_bytes))
            buf += mag_bytes
        return bytes(buf)


def read_entries(body, count: int) -> Iterator[tuple[bytes, int]]:
    """The (key, coefficient) entries of a checkpoint body of `count`
    entries, in order; a short or overlong body, or keys out of strictly
    increasing order, raise ValueError."""
    offset = 0
    key = None
    try:
        for _ in range(count):
            (key_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            last, key = key, bytes(body[offset : offset + key_len])
            offset += key_len
            sign, mag_len = struct.unpack_from("<BI", body, offset)
            offset += 5
            if last is not None and key <= last:
                raise ValueError("checkpoint keys are not in strictly increasing order")
            mag = int.from_bytes(body[offset : offset + mag_len], "big")
            offset += mag_len
            yield key, -mag if sign else mag
    except struct.error:
        raise ValueError("checkpoint is truncated") from None
    # each field advances the offset by its declared length, so a short
    # final key or magnitude leaves it past the end
    if offset > len(body):
        raise ValueError("checkpoint is truncated")
    if offset < len(body):
        raise ValueError("trailing bytes after checkpoint entries")


def load_entries(body, count: int) -> Level:
    """The Level that a checkpoint body of `count` entries holds, refused
    as read_entries refuses it or at its first key that check_key refuses
    (TreePairError, a ValueError)."""
    return Level((check_key(key), coeff) for key, coeff in read_entries(body, count))
