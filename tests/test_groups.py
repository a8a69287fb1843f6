"""Backend contracts: group axioms, canonical keys, defining relations."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgf import treepair
from tgf.errors import UsageError
from tgf.groups import FreeGroup, GeneratorLetter, Lattice, ThompsonF, Word
from oracles import (
    PL_IDENTITY,
    TreePair,
    is_identity,
    key_to_map,
    naive_free_reduce,
    pl_word,
    reduce_tree_pair,
)

BACKENDS = [ThompsonF(), FreeGroup(2), Lattice(2)]


def random_key(rng, backend, max_len=8):
    letters = tuple(
        GeneratorLetter(rng.randrange(backend.alphabet_size), rng.random() < 0.5)
        for _ in range(rng.randint(0, max_len))
    )
    return backend.element_from_word(Word(letters)).key


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_group_axioms_randomized(backend):
    rng = random.Random(2024)
    e = backend.identity_key()
    mul, inv = backend.multiply_keys, backend.invert_key
    for _ in range(1000):
        x = random_key(rng, backend)
        y = random_key(rng, backend)
        z = random_key(rng, backend)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, e) == x == mul(e, x)
        assert mul(x, inv(x)) == e
        assert inv(inv(x)) == x
        assert inv(mul(x, y)) == mul(inv(y), inv(x))


def test_thompson_defining_relations():
    f = ThompsonF()
    for u, v in (("Ab", "aBA"), ("Ab", "aaBAA")):
        inv = lambda s: "".join(c.swapcase() for c in reversed(s))
        relator = u + v + inv(u) + inv(v)
        assert is_identity(f.element_from_word(Word.parse(relator)))
        assert pl_word(relator) == PL_IDENTITY


def test_inverse_cancellation_word():
    f = ThompsonF()
    assert is_identity(f.element_from_word(Word.parse("Aa")))


def test_ab_vs_ba_distinct_with_oracle():
    f = ThompsonF()
    ab = f.element_from_word(Word.parse("AB"))
    ba = f.element_from_word(Word.parse("BA"))
    assert ab.key != ba.key
    # the independent interval-map oracle sees different images at 1/4, 1/2, 3/4
    from fractions import Fraction as Fr
    from oracles import pl_eval

    points = [Fr(1, 4), Fr(1, 2), Fr(3, 4)]
    img_ab = [pl_eval(pl_word("AB"), t) for t in points]
    img_ba = [pl_eval(pl_word("BA"), t) for t in points]
    assert img_ab != img_ba
    assert img_ab == [pl_eval(key_to_map(ab.key), t) for t in points]


def test_invert_is_tree_swap():
    f = ThompsonF()
    x = f.element_from_word(Word.parse("ABab")).key
    domain, range_ = treepair.unpack_key(x)
    assert treepair.unpack_key(f.invert_key(x)) == (range_, domain)


def test_reduce_tree_pair_via_construction_orders():
    # a word built letter-by-letter (reduced at each step) must equal the
    # pair built from unreduced refinements in any association order
    f = ThompsonF()
    rng = random.Random(5)
    key = lambda w: f.element_from_word(Word.parse(w)).key
    for _ in range(50):
        word = "".join(rng.choice("AaBb") for _ in range(10))
        left = f.identity_key()
        for ch in word:
            left = f.multiply_keys(left, key(ch))
        assert left == f.multiply_keys(key(word[:5]), key(word[5:]))


def test_reduce_tree_pair_idempotent():
    pair = TreePair(bytes([1, 1, 0, 0, 0]), bytes([1, 1, 0, 0, 0]))
    once = reduce_tree_pair(pair)
    assert once == reduce_tree_pair(once)
    assert once.leaves == 1


def test_mismatched_leaf_counts_rejected():
    with pytest.raises(treepair.TreePairError):
        TreePair(bytes([0]), bytes([1, 0, 0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=24))
def test_free_reduction_matches_naive_oracle(letters):
    fg = FreeGroup(2)
    word = Word(tuple(GeneratorLetter(i, inv) for i, inv in letters))
    element = fg.element_from_word(word)
    oracle = naive_free_reduce(letters)
    assert is_identity(element) == (not oracle)
    # the key is the tag, then one byte (index << 1) | inverted per letter
    assert element.key == bytes([0x57, *(i << 1 | v for i, v in oracle)])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=2),
    st.lists(st.integers(-20, 20), min_size=2, max_size=2),
)
def test_lattice_commutative_and_key_is_vector(u, v):
    zd = Lattice(2)
    x = zd._encode(u)
    y = zd._encode(v)
    assert zd.multiply_keys(x, y) == zd.multiply_keys(y, x)
    assert zd.decode_payload(zd.multiply_keys(x, y)) == tuple(
        a + b for a, b in zip(u, v)
    )


@pytest.mark.parametrize("key, says", [
    (b"", "not a Z"), (b"\x5a", "not a Z"), (b"\x57\x02\x00\x00", "not a Z"),
    (b"\x5a\x03\x00\x00\x00", "not a Z"), (b"\x5a\x02\x00", "truncated"),
    (b"\x5a\x02\x00\x81", "truncated"), (b"\x5a\x02\x80\x00\x00", "overlong"),
    (b"\x5a\x02\x00\x00\x00", "trailing"),
], ids=["empty", "tag only", "free-group tag", "dimension 3", "one coordinate",
        "open varint", "overlong varint", "trailing byte"])
def test_lattice_refuses_malformed_keys(key, says):
    zd = Lattice(2)
    assert zd.decode_payload(b"\x5a\x02\x00\x81\x01") == (0, -65)
    for call in (zd.decode_payload, zd.invert_key, lambda k: zd.multiply_keys(k, k)):
        with pytest.raises(ValueError, match=says):
            call(key)


@pytest.mark.parametrize("key, says", [
    (b"", "not a free_2 key"), (b"\x5a\x00", "not a free_2 key"),
    (b"\x57\x04", "letter index 2 out of range"), (b"\x57\x00\x7f", "letter index 63"),
    (b"\x57\x02\x00\x01", "not freely reduced"), (b"\x57\x03\x02", "not freely reduced"),
], ids=["empty", "lattice tag", "index 2", "index 63", "a a^-1", "b^-1 b"])
def test_free_group_refuses_malformed_keys(key, says):
    fg = FreeGroup(2)
    assert fg.invert_key(b"\x57\x00\x03") == b"\x57\x02\x01"
    with pytest.raises(ValueError, match=says):
        fg.invert_key(key)


def test_usage_errors():
    f = ThompsonF()
    with pytest.raises(UsageError):
        f.element_from_word(Word((GeneratorLetter(2),)))  # F has two generators
    with pytest.raises(UsageError):
        Word.parse("A?")


def test_word_parse_and_str():
    a, b_inv = GeneratorLetter(0), GeneratorLetter(1, True)
    assert Word.parse("AbA") == Word.parse(" A b\tA") == Word((a, b_inv, a))
    assert Word.parse("") == Word()
