"""The compiled kernel's Level store against the pure Level.

Every test runs on two builds of the compiled kernel: the plain one and one
under the undefined-behaviour sanitizer (conftest).  The two Levels are two
implementations of one interface; the reference is tgf.treepair.Level, a
dict whose methods are Python loops.  The dict path is the ladder of
tgf.treepair's apply_left, composing with the same kernel, so only the
store differs: items and their order, inner sums, norms, sums, checkpoint
bodies and failed subtractions must all agree.  The compiled loops walk
only the compiled Level, so their inputs are read from checkpoint bodies,
and the pure side reads the same body whenever key order matters.  Keys are
checked where they enter a Level, so the refusals of keys that are not
canonical are checked at load."""
import struct
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgf import treepair as tp
from tgf.errors import CorruptionError
from tgf.ladder import (
    GeneratorSet,
    MultiplicityVector,
    _subtract_scaled,
    case1,
    case2,
    custom_f_set,
    ladder_levels,
)
from oracles import unreduced_twin
from test_ladder import CompiledF
from test_treepair import word_key

E = tp.IDENTITY_KEY
U32 = 2**32 - 1


class PureF(CompiledF):
    """F composing in a compiled kernel but accumulating with the pure
    apply_left, so that its ladder levels are pure Levels."""

    def apply_left(self, factors, vec):
        return tp.apply_left(factors, vec, compose=self.module.compose_keys)

    def load_entries(self, body, count):
        return tp.load_entries(body, count)


def _level(kernel, mapping):
    """A Level of kernel (either one) holding mapping's items in key order,
    read from their checkpoint body (the compiled Level has no
    constructor)."""
    return kernel.load_entries(tp.Level(mapping.items()).dump_entries(), len(mapping))


def _ordered(kernel, items):
    """A compiled Level holding (key, count) items in their order, none of
    them the identity: apply_left of each key, `count` times over, to e."""
    return kernel.apply_left([k for k, c in items for _ in range(c)], _level(kernel, {E: 1}))


def _words(gen, n):
    """The identity and the lookahead words t^-1 s of the step from level n."""
    g = gen.keys() if n % 2 == 0 else gen.inverse_keys()
    return [E] + [tp.compose_keys(tp.invert_key(t), s) for t in g for s in g if s != t]


def _assert_same_level(kernel, gen, level, ref):
    store, entries = level.entries, ref.entries
    assert type(entries) is tp.Level and type(store) is kernel.Level
    assert list(store.items()) == list(entries.items())
    assert dict(store.items()) == entries and len(store) == len(entries)
    assert store.squared_two_norm() == entries.squared_two_norm()
    assert store.coefficient_sum() == entries.coefficient_sum()
    body = store.dump_entries()
    assert body == entries.dump_entries()
    loaded = kernel.load_entries(body, len(entries))
    assert list(loaded.items()) == sorted(entries.items())
    words = _words(gen, level.n)
    sums = kernel.inner(words, store)
    assert sums == kernel.inner(words, loaded)
    if len(entries) <= 3000:
        assert sums == tp.inner(words, entries, compose=kernel.compose_keys)
    # a subtraction that goes negative fails alike on both stores, and one
    # that cancels exactly empties both
    for copy in (_level(kernel, store), tp.Level(entries)):
        with pytest.raises(CorruptionError, match=f"negative coefficient at level {level.n}:"):
            _subtract_scaled(copy, store, 2, level.n)
    for copy, sub in ((_level(kernel, store), loaded), (tp.Level(entries), entries)):
        _subtract_scaled(copy, sub, 1, level.n)
        assert len(copy) == 0 and list(copy.items()) == []


@pytest.mark.parametrize("gen, max_n", [
    (case1(), 16), (case2(), 12), (custom_f_set(["", "AB", "ba", "aa"]), 8),
], ids=["case1", "case2", "custom"])
def test_ladder_levels_match_the_dict_path(kernel, gen, max_n):
    in_levels = GeneratorSet(CompiledF(kernel), gen.elements, gen.label)
    in_pure = GeneratorSet(PureF(kernel), gen.elements, gen.label)
    pairs = zip(ladder_levels(in_levels, max_n), ladder_levels(in_pure, max_n))
    for level, ref in pairs:
        _assert_same_level(kernel, gen, level, ref)
    assert level.n == max_n


KEYS = st.text(alphabet="AaBb", max_size=6).map(word_key)
COUNTS = st.one_of(st.integers(1, 9), st.integers(1, U32), st.just(U32))
VECS = st.dictionaries(KEYS, COUNTS, max_size=12)


@settings(max_examples=200, deadline=None)
@given(vec=VECS, factors=st.lists(st.one_of(KEYS, st.just(E)), max_size=5),
       sub=VECS, factor=st.integers(0, 3))
def test_random_levels_match_the_dict_path(kernel, vec, factors, sub, factor):
    # both loops walk vec in the key order of its checkpoint body
    ref = tp.apply_left(factors, _level(tp, vec), compose=kernel.compose_keys)
    if any(c > U32 for c in ref.values()):
        # a count past 2**32 - 1 does not fit the store
        with pytest.raises(OverflowError):
            kernel.apply_left(factors, _level(kernel, vec))
        return
    store = kernel.apply_left(factors, _level(kernel, vec))
    assert list(store.items()) == list(ref.items())
    words = [E, *factors]
    assert kernel.inner(words, store) == tp.inner(words, ref, compose=kernel.compose_keys)
    assert store.squared_two_norm() == ref.squared_two_norm()
    assert store.coefficient_sum() == ref.coefficient_sum()
    assert store.dump_entries() == ref.dump_entries()
    outcomes = []
    for acc, other in ((store, _level(kernel, sub)), (ref, sub)):
        try:
            _subtract_scaled(acc, other, factor, 5)
            outcomes.append(list(acc.items()))
        except CorruptionError:
            outcomes.append("negative")
    assert outcomes[0] == outcomes[1]


def test_counts_stop_at_2_pow_32(kernel):
    a, b, big_a, big_b = word_key("a"), word_key("b"), word_key("A"), word_key("B")
    top = _level(kernel, {a: U32})
    assert top.get(a) == U32 and top.squared_two_norm() == U32**2
    assert kernel.inner([E], top) == [U32**2]
    # a count outside 1..2**32-1 reaches the store only through a checkpoint
    # body, which load_entries refuses, while the pure loops take any int
    for bad in (U32 + 1, 0, -1, 2**70):
        with pytest.raises(ValueError, match="range 1..2\\*\\*32-1"):
            _level(kernel, {a: bad})
        assert tp.apply_left([big_a], {a: bad}) == {E: bad}
        assert tp.inner([E], {a: bad}) == [bad * bad]
    # or through an apply_left sum
    with pytest.raises(OverflowError):
        kernel.apply_left([E, E], _level(kernel, {a: 2**31}))
    # A.a and B.b are both the identity
    assert kernel.apply_left([big_a, big_b], _level(kernel, {a: 2**31, b: 2**31 - 1})).get(E) == U32
    with pytest.raises(OverflowError):
        kernel.apply_left([big_a, big_b], _level(kernel, {a: 2**31, b: 2**31}))
    # in the ladder the overflow is corruption: h_3 = h . h_2 - 2 h_1 for
    # case 1, where e . h_2 brings U32 to the identity and A . a one more
    gen = GeneratorSet(CompiledF(kernel), case1().elements, "case1")
    seed = (MultiplicityVector(1, _level(kernel, {})),
            MultiplicityVector(2, _level(kernel, {E: U32, a: 1})))
    with pytest.raises(CorruptionError, match="level 3: .*2\\*\\*32 - 1"):
        list(ladder_levels(gen, 3, seed=seed))


def test_level_is_a_read_only_mapping(kernel):
    # the interface the library calls: get, len, iteration over the keys
    # and items(), in insertion order, besides the passes
    a, b = word_key("A"), word_key("B")
    level = _ordered(kernel, [(b, 2), (a, 5)])
    assert len(level) == 2 and level.get(a) == 5 and level.get(b) == 2
    assert level.get(E) is None and level.get(E, 0) == 0 and level.get(1, 0) == 0
    assert list(level) == [b, a] and list(level.items()) == [(b, 2), (a, 5)]
    assert list(_level(kernel, {a: 5, b: 2}).items()) == [(a, 5), (b, 2)]
    # and nothing else: levels compare as dict(level.items())
    for name in ("__getitem__", "__contains__", "keys", "values"):
        assert not hasattr(level, name)
    assert level != _level(kernel, {b: 2, a: 5})
    assert dict(level.items()) == dict(_level(kernel, {b: 2, a: 5}).items())
    with pytest.raises(TypeError):
        level[a]
    with pytest.raises(TypeError):
        level[a] = 1
    with pytest.raises(TypeError):
        hash(level)
    with pytest.raises(TypeError, match="cannot create"):
        kernel.Level({a: 1})
    assert repr(level) == "<Level with 2 keys>"
    assert sys.getsizeof(level) > sum(len(k) + 5 for k in level)


def test_level_iteration_and_changes(kernel):
    keys = [word_key(w) for w in ("A", "B", "AB", "ba")]
    level = _ordered(kernel, [(k, 2) for k in keys])
    items = level.items()
    assert next(items) == (keys[0], 2)
    level.subtract_scaled(_level(kernel, {keys[1]: 1}), 2)
    with pytest.raises(RuntimeError, match="changed during iteration"):
        next(items)
    # keys taken to 0 leave, the others keep their order
    assert list(level.items()) == [(keys[0], 2), (keys[2], 2), (keys[3], 2)]
    level.subtract_scaled(_level(kernel, {keys[0]: 1, keys[3]: 2}), 1)
    assert list(level.items()) == [(keys[0], 1), (keys[2], 2)]
    with pytest.raises(ValueError, match="negative"):
        level.subtract_scaled(_level(kernel, {keys[1]: 1}), 1)


def _comb_pair(leaves):
    """The reduced pair of a left and a right comb, of 3 leaves or more:
    only leaves 0, 1 are siblings in the one, and only the last two in the
    other."""
    return tp.pack_key(b"\x01" * (leaves - 1) + b"\x00" * leaves,
                       b"\x01\x00" * (leaves - 1) + b"\x00")


def test_long_keys_round_trip(kernel):
    # a record's key length takes one byte up to 254 and three past it; a
    # key of 65535 leaves, the most the key format holds, is 32771 bytes.
    # In key order, by leaf count, the keys are in insertion order
    entries = {_comb_pair(n): n + 1 for n in (3, 501, 503, 900, 65535)}
    assert [len(k) for k in entries] == [5, 254, 255, 453, 32771]
    body = tp.Level(entries).dump_entries()
    level = kernel.load_entries(body, len(entries))
    assert list(level.items()) == list(entries.items())
    assert level.dump_entries() == body
    assert dict(level.items()) == tp.load_entries(body, len(entries))


def _entry(key, mag=b"\x05", sign=0):
    """One entry of a checkpoint body: key length, key, sign, magnitude
    length, magnitude."""
    return struct.pack("<H", len(key)) + key + struct.pack("<BI", sign, len(mag)) + mag


A = word_key("A")


@pytest.mark.parametrize("body, count, says", [
    (_entry(E), 2, "truncated"),
    (_entry(E)[:-1], 1, "truncated"),
    (_entry(E) + b"\x00", 1, "trailing"),
    (_entry(E, sign=1), 1, "range"),
    (_entry(E, mag=b"\x00"), 1, "range"),
    (_entry(E, mag=b"\x01\x00\x00\x00\x00"), 1, "range"),
    (_entry(E) * 2, 2, "increasing"),
    (_entry(A) + _entry(E), 2, "increasing"),
    (_entry(E) + _entry(E[:-1]), 2, "increasing"),
], ids=["short", "short-magnitude", "trailing", "negative", "zero", "2**32", "repeated-key",
        "descending-keys", "extension-first"])
def test_load_entries_rejects_what_the_store_cannot_hold(kernel, body, count, says):
    with pytest.raises(ValueError, match=says):
        kernel.load_entries(body, count)
    if says != "range":
        with pytest.raises(ValueError, match=says):
            tp.load_entries(body, count)


A_TWIN = unreduced_twin(A)
NOT_CANONICAL = [b"junk", bytes.fromhex("46000101"), bytes.fromhex("460003ffff"), A_TWIN]


def test_refused_keys_leave_nothing_behind(kernel):
    # keys are checked where they enter a Level: load_entries refuses a
    # body with a key that is not canonical, wherever the key is in it,
    # and apply_left and inner such a factor.  Each refusal must free what
    # the call made, load_entries' half-built Level included
    good = {word_key(w): 1 for w in ("A", "B", "AB", "ba", "aB", "Ab", "AA", "bb")}
    level = _level(kernel, good)
    extra = word_key("AAB")
    assert tp.compose_keys(tp.IDENTITY_KEY, A_TWIN) == A_TWIN
    assert tp.reduce_pair(*tp.unpack_key(A_TWIN)) == tp.unpack_key(A)
    # in key order the padded key comes first, the twin and the all-caret
    # key in the middle and junk last
    bodies = [tp.Level({**good, bad: 1}).dump_entries() for bad in NOT_CANONICAL]
    calls = [lambda bad, body: kernel.load_entries(body, len(good) + 1),
             lambda bad, body: kernel.apply_left([E, extra, bad], level),
             lambda bad, body: kernel.inner([extra, bad], level)]

    def refusals():
        refused = 0
        for bad, body in zip(NOT_CANONICAL, bodies):
            for call in calls:
                try:
                    call(bad, body)
                except tp.TreePairError:
                    refused += 1
        return refused

    assert refusals() == len(bodies) * len(calls)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        refused = sum(refusals() for _ in range(300))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert refused == 300 * len(bodies) * len(calls)
    assert grown < 64 * 1024
