"""Tree-pair kernel: packing, reduction, composition vs the exact PL oracle,
agreement between the pure and compiled implementations (the cross-checks
run on both compiled builds, plain and under the undefined-behaviour
sanitizer; see conftest), the compiled loops' fast path for factors of one
or two letters against compose_keys, and keys that are malformed or not
reduced failing closed where they enter a level: at load, or as a factor of
the compiled loops.  The compiled loops walk only their own build's Level,
so their inputs are read from checkpoint bodies (as_level)."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgf import treepair as tp
from tgf.ladder import GeneratorSet, case1, case2, custom_f_set, ladder_levels
from oracles import PL_IDENTITY, key_to_map, pl_word
from test_ladder import CompiledF


U32 = 2**32 - 1


def random_word(rng, length):
    return "".join(rng.choice("AaBb") for _ in range(length))


def _body(mapping):
    """The checkpoint body of mapping's items, sorted by key."""
    return tp.Level(mapping.items()).dump_entries()


def as_level(impl, mapping):
    """mapping as a Level of the kernel impl, pure or compiled, read from its
    checkpoint body and so in key order."""
    return impl.load_entries(_body(mapping), len(mapping))


def _outcome(fn, *args):
    """("ok", result), a Level as its items in order, or the TreePairError."""
    try:
        result = fn(*args)
    except tp.TreePairError:
        return "TreePairError", None
    return "ok", list(result.items()) if hasattr(result, "items") else result


def word_key(word, impl=tp):
    from tgf.groups import _A_KEY, _B_KEY

    table = {
        "A": _A_KEY,
        "a": impl.invert_key(_A_KEY),
        "B": _B_KEY,
        "b": impl.invert_key(_B_KEY),
    }
    key = tp.IDENTITY_KEY
    for ch in word:
        key = impl.compose_keys(key, table[ch])
    return key


def test_validate_and_counts():
    tp.validate_tree(bytes([0]))
    tp.validate_tree(bytes([1, 0, 1, 0, 0]))
    assert tp.leaf_count(bytes([1, 0, 1, 0, 0])) == 3
    with pytest.raises(tp.TreePairError):
        tp.validate_tree(bytes([1, 0]))
    with pytest.raises(tp.TreePairError):
        tp.validate_tree(bytes([0, 0]))


def test_pack_unpack_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        key = word_key(random_word(rng, rng.randint(0, 12)))
        dom, rng_ = tp.unpack_key(key)
        assert tp.pack_key(dom, rng_) == key


def test_reduce_idempotent_and_single_step():
    # already reduced: unchanged
    dom, rng_ = bytes([1, 0, 1, 0, 0]), bytes([1, 1, 0, 0, 0])
    assert tp.reduce_pair(dom, rng_) == (dom, rng_)
    # one common caret at leaves (0,1) disappears, leaving a reduced pair
    dom2 = bytes([1, 1, 0, 0, 1, 0, 0])  # ((.,.),(.,.))
    rng2 = bytes([1, 1, 1, 0, 0, 0, 0])  # (((.,.),.),.)
    assert tp.reduce_pair(dom2, rng2) == (
        bytes([1, 0, 1, 0, 0]),
        bytes([1, 1, 0, 0, 0]),
    )
    # a pair of identical trees telescopes all the way to the identity
    assert tp.reduce_pair(dom2, dom2) == (bytes([0]), bytes([0]))


def test_compose_matches_interval_map_oracle():
    rng = random.Random(42)
    for _ in range(250):
        word = random_word(rng, rng.randint(0, 12))
        key = word_key(word)
        assert key_to_map(key) == pl_word(word)
        assert (key == tp.IDENTITY_KEY) == (pl_word(word) == PL_IDENTITY)


def test_unreduced_inputs_allowed():
    # compose_trees reduces its output even for unreduced input pairs
    dom = bytes([1, 1, 0, 0, 0])
    rng_ = bytes([1, 0, 1, 0, 0])
    out = tp.compose_trees(dom, rng_, bytes([0]), bytes([0]))
    assert out == (dom, rng_)


def test_compiled_matches_pure(compiled):
    rng = random.Random(7)
    keys = [word_key(random_word(rng, rng.randint(0, 14))) for _ in range(120)]
    for a in keys:
        assert compiled.invert_key(a) == tp.invert_key(a)
        for b in keys[:30]:
            assert compiled.compose_keys(a, b) == tp.compose_keys(a, b)


def _comb(leaves, side):
    """Preorder tokens of the comb with all carets down one side."""
    if side == "left":
        return bytes([tp.CARET]) * (leaves - 1) + bytes([tp.LEAF]) * leaves
    return bytes([tp.CARET, tp.LEAF]) * (leaves - 1) + bytes([tp.LEAF])


def test_deep_tree_compose_matches_compiled(compiled):
    # 1200 leaves nest deeper than the default recursion limit of 1000
    key = tp.pack_key(_comb(1200, "left"), _comb(1200, "right"))
    for impl in (tp, compiled):
        assert impl.compose_keys(key, impl.invert_key(key)) == tp.IDENTITY_KEY


def test_compiled_identity_constant(compiled):
    assert compiled.IDENTITY_KEY == tp.IDENTITY_KEY


@pytest.mark.parametrize("gen, max_n", [
    (case1(), 10),
    (case2(), 7),
    (custom_f_set(["", "AB", "ba", "aa"]), 7),
], ids=["case1", "case2", "custom"])
def test_compiled_apply_left_matches_pure(builds, gen, max_n):
    # same items, same insertion order, on every level of a real ladder run
    # in each build and for both factor lists the ladder uses; the pure loop
    # walks the compiled Level
    factor_lists = (gen.keys(), gen.inverse_keys())
    for compiled in builds:
        in_build = GeneratorSet(CompiledF(compiled), gen.elements, gen.label)
        for level in ladder_levels(in_build, max_n):
            for factors in factor_lists:
                pure = tp.apply_left(factors, level.entries)
                fast = compiled.apply_left(factors, level.entries)
                assert list(fast.items()) == list(pure.items())


@pytest.mark.parametrize("gen, max_n", [(case1(), 12), (case2(), 8)],
                         ids=["case1", "case2"])
def test_compiled_inner_matches_pure(builds, gen, max_n):
    # the identity and every t^-1 s of each step's factors s, t, which hold
    # each word and its inverse: <w.h, h> = <w^-1.h, h>
    for level in ladder_levels(gen, max_n):
        g = gen.keys() if level.n % 2 == 0 else gen.inverse_keys()
        words = [tp.IDENTITY_KEY] + [
            tp.compose_keys(tp.invert_key(t), s) for t in g for s in g if s != t]
        sums = tp.inner(words, level.entries)
        assert sums[0] == level.entries.squared_two_norm()
        by_word = dict(zip(words, sums))
        assert all(by_word[tp.invert_key(w)] == v for w, v in by_word.items())
        for compiled in builds:
            assert compiled.inner(words, as_level(compiled, level.entries)) == sums


def test_inner_sums_exactly(builds):
    # the pure inner sums any ints exactly, negative ones and ones past 64
    # bits; the compiled Level holds counts in 1..2**32-1 only, and the
    # compiled inner's sums stay exact past 64 bits
    e, a, aa = tp.IDENTITY_KEY, word_key("A"), word_key("AA")
    words = [a, e, word_key("a")]
    wide = {e: 3**50, a: -(2**40), aa: 7}
    assert tp.inner(words, wide) == [
        -(2**40) * (3**50 + 7), 3**100 + 2**80 + 49, -(2**40) * (3**50 + 7)]
    vec = {e: U32, a: U32, aa: U32 - 1}
    want = [U32**2 + U32 * (U32 - 1), 2 * U32**2 + (U32 - 1) ** 2, U32**2 + U32 * (U32 - 1)]
    assert min(want) > 2**64
    for impl in (tp, *builds):
        assert impl.inner(words, as_level(impl, vec)) == want
        assert impl.inner([], as_level(impl, vec)) == []
        assert impl.inner([a], as_level(impl, {})) == [0]
    for compiled in builds:
        with pytest.raises(ValueError, match="range"):
            as_level(compiled, wide)


def test_apply_left_identity_first_then_factors_in_order(builds):
    a = word_key("A")
    b = word_key("B")
    vec = {tp.IDENTITY_KEY: 2, a: 5}
    factors = [b, tp.IDENTITY_KEY, a, tp.IDENTITY_KEY]
    want = [
        (tp.IDENTITY_KEY, 4), (b, 2), (a, 2 + 10),
        (tp.compose_keys(b, a), 5), (word_key("AA"), 5),
    ]
    for impl in (tp, *builds):
        level = as_level(impl, vec)
        assert list(level) == [tp.IDENTITY_KEY, a]
        assert list(impl.apply_left(factors, level).items()) == want
        assert len(impl.apply_left([], level)) == 0
        assert len(impl.apply_left(factors, as_level(impl, {}))) == 0


@pytest.mark.parametrize("name", ["apply_left", "inner"])
def test_compiled_batch_argument_errors(builds, name):
    e = tp.IDENTITY_KEY
    for compiled in builds:
        fn, level = getattr(compiled, name), as_level(compiled, {e: 1})
        for args in [(), ([e],), ([e], level, level), ([e], [(e, 1)]), ([e], None)]:
            with pytest.raises(TypeError, match=name):
                fn(*args)
        with pytest.raises(TypeError, match="must be bytes"):
            fn([word_key("A"), 1], level)


def test_compiled_subtract_scaled_argument_errors(builds):
    e = tp.IDENTITY_KEY
    for compiled in builds:
        level = as_level(compiled, {e: 1})
        for args in [(), (level,), (level, 1, 2), ([(e, 1)], 1), (None, 1)]:
            with pytest.raises(TypeError, match="subtract_scaled"):
                level.subtract_scaled(*args)


def test_compiled_loops_take_only_their_own_level(builds):
    # a dict, the pure Level, None, or a Level of the other build (another
    # type object) is refused before anything is walked
    e = tp.IDENTITY_KEY
    for compiled, other in (builds, builds[::-1]):
        level = as_level(compiled, {e: 1})
        calls = {"apply_left": lambda v: compiled.apply_left([e], v),
                 "inner": lambda v: compiled.inner([e], v),
                 "subtract_scaled": lambda v: level.subtract_scaled(v, 1)}
        for vec in ({e: 1}, tp.Level({e: 1}), None, as_level(other, {e: 1})):
            for name, call in calls.items():
                with pytest.raises(TypeError, match=f"^{name} needs a Level, not "):
                    call(vec)
        assert list(level.items()) == [(e, 1)]


# -- left multiplication by a letter ------------------------------------------
#
# The compiled batch loops multiply a reduced key by a factor that is x0^±1
# or x1^±1, or a product of two of them, as a local edit of its packed
# trees; compose_keys and the pure loops, which form every product in
# full, are the oracle.

LETTERS = ["A", "a", "B", "b"]
TWO_LETTER_WORDS = [g + h for g in LETTERS for h in LETTERS if g != h.swapcase()]


def _trees(leaves):
    """Every binary tree with `leaves` leaves, as preorder tokens."""
    if leaves == 1:
        return [bytes([tp.LEAF])]
    return [bytes([tp.CARET]) + left + right
            for k in range(1, leaves)
            for left in _trees(k) for right in _trees(leaves - k)]


def _pairs(max_leaves, reduced):
    """Every pair of up to max_leaves leaves that is reduced, or is not."""
    return [tp.pack_key(d, r)
            for n in range(1, max_leaves + 1)
            for d in _trees(n) for r in _trees(n)
            if (tp.reduce_pair(d, r) == (d, r)) == reduced]


def _assert_words_match_compose(kernel, keys, words):
    # one factor per call; both loops walk the keys in order
    level = as_level(kernel, dict.fromkeys(keys, 1))
    pure = as_level(tp, dict.fromkeys(keys, 1))
    for w in words:
        got = kernel.apply_left([w], level)
        assert list(got.items()) == list(tp.apply_left([w], pure).items())
        assert kernel.inner([w], level) == tp.inner([w], pure)


def test_words_on_every_small_pair_match_compose(kernel):
    keys = _pairs(6, reduced=True)
    assert len(keys) == 1055 and len(TWO_LETTER_WORDS) == 12
    words = [word_key(w) for w in LETTERS + TWO_LETTER_WORDS]
    assert len(set(words)) == 16
    _assert_words_match_compose(kernel, keys, words)


def test_words_on_unreduced_pairs_match_compose(kernel):
    # the edit takes a reduced pair, and no Level holds another: both
    # loaders refuse an unreduced key, and the compiled loops such a
    # factor.  compose_keys takes one, and its product by a word is the
    # one that the walk forms from the reduced pair
    keys = _pairs(5, reduced=False)
    assert len(keys) == 102
    words = [word_key(w) for w in LETTERS + TWO_LETTER_WORDS]
    on_e = as_level(kernel, {tp.IDENTITY_KEY: 1})
    for key in keys:
        for impl in (tp, kernel):
            with pytest.raises(tp.TreePairError, match="not reduced"):
                as_level(impl, {key: 1})
        for walk in (kernel.apply_left, kernel.inner):
            with pytest.raises(tp.TreePairError, match="not reduced"):
                walk([key], on_e)
        canonical = as_level(kernel, {tp.pack_key(*tp.reduce_pair(*tp.unpack_key(key))): 1})
        for w in words:
            product = tp.compose_keys(w, key)
            assert kernel.compose_keys(w, key) == product
            assert list(kernel.apply_left([w], canonical).items()) == [(product, 1)]


def _grown_tree(splits):
    """The tree grown from one leaf by splitting, for each s in splits, leaf
    s modulo the leaf count."""
    # a preorder tree is its leaves' runs of carets each ending in the leaf
    runs = [bytes([tp.LEAF])]
    for s in splits:
        i = s % len(runs)
        runs[i:i + 1] = [bytes([tp.CARET]) + runs[i], bytes([tp.LEAF])]
    return b"".join(runs)


# reduced pairs of up to 48 leaves: up to 95 tokens per tree, past the 52
# that the compiled edit takes, where the batch loops take the full product
SPLITS = st.lists(st.integers(0, 2**16), max_size=47)
BIG_PAIRS = st.tuples(SPLITS, st.lists(st.integers(0, 2**16), max_size=47)).map(
    lambda t: tp.pack_key(*tp.reduce_pair(
        _grown_tree(t[0]), _grown_tree((t[1] + t[0])[:len(t[0])]))))


@settings(max_examples=150, deadline=None)
@given(keys=st.lists(BIG_PAIRS, min_size=1, max_size=6),
       inverted=st.lists(st.sampled_from(LETTERS + TWO_LETTER_WORDS), max_size=3))
# 41 leaves, 81 tokens per tree
@example(keys=[tp.pack_key(_grown_tree([0] * 40), _grown_tree([1] * 40))], inverted=["aB"])
def test_words_on_random_pairs_match_compose(kernel, keys, inverted):
    # the inverse of a word makes a product equal to e
    keys = keys + [word_key(w.swapcase()[::-1]) for w in inverted]
    words = [word_key(w) for w in LETTERS + TWO_LETTER_WORDS]
    _assert_words_match_compose(kernel, keys, words)


@pytest.mark.parametrize("words", [
    ["AB", "bA", "AAB", "", "b"],
    ["BaB", "aaBB", "AbAb"],
], ids=["mixed", "general"])
def test_words_and_other_factors_match_pure(builds, words):
    # factors of three letters or more take the full product, in one batch
    # with words or alone; sums and insertion order are the pure loops'
    gen = custom_f_set(words)
    for compiled in builds:
        in_build = GeneratorSet(CompiledF(compiled), gen.elements, gen.label)
        for level in ladder_levels(in_build, 6):
            # the pure loops walk the compiled Level
            vec = level.entries
            for factors in (gen.keys(), gen.inverse_keys()):
                assert list(compiled.apply_left(factors, vec).items()) == list(
                    tp.apply_left(factors, vec).items())
                lookahead = [tp.compose_keys(tp.invert_key(t), s)
                             for t in factors for s in factors]
                assert compiled.inner(lookahead, vec) == tp.inner(lookahead, vec)


def test_an_items_error_comes_before_the_next_items(builds):
    # the batch loops build each item's products before they add up the
    # item before it, yet raise the earlier item's error first, as the pure
    # loops would: here the first key's count overflows, and the second
    # key, of 65535 leaves, times a has one leaf more than a key holds
    a, big_a = word_key("a"), word_key("A")
    big = tp.pack_key(_comb(65535, "left"), _comb(65535, "right"))
    with pytest.raises(tp.TreePairError, match="too large"):
        tp.compose_keys(a, big)
    for compiled in builds:
        level = as_level(compiled, {big_a: 2**31, big: 1})
        assert list(level) == [big_a, big]
        with pytest.raises(OverflowError):
            compiled.apply_left([tp.IDENTITY_KEY, tp.IDENTITY_KEY, a], level)
        with pytest.raises(tp.TreePairError, match="too large"):
            compiled.apply_left([tp.IDENTITY_KEY, a], level)


# -- malformed keys -----------------------------------------------------------

MALFORMED = {
    "all carets": bytes.fromhex("460003ffff"),
    "truncated": bytes.fromhex("46000380"),
    "empty": b"",
    "header only": bytes.fromhex("4600"),
    "wrong tag": bytes.fromhex("47000100"),
    "leaf count 0": bytes.fromhex("460000"),
    "trailing byte": tp.IDENTITY_KEY + b"\x00",
    "padding bit set": bytes.fromhex("46000101"),
    "tokens after a complete tree": bytes.fromhex("46000250"),
    "range all leaves": bytes.fromhex("46000280"),
}


@pytest.fixture(params=["pure", "compiled", "compiled_ubsan"], ids=["pure", "compiled", "ubsan"])
def kernel_impl(request):
    return tp if request.param == "pure" else request.getfixturevalue(request.param)


def test_apply_left_checks_keys_whatever_the_factors(kernel_impl):
    # the keys that a walk reads are checked once, where they are loaded,
    # whatever the factors of the walks that follow: a bad key never
    # reaches a walk, and a good level walks with any factors
    good = {word_key("A"): 1, word_key("bA"): 2}
    with pytest.raises(tp.TreePairError):
        kernel_impl.load_entries(_body({**good, b"junk": 1}), 3)
    level = as_level(kernel_impl, good)
    for factors in ([tp.IDENTITY_KEY], [tp.IDENTITY_KEY] * 2, []):
        assert list(kernel_impl.apply_left(factors, level).items()) == [
            (key, c * len(factors)) for key, c in sorted(good.items()) if factors]


@pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_keys_raise_tree_pair_error(kernel_impl, bad):
    good = word_key("aB")
    calls = [
        lambda: kernel_impl.compose_keys(bad, good),
        lambda: kernel_impl.compose_keys(good, bad),
        lambda: kernel_impl.compose_keys(tp.IDENTITY_KEY, bad),
        lambda: kernel_impl.compose_keys(bad, tp.IDENTITY_KEY),
        lambda: kernel_impl.invert_key(bad),
        lambda: kernel_impl.apply_left([bad], as_level(kernel_impl, {good: 1})),
        lambda: kernel_impl.inner([bad], as_level(kernel_impl, {good: 1})),
        # a key in a level is checked as the level is loaded
        lambda: kernel_impl.load_entries(_body({bad: 1}), 1),
        lambda: kernel_impl.load_entries(_body({good: 1, bad: 1}), 2),
    ]
    for call in calls:
        with pytest.raises(tp.TreePairError):
            call()


def _body_size(leaves, off):
    return max(0, (2 * (2 * leaves - 1) + 7) // 8 + off)


# tag and leaf count, then a random body whose length matches the count or
# is one byte off
SIZED = st.tuples(st.integers(0, 9), st.integers(-1, 1)).flatmap(
    lambda t: st.binary(min_size=_body_size(*t), max_size=_body_size(*t)).map(
        lambda body: bytes([0x46, 0, t[0]]) + body
    )
)
VALID = st.text(alphabet="AaBb", max_size=8).map(word_key)
KEYISH = st.one_of(st.binary(max_size=10), SIZED, VALID)
# an unreduced caret/caret pair, which compose_keys takes
UNREDUCED = bytes.fromhex("46000290")


def _loaded(impl, body, count):
    """("ok", items) of the Level that impl loads from body, or the error
    that refuses it, with its message."""
    try:
        return "ok", list(impl.load_entries(body, count).items())
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(entries=st.dictionaries(KEYISH, st.integers(1, U32), max_size=6))
@example(entries={UNREDUCED: 1})
@example(entries={word_key("A"): 2, UNREDUCED: 1, word_key("B"): 3})
def test_loaders_accept_and_refuse_the_same_bodies(builds, entries):
    # the pure loader and both compiled builds hold the same levels, and
    # refuse the rest with the same error: a key refused is one that
    # check_key refuses
    body = _body(entries)
    outcomes = [_loaded(impl, body, len(entries)) for impl in (tp, *builds)]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    canonical = all(_outcome(tp.check_key, key)[0] == "ok" for key in entries)
    assert (outcomes[0][0] == "ok") == canonical
    if canonical:
        assert outcomes[0][1] == sorted(entries.items())


@settings(max_examples=300, deadline=None)
@given(key=KEYISH, other=VALID)
# compose_keys keeps the unreduced pair as it is in a product with the
# identity word, in both kernels, and both loaders refuse it
@example(key=UNREDUCED, other=tp.IDENTITY_KEY)
def test_random_bytes_only_raise_tree_pair_error(compiled, key, other):
    # any exception other than TreePairError fails the test; both kernels
    # must also agree on which inputs they accept and on the results
    results = []
    for impl in (tp, compiled):
        results.append([
            _outcome(impl.compose_keys, key, other),
            _outcome(impl.compose_keys, other, key),
            _outcome(impl.invert_key, key),
            _outcome(impl.load_entries, _body({key: 3}), 1),
            _outcome(impl.load_entries, _body({key: 3, other: 5}), 1 + (key != other)),
        ])
    assert results[0] == results[1]
    if results[0][3][0] != "ok":
        # the compiled loops take only a canonical factor
        level = as_level(compiled, {other: 2})
        for walk in (compiled.apply_left, compiled.inner):
            assert _outcome(walk, [key], level)[0] == "TreePairError"
        return
    walks = []
    for impl in (tp, compiled):
        walks.append([
            _outcome(impl.apply_left, [key], as_level(impl, {other: 1})),
            _outcome(impl.apply_left, [other], as_level(impl, {key: 3})),
            _outcome(impl.inner, [key], as_level(impl, {other: 2})),
            _outcome(impl.inner, [other, tp.IDENTITY_KEY], as_level(impl, {key: 3, other: 5})),
        ])
    assert walks[0] == walks[1]
