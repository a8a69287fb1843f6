"""Group-ring ladder h_n built by the three-term recursion.

For a generator set Y (|Y| = q+1) inside a group backend, the ladder is

    h_1 = sum of Y,
    h_2 = h* . h_1 - (q+1) e,
    h_{n+1} = h . h_n - q h_{n-1}    (n even),
    h_{n+1} = h* . h_n - q h_{n-1}   (n odd, n >= 3),

where each h_n is a multiset of canonical keys with positive integer
multiplicities whose coefficient sum is (q+1) q^(n-1).  The subtraction
steps must cancel exactly; a negative coefficient means the arithmetic is
corrupt and aborts the run.  Three levels are live while a step runs:
h_{n-1} and h_n, and h_{n+1} as it accumulates; no other level is kept.
Optional per-level checkpoints allow long runs to resume.

A level's entries are whatever the backend's apply_left returns.  For F
with the compiled kernel that is a Level: the C kernel's compact store,
one open-addressing table whose 8-byte slots index an arena of (key
length, key, u32 count) records in insertion order, about 24-37 bytes
per key where a dict of bytes takes about 79-101.  It is a read-only
mapping, and the per-level passes (subtracting the previous level, the
coefficient sum, the 2-norm, the checkpoint dump) are its own C methods;
on a dict, the pure loops of the same names in tgf.treepair run instead.
A count past 2**32 - 1 cannot be stored, and aborts the run as corrupt.

The last row needs no last level (the norm lookahead).  Let N >= 3 and g
be the factor sum of the step N -> N+1 (h or h*).  Since
g* . h_{N-1} = h_N + q h_{N-2},

    ||h_{N+1}||^2 = sum_{s,t in g} <t^-1 s . h_N, h_N>
                    - 2q (||h_N||^2 + q c_N) + q^2 ||h_{N-1}||^2,

where c_n = <h_n, h_{n-2}> follows from the norms alone:
c_3 = ||h_2||^2 - q(q+1) and c_n = ||h_{n-1}||^2 - q ||h_{n-2}||^2
+ q c_{n-1}.  Each <w . h, h> is one pass of the backend's `inner` over
h_N, and <w . h, h> = <w^-1 . h, h>, so one word of each {w, w^-1} pair
is enough.  build_ladder therefore materialises h_1 .. h_{max_n - 1} and
takes row max_n from the lookahead, unless max_n <= 3; its checkpoints
then hold levels up to max_n - 1.  The row's identity coefficient needs
no pass: h_{N+1}(e) = sum_{s in g} h_N(s^-1) - q h_{N-1}(e).  Range and
parity checks on the passes and the row stand in for the missing level's
sum and cancellation checks.  They bound a wrong pass but cannot pin it:
every pass enters the row with an even weight, since (s, t) and (t, s)
give inverse words.  The CLI's Moebius/parity suite on the finished table
is what catches a pass that is off by a little.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional

from . import treepair
from .errors import CorruptionError, UsageError
from .groups import (
    CanonicalElement,
    FreeGroup,
    GeneratorLetter,
    GroupBackend,
    Lattice,
    ThompsonF,
    Word,
)


@dataclass(frozen=True)
class GeneratorSet:
    """The set Y whose element sum h drives the ladder."""

    backend: GroupBackend
    elements: tuple[CanonicalElement, ...]
    label: str = "custom"

    def __post_init__(self):
        keys = [el.key for el in self.elements]
        if len(set(keys)) != len(keys):
            raise UsageError("generator set contains repeated elements")
        if self.q < 1:
            raise UsageError("generator set needs at least two elements")

    @property
    def q(self) -> int:
        return len(self.elements) - 1

    def keys(self) -> list[bytes]:
        return [el.key for el in self.elements]

    def inverse_keys(self) -> list[bytes]:
        return [self.backend.invert_key(el.key) for el in self.elements]


def case1() -> GeneratorSet:
    """Y = {I, A, B} in Thompson's group F (q = 2)."""
    f = ThompsonF()
    els = (f.identity(), f.element_from_word(Word.parse("A")),
           f.element_from_word(Word.parse("B")))
    return GeneratorSet(f, els, label="case1")


def case2() -> GeneratorSet:
    """Y = {A, A^-1, B, B^-1} in Thompson's group F (q = 3)."""
    f = ThompsonF()
    els = tuple(f.element_from_word(Word.parse(w)) for w in ("A", "a", "B", "b"))
    return GeneratorSet(f, els, label="case2")


def free_set(q: int) -> GeneratorSet:
    """Y = {e, a_1, ..., a_q} in the free group F_q; a Leinert set."""
    fg = FreeGroup(q)
    els = [fg.identity()]
    for i in range(q):
        els.append(fg.element_from_word(Word((GeneratorLetter(i),))))
    return GeneratorSet(fg, tuple(els), label=f"free{q}")


def lattice_set(d: int) -> GeneratorSet:
    """Y = {0, e_1, ..., e_d} in Z^d (amenable; q = d)."""
    zd = Lattice(d)
    els = [zd.identity()]
    for i in range(d):
        els.append(zd.element_from_word(Word((GeneratorLetter(i),))))
    return GeneratorSet(zd, tuple(els), label=f"lattice{d}")


def custom_f_set(words: list[str]) -> GeneratorSet:
    """Generator set in F from words over A,a,B,b (lowercase = inverse)."""
    f = ThompsonF()
    els = tuple(f.element_from_word(Word.parse(w)) for w in words)
    return GeneratorSet(f, els, label="custom")


def _level_pass(entries: Mapping[bytes, int], name: str, *args):
    """A per-level pass: the level store's own C method, or on a dict the
    pure loop of the same name in tgf.treepair."""
    if isinstance(entries, dict):
        return getattr(treepair, name)(entries, *args)
    return getattr(entries, name)(*args)


@dataclass
class MultiplicityVector:
    """A group-ring element with integer coefficients, keyed canonically;
    entries is a dict or the compiled kernel's Level (module docstring)."""

    n: int
    entries: Mapping[bytes, int]

    def coefficient_sum(self) -> int:
        return _level_pass(self.entries, "coefficient_sum")

    def squared_two_norm(self) -> int:
        return _level_pass(self.entries, "squared_two_norm")

    def dump_entries(self) -> bytes:
        """The checkpoint body: the entries sorted by key (see formats)."""
        return _level_pass(self.entries, "dump_entries")


@dataclass(frozen=True)
class LadderSummary:
    n: int
    h2norm: int
    identity: int  # h_n(e); eta_{n/2} at even n


@dataclass
class LadderRun:
    summaries: list[LadderSummary] = field(default_factory=list)

    def h2norms(self) -> list[int]:
        if [s.n for s in self.summaries] != list(range(1, len(self.summaries) + 1)):
            raise CorruptionError("ladder summaries do not cover n = 1..max")
        return [s.h2norm for s in self.summaries]


def _subtract_scaled(acc: Mapping[bytes, int], sub: Mapping[bytes, int], factor: int, n: int):
    try:
        _level_pass(acc, "subtract_scaled", sub, factor)
    except ValueError:
        raise CorruptionError(
            f"negative coefficient at level {n}: subtraction did not cancel"
        ) from None


def _next_level(backend: GroupBackend, factors: list[bytes], vec: Mapping[bytes, int],
                sub: Mapping[bytes, int], factor: int, n: int) -> MultiplicityVector:
    """h_n = (sum of factors) . vec - factor * sub."""
    try:
        ent = backend.apply_left(factors, vec)
    except OverflowError as exc:
        raise CorruptionError(f"level {n}: {exc}") from None
    _subtract_scaled(ent, sub, factor, n)
    return MultiplicityVector(n, ent)


def ladder_levels(
    gen: GeneratorSet,
    max_n: int,
    seed: Optional[tuple[MultiplicityVector, MultiplicityVector]] = None,
) -> Iterator[MultiplicityVector]:
    """Yield h_1 .. h_max_n (or continue past a checkpointed pair `seed`)."""
    if max_n < 1:
        raise UsageError("max_n must be >= 1")
    backend, q = gen.backend, gen.q
    y = gen.keys()
    y_inv = gen.inverse_keys()
    e = backend.identity_key()

    if seed is None:
        prev = MultiplicityVector(1, {k: 1 for k in y})
        yield prev
        if max_n == 1:
            return
        cur = _next_level(backend, y_inv, prev.entries, {e: 1}, q + 1, 2)
        _check_sum(cur, q)
        yield cur
    else:
        prev, cur = seed
        if cur.n != prev.n + 1:
            raise UsageError("seed levels must be consecutive")

    while cur.n < max_n:
        n = cur.n
        factors = y if n % 2 == 0 else y_inv
        nxt = _next_level(backend, factors, cur.entries, prev.entries, q, n + 1)
        _check_sum(nxt, q)
        yield nxt
        prev, cur = cur, nxt


def _check_sum(vec: MultiplicityVector, q: int):
    expect = (q + 1) * q ** (vec.n - 1)
    got = vec.coefficient_sum()
    if got != expect:
        raise CorruptionError(
            f"level {vec.n}: coefficient sum {got} != (q+1)q^(n-1) = {expect}"
        )


def build_ladder(
    gen: GeneratorSet,
    max_n: int,
    checkpoint_dir: Optional[str] = None,
) -> LadderRun:
    """Run the ladder, returning per-level summaries.

    No level is kept: each is dropped once the two after it are built.
    Row max_n comes from the norm lookahead over level max_n - 1 unless
    max_n <= 3.  With `checkpoint_dir`, each materialised level is dumped
    after it is computed and an interrupted run restarts from the newest
    consecutive pair on disk.
    """
    from . import formats

    lookahead = max_n > 3
    top = max_n - 1 if lookahead else max_n
    e = gen.backend.identity_key()
    run = LadderRun()
    if checkpoint_dir is None:
        levels, fresh_from = ladder_levels(gen, top), 1
    else:
        ckdir = Path(checkpoint_dir)
        levels, fresh_from = _resume(gen, top, ckdir)

    last = None
    for last in levels:
        run.summaries.append(
            LadderSummary(last.n, last.squared_two_norm(), last.entries.get(e, 0)))
        if checkpoint_dir is not None and last.n >= fresh_from:
            formats.write_checkpoint(ckdir, gen, last)
    if lookahead:
        row = lookahead_h2norm(gen, last, run.h2norms())
        # h_N(s^-1) for s in g (h or h*), so the keys of the other one
        g_inv = gen.inverse_keys() if last.n % 2 == 0 else gen.keys()
        identity = (sum(last.entries.get(k, 0) for k in g_inv)
                    - gen.q * run.summaries[-2].identity)
        run.summaries.append(LadderSummary(max_n, row, identity))
    return run


def lookahead_h2norm(gen: GeneratorSet, top: MultiplicityVector, h2norms: list[int]) -> int:
    """||h_{N+1}||^2 from the level top = h_N (N >= 3) and the norms of
    h_1 .. h_N, without building h_{N+1} (see the module docstring)."""
    backend, q, n = gen.backend, gen.q, top.n
    if n < 3 or len(h2norms) < n:
        raise UsageError("the lookahead needs level N >= 3 and the norms up to N")
    norm = h2norms[n - 1]
    c = h2norms[1] - q * (q + 1)
    for m in range(4, n + 1):
        c = h2norms[m - 2] - q * h2norms[m - 3] + q * c
    g = gen.keys() if n % 2 == 0 else gen.inverse_keys()
    # the ordered pairs s != t, one word per {w, w^-1}; the s = t pairs are
    # the identity and give ||h_N||^2 each
    counts: dict[bytes, int] = {}
    for t in g:
        t_inv = backend.invert_key(t)
        for s in g:
            if s != t:
                w = backend.multiply_keys(t_inv, s)
                w = min(w, backend.invert_key(w))
                counts[w] = counts.get(w, 0) + 1
    passes = backend.inner(list(counts), top.entries)
    for w, value in zip(counts, passes):
        if not 0 <= value <= norm:
            raise CorruptionError(
                f"lookahead at level {n + 1}: pass {w.hex()} gave {value}, "
                f"outside [0, ||h_{n}||^2 = {norm}]"
            )
    gram = (q + 1) * norm + sum(k * v for k, v in zip(counts.values(), passes))
    row = gram - 2 * q * (norm + q * c) + q * q * h2norms[n - 2]
    total = (q + 1) * q**n
    if not total <= row <= total * total or (row - total) % 2:
        raise CorruptionError(
            f"lookahead at level {n + 1}: ||h||^2 = {row} is outside [S, S^2] or "
            f"differs from S = (q+1)q^n = {total} in parity"
        )
    return row


def _resume(
    gen: GeneratorSet, top: int, ckdir: Path
) -> tuple[Iterator[MultiplicityVector], int]:
    """Levels 1 .. top continued from the newest checkpointed pair in ckdir,
    and the first level that is computed rather than read."""
    from . import formats

    ckdir.mkdir(parents=True, exist_ok=True)
    seed = formats.latest_checkpoint_pair(ckdir, gen, top)
    if seed is None:
        return ladder_levels(gen, top), 1
    # a bad key in either level fails here, naming its file, even when
    # the run composes none of that level's keys (TreePairError is a
    # ValueError, as is a backend's refusal of a key)
    for vec in seed:
        try:
            for key in vec.entries:
                gen.backend.invert_key(key)
        except ValueError as exc:
            raise UsageError(f"{formats.checkpoint_path(ckdir, vec.n)}: {exc}") from None
    # summaries for the levels below the seed come off disk, so a resumed
    # run still reports the whole ladder
    levels = chain(_disk_levels(gen, ckdir, seed[0].n), seed, ladder_levels(gen, top, seed=seed))
    return levels, seed[1].n + 1


def _disk_levels(gen: GeneratorSet, ckdir: Path, below: int) -> Iterator[MultiplicityVector]:
    """Checkpointed levels 1 .. below-1, read one at a time."""
    from . import formats

    for n in range(1, below):
        path = formats.checkpoint_path(ckdir, n)
        if not path.exists():
            raise UsageError(
                f"checkpoint level {n} missing from {ckdir}; "
                "delete the directory to restart from scratch"
            )
        yield formats.read_checkpoint(path, gen)

