"""Group-ring ladder h_n built by the three-term recursion.

For a generator set Y (|Y| = q+1) inside a group backend, with h the sum
of Y, the ladder starts at h_0 = e (and h_{-1} = 0) and steps

    h_{n+1} = g_n . h_n - s_n h_{n-1},

where g_n is h at even n and h* at odd n, s_0 = 0, s_1 = q+1 and s_n = q
for n >= 2 (so h_1 = h and h_2 = h* . h_1 - (q+1) e); _step is that
rule.  Each h_n (n >= 1) is a multiset of canonical keys with positive
integer multiplicities whose coefficient sum is (q+1) q^(n-1).  The
subtraction steps must cancel exactly; a negative coefficient means the
arithmetic is corrupt and aborts the run.  Three levels are live while a
step runs: h_{n-1} and h_n, and h_{n+1} as it accumulates; no other level
is kept.

With a checkpoint directory a run reads levels 1, 2, ... (up to
max_n - 1) in order while their files exist, then builds on from the last
two and writes each level it builds (_levels); it never overwrites a file
it has not read.  The backend's load_entries refuses a key that is not
canonical, so a level read holds each element once, as one built does.

A level's entries are a Level, as the backend's apply_left and
load_entries return it, and its per-level passes (subtracting the previous
level, the coefficient sum, the 2-norm, the checkpoint dump) are its own
methods.  There are two implementations of that one interface:
tgf.treepair.Level, a dict with the passes as Python loops (free groups,
Z^d, and F on the pure kernel), and the compiled kernel's Level for F, a
read-only compact store (about 24-37 bytes per key where a dict of bytes
takes about 79-101; see tgf._treepair) that runs them in C.  Every level,
h_{-1} and h_0 included, is the backend's own Level (see _origin).  A sum
past the compiled store's bound (tgf.kernel) aborts the run as corrupt.

The last row needs no last level (the norm lookahead).  For N >= 0, since
g_N* = g_{N-1} and g_{N-1} . h_{N-1} = h_N + s_{N-1} h_{N-2},

    ||h_{N+1}||^2 = sum_{s,t in g_N} <t^-1 s . h_N, h_N>
                    - 2 s_N (||h_N||^2 + s_{N-1} c_N) + s_N^2 ||h_{N-1}||^2

(s_0 = 0 drops the rest at N = 0), where c_n = <h_n, h_{n-2}> follows
from the norms alone, with ||h_0||^2 = 1 and ||h_{-1}||^2 = 0: c_0 = c_1 = 0
and c_n = ||h_{n-1}||^2 + s_{n-2} c_{n-1} - s_{n-1} ||h_{n-2}||^2.  Each
<w . h, h> is one pass of the backend's `inner` over h_N, and
<w . h, h> = <w^-1 . h, h>, so one word of each {w, w^-1} pair is enough.
The identity coefficient needs no pass:
h_{N+1}(e) = sum_{s in g_N} h_N(s^-1) - s_N h_{N-1}(e).  build_ladder
therefore builds h_1 .. h_{max_n - 1}, and checkpoints them, and takes row
max_n from the lookahead.  Range and parity checks on the passes and the
row stand in for the missing level's sum and cancellation checks.  They
bound a wrong pass but cannot pin it: every pass enters the row with an
even weight, since (s, t) and (t, s) give inverse words.  The CLI's
Moebius/parity suite on the finished table is what catches a pass that is
off by a little.
"""
from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from . import treepair
from .errors import CorruptionError, ResourceError, UsageError
from .groups import FreeGroup, GeneratorLetter, GroupBackend, Lattice, ThompsonF, Word
from .records import FrozenRecord, Record


class GeneratorSet(FrozenRecord):
    """The set Y whose element sum h drives the ladder: the canonical keys
    of its elements in `backend`.  A key that the backend's check_key
    refuses (malformed, or not canonical, so that one element could enter
    a level under two keys) is a UsageError on every kernel."""

    __slots__ = _fields = ("backend", "elements", "label")

    def __init__(self, backend: GroupBackend, elements: tuple[bytes, ...],
                 label: str = "custom"):
        self._set_fields(backend, elements, label)
        for i, key in enumerate(self.elements):
            try:
                self.backend.check_key(key)
            except ValueError as exc:
                raise UsageError(f"generator set element {i} ({key.hex()}): {exc}") from None
        if len(set(self.elements)) != len(self.elements):
            raise UsageError("generator set contains repeated elements")
        if self.q < 1:
            raise UsageError("generator set needs at least two elements")

    @property
    def q(self) -> int:
        return len(self.elements) - 1

    def keys(self) -> list[bytes]:
        return list(self.elements)

    def inverse_keys(self) -> list[bytes]:
        return [self.backend.invert_key(key) for key in self.elements]


def _word_set(words, label: str) -> GeneratorSet:
    """The generator set in F of words over A,a,B,b (lowercase = inverse)."""
    f = ThompsonF()
    keys = tuple(f.element_from_word(Word.parse(w)).key for w in words)
    return GeneratorSet(f, keys, label=label)


def _letter_set(backend: GroupBackend, q: int, label: str) -> GeneratorSet:
    """{e, g_1, ..., g_q} for the first q generators of backend."""
    keys = [backend.identity_key()]
    keys += [backend.generator_key(GeneratorLetter(i)) for i in range(q)]
    return GeneratorSet(backend, tuple(keys), label=label)


def case1() -> GeneratorSet:
    """Y = {I, A, B} in Thompson's group F (q = 2)."""
    return _word_set(("", "A", "B"), "case1")


def case2() -> GeneratorSet:
    """Y = {A, A^-1, B, B^-1} in Thompson's group F (q = 3)."""
    return _word_set(("A", "a", "B", "b"), "case2")


def free_set(q: int) -> GeneratorSet:
    """Y = {e, a_1, ..., a_q} in the free group F_q; a Leinert set."""
    return _letter_set(FreeGroup(q), q, f"free{q}")


def lattice_set(d: int) -> GeneratorSet:
    """Y = {0, e_1, ..., e_d} in Z^d (amenable; q = d)."""
    return _letter_set(Lattice(d), d, f"lattice{d}")


def custom_f_set(words: list[str]) -> GeneratorSet:
    """Generator set in F from words over A,a,B,b (lowercase = inverse)."""
    return _word_set(words, "custom")


class MultiplicityVector(Record):
    """A group-ring element with integer coefficients, keyed canonically;
    entries is a Level (module docstring)."""

    __slots__ = _fields = ("n", "entries")

    def __init__(self, n: int, entries: Mapping[bytes, int]):
        self.n = n
        self.entries = entries


class LadderSummary(NamedTuple):
    n: int
    h2norm: int
    identity: int  # h_n(e); eta_{n/2} at even n


class LadderRun(Record):
    __slots__ = _fields = ("summaries",)

    def __init__(self, summaries: Optional[list[LadderSummary]] = None):
        self.summaries = [] if summaries is None else summaries

    def h2norms(self) -> list[int]:
        if [s.n for s in self.summaries] != list(range(1, len(self.summaries) + 1)):
            raise CorruptionError("ladder summaries do not cover n = 1..max")
        return [s.h2norm for s in self.summaries]


def _subtract_scaled(acc: Mapping[bytes, int], sub: Mapping[bytes, int], factor: int, n: int):
    try:
        acc.subtract_scaled(sub, factor)
    except ValueError:
        raise CorruptionError(
            f"negative coefficient at level {n}: subtraction did not cancel"
        ) from None


def _step(gen: GeneratorSet, n: int) -> tuple[list[bytes], int]:
    """The step h_n -> h_{n+1} = g_n . h_n - s_n h_{n-1}: the factors of
    g_n (h at even n, h* at odd n) and s_n (0, then q+1, then q)."""
    factors = gen.keys() if n % 2 == 0 else gen.inverse_keys()
    return factors, 0 if n == 0 else gen.q + 1 if n == 1 else gen.q


def _origin(gen: GeneratorSet) -> tuple[MultiplicityVector, MultiplicityVector]:
    """h_{-1} = 0 and h_0 = e, where every ladder starts, read from
    checkpoint bodies so that they are the backend's own Levels."""
    load, e = gen.backend.load_entries, gen.backend.identity_key()
    return (MultiplicityVector(-1, load(b"", 0)),
            MultiplicityVector(0, load(treepair.Level({e: 1}).dump_entries(), 1)))


def ladder_levels(
    gen: GeneratorSet,
    max_n: int,
    seed: Optional[tuple[MultiplicityVector, MultiplicityVector]] = None,
) -> Iterator[MultiplicityVector]:
    """Yield h_1 .. h_max_n from h_0 = e, or the levels after a
    consecutive pair `seed` up to h_max_n.  The seed is not kept: each of
    its levels is dropped once the two after it are built."""
    prev, cur = seed or _origin(gen)
    del seed
    if cur.n != prev.n + 1:
        raise UsageError("seed levels must be consecutive")
    while cur.n < max_n:
        n = cur.n + 1
        factors, scale = _step(gen, cur.n)
        try:
            ent = gen.backend.apply_left(factors, cur.entries)
        except OverflowError as exc:
            raise CorruptionError(f"level {n}: {exc}") from None
        _subtract_scaled(ent, prev.entries, scale, n)
        prev, cur = cur, MultiplicityVector(n, ent)
        _check_sum(cur, gen.q)
        yield cur


def _check_sum(vec: MultiplicityVector, q: int):
    expect = (q + 1) * q ** (vec.n - 1)
    got = vec.entries.coefficient_sum()
    if got != expect:
        raise CorruptionError(
            f"level {vec.n}: coefficient sum {got} != (q+1)q^(n-1) = {expect}"
        )


def build_ladder(
    gen: GeneratorSet,
    max_n: int,
    checkpoint_dir: Optional[str] = None,
) -> LadderRun:
    """Run the ladder, returning per-level summaries: rows 1 .. max_n - 1
    from the levels of _levels, none of which is kept, and row max_n from
    the norm lookahead over the last of them (h_0 = e when max_n = 1).
    Running out of memory raises ResourceError naming the level, and the
    levels in checkpoint_dir, from which a run with more memory goes on."""
    from . import formats

    if max_n < 1:
        raise UsageError("max_n must be >= 1")
    e = gen.backend.identity_key()
    run = LadderRun()
    try:
        levels = _levels(gen, max_n - 1, checkpoint_dir)
        top = next(levels)  # h_0
        for top in levels:
            run.summaries.append(
                LadderSummary(top.n, top.entries.squared_two_norm(), top.entries.get(e, 0)))
        run.summaries.append(lookahead_h2norm(gen, top, run.summaries))
        return run
    except MemoryError:
        # the levels go once the frames of the failed step do, as this
        # clause ends
        levels = top = None
    # rows 1 .. n - 1 are done, and level n did not fit
    n, last = len(run.summaries) + 1, 0
    while checkpoint_dir is not None and formats.checkpoint_path(checkpoint_dir, last + 1).exists():
        last += 1
    raise ResourceError(f"out of memory at level {n}" + (
        f"; {checkpoint_dir} holds levels 1..{last}, from which a run with more memory goes on"
        if last else ""))


def _levels(
    gen: GeneratorSet, top: int, checkpoint_dir: Optional[str]
) -> Iterator[MultiplicityVector]:
    """h_0, then h_1 .. h_top: read from checkpoint_dir in order while their
    files exist, then built from the last two and written there.  A missing
    level below a file of level <= top refuses the run before any read."""
    from . import formats

    ckdir = None if checkpoint_dir is None else Path(checkpoint_dir)
    on_disk = 0
    if ckdir is not None:
        ckdir.mkdir(parents=True, exist_ok=True)
        while on_disk < top and formats.checkpoint_path(ckdir, on_disk + 1).exists():
            on_disk += 1
        if any(formats.checkpoint_path(ckdir, n).exists() for n in range(on_disk + 2, top + 1)):
            raise UsageError(
                f"checkpoint level {on_disk + 1} missing from {ckdir}; "
                "delete the directory to restart from scratch"
            )
    prev, cur = _origin(gen)
    yield cur
    for n in range(1, on_disk + 1):
        prev, cur = cur, _check_read(gen, ckdir, n)
        yield cur
    levels = ladder_levels(gen, top, seed=(prev, cur))
    del prev, cur
    for cur in levels:
        if ckdir is not None:
            formats.write_checkpoint(ckdir, gen, cur)
        yield cur


def lookahead_h2norm(
    gen: GeneratorSet, top: MultiplicityVector, summaries: list[LadderSummary]
) -> LadderSummary:
    """Row N+1 from the level top = h_N (N >= 0) and the rows 1 .. N,
    without building h_{N+1} (see the module docstring)."""
    backend, q, n = gen.backend, gen.q, top.n
    if n < 0 or len(summaries) < n:
        raise UsageError("the lookahead needs a level N >= 0 and the rows up to N")
    # rows[m + 1] is row m, from h_{-1} = 0 and h_0 = e
    rows = [LadderSummary(-1, 0, 0), LadderSummary(0, 1, 1), *summaries[:n]]
    norms = [r.h2norm for r in rows]
    c = 0
    for m in range(2, n + 1):
        c = norms[m] + _step(gen, m - 2)[1] * c - _step(gen, m - 1)[1] * norms[m - 1]
    g, scale = _step(gen, n)
    norm = norms[n + 1]
    # the ordered pairs s != t, one word per {w, w^-1}; the s = t pairs are
    # the identity and give ||h_N||^2 each.  h_{N+1}(e) adds up h_N(t^-1)
    counts: dict[bytes, int] = {}
    identity = -scale * rows[n].identity
    for t in g:
        t_inv = backend.invert_key(t)
        identity += top.entries.get(t_inv, 0)
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
    row = gram - 2 * scale * (norm + _step(gen, n - 1)[1] * c) + scale * scale * norms[n]
    total = (q + 1) * q**n
    if not total <= row <= total * total or (row - total) % 2:
        raise CorruptionError(
            f"lookahead at level {n + 1}: ||h||^2 = {row} is outside [S, S^2] or "
            f"differs from S = (q+1)q^n = {total} in parity"
        )
    return LadderSummary(n + 1, row, identity)


def _check_read(gen: GeneratorSet, ckdir: Path, n: int) -> MultiplicityVector:
    """Level n as read from its checkpoint file in ckdir, refused with the
    file named unless it holds level n and its coefficients sum to
    (q+1)q^(n-1); the backend's load_entries has checked its keys."""
    from . import formats

    path = formats.checkpoint_path(ckdir, n)
    vec = formats.read_checkpoint(path, gen)
    if vec.n != n:
        raise UsageError(f"{path}: checkpoint holds level {vec.n}, not {n}")
    try:
        _check_sum(vec, gen.q)
    except CorruptionError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return vec
