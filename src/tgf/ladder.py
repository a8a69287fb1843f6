"""Group-ring ladder h_n built by the three-term recursion.

For a generator set Y (|Y| = q+1) inside a group backend, the ladder is

    h_1 = sum of Y,
    h_2 = h* . h_1 - (q+1) e,
    h_{n+1} = h . h_n - q h_{n-1}    (n even),
    h_{n+1} = h* . h_n - q h_{n-1}   (n odd, n >= 3),

where each h_n is a multiset of canonical keys with positive integer
multiplicities whose coefficient sum is (q+1) q^(n-1).  The subtraction
steps must cancel exactly; a negative coefficient means the arithmetic is
corrupt and aborts the run.  Only the last two levels are kept in memory;
optional per-level checkpoints allow long runs to resume.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional

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
from .treepair import TreePairError


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


@dataclass
class MultiplicityVector:
    """A group-ring element with integer coefficients, keyed canonically."""

    n: int
    entries: dict[bytes, int]

    def coefficient_sum(self) -> int:
        return sum(self.entries.values())

    def squared_two_norm(self) -> int:
        return sum(c * c for c in self.entries.values())

    def coefficient(self, key: bytes) -> int:
        return self.entries.get(key, 0)


@dataclass(frozen=True)
class LadderSummary:
    n: int
    distinct: int
    h2norm: int
    identity_coefficient: int


@dataclass
class LadderRun:
    q: int
    summaries: list[LadderSummary] = field(default_factory=list)
    kept: dict[int, MultiplicityVector] = field(default_factory=dict)

    def h2norms(self) -> list[int]:
        if [s.n for s in self.summaries] != list(range(1, len(self.summaries) + 1)):
            raise CorruptionError("ladder summaries do not cover n = 1..max")
        return [s.h2norm for s in self.summaries]


def _subtract_scaled(acc: dict[bytes, int], sub: dict[bytes, int], factor: int, n: int):
    get = acc.get
    for key, c in sub.items():
        left = get(key, 0) - factor * c
        if left < 0:
            raise CorruptionError(
                f"negative coefficient at level {n}: subtraction did not cancel"
            )
        if left:
            acc[key] = left
        else:
            acc.pop(key, None)


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
        ent = backend.apply_left(y_inv, prev.entries)
        _subtract_scaled(ent, {e: 1}, q + 1, 2)
        cur = MultiplicityVector(2, ent)
        _check_sum(cur, q)
        yield cur
    else:
        prev, cur = seed
        if cur.n != prev.n + 1:
            raise UsageError("seed levels must be consecutive")

    while cur.n < max_n:
        n = cur.n
        factors = y if n % 2 == 0 else y_inv
        ent = backend.apply_left(factors, cur.entries)
        _subtract_scaled(ent, prev.entries, q, n + 1)
        nxt = MultiplicityVector(n + 1, ent)
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
    keep_levels: tuple[int, ...] = (),
) -> LadderRun:
    """Run the ladder, returning per-level summaries.

    `keep_levels` lists levels whose full multiplicity vectors the caller
    wants retained (everything else is discarded to keep memory at two
    levels).  With `checkpoint_dir`, each level is dumped after it is
    computed and an interrupted run restarts from the newest consecutive
    pair on disk.
    """
    from . import formats

    e = gen.backend.identity_key()
    run = LadderRun(q=gen.q)
    seed = None
    disk = ()
    if checkpoint_dir is not None:
        ckdir = Path(checkpoint_dir)
        ckdir.mkdir(parents=True, exist_ok=True)
        seed = formats.latest_checkpoint_pair(ckdir, gen.q, max_n)
        if seed is not None:
            # summaries for the levels below the seed come off disk, so a
            # resumed run still reports the whole ladder
            disk = chain(_disk_levels(ckdir, seed[0].n), seed)
    fresh_from = seed[1].n + 1 if seed is not None else 1

    try:
        for vec in chain(disk, ladder_levels(gen, max_n, seed=seed)):
            _summarize(run, vec, e)
            if vec.n in keep_levels:
                run.kept[vec.n] = vec
            if checkpoint_dir is not None and vec.n >= fresh_from:
                formats.write_checkpoint(ckdir, gen.q, vec)
    except TreePairError as exc:
        # fresh keys come out of the kernel, so only the seed's can be bad;
        # they are first checked when the next level composes them
        if seed is None:
            raise
        raise UsageError(f"{formats.checkpoint_path(ckdir, seed[1].n)}: {exc}") from None
    return run


def _disk_levels(ckdir: Path, below: int) -> Iterator[MultiplicityVector]:
    """Checkpointed levels 1 .. below-1, read one at a time."""
    from . import formats

    for n in range(1, below):
        path = formats.checkpoint_path(ckdir, n)
        if not path.exists():
            raise UsageError(
                f"checkpoint level {n} missing from {ckdir}; "
                "delete the directory to restart from scratch"
            )
        yield formats.read_checkpoint(path)[1]


def _summarize(run: LadderRun, vec: MultiplicityVector, identity_key: bytes):
    run.summaries.append(
        LadderSummary(
            n=vec.n,
            distinct=len(vec.entries),
            h2norm=vec.squared_two_norm(),
            identity_coefficient=vec.coefficient(identity_key),
        )
    )


def eta_direct(vec: MultiplicityVector, identity_key: bytes) -> int:
    """Reduced number from an even ladder level: the identity coefficient."""
    if vec.n % 2:
        raise UsageError("reduced numbers live at even ladder levels")
    return vec.coefficient(identity_key)
