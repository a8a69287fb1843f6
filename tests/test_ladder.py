"""Ladder recursion: fixture agreement, invariants, checkpoints, and the
norm lookahead on both kernels."""
import re
import weakref
from itertools import chain

import pytest
from oracles import give_one_to_a_twin, unreduced_twin

from tgf import formats, ladder, treepair
from tgf.cli import main
from tgf.errors import CorruptionError, ResourceError, UsageError
from tgf.groups import ThompsonF
from tgf.ladder import (
    GeneratorSet,
    LadderSummary,
    MultiplicityVector,
    _subtract_scaled,
    build_ladder,
    case1,
    case2,
    custom_f_set,
    free_set,
    ladder_levels,
    lattice_set,
    lookahead_h2norm,
)
from tgf.sequences import table_from_ladder


def test_case1_table1_prefix(gen_case1, table1):
    run = build_ladder(gen_case1, 12)
    table = table_from_ladder(gen_case1, run)
    for n in range(1, 13):
        assert table.row(n) == table1.row(n)


def test_case1_early_norms(gen_case1):
    run = build_ladder(gen_case1, 8)
    assert run.h2norms()[:3] == [3, 6, 12]
    assert run.h2norms()[7] == 400


def test_case2_table2_prefix(gen_case2, table2):
    run = build_ladder(gen_case2, 8)
    table = table_from_ladder(gen_case2, run)
    for n in range(1, 9):
        assert table.row(n) == table2.row(n)
    assert run.h2norms()[4] == 344


def test_coefficient_sum_invariant(gen_case2):
    for vec in ladder_levels(gen_case2, 7):
        assert vec.entries.coefficient_sum() == 4 * 3 ** (vec.n - 1)
        assert all(c > 0 for _, c in vec.entries.items())


def test_eta_direct(gen_case1, table1):
    # every even row carries eta_{n/2} as h_n(e); row 16 from the lookahead
    run = build_ladder(gen_case1, 16)
    assert run.summaries[15].identity == 16  # eta_8
    assert run.summaries[1].identity == 0  # eta_1
    for s in run.summaries[1::2]:
        assert s.identity == table1.eta[s.n // 2 - 1]


def test_eta_direct_free_backend():
    for s in build_ladder(free_set(2), 10).summaries[1::2]:
        assert s.identity == 0  # Leinert set


def test_keys_stay_canonical(gen_case1):
    # every key in a ladder level decodes to a reduced pair that re-encodes
    # to the same bytes: keys are the canonical forms themselves
    levels = {vec.n: vec for vec in ladder_levels(gen_case1, 9)}
    for key in levels[9].entries:
        dom, rng = treepair.unpack_key(key)
        assert treepair.reduce_pair(dom, rng) == (dom, rng)
        assert treepair.pack_key(dom, rng) == key


def test_subtraction_guard():
    with pytest.raises(CorruptionError):
        _subtract_scaled(treepair.Level({b"x": 1}), {b"x": 1}, 2, n=5)


def test_generator_set_validation(gen_case1):
    backend = gen_case1.backend
    e = backend.identity_key()
    with pytest.raises(UsageError):
        GeneratorSet(backend, (e, e))
    with pytest.raises(UsageError):
        GeneratorSet(backend, (e,))


@pytest.mark.parametrize("build", ["pure", "plain", "ubsan"])
def test_generator_set_refuses_a_key_that_is_not_canonical(request, build):
    # case 1 with A under its unreduced twin, the same element under a
    # second key: refused when the set is made, before any kernel walks it,
    # with the same error on every build
    gen = _in_build(request, case1(), build)
    e, a, b = gen.elements
    twin = unreduced_twin(a)
    with pytest.raises(UsageError, match=f"^generator set element 1 \\({twin.hex()}\\): "
                                         "tree-pair key is not reduced$"):
        GeneratorSet(gen.backend, (e, twin, b), gen.label)
    with pytest.raises(UsageError, match="^generator set element 0 .*: not a tree-pair key$"):
        GeneratorSet(gen.backend, (b"junk", a, b), gen.label)


def test_generator_set_refuses_a_free_word_that_is_not_reduced():
    gen = free_set(2)
    e, a1, a2 = gen.elements
    with pytest.raises(UsageError,
                       match="^generator set element 2 .*: free_2 key is not freely reduced$"):
        GeneratorSet(gen.backend, (e, a1, a2 + b"\x00\x01"), gen.label)


def test_checkpoint_roundtrip(tmp_path, gen_case1):
    # row 6 comes from the lookahead over level 5, so levels 1..5 are stored
    run = build_ladder(gen_case1, 6, checkpoint_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.glob("*.tgfl"))
    assert files == [f"level_{n:04d}.tgfl" for n in range(1, 6)]
    vec = formats.read_checkpoint(tmp_path / "level_0005.tgfl", gen_case1)
    assert vec.n == 5
    assert vec.entries.squared_two_norm() == run.summaries[4].h2norm
    assert len(run.summaries) == 6


def test_checkpoint_resume(tmp_path, gen_case1):
    build_ladder(gen_case1, 7, checkpoint_dir=tmp_path)
    # drop the newest level; the run reads levels 1..5 in order, builds on
    # from levels 4 and 5 and still reports summaries for every level
    (tmp_path / "level_0006.tgfl").unlink()
    resumed = build_ladder(gen_case1, 10, checkpoint_dir=tmp_path)
    fresh = build_ladder(gen_case1, 10)
    assert resumed.summaries == fresh.summaries
    assert table_from_ladder(gen_case1, resumed) == table_from_ladder(
        gen_case1, fresh
    )
    full = table_from_ladder(gen_case1, fresh)
    assert full.h2norm[9] == 1656
    assert sorted(p.name for p in tmp_path.glob("*.tgfl")) == [
        f"level_{n:04d}.tgfl" for n in range(1, 10)
    ]


def test_checkpoint_resume_straight_to_lookahead(tmp_path, gen_case2):
    # levels 1..6 on disk: row 7 needs no new level, only the lookahead
    build_ladder(gen_case2, 7, checkpoint_dir=tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.glob("*.tgfl")}
    resumed = build_ladder(gen_case2, 7, checkpoint_dir=tmp_path)
    assert resumed.summaries == build_ladder(gen_case2, 7).summaries
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.tgfl")} == before


def test_checkpoint_resume_incomplete_dir(tmp_path, gen_case1):
    from tgf.errors import UsageError

    build_ladder(gen_case1, 6, checkpoint_dir=tmp_path)
    (tmp_path / "level_0002.tgfl").unlink()
    with pytest.raises(UsageError):
        build_ladder(gen_case1, 10, checkpoint_dir=tmp_path)


def test_resume_reads_each_level_file_once_in_order(tmp_path, gen_case1, monkeypatch):
    build_ladder(gen_case1, 7, checkpoint_dir=tmp_path)
    (tmp_path / "level_0006.tgfl").unlink()
    reads = []
    real = formats.read_checkpoint

    def counting(path, gen):
        reads.append(path.name)
        return real(path, gen)

    monkeypatch.setattr(formats, "read_checkpoint", counting)
    resumed = build_ladder(gen_case1, 9, checkpoint_dir=tmp_path)
    assert reads == [f"level_{n:04d}.tgfl" for n in range(1, 6)]
    assert resumed.summaries == build_ladder(gen_case1, 9).summaries


def test_checkpoint_files_above_the_run_are_left_alone(tmp_path, gen_case1):
    # a run to n = 6 reads and builds levels 1..5 only; the gap below
    # level 7 is no gap for it
    build_ladder(gen_case1, 8, checkpoint_dir=tmp_path)
    for n in (4, 5, 6):
        (tmp_path / f"level_{n:04d}.tgfl").unlink()
    stray = (tmp_path / "level_0007.tgfl").read_bytes()
    assert build_ladder(gen_case1, 6, checkpoint_dir=tmp_path).summaries == (
        build_ladder(gen_case1, 6).summaries)
    assert (tmp_path / "level_0007.tgfl").read_bytes() == stray
    assert not (tmp_path / "level_0006.tgfl").exists()


BUILDS = {"pure": None, "plain": "compiled", "ubsan": "compiled_ubsan"}


def _in_build(request, gen, build):
    """gen with its arithmetic in one kernel: the pure one, or a build of
    the compiled one."""
    module = treepair if build == "pure" else request.getfixturevalue(BUILDS[build])
    return GeneratorSet(CompiledF(module), gen.elements, gen.label)


@pytest.mark.parametrize("build", list(BUILDS))
@pytest.mark.parametrize("level", [7, 5], ids=["built-on", "row-only"])
def test_unreduced_twin_in_a_checkpoint_is_refused(request, tmp_path, build, level):
    # case 2 to n = 8 stores levels 1..7, and a run to n = 9 reads them in
    # order and builds level 8 from levels 6 and 7, so level 5 is read for
    # its row only.  A level that stores an element under a second,
    # unreduced key keeps its coefficient sum, and would give wrong rows
    gen = _in_build(request, case2(), build)
    build_ladder(gen, 8, checkpoint_dir=tmp_path)
    path = formats.checkpoint_path(tmp_path, level)
    give_one_to_a_twin(path, unreduced_twin)
    with pytest.raises(UsageError, match=f"^{re.escape(str(path))}: tree-pair key is not reduced$"):
        build_ladder(gen, 9, checkpoint_dir=tmp_path)


def test_free_group_key_that_is_not_freely_reduced_is_refused(tmp_path):
    # a_1 a_1^-1 appended to a key names the same element
    gen = free_set(2)
    build_ladder(gen, 5, checkpoint_dir=tmp_path)
    path = formats.checkpoint_path(tmp_path, 3)
    give_one_to_a_twin(path, lambda key: key + b"\x00\x01")
    with pytest.raises(UsageError, match=f"^{re.escape(str(path))}: free_2 key is not freely reduced$"):
        build_ladder(gen, 6, checkpoint_dir=tmp_path)


@pytest.mark.parametrize("fails, at, holds", [
    ("read", 3, 5), ("build", 6, 5), ("write", 4, 3), ("lookahead", 7, 6),
], ids=["read", "build", "write", "lookahead"])
def test_out_of_memory_is_a_resource_error(tmp_path, monkeypatch, fails, at, holds):
    # a run to n = 7 reads or writes levels 1..6 and takes row 7 from the
    # lookahead; "read" resumes from levels 1..5.  Level k of case 1 has
    # 3 * 2^(k-1) keys.  The error names the level that did not fit and
    # the levels in the directory
    gen = _pure(case1())
    if fails == "read":
        build_ladder(gen, 6, checkpoint_dir=tmp_path)

    def out_of_memory(real, fits):
        def call(*args):
            if not fits(*args):
                raise MemoryError
            return real(*args)
        return call

    if fails in ("read", "write"):
        name = f"{fails}_checkpoint"
        level = (lambda path, _: path.name != f"level_{at:04d}.tgfl") if fails == "read" else (
            lambda _, __, vec: vec.n != at)
        monkeypatch.setattr(formats, name, out_of_memory(getattr(formats, name), level))
    else:
        name = "apply_left" if fails == "build" else "inner"
        monkeypatch.setattr(gen.backend, name, out_of_memory(
            getattr(gen.backend, name), lambda _, vec: len(vec) < 3 * 2 ** (at - 2)))
    with pytest.raises(ResourceError) as info:
        build_ladder(gen, 7, checkpoint_dir=tmp_path)
    assert str(info.value) == (f"out of memory at level {at}; {tmp_path} holds levels "
                               f"1..{holds}, from which a run with more memory goes on")
    assert info.value.__context__ is None


def _pure(gen):
    """gen on the pure kernel, whose Levels are dicts that take weakrefs."""
    return GeneratorSet(CompiledF(treepair), gen.elements, gen.label)


def test_resumed_ladder_keeps_no_seed_level(gen_case2):
    # resume from (k-1, k) = (3, 4): level 3 is gone once level 5 is built,
    # and level 4 once level 6 is
    gen = _pure(gen_case2)
    *_, prev, cur = ladder_levels(gen, 4)
    refs = [weakref.ref(prev.entries), weakref.ref(cur.entries)]
    levels = ladder_levels(gen, 8, seed=(prev, cur))
    del prev, cur
    assert next(levels).n == 5 and refs[0]() is None
    assert next(levels).n == 6 and refs[1]() is None


def test_level_stream_keeps_no_read_level(tmp_path, gen_case2):
    # levels 1..4 are read from disk and levels 5 and 6 built: the stream
    # drops levels 3 and 4 as the ladder does
    gen = _pure(gen_case2)
    build_ladder(gen, 5, checkpoint_dir=tmp_path)
    stream = ladder._levels(gen, 7, tmp_path)
    assert [next(stream).n for _ in range(3)] == [0, 1, 2]
    refs = [weakref.ref(next(stream).entries) for _ in range(2)]
    assert next(stream).n == 5 and refs[0]() is None
    assert next(stream).n == 6 and refs[1]() is None


def test_checkpoint_sign_encoding(tmp_path):
    # free-group keys, which its loader takes: a_1, a_1 a_2, a_2
    vec = MultiplicityVector(3, treepair.Level({b"W\x00": 5, b"W\x00\x02": -7, b"W\x02": 1 << 80}))
    formats.write_checkpoint(tmp_path, free_set(9), vec)
    back = formats.read_checkpoint(formats.checkpoint_path(tmp_path, 3), free_set(9))
    assert back.n == 3 and back.entries == vec.entries


# -- norm lookahead -----------------------------------------------------------

class CompiledF(ThompsonF):
    """F whose arithmetic all runs in a given compiled kernel module."""

    def __init__(self, module):
        self.module = module

    def multiply_keys(self, a, b):
        return self.module.compose_keys(a, b)

    def invert_key(self, a):
        return self.module.invert_key(a)

    def apply_left(self, factors, vec):
        return self.module.apply_left(factors, vec)

    def inner(self, words, vec):
        return self.module.inner(words, vec)

    def load_entries(self, body, count):
        return self.module.load_entries(body, count)


def _assert_lookahead_matches_ladder(gen, max_n):
    # the lookahead from every level N >= 0, h_0 = e included, gives row
    # N+1 as the built level h_{N+1} has it
    e = gen.backend.identity_key()
    (_, top), rows = ladder._origin(gen), []
    for vec in ladder_levels(gen, max_n):
        ahead = lookahead_h2norm(gen, top, rows)
        rows.append(LadderSummary(vec.n, vec.entries.squared_two_norm(), vec.entries.get(e, 0)))
        assert ahead == rows[-1], (gen.label, vec.n)
        top = vec
    assert build_ladder(gen, max_n).summaries == rows


@pytest.mark.parametrize("build", list(BUILDS))
@pytest.mark.parametrize("gen, pure_n, compiled_n", [
    (case1(), 12, 16), (case2(), 8, 12), (custom_f_set(["Ab", "bA", "AB"]), 10, 14),
    (custom_f_set(["A", "", "B"]), 10, 14),
], ids=["case1", "case2", "custom-Ab,bA,AB", "custom-A,e,B"])
def test_lookahead_equals_materialised_level(request, build, gen, pure_n, compiled_n):
    # custom A,e,B is case 1 with the identity not listed first
    if build == "pure":
        module, max_n = treepair, pure_n
    else:
        module, max_n = request.getfixturevalue(BUILDS[build]), compiled_n
    _assert_lookahead_matches_ladder(
        GeneratorSet(CompiledF(module), gen.elements, gen.label), max_n)


@pytest.mark.parametrize("gen, build", [
    (case1(), "pure"), (case2(), "plain"), (free_set(2), None), (lattice_set(2), None),
], ids=["case1-pure", "case2-plain", "free2", "lattice2"])
def test_every_level_has_the_level_passes(request, gen, build):
    # one Level interface on every backend: the pure kernel's for free
    # groups, Z^d and F on the pure kernel, the compiled one's for F.  The
    # origin h_{-1} = 0, h_0 = e is the backend's Level too
    module = treepair
    if build is not None:
        if build != "pure":
            module = request.getfixturevalue(BUILDS[build])
        gen = GeneratorSet(CompiledF(module), gen.elements, gen.label)
    origin = ladder._origin(gen)
    assert [(vec.n, list(vec.entries.items())) for vec in origin] == [
        (-1, []), (0, [(gen.backend.identity_key(), 1)])]
    for vec in chain(origin, ladder_levels(gen, 6)):
        body = vec.entries.dump_entries()
        loaded = gen.backend.load_entries(body, len(vec.entries))
        assert type(vec.entries) is type(loaded) is module.Level
        assert list(loaded.items()) == sorted(vec.entries.items())
        assert loaded.dump_entries() == body
        assert loaded.squared_two_norm() == vec.entries.squared_two_norm()
        assert loaded.coefficient_sum() == vec.entries.coefficient_sum()
        loaded.subtract_scaled(vec.entries, 1)
        assert len(loaded) == 0


@pytest.mark.parametrize("gen", [
    free_set(1), free_set(2), free_set(3), lattice_set(1), lattice_set(2),
], ids=["free1", "free2", "free3", "lattice1", "lattice2"])
def test_lookahead_equals_materialised_level_off_f(gen):
    _assert_lookahead_matches_ladder(gen, 8)


@pytest.mark.parametrize("gen", [
    case1(), case2(), custom_f_set(["Ab", "bA", "AB"]), custom_f_set(["A", "aB"]),
    free_set(2), lattice_set(2),
], ids=["case1", "case2", "custom-Ab,bA,AB", "custom-A,aB", "free2", "lattice2"])
def test_lookahead_identity_equals_materialised_level(kernel, gen):
    if isinstance(gen.backend, ThompsonF):
        gen = GeneratorSet(CompiledF(kernel), gen.elements, gen.label)
    e = gen.backend.identity_key()
    identities = [vec.entries.get(e, 0) for vec in ladder_levels(gen, 11)]
    for max_n in range(1, 12):
        run = build_ladder(gen, max_n)
        assert [s.identity for s in run.summaries] == identities[:max_n], max_n


@pytest.mark.parametrize("max_n", [1, 2, 3])
def test_short_runs_take_the_last_row_from_the_lookahead(
        tmp_path, gen_case2, table2, monkeypatch, max_n):
    calls = []
    real = ladder.lookahead_h2norm

    def counting(gen, top, rows):
        calls.append(top.n)
        return real(gen, top, rows)

    monkeypatch.setattr(ladder, "lookahead_h2norm", counting)
    run = build_ladder(gen_case2, max_n, checkpoint_dir=tmp_path)
    assert calls == [max_n - 1]
    assert sorted(p.name for p in tmp_path.glob("*.tgfl")) == [
        f"level_{n:04d}.tgfl" for n in range(1, max_n)]
    assert run.h2norms() == table2.h2norm[:max_n]


def _levels_and_rows(gen, max_n):
    return list(ladder_levels(gen, max_n)), build_ladder(gen, max_n).summaries


def test_lookahead_rejects_a_pass_outside_its_range(gen_case1, monkeypatch):
    levels, rows = _levels_and_rows(gen_case1, 6)
    real = ThompsonF.inner
    # each pass lies in [0, ||h_N||^2]; one past the top is corrupt
    monkeypatch.setattr(ThompsonF, "inner", lambda self, words, vec: [
        rows[5].h2norm + 1, *real(self, words, vec)[1:]])
    with pytest.raises(CorruptionError, match="pass"):
        lookahead_h2norm(gen_case1, levels[5], rows)


def test_lookahead_rejects_a_row_of_the_wrong_parity(gen_case2):
    levels, rows = _levels_and_rows(gen_case2, 5)
    assert lookahead_h2norm(gen_case2, levels[4], rows).h2norm == 1076
    # the rows up to N are needed
    with pytest.raises(UsageError, match="rows up to N"):
        lookahead_h2norm(gen_case2, levels[4], rows[:4])
    # q = 3, so ||h_{N-1}||^2 enters with the odd weight q^2
    rows[3] = rows[3]._replace(h2norm=rows[3].h2norm + 1)
    with pytest.raises(CorruptionError, match="parity"):
        lookahead_h2norm(gen_case2, levels[4], rows)


def test_lookahead_pass_off_by_one_exits_2(capsys, monkeypatch):
    real = ThompsonF.inner
    monkeypatch.setattr(ThompsonF, "inner", lambda self, words, vec: [
        real(self, words, vec)[0] + 1, *real(self, words, vec)[1:]])
    assert main(["tables", "--case=1", "--max-n=8"]) == 2
    assert "verification fail" in capsys.readouterr().err
