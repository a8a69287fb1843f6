"""The records' contract: constructors, defaults, equality, hashing and
immutability, validation messages, fresh list defaults and cached values.

Each record is a typing.NamedTuple or a class over __slots__ on a base
from tgf.records (see its docstring); callers see the same constructors,
attributes and behaviour either way.
"""
import copy
import pickle
import re
from fractions import Fraction

import pytest

from tgf import spectral, treepair
from tgf.density import DensityCurve, LegendreExpansion
from tgf.errors import UsageError
from tgf.groups import (
    CanonicalElement,
    FreeGroup,
    GeneratorLetter,
    GroupBackend,
    ThompsonF,
    Word,
)
from tgf.ladder import GeneratorSet, LadderRun, LadderSummary, MultiplicityVector, case1
from tgf.sequences import CogrowthRow, MoebiusRow, MomentVector, SequenceTable, VerifyReport
from tgf.spectral import FitParams, HankelLadder, JacobiCoefficients, NormBoundsRow

F = ThompsonF()
CASE1_KEYS = case1().elements
FREE2 = FreeGroup(2)

# (class, field values in constructor order, field names); every record
# the package defines
RECORDS = [
    (GeneratorLetter, (1, True), ("index", "inverted")),
    (Word, ((GeneratorLetter(0), GeneratorLetter(1, True)),), ("letters",)),
    (CanonicalElement, (F, CASE1_KEYS[1]), ("backend", "key")),
    (GeneratorSet, (F, CASE1_KEYS, "case1"), ("backend", "elements", "label")),
    (MultiplicityVector, (3, treepair.Level({b"W\x00": 2})), ("n", "entries")),
    (LadderSummary, (4, 30, 6), ("n", "h2norm", "identity")),
    (LadderRun, ([LadderSummary(1, 3, 0)],), ("summaries",)),
    (SequenceTable, (2, [3, 10], [0, 4], [0, 4], [0, 2], [3, 15]),
     ("q", "h2norm", "xi", "eta", "zeta", "m")),
    (MomentVector, (2, (1, 3, 15)), ("q", "m")),
    (MoebiusRow, (2, 4, True, True), ("n", "value", "nonnegative", "divisible")),
    (VerifyReport, ([("base_case", True, "")], [MoebiusRow(1, 0, True, True)]),
     ("checks", "moebius_rows")),
    (CogrowthRow, (1, 0.0, 0.5, 1.0, 1.5, 2.0),
     ("n", "zeta_root", "eta_root", "xi_root", "h2_root", "m_root")),
    (HankelLadder, ((1, 3, 18), 3), ("determinants", "degenerate_at")),
    (JacobiCoefficients, ((None, Fraction(3), Fraction(2)), 64),
     ("alpha_sq", "precision_bits")),
    (NormBoundsRow, (2, Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(1), None),
     ("n", "root_moment", "ratio_root", "lambda_max", "alpha", "alpha_sum")),
    (FitParams, (2.95, 1.0, 0.5, 1.5, 1e-9, (12, 37)),
     ("a", "b", "c", "d", "residual", "window")),
    (LegendreExpansion, (2, 1, (Fraction(1), Fraction(0), Fraction(-1, 3))),
     ("q", "order", "cores")),
    (DensityCurve, ((0.0, 0.5), (0.25, 0.125), "rho"), ("grid", "values", "label")),
]
FROZEN = {GeneratorLetter, Word, CanonicalElement, GeneratorSet, LadderSummary,
          MomentVector, MoebiusRow, CogrowthRow, HankelLadder, JacobiCoefficients,
          NormBoundsRow, FitParams, LegendreExpansion, DensityCurve}
MUTABLE = {MultiplicityVector, LadderRun, SequenceTable, VerifyReport}
IDS = [cls.__name__ for cls, _, _ in RECORDS]
FROZEN_RECORDS = [r for r in RECORDS if r[0] in FROZEN]
MUTABLE_RECORDS = [r for r in RECORDS if r[0] in MUTABLE]


def test_every_record_is_listed_once():
    assert len(RECORDS) == len(FROZEN | MUTABLE) == 18
    assert not FROZEN & MUTABLE
    assert {cls for cls, _, _ in RECORDS} == FROZEN | MUTABLE


@pytest.mark.parametrize("cls, values, names", RECORDS, ids=IDS)
def test_positional_and_keyword_constructors_agree(cls, values, names):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for rec in by_position, by_keyword:
        assert tuple(getattr(rec, name) for name in names) == values
    assert by_position == by_keyword
    assert not by_position != by_keyword


@pytest.mark.parametrize("cls, values, names", RECORDS, ids=IDS)
def test_equal_fields_compare_equal(cls, values, names):
    # equal values in other objects; a backend compares by identity
    twin = [v if isinstance(v, GroupBackend) else copy.deepcopy(v) for v in values]
    a, b = cls(*values), cls(*twin)
    assert a == b
    if cls in FROZEN:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_other_fields_or_classes_compare_unequal():
    assert GeneratorLetter(0) != GeneratorLetter(0, True)
    assert GeneratorSet(F, CASE1_KEYS) != GeneratorSet(F, CASE1_KEYS, "case1")
    assert GeneratorSet(F, CASE1_KEYS) != GeneratorSet(ThompsonF(), CASE1_KEYS)
    assert MomentVector(2, (1, 3)) != MomentVector(2, (1, 3, 15))
    assert DensityCurve((0.0,), (1.0,)) != DensityCurve((0.0,), (1.0,), "x")
    assert JacobiCoefficients((None, Fraction(2)), 64) != JacobiCoefficients(
        (None, Fraction(2)), 65)
    assert SequenceTable(2, [3], [0], [0], [0], [3]) != SequenceTable(3, [3], [0], [0], [0], [3])
    assert LadderRun() != LadderRun([LadderSummary(1, 3, 0)])
    assert VerifyReport() != VerifyReport([("x", True, "")])
    assert MultiplicityVector(1, {}) != MultiplicityVector(2, {})
    # a slotted record equals only a record of its own class
    assert MomentVector(2, (1, 3)) != (2, (1, 3))


def test_defaults():
    assert GeneratorLetter(0).inverted is False
    assert Word().letters == () and Word() == Word.parse("")
    assert HankelLadder((1, 3)).degenerate_at is None
    assert GeneratorSet(F, CASE1_KEYS).label == "custom"
    assert DensityCurve((0.0,), (1.0,)).label == ""
    assert LadderRun().summaries == []
    assert VerifyReport().checks == [] and VerifyReport().moebius_rows == []


@pytest.mark.parametrize("cls, values, names", FROZEN_RECORDS,
                         ids=[cls.__name__ for cls, _, _ in FROZEN_RECORDS])
def test_frozen_records_refuse_assignment(cls, values, names):
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    assert tuple(getattr(rec, name) for name in names) == values


@pytest.mark.parametrize("cls, values, names", RECORDS, ids=IDS)
def test_repr_names_the_fields(cls, values, names):
    if cls is CanonicalElement:
        assert repr(cls(*values)) == f"<thompson_f element {values[1].hex()}>"
        return
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, values, names", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_fields(cls, values, names):
    rec = cls(*values)
    assert copy.copy(rec) == rec
    if F not in values:  # an unpickled backend is another object
        again = pickle.loads(pickle.dumps(rec))
        assert type(again) is cls and again == rec


def test_generator_set_messages():
    e = F.identity_key()
    with pytest.raises(UsageError, match="^generator set contains repeated elements$"):
        GeneratorSet(F, (e, e))
    with pytest.raises(UsageError, match="^generator set needs at least two elements$"):
        GeneratorSet(F, (e,))
    with pytest.raises(UsageError, match="^generator set element 1 .*: not a tree-pair key$"):
        GeneratorSet(F, (e, b"junk"))
    with pytest.raises(UsageError, match=r"^generator set element 2 \(570001\): "
                                         "free_2 key is not freely reduced$"):
        GeneratorSet(FREE2, (FREE2.identity_key(), b"W\x00", b"W\x00\x01"), label="free2")


@pytest.mark.parametrize("q, m, message", [
    (2, (), "moment vector must start with m_0 = 1"),
    (2, (2, 3), "moment vector must start with m_0 = 1"),
    (2, (1, 4), "m_1 = 4 but q+1 = 3"),
    (2, (1, 3, -1), "moment m_2 = -1 is not positive"),
    (2, (1, 3, 0), "moment m_2 = 0 is not positive"),
    (2, (1, 3, 15, 20), "moment ratios decrease at n = 3"),
])
def test_moment_vector_messages(q, m, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        MomentVector(q, m)


@pytest.mark.parametrize("grid", [(0.0, 0.0), (0.0, 1.0, 0.5)])
def test_density_curve_message(grid):
    with pytest.raises(UsageError, match="^curve grid must be strictly increasing$"):
        DensityCurve(grid, (0.0,) * len(grid), label="x")


def test_list_defaults_are_fresh_for_each_record():
    runs = LadderRun(), LadderRun()
    assert runs[0].summaries is not runs[1].summaries
    runs[0].summaries.append(LadderSummary(1, 3, 0))
    assert runs[1].summaries == [] and LadderRun().summaries == []
    reports = VerifyReport(), VerifyReport()
    assert reports[0].checks is not reports[1].checks
    assert reports[0].moebius_rows is not reports[1].moebius_rows
    reports[0].add("x", False, "detail")
    reports[0].moebius_rows.append(MoebiusRow(1, 0, True, True))
    assert reports[1] == VerifyReport() and reports[1].ok
    assert reports[0].failures() == ["x: detail"]


@pytest.mark.parametrize("cls, values, names", MUTABLE_RECORDS,
                         ids=[cls.__name__ for cls, _, _ in MUTABLE_RECORDS])
def test_mutable_records_take_new_values(cls, values, names):
    rec = cls(*values)
    with pytest.raises(TypeError, match="unhashable"):
        hash(rec)
    # verify.run_suite reassigns a report's moebius_rows
    for name, value in zip(names, values):
        new = copy.deepcopy(value)
        setattr(rec, name, new)
        assert getattr(rec, name) is new
    assert rec == cls(*values)


def test_jacobi_cached_properties_compute_once(monkeypatch):
    calls = []
    roots = spectral._fixed_roots

    def counting(alpha_sq, bits):
        calls.append(bits)
        return roots(alpha_sq, bits)

    monkeypatch.setattr(spectral, "_fixed_roots", counting)
    jc = JacobiCoefficients((None, Fraction(3), Fraction(2)), 64)
    fresh = JacobiCoefficients((None, Fraction(3), Fraction(2)), 64)
    assert jc.fixed_alpha is jc.fixed_alpha
    assert jc.alpha is jc.alpha and jc.fixed_schur is jc.fixed_schur
    assert jc._floor_schur is jc._floor_schur
    assert jc.scaled_alpha_sq is jc.scaled_alpha_sq
    assert jc.float_alpha_sq is jc.float_alpha_sq
    # one pass at P bits (fixed_alpha, which alpha and fixed_schur read) and
    # one at the precision floor's bits
    assert calls == [64, spectral._FLOOR_BITS]
    # the cached values take no part in ==, hash or repr
    assert jc == fresh and hash(jc) == hash(fresh) and repr(jc) == repr(fresh)
