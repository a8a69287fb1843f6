"""On-disk formats: table CSV, moments files, bounds CSV, curves, fixtures,
and fuzzing of the parsers of user-supplied files."""
import struct
import zlib
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mpf_of, parse_bounds_csv, write_table_csv
from tgf import errors, formats, treepair
from tgf.density import free_density_curve
from tgf.errors import UsageError
from tgf.groups import ThompsonF
from tgf.ladder import GeneratorSet, MultiplicityVector, case1
from tgf.sequences import SequenceTable
from test_ladder import CompiledF
from test_treepair import word_key


def test_table_csv_roundtrip(table2):
    text = formats.table_csv_text(table2)
    assert text.splitlines()[0] == "n,h2norm,xi,eta,zeta,m"
    back = formats.parse_table_csv(text)
    assert back == table2


def test_table_csv_rejects_gaps():
    text = "n,h2norm,xi,eta,zeta,m\n1,3,0,0,0,3\n3,12,0,0,0,87\n"
    with pytest.raises(UsageError):
        formats.parse_table_csv(text)


def test_moments_file_parsing(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# comment\n1 3\n0 1\n2 15\n\n3 87 # inline\n")
    q, moments = formats.read_moments(path)
    assert q == 2
    assert moments == [1, 3, 15, 87]


def test_moments_file_starting_at_one(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 4\n2 28\n")
    q, moments = formats.read_moments(path)
    assert (q, moments) == (3, [1, 4, 28])


def test_moments_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 15\n3 87\n")
    with pytest.raises(UsageError):
        formats.read_moments(bad)
    bad.write_text("0 2\n1 3\n")
    with pytest.raises(UsageError):
        formats.read_moments(bad)
    bad.write_text("1 3 9\n")
    with pytest.raises(UsageError):
        formats.read_moments(bad)


def test_read_moments_accepts_table_csv(tmp_path, table1):
    path = tmp_path / "t.csv"
    write_table_csv(path, table1)
    q, moments = formats.read_moments(path)
    assert q == 2
    assert moments[:4] == [1, 3, 15, 87]


def test_bounds_csv_roundtrip(tmp_path, table1):
    from tgf.spectral import MomentVector, bounds_table, hankel_ladder, jacobi_coefficients

    mv = MomentVector(table1.q, tuple(table1.moments()[:9]))
    rows = bounds_table(mv, jacobi_coefficients(hankel_ladder(mv, 8)))
    out = tmp_path / "bounds.csv"
    companion = formats.write_bounds_csv(out, rows)
    assert companion.name == "bounds-full.csv"
    text = out.read_text()
    assert text.splitlines()[0] == "n,root_moment,ratio_root,lambda_max,alpha,alpha_sum"
    assert text.splitlines()[1].endswith(",")  # no alpha_sum at n=1
    parsed = parse_bounds_csv(text)
    assert parsed[7]["lambda_max"] == round(float(rows[7].lambda_max), 5)
    # full-precision companion begins with the same values
    full = parse_bounds_csv(companion.read_text())
    assert abs(full[7]["lambda_max"] - float(rows[7].lambda_max)) < 1e-15


def dyadics_in_half_to_8():
    """(bits, x) with x / 2^bits strictly inside (0.5, 8)."""
    return st.integers(1, 1100).flatmap(lambda bits: st.tuples(
        st.just(bits), st.integers(2 ** (bits - 1) + 1, 2 ** (bits + 3) - 1)))


@settings(max_examples=200, deadline=None)
@given(dyadics_in_half_to_8())
@example((512, 2**512 - 1))  # 0.99...9 rounds up to 1.000...
@example((2, 3))  # 0.75, fewer bits than digits
def test_significant_digits_is_mpmath_nstr(drawn):
    bits, x = drawn
    value = Fraction(x, 2**bits)
    assert formats.significant_digits(value, 30) == mpmath.nstr(
        mpf_of(value), 30, strip_zeros=False)


@pytest.mark.parametrize("value", [
    Fraction(0), Fraction(-7, 2), Fraction(1, 2**100), Fraction(3, 2**40),
    Fraction(2**200 + 1), 10**40, 123456.789, 1e-5, 0.1, Fraction(2**600 - 1, 2**600),
], ids=repr)
@pytest.mark.parametrize("dps", [12, 30])
def test_significant_digits_outside_the_unit_range(value, dps):
    assert formats.significant_digits(value, dps) == mpmath.nstr(
        mpf_of(value), dps, strip_zeros=False)


def test_significant_digits_refuses_a_value_that_is_not_dyadic():
    with pytest.raises(ValueError, match="not a dyadic"):
        formats.significant_digits(Fraction(1, 3), 30)


@pytest.mark.parametrize("case", [1, 2])
def test_full_companion_is_mpmath_nstr(case, table1, table2):
    from tgf.spectral import MomentVector, bounds_table, hankel_ladder, jacobi_coefficients

    table = (table1, table2)[case - 1]
    mv = MomentVector(table.q, tuple(table.moments()))
    rows = bounds_table(mv, jacobi_coefficients(hankel_ladder(mv, mv.top)))
    fields = ("root_moment", "ratio_root", "lambda_max", "alpha", "alpha_sum")
    want = [",".join(formats.BOUNDS_HEADER)] + [
        ",".join([str(row.n)] + [
            "" if getattr(row, f) is None
            else mpmath.nstr(mpf_of(getattr(row, f)), 30, strip_zeros=False)
            for f in fields])
        for row in rows]
    assert formats.bounds_csv_text(rows, full_precision=True) == "\n".join(want) + "\n"


def test_curve_csv(tmp_path):
    curve = free_density_curve(2, -1.0, 1.0, 0.5, label="free")
    path = tmp_path / "c.csv"
    formats.write_curve_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "# free"
    assert lines[1] == "t,rho"
    assert lines[2] == "-1.000000,%.6f" % curve.values[0]
    assert len(lines) == 2 + len(curve.grid)


def test_fixture_tables_shape(table1, table2):
    assert (table1.q, table1.max_n) == (2, 37)
    assert (table2.q, table2.max_n) == (3, 24)
    assert table1.m[36] == 33572939291063083015187615095255
    assert table2.m[23] == 1500753741925909645997904


def test_fixture_bounds_shape(bounds1, bounds2):
    assert len(bounds1) == 37 and len(bounds2) == 24
    assert bounds1[0]["alpha_sum"] is None
    assert bounds1[36]["lambda_max"] == 2.86759
    assert bounds2[23]["alpha_sum"] == 3.68189


def test_fixture_table_consistency(table1):
    # the shipped table re-derives from its own h2norm column
    rebuilt = SequenceTable.from_h2norms(table1.q, table1.h2norm)
    assert rebuilt == table1


def test_table_csv_oversized_field_is_a_usage_error():
    with pytest.raises(UsageError):
        formats.parse_table_csv("n,h2norm,xi,eta,zeta,m\n1," + "9" * 200_000 + "\n")


# -- fuzzing: malformed input may raise only the package's own errors ---------

TGF_ERRORS = tuple(
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception)
    and obj.__module__ == errors.__name__
)


def _parses_or_tgf_error(parse, *args):
    # any exception outside tgf.errors propagates and fails the test
    try:
        parse(*args)
    except TGF_ERRORS:
        pass


NUMBER = st.one_of(st.integers(-3, 40).map(str), st.integers().map(str),
                   st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--1", " 7 "]))
MOMENT_LINE = st.one_of(
    st.lists(NUMBER, max_size=4).map(" ".join),
    st.tuples(NUMBER, NUMBER, st.sampled_from(["", " # c", "#", "\t"])).map("".join),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(MOMENT_LINE, max_size=8).map("\n".join)))
def test_fuzz_parse_moments_text(text):
    _parses_or_tgf_error(formats.parse_moments_text, text)


TABLE_ROW = st.lists(NUMBER, max_size=8).map(",".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(TABLE_ROW, max_size=6).map(
        lambda rows: "\n".join(["n,h2norm,xi,eta,zeta,m", *rows])),
    st.lists(st.text(alphabet=',"\n\r\x00 n1', max_size=12), max_size=4).map("\n".join),
))
@example("n,h2norm,xi,eta,zeta,m\n26018516958,0,0,0,0,0")
def test_fuzz_parse_table_csv(text):
    _parses_or_tgf_error(formats.parse_table_csv, text)


class PureLoadF(ThompsonF):
    """F that loads checkpoint bodies with the pure loader, into a
    tgf.treepair.Level."""

    def load_entries(self, body, count):
        return treepair.load_entries(body, count)


FINGERPRINT = formats.generator_fingerprint(case1())
# a body that only the pure Level holds (a negative and a wide count), and
# one that the compiled Level holds too
GENUINE = [
    treepair.Level({treepair.IDENTITY_KEY: 3, word_key("A"): -(2**70)}),
    treepair.Level({treepair.IDENTITY_KEY: 1, word_key("A"): 2**32 - 1, word_key("aB"): 300}),
]
# v2 headers whose version, q and fingerprint are often those of case 1
HEADER = st.tuples(
    st.sampled_from([2, 2, 1, 0]), st.integers(0, 2**32 - 1),
    st.one_of(st.just(2), st.integers(0, 2**32 - 1)), st.integers(0, 2**64 - 1),
    st.one_of(st.just(FINGERPRINT), st.integers(0, 2**32 - 1)), st.integers(0, 2**32 - 1),
).map(lambda f: formats.CHECKPOINT_HEADER.pack(formats.CHECKPOINT_MAGIC, *f))
# each with a flag, mostly set, to re-stamp the body CRC after the edit
RESTAMP = st.integers(0, 3).map(bool)
CHECKPOINTS = st.one_of(
    st.tuples(st.binary(max_size=64), RESTAMP),
    st.tuples(st.tuples(HEADER, st.binary(max_size=48)).map(b"".join), RESTAMP),
    st.tuples(st.sampled_from(range(len(GENUINE))), st.integers(0, 200), st.integers(0, 255),
              st.sampled_from(["flip", "cut", "extend", "append", "keep"]), RESTAMP),
)


def _restamp_crc(data):
    """Rewrites the body CRC of checkpoint bytes, so that an edit of the body
    reaches the entry parser."""
    end = formats.CHECKPOINT_HEADER.size
    if len(data) >= end:
        data[end - 4 : end] = struct.pack("<I", zlib.crc32(data[end:]))


def _fuzz_read_checkpoint(tmp_dir, gen, data):
    """Reads a fuzzed checkpoint for case 1 through gen's loader: it loads
    or raises one of the package's errors.  An unchanged genuine file loads
    its entries."""
    *data, restamp = data
    expected = None
    if len(data) == 1:
        raw = bytearray(data[0])
    else:
        # a genuine checkpoint with one byte changed, cut short or put in,
        # `at` bytes before its end so that most edits are in the body, or
        # with a byte appended
        which, at, byte, how = data
        entries = GENUINE[which]
        formats.write_checkpoint(tmp_dir, case1(), MultiplicityVector(3, entries))
        raw = bytearray(formats.checkpoint_path(tmp_dir, 3).read_bytes())
        at = len(raw) - 1 - at % len(raw)
        if how == "flip":
            raw[at] = byte
        elif how == "cut":
            del raw[at:]
        elif how == "extend":
            raw[at:at] = bytes([byte])
        elif how == "append":
            raw.append(byte)
        elif which == 1 or isinstance(gen.backend, PureLoadF):
            # unchanged, and a body that gen's loader holds
            expected = entries
    if restamp:
        _restamp_crc(raw)
    path = tmp_dir / "fuzzed.tgfl"
    path.write_bytes(bytes(raw))
    try:
        vec = formats.read_checkpoint(path, gen)
    except TGF_ERRORS:
        assert expected is None
        return
    if expected is not None:
        assert vec.n == 3 and dict(vec.entries.items()) == expected


@settings(max_examples=300, deadline=None)
@given(data=CHECKPOINTS)
def test_fuzz_read_checkpoint(tmp_path_factory, data):
    gen = GeneratorSet(PureLoadF(), case1().elements, "case1")
    _fuzz_read_checkpoint(tmp_path_factory.mktemp("ckpt"), gen, data)


@settings(max_examples=300, deadline=None)
@given(data=CHECKPOINTS)
def test_fuzz_read_checkpoint_into_a_level(tmp_path_factory, kernel, data):
    # the compiled kernel's load_entries, plain and under UBSan
    gen = GeneratorSet(CompiledF(kernel), case1().elements, "case1")
    _fuzz_read_checkpoint(tmp_path_factory.mktemp("ckpt"), gen, data)
