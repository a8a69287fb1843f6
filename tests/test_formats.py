"""On-disk formats: table CSV, moments files, bounds CSV, curves, fixtures."""
import pytest

from tgf import formats
from tgf.density import free_density_curve
from tgf.errors import UsageError
from tgf.sequences import SequenceTable


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
    formats.write_table_csv(path, table1)
    q, moments = formats.read_moments(path)
    assert q == 2
    assert moments[:4] == [1, 3, 15, 87]


def test_bounds_csv_roundtrip(tmp_path, table1):
    from tgf.spectral import MomentVector, bounds_table, hankel_ladder, jacobi_coefficients

    mv = MomentVector(table1.q, tuple(table1.moments()[:9]))
    rows, _ = bounds_table(mv, jacobi_coefficients(hankel_ladder(mv, 8)))
    out = tmp_path / "bounds.csv"
    companion = formats.write_bounds_csv(out, rows)
    assert companion.name == "bounds-full.csv"
    text = out.read_text()
    assert text.splitlines()[0] == "n,root_moment,ratio_root,lambda_max,alpha,alpha_sum"
    assert text.splitlines()[1].endswith(",")  # no alpha_sum at n=1
    parsed = formats.parse_bounds_csv(text)
    assert parsed[7]["lambda_max"] == round(float(rows[7].lambda_max), 5)
    # full-precision companion begins with the same values
    full = formats.parse_bounds_csv(companion.read_text())
    assert abs(full[7]["lambda_max"] - float(rows[7].lambda_max)) < 1e-15


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
