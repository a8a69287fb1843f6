"""Acceptance suite: one test per criterion, each printing a PASS line on
success (failures print through pytest itself).

Criterion 6's eigenvalue clause is implemented exactly as stated and is
expected to fail: the free-field truncation gap at n = 30 is ~0.0121 for
q = 2 and ~0.0157 for q = 3 (confirmed independently by dense eigensolver
and by Sturm bisection on exact recurrence data), so lambda_max(M_30) cannot
lie within 0.01 of 2 sqrt(q).  The gap decays like pi^2 sqrt(q)/n^2 and the
window first becomes attainable near n = 35 (q = 2) / n = 39 (q = 3); the
convergence claim itself holds and is verified at n = 200 (within 1e-3) in
tests/test_spectral.py.  The remaining clauses of criterion 6 pass.
"""
import math
from fractions import Fraction

import pytest

from oracles import expansion_moment, raise_if_failed
from tgf import formats
from tgf.cli import main
from tgf.density import (
    evaluate,
    free_density,
    free_moment_vector,
    project_density,
)
from tgf.errors import VerificationError
from tgf.ladder import build_ladder, case1, case2, free_set, lattice_set
from tgf.sequences import (
    SequenceTable,
    brute_force_sequences,
    moebius_verify,
    table_from_ladder,
)
from tgf.spectral import (
    MomentVector,
    bounds_table,
    fit_extrapolation,
    hankel_ladder,
    jacobi_coefficients,
    lambda_max,
)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


@pytest.fixture(scope="module")
def computed_case1():
    gen = case1()
    return table_from_ladder(gen, build_ladder(gen, 16))


@pytest.fixture(scope="module")
def computed_case2(tmp_path_factory):
    """tables --case=2 --max-n=12 through the CLI, run once for criteria 2
    and 7; returns the exit code and the written table."""
    out = tmp_path_factory.mktemp("case2") / "t2.csv"
    code = main(["tables", "--case=2", "--max-n=12", f"--out={out}"])
    return code, formats.parse_table_csv(out.read_text()) if code == 0 else None


def test_criterion_1_table1_reproduction(tmp_path, table1, computed_case1):
    out = tmp_path / "t1.csv"
    assert main(["tables", "--case=1", "--max-n=16", f"--out={out}"]) == 0
    written = formats.parse_table_csv(out.read_text())
    for n in range(1, 17):
        assert written.row(n) == table1.row(n), f"row {n}"
    assert written.row(16) == (137264, 137264 - 3 * 2**15, 15712, 7056, 9057960864015)
    assert computed_case1.row(16) == table1.row(16)
    report("1", "tables --case=1 --max-n=16 matches the published integers exactly")


def test_criterion_2_table2_reproduction(table2, computed_case2):
    code, written = computed_case2
    assert code == 0
    for n in range(1, 13):
        assert written.row(n) == table2.row(n), f"row {n}"
    assert written.m[11] == 277937245744
    report("2", "tables --case=2 --max-n=12 matches the published integers exactly")


def test_criterion_3_brute_force_equivalence(table1, table2):
    jobs = [
        (case1(), 5, table1),
        (case2(), 4, table2),
        (free_set(2), 5, None),
        (free_set(3), 4, None),
        (lattice_set(2), 5, None),
    ]
    for gen, depth, reference in jobs:
        brute = brute_force_sequences(gen, depth)
        pipeline = table_from_ladder(gen, build_ladder(gen, depth))
        for n in range(1, depth + 1):
            assert brute.row(n) == pipeline.row(n), (gen.label, n)
            if reference is not None:
                assert brute.row(n) == reference.row(n), (gen.label, n)
    report("3", "definition-level enumeration equals the ladder pipeline "
                "(cases 1, 2, free q=2,3, Z^2)")


def test_criterion_4_spectral_reproduction(table1, table2, bounds1, bounds2):
    for table, published, top in ((table1, bounds1, 37), (table2, bounds2, 24)):
        mv = MomentVector(table.q, tuple(table.moments()))
        jc = jacobi_coefficients(hankel_ladder(mv, top))
        rows = bounds_table(mv, jc)
        assert len(rows) == top
        for row, pub in zip(rows, published):
            for field in ("root_moment", "ratio_root", "lambda_max", "alpha",
                          "alpha_sum"):
                expected = pub[field]
                if expected is None:
                    assert row.alpha_sum is None
                    continue
                assert abs(float(getattr(row, field)) - expected) < 5e-6, (
                    table.q, row.n, field)
    report("4", "all published bound columns match to 5e-6 "
                "(case 1 n<=37 incl. 2.86759/2.89329; case 2 n<=24 incl. "
                "3.60613/3.68189)")


def test_criterion_5_extrapolation(bounds1, bounds2):
    fit1 = fit_extrapolation([(r["n"], r["lambda_max"]) for r in bounds1], 12, 37)
    assert abs(fit1.a - 2.950) < 0.02, fit1
    fit2 = fit_extrapolation([(r["n"], r["lambda_max"]) for r in bounds2], 8, 24)
    assert abs(fit2.a - 3.870) < 0.02, fit2
    report("5", f"fit a = {fit1.a:.3f} (target 2.950, residual {fit1.residual:.2e}); "
                f"a = {fit2.a:.3f} (target 3.870, residual {fit2.residual:.2e})")


def test_criterion_6_free_alpha_identities():
    for q in (2, 3):
        mv = free_moment_vector(q, 30)
        hl = hankel_ladder(mv, 30)
        assert hl.degenerate_at is None
        jc = jacobi_coefficients(hl)
        assert jc.alpha_sq[1] == Fraction(q + 1)
        for n in range(2, 31):
            assert jc.alpha_sq[n] == Fraction(q)
    report("6a", "free moments give alpha_1^2 = q+1 and alpha_n^2 = q as exact "
                 "rational identities through n = 30 (q = 2, 3)")


def test_criterion_6_lambda_window_as_stated():
    # stated window (2 sqrt q - 0.01, 2 sqrt q) at n = 30; see module
    # docstring -- the truncation gap is provably larger at this depth, so
    # this check documents the infeasible target rather than hiding it
    for q in (2, 3):
        mv = free_moment_vector(q, 30)
        jc = jacobi_coefficients(hankel_ladder(mv, 30))
        lam = lambda_max(jc, 30)
        # lam < 2 sqrt q and lam > 2 sqrt q - 0.01, exactly, by squares
        assert lam**2 < 4 * q
        assert (lam + Fraction(1, 100)) ** 2 > 4 * q, (
            f"q={q}: lambda_max(M_30) = {float(lam):.6f} is {2 * math.sqrt(q) - lam:.6f} "
            f"below 2 sqrt(q); the stated 0.01 window is unattainable at n = 30 "
            f"(gap ~ pi^2 sqrt(q)/n^2, entering 0.01 only near n = 35/39)"
        )
    report("6b", "lambda_max(M_30) within 0.01 of 2 sqrt(q)")


def test_criterion_7_moebius_parity_suite(computed_case1, computed_case2):
    code, written_case2 = computed_case2
    assert code == 0
    for table in (computed_case1, written_case2):
        report_obj = moebius_verify(table)
        assert report_obj.ok, report_obj.failures()
    corrupted = SequenceTable(
        q=computed_case1.q,
        h2norm=list(computed_case1.h2norm),
        xi=list(computed_case1.xi),
        eta=list(computed_case1.eta),
        zeta=list(computed_case1.zeta),
        m=list(computed_case1.m),
    )
    corrupted.zeta[7] += 1
    bad = moebius_verify(corrupted)
    assert not bad.ok
    with pytest.raises(VerificationError):
        raise_if_failed(bad)
    report("7", "Moebius/parity suite passes on computed tables (case 1 n<=16, "
                "case 2 n<=12); corrupted zeta_8 caught")


def test_criterion_8_density_properties(table1):
    mv = MomentVector(table1.q, tuple(table1.moments()))
    exp = project_density(mv, 37)
    assert expansion_moment(exp, 0) == 1
    for k in range(38):
        assert expansion_moment(exp, k) == mv.m[k], k  # exact rational identity
    for q in (2, 3):
        edge = 2 * math.sqrt(q)
        grid = [(-edge + 0.2) + i * 0.01
                for i in range(int((2 * edge - 0.4) / 0.01) + 1)]
        sups = []
        for order in (8, 24):
            fexp = project_density(free_moment_vector(q, order), order)
            values = evaluate(fexp, grid)
            sups.append(max(abs(v - free_density(q, t))
                            for t, v in zip(grid, values)))
        assert sups[1] < sups[0], (q, sups)
    report("8", "rho_37 moment roundtrip exact for k <= 37; integral = 1; free "
                "projection sup-error decreases from N=8 to N=24 (q = 2, 3)")
