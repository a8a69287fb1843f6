"""Hankel ladder, Jacobi coefficients, eigenvalue bounds, cogrowth rate."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import bisect_lambda_max, sturm_count
from tgf import spectral
from tgf.errors import NumericError, UsageError
from tgf.sequences import m_free
from tgf.spectral import (
    JacobiCoefficients,
    MomentVector,
    bounds_table,
    gamma_cogrowth,
    hankel_ladder,
    jacobi_coefficients,
    lambda_max,
    moment_reconstruction_error,
)


def naive_determinant(mat):
    """Cofactor expansion over exact integers; the independent oracle."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * naive_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def fixture_mv(table):
    return MomentVector(table.q, tuple(table.moments()))


def test_hankel_base_values(table1):
    mv = fixture_mv(table1)
    hl = hankel_ladder(mv, 4)
    assert hl.det(0) == 1  # D_0 = c_0 = m_0
    assert hl.det(1) == 3
    assert hl.det(2) == 18


def test_hankel_vs_cofactor_oracle(table1, table2):
    for table in (table1, table2):
        mv = fixture_mv(table)
        hl = hankel_ladder(mv, 6)
        for n in range(7):
            mat = [
                [mv.symmetric_moment(i + j) for j in range(n + 1)]
                for i in range(n + 1)
            ]
            assert hl.det(n) == naive_determinant(mat)


def test_free_moments_nondegenerate_and_alpha_exact():
    for q in (2, 3):
        moments = [1] + [m_free(q, n) for n in range(1, 31)]
        mv = MomentVector(q, tuple(moments))
        hl = hankel_ladder(mv, 30)
        assert hl.degenerate_at is None
        jc = jacobi_coefficients(hl)
        assert jc.alpha_sq[1] == Fraction(q + 1)
        for n in range(2, 31):
            assert jc.alpha_sq[n] == Fraction(q)  # exact rational identity


def test_free_lambda_approaches_tree_norm():
    # the truncation gap 2 sqrt(q) - lambda_max(M_n) decays like pi^2 sqrt(q)/n^2;
    # at n = 30 it sits near 0.012 (q=2) / 0.016 (q=3), strictly below the edge
    for q in (2, 3):
        moments = [1] + [m_free(q, n) for n in range(1, 31)]
        mv = MomentVector(q, tuple(moments))
        jc = jacobi_coefficients(hankel_ladder(mv, 30))
        lam = lambda_max(jc, 30)
        assert 2 * mpmath.sqrt(q) - 0.02 < lam < 2 * mpmath.sqrt(q)


def test_free_lambda_within_1e3_by_n200():
    # closed-form coefficients (their exactness is proven above via the
    # Hankel route at n <= 30) pushed to n = 200
    from fractions import Fraction as Fr

    from tgf.spectral import JacobiCoefficients

    for q in (2, 3):
        with mpmath.workprec(256):
            alpha = (None, mpmath.sqrt(q + 1)) + tuple(
                mpmath.sqrt(q) for _ in range(2, 201)
            )
        alpha_sq = (None, Fr(q + 1)) + tuple(Fr(q) for _ in range(2, 201))
        jc = JacobiCoefficients(alpha, alpha_sq, 256)
        lam = lambda_max(jc, 200)
        assert 2 * mpmath.sqrt(q) - 1e-3 < lam < 2 * mpmath.sqrt(q)


def test_alpha_values_case1(table1):
    jc = jacobi_coefficients(hankel_ladder(fixture_mv(table1), 8))
    assert jc.alpha_sq[1] == 3 and jc.alpha_sq[2] == 2  # alpha_1 = sqrt 3, alpha_2 = sqrt 2
    assert abs(float(jc.alpha[1]) - 3**0.5) < 1e-14
    assert abs(float(jc.alpha[2]) - 2**0.5) < 1e-14


def test_alpha_value_case2(table2):
    jc = jacobi_coefficients(hankel_ladder(fixture_mv(table2), 4))
    assert abs(jc.alpha[1] - 2) < 1e-30


def test_alpha_sq_exact_identity(table1):
    hl = hankel_ladder(fixture_mv(table1), 10)
    jc = jacobi_coefficients(hl)
    for n in range(1, 11):
        ratio = jc.alpha_sq[n]
        assert ratio.numerator * hl.det(n - 1) ** 2 == (
            ratio.denominator * hl.det(n - 2) * hl.det(n)
        )


def test_lambda_small_cases(table1):
    jc = jacobi_coefficients(hankel_ladder(fixture_mv(table1), 6))
    assert abs(lambda_max(jc, 1) - mpmath.sqrt(3)) < 1e-12  # M_1 eigenvalues +-alpha_1
    assert abs(lambda_max(jc, 2) - mpmath.sqrt(5)) < 1e-12


def test_lambda_vs_numpy(table2):
    jc = jacobi_coefficients(hankel_ladder(fixture_mv(table2), 12))
    for n in (3, 7, 12):
        alphas = [float(jc.alpha[k]) for k in range(1, n + 1)]
        mat = np.diag(alphas, 1) + np.diag(alphas, -1)
        eigs = np.linalg.eigvalsh(mat)
        assert abs(float(lambda_max(jc, n)) - eigs[-1]) < 1e-9
        # spectrum symmetric around zero
        assert np.allclose(eigs, -eigs[::-1], atol=1e-9)


def test_lambda_fixture_endpoints(table1, table2, bounds1, bounds2):
    jc1 = jacobi_coefficients(hankel_ladder(fixture_mv(table1), 37))
    assert abs(float(lambda_max(jc1, 37)) - 2.86759) < 5e-6
    jc2 = jacobi_coefficients(hankel_ladder(fixture_mv(table2), 24))
    assert abs(float(lambda_max(jc2, 24)) - 3.60613) < 5e-6
    assert abs(float(jc2.alpha[23] + jc2.alpha[24]) - 3.68189) < 5e-6


def test_lambda_max_equals_mpmath_bisection(table1, table2):
    # every bisection decision of the fixed-point Sturm test matches the
    # floating-point Sturm count, so the results are the same mpf
    for table in (table1, table2):
        mv = fixture_mv(table)
        jc = jacobi_coefficients(hankel_ladder(mv, mv.top))
        for n in range(3, jc.top + 1):
            with mpmath.workprec(jc.precision_bits):
                ratio_root = mpmath.sqrt(mpmath.mpf(mv.m[n]) / mpmath.mpf(mv.m[n - 1]))
            assert lambda_max(jc, n) == bisect_lambda_max(jc, n)
            assert lambda_max(jc, n, lower=ratio_root) == bisect_lambda_max(
                jc, n, lower=ratio_root)


@pytest.mark.parametrize("bits", [64, 1024])
def test_lambda_max_equals_mpmath_bisection_free(bits):
    moments = [1] + [m_free(2, n) for n in range(1, 31)]
    jc = jacobi_coefficients(hankel_ladder(MomentVector(2, tuple(moments)), 30), bits)
    assert lambda_max(jc, 30) == bisect_lambda_max(jc, 30)


def test_zero_pivot_is_not_above_spectrum():
    # every alpha_k = 1: M_n is a path graph, eigenvalues 2 cos(k pi/(n+2))
    bits = spectral.DEFAULT_PRECISION_BITS
    jc = JacobiCoefficients((None, mpmath.mpf(1), mpmath.mpf(1)),
                            (None, Fraction(1), Fraction(1)), bits)
    with mpmath.workprec(bits):
        alpha_sq_mpf = [None, mpmath.mpf(1), mpmath.mpf(1)]
        tiny = mpmath.mpf(2) ** (-4 * bits)
        # x = 0 makes d_0 = 0; x = 1 on M_1 (eigenvalues +-1) makes d_1 = 0;
        # x = 1 on M_2 (eigenvalues 0, +-sqrt 2) makes d_1 = 0 with d_2 left
        for n, x in ((1, 0), (2, 0), (1, 1), (2, 1)):
            x = mpmath.mpf(x)
            assert not spectral._above_spectrum(
                jc.scaled_alpha_sq, n, spectral._to_fixed(x, bits))
            assert sturm_count(alpha_sq_mpf, n, x, tiny) < n + 1
        # just above the top eigenvalue both tests say "above"
        for n, top in ((1, mpmath.mpf(1)), (2, mpmath.sqrt(2))):
            x = top + mpmath.mpf(2) ** -100
            assert spectral._above_spectrum(
                jc.scaled_alpha_sq, n, spectral._to_fixed(x, bits))
            assert sturm_count(alpha_sq_mpf, n, x, tiny) == n + 1


def test_bracket_failure_raises():
    # alpha_sq says every alpha_k = 2 (top eigenvalue of M_3 is 1 + sqrt 5),
    # but the stored roots say 1, so the Schur bound 2 + tol is not above it
    jc = JacobiCoefficients((None,) + (mpmath.mpf(1),) * 3,
                            (None,) + (Fraction(4),) * 3, 128)
    with pytest.raises(NumericError, match="bracket failed"):
        lambda_max(jc, 3)


def test_lambda_max_tolerance_beyond_precision_raises():
    # 512-bit floats near the Schur bound ~3.15 lie 2^-510 ~ 3e-154 apart, so
    # a 1e-200 bracket is unreachable; run in a fresh interpreter under a
    # timeout so a bisection that never ends fails instead of hanging
    script = (
        "import sys\n"
        "from tgf import formats, spectral\n"
        "from tgf.errors import UsageError\n"
        "t = formats.load_fixture_table(1)\n"
        "mv = spectral.MomentVector(t.q, tuple(t.moments()))\n"
        "jc = spectral.jacobi_coefficients(spectral.hankel_ladder(mv, 12), 512)\n"
        "try:\n"
        "    spectral.lambda_max(jc, 12, tol=1e-200)\n"
        "except UsageError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(spectral.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "need at least 667 bits" in proc.stdout


def test_lambda_max_precision_floor():
    moments = [1] + [m_free(2, n) for n in range(1, 13)]
    hl = hankel_ladder(MomentVector(2, tuple(moments)), 12)
    with pytest.raises(UsageError, match="need at least 42 bits"):
        lambda_max(jacobi_coefficients(hl, 41), 12)
    lam = lambda_max(jacobi_coefficients(hl, 42), 12)
    assert abs(lam - lambda_max(jacobi_coefficients(hl), 12)) < 1e-11


def test_bounds_rows_and_invariants(table1):
    mv = fixture_mv(table1)
    jc = jacobi_coefficients(hankel_ladder(mv, 12))
    rows, diag = bounds_table(mv, jc)
    assert rows[0].alpha_sum is None
    # at n=1 all three bounds coincide with alpha_1
    assert rows[0].root_moment == rows[0].ratio_root == rows[0].lambda_max == rows[0].alpha
    for row in rows:
        assert row.root_moment <= row.ratio_root
        # ratio_root == lambda_max exactly at n = 1, 2; bisection tolerance applies
        assert float(row.lambda_max - row.ratio_root) >= -1e-11
    lams = [row.lambda_max for row in rows]
    assert all(float(b - a) >= -1e-11 for a, b in zip(lams, lams[1:]))
    # Schur: every lambda below the running max pair sum
    assert all(
        float(prefix - row.lambda_max) >= -1e-11
        for row, prefix in zip(rows[1:], diag.prefix_max_pair)
    )
    assert len(diag.suffix_min_pair) == len(diag.prefix_max_pair)


def test_moment_reconstruction(table1):
    mv = fixture_mv(table1)
    jc = jacobi_coefficients(hankel_ladder(mv, 14))
    err = moment_reconstruction_error(mv, jc, 14, 12)
    assert err < mpmath.mpf(2) ** -400


def test_degenerate_moments_truncate():
    # measure (delta_-1 + delta_1)/2: m_n = 1 for all n, finite support
    mv = MomentVector(0, (1, 1, 1, 1, 1))
    hl = hankel_ladder(mv, 4)
    assert hl.degenerate_at == 2
    assert hl.determinants == (1, 1)
    jc = jacobi_coefficients(hl)
    assert jc.top == 1  # the finite Jacobi matrix has a single coefficient


def test_moment_vector_validation():
    with pytest.raises(UsageError):
        MomentVector(2, (2, 3))  # m_0 != 1
    with pytest.raises(UsageError):
        MomentVector(2, (1, 4))  # m_1 != q+1
    with pytest.raises(UsageError):
        MomentVector(2, (1, 3, -1))
    with pytest.raises(UsageError):
        MomentVector(2, (1, 3, 15, 20))  # ratio decreases


def test_gamma_cogrowth():
    q = 2
    # at the boundary the discriminant square root amplifies input error,
    # so the zero-discriminant identity only holds to ~sqrt(eps)
    assert abs(gamma_cogrowth(2 * mpmath.sqrt(q), q) - mpmath.sqrt(q)) < 1e-7
    assert abs(gamma_cogrowth(q + 1, q) - q) < 1e-12
    norm = 2.86759
    expect = (norm + (norm**2 - 8) ** 0.5) / 2
    assert abs(float(gamma_cogrowth(norm, q)) - expect) < 1e-12
    # identity gamma + q/gamma = norm
    g = gamma_cogrowth(norm, q)
    assert abs(g + q / g - norm) < 1e-20
    with pytest.raises(UsageError):
        gamma_cogrowth(1.0, q)
    with pytest.raises(UsageError):
        gamma_cogrowth(4.0, q)
