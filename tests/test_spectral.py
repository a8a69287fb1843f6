"""Hankel ladder, Jacobi coefficients, eigenvalue bounds, cogrowth rate."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bareiss_hankel_ladder,
    bisect_lambda_max,
    fraction_of,
    integer_root,
    mpf_of,
    plain_lambda_max,
    sturm_count,
    symmetric_moment,
)
from tgf import spectral
from tgf.errors import NumericError, UsageError, VerificationError
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


def free_mv(q, order):
    return MomentVector(q, tuple([1] + [m_free(q, n) for n in range(1, order + 1)]))


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
                [symmetric_moment(mv, i + j) for j in range(n + 1)]
                for i in range(n + 1)
            ]
            assert hl.det(n) == naive_determinant(mat)


def test_hankel_parity_split_matches_the_whole_matrix(table1, table2):
    for mv, order in ((fixture_mv(table1), 37), (fixture_mv(table2), 24),
                      (free_mv(3, 60), 60)):
        hl = hankel_ladder(mv, order)
        assert (hl.determinants, hl.degenerate_at) == bareiss_hankel_ladder(mv, order)


@st.composite
def moment_sequences(draw):
    """(MomentVector, order): either the moments of a symmetric measure on
    finitely many points +-sqrt(s_i), s_i = W u_i with weights w_i / W
    (integer moments, Hankel degenerate past twice the support size), or a
    log-convex sequence with drawn excesses (whose Hankel minors may turn
    negative or zero anywhere)."""
    order = draw(st.integers(1, 14))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        total = sum(weights)
        points = draw(st.lists(st.integers(0, 4), min_size=len(weights),
                               max_size=len(weights)))
        m = [sum(w * (total * u) ** k for w, u in zip(weights, points)) // total
             for k in range(order + 1)]
        assume(m[1] > 0)
    else:
        m = [1, draw(st.integers(1, 6))]
        for _ in range(2, order + 1):
            floor = -(-m[-1] ** 2 // m[-2])
            m.append(floor + draw(st.integers(0, 3) | st.integers(0, 10**6)))
    return MomentVector(m[1] - 1, tuple(m)), order


@settings(max_examples=300, deadline=None)
@given(moment_sequences())
def test_hankel_parity_split_on_drawn_moments(drawn):
    mv, order = drawn
    hl = hankel_ladder(mv, order)
    assert (hl.determinants, hl.degenerate_at) == bareiss_hankel_ladder(mv, order)


def test_hankel_degenerate_at_twice_the_support():
    # (delta_-1 + delta_1 + delta_-3 + delta_3) / 4: four points, so
    # D_0..D_3 are positive and D_4 = 0
    mv = MomentVector(4, tuple((1 + 9**k) // 2 for k in range(9)))
    hl = hankel_ladder(mv, 8)
    assert hl.degenerate_at == 4
    assert (hl.determinants, hl.degenerate_at) == bareiss_hankel_ladder(mv, 8)


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
        assert lam**2 < 4 * q  # below 2 sqrt q, exactly
        assert 2 * math.sqrt(q) - 0.02 < lam


def test_free_lambda_within_1e3_by_n200():
    # closed-form coefficients (their exactness is proven above via the
    # Hankel route at n <= 30) pushed to n = 200
    for q in (2, 3):
        alpha_sq = (None, Fraction(q + 1)) + tuple(Fraction(q) for _ in range(2, 201))
        lam = lambda_max(JacobiCoefficients(alpha_sq, 256), 200)
        assert lam**2 < 4 * q
        assert 2 * math.sqrt(q) - 1e-3 < lam


def test_alpha_values_case1(table1):
    jc = jacobi_coefficients(hankel_ladder(fixture_mv(table1), 8))
    assert jc.alpha_sq[1] == 3 and jc.alpha_sq[2] == 2  # alpha_1 = sqrt 3, alpha_2 = sqrt 2
    assert abs(float(jc.alpha[1]) - 3**0.5) < 1e-14
    assert abs(float(jc.alpha[2]) - 2**0.5) < 1e-14


def test_alpha_value_case2(table2):
    jc = jacobi_coefficients(hankel_ladder(fixture_mv(table2), 4))
    assert jc.alpha[1] == 2


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
    # M_1 has eigenvalues +-alpha_1, M_2 has 0 and +-sqrt(alpha_1^2 + alpha_2^2);
    # both are floor(sqrt(r) * 2^P) / 2^P
    unit = Fraction(1, 2**spectral.DEFAULT_PRECISION_BITS)
    for n, r in ((1, 3), (2, 5)):
        lam = lambda_max(jc, n)
        assert lam**2 <= r < (lam + unit) ** 2


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


def _ratio_root(mv, n, bits):
    return Fraction(isqrt((mv.m[n] << 2 * bits) // mv.m[n - 1]), 2**bits)


@pytest.mark.parametrize("bits", [64, 512, 1024])
def test_lambda_max_is_near_the_mpmath_bisection(bits, table1, table2):
    # a bisection in P-bit mpmath floats from the exact alpha_k^2 alone
    # takes the same branches, so the two results differ only by the
    # rounding of its midpoints (at most a few units of 2^-P)
    gap = Fraction(1, 2 ** (bits - 8))
    mvs = [fixture_mv(table1), fixture_mv(table2)] + [free_mv(q, 30) for q in (1, 2, 3, 4)]
    for mv in mvs:
        jc = jacobi_coefficients(hankel_ladder(mv, mv.top), bits)
        for n in range(3, jc.top + 1):
            lower = _ratio_root(mv, n, bits)
            for low in (None, lower):
                want = bisect_lambda_max(jc, n, lower=low)
                got = lambda_max(jc, n, lower=low)
                assert abs(got - fraction_of(want)) <= gap, (mv.q, n, low)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**60), st.integers(2, 80), st.integers(0, 300))
def test_fixed_point_root_is_the_floor_within_a_unit(m, k, bits):
    want = integer_root(m << k * bits, k)  # floor(m^(1/k) * 2^bits), exactly
    assert abs(spectral._root(m, k, bits) - want) <= 1


def test_skipped_sturm_tests_change_nothing(table1, table2):
    # a midpoint outside the certified enclosure takes the branch the exact
    # test would give, so every result is the plain loop's, to the last bit
    for table in (table1, table2):
        mv = fixture_mv(table)
        jc = jacobi_coefficients(hankel_ladder(mv, mv.top))
        for n in range(3, jc.top + 1):
            lower = _ratio_root(mv, n, jc.precision_bits)
            assert lambda_max(jc, n, lower=lower) == plain_lambda_max(jc, n, lower=lower)
            assert lambda_max(jc, n) == plain_lambda_max(jc, n)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_skipped_sturm_tests_change_nothing_free(q):
    jc = jacobi_coefficients(hankel_ladder(free_mv(q, 30), 30))
    for n in range(3, 31):
        assert lambda_max(jc, n) == plain_lambda_max(jc, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                             max_denominator=10**6), min_size=3, max_size=12),
       st.sampled_from([64, 256]))
def test_skipped_sturm_tests_change_nothing_on_drawn_jacobi_data(alpha_sq, bits):
    jc = JacobiCoefficients((None,) + tuple(alpha_sq), bits)
    n = len(alpha_sq)
    want = plain_lambda_max(jc, n)
    if want is None:
        with pytest.raises(NumericError):
            lambda_max(jc, n)
    else:
        assert lambda_max(jc, n) == want


def test_a_wrong_float_estimate_only_costs_tests(table1, monkeypatch):
    # an estimate that the exact test does not confirm leaves every
    # midpoint to the exact test: the result is still the plain loop's
    mv = fixture_mv(table1)
    jc = jacobi_coefficients(hankel_ladder(mv, 20))
    for wrong in (True, False):
        monkeypatch.setattr(spectral, "_float_above", lambda *args: wrong)
        assert spectral._enclosure(jc, 20, 2.0, 3.0) is None
        assert lambda_max(jc, 20) == plain_lambda_max(jc, 20)


def test_case1_table_runs_few_sturm_tests(table1, monkeypatch):
    # the plain loop runs about 1,440 exact tests on this table: about 40
    # halvings per row plus both bracket ends
    calls = []
    exact = spectral._above_spectrum

    def counted(*args):
        calls.append(args[1])
        return exact(*args)

    monkeypatch.setattr(spectral, "_above_spectrum", counted)
    mv = fixture_mv(table1)
    bounds_table(mv, jacobi_coefficients(hankel_ladder(mv, mv.top)))
    assert len(calls) <= 300


def test_zero_pivot_is_not_above_spectrum():
    # every alpha_k = 1: M_n is a path graph, eigenvalues 2 cos(k pi/(n+2))
    bits = spectral.DEFAULT_PRECISION_BITS
    jc = JacobiCoefficients((None, Fraction(1), Fraction(1)), bits)
    with mpmath.workprec(bits):
        alpha_sq_mpf = [None, mpmath.mpf(1), mpmath.mpf(1)]
        tiny = mpmath.mpf(2) ** (-4 * bits)
        # x = 0 makes d_0 = 0; x = 1 on M_1 (eigenvalues +-1) makes d_1 = 0;
        # x = 1 on M_2 (eigenvalues 0, +-sqrt 2) makes d_1 = 0 with d_2 left
        for n, x in ((1, 0), (2, 0), (1, 1), (2, 1)):
            assert not spectral._above_spectrum(jc.scaled_alpha_sq, n, x << bits)
            assert sturm_count(alpha_sq_mpf, n, mpmath.mpf(x), tiny) < n + 1
        # just above the top eigenvalue both tests say "above"
        for n, top in ((1, 1 << bits), (2, isqrt(2 << 2 * bits) + 1)):
            x = top + (1 << (bits - 100))
            assert spectral._above_spectrum(jc.scaled_alpha_sq, n, x)
            assert sturm_count(alpha_sq_mpf, n, mpf_of(Fraction(x, 2**bits)), tiny) == n + 1


def test_bracket_failure_raises(monkeypatch):
    # an exact test that never says "above" fails the top of the bracket
    monkeypatch.setattr(spectral, "_above_spectrum", lambda *args: False)
    jc = JacobiCoefficients((None,) + (Fraction(4),) * 3, 128)
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
    # the floor is read from the Schur bound (alpha_1 + alpha_2 = sqrt 3 +
    # sqrt 2 = 3.146) whatever P is, and checked before any P-bit shift
    for bits in (41, 0, -5):
        with pytest.raises(UsageError, match="near 3.14626; need at least 42 bits"):
            lambda_max(jacobi_coefficients(hl, bits), 12)
        with pytest.raises(UsageError, match="need at least 42 bits"):
            bounds_table(MomentVector(2, tuple(moments)), jacobi_coefficients(hl, bits))
    lam = lambda_max(jacobi_coefficients(hl, 42), 12)
    assert abs(lam - lambda_max(jacobi_coefficients(hl), 12)) < 1e-11


def test_bounds_rows_and_invariants(table1):
    mv = fixture_mv(table1)
    jc = jacobi_coefficients(hankel_ladder(mv, 12))
    rows = bounds_table(mv, jc)
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
    prefix = accumulate((row.alpha_sum for row in rows[1:]), max)
    assert all(
        float(bound - row.lambda_max) >= -1e-11 for row, bound in zip(rows[1:], prefix)
    )


def test_moment_reconstruction(table1):
    mv = fixture_mv(table1)
    jc = jacobi_coefficients(hankel_ladder(mv, 14))
    err = moment_reconstruction_error(mv, jc, 14, 12)
    assert err < Fraction(1, 2**400)


def test_bound_ordering_message_has_12_digits(table1):
    # the Jacobi data of the free group on 1 generator (alpha_1 = sqrt 2)
    # against case 1's moments (ratio root sqrt 3) breaks the chain at n = 1
    mv = fixture_mv(table1)
    jc = jacobi_coefficients(hankel_ladder(free_mv(1, 4), 4))
    with pytest.raises(VerificationError) as info:
        bounds_table(mv, jc, 4)
    assert str(info.value) == ("bound ordering violated at n=1: "
                               "1.73205080757 / 1.73205080757 / 1.41421356237")


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
    edge = Fraction(isqrt(8 << 256), 2**128)  # floor(2 sqrt 2 * 2^128) / 2^128
    assert abs(gamma_cogrowth(edge, q) - Fraction(isqrt(2 << 256), 2**128)) < 1e-18
    assert gamma_cogrowth(q + 1, q) == q
    norm = 2.86759
    expect = (norm + (norm**2 - 8) ** 0.5) / 2
    assert abs(float(gamma_cogrowth(norm, q)) - expect) < 1e-12
    # identity gamma + q/gamma = norm
    g = gamma_cogrowth(norm, q)
    assert abs(g + q / g - Fraction(norm)) < Fraction(1, 2**120)
    with pytest.raises(UsageError, match="norm estimate 1 outside"):
        gamma_cogrowth(1.0, q)
    with pytest.raises(UsageError):
        gamma_cogrowth(4.0, q)
