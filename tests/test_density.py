"""Legendre projection: exact moment matching, evaluation, free densities."""
import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from tgf.density import (
    DensityCurve,
    evaluate,
    evaluate_curve,
    free_density,
    free_moment_vector,
    project_density,
    tail_average,
)
from tgf.errors import UsageError
from oracles import expansion_moment, legendre_p, poly_eval
from tgf.sequences import m_free
from tgf.spectral import MomentVector


def case1_mv(table1, order):
    return MomentVector(table1.q, tuple(table1.moments()[: order + 1]))


def test_moment_roundtrip_exact(table1):
    mv = case1_mv(table1, 8)
    exp = project_density(mv, 8)
    for k in range(9):
        assert expansion_moment(exp, k) == mv.m[k]  # exact rational identity


def _oracle_core(mv, n):
    """The n-th core summed over the coefficients of P_n (Bonnet's
    recursion), one Fraction term at a time."""
    scale = Fraction(1, mv.q + 1)
    return sum((coeff * scale**j * mv.m[j // 2]
                for j, coeff in enumerate(legendre_p(n)) if j % 2 == 0),
               Fraction(0))


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_closed_form_cores_equal_the_legendre_oracle(q):
    mv = free_moment_vector(q, 37)
    exp = project_density(mv, 37)
    assert len(exp.cores) == 75
    for n in range(0, 75, 2):
        assert exp.cores[n] == _oracle_core(mv, n), n


def test_closed_form_cores_equal_the_legendre_oracle_on_the_tables(table1, table2):
    for table in (table1, table2):
        mv = MomentVector(table.q, tuple(table.moments()))
        exp = project_density(mv, mv.top)
        assert exp.cores == tuple(
            _oracle_core(mv, n) if n % 2 == 0 else 0 for n in range(2 * mv.top + 1))


def test_normalization(table1):
    exp = project_density(case1_mv(table1, 6), 6)
    assert expansion_moment(exp, 0) == 1


def test_odd_cores_vanish(table1):
    exp = project_density(case1_mv(table1, 7), 7)
    assert all(exp.cores[n] == 0 for n in range(1, 15, 2))


def test_even_symmetry(table1):
    exp = project_density(case1_mv(table1, 9), 9)
    ts = [0.13 * i for i in range(20)]
    left = evaluate(exp, [-t for t in ts])
    right = evaluate(exp, ts)
    assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(left, right))


def test_recurrence_matches_monomial_expansion(table1):
    mv = case1_mv(table1, 10)
    exp = project_density(mv, 10)
    # expand to monomials exactly, then Horner-evaluate
    coeffs = [Fraction(0)] * (2 * exp.order + 1)
    for n in range(0, 2 * exp.order + 1, 2):
        w = exp.cores[n] * Fraction(2 * n + 1, 2 * (exp.q + 1))
        for j, c in enumerate(legendre_p(n)):
            if c:
                coeffs[j] += w * c * Fraction(1, (exp.q + 1)) ** j
    floats = [float(c) for c in coeffs]
    for t in [-2.9, -1.3, 0.0, 0.47, 1.9, 2.99]:
        direct = poly_eval(floats, t)
        assert math.isclose(evaluate(exp, [t])[0], direct, rel_tol=1e-9, abs_tol=1e-9)


def test_curve_properties(table1):
    exp = project_density(case1_mv(table1, 8), 8)
    curve = evaluate_curve(exp, 0.0, 3.0, 0.01, label="test")
    assert len(curve.grid) == 301
    assert curve.grid[0] == 0.0 and curve.grid[-1] == 3.0
    assert all(math.isfinite(v) for v in curve.values)
    with pytest.raises(UsageError):
        evaluate_curve(exp, 0.0, 3.5, 0.01)  # outside J = [-3, 3]
    with pytest.raises(UsageError):
        DensityCurve((1.0, 1.0), (0.0, 0.0))


def test_tail_average_self_is_identity(table1):
    exp = project_density(case1_mv(table1, 8), 8)
    avg = tail_average(exp, exp, 2.0, 3.0, 0.05)
    plain = evaluate_curve(exp, 2.0, 3.0, 0.05)
    assert avg.values == plain.values


def test_tail_average_validates_q(table1):
    e1 = project_density(case1_mv(table1, 8), 8)
    e2 = project_density(free_moment_vector(3, 8), 8)
    with pytest.raises(UsageError):
        tail_average(e1, e2, 2.0, 3.0)


def test_free_density_values():
    # at t=0, q=2: 3/(2 pi) * sqrt(8)/9 = sqrt(2)/(3 pi)
    assert math.isclose(free_density(2, 0.0), math.sqrt(2) / (3 * math.pi), rel_tol=1e-12)
    assert free_density(3, 2 * math.sqrt(3) + 1e-9) == 0.0
    assert free_density(3, -4.0) == 0.0


@pytest.mark.parametrize("q", [2, 3])
def test_free_density_quadrature(q):
    edge = 2 * math.sqrt(q)
    total, _ = quad(lambda t: free_density(q, t), -edge, edge, limit=200)
    assert abs(total - 1) < 1e-8
    for n in range(1, 7):
        value, _ = quad(lambda t: t ** (2 * n) * free_density(q, t), -edge, edge,
                        limit=200)
        assert abs(value - m_free(q, n)) < max(1e-6, 1e-9 * m_free(q, n))


def test_free_projection_converges_to_closed_form():
    q = 2
    edge = 2 * math.sqrt(q)
    grid = [(-edge + 0.2) + i * 0.02 for i in range(int((2 * edge - 0.4) / 0.02) + 1)]
    sups = []
    for order in (6, 12):
        exp = project_density(free_moment_vector(q, order), order)
        values = evaluate(exp, grid)
        sups.append(max(abs(v - free_density(q, t)) for t, v in zip(grid, values)))
    assert sups[1] < sups[0]


def test_projection_needs_enough_moments(table1):
    with pytest.raises(UsageError):
        project_density(case1_mv(table1, 4), 9)


def test_case1_full_order_tail_is_small(table1):
    # the published density plots show a near-zero tail just below the
    # amenability edge: |rho_37| stays under 0.02 on [2.95, 3.0]
    exp = project_density(case1_mv(table1, 37), 37)
    grid = [2.95 + 0.005 * i for i in range(11)]
    assert max(abs(v) for v in evaluate(exp, grid)) < 0.02


def test_case2_full_order_tail_curve(table2):
    mv = MomentVector(table2.q, tuple(table2.moments()))
    prev = project_density(MomentVector(table2.q, tuple(table2.moments()[:24])), 23)
    last = project_density(mv, 24)
    lo = 2 * math.sqrt(3)
    avg = tail_average(prev, last, lo, 4.0, 0.01, label="tail")
    assert len(avg.grid) == int(round((4.0 - lo) / 0.01)) + 1
    # consecutive orders oscillate with opposite signs near the edge, so the
    # average is closer to zero than either order on most of the far tail
    far = [i for i, t in enumerate(avg.grid) if t > 3.8]
    a = sum(abs(avg.values[i]) for i in far)
    b = sum(abs(evaluate(last, [avg.grid[i]])[0]) for i in far)
    assert a < b
