"""Exact polynomial kit: recursions, parity splits, Chebyshev identities."""
import math
from fractions import Fraction

from oracles import chebyshev_t, chebyshev_u, legendre_p, poly_eval
from tgf.polynomials import ladder_poly, ladder_poly_even_core


def test_ladder_poly_base_cases():
    assert list(ladder_poly(2, 1)) == [0, 1]
    assert list(ladder_poly(2, 2)) == [-3, 0, 1]  # t^2 - (q+1)
    assert list(ladder_poly(3, 2)) == [-4, 0, 1]
    # recursion: L_3 = t L_2 - q L_1 = t^3 - (q+1)t - qt
    assert list(ladder_poly(2, 3)) == [0, -5, 0, 1]


def test_parity_split_reassembles():
    for q in (2, 3):
        for m in (1, 2, 3, 4):
            even = ladder_poly_even_core(q, m)
            t = 1.7
            assert math.isclose(poly_eval(even, t * t), poly_eval(ladder_poly(q, 2 * m), t))


def test_chebyshev_values():
    # T_n(cos x) = cos nx, U_n(cos x) = sin((n+1)x)/sin(x)
    for n in range(8):
        for x in (0.3, 1.1, 2.0):
            c = math.cos(x)
            assert math.isclose(poly_eval(chebyshev_t(n), c), math.cos(n * x), abs_tol=1e-12)
            assert math.isclose(
                poly_eval(chebyshev_u(n), c), math.sin((n + 1) * x) / math.sin(x),
                abs_tol=1e-11,
            )


def test_ladder_poly_chebyshev_identity():
    # L_n(t) q^(-n/2) = (2/q) T_n(t/(2 sqrt q)) + ((q-1)/q) U_n(t/(2 sqrt q))
    for q in (2, 3):
        rq = math.sqrt(q)
        for n in range(1, 13):
            for i in range(20):
                t = -2.2 + i * 0.23
                lhs = poly_eval(ladder_poly(q, n), t) * q ** (-n / 2)
                u = t / (2 * rq)
                rhs = (2 / q) * poly_eval(chebyshev_t(n), u) + (
                    (q - 1) / q
                ) * poly_eval(chebyshev_u(n), u)
                assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_ladder_poly_telescoped_chebyshev_identity():
    # L_{2n}(t) - (q-1) sum_{k<n} L_{2k}(t) = (q-1) + 2 T_{2n}(t/(2 sqrt q)) q^n
    for q in (2, 3):
        rq = math.sqrt(q)
        for n in range(1, 7):
            for i in range(12):
                t = -2.0 + i * 0.37
                lhs = poly_eval(ladder_poly(q, 2 * n), t) - (q - 1) * sum(
                    poly_eval(ladder_poly(q, 2 * k), t) for k in range(1, n)
                )
                rhs = (q - 1) + 2 * poly_eval(chebyshev_t(2 * n), t / (2 * rq)) * q**n
                assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_legendre_exact_and_orthogonal():
    assert list(legendre_p(2)) == [Fraction(-1, 2), 0, Fraction(3, 2)]
    # exact pairwise orthogonality over [-1, 1] up to degree 6
    def inner(p, r):
        total = Fraction(0)
        for i, a in enumerate(p):
            for j, b in enumerate(r):
                if a and b and (i + j) % 2 == 0:
                    total += Fraction(2, i + j + 1) * a * b
        return total

    for i in range(7):
        for j in range(7):
            value = inner(legendre_p(i), legendre_p(j))
            if i != j:
                assert value == 0
            else:
                assert value == Fraction(2, 2 * i + 1)
