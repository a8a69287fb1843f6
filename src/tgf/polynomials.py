"""Exact polynomial kit: the ladder polynomials.

Polynomials are coefficient lists in ascending degree order; ladder
polynomials have integer coefficients.  The ladder polynomials for a fixed
integer q >= 1 are

    L_1(t) = t,  L_2(t) = t^2 - (q+1),  L_{n+1}(t) = t L_n(t) - q L_{n-1}(t),

the polynomials that produce the group-ring ladder h_n from h (even levels
are polynomials in h*h, odd levels are h times such a polynomial).
"""
from __future__ import annotations

from functools import lru_cache


def poly_add(a: list, b: list, scale=1) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, coeff in enumerate(b):
        out[i] += scale * coeff
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_shift_scale(a: list, scale=1) -> list:
    """t * scale * a(t)."""
    return [0] + [scale * coeff for coeff in a]


@lru_cache(maxsize=None)
def ladder_poly(q: int, n: int) -> tuple:
    """The n-th ladder polynomial for parameter q (n >= 1)."""
    if n < 1:
        raise ValueError("ladder polynomials start at n = 1")
    if n == 1:
        return (0, 1)
    if n == 2:
        return (-(q + 1), 0, 1)
    return tuple(
        poly_add(poly_shift_scale(ladder_poly(q, n - 1)), ladder_poly(q, n - 2), -q)
    )


def ladder_poly_even_core(q: int, m: int) -> list:
    """P with L_{2m}(t) = P(t^2); exercises even-degree coefficients only."""
    full = ladder_poly(q, 2 * m)
    assert all(c == 0 for c in full[1::2])
    return list(full[0::2])
