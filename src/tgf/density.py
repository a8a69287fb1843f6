"""Spectral density reconstruction by Legendre projection.

The symmetric spectral measure lives on J = [-(q+1), q+1].  Projecting it
onto the span of 1, t, ..., t^(2N) in L^2(J, dt) gives the unique degree-2N
polynomial density estimate matching all moments up to order 2N.  The
projection coefficients onto the orthonormal scaled Legendre basis factor
as (rational core) x sqrt((n + 1/2)/(q+1)); the cores are kept as exact
rationals so moment matching is an identity, and the two square roots fuse
into the rational factor (2n+1)/(2(q+1)) at evaluation time.  Each core is
one exact integer sum over the closed-form Legendre coefficients, divided
once, so no polynomial is built.  The estimate is a signed density: no
clipping is applied anywhere.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ResourceError, UsageError
from .records import FrozenRecord
from .sequences import MomentVector, m_free


class LegendreExpansion(NamedTuple):
    """Density estimate of order 2N.  cores[n] is the exact rational part of
    the n-th projection coefficient; odd cores vanish by symmetry."""

    q: int
    order: int
    cores: tuple[Fraction, ...]

    @property
    def support(self) -> tuple[float, float]:
        return (-(self.q + 1), self.q + 1)


class DensityCurve(FrozenRecord):
    __slots__ = _fields = ("grid", "values", "label")

    def __init__(self, grid: tuple[float, ...], values: tuple[float, ...], label: str = ""):
        self._set_fields(grid, values, label)
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise UsageError("curve grid must be strictly increasing")


def project_density(mv: MomentVector, order: int) -> LegendreExpansion:
    """Exact rational cores r_n = integral of P_n(t/(q+1)) against the
    measure, evaluated through the moments.

    From P_n(t) = 2^-n sum_k (-1)^k C(n,k) C(2n-2k,n) t^(n-2k), an even
    core is r_n = S / (2(q+1))^n with the integer
    S = sum_k (-1)^k C(n,k) C(2n-2k,n) (q+1)^(2k) m_(n/2-k), k = 0..n/2."""
    if order > mv.top:
        raise UsageError(f"projection order {order} needs moments up to m_{order}")
    width_sq = (mv.q + 1) ** 2
    cores = []
    for n in range(2 * order + 1):
        if n % 2:
            cores.append(Fraction(0))
            continue
        half = n // 2
        total = sum(
            (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
            * width_sq**k * mv.m[half - k]
            for k in range(half + 1)
        )
        cores.append(Fraction(total, (2 * (mv.q + 1)) ** n))
    return LegendreExpansion(mv.q, order, tuple(cores))


def evaluate(exp: LegendreExpansion, points) -> list[float]:
    """Evaluate via the Legendre three-term recurrence (no monomial blowup)."""
    weights = [
        float(exp.cores[n]) * (2 * n + 1) / (2 * (exp.q + 1))
        for n in range(2 * exp.order + 1)
    ]
    out = []
    for t in points:
        u = t / (exp.q + 1)
        p_prev, p_cur = 1.0, u
        total = weights[0]
        if len(weights) > 1:
            total += weights[1] * u
        for n in range(1, 2 * exp.order):
            p_next = ((2 * n + 1) * u * p_cur - n * p_prev) / (n + 1)
            total += weights[n + 1] * p_next
            p_prev, p_cur = p_cur, p_next
        out.append(total)
    return out


# the most points a curve grid may have: at the default step of 0.01 a
# support of width 10**4 fits
MAX_GRID_POINTS = 10**6


def _grid(lo: float, hi: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError("need finite lo, hi and step")
    if step <= 0 or hi <= lo:
        raise UsageError("need step > 0 and hi > lo")
    # checked as a float, before anything is allocated: the quotient can
    # overflow to inf
    if (hi - lo) / step + 1 > MAX_GRID_POINTS:
        raise ResourceError(
            f"a grid from {lo} to {hi} at step {step} has more than "
            f"{MAX_GRID_POINTS} points; use a larger --step or a narrower --range")
    count = round((hi - lo) / step)
    points = [lo + i * step for i in range(count)]
    points.append(hi)
    return points


def evaluate_curve(
    exp: LegendreExpansion, lo: float, hi: float, step: float = 0.01, label: str = ""
) -> DensityCurve:
    half = exp.q + 1
    if lo < -half - 1e-9 or hi > half + 1e-9:
        raise UsageError(f"range [{lo}, {hi}] leaves the support [-{half}, {half}]")
    grid = _grid(lo, hi, step)
    return DensityCurve(tuple(grid), tuple(evaluate(exp, grid)), label)


def tail_average(
    e1: LegendreExpansion,
    e2: LegendreExpansion,
    lo: float,
    hi: float,
    step: float = 0.01,
    label: str = "",
) -> DensityCurve:
    """Pointwise mean of two consecutive orders; successive estimates
    oscillate with opposite signs near the support edge, so their average
    tracks the measure better there."""
    if e1.q != e2.q:
        raise UsageError("tail average needs expansions over the same support")
    if abs(e1.order - e2.order) > 1:
        raise UsageError("tail average expects consecutive orders")
    c1 = evaluate_curve(e1, lo, hi, step)
    c2 = evaluate_curve(e2, lo, hi, step)
    values = tuple((a + b) / 2 for a, b in zip(c1.values, c2.values))
    return DensityCurve(c1.grid, values, label)


def free_density(q: int, t: float) -> float:
    """Closed-form spectral density for a Leinert generator set:
    (q+1)/(2 pi) * sqrt(4q - t^2) / ((q+1)^2 - t^2) on [-2 sqrt q, 2 sqrt q]."""
    if t * t >= 4 * q:
        return 0.0
    return (q + 1) / (2 * math.pi) * math.sqrt(4 * q - t * t) / ((q + 1) ** 2 - t * t)


def free_density_curve(
    q: int, lo: float, hi: float, step: float = 0.01, label: str = ""
) -> DensityCurve:
    grid = _grid(lo, hi, step)
    return DensityCurve(tuple(grid), tuple(free_density(q, t) for t in grid), label)


def free_moment_vector(q: int, order: int) -> MomentVector:
    """Moments of the closed-form free measure, for oracle comparisons."""
    return MomentVector(q, tuple([1] + [m_free(q, n) for n in range(1, order + 1)]))
