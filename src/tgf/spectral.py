"""Norm estimation from an exact moment sequence.

The even moments of the symmetrized operator define a symmetric measure on
[-(q+1), q+1].  From the exact Hankel determinants of that measure we get
the recurrence coefficients alpha_n of its orthonormal polynomials, hence
the truncated tridiagonal multiplication matrices M_n whose largest
eigenvalues form a nondecreasing chain of certified lower bounds for the
operator norm.  Everything before the final eigenvalue extraction is exact
integer / rational arithmetic: Hankel conditioning destroys a floating
pipeline long before n = 37, so alpha_n is computed as the square root of
an exact determinant ratio at a configurable bit precision P (default 512).

lambda_max bisects in P-bit mpmath floats with an exact Sturm test on P-bit
fixed-point integers.  The bracket stops shrinking once its ends are
adjacent floats, so P has a floor: P >= 42 for the default tolerance 1e-12
and a Schur bound in [2, 4); a lower P is a UsageError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .errors import NumericError, UsageError, VerificationError

DEFAULT_PRECISION_BITS = 512
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class MomentVector:
    """Moments m_0..m_N of h*h (m_0 = 1); the symmetric measure has even
    moments c_{2k} = m_k and vanishing odd moments."""

    q: int
    m: tuple[int, ...]

    def __post_init__(self):
        if not self.m or self.m[0] != 1:
            raise UsageError("moment vector must start with m_0 = 1")
        if len(self.m) > 1 and self.m[1] != self.q + 1:
            raise UsageError(f"m_1 = {self.m[1]} but q+1 = {self.q + 1}")
        for i, value in enumerate(self.m):
            if value <= 0:
                raise UsageError(f"moment m_{i} = {value} is not positive")
        for i in range(2, len(self.m)):
            if self.m[i] * self.m[i - 2] < self.m[i - 1] ** 2:
                raise UsageError(f"moment ratios decrease at n = {i}")

    @property
    def top(self) -> int:
        return len(self.m) - 1

    def symmetric_moment(self, k: int) -> int:
        return self.m[k // 2] if k % 2 == 0 else 0


@dataclass(frozen=True)
class HankelLadder:
    """Exact determinants D_n of the (n+1)x(n+1) symmetric-moment Hankel
    matrices, n = 0..; truncated at the first non-positive value."""

    determinants: tuple[int, ...]
    degenerate_at: Optional[int] = None

    def det(self, n: int) -> int:
        if n == -1:
            return 1
        return self.determinants[n]

    @property
    def top(self) -> int:
        return len(self.determinants) - 1


def hankel_ladder(mv: MomentVector, order: int) -> HankelLadder:
    """All leading principal minors via one fraction-free (Bareiss)
    elimination pass; a non-positive pivot truncates the ladder there."""
    if order > mv.top:
        raise UsageError(f"need moments up to m_{order}, have m_{mv.top}")
    size = order + 1
    mat = [[mv.symmetric_moment(i + j) for j in range(size)] for i in range(size)]
    dets: list[int] = []
    prev = 1
    for k in range(size):
        pivot = mat[k][k]
        if pivot <= 0:
            return HankelLadder(tuple(dets), degenerate_at=k)
        dets.append(pivot)
        row_k = mat[k]
        for i in range(k + 1, size):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return HankelLadder(tuple(dets))


@dataclass(frozen=True)
class JacobiCoefficients:
    """Off-diagonal recurrence coefficients alpha_1..alpha_N (index 0 unused).

    alpha_sq holds the exact rationals D_{n-2} D_n / D_{n-1}^2; alpha holds
    their square roots at `precision_bits` bits.
    """

    alpha: tuple
    alpha_sq: tuple
    precision_bits: int

    @property
    def top(self) -> int:
        return len(self.alpha) - 1

    def pair_sum(self, n: int):
        return self.alpha[n - 1] + self.alpha[n]

    @cached_property
    def schur_bounds(self) -> tuple:
        """Entry n >= 2 is the Schur bound max_{2<=k<=n} (alpha_{k-1} + alpha_k)
        on lambda_max(M_n), at `precision_bits`."""
        out = [None, None]
        with mpmath.workprec(self.precision_bits):
            for n in range(2, self.top + 1):
                pair = self.pair_sum(n)
                out.append(pair if out[-1] is None else max(out[-1], pair))
        return tuple(out)

    @cached_property
    def scaled_alpha_sq(self) -> tuple[int, ...]:
        """Entry i >= 1 is floor(alpha_i^2 * 2^P) * 2^P, P = `precision_bits`:
        alpha_i^2 at twice the fixed-point scale of the Sturm test's pivots."""
        bits = self.precision_bits
        return (0,) + tuple(
            ((r.numerator << bits) // r.denominator) << bits for r in self.alpha_sq[1:]
        )


def jacobi_coefficients(
    hl: HankelLadder, precision_bits: int = DEFAULT_PRECISION_BITS
) -> JacobiCoefficients:
    alphas = [None]
    alpha_sq = [None]
    with mpmath.workprec(precision_bits):
        for n in range(1, hl.top + 1):
            ratio = Fraction(hl.det(n - 2) * hl.det(n), hl.det(n - 1) ** 2)
            alpha_sq.append(ratio)
            value = mpmath.sqrt(
                mpmath.mpf(ratio.numerator) / mpmath.mpf(ratio.denominator)
            )
            alphas.append(value)
    return JacobiCoefficients(tuple(alphas), tuple(alpha_sq), precision_bits)


def _to_fixed(x, bits: int) -> int:
    """floor(x * 2^bits) for an mpf x; exact for a bits-bit float >= 1/2."""
    man, exp = x.man_exp
    shift = exp + bits
    return man << shift if shift >= 0 else man >> -shift


def _above_spectrum(scaled_sq: Sequence[int], n: int, x: int) -> bool:
    """True iff the fixed-point x lies above the spectrum of M_n, i.e. all
    n+1 pivots d_0 = -x, d_i = -x - alpha_i^2 / d_{i-1} of M_n - x are
    negative (the Sturm count is n+1).  The first pivot >= 0 decides, so a
    zero pivot is never divided by."""
    d = -x
    if d >= 0:
        return False
    for i in range(1, n + 1):
        d = -x - scaled_sq[i] // d
        if d >= 0:
            return False
    return True


def lambda_max(
    jc: JacobiCoefficients,
    n: int,
    tol: float = DEFAULT_TOL,
    lower: Optional[object] = None,
):
    """Largest eigenvalue of M_n by Sturm-count bisection (Barth, Martin &
    Wilkinson 1967).

    The bracket starts at `lower` (any known lower bound, e.g. the moment
    ratio root) or max_k alpha_k, and ends at the Schur bound
    max_k (alpha_{k-1} + alpha_k) + tol, and is halved in P-bit mpmath floats
    (P = jc.precision_bits) until narrower than `tol`.  The Sturm test of
    each midpoint is exact integer arithmetic on P-bit fixed point.
    UsageError when `tol` is below the spacing of P-bit floats at the Schur
    bound (P >= 42 for the default 1e-12 and a bound in [2, 4))."""
    if not 1 <= n <= jc.top:
        raise UsageError(f"need alpha_1..alpha_{n}")
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    if n == 1:
        return jc.alpha[1]
    if n == 2:
        # eigenvalues of M_2 are 0 and +-sqrt(alpha_1^2 + alpha_2^2); the
        # closed form also sidesteps the bracket, whose lower end (the
        # moment ratio) coincides with lambda_max exactly at this order
        r = jc.alpha_sq[1] + jc.alpha_sq[2]
        with mpmath.workprec(jc.precision_bits):
            return mpmath.sqrt(mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator))
    bits = jc.precision_bits
    with mpmath.workprec(bits):
        hi = jc.schur_bounds[n] + mpmath.mpf(tol)
        # the halving stalls once lo and hi are adjacent floats, which below
        # hi lie at most 2^(floor(log2 hi) + 1 - bits) apart
        man, exp = hi.man_exp
        need = max(exp + man.bit_length() + 1 - math.frexp(float(tol))[1], 1)
        if bits < need:
            raise UsageError(
                f"{bits}-bit precision cannot bisect to tolerance {float(tol):g} "
                f"near {float(hi):g}; need at least {need} bits"
            )
        lo = mpmath.mpf(lower) if lower is not None else max(jc.alpha[1 : n + 1])
        scaled_sq = jc.scaled_alpha_sq
        if not _above_spectrum(scaled_sq, n, _to_fixed(hi, bits)):
            raise NumericError("eigenvalue bracket failed; alpha precision suspect")
        if _above_spectrum(scaled_sq, n, _to_fixed(lo, bits)):
            raise NumericError("lower bracket already above top eigenvalue")
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if _above_spectrum(scaled_sq, n, _to_fixed(mid, bits)):
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


@dataclass(frozen=True)
class NormBoundsRow:
    n: int
    root_moment: object
    ratio_root: object
    lambda_max: object
    alpha: object
    alpha_sum: Optional[object]


@dataclass(frozen=True)
class BoundsDiagnostics:
    """Schur-bound bookkeeping: prefix max of the alpha pair sums (a valid
    upper bound for every lambda_max) and suffix min (a limit-inferior
    estimate, itself a likely lower bound for the norm)."""

    prefix_max_pair: tuple
    suffix_min_pair: tuple


def bounds_table(
    mv: MomentVector,
    jc: JacobiCoefficients,
    order: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> tuple[list[NormBoundsRow], BoundsDiagnostics]:
    """Rows of norm lower bounds for n = 1..order, invariant-checked."""
    order = jc.top if order is None else order
    if order > jc.top or order > mv.top:
        raise UsageError("order exceeds available coefficients")
    rows = []
    slack = mpmath.mpf(tol) * 8
    schur = jc.schur_bounds
    with mpmath.workprec(jc.precision_bits):
        prev_lambda = None
        for n in range(1, order + 1):
            root_moment = mpmath.root(mpmath.mpf(mv.m[n]), 2 * n)
            ratio_root = mpmath.sqrt(mpmath.mpf(mv.m[n]) / mpmath.mpf(mv.m[n - 1]))
            lam = lambda_max(jc, n, tol=tol, lower=ratio_root)
            pair = jc.pair_sum(n) if n >= 2 else None
            if not root_moment <= ratio_root <= lam + slack:
                raise VerificationError(
                    f"bound ordering violated at n={n}: "
                    f"{root_moment} / {ratio_root} / {lam}"
                )
            if prev_lambda is not None and lam < prev_lambda - slack:
                raise VerificationError(f"lambda_max decreased at n={n}")
            if n >= 2 and lam > schur[n] + slack:
                raise VerificationError(f"Schur bound violated at n={n}")
            rows.append(
                NormBoundsRow(n, root_moment, ratio_root, lam, jc.alpha[n], pair)
            )
            prev_lambda = lam
    suffix: list = []
    for row in reversed(rows[1:]):
        suffix.append(row.alpha_sum if not suffix else min(suffix[-1], row.alpha_sum))
    diag = BoundsDiagnostics(schur[2 : order + 1], tuple(reversed(suffix)))
    return rows, diag


def moment_reconstruction_error(
    mv: MomentVector, jc: JacobiCoefficients, n: int, k_max: int
):
    """max_k |  ||M_n^k delta_0||^2 - m_k | / m_k for k <= k_max (needs k <= n);
    a high-precision consistency check tying the Jacobi data back to the
    moments."""
    if k_max > n:
        raise UsageError("reconstruction needs k <= n")
    worst = mpmath.mpf(0)
    with mpmath.workprec(jc.precision_bits):
        vec = [mpmath.mpf(0)] * (n + 1)
        vec[0] = mpmath.mpf(1)
        for k in range(1, k_max + 1):
            nxt = [mpmath.mpf(0)] * (n + 1)
            for i in range(n + 1):
                if i > 0:
                    nxt[i] += jc.alpha[i] * vec[i - 1]
                if i < n:
                    nxt[i] += jc.alpha[i + 1] * vec[i + 1]
            vec = nxt
            norm_sq = mpmath.fsum(v * v for v in vec)
            err = abs(norm_sq - mv.m[k]) / mpmath.mpf(mv.m[k])
            worst = max(worst, err)
    return worst


def gamma_cogrowth(norm_estimate, q: int):
    """Growth rate of the identity-word counts from a norm estimate:
    the larger root of g + q/g = norm."""
    with mpmath.workprec(128):
        norm = mpmath.mpf(norm_estimate)
        lo = 2 * mpmath.sqrt(q)
        if norm < lo * (1 - mpmath.mpf("1e-15")) or norm > q + 1 + mpmath.mpf("1e-15"):
            raise UsageError(f"norm estimate {norm} outside [2 sqrt q, q+1]")
        disc = norm * norm - 4 * q
        if disc < 0:
            disc = mpmath.mpf(0)
        return (norm + mpmath.sqrt(disc)) / 2


# ---------------------------------------------------------------------------
# extrapolation fit


@dataclass(frozen=True)
class FitParams:
    a: float
    b: float
    c: float
    d: float
    residual: float
    window: tuple[int, int]

    def predict(self, n: float) -> float:
        return self.a - self.b * (n - self.c) ** (-self.d)


def fit_extrapolation(
    points: list[tuple[int, float]],
    n_lo: int,
    n_hi: int,
) -> FitParams:
    """Least-squares fit of f(n) = a - b (n-c)^(-d) to the bound sequence.

    Variable projection (Golub & Pereyra 1973): for fixed (c, d) the model
    is linear in (a, b), whose least-squares values have a closed form, so
    only (c, d) are searched.  A golden-section search over log d in
    [log 0.05, log 20] wraps one over c in [-10 n_hi, n_lo - 0.25]; the
    upper end keeps every n - c >= 0.25.
    """
    last = max((n for n, _ in points), default=0)
    if n_lo < 1 or n_hi > last:
        raise UsageError(f"fit window [{n_lo},{n_hi}] must lie inside n = 1..{last}")
    data = [(n, float(v)) for n, v in points if n_lo <= n <= n_hi]
    if len(data) < 4 or n_hi - n_lo < 6:
        raise UsageError("fit window must span at least 7 levels")
    ns = [float(n) for n, _ in data]
    vs = [v for _, v in data]
    v_mean = sum(vs) / len(vs)

    def _solve(c: float, d: float) -> tuple[float, float, float]:
        """(a, b, sse) of the linear least-squares fit at fixed (c, d)."""
        xs = [(n - c) ** (-d) for n in ns]
        x_mean = sum(xs) / len(xs)
        sxx = sum((x - x_mean) ** 2 for x in xs)
        sxv = sum((x - x_mean) * (v - v_mean) for x, v in zip(xs, vs))
        b = -sxv / sxx
        a = v_mean + b * x_mean
        return a, b, sum((a - b * x - v) ** 2 for x, v in zip(xs, vs))

    def _best_c(d: float) -> tuple[float, float]:
        return _golden(lambda c: _solve(c, d)[2], -10.0 * n_hi, n_lo - 0.25)

    log_d, _ = _golden(lambda t: _best_c(math.exp(t))[1], math.log(0.05), math.log(20.0))
    d = math.exp(log_d)
    c, _ = _best_c(d)
    a, b, sse = _solve(c, d)
    if not all(map(math.isfinite, (a, b, c, d, sse))):
        raise NumericError("extrapolation fit is not finite")
    return FitParams(a=a, b=b, c=c, d=d, residual=sse, window=(n_lo, n_hi))


def _golden(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the minimum of f on [lo, hi] by golden-section search,
    narrowed to width 1e-10; f is assumed unimodal there."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)
