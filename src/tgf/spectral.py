"""Norm estimation from an exact moment sequence.

The even moments of the symmetrized operator define a symmetric measure on
[-(q+1), q+1].  From the exact Hankel determinants of that measure we get
the recurrence coefficients alpha_n of its orthonormal polynomials, hence
the truncated tridiagonal multiplication matrices M_n whose largest
eigenvalues form a nondecreasing chain of certified lower bounds for the
operator norm.  Hankel conditioning destroys a floating pipeline long
before n = 37, so everything up to the determinants and alpha_n^2 is exact
integer / rational arithmetic, and everything after it runs on P-bit
fixed-point integers (floor(x * 2^P), P configurable, default 512):
alpha_n, the Schur bounds, the eigenvalue bisection, the moment roots and
the reconstruction check.  Results are exact dyadic Fractions x / 2^P.

The Hankel matrix of a symmetric measure splits by index parity into two
half-size Hankel matrices, over m_{i+j} (even indices) and m_{i+j+1} (odd
indices), so each D_n is a product of one leading minor of each half.

lambda_max bisects the fixed-point bracket with an exact Sturm test.  The
test is monotone in x, so once it has certified a 2^-39 enclosure around a
float64 estimate of the eigenvalue, a midpoint outside the enclosure needs
no test: a case 1 table runs about 150 exact tests instead of about 1,440,
and the bisection path is unchanged.  P has the floor of a bisection in
P-bit floats, whose bracket stops shrinking once its ends are adjacent
floats: P >= 42 for the default tolerance 1e-12 and a Schur bound in
[2, 4); a lower P is a UsageError.

fit_extrapolation minimises by Brent's method (Brent 1973), which needs
about a quarter of the model evaluations of a golden-section search.
"""
from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional, Sequence

from .errors import NumericError, UsageError, VerificationError
from .formats import significant_digits
from .records import FrozenRecord
from .sequences import MomentVector

DEFAULT_PRECISION_BITS = 512
DEFAULT_TOL = 1e-12


def _to_fixed(value, bits: int) -> int:
    """floor(value * 2^bits) for an int, float or Fraction value."""
    num, den = Fraction(value).as_integer_ratio()
    return (num << bits) // den


def _short(fixed: int, bits: int) -> str:
    """A fixed-point value with 12 significant digits, for messages."""
    return significant_digits(Fraction(fixed, 1 << bits), 12)


class HankelLadder(NamedTuple):
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


def _leading_minors(mat: list[list[int]]) -> list[int]:
    """Leading principal minors of an integer matrix by one fraction-free
    (Bareiss) elimination pass, up to the first one that is not positive,
    which ends the list."""
    minors: list[int] = []
    prev = 1
    size = len(mat)
    for k in range(size):
        pivot = mat[k][k]
        minors.append(pivot)
        if pivot <= 0:
            break
        row_k = mat[k]
        for i in range(k + 1, size):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return minors


def hankel_ladder(mv: MomentVector, order: int) -> HankelLadder:
    """All leading principal minors D_0..D_order; a non-positive one
    truncates the ladder there.

    The odd moments vanish, so ordering the indices evens first makes the
    Hankel matrix block diagonal: E = (m_{i+j}) over the even indices and
    O = (m_{i+j+1}) over the odd ones.  Indices 0..n hold ceil((n+1)/2)
    evens and floor((n+1)/2) odds, so D_n = E_{n//2} * O_{(n-1)//2}, with
    E_k, O_k the leading (k+1)x(k+1) minors and O_{-1} = 1."""
    if order > mv.top:
        raise UsageError(f"need moments up to m_{order}, have m_{mv.top}")
    m = mv.m
    evens, odds = order // 2 + 1, (order + 1) // 2
    even = _leading_minors([[m[i + j] for j in range(evens)] for i in range(evens)])
    odd = _leading_minors([[m[i + j + 1] for j in range(odds)] for i in range(odds)])
    dets: list[int] = []
    for n in range(order + 1):
        det = even[n // 2] * (odd[(n - 1) // 2] if n else 1)
        if det <= 0:
            return HankelLadder(tuple(dets), degenerate_at=n)
        dets.append(det)
    return HankelLadder(tuple(dets))


def _fixed_roots(alpha_sq: Sequence[Fraction], bits: int) -> tuple[int, ...]:
    """Entry i >= 1 is floor(alpha_i * 2^bits), from the exact alpha_i^2."""
    return (0,) + tuple(isqrt(_to_fixed(r, 2 * bits)) for r in alpha_sq[1:])


def _running_schur(alpha: Sequence[int]) -> tuple[int, ...]:
    """Entry n >= 1 is the Schur (largest absolute row sum) bound on
    lambda_max(M_n) from fixed-point alpha (alpha[0] = 0): alpha_1 for
    n = 1, else max_{2<=k<=n} (alpha_{k-1} + alpha_k)."""
    out, best = [0], 0
    for n in range(1, len(alpha)):
        best = max(best, alpha[n - 1] + alpha[n])
        out.append(best)
    return tuple(out)


# the precision floor reads the Schur bound at this many fixed-point bits,
# whatever P is, so that a low P does not move the floor it is checked against
_FLOOR_BITS = 64


class JacobiCoefficients(FrozenRecord):
    """Off-diagonal recurrence coefficients alpha_1..alpha_N of M_N, from
    their exact squares alpha_sq[n] = D_{n-2} D_n / D_{n-1}^2 (index 0
    unused), at P = `precision_bits` fixed-point bits.  The derived values
    are computed once each, into the instance __dict__."""

    __slots__ = ("alpha_sq", "precision_bits", "__dict__")
    _fields = ("alpha_sq", "precision_bits")

    def __init__(self, alpha_sq: tuple, precision_bits: int):
        self._set_fields(alpha_sq, precision_bits)

    @property
    def top(self) -> int:
        return len(self.alpha_sq) - 1

    @cached_property
    def fixed_alpha(self) -> tuple[int, ...]:
        """Entry i >= 1 is floor(alpha_i * 2^P)."""
        return _fixed_roots(self.alpha_sq, self.precision_bits)

    @cached_property
    def alpha(self) -> tuple:
        """Entry i >= 1 is alpha_i at P bits, as the Fraction
        floor(alpha_i * 2^P) / 2^P."""
        scale = 1 << self.precision_bits
        return (None,) + tuple(Fraction(a, scale) for a in self.fixed_alpha[1:])

    @cached_property
    def fixed_schur(self) -> tuple[int, ...]:
        """Entry n >= 1 is the Schur bound on lambda_max(M_n) at P bits."""
        return _running_schur(self.fixed_alpha)

    @cached_property
    def _floor_schur(self) -> tuple[int, ...]:
        """The Schur bounds at _FLOOR_BITS bits."""
        return _running_schur(_fixed_roots(self.alpha_sq, _FLOOR_BITS))

    @cached_property
    def scaled_alpha_sq(self) -> tuple[int, ...]:
        """Entry i >= 1 is floor(alpha_i^2 * 2^P) * 2^P, P = `precision_bits`:
        alpha_i^2 at twice the fixed-point scale of the Sturm test's pivots."""
        bits = self.precision_bits
        return (0,) + tuple(_to_fixed(r, bits) << bits for r in self.alpha_sq[1:])

    @cached_property
    def float_alpha_sq(self) -> tuple[float, ...]:
        """Entry i >= 1 is alpha_i^2 as a float64, for the float Sturm test."""
        return (0.0,) + tuple(map(float, self.alpha_sq[1:]))


def jacobi_coefficients(
    hl: HankelLadder, precision_bits: int = DEFAULT_PRECISION_BITS
) -> JacobiCoefficients:
    alpha_sq = [None]
    for n in range(1, hl.top + 1):
        alpha_sq.append(Fraction(hl.det(n - 2) * hl.det(n), hl.det(n - 1) ** 2))
    return JacobiCoefficients(tuple(alpha_sq), precision_bits)


def _check_precision(jc: JacobiCoefficients, n: int, tol) -> None:
    """UsageError unless P = jc.precision_bits reaches the floor that a
    P-bit float bisection of lambda_max(M_n) to `tol` needs: its bracket
    stops shrinking once its ends are adjacent floats, which below the top
    end hi = S_n + tol (S_n the Schur bound) lie at most
    2^(floor(log2 hi) + 1 - P) apart.  hi is read at _FLOOR_BITS bits, so
    the floor does not depend on P."""
    hi = jc._floor_schur[n] + _to_fixed(tol, _FLOOR_BITS)
    need = max(hi.bit_length() - _FLOOR_BITS + 1 - math.frexp(float(tol))[1], 1)
    bits = jc.precision_bits
    if bits < need:
        raise UsageError(
            f"{bits}-bit precision cannot bisect to tolerance {float(tol):g} "
            f"near {hi / (1 << _FLOOR_BITS):g}; need at least {need} bits"
        )


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


# half the width of the enclosure that the exact test certifies around the
# float64 estimate: far above the float Sturm test's error (about n * 2^-52
# times the Schur bound), and at 1.8e-12 wide close to the default tolerance
_ENCLOSURE = 2.0**-40


def _float_above(alpha_sq: Sequence[float], n: int, x: float) -> bool:
    """_above_spectrum in float64: True iff every pivot of M_n - x is
    negative."""
    d = -x
    if d >= 0:
        return False
    for i in range(1, n + 1):
        d = -x - alpha_sq[i] / d
        if d >= 0:
            return False
    return True


def _enclosure(jc: JacobiCoefficients, n: int, lo: float, hi: float):
    """(below, above): P-bit fixed-point points 2^-39 apart where the exact
    test is False and True, around a float64 bisection estimate of
    lambda_max(M_n) in [lo, hi]; None when the exact test does not confirm
    them (then every midpoint is tested).

    The exact test is monotone in x: each pivot d_i(x) = -x - floor(a_i /
    d_{i-1}(x)), a_i >= 0, does not increase as x grows while d_{i-1} < 0,
    so if every pivot is negative at x it is at every x' > x.  Hence the
    test is False at or below `below` and True at or above `above`."""
    try:
        alpha_sq = jc.float_alpha_sq
    except OverflowError:
        return None
    while hi - lo > _ENCLOSURE / 4:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if _float_above(alpha_sq, n, mid):
            hi = mid
        else:
            lo = mid
    estimate = (lo + hi) / 2
    bits = jc.precision_bits
    below = _to_fixed(estimate - _ENCLOSURE, bits)
    above = _to_fixed(estimate + _ENCLOSURE, bits)
    scaled_sq = jc.scaled_alpha_sq
    if _above_spectrum(scaled_sq, n, below) or not _above_spectrum(scaled_sq, n, above):
        return None
    return below, above


def _bisect(jc: JacobiCoefficients, n: int, tol, lo: Optional[int]) -> int:
    """lambda_max(M_n) at P-bit fixed point (P = jc.precision_bits), for a
    P that `_check_precision` has passed; `lo` is a fixed-point lower
    bound, or None for max_k alpha_k.

    The bracket [lo, S_n + floor(tol * 2^P)], S_n the Schur bound, is
    halved at floor midpoints while wider than tol; the result is the
    floor midpoint of the last bracket.  The Sturm test of each midpoint is
    exact; a midpoint outside the enclosure of `_enclosure` takes the
    branch that the test would give without running it, so the bracket
    ends, midpoints and result are those of testing every midpoint."""
    alpha = jc.fixed_alpha
    bits = jc.precision_bits
    if n == 1:
        return alpha[1]
    if n == 2:
        # eigenvalues of M_2 are 0 and +-sqrt(alpha_1^2 + alpha_2^2); the
        # closed form also sidesteps the bracket, whose lower end (the
        # moment ratio) coincides with lambda_max exactly at this order
        return isqrt(_to_fixed(jc.alpha_sq[1] + jc.alpha_sq[2], 2 * bits))
    width = _to_fixed(tol, bits)
    hi = jc.fixed_schur[n] + width
    if lo is None:
        lo = max(alpha[1 : n + 1])
    scaled_sq = jc.scaled_alpha_sq
    known = _enclosure(jc, n, lo / (1 << bits), hi / (1 << bits))

    def above(x: int) -> bool:
        if known is not None:
            if x <= known[0]:
                return False
            if x >= known[1]:
                return True
        return _above_spectrum(scaled_sq, n, x)

    if not above(hi):
        raise NumericError("eigenvalue bracket failed; alpha precision suspect")
    if above(lo):
        raise NumericError("lower bracket already above top eigenvalue")
    # hi - lo > 1 keeps a midpoint strictly inside when tol * 2^P < 1
    while hi - lo > max(width, 1):
        mid = (lo + hi) >> 1
        if above(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) >> 1


def lambda_max(
    jc: JacobiCoefficients,
    n: int,
    tol: float = DEFAULT_TOL,
    lower=None,
) -> Fraction:
    """Largest eigenvalue of M_n by Sturm-count bisection (Barth, Martin &
    Wilkinson 1967), as the Fraction x / 2^P of `_bisect`'s fixed-point x.

    The bracket starts at `lower` (any known lower bound, e.g. the moment
    ratio root; an int, float or Fraction) or max_k alpha_k, and ends at
    the Schur bound max_k (alpha_{k-1} + alpha_k) + tol.  UsageError when P
    is below the floor of `_check_precision` (P >= 42 for the default
    1e-12 and a bound in [2, 4))."""
    if not 1 <= n <= jc.top:
        raise UsageError(f"need alpha_1..alpha_{n}")
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    _check_precision(jc, n, tol)
    bits = jc.precision_bits
    lo = None if lower is None else _to_fixed(lower, bits)
    return Fraction(_bisect(jc, n, tol, lo), 1 << bits)


def _root(m: int, k: int, bits: int) -> int:
    """floor(m^(1/k) * 2^bits) for m >= 1, to within a unit for k > 2
    (exact for k = 2): Newton's iteration y <- ((k-1) y + m / y^(k-1)) / k,
    started from float64, on (bits+32)-bit fixed point with truncated
    products, until a step moves y by at most 2^16 units; then the 32
    guard bits are dropped.  Each truncation loses under a unit, so a step
    lands within a few units of the exact one, far inside that bound."""
    if k == 2:
        return isqrt(m << 2 * bits)
    w = bits + 32
    y = _to_fixed(2.0 ** (math.log2(m) / k), w)
    target = m << 2 * w
    while True:
        power, base, e = 1 << w, y, k - 1
        while e:
            if e & 1:
                power = power * base >> w
            base = base * base >> w
            e >>= 1
        step = ((k - 1) * y + target // power) // k - y
        y += step
        if abs(step) <= 1 << 16:
            return y >> 32


class NormBoundsRow(NamedTuple):
    n: int
    root_moment: Fraction
    ratio_root: Fraction
    lambda_max: Fraction
    alpha: Fraction
    alpha_sum: Optional[Fraction]


def bounds_table(
    mv: MomentVector,
    jc: JacobiCoefficients,
    order: Optional[int] = None,
) -> list[NormBoundsRow]:
    """Rows of norm lower bounds for n = 1..order, invariant-checked: the
    root m_n^(1/2n), the ratio root sqrt(m_n / m_{n-1}), lambda_max(M_n),
    alpha_n and alpha_{n-1} + alpha_n, each at P-bit fixed point."""
    order = jc.top if order is None else order
    if order > jc.top or order > mv.top:
        raise UsageError("order exceeds available coefficients")
    if order >= 1:
        _check_precision(jc, order, DEFAULT_TOL)
    bits = jc.precision_bits
    scale = 1 << bits
    slack = _to_fixed(8 * DEFAULT_TOL, bits)
    alpha, schur = jc.fixed_alpha, jc.fixed_schur
    rows = []
    prev_lambda = None
    for n in range(1, order + 1):
        root_moment = _root(mv.m[n], 2 * n, bits)
        ratio_root = isqrt((mv.m[n] << 2 * bits) // mv.m[n - 1])
        lam = _bisect(jc, n, DEFAULT_TOL, ratio_root)
        if not root_moment <= ratio_root <= lam + slack:
            raise VerificationError(
                f"bound ordering violated at n={n}: {_short(root_moment, bits)} / "
                f"{_short(ratio_root, bits)} / {_short(lam, bits)}"
            )
        if prev_lambda is not None and lam < prev_lambda - slack:
            raise VerificationError(f"lambda_max decreased at n={n}")
        if lam > schur[n] + slack:
            raise VerificationError(f"Schur bound violated at n={n}")
        pair = Fraction(alpha[n - 1] + alpha[n], scale) if n >= 2 else None
        rows.append(NormBoundsRow(
            n, Fraction(root_moment, scale), Fraction(ratio_root, scale),
            Fraction(lam, scale), jc.alpha[n], pair))
        prev_lambda = lam
    return rows


def moment_reconstruction_error(
    mv: MomentVector, jc: JacobiCoefficients, n: int, k_max: int
) -> Fraction:
    """max_k |  ||M_n^k delta_0||^2 - m_k | / m_k for k <= k_max (needs k <= n),
    at P-bit fixed point with truncated products: a consistency check
    tying the Jacobi data back to the moments."""
    if k_max > n:
        raise UsageError("reconstruction needs k <= n")
    bits = jc.precision_bits
    alpha = jc.fixed_alpha
    worst = 0
    vec = [1 << bits] + [0] * n
    for k in range(1, k_max + 1):
        vec = [
            ((alpha[i] * vec[i - 1] if i > 0 else 0)
             + (alpha[i + 1] * vec[i + 1] if i < n else 0)) >> bits
            for i in range(n + 1)
        ]
        exact = mv.m[k] << 2 * bits
        err = abs(sum(v * v for v in vec) - exact)
        worst = max(worst, (err << bits) // exact)
    return Fraction(worst, 1 << bits)


# gamma_cogrowth works at this many fixed-point bits
_GAMMA_BITS = 128


def gamma_cogrowth(norm_estimate, q: int) -> Fraction:
    """Growth rate of the identity-word counts from a norm estimate (an int,
    float or Fraction): the larger root g = (norm + sqrt(norm^2 - 4q)) / 2
    of g + q/g = norm, at 128 fixed-point bits.  UsageError unless the
    estimate lies in [2 sqrt(q) (1 - 1e-15), q + 1 + 1e-15]."""
    norm = Fraction(norm_estimate)
    slack = Fraction(1, 10**15)
    if norm < 0 or norm * norm < 4 * q * (1 - slack) ** 2 or norm > q + 1 + slack:
        raise UsageError(
            f"norm estimate {float(norm):.12g} outside [2 sqrt q, q+1]")
    bits = _GAMMA_BITS
    fixed = _to_fixed(norm, bits)
    disc = max(fixed * fixed - (4 * q << 2 * bits), 0)
    return Fraction((fixed + isqrt(disc)) >> 1, 1 << bits)


# ---------------------------------------------------------------------------
# extrapolation fit


class FitParams(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    residual: float
    window: tuple[int, int]


def fit_extrapolation(
    points: list[tuple[int, float]],
    n_lo: int,
    n_hi: int,
) -> FitParams:
    """Least-squares fit of f(n) = a - b (n-c)^(-d) to the bound sequence.

    Variable projection (Golub & Pereyra 1973): for fixed (c, d) the model
    is linear in (a, b), whose least-squares values have a closed form, so
    only (c, d) are searched.  A Brent minimisation over log d in
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
        return _brent(lambda c: _solve(c, d)[2], -10.0 * n_hi, n_lo - 0.25)

    log_d, _ = _brent(lambda t: _best_c(math.exp(t))[1], math.log(0.05), math.log(20.0))
    d = math.exp(log_d)
    c, _ = _best_c(d)
    a, b, sse = _solve(c, d)
    if not all(map(math.isfinite, (a, b, c, d, sse))):
        raise NumericError("extrapolation fit is not finite")
    return FitParams(a=a, b=b, c=c, d=d, residual=sse, window=(n_lo, n_hi))


def _brent(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the minimum of f on [lo, hi] by Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5):
    parabolic interpolation through the three best points so far, with a
    golden-section step whenever the parabola's step is not safe.  Stops
    once x is within 5e-11 of both ends of the bracket, which is then at
    most 1e-10 wide; f is assumed unimodal there."""
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    tol = 2.5e-11
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    step = last = 0.0
    while True:
        mid = (a + b) / 2
        if abs(x - mid) <= 2 * tol - (b - a) / 2:
            return x, fx
        p = q = r = 0.0
        if abs(last) > tol:
            # the parabola through (v, fv), (w, fw), (x, fx) has its vertex
            # at x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            else:
                q = -q
            r, last = last, step
        if abs(p) < abs(q * r / 2) and q * (a - x) < p < q * (b - x):
            # less than half the step before last, and inside the bracket
            step = p / q
            if x + step - a < 2 * tol or b - (x + step) < 2 * tol:
                step = tol if x < mid else -tol
        else:
            last = (b if x < mid else a) - x
            step = golden * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
