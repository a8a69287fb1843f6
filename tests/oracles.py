"""Independent test oracles.

Exact piecewise-linear dyadic maps over Fractions serve as an off-line
oracle for Thompson-group arithmetic: a tree pair is converted to its
breakpoint list and composition/inversion happen on the maps themselves,
with no shared code with the library's tree-pair kernel; `TreePair` wraps
a validated pair of preorder trees for the reduction tests.  A
quadratic-scan word reducer plays the same role for the free-group
backend.  The Chebyshev polynomials T_n and U_n give closed forms for the
ladder polynomials, and Bonnet's recursion gives the Legendre polynomials
whose closed form `tgf.density.project_density` sums.  One fraction-free
elimination of the whole Hankel matrix is the oracle for
`tgf.spectral.hankel_ladder`, which splits it by index parity.
Sturm-count bisection in P-bit mpmath floats is the oracle for the
fixed-point eigenvalue bisection of `tgf.spectral.lambda_max`, and the
same fixed-point bisection with the exact test run on every midpoint is
the oracle for the tests it skips.  mpmath's own `nstr` is the oracle for
`tgf.formats.significant_digits`, on the mpf that `mpf_of` makes of a
dyadic value.  Golden-section search is the oracle for the fit's Brent
minimisation.  The helpers at the end (polynomial evaluation,
the fitted model, the identity test, the exact moments of a density
estimate, a report's failures as an exception, the table CSV as a file,
the bounds CSV parser, the packaged bounds tables, and a checkpoint that
stores one element under two keys) are used by the tests only.
"""
import csv
import io
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction as Fr
from functools import lru_cache
from pathlib import Path

import mpmath

from tgf import formats, spectral, treepair
from tgf.errors import ResourceError, UsageError, VerificationError
from tgf.polynomials import poly_add, poly_shift_scale
from tgf.sequences import (
    BRUTE_BUDGET,
    SequenceTable,
    brute_force_ladder_element,
    xi_from_h2norm,
)


def normalize(bps):
    """Drop collinear interior breakpoints; canonical form of a PL map."""
    out = [bps[0]]
    for i in range(1, len(bps) - 1):
        x0, y0 = out[-1]
        x1, y1 = bps[i]
        x2, y2 = bps[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        out.append(bps[i])
    out.append(bps[-1])
    return tuple(out)


def pl_eval(f, x):
    for (x0, y0), (x1, y1) in zip(f, f[1:]):
        if x0 <= x <= x1:
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    raise ValueError(x)


def pl_inverse(f):
    return tuple((y, x) for x, y in f)


def pl_compose(g, f):
    """Exact g o f."""
    xs = {x for x, _ in f}
    finv = pl_inverse(f)
    xs.update(pl_eval(finv, xg) for xg, _ in g)
    return normalize(tuple((x, pl_eval(g, pl_eval(f, x))) for x in sorted(xs)))


PL_IDENTITY = ((Fr(0), Fr(0)), (Fr(1), Fr(1)))

# the standard generators as maps
PL_A = normalize(
    ((Fr(0), Fr(0)), (Fr(1, 2), Fr(1, 4)), (Fr(3, 4), Fr(1, 2)), (Fr(1), Fr(1)))
)
PL_B = normalize(
    ((Fr(0), Fr(0)), (Fr(1, 2), Fr(1, 2)), (Fr(3, 4), Fr(5, 8)),
     (Fr(7, 8), Fr(3, 4)), (Fr(1), Fr(1)))
)


def leaf_intervals(tree: bytes):
    out = []

    def walk(i, lo, hi):
        if tree[i] == 0:
            out.append((lo, hi))
            return i + 1
        mid = (lo + hi) / 2
        i = walk(i + 1, lo, mid)
        return walk(i, mid, hi)

    walk(0, Fr(0), Fr(1))
    return out


def key_to_map(key: bytes):
    """PL map of a canonical Thompson-group key."""
    dom, rng = treepair.unpack_key(key)
    pairs = [(Fr(0), Fr(0))]
    for (_, b), (_, d) in zip(leaf_intervals(dom), leaf_intervals(rng)):
        pairs.append((b, d))
    return normalize(tuple(pairs))


def pl_word(word: str):
    """Evaluate a word over A,a,B,b as a map (right letter acts first)."""
    table = {"A": PL_A, "a": pl_inverse(PL_A), "B": PL_B, "b": pl_inverse(PL_B)}
    acc = PL_IDENTITY
    for ch in word:
        acc = pl_compose(acc, table[ch])
    return acc


@dataclass(frozen=True)
class TreePair:
    """Tree pair (domain, range) as preorder token strings."""

    domain: bytes
    range_: bytes

    def __post_init__(self):
        treepair.validate_tree(self.domain)
        treepair.validate_tree(self.range_)
        if treepair.leaf_count(self.domain) != treepair.leaf_count(self.range_):
            raise treepair.TreePairError("leaf counts differ")

    @property
    def leaves(self) -> int:
        return treepair.leaf_count(self.domain)


def reduce_tree_pair(pair: TreePair) -> TreePair:
    """Fully reduced pair representing the same element; idempotent."""
    d, r = treepair.reduce_pair(pair.domain, pair.range_)
    return TreePair(d, r)


def naive_free_reduce(letters):
    """Quadratic rescan reduction of a free word (index, inverted) list."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a[0] == b[0] and a[1] != b[1]:
                del word[i : i + 2]
                changed = True
                break
    return word


def full_length_brute_force(gen, max_n: int) -> SequenceTable:
    """m, eta, zeta by evaluating every alternating word of length up to
    2 max_n; h2norm as in `brute_force_sequences`."""
    size = gen.q + 1
    if size ** (2 * max_n) > BRUTE_BUDGET:
        raise ResourceError(
            f"enumeration of {size}^{2 * max_n} products exceeds budget {BRUTE_BUDGET}"
        )
    backend = gen.backend
    e = backend.identity_key()
    mul = backend.multiply_keys
    y = gen.keys()
    y_inv = gen.inverse_keys()

    ms = [0] * max_n
    etas = [0] * max_n
    zetas = [0] * max_n

    def alternating(depth: int, prod: bytes):
        # product s_1^-1 s_2 s_3^-1 ... ; odd positions contribute inverses
        if depth and depth % 2 == 0 and prod == e:
            ms[depth // 2 - 1] += 1
        if depth == 2 * max_n:
            return
        factor = y_inv if depth % 2 == 0 else y
        for i in range(size):
            alternating(depth + 1, mul(prod, factor[i]))

    def alternating_reduced(depth: int, prod: bytes, first: int, last: int):
        if depth and depth % 2 == 0 and prod == e:
            etas[depth // 2 - 1] += 1
            if first != last:
                zetas[depth // 2 - 1] += 1
        if depth == 2 * max_n:
            return
        factor = y_inv if depth % 2 == 0 else y
        for i in range(size):
            if depth and i == last:
                continue
            alternating_reduced(depth + 1, mul(prod, factor[i]), first if depth else i, i)

    alternating(0, e)
    alternating_reduced(0, e, 0, 0)

    h2norms = [brute_force_ladder_element(gen, n).entries.squared_two_norm()
               for n in range(1, max_n + 1)]
    xis = xi_from_h2norm(gen.q, h2norms)
    return SequenceTable(gen.q, h2norms, xis, etas, zetas, ms)


@lru_cache(maxsize=None)
def legendre_p(n: int) -> tuple:
    """Legendre polynomial P_n by Bonnet's recursion, exact rational
    coefficients."""
    if n == 0:
        return (Fr(1),)
    if n == 1:
        return (Fr(0), Fr(1))
    a = poly_shift_scale(legendre_p(n - 1), Fr(2 * n - 1, n))
    return tuple(poly_add(a, legendre_p(n - 2), -Fr(n - 1, n)))


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> tuple:
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 1)
    return tuple(
        poly_add(poly_shift_scale(chebyshev_t(n - 1), 2), chebyshev_t(n - 2), -1)
    )


@lru_cache(maxsize=None)
def chebyshev_u(n: int) -> tuple:
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 2)
    return tuple(
        poly_add(poly_shift_scale(chebyshev_u(n - 1), 2), chebyshev_u(n - 2), -1)
    )


def sturm_count(alpha_sq_mpf, n: int, x, tiny) -> int:
    """Eigenvalues of the (n+1)x(n+1) zero-diagonal tridiagonal matrix with
    squared off-diagonals alpha_sq_mpf[1..n] that lie below x, counted in
    floating point at the working precision; a zero pivot is replaced by
    `tiny`."""
    count = 0
    d = -x
    if d < 0:
        count += 1
    for i in range(1, n + 1):
        if d == 0:
            d = tiny
        d = -x - alpha_sq_mpf[i] / d
        if d < 0:
            count += 1
    return count


def mpf_of(value):
    """The mpf that holds a dyadic int, float or Fraction exactly."""
    num, den = value.as_integer_ratio()
    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(num, 1 - den.bit_length()))


def fraction_of(x):
    """The exact value of an mpf as a Fraction."""
    man, exp = x.man_exp
    return Fr(man) * Fr(2) ** exp


def bisect_lambda_max(jc, n: int, tol: float = 1e-12, lower=None):
    """lambda_max(M_n) for n >= 3 by bisection on `sturm_count`, in
    jc.precision_bits-bit mpmath floats from the exact alpha_k^2 alone:
    from `lower` (or max alpha_k) to the Schur bound
    max_k (alpha_{k-1} + alpha_k) + tol.  None when either end of the
    bracket fails."""
    with mpmath.workprec(jc.precision_bits):
        alpha_sq_mpf = [None] + [
            mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator)
            for r in jc.alpha_sq[1 : n + 1]
        ]
        alpha = [None] + [mpmath.sqrt(a) for a in alpha_sq_mpf[1:]]
        tiny = mpmath.mpf(2) ** (-4 * jc.precision_bits)
        lo = mpf_of(lower) if lower is not None else max(alpha[1:])
        hi = max(alpha[k - 1] + alpha[k] for k in range(2, n + 1)) + mpmath.mpf(tol)
        full = n + 1
        if sturm_count(alpha_sq_mpf, n, hi, tiny) != full:
            return None
        if sturm_count(alpha_sq_mpf, n, lo, tiny) == full:
            return None
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if sturm_count(alpha_sq_mpf, n, mid, tiny) == full:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def plain_lambda_max(jc, n: int, tol: float = 1e-12, lower=None):
    """lambda_max(M_n) for n >= 3 by the library's fixed-point bisection
    with its exact test run on every midpoint and both bracket ends: what
    `tgf.spectral.lambda_max` computes without skipping the tests that its
    enclosure decides.  A Fraction x / 2^P, or None when either end of the
    bracket fails."""
    bits = jc.precision_bits

    def fixed(value):
        return math.floor(Fr(value) * 2**bits)

    def above(x):
        return spectral._above_spectrum(jc.scaled_alpha_sq, n, x)

    width = fixed(tol)
    hi = jc.fixed_schur[n] + width
    lo = fixed(lower) if lower is not None else max(jc.fixed_alpha[1 : n + 1])
    if not above(hi) or above(lo):
        return None
    while hi - lo > max(width, 1):
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return Fr((lo + hi) // 2, 2**bits)


def symmetric_moment(mv, k: int) -> int:
    """Moment k of the symmetric measure of a `MomentVector`: m_{k/2} for
    even k, 0 for odd k."""
    return mv.m[k // 2] if k % 2 == 0 else 0


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, by bisection on exact integer powers."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def bareiss_hankel_ladder(mv, order: int):
    """(determinants, degenerate_at) of the leading minors D_0..D_order of
    the whole symmetric-moment Hankel matrix (`symmetric_moment`(i + j)),
    by one fraction-free (Bareiss) elimination pass that stops at the
    first non-positive pivot, as a `HankelLadder` holds them."""
    size = order + 1
    mat = [[symmetric_moment(mv, i + j) for j in range(size)] for i in range(size)]
    dets = []
    prev = 1
    for k in range(size):
        pivot = mat[k][k]
        if pivot <= 0:
            return tuple(dets), k
        dets.append(pivot)
        for i in range(k + 1, size):
            lead = mat[i][k]
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * pivot - lead * mat[k][j]) // prev
        prev = pivot
    return tuple(dets), None


def golden_minimum(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the minimum of f on [lo, hi] by golden-section search,
    narrowed to width 1e-10; f is assumed unimodal there.  The oracle for
    the Brent minimisation of `tgf.spectral.fit_extrapolation`."""
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


def poly_eval(a, x):
    """a(x) by Horner's rule, for a coefficient list in ascending degree."""
    acc = 0
    for coeff in reversed(a):
        acc = acc * x + coeff
    return acc


def fit_predict(fit, n: float) -> float:
    """The fitted model f(n) = a - b (n-c)^(-d) of a `FitParams`."""
    return fit.a - fit.b * (n - fit.c) ** (-fit.d)


def is_identity(element) -> bool:
    """Whether a `CanonicalElement` is its backend's identity."""
    return element.key == element.backend.identity_key()


def expansion_moment(exp, k: int) -> Fr:
    """Exact integral of t^(2k) against the density estimate of a
    `LegendreExpansion` over J = [-(q+1), q+1]."""
    width = Fr(exp.q + 1)
    total = Fr(0)
    for n in range(0, 2 * exp.order + 1, 2):
        core = exp.cores[n]
        if not core:
            continue
        weight = core * Fr(2 * n + 1, 2 * (exp.q + 1))
        # integral of t^{2k} P_n(t/(q+1)) over J, exactly
        inner = Fr(0)
        for j, coeff in enumerate(legendre_p(n)):
            if coeff and (j + 2 * k) % 2 == 0:
                inner += coeff * Fr(2, j + 2 * k + 1)
        total += weight * inner * width ** (2 * k + 1)
    return total


def raise_if_failed(report) -> None:
    """VerificationError naming every failed check of a `VerifyReport`."""
    if not report.ok:
        raise VerificationError("; ".join(report.failures()))


def write_table_csv(path, table) -> None:
    """The table CSV of a `SequenceTable`, written to `path`."""
    Path(path).write_text(formats.table_csv_text(table), encoding="ascii")


def parse_bounds_csv(text: str) -> list[dict]:
    """The rows of a bounds CSV (`tgf.formats.bounds_csv_text`) as dicts."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != formats.BOUNDS_HEADER:
        raise UsageError("not a bounds CSV")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        out.append(
            {
                "n": int(row[0]),
                "root_moment": float(row[1]),
                "ratio_root": float(row[2]),
                "lambda_max": float(row[3]),
                "alpha": float(row[4]),
                "alpha_sum": float(row[5]) if row[5] else None,
            }
        )
    return out


def load_fixture_bounds(case: int) -> list[dict]:
    """The published 5-decimal norm-bound tables for cases 1 and 2."""
    return parse_bounds_csv(formats.fixture_text(f"bounds{case}.csv"))


def unreduced_twin(key: bytes) -> bytes:
    """A key of the same element of F as `key` that is not reduced: the
    first leaf of both its trees expanded into a caret."""
    dom, rng = treepair.unpack_key(key)
    return treepair.pack_key(*(t.replace(b"\x00", b"\x01\x00\x00", 1) for t in (dom, rng)))


def give_one_to_a_twin(path, twin) -> bytes:
    """Moves 1 from the first of the largest counts in the checkpoint at
    `path` to twin(key), another key of the same element, as a writer that
    stored an element under two keys would: the body stays in key order,
    and its entry count and CRC are restamped.  Returns the twin."""
    data = Path(path).read_bytes()
    size = formats.CHECKPOINT_HEADER.size
    fields = list(formats.CHECKPOINT_HEADER.unpack_from(data))
    entries = dict(treepair.read_entries(data[size:], fields[4]))
    key = max(entries, key=entries.get)
    entries[key] -= 1
    if not entries[key]:
        del entries[key]
    entries[twin(key)] = 1
    body = treepair.Level(entries).dump_entries()
    fields[4], fields[6] = len(entries), zlib.crc32(body)
    Path(path).write_bytes(formats.CHECKPOINT_HEADER.pack(*fields) + body)
    return twin(key)
