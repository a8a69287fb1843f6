"""Integer sequences attached to a generator set and the transforms between
them.

Five exact integer sequences describe the pair (backend, Y): the squared
2-norms of the ladder levels, the shifted norms xi_n, the reduced numbers
eta_n (alternating words of length 2n equal to the identity), the cyclic
numbers zeta_n (the same with the cyclic adjacency constraint), and the
moments m_n of h*h.  Each determines the others through exact integer
transforms; this module implements the transforms, the closed form for the
free (Leinert) moments, definition-level brute-force oracles, the
group-ring identity checks, the Moebius/parity verification suite, and the
cogrowth diagnostics.  MomentVector, the checked moments m_0..m_N that
tgf.spectral and tgf.density start from, lives here too, so that a density
run needs neither the spectral layer nor the ladder.

The brute force counts the alternating 2n-letter words equal to e from
n-letter products: such a word is e exactly when its second half inverts
its first, so m_n = sum_g A_n(g)^2, where A_n(g) counts the n-letter words
with product g (eta_n and zeta_n likewise, from reduced n-letter words).
"""
from __future__ import annotations

import math
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ResourceError, UsageError, VerificationError
from .records import FrozenRecord, Record

# the ladder (and with it the tree-pair kernel) is imported only where one
# is built, so that reading a table or a moments file does not load it
if TYPE_CHECKING:
    from .groups import GroupBackend
    from .ladder import GeneratorSet, LadderRun, MultiplicityVector

# ---------------------------------------------------------------------------
# transforms; all lists are indexed so that entry i corresponds to n = i+1


def xi_from_h2norm(q: int, h2norms: list[int]) -> list[int]:
    return [h2 - (q + 1) * q**i for i, h2 in enumerate(h2norms)]


def h2norm_from_xi(q: int, xis: list[int]) -> list[int]:
    return [xi + (q + 1) * q**i for i, xi in enumerate(xis)]


def eta_from_xi(q: int, xis: list[int]) -> list[int]:
    out, prefix = [], 0
    for xi in xis:
        out.append(xi - (q - 1) * prefix)
        prefix += xi
    return out


def xi_from_eta(q: int, etas: list[int]) -> list[int]:
    out, s = [], 0
    for eta in etas:
        out.append(eta + (q - 1) * s)
        s = eta + q * s
    return out


# eta -> zeta is the same transform as xi -> eta, applied a second time
zeta_from_eta = eta_from_xi
eta_from_zeta = xi_from_eta


def m_free(q: int, n: int) -> int:
    """2n-th moment of the Kesten measure: the moments when Y is Leinert."""
    if q < 1 or n < 1:
        raise UsageError("m_free needs q >= 1 and n >= 1")
    return comb(2 * n, n) * q**n - (q - 1) * sum(
        comb(2 * n, k) * q**k for k in range(n)
    )


def m_from_zeta(q: int, zetas: list[int]) -> list[int]:
    out = []
    for n in range(1, len(zetas) + 1):
        extra = sum(comb(2 * n, k) * q**k * zetas[n - k - 1] for k in range(n))
        out.append(m_free(q, n) + extra)
    return out


def zeta_from_m(q: int, ms: list[int]) -> list[int]:
    zetas: list[int] = []
    for n in range(1, len(ms) + 1):
        tail = sum(comb(2 * n, k) * q**k * zetas[n - k - 1] for k in range(1, n))
        zetas.append(ms[n - 1] - m_free(q, n) - tail)
    return zetas


# ---------------------------------------------------------------------------


class SequenceTable(Record):
    """Exact sequences for n = 1..max_n (lists hold n = i+1 at index i)."""

    __slots__ = _fields = ("q", "h2norm", "xi", "eta", "zeta", "m")

    def __init__(self, q: int, h2norm: list[int], xi: list[int], eta: list[int],
                 zeta: list[int], m: list[int]):
        self.q = q
        self.h2norm = h2norm
        self.xi = xi
        self.eta = eta
        self.zeta = zeta
        self.m = m

    @property
    def max_n(self) -> int:
        return len(self.h2norm)

    @classmethod
    def from_h2norms(cls, q: int, h2norms: list[int]) -> "SequenceTable":
        xi = xi_from_h2norm(q, h2norms)
        eta = eta_from_xi(q, xi)
        zeta = zeta_from_eta(q, eta)
        m = m_from_zeta(q, zeta)
        return cls(q, list(h2norms), xi, eta, zeta, m)

    def row(self, n: int) -> tuple[int, int, int, int, int]:
        i = n - 1
        return (self.h2norm[i], self.xi[i], self.eta[i], self.zeta[i], self.m[i])

    def moments(self) -> list[int]:
        """m_0..m_max_n including the trivial zeroth moment."""
        return [1] + list(self.m)


class MomentVector(FrozenRecord):
    """Moments m_0..m_N of h*h (m_0 = 1); the symmetric measure has even
    moments c_{2k} = m_k and vanishing odd moments."""

    __slots__ = _fields = ("q", "m")

    def __init__(self, q: int, m: tuple[int, ...]):
        self._set_fields(q, m)
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


def table_from_ladder(gen: GeneratorSet, run: LadderRun) -> SequenceTable:
    return SequenceTable.from_h2norms(gen.q, run.h2norms())


def compute_table(
    gen: GeneratorSet,
    max_n: int,
    checkpoint_dir=None,
) -> SequenceTable:
    from .ladder import build_ladder

    run = build_ladder(gen, max_n, checkpoint_dir=checkpoint_dir)
    return table_from_ladder(gen, run)


# ---------------------------------------------------------------------------
# brute-force oracles straight from the definitions


# the brute force refuses a depth whose size^(2n) words exceed this
BRUTE_BUDGET = 10**8


def brute_force_sequences(gen: GeneratorSet, max_n: int) -> SequenceTable:
    """m, eta, zeta by counting the alternating 2n-letter words
    s_1^-1 s_2 s_3^-1 ... s_2n equal to e; h2norm by materializing each
    ladder element from its definition.  Independent of the recursion.

    A 2n-letter word equals e exactly when its second half is the inverse
    of its first half, and that inverse, read with its letter indices
    reversed, is again an n-letter alternating word starting with an
    inverted letter.  So with A_n(g) the number of n-letter words with
    product g, m_n = sum_g A_n(g)^2.  For eta_n and zeta_n the reduced
    n-letter words are counted by (product, first index, last index): two
    halves join into a reduced word when their last indices differ, and
    into a cyclically reduced one when their first indices differ too.
    Only n-letter products are made, one per distinct product and letter;
    BRUTE_BUDGET still bounds the size^(2n) words this stands for."""
    if max_n < 1:
        raise UsageError(f"brute-force max_n must be >= 1, got {max_n}")
    size = gen.q + 1
    if size ** (2 * max_n) > BRUTE_BUDGET:
        raise ResourceError(
            f"enumeration of {size}^{2 * max_n} words exceeds budget {BRUTE_BUDGET}"
        )
    backend = gen.backend
    mul = backend.multiply_keys
    y = gen.keys()
    y_inv = gen.inverse_keys()

    ms, etas, zetas = [], [], []
    # words[g] = A_k(g); reduced[(g, first, last)] counts the reduced words
    # so described (first and last are None for the empty word)
    e = backend.identity_key()
    words = {e: 1}
    reduced: dict[tuple, int] = {(e, None, None): 1}
    for k in range(max_n):
        # letter k+1 enters inverted exactly when k+1 is odd
        factor = y_inv if k % 2 == 0 else y
        step = {g: [mul(g, f) for f in factor] for g in words}
        next_words: dict[bytes, int] = {}
        for g, c in words.items():
            for p in step[g]:
                next_words[p] = next_words.get(p, 0) + c
        next_reduced: dict[tuple, int] = {}
        for (g, first, last), c in reduced.items():
            for i, p in enumerate(step[g]):
                if i != last:
                    state = (p, i if first is None else first, i)
                    next_reduced[state] = next_reduced.get(state, 0) + c
        words, reduced = next_words, next_reduced

        ms.append(sum(c * c for c in words.values()))
        eta, zeta = _joined_half_words(reduced)
        etas.append(eta)
        zetas.append(zeta)

    h2norms = [brute_force_ladder_element(gen, n).entries.squared_two_norm()
               for n in range(1, max_n + 1)]
    xis = xi_from_h2norm(gen.q, h2norms)
    return SequenceTable(gen.q, h2norms, xis, etas, zetas, ms)


def _joined_half_words(reduced: dict[tuple, int]) -> tuple[int, int]:
    """eta and zeta from reduced half words counted by (product, first,
    last): the ordered pairs with equal products whose last indices differ,
    and those whose first indices differ as well (by inclusion-exclusion)."""
    total: dict[bytes, int] = {}
    by_first: dict[tuple, int] = {}
    by_last: dict[tuple, int] = {}
    same_both = 0
    for (g, first, last), c in reduced.items():
        total[g] = total.get(g, 0) + c
        by_first[g, first] = by_first.get((g, first), 0) + c
        by_last[g, last] = by_last.get((g, last), 0) + c
        same_both += c * c
    pairs = sum(c * c for c in total.values())
    same_first = sum(c * c for c in by_first.values())
    same_last = sum(c * c for c in by_last.values())
    return pairs - same_last, pairs - same_first - same_last + same_both


def brute_force_ladder_element(gen: GeneratorSet, n: int) -> MultiplicityVector:
    """h_n materialized term by term from its defining sum over E_n."""
    from .ladder import MultiplicityVector
    from .treepair import Level

    backend = gen.backend
    mul = backend.multiply_keys
    y = gen.keys()
    y_inv = gen.inverse_keys()
    size = len(y)
    entries = Level()

    # position i (1-based) enters inverted exactly when n - i is odd
    def rec(depth: int, prod: bytes, last: int):
        if depth == n:
            entries[prod] = entries.get(prod, 0) + 1
            return
        inverted = (n - depth - 1) % 2 == 1
        factor = y_inv if inverted else y
        for i in range(size):
            if depth and i == last:
                continue
            rec(depth + 1, mul(prod, factor[i]), i)

    rec(0, backend.identity_key(), 0)
    return MultiplicityVector(n, entries)


# ---------------------------------------------------------------------------
# group-ring identity checks (small n; signed exact convolution)


def _convolve(backend: GroupBackend, u: dict, v: dict) -> dict:
    mul = backend.multiply_keys
    out: dict[bytes, int] = {}
    get = out.get
    for ku, cu in u.items():
        for kv, cv in v.items():
            k = mul(ku, kv)
            value = get(k, 0) + cu * cv
            if value:
                out[k] = value
            else:
                out.pop(k, None)
    return out


def _scaled_sum(terms: list[tuple[int, dict]]) -> dict:
    out: dict[bytes, int] = {}
    for scale, vec in terms:
        for k, c in vec.items():
            value = out.get(k, 0) + scale * c
            if value:
                out[k] = value
            else:
                out.pop(k, None)
    return out


def _adjoint(backend: GroupBackend, u: dict) -> dict:
    inv = backend.invert_key
    return {inv(k): c for k, c in u.items()}


def _first_difference(u: dict, v: dict) -> Optional[bytes]:
    for k in sorted(set(u) | set(v)):
        if u.get(k, 0) != v.get(k, 0):
            return k
    return None


def group_ring_check(gen: GeneratorSet, m: int) -> None:
    """Verify the polynomial and convolution identities tying the ladder to
    the group ring, at level 2m:

      * h_{2m} equals the even ladder polynomial evaluated at h*h,
      * h_m* h_m expands into ladder levels with the (q-1) q^(i-1) weights,
      * the companion ladder k_n has the same 2-norm as h_n (n <= 2m).

    Raises VerificationError with the first differing key on mismatch.
    """
    from .ladder import ladder_levels
    from .polynomials import ladder_poly_even_core

    if not 1 <= m <= 4:
        raise UsageError("group-ring check supports 1 <= m <= 4")
    backend, q = gen.backend, gen.q
    e = backend.identity_key()
    levels = {vec.n: vec for vec in ladder_levels(gen, 2 * m)}

    h1 = {k: 1 for k in gen.keys()}
    hstar = _adjoint(backend, h1)
    hstar_h = _convolve(backend, hstar, h1)

    coeffs = ladder_poly_even_core(gen.q, m)
    power = {e: 1}
    acc = _scaled_sum([(coeffs[0], power)])
    for j in range(1, len(coeffs)):
        power = _convolve(backend, power, hstar_h)
        acc = _scaled_sum([(1, acc), (coeffs[j], power)])
    diff = _first_difference(acc, levels[2 * m].entries)
    if diff is not None:
        raise VerificationError(
            f"ladder level {2*m} disagrees with polynomial in h*h at key {diff.hex()}"
        )

    hm = levels[m].entries
    lhs = _convolve(backend, _adjoint(backend, hm), hm)
    terms = [(1, levels[2 * m].entries), ((q + 1) * q ** (m - 1), {e: 1})]
    for i in range(1, m):
        terms.append(((q - 1) * q ** (i - 1), levels[2 * m - 2 * i].entries))
    rhs = _scaled_sum(terms)
    diff = _first_difference(lhs, rhs)
    if diff is not None:
        raise VerificationError(
            f"h_{m}* h_{m} expansion fails at key {diff.hex()}"
        )

    for n, k_n in _companion_ladder(gen, 2 * m).items():
        knorm = sum(c * c for c in k_n.values())
        if knorm != levels[n].entries.squared_two_norm():
            raise VerificationError(f"companion ladder 2-norm differs at n={n}")


def _companion_ladder(gen: GeneratorSet, max_n: int) -> dict[int, dict]:
    """k_1 .. k_max_n: the ladder's recursion from k_0 = e with the factors
    swapped, h* at even steps and h at odd ones."""
    from .ladder import _step

    backend = gen.backend
    h1 = {k: 1 for k in gen.keys()}
    factors = (_adjoint(backend, h1), h1)
    out, prev, cur = {}, {}, {backend.identity_key(): 1}
    for n in range(max_n):
        step = _convolve(backend, factors[n % 2], cur)
        prev, cur = cur, _scaled_sum([(1, step), (-_step(gen, n)[1], prev)])
        out[n + 1] = cur
    return out


# ---------------------------------------------------------------------------
# Moebius / parity verification


def moebius(n: int) -> int:
    """Moebius function by trial division (n stays tiny here)."""
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


class MoebiusRow(NamedTuple):
    n: int
    value: int
    nonnegative: bool
    divisible: bool


class VerifyReport(Record):
    __slots__ = _fields = ("checks", "moebius_rows")

    def __init__(self, checks: Optional[list[tuple[str, bool, str]]] = None,
                 moebius_rows: Optional[list[MoebiusRow]] = None):
        self.checks = [] if checks is None else checks
        self.moebius_rows = [] if moebius_rows is None else moebius_rows

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]


def moebius_verify(table: SequenceTable) -> VerifyReport:
    """Divisibility test on the cyclic numbers plus the parity rules.

    Every backend is torsion-free, so the Moebius transform of zeta must be
    non-negative and divisible by 2n; a failure flags a computation bug
    with probability >= 1 - 1/(2n) per affected level.
    """
    report = VerifyReport()
    q = table.q
    if table.max_n >= 1:
        first = (table.xi[0], table.eta[0], table.zeta[0])
        report.add("base_case", first == (0, 0, 0) and table.m[0] == q + 1
                   and table.h2norm[0] == q + 1,
                   f"xi1,eta1,zeta1={first} m1={table.m[0]} h2norm1={table.h2norm[0]}")
    for n in range(2, table.max_n + 1):
        i = n - 1
        even = all(v % 2 == 0 for v in
                   (table.h2norm[i], table.xi[i], table.eta[i], table.zeta[i]))
        parity_m = (table.m[i] - (q + 1)) % 2 == 0
        if not (even and parity_m):
            report.add(f"parity_n{n}", False,
                       f"row {table.row(n)} violates parity rules")
    for n in range(1, table.max_n + 1):
        value = sum(
            moebius(n // d) * table.zeta[d - 1] for d in range(1, n + 1)
            if n % d == 0
        )
        row = MoebiusRow(n, value, value >= 0, value % (2 * n) == 0)
        report.moebius_rows.append(row)
        if not (row.nonnegative and row.divisible):
            report.add(f"moebius_n{n}", False,
                       f"transformed zeta = {value}, not a multiple of {2*n}")
    report.add("moebius_parity", True, "all levels checked")
    return report


def check_chain_bounds(table: SequenceTable) -> VerifyReport:
    """0 <= zeta_n <= eta_n <= xi_n <= 4 q^(2n) for every n."""
    report = VerifyReport()
    q = table.q
    for n in range(1, table.max_n + 1):
        i = n - 1
        ok = 0 <= table.zeta[i] <= table.eta[i] <= table.xi[i] <= 4 * q ** (2 * n)
        if not ok:
            report.add(f"chain_n{n}", False, f"row {table.row(n)}")
    report.add("chain_bounds", True, "")
    return report


# ---------------------------------------------------------------------------
# cogrowth diagnostics


class CogrowthRow(NamedTuple):
    n: int
    zeta_root: float
    eta_root: float
    xi_root: float
    h2_root: float
    m_root: float


def _root(value: int, k: int) -> float:
    # via logs so that integers beyond float range still work
    if value == 0:
        return 0.0
    return math.exp(math.log(value) / k)


def cogrowth_diagnostics(table: SequenceTable) -> list[CogrowthRow]:
    """2n-th roots of the sequences; they approach q exactly for amenable
    subgroups (and m_root approaches q+1), staying below otherwise."""
    rows = []
    for n in range(1, table.max_n + 1):
        i = n - 1
        rows.append(
            CogrowthRow(
                n=n,
                zeta_root=_root(table.zeta[i], 2 * n),
                eta_root=_root(table.eta[i], 2 * n),
                xi_root=_root(table.xi[i], 2 * n),
                h2_root=_root(table.h2norm[i], 2 * n),
                m_root=_root(table.m[i], 2 * n),
            )
        )
    return rows
