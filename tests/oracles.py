"""Independent test oracles.

Exact piecewise-linear dyadic maps over Fractions serve as an off-line
oracle for Thompson-group arithmetic: a tree pair is converted to its
breakpoint list and composition/inversion happen on the maps themselves,
with no shared code with the library's tree-pair kernel.  A quadratic-scan
word reducer plays the same role for the free-group backend.  The Chebyshev
polynomials T_n and U_n give closed forms for the ladder polynomials.
"""
from fractions import Fraction as Fr
from functools import lru_cache

from tgf import treepair
from tgf.polynomials import poly_add, poly_shift_scale


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
