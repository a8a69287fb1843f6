"""Selects the tree-pair kernel at import time.

Prefers the compiled C extension (tgf._treepair, built from
src/tgf/_treepair.c); falls back to the pure-Python reference
(tgf.treepair).  Both export the same API:

  compose_keys(a, b), invert_key(a)   products and inverses of keys
  apply_left(factors, vec)            the ladder's batched
                                      multiply-and-accumulate
  inner(words, vec)                   for each word w, the sum of
                                      vec[x] * vec[w*x] over the keys x
                                      (the last-row lookahead's passes)
  load_entries(body, count)           a level from a checkpoint body

The compiled apply_left and inner multiply by a factor that is x0^±1 or
x1^±1, or a product of two of them (every factor of cases 1 and 2 and
every lookahead word), as a local edit of each reduced key of up to 26
leaves; every other product is the general one of compose_keys, which
stays the oracle.

Both kernels' apply_left and load_entries return a Level, the store of
one ladder level: keys to counts in insertion order, with get, len,
iteration over the keys and items(), and the per-level passes
subtract_scaled, squared_two_norm, coefficient_sum and dump_entries as
methods.  The pure Level is a dict with those methods (tgf.treepair.Level,
the reference).  The compiled one is read-only and compact, about 24-37
bytes per key against about 79-101 for a dict of bytes, and has no
constructor.  Each kernel's apply_left, inner and subtract_scaled walk its
own Level: the pure ones take any mapping of keys to ints, as the
reference oracle should, and the compiled ones raise TypeError on anything
but a compiled Level.  The compiled store holds counts in 1..2**32-1, a
bound reached only through an apply_left sum (OverflowError past it) and
load_entries (ValueError outside it).  Keys are checked where they enter
a level: both load_entries refuse a key that is malformed or not reduced
(TreePairError), and the compiled apply_left and inner such a factor, so
every key of a Level is canonical and the compiled walks check none.

Set TGF_PURE_PY=1 to force the fallback, e.g. for benchmarking one against
the other.  FALLBACK_REASON says why the pure kernel runs (None when the
compiled one does), and PURE_REQUESTED whether TGF_PURE_PY asked for it.
"""
import os

from . import treepair as _pure

PURE_REQUESTED = bool(os.environ.get("TGF_PURE_PY"))
FALLBACK_REASON = None
if PURE_REQUESTED:
    _impl = _pure
    FALLBACK_REASON = "TGF_PURE_PY is set"
else:
    try:
        import tgf._treepair as _impl
    except ImportError as exc:
        _impl = _pure
        FALLBACK_REASON = f"compiled kernel failed to load: {exc}"

compose_keys = _impl.compose_keys
invert_key = _impl.invert_key
apply_left = _impl.apply_left
inner = _impl.inner
load_entries = _impl.load_entries
IDENTITY_KEY = _pure.IDENTITY_KEY
IMPLEMENTATION = "c" if _impl is not _pure else "python"
