"""Selects the tree-pair kernel at import time.

Prefers the compiled C extension (tgf._treepair, built from
src/tgf/_treepair.c); falls back to the pure-Python reference
(tgf.treepair).  Both export the same API: compose_keys(a, b),
invert_key(a), apply_left(factors, vec) (the ladder's batched
multiply-and-accumulate) and inner(words, vec) (for each word w, the sum
of vec[x] * vec[w*x] over the keys x, which the ladder's last-row
lookahead takes).  Set TGF_PURE_PY=1 to force the fallback, e.g. for
benchmarking one against the other.  FALLBACK_REASON says why the pure
kernel runs (None when the compiled one does), and PURE_REQUESTED whether
TGF_PURE_PY asked for it.
"""
import importlib
import os

from . import treepair as _pure

PURE_REQUESTED = bool(os.environ.get("TGF_PURE_PY"))
FALLBACK_REASON = None
if PURE_REQUESTED:
    _impl = _pure
    FALLBACK_REASON = "TGF_PURE_PY is set"
else:
    try:
        _impl = importlib.import_module("._treepair", __package__)
    except ImportError as exc:
        _impl = _pure
        FALLBACK_REASON = f"compiled kernel failed to load: {exc}"

compose_keys = _impl.compose_keys
invert_key = _impl.invert_key
apply_left = _impl.apply_left
inner = _impl.inner
IDENTITY_KEY = _pure.IDENTITY_KEY
IMPLEMENTATION = "c" if _impl is not _pure else "python"
