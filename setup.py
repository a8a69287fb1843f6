"""Build hook for the optional compiled tree-pair kernel.

The package is pure Python plus one hand-written CPython extension
(tgf._treepair, src/tgf/_treepair.c) that accelerates composition in
Thompson's group F.  It needs only a C compiler and the Python headers.
The extension is optional: if it cannot be built the build still succeeds
and the package falls back to the pure-Python kernel at import time.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("tgf._treepair", ["src/tgf/_treepair.c"], optional=True)])
