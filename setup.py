"""Build hook for the optional compiled tree-pair kernel and the bytecode.

The package is pure Python plus one hand-written CPython extension
(tgf._treepair, src/tgf/_treepair.c) that accelerates composition in
Thompson's group F.  It needs only a C compiler and the Python headers.
The extension is optional: if it cannot be built the build still succeeds
and the package falls back to the pure-Python kernel at import time.

build_py also writes each built module's bytecode (__pycache__/*.pyc),
even when PYTHONDONTWRITEBYTECODE is set, where setuptools would skip it:
a tgf command is a short run, and compiling its modules from source would
be most of its start-up.  The bytecode is optimisation level 0, so every
assert stays, and is checked against the source's timestamp on import.
"""
import importlib.util
import py_compile

from setuptools import Extension, setup
from setuptools.command.build_py import build_py


class build_py_bytecode(build_py):
    def byte_compile(self, files):
        for path in files:
            if path.endswith(".py"):
                py_compile.compile(
                    path, cfile=importlib.util.cache_from_source(path, optimization=""),
                    doraise=True, optimize=0,
                    invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)


setup(
    cmdclass={"build_py": build_py_bytecode},
    ext_modules=[Extension("tgf._treepair", ["src/tgf/_treepair.c"], optional=True)],
)
