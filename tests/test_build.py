"""The build writes bytecode: `setup.py build_py` compiles every module at
optimisation level 0 even under PYTHONDONTWRITEBYTECODE=1, and writes
nothing into the checkout."""
import importlib.util
import marshal
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tgf").glob("*.py"))


def snapshot(root: Path) -> dict:
    """Every path under root except .git, with its size and mtime."""
    out = {}
    for path in root.rglob("*"):
        if ".git" in path.relative_to(root).parts:
            continue
        st = path.lstat()
        out[path] = (st.st_size, st.st_mtime_ns)
    return out


def test_build_py_writes_level_0_bytecode(tmp_path):
    lib = tmp_path / "lib"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    before = snapshot(ROOT)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path),
         "build_py", "--build-lib", str(lib)],
        cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert snapshot(ROOT) == before

    assert len(SOURCES) >= 13
    for source in SOURCES:
        built = lib / "tgf" / source.name
        pyc = Path(importlib.util.cache_from_source(str(built)))
        assert pyc.is_file(), pyc
        data = pyc.read_bytes()
        magic, flags, mtime, size = data[:4], *struct.unpack("<III", data[4:16])
        assert magic == importlib.util.MAGIC_NUMBER
        assert flags == 0  # checked against the source's timestamp
        st = built.stat()
        assert (mtime, size) == (int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        text = built.read_bytes()
        assert marshal.loads(data[16:]) == compile(text, str(built), "exec",
                                                   dont_inherit=True, optimize=0)
    # the comparison tells the levels apart: polynomials.py holds an assert
    polynomials = lib / "tgf" / "polynomials.py"
    code = marshal.loads(Path(importlib.util.cache_from_source(str(polynomials))).read_bytes()[16:])
    assert code != compile(polynomials.read_bytes(), str(polynomials), "exec",
                           dont_inherit=True, optimize=1)
