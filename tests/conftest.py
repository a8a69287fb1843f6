import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

ROOT = Path(__file__).resolve().parent.parent

from oracles import load_fixture_bounds
from tgf import formats
from tgf.ladder import case1, case2


@pytest.fixture(scope="session")
def table1():
    return formats.load_fixture_table(1)


@pytest.fixture(scope="session")
def table2():
    return formats.load_fixture_table(2)


@pytest.fixture(scope="session")
def bounds1():
    return load_fixture_bounds(1)


@pytest.fixture(scope="session")
def bounds2():
    return load_fixture_bounds(2)


@pytest.fixture(scope="session")
def gen_case1():
    return case1()


@pytest.fixture(scope="session")
def gen_case2():
    return case2()


@pytest.fixture(scope="session")
def built_lib(tmp_path_factory):
    """The package as `setup.py build` makes it from this checkout, under
    PYTHONDONTWRITEBYTECODE=1 and with its egg-info kept out of the
    checkout: bytecode for every module, and the compiled kernel where a C
    compiler is found.  Returns the lib directory."""
    out = tmp_path_factory.mktemp("package-build")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(out),
         "build", "--build-base", str(out / "build"), "--build-lib", str(out / "lib")],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        pytest.fail(f"setup.py build failed:\n{proc.stdout}\n{proc.stderr}")
    return out / "lib"


def _build_kernel(tmp_path_factory, cflags):
    """tgf._treepair built from this checkout by setup.py build_ext, with
    -Wextra -Werror and `cflags` appended to CFLAGS, and loaded under its
    own name.  Skips only when no C compiler is found; a failed build is an
    error."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(cc.split()[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernel")
    out = tmp_path_factory.mktemp("kernel-build")
    env = dict(os.environ)
    env["CFLAGS"] = " ".join(
        [env.get("CFLAGS", ""), "-Wextra -Wno-unused-parameter -Werror", cflags]).strip()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in (out / "lib" / "tgf").glob(f"_treepair{suffix}")]
    if proc.returncode != 0 or not built:
        pytest.fail(f"building tgf._treepair failed:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("tgf._treepair", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel; a new compiler warning fails its build."""
    return _build_kernel(tmp_path_factory, "")


@pytest.fixture(scope="session")
def compiled_ubsan(tmp_path_factory):
    """The compiled kernel under the undefined-behaviour sanitizer: any
    undefined behaviour it detects aborts the test process."""
    return _build_kernel(tmp_path_factory, "-fsanitize=undefined -fno-sanitize-recover=all")


@pytest.fixture(scope="session")
def builds(compiled, compiled_ubsan):
    """Both builds of the compiled kernel, for a test that checks each in
    turn under one test id."""
    return compiled, compiled_ubsan


@pytest.fixture(scope="session", params=["compiled", "compiled_ubsan"], ids=["plain", "ubsan"])
def kernel(request):
    """Each build of the compiled kernel in turn: the plain one, then the
    one under the undefined-behaviour sanitizer."""
    return request.getfixturevalue(request.param)
