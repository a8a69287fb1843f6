"""Import boundaries: each subcommand loads only the modules it uses, no
runtime module loads the standard library's class-generating and
source-reading machinery (RECORD_MACHINERY), and the package's names are
served lazily.

The CLI runs in a fresh interpreter and reports its sys.modules, once on the
source tree (the pure kernel, compiled from source) and once on the package
that `setup.py build` makes (bytecode and, with a C compiler, the compiled
kernel).
"""
import ast
import importlib
import os
import subprocess
import re
import sys
from pathlib import Path

import pytest

import tgf
from tgf import cli, formats, spectral

SOURCE = Path(tgf.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# argv[1] is the file that gets tgf.__file__ and the sorted module names,
# the CLI's arguments follow
MODULES_OF = (
    "import sys\n"
    "from tgf.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write('\\n'.join([sys.modules['tgf'].__file__, *sorted(sys.modules)]))\n"
    "sys.exit(code)\n"
)

# every name that tgf/__init__.py imported eagerly before it became lazy,
# less TreePair and reduce_tree_pair, which only the tests use (oracles.py)
OLD_EXPORTS = {
    "density": ["DensityCurve", "LegendreExpansion", "evaluate_curve", "free_density",
                "free_density_curve", "free_moment_vector", "project_density",
                "tail_average"],
    "errors": ["CorruptionError", "NumericError", "ResourceError", "UsageError",
               "VerificationError"],
    "groups": ["CanonicalElement", "FreeGroup", "GeneratorLetter", "GroupBackend",
               "Lattice", "ThompsonF", "Word"],
    "ladder": ["GeneratorSet", "LadderRun", "MultiplicityVector", "build_ladder", "case1",
               "case2", "custom_f_set", "free_set", "ladder_levels",
               "lattice_set"],
    "sequences": ["SequenceTable", "brute_force_sequences", "cogrowth_diagnostics",
                  "compute_table", "group_ring_check", "m_free", "moebius_verify",
                  "table_from_ladder"],
    "spectral": ["FitParams", "HankelLadder", "JacobiCoefficients", "MomentVector",
                 "NormBoundsRow", "bounds_table", "fit_extrapolation", "gamma_cogrowth",
                 "hankel_ladder", "jacobi_coefficients", "lambda_max"],
}

KERNEL_SIDE = {"tgf._treepair", "tgf.kernel", "tgf.treepair", "tgf.groups", "tgf.ladder"}
SPECTRAL_SIDE = {"tgf.spectral", "tgf.density", "tgf.verify"}
# what `import dataclasses` loads and a tgf run must not: the records are
# typing.NamedTuple or __slots__ classes (tgf.records), which need none of
# it, and start-up is most of a short run
RECORD_MACHINERY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
RUNTIME_MODULES = sorted(f"tgf.{p.stem}" for p in (SOURCE / "tgf").glob("*.py")
                         if p.stem != "__init__")


@pytest.fixture(params=["source", "build"])
def package(request):
    """The directory that PYTHONPATH names for the CLI run."""
    if request.param == "source":
        return SOURCE
    return request.getfixturevalue("built_lib")


def modules_of(package, tmp_path, *argv) -> set[str]:
    listing = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONPATH=str(package))
    env.pop("TGF_PURE_PY", None)
    proc = subprocess.run([sys.executable, "-c", MODULES_OF, str(listing), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    where, *mods = listing.read_text().split("\n")
    assert Path(where).resolve().is_relative_to(Path(package).resolve())
    return set(mods)


def compiled_kernel_in(package) -> bool:
    return any((Path(package) / "tgf").glob("_treepair*.so")) or any(
        (Path(package) / "tgf").glob("_treepair*.pyd"))


def test_tables_loads_no_spectral_side(package, tmp_path):
    mods = modules_of(package, tmp_path, "tables", "--case=1", "--max-n=6")
    assert not mods & SPECTRAL_SIDE
    assert "mpmath" not in mods
    assert not mods & RECORD_MACHINERY
    assert {"tgf.ladder", "tgf.kernel", "tgf.sequences", "tgf.formats"} <= mods
    assert ("tgf._treepair" in mods) == compiled_kernel_in(package)


@pytest.mark.parametrize("argv", [
    ("norm", "--case=1", "--fit-window=12:37"),
    ("norm", "--moments=table.csv"),
    ("density", "--case=2", "--order=8", "--tail", "--out=d"),
    ("density", "--free", "--q=3"),
], ids=["norm-case", "norm-moments", "density-case", "density-free"])
def test_norm_and_density_load_no_kernel(package, tmp_path, argv):
    table = formats.fixture_text("table1.csv").splitlines(keepends=True)[:13]
    (tmp_path / "table.csv").write_text("".join(table))
    mods = modules_of(package, tmp_path, *argv)
    assert not mods & KERNEL_SIDE
    # only norm computes bounds, and on Python integers
    assert ("tgf.spectral" in mods) == (argv[0] == "norm")
    assert "mpmath" not in mods
    assert not mods & RECORD_MACHINERY


def test_verify_loads_both_sides(package, tmp_path):
    mods = modules_of(package, tmp_path, "verify", "--case=1", "--max-n=4",
                      "--brute-max-n=2")
    assert {"tgf.spectral", "tgf.kernel", "tgf.ladder"} <= mods
    assert "mpmath" not in mods
    assert not mods & RECORD_MACHINERY


@pytest.mark.parametrize("module", ["tgf.spectral", "tgf.verify"])
def test_spectral_layer_imports_no_mpmath(package, module):
    env = dict(os.environ, PYTHONPATH=str(package))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print({module}.__file__, 'mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.split()
    assert Path(where).resolve().is_relative_to(Path(package).resolve())
    assert loaded == "False"


@pytest.mark.parametrize("module", RUNTIME_MODULES)
def test_runtime_module_loads_no_record_machinery(package, module):
    env = dict(os.environ, PYTHONPATH=str(package))
    env.pop("TGF_PURE_PY", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print({module}.__file__, "
         f"*sorted(set(sys.modules) & {RECORD_MACHINERY!r}))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    where, *loaded = proc.stdout.split()
    assert Path(where).resolve().is_relative_to(Path(package).resolve())
    assert loaded == []


def test_no_runtime_module_mentions_dataclasses():
    for path in sorted((SOURCE / "tgf").glob("*.py")):
        assert "dataclass" not in path.read_text(), path.name


def test_bare_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tgf; print(sorted(m for m in sys.modules if m.startswith('tgf.')))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", ["tgf.groups", "tgf.ladder", "tgf.verify"])
def test_importtime_reports_every_module_that_loads(package, module):
    env = dict(os.environ, PYTHONPATH=str(package))
    env.pop("TGF_PURE_PY", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('tgf')))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # "import time: self | cumulative | name", the name indented by depth;
    # a failed import (a missing compiled kernel) has its line too
    reported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"tgf.kernel", "tgf.treepair", "tgf._treepair"} <= reported
    assert set(proc.stdout.split()) <= reported


def test_old_exports_resolve_to_their_module_objects():
    for module, names in OLD_EXPORTS.items():
        mod = importlib.import_module(f"tgf.{module}")
        for name in names:
            assert getattr(tgf, name) is getattr(mod, name), name
            assert name in dir(tgf)
    assert tgf.KERNEL_IMPLEMENTATION == importlib.import_module("tgf.kernel").IMPLEMENTATION
    assert tgf.__version__ == "0.1.0"
    assert tgf.formats is importlib.import_module("tgf.formats")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tgf.no_such_name
    for name in ("raise_if_failed", "TreePair", "reduce_tree_pair"):
        assert not hasattr(tgf, name), name
    with pytest.raises(ImportError):
        from tgf import no_such_name  # noqa: F401


def test_precision_default_matches_spectral():
    assert cli.DEFAULT_PRECISION_BITS == spectral.DEFAULT_PRECISION_BITS
    args = cli.build_parser().parse_args(["norm"])
    assert args.precision_bits == spectral.DEFAULT_PRECISION_BITS


def unused_imports(path: Path) -> list[str]:
    """`line: name` for each name that a module imports and never uses.  A
    use is any Name node, the root of an attribute chain included; an
    import line marked `# noqa` is left alone."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", [
    *sorted((SOURCE / "tgf").glob("*.py")), *sorted(TESTS.glob("*.py")),
], ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_unused_imports_sees_names_roots_and_noqa(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "system.exit(os.sep)\n"
    )
    assert unused_imports(module) == ["5: dumps"]


def unreferenced_definitions(package: Path, pyproject: Path) -> list[str]:
    """`module.name` for each public module-level function or class of the
    package's modules that no module of the package names outside its own
    definition (as a name, an attribute or an imported name), unless
    `_EXPORTS` in its __init__.py or an entry point in pyproject lists it."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    listed = set()
    for node in ast.walk(trees["__init__"]):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            listed |= {name for names in ast.literal_eval(node.value).values() for name in names}
    # an entry point is a "module:attribute" string
    listed |= set(re.findall(r'"[\w.]+:(\w+)"', pyproject.read_text()))

    def names_in(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.asname or sub.name

    statements = [(module, stmt) for module, tree in trees.items() for stmt in tree.body]
    uses = [(stmt, set(names_in(stmt))) for _, stmt in statements]
    dead = []
    for module, stmt in statements:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_") and stmt.name not in listed
                and not any(stmt.name in names for other, names in uses if other is not stmt)):
            dead.append(f"{module}.{stmt.name}")
    return dead


def test_every_public_definition_is_used():
    assert unreferenced_definitions(SOURCE / "tgf", SOURCE.parent / "pyproject.toml") == []


def test_unreferenced_definitions_sees_uses_exports_and_entry_points(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('_EXPORTS = {"a": ("Exported",)}\n')
    (package / "a.py").write_text(
        "class Exported:\n    pass\n"
        "def main():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def called():\n    pass\n"
        "def _private():\n    pass\n"
    )
    (package / "b.py").write_text(
        "from .a import called\nfrom . import a\n"
        "def used_by_attribute():\n    called()\n"
        "VALUE = a.used_by_attribute\n"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\npkg = "pkg.a:main"\n')
    assert unreferenced_definitions(package, pyproject) == ["a.recursive"]
