"""CLI contract: subcommands, exit codes, deterministic output bytes."""
import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import tgf
from oracles import give_one_to_a_twin, unreduced_twin
from tgf.cli import main
from tgf.formats import CHECKPOINT_HEADER, CHECKPOINT_MAGIC, parse_table_csv, write_checkpoint
from tgf.ladder import free_set, ladder_levels


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_case2_single_row(capsys):
    code, out, _ = run_cli(capsys, "tables", "--case=2", "--max-n=1")
    assert code == 0
    assert out.splitlines() == ["n,h2norm,xi,eta,zeta,m", "1,4,0,0,0,4"]


def test_tables_case1_row8(capsys):
    code, out, _ = run_cli(capsys, "tables", "--case=1", "--max-n=8")
    assert code == 0
    assert out.splitlines()[8] == "8,400,16,16,16,1144015"


def test_tables_free_zeta_column_zero(capsys):
    code, out, _ = run_cli(capsys, "tables", "--case=free", "--q=2", "--max-n=6")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[4] == "0" for row in rows)


@pytest.mark.parametrize("case", [
    ["--case=2"], ["--case=free", "--q=2"], ["--case=lattice", "--d=2"],
    ["--case=custom", "--words=A,B,ab"],
], ids=["case2", "free2", "lattice2", "custom"])
def test_tables_resume_matches_fresh_run(capsys, tmp_path, case):
    ckdir = tmp_path / "ck"
    fresh = tmp_path / "fresh.csv"
    resumed = tmp_path / "resumed.csv"
    assert main(["tables", *case, "--max-n=5", f"--checkpoint-dir={ckdir}"]) == 0
    assert main(["tables", *case, "--max-n=7", f"--checkpoint-dir={ckdir}",
                 f"--out={resumed}"]) == 0
    assert main(["tables", *case, "--max-n=7", f"--out={fresh}"]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    # row 7 comes from the lookahead over level 6, which is not stored
    assert sorted(p.name for p in ckdir.glob("*.tgfl")) == [
        f"level_{n:04d}.tgfl" for n in range(1, 7)
    ]


def test_tables_custom_words(capsys):
    # Y = {A, B} in F exercises word parsing and the q = 1 path
    code, out, _ = run_cli(capsys, "tables", "--case=custom", "--words=A,B", "--max-n=4")
    assert code == 0
    assert out.splitlines()[1].startswith("1,2,")


def test_norm_free_moments(capsys):
    code, out, _ = run_cli(capsys, "norm", "--free", "--q=2", "--order=40")
    assert code == 0
    lams = [float(line.split(",")[3]) for line in out.splitlines()[1:41]]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 2 * 2**0.5  # monotone toward 2 sqrt 2 from below


def test_usage_errors_exit_1(capsys, tmp_path):
    header_only = tmp_path / "empty.csv"
    header_only.write_text("n,h2norm,xi,eta,zeta,m\n")
    bad_moment = tmp_path / "bad.txt"
    bad_moment.write_text("1 3\n2 x\n")
    missing = tmp_path / "missing.txt"
    no_newline = tmp_path / "header.csv"
    no_newline.write_text("n,h2norm,xi,eta,zeta,m")
    assert run_cli(capsys, "tables", "--case=nope")[0] == 1
    assert run_cli(capsys, "tables", "--case=custom")[0] == 1
    assert run_cli(capsys, "norm")[0] == 1
    assert run_cli(capsys, "density", "--case=1", "--order=40")[0] == 1
    for source in (["--case=1"], ["--free", "--q=2"]):
        for order in ("0", "-1"):
            assert run_cli(capsys, "norm", *source, f"--order={order}") == (
                1, "", "error: --order must be >= 1\n")
    # a bad window exits before any of the bounds is written
    for window, says in [("0:30", "n = 1..37"), ("12:60", "n = 1..37"), ("a:b", "lo:hi"),
                         ("20:12", "7 levels"), ("1:1", "7 levels")]:
        code, out, err = run_cli(capsys, "norm", "--case=1", f"--fit-window={window}")
        assert code == 1 and out == "" and says in err
    for path, says in [(header_only, "no rows"), (bad_moment, "line 2"),
                       (missing, "No such file"), (no_newline, "no rows")]:
        code, _, err = run_cli(capsys, "norm", f"--moments={path}")
        assert code == 1
        assert err.startswith(f"error: {path}: ") and says in err
    # a free rank below 1, a range that is not lo:hi, and a grid bound or
    # step that is not finite
    for command, args, says in [
            *((name, ["--free", f"--q={q}"], "--q must be >= 1")
              for name in ("density", "norm") for q in (-1, 0)),
            ("density", ["--case=1", "--range=abc"], "--range wants lo:hi, got 'abc'"),
            ("density", ["--free", "--range=1:2:3"], "--range wants lo:hi, got '1:2:3'"),
            ("density", ["--case=1", "--step=nan"], "need finite lo, hi and step"),
            ("density", ["--case=1", "--range=nan:1"], "need finite lo, hi and step"),
            ("density", ["--free", "--range=-inf:1"], "need finite lo, hi and step")]:
        assert run_cli(capsys, command, *args, f"--out={tmp_path}/d") == (
            1, "", f"error: {says}\n")
    assert not list(tmp_path.glob("d*"))
    with pytest.raises(SystemExit) as info:
        main(["tables", "--threads=2"])  # unknown option
    assert info.value.code == 1


@pytest.mark.parametrize("argv, culprit", [
    (["tables", "--case=1", "--max-n=3", "--out={tmp}/missing/t.csv"], "{tmp}/missing/t.csv"),
    (["norm", "--case=1", "--out={tmp}/missing/b.csv"], "{tmp}/missing/b.csv"),
    (["density", "--case=1", "--order=4", "--out={tmp}/missing/d"], "{tmp}/missing/d-rho4.csv"),
    (["tables", "--case=1", "--max-n=3", "--checkpoint-dir={tmp}/file"], "{tmp}/file"),
    (["tables", "--case=2", "--max-n=6", "--checkpoint-dir={tmp}/ck"],
     "{tmp}/ck/level_0003.tgfl"),
], ids=["tables-out", "norm-out", "density-out", "checkpoint-dir-is-a-file",
        "checkpoint-is-a-directory"])
def test_file_system_errors_exit_1(capsys, tmp_path, argv, culprit):
    # a path that cannot be written or read names itself, without a traceback
    (tmp_path / "file").write_text("")
    ckdir = tmp_path / "ck"
    assert main(["tables", "--case=2", "--max-n=4", f"--checkpoint-dir={ckdir}"]) == 0
    (ckdir / "level_0003.tgfl").unlink()
    (ckdir / "level_0003.tgfl").mkdir()
    capsys.readouterr()
    code, out, err = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"error: {culprit.format(tmp=tmp_path)}: ")
    assert "Traceback" not in err


def test_closed_stdout_exits_1(capsys, monkeypatch):
    # `tgf norm | head -1` closes the pipe while the bounds are written
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["norm", "--case=1"]) == 1
    assert capsys.readouterr().err == "error: Broken pipe\n"


def test_threads_env_default(capsys, monkeypatch):
    # the ladder has one sequential path: TGF_THREADS selects nothing
    monkeypatch.delenv("TGF_THREADS", raising=False)
    expected = run_cli(capsys, "tables", "--case=1", "--max-n=5")
    assert expected[0] == 0
    for value in ("2", "zebra"):
        monkeypatch.setenv("TGF_THREADS", value)
        assert run_cli(capsys, "tables", "--case=1", "--max-n=5") == expected


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["tables", "--max-n"])  # missing value
    assert info.value.code == 1


def _restamp_crc(data):
    """Rewrites the body CRC of checkpoint bytes after an edit of the body."""
    end = CHECKPOINT_HEADER.size
    data[end - 4 : end] = struct.pack("<I", zlib.crc32(data[end:]))


def _body_entries(data):
    """(key offset, key length, magnitude offset, magnitude length) of each
    entry in checkpoint bytes."""
    at, entries = CHECKPOINT_HEADER.size, []
    while at < len(data):
        key_len = int.from_bytes(data[at : at + 2], "little")
        mag_at = at + 7 + key_len
        mag_len = int.from_bytes(data[mag_at - 4 : mag_at], "little")
        entries.append((at + 2, key_len, mag_at, mag_len))
        at = mag_at + mag_len
    return entries


def _overwrite_last_key(path):
    # all 0xff still sorts last, and the CRC is valid, so that the key
    # check refuses the file
    data = bytearray(path.read_bytes())
    key_at, key_len, _, _ = _body_entries(data)[-1]
    data[key_at : key_at + key_len] = b"\xff" * key_len
    _restamp_crc(data)
    path.write_bytes(bytes(data))


def _repeat_first_entry(path):
    # one more entry in the header's count, under a valid CRC
    data = bytearray(path.read_bytes())
    _, _, mag_at, mag_len = _body_entries(data)[0]
    fields = list(CHECKPOINT_HEADER.unpack_from(data))
    fields[4] += 1
    size = CHECKPOINT_HEADER.size
    data = bytearray(CHECKPOINT_HEADER.pack(*fields)) + data[size : mag_at + mag_len] + data[size:]
    _restamp_crc(data)
    path.write_bytes(bytes(data))


def _raise_first_count_by_2(path):
    data = bytearray(path.read_bytes())
    _, _, mag_at, mag_len = _body_entries(data)[0]
    data[mag_at + mag_len - 1] += 2
    _restamp_crc(data)
    path.write_bytes(bytes(data))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:40])


def _free_group_level(path):
    # same q = 2, so only the keys tell the levels apart
    *_, level = ladder_levels(free_set(2), 4)
    write_checkpoint(path.parent, free_set(2), level)


@pytest.mark.parametrize("level, corrupt", [
    (4, _overwrite_last_key), (4, _truncate), (4, _free_group_level),
    (3, _overwrite_last_key),
], ids=["key-bytes-ff", "truncated", "free-group-keys", "lower-key-bytes-ff"])
def test_corrupt_checkpoint_exits_1(capsys, tmp_path, level, corrupt):
    # levels 1..4 are stored, and a resume to n = 6 reads them in order;
    # level 3 is only subtracted and summed, never composed
    ckdir = tmp_path / "ck"
    assert main(["tables", "--case=1", "--max-n=5", f"--checkpoint-dir={ckdir}"]) == 0
    corrupt(ckdir / f"level_{level:04d}.tgfl")
    code, out, err = run_cli(capsys, "tables", "--case=1", "--max-n=6",
                             f"--checkpoint-dir={ckdir}")
    assert code == 1
    assert err.splitlines()[-1].startswith("error: ")
    assert f"level_{level:04d}.tgfl" in err
    assert "Traceback" not in err


def _flip_body_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def _downgrade_to_version_1(path):
    # version 1: the same body after magic, version, level, q and count
    data = path.read_bytes()
    _, _, n, q, count, _, _ = CHECKPOINT_HEADER.unpack_from(data)
    head = CHECKPOINT_MAGIC + struct.pack("<IIIQ", 1, n, q, count)
    path.write_bytes(head + data[CHECKPOINT_HEADER.size:])


def _copy_of_level(n):
    """Overwrites a checkpoint with that of level n, a valid file that holds
    another level than its name gives."""
    def corrupt(path):
        shutil.copyfile(path.with_name(f"level_{n:04d}.tgfl"), path)
    return corrupt


@pytest.mark.parametrize("case, corrupt, level, says", [
    (["--case=custom", "--words=A,a,B"], None, 1, "another generator set"),
    (["--case=1"], _flip_body_byte, 6, "CRC32"),
    (["--case=1"], _downgrade_to_version_1, 6, "version 1"),
    (["--case=1"], _repeat_first_entry, 6, "strictly increasing order"),
    (["--case=1"], _repeat_first_entry, 3, "strictly increasing order"),
    (["--case=1"], _raise_first_count_by_2, 6, "coefficient sum"),
    (["--case=1"], _raise_first_count_by_2, 3, "coefficient sum"),
    (["--case=1"], _copy_of_level(4), 5, "holds level 4, not 5"),
    (["--case=1"], _copy_of_level(1), 2, "holds level 1, not 2"),
], ids=["other-generators", "bad-crc", "version-1", "repeated-key", "lower-repeated-key",
        "count-off", "lower-count-off", "other-level", "lower-other-level"])
def test_refused_checkpoint_exits_1(capsys, tmp_path, case, corrupt, level, says):
    # case 1 to n = 7 stores levels 1..6, and a run to n = 9 reads them in
    # order, so level 1 is the first that {A, a, B}, with the same q = 2
    # as case 1, refuses
    ckdir = tmp_path / "ck"
    assert run_cli(capsys, "tables", "--case=1", "--max-n=7", f"--checkpoint-dir={ckdir}")[0] == 0
    if corrupt is not None:
        corrupt(ckdir / f"level_{level:04d}.tgfl")
    code, out, err = run_cli(capsys, "tables", *case, "--max-n=9",
                             f"--checkpoint-dir={ckdir}")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(f"error: {ckdir / f'level_{level:04d}.tgfl'}: ")
    assert says in err and "Traceback" not in err


@pytest.mark.parametrize("kept, says", [
    ([1, 2, 3, 4, 5, 7], "error: checkpoint level 6 missing from {ckdir}; "),
    ([1], "error: {ckdir}/level_0001.tgfl: "),
], ids=["gap-below-truncated-level", "lone-truncated-level-1"])
def test_unread_checkpoint_is_never_overwritten(capsys, tmp_path, kept, says):
    # a run to n = 9 reads levels 1, 2, ... while their files exist and
    # never overwrites a file it has not read: after the gap at level 6 it
    # would have to build level 7 over the unread file, and a lone level 1
    # is read, and refused, before anything is built
    ckdir = tmp_path / "ck"
    assert run_cli(capsys, "tables", "--case=1", "--max-n=8", f"--checkpoint-dir={ckdir}")[0] == 0
    for n in range(1, 8):
        if n not in kept:
            (ckdir / f"level_{n:04d}.tgfl").unlink()
    _truncate(ckdir / f"level_{kept[-1]:04d}.tgfl")
    before = {p.name: p.read_bytes() for p in ckdir.iterdir()}
    code, out, err = run_cli(capsys, "tables", "--case=1", "--max-n=9",
                             f"--checkpoint-dir={ckdir}")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(says.format(ckdir=ckdir))
    assert {p.name: p.read_bytes() for p in ckdir.iterdir()} == before


def test_refused_lattice_key_exits_1(capsys, tmp_path):
    # the last key of level 4 loses its last varint byte to a continuation
    # bit, under a valid CRC and still sorting last; the resume to n = 6
    # reads levels 1..4
    ckdir = tmp_path / "ck"
    assert run_cli(capsys, "tables", "--case=lattice", "--max-n=5",
                   f"--checkpoint-dir={ckdir}")[0] == 0
    path = ckdir / "level_0004.tgfl"
    data = bytearray(path.read_bytes())
    key_at, key_len, _, _ = _body_entries(data)[-1]
    data[key_at + key_len - 1] |= 0x80
    _restamp_crc(data)
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "tables", "--case=lattice", "--max-n=6",
                             f"--checkpoint-dir={ckdir}")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: {path}: truncated Z^2 key"
    assert "Traceback" not in err


def test_refused_free_key_exits_1(capsys, tmp_path):
    # the last key of level 4 gets the letter 0x7f (index 63 of a rank-2
    # group) as its last byte, under a valid CRC and still sorting last;
    # the resume to n = 6 reads levels 1..4
    ckdir = tmp_path / "ck"
    assert run_cli(capsys, "tables", "--case=free", "--q=2", "--max-n=5",
                   f"--checkpoint-dir={ckdir}")[0] == 0
    path = ckdir / "level_0004.tgfl"
    data = bytearray(path.read_bytes())
    key_at, key_len, _, _ = _body_entries(data)[-1]
    data[key_at + key_len - 1] = 0x7F
    _restamp_crc(data)
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "tables", "--case=free", "--q=2", "--max-n=6",
                             f"--checkpoint-dir={ckdir}")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: {path}: letter index 63 out of range for free_2"
    assert "Traceback" not in err


@pytest.fixture(params=["compiled", "pure"])
def kernel_env(request):
    """The environment of a CLI child on one kernel: the compiled one, as
    `setup.py build` makes the package, or the pure one."""
    if request.param == "pure":
        return dict(os.environ, PYTHONPATH=str(Path(tgf.__file__).resolve().parents[1]),
                    TGF_PURE_PY="1")
    lib = request.getfixturevalue("built_lib")
    if not list((lib / "tgf").glob("_treepair*")):
        pytest.skip("setup.py build made no compiled kernel")
    env = dict(os.environ, PYTHONPATH=str(lib))
    env.pop("TGF_PURE_PY", None)
    return env


def _run_in(env, *argv, address_space=None):
    """The CLI in a fresh interpreter with environment env, with its
    address space limited to `address_space` bytes in the child only."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "tgf.cli", *argv], env=env,
                          preexec_fn=limit if address_space else None,
                          capture_output=True, text=True, timeout=120)


def test_unreduced_twin_in_a_checkpoint_exits_1(tmp_path, kernel_env):
    # case 2 to n = 7 stores levels 1..6; level 6 then stores an element
    # under a second, unreduced key, with the same coefficient sum, and a
    # run to n = 8 builds on from it
    ckdir = tmp_path / "ck"
    proc = _run_in(kernel_env, "tables", "--case=2", "--max-n=7", f"--checkpoint-dir={ckdir}")
    assert (proc.returncode, proc.stderr) == (0, "")
    path = ckdir / "level_0006.tgfl"
    give_one_to_a_twin(path, unreduced_twin)
    proc = _run_in(kernel_env, "tables", "--case=2", "--max-n=8", f"--checkpoint-dir={ckdir}")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {path}: tree-pair key is not reduced\n"


def _address_space_in_use(env):
    """The bytes of address space a CLI child on env has after its imports."""
    proc = subprocess.run(
        [sys.executable, "-c", "import tgf.cli, tgf.formats, tgf.ladder, tgf.sequences\n"
         "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak')))"],
        env=env, capture_output=True, text=True, check=True)
    return int(proc.stdout) * 1024


def test_memory_wall_exits_3(tmp_path, kernel_env, table2):
    # 8 MiB past the child's start-up hold case 2 to about n = 10, on
    # either kernel: the run stops at the level that does not fit with one
    # error line, and the levels it wrote before that resume
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc to size the address space")
    ckdir = tmp_path / "ck"
    proc = _run_in(kernel_env, "tables", "--case=2", "--max-n=16", f"--checkpoint-dir={ckdir}",
                   address_space=_address_space_in_use(kernel_env) + (8 << 20))
    assert (proc.returncode, proc.stdout) == (3, "")
    said = re.fullmatch(f"error: out of memory at level ([0-9]+); {re.escape(str(ckdir))} holds "
                        "levels 1..([0-9]+), from which a run with more memory goes on\n",
                        proc.stderr)
    assert said, proc.stderr
    last = int(said[2])
    assert 3 <= last == int(said[1]) - 1
    proc = _run_in(kernel_env, "tables", "--case=2", f"--max-n={last + 1}",
                   f"--checkpoint-dir={ckdir}")
    assert (proc.returncode, proc.stderr) == (0, "")
    table = parse_table_csv(proc.stdout)
    assert [table.row(n) for n in range(1, last + 2)] == [table2.row(n) for n in range(1, last + 2)]


def test_norm_case1_fixture(capsys, tmp_path):
    out = tmp_path / "bounds.csv"
    code, stdout, _ = run_cli(
        capsys, "norm", "--case=1", "--order=12", f"--out={out}"
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[12].startswith("12,2.48403,2.69756,2.78200,1.44610,2.86343")
    # lambda_max(M_12) has not yet crossed 2 sqrt 2, so gamma is undefined
    assert "# gamma undefined" in stdout


def test_norm_gamma_defined_at_full_depth(capsys):
    code, out, _ = run_cli(capsys, "norm", "--case=1")
    assert code == 0
    gamma_line = [l for l in out.splitlines() if "gamma from best" in l][0]
    assert gamma_line.endswith("1.66996")


def test_norm_moments_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("".join(f"{n} {m}\n" for n, m in
                            [(1, 3), (2, 15), (3, 87), (4, 543)]))
    code, out, _ = run_cli(capsys, "norm", f"--moments={path}")
    assert code == 0
    assert out.splitlines()[0] == "n,root_moment,ratio_root,lambda_max,alpha,alpha_sum"
    assert out.splitlines()[1].startswith("1,1.73205,")


def test_norm_fit_window(capsys):
    code, out, _ = run_cli(capsys, "norm", "--case=2", "--order=24",
                           "--fit-window=8:24")
    assert code == 0
    fit_line = [l for l in out.splitlines() if l.startswith("# fit")][0]
    assert "a=3.870" in fit_line
    assert "residual=" in fit_line


def test_norm_fit_imports_neither_scipy_nor_numpy():
    # a fresh interpreter, so that no other test's imports are counted
    script = (
        "import sys\n"
        "from tgf.cli import main\n"
        "code = main(['norm', '--case=1', '--fit-window=12:37'])\n"
        "print('heavy:', sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tgf.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert ("# fit f(n)=a-b(n-c)^-d on [12,37]: a=2.950 b=0.630 c=1.901 "
            "d=0.571 residual=1.711e-08") in lines
    assert lines[-1] == "heavy: []"


def test_norm_fit_below_the_free_edge_for_q1_says_gamma_undefined(capsys):
    # for q = 1, 2 sqrt q = q + 1 = 2, and a fit that approaches 2 from below
    # has no gamma; the bounds and the fit are still printed
    code, out, err = run_cli(capsys, "norm", "--free", "--q=1", "--fit-window=1:7")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + 30 + 5
    assert lines[-2].startswith("# fit f(n)=a-b(n-c)^-d on [1,7]: a=1.999 ")
    assert lines[-1] == "# gamma undefined: fitted norm 1.99917 still below 2 sqrt(q) = 2.00000"


def _run_cli_subprocess(*argv, timeout=60):
    """The CLI in a fresh interpreter, killed after `timeout` seconds, so a
    command that would never end fails the test instead of hanging it."""
    env = dict(os.environ, PYTHONPATH=str(Path(tgf.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "tgf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("bits", [0, -5, 8, 20, 40, 41])
def test_norm_precision_too_low_exits_1(bits):
    # below 42 bits the floats near the Schur bound 3.146 lie more than the
    # default tolerance 1e-12 apart, so the bisection could never end
    proc = _run_cli_subprocess("norm", "--case=1", f"--precision-bits={bits}")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert f"error: {bits}-bit precision cannot bisect to tolerance 1e-12" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_precision_too_low_exits_1():
    proc = _run_cli_subprocess("verify", "--case=1", "--max-n=6", "--precision-bits=16")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "need at least 42 bits" in proc.stderr


@pytest.mark.parametrize("order", ["-1", "-2", "-40"])
def test_density_order_below_0_exits_1(capsys, tmp_path, order):
    # order 0 is the constant density; below it there is no projection
    for source in (["--case=1"], ["--case=2", "--tail"], ["--free"]):
        assert run_cli(capsys, "density", *source, f"--order={order}",
                       f"--out={tmp_path}/d") == (1, "", "error: --order must be >= 0\n")
    assert not list(tmp_path.glob("d*"))
    assert run_cli(capsys, "density", "--case=1", "--order=0", f"--out={tmp_path}/d")[0] == 0


@pytest.mark.parametrize("args", [
    ["--free", "--step=1e-9"],
    ["--case=1", "--step=1e-320"],
    ["--case=2", "--order=6", "--tail", "--range=0:4", "--step=1e-6"],
], ids=["free", "step-underflows", "tail"])
def test_density_grid_past_its_bound_exits_3(tmp_path, args):
    # refused before the grid is allocated, so the process stays small; in a
    # fresh interpreter, as a grid that was built would exhaust memory
    proc = _run_cli_subprocess("density", *args, f"--out={tmp_path}/d")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: a grid from ") and proc.stderr.count("\n") == 1
    assert "more than 1000000 points" in proc.stderr
    assert not list(tmp_path.glob("d*"))


def test_norm_degenerate_moments_exit_3(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 1\n2 1\n3 1\n")  # two-point measure: finite support
    code, out, err = run_cli(capsys, "norm", f"--moments={path}")
    assert code == 3
    assert "degenerate" in err


def test_density_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "density", "--case=1", "--order=8",
                           "--range=0:3", "--out=d")
    assert code == 0
    rho = (tmp_path / "d-rho8.csv").read_text().splitlines()
    assert rho[1] == "t,rho"
    assert len(rho) == 2 + 301
    assert (tmp_path / "d-free.csv").exists()


def test_density_full_order_grid(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "density", "--case=1", "--order=37",
                           "--range=0:3", "--out=full")
    assert code == 0
    lines = (tmp_path / "full-rho37.csv").read_text().splitlines()
    assert len(lines) == 2 + 301  # label, header, 301 grid rows at step 0.01


REFERENCE_CURVES = Path(__file__).resolve().parent.parent / "tgfbench" / "reference"


@pytest.mark.parametrize("argv, names", [
    (["--case=1", "--order=37", "--range=0:3"], ["density-rho37.csv", "density-free.csv"]),
    (["--case=2", "--order=24", "--tail", "--range=3.464:4"],
     ["density-rho23.csv", "density-rho24.csv", "density-tail-avg.csv"]),
], ids=["case1", "case2-tail"])
def test_density_curves_equal_the_reference_bytes(capsys, tmp_path, monkeypatch, argv, names):
    # the curves that the benchmark's analysis workload checks, byte for byte
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "density", *argv)
    assert code == 0
    assert out.splitlines() == [f"wrote {name}" for name in names]
    for name in names:
        assert (tmp_path / name).read_bytes() == (REFERENCE_CURVES / name).read_bytes(), name


def test_tables_verification_failure_exits_2(capsys, monkeypatch):
    from tgf import sequences

    def fake_verify(table):
        report = sequences.VerifyReport()
        report.add("moebius_n2", False, "injected")
        return report

    # cmd_tables imports moebius_verify from tgf.sequences when it runs
    monkeypatch.setattr(sequences, "moebius_verify", fake_verify)
    code, out, err = run_cli(capsys, "tables", "--case=1", "--max-n=3")
    assert code == 2
    assert "verification failed" in err


def test_density_tail_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "density", "--case=2", "--order=6", "--tail",
                           "--range=3.464:4", "--step=0.01", "--out=t")
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["t-rho5.csv", "t-rho6.csv", "t-tail-avg.csv"]


def test_density_free_curve(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "density", "--free", "--q=2",
                           "--range=-2.83:2.83", "--out=f")
    assert code == 0
    lines = (tmp_path / "f-free-q2.csv").read_text().splitlines()
    assert lines[1] == "t,rho"
    assert len(lines) == 2 + 567


def test_verify_small_case1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case=1", "--max-n=6",
                           "--brute-max-n=3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "brute_force_equivalence" in names
    assert "transform_roundtrips" in names
    assert any(row["divisible_by_2n"] for row in payload["moebius"])


def test_verify_lattice(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case=lattice", "--d=2",
                           "--max-n=6", "--brute-max-n=3")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_verify_brute_depth_below_one_is_usage_error(capsys, depth):
    code, out, err = run_cli(capsys, "verify", "--case=1", "--max-n=6",
                             f"--brute-max-n={depth}")
    assert code == 1
    assert out == ""
    assert err.endswith(f"error: brute_max_n must be >= 1, got {depth}\n")


def test_verify_brute_depth_over_budget_is_resource_failure(capsys, monkeypatch):
    import tgf.verify

    # refused before any ladder level is built
    calls = []
    real = tgf.verify.build_ladder
    monkeypatch.setattr(tgf.verify, "build_ladder",
                        lambda *args: calls.append(args) or real(*args))
    code, out, err = run_cli(capsys, "verify", "--case=free", "--q=2",
                             "--max-n=9", "--brute-max-n=9")
    assert code == 3
    assert out == ""
    assert err == "error: enumeration of 3^18 words exceeds budget 100000000\n"
    assert calls == []


@pytest.mark.parametrize("argv, depth", [
    (("--case=1", "--max-n=6"), 5),
    (("--case=custom", "--words=Ab,bA,AB", "--max-n=6"), 5),
    (("--case=2", "--max-n=5"), 4),
])
def test_verify_default_brute_depth(capsys, argv, depth):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["brute_force_equivalence"] == {
        "name": "brute_force_equivalence", "ok": True,
        "detail": f"definitions match pipeline for n <= {depth}"}


@pytest.mark.parametrize("argv", [
    ("tables", "--case=1", "--max-n=5"),
    ("verify", "--case=2", "--max-n=4", "--brute-max-n=2"),
])
def test_pure_kernel_fallback_noted_on_stderr_only(capsys, monkeypatch, argv):
    from tgf import kernel

    runs = {}
    for label, reason, requested in [
        ("compiled", None, False),
        ("fallback", "compiled kernel failed to load: no module", False),
        ("requested", "TGF_PURE_PY is set", True),
    ]:
        monkeypatch.setattr(kernel, "FALLBACK_REASON", reason)
        monkeypatch.setattr(kernel, "PURE_REQUESTED", requested)
        runs[label] = run_cli(capsys, *argv)
    assert runs["compiled"][0] == 0
    assert runs["compiled"][2] == runs["requested"][2] == ""
    assert runs["fallback"][2] == (
        "note: using the pure-Python tree-pair kernel "
        "(compiled kernel failed to load: no module)\n"
    )
    # stdout is the data contract: the same bytes whichever way
    assert runs["compiled"][1] == runs["fallback"][1] == runs["requested"][1]


def test_pure_kernel_fallback_not_noted_without_f(capsys, monkeypatch):
    from tgf import kernel

    monkeypatch.setattr(kernel, "FALLBACK_REASON", "compiled kernel failed to load")
    monkeypatch.setattr(kernel, "PURE_REQUESTED", False)
    code, _, err = run_cli(capsys, "tables", "--case=free", "--q=2", "--max-n=4")
    assert code == 0
    assert err == ""
