"""CLI contract: subcommands, exit codes, deterministic output bytes."""
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import tgf
from tgf.cli import main
from tgf.formats import CHECKPOINT_HEADER, CHECKPOINT_MAGIC, write_checkpoint
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


def test_tables_resume_matches_fresh_run(capsys, tmp_path):
    ckdir = tmp_path / "ck"
    fresh = tmp_path / "fresh.csv"
    resumed = tmp_path / "resumed.csv"
    assert main(["tables", "--case=2", "--max-n=5", f"--checkpoint-dir={ckdir}"]) == 0
    assert main(["tables", "--case=2", "--max-n=7", f"--checkpoint-dir={ckdir}",
                 f"--out={resumed}"]) == 0
    assert main(["tables", "--case=2", "--max-n=7", f"--out={fresh}"]) == 0
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
    for window in ("0:30", "12:60"):
        code, _, err = run_cli(capsys, "norm", "--case=1", f"--fit-window={window}")
        assert code == 1 and "n = 1..37" in err
    for path, says in [(header_only, "no rows"), (bad_moment, "line 2"),
                       (missing, "No such file"), (no_newline, "no rows")]:
        code, _, err = run_cli(capsys, "norm", f"--moments={path}")
        assert code == 1
        assert err.startswith(f"error: {path}: ") and says in err
    with pytest.raises(SystemExit) as info:
        main(["tables", "--threads=2"])  # unknown option
    assert info.value.code == 1


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


def _overwrite_first_key(path):
    # under a valid CRC, so that the key check refuses the file
    data = bytearray(path.read_bytes())
    at = CHECKPOINT_HEADER.size
    key_len = int.from_bytes(data[at : at + 2], "little")
    data[at + 2 : at + 2 + key_len] = b"\xff" * key_len
    _restamp_crc(data)
    path.write_bytes(bytes(data))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:40])


def _free_group_level(path):
    # same q = 2, so only the keys tell the levels apart
    *_, level = ladder_levels(free_set(2), 4)
    write_checkpoint(path.parent, free_set(2), level)


@pytest.mark.parametrize("level, corrupt", [
    (4, _overwrite_first_key), (4, _truncate), (4, _free_group_level),
    (3, _overwrite_first_key),
], ids=["key-bytes-ff", "truncated", "free-group-keys", "lower-key-bytes-ff"])
def test_corrupt_checkpoint_exits_1(capsys, tmp_path, level, corrupt):
    # levels 1..4 are stored, and a resume to n = 6 starts from the pair
    # (3, 4); level 3 is only subtracted and summed, never composed
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


@pytest.mark.parametrize("case, corrupt, level, says", [
    (["--case=custom", "--words=A,a,B"], None, 5, "another generator set"),
    (["--case=1"], _flip_body_byte, 6, "CRC32"),
    (["--case=1"], _downgrade_to_version_1, 6, "version 1"),
], ids=["other-generators", "bad-crc", "version-1"])
def test_refused_checkpoint_exits_1(capsys, tmp_path, case, corrupt, level, says):
    # case 1 to n = 7 stores levels 1..6, and a run to n = 9 resumes from
    # the pair (5, 6); {A, a, B} has the same q = 2 as case 1
    ckdir = tmp_path / "ck"
    assert run_cli(capsys, "tables", "--case=1", "--max-n=7", f"--checkpoint-dir={ckdir}")[0] == 0
    if corrupt is not None:
        corrupt(ckdir / "level_0006.tgfl")
    code, out, err = run_cli(capsys, "tables", *case, "--max-n=9",
                             f"--checkpoint-dir={ckdir}")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(f"error: {ckdir / f'level_{level:04d}.tgfl'}: ")
    assert says in err and "Traceback" not in err


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


def test_tables_verification_failure_exits_2(capsys, monkeypatch):
    import tgf.cli as cli_mod
    from tgf.sequences import VerifyReport

    def fake_verify(table):
        report = VerifyReport()
        report.add("moebius_n2", False, "injected")
        return report

    monkeypatch.setattr(cli_mod, "moebius_verify", fake_verify)
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
