#!/usr/bin/env python3
"""End-to-end benchmark of the tgf command-line tool.

    python3 tgfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is built the way setup.py
builds it (``setup.py build`` on a copy of the checkout, into ``.tgfbench/``,
cached by a hash of the copied sources), and every command runs against
that build in a fresh interpreter, exactly as the ``tgf`` entry point does.
Nothing outside ``.tgfbench/`` is written.

Each workload is a fixed list of CLI commands run one after another with
the CLI's default of one thread (see README.md for why each is there).
With ``--trace 0`` the workload is repeated while another repetition still
fits in ``--seconds`` (at least once), every output is checked, and the
end-to-end metrics are reported:

  wall_s       median over repetitions of the summed command times, each
               from process start to exit
  peak_rss_mb  largest resident set of any command process
  setup_s      median time for a fresh interpreter to import tgf.cli,
               kernel selection included (several probes per run)

With ``--trace 1`` one untraced and one traced repetition run, and the
per-layer metrics are reported (see tracing.py).  The last line of
stdout is the JSON result; the line before it records the provenance
(kernel, Python, nproc, git SHA or source hash, seed, words).  Failed
commands count in ``failed``; a command fails when it exits non-zero or
its output fails the check.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".tgfbench"
REFERENCE = BENCH / "reference"
FIXTURES = ROOT / "src" / "tgf" / "fixtures"

# the [project.scripts] entry point, tgf = "tgf.cli:main"
ENTRY = "import sys; from tgf.cli import main; sys.exit(main())"
PROBE = ("import sys, tgf, tgf.cli, tgf.kernel; "
         "print(tgf.kernel.IMPLEMENTATION, tgf.__file__)")
WORD_KEYS = ("import sys; from tgf import ThompsonF, Word; f = ThompsonF(); "
             "print(' '.join(f.element_from_word(Word.parse(w)).key.hex() "
             "for w in sys.argv[1:]))")

SETUP_PROBES = 9
RUN_LIMIT_S = 165.0
FIT_A = {1: 2.950, 2: 3.870}
FIT_A_TOL = 0.02
BOUNDS_TOL = 5e-6
# freely reduced words of length 2 over A,a,B,b (lowercase = inverse)
WORDS = [x + y for x in "AaBb" for y in "AaBb" if x == y or x.lower() != y.lower()]


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a failed build)."""


# -- build -------------------------------------------------------------------

def _sources() -> list[Path]:
    """Files setup.py may need: the checkout minus dot-entries and this benchmark."""
    out = []
    for top in sorted(ROOT.iterdir()):
        if top.name.startswith(".") or top == BENCH:
            continue
        if top.is_dir():
            out += sorted(p for p in top.rglob("*")
                          if p.is_file() and "__pycache__" not in p.parts)
        elif top.is_file():
            out.append(top)
    return out


def _build(dest: Path, files: list[Path], env: dict) -> float:
    """Stage the sources and run ``setup.py build``; returns the seconds taken."""
    shutil.rmtree(dest, ignore_errors=True)
    stage = dest / "stage"
    for path in files:
        target = stage / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    start = time.perf_counter()
    with open(dest / "build.log", "wb") as log:
        rc = subprocess.call(
            [sys.executable, "setup.py", "-q", "build",
             "--build-base", str(dest / "build"), "--build-lib", str(dest / "lib")],
            cwd=stage, env=env, stdout=log, stderr=subprocess.STDOUT)
    seconds = time.perf_counter() - start
    if rc != 0:
        raise BenchError(f"setup.py build failed, see {dest / 'build.log'}")
    return seconds


def ensure_install(env: dict, fresh: bool) -> tuple[Path, str, float | None]:
    """Return (lib dir, source hash, build seconds if a build ran now)."""
    files = _sources()
    digest = hashlib.sha256(sys.version.encode())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    source_hash = digest.hexdigest()
    home = WORK / f"install-{source_hash[:16]}"
    install_s = None
    if fresh or not (home / "lib").is_dir():
        tmp = WORK / f"build-{os.getpid()}"
        install_s = _build(tmp, files, env)
        if (home / "lib").is_dir():
            shutil.rmtree(tmp)
        else:
            shutil.rmtree(home, ignore_errors=True)
            tmp.rename(home)
    return home / "lib", source_hash, install_s


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# -- processes ---------------------------------------------------------------

@dataclass
class Proc:
    rc: int
    seconds: float
    rss_kb: int


def spawn(argv: list[str], cwd: Path, env: dict, out: Path, timeout: float) -> Proc:
    """Run argv with stdout to `out`; time it from start to exit and read its
    peak RSS from the kernel's accounting for that child alone."""
    with open(out, "wb") as fh, open(out.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, seconds, usage.ru_maxrss)


def probe(env: dict, cwd: Path, code: str, *args: str) -> tuple[str, float]:
    out = cwd / "probe.out"
    proc = spawn([sys.executable, "-c", code, *args], cwd, env, out, 60)
    if proc.rc != 0:
        raise BenchError(f"probe failed: {out.with_suffix('.err').read_text()}")
    return out.read_text().strip(), proc.seconds


# -- output checks -----------------------------------------------------------

Check = Callable[[str, Path], Optional[str]]


def _rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def table_check(case: int, max_n: int) -> Check:
    def check(stdout: str, cwd: Path) -> str | None:
        want = _rows((FIXTURES / f"table{case}.csv").read_text())[: max_n + 1]
        got = _rows(stdout)
        if got != want:
            return f"table rows differ from fixtures/table{case}.csv up to n={max_n}"
        return None
    return check


def same_bytes(expected: Path, inner: Check) -> Check:
    def check(stdout: str, cwd: Path) -> str | None:
        if not expected.is_file():
            return "no fresh run to compare with (it failed)"
        if stdout != expected.read_text():
            return f"resumed CSV differs from a fresh run ({expected.name})"
        return inner(stdout, cwd)
    return check


def norm_check(case: int) -> Check:
    def check(stdout: str, cwd: Path) -> str | None:
        want = _rows((FIXTURES / f"bounds{case}.csv").read_text())
        got = _rows("".join(l for l in stdout.splitlines(True) if not l.startswith("#")))
        if len(got) != len(want) or got[0] != want[0]:
            return f"bounds table shape differs from fixtures/bounds{case}.csv"
        for g, w in zip(got[1:], want[1:]):
            if g[0] != w[0] or len(g) != len(w):
                return f"bounds row n={w[0]} missing"
            for a, b in zip(g[1:], w[1:]):
                if (a == "") != (b == "") or (a and abs(float(a) - float(b)) > BOUNDS_TOL):
                    return f"bounds row n={w[0]}: {g} vs {w}"
        fit = re.search(r"^# fit .*: a=(\S+) ", stdout, re.M)
        if not fit or abs(float(fit.group(1)) - FIT_A[case]) > FIT_A_TOL:
            return f"fitted a is not within {FIT_A_TOL} of {FIT_A[case]}"
        return None
    return check


def curve_check(*names: str) -> Check:
    def check(stdout: str, cwd: Path) -> str | None:
        for name in names:
            got = cwd / name
            if not got.is_file() or got.read_text() != (REFERENCE / name).read_text():
                return f"{name} differs from the reference curve"
        return None
    return check


def verify_check(stdout: str, cwd: Path) -> str | None:
    if json.loads(stdout).get("ok") is not True:
        return "verify report is not ok"
    return None


# -- workloads ---------------------------------------------------------------

@dataclass
class Command:
    argv: list[str]
    check: Check


def workload_commands(name: str, words: str | None, fresh_csv: Path | None) -> list[Command]:
    if name == "tables":
        return [
            Command(["tables", "--case=1", "--max-n=16"], table_check(1, 16)),
            Command(["tables", "--case=2", "--max-n=10"], table_check(2, 10)),
        ]
    if name == "resume":
        return [
            Command(["tables", "--case=2", "--max-n=10", "--checkpoint-dir=ckpt"],
                    table_check(2, 10)),
            Command(["tables", "--case=2", "--max-n=11", "--checkpoint-dir=ckpt"],
                    same_bytes(fresh_csv, table_check(2, 11))),
        ]
    if name == "analysis":
        return [
            Command(["norm", "--case=1", "--fit-window=12:37"], norm_check(1)),
            Command(["norm", "--case=2", "--fit-window=8:24"], norm_check(2)),
            Command(["density", "--case=1", "--order=37", "--range=0:3"],
                    curve_check("density-rho37.csv", "density-free.csv")),
            Command(["density", "--case=2", "--order=24", "--tail", "--range=3.464:4"],
                    curve_check("density-rho23.csv", "density-rho24.csv",
                                "density-tail-avg.csv")),
        ]
    if name == "verify":
        return [
            Command(["verify", "--case=1", "--max-n=12"], verify_check),
            Command(["verify", "--case=2", "--max-n=9"], verify_check),
            Command(["verify", "--case=custom", f"--words={words}", "--max-n=10"],
                    verify_check),
        ]
    raise BenchError(f"unknown workload {name!r}")


WORKLOADS = ("tables", "resume", "analysis", "verify")


def draw_words(seed: int, env: dict, cwd: Path) -> str:
    """Three distinct freely reduced words of length 2, redrawn while two are
    equal in F."""
    keys = dict(zip(WORDS, probe(env, cwd, WORD_KEYS, *WORDS)[0].split()))
    rng = random.Random(seed)
    while True:
        chosen = rng.sample(WORDS, 3)
        if len({keys[w] for w in chosen}) == 3:
            return ",".join(chosen)


# -- running -----------------------------------------------------------------

@dataclass
class Outcome:
    argv: list[str]
    proc: Proc
    error: str | None
    stdout: str
    report: dict | None = None


class Runner:
    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.counter = 0
        self.attempted = 0
        self.failures: list[str] = []

    def fresh_dir(self) -> Path:
        self.counter += 1
        path = WORK / "runs" / f"{os.getpid()}-{self.counter}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run(self, command: Command, cwd: Path, traced: bool = False,
            env: dict | None = None) -> Outcome:
        tag = f"c{self.attempted}"
        out = cwd / f"{tag}.out"
        if traced:
            argv = [sys.executable, str(BENCH / "tracing.py"),
                    str(cwd / f"{tag}.trace.json"), *command.argv]
        else:
            argv = [sys.executable, "-c", ENTRY, *command.argv]
        proc = spawn(argv, cwd, env or self.env, out,
                     self.deadline - time.perf_counter())
        self.attempted += 1
        stdout = out.read_text(errors="replace")
        error = None
        if proc.rc != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip()
            error = f"exit {proc.rc}: {err[-500:]}"
        else:
            try:
                error = command.check(stdout, cwd)
            except (ValueError, KeyError, OSError) as exc:
                error = f"unreadable output: {exc}"
        report = None
        if traced and proc.rc == 0:
            report = json.loads((cwd / f"{tag}.trace.json").read_text())
        if error:
            self.failures.append(f"{' '.join(command.argv)}: {error}")
        return Outcome(command.argv, proc, error, stdout, report)

    def iteration(self, commands: list[Command], traced: bool = False):
        cwd = self.fresh_dir()
        outcomes = [self.run(c, cwd, traced) for c in commands]
        ckpt_bytes = sum(p.stat().st_size for p in (cwd / "ckpt").glob("*")) \
            if (cwd / "ckpt").is_dir() else 0
        shutil.rmtree(cwd)
        return outcomes, ckpt_bytes


def fresh_case2_csv(runner: Runner, home: Path) -> Path:
    """A fresh (checkpoint-free) case-2 n=11 CSV, made once per build."""
    path = home / "fresh-case2-n11.csv"
    if not path.is_file():
        cwd = runner.fresh_dir()
        out = runner.run(Command(["tables", "--case=2", "--max-n=11"],
                                 table_check(2, 11)), cwd)
        shutil.rmtree(cwd)
        if out.error is None:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(out.stdout)
            tmp.replace(path)
    return path


def kernel_parity(runner: Runner, commands: list[Command], outcomes: list[Outcome]):
    """Rerun the tables legs on the pure-Python kernel; h2norms must agree."""
    env = dict(runner.env, TGF_PURE_PY="1")
    cwd = runner.fresh_dir()
    kernel = probe(env, cwd, PROBE)[0].split()[0]
    if kernel != "python":
        runner.failures.append(f"TGF_PURE_PY=1 selected the {kernel} kernel")
    for command, timed in zip(commands, outcomes):
        pure = runner.run(command, cwd, env=env)
        if not pure.error and _rows(pure.stdout) != _rows(timed.stdout):
            runner.failures.append(f"{' '.join(command.argv)}: pure and compiled "
                                   "kernels give different h2norms")
    shutil.rmtree(cwd)


def measure(runner: Runner, commands: list[Command], seconds: float):
    """Repeat the workload while another repetition fits in `seconds`."""
    walls, rss, samples = [], 0, []
    start = time.perf_counter()
    while True:
        outcomes, _ = runner.iteration(commands)
        walls.append(sum(o.proc.seconds for o in outcomes))
        rss = max([rss] + [o.proc.rss_kb for o in outcomes])
        samples.append([round(o.proc.seconds, 4) for o in outcomes])
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
        if time.perf_counter() + elapsed / len(walls) > runner.deadline:
            break
    return walls, rss, samples, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TGF_") and k != "PYTHONPATH"}
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONNOUSERSITE"] = "1"
    try:
        if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "tgf").is_dir():
            raise BenchError(f"no tgf sources (setup.py, src/tgf) under {ROOT}")
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        lib, source_hash, install_s = ensure_install(env, fresh=bool(args.trace))
        env["PYTHONPATH"] = str(lib)
        runner = Runner(env, begin + RUN_LIMIT_S)
        scratch = runner.fresh_dir()
        # the first import after a build also writes the bytecode cache
        kernel, where = probe(env, scratch, PROBE)[0].split()
        if not Path(where).resolve().is_relative_to(lib.resolve()):
            raise BenchError(f"tgf imported from {where}, not from the build in {lib}")
        words = draw_words(args.seed, env, scratch) if args.workload == "verify" else None
        shutil.rmtree(scratch)
        fresh = fresh_case2_csv(runner, lib.parent) if args.workload == "resume" else None
    except BenchError as exc:
        sys.stderr.write(f"tgfbench: {exc}\n")
        return 2
    commands = workload_commands(args.workload, words, fresh)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel": kernel,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_sha256": source_hash, "words": words,
    }
    if args.trace:
        from tracing import layer_metrics

        untraced, _ = runner.iteration(commands)
        traced, ckpt_bytes = runner.iteration(commands, traced=True)
        metrics = layer_metrics(untraced, traced, ckpt_bytes, install_s)
        samples = [[round(o.proc.seconds, 4) for o in untraced],
                   [round(o.proc.seconds, 4) for o in traced]]
    else:
        cwd = runner.fresh_dir()
        setups = [probe(env, cwd, PROBE)[1] for _ in range(SETUP_PROBES)]
        shutil.rmtree(cwd)
        walls, rss_kb, samples, last = measure(runner, commands, args.seconds)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        provenance["setup_samples"] = [round(s, 4) for s in setups]
    if kernel != "python" and args.workload == "tables":
        kernel_parity(runner, commands, last if not args.trace else untraced)

    failed = len(runner.failures)
    provenance.update(samples=samples, failures=runner.failures,
                      fail_ratio=failed / runner.attempted,
                      run_s=round(time.perf_counter() - begin, 3))
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
