"""Command-line front end.

Subcommands:

  tables    exact sequence table for a generator set (verified before write)
  norm      norm lower bounds + extrapolation fit from a moments file
  density   spectral density curves by Legendre projection
  verify    full cross-check suite, machine-readable report

Exit codes are a stable contract: 0 success, 1 usage error, 2 verification
failure, 3 numeric or resource failure.

Imports (this paragraph is not part of --help): start-up is most of a short
run, so this module loads only argparse and tgf.errors, and each cmd_*
imports what its subcommand uses.  `tables` loads the tree-pair kernel
(tgf._treepair) but not the spectral layer (tgf.spectral), `norm` loads
the spectral layer but not the kernel, `density` loads neither and
`verify` loads both.  For the same reason the records of the runtime
modules are typing.NamedTuple, or classes over __slots__ on the bases in
tgf.records where a record validates, caches or is mutated: making such
a class compiles at most a one-line constructor and loads none of
inspect, ast, dis and tokenize.  tests/test_imports.py checks both rules
for every subcommand, and the second (RECORD_MACHINERY) for a bare import
of every module too.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    CorruptionError,
    NumericError,
    ResourceError,
    TreePairError,
    UsageError,
    VerificationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

# spectral.DEFAULT_PRECISION_BITS, spelled out so that building the parser
# does not import the spectral layer (a test keeps the two equal)
DEFAULT_PRECISION_BITS = 512


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _resolve_generator_set(args):
    from .ladder import case1, case2, custom_f_set, free_set, lattice_set

    case = args.case
    if case == "1":
        return case1()
    if case == "2":
        return case2()
    if case == "free":
        return free_set(args.q)
    if case == "lattice":
        return lattice_set(args.d)
    if case == "custom":
        if not args.words:
            raise UsageError("--case=custom needs --words=W1,W2,...")
        return custom_f_set([w for w in args.words.split(",") if w])
    raise UsageError(f"unknown case {case!r}")


def _note_kernel(gen):
    """One stderr line when F arithmetic falls back to the pure kernel unasked."""
    from . import kernel
    from .groups import ThompsonF

    if (isinstance(gen.backend, ThompsonF) and kernel.FALLBACK_REASON
            and not kernel.PURE_REQUESTED):
        sys.stderr.write(
            f"note: using the pure-Python tree-pair kernel ({kernel.FALLBACK_REASON})\n"
        )


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise UsageError(f"--range wants lo:hi, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--fit-window wants lo:hi, got {text!r}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


# -- tables ------------------------------------------------------------------

def cmd_tables(args) -> int:
    from . import formats
    from .sequences import check_chain_bounds, compute_table, moebius_verify

    gen = _resolve_generator_set(args)
    _note_kernel(gen)
    table = compute_table(gen, args.max_n, checkpoint_dir=args.checkpoint_dir)
    report = moebius_verify(table)
    report.checks.extend(check_chain_bounds(table).checks)
    if not report.ok:
        for line in report.failures():
            sys.stderr.write(f"verification failed: {line}\n")
        return EXIT_VERIFY
    _emit(formats.table_csv_text(table), args.out)
    return EXIT_OK


# -- norm --------------------------------------------------------------------

def _load_moments(args) -> tuple[int, list[int]]:
    from . import formats

    if getattr(args, "free", False):
        from .sequences import m_free

        order = args.order if args.order is not None else 30
        return args.q, [1] + [m_free(args.q, n) for n in range(1, order + 1)]
    if args.moments:
        return formats.read_moments(args.moments)
    if args.case in ("1", "2"):
        table = formats.load_fixture_table(int(args.case))
        return table.q, table.moments()
    raise UsageError(
        "need --moments=FILE, --case=1/2 (packaged moments), or --free --q=Q"
    )


def _gamma_line(source: str, name: str, norm, q: int) -> str:
    """The comment line with gamma from the norm estimate `norm`, or, when
    the estimate lies below 2 sqrt(q) (for q = 1 a fit from below always
    does), the line that says gamma is undefined."""
    from . import spectral

    try:
        return f"# gamma from {source}: {float(spectral.gamma_cogrowth(norm, q)):.5f}\n"
    except UsageError:
        return (f"# gamma undefined: {name} {float(norm):.5f} still below 2 sqrt(q) "
                f"= {2 * q ** 0.5:.5f}\n")


def cmd_norm(args) -> int:
    from . import formats, spectral

    if args.order is not None and args.order < 1:
        raise UsageError("--order must be >= 1")
    q, moments = _load_moments(args)
    order = args.order if args.order is not None else len(moments) - 1
    if order > len(moments) - 1:
        raise UsageError(f"--order={order} but moments stop at {len(moments) - 1}")
    mv = spectral.MomentVector(q, tuple(moments[: order + 1]))
    hl = spectral.hankel_ladder(mv, order)
    truncated = hl.degenerate_at is not None
    jc = spectral.jacobi_coefficients(hl, args.precision_bits)
    rows = spectral.bounds_table(mv, jc, jc.top)
    # a bad window exits before anything is written
    fit = None
    if args.fit_window:
        lo, hi = _parse_window(args.fit_window)
        fit = spectral.fit_extrapolation(
            [(row.n, float(row.lambda_max)) for row in rows], lo, hi
        )
    if args.out:
        companion = formats.write_bounds_csv(args.out, rows)
        sys.stdout.write(f"wrote {args.out} and {companion}\n")
    else:
        sys.stdout.write(formats.bounds_csv_text(rows))

    best = rows[-1].lambda_max
    sys.stdout.write(f"# best lower bound: lambda_max(M_{rows[-1].n}) = {float(best):.5f}\n")
    sys.stdout.write(f"# likely lower bound: alpha pair sum = {float(rows[-1].alpha_sum):.5f}\n"
                     if rows[-1].alpha_sum is not None else "")
    sys.stdout.write(_gamma_line("best lower bound", "bound", best, q))
    if fit is not None:
        sys.stdout.write(
            f"# fit f(n)=a-b(n-c)^-d on [{lo},{hi}]: a={fit.a:.3f} b={fit.b:.3f} "
            f"c={fit.c:.3f} d={fit.d:.3f} residual={fit.residual:.3e}\n"
        )
        sys.stdout.write(_gamma_line("fitted norm", "fitted norm", min(fit.a, q + 1), q))
    if truncated:
        sys.stderr.write(
            f"Hankel ladder degenerate at n={hl.degenerate_at}: "
            f"finite support; bounds truncated\n"
        )
        return EXIT_NUMERIC
    return EXIT_OK


# -- density -----------------------------------------------------------------

def cmd_density(args) -> int:
    from . import density as density_mod
    from . import formats
    from .sequences import MomentVector

    if args.order is not None and args.order < 0:
        raise UsageError("--order must be >= 0")
    prefix = args.out or "density"
    written = []
    if args.free:
        q = args.q
        if q < 1:
            raise UsageError("--q must be >= 1")
        lo, hi = _parse_range(args.range) if args.range else (-2 * q**0.5, 2 * q**0.5)
        curve = density_mod.free_density_curve(
            q, lo, hi, args.step, label=args.label or f"free density q={q}"
        )
        path = f"{prefix}-free-q{q}.csv"
        formats.write_curve_csv(path, curve)
        written.append(path)
    else:
        q, moments = _load_moments(args)
        order = args.order if args.order is not None else len(moments) - 1
        mv = MomentVector(q, tuple(moments[: order + 1]))
        exp = density_mod.project_density(mv, order)
        lo, hi = _parse_range(args.range) if args.range else (0.0, float(q + 1))
        label = args.label or f"density order {order}"
        if args.tail:
            if order < 1:
                raise UsageError("--tail needs order >= 1")
            prev = density_mod.project_density(
                MomentVector(q, tuple(moments[:order])), order - 1
            )
            for tag, curve in (
                (f"rho{order - 1}", density_mod.evaluate_curve(prev, lo, hi, args.step, f"{label} (order {order - 1})")),
                (f"rho{order}", density_mod.evaluate_curve(exp, lo, hi, args.step, label)),
                ("tail-avg", density_mod.tail_average(prev, exp, lo, hi, args.step, f"{label} tail average")),
            ):
                path = f"{prefix}-{tag}.csv"
                formats.write_curve_csv(path, curve)
                written.append(path)
        else:
            path = f"{prefix}-rho{order}.csv"
            formats.write_curve_csv(
                path, density_mod.evaluate_curve(exp, lo, hi, args.step, label)
            )
            written.append(path)
            free_curve = density_mod.free_density_curve(
                q, lo, hi, args.step, label=f"free density q={q}"
            )
            path = f"{prefix}-free.csv"
            formats.write_curve_csv(path, free_curve)
            written.append(path)
    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    import json

    from .verify import report_to_dict, run_suite

    gen = _resolve_generator_set(args)
    _note_kernel(gen)
    report = run_suite(
        gen,
        max_n=args.max_n,
        brute_max_n=args.brute_max_n,
        precision_bits=args.precision_bits,
    )
    payload = report_to_dict(report)
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


# -- main --------------------------------------------------------------------

def _add_case_flags(p):
    p.add_argument("--case", default="1",
                   help="1, 2, free, lattice, or custom (default 1)")
    p.add_argument("--q", type=int, default=2,
                   help="free-group rank for --case=free (default 2)")
    p.add_argument("--d", type=int, default=2,
                   help="lattice dimension for --case=lattice (default 2)")
    p.add_argument("--words", default=None,
                   help="comma-separated words over A,a,B,b for --case=custom")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tgf", description=(__doc__ or "").partition("\nImports")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="compute the exact sequence table")
    _add_case_flags(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("norm", help="norm lower bounds from moments")
    p.add_argument("--moments", default=None, help="moments file or table CSV")
    p.add_argument("--case", default=None, help="1 or 2: use packaged moments")
    p.add_argument("--free", action="store_true",
                   help="use the closed-form free moments instead of a file")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
    p.add_argument("--fit-window", default=None, help="lo:hi for the extrapolation fit")
    p.add_argument("--out", default=None, help="bounds CSV path (default stdout)")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("density", help="density curves from moments")
    p.add_argument("--moments", default=None)
    p.add_argument("--case", default=None)
    p.add_argument("--free", action="store_true", help="closed-form free density only")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--range", default=None, help="lo:hi evaluation range")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--tail", action="store_true",
                   help="also emit the previous order and the tail average")
    p.add_argument("--label", default=None, help="comment header for curve files")
    p.add_argument("--out", default=None, help="output file prefix")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_case_flags(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--brute-max-n", type=int, default=None)
    p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, TreePairError) as exc:
        # a malformed tree-pair key can only come from a bad input file
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ResourceError, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (VerificationError, CorruptionError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFY
    except OSError as exc:
        # a path that cannot be written or read names itself; a closed
        # stdout (BrokenPipeError) has no name
        where = "" if exc.filename is None else f"{exc.filename}: "
        sys.stderr.write(f"error: {where}{exc.strerror or exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
