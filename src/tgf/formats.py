"""File formats: table CSV, moments files, bounds/curve CSV, checkpoints.

Stable on-disk contracts:

  table CSV      header `n,h2norm,xi,eta,zeta,m`, one row per n >= 1,
                 decimal integers (no exponents).
  moments file   lines `n m_n`, whitespace separated, `#` comments; must
                 start at n = 0 or n = 1 (m_0 = 1 is implied).
  bounds CSV     header `n,root_moment,ratio_root,lambda_max,alpha,alpha_sum`,
                 5 decimal places; a `-full` companion carries 30
                 significant digits (`significant_digits`).
  curve CSV      header `t,rho`, 6 decimal places, optional `# label` line.
  checkpoint     version 2: magic `TGFL`, then little-endian: version
                 u32 (= 2), level u32, q u32, entry count u64, the
                 generator fingerprint u32 (the CRC32 of the sorted
                 generator keys, each after its u16 length), and the
                 CRC32 u32 of the body.  The body holds per entry, in
                 strictly increasing key order: key length u16, key
                 bytes, sign u8 (0 positive), magnitude length u32,
                 magnitude bytes (big endian).  A file whose fingerprint
                 is not the run's generator set's, whose body fails its
                 CRC or repeats or misorders a key, or of version 1 (the
                 same body without fingerprint or CRC) is refused.
"""
from __future__ import annotations

import csv
import io
import math
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import UsageError
from .sequences import SequenceTable

if TYPE_CHECKING:
    from .ladder import GeneratorSet, MultiplicityVector

CHECKPOINT_MAGIC = b"TGFL"
CHECKPOINT_VERSION = 2
# magic, version, level, q, entry count, generator fingerprint, body CRC32
CHECKPOINT_HEADER = struct.Struct("<4sIIIQII")


# -- table CSV ---------------------------------------------------------------

TABLE_HEADER = ["n", "h2norm", "xi", "eta", "zeta", "m"]


def table_csv_text(table: SequenceTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for n in range(1, table.max_n + 1):
        writer.writerow([n, *table.row(n)])
    return out.getvalue()


def parse_table_csv(text: str) -> SequenceTable:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise UsageError(f"not a table CSV ({exc})") from None
    if not rows or rows[0] != TABLE_HEADER:
        raise UsageError("not a table CSV (bad header)")
    cols: dict[int, tuple[int, ...]] = {}
    for row in rows[1:]:
        if not row:
            continue
        try:
            n, *values = (int(x) for x in row)
        except ValueError:
            raise UsageError(f"table CSV row {row} is not all integers") from None
        if len(values) != len(TABLE_HEADER) - 1:
            raise UsageError(f"table CSV row {row} needs {len(TABLE_HEADER)} columns")
        cols[n] = tuple(values)
    if not cols:
        raise UsageError("table CSV has no rows")
    # the rows' count, not the largest n, which may be any size
    max_n = len(cols)
    if sorted(cols) != list(range(1, max_n + 1)):
        raise UsageError("table CSV must cover n = 1..max contiguously")
    q = cols[1][4] - 1
    return SequenceTable(
        q=q,
        h2norm=[cols[n][0] for n in range(1, max_n + 1)],
        xi=[cols[n][1] for n in range(1, max_n + 1)],
        eta=[cols[n][2] for n in range(1, max_n + 1)],
        zeta=[cols[n][3] for n in range(1, max_n + 1)],
        m=[cols[n][4] for n in range(1, max_n + 1)],
    )


# -- moments files -----------------------------------------------------------

def parse_moments_text(text: str) -> list[int]:
    """Parse `n m_n` lines into the list m_0..m_N (m_0 = 1 implied)."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            n, m = (int(part) for part in line.split())
        except ValueError:
            raise UsageError(f"bad moments line {lineno}: {raw!r}") from None
        pairs.append((n, m))
    if not pairs:
        raise UsageError("moments file is empty")
    pairs.sort()
    start = pairs[0][0]
    if start not in (0, 1):
        raise UsageError("moments must start at n = 0 or n = 1")
    if [n for n, _ in pairs] != list(range(start, start + len(pairs))):
        raise UsageError("moments file has gaps")
    moments = [m for _, m in pairs]
    if start == 1:
        moments = [1] + moments
    elif moments[0] != 1:
        raise UsageError("m_0 must equal 1")
    return moments


def read_moments(path) -> tuple[int, list[int]]:
    """Read a moments file or a table CSV; returns (q, [m_0..m_N]).

    Any unreadable or malformed file raises UsageError naming it."""
    try:
        text = Path(path).read_text(encoding="ascii")
        first = text.lstrip().splitlines()[0] if text.strip() else ""
        if first.replace(" ", "").startswith("n,"):
            table = parse_table_csv(text)
            return table.q, table.moments()
        moments = parse_moments_text(text)
        if len(moments) < 2:
            raise UsageError("need at least m_1 to infer q")
        return moments[1] - 1, moments
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, UsageError) as exc:
        raise UsageError(f"{path}: {exc}") from None


# -- bounds CSV --------------------------------------------------------------

BOUNDS_HEADER = ["n", "root_moment", "ratio_root", "lambda_max", "alpha", "alpha_sum"]


def bounds_csv_text(rows, full_precision: bool = False) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BOUNDS_HEADER)
    if full_precision:
        fmt = lambda v: significant_digits(v, 30)
    else:
        fmt = lambda v: "%.5f" % float(v)
    for row in rows:
        writer.writerow(
            [
                row.n,
                fmt(row.root_moment),
                fmt(row.ratio_root),
                fmt(row.lambda_max),
                fmt(row.alpha),
                fmt(row.alpha_sum) if row.alpha_sum is not None else "",
            ]
        )
    return out.getvalue()


def significant_digits(value, dps: int) -> str:
    """A dyadic value (an int, a float, or a Fraction whose denominator is
    a power of two) with `dps` significant digits, by the digit rule of
    mpmath's nstr(v, dps, strip_zeros=False) on an mpf v that holds the
    value exactly: the value truncated to int((dps+3) log2 10) + 10
    significant bits, the floor of that to about dps+3 decimal digits, then
    digit dps+1 alone rounds the first dps half up.  The result is fixed
    point when the leading digit's decimal exponent lies strictly between
    min(-(dps//3), -5) and dps, else d.ddd...e+X / e-X.  The same string as
    mpmath's for |log2 value| <= 3500, where its rule is this one."""
    num, den = value.as_integer_ratio()
    bits = den.bit_length() - 1
    if den != 1 << bits:
        raise ValueError(f"{value} is not a dyadic rational")
    if not num:
        return "0.0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    bitprec = int((dps + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec - (num.bit_length() - bits), 0)
    shift = fixprec - bits
    fixed = num << shift if shift >= 0 else num >> -shift
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = str((fixed * 10**fixdps) >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # 99...9 rounded up to 100...0
            digits = digits[:dps]
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    text = sign + digits[:split] + "." + digits[split:]
    return text + (f"e{exponent:+d}" if exponent else "")


def write_bounds_csv(path, rows) -> Path:
    """Write the 5-decimal bounds CSV and a `-full` companion; returns the
    companion path."""
    path = Path(path)
    path.write_text(bounds_csv_text(rows), encoding="ascii")
    companion = path.with_name(path.stem + "-full" + path.suffix)
    companion.write_text(bounds_csv_text(rows, full_precision=True), encoding="ascii")
    return companion


# -- curve CSV ---------------------------------------------------------------

def curve_csv_text(curve) -> str:
    out = io.StringIO()
    if curve.label:
        out.write(f"# {curve.label}\n")
    out.write("t,rho\n")
    for t, rho in zip(curve.grid, curve.values):
        out.write("%.6f,%.6f\n" % (t, rho))
    return out.getvalue()


def write_curve_csv(path, curve) -> None:
    Path(path).write_text(curve_csv_text(curve), encoding="ascii")


# -- ladder checkpoints ------------------------------------------------------

def checkpoint_path(directory: Path, n: int) -> Path:
    return Path(directory) / f"level_{n:04d}.tgfl"


def generator_fingerprint(gen: GeneratorSet) -> int:
    """CRC32 of the sorted generator keys, each after its u16 length."""
    return zlib.crc32(b"".join(struct.pack("<H", len(k)) + k for k in sorted(gen.keys())))


def write_checkpoint(directory: Path, gen: GeneratorSet, vec: MultiplicityVector) -> Path:
    path = checkpoint_path(directory, vec.n)
    body = vec.entries.dump_entries()
    header = CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, vec.n, gen.q, len(vec.entries),
        generator_fingerprint(gen), zlib.crc32(body))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
    tmp.replace(path)
    return path


def read_checkpoint(path, gen: GeneratorSet) -> MultiplicityVector:
    """The level that a checkpoint of gen's ladder holds, its entries loaded
    by gen's backend (a Level with the compiled kernel); a malformed file, or
    one written for another generator set, raises UsageError naming it."""
    from .ladder import MultiplicityVector

    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise UsageError(f"{path}: not a ladder checkpoint")
    if len(data) < CHECKPOINT_HEADER.size:
        raise UsageError(f"{path}: checkpoint is truncated")
    _, version, n, q, count, fingerprint, crc = CHECKPOINT_HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise UsageError(f"{path}: unsupported checkpoint version {version}")
    body = memoryview(data)[CHECKPOINT_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise UsageError(f"{path}: checkpoint body fails its CRC32 check")
    if q != gen.q or fingerprint != generator_fingerprint(gen):
        raise UsageError(f"{path}: checkpoint was written for another generator set")
    try:
        entries = gen.backend.load_entries(body, count)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return MultiplicityVector(n, entries)


# -- packaged fixtures -------------------------------------------------------

def fixture_text(name: str) -> str:
    from importlib import resources

    return (resources.files("tgf") / "fixtures" / name).read_text(encoding="ascii")


def load_fixture_table(case: int) -> SequenceTable:
    """The published exact sequences: case 1 reaches n = 37, case 2 n = 24."""
    if case not in (1, 2):
        raise UsageError("fixture tables exist for cases 1 and 2")
    return parse_table_csv(fixture_text(f"table{case}.csv"))

