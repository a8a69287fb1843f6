"""Composite verification suite.

Runs every cheap cross-check we have against a generator set: the ladder
pipeline against definition-level brute force, the direct reduced numbers
against the transform chain, the group-ring polynomial identities, exact
transform roundtrips, the Moebius/parity/chain tests, and the spectral
invariants of the resulting moments.  Returns a report suitable for JSON
output; any failed entry is a strong signal of a computation bug.
"""
from __future__ import annotations

import mpmath

from .errors import ResourceError, UsageError, VerificationError
from .ladder import GeneratorSet, build_ladder, eta_direct
from .sequences import (
    SequenceTable,
    VerifyReport,
    check_chain_bounds,
    cogrowth_diagnostics,
    eta_from_xi,
    eta_from_zeta,
    group_ring_check,
    h2norm_from_xi,
    moebius_verify,
    m_from_zeta,
    table_from_ladder,
    xi_from_eta,
    xi_from_h2norm,
    zeta_from_eta,
    zeta_from_m,
)
from .spectral import (
    DEFAULT_PRECISION_BITS,
    MomentVector,
    bounds_table,
    hankel_ladder,
    jacobi_coefficients,
    moment_reconstruction_error,
)


# the default brute-force depth enumerates at most this many words
BRUTE_WORDS = 300_000
# the group-ring identities are checked for m = 1..RING_MAX_M
RING_MAX_M = 2
# the spectral invariants go up to this Hankel order
SPECTRAL_ORDER = 12


def default_brute_depth(gen: GeneratorSet) -> int:
    n = 0
    size = len(gen.elements)
    while size ** (2 * (n + 1)) <= BRUTE_WORDS:
        n += 1
    return max(n, 1)


def run_suite(
    gen: GeneratorSet,
    max_n: int = 10,
    brute_max_n: int | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> VerifyReport:
    report = VerifyReport()
    run = build_ladder(gen, max_n, keep_levels=tuple(
        n for n in range(2, max_n + 1, 2)))
    table = table_from_ladder(gen, run)

    # direct reduced numbers vs the transform chain
    e = gen.backend.identity_key()
    ok = all(
        eta_direct(vec, e) == table.eta[n // 2 - 1]
        for n, vec in run.kept.items()
    )
    report.add("eta_direct_vs_transforms", ok,
               "identity coefficients of even levels match eta")

    if brute_max_n is None:
        brute_max_n = min(max_n, default_brute_depth(gen))
    try:
        brute = brute_force_equivalence(gen, min(brute_max_n, max_n), table)
        report.add("brute_force_equivalence", brute is None, brute or
                   f"definitions match pipeline for n <= {min(brute_max_n, max_n)}")
    except ResourceError as exc:
        report.add("brute_force_equivalence", False, str(exc))

    for m in range(1, min(RING_MAX_M, max_n // 2) + 1):
        try:
            group_ring_check(gen, m)
            report.add(f"group_ring_identities_m{m}", True, "")
        except VerificationError as exc:
            report.add(f"group_ring_identities_m{m}", False, str(exc))

    report.add("transform_roundtrips", transform_roundtrips(table),
               "xi<->eta, eta<->zeta, zeta<->m, xi<->h2norm")

    moe = moebius_verify(table)
    report.checks.extend(moe.checks)
    report.moebius_rows = moe.moebius_rows
    report.checks.extend(check_chain_bounds(table).checks)

    rows = cogrowth_diagnostics(table)
    report.add("cogrowth_diagnostics", all(
        row.m_root <= gen.q + 1 + 1e-9 for row in rows),
        f"m-root at n={max_n}: {rows[-1].m_root:.5f} (limit {gen.q + 1} iff amenable)")

    order = min(max_n, SPECTRAL_ORDER)
    try:
        spectral_invariants(table, order, precision_bits)
        report.add("spectral_invariants", True,
                   f"Hankel positive, bound chain ordered, moments rebuilt (order {order})")
    except UsageError:
        raise  # a precision too low for the bisection is the caller's error
    except (VerificationError, ValueError) as exc:
        report.add("spectral_invariants", False, str(exc))
    return report


def brute_force_equivalence(
    gen: GeneratorSet, max_n: int, table: SequenceTable
) -> str | None:
    """Definition-level enumeration vs the ladder pipeline; None if equal."""
    from .sequences import brute_force_sequences

    brute = brute_force_sequences(gen, max_n)
    for n in range(1, max_n + 1):
        if brute.row(n) != table.row(n):
            return f"n={n}: brute {brute.row(n)} != pipeline {table.row(n)}"
    return None


def transform_roundtrips(table: SequenceTable) -> bool:
    q = table.q
    return (
        eta_from_xi(q, xi_from_eta(q, table.eta)) == table.eta
        and xi_from_eta(q, eta_from_xi(q, table.xi)) == table.xi
        and eta_from_zeta(q, zeta_from_eta(q, table.eta)) == table.eta
        and zeta_from_m(q, m_from_zeta(q, table.zeta)) == table.zeta
        and h2norm_from_xi(q, xi_from_h2norm(q, table.h2norm)) == table.h2norm
        and xi_from_h2norm(q, table.h2norm) == table.xi
        and eta_from_xi(q, table.xi) == table.eta
        and zeta_from_eta(q, table.eta) == table.zeta
        and m_from_zeta(q, table.zeta) == table.m
    )


def spectral_invariants(table: SequenceTable, order: int, precision_bits: int):
    """Hankel positivity, ordered bound chain, eigenvalue symmetry, and the
    moment reconstruction identity on the table's own moments."""
    from .errors import NumericError

    try:
        mv = MomentVector(table.q, tuple(table.moments()))
    except UsageError as exc:
        raise VerificationError(str(exc)) from exc
    order = min(order, mv.top)
    hl = hankel_ladder(mv, order)
    if hl.degenerate_at is not None:
        raise VerificationError(f"Hankel determinant not positive at {hl.degenerate_at}")
    jc = jacobi_coefficients(hl, precision_bits)
    try:
        bounds_table(mv, jc, order)  # raises on any ordering violation
    except NumericError as exc:
        # a lost eigenvalue bracket here means the ordering chain is broken,
        # i.e. the input is not a genuine moment sequence
        raise VerificationError(f"bound chain failed: {exc}") from exc
    k_max = min(order, 12)
    err = moment_reconstruction_error(mv, jc, order, k_max)
    if err > mpmath.mpf(2) ** (-precision_bits // 2):
        raise VerificationError(f"moment reconstruction error {err}")


def report_to_dict(report: VerifyReport) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in report.checks
        ],
        "moebius": [
            {
                "n": row.n,
                "value": row.value,
                "nonnegative": row.nonnegative,
                "divisible_by_2n": row.divisible,
            }
            for row in report.moebius_rows
        ],
    }
