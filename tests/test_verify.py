"""The composite verification suite across backends."""
from fractions import Fraction

import pytest

from tgf import ladder, verify
from tgf.errors import VerificationError
from tgf.ladder import free_set, lattice_set
from tgf.sequences import SequenceTable, group_ring_check
from tgf.verify import report_to_dict, run_suite, spectral_invariants


def test_suite_case1(gen_case1):
    report = run_suite(gen_case1, max_n=8, brute_max_n=4)
    assert report.ok, report.failures()
    names = {name for name, _, _ in report.checks}
    assert {"eta_direct_vs_transforms", "brute_force_equivalence",
            "group_ring_identities_m1", "group_ring_identities_m2",
            "transform_roundtrips", "moebius_parity", "chain_bounds",
            "cogrowth_diagnostics", "spectral_invariants"} <= names


def test_suite_case2(gen_case2):
    report = run_suite(gen_case2, max_n=6, brute_max_n=3)
    assert report.ok, report.failures()


def test_suite_free_and_lattice():
    for gen in (free_set(2), lattice_set(2)):
        report = run_suite(gen, max_n=6, brute_max_n=3)
        assert report.ok, report.failures()


def test_suite_takes_the_last_row_from_the_lookahead(gen_case1, monkeypatch):
    calls = []
    real = ladder.lookahead_h2norm

    def counting(gen, top, rows):
        calls.append(top.n)
        return real(gen, top, rows)

    monkeypatch.setattr(ladder, "lookahead_h2norm", counting)
    report = run_suite(gen_case1, max_n=8, brute_max_n=3)
    assert report.ok, report.failures()
    assert calls == [7]


def test_report_dict_shape(gen_case1):
    payload = report_to_dict(run_suite(gen_case1, max_n=6, brute_max_n=3))
    assert set(payload) == {"ok", "checks", "moebius"}
    assert all(set(c) == {"name", "ok", "detail"} for c in payload["checks"])


def _truncated(table, top):
    return SequenceTable(
        q=table.q,
        h2norm=list(table.h2norm[:top]),
        xi=list(table.xi[:top]),
        eta=list(table.eta[:top]),
        zeta=list(table.zeta[:top]),
        m=list(table.m[:top]),
    )


def test_spectral_invariants_reject_corrupt_table(table1):
    # m_3 -= 2 keeps the moment ratios monotone but destroys Hankel
    # positivity at order 5
    bad = _truncated(table1, 12)
    bad.m[2] -= 2
    with pytest.raises((VerificationError, ValueError)):
        spectral_invariants(bad, 12, 256)


def test_reconstruction_error_message_has_12_digits(table1, monkeypatch):
    # an error above 2^-(P/2) names itself with 12 significant digits
    monkeypatch.setattr(verify, "moment_reconstruction_error",
                        lambda *args: Fraction(3, 2**20))
    with pytest.raises(VerificationError) as info:
        spectral_invariants(_truncated(table1, 12), 12, 64)
    assert str(info.value) == "moment reconstruction error 2.86102294922e-6"


def test_moment_corruption_needs_the_moebius_test(table1):
    # m_10 += 2 is still a genuine moment sequence of *some* symmetric
    # measure: every moment-intrinsic invariant passes, and only the
    # number-theoretic test on the derived cyclic numbers flags it
    from tgf.sequences import moebius_verify, zeta_from_m

    bad = _truncated(table1, 12)
    bad.m[9] += 2
    spectral_invariants(bad, 12, 256)  # does not raise
    bad.zeta = zeta_from_m(bad.q, bad.m)
    report = moebius_verify(bad)
    assert not report.ok
    assert any(name == "moebius_n10" for name, ok, _ in report.checks if not ok)


def test_group_ring_check_rejects_bad_m(gen_case1):
    from tgf.errors import UsageError

    with pytest.raises(UsageError):
        group_ring_check(gen_case1, 9)
