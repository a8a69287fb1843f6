"""Transforms, brute-force oracles, group-ring identities, Moebius/parity."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_length_brute_force, raise_if_failed
from tgf.errors import ResourceError, UsageError, VerificationError
from tgf.ladder import (
    build_ladder, case1, case2, custom_f_set, free_set, ladder_levels, lattice_set,
)
from tgf.sequences import (
    SequenceTable,
    brute_force_ladder_element,
    brute_force_sequences,
    check_chain_bounds,
    cogrowth_diagnostics,
    eta_from_xi,
    eta_from_zeta,
    group_ring_check,
    m_free,
    m_from_zeta,
    moebius,
    moebius_verify,
    table_from_ladder,
    xi_from_eta,
    xi_from_h2norm,
    zeta_from_eta,
    zeta_from_m,
)


# -- transform values pinned by the published tables -------------------------

def test_case1_n10_chain(table1):
    assert table1.h2norm[9] == 1656
    assert xi_from_h2norm(2, table1.h2norm)[9] == 1656 - 3 * 2**9 == 120
    assert table1.eta[9] == 72
    assert table1.zeta[9] == 40


def test_base_case_always_zero(table1, table2):
    for table in (table1, table2):
        assert (table.xi[0], table.eta[0], table.zeta[0]) == (0, 0, 0)


def test_case2_n6_zeta(table2):
    etas = table2.eta[:6]
    assert etas[5] == 64
    assert zeta_from_eta(3, etas)[5] == 64 - 2 * 20 == 24


def test_case1_m8(table1):
    zetas = table1.zeta[:8]
    assert zetas == [0] * 7 + [16]
    assert m_from_zeta(2, zetas)[7] == 1144015


def test_case2_m5(table2):
    assert table2.zeta[4] == 20
    assert m_from_zeta(3, table2.zeta[:5])[4] == 19884


def test_m_free_hand_values():
    assert m_free(2, 1) == 3
    assert m_free(2, 2) == 15  # C(4,2)*4 - (C(4,0) + C(4,1)*2)
    assert m_free(3, 2) == 28
    # case 1 moments equal the free moments while zeta vanishes (n <= 7)
    table = SequenceTable.from_h2norms(2, [3 * 2**i for i in range(7)])
    assert table.m == [m_free(2, n) for n in range(1, 8)]


def test_m_free_equals_table2_prefix(table2):
    # zeta vanishes through n = 4 in case 2
    assert table2.m[:4] == [m_free(3, n) for n in range(1, 5)]


# -- roundtrip properties -----------------------------------------------------

positive_seqs = st.lists(st.integers(0, 10**9), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(positive_seqs, st.integers(2, 5))
def test_transform_roundtrips_hypothesis(seq, q):
    assert eta_from_xi(q, xi_from_eta(q, seq)) == seq
    assert xi_from_eta(q, eta_from_xi(q, seq)) == seq
    assert eta_from_zeta(q, zeta_from_eta(q, seq)) == seq
    assert zeta_from_m(q, m_from_zeta(q, seq)) == seq


# -- brute force vs pipeline --------------------------------------------------

def test_brute_force_case1(gen_case1, table1):
    brute = brute_force_sequences(gen_case1, 4)
    for n in range(1, 5):
        assert brute.row(n) == table1.row(n)


def test_brute_force_case2(gen_case2, table2):
    brute = brute_force_sequences(gen_case2, 3)
    for n in range(1, 4):
        assert brute.row(n) == table2.row(n)


def test_brute_force_free_backend():
    gen = free_set(2)
    brute = brute_force_sequences(gen, 4)
    assert brute.eta == [0, 0, 0, 0]
    assert brute.zeta == [0, 0, 0, 0]
    assert brute.m == [m_free(2, n) for n in range(1, 5)]
    pipeline = table_from_ladder(gen, build_ladder(gen, 4))
    for n in range(1, 5):
        assert brute.row(n) == pipeline.row(n)


def test_brute_force_lattice():
    gen = lattice_set(2)
    brute = brute_force_sequences(gen, 4)
    pipeline = table_from_ladder(gen, build_ladder(gen, 4))
    for n in range(1, 5):
        assert brute.row(n) == pipeline.row(n)


def test_brute_force_budget():
    with pytest.raises(ResourceError):
        brute_force_sequences(case1(), 12)  # 3^24 words


def test_brute_force_depth_below_one():
    for depth in (0, -1):
        with pytest.raises(UsageError):
            brute_force_sequences(case1(), depth)


# at the default verify depth of each set (tgf.verify.default_brute_depth)
@pytest.mark.parametrize("make, depth", [
    pytest.param(case1, 5, id="case1"),
    pytest.param(case2, 4, id="case2"),
    pytest.param(lambda: custom_f_set(["Ab", "bA", "AB"]), 5, id="custom-Ab,bA,AB"),
    pytest.param(lambda: custom_f_set(["A", "B", "ab"]), 5, id="custom-A,B,ab"),
    pytest.param(lambda: free_set(2), 5, id="free2"),
    pytest.param(lambda: free_set(3), 4, id="free3"),
    pytest.param(lambda: lattice_set(2), 5, id="lattice2"),
    pytest.param(lambda: lattice_set(3), 4, id="lattice3"),
])
def test_half_length_equals_full_length_walk(make, depth):
    gen = make()
    assert brute_force_sequences(gen, depth) == full_length_brute_force(gen, depth)


def test_brute_force_composes_only_half_length_products():
    gen = case1()
    calls = []
    multiply = gen.backend.multiply_keys

    def counting(a, b):
        calls.append(None)
        return multiply(a, b)

    gen.backend.multiply_keys = counting
    brute_force_sequences(gen, 5)
    # 342 with the half-length counts; walking every 2n-letter word, as
    # full_length_brute_force does, takes 91,812
    assert len(calls) <= 2000


def test_brute_force_ladder_element_matches_recursion(gen_case1):
    levels = {vec.n: vec for vec in ladder_levels(gen_case1, 6)}
    for n in (5, 6):
        assert brute_force_ladder_element(gen_case1, n).entries == dict(levels[n].entries.items())


# -- group-ring identities ----------------------------------------------------

def test_group_ring_base_case(gen_case1):
    group_ring_check(gen_case1, 1)


def test_group_ring_case1_m2(gen_case1):
    group_ring_check(gen_case1, 2)


def test_group_ring_case2_m2(gen_case2):
    group_ring_check(gen_case2, 2)


def test_group_ring_free():
    group_ring_check(free_set(2), 2)


# -- Moebius / parity ---------------------------------------------------------

def test_moebius_function():
    values = [moebius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_moebius_rows_case1(table1):
    report = moebius_verify(table1)
    rows = {row.n: row for row in report.moebius_rows}
    assert rows[8].value == table1.zeta[7] - table1.zeta[3] == 16
    assert rows[10].value == (
        table1.zeta[9] - table1.zeta[4] - table1.zeta[1] + table1.zeta[0]
    ) == 40
    assert rows[1].value == 0
    assert report.ok


def test_moebius_catches_corruption(table1):
    bad = SequenceTable(
        q=table1.q,
        h2norm=list(table1.h2norm[:10]),
        xi=list(table1.xi[:10]),
        eta=list(table1.eta[:10]),
        zeta=list(table1.zeta[:10]),
        m=list(table1.m[:10]),
    )
    bad.zeta[7] += 1  # off-by-one in zeta_8: 17 is not divisible by 16
    report = moebius_verify(bad)
    assert not report.ok
    assert any(name == "moebius_n8" for name, ok, _ in report.checks if not ok)
    with pytest.raises(VerificationError):
        raise_if_failed(report)


def test_parity_catches_odd_entry(table2):
    bad = SequenceTable(
        q=table2.q,
        h2norm=list(table2.h2norm[:6]),
        xi=list(table2.xi[:6]),
        eta=list(table2.eta[:6]),
        zeta=list(table2.zeta[:6]),
        m=list(table2.m[:6]),
    )
    bad.m[3] += 1  # parity of m must match q+1
    assert not moebius_verify(bad).ok


def test_chain_bounds(table1, table2):
    assert check_chain_bounds(table1).ok
    assert check_chain_bounds(table2).ok


# -- cogrowth diagnostics -------------------------------------------------------

def test_cogrowth_free_set():
    gen = free_set(2)
    table = table_from_ladder(gen, build_ladder(gen, 10))
    rows = cogrowth_diagnostics(table)
    assert all(row.zeta_root == 0 for row in rows)
    # ||h_n||_2^(1/n) approaches sqrt(q) from above for a Leinert set
    assert abs(rows[-1].h2_root - 2**0.5) < 0.2
    assert rows[-1].h2_root > 2**0.5


def test_cogrowth_lattice_trends_to_q_plus_1():
    gen = lattice_set(2)
    table = table_from_ladder(gen, build_ladder(gen, 8))
    roots = [row.m_root for row in cogrowth_diagnostics(table)]
    assert all(b > a for a, b in zip(roots, roots[1:]))
    assert roots[-1] < 3.0  # limit is q+1 = 3 (amenable)
    assert roots[-1] > 2.4


def test_cogrowth_case1_fixture_value(table1):
    rows = cogrowth_diagnostics(table1)
    assert abs(rows[36].m_root - 2.66702) < 5e-6
