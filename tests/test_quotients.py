import json
from pathlib import Path

import pytest

from lcsideals.quotients import (
    QuotientSpec,
    iso_check,
    metabelian_check,
    quotient_dim,
    r23_structure_dims,
    sorted_commutator_count,
    sorted_commutator_words,
    structure_basis_r22,
    two_row_module_dim,
)
from lcsideals import series
from lcsideals.linalg import GradedSubspace, extension_dim
from lcsideals.series import l_span, m_span, product_span

from helpers import ref_quotient_dim, reference_block

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def test_spec_validation():
    with pytest.raises(ValueError):
        QuotientSpec(2, 1, 2)
    with pytest.raises(ValueError, match="generator count must be >= 1"):
        QuotientSpec(0, 2, 2)
    assert QuotientSpec(2, 2, 3).label() == "R[2,3](A_2)"


def test_quotient_removes_dimensions_at_degree_four():
    spec = QuotientSpec(2, 2, 2)
    assert quotient_dim(spec, "M", 2, 4) < m_span(2, 2, 4).dim


def test_quotient_equals_plain_dim_below_ideal_degree():
    spec = QuotientSpec(2, 2, 3)  # ideal starts at degree 5
    for d in range(5):
        assert quotient_dim(spec, "M", 2, d) == m_span(2, 2, d).dim
        assert quotient_dim(spec, "L", 2, d) == l_span(2, 2, d).dim


def test_first_layer_of_metabelian_quotient_is_polynomial_ring():
    spec = QuotientSpec(2, 2, 2)
    for d in range(7):
        assert quotient_dim(spec, "N", 1, d) == d + 1


def test_quotient_dims_never_exceed_free_dims():
    spec = QuotientSpec(2, 2, 2)
    for r in (1, 2, 3):
        for d in range(7):
            assert quotient_dim(spec, "M", r, d) <= m_span(2, r, d).dim


def test_quotient_dim_leaves_cached_spans_unchanged():
    spec = QuotientSpec(2, 2, 2)
    spans = [l_span(2, 3, 6), m_span(2, 3, 6), product_span(2, (2, 2), 6)]
    before = [[dict(r) for r in S.int_rows()] for S in spans]
    for kind in ("L", "M", "N", "B"):
        quotient_dim(spec, kind, 3, 6)
    assert l_span(2, 3, 6) is spans[0] and m_span(2, 3, 6) is spans[1]
    assert [[dict(r) for r in S.int_rows()] for S in spans] == before


@pytest.mark.parametrize(
    "n,mods,d_max",
    [
        (2, ((2, 2), (2, 3), (3, 2), (3, 3)), 8),
        (3, ((2, 2), (2, 3), (3, 2)), 6),
        (4, ((2, 2), (2, 3), (3, 2)), 5),
    ],
)
def test_quotient_dim_matches_the_orbit_loop_reference(n, mods, d_max):
    # series.spec_dim in a quotient against the orbit loop and N recursion
    # of the reference, which takes every kind by extension_dim; M_i·M_j and
    # M_j·M_i differ, and r runs one past the degree
    for mod in mods:
        spec = QuotientSpec(n, *mod)
        series.clear_caches()
        for kind in ("L", "M", "N", "B"):
            for d in range(d_max + 1):
                for r in range(1, max(d + 2, 6)):
                    want = ref_quotient_dim(spec, kind, r, d)
                    assert quotient_dim(spec, kind, r, d) == want, (spec, kind, r, d)


def test_j_blocks_are_the_echelon_form_of_m_r_plus_the_product():
    # every cached J block, built or relabelled, read in order, is the
    # reference echelon form of the rows of its M_r block and its product
    # block (helpers.ref_j_block)
    n, compared = 3, 0
    for mod in ((2, 2), (2, 3), (3, 2)):
        series.clear_caches()
        spec = QuotientSpec(n, *mod)
        for d in range(7):
            for r in range(1, d + 2):
                quotient_dim(spec, "N", r, d)
                quotient_dim(spec, "M", r, d)
        blocks = [
            (key, S)
            for key, S in series._span_cache.items()
            if key[0] == "M" and len(key[2]) > 1 and key[4] is not None
        ]
        assert any(list(key[4]) != sorted(key[4], reverse=True) for key, _ in blocks)
        for key, S in blocks:
            assert key[2][1:] == mod
            assert S._echelon() == reference_block(*key)._echelon(), key
            compared += 1
    assert compared > 300


def test_j_side_rows_complete_the_left_pads():
    # G with the left pads spans each J block, and C adds to it exactly what
    # L_{r-1} adds, on a sorted and an unsorted content
    series.clear_caches()
    n, index, d = 3, (3, 2, 2), 6
    for c in ((3, 2, 1), (1, 2, 3)):
        J = series._span("M", n, index, d, c)
        G, C = series._span("G", n, ("M", index), d, c), series._span("C", n, ("M", index), d, c)
        pads = series._pads("M", n, index, d, c)
        assert 0 < len(G) < J.dim
        assert GradedSubspace.from_pads(n, d, pads, G.values())._echelon() == J._echelon()
        L = l_span(n, 2, d, c)
        assert 0 < len(C) == extension_dim(J, C.values()) == extension_dim(J, L.int_rows())


def test_a_j_block_below_degree_r_is_the_product_block():
    series.clear_caches()
    for c in ((3, 2, 0), (0, 2, 3), (2, 2, 1)):
        P = product_span(3, (2, 2), 5, c)
        assert series._span("M", 3, (6, 2, 2), 5, c) is P
        assert series._span("M", 3, (7, 2, 3), 5, c) is product_span(3, (2, 3), 5, c)
    assert series._span("M", 3, (6,), 5, (3, 2, 0)).dim == 0
    assert not [key for key in series._span_cache if key[0] == "M" and key[3] < key[2][0]]


def test_layers_above_the_degree_build_nothing():
    # N_r(d) = M_r(d) = 0 for r > d: J_r(d) = J_{r+1}(d) = I(d)
    for mod in ((2, 2), (2, 3)):
        spec = QuotientSpec(3, *mod)
        for d in range(7):
            for r in range(d + 1, d + 4):
                if r < 2:
                    continue
                series.clear_caches()
                assert quotient_dim(spec, "N", r, d) == quotient_dim(spec, "M", r, d) == 0
                assert not series._span_cache, (mod, r, d)


def test_the_first_layer_counts_words_without_a_j_block():
    # J_1 = A: M_1 in A_n/I counts the words outside I, N_1 those outside J_2
    for n in (2, 3):
        spec = QuotientSpec(n, 2, 2)
        for d in range(7):
            series.clear_caches()
            m1 = quotient_dim(spec, "M", 1, d)
            assert m1 == n**d - product_span(n, (2, 2), d).dim
            assert quotient_dim(spec, "N", 1, d) == m1 - quotient_dim(spec, "M", 2, d)
            assert not [key for key in series._span_cache if key[0] == "M" and key[2][0] == 1]


def test_only_l_and_b_layers_take_an_extension_pass(monkeypatch):
    # M and N are differences of J block dimensions, L and B extensions of
    # the product blocks, so iso_check compares two independent paths
    calls = []
    real = series.extension_dim
    monkeypatch.setattr(
        series, "extension_dim", lambda base, rows: calls.append(base.degree) or real(base, rows)
    )
    spec = QuotientSpec(3, 2, 2)
    for kind, extends in (("N", False), ("M", False), ("L", True), ("B", True)):
        series.clear_caches()
        calls.clear()
        assert quotient_dim(spec, kind, 3, 6) == ref_quotient_dim(spec, kind, 3, 6)
        assert bool(calls) == extends, kind


def test_quotient_dim_matches_the_bench_references():
    cells = json.loads(REFERENCES.read_text())["quotient_dims"]
    assert len(cells) == 41
    for q in cells:
        spec = QuotientSpec(q["n"], *q["mod"])
        got = quotient_dim(spec, "N", q["r"], q["d"])
        assert got == ref_quotient_dim(spec, "N", q["r"], q["d"]) == q["dim"], q


def test_quotient_dim_validation():
    spec = QuotientSpec(2, 2, 2)
    with pytest.raises(ValueError):
        quotient_dim(spec, "Q", 1, 3)
    with pytest.raises(ValueError):
        quotient_dim(spec, "N", 0, 3)


def test_sorted_commutators_small():
    assert sorted_commutator_words(2, 2) == [(2, 1)]
    assert sorted_commutator_count(2, 2) == 1
    assert sorted_commutator_count(2, 3) == 2  # (2,1,1), (2,1,2)
    assert sorted_commutator_count(1, 4) == 0


def test_structure_basis_r22_examples():
    assert structure_basis_r22(2, 2, 2) == 1  # only [x2,x1]
    assert structure_basis_r22(2, 2, 3) == 2  # x1[x2,x1], x2[x2,x1]
    assert structure_basis_r22(2, 3, 2) == 0  # below degree r
    assert structure_basis_r22(2, 1, 4) == 5  # commutative monomials


def test_structure_basis_r22_matches_computed_dims():
    for n in (2, 3):
        spec = QuotientSpec(n, 2, 2)
        for r in (2, 3, 4):
            for d in range(7):
                assert structure_basis_r22(n, r, d) == quotient_dim(spec, "N", r, d)


def test_two_row_module_dims():
    r = 7
    assert two_row_module_dim(r - 1, 1) == r - 1
    assert two_row_module_dim(1, 1) == 1
    assert two_row_module_dim(3) == 4
    with pytest.raises(ValueError):
        two_row_module_dim(1, 2)


def test_r23_structure_dims_values():
    dims = r23_structure_dims(5, 8)
    assert dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 6, 6: 12, 7: 18, 8: 24}
    with pytest.raises(ValueError):
        r23_structure_dims(4, 6)


def test_r23_formula_matches_echelon_small():
    spec = QuotientSpec(2, 2, 3)
    dims = r23_structure_dims(5, 6)
    for d in range(7):
        assert quotient_dim(spec, "N", 5, d) == dims[d]


def test_structure_basis_r22_on_a3_at_degree_eight():
    spec = QuotientSpec(3, 2, 2)
    for r, want in ((4, 225), (5, 240)):
        series.clear_caches()
        assert structure_basis_r22(3, r, 8) == quotient_dim(spec, "N", r, 8) == want


def test_r23_formula_matches_echelon_at_degrees_ten_and_eleven():
    spec = QuotientSpec(2, 2, 3)
    dims = r23_structure_dims(5, 11)
    for d, want in ((10, 36), (11, 42)):
        series.clear_caches()
        assert dims[d] == quotient_dim(spec, "N", 5, d) == want


def test_r23_formula_matches_echelon_layer_six():
    spec = QuotientSpec(2, 2, 3)
    dims = r23_structure_dims(6, 8)
    for d in range(9):
        assert quotient_dim(spec, "N", 6, d) == dims[d]


def test_iso_check_rows():
    rows = iso_check(2, [3, 4], 6, n=2)
    asserted = [r for r in rows if r["asserted"]]
    unasserted = [r for r in rows if not r["asserted"]]
    assert all(r["i"] == 4 for r in asserted)  # t = 4 for j = 2
    assert all(r["i"] == 3 for r in unasserted)
    assert all(r["equal"] for r in asserted)
    # degree below i: both sides vanish
    zero_rows = [r for r in rows if r["degree"] < r["i"]]
    assert all(r["dim_B"] == 0 and r["dim_N"] == 0 for r in zero_rows)


def test_iso_check_j_three():
    rows = iso_check(3, [4, 5, 6], 8, n=2)
    assert all(r["asserted"] for r in rows)  # t = 4 for j = 3
    assert all(r["equal"] for r in rows)


def test_metabelian_check():
    assert metabelian_check(2, 5)
    assert metabelian_check(3, 4)
    with pytest.raises(ValueError):
        metabelian_check(2, 3)


def test_metabelian_check_asks_only_blocks():
    series.clear_caches()
    assert metabelian_check(3, 5)
    assert series._span_cache
    assert all(key[4] is not None for key in series._span_cache)
