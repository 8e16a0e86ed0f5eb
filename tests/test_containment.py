import json
from collections import defaultdict
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from lcsideals.containment import (
    ContainmentReport,
    ad_string_poly,
    bound_report,
    check_open_elements,
    conjecture_2k_sweep,
    conjectured_2k_index,
    containment_index,
    default_cutoff,
    pbw_witness,
    sl2_witness,
    _mat_add,
    _mat_bracket,
    _E,
    _F,
    _H,
)
from lcsideals.freealg import Poly, bracket
from lcsideals.linalg import extension_dim, word_rank
from lcsideals.lyndon import is_lyndon, pbw_degree
from lcsideals import containment, series
from lcsideals.series import (
    IdealSpec,
    balanced_content,
    l_span,
    m_span,
    product_span,
    spec_contains,
    word_content,
)

from helpers import (
    adjoint_power,
    ascending_per_degree,
    search_witness,
    sorted_per_degree,
    tuples_with_sum_at_most,
)

# criterion 1's grid on A_2 and the A_3 bench questions sit at the PBW bound;
# A_4 and A_5 (2,2), index 2 < bound 3, walk down from it
WALK_CELLS = [(2, t, sum(t) + 2) for t in tuples_with_sum_at_most(7)] + [
    (3, (3, 3), 7),
    (3, (2, 5), 7),
    (3, (3, 4), 7),
    (3, (2, 2, 2), 7),
    (4, (2, 2), 6),
    (4, (2, 3), 6),
    (5, (2, 2), 6),
]


def test_headline_example_a2_22():
    rep = containment_index(2, (2, 2), 6)
    assert rep.index_observed == 3
    assert rep.upper_bound_pbw == 3
    assert rep.lower_bound_formula == 2
    assert rep.witness_degree == 4
    # definitive non-containment of the witness
    assert not m_span(2, 4, 4).contains(rep.witness)
    assert m_span(2, 3, 4).contains(rep.witness)


def test_a3_22_is_three():
    rep = containment_index(3, (2, 2), 6)
    assert rep.index_observed == 3


def test_small_theorem1_cells():
    for t in [(2,), (3,), (2, 3), (2, 2, 2)]:
        rep = containment_index(2, t, sum(t) + 2)
        assert rep.index_observed == sum(t) - len(t) + 1


@pytest.mark.parametrize("t", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4)])
def test_a3_sample_of_the_sum_at_most_7_table_reaches_the_pbw_bound(t):
    # the n = 3 analogue of criterion 1, tabulated in the README for all 20
    # tuples with entry sum <= 7: index sum - k + 1 at every degree to sum + 2
    series.clear_caches()
    rep = containment_index(3, t, sum(t) + 2)
    bound = sum(t) - len(t) + 1
    assert rep.index_observed == rep.upper_bound_pbw == bound
    assert [max(r["contained_in"]) for r in rep.to_json_obj()["per_degree"]] == [bound] * 3


def test_walking_search_matches_ascending_loop():
    # the ascending reference tests up to bound + 1 on whole-degree spans and
    # uses no symmetry, so both theorems the walk rests on, the stop at the
    # bound and the one balanced block, are checked by computation here, and
    # so is the third, that per_degree never increases; the sorted reference
    # is a walk up or down over every sorted content
    for n, t, cutoff in WALK_CELLS:
        got = containment_index(n, t, cutoff).per_degree
        ascending = ascending_per_degree(n, t, cutoff)
        assert got == ascending, (n, t)
        assert got == sorted_per_degree(n, t, cutoff), (n, t)
        assert all(ascending[d] <= ascending[d - 1] for d in range(sum(t) + 1, cutoff + 1)), (n, t)


@pytest.mark.parametrize("n, d_max", [(2, 8), (3, 7), (4, 6)])
def test_no_letter_is_a_zero_divisor_modulo_m(n, d_max):
    # the lemma of containment_index: M_s(d) ∩ x_i·A(d-1) = x_i·M_s(d-1),
    # and the same on the right, so the words of content c that begin (end)
    # with x_i meet M_s(d)[c] in a space of dimension dim M_s(d-1)[c - e_i]
    for d in range(2, d_max + 1):
        units = defaultdict(list)  # (side, c, c - e_i) -> unit rows
        for w in product(range(1, n + 1), repeat=d):
            row = {word_rank(w, n): 1}
            c = word_content(n, w)
            units["begin", c, word_content(n, w[1:])].append(row)
            units["end", c, word_content(n, w[:-1])].append(row)
        for s in range(2, 6):
            for (side, c, rest), X in units.items():
                meet = len(X) - extension_dim(m_span(n, s, d, c), X)
                assert meet == m_span(n, s, d - 1, rest).dim, (n, s, side, c, rest)


def test_containment_builds_only_the_balanced_cone():
    # at degree 7 only the product block of μ(7) = (3,2,2) is built, and every
    # block built lies in the cone below it; a walk over more contents fails
    series.clear_caches()
    containment_index(3, (3, 4), 7)
    keys = list(series._span_cache)
    assert {key[4] for key in keys if key[0] in "MP" and key[3] == 7} == {(3, 2, 2)}
    for key in keys:
        assert key[4] is not None and all(a <= b for a, b in zip(key[4], (3, 2, 2))), key


def test_witness_content_is_the_balanced_content():
    # letters are assigned cyclically, so the witness test reuses the walk's
    # cone at the witness degree
    for n in range(2, 6):
        for t in [(2,), (3,), (2, 2), (2, 3), (4, 2), (2, 2, 3), (3, 3, 3)]:
            w = pbw_witness(n, t)
            assert {word_content(n, v) for v in w.terms} == {balanced_content(n, sum(t))}


def test_per_degree_is_monotone_in_n_and_stable_for_n_at_least_d():
    # x_{n+1} -> 0 maps each ideal of A_{n+1} onto the same ideal of A_n, so
    # per_degree can only fall as n grows; for n >= d the balanced block is
    # the multilinear block of A_d, so it stops changing
    per = {
        (t, n): containment_index(n, t, 6).per_degree
        for t in ((2, 2), (2, 3))
        for n in range(2, 7)
    }
    for (t, n), got in per.items():
        if n > 2:
            assert all(got[d] <= per[t, n - 1][d] for d in got), (t, n)
        for d in got:
            if n >= d:
                assert got[d] == per[t, d][d], (t, n, d)
    for n in (2, 3):
        assert per[(2, 2), n] == {4: 3, 5: 3, 6: 3}
    for n in (4, 5, 6):
        assert per[(2, 2), n] == {4: 2, 5: 2, 6: 2}
    assert all(per[(2, 3), n] == {5: 4, 6: 4} for n in range(2, 7))


def test_element_questions_build_only_their_own_blocks():
    series.clear_caches()
    # the witness question: (2,2,2) has PBW bound 4, so the target is M_5
    assert not spec_contains(IdealSpec("M", 4, index=5), pbw_witness(4, (2, 2, 2)))
    mu = balanced_content(4, 6)
    for key in series._span_cache:
        assert key[4] is not None and all(a <= b for a, b in zip(key[4], mu)), key


def test_walk_builds_no_m_above_the_bound_past_the_witness_degree():
    # P(d) is outside M_{bound+1}(d) at every degree by the PBW theorem, the
    # witness degree included, so M_{bound+1} is never built
    for n, t, cutoff in ((3, (3, 3), 7), (2, (2, 4), 10)):
        series.clear_caches()
        rep = containment_index(n, t, cutoff)
        over = (rep.upper_bound_pbw + 1,)
        assert rep.index_observed == rep.upper_bound_pbw
        assert not [
            key for key in series._span_cache if key[0] == "M" and key[2] == over
        ], (n, t)


def test_single_factor_tuple_builds_no_span():
    # P = M_7 ⊆ M_s for s <= 7 needs no build, and M_7 ⊄ M_8 is the PBW bound
    series.clear_caches()
    rep = containment_index(3, (7,), 9)
    assert rep.index_observed == 7
    assert rep.per_degree == {7: 7, 8: 7, 9: 7}
    assert not series._span_cache


def test_walk_down_to_the_largest_factor_builds_no_m_of_it():
    # A_4 (2,2) leaves M_3 at every degree; M_2 holds it by the two-sided
    # ideal argument, so its blocks at degrees 4 and 5 are no longer built
    series.clear_caches()
    rep = containment_index(4, (2, 2), 5)
    assert rep.to_json_obj() == {
        "n": 4,
        "tuple": [2, 2],
        "cutoff": 5,
        "index": 2,
        "upper": 3,
        "lower": 2,
        "witness_expr": "x1*x2*x3*x4 - x1*x2*x4*x3 - x2*x1*x3*x4 + x2*x1*x4*x3",
        "witness_degree": 4,
        "witness_target": 3,
        "per_degree": [
            {"degree": 4, "contained_in": [1, 2]},
            {"degree": 5, "contained_in": [1, 2]},
        ],
    }
    built = {key[3] for key in series._span_cache if key[:3] == ("M", 4, (2,))}
    assert built == {2}
    # per_degree[4] = 2 ends the walk: degree 5 starts at 2 and builds nothing
    assert not [key for key in series._span_cache if key[3] == 5]


@pytest.mark.parametrize("n, cutoff", [(4, 10), (5, 9), (6, 8)])
def test_22_on_four_or_more_generators_stays_at_two_and_builds_only_degree_four(n, cutoff):
    # per_degree[4] = 2 = max t, and per_degree never increases, so every
    # later degree answers 2 without a build
    series.clear_caches()
    rep = containment_index(n, (2, 2), cutoff)
    assert rep.per_degree == {d: 2 for d in range(4, cutoff + 1)}
    assert max(key[3] for key in series._span_cache) == 4


def test_report_is_a_value():
    w = pbw_witness(2, (2, 2))
    fields = dict(
        n=2,
        indices=(2, 2),
        cutoff=5,
        index_observed=3,
        upper_bound_pbw=3,
        lower_bound_formula=2,
        witness=w,
        witness_degree=4,
        witness_target=4,
        per_degree={4: 3, 5: 3},
    )
    rep = ContainmentReport(**fields)
    assert rep == ContainmentReport(*fields.values()) == containment_index(2, (2, 2), 5)
    assert rep != ContainmentReport(**dict(fields, cutoff=6))
    assert rep.to_json_obj() == {
        "n": 2,
        "tuple": [2, 2],
        "cutoff": 5,
        "index": 3,
        "upper": 3,
        "lower": 2,
        "witness_expr": "x1*x2*x1*x2 - x1*x2*x2*x1 - x2*x1*x1*x2 + x2*x1*x2*x1",
        "witness_degree": 4,
        "witness_target": 4,
        "per_degree": [
            {"degree": 4, "contained_in": [1, 2, 3]},
            {"degree": 5, "contained_in": [1, 2, 3]},
        ],
    }


def test_pbw_witness_is_outside_m_above_the_bound():
    # the theorem containment_index relies on at index = bound, checked by
    # computation on more generators than criterion 2 covers
    for n in (4, 5):
        for t in tuples_with_sum_at_most(6):
            over = IdealSpec("M", n, index=bound_report(n, t)[1] + 1)
            assert not spec_contains(over, pbw_witness(n, t)), (n, t)


def test_containment_refuses_one_generator_before_building_spans():
    series.clear_caches()
    with pytest.raises(ValueError, match="witness construction needs n >= 2"):
        containment_index(1, (2, 2), 6)
    assert not series._span_cache


def test_bench_containment_references():
    # the answers the bench checks; a wrong fast path fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    questions = json.loads(path.read_text())["containment"]
    assert len(questions) == 13
    for q in questions:
        rep = containment_index(q["n"], tuple(q["tuple"]), q["cutoff"])
        assert rep.index_observed == q["index"], q
        assert set(rep.per_degree.values()) == {q["index"]}, q


def test_cutoff_too_small():
    with pytest.raises(ValueError):
        containment_index(2, (2, 2), 3)
    assert default_cutoff((2, 2)) == 6


def test_tuple_validation():
    with pytest.raises(ValueError):
        containment_index(2, (1, 2), 5)
    with pytest.raises(ValueError):
        bound_report(2, ())


def test_report_json_schema():
    rep = containment_index(2, (2, 2), 5)
    obj = rep.to_json_obj()
    assert set(obj) >= {
        "n",
        "tuple",
        "cutoff",
        "index",
        "upper",
        "lower",
        "witness_expr",
        "witness_degree",
        "per_degree",
    }
    assert obj["per_degree"][0]["contained_in"] == [1, 2, 3]
    assert rep.lower_bound_formula <= rep.index_observed <= rep.upper_bound_pbw


def test_even_pair_on_four_generators_drops_below_upper_bound():
    # with four generators the two-factor even product already fails M_3,
    # so the observed index sits strictly below the filtration upper bound
    rep = containment_index(4, (2, 2), 6)
    assert rep.index_observed == 2
    assert rep.index_observed == conjectured_2k_index(4, 2)
    assert rep.index_observed < rep.upper_bound_pbw
    assert not m_span(4, 3, rep.witness_degree).contains(rep.witness)


@pytest.fixture
def square_witness(monkeypatch):
    # [x1,x2]·[x1,x2] lies in P(4) of (2,2) and, by the pigeonhole identity,
    # in M_3, so containment_index must report a row its walk kept
    def square(n, indices):
        c = bracket(Poly.gen(n, 1), Poly.gen(n, 2))
        return c * c

    monkeypatch.setattr(containment, "pbw_witness", square)
    return square


def test_search_witness_scans_generators(square_witness):
    rep = containment_index(4, (2, 2), 5)
    assert m_span(4, 3, 4).contains(square_witness(4, (2, 2)))
    w, d = rep.witness, rep.witness_degree
    assert w.degree() == d
    assert product_span(4, (2, 2), d).contains(w)
    assert not m_span(4, 3, d).contains(w)


def test_search_witness_asks_only_the_balanced_blocks(square_witness):
    # P(4) already leaves M_3, so the walk keeps its row at degree 4; there it
    # builds the product and each M_s on the balanced content alone, the
    # forced witness is asked of its own block, and nowhere is a whole-degree
    # union built
    series.clear_caches()
    containment_index(4, (2, 2), 4)
    keys = list(series._span_cache)
    assert all(key[4] is not None for key in keys), keys
    own = ("M", 4, (3,), 4, (2, 2, 0, 0))
    assert own in keys
    scanned = [key for key in keys if key[0] in "MP" and key[3] >= 4 and key != own]
    assert scanned
    assert all(key[4] == balanced_content(4, key[3]) for key in scanned), scanned


@pytest.mark.parametrize("n,cutoff", [(4, 6), (4, 7), (5, 6)])
def test_walk_keeps_the_row_a_rescan_finds(square_witness, n, cutoff):
    # P leaves M_3 at degree 4 and again at every later degree, so only the
    # first failure the walk records is the rescan's witness
    rep = containment_index(n, (2, 2), cutoff)
    assert rep.index_observed == 2
    assert (rep.witness, rep.witness_degree) == search_witness(n, (2, 2), 2, cutoff)


def test_report_witness_is_definitive():
    # the report invariant: whatever index was observed, the attached
    # witness fails membership in M_{index+1} at its own degree
    for t in [(2,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        rep = containment_index(2, t, sum(t) + 1)
        assert not m_span(2, rep.index_observed + 1, rep.witness_degree).contains(
            rep.witness
        )
        assert rep.witness_target == rep.index_observed + 1


def test_bound_report_examples():
    # both even: the pairwise rule gives m+l-2
    assert bound_report(2, (2, 4)) == (4, 5)
    # one odd: m+l-1
    assert bound_report(2, (3, 4)) == (6, 6)
    # all odd: lower = upper = sum - k + 1
    assert bound_report(2, (3, 3, 5)) == (9, 9)
    assert bound_report(2, (5,)) == (5, 5)


def test_pbw_witness_shape_and_membership():
    w = pbw_witness(2, (2, 2))
    b = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    assert w == b * b
    assert pbw_degree(w) == 2
    assert not m_span(2, 4, 4).contains(w)  # M2·M2 ⊄ M4
    assert pbw_witness(2, (4,)).degree() == 4


def test_pbw_witness_factor_words_are_lyndon():
    # the sorted letter choices must land on Lyndon words for every tuple
    for n in (2, 3):
        for t in [(2,), (3,), (2, 2), (2, 3), (4, 2), (2, 2, 3)]:
            cursor = 0
            for length in t:
                letters = tuple(sorted(1 + (cursor + s) % n for s in range(length)))
                cursor += length
                assert is_lyndon(letters)
            w = pbw_witness(n, t)
            assert not w.is_zero()
            assert w.degree() == sum(t)
            assert pbw_degree(w) == len(t)


def test_witness_single_entry_tuple_is_lie_element():
    w = pbw_witness(2, (5,))
    assert pbw_degree(w) == 1
    assert l_span(2, 5, 5).contains(w)


def test_sl2_ad_string_identity():
    # ad^k(h)(e+f) = 2^k (e-f) for odd k, 2^k (e+f) for even k
    ef = _mat_add(_E, _F)
    emf = _mat_add(_E, _F, sign=-1)
    cur = ef
    for k in range(1, 7):
        cur = _mat_bracket(_H, cur)
        want = emf if k % 2 else ef
        scale = 2**k
        assert cur == tuple(
            tuple(scale * want[i][j] for j in range(2)) for i in range(2)
        )


def test_sl2_trace_values_same_parity():
    # ad^{i-1}(h)(e+f) = 2^{i-1}(e±f), so the product evaluates to
    # 2^{i+j-2}(e±f)² = ±2^{i+j-2}·I: trace +2^(i+j-1) for both indices
    # odd, -2^(i+j-1) for both even
    for i in range(2, 7):
        for j in range(2, 7):
            if (i - j) % 2:
                continue
            _, trace = sl2_witness(i, j, 2)
            expected = 2 ** (i + j - 1)
            assert trace == (expected if i % 2 else -expected)


def test_sl2_trace_nonzero_mixed_parity():
    _, trace = sl2_witness(2, 3, 3)
    assert trace != 0


def test_sl2_hypothesis_errors():
    with pytest.raises(ValueError):
        sl2_witness(2, 3, 2)  # mixed parity needs n >= 3
    with pytest.raises(ValueError):
        sl2_witness(1, 3, 2)


def test_sl2_matches_free_algebra_evaluation():
    # evaluate the same element inside A_2 and map words to matrices
    def phi(p: Poly):
        images = {1: _mat_add(_E, _F), 2: _H}
        zero = ((Fraction(0),) * 2,) * 2
        out = zero
        for w, c in p.terms.items():
            m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            for letter in w:
                a, b = m, images[letter]
                m = tuple(
                    tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                    for i in range(2)
                )
            out = tuple(
                tuple(out[i][j] + c * m[i][j] for j in range(2)) for i in range(2)
            )
        return out

    for i, j in [(2, 2), (3, 3), (2, 4)]:
        elem = ad_string_poly(2, i, 1) * ad_string_poly(2, j, 1)
        got, trace = sl2_witness(i, j, 2)
        assert phi(elem) == got
        assert trace == got[0][0] + got[1][1]


def test_ad_string_poly_matches_the_adjoint_power_reference():
    # ad^{i-1}(x2)(x_core) is the pure commutator chain (2, ..., 2, core)
    for n in (2, 3):
        x2 = Poly.gen(n, 2)
        for i in range(1, 7):
            for core in range(1, n + 1):
                want = adjoint_power(x2, i - 1, Poly.gen(n, core))
                assert ad_string_poly(n, i, core) == want, (n, i, core)


def test_open_elements_contained_at_degree_six():
    rows = check_open_elements(6)
    assert len(rows) == 3
    assert all(r["contained"] for r in rows)
    assert all(r["degree"] == 6 for r in rows)
    for cutoff in (5, 8):  # only degrees 6 and 7 are checked
        with pytest.raises(ValueError, match="cutoff must be 6 or 7"):
            check_open_elements(cutoff)


def test_conjectured_2k_formula_values():
    assert conjectured_2k_index(2, 3) == 4  # k+1
    assert conjectured_2k_index(3, 2) == 3
    assert conjectured_2k_index(4, 1) == 2  # max term vanishes
    assert conjectured_2k_index(4, 3) == 4
    assert conjectured_2k_index(5, 2) == 2
    with pytest.raises(ValueError):
        conjectured_2k_index(1, 2)


def test_conjecture_sweep_small():
    rows = conjecture_2k_sweep(3, 2)
    assert all(r["match"] for r in rows)
    assert {(r["n"], r["k"]) for r in rows} == {(2, 1), (2, 2), (3, 1), (3, 2)}
    with pytest.raises(ValueError):
        conjecture_2k_sweep(6, 2)
