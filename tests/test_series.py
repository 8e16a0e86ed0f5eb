import json
import re
import sys
import threading
import tracemalloc
from collections import Counter
from copy import copy
from itertools import permutations
from pathlib import Path
from random import Random

import pytest

from lcsideals import series
from lcsideals.containment import bound_report, containment_index, pbw_witness, sl2_witness
from lcsideals.freealg import Poly, all_words, bracket, nested_word_chain
from lcsideals.linalg import GradedSubspace, extension_dim, rank_word, word_rank
from lcsideals.quotients import QuotientSpec
from lcsideals.series import (
    DimTable,
    IdealSpec,
    SpanIdeal,
    dim_table,
    generators_S,
    l_span,
    m_span,
    product_generators,
    product_span,
    shapes_for_index,
    spec_contains,
    spec_dim,
    spec_span,
)

from helpers import (
    _whole_generator_rows,
    assert_echelon,
    assert_reduced,
    closed_even_forms_dim,
    commutative_monomial_count,
    composed_product_span,
    even_forms_dim,
    full_slot_l_candidates,
    gl_multiplicities,
    left_ideal_span,
    multinomial,
    necklace_count,
    oracle_l_span,
    oracle_m_span,
    oracle_product_span,
    padded_m_span,
    poincare_closed_even_forms,
    random_homogeneous,
    ref_l_candidates,
    ref_necklace_classes,
    reference_block,
    subspaces_equal,
    taken_scan_side_rows,
    whole_l_span,
    whole_m_span,
    whole_product_span,
)

PRODUCT_TUPLES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)]


def test_l_span_frozen_values():
    assert l_span(2, 2, 2).dim == 1
    assert l_span(2, 1, 3).dim == 8
    assert l_span(2, 2, 3).dim == 4
    assert l_span(2, 3, 2).dim == 0  # below degree k


def test_l_span_dim_matches_necklace_complement():
    # L_2 at degree d has codimension = number of cyclic word classes
    for n in (2, 3):
        for d in (2, 3, 4, 5):
            assert l_span(n, 2, d).dim == n**d - necklace_count(n, d)


def test_l_span_matches_bruteforce_oracle():
    for n, k, d in [(2, 2, 2), (2, 2, 4), (2, 3, 4), (2, 3, 5), (3, 2, 3), (3, 3, 4)]:
        assert subspaces_equal(l_span(n, k, d), oracle_l_span(n, k, d))


def test_l_span_necklace_build_matches_full_slot_brackets():
    # one word per necklace for slots e >= 2 spans the same L_k as every
    # monomial; reduced echelon form is unique, so the rows agree exactly
    for n, d_max in ((2, 9), (3, 7)):
        for k in range(3, 7):
            for d in range(k, d_max + 1):
                want = GradedSubspace.from_rows(n, d, full_slot_l_candidates(n, k, d))
                assert l_span(n, k, d)._echelon() == want._echelon(), (n, k, d)


def test_necklace_representatives_are_one_per_rotation_class():
    for n, e_max in ((2, 8), (3, 5), (4, 4)):
        for e in range(1, e_max + 1):
            classes = series._necklace_classes(n, e)
            words = [rank_word(r, n, e) for ranks in classes.values() for r in ranks]
            classes = {min(w[i:] + w[:i] for i in range(e)) for w in words}
            assert len(words) == len(classes) == necklace_count(n, e), (n, e)
            assert all(w == min(w[i:] + w[:i] for i in range(e)) for w in words)


def test_necklace_classes_match_the_rotation_scan():
    # the necklaces read off the Lyndon words, against the scan of all n^e
    # words that they replaced: the same dict in the same key order
    for n in range(1, 6):
        for e in range(1, 8):
            got, want = series._necklace_classes(n, e), ref_necklace_classes(n, e)
            assert got == want and list(got) == list(want), (n, e)


def test_l_candidates_match_the_rotation_scan_reference():
    # the one-letter slot from _letter_brackets and the longer ones from
    # the Lyndon necklaces offer the rows of the old build, in its order, on
    # every block that is built from candidates, so every block is unchanged
    cells = [
        (n, k, d, c)
        for n, d_max in ((2, 9), (3, 7), (4, 6))
        for k in range(2, 6)
        for d in range(k, d_max + 1)
        for c in series.contents(n, d)
        if max(c) < d
    ]
    assert len(cells) == 1150
    for cell in cells:
        assert list(series._l_candidates(*cell)) == list(ref_l_candidates(*cell)), cell


def test_m_span_frozen_values():
    assert m_span(2, 2, 2).dim == 1
    assert m_span(2, 2, 3).dim == 4
    for d in (0, 1):
        assert m_span(2, 2, d).dim == 0
    assert m_span(2, 5, 3).dim == 0


def test_m_span_complement_is_polynomial_ring():
    # A_2/M_2 is the polynomial ring: codim = commutative monomial count
    for d in range(6):
        assert m_span(2, 2, d).dim == 2**d - commutative_monomial_count(2, d)


def test_m_span_matches_bruteforce_oracle():
    for n, k, d in [(2, 2, 3), (2, 2, 4), (2, 3, 5), (3, 2, 3), (3, 3, 4)]:
        assert subspaces_equal(m_span(n, k, d), oracle_m_span(n, k, d))


def test_m_span_left_ideal_build_matches_two_sided_padding():
    for n, d_max in ((2, 9), (3, 6)):
        for k in range(2, 7):
            for d in range(d_max + 1):
                a, b = m_span(n, k, d), padded_m_span(n, k, d)
                assert a.pivot_words() == b.pivot_words(), (n, k, d)
                assert a.row_polys() == b.row_polys(), (n, k, d)


def test_product_span_left_ideal_build_matches_composed_products():
    for n, d_max in ((2, 9), (3, 6)):
        for t in PRODUCT_TUPLES:
            for d in range(d_max + 1):
                a, b = product_span(n, t, d), composed_product_span(n, t, d)
                assert a.pivot_words() == b.pivot_words(), (n, t, d)
                assert a.row_polys() == b.row_polys(), (n, t, d)


def test_block_unions_match_whole_degree_builds():
    # reduced echelon form is unique and the blocks have disjoint supports,
    # so the union of a degree's blocks is the whole-degree build row for row
    for n, d_max in ((2, 9), (3, 6)):
        for d in range(d_max + 1):
            for k in range(1, 7):
                assert l_span(n, k, d)._echelon() == whole_l_span(n, k, d)._echelon(), (n, k, d)
                assert m_span(n, k, d)._echelon() == whole_m_span(n, k, d)._echelon(), (n, k, d)
            for t in PRODUCT_TUPLES:
                got = product_span(n, t, d)._echelon()
                assert got == whole_product_span(n, t, d)._echelon(), (n, t, d)


def cached_blocks() -> list:
    """The cached L, M and P blocks of one content, without the side rows."""
    return [(key, S) for key, S in series._span_cache.items() if key[0] in "LMP" and key[4]]


def assert_cached_blocks_match_the_reference() -> int:
    """Every cached block, built or relabelled, is reduced, and its ordered
    rows equal its build on the reference echelon from its own candidate
    rows, row for row; returns how many blocks were compared.  The M_s
    blocks are built from side rows, and the reference builds them from the
    brackets [V, L_{s-1}]."""
    blocks = cached_blocks()
    for key, S in blocks:
        assert_reduced(S)
        assert_echelon(S)
        assert S._echelon() == reference_block(*key)._echelon(), key
    return len(blocks)


# the differential cells: (n, largest M index, largest degree)
DIFFERENTIAL_CELLS = [(2, 4, 6), (3, 3, 5)]
DIFFERENTIAL_PRODUCTS = [(2, 2), (2, 3), (3, 2), (2, 2, 2)]


def test_blocks_of_the_differential_cells_match_the_reference_echelon():
    series.clear_caches()
    for n, k_max, d_max in DIFFERENTIAL_CELLS:
        for d in range(d_max + 1):
            for k in range(1, k_max + 1):
                m_span(n, k, d)
            for t in DIFFERENTIAL_PRODUCTS:
                product_span(n, t, d)
    kinds = {(key[0], key[2] == 1) for key in series._span_cache}
    want = {("L", True), ("L", False), ("M", False), ("P", False), ("G", False), ("C", False)}
    assert want <= kinds
    assert assert_cached_blocks_match_the_reference() > 100


# the containment_cold questions of the bench
BENCH_QUESTIONS = [
    (2, (2, 4), 10), (2, (3, 3), 10), (2, (2, 2, 3), 10),
    (2, (2, 4), 9), (2, (3, 3), 9), (2, (2, 2, 3), 9), (2, (2, 3, 2), 9), (2, (3, 4), 9),
    (2, (2, 5), 9),
    (3, (3, 3), 7), (3, (2, 5), 7), (3, (3, 4), 7), (3, (4, 3), 7),
]
# two of them first, then the others and two on A_4
CONE_QUESTIONS = [(2, (2, 4), 10), (3, (3, 3), 7)]
CONE_QUESTIONS += [q for q in BENCH_QUESTIONS if q not in CONE_QUESTIONS]
CONE_QUESTIONS += [(4, (2, 2), 7), (4, (2, 2, 2), 7)]


def test_the_cone_questions_are_the_bench_questions():
    refs = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
    )
    asked = [(q["n"], tuple(q["tuple"]), q["cutoff"]) for q in refs["containment"]]
    assert asked == BENCH_QUESTIONS


@pytest.mark.parametrize("n,t,cutoff", CONE_QUESTIONS)
def test_balanced_blocks_and_cones_match_the_reference_echelon(n, t, cutoff):
    series.clear_caches()
    containment_index(n, t, cutoff)
    assert assert_cached_blocks_match_the_reference()
    side = [key for key in series._span_cache if key[0] in "GC"]
    assert side and any(key[0] == "M" and key[3] > key[2][0] for key, _ in cached_blocks())


def two_tier_blocks() -> list:
    """The cached blocks whose side rows are still apart from their pads."""
    return [(key, S) for key, S in cached_blocks() if S._tiers[1]]


def random_probes(rng: Random, rows: list[dict], count: int) -> list[dict]:
    """Seeded rows over the support of rows: sums of three of them with
    small coefficients, half of them plus one word of that support."""
    words = sorted({r for row in rows for r in row})
    probes = []
    for _ in range(count):
        vec: dict[int, int] = {}
        for row in rng.sample(rows, min(3, len(rows))):
            a = rng.randint(-3, 3)
            for r, v in row.items():
                vec[r] = vec.get(r, 0) + a * v
        if rng.random() < 0.5:
            w = rng.choice(words)
            vec[w] = vec.get(w, 0) + rng.randint(1, 3)
        probes.append({r: v for r, v in vec.items() if v})
    return probes


def assert_two_tiers_answer_as_completed(rng: Random) -> int:
    """Each cached two-tier block answers dim, membership and extension as
    its completed form, read from a copy: on every row of each cached P
    block of its n, degree and content, on every completed row, which must
    lie in it, and on seeded random rows.  Asking leaves it in two tiers.
    Returns how many blocks were compared."""
    blocks = two_tier_blocks()
    products: dict[tuple, list[dict]] = {}
    for (kind, n, _, d, c), P in cached_blocks():
        if kind == "P":
            products.setdefault((n, d, c), []).extend(copy(P)._echelon().values())
    for key, S in blocks:
        _, n, _, d, c = key
        done = copy(S)
        rows = list(done._echelon().values())
        assert not done._tiers[1] and S.dim == done.dim == len(rows), key
        assert all(S.contains_row(row) for row in rows), key
        probes = products.get((n, d, c), []) + random_probes(rng, rows, 12)
        assert [S.contains_row(v) for v in probes] == [done.contains_row(v) for v in probes], key
        assert extension_dim(S, probes) == extension_dim(done, probes), key
        assert S._tiers[1] and not S._ordered, key
    return len(blocks)


# the blocks of the differential cells, one content at a time, and J = M_3 + P
TWO_TIER_LOADS = ["differential", *BENCH_QUESTIONS, (4, (2, 2, 2), 8)]


@pytest.mark.parametrize("load", TWO_TIER_LOADS, ids=str)
def test_two_tier_blocks_answer_as_their_completed_form(load):
    series.clear_caches()
    if load == "differential":
        for n, k_max, d_max in DIFFERENTIAL_CELLS:
            for d in range(d_max + 1):
                for c in series.sorted_contents(n, d):
                    for k in range(2, k_max + 1):
                        m_span(n, k, d, c)
                    for t in DIFFERENTIAL_PRODUCTS:
                        product_span(n, t, d, c)
                        series._span("M", n, (3,) + t, d, c)
    else:
        containment_index(*load)
    kinds = {(key[0], len(key[2]) > 1) for key, _ in two_tier_blocks()}
    want = {("M", False), ("M", True), ("P", True)} if load == "differential" else {("M", False)}
    assert kinds == want
    assert assert_two_tiers_answer_as_completed(Random(str(load))) > 0
    side = [key for key in series._span_cache if key[0] == "G" and is_sorted(key[4])]
    assert side
    for _, n, owner, d, c in side:
        got = series._span_cache["G", n, owner, d, c]
        assert list(got.items()) == list(taken_scan_side_rows(n, owner, d, c).items())
    assert assert_cached_blocks_match_the_reference()


def is_sorted(c) -> bool:
    return list(c) == sorted(c, reverse=True)


def test_only_sorted_contents_are_built_from_candidate_rows(monkeypatch):
    built = []
    for name in ("_l_block", "_ideal_block", "_side_rows"):
        real = getattr(series, name)

        def spy(*args, real=real):
            built.append(args[-1])
            return real(*args)

        monkeypatch.setattr(series, name, spy)
    series.clear_caches()
    containment_index(3, (3, 3), 7)
    m_span(3, 4, 6)
    product_span(3, (2, 3), 6)
    l_span(4, 3, 5)
    assert built and all(is_sorted(c) for c in built)
    relabelled = [key for key in series._span_cache if key[4] and not is_sorted(key[4])]
    assert {key[0] for key in relabelled} == {"L", "M", "P", "G", "C"}


def test_clear_caches_leaves_no_side_rows():
    series.clear_caches()
    m_span(3, 4, 7, (1, 2, 4))
    assert {key[0] for key in series._span_cache} == {"L", "M", "G", "C"}
    series.clear_caches()
    assert not [key for key in series._span_cache if key[0] in "GC"]
    assert series._rank_tables.cache_info().currsize == 0


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_relabelled_side_rows_of_an_unsorted_block(s):
    # G with the left pads spans block c of M_s, and C adds to it exactly
    # what L_{s-1} adds, and all of L_{s-1}
    series.clear_caches()
    n, d, c = 3, 7, (1, 2, 4)
    owner = ("M", (s,))
    G, C = series._span("G", n, owner, d, c), series._span("C", n, owner, d, c)
    assert ("G", n, owner, d, (4, 2, 1)) in series._span_cache
    M, L = m_span(n, s, d, c), l_span(n, s - 1, d, c)
    pads = series._pads("M", n, (s,), d, c)
    assert 0 < len(G) < M.dim
    assert GradedSubspace.from_pads(n, d, pads, G.values())._echelon() == M._echelon()
    assert 0 < len(C) == extension_dim(M, C.values()) == extension_dim(M, L.int_rows())
    both = GradedSubspace.from_rows(n, d, [*M.int_rows(), *C.values()])
    assert all(both.contains_row(row) for row in L.int_rows())


def test_rank_tables_map_every_word_by_its_letters():
    for n, d in ((2, 7), (3, 5), (4, 4)):
        for sigma in set(permutations(range(n))):
            base, high, low = series._rank_tables(n, d, sigma)
            for r in range(n**d):
                want = word_rank([sigma[x - 1] + 1 for x in rank_word(r, n, d)], n)
                assert high[r // base] + low[r % base] == want, (n, d, sigma, r)


def test_a_content_may_be_any_sequence_of_ints():
    series.clear_caches()
    assert l_span(2, 2, 3, [1, 2]) is l_span(2, 2, 3, (1, 2))
    assert m_span(3, 3, 5, [1, 2, 2]) is m_span(3, 3, 5, (1, 2, 2))
    assert product_span(3, (2, 2), 5, [2, 1, 2]) is product_span(3, (2, 2), 5, (2, 1, 2))
    with pytest.raises(ValueError, match="not a letter content"):
        l_span(2, 2, 3, [1, 1])


def test_feigin_shoikhet_closed_form_is_the_poincare_sum():
    for s in range(12):
        assert closed_even_forms_dim((1,) * s) == poincare_closed_even_forms(s), s


def assert_feigin_shoikhet(n: int, d: int, c) -> None:
    assert multinomial(c) - m_span(n, 3, d, c).dim == even_forms_dim(c), (n, d, c)
    assert l_span(n, 2, d, c).dim - l_span(n, 3, d, c).dim == closed_even_forms_dim(c), (n, d, c)


def test_a_mod_m3_and_l2_mod_l3_blocks_have_the_feigin_shoikhet_dims():
    for n, d_max in ((2, 8), (3, 6), (4, 5)):
        for d in range(d_max + 1):
            for c in series.contents(n, d):
                assert_feigin_shoikhet(n, d, c)


@pytest.mark.parametrize("n,d", [(3, 8), (4, 7), (5, 6)])
def test_feigin_shoikhet_dims_on_a_balanced_and_an_unsorted_block(n, d):
    series.clear_caches()
    mu = series.balanced_content(n, d)
    assert not is_sorted(mu[::-1])
    for c in (mu, mu[::-1]):
        assert_feigin_shoikhet(n, d, c)


def test_building_a_block_leaves_the_cached_blocks_as_they_were():
    series.clear_caches()
    for c in series.contents(3, 4):
        m_span(3, 3, 4, c)
    def rows(S):  # a block's ordered rows, or side rows
        return S if isinstance(S, dict) else S._echelon()

    held = {
        key: {p: dict(row) for p, row in rows(S).items()}
        for key, S in series._span_cache.items()
    }
    assert {key[0] for key in held} == {"L", "M", "G", "C"}
    m_span(3, 3, 5, (2, 2, 1))
    assert {key: rows(series._span_cache[key]) for key in held} == held


def test_union_shares_the_block_rows():
    whole = m_span(3, 3, 5)
    for c in series.contents(3, 5):
        for pivot, row in m_span(3, 3, 5, c)._echelon().items():
            assert whole._echelon()[pivot] is row
    assert whole.dim == sum(m_span(3, 3, 5, c).dim for c in series.contents(3, 5))


def test_membership_leaves_the_relabelled_blocks_unordered(monkeypatch):
    # membership in a whole degree and in the blocks of unsorted content
    # parts works on the relabelled blocks as they are
    series.clear_caches()
    inside = nested_word_chain(3, [(3, 3), (2,), (3, 2, 3), (1,)])  # content (1, 2, 4), in L_4
    also = nested_word_chain(3, [(1,), (3,), (1, 3, 3, 2, 3)])  # content (2, 1, 4), in L_3
    outside = Poly.monomial(3, (2, 3, 1, 3, 1, 3, 3))  # content (2, 1, 4), not in M_2
    whole = m_span(3, 3, 7)
    spec = IdealSpec("L", 3, index=3)
    for c in series.sorted_contents(3, 7):
        spec_span(spec, 7, c)
    calls = []
    real = vars(GradedSubspace)["from_rows"].__func__
    monkeypatch.setattr(
        GradedSubspace,
        "from_rows",
        classmethod(lambda cls, n, degree, rows: calls.append(degree) or real(cls, n, degree, rows)),
    )
    assert whole.contains(inside) and whole.contains(also) and not whole.contains(outside)
    assert spec_contains(spec, inside + also)
    assert not spec_contains(spec, inside + outside)
    assert calls == []
    relabelled = [
        S
        for (kind, _, index, d, c), S in series._span_cache.items()
        if d == 7 and (kind, index) in (("M", (3,)), ("L", 3)) and c and not is_sorted(c)
    ]
    assert l_span(3, 3, 7, (1, 2, 4)) in relabelled and l_span(3, 3, 7, (2, 1, 4)) in relabelled
    assert not whole._ordered and not any(S._ordered for S in relabelled)


@pytest.mark.parametrize("label", ["L3", "M3", "M2*M2"])
def test_a_relabelled_block_and_its_ordered_form_agree(label):
    series.clear_caches()
    rng = Random(23)
    n, d = 3, 6
    spec = IdealSpec.parse(label, n)
    for c in series.contents(n, d):
        raw = spec_span(spec, d, c)
        ordered = copy(raw)  # ordered alone: raw stays as the cache holds it
        ordered._echelon()
        assert raw.dim == ordered.dim
        words = [w for w in all_words(n, d) if series.word_content(n, w) == c]
        members = ordered.row_polys()
        for _ in range(6):
            p = sum(
                (q.scale(rng.randint(-3, 3)) for q in rng.sample(members, min(3, len(members)))),
                Poly.zero(n),
            )
            if rng.random() < 0.5:
                p = p + Poly.monomial(n, rng.choice(words)).scale(rng.randint(1, 3))
            assert raw.contains(p) == ordered.contains(p), (label, c)
            rows = [Poly.monomial(n, w) for w in rng.sample(words, min(4, len(words)))] + [p]
            assert extension_dim(raw, rows) == extension_dim(ordered, rows), (label, c)
        assert raw._echelon() == ordered._echelon()
        assert raw._ordered and ordered._ordered


def test_threads_reading_one_unordered_block_get_the_same_rows():
    series.clear_caches()
    S = m_span(3, 3, 6, (1, 2, 3))
    assert not S._ordered
    barrier = threading.Barrier(4, timeout=30)
    got = [None] * 4

    def read(i: int) -> None:
        barrier.wait()
        got[i] = list(S.int_rows())

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert S._ordered and got[0]
    assert all(rows == got[0] for rows in got)
    assert got[0] == list(reference_block("M", 3, (3,), 6, (1, 2, 3)).int_rows())


def test_threads_asking_one_two_tier_block_while_it_completes_agree():
    # two threads complete a block held in two tiers while two others ask
    # its membership and dimension; the completed rows and the emptied side
    # tier are swapped in as one pair, so every reader sees one whole form
    series.clear_caches()
    n, d, c = 3, 7, (3, 2, 2)
    S = m_span(n, 3, d, c)
    assert S._tiers[1] and not S._ordered
    want = reference_block("M", n, (3,), d, c)
    rows = list(want.int_rows())
    probes = rows + random_probes(Random(31), rows, 60)
    expected = ([want.contains_row(v) for v in probes], {want.dim}, rows)
    assert not all(expected[0])
    barrier = threading.Barrier(4, timeout=30)
    got = [None] * 4

    def ask(i: int) -> None:
        barrier.wait()
        ordered = list(S.int_rows()) if i < 2 else None
        answers, dims = [], set()
        for v in probes:
            answers.append(S.contains_row(v))
            dims.update(S.dim for _ in range(20))
        got[i] = (answers, dims, ordered if ordered is not None else list(S.int_rows()))

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert S._ordered and not S._tiers[1]
    assert all(answer == expected for answer in got)


def test_block_dims_are_invariant_under_permuting_the_content():
    # the symmetry that lets dimensions and containments use sorted contents
    spans = [lambda n, d, c, k=k: l_span(n, k, d, c) for k in range(1, 6)]
    spans += [lambda n, d, c, k=k: m_span(n, k, d, c) for k in range(2, 6)]
    spans += [lambda n, d, c, t=t: product_span(n, t, d, c) for t in ((2, 2), (2, 3), (3, 2))]
    for n, d_max in ((3, 6), (4, 5)):
        for d in range(d_max + 1):
            for c in series.sorted_contents(n, d):
                for span in spans:
                    dims = {span(n, d, p).dim for p in set(permutations(c))}
                    assert len(dims) == 1, (n, d, c)


def test_every_sorted_content_dominates_the_balanced_content():
    # the balanced content is the least partition of d with at most n parts,
    # which is why one block decides a containment (containment_index)
    def partial_sums(c):
        return [sum(c[: j + 1]) for j in range(len(c))]

    for n in range(1, 7):
        for d in range(13):
            mu = series.balanced_content(n, d)
            assert mu in series.sorted_contents(n, d)
            floor = partial_sums(mu)
            for c in series.sorted_contents(n, d):
                assert all(a >= b for a, b in zip(partial_sums(c), floor)), (n, d, c)


def test_spec_contains_agrees_with_the_whole_degree_span():
    rng = Random(11)
    specs = [IdealSpec.parse(text, 3) for text in ("L2", "L3", "M2", "M3", "M4", "M2*M2")]
    for spec in specs:
        for d in range(2, 6):
            whole = spec_span(spec, d)
            rows = whole.row_polys()
            for _ in range(6):
                p = Poly.zero(3)
                for q in rng.sample(rows, min(len(rows), 3)):
                    p = p + q.scale(rng.randint(-3, 3))
                if rng.random() < 0.5:
                    p = p + random_homogeneous(rng, 3, d, terms=2)
                assert spec_contains(spec, p) == whole.contains(p), (spec, d)
    assert spec_contains(specs[0], Poly.zero(3))
    with pytest.raises(ValueError, match="homogeneous"):
        spec_contains(specs[0], Poly.gen(3, 1) + bracket(Poly.gen(3, 1), Poly.gen(3, 2)))


def test_orbit_sum_counts_every_content():
    for n, d in ((2, 5), (3, 4), (4, 4)):
        assert series.orbit_sum(n, d, lambda c: 1) == len(series.contents(n, d))
        assert series.orbit_sum(n, d, lambda c: m_span(n, 1, d, c).dim) == n**d
        assert spec_dim(IdealSpec("M", n, index=3), d) == m_span(n, 3, d).dim


def test_layer_dims_are_differences_of_m_dims():
    # spec_dim takes N_k = M_k/M_{k+1} block by block, with no quotient
    for n, d_max in ((2, 8), (3, 6)):
        for k in range(1, 6):
            for d in range(d_max + 1):
                layer = spec_dim(IdealSpec("N", n, index=k), d)
                assert layer == m_span(n, k, d).dim - m_span(n, k + 1, d).dim, (n, k, d)


def test_no_generators_is_refused():
    # contents(n - 1, ...) never bottomed out: RecursionError
    for ask in (
        lambda: l_span(0, 2, 3),
        lambda: m_span(0, 2, 3),
        # an empty content raised "min() arg is an empty sequence"
        lambda: l_span(0, 1, 0, ()),
        lambda: m_span(0, 2, 0, ()),
        lambda: product_span(0, (2,), 0, ()),
        lambda: series.contents(0, 3),
        lambda: IdealSpec("M", 0, index=2),
        lambda: IdealSpec.parse("L2", -1),
    ):
        with pytest.raises(ValueError, match="generator count must be >= 1"):
            ask()


@pytest.mark.parametrize("label", ["M4", "L3", "M2*M2"])
def test_gl_multiplicities_are_stable_and_nonnegative(label):
    # the blocks of a degree are the weight spaces of a polynomial
    # GL_n-module: the multiplicity of V_λ solved from them is a count, and
    # does not depend on n once n >= ℓ(λ)
    d = 7
    mult = {}
    for n in (3, 4, 5):
        spec = IdealSpec.parse(label, n)
        mult[n] = gl_multiplicities(n, d, lambda c: spec_span(spec, d, c).dim)
        assert min(mult[n].values()) >= 0, (label, n, mult[n])
    for n in (3, 4):
        assert mult[n] == {lam: m for lam, m in mult[5].items() if len(lam) <= n}, (label, n)


def test_block_content_is_checked():
    # also below the least degree, where the span is empty
    for ask in (
        lambda: m_span(3, 2, 3, (1, 1)),
        lambda: m_span(3, 2, 3, (2, 2, 0)),
        lambda: m_span(3, 2, 3, (4, -1, 0)),
        lambda: product_span(2, (2, 2), 3, (7, 7)),
        lambda: m_span(2, 3, 2, (7, 7)),
        lambda: l_span(2, 2, -1, (0, -1)),
    ):
        with pytest.raises(ValueError, match="not a letter content"):
            ask()
    assert product_span(2, (2, 2), 3, (2, 1)).dim == 0
    assert product_span(2, (2, 2), 3).dim == l_span(2, 2, -1).dim == 0


def test_product_generators_match_the_whole_degree_rows():
    # the concatenation of the content blocks' rows is the whole-degree
    # reference's multiset of rows; only the order differs
    def multiset(rows):
        return Counter(frozenset(row.items()) for row in rows)

    tuples = [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4)]
    for n, d_max in ((2, 9), (3, 7), (4, 6)):
        for t in tuples:
            for d in range(sum(t), d_max + 1):
                got = multiset(product_generators(n, t, d))
                assert got == multiset(_whole_generator_rows(n, t, d)), (n, t, d)


def test_m_span_builds_no_l_at_its_own_degree():
    series.clear_caches()
    m_span(3, 6, 7)
    assert not [key for key in series._span_cache if key[0] == "L" and key[3] == 7]


def test_reduced_echelon_is_canonical_across_generation_orders():
    # identical subspaces built from different spanning sets freeze to
    # byte-identical bases; report determinism rests on this
    a = m_span(2, 2, 4)
    b = oracle_m_span(2, 2, 4)
    assert a.pivot_words() == b.pivot_words()
    assert a.row_polys() == b.row_polys()


def test_concurrent_builds_are_consistent():
    import threading

    from lcsideals import series as series_mod

    series_mod.clear_caches()
    dims: list[int] = []

    def work():
        dims.append(m_span(2, 3, 6).dim)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(dims) == 4 and len(set(dims)) == 1


def test_pure_commutator_component_has_witt_dimension():
    # at degree k the component of L_k is the free Lie algebra piece
    from lcsideals.lyndon import witt_dimension

    for n in (2, 3):
        for k in range(2, 7):
            assert l_span(n, k, k).dim == witt_dimension(n, k)
            assert m_span(n, k, k).dim == witt_dimension(n, k)


def test_m1_and_l1_are_everything():
    assert m_span(2, 1, 0).dim == 1
    assert l_span(2, 1, 0).dim == 1
    assert m_span(3, 1, 4).dim == 81


def test_product_span_examples():
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    assert product_span(2, (2, 2), 4).contains(w * w)
    for d in range(4):
        assert product_span(2, (2, 2), d).dim == 0
    for d in (2, 3, 4):
        assert subspaces_equal(product_span(2, (2,), d), m_span(2, 2, d))


def test_product_span_matches_bruteforce_oracle():
    for n, tup, d in [(2, (2, 2), 4), (2, (2, 2), 5), (2, (2, 3), 5), (3, (2, 2), 4)]:
        assert subspaces_equal(product_span(n, tup, d), oracle_product_span(n, tup, d))


def test_product_span_validates_indices():
    with pytest.raises(ValueError):
        product_span(2, (1, 2), 4)


def test_filtration_inclusions():
    for n in (2, 3):
        for k in (1, 2, 3):
            for d in range(6):
                assert m_span(n, k + 1, d).is_subspace_of(m_span(n, k, d))
                assert l_span(n, k + 1, d).is_subspace_of(l_span(n, k, d))


def test_n_dims_first_layer_is_polynomial_ring():
    table = dim_table([IdealSpec("N", 2, index=1)], 6)
    for d in range(7):
        assert table.get("N1", d) == d + 1


def test_n_dims_vanishes_below_k():
    assert dim_table([IdealSpec("N", 2, index=3)], 4).get("N3", 2) == 0
    assert dim_table([IdealSpec("N", 2, index=2)], 2).get("N2", 2) == 1


def test_dim_table_monotone_in_k():
    for d in range(7):
        assert m_span(2, 3, d).dim <= m_span(2, 2, d).dim


def test_ideal_spec_parse_and_dims():
    s = IdealSpec.parse("M3", 2)
    assert s.kind == "M" and s.index == 3
    assert IdealSpec.parse("P2,2", 2).factors == (2, 2)
    assert IdealSpec.parse("M2*M3", 2).factors == (2, 3)
    assert spec_dim(IdealSpec.parse("N1", 2), 4) == 5
    assert spec_span(IdealSpec.parse("M2*M3", 2), 6) is product_span(2, (2, 3), 6)
    with pytest.raises(ValueError):
        spec_span(IdealSpec.parse("N1", 2), 4)
    with pytest.raises(ValueError):
        IdealSpec.parse("X3", 2)
    with pytest.raises(ValueError):
        IdealSpec("P", 2, factors=(1,))


def test_ideal_spec_parse_reads_ascii_digits_only():
    # str.isdigit and int() once read "M٣" as M3 and let "M²", "P" or "P2,"
    # fail inside int() without naming the spec
    refused = ("M٣", "M²", "P", "P2,", "P٢,2", "M2*", "M2 * M2", "L", "M 2", "P+2")
    # a product M…*M… takes no whitespace at all; "M2 *M3" once parsed
    for text in refused + ("M2 *M3", "M2*M 2", "M2\t*M3"):
        with pytest.raises(ValueError, match="cannot parse ideal spec"):
            IdealSpec.parse(text, 2)
    assert IdealSpec.parse(" m3 ", 2) == IdealSpec("M", 2, index=3)
    assert IdealSpec.parse("L12", 2) == IdealSpec("L", 2, index=12)
    assert IdealSpec.parse("P 2, 3", 2) == IdealSpec("P", 2, factors=(2, 3))
    assert IdealSpec.parse("m2*M3 ", 2) == IdealSpec("P", 2, factors=(2, 3))


def test_specs_are_immutable_values():
    s = IdealSpec("M", 2, index=3)
    assert repr(s) == "IdealSpec(kind='M', n=2, index=3, factors=())"
    assert s == IdealSpec("M", 2, 3) == IdealSpec(kind="M", n=2, index=3, factors=())
    assert s != IdealSpec("M", 2, index=4) and s != IdealSpec("L", 2, index=3)
    assert len({s, IdealSpec("M", 2, 3), IdealSpec("P", 2, factors=(2, 3))}) == 2
    q = QuotientSpec(2, 2, 3)
    assert repr(q) == "QuotientSpec(n=2, i=2, j=3)"
    assert q == QuotientSpec(n=2, i=2, j=3) and q != QuotientSpec(2, 3, 2)
    assert hash(q) == hash(QuotientSpec(2, 2, 3))
    for spec, field in ((s, "index"), (q, "i")):
        with pytest.raises(AttributeError):
            setattr(spec, field, 5)
        with pytest.raises(AttributeError):
            spec.extra = 1
    refusals = [
        (lambda: IdealSpec("M", 2), "series index must be >= 1"),
        (lambda: IdealSpec("X", 2, 1), "unknown ideal kind 'X'"),
        (lambda: IdealSpec("L", 0, 2), "generator count must be >= 1"),
        (lambda: QuotientSpec(0, 2, 2), "generator count must be >= 1"),
    ]
    for make, message in refusals:
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_factor_indices_are_checked_once_with_one_message():
    # the same fault once gave four different messages from three modules
    message = re.escape("factor indices must be one or more integers >= 2")
    takes_tuple = [
        lambda t: product_span(2, t, 4),
        lambda t: product_generators(2, t, 4),
        lambda t: IdealSpec("P", 2, factors=t),
        lambda t: containment_index(2, t, 6),
        lambda t: bound_report(2, t),
        lambda t: pbw_witness(2, t),
    ]
    for call in takes_tuple:
        for t in ((1,), (), (2, 1)):
            with pytest.raises(ValueError, match=message):
                call(t)
    with pytest.raises(ValueError, match=message):
        QuotientSpec(2, 1, 2)
    with pytest.raises(ValueError, match=message):
        sl2_witness(2, 1, 2)


def test_dim_table_serialization():
    t = DimTable()
    t.add("M2", 2, 1)
    t.add("M2", 3, 4)
    assert t.to_csv() == "spec,degree,dim\nM2,2,1\nM2,3,4\n"
    assert t.to_json_obj()[0] == {"spec": "M2", "degree": 2, "dim": 1}
    assert t == DimTable({("M2", 2): 1, ("M2", 3): 4}) != DimTable()


def test_shapes_for_index():
    assert shapes_for_index(2) == [(2,)]
    assert shapes_for_index(3) == [(3,), (2, 2)]
    assert set(shapes_for_index(4)) == {(4,), (2, 3), (3, 2), (2, 2, 2)}
    for q in range(8):
        assert shapes_for_index(7, q) == [s for s in shapes_for_index(7) if len(s) <= q]


def test_generators_S_enumerates_only_shapes_within_the_degree():
    # index 20 has 2^18 shapes, all of degree >= 20
    tracemalloc.start()
    try:
        assert generators_S(20, 8) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_generators_S_two_sided_span_equals_ideal():
    for i in (2, 3):
        d_max = i + 3
        ideal = SpanIdeal(2, generators_S(i, d_max))
        for d in range(d_max + 1):
            assert subspaces_equal(ideal.span(d), m_span(2, i, d))


def test_span_ideal_requires_homogeneous_generators():
    with pytest.raises(ValueError):
        SpanIdeal(2, [Poly.gen(2, 1) + Poly.one(2)])


def test_span_ideal_builds_two_sided_closures_only():
    with pytest.raises(ValueError, match="two-sided closures only"):
        SpanIdeal(2, [], two_sided=False)


def test_ideals_are_one_sided():
    # right multiples reduce to left multiples: A·L_k·A = A·L_k
    n, k = 2, 2
    for d in range(k, 7):
        gens = []
        for e in range(k, d + 1):
            gens += l_span(n, k, e).row_polys()
        assert subspaces_equal(left_ideal_span(n, gens, d), m_span(n, k, d))


# -- classical containments at unit-test scale (acceptance runs the full
#    desk-scale sweep) -------------------------------------------------------


def test_latyshev_and_odd_rule_on_a2():
    for m, l in [(2, 2), (2, 3), (3, 3)]:
        for d in range(m + l, 8):
            assert product_span(2, (m, l), d).is_subspace_of(m_span(2, m + l - 2, d))
            gens = product_generators(2, (m, l), d)
            assert all(m_span(2, m + l - 2, d).contains_row(g) for g in gens)
            if m % 2 or l % 2:
                assert all(m_span(2, m + l - 1, d).contains_row(g) for g in gens)


def test_jennings_on_a2():
    for m in (2, 3):
        for d in range(2 * m, 8):
            target = m_span(2, m + 1, d)
            assert all(
                target.contains_row(g) for g in product_generators(2, (2,) * m, d)
            )


def test_bracket_ideal_lemma_on_a2():
    # [M_k, L_1] ⊆ M_{k+1} for k >= 2, small degrees
    n = 2
    for k in (2, 3):
        for d in range(k + 1, 7):
            target = m_span(n, k + 1, d)
            for a in range(k, d):
                for mp in m_span(n, k, a).row_polys():
                    for w in all_words(n, d - a):
                        lp = Poly.monomial(n, w)
                        br = bracket(mp, lp)
                        assert br.is_zero() or target.contains(br)


def test_bracket_ideal_theorem_on_a2():
    # [M_k, L_j] ⊆ M_{k+j} on spanning elements, k+j <= 7, degree <= 8
    n = 2
    for k in range(2, 6):
        for j in range(1, 8 - k):
            for d in range(k + j, 9):
                target = m_span(n, k + j, d)
                for a in range(k, d - j + 1):
                    for mp in m_span(n, k, a).row_polys():
                        for lp in l_span(n, j, d - a).row_polys():
                            br = bracket(mp, lp)
                            assert br.is_zero() or target.contains(br), (k, j, d)


def test_odd_index_bracket_lands_in_l_series():
    # for odd l, [M_l, L_k] ⊆ L_{k+l}: n = 2, l in {3,5}, k <= 3,
    # l+k <= 7, degrees <= 7
    n = 2
    for l in (3, 5):
        for k in range(1, 4):
            if l + k > 7:
                continue
            for d in range(l + k, 8):
                target = l_span(n, k + l, d)
                for a in range(l, d - k + 1):
                    for mp in m_span(n, l, a).row_polys():
                        for lp in l_span(n, k, d - a).row_polys():
                            br = bracket(mp, lp)
                            assert br.is_zero() or target.contains(br), (l, k, d)


def test_conjecture_layer_reported_not_asserted():
    # [M_k, L_1] vs L_{k+1}: inclusion one way is immediate; dimensions of
    # both sides are recorded for inspection without asserting equality.
    n = 2
    rows = []
    for k in (2, 3):
        for d in range(k + 1, 7):
            from lcsideals.linalg import GradedSubspace

            S = GradedSubspace(n, d)
            for a in range(k, d):
                for mp in m_span(n, k, a).row_polys():
                    for w in all_words(n, d - a):
                        S.insert(bracket(mp, Poly.monomial(n, w)))
            S.freeze()
            L = l_span(n, k + 1, d)
            assert L.is_subspace_of(S)  # L_{k+1} = [L_1, L_k] ⊆ [M_k, L_1]
            rows.append((k, d, S.dim, L.dim))
    print("\n[M_k,L_1] vs L_{k+1} dims (k, d, bracket-span, L):", rows)
