from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsideals.freealg import Poly, bracket
from lcsideals.linalg import (
    GradedSubspace,
    WrittenSubspace,
    extension_dim,
    poly_to_introw,
    rank_word,
    word_rank,
)

from helpers import RefSubspace, assert_echelon, random_homogeneous


def test_rank_round_trip():
    for n in (2, 3):
        for d in (0, 1, 3):
            for r in range(n**d):
                assert word_rank(rank_word(r, n, d), n) == r


def test_insert_examples():
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    S = GradedSubspace(2, 2)
    S.insert(w)
    assert S.dim == 1
    S.insert(w)
    assert S.dim == 1  # idempotent
    S.insert(Poly.zero(2))
    assert S.dim == 1


def test_insert_degree_mismatch():
    S = GradedSubspace(2, 2)
    with pytest.raises(ValueError):
        S.insert(Poly.gen(2, 1))


def test_contains_examples():
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    S = GradedSubspace(2, 2).insert(w).freeze()
    assert S.contains(w.scale(2))
    assert not S.contains(Poly.monomial(2, (1, 2)))
    assert S.contains(Poly.zero(2))


def test_contains_sum_of_rows():
    rng = Random(11)
    S = GradedSubspace(2, 3)
    for _ in range(4):
        S.insert(random_homogeneous(rng, 2, 3))
    S.freeze()
    rows = S.row_polys()
    if len(rows) >= 2:
        assert S.contains(rows[0] + rows[1])


def test_is_subspace_examples():
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    S = GradedSubspace(2, 2).insert(w).freeze()
    T = GradedSubspace(2, 2).insert(Poly.monomial(2, (1, 2))).freeze()
    empty = GradedSubspace(2, 2).freeze()
    assert S.is_subspace_of(S)
    assert empty.is_subspace_of(T)
    assert not T.is_subspace_of(S)
    assert S.row_outside(S) is None and empty.row_outside(T) is None
    assert T.row_outside(S) == next(T.int_rows())


def test_row_outside_is_the_first_row_in_descending_pivot_order():
    # x1x2 and x2x1 lie outside span([x1,x2]); the pivot x2x1 comes first
    S = GradedSubspace(2, 2).insert(bracket(Poly.gen(2, 1), Poly.gen(2, 2))).freeze()
    T = GradedSubspace(2, 2)
    for w in ((1, 1), (1, 2), (2, 1)):
        T.insert(Poly.monomial(2, w))
    T.freeze()
    assert T.row_outside(S) == {word_rank((2, 1), 2): 1}


@pytest.mark.parametrize("n,degree", [(3, 2), (2, 3)])
def test_subspace_comparison_needs_matching_n_and_degree(n, degree):
    S = GradedSubspace(2, 2).freeze()
    other = GradedSubspace(n, degree).freeze()
    for compare in (S.row_outside, S.is_subspace_of):
        with pytest.raises(ValueError, match="matching n and degree"):
            compare(other)


def test_dim_growth_and_membership_agree():
    rng = Random(12)
    for _ in range(5):
        S = GradedSubspace(2, 4)
        polys = [random_homogeneous(rng, 2, 4) for _ in range(8)]
        for p in polys:
            before = S.dim
            was_member = S.contains(p)
            S.insert(p)
            assert S.dim in (before, before + 1)
            assert (S.dim == before) == was_member


def test_frozen_is_reduced_echelon():
    rng = Random(13)
    S = GradedSubspace(2, 4)
    for _ in range(10):
        S.insert(random_homogeneous(rng, 2, 4, terms=6))
    S.freeze()
    pivots = {word_rank(w, 2) for w in S.pivot_words()}
    for row in S.int_rows():
        lead = max(row)
        assert lead in pivots
        # no other pivot appears in any row
        assert all(k == lead or k not in pivots for k in row)
    with pytest.raises(RuntimeError):
        S.insert(Poly.monomial(2, (1, 1, 1, 1)))


def test_row_polys_have_unit_leading_coefficient():
    rng = Random(14)
    S = GradedSubspace(2, 3)
    for _ in range(5):
        S.insert(random_homogeneous(rng, 2, 3, terms=5).scale(3))
    S.freeze()
    for p, w in zip(S.row_polys(), S.pivot_words()):
        assert p.coefficient(w) == 1


def test_mutual_subspace_means_equal_dim():
    rng = Random(15)
    A = GradedSubspace(2, 3)
    B = GradedSubspace(2, 3)
    shared = [random_homogeneous(rng, 2, 3) for _ in range(4)]
    for p in shared:
        A.insert(p)
        B.insert(p)
    A.freeze()
    B.freeze()
    assert A.is_subspace_of(B) and B.is_subspace_of(A)
    assert A.dim == B.dim


def test_extension_dim():
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    S = GradedSubspace(2, 2).insert(w).freeze()
    assert extension_dim(S, [w]) == 0
    assert extension_dim(S, [Poly.monomial(2, (1, 2))]) == 1
    assert (
        extension_dim(S, [Poly.monomial(2, (1, 2)), Poly.monomial(2, (2, 1))]) == 1
    )
    with pytest.raises(ValueError):
        extension_dim(GradedSubspace(2, 2).insert(w), [w])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    st.sampled_from([(2, 3), (2, 4), (3, 3)]),
    st.randoms(use_true_random=False),
    st.integers(0, 8),
    st.integers(0, 8),
)
def test_extension_dim_is_the_growth_of_the_joint_span(cell, rng, n_base, n_rows):
    n, d = cell
    B = GradedSubspace.from_rows(
        n, d, [random_homogeneous(rng, n, d) for _ in range(n_base)]
    )
    rows = []
    for _ in range(n_rows):
        # half of the rows are members of B, half are perturbed members
        p = sum(
            (q.scale(rng.randint(-2, 2)) for q in B.row_polys()), Poly.zero(n)
        )
        if rng.random() < 0.5:
            p = p + random_homogeneous(rng, n, d, terms=2)
        rows.append(poly_to_introw(p, n, d))
    joint = GradedSubspace.from_rows(n, d, list(B.int_rows()) + rows)
    assert extension_dim(B, rows) == joint.dim - B.dim


def test_from_rows_ignores_repeated_rows():
    rng = Random(16)
    polys = [random_homogeneous(rng, 2, 4, terms=5) for _ in range(6)]
    rows = [poly_to_introw(p, 2, 4) for p in polys]
    noisy = [{}, Poly.zero(2)]
    for p, row in zip(polys, rows):
        noisy += [row, dict(row), {k: -v for k, v in row.items()}]
        noisy += [{k: 6 * v for k, v in row.items()}, p.scale(Fraction(-3, 2))]
    kept = [dict(r) if isinstance(r, dict) else r for r in noisy]
    plain = GradedSubspace.from_rows(2, 4, rows)
    repeated = GradedSubspace.from_rows(2, 4, noisy)
    assert repeated.pivot_words() == plain.pivot_words()
    assert repeated.row_polys() == plain.row_polys()
    assert noisy == kept  # the offered rows are left as they were


def test_poly_to_introw_clears_denominators():
    from fractions import Fraction

    p = Poly(2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 3)})
    row = poly_to_introw(p, 2, 2)
    assert sorted(row.values()) == [2, 3]


# cells of the reference comparisons: (n, degree)
ECHELON_CELLS = [(2, 4), (2, 6), (3, 3), (3, 4)]


@st.composite
def dependent_rows(draw):
    """A cell and a row list with many dependent rows (scalar multiples, sums
    and repeats of a few base rows), offered in ascending, descending or
    shuffled pivot order."""
    n, d = draw(st.sampled_from(ECHELON_CELLS))
    rng = draw(st.randoms(use_true_random=False))
    size = n**d
    coefficients = (-3, -2, -1, 1, 2, 3)
    base = [
        {rng.randrange(size): rng.choice(coefficients) for _ in range(rng.randint(1, 6))}
        for _ in range(rng.randint(1, 8))
    ]
    rows = list(base)
    for _ in range(rng.randint(0, 24)):
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.choice((-4, -2, -1, 2, 3))
            rows.append({r: k * v for r, v in rng.choice(base).items()})
        elif kind == 1:
            acc: dict[int, int] = {}
            for row in rng.sample(base, min(len(base), rng.randint(2, 3))):
                k = rng.randint(-2, 2)
                for r, v in row.items():
                    acc[r] = acc.get(r, 0) + k * v
            rows.append({r: v for r, v in acc.items() if v})
        else:
            rows.append(dict(rng.choice(rows)))
    order = draw(st.sampled_from(("ascending", "descending", "shuffled")))
    if order == "shuffled":
        rng.shuffle(rows)
    else:
        rows.sort(key=lambda row: max(row, default=-1), reverse=order == "descending")
    return n, d, rows


@settings(derandomize=True, deadline=None, max_examples=80)
@given(dependent_rows())
def test_from_rows_equals_the_reference_echelon(case):
    n, d, rows = case
    offered = [dict(r) for r in rows]
    got, want = GradedSubspace.from_rows(n, d, rows), RefSubspace.from_rows(n, d, rows)
    assert got._echelon() == want._echelon()
    assert got.pivot_words() == want.pivot_words()
    assert rows == offered


@settings(derandomize=True, deadline=None, max_examples=40)
@given(dependent_rows())
def test_unfrozen_basis_is_reduced_after_each_insert(case):
    n, d, rows = case
    S = GradedSubspace(n, d)
    for row in rows:
        before = S.dim
        assert S.insert_row(dict(row)) == (S.dim == before + 1)
        assert_echelon(S)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(dependent_rows())
def test_freeze_changes_no_row(case):
    n, d, rows = case
    S = GradedSubspace(n, d)
    for row in rows:
        S.insert_row(dict(row))
    held = dict(S._echelon())
    values = {p: dict(row) for p, row in held.items()}
    S.freeze()
    assert S._echelon() == values
    assert all(S._echelon()[p] is row for p, row in held.items())


def test_from_pads_leaves_pads_and_offered_rows_as_they_were():
    rng = Random(17)
    n, d = 2, 5
    pads = [
        (x, GradedSubspace.from_rows(n, d - 1, [random_homogeneous(rng, n, d - 1) for _ in range(6)]))
        for x in range(n)
    ]
    rows = [poly_to_introw(random_homogeneous(rng, n, d, terms=6), n, d) for _ in range(12)]
    pad_rows = [{p: dict(row) for p, row in b._echelon().items()} for _, b in pads]
    offered = [dict(r) for r in rows]
    S = GradedSubspace.from_pads(n, d, pads, rows)
    assert [b._echelon() for _, b in pads] == pad_rows
    assert rows == offered
    assert_echelon(S)
    top = n ** (d - 1)
    padded = [{x * top + r: c for r, c in row.items()} for x, b in pads for row in b.int_rows()]
    want = RefSubspace.from_rows(n, d, padded + rows)
    assert S._echelon() == want._echelon()


def test_from_pads_keeps_its_side_rows_apart_until_read_in_order():
    # the pads hold side pivots, so the side pass must take its pivots after
    # the pad pass; completing copies the pad rows that hold one
    rng = Random(29)
    n, d = 2, 6
    below = [[random_homogeneous(rng, n, d - 1) for _ in range(8)] for _ in range(n)]
    pads = [(x, GradedSubspace.from_rows(n, d - 1, below[x])) for x in range(n)]
    rows = [poly_to_introw(random_homogeneous(rng, n, d, terms=8), n, d) for _ in range(10)]
    S = GradedSubspace.from_pads(n, d, pads, rows)
    pad_rows, side = S._tiers
    assert side is S._side and not S._ordered
    assert any(not side.keys().isdisjoint(row) for row in pad_rows.values())
    top = n ** (d - 1)
    padded = [{x * top + r: c for r, c in row.items()} for x, b in pads for row in b.int_rows()]
    want = RefSubspace.from_rows(n, d, padded + rows)
    members = list(want.int_rows())
    sums = [{r: a.get(r, 0) + b.get(r, 0) for r in {*a, *b}} for a, b in zip(members, members[1:])]
    others = [poly_to_introw(random_homogeneous(rng, n, d), n, d) for _ in range(20)]
    probes = members + sums + rows + others
    assert S.dim == want.dim
    assert all(S.contains_row(row) for row in members + sums + rows)
    assert [S.contains_row(v) for v in probes] == [want.contains_row(v) for v in probes]
    assert extension_dim(S, others) == extension_dim(want, others)
    assert S._tiers == (pad_rows, side)
    held = {p: dict(row) for p, row in pad_rows.items()}
    assert S._echelon() == want._echelon() and S._ordered and not S._tiers[1]
    assert pad_rows == held and S._side is side
    assert all(S._echelon()[p] is row for p, row in side.items())
    assert S.dim == want.dim and S._tiers[0] is S._echelon()


def test_bases_with_no_side_rows_share_one_read_only_side_tier():
    n, d = 2, 4
    prev = GradedSubspace.from_rows(n, d - 1, [{5: 1, 2: -1}, {3: 2, 0: 1}])
    step = GradedSubspace.from_pads(n, d, [(0, prev)], [{13: 1, 10: -1}])
    assert step._tiers[1]
    step._echelon()
    ordered = GradedSubspace.from_reduced(n, d, {12: {12: 1, 5: -1}})
    assert ordered._echelon() and ordered._ordered
    others = [
        prev,
        GradedSubspace(n, d),
        GradedSubspace.from_reduced(n, d, {9: {9: 1, 3: 1}}),
        ordered,
        GradedSubspace.direct_sum(n, d, [step]),
    ]
    shared = step._tiers[1]
    assert all(S._tiers[1] is shared and S._side is shared for S in others)
    with pytest.raises(TypeError):
        shared[0] = {0: 1}


def test_from_pads_with_no_side_row_is_ordered_at_once():
    n, d = 2, 4
    prev = GradedSubspace.from_rows(n, d - 1, [{5: 1, 2: -1}, {3: 2, 0: 1}])
    S = GradedSubspace.from_pads(n, d, [(0, prev), (1, prev)], [{13: 1, 10: -1}])
    assert S._ordered and not S._tiers[1] and not S._side and S.dim == 4
    assert_echelon(S)


def test_a_written_basis_writes_its_rows_once_on_first_read():
    n, d = 2, 3
    rows = {5: {5: 1, 3: -1}, 6: {6: 1, 3: -1}}
    writes = []
    S = WrittenSubspace(n, d, 2, lambda: writes.append(1) or dict(rows))
    assert S.dim == 2 and not writes
    assert S.contains_row({6: 2, 5: -1, 3: -1}) and not S.contains_row({3: 1})
    assert S._echelon() == rows and S._ordered and writes == [1]
    assert list(S.int_rows()) == [rows[6], rows[5]] and writes == [1]


def test_a_written_basis_cut_short_in_its_write_raises_on_every_read():
    # the writer reads on from a one-shot source, as the written blocks of
    # series do, and is cut short once: the rows left are too few, which
    # must raise rather than give a basis smaller than its dim
    n, d = 2, 3
    source = iter([(5, {5: 1, 3: -1}), (6, {6: 1, 3: -1})])
    cut = [True]

    def write() -> dict:
        out = {}
        for pivot, row in source:
            if cut.pop() if cut else False:
                raise KeyboardInterrupt
            out[pivot] = row
        return out

    S = WrittenSubspace(n, d, 2, write)
    with pytest.raises(KeyboardInterrupt):
        S.contains_row({3: 1})
    for read in (lambda: S.contains_row({3: 1}), S._echelon):
        with pytest.raises(RuntimeError, match="of dimension 2 wrote [01] rows"):
            read()
    assert S.dim == 2
