import bisect
import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from abmonoids import NumericalSemigroup, ResourceLimitError, from_generators
from abmonoids.semigroup import MAX_TABLE_SIZE
from abmonoids.tree import remove_generator

from conftest import (
    assert_semigroup_consistent,
    gaps_above,
    intersect,
    recomputed_min_generators,
    saturated_members,
    smallest_by_residue,
)

# small coprime generator sets; gcd-1 filtering keeps enough examples
gen_sets = (
    st.sets(st.integers(min_value=1, max_value=20), min_size=1, max_size=4)
    .filter(lambda s: math.gcd(*s) == 1)
)


@st.composite
def wide_gen_sets(draw):
    """Coprime generator sets up to about 300, built so that the smallest
    generator m shares a factor f with others (round-robin cycles with
    gcd(g, m) > 1 over a table that still holds unreached residues) and
    that include a sum of two generators (a non-minimal candidate)."""
    f = draw(st.integers(2, 6))
    m = f * draw(st.integers(1, 240 // f))
    multiples = draw(st.lists(st.integers(m // f + 1, 300 // f), max_size=2))
    coprime = draw(st.sampled_from([v for v in range(m + 1, 301) if math.gcd(v, m) == 1]))
    gens = {m, coprime, *(f * k for k in multiples)}
    pool = sorted(gens)
    gens.add(draw(st.sampled_from(pool)) + draw(st.sampled_from(pool)))
    return gens


class TestFromGenerators:
    def test_naturals(self):
        n = from_generators({1})
        assert n.min_generators == (1,)
        assert n.frobenius == -1
        assert n.genus == 0
        assert n.gaps == ()

    def test_worked_closure_semigroup(self):
        s = from_generators({5, 9, 11, 13, 17})
        assert s.gaps == (1, 2, 3, 4, 6, 7, 8, 12)
        assert s.genus == 8
        assert s.frobenius == 12

    def test_already_minimal(self):
        s = from_generators({4, 5, 11})
        assert s.min_generators == (4, 5, 11)

    def test_redundant_generators_dropped(self):
        # brute-force derived: 4 = 2+2 and 9 = 2+7 are not minimal
        s = from_generators({2, 4, 7, 9})
        assert s.min_generators == (2, 7)

    def test_generator_order_irrelevant(self):
        assert from_generators([11, 5, 4]) == from_generators((4, 5, 11))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one generator is required"):
            from_generators(set())

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="generators must be positive, got 0"):
            from_generators({0, 3})

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="generators must be positive, got -2"):
            from_generators({-2, 3})

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="gcd of generators is 2, expected 1"):
            from_generators({4, 6})

    @pytest.mark.parametrize("gens", [{2.0, 3}, ["3"]])
    def test_non_integer_rejected(self, gens):
        # refused before the gcd or the sort could raise a TypeError
        with pytest.raises(ValueError, match="^generators must be integers$"):
            from_generators(gens)

    def test_table_budget(self):
        # the Apery table has one entry per residue of the multiplicity
        msg = "would exceed 1048576 entries for multiplicity 1048577"
        with pytest.raises(ResourceLimitError, match=msg):
            from_generators({MAX_TABLE_SIZE + 1, MAX_TABLE_SIZE + 2})

    def test_generator_budget_counts_minimal_generators(self, monkeypatch):
        # from_generators is the closure worklist with no maps, so it carries
        # the same budget; 8 and 12 are members of <4,5,6,7> and do not count
        semigroup_module = importlib.import_module("abmonoids.semigroup")
        monkeypatch.setattr(semigroup_module, "DEFAULT_MAX_GENERATORS", 3)
        with pytest.raises(ResourceLimitError, match="generator set exceeded 3 elements"):
            from_generators({4, 5, 6, 7})
        monkeypatch.setattr(semigroup_module, "DEFAULT_MAX_GENERATORS", 4)
        assert repr(from_generators({4, 5, 6, 7, 8, 12})) == "<4,5,6,7>"

    def test_huge_generator_above_small_multiplicity(self):
        s = from_generators({5, 6, 4000000})
        assert s.min_generators == (5, 6)
        assert (s.frobenius, s.genus) == (19, 10)


class TestContains:
    def test_gap_of_small_semigroup(self):
        assert 11 not in from_generators({5, 7, 9})

    def test_zero_always_member(self):
        assert 0 in from_generators({5, 7, 9})
        assert 0 in from_generators({1})

    def test_worked_gap(self):
        assert 12 not in from_generators({5, 9, 11, 13, 17})

    def test_negative_never_member(self):
        assert -1 not in from_generators({2, 3})

    def test_above_frobenius(self):
        s = from_generators({5, 7, 9})
        assert s.frobenius + 1 in s
        assert 14 in s


class TestImmutableValue:
    def test_attributes_cannot_be_assigned(self):
        s = from_generators({5, 7, 9})
        with pytest.raises(AttributeError):
            s.apery = (0, 1, 2, 3, 4)
        with pytest.raises(AttributeError):
            s.genus = 0
        with pytest.raises(AttributeError):
            s.note = "x"

    def test_stores_the_generators_and_the_apery_set_alone(self):
        assert NumericalSemigroup._fields == ("min_generators", "apery")
        s = from_generators({5, 7, 9})
        assert tuple(s) == ((5, 7, 9), (0, 16, 7, 18, 9))
        # read off the Apéry set: the largest gap 18 - 5, and 0 + 3 + 1 + 3 + 1 gaps
        assert (s.frobenius, s.genus) == (13, 8)

    def test_in_is_semigroup_membership(self):
        # 7 is the Frobenius number, yet a gap
        s = from_generators({3, 5})
        assert s.frobenius == 7
        assert 7 not in s
        assert 8 in s
        # ``in`` is the one membership method, defined on the class itself:
        # one call, with no ``contains`` for it to wrap
        assert "__contains__" in vars(NumericalSemigroup)
        assert not hasattr(NumericalSemigroup, "contains")
        assert [x for x in range(-3, 12) if x in s] == [0, 3, 5, 6, 8, 9, 10, 11]

    def test_equality_and_hash_on_min_generators_alone(self):
        # equality and hash are the tuple's, field by field; every value the
        # package builds has the Apéry set its minimal generators give
        s = from_generators({5, 7, 9})
        t = from_generators({9, 7, 5, 14})
        assert s == t and not s != t
        assert hash(s) == hash(t) == hash(((5, 7, 9), (0, 16, 7, 18, 9)))
        # a hand-made value with another Apéry set (here <5,7,8>'s) differs
        other_fields = s._replace(apery=from_generators({5, 7, 8}).apery)
        assert s != other_fields and not s == other_fields
        assert s != from_generators({5, 7, 8})

    def test_repr(self):
        assert repr(from_generators({5, 7, 9})) == "<5,7,9>"


class TestRemoveGenerator:
    def test_update_adds_shifted_generator(self):
        s = from_generators({5, 7, 8, 9, 11})
        assert remove_generator(s, 7) == from_generators({5, 8, 9, 11, 12})

    def test_update_second_generator(self):
        s = from_generators({5, 7, 8, 9, 11})
        assert remove_generator(s, 8) == from_generators({5, 7, 9, 11, 13})

    def test_removing_multiplicity_shifts_ray(self):
        s = from_generators({5, 6, 7, 8, 9})
        assert remove_generator(s, 5) == from_generators({6, 7, 8, 9, 10, 11})

    def test_frobenius_and_genus_postconditions(self):
        s = from_generators({5, 7, 8, 9, 11})
        t = remove_generator(s, 9)
        assert t.frobenius == 9
        assert t.genus == s.genus + 1
        assert t.gaps == s.gaps + (9,)

    def test_non_generator_rejected(self):
        with pytest.raises(ValueError, match="10 is not a minimal generator of <5,7,9>"):
            remove_generator(from_generators({5, 7, 9}), 10)

    def test_below_frobenius_rejected(self):
        # frobenius of <5,7,9> is 13, so 5 is not removable here
        with pytest.raises(ValueError, match="5 is not above the Frobenius number 13"):
            remove_generator(from_generators({5, 7, 9}), 5)


class TestIntersect:
    def test_naturals_is_identity(self):
        s = from_generators({5, 7, 9})
        n = from_generators({1})
        assert intersect(s, n) == s
        assert intersect(n, s) == s

    def test_small_intersection(self):
        # brute-force derived: members of both are {0, 3, 4, 5, ...}
        assert intersect(from_generators({2, 3}), from_generators({3, 4, 5})) == from_generators(
            {3, 4, 5}
        )

    def test_tree_vertices_meet(self):
        # brute-force derived: 6 = 2+2+2 = 3+3 lies in both, so the meet
        # is the whole ray {0, 5, ->}
        got = intersect(from_generators({2, 5}), from_generators({3, 5, 7}))
        assert got == from_generators({5, 6, 7, 8, 9})

    def test_genus_never_decreases(self):
        s = from_generators({3, 5})
        t = from_generators({2, 7})
        assert intersect(s, t).genus >= max(s.genus, t.genus)


class TestGapsWithin:
    def test_full_gap_list(self):
        s = from_generators({5, 9, 11, 13, 17})
        assert gaps_above(s, 0) == (1, 2, 3, 4, 6, 7, 8, 12)

    def test_naturals_have_no_gaps(self):
        assert gaps_above(from_generators({1}), 5) == ()

    def test_floor_filters(self):
        # brute-force derived: gaps of <3,4> are 1, 2, 5
        assert gaps_above(from_generators({3, 4}), 0) == (1, 2, 5)
        assert gaps_above(from_generators({3, 4}), 2) == (5,)

    def test_gap_count_above(self):
        # gaps of <3,4> are 1, 2, 5
        s = from_generators({3, 4})
        assert [s.gap_count_above(r) for r in range(7)] == [3, 2, 1, 1, 1, 0, 0]
        assert s.gap_count_above(10**9) == 0
        assert s.gap_count_above(-1) == s.gap_count_above(-5) == 3
        assert from_generators({1}).gap_count_above(0) == 0

    @pytest.mark.parametrize(
        "p, q", [(2, 3), (5, 7), (99, 100), (1004, 1005), (9973, 9976), (10007, 10009)]
    )
    def test_two_generators_match_sylvester(self, p, q):
        # Sylvester: coprime p < q give Frobenius number pq - p - q and
        # (p - 1)(q - 1) / 2 gaps; the gaps up to q are 1..p-1 and p+1..q-1
        s = from_generators({p, q})
        assert s.frobenius == p * q - p - q
        assert s.genus == (p - 1) * (q - 1) // 2
        assert s.gap_count_above(p) == s.genus - (p - 1)
        assert s.gap_count_above(q) == s.genus - (q - 2)
        assert s.gap_count_above(s.frobenius - 1) == 1
        assert s.gap_count_above(s.frobenius) == 0


@given(gen_sets)
@settings(max_examples=150, deadline=None)
def test_construction_consistent_and_matches_saturation(gens):
    s = from_generators(gens)
    assert_semigroup_consistent(s)
    limit = s.frobenius + 2
    expected = saturated_members(gens, limit)
    assert {v for v in range(limit + 1) if v in s} == expected


@given(wide_gen_sets())
@settings(max_examples=60, deadline=None)
def test_wide_construction_matches_saturation(gens):
    s = from_generators(gens)
    m = min(gens)
    limit = s.frobenius + m
    members = saturated_members(gens, limit)
    assert s.apery == smallest_by_residue(members, m)
    assert {v for v in range(limit + 1) if v in s} == members
    assert s.frobenius == max(set(range(limit + 1)) - members, default=-1)
    assert s.genus == limit + 1 - len(members)
    for r in (0, m, s.frobenius // 2, s.frobenius, s.frobenius + 1):
        assert s.gap_count_above(r) == sum(1 for v in range(r + 1, limit + 1) if v not in members)
    # a generator is minimal exactly when the other generators miss it
    assert s.min_generators == tuple(
        sorted(g for g in gens if g not in saturated_members(gens - {g}, g))
    )


@given(gen_sets)
@settings(max_examples=150, deadline=None)
def test_gap_count_above_matches_a_brute_force_count_at_every_floor(gens):
    # floors at and past the multiplicity and past F + 1, where
    # ``assert_semigroup_consistent`` stops; by Schur's bound every integer
    # above (n1 - 1)(nk - 1) - 1 is a member, so the window holds every gap
    top = min(gens) * max(gens)
    members = saturated_members(gens, top)
    gaps = [v for v in range(top + 1) if v not in members]
    s = from_generators(gens)
    for r in [*range(top + 3), 10**6, 10**18]:
        assert s.gap_count_above(r) == len(gaps) - bisect.bisect_right(gaps, r), r


@given(gen_sets)
@settings(max_examples=100, deadline=None)
def test_remove_generator_matches_recomputation(gens):
    s = from_generators(gens)
    for m in s.min_generators:
        if m <= s.frobenius:
            continue
        got = remove_generator(s, m)
        assert got.frobenius == m
        assert got.genus == s.genus + 1
        # pointwise: exactly m left, on a window past every minimal generator
        for v in range(2 * m + 3):
            assert (v in got) == (v in s and v != m)
        assert recomputed_min_generators(got) == got.min_generators


@given(gen_sets, gen_sets)
@settings(max_examples=100, deadline=None)
def test_intersect_matches_pointwise_and(gens_a, gens_b):
    s = from_generators(gens_a)
    t = from_generators(gens_b)
    meet = intersect(s, t)
    assert_semigroup_consistent(meet)
    for v in range(2 * max(s.frobenius, t.frobenius, 0) + 3):
        assert (v in meet) == (v in s and v in t)
