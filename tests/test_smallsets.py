import random

import pytest

from paradox.groups import (
    FreeGroup,
    FreeWord,
    GroupError,
    IntVec,
    ball,
    group_from_string,
)
from paradox.sets import (
    AllSet,
    BallSet,
    Diff,
    FiniteSet,
    GreedySet,
    SemigroupSet,
    Union,
    predicate,
)
from paradox.smallsets import (
    absorbing_check,
    absorbing_check_direct,
    check_pair_intersections,
    greedy_small_set,
    verify_greedy_exclusion,
)

Z1 = group_from_string("zn:1")
F2 = group_from_string("free:2")
BS = group_from_string("bs12")


def intvecs(*values):
    return tuple(IntVec((v,)) for v in values)


class TestGreedy:
    def test_lattice_prefix(self):
        got = greedy_small_set(Z1, 4)
        assert [Z1.show(g) for g in got] == ["(0)", "(1)", "(-2)", "(5)"]

    def test_single_element(self):
        assert greedy_small_set(Z1, 1) == (IntVec((0,)),)

    def test_free_group_exclusion_reverified(self):
        elems = greedy_small_set(F2, 8)
        assert len(elems) == 8
        assert verify_greedy_exclusion(F2, elems)

    def test_lattice_fifty_reverified(self):
        elems = greedy_small_set(Z1, 50)
        assert verify_greedy_exclusion(Z1, elems)

    def test_exclusion_checker_catches_planted_violation(self):
        elems = greedy_small_set(Z1, 6)
        x, y, z = elems[1], elems[2], elems[3]
        planted = elems[:5] + (Z1.mul(Z1.mul(x, Z1.inv(y)), z),)
        assert not verify_greedy_exclusion(Z1, planted)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            greedy_small_set(Z1, 0)

    def test_free_group_greedy_stores_pairs_not_triples(self):
        # the pair set costs 2k products at the k-th chosen element and at
        # most k per candidate, about 15k here with the enumeration; storing
        # every triple product costs about 4k^2 at the k-th, 295k in all
        group = FreeGroup(2)
        real, calls = group._mul, [0]

        def counting(g, h):
            calls[0] += 1
            return real(g, h)

        group._mul = counting
        greedy_small_set(group, 60)
        assert calls[0] < 60 ** 3 / 4

    @pytest.mark.parametrize("position", [0, 5], ids=["first", "last"])
    def test_exclusion_checker_rejects_a_non_element(self, position):
        # (0, 1) is the letter a next to its inverse: not a reduced word
        elems = list(greedy_small_set(F2, 5))
        elems.insert(position, FreeWord((0, 1)))
        with pytest.raises(GroupError):
            verify_greedy_exclusion(F2, tuple(elems))


def brute_triples(group, prefix):
    """{x_i x_j^(-1) x_l : i, j, l < len(prefix)}, straight from the definition."""
    return {
        group.mul(group.mul(x, group.inv(y)), z)
        for x in prefix for y in prefix for z in prefix
    }


def brute_exclusion_holds(group, elems):
    return all(elems[k] not in brute_triples(group, elems[:k])
               for k in range(len(elems)))


class TestGreedyAgainstDefinition:
    """The producer and `verify_greedy_exclusion` share their incremental
    update, so both are checked here against the definition itself."""

    @pytest.mark.parametrize("group", [Z1, F2, BS], ids=["zn:1", "free:2", "bs12"])
    def test_greedy_is_first_admissible_sequence(self, group):
        n = 12
        expected = []
        for g in group.enumerate_elements():
            if g not in brute_triples(group, expected):
                expected.append(g)
                if len(expected) == n:
                    break
        assert greedy_small_set(group, n) == tuple(expected)
        for k in range(1, n + 1):
            prefix = tuple(expected[:k])
            assert brute_exclusion_holds(group, prefix)
            assert verify_greedy_exclusion(group, prefix)

    @pytest.mark.parametrize("group", [Z1, F2, BS], ids=["zn:1", "free:2", "bs12"])
    def test_planted_violation_found_by_both(self, group):
        elems = greedy_small_set(group, 7)
        x, y, z = elems[4], elems[1], elems[2]
        planted = elems[:6] + (group.mul(group.mul(x, group.inv(y)), z),)
        assert not brute_exclusion_holds(group, planted)
        assert not verify_greedy_exclusion(group, planted)


class TestPairIntersections:
    def test_greedy_lattice_is_small(self):
        elems = greedy_small_set(Z1, 50)
        report = check_pair_intersections(Z1, elems, 5)
        assert report.maximum <= 2

    def test_greedy_free_group_is_small(self):
        elems = greedy_small_set(F2, 50)
        assert check_pair_intersections(F2, elems, 5).maximum <= 2

    def test_three_point_block(self):
        report = check_pair_intersections(Z1, intvecs(0, 1, 2), 1)
        assert report.maximum == 2
        assert report.attained_at == IntVec((1,))

    def test_progression_overlaps_badly(self):
        progression = intvecs(*range(10))
        report = check_pair_intersections(Z1, progression, 1)
        assert report.maximum == 9
        assert report.attained_at == IntVec((1,))


NATURALS = Diff(AllSet(), SemigroupSet((IntVec((-1,)),), False))


class TestAbsorbing:
    def test_naturals_absorb_small_pattern(self):
        window = ball(Z1, 10)
        got = absorbing_check(NATURALS, intvecs(0, 5), window)
        assert got == IntVec((0,))
        assert absorbing_check_direct(NATURALS, intvecs(0, 5), window) == got

    def test_greedy_set_has_no_consecutive_triples(self):
        window = ball(Z1, 60)
        expr = GreedySet(50)
        pattern = intvecs(0, 1, 2)
        assert absorbing_check(expr, pattern, window) is None
        assert absorbing_check_direct(expr, pattern, window) is None

    def test_postcondition_replay(self):
        rng = random.Random(23)
        window = ball(Z1, 12)
        for _ in range(20):
            pattern = tuple(
                IntVec((rng.randint(-3, 3),)) for _ in range(rng.randint(1, 3))
            )
            expr = Union(
                FiniteSet(tuple(IntVec((rng.randint(-9, 9),)) for _ in range(6))),
                BallSet(rng.randint(0, 3)),
            )
            got = absorbing_check(expr, pattern, window)
            assert got == absorbing_check_direct(expr, pattern, window)
            if got is not None:
                for t in pattern:
                    assert predicate(expr, window)(Z1.mul(t, got))

    def test_empty_pattern_rejected(self):
        window = ball(Z1, 2)
        with pytest.raises(ValueError):
            absorbing_check(AllSet(), (), window)
