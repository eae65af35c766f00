import itertools
import random

import pytest

from paradox.groups import IntVec, explicit_window, group_from_string
from paradox.pwt import (
    PwT,
    PwTError,
    first_overlap,
    pwt_compose,
    pwt_map,
)
from paradox.sets import (
    AllSet,
    FiniteSet,
    SemigroupSet,
    SetContext,
    Union,
    materialize,
    positive_words,
)

BS = group_from_string("bs12")
Z1 = group_from_string("zn:1")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)
SIGMA_PLUS = PwT(SEMI, ((SEMI, S_GEN),), (S_GEN,))
SIGMA_MINUS = PwT(SEMI, ((SEMI, T_GEN),), (T_GEN,))


def semigroup_window(depth):
    return explicit_window(BS, positive_words(BS, (S_GEN, T_GEN), depth), depth)


def int_elems(*values):
    return tuple(IntVec((v,)) for v in values)


class TestApply:
    def test_semigroup_doubling_map(self):
        ctx = SetContext(BS)
        assert BS.show(pwt_map(SIGMA_PLUS, ctx)(BS.parse("(2,1)"))) == "(4,2)"

    def test_identity_map(self):
        e = Z1.identity()
        ident = PwT(AllSet(), ((AllSet(), e),), (e,))
        ctx = SetContext(Z1)
        g = IntVec((5,))
        assert pwt_map(ident, ctx)(g) == g

    def test_two_piece_lookup(self):
        evens = FiniteSet(int_elems(-4, -2, 0, 2, 4))
        odds = FiniteSet(int_elems(-3, -1, 1, 3))
        shift = PwT(
            Union(evens, odds),
            ((evens, IntVec((1,))), (odds, IntVec((-1,)))),
            (IntVec((1,)), IntVec((-1,))),
        )
        ctx = SetContext(Z1)
        apply = pwt_map(shift, ctx)
        assert apply(IntVec((4,))) == IntVec((5,))
        assert apply(IntVec((3,))) == IntVec((2,))

    def test_domain_errors(self):
        ctx = SetContext(BS)
        with pytest.raises(PwTError):
            pwt_map(SIGMA_PLUS, ctx)(BS.parse("(2,-1)"))
        gap = PwT(AllSet(), ((FiniteSet((Z1.identity(),)), IntVec((1,))),), (IntVec((1,)),))
        with pytest.raises(PwTError):
            pwt_map(gap, SetContext(Z1))(IntVec((3,)))


class TestCompose:
    def test_compose_with_identity(self):
        ctx = SetContext(BS)
        e = BS.identity()
        ident = PwT(SEMI, ((SEMI, e),), (e,))
        comp = pwt_compose(SIGMA_PLUS, ident, BS)
        window = semigroup_window(3)
        apply_comp, apply_plus = pwt_map(comp, ctx), pwt_map(SIGMA_PLUS, ctx)
        for g in materialize(SEMI, window):
            assert apply_comp(g) == apply_plus(g)

    def test_compose_translators_multiply(self):
        ss = pwt_compose(SIGMA_PLUS, SIGMA_PLUS, BS)
        assert ss.displacement == (BS.parse("(4,0)"),)
        st = pwt_compose(SIGMA_PLUS, SIGMA_MINUS, BS)
        assert st.displacement == (BS.parse("(4,2)"),)

    def test_pointwise_equality_on_window(self):
        ctx = SetContext(BS)
        window = semigroup_window(3)
        comp = pwt_compose(SIGMA_MINUS, SIGMA_PLUS, BS)
        apply_comp = pwt_map(comp, ctx)
        apply_minus, apply_plus = pwt_map(SIGMA_MINUS, ctx), pwt_map(SIGMA_PLUS, ctx)
        for g in materialize(SEMI, window):
            assert apply_comp(g) == apply_minus(apply_plus(g))


class TestFirstOverlap:
    def test_pairwise_disjoint(self):
        sets = [set(int_elems(0, 1)), set(), set(int_elems(-1, 2))]
        assert first_overlap(sets, Z1) is None
        assert first_overlap([], Z1) is None

    def test_first_pair_and_least_shared_point(self):
        sets = [
            set(int_elems(0, 1)),
            set(int_elems(5, -3, 3, 7)),
            set(int_elems(7, 3, -3, 5)),
            set(int_elems(1, 7)),
        ]
        # (1, 2) meets too, but (0, 3) comes first; (3) precedes (-3), (5), (7)
        assert first_overlap(sets, Z1) == (0, 3, IntVec((1,)))
        assert first_overlap(sets[1:], Z1) == (0, 1, IntVec((3,)))

    def test_agrees_with_the_pairwise_definition(self):
        # seeded random families of lists and of sets, with points in three or
        # more of them, points repeated within one list, and empty ones
        rng = random.Random(38)
        kinds = set()
        for _ in range(400):
            lists = [int_elems(*(rng.randint(-6, 6) for _ in range(rng.randint(0, 5))))
                     for _ in range(rng.randint(0, 6))]
            meets = [(i, j, set(lists[i]) & set(lists[j]))
                     for i, j in itertools.combinations(range(len(lists)), 2)]
            expected = next(((i, j, min(common, key=Z1.sort_key))
                             for i, j, common in meets if common), None)
            assert first_overlap(lists, Z1) == expected
            assert first_overlap([set(p) for p in lists], Z1) == expected
            kinds.add("disjoint" if expected is None else "meet")
            if any(len(set(p)) < len(p) for p in lists):
                kinds.add("repeat")
            if any(not p for p in lists):
                kinds.add("empty")
            if any(sum(g in p for p in lists) >= 3 for g in set().union(*lists)):
                kinds.add("three")
        assert kinds == {"disjoint", "meet", "repeat", "empty", "three"}
