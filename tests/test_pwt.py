from fractions import Fraction

import pytest

from paradox.groups import IntVec, ball, explicit_window, group_from_string
from paradox.pwt import (
    EquiWitness,
    FiniteCover,
    PwT,
    PwTError,
    bounded_check,
    check_equi_witness,
    first_overlap,
    pwt_apply,
    pwt_compose,
    pwt_validate,
)
from paradox.sets import (
    AllSet,
    FiniteSet,
    SemigroupSet,
    SetContext,
    Slab,
    Union,
    materialize,
    positive_words,
)

BS = group_from_string("bs12")
Z1 = group_from_string("zn:1")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)
SIGMA_PLUS = PwT.single(SEMI, S_GEN)
SIGMA_MINUS = PwT.single(SEMI, T_GEN)


def semigroup_window(depth):
    return explicit_window(BS, positive_words(BS, (S_GEN, T_GEN), depth), depth)


def int_elems(*values):
    return tuple(IntVec((v,)) for v in values)


class TestApply:
    def test_semigroup_doubling_map(self):
        ctx = SetContext(BS, 8)
        assert BS.show(pwt_apply(SIGMA_PLUS, BS.parse("(2,1)"), ctx)) == "(4,2)"

    def test_identity_map(self):
        ident = PwT.single(AllSet(), Z1.identity())
        ctx = SetContext(Z1, 8)
        g = IntVec((5,))
        assert pwt_apply(ident, g, ctx) == g

    def test_two_piece_lookup(self):
        evens = FiniteSet(int_elems(-4, -2, 0, 2, 4))
        odds = FiniteSet(int_elems(-3, -1, 1, 3))
        shift = PwT(
            Union(evens, odds),
            ((evens, IntVec((1,))), (odds, IntVec((-1,)))),
            (IntVec((1,)), IntVec((-1,))),
        )
        ctx = SetContext(Z1, 8)
        assert pwt_apply(shift, IntVec((4,)), ctx) == IntVec((5,))
        assert pwt_apply(shift, IntVec((3,)), ctx) == IntVec((2,))

    def test_domain_errors(self):
        ctx = SetContext(BS, 8)
        with pytest.raises(PwTError):
            pwt_apply(SIGMA_PLUS, BS.parse("(2,-1)"), ctx)
        gap = PwT(AllSet(), ((FiniteSet((Z1.identity(),)), IntVec((1,))),), (IntVec((1,)),))
        with pytest.raises(PwTError):
            pwt_apply(gap, IntVec((3,)), SetContext(Z1, 8))


class TestCompose:
    def test_compose_with_identity(self):
        ctx = SetContext(BS, 8)
        ident = PwT.single(SEMI, BS.identity())
        comp = pwt_compose(SIGMA_PLUS, ident, ctx=ctx)
        window = semigroup_window(3)
        for g in materialize(SEMI, window, ctx).elements:
            assert pwt_apply(comp, g, ctx) == pwt_apply(SIGMA_PLUS, g, ctx)

    def test_compose_translators_multiply(self):
        ctx = SetContext(BS, 8)
        ss = pwt_compose(SIGMA_PLUS, SIGMA_PLUS, ctx=ctx)
        assert ss.displacement == (BS.parse("(4,0)"),)
        st = pwt_compose(SIGMA_PLUS, SIGMA_MINUS, ctx=ctx)
        assert st.displacement == (BS.parse("(4,2)"),)

    def test_pointwise_equality_on_window(self):
        ctx = SetContext(BS, 10)
        window = semigroup_window(3)
        comp = pwt_compose(SIGMA_MINUS, SIGMA_PLUS, window, ctx)
        for g in materialize(SEMI, window, ctx).elements:
            assert pwt_apply(comp, g, ctx) == pwt_apply(
                SIGMA_MINUS, pwt_apply(SIGMA_PLUS, g, ctx), ctx
            )

    def test_composability_failure_names_element(self):
        ctx = SetContext(Z1, 8)
        window = ball(Z1, 3)
        small = FiniteSet(int_elems(0, 1))
        into_small = PwT.single(AllSet(), IntVec((0,)))
        narrow = PwT.single(small, IntVec((1,)))
        with pytest.raises(PwTError):
            pwt_compose(narrow, into_small, window, ctx)


class TestValidate:
    def test_semigroup_map_passes(self):
        report = pwt_validate(SIGMA_PLUS, semigroup_window(3), SetContext(BS, 9))
        assert report.passed

    def test_overlapping_pieces_fail_disjointness(self):
        evens = FiniteSet(int_elems(-2, 0, 2))
        everything = FiniteSet(int_elems(-2, -1, 0, 1, 2))
        bad = PwT(
            everything,
            ((evens, IntVec((0,))), (everything, IntVec((0,)))),
            (IntVec((0,)),),
        )
        report = pwt_validate(bad, ball(Z1, 2), SetContext(Z1, 8))
        failing = dict((name, msg) for name, msg in report.failures())
        assert "pieces-disjoint" in failing
        assert "(0)" in failing["pieces-disjoint"] or "(" in failing["pieces-disjoint"]
        assert "injective" in failing  # both zero translators collide on overlap

    def test_overlap_names_pieces_and_least_shared_point(self):
        evens = FiniteSet(int_elems(2, 0, -2))
        everything = FiniteSet(int_elems(-2, -1, 0, 1, 2))
        bad = PwT(
            everything,
            ((everything, IntVec((1,))), (evens, IntVec((0,)))),
            (IntVec((0,)), IntVec((1,))),
        )
        report = pwt_validate(bad, ball(Z1, 2), SetContext(Z1, 8))
        assert dict(report.failures()) == {
            "pieces-disjoint": "pieces 0 and 1 share (0)",
            "injective": "(-1) and (0) both map to (0)",
        }

    def test_undeclared_translator_fails(self):
        bad = PwT(AllSet(), ((AllSet(), IntVec((1,))),), (IntVec((2,)),))
        report = pwt_validate(bad, ball(Z1, 1), SetContext(Z1, 8))
        assert ("displacement-set" in dict(report.failures()))


class TestEquiWitness:
    def test_reflexivity(self):
        a = FiniteSet(int_elems(0, 1, 2))
        w = EquiWitness((a,), (a,), (Z1.identity(),))
        assert check_equi_witness(w, ball(Z1, 4), SetContext(Z1, 8)).passed

    def test_shift_between_evens_and_odds(self):
        evens = FiniteSet(int_elems(-4, -2, 0, 2, 4))
        odds = FiniteSet(int_elems(-3, -1, 1, 3, 5))
        w = EquiWitness((odds,), (evens,), (IntVec((1,)),))
        assert check_equi_witness(w, ball(Z1, 5), SetContext(Z1, 8)).passed

    def test_wrong_translator_yields_counterexample(self):
        evens = FiniteSet(int_elems(-4, -2, 0, 2, 4))
        odds = FiniteSet(int_elems(-3, -1, 1, 3, 5))
        w = EquiWitness((odds,), (evens,), (IntVec((2,)),))
        report = check_equi_witness(w, ball(Z1, 5), SetContext(Z1, 8))
        assert not report.passed
        assert any("part-0" in name for name, _ in report.failures())

    def test_overlapping_parts_name_least_shared_point(self):
        a0 = FiniteSet(int_elems(5, -4, 1, 4))
        a1 = FiniteSet(int_elems(4, 0, -4, 5))
        b0 = FiniteSet(int_elems(-1))
        b1 = FiniteSet(int_elems(2))
        w = EquiWitness((a0, a1), (b0, b1), (Z1.identity(), Z1.identity()))
        report = check_equi_witness(w, ball(Z1, 5), SetContext(Z1, 8))
        failing = dict(report.failures())
        # shared: (4), (-4), (5); (4) comes first in the group's order
        assert failing["parts-a-disjoint"] == "parts 0 and 1 share (4)"
        assert "parts-b-disjoint" not in failing


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


class TestBoundedCheck:
    def test_subset_needs_identity_only(self):
        narrow = Slab(Fraction(0), Fraction(1), Fraction(0))
        wide = Slab(Fraction(0), Fraction(2), Fraction(0))
        cover = bounded_check(narrow, wide, 2, ball(BS, 3))
        assert cover == FiniteCover((BS.identity(),))

    def test_wide_slab_covered_by_one_scaling_translate(self):
        # (2,0) scales the unit slab onto the width-two slab, so the greedy
        # cover is a single element rather than {e, (1,1)}
        narrow = Slab(Fraction(0), Fraction(1), Fraction(0))
        wide = Slab(Fraction(0), Fraction(2), Fraction(0))
        cover = bounded_check(wide, narrow, 2, ball(BS, 3))
        assert cover == FiniteCover((S_GEN,))

    def test_translation_translates_also_cover(self):
        # the {e,(1,1)} cover exists too: verify it directly
        from paradox.sets import Translate, member_strict

        narrow = Slab(Fraction(0), Fraction(1), Fraction(0))
        wide = Slab(Fraction(0), Fraction(2), Fraction(0))
        ctx = SetContext(BS, 8)
        window = ball(BS, 3)
        u = BS.parse("(1,1)")
        for g in materialize(wide, window, ctx).elements:
            assert member_strict(narrow, g, ctx) or member_strict(
                Translate(u, narrow), g, ctx
            )

    def test_whole_group_not_covered_by_point(self):
        point = FiniteSet((Z1.identity(),))
        cover = bounded_check(AllSet(), point, 2, ball(Z1, 6))
        assert cover is None
