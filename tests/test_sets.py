import random
from fractions import Fraction

import pytest

from paradox.groups import IntVec, ball, explicit_window, group_from_string
from paradox.sets import (
    BUDGET_EXCEEDED,
    AllSet,
    BallSet,
    Diff,
    EmptySet,
    FiniteSet,
    GreedySet,
    Intersect,
    SemigroupSet,
    SetContext,
    Slab,
    Translate,
    Union,
    materialize,
    member,
    parse_setexpr,
    positive_words,
    show_setexpr,
    translate,
)
from helpers import brute_positive_words

BS = group_from_string("bs12")
Z1 = group_from_string("zn:1")
F2 = group_from_string("free:2")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)


def bs_ctx(budget=8):
    return SetContext(BS, budget)


class TestMember:
    def test_slab_contains_generator(self):
        slab = Slab(Fraction(0), Fraction(1), Fraction(0))
        assert member(slab, BS.parse("(2,1)"), bs_ctx()) is True
        assert member(slab, BS.parse("(2,2)"), bs_ctx()) is False

    def test_semigroup_product_of_generators(self):
        # (4,2) = (2,0)*(2,1); oracle: direct enumeration of words to length 2
        assert BS.parse("(4,2)") in brute_positive_words(BS, [S_GEN, T_GEN], 2)
        assert member(SEMI, BS.parse("(4,2)"), bs_ctx()) is True

    def test_ball_excludes_longer_words(self):
        assert member(BallSet(1), F2.parse("a b"), SetContext(F2)) is False
        assert member(BallSet(1), F2.parse("a"), SetContext(F2)) is True

    def test_semigroup_agrees_with_bruteforce(self):
        brute = brute_positive_words(BS, [S_GEN, T_GEN], 5)
        ctx = bs_ctx()
        for g in BS.ball_elements(4):
            got = member(SEMI, g, ctx)
            assert got is (g in brute or g == BS.identity())

    def test_semigroup_without_identity(self):
        semi = SemigroupSet((S_GEN, T_GEN), False)
        assert member(semi, BS.identity(), bs_ctx()) is False
        assert member(semi, S_GEN, bs_ctx()) is True

    def test_deep_affine_words_are_decided(self):
        # s^k peels one generator per step; the answer must not depend on the
        # interpreter's stack depth, so a fresh context decides both
        for k in (1500, 3000):
            assert member(SEMI, BS.parse(f"({2 ** k},0)"), bs_ctx()) is True

    def test_budget_exceeded_is_distinguished(self):
        # words in a single lattice direction: membership of far points with a
        # small budget must come back undecided, never wrongly False
        semi = SemigroupSet((IntVec((1,)),), False)
        ctx = SetContext(Z1, budget=3)
        assert member(semi, IntVec((2,)), ctx) is True
        assert member(semi, IntVec((9,)), ctx) is BUDGET_EXCEEDED
        assert member(semi, IntVec((9,)), SetContext(Z1, budget=9)) is True

    def test_finite_semigroup_exhausts_to_exact_false(self):
        # the cyclic subgroup {0} of Z: enumeration exhausts instantly
        semi = SemigroupSet((IntVec((0,)),), False)
        ctx = SetContext(Z1, budget=3)
        assert member(semi, IntVec((0,)), ctx) is True
        assert member(semi, IntVec((1,)), ctx) is False

    def test_boolean_combinations(self):
        ctx = SetContext(Z1, 6)
        evens = FiniteSet(tuple(IntVec((i,)) for i in range(-4, 5, 2)))
        odds = Diff(BallSet(4), evens)
        assert member(odds, IntVec((3,)), ctx) is True
        assert member(odds, IntVec((2,)), ctx) is False
        assert member(Union(evens, odds), IntVec((1,)), ctx) is True
        assert member(Intersect(evens, odds), IntVec((1,)), ctx) is False


class TestMaterialize:
    def test_all_on_lattice_ball(self):
        got = materialize(AllSet(), ball(Z1, 2))
        assert [Z1.show(g) for g in got.elements] == ["(0)", "(1)", "(-1)", "(2)", "(-2)"]

    def test_slab_filter_matches_direct_comparison(self):
        slab = Slab(Fraction(0), Fraction(1), Fraction(0))
        window = ball(BS, 2)
        got = materialize(slab, window)
        from paradox.groups import affine_fraction

        expected = tuple(
            g for g in window.elements if 0 <= affine_fraction(g)[1] <= 1
        )
        assert got.elements == expected
        assert got.complete

    def test_semigroup_window_has_seven_short_words(self):
        words = positive_words(BS, (S_GEN, T_GEN), 2)
        window = explicit_window(BS, words, 2)
        got = materialize(SEMI, window)
        assert len(got.elements) == 7  # e, s, t, ss, st, ts, tt all distinct
        assert got.complete

    def test_undecided_points_are_reported(self):
        semi = SemigroupSet((IntVec((1,)),), False)
        got = materialize(semi, ball(Z1, 8), SetContext(Z1, budget=3))
        assert got.undecided
        assert not got.complete

    def test_monotone_under_window_growth(self):
        slab = Slab(Fraction(0), Fraction(2), Fraction(1))
        small, large = ball(BS, 2), ball(BS, 4)
        small_mat = materialize(slab, small).elements
        large_mat = materialize(slab, large).elements
        assert [g for g in large_mat if g in small] == list(small_mat)


class TestDictionaryLaws:
    def random_exprs(self, rng):
        finite = FiniteSet(tuple(rng.sample(BS.ball_elements(3), 5)))
        slab = Slab(Fraction(-1), Fraction(rng.randint(0, 3)), Fraction(0))
        return [finite, slab, Union(finite, slab), Diff(slab, finite), SEMI]

    def test_translate_composition(self):
        rng = random.Random(5)
        window = ball(BS, 3)
        ctx = bs_ctx(9)
        elems = BS.ball_elements(2)
        for expr in self.random_exprs(rng):
            for _ in range(5):
                t, u = rng.choice(elems), rng.choice(elems)
                nested = Translate(t, Translate(u, expr))
                flat = Translate(BS.mul(t, u), expr)
                assert (
                    materialize(nested, window, ctx).elements
                    == materialize(flat, window, ctx).elements
                )

    def test_translate_distributes_over_intersection(self):
        rng = random.Random(6)
        window = ball(BS, 3)
        ctx = bs_ctx(9)
        elems = BS.ball_elements(2)
        exprs = self.random_exprs(rng)
        for _ in range(10):
            t = rng.choice(elems)
            a, b = rng.choice(exprs), rng.choice(exprs)
            lhs = Intersect(Translate(t, a), Translate(t, b))
            rhs = Translate(t, Intersect(a, b))
            assert (
                materialize(lhs, window, ctx).elements
                == materialize(rhs, window, ctx).elements
            )

    def test_translate_constructor_collapses(self):
        expr = translate(S_GEN, Translate(T_GEN, SEMI), BS)
        assert isinstance(expr, Translate)
        assert expr.t == BS.mul(S_GEN, T_GEN)
        assert translate(BS.identity(), SEMI, BS) is SEMI


class TestGrammar:
    CASES = [
        "all",
        "empty",
        "finite{(2,0),(2,1)}",
        "ball(3)",
        "semigroup((2,0),(2,1);e)",
        "semigroup((2,0),(2,1))",
        "slab(0,1,0)",
        "slab(-1/2,3/4,2)",
        "greedy(10)",
        "(2,0)*slab(0,1,0)",
        "(all|empty)",
        "(semigroup((2,0),(2,1);e)&ball(2))",
        "(ball(3)\\finite{(1,0)})",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        expr = parse_setexpr(text, BS)
        again = parse_setexpr(show_setexpr(expr, BS), BS)
        assert again == expr

    def test_precedence(self):
        expr = parse_setexpr("all&empty|ball(1)", Z1)
        assert expr == Union(Intersect(AllSet(), EmptySet()), BallSet(1))

    def test_translate_of_parenthesised(self):
        expr = parse_setexpr("(2,0)*(all|empty)", BS)
        assert expr == Translate(S_GEN, Union(AllSet(), EmptySet()))

    def test_free_group_translate(self):
        expr = parse_setexpr("a b^-1*ball(1)", F2)
        assert expr == Translate(F2.parse("a b^-1"), BallSet(1))

    def test_errors(self):
        from paradox.groups import ParseError

        for bad in ["", "finite{", "slab(1,2)", "frob(2)", "all|"]:
            with pytest.raises(ParseError):
                parse_setexpr(bad, BS)

    def test_greedy_membership_matches_sequence(self):
        from paradox.smallsets import greedy_small_set

        seq = greedy_small_set(Z1, 6)
        expr = GreedySet(6)
        ctx = SetContext(Z1, 8)
        for g in Z1.ball_elements(6):
            assert member(expr, g, ctx) is (g in seq)
