import gzip
import itertools
import json
import os
import random
import time
from fractions import Fraction
from operator import mul

import pytest

from paradox.groups import (
    BALL_SIZE_CAP,
    DyadicAffineGroup,
    FreeWord,
    GroupError,
    IntVec,
    ball,
    explicit_window,
    group_from_string,
)
from paradox.sets import (
    BUDGET_EXCEEDED,
    MAX_DEPTH,
    MAX_NODES,
    AllSet,
    BallSet,
    BudgetError,
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
    predicate,
    show_setexpr,
    translate,
)
from paradox.sets import _lattice_halfspace, _semigroup_words
from helpers import balanced_union, brute_positive_words

BS = group_from_string("bs12")
Z1 = group_from_string("zn:1")
Z2 = group_from_string("zn:2")
F2 = group_from_string("free:2")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)


def bs_ctx():
    return SetContext(BS)


# The positive words in a and b never give e and never run out, and no
# half-space bounds them: e is undecided once they pass the cap.
FREE_SEMI = SemigroupSet((F2.parse("a"), F2.parse("b")), False)
UNDECIDED_AT_CAP = (
    "undecided: a semigroup search passed its cap (120000 enumerated values, "
    "4000000 letters or bits, 500000 affine nodes)"
)


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

    @pytest.mark.parametrize("radius", [0, 1, 3, 5])
    def test_affine_ball_matches_enumeration(self, radius):
        # a fresh group, so membership enumerates the ball on its own
        ctx = SetContext(DyadicAffineGroup())
        inside = set(BS.ball_elements(radius))
        for g in BS.ball_elements(radius + 1):
            assert member(BallSet(radius), g, ctx) is (g in inside)

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

    @pytest.mark.parametrize("gens", ["(2,0),(2,1)", "(2,1/2),(4,-3/4)"])
    def test_affine_decider_agrees_with_enumeration(self, gens):
        # every generator scales by at least 2, so a positive word for g has
        # at most g.a_exp letters, and the words of length <= 6 decide every
        # point with a_exp <= 6: the radius-6 ball, and the words and their
        # neighbours in the Cayley graph
        semi = parse_setexpr(f"semigroup({gens})", BS)
        words = set(positive_words(BS, semi.gens, 6)) - {BS.identity()}
        near = {BS._mul(w, x) for w in words for x in BS.generators()}
        points = {g for g in set(BS.ball_elements(6)) | words | near if g.a_exp <= 6}
        ctx = bs_ctx()
        got = {g for g in points if member(semi, g, ctx) is True}
        assert all(member(semi, g, ctx) is False for g in points - got)
        assert got == words & points
        assert 30 < len(got) < len(points)

    def test_budget_exceeded_is_distinguished(self):
        # points the words never reach come back undecided at the cap, never
        # wrongly False; the words that reach a point decide it
        ctx = SetContext(F2)
        assert member(FREE_SEMI, F2.parse("a b a"), ctx) is True
        for text in ("e", "a^-1", "a b^-1"):
            assert member(FREE_SEMI, F2.parse(text), ctx) is BUDGET_EXCEEDED
        # one lattice direction is bounded by its half-space: decided far out
        semi = SemigroupSet((IntVec((1,)),), False)
        assert member(semi, IntVec((900,)), SetContext(Z1)) is True
        assert member(semi, IntVec((-900,)), SetContext(Z1)) is False

    def test_enumeration_depth_stays_per_context(self):
        # each context enumerates its own words, and only to the layer that
        # answers: a query in a fresh context does not grow to the cap
        word = F2.parse("a b a b a")
        first = SetContext(F2)
        assert member(FREE_SEMI, F2.identity(), first) is BUDGET_EXCEEDED
        second = SetContext(F2)
        assert member(FREE_SEMI, word, second) is True
        words = _semigroup_words(FREE_SEMI, second)
        assert len(words.layers) == 6 and not words.capped
        assert member(FREE_SEMI, F2.identity(), second) is BUDGET_EXCEEDED

    def test_cap_stops_growth_inside_a_layer(self):
        # the 676 positive two-letter words of free:26 give 676^2 values in
        # the second layer alone, far past the cap
        f26 = group_from_string("free:26")
        letters = [f26.parse(x) for x in "abcdefghijklmnopqrstuvwxyz"]
        semi = SemigroupSet(tuple(f26._mul(x, y) for x in letters for y in letters),
                            False)
        ctx = SetContext(f26)
        assert member(semi, f26.identity(), ctx) is BUDGET_EXCEEDED
        words = _semigroup_words(semi, ctx)
        assert words.capped and len(words.layers) == 3
        assert len(words.index) == BALL_SIZE_CAP + 1

    def test_positive_words_past_the_cap_raise(self):
        # the words in a and b of length <= n have 2^(n+1) - 1 distinct
        # values: 65,535 for n = 15, and 131,071 for 16, never a truncated list
        assert len(positive_words(F2, FREE_SEMI.gens, 15)) == 2**16 - 1
        with pytest.raises(GroupError, match=r"passed its cap \(120000 values"):
            positive_words(F2, FREE_SEMI.gens, 16)

    def test_partly_filled_layer_is_not_past_the_bound(self):
        # the quadrant's words of length r are (r,0), (r-1,1), ..., (0,r) in
        # that order, and the cap falls inside layer 489: (0,489) is a word
        # of length 489 = its half-space bound, not yet reached
        semi = parse_setexpr("semigroup((1,0),(0,1))", Z2)
        ctx = SetContext(Z2)
        assert member(semi, IntVec((0, 489)), ctx) is BUDGET_EXCEEDED
        assert member(semi, IntVec((489, 0)), ctx) is True
        assert member(semi, IntVec((0, 488)), ctx) is True
        assert member(semi, IntVec((-1, 489)), ctx) is False
        assert len(_semigroup_words(semi, ctx).layers) == 490

    def test_halfspace_is_the_first_of_all_functionals(self):
        # searching only the coordinates the generators use finds the first
        # functional of {-1,0,1}^d in lexicographic order, -1 elsewhere
        rng = random.Random(24)
        for _ in range(300):
            group = group_from_string(f"zn:{rng.randint(1, 5)}")
            live = rng.sample(range(group.dim), rng.randint(1, group.dim))
            gens = tuple(
                IntVec(rng.randint(-2, 2) if i in live else 0 for i in range(group.dim))
                for _ in range(rng.randint(1, 3)))
            first = next((list(h) for h in itertools.product((-1, 0, 1),
                                                             repeat=group.dim)
                          if all(sum(map(mul, h, g)) >= 1 for g in gens)), None)
            assert _lattice_halfspace(SemigroupSet(gens, False), group) == first

    def test_halfspace_search_is_capped(self):
        # none is sought once the used coordinates have over BALL_SIZE_CAP
        # (3^k) functionals
        z26 = group_from_string("zn:26")
        units = z26.generators()[::2]
        assert _lattice_halfspace(SemigroupSet(units[:10], False), z26) == (
            [1] * 10 + [-1] * 16)
        assert _lattice_halfspace(SemigroupSet(units[:11], False), z26) is None

    @pytest.mark.parametrize("group, text", [
        (Z2, "semigroup((1,0),(-1,0),(0,1))"),
        (BS, "semigroup((2,0),(1/2,1))"),
        (F2, "semigroup(a b,b a)"),
    ], ids=["zn2-half-plane", "bs12-mixed", "free2"])
    def test_answers_do_not_depend_on_query_order(self, group, text):
        semi = parse_setexpr(text, group)
        points = ball(group, 6).elements[:200]
        answers = []
        for order in (points, points[::-1]):
            ctx = SetContext(group)
            answers.append({g: member(semi, g, ctx) for g in order})
        assert answers[0] == answers[1]
        assert BUDGET_EXCEEDED in answers[0].values()

    def test_finite_semigroup_exhausts_to_exact_false(self):
        # the cyclic subgroup {0} of Z: enumeration exhausts instantly
        semi = SemigroupSet((IntVec((0,)),), False)
        ctx = SetContext(Z1)
        assert member(semi, IntVec((0,)), ctx) is True
        assert member(semi, IntVec((1,)), ctx) is False

    # IntVec((0,)) equals the tuple of codes of `a`: only the check tells them apart
    @pytest.mark.parametrize(
        "foreign", [IntVec((0,)), BS.identity(), FreeWord((1, -1)), FreeWord((3,))],
        ids=["zn1", "bs12", "unreduced", "letter-3"],
    )
    @pytest.mark.parametrize(
        "expr",
        [FiniteSet((F2.parse("a"),)), Translate(F2.parse("b"), AllSet()),
         Union(EmptySet(), Translate(F2.parse("a"), FiniteSet((F2.identity(),))))],
        ids=["top", "translate", "union"],
    )
    def test_foreign_points_raise(self, expr, foreign):
        with pytest.raises(GroupError):
            member(expr, foreign, SetContext(F2))

    def test_foreign_translator_raises(self):
        with pytest.raises(GroupError):
            translate(IntVec((1,)), AllSet(), F2)

    def test_boolean_combinations(self):
        ctx = SetContext(Z1)
        evens = FiniteSet(tuple(IntVec((i,)) for i in range(-4, 5, 2)))
        odds = Diff(BallSet(4), evens)
        assert member(odds, IntVec((3,)), ctx) is True
        assert member(odds, IntVec((2,)), ctx) is False
        assert member(Union(evens, odds), IntVec((1,)), ctx) is True
        assert member(Intersect(evens, odds), IntVec((1,)), ctx) is False


class TestMaterialize:
    def test_all_on_lattice_ball(self):
        window = ball(Z1, 2)
        got = materialize(AllSet(), window)
        assert [Z1.show(g) for g in got] == ["(0)", "(1)", "(-1)", "(2)", "(-2)"]

    def test_slab_filter_matches_direct_comparison(self):
        slab = Slab(Fraction(0), Fraction(1), Fraction(0))
        window = ball(BS, 2)
        got = materialize(slab, window)
        expected = tuple(
            g for g in window.elements if 0 <= Fraction(g.num, 2 ** g.exp) <= 1
        )
        assert got == expected

    def test_semigroup_window_has_seven_short_words(self):
        words = positive_words(BS, (S_GEN, T_GEN), 2)
        window = explicit_window(BS, words, 2)
        got = materialize(SEMI, window)
        assert len(got) == 7  # e, s, t, ss, st, ts, tt all distinct

    def test_undecided_points_are_reported(self):
        # the first window point that the cap leaves open, e, is named
        with pytest.raises(BudgetError) as err:
            materialize(FREE_SEMI, ball(F2, 1))
        assert str(err.value) == f"membership of e in semigroup(a,b) {UNDECIDED_AT_CAP}"

    def test_monotone_under_window_growth(self):
        slab = Slab(Fraction(0), Fraction(2), Fraction(1))
        small, large = ball(BS, 2), ball(BS, 4)
        small_mat = materialize(slab, small)
        large_mat = materialize(slab, large)
        assert [g for g in large_mat if g in small.elements] == list(small_mat)

    def test_wide_slab_lies_in_two_translates_of_the_unit_slab(self):
        narrow = Slab(Fraction(0), Fraction(1), Fraction(0))
        wide = Slab(Fraction(0), Fraction(2), Fraction(0))
        ctx = SetContext(BS)
        window = ball(BS, 3)
        u = BS.parse("(1,1)")
        in_narrow = predicate(narrow, ctx)
        in_moved = predicate(Translate(u, narrow), ctx)
        for g in materialize(wide, window):
            assert in_narrow(g) or in_moved(g)


class TestDictionaryLaws:
    def random_exprs(self, rng):
        finite = FiniteSet(tuple(rng.sample(BS.ball_elements(3), 5)))
        slab = Slab(Fraction(-1), Fraction(rng.randint(0, 3)), Fraction(0))
        return [finite, slab, Union(finite, slab), Diff(slab, finite), SEMI]

    def test_translate_composition(self):
        rng = random.Random(5)
        window = ball(BS, 3)
        ctx = bs_ctx()
        elems = BS.ball_elements(2)
        for expr in self.random_exprs(rng):
            for _ in range(5):
                t, u = rng.choice(elems), rng.choice(elems)
                nested = Translate(t, Translate(u, expr))
                flat = Translate(BS.mul(t, u), expr)
                assert (
                    materialize(nested, window)
                    == materialize(flat, window)
                )

    def test_translate_distributes_over_intersection(self):
        rng = random.Random(6)
        window = ball(BS, 3)
        ctx = bs_ctx()
        elems = BS.ball_elements(2)
        exprs = self.random_exprs(rng)
        for _ in range(10):
            t = rng.choice(elems)
            a, b = rng.choice(exprs), rng.choice(exprs)
            lhs = Intersect(Translate(t, a), Translate(t, b))
            rhs = Translate(t, Intersect(a, b))
            assert (
                materialize(lhs, window)
                == materialize(rhs, window)
            )

    def test_translate_constructor_collapses(self):
        expr = translate(S_GEN, Translate(T_GEN, SEMI), BS)
        assert isinstance(expr, Translate)
        assert expr.t == BS.mul(S_GEN, T_GEN)
        assert translate(BS.identity(), SEMI, BS) is SEMI


def _random_expr(rng, group, elems, depth):
    """A random set expression over the elements `elems` of group, of at most
    `depth` operations in a chain: every node kind, about a third of the
    nodes translated."""
    if depth and rng.random() < 0.6:
        kind = rng.choice((Union, Intersect, Diff))
        expr = kind(_random_expr(rng, group, elems, depth - 1),
                    _random_expr(rng, group, elems, depth - 1))
    else:
        expr = (
            AllSet, EmptySet,
            lambda: FiniteSet(tuple(rng.sample(elems, rng.randrange(4)))),
            lambda: BallSet(rng.randrange(5)),
            lambda: SemigroupSet(tuple(rng.sample(elems, rng.randrange(1, 4))),
                                 rng.random() < 0.5),
            lambda: Slab(*(Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
                           for _ in range(3))),
            lambda: GreedySet(rng.randrange(20)),
        )[rng.randrange(7)]()
    return expr if rng.random() < 0.7 else translate(rng.choice(elems), expr, group)


def _nodes(expr):
    """The atoms and operations of expr; a translate adds none."""
    if isinstance(expr, Translate):
        return _nodes(expr.inner)
    if isinstance(expr, (Union, Intersect, Diff)):
        return 1 + _nodes(expr.left) + _nodes(expr.right)
    return 1


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

    @pytest.mark.parametrize("group", [F2, Z2, BS], ids=lambda g: g.key)
    def test_random_expressions_round_trip(self, group):
        """Seeded random expressions within MAX_DEPTH and MAX_NODES, trees and
        chains at the depth cap, read back to the text they were shown as."""
        rng = random.Random(14)
        elems = group.ball_elements(3)
        exprs = [_random_expr(rng, group, elems, rng.randrange(7)) for _ in range(300)]
        for _ in range(5):
            chain = _random_expr(rng, group, elems, 0)
            for _ in range(MAX_DEPTH):
                kind = rng.choice((Union, Intersect, Diff))
                chain = kind(chain, _random_expr(rng, group, elems, 0))
            exprs.append(chain)
        assert max(map(_nodes, exprs)) <= MAX_NODES
        for expr in exprs:
            text = show_setexpr(expr, group)
            assert show_setexpr(parse_setexpr(text, group), group) == text

    def test_precedence(self):
        expr = parse_setexpr("all&empty|ball(1)", Z1)
        assert expr == Union(Intersect(AllSet(), EmptySet()), BallSet(1))

    def test_translate_of_parenthesised(self):
        expr = parse_setexpr("(2,0)*(all|empty)", BS)
        assert expr == Translate(S_GEN, Union(AllSet(), EmptySet()))

    def test_free_group_translate(self):
        expr = parse_setexpr("a b^-1*ball(1)", F2)
        assert expr == Translate(F2.parse("a b^-1"), BallSet(1))

    def test_translate_chain_matches_one_prefix_at_a_time(self):
        # the parser multiplies a chain's prefixes once; folding `translate`
        # over them one prefix at a time, innermost first, gives the same
        # node, also over a parenthesised translate and when the product is e
        rng = random.Random(14)
        for group in (F2, Z1, BS):
            gens = group.generators()
            identities = 0
            for trial in range(60):
                prefixes = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
                inner = [rng.choice(gens)] if trial % 2 else []
                if trial % 3 == 0:  # close the chain: the whole product is e
                    prefixes += [group.inv(t) for t in reversed(inner + prefixes)]
                expected = BallSet(1)
                for t in reversed(prefixes + inner):
                    expected = translate(t, expected, group)
                text = "".join(f"{group.show(t)}*" for t in prefixes)
                text += f"({group.show(inner[0])}*ball(1))" if inner else "ball(1)"
                assert parse_setexpr(text, group) == expected, text
                identities += expected == BallSet(1)
            assert identities >= 10

    def test_long_translate_chain_parses_in_linear_time(self):
        # 64,000 prefixes (128 KB): multiplied one at a time, each product a
        # word one letter longer, 10,000 of them took seconds
        start = time.perf_counter()
        expr = parse_setexpr("a*" * 64_000 + "all", F2)
        elapsed = time.perf_counter() - start
        assert expr == Translate(FreeWord((1,) * 64_000), AllSet())
        assert elapsed < 2.0

    def test_errors(self):
        from paradox.groups import ParseError

        for bad in ["", "finite{", "slab(1,2)", "frob(2)", "all|"]:
            with pytest.raises(ParseError):
                parse_setexpr(bad, BS)

    def test_nesting_cap(self):
        from paradox.groups import ParseError
        from paradox.sets import MAX_DEPTH

        ops = ["|", "&", "\\"]
        chain = "\\".join(["all"] * (MAX_DEPTH + 1))
        nested = "(" * MAX_DEPTH + "a*ball(1)" + ")" * MAX_DEPTH
        right = "".join(f"all{ops[i % 3]}(" for i in range(MAX_DEPTH - 1))
        right += "all|all" + ")" * (MAX_DEPTH - 1)
        for text in (chain, nested, right):
            expr = parse_setexpr(text, F2)
            # what is shown parses back within the cap
            assert parse_setexpr(show_setexpr(expr, F2), F2) == expr
            assert member(expr, F2.parse("a b"), SetContext(F2)) in (True, False)
        for text in (chain + "\\all", "(" + nested + ")", "all|(" + right + ")"):
            with pytest.raises(ParseError, match=f"nests more than {MAX_DEPTH} "):
                parse_setexpr(text, F2)

    def test_node_cap(self):
        from paradox.groups import ParseError
        from paradox.sets import MAX_NODES

        # atoms and operations: a union of k atoms has 2k - 1 nodes, and the
        # translates, here one at each atom and one over the whole, add none
        at_cap = "a*" + balanced_union(["b*all"] * (MAX_NODES // 2))
        expr = parse_setexpr(at_cap, F2)
        assert parse_setexpr(show_setexpr(expr, F2), F2) == expr
        with pytest.raises(ParseError, match=f"has more than {MAX_NODES} nodes"):
            parse_setexpr(at_cap + "&all", F2)

    def test_kinds_never_compare_equal(self):
        a, b = BallSet(1), BallSet(2)
        assert Union(a, b) != Intersect(a, b) != Diff(a, b)
        assert AllSet() != EmptySet()
        assert GreedySet(3) != BallSet(3)
        assert repr(Union(a, b)) == (
            "Union(left=BallSet(radius=1), right=BallSet(radius=2))"
        )

    def test_greedy_membership_matches_sequence(self):
        from paradox.smallsets import greedy_small_set

        seq = greedy_small_set(Z1, 6)
        expr = GreedySet(6)
        ctx = SetContext(Z1)
        for g in Z1.ball_elements(6):
            assert member(expr, g, ctx) is (g in seq)

    def test_greedy_set_is_built_once_per_context(self, monkeypatch):
        import paradox.smallsets as smallsets

        built = []
        real = smallsets.greedy_small_set

        def counting(group, count):
            built.append(count)
            return real(group, count)

        monkeypatch.setattr(smallsets, "greedy_small_set", counting)
        ctx = SetContext(Z1)
        for g in Z1.ball_elements(6):
            member(GreedySet(6), g, ctx)
        assert built == [6]
        member(GreedySet(6), Z1.identity(), SetContext(Z1))
        assert built == [6, 6]


# ---- compiled membership ----------------------------------------------------


def _reference(expr, points, group):
    """The points of `points` in expr, by Python set algebra: a translate
    t*A holds p when A holds t^(-1) p, asked of A on the moved points."""
    points = set(points)
    if isinstance(expr, AllSet):
        return points
    if isinstance(expr, EmptySet):
        return set()
    if isinstance(expr, FiniteSet):
        return points & set(expr.elems)
    if isinstance(expr, BallSet):
        return points & set(group.ball_elements(expr.radius))
    if isinstance(expr, Translate):
        moved = {p: group.mul(group.inv(expr.t), p) for p in points}
        inside = _reference(expr.inner, moved.values(), group)
        return {p for p, q in moved.items() if q in inside}
    left = _reference(expr.left, points, group)
    right = _reference(expr.right, points, group)
    if isinstance(expr, Union):
        return left | right
    if isinstance(expr, Intersect):
        return left & right
    return left - right


def _random_tree(rng, group, depth):
    near = group.ball_elements(2)
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        leaf = rng.randrange(4)
        if leaf == 0:
            return AllSet()
        if leaf == 1:
            return EmptySet()
        if leaf == 2:
            return FiniteSet(tuple(rng.sample(group.ball_elements(3), rng.randrange(8))))
        return BallSet(rng.randrange(4))
    if roll < 0.5:
        return translate(rng.choice(near), _random_tree(rng, group, depth - 1), group)
    op = rng.choice((Union, Intersect, Diff))
    return op(_random_tree(rng, group, depth - 1), _random_tree(rng, group, depth - 1))


# (2,0) scales up and (1/2,1) down: capped enumeration; every word has a
# nonnegative offset, so (1,-1), x -> x - 1, is undecided at the cap
MIXED = SemigroupSet((BS.parse("(2,0)"), BS.parse("(1/2,1)")), False)
UNDECIDED = BS.parse("(1,-1)")


def _or3(a, b):
    if True in (a, b):
        return True
    return BUDGET_EXCEEDED if BUDGET_EXCEEDED in (a, b) else False


def _and3(a, b):
    if False in (a, b):
        return False
    return BUDGET_EXCEEDED if BUDGET_EXCEEDED in (a, b) else True


def _not3(a):
    return a if a is BUDGET_EXCEEDED else not a


class TestCompiledMembership:
    @pytest.mark.parametrize("group", [F2, Z2, BS], ids=["free2", "zn2", "bs12"])
    def test_random_trees_agree_with_set_algebra(self, group):
        rng = random.Random(11)
        window = ball(group, 3)
        ctx = SetContext(window.group)
        for _ in range(150):
            expr = _random_tree(rng, group, 4)
            expected = _reference(expr, window.elements, group)
            assert set(materialize(expr, window)) == expected, expr
            for g in window.elements:
                assert member(expr, g, ctx) is (g in expected), (expr, g)

    def test_three_valued_tables(self):
        ctx = SetContext(BS)
        assert member(MIXED, UNDECIDED, ctx) is BUDGET_EXCEEDED
        leaves = {True: AllSet(), False: EmptySet(), BUDGET_EXCEEDED: MIXED}
        tables = {
            Union: _or3,
            Intersect: _and3,
            Diff: lambda a, b: _and3(a, _not3(b)),
        }
        for op, table in tables.items():
            for a, left in leaves.items():
                for b, right in leaves.items():
                    want = table(a, b)
                    assert member(op(left, right), UNDECIDED, ctx) is want, (op, a, b)
                    # the same under a translate, asked at the moved point
                    moved = translate(S_GEN, op(left, right), BS)
                    assert member(moved, BS.mul(S_GEN, UNDECIDED), ctx) is want

    def test_undecided_error_names_the_outer_expression(self):
        ctx = SetContext(BS)
        outer = Union(EmptySet(), Intersect(AllSet(), MIXED))
        message = f"membership of (1,-1) in {show_setexpr(outer, BS)} {UNDECIDED_AT_CAP}"
        with pytest.raises(BudgetError) as err:
            predicate(outer, ctx)(UNDECIDED)
        assert str(err.value) == message
        window = explicit_window(BS, (S_GEN, UNDECIDED), 1)
        with pytest.raises(BudgetError) as err:
            materialize(outer, window)
        assert str(err.value) == message

    def test_witness_check_hashes_no_set_expression(self, monkeypatch):
        """Compiled tests are found by the identity of their expression, so
        replaying a witness never hashes or compares a set expression, whose
        tuple hash and equality walk the whole tree and every finite tuple."""
        from paradox.certificates import window_from_descriptor, witness_from_cert
        from paradox.witness import witness_check

        calls = []
        for cls in (AllSet, EmptySet, FiniteSet, BallSet, Translate, Union,
                    Intersect, Diff, SemigroupSet, Slab, GreedySet):
            for name in ("__hash__", "__eq__"):
                real = getattr(cls, name)

                def counting(*args, _real=real):
                    calls.append(type(args[0]).__name__)
                    return _real(*args)

                monkeypatch.setattr(cls, name, counting)
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "data", "f2w7wit.json.gz")
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
        witness = witness_from_cert(data, F2)
        counts = []
        for radius in (5, 7):
            window = ball(F2, radius)
            report = witness_check(witness, window)
            assert report.passed, report
            counts.append(len(calls))
            calls.clear()
        # a ball of radius 7 has nine times the points of one of radius 5
        assert counts[0] == counts[1]
