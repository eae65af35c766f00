import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from paradox.dyadic import parse_dyadic, show_dyadic
from paradox.groups import (
    BALL_SIZE_CAP,
    AffineElem,
    FreeWord,
    GroupError,
    IntVec,
    Layers,
    ParseError,
    ball,
    group_from_string,
)
from helpers import brute_free_ball

F2 = group_from_string("free:2")
Z1 = group_from_string("zn:1")
Z2 = group_from_string("zn:2")
BS = group_from_string("bs12")

ALL_GROUPS = [F2, Z1, Z2, BS]


class TestDyadic:
    """Offsets num / 2**exp of affine elements, kept in lowest terms."""

    def test_normalisation(self):
        assert tuple(AffineElem(0, 4, 2)) == (0, 1, 0)
        assert tuple(AffineElem(0, 6, 1)) == (0, 3, 0)
        assert tuple(AffineElem(0, 0, 7)) == (0, 0, 0)
        assert tuple(AffineElem(0, 3, -2)) == (0, 12, 0)

    def test_arithmetic(self):
        half = AffineElem(0, 1, 1)
        assert BS.mul(half, half) == AffineElem(0, 1, 0)
        # x -> x/4 after x -> x + 5 is x -> x/4 + 5/4
        assert BS.mul(AffineElem(-2), AffineElem(0, 5)) == AffineElem(-2, 5, 2)

    def test_parse(self):
        assert parse_dyadic("3/8") == (3, 3)
        assert parse_dyadic("3/2^3") == (3, 3)
        assert parse_dyadic("6/8") == (3, 2)
        assert parse_dyadic("-7") == (-7, 0)
        assert parse_dyadic("0/2^9") == (0, 0)
        assert (show_dyadic(3, 3), show_dyadic(-7, 0)) == ("3/8", "-7")
        with pytest.raises(ValueError):
            parse_dyadic("1/3")


class TestMul:
    def test_free_reduction(self):
        g = F2.parse("a b a^-1")
        h = F2.parse("a b")
        assert F2.show(F2.mul(g, h)) == "a b b"

    def test_affine_law(self):
        s, t = BS.parse("(2,0)"), BS.parse("(2,1)")
        assert BS.show(BS.mul(s, t)) == "(4,2)"

    def test_lattice_addition(self):
        assert Z2.mul(IntVec((1, -2)), IntVec((0, 3))) == IntVec((1, 1))

    def test_mixed_groups_rejected(self):
        with pytest.raises(GroupError):
            F2.mul(F2.identity(), Z1.identity())
        with pytest.raises(GroupError):
            Z2.mul(IntVec((1, 2)), IntVec((1, 2, 3)))

    @pytest.mark.parametrize(
        "letters, message",
        [((0,), "out of range"), ((3,), "out of range"), ((-3,), "out of range"),
         ((1, -1), "not reduced"), ((2, 1, -1), "not reduced")],
        ids=["letter-0", "letter-3", "letter-minus-3", "a-a^-1", "b-a-a^-1"],
    )
    def test_invalid_free_words_rejected(self, letters, message):
        bad = FreeWord(letters)
        for call in (lambda: F2.check(bad), lambda: F2.mul(bad, F2.identity()),
                     lambda: F2.mul(F2.identity(), bad), lambda: F2.inv(bad)):
            with pytest.raises(GroupError, match=message):
                call()


class TestAffineReference:
    """bs12 kernels against exact rational maps x -> a*x + b."""

    @staticmethod
    def ref(g):
        return Fraction(2) ** g.a_exp, Fraction(g.num, 2 ** g.exp)

    @staticmethod
    def assert_normal(g):
        assert type(g) is AffineElem and len(g) == 3
        a_exp, num, exp = g
        assert exp >= 0 and (num & 1 or exp == 0)

    @staticmethod
    def seeded_element(rng):
        # an even numerator, so that the offset is reduced before it is stored
        offset = Fraction(rng.randint(-10**6, 10**6) << rng.randint(1, 20),
                          2 ** rng.randint(0, 60))
        return AffineElem(rng.randint(-40, 40), offset.numerator,
                          offset.denominator.bit_length() - 1)

    def test_random_pairs_of_the_radius5_ball(self):
        rng = random.Random(20)
        elems = BS.ball_elements(5)
        # the ball, then elements past it: scales up to 2^40 and offsets up to
        # 60 binary places give _inv integer offsets and _mul even sums to reduce
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(20_000)]
        pairs += [(self.seeded_element(rng), self.seeded_element(rng))
                  for _ in range(5_000)]
        products = []
        for g, h in pairs:
            (ga, gb), (ha, hb) = self.ref(g), self.ref(h)
            gh = BS._mul(g, h)
            self.assert_normal(gh)
            assert self.ref(gh) == (ga * ha, ga * hb + gb)
            g_inv = BS._inv(g)
            self.assert_normal(g_inv)
            assert self.ref(g_inv) == (1 / ga, -gb / ga)
            assert BS.parse(BS.show(gh)) == gh
            products.append(gh)
        # sort_key orders by the scale exponent, then by the offset
        by_ref = sorted(products, key=lambda g: (g.a_exp, self.ref(g)[1]))
        assert sorted(products, key=BS.sort_key) == by_ref


class TestRepresentation:
    """Elements are tuples: C-level hashing and equality, named-field reprs."""

    def test_reprs(self):
        assert repr(FreeWord((1, -2))) == "FreeWord(letters=(1, -2))"
        assert repr(IntVec((1, 2))) == "IntVec(coords=(1, 2))"
        assert repr(IntVec((5,))) == "IntVec(coords=(5,))"
        assert repr(AffineElem(1, 3, 2)) == "AffineElem(a_exp=1, num=3, exp=2)"

    def test_fields(self):
        assert F2.parse("a b^-1").letters == (1, -2)
        assert tuple(IntVec((3, -4))) == (3, -4)
        g = BS.parse("(1/2,3/4)")
        assert (g.a_exp, g.num, g.exp) == (-1, 3, 2)

    def test_pickle_round_trip(self):
        import pickle

        for g in (F2.parse("a b^-1"), IntVec((3, -4)), BS.parse("(1/2,3/4)")):
            assert pickle.loads(pickle.dumps(g)) == g
            assert repr(pickle.loads(pickle.dumps(g))) == repr(g)

    @pytest.mark.parametrize("spec, radius", [("free:2", 8), ("free:3", 5)])
    def test_free_ball_hashes_are_distinct(self, spec, radius):
        # signed letters collided: hash(-1) == hash(-2) made a^-1 and b^-1
        # alike, and the free:2 radius-8 ball had 6,349 hashes for 13,121 words
        elems = group_from_string(spec).ball_elements(radius)
        assert len({hash(g) for g in elems}) == len(elems)

    def test_lattice_ball_hash_buckets_stay_small(self):
        # coordinates -1 and -2 still hash alike, so up to 2 x 2 per bucket
        buckets = Counter(hash(g) for g in Z2.ball_elements(10))
        assert max(buckets.values()) <= 4


class TestInv:
    def test_affine(self):
        assert BS.show(BS.inv(BS.parse("(2,1)"))) == "(1/2,-1/2)"

    def test_free_reverse(self):
        assert F2.show(F2.inv(F2.parse("a b^-1"))) == "b a^-1"

    def test_lattice(self):
        assert Z1.inv(IntVec((7,))) == IntVec((-7,))

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.key)
    def test_inverse_law(self, group):
        for g in group.ball_elements(2):
            assert group.mul(g, group.inv(g)) == group.identity()
            assert group.mul(group.inv(g), g) == group.identity()


class TestBall:
    def test_free2_radius1(self):
        got = [F2.show(g) for g in F2.ball_elements(1)]
        assert got == ["e", "a", "a^-1", "b", "b^-1"]

    def test_free2_radius2_against_bruteforce(self):
        elems = F2.ball_elements(2)
        assert len(elems) == 17
        assert {g.letters for g in elems} == brute_free_ball(2, 2)

    def test_zn1_radius3(self):
        got = [Z1.show(g) for g in Z1.ball_elements(3)]
        assert got == ["(0)", "(1)", "(-1)", "(2)", "(-2)", "(3)", "(-3)"]

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.key)
    def test_prefix_compatible(self, group):
        small = group.ball_elements(2)
        large = group.ball_elements(3)
        assert large[: len(small)] == small

    def test_negative_radius(self):
        with pytest.raises(GroupError):
            F2.ball_elements(-1)

    def test_size_cap(self):
        assert len(F2.ball_elements(10)) == 118097 <= BALL_SIZE_CAP
        for group, radius in ((F2, 11), (group_from_string("zn:9"), 9), (BS, 30)):
            with pytest.raises(GroupError, match=r"passed its cap \(120000 values"):
                group.ball_elements(radius)

    def test_letter_cap_stops_a_free1_ball(self):
        # the free:1 ball of radius r holds r (r + 1) letters in 2r + 1
        # points: 3,998,000 letters fit SIZE_CAP at radius 1999, 4,002,000
        # do not, and the refusal leaves shorter radii served
        free1 = group_from_string("free:1")
        assert len(free1.ball_elements(1999)) == 3999
        with pytest.raises(GroupError, match="4000000 letters or bits"):
            free1.ball_elements(2000)
        assert [free1.show(g) for g in free1.ball_elements(1)] == ["e", "a", "a^-1"]
        assert len(free1.ball_elements(8)) == 17

    @pytest.mark.parametrize("spec", ["free:2", "zn:2", "bs12"])
    def test_enumeration_follows_the_ball_layers(self, spec):
        group = group_from_string(spec)
        ball = group.ball_elements(3)
        assert list(itertools.islice(group.enumerate_elements(), len(ball))) == ball

    def test_enumeration_runs_past_the_cap(self):
        # the whole-group enumeration is not a ball: it runs as far as it is
        # read, after a ball has capped the group's own enumeration
        group = group_from_string("bs12")
        with pytest.raises(GroupError, match="passed its cap"):
            group.ball_elements(30)
        elements = list(itertools.islice(group.enumerate_elements(),
                                         BALL_SIZE_CAP + 2))
        assert len(set(elements)) == BALL_SIZE_CAP + 2


class TestLayers:
    """The breadth-first enumerator behind balls and semigroup words."""

    def test_root_is_reached_only_with_root(self):
        a, a_inv = F2.parse("a"), F2.parse("a^-1")
        ball_like = Layers(F2, (a, a_inv), with_root=True)
        words = Layers(F2, (a, a_inv), with_root=False)
        for layers in (ball_like, words):
            layers.extend(2)
        shown = lambda layers: [[F2.show(g) for g in lay] for lay in layers.layers]
        assert shown(ball_like) == [["e"], ["a", "a^-1"], ["a a", "a^-1 a^-1"]]
        # without the root, e is first reached by the nonempty word a a^-1
        assert shown(words) == [["e"], ["a", "a^-1"], ["a a", "e", "a^-1 a^-1"]]
        assert ball_like.index[F2.identity()] == 0
        assert words.index[F2.identity()] == 2

    def test_growth_stops_after_an_empty_layer(self):
        zero = Layers(Z1, (Z1.identity(),), with_root=False)
        zero.extend(10)
        assert zero.layers == [[IntVec((0,))], [IntVec((0,))], []]


class TestParse:
    def test_free_roundtrip(self):
        w = F2.parse("a b^-1")
        assert w == FreeWord((1, -2))
        assert F2.parse(F2.show(w)) == w

    def test_affine_forms(self):
        assert BS.parse("(2,1)") == AffineElem(1, 1)
        assert BS.parse("(1/2, -1/2)") == AffineElem(-1, -1, 1)
        assert BS.parse("(4, 3/2^3)") == AffineElem(2, 3, 3)

    def test_normalising_parse(self):
        assert F2.parse("a a^-1") == F2.identity()

    @pytest.mark.parametrize(
        "text, length",
        [("a " * 200_000, 200_000), ("a a^-1 " * 100_000, 0)],
        ids=["200k-letters", "200k-cancelling"],
    )
    def test_long_words_parse_in_linear_time(self, text, length):
        started = time.perf_counter()
        w = F2.parse(text)
        assert time.perf_counter() - started < 1.0
        assert len(w.letters) == length
        assert set(w.letters) <= {1}

    @pytest.mark.parametrize("text", ["", "   "], ids=["empty", "blank"])
    def test_free_text_without_a_token_raises(self, text):
        with pytest.raises(ParseError, match="expected a word or 'e'"):
            F2.parse(text)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError):
            F2.parse("a q")
        with pytest.raises(ParseError):
            BS.parse("(3,1)")  # scale not a power of two
        with pytest.raises(ParseError):
            Z2.parse("(1,2,3)")

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.key)
    def test_show_parse_roundtrip_on_ball(self, group):
        for g in group.ball_elements(3):
            assert group.parse(group.show(g)) == g


class TestGroupAxioms:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.key)
    def test_associativity_on_ball2(self, group):
        elems = group.ball_elements(2)
        rng = random.Random(7)
        triples = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(300)]
        # include the full small ball for zn:1 where it is cheap
        if len(elems) <= 6:
            triples = list(itertools.product(elems, repeat=3))
        for g, h, k in triples:
            assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.key)
    def test_identity_law(self, group):
        e = group.identity()
        for g in group.ball_elements(2):
            assert group.mul(g, e) == g
            assert group.mul(e, g) == g

    def test_affine_exactness_under_products(self):
        rng = random.Random(3)
        elems = BS.ball_elements(4)
        acc = BS.identity()
        for _ in range(200):
            acc = BS.mul(acc, rng.choice(elems))
        # scale stays a power of two and b stays dyadic in lowest terms
        assert isinstance(acc.a_exp, int)
        assert tuple(acc) == tuple(AffineElem(*acc))

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.key)
    def test_unchecked_kernels_agree_with_public_ones(self, group):
        rng = random.Random(13)
        elems = group.ball_elements(3)

        def product(n):
            g = group.identity()
            for _ in range(n):
                g = group.mul(g, rng.choice(elems))
            return g

        for _ in range(300):
            p, k, r = product(3), product(rng.randint(0, 4)), product(3)
            # g ends in k and h starts with k^-1: g h cancels across the junction
            g, h = group.mul(p, k), group.mul(group.inv(k), r)
            for x, y in ((g, h), (h, g), (g, g)):
                assert group._mul(x, y) == group.mul(x, y)
                group.check(group._mul(x, y))
            assert group._inv(g) == group.inv(g)
            group.check(group._inv(g))

    def test_free_kernel_reduces_the_concatenation(self):
        rng = random.Random(17)
        letters = ["a", "a^-1", "b", "b^-1"]
        for _ in range(500):
            left = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
            # the right word often begins by undoing the end of the left one
            undo = [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(left)]
            right = undo[: rng.randint(0, len(undo))] + [
                rng.choice(letters) for _ in range(rng.randint(0, 8))
            ]
            # a leading "e" keeps an empty word's text from being empty
            g, h = F2.parse(" ".join(["e", *left])), F2.parse(" ".join(["e", *right]))
            # the parser reduces the concatenated text on its own stack
            expected = F2.parse(" ".join(["e", *left, *right]))
            assert F2._mul(g, h) == F2.mul(g, h) == expected

    def test_generators_symmetric(self):
        for group in ALL_GROUPS:
            gens = group.generators()
            for g in gens:
                assert group.inv(g) in gens


class TestWindow:
    def test_ball_window_contains(self):
        w = ball(Z1, 2)
        assert IntVec((2,)) in w.elements
        assert IntVec((3,)) not in w.elements
        assert w.elements[0] == IntVec((0,))

    def test_duplicate_rejected(self):
        from paradox.groups import explicit_window

        with pytest.raises(GroupError):
            explicit_window(Z1, (IntVec((0,)), IntVec((0,))), 1)

    @pytest.mark.parametrize("group, foreign", [
        (Z1, IntVec((0, 1))), (F2, FreeWord((1, -1))), (F2, IntVec((0,))),
    ], ids=["zn1-length", "free2-unreduced", "free2-lattice"])
    def test_non_element_rejected(self, group, foreign):
        # windows are checked here once; code that reads them checks no more
        from paradox.groups import explicit_window

        with pytest.raises(GroupError):
            explicit_window(group, (group.identity(), foreign), 1)
