import itertools
import random

import pytest

from paradox.engine import (
    DeficiencyCert,
    FlowCert,
    FlowDeficiency,
    MatchCert,
    doubling_matching,
    symbolic_witness_from_matching,
    type_order,
    witness_from_matching,
)
from paradox.groups import IntVec, ball, explicit_window, group_from_string
from paradox.matching import max_matching
from paradox.pwt import pwt_apply
from paradox.sets import (
    AllSet,
    BudgetError,
    FiniteSet,
    SemigroupSet,
    SetContext,
    Translate,
    Union,
    context_for,
    materialize,
)
from paradox.witness import (
    Collision,
    ParadoxWitness,
    free_semigroup_witness,
    iterate_disjoint,
    semigroup_window,
    witness_check,
)
from helpers import doubling_exists_oracle

Z1 = group_from_string("zn:1")
Z2 = group_from_string("zn:2")
F2 = group_from_string("free:2")
BS = group_from_string("bs12")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)


class TestDoublingMatching:
    def test_lattice_is_deficient(self):
        s_list = [IntVec((-1,)), IntVec((0,)), IntVec((1,))]
        cert = doubling_matching(AllSet(), s_list, ball(Z1, 3))
        assert isinstance(cert, DeficiencyCert)
        assert [Z1.show(x) for x in cert.violator] == [
            "(0)", "(1)", "(-1)", "(2)", "(-2)", "(3)", "(-3)",
        ]
        # the certified inequality, recomputed: |N| = 9 < 14 = 2|D|
        targets = {Z1.mul(s, x) for s in s_list for x in cert.violator}
        assert len(targets) == 9 < 2 * len(cert.violator)

    def test_free_group_doubles(self):
        cert = doubling_matching(AllSet(), F2.ball_elements(1), ball(F2, 2))
        assert isinstance(cert, MatchCert)
        assert len(cert.assignment) == 17
        images = [
            F2.mul(s, x) for x, s1, s2 in cert.assignment for s in (s1, s2)
        ]
        assert len(set(images)) == 34

    def test_free_semigroup_matching_uses_both_generators(self):
        window = semigroup_window(BS, S_GEN, T_GEN, 3)
        cert = doubling_matching(SEMI, [S_GEN, T_GEN], window)
        assert isinstance(cert, MatchCert)
        assert {s1 for _, s1, _ in cert.assignment} == {S_GEN}
        assert {s2 for _, _, s2 in cert.assignment} == {T_GEN}

    def test_empty_window_slice_matches_vacuously(self):
        cert = doubling_matching(FiniteSet(()), [IntVec((1,))], ball(Z1, 2))
        assert isinstance(cert, MatchCert)
        assert cert.assignment == ()

    def test_budget_exhaustion_is_an_error(self):
        semi = SemigroupSet((IntVec((1,)),), False)
        # the error names the first undecided point and the set: a window
        # point at budget 2, an image of the window at budget 8
        with pytest.raises(BudgetError, match=r"^membership of \(3\) in "
                           r"semigroup\(\(1\)\) undecided at budget 2;"):
            doubling_matching(semi, [IntVec((1,))], ball(Z1, 8), slack=-6)
        with pytest.raises(BudgetError, match=r"^membership of \(9\) in "
                           r"semigroup\(\(1\)\) undecided at budget 8;"):
            doubling_matching(semi, [IntVec((1,))], ball(Z1, 8), slack=0)

    def test_agreement_with_independent_oracle(self):
        rng = random.Random(42)
        ball2 = Z1.ball_elements(2)
        ctx = SetContext(Z1, 10)
        for trial in range(40):
            s_list = rng.sample(ball2, rng.randint(1, 4))
            radius = rng.randint(1, 3)
            window = ball(Z1, radius)
            cert = doubling_matching(AllSet(), s_list, window)
            expected = doubling_exists_oracle(
                Z1, list(window.elements), s_list, lambda img: True
            )
            assert isinstance(cert, MatchCert) is expected

    def test_deficiency_monotone_under_window_growth(self):
        s_list = [IntVec((-1,)), IntVec((0,)), IntVec((1,))]
        small = doubling_matching(AllSet(), s_list, ball(Z1, 3))
        assert isinstance(small, DeficiencyCert)
        # the same violator refutes doubling on any larger window
        big_points = set(ball(Z1, 6).elements)
        assert all(x in big_points for x in small.violator)
        targets = {Z1.mul(s, x) for s in s_list for x in small.violator}
        assert len(targets) < 2 * len(small.violator)


class TestMaxMatching:
    def test_long_augmenting_path(self):
        # the second phase augments along all 2000 vertices at once, far
        # deeper than the interpreter's recursion limit
        n = 2000
        adjacency = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
        pair_left, pair_right, reached = max_matching(range(n), adjacency)
        assert pair_left == {i: i for i in range(n)} == pair_right
        assert reached == set()


class TestWitnessFromMatching:
    def test_two_piece_structure(self):
        window = semigroup_window(BS, S_GEN, T_GEN, 3)
        cert = doubling_matching(SEMI, [S_GEN, T_GEN], window)
        w = witness_from_matching(cert)
        assert w.split == 1 and len(w.parts) == 2
        piece0, trans0 = w.parts[0]
        assert trans0 == BS.inv(S_GEN)
        assert set(piece0.elems) == {BS.mul(S_GEN, x) for x in window.elements}
        assert witness_check(w, window).passed

    def test_single_point_window(self):
        window = explicit_window(Z1, (IntVec((0,)),), 0)
        cert = doubling_matching(AllSet(), [IntVec((1,)), IntVec((2,))], window)
        assert isinstance(cert, MatchCert)
        w = witness_from_matching(cert)
        assert len(w.parts) == 2
        assert all(len(piece.elems) == 1 for piece, _ in w.parts)
        assert witness_check(w, window).passed

    def test_piece_count_bounded_by_translators(self):
        cert = doubling_matching(AllSet(), F2.ball_elements(1), ball(F2, 2))
        w = witness_from_matching(cert)
        assert len(w.parts) <= 2 * len(cert.translators)
        assert witness_check(w, ball(F2, 2)).passed

    def test_every_matching_transfers_to_a_checked_witness(self):
        rng = random.Random(13)
        for _ in range(20):
            s_list = rng.sample(F2.ball_elements(2), rng.randint(2, 6))
            window = ball(F2, rng.randint(1, 2))
            cert = doubling_matching(AllSet(), s_list, window)
            if isinstance(cert, MatchCert):
                assert witness_check(witness_from_matching(cert), window).passed

    def test_symbolic_lift_of_constant_matching(self):
        window = semigroup_window(BS, S_GEN, T_GEN, 3)
        cert = doubling_matching(SEMI, [S_GEN, T_GEN], window)
        lifted = symbolic_witness_from_matching(cert)
        assert lifted is not None
        assert witness_check(lifted, window).passed
        assert lifted.parts[0][0] == Translate(S_GEN, SEMI)


class TestWitnessCheck:
    def witness(self):
        return free_semigroup_witness(BS, S_GEN, T_GEN, 6)

    def test_symbolic_witness_passes_on_window(self):
        w = self.witness()
        assert witness_check(w, semigroup_window(BS, S_GEN, T_GEN, 4)).passed

    def test_duplicated_piece_fails_disjointness(self):
        w = self.witness()
        bad = ParadoxWitness(w.set_expr, (w.parts[0], w.parts[0]), 1)
        report = witness_check(bad, semigroup_window(BS, S_GEN, T_GEN, 3))
        assert "pieces-disjoint" in dict(report.failures())

    def test_missing_coverage_names_element(self):
        w = self.witness()
        # drop the first family's only piece: nothing covers the identity
        bad = ParadoxWitness(w.set_expr, (w.parts[1],), 0)
        report = witness_check(bad, semigroup_window(BS, S_GEN, T_GEN, 3))
        failures = dict(report.failures())
        assert "first-family-covers" in failures
        assert "(1,0)" in failures["first-family-covers"]


class TestFreeSemigroupWitness:
    def test_dyadic_generators_are_free_to_depth_six(self):
        w = free_semigroup_witness(BS, S_GEN, T_GEN, 6)
        assert isinstance(w, ParadoxWitness)
        window = semigroup_window(BS, S_GEN, T_GEN, 6)
        assert len(window) == 127
        assert witness_check(w, window).passed

    def test_equal_generators_collide_at_length_one(self):
        c = free_semigroup_witness(BS, S_GEN, S_GEN, 3)
        assert isinstance(c, Collision)
        assert len(c.word_b) == 1

    def test_commuting_generators_collide(self):
        c = free_semigroup_witness(Z1, IntVec((1,)), IntVec((2,)), 2)
        assert isinstance(c, Collision)
        assert c.value == IntVec((2,))  # 1+1 meets the generator 2

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            free_semigroup_witness(BS, S_GEN, T_GEN, 0)


class TestIterateDisjoint:
    def test_two_maps_are_the_base_maps(self):
        w = free_semigroup_witness(BS, S_GEN, T_GEN, 6)
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        maps = iterate_disjoint(w, 2, window)
        assert [m.displacement for m in maps] == [(S_GEN,), (T_GEN,)]

    def test_four_maps_have_mod_four_translators(self):
        w = free_semigroup_witness(BS, S_GEN, T_GEN, 6)
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        maps = iterate_disjoint(w, 4, window)
        assert [m.displacement for m in maps] == [
            (BS.parse("(4,0)"),),
            (BS.parse("(4,2)"),),
            (BS.parse("(4,1)"),),
            (BS.parse("(4,3)"),),
        ]

    def test_five_maps_pairwise_disjoint(self):
        w = free_semigroup_witness(BS, S_GEN, T_GEN, 6)
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        ctx = context_for(window)
        maps = iterate_disjoint(w, 5, window)
        assert len(maps) == 5
        images = []
        for mp in maps:
            pts = materialize(mp.domain, window, ctx).elements
            images.append({pwt_apply(mp, g, ctx) for g in pts})
        for i, j in itertools.combinations(range(5), 2):
            assert not images[i] & images[j]

    def test_invalid_witness_rejected(self):
        w = free_semigroup_witness(BS, S_GEN, T_GEN, 6)
        bad = ParadoxWitness(w.set_expr, (w.parts[0], w.parts[0]), 1)
        with pytest.raises(ValueError):
            iterate_disjoint(bad, 2, semigroup_window(BS, S_GEN, T_GEN, 3))


class TestTypeOrder:
    def test_one_copy_into_double_capacity(self):
        cert = type_order(1, AllSet(), 2, AllSet(), [Z1.identity()], ball(Z1, 3))
        assert isinstance(cert, FlowCert)
        assert all(used == (Z1.identity(),) for _, used in cert.assignment)

    def test_two_copies_into_lattice_fail(self):
        s_list = [IntVec((-1,)), IntVec((0,)), IntVec((1,))]
        cert = type_order(2, AllSet(), 1, AllSet(), s_list, ball(Z1, 3))
        assert isinstance(cert, FlowDeficiency)
        targets = {Z1.mul(s, x) for s in s_list for x in cert.violator}
        assert 2 * len(cert.violator) > len(targets)

    def test_reduction_to_doubling(self):
        rng = random.Random(9)
        ball2 = Z1.ball_elements(2)
        for _ in range(25):
            s_list = rng.sample(ball2, rng.randint(1, 4))
            window = ball(Z1, rng.randint(1, 3))
            a = doubling_matching(AllSet(), s_list, window)
            b = type_order(2, AllSet(), 1, AllSet(), s_list, window)
            assert isinstance(a, MatchCert) == isinstance(b, FlowCert)

    def test_flow_between_different_sets(self):
        # 9 sources, 7 reachable even targets: impossible at capacity one,
        # fine at capacity two
        evens = FiniteSet(tuple(IntVec((i,)) for i in range(-8, 9, 2)))
        window = ball(Z1, 4)
        s_list = [IntVec((i,)) for i in (-1, 0, 1, 4, 5)]
        tight = type_order(1, AllSet(), 1, evens, s_list, window)
        assert isinstance(tight, FlowDeficiency)
        relaxed = type_order(1, AllSet(), 2, evens, s_list, window)
        assert isinstance(relaxed, FlowCert)
        arrivals = {}
        for x, used in relaxed.assignment:
            assert len(used) == 1
            img = Z1.mul(used[0], x)
            arrivals[img] = arrivals.get(img, 0) + 1
        assert all(v <= 2 for v in arrivals.values())


class TestParadoxTransfer:
    def test_bounded_set_over_doubling_base(self):
        # A is covered by {e, u} translates of the semigroup and contains it;
        # composing the semigroup's two maps doubles A inside itself with
        # displacements from words over {s, t} times the cover's inverses.
        from paradox.pwt import bounded_check

        u = BS.parse("(1,1)")
        a = Union(SEMI, Translate(u, SEMI))
        window = ball(BS, 3)
        cover = bounded_check(a, SEMI, 1, window)
        assert cover is not None and set(cover.translators) <= {BS.identity(), u}

        words = [BS.identity(), S_GEN, T_GEN]
        words += [BS.mul(x, y) for x in (S_GEN, T_GEN) for y in (S_GEN, T_GEN)]
        s_prime = sorted(
            {
                BS.mul(wd, BS.inv(f))
                for wd in words
                for f in cover.translators
            },
            key=BS.sort_key,
        )
        cert = doubling_matching(a, s_prime, window)
        assert isinstance(cert, MatchCert)


class TestGrowthDichotomy:
    def test_subexponential_lattices_always_deficient(self):
        rng = random.Random(17)
        for group, dim in ((Z1, 1), (Z2, 2)):
            ball3 = group.ball_elements(3)
            for _ in range(6):
                s_list = rng.sample(ball3, rng.randint(1, 5))
                radius = 40 if dim == 1 else 9
                cert = doubling_matching(AllSet(), s_list, ball(group, radius))
                assert isinstance(cert, DeficiencyCert)

    def test_large_lattice_window(self):
        # |ball(70)| = 9941 points in the plane: counting still refutes doubling
        cert = doubling_matching(AllSet(), Z2.ball_elements(2), ball(Z2, 70))
        assert isinstance(cert, DeficiencyCert)

    def test_exponential_examples_always_match(self):
        for radius in (1, 2, 3):
            assert isinstance(
                doubling_matching(AllSet(), F2.ball_elements(1), ball(F2, radius)),
                MatchCert,
            )
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        assert isinstance(
            doubling_matching(SEMI, [S_GEN, T_GEN], window), MatchCert
        )
