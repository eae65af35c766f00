import random
from fractions import Fraction

import pytest

from paradox.crossed import (
    PIWitness,
    cp_add,
    cp_adjoint,
    cp_mul,
    cp_sub,
    cp_vanishes_on,
    cp_zero,
    coeff_value,
    corner_compress,
    indicator,
    pi_witness,
    single,
    unitary,
    verify_pi_witness,
)
from paradox.engine import doubling_matching, witness_from_matching
from paradox.groups import IntVec, ball, group_from_string
from paradox.sets import (
    AllSet,
    EmptySet,
    FiniteSet,
    GreedySet,
    Intersect,
    SemigroupSet,
    Slab,
    Translate,
    translate,
)
from paradox.witness import free_semigroup_witness, semigroup_window

BS = group_from_string("bs12")
Z1 = group_from_string("zn:1")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)


def random_cp(group, rng, elems, exprs):
    x = cp_zero(group)
    for _ in range(rng.randint(1, 3)):
        term = single(
            group,
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
            rng.choice(exprs),
            rng.choice(elems),
        )
        x = cp_add(x, term)
    return x


@pytest.fixture
def bs_samples():
    rng = random.Random(31)
    elems = BS.ball_elements(2)
    exprs = [
        SEMI,
        Slab(Fraction(0), Fraction(1), Fraction(0)),
        FiniteSet(tuple(rng.sample(elems, 4))),
        AllSet(),
    ]
    return rng, elems, exprs


class TestAlgebra:
    def test_diagonal_product_intersects(self):
        a = Slab(Fraction(0), Fraction(1), Fraction(0))
        b = SEMI
        prod = cp_mul(indicator(BS, a), indicator(BS, b))
        assert prod.terms == ((BS.identity(), ((1, Intersect(a, b)),)),)

    def test_covariance_relation(self):
        # u_s 1_A u_s^* realises translation of the set
        window = ball(BS, 3)
        for t in BS.ball_elements(2):
            lhs = cp_mul(unitary(BS, t), indicator(BS, SEMI))
            rhs = single(BS, Fraction(1), translate(t, SEMI, BS), t)
            assert cp_vanishes_on(cp_sub(lhs, rhs), window) is None

    def test_isometry_collapse(self):
        # (1_{sA} u_s)^* (1_{sA} u_s) agrees with 1_A on windows
        v = single(BS, Fraction(1), translate(S_GEN, SEMI, BS), S_GEN)
        prod = cp_mul(cp_adjoint(v), v)
        delta = cp_sub(prod, indicator(BS, SEMI))
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        assert cp_vanishes_on(delta, window) is None

    def test_adjoint_examples(self):
        p = indicator(BS, SEMI)
        assert cp_adjoint(p) == p
        v = single(BS, Fraction(1), translate(S_GEN, SEMI, BS), S_GEN)
        vstar = cp_adjoint(v)
        assert [t for t, _ in vstar.terms] == [BS.inv(S_GEN)]

    def test_involution(self, bs_samples):
        rng, elems, exprs = bs_samples
        for _ in range(10):
            x = random_cp(BS, rng, elems, exprs)
            assert cp_adjoint(cp_adjoint(x)) == x

    def test_associativity_extensional(self, bs_samples):
        rng, elems, exprs = bs_samples
        window = ball(BS, 2)
        for _ in range(6):
            x = random_cp(BS, rng, elems, exprs)
            y = random_cp(BS, rng, elems, exprs)
            z = random_cp(BS, rng, elems, exprs)
            delta = cp_sub(cp_mul(cp_mul(x, y), z), cp_mul(x, cp_mul(y, z)))
            assert cp_vanishes_on(delta, window) is None

    def test_distributivity_extensional(self, bs_samples):
        rng, elems, exprs = bs_samples
        window = ball(BS, 2)
        for _ in range(6):
            x = random_cp(BS, rng, elems, exprs)
            y = random_cp(BS, rng, elems, exprs)
            z = random_cp(BS, rng, elems, exprs)
            delta = cp_sub(
                cp_mul(x, cp_add(y, z)), cp_add(cp_mul(x, y), cp_mul(x, z))
            )
            assert cp_vanishes_on(delta, window) is None

    def test_anti_multiplicative_adjoint(self, bs_samples):
        rng, elems, exprs = bs_samples
        window = ball(BS, 2)
        for _ in range(6):
            x = random_cp(BS, rng, elems, exprs)
            y = random_cp(BS, rng, elems, exprs)
            delta = cp_sub(
                cp_adjoint(cp_mul(x, y)), cp_mul(cp_adjoint(y), cp_adjoint(x))
            )
            assert cp_vanishes_on(delta, window) is None


    def test_first_offender_matches_fraction_sums(self, bs_samples):
        # the integer sums over the lcm of the denominators report the same
        # first offender and value as summing each coefficient's Fractions
        rng, elems, exprs = bs_samples
        window = ball(BS, 2)
        for _ in range(20):
            x = cp_zero(BS)
            for _ in range(rng.randint(1, 4)):
                q = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
                x = cp_add(x, single(BS, q, rng.choice(exprs), rng.choice(elems)))
            expected = next(
                ((t, g, val) for t, coeff in x.terms for g in window.elements
                 if (val := coeff_value(coeff, window)(g)) != 0), None)
            got = cp_vanishes_on(x, window)
            assert got == expected
            assert got is None or type(got[2]) is Fraction


class TestPIWitness:
    def witness(self):
        return free_semigroup_witness(BS, S_GEN, T_GEN, 6)

    def test_structure_of_free_semigroup_witness(self):
        pw = pi_witness(self.witness(), BS)
        assert pw.v.terms == ((S_GEN, ((1, Translate(S_GEN, SEMI)),)),)
        assert [t for t, _ in pw.w.terms] == [T_GEN]

    def test_five_identities_pass(self):
        pw = pi_witness(self.witness(), BS)
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        assert verify_pi_witness(pw, window).passed

    def test_matching_derived_witness_passes(self):
        window = semigroup_window(BS, S_GEN, T_GEN, 3)
        cert = doubling_matching(SEMI, [S_GEN, T_GEN], window)
        pw = pi_witness(witness_from_matching(cert), BS)
        assert verify_pi_witness(pw, window).passed

    def test_tampered_translator_detected(self):
        pw = pi_witness(self.witness(), BS)
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        bad = PIWitness(BS, pw.set_expr, cp_mul(unitary(BS, T_GEN), pw.v), pw.w)
        report = verify_pi_witness(bad, window)
        assert not report.passed
        name, msg = report.failures()[0]
        assert "at (" in msg  # counterexample point is named

    def test_empty_set_vacuously_paradoxical(self):
        pw = PIWitness(BS, EmptySet(), cp_zero(BS), cp_zero(BS))
        window = ball(BS, 2)
        assert verify_pi_witness(pw, window).passed


class TestCornerCompress:
    def test_greedy_corner_is_almost_diagonal(self):
        x = cp_add(indicator(Z1, AllSet()), unitary(Z1, IntVec((1,))))
        window = ball(Z1, 60)
        report = corner_compress(GreedySet(50), x, window)
        assert report.off_diagonal == ((IntVec((1,)), 1),)

    def test_diagonal_input_stays_diagonal(self):
        f = single(Z1, Fraction(3), FiniteSet((IntVec((2,)),)), Z1.identity())
        window = ball(Z1, 30)
        report = corner_compress(GreedySet(20), f, window)
        assert report.off_diagonal == ()
        assert [t for t, _ in report.compressed.terms] == [Z1.identity()]

    def test_three_point_support(self):
        x = cp_zero(Z1)
        for k in (0, 1, -2):
            x = cp_add(x, unitary(Z1, IntVec((k,))))
        window = ball(Z1, 60)
        report = corner_compress(GreedySet(50), x, window)
        assert report.off_diagonal
        for t, size in report.off_diagonal:
            assert size <= 2
