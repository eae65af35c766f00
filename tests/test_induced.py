import random

import pytest

from paradox.groups import IntVec, group_from_string
from paradox.induced import (
    SubgroupError,
    TokenWitness,
    check_induced_witness,
    coset_normalize,
    induce_witness,
    subgroup_from_string,
)

F2 = group_from_string("free:2")
Z2 = group_from_string("zn:2")
BS = group_from_string("bs12")

CYCLIC_A = subgroup_from_string(F2, "cyclic:a")
FIRST_COORD = subgroup_from_string(Z2, "coords:0")
AKERNEL = subgroup_from_string(BS, "akernel")


class TestCosetNormalize:
    def test_strip_trailing_power(self):
        rep, r = coset_normalize(CYCLIC_A, F2.parse("b a a"))
        assert F2.show(rep) == "b"
        assert F2.show(r) == "a a"

    def test_subgroup_elements_normalise_to_identity(self):
        rep, r = coset_normalize(CYCLIC_A, F2.parse("a a a"))
        assert rep == F2.identity()
        assert F2.show(r) == "a a a"

    def test_lattice_coordinate_split(self):
        rep, r = coset_normalize(FIRST_COORD, IntVec((3, 5)))
        assert rep == IntVec((0, 5))
        assert r == IntVec((3, 0))

    def test_affine_kernel_split(self):
        rep, r = coset_normalize(AKERNEL, BS.parse("(4,3)"))
        assert BS.show(rep) == "(4,0)"
        assert rep.num == 0 and AKERNEL.contains(r)
        assert BS.mul(rep, r) == BS.parse("(4,3)")

    def test_idempotent_on_representatives(self):
        for text in ("b", "b a b^-1", "a b a"):
            rep, _ = coset_normalize(CYCLIC_A, F2.parse(text))
            rep2, r2 = coset_normalize(CYCLIC_A, rep)
            assert rep2 == rep and r2 == F2.identity()

    def test_conjugated_generator(self):
        sub = subgroup_from_string(F2, "cyclic:b a b^-1")
        assert sub.contains(F2.parse("b a a a b^-1"))
        assert not sub.contains(F2.parse("a b"))
        rep, r = coset_normalize(sub, F2.parse("b a a a b^-1"))
        assert rep == F2.identity()

    def test_unsupported_subgroup(self):
        with pytest.raises(SubgroupError):
            subgroup_from_string(F2, "coords:0")
        with pytest.raises(SubgroupError):
            subgroup_from_string(Z2, "akernel")


class TestInduceWitness:
    def witness(self):
        return TokenWitness(
            "E", ("E1", "E2"), (F2.parse("a"), F2.parse("a a")), 1
        )

    def test_identity_anchor_is_identity_transport(self):
        out = induce_witness(CYCLIC_A, self.witness(), F2.identity())
        assert out.translators == self.witness().movers

    def test_conjugation_identity_replayed(self):
        tw = self.witness()
        out = induce_witness(CYCLIC_A, tw, F2.parse("b"))
        assert [F2.show(s) for s in out.translators] == ["b a b^-1", "b a a b^-1"]
        for s_j, t_j in zip(out.translators, tw.movers):
            assert F2.mul(s_j, out.anchor) == F2.mul(out.anchor, t_j)
        assert check_induced_witness(CYCLIC_A, tw, out).passed

    def test_movers_must_lie_in_subgroup(self):
        bad = TokenWitness("E", ("E1",), (F2.parse("b"),), 1)
        with pytest.raises(ValueError):
            induce_witness(CYCLIC_A, bad, F2.parse("b"))

    def test_distinct_fibres_are_disjoint(self):
        tw = self.witness()
        out1 = induce_witness(CYCLIC_A, tw, F2.parse("b"))
        out2 = induce_witness(CYCLIC_A, tw, F2.parse("b b"))
        assert out1.anchor_rep != out2.anchor_rep
        fibres1 = {fib for fib, _ in out1.pieces}
        fibres2 = {fib for fib, _ in out2.pieces}
        assert not fibres1 & fibres2

    def test_randomised_transport(self):
        rng = random.Random(71)
        subs = [
            (CYCLIC_A, lambda k: F2.parse(" ".join(["a"] * k)) if k else F2.identity()),
            (FIRST_COORD, lambda k: IntVec((k, 0))),
        ]
        for trial in range(20):
            sub, mover = subs[trial % 2]
            group = sub.group
            count = rng.randint(1, 4)
            movers = tuple(mover(rng.randint(0, 3)) for _ in range(count))
            tw = TokenWitness(
                "E", tuple(f"E{i}" for i in range(count)), movers, rng.randint(0, count)
            )
            anchor = rng.choice(group.ball_elements(3))
            out = induce_witness(sub, tw, anchor)
            for s_j, t_j in zip(out.translators, tw.movers):
                assert group.mul(s_j, anchor) == group.mul(anchor, t_j)
            assert check_induced_witness(sub, tw, out).passed


class TestContainsByDefinition:
    """`contains`, read off the transversal, against each subgroup's
    definition on a radius-4 ball."""

    @pytest.mark.parametrize("text", ["a", "b a b^-1"])
    def test_cyclic_members_are_the_powers(self, text):
        sub = subgroup_from_string(F2, f"cyclic:{text}")
        w = F2.parse(text)
        powers = {F2.identity()}
        for base in (w, F2.inv(w)):
            power = F2.identity()
            # a power w^k has length at least |k|
            for _ in range(4):
                power = F2.mul(power, base)
                powers.add(power)
        ball4 = F2.ball_elements(4)
        assert {g for g in ball4 if sub.contains(g)} == powers & set(ball4)

    def test_coordinate_members(self):
        for g in Z2.ball_elements(4):
            assert FIRST_COORD.contains(g) == (g[1] == 0)

    def test_affine_kernel_members(self):
        for g in BS.ball_elements(4):
            assert AKERNEL.contains(g) == (g.a_exp == 0)
