import pytest

from paradox.embedding import (
    EmbeddingData,
    EmbeddingWindowError,
    build_embedding,
    check_injective_lipschitz,
)
from paradox.engine import doubling_matching, witness_from_matching
from paradox.groups import ball, group_from_string
from paradox.pwt import PwT, pwt_map
from paradox.sets import EmptySet
from paradox.witness import (
    ParadoxWitness,
    free_semigroup_witness,
    semigroup_window,
)

BS = group_from_string("bs12")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")


@pytest.fixture(scope="module")
def embedding():
    w = free_semigroup_witness(BS, S_GEN, T_GEN, 6)
    window = semigroup_window(BS, S_GEN, T_GEN, 6)
    return build_embedding(w, window)


class TestBuild:
    def test_branch_translators_and_base_point(self, embedding):
        translators = [m.displacement for m in embedding.branch_maps()]
        assert translators == [
            (BS.parse("(8,0)"),),
            (BS.parse("(8,4)"),),
            (BS.parse("(8,2)"),),
            (BS.parse("(8,6)"),),
        ]
        assert BS.show(embedding.base_point) == "(2,1)"

    def test_empty_set_rejected(self):
        empty = ParadoxWitness(EmptySet(), (), 0)
        with pytest.raises(ValueError):
            window = ball(BS, 2)
            build_embedding(empty, window)

    def test_images_and_base_point_disjoint(self, embedding):
        # build_embedding verifies this internally; re-check a sample here
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        from paradox.sets import materialize

        pts = materialize(embedding.sigma_plus.domain, window)
        image_sets = [
            set(map(pwt_map(m, embedding.window), pts)) for m in embedding.branch_maps()
        ]
        image_sets.append({embedding.base_point})
        for i in range(len(image_sets)):
            for j in range(i + 1, len(image_sets)):
                assert not image_sets[i] & image_sets[j]

    def test_overlapping_branches_name_least_shared_point(self, monkeypatch):
        import paradox.embedding as emb

        w = free_semigroup_witness(BS, S_GEN, T_GEN, 4)
        plus, _ = emb.base_translation_maps(w, BS)
        # with minus replaced by plus, all four branches are x -> (8,0) x
        monkeypatch.setattr(emb, "base_translation_maps", lambda w, group: (plus, plus))
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        with pytest.raises(ValueError) as info:
            build_embedding(w, window)
        assert str(info.value) == "branch images 0 and 1 overlap at (8,0)"


class TestWindowExit:
    def test_window_scoped_witness_names_required_growth(self):
        from paradox.sets import SemigroupSet

        semi = SemigroupSet((S_GEN, T_GEN), True)
        window = semigroup_window(BS, S_GEN, T_GEN, 4)
        finite_witness = witness_from_matching(
            doubling_matching(semi, [S_GEN, T_GEN], window)
        )
        data = build_embedding(finite_witness, window)
        assert check_injective_lipschitz(data, 1).value_count == 5
        with pytest.raises(EmbeddingWindowError) as info:
            check_injective_lipschitz(data, 2)
        assert str(info.value) == (
            "evaluation left the validated window after 1 of 2 letters; "
            "rebuild the witness on a larger window (word (1, 1))"
        )


class TestLipschitz:
    def test_depth_six_injective_with_eight_displacements(self, embedding):
        report = check_injective_lipschitz(embedding, 6)
        assert report.injective
        assert report.value_count == 1457  # the whole rank-2 ball
        assert len(report.displacement_set) == 8
        assert not report.violations

    def test_depth_one_displacements_inside_branch_sets(self, embedding):
        report = check_injective_lipschitz(embedding, 1)
        branch = {d for m in embedding.branch_maps() for d in m.displacement}
        observed = {
            d for d in report.displacement_set
        }
        assert {d for d in observed if d.a_exp > 0} <= branch

    def test_tampered_embedding_detected(self, embedding):
        broken = EmbeddingData(
            embedding.sigma_plus,
            embedding.sigma_plus,  # minus branch duplicated
            embedding.tau_plus,
            embedding.tau_minus,
            embedding.base_point,
            embedding.window,
        )
        report = check_injective_lipschitz(broken, 2)
        assert not report.injective
        assert report.collisions
        first = report.collisions[0]
        assert all(len(w) <= 2 for w in first)


    def test_undeclared_displacement_is_a_violation(self, embedding):
        plus = embedding.sigma_plus
        undeclared = EmbeddingData(
            PwT(plus.domain, plus.pieces, ()),  # sigma_plus declares nothing
            embedding.sigma_minus,
            embedding.tau_plus,
            embedding.tau_minus,
            embedding.base_point,
            embedding.window,
        )
        report = check_injective_lipschitz(undeclared, 2)
        # every edge (a w, w) of the radius-2 ball, in ball order of w
        assert report.violations == tuple(
            ((1,) + w, w) for w in [(), (1,), (2,), (-2,)]
        )
        assert report.displacement_set == (
            check_injective_lipschitz(embedding, 2).displacement_set
        )

    def test_violations_come_in_ball_order(self, embedding):
        """Each step c w of the one walk over the ball is checked as it is
        made, so the violations of two letters interleave in ball order."""
        a, b = embedding.sigma_plus, embedding.tau_plus
        undeclared = EmbeddingData(
            PwT(a.domain, a.pieces, ()),  # a declares nothing
            embedding.sigma_minus,
            PwT(b.domain, b.pieces, ()),  # nor does b
            embedding.tau_minus,
            embedding.base_point,
            embedding.window,
        )
        report = check_injective_lipschitz(undeclared, 2)
        steps = [(1,), (2,), (1, 1), (1, 2), (1, -2), (2, 1), (2, -1), (2, 2)]
        assert report.violations == tuple((cw, cw[1:]) for cw in steps)
