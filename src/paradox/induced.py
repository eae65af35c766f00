"""Induction of actions along a subgroup: coset bookkeeping and the
constructive transport of token-level doubling witnesses to the ambient
group."""

from __future__ import annotations

from .groups import (
    AffineElem,
    DyadicAffineGroup,
    Elem,
    FreeGroup,
    FreeWord,
    Group,
    GroupError,
    IntVec,
    LatticeGroup,
    Record,
)
from .pwt import ValidationReport


class SubgroupError(GroupError):
    """The requested subgroup is not supported for this ambient group."""


class Subgroup(Record, fields="group label split"):
    """A subgroup given by its canonical left-coset transversal: `split`
    takes a checked g to (rep, r) with g = rep * r, r in the subgroup and rep
    the same for the whole coset g H.  The coset H itself has the identity
    for its rep, so the transversal also decides membership."""

    __slots__ = ()

    def coset_split(self, g: Elem) -> tuple[Elem, Elem]:
        return self.split(self.group.check(g))

    def contains(self, g: Elem) -> bool:
        return self.coset_split(g)[0] == self.group.identity()


def _cyclic_split(group: FreeGroup, w: FreeWord):
    """The transversal of <w>: the sort_key-least g * w^k, with ties to the
    least k."""
    mul, sort_key = group._mul, group.sort_key
    w_inv = group._inv(w)
    # w = c v c^-1 with v cyclically reduced; g * w^k can only be shorter
    # than g for |k| up to the bound below
    conj = 0
    while len(w) - 2 * conj >= 2 and w[conj] ^ w[-1 - conj] == 1:
        conj += 1
    core_len = len(w) - 2 * conj

    def split(g):
        bound = (2 * len(g) + 2 * conj) // core_len + 2
        cand = g
        for _ in range(bound):
            cand = mul(cand, w_inv)
        cands = []
        for _ in range(2 * bound + 1):
            cands.append(cand)
            cand = mul(cand, w)
        rep = min(cands, key=sort_key)
        return rep, mul(group._inv(rep), g)

    return split


def subgroup_from_string(group: Group, spec: str) -> Subgroup:
    spec = spec.strip()
    if spec.startswith("cyclic:"):
        if not isinstance(group, FreeGroup):
            raise SubgroupError("cyclic: subgroups are supported in free groups")
        w = group.parse(spec[len("cyclic:") :])
        if not w:
            raise SubgroupError("cyclic subgroup needs a nontrivial generator")
        return Subgroup(group, f"cyclic:{group.show(w)}", _cyclic_split(group, w))
    if spec.startswith("coords:"):
        if not isinstance(group, LatticeGroup):
            raise SubgroupError("coords: subgroups are supported in lattices")
        coords = frozenset(int(c) for c in spec[len("coords:") :].split(","))
        if not all(0 <= c < group.dim for c in coords):
            raise SubgroupError(f"coordinates out of range for {group.key}")

        def split(g):
            rep = IntVec(0 if i in coords else v for i, v in enumerate(g))
            return rep, IntVec(v if i in coords else 0 for i, v in enumerate(g))

        label = "coords:" + ",".join(map(str, sorted(coords)))
        return Subgroup(group, label, split)
    if spec == "akernel":
        if not isinstance(group, DyadicAffineGroup):
            raise SubgroupError("akernel is the affine translation subgroup")

        def split(g):
            rep = AffineElem(g.a_exp)
            return rep, group._mul(group._inv(rep), g)

        return Subgroup(group, "akernel", split)
    raise SubgroupError(f"unsupported subgroup spec {spec!r}")


def coset_normalize(sub: Subgroup, g: Elem) -> tuple[Elem, Elem]:
    """Factor g = rep * r with r in the subgroup and rep canonical."""
    rep, r = sub.coset_split(g)
    if not sub.contains(r):
        raise AssertionError("transversal produced a remainder outside the subgroup")
    if sub.group.mul(rep, r) != g:
        raise AssertionError("transversal factorisation failed")
    return rep, r


class TokenWitness(Record, fields="whole pieces movers split"):
    """Doubling data for an abstract subgroup space, asserted rather than
    computed: pieces of `whole` with subgroup translators, split as usual."""

    __slots__ = ()


class InducedWitness(Record, fields="anchor anchor_rep whole pieces translators "
                     "split"):
    """Transport of a token witness to the fibre over `anchor`: ambient
    translators satisfy mover-conjugation and act fibre-preservingly."""

    __slots__ = ()


def induce_witness(sub: Subgroup, tw: TokenWitness, anchor: Elem) -> InducedWitness:
    """Solve s_j * anchor = anchor * t_j for each subgroup translator t_j and
    emit the fibre witness."""
    group = sub.group
    group.check(anchor)
    if not 0 <= tw.split <= len(tw.pieces):
        raise ValueError(f"split {tw.split} out of range")
    if len(tw.pieces) != len(tw.movers):
        raise ValueError("pieces and movers must align")
    for t in tw.movers:
        if not sub.contains(t):
            raise ValueError(f"mover {group.show(t)} is outside the subgroup")
    anchor_inv = group.inv(anchor)
    translators = tuple(
        group.mul(group.mul(anchor, t), anchor_inv) for t in tw.movers
    )
    rep, _ = coset_normalize(sub, anchor)
    return InducedWitness(
        anchor,
        rep,
        (anchor, tw.whole),
        tuple((anchor, piece) for piece in tw.pieces),
        translators,
        tw.split,
    )


def check_induced_witness(
    sub: Subgroup, tw: TokenWitness, out: InducedWitness
) -> ValidationReport:
    """Replay the bookkeeping: the conjugation identities hold exactly, the
    translators act inside the anchor's coset fibre, and the fibre data lines
    up with the asserted token facts."""
    group = sub.group
    checks = []
    _, r_anchor = coset_normalize(sub, out.anchor)
    ok = len(out.translators) == len(tw.movers)
    checks.append(("arity", ok, "" if ok else "translator count mismatch"))
    for j, (s_j, t_j) in enumerate(zip(out.translators, tw.movers)):
        lhs = group.mul(s_j, out.anchor)
        rhs = group.mul(out.anchor, t_j)
        ok = lhs == rhs
        checks.append(
            (
                f"conjugation-{j}",
                ok,
                "" if ok else f"s_{j}.anchor = {group.show(lhs)} != {group.show(rhs)}",
            )
        )
        rep2, r = coset_normalize(sub, lhs)
        ok = rep2 == out.anchor_rep
        checks.append(
            (
                f"fibre-preserved-{j}",
                ok,
                "" if ok else f"fibre moved to {group.show(rep2)}",
            )
        )
        ok = r == group.mul(r_anchor, t_j)
        checks.append(
            (
                f"token-motion-{j}",
                ok,
                "" if ok else f"subgroup part {group.show(r)} is not the mover",
            )
        )
    ok = all(fib == out.anchor for fib, _ in out.pieces)
    checks.append(("pieces-in-fibre", ok, "" if ok else "piece outside the fibre"))
    ok = out.whole[1] == tw.whole and tuple(tok for _, tok in out.pieces) == tw.pieces
    checks.append(("tokens-preserved", ok, "" if ok else "token labels changed"))
    return ValidationReport(tuple(checks))
