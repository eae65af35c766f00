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


class SubgroupSpec:
    """Subgroup with decidable membership and a canonical left-coset
    transversal: every g factors uniquely as rep * r with r in the subgroup."""

    group: Group
    label: str

    def contains(self, g: Elem) -> bool:
        raise NotImplementedError

    def coset_split(self, g: Elem) -> tuple[Elem, Elem]:
        raise NotImplementedError


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (conjugator c, core v) with word = c v c^(-1), v cyclically reduced."""
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == -word[hi - 1]:
        lo += 1
        hi -= 1
    return word[:lo], word[lo:hi]


class CyclicFreeSubgroup(SubgroupSpec):
    """The cyclic subgroup generated by a nontrivial free-group word."""

    def __init__(self, group: FreeGroup, generator: FreeWord):
        if not isinstance(group, FreeGroup):
            raise SubgroupError("cyclic subgroups are configured for free groups")
        group.check(generator)
        if not generator:
            raise SubgroupError("cyclic subgroup needs a nontrivial generator")
        self.group = group
        self.generator = generator
        conj, core = _cyclic_reduce(generator.letters)
        self.conj = FreeWord(conj)
        self.core = FreeWord(core)
        self.label = f"cyclic:{group.show(generator)}"

    def _power_exponent(self, g: FreeWord) -> int | None:
        """k with g = generator**k, else None."""
        group = self.group
        if not g:
            return 0
        h = group.mul(group.mul(group.inv(self.conj), g), self.conj)
        core_len = len(self.core)
        if len(h) % core_len != 0:
            return None
        k = len(h) // core_len
        for sign in (1, -1):
            power = group.identity()
            base = self.core if sign > 0 else group.inv(self.core)
            for _ in range(k):
                power = group.mul(power, base)
            if power == h:
                return sign * k
        return None

    def contains(self, g: Elem) -> bool:
        return self._power_exponent(self.group.check(g)) is not None

    def coset_split(self, g: Elem) -> tuple[Elem, Elem]:
        group = self.group
        g = group.check(g)
        w = self.generator
        core_len = len(self.core)
        # candidates g*w^k can only be shorter for bounded |k|
        bound = (2 * len(g) + 2 * len(self.conj)) // core_len + 2
        best = None
        w_inv = group.inv(w)
        for k in range(-bound, bound + 1):
            wk = group.identity()
            base = w if k >= 0 else w_inv
            for _ in range(abs(k)):
                wk = group.mul(wk, base)
            cand = group.mul(g, wk)
            key = group.sort_key(cand)
            if best is None or key < best[0]:
                best = (key, cand, k)
        _, rep, k = best
        r = group.mul(group.inv(rep), g)
        return rep, r


class CoordinateSubgroup(SubgroupSpec):
    """The sublattice supported on a fixed coordinate set."""

    def __init__(self, group: LatticeGroup, coords: frozenset[int]):
        if not isinstance(group, LatticeGroup):
            raise SubgroupError("coordinate subgroups are configured for lattices")
        if not all(0 <= c < group.dim for c in coords):
            raise SubgroupError(f"coordinates out of range for {group.key}")
        self.group = group
        self.coords = coords
        self.label = "coords:" + ",".join(str(c) for c in sorted(coords))

    def contains(self, g: Elem) -> bool:
        g = self.group.check(g)
        return all(v == 0 for i, v in enumerate(g.coords) if i not in self.coords)

    def coset_split(self, g: Elem) -> tuple[Elem, Elem]:
        g = self.group.check(g)
        rep = IntVec(
            tuple(0 if i in self.coords else v for i, v in enumerate(g.coords))
        )
        r = IntVec(
            tuple(v if i in self.coords else 0 for i, v in enumerate(g.coords))
        )
        return rep, r


class TranslationKernel(SubgroupSpec):
    """Pure translations (scale one) inside the dyadic affine group."""

    def __init__(self, group: DyadicAffineGroup):
        if not isinstance(group, DyadicAffineGroup):
            raise SubgroupError("the translation kernel lives in the affine group")
        self.group = group
        self.label = "akernel"

    def contains(self, g: Elem) -> bool:
        return self.group.check(g).a_exp == 0

    def coset_split(self, g: Elem) -> tuple[Elem, Elem]:
        g = self.group.check(g)
        rep = AffineElem(g.a_exp)
        r = self.group.mul(self.group.inv(rep), g)
        return rep, r


def subgroup_from_string(group: Group, spec: str) -> SubgroupSpec:
    spec = spec.strip()
    if spec.startswith("cyclic:"):
        if not isinstance(group, FreeGroup):
            raise SubgroupError("cyclic: subgroups are supported in free groups")
        return CyclicFreeSubgroup(group, group.parse(spec[len("cyclic:") :]))
    if spec.startswith("coords:"):
        if not isinstance(group, LatticeGroup):
            raise SubgroupError("coords: subgroups are supported in lattices")
        coords = frozenset(int(c) for c in spec[len("coords:") :].split(","))
        return CoordinateSubgroup(group, coords)
    if spec == "akernel":
        if not isinstance(group, DyadicAffineGroup):
            raise SubgroupError("akernel is the affine translation subgroup")
        return TranslationKernel(group)
    raise SubgroupError(f"unsupported subgroup spec {spec!r}")


def coset_normalize(sub: SubgroupSpec, g: Elem) -> tuple[Elem, Elem]:
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


def induce_witness(sub: SubgroupSpec, tw: TokenWitness, anchor: Elem) -> InducedWitness:
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
    sub: SubgroupSpec, tw: TokenWitness, out: InducedWitness
) -> ValidationReport:
    """Replay the bookkeeping: the conjugation identities hold exactly, the
    translators act inside the anchor's coset fibre, and the fibre data lines
    up with the asserted token facts."""
    group = sub.group
    checks = []
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
        rep2, r = coset_normalize(sub, group.mul(s_j, out.anchor))
        ok = rep2 == out.anchor_rep
        checks.append(
            (
                f"fibre-preserved-{j}",
                ok,
                "" if ok else f"fibre moved to {group.show(rep2)}",
            )
        )
        _, r_anchor = coset_normalize(sub, out.anchor)
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
