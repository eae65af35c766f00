"""Exact dyadic rationals: integers scaled by a power of two, never floats."""

from __future__ import annotations

from operator import itemgetter


class Dyadic(tuple):
    """Value num / 2**exp, kept in lowest terms (num odd unless zero, exp >= 0);
    the tuple holds (num, exp)."""

    __slots__ = ()

    def __new__(cls, num: int, exp: int = 0):
        if num == 0:
            exp = 0
        elif exp < 0:
            num, exp = num << -exp, 0
        else:
            # strip the factors of two that num and 2**exp share
            k = min(exp, (num & -num).bit_length() - 1)
            num, exp = num >> k, exp - k
        return tuple.__new__(cls, (num, exp))

    num = property(itemgetter(0))
    exp = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"Dyadic(num={self[0]!r}, exp={self[1]!r})"

    def __add__(self, other: "Dyadic") -> "Dyadic":
        (a, ea), (b, eb) = self, other
        e = max(ea, eb)
        return Dyadic((a << (e - ea)) + (b << (e - eb)), e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self[0], self[1])

    def shift(self, k: int) -> "Dyadic":
        """Multiply by 2**k (k may be negative)."""
        return Dyadic(self[0], self[1] - k)

    def as_fraction(self):
        from fractions import Fraction

        return Fraction(self[0], 1 << self[1])

    def __str__(self) -> str:
        if self[1] == 0:
            return str(self[0])
        return f"{self[0]}/{1 << self[1]}"


def parse_dyadic(text: str) -> Dyadic:
    """Parse 'p', 'p/q' (q a power of two) or 'p/2^k'."""
    text = text.strip()
    if "/" not in text:
        return Dyadic(int(text))
    num_s, den_s = text.split("/", 1)
    den_s = den_s.strip()
    if den_s.startswith("2^"):
        exp = int(den_s[2:])
        if exp < 0:
            raise ValueError(f"negative exponent in dyadic denominator: {text!r}")
        return Dyadic(int(num_s), exp)
    den = int(den_s)
    if den <= 0 or (den & (den - 1)) != 0:
        raise ValueError(f"denominator must be a power of two: {text!r}")
    return Dyadic(int(num_s), den.bit_length() - 1)
