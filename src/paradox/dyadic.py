"""Exact dyadic rationals: integers scaled by a power of two, never floats."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class Dyadic:
    """Value num / 2**exp, kept in lowest terms (num odd unless zero, exp >= 0)."""

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        if num == 0:
            exp = 0
        else:
            while exp > 0 and num % 2 == 0:
                num //= 2
                exp -= 1
            if exp < 0:
                num <<= -exp
                exp = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def shift(self, k: int) -> "Dyadic":
        """Multiply by 2**k (k may be negative)."""
        return Dyadic(self.num, self.exp - k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"


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
