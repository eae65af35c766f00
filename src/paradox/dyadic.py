"""Text of exact dyadic rationals: the value num / 2**exp as the pair
(num, exp) in lowest terms (num odd, or exp == 0), never a float."""

from __future__ import annotations


def parse_dyadic(text: str) -> tuple[int, int]:
    """Parse 'p', 'p/q' (q a power of two) or 'p/2^k' into (num, exp) in
    lowest terms."""
    text = text.strip()
    if "/" not in text:
        return int(text), 0
    num_s, den_s = text.split("/", 1)
    den_s = den_s.strip()
    if den_s.startswith("2^"):
        exp = int(den_s[2:])
        if exp < 0:
            raise ValueError(f"negative exponent in dyadic denominator: {text!r}")
    else:
        den = int(den_s)
        if den <= 0 or (den & (den - 1)) != 0:
            raise ValueError(f"denominator must be a power of two: {text!r}")
        exp = den.bit_length() - 1
    return _lowest_terms(int(num_s), exp)


def _lowest_terms(num: int, exp: int) -> tuple[int, int]:
    """num / 2**exp as (num, exp) in lowest terms; exp may be negative."""
    if exp <= 0:
        return num << -exp, 0
    if num & 1:
        return num, exp
    if not num:
        return 0, 0
    # strip the factors of two that num and 2**exp share
    k = min(exp, (num & -num).bit_length() - 1)
    return num >> k, exp - k


def show_dyadic(num: int, exp: int) -> str:
    """'p' or 'p/q' for the pair (num, exp) in lowest terms."""
    return f"{num}/{1 << exp}" if exp else str(num)
