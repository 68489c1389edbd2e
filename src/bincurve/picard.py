"""Balanced multidegrees and the stratified compactified Picard scheme.

All interval arithmetic is done with exact Fractions: the half-integer
bounds are where naive floor/ceil code goes wrong for negative degrees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby

from .curve import BinaryCurve, normalize_at


@dataclass(frozen=True)
class BalancedBounds:
    lo: Fraction  # (d-g-1)/2
    hi: Fraction  # (d+g+1)/2

    @property
    def is_integral(self) -> bool:
        return self.lo.denominator == 1


def bounds(d: int, g: int) -> BalancedBounds:
    return BalancedBounds(Fraction(d - g - 1, 2), Fraction(d + g + 1, 2))


def is_balanced(md, g: int) -> bool:
    b = bounds(md[0] + md[1], g)
    return all(b.lo <= di <= b.hi for di in md)


def balanced_set(d: int, g: int):
    """B_d(g), ascending in d1. Size g+2 when bounds are integral, else g+1."""
    b = bounds(d, g)
    return [(d1, d - d1)
            for d1 in range(math.ceil(b.lo), math.floor(b.hi) + 1)]


def strict_set(d: int, g: int):
    """B*_d(g): strictly balanced multidegrees, ascending in d1."""
    b = bounds(d, g)
    return [(d1, d - d1)
            for d1 in range(math.floor(b.lo) + 1, math.ceil(b.hi))]


def picard_type(d: int, g: int) -> str:
    """"degeneration" when the balanced bounds are integers, else "neron"."""
    return "degeneration" if bounds(d, g).is_integral else "neron"


@dataclass(frozen=True)
class Stratum:
    S: tuple        # node indices removed, ascending
    md: tuple       # multidegree on Y_S
    dim: int        # g - e


@dataclass(frozen=True)
class Ell0:
    """The single identified boundary point of a degeneration-type Picard scheme."""
    d: int
    g: int

    def __post_init__(self):
        if not bounds(self.d, self.g).is_integral:
            raise ValueError("this point only exists in the degeneration case")


def enumerate_strata(X: BinaryCurve, d: int):
    """All strata of the compactified degree-d Picard scheme of X: each
    strictly balanced multidegree on each Y_S, e = 0..g, with the
    identified point appended last in the degeneration type. Order: e
    ascending, node subsets lexicographic, d1 ascending.

    Strict multidegrees give every stratum: in the Neron type the bounds on
    every Y_S are half-integers (the type survives normalization), where
    balanced equals strict; in the degeneration type e = g contributes
    nothing.
    """
    g = X.genus
    if g < 2:
        raise ValueError("stratum enumeration needs g >= 2")
    out = [Stratum(S, md, g - e)
           for e in range(g + 1)
           for S in combinations(range(g + 1), e)
           for md in strict_set(d - e, g - e)]
    if picard_type(d, g) == "degeneration":
        out.append(Ell0(d, g))
    return out


def closure_leq(a: Stratum, b: Stratum) -> bool:
    """True iff stratum b lies in the closure of stratum a."""
    return (a.md[0] >= b.md[0] and a.md[1] >= b.md[1]
            and set(a.S) <= set(b.S))


def normalized_strata(X: BinaryCurve, d: int):
    """(stratum, Y_S) for each `Stratum` of `enumerate_strata(X, d)`, in
    its order; `Ell0` is left out. The strata of one node subset S come
    consecutively, so each partial normalization Y_S is built once."""
    strata = (st for st in enumerate_strata(X, d) if isinstance(st, Stratum))
    for S, group in groupby(strata, key=lambda st: st.S):
        Y, _ = normalize_at(X, S)
        for st in group:
            yield st, Y


def h0_bar(pt: Ell0) -> int:
    """h0 at the identified point of the degeneration case: 2·max(0, m+1),
    where m is the lower balanced bound (two rational components, all
    gluing conditions broken)."""
    return 2 * max(0, int(bounds(pt.d, pt.g).lo) + 1)


def strata_to_json(items) -> list:
    out = []
    for it in items:
        if isinstance(it, Ell0):
            out.append({"ell0": True})
        else:
            out.append({"S": list(it.S), "md": list(it.md), "dim": it.dim})
    return out
