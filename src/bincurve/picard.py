"""Balanced multidegrees and the stratified compactified Picard scheme.

All interval arithmetic is done with exact Fractions: the half-integer
bounds are where naive floor/ceil code goes wrong for negative degrees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import cohomology
from .bundles import LineBundle, enumerate_bundles
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


def is_strictly_balanced(md, g: int) -> bool:
    b = bounds(md[0] + md[1], g)
    return all(b.lo < di < b.hi for di in md)


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
    strict: bool    # strictly balanced on Y_S


@dataclass(frozen=True)
class Ell0:
    """The single identified boundary point of a degeneration-type Picard scheme."""
    d: int
    g: int

    def __post_init__(self):
        if not bounds(self.d, self.g).is_integral:
            raise ValueError("this point only exists in the degeneration case")


def enumerate_strata(X: BinaryCurve, d: int):
    """All strata of the compactified degree-d Picard scheme of X.

    Neron type: every balanced multidegree on every Y_S, e = 0..g.
    Degeneration type: strictly balanced only (e = g contributes nothing),
    with the identified point appended last. Order: e ascending, node subsets
    lexicographic, d1 ascending.
    """
    g = X.genus
    if g < 2:
        raise ValueError("stratum enumeration needs g >= 2")
    dtype = picard_type(d, g) == "degeneration"
    pick = strict_set if dtype else balanced_set
    out = []
    for e in range(g + 1):
        for S in combinations(range(g + 1), e):
            for md in pick(d - e, g - e):
                out.append(Stratum(S, md, g - e,
                                   is_strictly_balanced(md, g - e)))
    if dtype:
        out.append(Ell0(d, g))
    return out


def closure_leq(a: Stratum, b: Stratum) -> bool:
    """True iff stratum b lies in the closure of stratum a."""
    return (a.md[0] >= b.md[0] and a.md[1] >= b.md[1]
            and set(a.S) <= set(b.S))


@dataclass(frozen=True)
class PicardPoint:
    """Boundary point [M, S]: a strictly balanced bundle on the normalization Y_S."""
    S: tuple
    M: LineBundle

    def __post_init__(self):
        if not is_strictly_balanced(self.M.md, self.M.curve.genus):
            raise ValueError("representative must be strictly balanced")


def h0_bar(pt) -> int:
    """h0 at a boundary point of the compactified Picard scheme.

    [M, S] points delegate to the normalization; the identified point of the
    degeneration case has h0 = 2·max(0, m+1) where m is the lower balanced
    bound (two rational components, all gluing conditions broken).
    """
    if isinstance(pt, Ell0):
        m = bounds(pt.d, pt.g).lo
        if m.denominator != 1:
            raise RuntimeError("degeneration point with non-integral bound")
        return 2 * max(0, int(m) + 1)
    return cohomology.h0(pt.M)


def stratum_points(X: BinaryCurve, st: Stratum):
    """All [M, S] points of one stratum over a finite field ((p-1)^{g-e} classes)."""
    Y, _ = normalize_at(X, st.S)
    for M in enumerate_bundles(Y, st.md):
        yield PicardPoint(st.S, M)


def strata_to_json(items) -> list:
    out = []
    for it in items:
        if isinstance(it, Ell0):
            out.append({"ell0": True})
        else:
            out.append({"S": list(it.S), "md": list(it.md),
                        "dim": it.dim, "strict": it.strict})
    return out
