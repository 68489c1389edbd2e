"""Balanced multidegrees and the stratified compactified Picard scheme.

A multidegree (d1, d2) of degree d on a binary curve of genus g is
balanced when it meets the basic inequality on the component C1, which has
k = g+1 nodes and deg ω|C1 = g-1: |d1 - d(g-1)/(2g-2)| <= k/2, that is
d1 in [(d-g-1)/2, (d+g+1)/2]. Doubled, this is one integer test,
|d1 - d2| <= g+1; strict balance is |d1 - d2| < g+1. The interval's ends
are integers (the "degeneration" type) iff d-g-1 is even, and otherwise
half-integers (the "neron" type), where balanced equals strict.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

from .curve import BinaryCurve, normalize_at


def is_balanced(md, g: int) -> bool:
    return abs(md[0] - md[1]) <= g + 1


def balanced_set(d: int, g: int):
    """B_d(g), ascending in d1. Size g+2 in the degeneration type, else g+1."""
    return [(d1, d - d1) for d1 in range((d - g) // 2, (d + g + 1) // 2 + 1)]


def strict_set(d: int, g: int):
    """B*_d(g): strictly balanced multidegrees, ascending in d1."""
    return [(d1, d - d1) for d1 in range((d - g + 1) // 2, (d + g) // 2 + 1)]


def picard_type(d: int, g: int) -> str:
    """"degeneration" when the interval ends are integers, else "neron"."""
    return "degeneration" if (d - g - 1) % 2 == 0 else "neron"


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
        if picard_type(self.d, self.g) != "degeneration":
            raise ValueError("this point only exists in the degeneration case")


def enumerate_strata(X: BinaryCurve, d: int):
    """All strata of the compactified degree-d Picard scheme of X: each
    strictly balanced multidegree on each Y_S, e = 0..g, with the
    identified point appended last in the degeneration type. Order: e
    ascending, node subsets lexicographic, d1 ascending.

    Strict multidegrees give every stratum: the type survives normalization,
    so in the Neron type balanced equals strict on every Y_S, and in the
    degeneration type e = g contributes nothing.
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
    """h0 at the identified point of the degeneration case, 2·max(0, m+1)
    with m = (d-g-1)/2: two rational components, all gluing broken."""
    return 2 * max(0, (pt.d - pt.g - 1) // 2 + 1)


def strata_to_json(items) -> list:
    out = []
    for it in items:
        if isinstance(it, Ell0):
            out.append({"ell0": True})
        else:
            out.append({"S": list(it.S), "md": list(it.md), "dim": it.dim})
    return out
