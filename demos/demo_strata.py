"""Walk the stratification of the degree-d compactified Picard space for a
genus-2 curve: which multidegree/blowup pairs occur, the two combinatorial
types by parity, and what survives into the boundary locus W-bar.
"""

from bincurve import PrimeField, standard_curve
from bincurve.picard import (
    Ell0, closure_leq, enumerate_strata, h0_bar, picard_type, strata_to_json,
)
from bincurve.brill_noether import assemble_Wbar


def show(X, d):
    g = X.genus
    strata = enumerate_strata(X, d)
    print(f"g={g}, d={d}: type {picard_type(d, g)}, {len(strata)} strata")
    for s in strata:
        if isinstance(s, Ell0):
            print("  ell0 (the extra limit class of the degeneration type); "
                  f"h0_bar = {h0_bar(s)}")
        else:
            print(f"  md={s.md} blowups={s.S}")
    return strata


def main():
    ctx = PrimeField(7)
    X = standard_curve(2, ctx)

    s22 = show(X, 2)
    print()
    show(X, 1)
    print()

    # closure order: smaller strata sit in the closure of bigger ones
    interior = next(s for s in s22 if not s.S)
    deeper = [s for s in s22 if s.S and closure_leq(interior, s)]
    print(f"closure of the interior stratum md={interior.md} contains "
          f"{len(deeper)} deeper strata:")
    for s in deeper:
        print(f"  md={s.md} blowups={s.S}")
    print()

    # boundary locus: d <= r + g - 1 keeps ell0 out (h0_bar <= r)
    total = sum(assemble_Wbar(X, 1, 0).values())
    print(f"W-bar(d=1, r=0): {total} points across strata; "
          f"h0_bar(ell0) = {h0_bar(Ell0(1, 2))}, W-bar needs h0 >= r+1 = 1")
    print()
    print("machine form of one stratum:", strata_to_json(s22[:1]))


if __name__ == "__main__":
    main()
