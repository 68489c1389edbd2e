"""Estimating the dimension of a special-divisor locus by point counts.

A locus of dimension m over F_p has on the order of C * p^m rational points,
so counting it at two primes and taking log(N2/N1)/log(p2/p1) recovers m.
We count the degree-3 pencil locus W^1_3 on two integer-coordinate genus-4
curves: one hyperelliptic (expected dimension d - 2r = 1) and one generic
(expected at most d - 2r - 1 = 0). Each is counted twice: on the open
torus of multidegree (1,2) alone, and on W̄, the whole compactified
Jacobian, summed over every stratum by `assemble_Wbar`. `verify martens`
checks the W̄ totals.
"""

from bincurve.brill_noether import (
    BNQuery, assemble_Wbar, estimate_dim, growth_estimate, martens_bound,
    reduce_curve_mod,
)
from bincurve.suites import DIM_PRIMES, dim_fixture


def report(name, md, r, primes):
    X, hyp = dim_fixture(name)
    d = md[0] + md[1]
    one = estimate_dim(X, BNQuery(md, r), primes)
    wbar = growth_estimate(
        primes,
        lambda p: sum(assemble_Wbar(reduce_curve_mod(X, p), d, r).values()))
    for p, n, total in zip(primes, one.counts, wbar.counts):
        print(f"  p = {p}: #W^{r}_{list(md)} = {n:3d}   #W̄^{r}_{d} = {total:3d}")
    for label, est in (("md " + str(list(md)), one), ("W̄", wbar)):
        print(f"  {label:8s} growth exponent {est.estimate:.4f} -> "
              f"dimension {est.rounded} (residual {est.residual:.4f}, "
              f"{est.kind})")
    pred = martens_bound(X.genus, d, r, hyperelliptic=hyp)
    print(f"  prediction for a {'hyperelliptic' if hyp else 'generic'} "
          f"curve: {pred.kind} {pred.value}")


def main():
    md, r = (1, 2), 1
    primes = list(DIM_PRIMES)
    print(f"query: degree 3, r = {r}, primes {primes}\n")

    print("hyperelliptic genus-4 curve (integer model, reduced mod p):")
    report("hyp4", md, r, primes)

    print("\nsame query on a generic genus-4 curve:")
    report("nonhyp4", md, r, primes)

    # dimension 0 means finitely many points at every prime: the genus-3
    # pencil locus is the one point H however far p runs
    X3, _ = dim_fixture("hyp3")
    counts = [sum(assemble_Wbar(reduce_curve_mod(X3, p), 2, 1).values())
              for p in (7, 11, 23)]
    print(f"\ngenus-3 W̄^1_2 counts at p = 7, 11, 23: {counts}")


if __name__ == "__main__":
    main()
