"""Reference values for the benchmark's correctness checks.

Run once per (workload, size, seed) by `run.py` as a separate command,
never inside a timed run; the result is kept under perfbench/.work/oracle/.

    python3 perfbench/oracle.py --workload torus-scan --seed 1 --out ref.json

Nothing here calls the code the checks are about:

* torus-scan counts and witness lists come from generic `cohomology.h0`
  over `enumerate_bundles` (full-RREF path, no bounded rank and no
  `_scan_wr` row assembly), or from closed forms where the regime has one:
  every class is a hit when the gluing matrix has at least r+1 more columns
  than rows, and no class is when the pigeonhole bound applies; both closed
  forms are spot-checked with generic `h0`.
* class-sweep descent-fiber counts and every sections value use this
  module's own exact elimination over gluing matrices built here from the
  node coordinates (`h0_of`), sharing no code with `bincurve.linalg` or
  `bincurve.cohomology`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


# ---------------------------------------------------------------------------
# exact elimination, independent of bincurve.linalg

def _ops(p):
    if p is None:
        return (lambda a, b: a - b, lambda a, b: a * b,
                lambda a: 1 / Fraction(a))
    return (lambda a, b: (a - b) % p, lambda a, b: a * b % p,
            lambda a: pow(a, p - 2, p))


def rref(rows, ncols, p):
    """Reduced row echelon form over F_p (p prime) or Q (p None)."""
    sub, mul, inv = _ops(p)
    rows = [list(r) for r in rows]
    pivots = []
    top = 0
    for col in range(ncols):
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        s = inv(rows[top][col])
        rows[top] = [mul(s, x) for x in rows[top]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != top and f:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
    return rows, pivots


def kernel(rows, ncols, p):
    """Right kernel, one vector per free column (ascending) with a 1 there."""
    red, pivots = rref(rows, ncols, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free] if p is None else (-red[i][free]) % p
        basis.append(v)
    return basis


def _prime(ctx):
    return ctx.p if ctx.is_prime_field() else None


def _coords(pt):
    return pt.a, pt.b


def _monomials(pt, d, p):
    # values of a^(d-i) b^i, i = 0..d, at the normal-form representative
    a, b = _coords(pt)
    vals = [a ** (d - i) * b ** i for i in range(d + 1)] if d >= 0 else []
    return [v % p for v in vals] if p is not None else vals


def _derivatives(pt, d, order, p):
    # order-th derivative of the monomials in pt's affine chart
    a, b = _coords(pt)
    if d < 0:
        return []
    if b == 0:   # chart u = b/a at infinity: monomial i is u^i
        row = [0] * (d + 1)
        if order <= d:
            row[order] = math.factorial(order)
        return [x % p for x in row] if p is not None else row
    row = []
    for i in range(d + 1):
        e = d - i
        v = math.perm(e, order) * a ** (e - order) if e >= order else 0
        row.append(v % p if p is not None else Fraction(v))
    return row


def gluing_rows(X, md, c):
    """Row j: f(p_j) - c_j h(q_j) = 0 on the monomial coefficients of (f, h)."""
    p = _prime(X.ctx)
    rows = []
    for (pj, qj), cj in zip(X.nodes, c):
        e2 = _monomials(qj, md[1], p)
        neg = [-cj * v for v in e2]
        rows.append(_monomials(pj, md[0], p)
                    + ([v % p for v in neg] if p is not None else neg))
    return rows


def vanishing_rows(X, md, entries):
    p = _prime(X.ctx)
    k1, k2 = max(md[0] + 1, 0), max(md[1] + 1, 0)
    rows = []
    for comp, pt, mult in entries:
        for order in range(mult):
            block = _derivatives(pt, md[comp - 1], order, p)
            rows.append(block + [0] * k2 if comp == 1 else [0] * k1 + block)
    return rows


def h0_of(L, entries=()):
    """h0 of L twisted down by the divisor entries (comp, point, mult)."""
    ncols = max(L.md[0] + 1, 0) + max(L.md[1] + 1, 0)
    if ncols == 0:
        return 0
    rows = gluing_rows(L.curve, L.md, L.c) + vanishing_rows(L.curve, L.md,
                                                           entries)
    return ncols - len(rref(rows, ncols, _prime(L.ctx))[1])


def fmt(x, p):
    if p is not None:
        return str(x % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def n_strata(g, d):
    """Strata count of the degree-d compactified Picard scheme of genus g:
    all balanced multidegrees on every partial normalization (Neron type),
    or the strictly balanced ones plus the identified point when the
    balanced bounds (d-g-1)/2, (d+g+1)/2 are integers."""
    integral = (d - g - 1) % 2 == 0
    total = 1 if integral else 0
    for e in range(g + 1):
        lo, hi = Fraction(d - e - (g - e) - 1, 2), Fraction(d - e + g - e + 1, 2)
        n = (math.ceil(hi) - math.floor(lo) - 1 if integral
             else math.floor(hi) - math.ceil(lo) + 1)
        total += math.comb(g + 1, e) * max(n, 0)
    return total


# ---------------------------------------------------------------------------
# per-workload references

def _torus_regime(g, md, r):
    """'all-hit' or 'empty' when the count is known in closed form."""
    k1, k2 = max(md[0] + 1, 0), max(md[1] + 1, 0)
    if k1 + k2 - (g + 1) >= r + 1:
        return "all-hit"
    d1, d2 = sorted(md)
    d = d1 + d2
    if (d1 < 0 and d <= g + r) or (0 <= d1 <= r - 1 and d <= g + r - 1):
        return "empty"
    return None


def _gluing_at(index, g, p):
    # enumeration order: base-(p-1) digits, first coordinate slowest, last 1
    digits = []
    for _ in range(g):
        index, d = divmod(index, p - 1)
        digits.append(d + 1)
    return digits[::-1] + [1]


def _torus_reference(X, md, r, cap, rng):
    from bincurve import bundles, cohomology
    g, p = X.genus, X.ctx.p
    total = (p - 1) ** g
    regime = _torus_regime(g, md, r)
    if regime == "all-hit":
        wits = [_gluing_at(i, g, p) for i in range(min(cap, total))]
        for c in wits:
            L = bundles.LineBundle(X, md, c)
            if cohomology.h0(L) < r + 1:
                raise AssertionError("closed-form all-hit regime violated")
        return {"count": total, "witnesses": wits, "regime": regime}
    if regime == "empty":
        for _ in range(256):
            L = bundles.LineBundle(X, md, _gluing_at(rng.below(total), g, p))
            if cohomology.h0(L) > r:
                raise AssertionError("closed-form empty regime violated")
        return {"count": 0, "witnesses": [], "regime": regime}
    count = 0
    wits = []
    for L in bundles.enumerate_bundles(X, md):
        if cohomology.h0(L) >= r + 1:
            count += 1
            if len(wits) < cap:
                wits.append(list(L.c))
    return {"count": count, "witnesses": wits, "regime": "scan"}


def reference_torus(seed, size):
    import workloads
    from bincurve import brill_noether
    from bincurve.rng import Rng
    rng = Rng(seed ^ 0x0AC1E)
    queries = {}
    for label, X, md, r in workloads.torus_queries(seed, size):
        queries[label] = _torus_reference(X, md, r, workloads.WITNESS_CAP, rng)
    g, md, r, primes = workloads.ESTIMATE
    Xq = workloads.estimate_curve(seed)
    counts = [_torus_reference(brill_noether.reduce_curve_mod(Xq, p), md, r,
                               0, rng)["count"] for p in primes]
    return {"queries": queries, "estimate": {"counts": counts}}


def reference_sweep(seed, size):
    import workloads
    from bincurve import bundles
    out = {}
    for label, g, p, Y, mds in workloads.lemma_e_grid(seed, size):
        n = g + 3  # lo, hi range over -1 .. g+1, both orders of each pair
        checked = n * (n + 1) * (p - 1) ** g
        for md in mds:
            checked += sum(1 for M in bundles.enumerate_bundles(Y, md)
                           if h0_of(M) > 0)
        out[label] = checked
    return {"lemma_e": out}


def _from_divisor_gluing(X, D, p):
    # c_j = A(p_j) / B(q_j), A and B products of the linear forms of D
    def lin(root, pt):
        return pt.b if root.b == 0 else pt.a - root.a * pt.b
    c = []
    for pj, qj in X.nodes:
        num, den = 1, 1
        for comp, pt, mult in D.entries:
            if comp == 1:
                num *= lin(pt, pj) ** mult
            else:
                den *= lin(pt, qj) ** mult
        c.append(num * pow(den, p - 2, p) % p if p is not None
                 else Fraction(num) / den)
    last_inv = pow(c[-1], p - 2, p) if p is not None else 1 / c[-1]
    return [x * last_inv % p if p is not None else x * last_inv for x in c]


class _Bundle:
    """Plain (curve, md, c) triple for h0_of."""

    def __init__(self, X, md, c):
        self.curve, self.md, self.c, self.ctx = X, tuple(md), list(c), X.ctx


def reference_sections(seed, size):
    import workloads
    from bincurve import bundles, curve
    out = {}
    for label, X, D, D2, node in workloads.section_inputs(seed, size):
        p = _prime(X.ctx)
        g = X.genus
        w = bundles.canonical_bundle(X)
        if h0_of(w) != g:
            raise AssertionError("canonical bundle has h0 != g")
        md = D.multidegree
        c = _from_divisor_gluing(X, D, p)
        L = _Bundle(X, md, c)
        ncols = md[0] + 1 + md[1] + 1
        basis = kernel(gluing_rows(X, md, c), ncols, p)
        inv = (lambda x: pow(x, p - 2, p)) if p is not None else \
            (lambda x: 1 / x)
        wl = _Bundle(X, (w.md[0] - md[0], w.md[1] - md[1]),
                     [a * inv(b) for a, b in zip(w.c, c)])
        # descent along `node` exists iff its branch pair is neutral for M
        Y, ((pn, qn),) = curve.normalize_at(X, [node])
        M = _Bundle(Y, md, [cj for j, cj in enumerate(c) if j != node])
        hp, hq = h0_of(M, [(1, pn, 1)]), h0_of(M, [(2, qn, 1)])
        hpq = h0_of(M, [(1, pn, 1), (2, qn, 1)])
        out[label] = {
            "w_c": [fmt(x, p) for x in w.c],
            "md": list(md),
            "c": [fmt(x, p) for x in c],
            "basis": [[fmt(x, p) for x in v] for v in basis],
            "h0": len(basis),
            "h0_vanishing": h0_of(L, D2.entries),
            "h0_serre": h0_of(wl),
            "descend_exists": hp == hq == hpq,
            "n_strata": n_strata(g, g - 1),
        }
    return {"bundles": out}


REFERENCES = {"torus-scan": reference_torus, "class-sweep": reference_sweep,
              "sections": reference_sections}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REFERENCES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    ref = REFERENCES[args.workload](args.seed, args.size)
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(ref, fh, sort_keys=True)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
