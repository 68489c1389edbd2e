"""Exact dense linear algebra: rank and canonical kernel bases.

One forward-elimination routine, `_echelon`, serves F_p and Q alike on
plain values: over F_p (p prime) any int representative of each entry,
over Q (p = 0) exact rationals, ints or Fractions. Over Q no Fraction is
built while eliminating: each row is first scaled to a primitive integer
vector (`primitive_row`), and elimination is Bareiss's fraction-free
scheme, whose every division is exact. Kernel bases come from the echelon form by
back-substitution, over Q on integer numerators over one common
denominator. The torus scan keeps its own levels of residual rows, one
pivot at a time (`brill_noether._torus_runs`).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _modulus(ctx) -> int:
    # p over F_p, 0 for exact arithmetic over Q
    return ctx.p if ctx.is_prime_field() else 0


def primitive_row(row):
    """The primitive integer vector on the line of a row over Q: the row
    times the lcm of its denominators, over the gcd of the results (a zero
    row stays zero)."""
    pairs = [x.as_integer_ratio() for x in row]
    # star-args from a list, not a generator: a generator's tuple is
    # resized, so its memory piles up on the interpreter's tuple free lists
    m = lcm(*[d for _, d in pairs])
    ints = [n * (m // d) for n, d in pairs]
    c = gcd(*ints)
    return [x // c for x in ints] if c > 1 else ints


def _echelon(rows, ncols, p) -> int:
    """Forward elimination in place over F_p, or over Q when p = 0.

    `rows` is left in echelon form: pivot rows first, leading entries in
    increasing columns, then zero rows; over Q every entry is an int.
    Returns the rank.
    """
    n = len(rows)
    if not p:
        rows[:] = map(primitive_row, rows)
    r = 0
    prev = 1  # over Q, the last pivot
    for col in range(ncols):
        if r == n:
            break
        piv = r
        while piv < n and not rows[piv][col]:
            piv += 1
        if piv == n:
            continue
        prow = rows[piv]
        rows[r], rows[piv] = prow, rows[r]
        if p:
            inv = pow(prow[col], p - 2, p)
            for i in range(r + 1, n):
                ri = rows[i]
                f = ri[col]
                if f:
                    f *= inv
                    f %= p
                    for j in range(col, ncols):
                        ri[j] = (ri[j] - f * prow[j]) % p
        else:
            # Bareiss: each entry below becomes a minor of the input, and
            # the previous pivot, a minor one size smaller, divides exactly
            a = prow[col]
            for i in range(r + 1, n):
                ri = rows[i]
                f = ri[col]
                ri[col] = 0
                for j in range(col + 1, ncols):
                    ri[j] = (a * ri[j] - f * prow[j]) // prev
            prev = a
        r += 1
    return r


def rank_rows(ctx, rows) -> int:
    ncols = len(rows[0]) if rows else 0
    return rank_in_place(ctx, [list(r) for r in rows], ncols)


def rank_in_place(ctx, rows, ncols) -> int:
    """The rank of a list of row lists that the caller built for this call
    alone: they are eliminated in place, so no copy is made."""
    return _echelon(rows, ncols, _modulus(ctx))


def kernel_basis(ctx, rows, ncols):
    """Canonical right-kernel basis.

    One vector per free column, ascending: a 1 in that column, 0 in the
    other free columns, pivot coordinates back-substituted from the echelon
    form. Fixing the free coordinates determines the vector, so the basis
    does not depend on the elimination order and downstream witness lists
    are stable. Over Q the substitution runs on integer numerators over one
    common denominator, and each entry becomes a Fraction once, at the end.
    """
    p = _modulus(ctx)
    ech = [list(r) for r in rows]
    ech = ech[:_echelon(ech, ncols, p)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    steps = [(row, pc, -pow(row[pc], p - 2, p) if p else row[pc])
             for row, pc in zip(ech, pivots)][::-1]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        den = 1
        for row, pc, a in steps:
            acc = sum(row[j] * v[j] for j in range(pc + 1, ncols)
                      if v[j] and row[j])
            if p:
                v[pc] = a * acc % p  # a = -1/pivot
            elif acc:
                # v[pc] = -acc / (den·a): rescale to the denominator den·a/c
                c = gcd(acc, a)
                s = a // c
                if s != 1:
                    v = [x * s for x in v]
                    den *= s
                v[pc] = -acc // c
        basis.append(v if p else [Fraction(x, den) for x in v])
    return basis
