"""Exact dense linear algebra: rank and canonical kernel bases.

One forward-elimination routine, `_echelon`, serves F_p and Q alike on
plain values: ints reduced mod p over F_p (p prime), exact Fractions over
Q (p = 0, where plain ints are accepted too). The two fields differ only in
the pivot inverse and in the reduction mod p. Kernel bases come from the
echelon form by back-substitution. Matrices stay at desk scale (<= ~40x40)
so fraction growth over Q is acceptable. The torus scan keeps its own
levels of residual rows, one pivot at a time (`brill_noether._torus_runs`).
"""
from __future__ import annotations

from fractions import Fraction


def _modulus(ctx) -> int:
    # p over F_p, 0 for exact arithmetic over Q
    return ctx.p if ctx.is_prime_field() else 0


def _inverse(x, p):
    return pow(x, p - 2, p) if p else 1 / Fraction(x)


def _echelon(rows, ncols, p) -> int:
    """Forward elimination in place over F_p, or over Q when p = 0.

    `rows` is left in echelon form: pivot rows first, leading entries in
    increasing columns, then zero rows. Returns the rank.
    """
    n = len(rows)
    r = 0
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
        inv = _inverse(prow[col], p)
        for i in range(r + 1, n):
            ri = rows[i]
            f = ri[col]
            if f:
                f *= inv
                if p:
                    f %= p
                    for j in range(col, ncols):
                        ri[j] = (ri[j] - f * prow[j]) % p
                else:
                    for j in range(col, ncols):
                        ri[j] -= f * prow[j]
        r += 1
    return r


def rank_rows(ctx, rows) -> int:
    ncols = len(rows[0]) if rows else 0
    return _echelon([list(r) for r in rows], ncols, _modulus(ctx))


def kernel_basis(ctx, rows, ncols):
    """Canonical right-kernel basis.

    One vector per free column, ascending: a 1 in that column, 0 in the
    other free columns, pivot coordinates back-substituted from the echelon
    form. Fixing the free coordinates determines the vector, so the basis
    does not depend on the elimination order and downstream witness lists
    are stable.
    """
    p = _modulus(ctx)
    ech = [list(r) for r in rows]
    ech = ech[:_echelon(ech, ncols, p)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    steps = [(row, pc, -_inverse(row[pc], p))
             for row, pc in zip(ech, pivots)][::-1]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for row, pc, ni in steps:
            acc = sum(row[j] * v[j] for j in range(pc + 1, ncols)
                      if v[j] and row[j])
            v[pc] = ni * acc % p if p else ni * acc
        basis.append(v)
    return basis
