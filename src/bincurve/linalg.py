"""Exact dense linear algebra: rank and canonical kernel bases.

Forward elimination only, one routine per field kind: `rank_mod_bounded`
for F_p (generic h0 over a prime field, plain integers with no per-element
dispatch) and a generic FieldCtx routine for Q. Kernel bases come from the
echelon form by back-substitution. Matrices stay at desk scale (<= ~40x40)
so fraction growth over Q is acceptable.
"""
from __future__ import annotations


def rank_mod_bounded(rows, ncols, p, max_rank) -> int:
    """Rank over F_p, giving up early once the rank exceeds max_rank.

    Forward elimination in place: `rows` is left in echelon form (pivot rows
    first, leading entries in increasing columns, then zero rows) unless the
    early exit cut it short. Returns min(rank, max_rank + 1). The torus
    scan keeps its own incremental echelon (`brill_noether.torus_h0`).
    """
    n = len(rows)
    r = 0
    for col in range(ncols):
        piv = -1
        for i in range(r, n):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        prow = rows[r]
        for i in range(r + 1, n):
            f = rows[i][col]
            if f:
                f = f * inv % p
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - f * prow[j]) % p
        r += 1
        if r > max_rank or r == n:
            break
    return r


def _echelon(ctx, rows, ncols) -> int:
    """Forward elimination in place over any field; returns the rank."""
    if ctx.is_prime_field():
        return rank_mod_bounded(rows, ncols, ctx.p, ncols)
    zero = ctx.zero
    n = len(rows)
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, n) if rows[i][col] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = ctx.inv(prow[col])
        for i in range(r + 1, n):
            f = rows[i][col]
            if f != zero:
                f = ctx.mul(f, inv)
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = ctx.sub(ri[j], ctx.mul(f, prow[j]))
        r += 1
        if r == n:
            break
    return r


def rank_rows(ctx, rows, ncols=None) -> int:
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return _echelon(ctx, [list(r) for r in rows], ncols)


def kernel_basis(ctx, rows, ncols):
    """Canonical right-kernel basis.

    One vector per free column, ascending: a 1 in that column, 0 in the
    other free columns, pivot coordinates back-substituted from the echelon
    form. Fixing the free coordinates determines the vector, so the basis
    does not depend on the elimination order and downstream witness lists
    are stable.
    """
    zero = ctx.zero
    ech = [list(r) for r in rows]
    ech = ech[:_echelon(ctx, ech, ncols)]
    pivots = [next(j for j, x in enumerate(row) if x != zero) for row in ech]
    neg_inv = [ctx.neg(ctx.inv(row[pc])) for row, pc in zip(ech, pivots)]
    steps = list(zip(ech, pivots, neg_inv))[::-1]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = ctx.one
        for row, pc, ni in steps:
            acc = zero
            for j in range(pc + 1, ncols):
                if v[j] != zero and row[j] != zero:
                    acc = ctx.add(acc, ctx.mul(row[j], v[j]))
            v[pc] = ctx.mul(ni, acc)
        basis.append(v)
    return basis
