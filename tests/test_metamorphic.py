"""Metamorphic oracles for the torus walk: identities of the paper's objects
that relate W^r counts on two different tori or curves. The two walks of
each pair differ in digit order, in the k1/k2 split and in which subtrees
the rank floor and the sure-hit bound prune or the tight closure solves,
so they check each other on tori too large for generic h0 over every
class.
"""
from functools import lru_cache

import pytest

from bincurve.brill_noether import (BNQuery, _torus_runs, bn_enumerate,
                                    rank_floor)
from bincurve.bundles import (LineBundle, apply_moebius, bundle_at,
                              bundle_count, canonical_bundle, dual, tensor,
                              trivial)
from bincurve.cohomology import rows_for_gluing
from bincurve.curve import BinaryCurve, ProjPoint, random_curve, random_moebius
from bincurve.fields import PrimeField
from bincurve.linalg import rank_rows
from bincurve.rng import Rng

# (g, p, seed), (p-1)^g up to 10^4 classes; g = 2 at seed 15 is the curve
# of the first Serre count check
CURVES = [(2, 7, 15), (4, 7, 61), (4, 11, 62), (5, 7, 63)]
IDS = [f"g{g}p{p}" for g, p, _ in CURVES]


@lru_cache(maxsize=None)
def _curve(g, p, seed, change=None):
    """random_curve at p >= g+3, else g+1 random node pairs, which need not
    include (0,0), (1,1), (oo,oo): a fixture choice, since random_curve
    itself needs only p >= g. change names a transform of that curve: "rotate" (node j moves
    to j-1), "swap" (p_j and q_j trade sides) or "moebius" (both sides
    moved by seeded Moebius maps)."""
    ctx = PrimeField(p)
    rng = Rng(seed)
    if p >= g + 3:
        X = random_curve(g, ctx, rng)
    else:
        pool = [ProjPoint.finite(ctx, a) for a in range(p)]
        pool.append(ProjPoint.infinity(ctx))
        X = BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                      rng.distinct(pool, g + 1))))
    if change == "rotate":
        return BinaryCurve(ctx, X.nodes[1:] + X.nodes[:1])
    if change == "swap":
        return BinaryCurve(ctx, [(q, pt) for pt, q in X.nodes])
    if change == "moebius":
        M1, M2 = random_moebius(ctx, rng), random_moebius(ctx, rng)
        return apply_moebius(trivial(X), M1, M2).curve
    return X


@lru_cache(maxsize=None)
def _count(curve, md, r):
    # #W^r on the md torus of _curve(*curve); every class has h0 >= 0
    X = _curve(*curve)
    if r < 0:
        return bundle_count(X)
    return bn_enumerate(X, BNQuery(md, r), witness_cap=0).count


def _tight_below_root(X, md, at_least):
    # a prefix c_0 .. c_{depth-1}, 1 <= depth <= g-2, whose rows and the
    # pinned row of node g have rank ncols - at_least while the pinned row
    # alone has less: the walk closes its subtree in closed form
    g, u = X.genus, X.ctx.p - 1
    ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
    rows = rows_for_gluing(bundle_at(X, md, 0))
    if rank_rows(X.ctx, rows[g:]) >= ncols - at_least:
        return False
    for depth in range(1, g - 1):
        for start in range(0, bundle_count(X), u ** (g - depth)):
            rows = rows_for_gluing(bundle_at(X, md, start))
            if rank_rows(X.ctx, rows[:depth] + rows[g:]) == ncols - at_least:
                return True
    return False


def _grid(g):
    # md in [-1, g]^2: one-block tori, full-rank blocks and everything
    # between; r 0-2
    return [((d1, d2), r) for d1 in range(-1, g + 1)
            for d2 in range(-1, g + 1) for r in range(3)]


@pytest.mark.parametrize("g,p,seed", CURVES, ids=IDS)
def test_serre_duality_counts(g, p, seed):
    """L -> w x L^-1 maps the md torus onto the (g-1-d1, g-1-d2) torus with
    h0 dropping by d - g + 1, so #W^r_md = #W^(r+g-d-1)_md*, the whole
    torus when r+g-d-1 < 0. On the larger tori the grid must contain a
    torus emptied by the rank floor, and a sure-hit subtree and a tight
    subtree (closed as a product set) below the root."""
    curve = (g, p, seed)
    X, total = _curve(*curve), (p - 1) ** g
    seen = set()
    for md, r in _grid(g):
        d = md[0] + md[1]
        dual_md = (g - 1 - md[0], g - 1 - md[1])
        assert _count(curve, md, r) == _count(curve, dual_md, r + g - d - 1)
        ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
        if rank_floor(md, g + 1) > ncols - (r + 1):
            seen.add("floor")
            continue
        if "sure-hit" not in seen and any(
                head is None and low is None and b - a < total
                for head, a, b, low, _ in _torus_runs(X, md, 0, None,
                                                      r + 1, True)):
            seen.add("sure-hit")
        if "tight" not in seen and _tight_below_root(X, md, r + 1):
            seen.add("tight")
    if g >= 4:
        assert seen == {"floor", "sure-hit", "tight"}


@pytest.mark.parametrize("change", ["rotate", "swap", "moebius"])
@pytest.mark.parametrize("g,p,seed", CURVES[1:], ids=IDS[1:])
def test_curve_change_keeps_counts(g, p, seed, change):
    """Node rotation and Moebius transport leave every W^r count of a torus
    unchanged; a side swap does too, with md read as (d2, d1)."""
    curve = (g, p, seed)
    for md, r in _grid(g):
        moved = md[::-1] if change == "swap" else md
        assert _count(curve, md, r) == _count(curve + (change,), moved, r)


@pytest.mark.parametrize("g,p,seed", [(2, 7, 15), (3, 5, 64), (3, 7, 65)],
                         ids=["g2p7", "g3p5", "g3p7"])
def test_serre_duality_maps_witness_sets(g, p, seed):
    """On small tori, with the witness cap above the count, L -> w x L^-1
    maps the full witness set of W^r_md onto that of W^(r+g-d-1)_md*."""
    X = _curve(g, p, seed)
    K = canonical_bundle(X)
    total = bundle_count(X)
    n_sets = 0
    for md, r in _grid(g):
        r_dual = r + g - md[0] - md[1] - 1
        if r_dual < 0:
            continue
        wits = bn_enumerate(X, BNQuery(md, r), witness_cap=total).witnesses
        dual_md = (g - 1 - md[0], g - 1 - md[1])
        want = bn_enumerate(X, BNQuery(dual_md, r_dual),
                            witness_cap=total).witnesses
        got = {tensor(K, dual(LineBundle(X, md, c))).c for c in wits}
        assert got == set(want)
        n_sets += 0 < len(wits) < total
    assert n_sets > 0
