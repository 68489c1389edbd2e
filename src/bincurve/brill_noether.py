"""Special-divisor loci over prime fields: exhaustive scans and verdicts.

W^r for a fixed multidegree is the set of gluing classes with h0 >= r+1.
Every exhaustive scan of the (p-1)^g torus is one walk, `_torus_runs`,
with two front ends: `torus_h0` yields each qualifying class with its
exact h0, and `bn_enumerate` counts them and keeps the first witnesses.
The walk's rules (rank floor, pruning bounds and closed forms) are stated
once, in walk order, in the docstring of `_torus_runs`.
Dimension statements are tested by comparing point counts at two primes:
a D-dimensional locus has Theta(p^D) points, so the growth exponent
log(N2/N1)/log(p2/p1) rounds to D with a modest residual.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology
from .bundles import (EffectiveDivisor, bundle_count, canonical_bundle,
                      gluing_at, hyperelliptic_class, power,
                      restrict_to_normalization, trivial)
from .curve import BinaryCurve, is_hyperelliptic_fast
from .fields import PrimeField, field_to_json
from .picard import balanced_set, is_balanced, normalized_strata
from .rng import Rng


@dataclass(frozen=True)
class BNQuery:
    md: tuple
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be >= 0")

    def to_json(self):
        return {"md": list(self.md), "r": self.r}


@dataclass
class BNReport:
    query: BNQuery
    p: int
    count: int
    witnesses: tuple  # gluing vectors, ascending enumeration order, capped
    witness_cap: int
    index_range: tuple

    def to_json(self):
        return {
            "query": self.query.to_json(),
            "p": self.p,
            "count": self.count,
            "witness_cap": self.witness_cap,
            "index_range": list(self.index_range),
            "witnesses": [[[str(x), "1"] for x in w] for w in self.witnesses],
        }


def rank_floor(md, n: int) -> int:
    """Least rank of the gluing matrix of md over every class of a torus
    with n nodes.

    Row j is [E1(p_j) | -c_j·E2(q_j)], with k1 and k2 columns
    (`cohomology.column_split`). Both blocks are Vandermonde on distinct
    branch points, and scaling rows by units keeps each block's rank, so
    the rank is at least max(min(n, k1), min(n, k2)). It is exactly that
    on every class when one block is empty (k1 = 0 or k2 = 0), or when it
    equals n, since n rows have rank at most n (this covers n <= 1).
    """
    k1, k2 = cohomology.column_split(md)
    return max(min(n, k1), min(n, k2))


def _torus_runs(X: BinaryCurve, md, lo, hi, at_least, sure_hit):
    """The one walk of the torus behind `torus_h0` and `bn_enumerate`.

    Yields, in index order, runs of classes of [lo, hi) that all have
    h0 >= at_least, as (head, a, b, low, jump). With head a tuple the run
    is the classes (*head, c, 1) for c in [a, b), of h0 low + (c == jump)
    (one fiber of the digit tree; jump 0 matches no class). With head None
    the run is the classes of torus index [a, b): all of h0 = low when low
    is not None (a torus on which the rank floor is exact), else a sure-hit
    subtree, which is only cut off when sure_hit is set.

    Row j of the gluing matrix is a_j - c_j·b_j, with a_j = [E1(p_j) | 0]
    and b_j = [0 | E2(q_j)], and h0 is its nullity. Class indices are
    base-(p-1) digits c_0 - 1 .. c_{n-2} - 1, first node slowest, node n-1
    pinned to c = 1; node v = n-2 is the fastest free node. With
    max_rank = ncols - at_least, a class qualifies iff its rank is at most
    max_rank. The walk, in order:

    Rank floor. `rank_floor` empties the torus when the floor passes
    max_rank, or, when the floor is exact, gives its one run in closed
    form. Otherwise both blocks are nonempty and n >= 2.

    Levels. A level holds its rank and the pairs (a_j, b_j) of the nodes
    not yet placed, reduced against its pivots. Placing a node at unit c
    (`extend`) forms its row r = a - c·b from the first pair, already
    reduced, and reduces the other pairs against the one new pivot (if
    r != 0). The pinned node is placed first; the level it leaves is the
    root, at depth 0, and `fibers` takes every level from there on.

    Prune. Rank only grows, so a level whose rank exceeds max_rank is
    skipped with its subtree.

    Sure hit. A level at depth k has v - k + 1 rows to come, each adding
    at most 1, so when its rank plus those is at most max_rank every
    class below qualifies; for counting (sure_hit) the subtree is one run.

    Leaf. At depth v the one pair left is node v's (ra, rb), and by
    linearity the fiber of its p-1 classes has h0(c) = ncols - rank -
    [ra != c·rb]: constant when rb = 0, else one higher at the single c
    with ra = c·rb (`zeroing` finds it, `fiber` reads the run off it).

    Above the leaf, at depth k <= v-1, the slack max_rank - rank closes or
    thins a level of slack 0 or 1: a class below qualifies iff the rows
    of nodes k .. v, reduced, add at most the slack to the rank.

    Tight close (slack 0). Every row to come must vanish, so node j admits
    every unit (ra_j = rb_j = 0), the one unit c with ra_j = c·rb_j, or
    none, and the qualifying classes (h0 = at_least) are the product of
    those sets, one run per prefix over nodes k .. v-1. A level is closed
    only when its subtree lies inside [lo, hi).

    Thinning (slack 1, `close`). The rows of nodes k .. v span at most a
    line. A unit c of node k, whose row is r = a - c·b, qualifies only
    where r is zero (the level below keeps slack 1) or where every later
    row lies in span(r) (the level below is tight). Either way r, al and
    bl are linearly dependent for every later pair (al, bl): where r != 0
    the later row al - c'·bl = lambda·r for some unit c', so r lies in
    span(al, bl) or al = c'·bl. So every 3x3 minor det(r, al, bl)
    vanishes. On the columns (i, y, z), with i the first column where a
    or b is nonzero (`lead`), it is alpha - c·beta, alpha = det(a, al, bl)
    and beta = det(b, al, bl) there, and the first such triple (later
    pairs in order) whose (alpha, beta) is not (0, 0) leaves one candidate
    unit, alpha/beta, or none (alpha or beta zero). `close` keeps only
    that unit: a qualifying unit, one with r = 0 or r_i = 0 included, is
    always that root. Triples through column i are enough: where r_i != 0
    they all vanish iff r, al and bl are dependent (reduce al and bl by r
    to clear column i), and the 2x2 minors of the two-node solve factor
    the same way, the minor of (A - c·B, C - c·D) on the columns (j, k)
    being r_i · det(r, al, bl) on (i, j, k) (expand along the first row).
    When every such triple is identically zero (r stays in span(al, bl),
    or every later pair is dependent) every unit is kept. The pairs left
    are zero on the rank pivot columns, so they live on ncols - rank =
    at_least + 1 columns, and with at_least <= 1 there is no triple to
    try. At slack 2 or more every unit can give a run, and torus_h0 needs
    its exact h0, so nothing is thinned there.

    Two nodes (depth v-1). The level holds (a1, b1) of node v-1 and
    (a2, b2) of node v, and i is the first column where a1 or b1 is
    nonzero (0 when both are zero). At a unit c with r1_i != 0, node
    v-1's row r1 = a1 - c·b1 is nonzero, so the rank grows by one, and
    node v's row a2 - c'·b2 reduces to zero iff it lies in span(r1), that
    is iff its 2x2 minors with r1 on the columns (i, j) vanish. The minor
    at j is A_j - c·B_j - c'·(C_j - c·D_j), so node v jumps at
    zeroing(A - c·B, C - c·D), and the fiber is read off without placing
    node v-1; A, B, C and D are built once per prefix, over the columns
    where one of the four vectors is nonzero. A unit whose row puts the
    rank past max_rank reads no class off its fiber. r1 = 0 only where
    r1_i = 0, which is one unit when b1_i != 0, none when b1_i = 0, and
    every unit when a1 = b1 = 0; a unit with r1_i = 0 descends to the
    leaf like any other unit. Minors against one fixed column keep the solve
    linear in the columns; the full wedge r1 ^ (a2 - c'·b2) has m(m-1)/2
    entries on m columns and made scans of wide multidegrees slower.

    Descent. Every other kept unit c of a level at depth k is placed by
    `extend`, and its level enters depth k+1. Only subtrees that meet
    [lo, hi) are entered, so a cut descends along its boundary paths;
    thinning needs no such care, since it only drops units below which no
    class qualifies.
    """
    total = bundle_count(X)
    hi = total if hi is None else hi
    if not (0 <= lo <= hi <= total):
        raise ValueError("bad index range")
    k1, k2 = cohomology.column_split(md)
    ncols = k1 + k2
    max_rank = ncols - at_least
    n = len(X.nodes)
    floor = rank_floor(md, n)
    if floor > max_rank or lo == hi:
        return  # every class has rank >= floor: none qualifies
    if not (k1 and k2) or floor == n:  # the floor is exact
        yield None, lo, hi, ncols - floor, 0
        return
    p = X.ctx.p
    run = p - 1
    v = n - 2  # the fastest free node; node n-1 is pinned to c = 1
    e1, e2 = cohomology.gluing_profile(X, md)
    pairs = [(ej + (0,) * k2, (0,) * k1 + fj) for ej, fj in zip(e1, e2)]

    def extend(level, c):
        # the level after placing its first pair's node at unit c; a level
        # (rank, pairs) is never changed in place
        rank, ((a, b), *rest) = level
        row = [(x - c * y) % p for x, y in zip(a, b)]
        for pc, piv in enumerate(row):
            if piv:
                break
        else:
            return rank, rest
        inv = pow(piv, p - 2, p)
        row = [x * inv % p for x in row]

        def cut(vec):
            f = vec[pc]
            return [(x - f * y) % p for x, y in zip(vec, row)] if f else vec
        return rank + 1, [(cut(a), cut(b)) for a, b in rest]

    def zeroing(ra, rb):
        # the units c with ra = c·rb: None for all of them (ra = rb = 0),
        # else the one such unit, or 0 when there is none
        for i, piv in enumerate(rb):
            if piv:
                c = ra[i] * pow(piv, p - 2, p) % p
                return 0 if any((x - c * y) % p for x, y in zip(ra, rb)) else c
        return 0 if any(ra) else None

    def lead(a, b):
        # the first column where a or b is nonzero, 0 when both are zero
        for i in range(ncols):
            if a[i] or b[i]:
                return i
        return 0

    def fiber(rank, jump, base, head):
        # the run of node v's fiber below head, whose first class has index
        # base, given the rank of the other rows and node v's units from
        # `zeroing`; h0 is top at c_v = jump (0: no such class), low
        # elsewhere. None when no class in [lo, hi) has h0 >= at_least
        top = ncols - rank
        low, jump = (top, 0) if jump is None else (top - 1, jump)
        c0 = max(lo - base, 0) + 1
        c1 = min(hi - base, run) + 1
        if low >= at_least:
            return head, c0, c1, low, jump
        if top >= at_least and c0 <= jump < c1:
            return head, jump, jump + 1, low, jump
        return None

    def close(level, units):
        # the units of a slack-1 level's first node below which a class can
        # qualify: the root of det(a - c·b, al, bl) = alpha - c·beta on the
        # first column triple (i, y, z) where it is not identically zero
        _, ((a, b), *rest) = level
        i = lead(a, b)  # a = b = 0 leaves every triple zero
        ai, bi = a[i], b[i]
        for al, bl in rest:
            ali, bli = al[i], bl[i]
            sup = [x for x in range(ncols)
                   if x != i and (a[x] or b[x] or al[x] or bl[x])]
            for y, z in itertools.combinations(sup, 2):
                m_yz = al[y] * bl[z] - al[z] * bl[y]
                m_iz = ali * bl[z] - al[z] * bli
                m_iy = ali * bl[y] - al[y] * bli
                alpha = (ai * m_yz - a[y] * m_iz + a[z] * m_iy) % p
                beta = (bi * m_yz - b[y] * m_iz + b[z] * m_iy) % p
                if alpha or beta:  # its one root, 0 for none
                    c = alpha * pow(beta, p - 2, p) % p if beta else 0
                    return (c,) if c in units else ()
        return units

    def fibers(k, level, base, head):
        # runs below the prefix head (nodes 0 .. k-1), whose first class
        # has index base; only subtrees that meet [lo, hi) are entered
        rank = level[0]
        if rank > max_rank:  # prune
            return
        if sure_hit and rank + v - k < max_rank:  # sure hit
            yield (None, max(lo, base), min(hi, base + run ** (v - k + 1)),
                   None, 0)
            return
        if k == v:  # leaf
            out = fiber(rank, zeroing(*level[1][0]), base, head)
            if out is not None:
                yield out
            return
        size = run ** (v - k)
        if rank == max_rank and lo <= base and base + size * run <= hi:
            units = []  # tight close: each node's zeroing units
            for ra, rb in level[1]:
                c = zeroing(ra, rb)
                if c == 0:
                    return
                units.append(range(1, p) if c is None else range(c, c + 1))
            last = units.pop()
            for prefix in itertools.product(*units):
                yield head + prefix, last.start, last.stop, ncols - rank, 0
            return
        units = range(max(lo - base, 0) // size + 1,
                      min(-((base - hi) // size), run) + 1)
        if rank + 1 == max_rank and at_least > 1:  # else no column triple
            units = close(level, units)
        if k == v - 1:
            ai, bi, A, B, C, D = two_nodes(level)
        for c in units:
            if k == v - 1 and (ai - c * bi) % p:  # two nodes, r1_i != 0
                out = fiber(rank + 1, zeroing(
                    [(x - c * y) % p for x, y in zip(A, B)],
                    [(x - c * y) % p for x, y in zip(C, D)]),
                    base + (c - 1) * size, head + (c,))
                if out is not None:
                    yield out
            else:
                yield from fibers(k + 1, extend(level, c),
                                  base + (c - 1) * size, head + (c,))

    def two_nodes(level):
        # node v-1's entries on column i, where r1_i = a1_i - c·b1_i, and
        # the 2x2 minors of node v's row with r1 on the columns (i, j),
        # A_j - c·B_j - c'·(C_j - c·D_j), over the columns j != i where
        # one of the four vectors is nonzero
        _, ((a1, b1), (a2, b2)) = level
        i = lead(a1, b1)
        ai, bi, a2i, b2i = a1[i], b1[i], a2[i], b2[i]
        sup = [j for j in range(ncols)
               if j != i and (a1[j] or b1[j] or a2[j] or b2[j])]
        return (ai, bi,
                [(a2[j] * ai - a2i * a1[j]) % p for j in sup],
                [(a2[j] * bi - a2i * b1[j]) % p for j in sup],
                [(b2[j] * ai - b2i * a1[j]) % p for j in sup],
                [(b2[j] * bi - b2i * b1[j]) % p for j in sup])

    # the pinned node n-1 is placed first, at c = 1
    yield from fibers(0, extend((0, pairs[-1:] + pairs[:-1]), 1), 0, ())


def torus_h0(X: BinaryCurve, md, lo=0, hi=None, at_least=0):
    """Yield (gluing tuple, h0) for each class of torus index [lo, hi) with
    h0 >= at_least, in bundle_at order.

    The classes come from the walk `_torus_runs`, with sure-hit subtrees
    descended, since callers need exact h0. The field and the range are
    checked on the first iteration.
    """
    for head, a, b, low, jump in _torus_runs(X, md, lo, hi, at_least, False):
        if head is not None:
            for c in range(a, b):
                yield (*head, c, 1), low + (c == jump)
            continue
        # one-block torus: the free coordinates in gluing_at order, the
        # last node pinned at 1
        pin = (1,) if X.genus >= 0 else ()
        free = itertools.product(range(1, X.ctx.p), repeat=max(X.genus, 0))
        for c in itertools.islice(free, a, b):
            yield c + pin, low


def bn_enumerate(X: BinaryCurve, q: BNQuery, witness_cap: int = 64,
                 index_range=None) -> BNReport:
    """Exhaustive W^r scan over one multidegree torus: the count of classes
    with h0 >= r+1 and the first witness_cap of them. Runs from the walk
    of `torus_h0`, sure-hit subtrees included, are counted whole; only the
    witnesses still under the cap are built, a subtree's from its indices.
    """
    lo, hi = index_range if index_range is not None else (0, bundle_count(X))
    count = 0
    wits = []
    for head, a, b, _, _ in _torus_runs(X, tuple(q.md), lo, hi, q.r + 1,
                                        True):
        count += b - a
        for c in range(a, min(b, a + witness_cap - len(wits))):
            wits.append(gluing_at(X, c) if head is None else (*head, c, 1))
    return BNReport(q, X.ctx.p, count, tuple(wits), witness_cap, (lo, hi))


def split_ranges(total: int, parts: int):
    """Contiguous, nearly equal index ranges covering [0, total)."""
    parts = max(1, parts)
    base, extra = divmod(total, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def pool_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in order; spread over one process pool when
    jobs > 1, which alone loads the pool's modules. The pool has
    min(jobs, os.cpu_count()) workers, since a fork pool starts them all at
    once, and takes the items in chunks of ceil(n / (4·workers)), the
    chunk size `multiprocessing.Pool.map` picks. fn and the items must
    pickle."""
    if jobs <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    workers = min(jobs, os.cpu_count() or 1)
    chunksize = max(1, -(-len(items) // (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def merge_reports(parts) -> BNReport:
    """Combine shard reports of one scan, given in index order; equals the
    unsharded report."""
    if not parts:
        raise ValueError("no shard reports to merge")
    first = parts[0]
    for a, b in zip(parts, parts[1:]):
        if a.index_range[1] != b.index_range[0]:
            raise ValueError("shards are not contiguous")
        if a.query != b.query or a.p != b.p or a.witness_cap != b.witness_cap:
            raise ValueError("shards disagree on the query")
    wits = []
    for part in parts:
        wits.extend(part.witnesses)
    return BNReport(first.query, first.p,
                    sum(part.count for part in parts),
                    tuple(wits[:first.witness_cap]), first.witness_cap,
                    (first.index_range[0], parts[-1].index_range[1]))


def rho(g: int, d: int, r: int) -> int:
    return (r + 1) * d - r * g - (r + 1) * r


def predicted_empty(md, r: int, g: int) -> bool:
    """Provably empty W^r cases: the rank floor of the gluing matrix
    (`rank_floor`) leaves fewer than r+1 sections on every class. On
    balanced md this is degree pigeonholing (sorted d1 <= d2): d1 < 0 with
    d <= g+r, or 0 <= d1 <= r-1 with d <= g+r-1.
    """
    if not is_balanced(md, g):
        raise ValueError("only balanced multidegrees have emptiness verdicts")
    ncols = sum(cohomology.column_split(md))
    return rank_floor(md, g + 1) > ncols - (r + 1)


@dataclass
class CliffordReport:
    cliff: int | None  # None = no bundle meets h0 >= 2, h1 >= 2
    d: int | None
    md: tuple | None
    witness: tuple | None
    method: str
    p: int

    def to_json(self):
        return {
            "cliff": "undefined" if self.cliff is None else self.cliff,
            "d": self.d,
            "md": None if self.md is None else list(self.md),
            "witness": None if self.witness is None else
            [[str(x), "1"] for x in self.witness],
            "method": self.method,
            "p": self.p,
            "note": "minimum over F_p-rational classes",
        }


def clifford_index(X: BinaryCurve) -> CliffordReport:
    """min(d - 2·h0 + 2) over balanced classes with h0 >= 2 and h1 >= 2.

    One loop of existence questions, in order of the candidate index cl
    (Clifford's bound h0 <= d/2 + 1 makes cl >= 0). A class of degree d has
    index cl when h0 = h = (d-cl)/2 + 1, and then h1 = h - d + g - 1 >= 2
    exactly when d <= 2g-4-cl; so d runs over cl+2, cl+4, ..., 2g-4-cl,
    and cl <= g-3. Serre duality cuts that range to d <= g-1: the dual
    w ⊗ L^-1 of such a class has md (g-1-d1, g-1-d2), balanced since
    |d1 - d2| is kept, and degree d' = 2g-2-d, of d's parity and in
    [cl+2, 2g-4-cl] too; its h0' = h1 = h - d + g - 1 >= 2 and h1' = h >= 2,
    so its index d' - 2h0' + 2 = d - 2h + 2 is cl as well. A hit at
    d > g-1 therefore has a dual hit at d' < g-1, which the loop probes
    first, so no probe above g-1 can give the first hit. For each md of
    `balanced_set(d, g)`, `torus_h0` is asked for its first class with
    h0 >= h; the walk's rank floor and rank bound make an empty probe
    cheap, and its tight levels (rank at the bound) close their subtrees
    as product sets instead of descending. The first hit is the answer.
    No smaller index occurs, so its h0 is exactly h, and it is the first
    class of least index in (d, md, torus index) order. No hit means that
    no class qualifies ("undefined").

    `method` is a label derived from the result: "genus2" for the genus-2
    convention (any three point pairs are matched by a Moebius map, so the
    curve is hyperelliptic); "pencil-scan" for index 0 or 1, which only md
    (h,h) and (h,h±1) can show (lemma-e's bound on h0, on both sides);
    "full-scan" for a larger index or none.
    """
    ctx = X.ctx
    g = X.genus
    if g < 2:
        raise ValueError("Clifford index needs g >= 2")
    if not ctx.is_prime_field():
        raise ValueError("scan needs a finite field")
    p = ctx.p
    if g == 2:
        H = hyperelliptic_class(X)
        return CliffordReport(0, 2, (1, 1), H.c, "genus2", p)
    for cl in range(g - 2):
        for d in range(cl + 2, min(2 * g - 3 - cl, g), 2):
            for md in balanced_set(d, g):
                hit = next(torus_h0(X, md, at_least=(d - cl) // 2 + 1), None)
                if hit is not None:
                    return CliffordReport(
                        cl, d, md, hit[0],
                        "pencil-scan" if cl <= 1 else "full-scan", p)
    return CliffordReport(None, None, None, None, "full-scan", p)


def clifford_equality_classes(X: BinaryCurve, d: int) -> list:
    """The classes that Clifford's theorem names as attaining h0 = d/2 + 1,
    for even 0 <= d <= 2g-2, as distinct (md, c) pairs in naming order:
    the trivial class at d = 0, the dualizing class at d = 2g-2 and, on a
    hyperelliptic curve, H^(d/2) for the degree-2 pencil H. A class named
    twice (H^0 = O, H^(g-1) = w, or w = O at g = 1) is listed once, so two
    entries mean the names disagree; no entry means no class attains it.
    """
    g = X.genus
    if d % 2 != 0 or not (0 <= d <= 2 * g - 2):
        raise ValueError("need even d with 0 <= d <= 2g-2")
    named = []
    if d == 0:
        named.append(trivial(X))
    if d == 2 * g - 2:
        named.append(canonical_bundle(X))
    if g >= 2 and is_hyperelliptic_fast(X)[0]:
        named.append(power(hyperelliptic_class(X), d // 2))
    return list(dict.fromkeys((L.md, L.c) for L in named))


def reduce_curve_mod(X: BinaryCurve, p: int) -> BinaryCurve:
    """Reduce a rational-coordinate curve mod p by reading its JSON over
    F_p; a denominator divisible by p or a collision is an error."""
    if X.ctx.is_prime_field():
        raise ValueError("curve is already over a finite field")
    try:
        return BinaryCurve.from_json({**X.to_json(),
                                      "field": field_to_json(PrimeField(p))})
    except ValueError as exc:
        raise ValueError(f"bad reduction mod {p}: {exc}") from None


# largest residual |exponent - rounded| accepted as a dimension, in 1/100
GROWTH_TOL_HUNDREDTHS = 35


@dataclass
class DimEstimate:
    primes: tuple
    counts: tuple
    kind: str                  # "ok" | "empty" | "inconclusive"
    estimate: float | None
    rounded: int | None
    residual: float | None

    def to_json(self):
        return {"primes": list(self.primes), "counts": list(self.counts),
                "kind": self.kind, "estimate": self.estimate,
                "rounded": self.rounded, "residual": self.residual}


def growth_estimate(primes, count) -> DimEstimate:
    """Growth-exponent dimension proxy from a locus's point counts
    `count(p)` at >= 2 distinct primes (a repeated prime is counted once).

    Uses the widest prime pair for the headline exponent. The rounding
    verdict is computed in exact arithmetic; the float fields are display
    only. Residual above 0.35 is reported as inconclusive, not as failure.
    """
    primes = sorted(set(primes))
    if len(primes) < 2:
        raise ValueError("need at least two distinct primes")
    counts = tuple(count(p) for p in primes)
    if all(n == 0 for n in counts):
        return DimEstimate(tuple(primes), counts, "empty", None, None, None)
    if any(n == 0 for n in counts):
        return DimEstimate(tuple(primes), counts, "inconclusive",
                           None, None, None)
    p1, p2 = primes[0], primes[-1]
    n1, n2 = counts[0], counts[-1]
    est = math.log(n2 / n1) / math.log(p2 / p1)
    k = round(est)
    # |est - k| <= tol, decided in exact integer arithmetic
    base, ratio = Fraction(p2, p1), Fraction(n2, n1) ** 100
    ok = (base ** (100 * k - GROWTH_TOL_HUNDREDTHS) <= ratio
          <= base ** (100 * k + GROWTH_TOL_HUNDREDTHS))
    return DimEstimate(tuple(primes), counts, "ok" if ok else "inconclusive",
                       est, k, abs(est - k))


def estimate_dim(X: BinaryCurve, q: BNQuery, primes) -> DimEstimate:
    """`growth_estimate` of the W^r count on md's open torus of X mod p."""
    return growth_estimate(primes, lambda p: bn_enumerate(
        reduce_curve_mod(X, p), q, witness_cap=0).count)


@dataclass(frozen=True)
class DimPrediction:
    kind: str  # "empty" | "point" (one at every prime) | "exact" | "le"
    value: int | None = None

    def holds(self, est: DimEstimate) -> bool:
        if self.kind == "point":
            return all(n == 1 for n in est.counts)
        if est.kind != "ok":
            return est.kind == "empty" and self.kind in ("empty", "le")
        return (est.rounded == self.value if self.kind == "exact"
                else self.kind == "le" and est.rounded <= self.value)


def martens_bound(g: int, d: int, r: int, hyperelliptic: bool) -> DimPrediction:
    """Martens, 2 <= d <= g-1 and 0 < 2r <= d: dim W^r_d is exactly d-2r on a
    hyperelliptic curve, else at most d-2r-1 (empty at d = 2r). At d = 2r a
    hyperelliptic W̄ is one point, rH: Clifford's equality case, and Clifford
    on Y_S (genus g-e, degree d-e) leaves a boundary point h0 < r+1.
    """
    if not (2 <= d <= g - 1):
        raise ValueError("need 2 <= d <= g-1")
    if not (0 < 2 * r <= d):
        raise ValueError("need 0 < 2r <= d")
    if hyperelliptic:
        return DimPrediction("point" if d == 2 * r else "exact", d - 2 * r)
    if d == 2 * r:
        return DimPrediction("empty")
    return DimPrediction("le", d - 2 * r - 1)


def assemble_Wbar(X: BinaryCurve, d: int, r: int) -> dict:
    """W^r counts on each stratum of the compactified Picard scheme:
    {Stratum: count}, in `enumerate_strata` order, the identified point
    of the degeneration type left out.

    Requires d <= r+g-1, which keeps that point outside W̄: in the
    degeneration type the lower balanced bound lo = (d-g-1)/2 is an
    integer, d <= r+g-1 gives lo+1 <= r/2, and so the point's
    h0_bar = 2·max(0, lo+1) <= r < r+1.
    """
    g = X.genus
    if d > r + g - 1:
        raise ValueError(
            f"need d <= r+g-1 = {r + g - 1} (boundary h0 control fails past it)")
    return {st: bn_enumerate(Y, BNQuery(st.md, r), witness_cap=0).count
            for st, Y in normalized_strata(X, d)}


@dataclass
class VeryAmpleReport:
    hyperelliptic: bool
    very_ample: bool
    passed: bool


def verify_canonical_very_ample(X: BinaryCurve, rng: Rng,
                                trials: int) -> VeryAmpleReport:
    """Point/tangent separation checks for the canonical embedding.

    Checks, with w the canonical bundle and g the genus:
      * h0(w(-p-q)) = g-2 for sampled smooth (not necessarily distinct) p, q;
        on a hyperelliptic curve the constructed conjugate pairs (a, psi(a))
        give g-1 instead;
      * at every node, on the one-node normalization Y with freed branches
        r, s: h0(nu*w(-r-s)) = g-1 and h0(nu*w(-2r-s)) = g-2 always, and
        h0(nu*w(-2r-2s)) = g-3 exactly when r, s are not conjugate on Y —
        hyperelliptic curves fail this at every node.
    Verdict: very_ample iff no check deviates; passes when that matches
    the Moebius-map hyperellipticity test (non-hyperelliptic <=> very ample).
    """
    g = X.genus
    ctx = X.ctx
    if g < 3:
        raise ValueError("needs g >= 3")
    if not ctx.is_prime_field() or ctx.p <= 2 * g:
        raise ValueError("needs a prime field with p > 2g")
    hyp, psi = is_hyperelliptic_fast(X)
    w = canonical_bundle(X)
    pool = [(1, pt) for pt in X.smooth_points(1)]
    pool += [(2, pt) for pt in X.smooth_points(2)]

    samples = [(rng.choice(pool), rng.choice(pool)) for _ in range(trials)]
    if hyp:
        # conjugate pairs break point separation deterministically
        samples += [((1, pt), (2, psi.apply(pt)))
                    for pt in X.smooth_points(1)[:trials]]

    def separates(j):
        # node, tangent on one branch, tangents on both branches
        nu_w = restrict_to_normalization(w, [j])
        rpt, spt = X.nodes[j]
        for mr, ms, expect in ((1, 1, g - 1), (2, 1, g - 2), (2, 2, g - 3)):
            D = EffectiveDivisor(nu_w.curve, [(1, rpt, mr), (2, spt, ms)])
            if cohomology.h0_vanishing(nu_w, D) != expect:
                return False
        return True

    separates_points = all(
        cohomology.h0_vanishing(w, cohomology.point_divisor(X, [a, b])) == g - 2
        for a, b in samples)
    very_ample = separates_points and all(separates(j) for j in range(g + 1))
    return VeryAmpleReport(hyp, very_ample, passed=(very_ample == (not hyp)))

