import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bincurve.brill_noether import (BNQuery, DimEstimate, DimPrediction,
                                    _torus_runs, assemble_Wbar,
                                    bn_enumerate, clifford_equality_classes,
                                    clifford_index, estimate_dim,
                                    growth_estimate, martens_bound,
                                    merge_reports, predicted_empty,
                                    rank_floor, reduce_curve_mod, rho,
                                    split_ranges, torus_h0)
from bincurve.bundles import (LineBundle, canonical_bundle, dual,
                              enumerate_bundles, gluing_at,
                              hyperelliptic_class, tensor, trivial)
from bincurve.cohomology import (SectionSpace, gluing_profile, h0,
                                 rows_for_gluing)
from bincurve.curve import (BinaryCurve, ProjPoint, normalize_at,
                            random_curve, random_hyperelliptic_curve,
                            standard_curve)
from bincurve.fields import PrimeField, Rationals
from bincurve.linalg import rank_rows
from bincurve.picard import (Ell0, balanced_set, enumerate_strata, h0_bar,
                            picard_type)
from bincurve.rng import Rng

F7 = PrimeField(7)
F11 = PrimeField(11)


def test_rho_formula():
    assert rho(3, 3, 1) == 1
    assert rho(4, 2, 1) == -2
    assert rho(3, 4, 2) == 0
    assert rho(2, 2, 0) == 2


def test_query_validation_and_json():
    q = BNQuery((1, 2), 1)
    assert q.to_json() == {"md": [1, 2], "r": 1}
    with pytest.raises(ValueError):
        BNQuery((1, 2), -1)


def test_counts_nest_in_r():
    X = random_curve(3, F7, Rng(14))
    counts = [bn_enumerate(X, BNQuery((2, 2), r)).count for r in range(4)]
    assert counts == sorted(counts, reverse=True)
    # d = 2g-2: chi = 2 forces h0 >= 2 everywhere, and r = 2 only at omega
    assert counts[0] == counts[1] == 216
    assert counts[2] == 1 and counts[3] == 0


def test_witness_cap_and_witnesses_have_sections():
    X = standard_curve(3, F7)
    rep = bn_enumerate(X, BNQuery((2, 2), 0), witness_cap=5)
    assert len(rep.witnesses) == 5 and rep.count >= 5
    from bincurve.bundles import LineBundle
    for c in rep.witnesses:
        assert h0(LineBundle(X, (2, 2), list(c))) >= 1


def test_sharding_matches_single_scan():
    X = random_curve(3, F7, Rng(16))
    q = BNQuery((1, 1), 1)
    whole = bn_enumerate(X, q, witness_cap=8)
    ranges = split_ranges(216, 5)
    assert ranges[0][0] == 0 and ranges[-1][1] == 216
    assert all(a2 == b1 for (_, b1), (a2, _) in zip(ranges, ranges[1:]))
    parts = [bn_enumerate(X, q, witness_cap=8, index_range=rg) for rg in ranges]
    merged = merge_reports(parts)
    assert merged.count == whole.count
    assert merged.witnesses == whole.witnesses
    assert merged.index_range == (0, 216)


# (g, p) with at most 1296 classes per torus, so the generic-h0 oracle
# below stays quick; (5, 5) walks a prefix of four digit levels
TORUS_SIZES = [(g, p) for g in (0, 1, 2, 3, 4, 5) for p in (5, 7, 11, 13)
               if (p - 1) ** g <= 1296]


@st.composite
def torus_cases(draw):
    g, p = draw(st.sampled_from(TORUS_SIZES))
    ctx = PrimeField(p)
    rng = Rng(draw(st.integers(0, 10 ** 6)))
    pool = [ProjPoint.finite(ctx, a) for a in range(p)]
    pool.append(ProjPoint.infinity(ctx))
    X = BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                  rng.distinct(pool, g + 1))))
    # ncols = max(d1+1, 0) + max(d2+1, 0) ranges over 0 .. 2g+4, on both
    # sides of g+1 (where a generic class stops having sections)
    md = (draw(st.integers(-2, g + 1)), draw(st.integers(-2, g + 1)))
    return X, md, draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(torus_cases())
def test_torus_h0_matches_generic_h0(case):
    X, md, k = case
    want = [(L.c, h0(L)) for L in enumerate_bundles(X, md) if h0(L) >= k]
    assert list(torus_h0(X, md, at_least=k)) == want


@settings(max_examples=40, deadline=None)
@given(torus_cases(), st.data())
def test_torus_h0_range_is_a_slice_of_the_full_scan(case, data):
    X, md, k = case
    full = [(L.c, h0(L)) for L in enumerate_bundles(X, md)]
    total = len(full)
    assert total == (X.ctx.p - 1) ** X.genus
    lo = data.draw(st.integers(0, total))
    hi = data.draw(st.integers(lo, total))
    want = [hit for hit in full[lo:hi] if hit[1] >= k]
    assert list(torus_h0(X, md, lo, hi, at_least=k)) == want


def test_torus_h0_fiber_shapes_exhaustive():
    """Every class of g=3, p=7 on two curves, every md in [-1, g+1]^2 and
    at_least 0-3, against generic h0. A fiber is a run of p-1 classes that
    differ only in c_{g-1}; the grid must contain each shape the closed-form
    solve distinguishes: skipped (the other rows alone leave fewer than
    at_least sections), constant, and exactly one class one higher."""
    g, u = 3, 6
    shapes = set()
    for X in (standard_curve(g, F7), random_curve(g, F7, Rng(27))):
        for d1 in range(-1, g + 2):
            for d2 in range(-1, g + 2):
                md = (d1, d2)
                ncols = max(d1 + 1, 0) + max(d2 + 1, 0)
                classes = list(enumerate_bundles(X, md))
                want = [(L.c, h0(L)) for L in classes]
                for k in range(4):
                    assert list(torus_h0(X, md, at_least=k)) == \
                        [hit for hit in want if hit[1] >= k]
                for f in range(0, len(classes), u):
                    rows = rows_for_gluing(classes[f])
                    del rows[g - 1]
                    if ncols - rank_rows(F7, rows) < 3:
                        shapes.add("skipped")     # at least at at_least=3
                    values = sorted(n for _, n in want[f:f + u])
                    if values[0] == values[-1]:
                        shapes.add("constant")
                    elif values[-2] == values[0] == values[-1] - 1:
                        shapes.add("one-jump")
    assert shapes == {"skipped", "constant", "one-jump"}


def test_torus_h0_digit_tree_exhaustive():
    """Every class of g=4, p=5 on two curves, every md in [-1, g+1]^2 and
    at_least 0-3, against generic h0, over the whole torus and over cuts
    [lo, hi) that start or end inside a skipped subtree. The subtree of a
    prefix c_0 .. c_{depth-1} is skipped when those rows and the pinned row
    of node g already exceed rank ncols - at_least. The grid must contain
    such a prefix above the fiber level (depth < g-1, so at least (p-1)^2
    classes) with a qualifying class beside its subtree, so that the cuts
    have something to lose."""
    g, p = 4, 5
    ctx = PrimeField(p)
    u, total = p - 1, (p - 1) ** g
    rng = Rng(28)
    pool = [ProjPoint.finite(ctx, a) for a in range(p)]
    pool.append(ProjPoint.infinity(ctx))
    curves = [standard_curve(g, ctx),
              BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                        rng.distinct(pool, g + 1))))]
    n_cut = 0
    for X in curves:
        for md in [(d1, d2) for d1 in range(-1, g + 2)
                   for d2 in range(-1, g + 2)]:
            ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
            classes = list(enumerate_bundles(X, md))
            want = [(L.c, h0(L)) for L in classes]
            for k in range(4):
                subtrees = []
                for depth in range(1, g - 1):
                    size = u ** (g - depth)
                    for start in range(0, total, size):
                        rows = rows_for_gluing(classes[start])
                        rank = rank_rows(ctx, rows[:depth] + rows[g:])
                        if rank > ncols - k:
                            subtrees.append((start, start + size))
                # cut inside a skipped subtree, ending just past the next
                # hit after it or starting at the last hit before it
                hits = [i for i, (_, n) in enumerate(want) if n >= k]
                cuts = [(0, total)]
                for start, stop in subtrees:
                    after = [i for i in hits if i >= stop][:1]
                    before = [i for i in hits if i < start][-1:]
                    if len(cuts) > 12 or not (after or before):
                        continue
                    lo = start + u + 1
                    cuts += [(lo, hi) for hi in [stop - 1, total] +
                             [min(i + d, total) for i in after
                              for d in (1, u)]]
                    cuts += [(i, stop - 1) for i in before]
                for lo, hi in cuts:
                    assert list(torus_h0(X, md, lo, hi, at_least=k)) == \
                        [hit for hit in want[lo:hi] if hit[1] >= k]
                n_cut += len(cuts) > 1
    assert n_cut > 0


def _check_count(X, md, r, lo, hi, cap, want):
    """bn_enumerate on [lo, hi) against generic h0 (want: (c, h0) for every
    class of the torus) and against the class path torus_h0."""
    hits = [c for c, n in want[lo:hi] if n >= r + 1]
    rep = bn_enumerate(X, BNQuery(md, r), witness_cap=cap,
                       index_range=(lo, hi))
    assert rep.count == len(hits)
    assert list(rep.witnesses) == hits[:cap]
    assert [c for c, _ in torus_h0(X, md, lo, hi, at_least=r + 1)] == hits
    return hits


@settings(max_examples=40, deadline=None)
@given(torus_cases(), st.data())
def test_bn_enumerate_matches_generic_h0(case, data):
    X, md, r = case
    want = [(L.c, h0(L)) for L in enumerate_bundles(X, md)]
    total = len(want)
    cap = data.draw(st.integers(0, 8))
    _check_count(X, md, r, 0, total, cap, want)
    lo = data.draw(st.integers(0, total))
    hi = data.draw(st.integers(lo, total))
    _check_count(X, md, r, lo, hi, cap, want)


def _sure_hit_subtrees(X, md, at_least, classes):
    """Maximal subtrees of the digit tree above the fiber level (prefix depth
    0 .. g-2, so at least (p-1)^2 classes) whose classes all qualify by the
    rank count alone: the prefix rows and the pinned row of node g have rank
    rf, the g - depth rows still to come add at most 1 each, and
    rf + g - depth <= ncols - at_least."""
    g, u = X.genus, X.ctx.p - 1
    ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
    found = []
    for depth in range(g - 1):
        size = u ** (g - depth)
        for start in range(0, len(classes), size):
            if any(s <= start < e for s, e in found):
                continue
            rows = rows_for_gluing(classes[start])
            rank = rank_rows(X.ctx, rows[:depth] + rows[g:])
            if rank + g - depth <= ncols - at_least:
                found.append((start, start + size))
    return found


def _tight_subtrees(X, md, at_least, classes):
    """Maximal subtrees of the digit tree above the fiber level (prefix depth
    0 .. g-2) whose prefix rows and the pinned row of node g have rank
    exactly ncols - at_least, each as (start, stop, depth, units): units[i]
    lists the c at which node depth + i's row, alone, keeps that rank. A
    class below qualifies iff every remaining row keeps it, so the hits of
    the subtree are the product of these lists."""
    g, u = X.genus, X.ctx.p - 1
    ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
    found = []
    for depth in range(g - 1):
        size = u ** (g - depth)
        for start in range(0, len(classes), size):
            if any(s <= start < e for s, e, _, _ in found):
                continue
            c = classes[start].c
            rows = rows_for_gluing(classes[start])
            fixed = rows[:depth] + rows[g:]
            rank = rank_rows(X.ctx, fixed)
            if rank != ncols - at_least:
                continue

            def row(j, cj):  # node j's row at unit cj
                return rows_for_gluing(
                    LineBundle(X, md, c[:j] + (cj,) + c[j + 1:]))[j]
            units = [[cj for cj in range(1, u + 1)
                      if rank_rows(X.ctx, fixed + [row(j, cj)]) == rank]
                     for j in range(depth, g)]
            found.append((start, start + size, depth, units))
    return found


@lru_cache(maxsize=None)
def _bounds_tori():
    """(X, md, classes, generic (c, h0) of every class) for g=4, p=5 (two
    curves, md in [-1, g+1]^2) and g=5, p=5, md (2,2) and (3,3)."""
    tori = []
    for g, seed, mds in ((4, 28, [(d1, d2) for d1 in range(-1, 6)
                                  for d2 in range(-1, 6)]),
                         (5, 42, [(2, 2), (3, 3)])):
        ctx = PrimeField(5)
        rng = Rng(seed)
        pool = [ProjPoint.finite(ctx, a) for a in range(5)]
        pool.append(ProjPoint.infinity(ctx))
        curves = [BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                            rng.distinct(pool, g + 1))))]
        if g == 4:
            curves.append(standard_curve(g, ctx))
        for X in curves:
            for md in mds:
                classes = list(enumerate_bundles(X, md))
                tori.append((X, md, classes,
                             [(L.c, h0(L)) for L in classes]))
    return tori


def _cuts_inside(s, e, u, total):
    # cuts starting, ending, and both, inside the subtree [s, e)
    return ((s + u + 1, total), (0, e - u - 1), (s + 1, e - 1))


def test_bn_enumerate_bounds_exhaustive():
    """bn_enumerate against generic h0 and torus_h0 on every class of g=4,
    p=5 (two curves, md in [-1, g+1]^2, r 0-3) and of g=5, p=5, md (2,2)
    and (3,3), r 0-1, over the whole torus and over cuts and witness caps
    placed inside sure-hit subtrees. The rank floor must hold on every
    class and be exact on one-block tori, and the walk must cut off exactly
    the sure-hit subtrees found here by rank counting. The grid must
    contain each case the two bounds distinguish."""
    seen = set()
    for X, md, classes, want in _bounds_tori():
        g, u = X.genus, X.ctx.p - 1
        k1, k2 = max(md[0] + 1, 0), max(md[1] + 1, 0)
        ncols, floor = k1 + k2, rank_floor(md, g + 1)
        total = len(want)
        values = {n for _, n in want}
        assert max(values) <= ncols - floor
        one_block = not (k1 and k2)
        if one_block or floor == g + 1:
            # exact: the rank is at most the g+1 rows
            assert values == {ncols - floor}
            seen.add("one-block" if one_block else "floor-n")
        for r in range(4 if g == 4 else 2):
            k = r + 1
            hits = _check_count(X, md, r, 0, total, 5, want)
            if floor > ncols - k:
                assert hits == []
                seen.add("floor-pruned" if not one_block else "one-block")
                continue
            if one_block:
                seen.add("one-block")
                continue
            found = _sure_hit_subtrees(X, md, k, classes)
            walked = [(a, b) for head, a, b, low, _
                      in _torus_runs(X, md, 0, total, k, True)
                      if head is None and b - a > u]
            assert walked == found
            for s, e in found:
                assert all(n >= k for _, n in want[s:e])
                if e - s < total:
                    seen.add("sure-hit")
                # cuts inside the subtree; caps that fill up inside it
                for lo, hi in _cuts_inside(s, e, u, total):
                    before = sum(n >= k for _, n in want[lo:max(s, lo)])
                    inside = min(e, hi) - max(s, lo)
                    for cap in (0, 5, before + 2):
                        _check_count(X, md, r, lo, hi, cap, want)
                        if before < cap < before + inside:
                            seen.add("cap-inside")
                    seen.add("cut-starts-inside" if s < lo else
                             "cut-ends-inside")
    assert seen == {"floor-pruned", "one-block", "floor-n", "sure-hit",
                    "cut-starts-inside", "cut-ends-inside", "cap-inside"}


def test_tight_subtrees_exhaustive():
    """On the grid of test_bn_enumerate_bounds_exhaustive, at_least 0-4
    (g=4) or 0-2 (g=5): below a prefix whose rank already equals ncols -
    at_least, the hits are exactly the product of each remaining node's
    admissible units (found here by rank counting, one node at a time), all
    of h0 = at_least, and the walk closes the subtree without a fiber solve
    (every run in it has low = at_least and no jump). Cuts starting or
    ending inside a tight subtree, one class past its first hit or at its
    last, and caps that fill up inside one, are checked against generic h0
    and torus_h0 (at_least 0 has no W^r count). The grid must contain nodes
    admitting every unit, one unit and none, and tight subtrees at the root
    and below it."""
    seen = set()
    for X, md, classes, want in _bounds_tori():
        g, u = X.genus, X.ctx.p - 1
        total = len(want)
        for k in range(5 if g == 4 else 3):
            runs = list(_torus_runs(X, md, 0, total, k, False))
            n_cut = 0
            for s, e, depth, units in _tight_subtrees(X, md, k, classes):
                seen.add("tight-root" if depth == 0 else "tight-below")
                seen.update("all" if len(us) == u else
                            "one" if len(us) == 1 else "none" for us in units)
                assert all(len(us) in (0, 1, u) for us in units)
                prefix = classes[s].c[:depth]
                product = [prefix + rest + (1,)
                           for rest in itertools.product(*units)]
                assert [(c, n) for c, n in want[s:e] if n >= k] == \
                    [(c, k) for c in product]
                inside = [(low, jump) for head, a, b, low, jump in runs
                          if head is not None and head[:depth] == prefix]
                assert set(inside) <= {(k, 0)}
                if len(product) < 2 or n_cut >= 2:
                    continue
                n_cut += 1
                first = s + want[s:e].index((product[0], k))
                last = s + want[s:e].index((product[-1], k))
                for lo, hi in _cuts_inside(s, e, u, total) + (
                        (first + 1, total), (0, last)):
                    seen.add("cut-starts-inside" if s < lo else
                             "cut-ends-inside")
                    if k == 0:
                        assert list(torus_h0(X, md, lo, hi)) == want[lo:hi]
                        continue
                    before = sum(n >= k for _, n in want[lo:max(s, lo)])
                    hits = sum(n >= k for _, n in want[max(s, lo):min(e, hi)])
                    for cap in (0, 5, before + 1):
                        _check_count(X, md, k - 1, lo, hi, cap, want)
                        if before < cap < before + hits:
                            seen.add("cap-inside")
    assert seen == {"tight-root", "tight-below", "all", "one", "none",
                    "cut-starts-inside", "cut-ends-inside", "cap-inside"}


def _descent_runs(X, md, lo, hi, at_least, sure_hit, seen):
    """The runs of `_torus_runs` by the per-unit descent: every free node,
    node v-1 included, is placed by one row and one reduction of the pairs
    left, and node v's fiber is read off its one reduced pair (zeroing by
    trying every unit). seen collects the cases each unit of node v-1 meets
    below a prefix that is neither pruned, sure-hit nor closed tight, and
    the outcome of each level above depth v-1 one row below the rank bound
    (slack 1), by the units of its first node that give runs, and whether
    a cut starts inside it."""
    p, u = X.ctx.p, X.ctx.p - 1
    k1, k2 = max(md[0] + 1, 0), max(md[1] + 1, 0)
    ncols, max_rank = k1 + k2, k1 + k2 - at_least
    n, total = len(X.nodes), u ** X.genus
    if rank_floor(md, n) > max_rank or lo == hi:
        return
    if not (k1 and k2) or rank_floor(md, n) == n:
        # the rank is at most n, so a floor of n is every class's rank
        yield None, lo, hi, ncols - rank_floor(md, n), 0
        return
    v = n - 2
    e1, e2 = gluing_profile(X, md)
    pairs = [(a + (0,) * k2, (0,) * k1 + b) for a, b in zip(e1, e2)]

    def extend(level, c):
        rank, ((a, b), *rest) = level
        row = [(x - c * y) % p for x, y in zip(a, b)]
        if not any(row):
            return rank, rest
        pc = next(i for i, x in enumerate(row) if x)
        row = [x * pow(row[pc], p - 2, p) % p for x in row]
        return rank + 1, [tuple([(x - vec[pc] * y) % p
                                 for x, y in zip(vec, row)] for vec in pair)
                          for pair in rest]

    def zeroing(a, b):
        cs = [c for c in range(1, p)
              if not any((x - c * y) % p for x, y in zip(a, b))]
        return None if len(cs) == u else cs[0] if cs else 0

    def classify(level, c, child):
        # also tells whether r1_i != 0 (c is neither keep nor ci)
        (a1, b1), _ = level[1]
        r1 = [(x - c * y) % p for x, y in zip(a1, b1)]
        off = False
        if not any(a1 + b1):
            seen.add("pair-zero")
        elif not any(r1):
            seen.add("one-keep")
        elif r1[next(i for i, x in enumerate(a1) if x or b1[i])] == 0:
            seen.add("fallback")
        else:
            off = True
        rank = child[0]
        if rank > max_rank:
            seen.add("over-bound")
        elif sure_hit and rank < max_rank:
            seen.add("sure-hit-child")
        elif any(r1):
            jump = zeroing(*child[1][0])
            seen.add("jump-all" if jump is None else
                     "no-jump" if jump == 0 else "one-jump")
        return off

    def fibers(k, level, base, head):
        rank = level[0]
        if rank > max_rank:
            return
        if sure_hit and rank + v - k < max_rank:
            yield (None, max(lo, base), min(hi, base + u ** (v - k + 1)),
                   None, 0)
            return
        if k == v:
            jump = zeroing(*level[1][0])
            top = ncols - rank
            low, jump = (top, 0) if jump is None else (top - 1, jump)
            c0, c1 = max(lo - base, 0) + 1, min(hi - base, u) + 1
            if low >= at_least:
                yield head, c0, c1, low, jump
            elif c0 <= jump < c1:
                yield head, jump, jump + 1, low, jump
            return
        size = u ** (v - k)
        if rank == max_rank and lo <= base and base + size * u <= hi:
            units = [zeroing(a, b) for a, b in level[1]]
            if 0 in units:
                return
            units = [range(1, p) if c is None else range(c, c + 1)
                     for c in units]
            for prefix in itertools.product(*units[:-1]):
                yield (head + prefix, units[-1].start, units[-1].stop,
                       ncols - rank, 0)
            return
        hits = 0  # units of node v-1 off keep and ci whose fiber has runs
        # units of node k that give runs, with a zero and a nonzero row
        zero = upper = 0
        for d in range(max(lo - base, 0) // size,
                       min(-((base - hi) // size), u)):
            child = extend(level, d + 1)
            runs = list(fibers(k + 1, child, base + d * size,
                               head + (d + 1,)))
            if k == v - 1 and classify(level, d + 1, child) and runs:
                hits += 1
            zero += child[0] == rank and bool(runs)
            upper += child[0] > rank and bool(runs)
            yield from runs
        a1, b1 = level[1][0]
        if k == v - 1 and rank + 1 == max_rank and any(a1 + b1):
            # slack 1: a qualifying unit is a root of every column triple
            # det(r1, a2, b2), so two or more need them all identically 0
            seen.add("slack1-" + ("none", "one", "several")[min(hits, 2)])
        if k < v - 1 and rank + 1 == max_rank:
            if lo <= base and base + size * u <= hi:
                # by the units of node k that give runs: none at all, only
                # those with a zero row, one with a nonzero row, or several
                # (every column triple identically zero)
                seen.add("upper-zero-only" if zero and not upper else
                         "upper-" + ("none", "one", "several")[min(upper, 2)])
            elif base < lo:
                seen.add("upper-cut-starts-inside")

    assert 0 <= lo <= hi <= total
    yield from fibers(0, extend((0, pairs[-1:] + pairs[:-1]), 1), 0, ())


def test_two_node_solve_matches_the_descent():
    """The walk's runs equal those of the per-unit descent, exactly, with
    and without sure-hit cut-offs, at_least 0-4, on the grid of
    test_bn_enumerate_bounds_exhaustive, on curves of 2 and 3 nodes
    (v = 0 and v = 1: the two-node solve at the root) and on two genus-3
    curves over F_13, where a prefix at slack 1 tries at most one of 12
    units, over the whole torus and cuts that start or end inside a block
    of (p-1)^2 classes and inside a fiber. The grid must reach every case
    of the solve, and slack-1 prefixes whose units off keep and ci give
    no hit, one hit, and several (all column triples identically zero).
    Above depth v-1 it must reach slack-1 levels where no unit of the
    first node gives runs, only units with a zero row do, one unit with a
    nonzero row does, or several do (the fallback), and a cut that starts
    inside such a level."""
    tori = [(X, md) for X, md, _, _ in _bounds_tori()]
    F13 = PrimeField(13)
    tori += [(X, md) for X in (standard_curve(3, F13),
                               random_curve(3, F13, Rng(1)))
             for md in ((1, 1), (1, 2), (2, 2))]
    # five free nodes: a slack-1 level above depth v-1 where only the units
    # of its first node with a zero row give runs
    tori.append((random_curve(5, PrimeField(5), Rng(1)), (1, 2)))
    for g in (1, 2):
        for ctx in (PrimeField(5), F7):
            rng = Rng(g)
            pool = [ProjPoint.finite(ctx, a) for a in range(ctx.p)]
            pool.append(ProjPoint.infinity(ctx))
            for X in (standard_curve(g, ctx),
                      BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                                rng.distinct(pool, g + 1))))):
                tori += [(X, (d1, d2)) for d1 in range(-1, g + 3)
                         for d2 in range(-1, g + 3)]
    seen = set()
    for X, md in tori:
        u = X.ctx.p - 1
        total = u ** X.genus
        t = (u * u if total > u * u else 0) + (u if total > u else 0) + 1
        cuts = {(0, total), (t, total), (0, total - t), (t, total - t)}
        for k in range(5):
            for sure_hit in (False, True):
                for lo, hi in cuts:
                    assert list(_torus_runs(X, md, lo, hi, k, sure_hit)) == \
                        list(_descent_runs(X, md, lo, hi, k, sure_hit, seen))
    assert seen == {"pair-zero", "one-keep", "fallback", "jump-all",
                    "one-jump", "no-jump", "over-bound", "sure-hit-child",
                    "slack1-none", "slack1-one", "slack1-several",
                    "upper-none", "upper-one", "upper-several",
                    "upper-zero-only", "upper-cut-starts-inside"}


def test_cut_level_places_no_unit_outside_its_range():
    """A level at depth v-1 that a cut splits, one row below the rank
    bound, places the root of its column triples only when that unit's
    fiber meets the range, and, where every triple is identically zero,
    only its units inside the range. On the first curve the cut ends in
    the last block of p-1 classes and the root lies past it; on the
    standard curve the cut starts at the second unit and the zero-row
    unit, the first, gives a run. Placed, either unit's fiber would be an
    empty or reversed run."""
    ctx = PrimeField(5)
    rng = Rng(30)
    pool = [ProjPoint.finite(ctx, a) for a in range(5)]
    pool.append(ProjPoint.infinity(ctx))
    X = BinaryCurve(ctx, list(zip(rng.distinct(pool, 5),
                                  rng.distinct(pool, 5))))
    total = 4 ** 4
    for X, cut in ((X, (0, total - 4)), (X, (5, total)),
                   (standard_curve(4, ctx), (4, total))):
        for k in range(5):
            for sure_hit in (False, True):
                assert list(_torus_runs(X, (2, 2), *cut, k, sure_hit)) == \
                    list(_descent_runs(X, (2, 2), *cut, k, sure_hit, set()))


def test_rank_floor_of_n_needs_no_gluing_profile(monkeypatch):
    """Regression: a rank floor equal to the node count n is every class's
    rank, so a wide multidegree is counted whole without building the
    gluing profile, whose size grows with md."""
    from bincurve import cohomology

    def refuse(X, md):
        raise AssertionError("gluing profile built")
    monkeypatch.setattr(cohomology, "gluing_profile", refuse)
    X = random_curve(3, F7, Rng(1))
    md = (10 ** 6, 10 ** 6)
    rep = bn_enumerate(X, BNQuery(md, 1), witness_cap=3)
    assert rep.count == 6 ** 3
    assert list(rep.witnesses) == [gluing_at(X, i) for i in range(3)]
    assert next(torus_h0(X, md, at_least=2)) == ((1, 1, 1, 1), 2 * 10 ** 6 - 2)


def test_predicted_empty_is_the_rank_floor():
    """Regression: the one rank-floor call equals the two pigeonhole clauses
    it replaced (sorted d1 <= d2) on every balanced md for g 2-7, r 0-4."""
    n_empty = 0
    for g in range(2, 8):
        for r in range(5):
            for d in range(-g - 2, 3 * g + 3):
                for md in balanced_set(d, g):
                    d1, d2 = sorted(md)
                    old = ((d1 < 0 and d <= g + r)
                           or (0 <= d1 <= r - 1 and d <= g + r - 1))
                    assert predicted_empty(md, r, g) == old
                    n_empty += old
    assert n_empty > 1000


def test_torus_h0_without_free_coordinate():
    # g = 0: one class, node 0's row is a - 1·b; genus -1: no row at all
    pts = [ProjPoint.finite(F7, a) for a in range(7)]
    curves = [BinaryCurve(F7, [(pts[i], pts[j])]) for i in (0, 3)
              for j in (0, 5)]
    curves.append(BinaryCurve(F7, [(ProjPoint.infinity(F7), pts[2])]))
    curves.append(BinaryCurve(F7, []))
    for X in curves:
        for md in [(d1, d2) for d1 in range(-2, 3) for d2 in range(-2, 3)]:
            want = [(L.c, h0(L)) for L in enumerate_bundles(X, md)]
            for k in range(4):
                assert list(torus_h0(X, md, at_least=k)) == \
                    [hit for hit in want if hit[1] >= k]


def test_torus_h0_cut_inside_a_fiber():
    # consecutive runs of p-1 classes differ only in c_{g-1}; cut into two
    X = random_curve(3, F7, Rng(26))
    full = list(torus_h0(X, (1, 2)))
    assert list(torus_h0(X, (1, 2), 7, 16)) == full[7:16]
    assert list(torus_h0(X, (1, 2), 7, 16, at_least=2)) == \
        [hit for hit in full[7:16] if hit[1] >= 2]


def test_torus_h0_validates_field_and_range():
    with pytest.raises(ValueError):
        next(torus_h0(standard_curve(2, Rationals()), (1, 1)))
    X = standard_curve(2, F7)
    for lo, hi in ((-1, 5), (5, 4), (0, 37)):
        with pytest.raises(ValueError):
            next(torus_h0(X, (1, 1), lo, hi))
    assert list(torus_h0(X, (1, 1), 36, 36)) == []


def test_merge_rejects_gaps():
    X = random_curve(3, F7, Rng(16))
    q = BNQuery((1, 1), 1)
    a = bn_enumerate(X, q, index_range=(0, 50))
    b = bn_enumerate(X, q, index_range=(60, 216))
    with pytest.raises(ValueError):
        merge_reports([a, b])
    # shards come in index order; a reversed pair is not contiguous
    c = bn_enumerate(X, q, index_range=(50, 216))
    merge_reports([a, c])
    with pytest.raises(ValueError, match="shards are not contiguous"):
        merge_reports([c, a])


def test_merge_rejects_no_shards():
    with pytest.raises(ValueError, match="no shard reports"):
        merge_reports([])


def test_predicted_empty_cases():
    # case (i): negative part (balance then forces d <= g, hence d <= g+r)
    assert predicted_empty((-1, 3), 1, 3)
    assert predicted_empty((-1, 2), 0, 3)
    assert predicted_empty((-1, 3), 0, 3)
    # case (ii): small nonnegative part and d <= g+r-1
    assert predicted_empty((0, 3), 1, 3)
    assert predicted_empty((1, 2), 2, 3)            # d1=1 <= r-1, d=3 <= 4
    assert not predicted_empty((1, 2), 1, 3)
    assert not predicted_empty((2, 2), 2, 3)        # d=4 > g+r-1 fails? equal
    assert not predicted_empty((2, 3), 2, 3)        # d=5 > g+r-1=4
    # unsorted input is normalized
    assert predicted_empty((3, 0), 1, 3)
    with pytest.raises(ValueError):
        predicted_empty((-2, 5), 1, 3)              # not balanced


def test_predicted_empty_agrees_with_scan():
    # by generic h0: the torus walk stops at the rank floor predicted_empty
    # reads, so a scan through it would agree by construction
    X = random_curve(3, F7, Rng(17))
    for d in range(0, 4):
        for md in balanced_set(d, 3):
            rs = [r for r in (0, 1, 2) if predicted_empty(md, r, 3)]
            if rs:
                top = max(h0(L) for L in enumerate_bundles(X, md))
                assert top < min(rs) + 1, (md, rs)


def test_clifford_index_hyperelliptic_vs_generic():
    H = standard_curve(3, F7)
    rep = clifford_index(H)
    assert rep.cliff == 0 and rep.md == (1, 1)
    X = random_curve(3, F7, Rng(18))
    rep2 = clifford_index(X)  # non-hyperelliptic g=3 has no qualifying class
    assert rep2.cliff is None
    assert rep2.to_json()["cliff"] == "undefined"
    g2 = standard_curve(2, F7)
    assert clifford_index(g2).cliff == 0


def clifford_full_scan(X):
    """The reference: every class with h0 >= 2 of every balanced md of
    degree 2 .. 2g-2, filtered to h1 >= 2, keeping the first strict
    improvement of d - 2·h0 + 2 (so ties keep the earliest class)."""
    g = X.genus
    best = (None, None, None, None)
    for d in range(2, 2 * g - 1):
        for md in balanced_set(d, g):
            for c, n in torus_h0(X, md, at_least=2):
                cl = d - 2 * n + 2
                if n - d + g - 1 >= 2 and (best[0] is None or cl < best[0]):
                    best = (cl, d, md, c)
    return best


# random curves at p >= g+3 only: a fixture choice (random_curve needs p >= g)
CLIFFORD_CURVES = [(g, p, hyp) for g in (3, 4) for p in (5, 7, 11)
                   for hyp in (False, True) if hyp or p >= g + 3]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CLIFFORD_CURVES), st.integers(0, 10 ** 6))
def test_clifford_index_matches_the_full_scan(case, seed):
    g, p, hyp = case
    make = random_hyperelliptic_curve if hyp else random_curve
    X = make(g, PrimeField(p), Rng(seed))
    rep = clifford_index(X)
    assert (rep.cliff, rep.d, rep.md, rep.witness) == clifford_full_scan(X)


@pytest.mark.parametrize("X,cliff,method", [
    (random_hyperelliptic_curve(4, F7, Rng(1)), 0, "pencil-scan"),
    (random_curve(4, F7, Rng(2)), 1, "pencil-scan"),
    (random_curve(4, F7, Rng(1)), None, "full-scan"),
], ids=["hyperelliptic", "trigonal", "undefined"])
def test_clifford_index_outcomes_on_fixed_curves(X, cliff, method):
    rep = clifford_index(X)
    assert (rep.cliff, rep.method) == (cliff, method)
    assert (rep.cliff, rep.d, rep.md, rep.witness) == clifford_full_scan(X)


def test_clifford_index_two_witness_has_the_sections():
    # the full scan takes seconds here, so check the witness with generic h0
    X = random_curve(5, F11, Rng(1))
    rep = clifford_index(X)
    assert (rep.cliff, rep.md, rep.method) == (2, (1, 3), "full-scan")
    L = LineBundle(X, rep.md, rep.witness)
    assert h0(L) == (rep.d - rep.cliff) // 2 + 1
    assert h0(tensor(canonical_bundle(X), dual(L))) >= 2  # h1, by duality


def test_clifford_equality_classes():
    X = standard_curve(3, F7)
    H = hyperelliptic_class(X)
    for d, L in ((0, trivial(X)), (2, H), (4, canonical_bundle(X))):
        assert clifford_equality_classes(X, d) == [(L.md, L.c)]
    for d in (3, -2, 6):  # odd, or outside 0 <= d <= 2g-2
        with pytest.raises(ValueError):
            clifford_equality_classes(X, d)
    Xn = random_curve(3, F7, Rng(19))
    assert clifford_equality_classes(Xn, 2) == []  # not hyperelliptic
    triv = trivial(standard_curve(1, F7))  # g = 1: w = O, named once
    assert clifford_equality_classes(triv.curve, 0) == [(triv.md, triv.c)]


def test_martens_bound_window():
    assert martens_bound(4, 3, 1, hyperelliptic=True) == DimPrediction(
        "exact", 1)
    assert martens_bound(4, 3, 1, hyperelliptic=False) == DimPrediction(
        "le", 0)
    # 2r = d: the one point rH on a hyperelliptic curve, else bound -1
    assert martens_bound(4, 2, 1, True) == DimPrediction("point", 0)
    assert martens_bound(6, 4, 2, True) == DimPrediction("point", 0)
    assert martens_bound(4, 2, 1, False) == DimPrediction("empty")
    with pytest.raises(ValueError):
        martens_bound(4, 5, 1, True)    # d = 5 > g-1
    with pytest.raises(ValueError):
        martens_bound(4, 3, 0, True)    # r must be positive
    with pytest.raises(ValueError):
        martens_bound(4, 3, 2, True)    # 2r > d
    # inside the window, an md is provably empty exactly when r > min(md)
    for g in range(3, 12):
        for d in range(2, g):
            for r in range(1, d // 2 + 1):
                for md in balanced_set(d, g):
                    assert predicted_empty(md, r, g) == (r > min(md))


def test_dim_prediction_holds():
    def est(counts, kind, rounded=None):
        return DimEstimate((13, 23), counts, kind, None, rounded, None)
    one, line = est((1, 1), "ok", 0), est((23, 43), "ok", 1)
    empty, unsure = est((0, 0), "empty"), est((1, 2), "inconclusive", 1)
    assert DimPrediction("point", 0).holds(one)
    assert not DimPrediction("point", 0).holds(est((2, 2), "ok", 0))
    assert DimPrediction("exact", 1).holds(line)
    for wrong in (0, 2):
        assert not DimPrediction("exact", wrong).holds(line)
    assert DimPrediction("le", 1).holds(line)
    assert not DimPrediction("le", 0).holds(line)
    assert DimPrediction("le", 0).holds(empty)
    assert DimPrediction("empty").holds(empty)
    for e in (one, line, unsure):
        assert not DimPrediction("empty").holds(e)
    for kind in ("exact", "le"):
        assert not DimPrediction(kind, 1).holds(unsure)
        assert not DimPrediction(kind, 0).holds(est((0, 3), "inconclusive"))
    assert not DimPrediction("exact", 0).holds(empty)


def _diagonal_curve(ctx, xs):
    # nodes (x, x) for each finite x, then (oo, oo)
    pts = [ProjPoint.finite(ctx, x) for x in xs] + [ProjPoint.infinity(ctx)]
    return BinaryCurve(ctx, [(pt, pt) for pt in pts])


def test_reduce_curve_mod():
    Q = Rationals()
    X = standard_curve(3, Q)
    Xp = reduce_curve_mod(X, 11)
    assert Xp.ctx == PrimeField(11) and Xp.genus == 3
    # fractions reduce as a * b^-1: 1/2 = 6 and -3/4 = -3 * 3 = 2 mod 11
    half = _diagonal_curve(Q, [Fraction(1, 2), Fraction(-3, 4)])
    want = _diagonal_curve(PrimeField(11), [6, 2])
    assert reduce_curve_mod(half, 11).to_json() == want.to_json()
    # nodes 0,1,2,oo collide mod small p... 2 = 9 mod 7 stays fine, but a
    # curve with nodes 0 and 7 degenerates mod 7, and 1/11 has no value
    # mod 11
    for bad, p in ((_diagonal_curve(Q, [0, 7]), 7),
                   (_diagonal_curve(Q, [Fraction(1, 11), 1]), 11)):
        with pytest.raises(ValueError, match="bad reduction"):
            reduce_curve_mod(bad, p)
    with pytest.raises(ValueError):
        reduce_curve_mod(half, 9)  # not a prime
    with pytest.raises(ValueError):
        reduce_curve_mod(Xp, 11)  # only rational-coefficient curves reduce


def test_estimate_dim_verdicts():
    X = standard_curve(3, Rationals())
    est = estimate_dim(X, BNQuery((1, 1), 1), (7, 11))
    assert est.kind == "ok" and est.rounded == 0 and est.residual == 0.0
    est2 = estimate_dim(X, BNQuery((0, 2), 1), (7, 11))
    assert est2.kind == "empty"
    with pytest.raises(ValueError):
        estimate_dim(X, BNQuery((1, 1), 1), (7,))  # needs two primes
    with pytest.raises(ValueError, match="two distinct primes"):
        estimate_dim(X, BNQuery((1, 1), 1), (13, 13))
    # a repeated prime is scanned once
    assert estimate_dim(X, BNQuery((1, 1), 1), [11, 7, 7]) == est


def test_growth_estimate_verdicts():
    seen = []

    def count(p):
        seen.append(p)
        return {13: 9, 23: 19, 11: 7, 7: 0}[p]
    est = growth_estimate((23, 13, 13), count)
    assert seen == [13, 23] and est.counts == (9, 19)
    assert est.kind == "ok" and est.rounded == 1
    # 7 -> 19 from 11 to 23 is exponent 1.354, past the 0.35 residual
    assert growth_estimate((11, 23), count).kind == "inconclusive"
    assert growth_estimate((7, 13), count).kind == "inconclusive"
    assert growth_estimate((7, 13), lambda p: 0).kind == "empty"
    with pytest.raises(ValueError, match="two distinct primes"):
        growth_estimate((13, 13), count)


@st.composite
def integral_models(draw):
    """A curve over Q with integer (or infinite) branch points and a bundle
    with integral gluing; the integers stay small so most primes are good."""
    g = draw(st.integers(1, 3))
    coords = st.lists(st.none() | st.integers(-5, 5), min_size=g + 1,
                      max_size=g + 1, unique=True)
    glue = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=g + 1,
                         max_size=g + 1))
    md = (draw(st.integers(-1, g + 1)), draw(st.integers(-1, g + 1)))
    return draw(coords), draw(coords), glue, md


def _points(ctx, coords):
    return [ProjPoint.infinity(ctx) if a is None
            else ProjPoint.finite(ctx, ctx.from_int(a)) for a in coords]


def _reduce_vector(vec, p):
    """Entrywise reduction of a Fraction vector, None if not p-integral."""
    if any(x.denominator % p == 0 for x in vec):
        return None
    return tuple(x.numerator * pow(x.denominator, -1, p) % p for x in vec)


def test_q_model_h0_and_sections_reduce_mod_p():
    """Semicontinuity: h0 over Q <= h0 of the reduction at every good prime
    (the curve reduces without collisions and every gluing value is a
    unit). Where the two agree and the Q kernel basis is p-integral, that
    basis reduces entrywise to exactly the mod-p SectionSpace basis: both
    are the canonical basis of the same pivot columns. (With equal h0 the
    pivot columns can still move mod p, e.g. for the row [p, 1, 1]; the Q
    basis then has p in a denominator and is not compared.)"""
    seen = {"jump": 0, "basis": 0}

    # g = 1, md (0,0): rows [1 | -c_j], rank 1 mod 5 where 1 = 6, else 2;
    # md (1,1) keeps h0 = 2 at every prime
    @example(([0, 1], [0, 1], [1, 6], (0, 0)))
    @example(([0, 1], [0, 1], [1, 6], (1, 1)))
    @settings(max_examples=60, deadline=None)
    @given(integral_models())
    def check(model):
        left, right, glue, md = model
        Q = Rationals()
        XQ = BinaryCurve(Q, list(zip(_points(Q, left), _points(Q, right))))
        SQ = SectionSpace(LineBundle(XQ, md, [Q.from_int(c) for c in glue]))
        assert SQ.dim == h0(SQ.bundle)
        for p in (5, 7, 11, 13):
            if any(c % p == 0 for c in glue):
                continue
            try:
                Xp = reduce_curve_mod(XQ, p)
            except ValueError:
                continue   # two branch points collide mod p
            Sp = SectionSpace(LineBundle(Xp, md, [c % p for c in glue]))
            assert SQ.dim <= Sp.dim
            seen["jump"] += SQ.dim < Sp.dim
            reduced = [_reduce_vector(f + hpart, p) for f, hpart in SQ.basis]
            if SQ.dim == Sp.dim and None not in reduced:
                assert reduced == [f + hpart for f, hpart in Sp.basis]
                seen["basis"] += SQ.dim > 0

    check()
    assert seen["jump"] and seen["basis"]


@settings(max_examples=10, deadline=None)
@given(integral_models(), st.integers(0, 1))
def test_estimate_dim_counts_equal_direct_fp_scans(model, r):
    """estimate_dim reduces the Q curve with reduce_curve_mod and counts
    with torus_h0; the reference builds each F_p curve from the integers
    directly and counts with generic h0 over enumerate_bundles. Branch
    points lie in [-5, 5], so they stay distinct mod 11 and 13."""
    left, right, _, md = model
    Q = Rationals()
    XQ = BinaryCurve(Q, list(zip(_points(Q, left), _points(Q, right))))
    counts = []
    for p in (11, 13):
        F = PrimeField(p)
        Xp = BinaryCurve(F, list(zip(_points(F, left), _points(F, right))))
        counts.append(sum(1 for L in enumerate_bundles(Xp, md)
                          if h0(L) >= r + 1))
    est = estimate_dim(XQ, BNQuery(md, r), (13, 11))
    assert est.primes == (11, 13) and est.counts == tuple(counts)


def test_assemble_wbar_window_and_ell0():
    X = standard_curve(2, F7)
    counts = assemble_Wbar(X, 1, 0)
    assert picard_type(1, 2) == "degeneration"
    assert h0_bar(Ell0(1, 2)) == 0
    assert list(counts) == enumerate_strata(X, 1)[:-1]
    assert sum(counts.values()) > 0
    with pytest.raises(ValueError):
        assemble_Wbar(X, 3, 1)   # d > r+g-1


def test_wbar_neron_type_has_no_ell0_fields():
    X = standard_curve(2, F7)
    counts = assemble_Wbar(X, 2, 1)
    assert picard_type(2, 2) == "neron"
    assert list(counts) == enumerate_strata(X, 2)
    assert not any(isinstance(st, Ell0) for st in counts)


def test_ell0_stays_outside_wbar_in_its_window():
    # the identified point has h0_bar <= r wherever assemble_Wbar runs
    for g in range(1, 9):
        for r in range(4):
            for d in range(-3 * g - 3, r + g):
                if picard_type(d, g) == "degeneration":
                    assert h0_bar(Ell0(d, g)) <= r, (g, r, d)


@pytest.mark.parametrize("X,d,r", [
    (standard_curve(2, F7), 1, 0),               # degeneration type
    (standard_curve(2, F7), 2, 1),               # Neron type
    (random_curve(3, F7, Rng(5)), 2, 1),         # no g^1_2: all counts 0
    (random_curve(3, F7, Rng(5)), 3, 1),
], ids=["g2-d1-r0", "g2-d2-r1", "g3-d2-r1", "g3-d3-r1"])
def test_wbar_counts_equal_generic_h0_on_every_point(X, d, r):
    counts = assemble_Wbar(X, d, r)
    strata = [s for s in enumerate_strata(X, d) if not isinstance(s, Ell0)]
    assert list(counts) == strata
    # its own normalizations and generic h0, independent of the walk
    for s in strata:
        Y, _ = normalize_at(X, s.S)
        want = sum(1 for M in enumerate_bundles(Y, s.md) if h0(M) >= r + 1)
        assert counts[s] == want, s


def test_canonical_is_unique_rho_zero_witness():
    X = random_curve(3, F7, Rng(24))
    rep = bn_enumerate(X, BNQuery((2, 2), 2), witness_cap=2)
    w = canonical_bundle(X)
    assert rep.count == 1 and rep.witnesses[0] == w.c


def test_hyperelliptic_locus_witness():
    X = random_hyperelliptic_curve(4, F7, Rng(25))
    rep = bn_enumerate(X, BNQuery((1, 1), 1), witness_cap=2)
    H = hyperelliptic_class(X)
    assert rep.count == 1 and rep.witnesses[0] == H.c
